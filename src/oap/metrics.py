"""Frame-level classification error metrics.

At a fixed threshold: APCER (spoof frames called live), BPCER (live
frames called spoof) and their mean ACER. Threshold-free: the equal error
rate, swept over the operating points the score set actually realizes.
The decision rule is strict everywhere: a frame is called spoof iff its
score strictly exceeds the threshold.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .config import ClassLabel
from .errors import DataError
from .head import check_labels


def _split_scores(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64).ravel()
    spoof = check_labels(labels, scores.size)
    check_both_classes(spoof)
    return scores[~spoof], scores[spoof]


def check_both_classes(labels) -> None:
    """A DataError unless ``labels`` hold both classes, as every error rate needs."""
    labels = np.asarray(labels)
    if not (labels == ClassLabel.SPOOF).any():
        raise DataError("no spoof frames: APCER undefined")
    if not (labels == ClassLabel.LIVE).any():
        raise DataError("no live frames: BPCER undefined")


def fixed_threshold_metrics(scores, labels, threshold: float) -> tuple[float, float, float]:
    """(apcer, bpcer, acer) at the given threshold.

    apcer = fraction of spoof frames with score <= threshold;
    bpcer = fraction of live frames with score > threshold;
    acer = their mean, exactly.
    """
    return _fixed_threshold(*_split_scores(scores, labels), threshold)


def _fixed_threshold(live: np.ndarray, spoof: np.ndarray, threshold: float) -> tuple:
    apcer = float(np.mean(spoof <= threshold))
    bpcer = float(np.mean(live > threshold))
    return apcer, bpcer, (apcer + bpcer) / 2.0


def _equal_error_rate(live: np.ndarray, spoof: np.ndarray) -> float:
    """Error rate at the threshold where APCER equals BPCER.

    Thresholds sweep the midpoints between adjacent unique scores (plus
    sentinels outside the score range). APCER - BPCER is non-decreasing
    along the sweep; when no operating point hits an exact crossing, the
    rate is interpolated linearly between the two adjacent operating
    points, which makes the estimate invariant to any strictly increasing
    transformation of the scores.
    """
    uniq = np.unique(np.concatenate([live, spoof]))
    thresholds = np.concatenate(
        ([uniq[0] - 1.0], (uniq[:-1] + uniq[1:]) / 2.0, [uniq[-1] + 1.0])
    )
    spoof_sorted = np.sort(spoof)
    live_sorted = np.sort(live)
    apcer = np.searchsorted(spoof_sorted, thresholds, side="right") / len(spoof)
    bpcer = 1.0 - np.searchsorted(live_sorted, thresholds, side="right") / len(live)
    diff = apcer - bpcer

    i = int(np.argmax(diff >= 0.0))
    if diff[i] == 0.0:
        return float(apcer[i])
    a1, b1 = apcer[i - 1], bpcer[i - 1]
    a2, b2 = apcer[i], bpcer[i]
    s = (b1 - a1) / ((a2 - a1) + (b1 - b2))
    return float(a1 + s * (a2 - a1))


@dataclass(frozen=True)
class MetricReport:
    apcer: float
    bpcer: float
    acer: float
    eer: float
    threshold: float
    n_live: int
    n_spoof: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")


def evaluate_frames(scores, labels, threshold: float = 0.5) -> MetricReport:
    """Full report over a set of scored frames, split by class once."""
    live, spoof = _split_scores(scores, labels)
    apcer, bpcer, acer = _fixed_threshold(live, spoof, threshold)
    return MetricReport(
        apcer=apcer,
        bpcer=bpcer,
        acer=acer,
        eer=_equal_error_rate(live, spoof),
        threshold=float(threshold),
        n_live=int(len(live)),
        n_spoof=int(len(spoof)),
    )
