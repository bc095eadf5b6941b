"""Synthetic drift-stream lab and the feature-file exchange format.

The generator is a Gaussian cluster model with three separately
controllable shift sources: a per-user random offset (new user), small
per-source sub-offsets within a class (distinct attack recordings), and a
slow linear drift of the cluster means over wall time (changing lighting,
pose, expression). Live and spoof clusters sit ``class_separation``
within-cluster standard deviations apart along the first feature axis.

Streams are generated for held-out users whose identities live in a
disjoint id range from the pre-training users, so train/test user
disjointness is structural rather than conventional. Hidden ground-truth
labels are returned on a separate channel from the frames: the engine's
input type carries no label field, only the evaluation harness sees them.

``GeneratorConfig``, ``Segment`` and ``StreamScenario`` check their own
ranges when built, so the generators take them as given.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import ClassLabel, check_ranges, from_mapping
from .errors import ConfigError, DataError
from .rng import seeded_rng

# Held-out stream users are offset into their own id range so they can
# never collide with pre-training user ids.
HELD_OUT_USER_BASE = 1_000_000

# Per-source sub-offset magnitude, in units of within-cluster std.
SOURCE_SHIFT_SCALE = 0.5


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the synthetic feature distribution. All shift magnitudes
    are measured in units of the within-cluster standard deviation."""

    d: int = 32
    class_separation: float = 4.0
    user_shift_scale: float = 1.5
    drift_rate: float = 0.1
    noise_std: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_ranges(self, (("d", lambda v: v >= 1, "d >= 1"),))
        if self.class_separation <= 0 or self.noise_std <= 0:
            raise ConfigError("class_separation and noise_std must be positive")


@dataclass(frozen=True)
class Segment:
    label: ClassLabel
    duration_frames: int
    source_id: int = 0

    def __post_init__(self) -> None:
        if self.duration_frames < 1:
            raise ConfigError(f"segment duration must be >= 1, got {self.duration_frames}")


@dataclass(frozen=True)
class StreamScenario:
    """A timed sequence of single-class segments. One segment is the
    single-video regime; several interleaved segments form the continual
    regime."""

    segments: tuple[Segment, ...]
    frame_rate: float = 30.0
    user_id: int = 0

    def __post_init__(self) -> None:
        if not self.segments:
            raise ConfigError("scenario needs at least one segment")
        check_ranges(self, (("frame_rate", lambda v: v > 0, "frame_rate > 0"),))

    @property
    def total_frames(self) -> int:
        return sum(s.duration_frames for s in self.segments)


class StreamFrame(NamedTuple):
    """What the engine is allowed to see: a feature vector and its timing.
    No label field, by construction."""

    feature: np.ndarray
    frame_index: int
    time: float


def _user_offset(cfg: GeneratorConfig, user_id: int) -> np.ndarray:
    rng = seeded_rng(cfg.seed, f"user-offset-{user_id}")
    return rng.standard_normal(cfg.d) * cfg.user_shift_scale * cfg.noise_std


def _class_mean(cfg: GeneratorConfig, label: ClassLabel) -> np.ndarray:
    mean = np.zeros(cfg.d)
    sign = 1.0 if label == ClassLabel.SPOOF else -1.0
    mean[0] = sign * cfg.class_separation * cfg.noise_std / 2.0
    return mean


def generate_pretraining_set(
    cfg: GeneratorConfig, n_users: int, frames_per_user: int
) -> tuple[np.ndarray, np.ndarray]:
    """Balanced labeled features from ``n_users`` training users, each with
    its own random offset. Deterministic under cfg.seed."""
    if n_users < 2:
        raise ConfigError(f"need at least 2 training users, got {n_users}")
    feats = []
    labels = []
    n_live = frames_per_user - frames_per_user // 2
    counts = {ClassLabel.LIVE: n_live, ClassLabel.SPOOF: frames_per_user // 2}
    for user in range(n_users):
        offset = _user_offset(cfg, user)
        noise_rng = seeded_rng(cfg.seed, f"pretrain-noise-{user}")
        for label, count in counts.items():
            block = (
                _class_mean(cfg, label)
                + offset
                + noise_rng.standard_normal((count, cfg.d)) * cfg.noise_std
            )
            feats.append(block)
            labels.append(np.full(count, int(label), dtype=np.int64))
    return np.concatenate(feats), np.concatenate(labels)


def generate_stream(
    cfg: GeneratorConfig, scenario: StreamScenario
) -> tuple[list[StreamFrame], np.ndarray]:
    """Feature stream for a held-out user.

    Returns (frames, hidden_labels): the frames carry only features and
    timing; the labels array is the harness-side ground truth. Frame
    indices are 1-based; frame t occurs at wall time (t - 1) / frame_rate.
    Cluster means drift by ``drift_rate`` std units per second along one
    seeded random direction for the whole stream.
    """
    uid = HELD_OUT_USER_BASE + scenario.user_id
    offset = _user_offset(cfg, uid)
    drift_rng = seeded_rng(cfg.seed, f"drift-direction-{uid}")
    direction = drift_rng.standard_normal(cfg.d)
    direction /= np.linalg.norm(direction)
    noise_rng = seeded_rng(cfg.seed, f"stream-noise-{uid}")

    frames: list[StreamFrame] = []
    labels = np.empty(scenario.total_frames, dtype=np.int64)
    t = 0
    for seg in scenario.segments:
        source_rng = seeded_rng(cfg.seed, f"source-{int(seg.label)}-{seg.source_id}-{uid}")
        source_offset = (
            source_rng.standard_normal(cfg.d) * SOURCE_SHIFT_SCALE * cfg.noise_std
        )
        base = _class_mean(cfg, seg.label) + offset + source_offset
        noise = noise_rng.standard_normal((seg.duration_frames, cfg.d)) * cfg.noise_std
        for k in range(seg.duration_frames):
            time = t / scenario.frame_rate
            drift = direction * cfg.drift_rate * cfg.noise_std * time
            frames.append(StreamFrame(base + drift + noise[k], t + 1, time))
            labels[t] = int(seg.label)
            t += 1
    return frames, labels


# ---------------------------------------------------------------------------
# Feature files: plain-text, bit-exact round trip
# ---------------------------------------------------------------------------

FEATURE_FILE_VERSION = "v1"


@dataclass
class FeatureFileData:
    features: np.ndarray
    labels: np.ndarray | None
    frame_indices: np.ndarray
    times: np.ndarray
    frame_rate: float

    def to_frames(self) -> list[StreamFrame]:
        return [
            StreamFrame(self.features[i], int(self.frame_indices[i]), float(self.times[i]))
            for i in range(len(self.features))
        ]


def save_feature_file(
    path: str | Path,
    features,
    frame_indices,
    times,
    labels=None,
    frame_rate: float = 30.0,
) -> None:
    """Write header ``oapf v1 d=<dim> labeled=<0|1> fps=<rate>`` then one
    record per line: frame_index, time, optional label, then the feature
    values. Floats are printed with shortest round-trip repr, so a save /
    load cycle is bit-exact."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise DataError("features must be a 2-d array")
    if not np.isfinite(features).all():
        raise DataError("refusing to write non-finite feature values")
    n, d = features.shape
    labeled = labels is not None
    with open(path, "w") as fh:
        fh.write(f"oapf {FEATURE_FILE_VERSION} d={d} labeled={int(labeled)} fps={frame_rate!r}\n")
        for i in range(n):
            cols = [str(int(frame_indices[i])), repr(float(times[i]))]
            if labeled:
                cols.append(str(int(labels[i])))
            cols.extend(repr(float(v)) for v in features[i])
            fh.write(",".join(cols) + "\n")


def load_feature_file(path: str | Path) -> FeatureFileData:
    path = Path(path)
    with open(path) as fh:
        header = fh.readline().strip()
        parts = header.split()
        if len(parts) != 5 or parts[0] != "oapf":
            raise DataError(f"{path}: malformed header {header!r}")
        if parts[1] != FEATURE_FILE_VERSION:
            raise DataError(f"{path}: unsupported format version {parts[1]!r}")
        try:
            fields = dict(p.split("=", 1) for p in parts[2:])
            d = int(fields["d"])
            labeled = bool(int(fields["labeled"]))
            frame_rate = float(fields["fps"])
        except (ValueError, KeyError) as exc:
            raise DataError(f"{path}: malformed header {header!r}") from exc

        expected_cols = 2 + int(labeled) + d
        frame_indices: list[int] = []
        times: list[float] = []
        labels: list[int] = []
        rows: list[np.ndarray] = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cols = line.split(",")
            if len(cols) != expected_cols:
                raise DataError(
                    f"{path}:{lineno}: expected {expected_cols} columns, got {len(cols)}"
                )
            try:
                frame_indices.append(int(cols[0]))
                times.append(float(cols[1]))
                if labeled:
                    labels.append(int(cols[2]))
                values = np.array([float(v) for v in cols[2 + int(labeled) :]])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: unparseable value") from exc
            if not np.isfinite(values).all():
                raise DataError(f"{path}:{lineno}: non-finite feature value")
            rows.append(values)

    features = np.stack(rows) if rows else np.zeros((0, d))
    return FeatureFileData(
        features=features,
        labels=np.array(labels, dtype=np.int64) if labeled else None,
        frame_indices=np.array(frame_indices, dtype=np.int64),
        times=np.array(times, dtype=np.float64),
        frame_rate=frame_rate,
    )


def save_stream_file(
    path: str | Path,
    frames: list[StreamFrame],
    labels=None,
    frame_rate: float = 30.0,
) -> None:
    """Convenience wrapper: persist a generated stream (with its hidden
    labels, when the harness wants them) in the feature-file format."""
    features = np.stack([f.feature for f in frames])
    save_feature_file(
        path,
        features,
        frame_indices=[f.frame_index for f in frames],
        times=[f.time for f in frames],
        labels=labels,
        frame_rate=frame_rate,
    )


# ---------------------------------------------------------------------------
# Scenario config parsing (flat key = value files)
# ---------------------------------------------------------------------------


def parse_segments(text: str) -> tuple[Segment, ...]:
    """Parse ``live:300,spoof:300,live:300``. An optional third component
    pins the source id (``spoof:300:2``); otherwise sources number each
    class's segments in order of appearance."""
    segments: list[Segment] = []
    per_class_count = {ClassLabel.LIVE: 0, ClassLabel.SPOOF: 0}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        bits = part.split(":")
        if len(bits) not in (2, 3):
            raise ConfigError(f"bad segment spec {part!r} (want label:frames[:source])")
        name = bits[0].strip().lower()
        if name not in ("live", "spoof"):
            raise ConfigError(f"unknown segment label {bits[0]!r}")
        label = ClassLabel.LIVE if name == "live" else ClassLabel.SPOOF
        try:
            duration = int(bits[1])
            source = int(bits[2]) if len(bits) == 3 else per_class_count[label]
        except ValueError as exc:
            raise ConfigError(f"bad segment spec {part!r}") from exc
        per_class_count[label] += 1
        segments.append(Segment(label, duration, source))
    return tuple(segments)


def scenario_from_mapping(mapping: dict[str, str]) -> StreamScenario:
    if "segments" not in mapping:
        raise ConfigError("scenario config needs a 'segments' entry")
    return from_mapping(StreamScenario(parse_segments(mapping["segments"])), mapping)
