"""The two sample stores behind online fine-tuning.

OnlineBuffer is the evolving, time-windowed store of pseudo-labeled
features from the current stream; ReplayStore is a frozen, stratified
subset of the pre-training data that regularizes fine-tuning against
forgetting. ``sample_batch`` mixes them: each batch slot independently
picks a source (online with probability ``online_prob``), then a class
uniformly among the classes present in that source, then an entry
uniformly within the class, with replacement. An empty source redirects
its slots to the other store, which keeps fine-tuning alive during cold
start when the online buffer is still empty.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from .config import ClassLabel, PseudoLabel
from .errors import DataError
from .pseudolabel import smooth_labels


class OnlineBuffer:
    """Ordered store of (feature, raw pseudo-label, smoothed working label,
    frame_index, wall time). Single writer; discard labels never enter;
    frame indices strictly increase and times never decrease, so eviction
    by age always removes a prefix.

    The entries live in rows ``[lo, hi)`` of preallocated column arrays.
    When an insert finds the arrays full, the live rows move to the front
    of new arrays, twice as long if more than half of the rows are live.

    Working labels are recomputed only by ``refresh_working_labels``, which
    the engine calls right before a fine-tune event samples a batch, so
    ``working_labels`` is current as of the last fine-tune event: an entry
    inserted since then carries its raw label, and survivors of an eviction
    keep the labels smoothed before it."""

    INITIAL_CAPACITY = 256
    _COLUMNS = ("_features", "_raw", "_working", "_index", "_time")

    def __init__(self) -> None:
        cap = self.INITIAL_CAPACITY
        self._features: np.ndarray | None = None  # shaped by the first insert
        self._raw = np.empty(cap, dtype=np.int64)
        self._working = np.empty(cap, dtype=np.int64)
        self._index = np.empty(cap, dtype=np.int64)
        self._time = np.empty(cap, dtype=np.float64)
        self._lo = self._hi = 0
        # The window the working labels were last smoothed with and the
        # sampler's class buckets of them; None once an insert or an
        # eviction makes them stale.
        self._smoothed_window: int | None = None
        self._buckets: tuple | None = None

    def __len__(self) -> int:
        return self._hi - self._lo

    @property
    def frame_indices(self) -> np.ndarray:
        return self._index[self._lo : self._hi].copy()

    @property
    def raw_labels(self) -> np.ndarray:
        return self._raw[self._lo : self._hi].copy()

    @property
    def working_labels(self) -> np.ndarray:
        return self._working[self._lo : self._hi].copy()

    @property
    def times(self) -> np.ndarray:
        return self._time[self._lo : self._hi].copy()

    def features_matrix(self) -> np.ndarray:
        if not len(self):
            return np.zeros((0, 0))
        return self._features[self._lo : self._hi].copy()

    def insert(self, feature, pseudo_label: PseudoLabel, frame_index: int, time: float) -> None:
        """Append an accepted entry. The working label starts equal to the
        raw label until the next smoothing pass."""
        if pseudo_label == PseudoLabel.DISCARD:
            raise DataError("discard labels are never inserted into the online buffer")
        if not math.isfinite(time):
            raise DataError(f"non-finite insert time {time!r}")
        if self._hi > self._lo:
            last = self._hi - 1
            if frame_index <= self._index[last]:
                raise DataError(
                    f"out-of-order insert: frame {frame_index} after {self._index[last]}"
                )
            if time < self._time[last]:
                raise DataError(f"out-of-order insert: time {time!r} after {self._time[last]!r}")
        feature = np.asarray(feature, dtype=np.float64)
        if self._features is None:
            self._features = np.empty((len(self._raw),) + feature.shape)
        elif feature.shape != self._features.shape[1:]:
            raise DataError(
                f"feature shape {feature.shape} differs from the stored {self._features.shape[1:]}"
            )
        if self._hi == len(self._raw):
            self._make_room()
        i = self._hi
        self._features[i] = feature
        self._raw[i] = self._working[i] = pseudo_label
        self._index[i] = frame_index
        self._time[i] = time
        self._hi = i + 1
        self._smoothed_window = self._buckets = None

    def _make_room(self) -> None:
        n = len(self)
        cap = len(self._raw) * (2 if n > len(self._raw) // 2 else 1)
        for name in self._COLUMNS:
            old = getattr(self, name)
            new = np.empty((cap,) + old.shape[1:], dtype=old.dtype)
            new[:n] = old[self._lo : self._hi]
            setattr(self, name, new)
        self._lo, self._hi = 0, n

    def evict_old(self, now: float, horizon: float) -> None:
        """Keep exactly the entries with (now - entry.time) < horizon;
        survivors keep their order. The comparison absorbs float round-off
        in the age subtraction (a few ulp), so an entry whose exact age
        equals the horizon is reliably evicted. Stored times never
        decrease, so the rounded age never increases along the buffer and
        the evicted entries are a prefix."""
        cutoff = horizon - horizon * 1e-12
        lo, hi, times = self._lo, self._hi, self._time
        while lo < hi and not now - times[lo] < cutoff:
            lo += 1
        if lo == self._lo:
            return
        self._lo, self._hi = (0, 0) if lo == hi else (lo, hi)
        self._smoothed_window = self._buckets = None

    def refresh_working_labels(self, window: int) -> None:
        """Recompute all working labels from the raw stored labels via
        majority smoothing. Raw labels are left untouched so smoothing
        never compounds on its own output. A no-op when the labels were
        already smoothed with ``window`` and no entry has come or gone
        since."""
        if not len(self) or self._smoothed_window == window:
            return
        live = slice(self._lo, self._hi)
        self._working[live] = smooth_labels(self._index[live], self._raw[live], window)
        self._smoothed_window = window
        self._buckets = None

    def _sample_source(self) -> tuple[np.ndarray, np.ndarray, tuple]:
        """Live features, working labels and their class buckets."""
        live = slice(self._lo, self._hi)
        if self._buckets is None:
            self._buckets = _class_buckets(self._working[live])
        return self._features[live], self._working[live], self._buckets


def _class_buckets(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The classes present among 0/1 ``labels`` as (order, starts, sizes):
    ``order`` lists the positions of class 0 then of class 1, each in
    stored order, and present class k fills ``order[starts[k]:][:sizes[k]]``."""
    present = [b for b in (np.flatnonzero(labels == c) for c in (0, 1)) if len(b)]
    sizes = np.array([len(b) for b in present], dtype=np.int64)
    order = np.concatenate(present) if present else np.zeros(0, dtype=np.int64)
    return order, np.cumsum(sizes) - sizes, sizes


class ReplayStore:
    """Immutable labeled feature store. Arrays are write-protected after
    construction; ``fingerprint()`` hashes content for bit-identity
    checks across a run."""

    def __init__(self, features, labels) -> None:
        features = np.array(features, dtype=np.float64)
        labels = np.array(labels, dtype=np.int64).ravel()
        if features.ndim != 2:
            raise DataError("replay features must be a 2-d array")
        if features.shape[0] != labels.shape[0]:
            raise DataError("replay features and labels disagree in length")
        if features.size and not np.isfinite(features).all():
            raise DataError("non-finite value in replay features")
        if labels.size and not np.isin(labels, (0, 1)).all():
            raise DataError("replay labels must be 0 or 1")
        features.setflags(write=False)
        labels.setflags(write=False)
        self._features = features
        self._labels = labels
        self._class_indices = tuple(
            np.flatnonzero(labels == c) for c in (ClassLabel.LIVE, ClassLabel.SPOOF)
        )
        self._buckets = _class_buckets(labels)

    def __len__(self) -> int:
        return self._features.shape[0]

    @property
    def d(self) -> int:
        return self._features.shape[1]

    @property
    def features(self) -> np.ndarray:
        return self._features

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    def class_indices(self, label: int) -> np.ndarray:
        return self._class_indices[int(label)]

    def _sample_source(self) -> tuple[np.ndarray, np.ndarray, tuple]:
        return self._features, self._labels, self._buckets

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(self._features).tobytes())
        digest.update(np.ascontiguousarray(self._labels).tobytes())
        return digest.hexdigest()

    def save(self, path: str | Path, frame_rate: float = 30.0) -> None:
        from . import simstream

        n = len(self)
        simstream.save_feature_file(
            path,
            self._features,
            frame_indices=np.arange(1, n + 1),
            times=np.arange(n, dtype=np.float64) / frame_rate,
            labels=self._labels,
            frame_rate=frame_rate,
        )

    @classmethod
    def load(cls, path: str | Path) -> "ReplayStore":
        from . import simstream

        data = simstream.load_feature_file(path)
        if data.labels is None:
            raise DataError(f"{path}: replay store file must carry labels")
        return cls(data.features, data.labels)


def subsample_pretraining(features, labels, target_size: int, rng) -> ReplayStore:
    """Uniform subset without replacement, stratified so both classes are
    represented whenever the source has them and target_size >= 2. Class
    counts are allocated proportionally to the source composition."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64).ravel()
    n = features.shape[0]
    if target_size > n:
        raise DataError(f"cannot subsample {target_size} from {n} entries")
    if target_size == 0:
        return ReplayStore(np.zeros((0, features.shape[1])), np.zeros(0, dtype=np.int64))

    live_idx = np.flatnonzero(labels == ClassLabel.LIVE)
    spoof_idx = np.flatnonzero(labels == ClassLabel.SPOOF)
    if len(live_idx) == 0 or len(spoof_idx) == 0:
        chosen = rng.choice(n, size=target_size, replace=False)
    else:
        n_live = int(round(target_size * len(live_idx) / n))
        if target_size >= 2:
            n_live = min(max(n_live, 1), target_size - 1)
        n_live = min(n_live, len(live_idx))
        n_spoof = min(target_size - n_live, len(spoof_idx))
        n_live = target_size - n_spoof
        chosen = np.concatenate(
            [
                rng.choice(live_idx, size=n_live, replace=False),
                rng.choice(spoof_idx, size=n_spoof, replace=False),
            ]
        )
        rng.shuffle(chosen)
    return ReplayStore(features[chosen], labels[chosen])


def sample_batch(
    online: OnlineBuffer,
    replay: ReplayStore,
    batch_size: int,
    online_prob: float,
    rng,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a fine-tuning batch. Returns (features (B, d), labels (B,)).

    Online entries carry their smoothed working label; replay entries
    their frozen ground-truth label. Sampling is with replacement and
    never mutates either store.
    """
    n_online, n_replay = len(online), len(replay)
    if n_online == 0 and n_replay == 0:
        raise DataError("cannot sample a batch: both stores are empty")

    use_online = rng.random(batch_size) < online_prob
    if n_online == 0:
        use_online[:] = False
    if n_replay == 0:
        use_online[:] = True
    class_u = rng.random(batch_size)
    entry_u = rng.random(batch_size)

    # Slot i takes class bucket int(class_u[i] * n_classes) of its source
    # and entry int(entry_u[i] * bucket size) of that bucket: the same
    # float products, truncated the same way, for all of a source's slots.
    d = online._features.shape[1] if n_online else replay.d
    feats = np.empty((batch_size, d))
    labels = np.empty(batch_size, dtype=np.int64)
    for slots, store in ((np.flatnonzero(use_online), online), (np.flatnonzero(~use_online), replay)):
        if slots.size == 0:
            continue
        store_feats, store_labels, (order, starts, sizes) = store._sample_source()
        bucket = (class_u[slots] * len(sizes)).astype(np.int64)
        rows = order[starts[bucket] + (entry_u[slots] * sizes[bucket]).astype(np.int64)]
        feats[slots] = store_feats[rows]
        labels[slots] = store_labels[rows]
    return feats, labels
