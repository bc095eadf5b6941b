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

The stream contract, in one wording: int64 frame indices strictly increase
and times are finite reals that never decrease. ``check_frame`` checks one
frame; ``first_bad_frame`` checks a whole ``StreamFrames`` by its columns,
its features too, before any frame of it runs.
"""

from __future__ import annotations

import hashlib
import math
import operator
from pathlib import Path

import numpy as np

from . import simstream
from .config import FRAME_INDEX_MAX, FRAME_INDEX_MIN, HORIZON_RULE, WINDOW_RULE, PseudoLabel
from .config import check_value
from .errors import DataError
from .head import NON_FINITE_FEATURE, SCORE_ROWS_PER_CALL, WIDTH_RULE, _as_floats, check_features
from .head import check_labels, not_a_row
from .pseudolabel import smooth_labels


# An enum member as a module constant, read faster than off its class.
_DISCARD = PseudoLabel.DISCARD


def check_frame(frame_index, time, last) -> int:
    """``frame_index`` as an int if the frame keeps the stream contract
    after ``last``, the ``(index, time)`` of the frame before it or None.
    An index ``operator.index`` refuses (a float, say) is a DataError, and
    so is any other break of the contract."""
    try:
        index = operator.index(frame_index)
    except TypeError:
        raise DataError(f"frame index {frame_index!r} is not an integer") from None
    if not FRAME_INDEX_MIN <= index <= FRAME_INDEX_MAX:
        raise DataError(f"frame index {index} lies outside int64")
    try:
        finite = math.isfinite(time)
    except (TypeError, OverflowError):  # not a real number, or beyond float64
        raise DataError(f"frame time {time!r} is not a finite real number") from None
    if not finite or last is not None and (index <= last[0] or time < last[1]):
        raise DataError(_frame_fault(index, time, last))
    return index


def first_bad_frame(frames: simstream.StreamFrames, d: int, last=None) -> tuple[int, str] | None:
    """The stream door: the position of the first frame of ``frames`` that
    ``process_frame`` would refuse after ``last`` (see ``check_frame``), and
    its reason in that door's words, or None. A frame's order fault, by the
    index and time columns, comes first; then a first row not ``d`` wide;
    then the first row before the order fault that holds a non-finite value,
    scanned SCORE_ROWS_PER_CALL rows at a time, so no mask as large as the
    features is made."""
    indices, times, features = frames.frame_indices, frames.times, frames.features
    bad = ~np.isfinite(times)
    bad[1:] |= (indices[1:] <= indices[:-1]) | (times[1:] < times[:-1])
    if last is not None and bad.size:
        bad[0] |= indices.item(0) <= last[0] or times.item(0) < last[1]
    k = int(np.argmax(bad)) if np.count_nonzero(bad) else bad.size  # the order fault, if any
    if k and features.shape[1] != d:
        return 0, str(not_a_row(d, features[0]))
    for start in range(0, k, SCORE_ROWS_PER_CALL):
        rows = np.flatnonzero(~np.isfinite(features[start : min(start + SCORE_ROWS_PER_CALL, k)]))
        if rows.size:
            return start + rows.item(0) // d, NON_FINITE_FEATURE
    if k == bad.size:
        return None
    before = (indices.item(k - 1), times.item(k - 1)) if k else last
    return k, _frame_fault(indices.item(k), times.item(k), before)


def _frame_fault(index: int, time, last) -> str:
    """Why a frame with an int64 ``index`` and a real ``time`` breaks the
    contract after ``last``, in the words of both doors."""
    if not math.isfinite(time):
        return f"non-finite frame time {time!r}"
    if index <= last[0]:
        return f"frame index {index} does not follow the last frame's {last[0]}"
    return f"frame time {time!r} precedes the last frame's {last[1]!r}"


class OnlineBuffer:
    """Ordered store of (feature, raw pseudo-label, frame_index, wall
    time). Single writer; discard labels never enter; frame indices
    strictly increase and times never decrease, so eviction by age always
    removes a prefix. The width ``d``, smoothing ``window`` in frames and
    eviction cutoff of ``horizon`` seconds are fixed when the buffer is built,
    held to ``WIDTH_RULE``, ``WINDOW_RULE`` and ``HORIZON_RULE`` in their words.

    The entries live in rows ``[lo, hi)`` of preallocated column arrays.
    When an insert finds the arrays full, the live rows move to the front
    of new arrays, twice as long if more than half of the rows are live.

    The working labels are not stored: ``refresh_working_labels`` derives
    them from the raw labels, and any insert, or eviction that removes an
    entry, drops them. The engine refreshes right before a fine-tune event
    samples a batch. A buffer that changed since its last refresh reads
    its raw labels as its working labels."""

    INITIAL_CAPACITY = 256
    _COLUMNS = ("_features", "_raw", "_index", "_time")

    def __init__(self, d: int, window: int, horizon: float) -> None:
        check_value("d", d, int, WIDTH_RULE)
        check_value("window", window, int, WINDOW_RULE)
        check_value("eviction_horizon", horizon, float, HORIZON_RULE)
        cap = self.INITIAL_CAPACITY
        self._features = np.empty((cap, d))
        self._raw = np.empty(cap, dtype=np.int64)
        self._index = np.empty(cap, dtype=np.int64)
        self._time = np.empty(cap, dtype=np.float64)
        self._lo = self._hi = 0
        # The index and time of the last entry inserted, the newest one
        # while the buffer is not empty, as Python numbers.
        self._last: tuple[int, float] | None = None
        self._window = window
        self._cutoff = horizon - horizon * 1e-12  # with slack: see evict_old
        # (working labels, the sampler's class buckets of them) of the last
        # refresh; None once an entry comes or goes.
        self._smoothed: tuple[np.ndarray, tuple] | None = None

    def __len__(self) -> int:
        return self._hi - self._lo

    @property
    def d(self) -> int:
        return self._features.shape[1]

    @property
    def frame_indices(self) -> np.ndarray:
        return self._index[self._lo : self._hi].copy()

    @property
    def raw_labels(self) -> np.ndarray:
        return self._raw[self._lo : self._hi].copy()

    @property
    def working_labels(self) -> np.ndarray:
        labels = self._raw[self._lo : self._hi] if self._smoothed is None else self._smoothed[0]
        return labels.copy()

    @property
    def times(self) -> np.ndarray:
        return self._time[self._lo : self._hi].copy()

    def features_matrix(self) -> np.ndarray:
        return self._features[self._lo : self._hi].copy()

    def insert(self, feature, pseudo_label: PseudoLabel, frame_index: int, time: float) -> None:
        """Append an accepted entry. The entry keeps the stream contract
        after the newest entry (see ``check_frame``), and its feature is a
        row of numbers (see ``head._as_floats``) of shape (d,). A refused
        entry raises DataError and leaves the buffer as it was."""
        if pseudo_label == _DISCARD:
            raise DataError("discard labels are never inserted into the online buffer")
        frame_index = check_frame(frame_index, time, self._last if self._hi > self._lo else None)
        feature = _as_floats(feature)
        if feature.shape != self._features.shape[1:]:
            raise DataError(f"feature shape {feature.shape} differs from the buffer's ({self.d},)")
        if self._hi == len(self._raw):
            self._make_room()
        i = self._hi
        self._features[i] = feature
        self._raw[i] = int(pseudo_label)
        self._index[i] = frame_index
        self._time[i] = time
        self._last = frame_index, time
        self._hi = i + 1
        self._smoothed = None

    def _make_room(self) -> None:
        n = len(self)
        cap = len(self._raw) * (2 if n > len(self._raw) // 2 else 1)
        for name in self._COLUMNS:
            old = getattr(self, name)
            new = np.empty((cap,) + old.shape[1:], dtype=old.dtype)
            new[:n] = old[self._lo : self._hi]
            setattr(self, name, new)
        self._lo, self._hi = 0, n

    def evict_old(self, now: float) -> None:
        """Keep exactly the entries with (now - entry.time) < horizon, by
        the cutoff fixed when the buffer was built; survivors keep their
        order. The cutoff absorbs float round-off in the age subtraction (a
        few ulp), so an entry whose exact age equals the horizon is reliably
        evicted. Stored times never decrease, so the rounded age never
        increases along the buffer and the evicted entries are a prefix."""
        lo, hi, times, cutoff = self._lo, self._hi, self._time, self._cutoff
        while lo < hi and not now - times.item(lo) < cutoff:
            lo += 1
        if lo == self._lo:
            return
        self._lo, self._hi = (0, 0) if lo == hi else (lo, hi)
        self._smoothed = None

    def refresh_working_labels(self) -> None:
        """Derive the working labels from the raw ones by majority
        smoothing over the window fixed when the buffer was built;
        smoothing never compounds on its own output. A no-op when no entry
        has come or gone since the last refresh.

        When every raw label is the same class, the common case since a
        stream's live and spoof stretches outlast the eviction horizon, the
        vote is unanimous in every window: the working labels are the raw
        labels as they are, a view of the live rows that the next change
        drops, and their one bucket is known without a recount."""
        if not len(self) or self._smoothed is not None:
            return
        live = slice(self._lo, self._hi)
        raw = self._raw[live]
        n_spoof = int(np.count_nonzero(raw))
        if n_spoof == 0 or n_spoof == raw.size:
            self._smoothed = raw, (None, [0], [raw.size])
        else:
            labels = smooth_labels(self._index[live], raw, self._window)
            self._smoothed = labels, _class_buckets(labels)

    def _sample_source(self) -> tuple[np.ndarray, np.ndarray, tuple]:
        """Live features, working labels and their class buckets."""
        live = slice(self._lo, self._hi)
        labels, buckets = self._smoothed or (self._raw[live], None)
        return self._features[live], labels, buckets or _class_buckets(labels)


def _class_buckets(labels: np.ndarray) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """The classes present among 0/1 ``labels`` as (order, starts, sizes):
    ``order`` lists the positions of class 0 then of class 1, each in
    stored order (a stable sort), and present class k fills
    ``order[starts[k]:][:sizes[k]]``. With fewer than two classes present
    ``order`` is None: the stable order of one class is the identity."""
    n1 = int(np.count_nonzero(labels))
    n0 = labels.size - n1
    sizes = np.array([n for n in (n0, n1) if n], dtype=np.int64)
    # Class 1, when present with class 0, starts after the n0 entries of class 0.
    starts = np.array([0, n0][: sizes.size], dtype=np.int64)
    order = labels.argsort(kind="stable") if sizes.size == 2 else None
    return order, starts, sizes


class ReplayStore:
    """Immutable labeled feature store: write-protected copies of a table
    and its int64 labels that passed the table door (see ``oap.head``);
    ``fingerprint()`` hashes content for bit-identity checks across a run."""

    def __init__(self, features, labels) -> None:
        features = check_features(features).copy()
        labels = check_labels(labels, len(features)).astype(np.int64)
        features.setflags(write=False)
        labels.setflags(write=False)
        self._features = features
        self._labels = labels
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

    def _sample_source(self) -> tuple[np.ndarray, np.ndarray, tuple]:
        return self._features, self._labels, self._buckets

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(self._features).tobytes())
        digest.update(np.ascontiguousarray(self._labels).tobytes())
        return digest.hexdigest()

    def save(self, path: str | Path, frame_rate: float = 30.0) -> None:
        simstream.save_labeled_set(path, self._features, self._labels, frame_rate)

    @classmethod
    def load(cls, path: str | Path) -> "ReplayStore":
        data = simstream.load_feature_file(path)
        if data.labels is None:
            raise DataError(f"{path}: replay store file must carry labels")
        return cls(data.features, data.labels)


def subsample_pretraining(features, labels, target_size: int, rng) -> ReplayStore:
    """Uniform subset without replacement, stratified so both classes are
    represented whenever the source has them and target_size >= 2. Class
    counts are allocated proportionally to the source composition. The
    draw goes by the labels, so all of them pass the table door; the drawn
    rows pass it in ``ReplayStore``, which spares the pre-training path a
    second finite scan of the whole matrix after ``pretrain``'s."""
    features = _as_floats(features)
    spoof = check_labels(labels, len(features))
    n = spoof.size
    if target_size > n:
        raise DataError(f"cannot subsample {target_size} from {n} entries")

    live_idx, spoof_idx = np.flatnonzero(~spoof), np.flatnonzero(spoof)
    if target_size == 0:
        chosen = np.arange(0)
    elif len(live_idx) == 0 or len(spoof_idx) == 0:
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
    return ReplayStore(features[chosen], spoof[chosen])


def sample_batch(
    online: OnlineBuffer,
    replay: ReplayStore,
    batch_size: int,
    online_prob: float,
    rng,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a fine-tuning batch. Returns (features (B, d), labels (B,)).

    Online entries carry their working label: the one the buffer's last
    ``refresh_working_labels`` derived, or their raw label if an entry
    came or went since. Replay entries carry their frozen ground-truth
    label. Sampling is with replacement and never mutates either store, nor
    ``rng`` when it refuses two non-empty stores of different widths.
    """
    n_online, n_replay = len(online), len(replay)
    if n_online == 0 and n_replay == 0:
        raise DataError("cannot sample a batch: both stores are empty")
    if online.d != replay.d and n_online and n_replay:
        raise DataError(f"cannot sample a batch: online width {online.d}, replay {replay.d}")

    # One draw of 3 * batch_size uniforms: the same stream, in the same
    # order, as three draws of batch_size.
    source_u, class_u, entry_u = rng.random((3, batch_size))
    use_online = source_u < online_prob
    if n_online == 0:
        use_online[:] = False
    if n_replay == 0:
        use_online[:] = True

    # Slot i takes class bucket int(class_u[i] * n_classes) of its source
    # and entry int(entry_u[i] * bucket size) of that bucket: the same
    # float products, truncated the same way, for all of a source's slots.
    d = online.d if n_online else replay.d
    feats = np.empty((batch_size, d))
    labels = np.empty(batch_size, dtype=np.int64)
    for slots, store in ((use_online.nonzero()[0], online), ((~use_online).nonzero()[0], replay)):
        if slots.size == 0:
            continue
        store_feats, store_labels, (order, starts, sizes) = store._sample_source()
        if order is None:
            # One class: int(u * 1.0) is bucket 0 for every u in [0, 1),
            # and its rows are in stored order.
            rows = (entry_u[slots] * sizes[0]).astype(np.int64)
        else:
            bucket = (class_u[slots] * len(sizes)).astype(np.int64)
            rows = order[starts[bucket] + (entry_u[slots] * sizes[bucket]).astype(np.int64)]
        feats[slots] = store_feats.take(rows, axis=0)
        labels[slots] = store_labels.take(rows)
    return feats, labels
