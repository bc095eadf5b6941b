"""Property tests of the stated invariants, each against a brute-force
oracle: the online buffer against a plain list model, the vectorized batch
sampler against the per-slot loop it replaced, and majority smoothing
against a direct recount."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oap.config import PseudoLabel
from oap.errors import DataError
from oap.memory import OnlineBuffer, ReplayStore, sample_batch
from oap.pseudolabel import smooth_labels

D = 3
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


class SmallBuffer(OnlineBuffer):
    """A buffer that starts with room for four entries, so short sequences
    already compact and grow its arrays many times."""

    INITIAL_CAPACITY = 4


# ---------------------------------------------------------------------------
# OnlineBuffer against a list model
# ---------------------------------------------------------------------------


class ListBuffer:
    """The brute-force model: a list of entries, filtered on eviction and
    fully re-smoothed on every refresh."""

    def __init__(self):
        self.entries = []  # [feature, raw, working, frame_index, time]

    def insert(self, feature, label, frame_index, time):
        self.entries.append([feature, label, label, frame_index, time])

    def evict_old(self, now, horizon):
        cutoff = horizon - horizon * 1e-12
        self.entries = [e for e in self.entries if now - e[4] < cutoff]

    def refresh_working_labels(self, window):
        if self.entries:
            smoothed = smooth_labels([e[3] for e in self.entries], [e[1] for e in self.entries], window)
            for e, w in zip(self.entries, smoothed):
                e[2] = int(w)


def assert_same(buf, model):
    assert len(buf) == len(model.entries)
    column = lambda k, dtype: np.array([e[k] for e in model.entries], dtype=dtype)
    np.testing.assert_array_equal(buf.raw_labels, column(1, np.int64))
    np.testing.assert_array_equal(buf.working_labels, column(2, np.int64))
    np.testing.assert_array_equal(buf.frame_indices, column(3, np.int64))
    np.testing.assert_array_equal(buf.times, column(4, np.float64))
    if model.entries:
        np.testing.assert_array_equal(buf.features_matrix(), np.stack([e[0] for e in model.entries]))
    else:
        assert buf.features_matrix().shape == (0, 0)


# One step: insert with (index gap, time step, label), evict with (time
# step, horizon) or refresh with a window. Time steps include 0, so equal
# times occur; every evict uses a "now" no earlier than any stored time.
time_steps = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.sampled_from([1 / 30, 0.1, 0.5]))
steps = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(1, 5), time_steps, st.integers(0, 1)),
        st.tuples(st.just("evict"), time_steps, st.sampled_from([0.1, 0.5, 1.0, 4.0, 7.3])),
        st.tuples(st.just("refresh"), st.integers(0, 9)),
        st.tuples(st.just("sample"), st.integers(1, 8)),
    ),
    max_size=120,
)
NO_REPLAY = ReplayStore(np.zeros((0, D)), np.zeros(0, dtype=np.int64))


@PROPERTY_SETTINGS
@given(steps=steps, seed=st.integers(0, 2**32 - 1))
def test_buffer_matches_list_model(steps, seed):
    rng = np.random.default_rng(seed)
    buf, model = SmallBuffer(), ListBuffer()
    index, now = 0, 0.0
    for step in steps:
        if step[0] == "insert":
            _, gap, dt, label = step
            index, now = index + gap, now + dt
            feature = rng.normal(size=D)
            buf.insert(feature, PseudoLabel(label), index, now)
            model.insert(feature, label, index, now)
        elif step[0] == "evict":
            _, dt, horizon = step
            now += dt
            buf.evict_old(now, horizon)
            model.evict_old(now, horizon)
            cutoff = horizon - horizon * 1e-12
            assert all(now - t < cutoff for t in buf.times)  # eviction is exact
        elif step[0] == "refresh":
            buf.refresh_working_labels(step[1])
            model.refresh_working_labels(step[1])
        elif len(buf):  # the sampler sees the current working labels
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            feats, labels = sample_batch(buf, NO_REPLAY, step[1], 1.0, rng_a)
            ref = per_slot_sample_batch(buf, NO_REPLAY, step[1], 1.0, rng_b)
            assert feats.tobytes() == ref[0].tobytes() and labels.tobytes() == ref[1].tobytes()
        assert_same(buf, model)


@PROPERTY_SETTINGS
@given(
    fps=st.sampled_from([7.0, 10.0, 24.0, 30.0]),
    horizon=st.sampled_from([0.5, 1.5, 2.0, 4.0]),
    gaps=st.lists(st.integers(1, 3), min_size=1, max_size=300),
)
def test_buffer_bound_under_insert_then_evict(fps, horizon, gaps):
    """Frames at fixed rate, some skipped (discarded), each stored frame
    followed by eviction at its own time: |buffer| <= ceil(horizon * fps)."""
    buf = SmallBuffer()
    bound = math.ceil(horizon * fps)
    index = 0
    for gap in gaps:
        index += gap
        now = (index - 1) / fps
        buf.insert(np.zeros(D), PseudoLabel.LIVE, index, now)
        buf.evict_old(now, horizon)
        assert len(buf) <= bound


def test_eviction_at_exact_cutoff():
    """An entry whose rounded age equals the cutoff is evicted; one a single
    ulp younger stays."""
    horizon = 1.0
    cutoff = horizon - horizon * 1e-12
    buf = OnlineBuffer()
    buf.insert(np.zeros(D), PseudoLabel.LIVE, 1, 0.0)
    buf.insert(np.zeros(D), PseudoLabel.LIVE, 2, cutoff - np.nextafter(cutoff, 0.0))
    buf.evict_old(cutoff, horizon)
    assert buf.frame_indices.tolist() == [2]


def test_buffer_grows_past_initial_capacity():
    """Three times the initial capacity with nothing evicted, then a sliding
    window: contents always equal the list model's."""
    buf, model = OnlineBuffer(), ListBuffer()
    n = 3 * OnlineBuffer.INITIAL_CAPACITY
    for t in range(1, n + 1):
        feature = np.full(D, float(t))
        label = int(t % 3 == 0)
        buf.insert(feature, PseudoLabel(label), t, t / 30)
        model.insert(feature, label, t, t / 30)
    assert_same(buf, model)
    for t in range(n + 1, 2 * n + 1):
        buf.insert(np.full(D, float(t)), PseudoLabel.SPOOF, t, t / 30)
        model.insert(np.full(D, float(t)), 1, t, t / 30)
        buf.evict_old(t / 30, 4.0)
        model.evict_old(t / 30, 4.0)
        buf.refresh_working_labels(5)
        model.refresh_working_labels(5)
    assert_same(buf, model)


@pytest.mark.parametrize(
    "index, time",
    [(3, 1.0), (2, 1.0), (4, 0.5), (4, float("nan")), (4, float("inf"))],
)
def test_buffer_rejects_out_of_order_or_non_finite_inserts(index, time):
    buf = OnlineBuffer()
    buf.insert(np.zeros(D), PseudoLabel.LIVE, 3, 0.9)
    with pytest.raises(DataError):
        buf.insert(np.zeros(D), PseudoLabel.LIVE, index, time)
    assert len(buf) == 1


def test_buffer_rejects_a_feature_of_another_shape():
    buf = OnlineBuffer()
    buf.insert(np.zeros(D), PseudoLabel.LIVE, 1, 0.0)
    with pytest.raises(DataError, match="shape"):
        buf.insert(np.zeros(D + 1), PseudoLabel.LIVE, 2, 0.1)
    assert len(buf) == 1


# ---------------------------------------------------------------------------
# sample_batch against the per-slot loop
# ---------------------------------------------------------------------------


def per_slot_sample_batch(online, replay, batch_size, online_prob, rng):
    """The sampler as one loop over slots: the reference the vectorized
    version must reproduce bit for bit, RNG stream included."""
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

    online_feats = online.features_matrix()
    online_labels = online.working_labels
    online_buckets = [np.flatnonzero(online_labels == c) for c in (0, 1)]
    online_present = [b for b in online_buckets if len(b)]
    replay_buckets = [np.flatnonzero(replay.labels == c) for c in (0, 1)]
    replay_present = [b for b in replay_buckets if len(b)]

    d = online_feats.shape[1] if n_online else replay.d
    feats = np.empty((batch_size, d))
    labels = np.empty(batch_size, dtype=np.int64)
    for i in range(batch_size):
        buckets = online_present if use_online[i] else replay_present
        bucket = buckets[int(class_u[i] * len(buckets))]
        j = bucket[int(entry_u[i] * len(bucket))]
        if use_online[i]:
            feats[i] = online_feats[j]
            labels[i] = online_labels[j]
        else:
            feats[i] = replay.features[j]
            labels[i] = replay.labels[j]
    return feats, labels


# A store's labels: empty, single-class or mixed.
label_lists = st.one_of(
    st.just([]),
    st.lists(st.just(0), min_size=1, max_size=30),
    st.lists(st.just(1), min_size=1, max_size=30),
    st.lists(st.integers(0, 1), min_size=1, max_size=60),
)


@PROPERTY_SETTINGS
@given(
    online_labels=label_lists,
    replay_labels=label_lists,
    batch_size=st.integers(0, 40),
    online_prob=st.one_of(st.sampled_from([0.0, 0.5, 0.9, 1.0]), st.floats(0.0, 1.0)),
    window=st.one_of(st.none(), st.integers(0, 7)),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_batch_matches_per_slot_loop(
    online_labels, replay_labels, batch_size, online_prob, window, seed
):
    data = np.random.default_rng(seed)
    online = SmallBuffer()
    for t, label in enumerate(online_labels, start=1):
        online.insert(data.normal(size=D), PseudoLabel(label), 2 * t, t / 30)
    if window is not None:
        online.refresh_working_labels(window)
    replay = ReplayStore(data.normal(size=(len(replay_labels), D)), replay_labels)

    rng_a, rng_b = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    if not online_labels and not replay_labels:
        with pytest.raises(DataError):
            sample_batch(online, replay, batch_size, online_prob, rng_a)
        return
    feats, labels = sample_batch(online, replay, batch_size, online_prob, rng_a)
    ref_feats, ref_labels = per_slot_sample_batch(online, replay, batch_size, online_prob, rng_b)
    assert feats.tobytes() == ref_feats.tobytes() and feats.shape == ref_feats.shape
    assert labels.tobytes() == ref_labels.tobytes()
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


# ---------------------------------------------------------------------------
# Smoothing against a recount
# ---------------------------------------------------------------------------


def recount_smooth(frame_indices, labels, window):
    """Spoof iff strictly more than half of the stored entries within
    window/2 frames of the entry are spoof (integer arithmetic only)."""
    out = []
    for i in frame_indices:
        votes = [lab for j, lab in zip(frame_indices, labels) if 2 * abs(j - i) <= window]
        out.append(int(2 * sum(votes) > len(votes)))
    return out


@PROPERTY_SETTINGS
@given(
    gaps=st.lists(st.integers(1, 6), max_size=80),
    data=st.data(),
    window=st.integers(0, 15),
)
def test_smoothing_matches_recount_on_gapped_indices(gaps, data, window):
    frame_indices = np.cumsum(gaps).tolist()
    labels = data.draw(st.lists(st.integers(0, 1), min_size=len(gaps), max_size=len(gaps)))
    smoothed = smooth_labels(frame_indices, labels, window)
    assert smoothed.tolist() == recount_smooth(frame_indices, labels, window)
