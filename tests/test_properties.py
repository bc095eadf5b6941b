"""Property tests of the stated invariants, each against a brute-force
oracle: the online buffer against a plain list model, the vectorized batch
sampler against the per-slot loop it replaced, majority smoothing against
a direct recount, the head's numerics (sigmoid, forward, loss and
gradient, Adam) against the plain expressions they replaced, bit for bit,
the baselines against a per-frame fold, bit for bit, the finite check read
off the row's gemv against the row matmul behind a full check, the
engine's gradient kernel against the checked ``loss_and_grad``, alone
and over whole streams, the row product on ``ndarray.dot`` against the
``np.dot`` form it replaced, in several memory layouts, pre-training on
the kernel against the checked loop it replaced, and the column-wise trace
writers against the per-row writers they replaced, byte for byte, and the
file readers on edited bytes, which either read or raise their own error
type. The numpy and BLAS equalities these bits rest on are tested in
``test_platform_contract``."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oap.engine
import oap.memory
from oap.config import PseudoLabel, parse_kv_file
from oap.engine import (
    _FIELD_TYPES,
    SCORE_ROWS_PER_CALL,
    TRACE_COLUMNS,
    TRACE_ROWS_PER_WRITE,
    Engine,
    Trace,
    TraceRecord,
    read_trace_csv,
    run_baseline_frozen,
    run_baseline_smoothed,
    write_trace_csv,
    write_trace_jsonl,
)
from oap.errors import ConfigError, DataError, NumericalError
from oap.head import (
    HIDDEN_UNITS,
    PARAM_NAMES,
    PROB_EPS,
    AdamState,
    PretrainSchedule,
    _as_floats,
    _grad_kernel,
    _sigmoid,
    all_finite,
    apply_update,
    forward,
    forward_batch,
    init_head,
    load_head,
    loss_and_grad,
    pretrain,
    save_head,
)
from oap.memory import OnlineBuffer, ReplayStore, _class_buckets, sample_batch
from oap.presets import build_artifacts, continual_scenario, desk_params
from oap.pseudolabel import _vote, smooth_labels
from oap.rng import seeded_rng
from oap.simstream import StreamFrame, generate_stream

from oracles import (
    ListBuffer,
    bits,
    brute_force_smooth,
    buffer_columns,
    drawn_head,
    fresh_array_adam,
    in_layout,
    log_scales,
    matmul_forward,
    per_row_csv,
    per_row_jsonl,
    per_slot_sample_batch,
    sampled_labels,
    scalar_tail,
    stacked_case,
    stream_of,
)

D = 3
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


class SmallBuffer(OnlineBuffer):
    """A buffer that starts with room for four entries, so short sequences
    already compact and grow its arrays many times."""

    INITIAL_CAPACITY = 4


# ---------------------------------------------------------------------------
# OnlineBuffer against a list model
# ---------------------------------------------------------------------------


def assert_same_entries(buf, model):
    """The buffer holds the model's entries: their frame indices, raw
    labels, times and feature bits, in order."""
    assert len(buf) == len(model)
    index, raw, times, features = buffer_columns(buf)
    column = lambda k, dtype: np.array([e[k] for e in model.entries], dtype=dtype)
    np.testing.assert_array_equal(raw, column(1, np.int64))
    np.testing.assert_array_equal(index, column(2, np.int64))
    np.testing.assert_array_equal(times, column(3, np.float64))
    want = np.array([e[0] for e in model.entries])
    assert (features.shape, features.tobytes()) == ((len(model), D), want.tobytes())


def assert_same(buf, model):
    """The buffer holds the model's entries, and the sampler reads the
    model's labels from it: the smoothed labels of those entries."""
    assert_same_entries(buf, model)
    np.testing.assert_array_equal(sampled_labels(buf), sampled_labels(model))


# One step: insert with (index gap, time step, label), evict with a time
# step, refresh, or sample a batch. Time steps include 0, so equal times
# occur; every evict uses a "now" no earlier than any stored time. A
# buffer's window and horizon are drawn once, as an engine fixes them.
time_steps = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.sampled_from([1 / 30, 0.1, 0.5]))
steps = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(1, 5), time_steps, st.integers(0, 1)),
        st.tuples(st.just("evict"), time_steps),
        st.tuples(st.just("refresh")),
        st.tuples(st.just("sample"), st.integers(1, 8)),
    ),
    max_size=120,
)
windows = st.integers(1, 9)
horizons = st.sampled_from([0.1, 0.5, 1.0, 4.0, 7.3])
NO_REPLAY = ReplayStore(np.zeros((0, D)), np.zeros(0, dtype=np.int64))


@PROPERTY_SETTINGS
@given(steps=steps, window=windows, horizon=horizons, seed=st.integers(0, 2**32 - 1))
# A refresh outvotes the third entry; an insert, then an eviction of three
# entries, each changes what the next read smooths, and a batch is sampled
# from a buffer changed since its last refresh.
@example(steps=[("insert", 1, 0.0, 1), ("insert", 1, 0.0, 1), ("insert", 1, 0.0, 0),
                ("insert", 1, 0.0, 1), ("insert", 1, 0.5, 1), ("refresh",),
                ("insert", 1, 0.0, 0), ("refresh",), ("evict", 0.0), ("refresh",),
                ("insert", 1, 0.0, 0), ("sample", 8)],
         window=4, horizon=0.5, seed=0)
def test_buffer_matches_list_model(steps, window, horizon, seed):
    """The buffer holds the list model's entries after every step. Each
    refresh, each batch and the end of the steps read the model's labels,
    re-smoothed over the entries it holds then, whatever changed since the
    buffer's last refresh."""
    rng = np.random.default_rng(seed)
    buf, model = SmallBuffer(D, window, horizon), ListBuffer(window, horizon)
    index, now = 0, 0.0
    for step in steps:
        if step[0] == "insert":
            _, gap, dt, label = step
            index, now = index + gap, now + dt
            feature = rng.normal(size=D)
            buf.insert(feature, PseudoLabel(label), index, now)
            model.insert(feature, label, index, now)
        elif step[0] == "evict":
            now += step[1]
            buf.evict_old(now)
            model.evict_old(now)
            cutoff = horizon - horizon * 1e-12
            assert all(now - t < cutoff for t in buffer_columns(buf)[2])  # eviction is exact
        elif step[0] == "refresh":
            buf.refresh_working_labels()
            assert_same(buf, model)
        elif len(buf):  # the sampler sees the labels of the entries held now
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            feats, labels = sample_batch(buf, NO_REPLAY, step[1], 1.0, rng_a)
            ref = per_slot_sample_batch(model, NO_REPLAY, step[1], 1.0, rng_b)
            assert feats.tobytes() == ref[0].tobytes() and labels.tobytes() == ref[1].tobytes()
        assert_same_entries(buf, model)
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
    buf = SmallBuffer(D, 30, horizon)
    bound = math.ceil(horizon * fps)
    index = 0
    for gap in gaps:
        index += gap
        now = (index - 1) / fps
        buf.insert(np.zeros(D), PseudoLabel.LIVE, index, now)
        buf.evict_old(now)
        assert len(buf) <= bound


def assert_same_buckets(got, want):
    (order, starts, sizes), (want_order, want_starts, want_sizes) = got, want
    assert (order is None) == (want_order is None)
    if order is not None:
        np.testing.assert_array_equal(order, want_order)
    np.testing.assert_array_equal(starts, want_starts)
    np.testing.assert_array_equal(sizes, want_sizes)


@PROPERTY_SETTINGS
@given(steps=steps, window=windows, horizon=horizons, seed=st.integers(0, 2**32 - 1))
# A mixed refresh, an eviction down to two spoof entries, then a refresh
# that finds one class.
@example(steps=[("insert", 1, 0.0, 0), ("insert", 1, 0.0, 1), ("insert", 1, 1.0, 1),
                ("insert", 1, 0.0, 1), ("refresh",), ("evict", 0.0), ("refresh",)],
         window=3, horizon=0.5, seed=0)
def test_refresh_hands_the_sampler_the_buckets_of_its_labels(steps, window, horizon, seed):
    """A refresh that finds one class stores its buckets for the sampler;
    whatever the sampler reads equals ``_class_buckets`` of the working
    labels it reads with them."""
    rng = np.random.default_rng(seed)
    buf = SmallBuffer(D, window, horizon)
    index, now = 0, 0.0
    for step in steps:
        if step[0] == "insert":
            _, gap, dt, label = step
            index, now = index + gap, now + dt
            buf.insert(rng.normal(size=D), PseudoLabel(label), index, now)
        elif step[0] == "evict":
            now += step[1]
            buf.evict_old(now)
        elif step[0] == "refresh":
            buf.refresh_working_labels()
            if len(buf) and len(set(buffer_columns(buf)[1].tolist())) == 1:
                assert buf._smoothed is not None  # handed over, not left to recount
        if len(buf):
            _, labels, buckets = buf._sample_source()
            assert_same_buckets(buckets, _class_buckets(labels))


def test_eviction_at_exact_cutoff():
    """An entry whose rounded age equals the cutoff is evicted; one a single
    ulp younger stays."""
    horizon = 1.0
    cutoff = horizon - horizon * 1e-12
    buf = OnlineBuffer(D, 30, horizon)
    buf.insert(np.zeros(D), PseudoLabel.LIVE, 1, 0.0)
    buf.insert(np.zeros(D), PseudoLabel.LIVE, 2, cutoff - np.nextafter(cutoff, 0.0))
    buf.evict_old(cutoff)
    assert buffer_columns(buf)[0].tolist() == [2]


def test_buffer_grows_past_initial_capacity():
    """Three times the initial capacity with nothing evicted, then a sliding
    window: contents always equal the list model's."""
    buf, model = OnlineBuffer(D, 5, 4.0), ListBuffer(5, 4.0)
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
        buf.evict_old(t / 30)
        model.evict_old(t / 30)
        buf.refresh_working_labels()
    assert_same(buf, model)


def test_buffer_stores_any_row_of_floats():
    """A float64 row is stored as it is and any other row of numbers as its
    floats."""
    rows = [np.array([0.5, -0.0, 3.0]), [1, 2, 3], np.arange(6.0)[::2], np.ones(D, np.float32)]
    buf = OnlineBuffer(D, 30, 4.0)
    for i, row in enumerate(rows):
        buf.insert(row, PseudoLabel.LIVE, i, 0.0)
    assert buffer_columns(buf)[3].tobytes() == np.array(rows, dtype=np.float64).tobytes()


# ---------------------------------------------------------------------------
# sample_batch against the per-slot loop
# ---------------------------------------------------------------------------


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
    window=st.one_of(st.none(), st.integers(1, 7)),
    seed=st.integers(0, 2**32 - 1),
)
# One store holds one class and the other both, each way round.
@example(online_labels=[1] * 5, replay_labels=[0, 1, 1, 0], batch_size=24, online_prob=0.5,
         window=3, seed=7)
@example(online_labels=[0, 1, 1, 0, 0, 1], replay_labels=[0] * 4, batch_size=24,
         online_prob=0.5, window=None, seed=8)
def test_sample_batch_matches_per_slot_loop(
    online_labels, replay_labels, batch_size, online_prob, window, seed
):
    data = np.random.default_rng(seed)
    online = SmallBuffer(D, 1 if window is None else window, 4.0)
    for t, label in enumerate(online_labels, start=1):
        online.insert(data.normal(size=D), PseudoLabel(label), 2 * t, t / 30)
    if window is not None:
        online.refresh_working_labels()
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


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


@PROPERTY_SETTINGS
@given(
    gaps=st.lists(st.integers(1, 6), max_size=80),
    data=st.data(),
    window=st.integers(1, 15),
    base=st.sampled_from(["0", "2**53", "2**62", "int64 min", "int64 max"]),
)
def test_smoothing_matches_recount_on_gapped_indices(gaps, data, window, base):
    """Indices from 2**53 up are beyond float64's integers; at the int64
    ends a window reaches past the range."""
    offsets = np.cumsum(gaps).tolist()
    start = {"0": 0, "2**53": 2**53, "2**62": 2**62, "int64 min": INT64_MIN - 1,
             "int64 max": INT64_MAX - (offsets[-1] if offsets else 0)}[base]
    frame_indices = [start + k for k in offsets]
    labels = data.draw(st.lists(st.integers(0, 1), min_size=len(gaps), max_size=len(gaps)))
    smoothed = smooth_labels(frame_indices, labels, window)
    assert smoothed.tolist() == brute_force_smooth(frame_indices, labels, window).tolist()


@PROPERTY_SETTINGS
@given(
    gaps=st.lists(st.integers(1, 6), min_size=1, max_size=80),
    data=st.data(),
    window=st.one_of(st.integers(1, 15), st.integers(1, 2**64 - 1),
                     st.integers(1, 2**64 - 1).map(np.uint64)),
    base=st.sampled_from(["0", "2**62", "int64 min", "int64 max"]),
)
def test_the_buffers_vote_has_the_bits_of_the_door(gaps, data, window, base):
    """The buffer votes through ``_vote``, the kernel ``smooth_labels``
    runs after its checks: on the buffer's int64 columns and a window the
    rule keeps, both give the same labels, bit for bit."""
    offsets = np.cumsum(gaps).tolist()
    start = {"0": 0, "2**62": 2**62, "int64 min": INT64_MIN - 1,
             "int64 max": INT64_MAX - offsets[-1]}[base]
    idx = np.array([start + k for k in offsets], dtype=np.int64)
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(gaps),
                                         max_size=len(gaps))), dtype=np.int64)
    assert oap.memory.smooth_labels is _vote
    got, want = _vote(idx, labels, window), smooth_labels(idx, labels, window)
    assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())


# ---------------------------------------------------------------------------
# Head numerics against the plain expressions they replaced
# ---------------------------------------------------------------------------


def masked_sigmoid(z):
    """The sigmoid as a boolean-mask scatter, one expression per sign."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def batch_forward(head, feature):
    """forward as one row through the batched path with the masked sigmoid."""
    hidden = np.maximum(np.asarray(feature)[None, :] @ head.w1 + head.b1, 0.0)
    logits = hidden @ head.w2 + head.b2[0]
    return float(np.clip(masked_sigmoid(logits), PROB_EPS, 1.0 - PROB_EPS)[0])


def dict_loss_and_grad(head, feats, labels):
    """The loss as l*log(y) + (1-l)*log(1-y) and the gradient as one array
    per parameter."""
    labels = np.asarray(labels, dtype=np.float64)
    z1 = feats @ head.w1 + head.b1
    hidden = np.maximum(z1, 0.0)
    y = masked_sigmoid(hidden @ head.w2 + head.b2[0])
    y_safe = np.clip(y, PROB_EPS, 1.0 - PROB_EPS)
    loss = -float(np.mean(labels * np.log(y_safe) + (1.0 - labels) * np.log(1.0 - y_safe)))
    dlogits = (y - labels) / feats.shape[0]
    dz1 = dlogits[:, None] * head.w2 * (z1 > 0.0)
    grads = {
        "w1": feats.T @ dz1,
        "b1": dz1.sum(axis=0),
        "w2": hidden.T @ dlogits,
        "b2": np.array([dlogits.sum()]),
    }
    return loss, grads


SPECIAL_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 710.5, -710.5, 745.2, -745.2,
                  1e308, -1e308, 5e-324, -5e-324, 36.7, -36.7]


@PROPERTY_SETTINGS
@given(z=st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(-800.0, 800.0),
                            st.floats(allow_nan=True, allow_infinity=True)), max_size=40))
def test_sigmoid_matches_masked_scatter(z):
    z = np.array(z, dtype=np.float64)
    with np.errstate(all="ignore"):
        assert _sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()


heads = st.tuples(st.integers(1, 8), st.integers(0, 2**32 - 1), st.sampled_from([0.1, 0.5, 2.0]))


@PROPERTY_SETTINGS
@given(head=heads, rows=st.integers(1, 40), feature_scale=st.sampled_from([0.5, 3.0, 30.0]))
def test_forward_matches_the_batched_row(head, rows, feature_scale):
    d, seed, scale = head
    h = drawn_head(d, seed, scale)
    feats = np.random.default_rng(seed + 1).normal(0.0, feature_scale, size=(rows, d))
    for f in feats:
        y = forward(h, f)
        assert type(y) is float
        assert bits(y) == bits(batch_forward(h, f))
        assert bits(y) == bits(forward_batch(h, f[None, :])[0])


def test_stacked_cases_reach_both_sigmoid_branches_and_the_clamp():
    """The drawn scales cover what the property must: probabilities on
    both sides of 1/2 and at both clamps."""
    ys = np.concatenate([
        forward_batch(*stacked_case(d, 300, seed, scale, scale))
        for d, seed, scale in [(1, 0, -3.0), (8, 1, 0.0), (40, 2, 3.0), (40, 3, 3.0)]
    ])
    assert (ys < 0.5).any() and (ys > 0.5).any()
    assert (ys == PROB_EPS).any() and (ys == 1.0 - PROB_EPS).any()


def per_frame_smoothed(head, frames, momentum, ground_truth):
    """The smoothed baseline folded a frame at a time: forward on each
    frame's feature, then the EMA."""
    trace, ema = [], None
    for frame, truth in zip(frames, ground_truth or [None] * len(frames)):
        y = forward(head, frame.feature)
        if ema is None:
            ema = y
        else:
            ema = momentum * ema + (1.0 - momentum) * y
        trace.append(TraceRecord(frame.frame_index, truth, ema, int(ema > 0.5), None, False, 0, 0.0))
    return trace


stream_lengths = st.one_of(st.integers(1, 40), st.sampled_from(
    [SCORE_ROWS_PER_CALL - 1, SCORE_ROWS_PER_CALL, SCORE_ROWS_PER_CALL + 1,
     2 * SCORE_ROWS_PER_CALL + 3]))


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 12), n=stream_lengths, seed=st.integers(0, 2**32 - 1),
       scale=log_scales, momentum=st.sampled_from([0.0, 0.7]), labeled=st.booleans())
def test_baselines_match_the_per_frame_fold(d, n, seed, scale, momentum, labeled):
    h, feats = stacked_case(d, n, seed, scale, 0.0)
    gaps = np.random.default_rng(seed + 2).integers(1, 4, size=n)
    frames = stream_of([StreamFrame(f, int(i), i / 30.0)
                        for f, i in zip(feats, np.cumsum(gaps))])
    truth = np.random.default_rng(seed + 3).integers(0, 2, size=n).tolist() if labeled else None
    expected = per_frame_smoothed(h, frames, momentum, truth)
    trace = run_baseline_smoothed(h, frames, momentum, ground_truth=truth)
    assert list(trace) == expected
    assert bits([r.y for r in trace]) == bits([r.y for r in expected])
    if momentum == 0.0:
        frozen = run_baseline_frozen(h, frames, ground_truth=truth)
        assert bits([r.y for r in frozen]) == bits([r.y for r in expected])


@PROPERTY_SETTINGS
@given(head=heads, rows=st.integers(1, 20), feature_scale=st.sampled_from([0.5, 3.0, 30.0]))
def test_flat_gradient_matches_per_parameter_gradients(head, rows, feature_scale):
    d, seed, scale = head
    h = drawn_head(d, seed, scale)
    data = np.random.default_rng(seed + 1)
    feats = data.normal(0.0, feature_scale, size=(rows, d))
    labels = data.integers(0, 2, size=rows)
    loss, grad = loss_and_grad(h, feats, labels)
    ref_loss, ref_grads = dict_loss_and_grad(h, feats, labels)
    assert bits(loss) == bits(ref_loss)
    assert grad.tobytes() == np.concatenate([ref_grads[n].ravel() for n in PARAM_NAMES]).tobytes()


def expression_loss(head, feats, labels):
    """The loss expression of ``loss_and_grad`` before the gradient kernel
    was split out of it, on the same forward pass."""
    labels = np.asarray(labels, dtype=np.float64).ravel()
    spoof = labels == 1.0
    n = feats.shape[0]
    z1 = feats @ head.w1 + head.b1
    hidden = np.maximum(z1, 0.0)
    logits = hidden @ head.w2 + head.b2[0]
    y = _sigmoid(logits)
    y_safe = np.minimum(np.maximum(y, PROB_EPS), 1.0 - PROB_EPS)
    return -float(np.add.reduce(np.log(np.where(spoof, y_safe, 1.0 - y_safe))) / n)


# Batches of the engine's shapes, with labels of the sampler's dtype (int64)
# and of a caller's floats.
gradient_cases = st.tuples(
    st.integers(1, 64), st.integers(1, 32), st.integers(0, 2**32 - 1), log_scales, log_scales,
    st.sampled_from([np.int64, np.float64]),
)


def gradient_case(d, rows, seed, head_scale, feature_scale, label_dtype):
    h, feats = stacked_case(d, rows, seed, head_scale, feature_scale)
    labels = np.random.default_rng(seed + 2).integers(0, 2, size=rows).astype(label_dtype)
    return h, feats, labels


@settings(max_examples=100, deadline=None)
@given(case=gradient_cases)
def test_trusted_gradient_has_the_bits_of_the_checked_one(case):
    """The unchecked kernel gives the checked function's gradient bits,
    and in place of the loss the batch's probabilities."""
    h, feats, labels = gradient_case(*case)
    _, grad = loss_and_grad(h, feats, labels)
    y, trusted = _grad_kernel(h, feats, labels)
    assert y.shape == (feats.shape[0],)
    assert trusted.tobytes() == grad.tobytes()


@settings(max_examples=100, deadline=None)
@given(case=gradient_cases)
def test_checked_loss_keeps_the_bits_of_its_expression(case):
    h, feats, labels = gradient_case(*case)
    loss, _ = loss_and_grad(h, feats, labels)
    assert bits(loss) == bits(expression_loss(h, feats, labels))


def checked_pretrain(head, feats, labels, schedule, rng):
    """``pretrain``'s loop as it ran on the checked ``loss_and_grad``,
    which re-checked every batch and computed its loss."""
    labels = np.asarray(labels, dtype=np.int64).ravel()
    state = AdamState.for_head(head)
    n = feats.shape[0]
    for it in range(schedule.iterations):
        lr = schedule.learning_rate * schedule.decay_gamma ** (it // schedule.decay_every)
        batch_idx = rng.integers(0, n, size=schedule.batch_size)
        _, grad = loss_and_grad(head, feats[batch_idx], labels[batch_idx])
        apply_update(head, state, grad, lr, schedule.weight_decay)
    return head


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 8),
    n=st.integers(2, 60),
    seed=st.integers(0, 2**32 - 1),
    scale=log_scales,
    iterations=st.integers(1, 40),
    batch_size=st.integers(1, 80),
    learning_rate=st.sampled_from([1e-3, 0.05]),
    weight_decay=st.sampled_from([0.0, 1e-3]),
    decay_gamma=st.sampled_from([0.8, 0.5, 1.0]),
    decay_every=st.integers(1, 15),
    label_dtype=st.sampled_from([np.int64, np.float64, bool]),
)
def test_pretrain_on_the_kernel_has_the_bits_of_the_checked_loop(
    d, n, seed, scale, iterations, batch_size, learning_rate, weight_decay, decay_gamma,
    decay_every, label_dtype,
):
    h, feats = stacked_case(d, n, seed, 0.0, scale)
    labels = np.random.default_rng(seed + 2).integers(0, 2, size=n)
    labels[:2] = (0, 1)
    labels = labels.astype(label_dtype)
    schedule = PretrainSchedule(iterations=iterations, batch_size=batch_size,
                                learning_rate=learning_rate, weight_decay=weight_decay,
                                decay_gamma=decay_gamma, decay_every=decay_every)
    trained = pretrain(h.copy(), feats, labels, schedule, np.random.default_rng(seed))
    reference = checked_pretrain(h.copy(), feats, labels, schedule, np.random.default_rng(seed))
    assert trained.flat.tobytes() == reference.flat.tobytes()


@PROPERTY_SETTINGS
@given(
    d=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    grad_scales=st.lists(st.sampled_from([1e-8, 1e-3, 1.0, 1e3, 1e150, 1e300]), min_size=1,
                         max_size=8),
    poison=st.lists(st.sampled_from([None, np.nan, np.inf, -np.inf]), min_size=8, max_size=8),
    learning_rate=st.sampled_from([1e-5, 1e-3, 0.1, 1e300]),
    weight_decay=st.sampled_from([0.0, -0.0, 1e-3, -1e10, 1e300]),
    step_count=st.sampled_from([0, 354, 355, 356, 37410, 37411]),
    n_negative_zeros=st.integers(0, 3),
)
@example(d=1, seed=0, grad_scales=[1.0, 1.0], poison=[None] * 8, learning_rate=1e-3,
         weight_decay=0.0, step_count=354, n_negative_zeros=2)
@example(d=1, seed=0, grad_scales=[1.0], poison=[None] * 8, learning_rate=1e-3,
         weight_decay=0.0, step_count=37410, n_negative_zeros=0)
def test_in_place_adam_matches_fresh_arrays(d, seed, grad_scales, poison, learning_rate,
                                            weight_decay, step_count, n_negative_zeros):
    """Each step commits exactly what the plain expression gives, and a
    rejected step leaves head, moments and step count as they were.

    The starting step counts take the first step across t = 356, where
    ``1 - ADAM_BETA1**t`` rounds to 1.0, and across t = 37412, where
    ``1 - ADAM_BETA2**t`` does. Each step also holds up to three -0.0
    parameters whose moment and gradient coordinates are exactly zero, so
    their step is +0.0 and only the decay term decides the sign of zero."""
    rng = np.random.default_rng(seed)
    h = drawn_head(d, seed, 0.5)
    m = rng.normal(0.0, 1e-3, size=h.flat.shape)
    v = rng.normal(0.0, 1e-3, size=h.flat.shape) ** 2
    state = AdamState(m, v, step_count)
    theta, t = h.flat.copy(), step_count
    for scale, bad in zip(grad_scales, poison):
        g = rng.normal(0.0, scale, size=h.flat.shape)
        zeros = rng.choice(g.size, size=n_negative_zeros, replace=False)
        h.flat[zeros] = theta[zeros] = -0.0
        m[zeros] = state.m_flat[zeros] = g[zeros] = 0.0
        if bad is not None:
            g[rng.integers(g.size)] = bad
        with np.errstate(all="ignore"):
            try:
                theta, m, v, t = fresh_array_adam(theta, m, v, t, g, learning_rate, weight_decay)
                rejected = False
            except NumericalError:
                rejected = True
            if rejected:
                with pytest.raises(NumericalError):
                    apply_update(h, state, g, learning_rate, weight_decay)
            else:
                apply_update(h, state, g, learning_rate, weight_decay)
        assert h.flat.tobytes() == theta.tobytes()
        assert state.m_flat.tobytes() == m.tobytes()
        assert state.v_flat.tobytes() == v.tobytes()
        assert state.step_count == t


# ---------------------------------------------------------------------------
# The row product on ndarray.dot against the np.dot form it replaced
# ---------------------------------------------------------------------------


def np_dot_forward(head, feature):
    """``forward`` on one finite row as it ran on ``np.dot`` and ``.item()``."""
    hidden = np.dot(feature, head.w1)
    np.add(hidden, head.b1, out=hidden)
    np.maximum(hidden, 0.0, out=hidden)
    return scalar_tail(np.dot(hidden, head.w2).item() + head.b2.item())


@PROPERTY_SETTINGS
@given(d=st.integers(1, 64), seed=st.integers(0, 2**32 - 1), head_scale=log_scales,
       feature_scale=log_scales, layout=st.sampled_from(["c", "col", "reversed"]))
def test_dot_forward_has_the_bits_of_the_np_dot_forward(d, seed, head_scale, feature_scale,
                                                        layout):
    h, feats = stacked_case(d, 1, seed, head_scale, feature_scale)
    f = in_layout(feats[0], layout)
    assert bits(forward(h, f)) == bits(np_dot_forward(h, f))


def engine_door_state(engine):
    return (engine.last_frame, len(engine.online), engine.finetune_accumulator,
            engine.head.flat.tobytes())


@PROPERTY_SETTINGS
@given(d=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_non_finite_feature_refused_whatever_w1_holds(d, seed, data):
    """Zeros in ``w1``, up to its whole first column and the rows of the
    planted values, turn inf into NaN rather than hide it: a feature with
    inf, -inf or NaN at one or more positions is refused, and the engine
    is left as it was."""
    h = drawn_head(d, seed, 1.0)
    at = data.draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=min(d, 4), unique=True))
    for k in at:
        if data.draw(st.booleans()):
            h.w1[k, 0] = 0.0
    if data.draw(st.booleans()):
        h.w1[:, 0] = 0.0
    zeros = data.draw(st.lists(st.tuples(st.integers(0, d - 1), st.integers(0, HIDDEN_UNITS - 1)),
                               max_size=20))
    for row, col in zeros:
        h.w1[row, col] = 0.0
    feature = np.random.default_rng(seed + 1).normal(size=d)
    for k in at:
        feature[k] = data.draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    message = "^non-finite value in feature input$"
    # The product may warn of inf * 0 or inf - inf; raised as an error by a
    # warnings filter or by np.errstate, the refusal is still a DataError.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(DataError, match=message):
            forward(h, feature)
        with np.errstate(all="raise"), pytest.raises(DataError, match=message):
            forward(h, feature)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DataError, match=message):
            forward(h, feature)

        empty = ReplayStore(np.zeros((0, d)), np.zeros(0, dtype=np.int64))
        engine = Engine(h, empty, desk_params(seed % 2**16, margin=0.5, finetune_freq=0.5))
        engine.process_frame(np.zeros(d), 1, 0.0)
        before = engine_door_state(engine)
        with pytest.raises(DataError, match=message):
            engine.process_frame(feature, 2, 0.1)
        assert engine_door_state(engine) == before


@PROPERTY_SETTINGS
@given(d=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       feature_scale=st.floats(150.0, 308.0), head_scale=st.floats(0.0, 300.0))
def test_finite_row_whose_product_overflows_keeps_its_bits(d, seed, feature_scale, head_scale):
    """Large features on large weights overflow the product to inf or NaN.
    The row is finite, so it is scored, with the bits of the full check."""
    h = drawn_head(d, seed, 10.0**head_scale)
    f = np.random.default_rng(seed + 1).uniform(-1.0, 1.0, size=d) * 10.0**feature_scale
    with np.errstate(all="ignore"):
        assert bits(forward(h, f)) == bits(matmul_forward(h, f))


def test_overflowed_first_product_takes_the_full_check():
    """The case the property must reach: the first entry of the product is
    not finite while the row is."""
    h = drawn_head(2, 0, 1.0)
    h.w1[:, 0] = 1e300
    f = np.array([1e300, -1e300 * 0.5])
    with np.errstate(all="ignore"):
        assert not math.isfinite(np.dot(f, h.w1)[0])
        assert bits(forward(h, f)) == bits(matmul_forward(h, f))


def test_row_layout_does_not_change_its_score():
    """A strided or reversed view of a row scores with the bits of its
    contiguous copy."""
    h = drawn_head(8, 0, 1.0)
    base = np.random.default_rng(1).normal(size=16)
    for view in (base[::2], base[7::-1], base[::-2]):
        assert not view.flags.c_contiguous
        assert bits(forward(h, view)) == bits(forward(h, view.copy()))


def test_float64_rows_pass_through_as_floats_untouched():
    f = np.arange(4.0)
    assert _as_floats(f) is f
    view = f[::2]
    assert _as_floats(view) is view
    for other in (f.astype(np.float32), f.astype(">f8"), np.ma.masked_array(f), f.tolist()):
        got = _as_floats(other)
        assert got.__class__ is np.ndarray and got.dtype == np.float64
        assert got.tolist() == f.tolist()


# ---------------------------------------------------------------------------
# Finite checks by count against np.isfinite(...).all()
# ---------------------------------------------------------------------------

NON_FINITE = [np.nan, -np.nan, np.inf, -np.inf]
# Finite values at the edges: signed zeros, subnormals and +-max.
EDGE_FINITE = [0.0, -0.0, 5e-324, -5e-324, 2.225e-308, -2.225e-308, sys.float_info.max,
               -sys.float_info.max]
# An empty row, a (d,) row, an (n, d) stack and a vector of ``flat``'s size at d = 32.
finite_check_shapes = st.one_of(
    st.just((0,)), st.tuples(st.integers(1, 40)),
    st.tuples(st.integers(0, 20), st.integers(1, 40)), st.just((2177,)),
)


@PROPERTY_SETTINGS
@given(shape=finite_check_shapes, data=st.data())
def test_all_finite_agrees_with_isfinite_all(shape, data):
    """Finite arrays of edge values with 0-3 non-finite values planted at
    drawn positions."""
    a = data.draw(hnp.arrays(np.float64, shape, elements=st.one_of(
        st.sampled_from(EDGE_FINITE), st.floats(allow_nan=False, allow_infinity=False))))
    if a.size:
        for _ in range(data.draw(st.integers(0, 3))):
            a.flat[data.draw(st.integers(0, a.size - 1))] = data.draw(st.sampled_from(NON_FINITE))
    assert all_finite(a) == np.isfinite(a).all()


def flat_position(size, at):
    return {"first": 0, "middle": size // 2, "last": size - 1}[at]


def planted(shape, at, value):
    """Ones of ``shape`` with ``value`` at the first, middle or last flat position."""
    a = np.ones(shape)
    a.flat[flat_position(a.size, at)] = value
    return a


def param_at(h, at):
    """The parameter holding the first, middle or last coordinate of ``h.flat``."""
    ends = np.cumsum([p.size for p in h.params().values()])
    return PARAM_NAMES[int(np.searchsorted(ends, flat_position(h.flat.size, at), side="right"))]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", ["first", "middle", "last"])
def test_feature_doors_keep_their_error_text(at, value):
    h = drawn_head(5, 0, 0.5)
    message = "^non-finite value in feature input$"
    with pytest.raises(DataError, match=message):
        forward(h, planted(5, at, value))
    with pytest.raises(DataError, match=message):
        forward_batch(h, planted((4, 5), at, value))
    with pytest.raises(DataError, match=message):
        loss_and_grad(h, planted((4, 5), at, value), [0, 1, 1, 0])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", ["first", "middle", "last"])
def test_update_doors_keep_their_error_text_and_touch_nothing(at, value):
    """A non-finite gradient, or a parameter that steps to a non-finite
    value, names its parameter and leaves head and state as they were. At
    d = 1 the first, middle and last coordinates lie in w1, b1 and b2."""
    h = drawn_head(1, 0, 0.5)
    state = AdamState.for_head(h)
    finite_grad = np.full(h.flat.size, 0.1)
    apply_update(h, state, finite_grad, 1e-3)
    name = param_at(h, at)

    def stepped_state():
        return h.flat.tobytes(), state.m_flat.tobytes(), state.v_flat.tobytes(), state.step_count

    before = stepped_state()
    with pytest.raises(NumericalError, match=f"^non-finite gradient for parameter '{name}'$"):
        apply_update(h, state, planted(h.flat.size, at, value), 1e-3)
    assert stepped_state() == before
    h.flat[:] = planted(h.flat.size, at, value)
    before = stepped_state()
    with pytest.raises(NumericalError, match=f"^update produced non-finite values in '{name}'$"):
        apply_update(h, state, finite_grad, 1e-3)
    assert stepped_state() == before


# ---------------------------------------------------------------------------
# Trace writers against the per-row writers they replaced
# ---------------------------------------------------------------------------


TRACE_VALUES = {
    type(None): st.none(),
    bool: st.booleans(),
    int: st.one_of(st.sampled_from([0, -1, 2**31, -(2**63), 2**64, -(10**40)]), st.integers()),
    float: st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-308, 1e300, -1e300, 0.1,
                         math.inf, -math.inf, math.nan]),
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    ),
}
# Ground truth and decision are labels: often 0 or 1, which the readers
# take back, and otherwise any value of their type, which the writers
# write and the readers refuse unless it is None or 0 or 1.
LABEL_FIELDS = ("ground_truth", "decision")
trace_records = st.builds(TraceRecord, *(
    st.one_of(*([st.sampled_from([0, 1])] if name in LABEL_FIELDS else []),
              *(TRACE_VALUES[t] for t in types))
    for name, types in zip(TRACE_COLUMNS, _FIELD_TYPES)
))
# Short traces, and lengths on both sides of the writers' chunk boundary.
N = TRACE_ROWS_PER_WRITE
trace_lengths = st.one_of(st.integers(0, 3), st.sampled_from([N - 1, N, N + 1, 2 * N + 1]))


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("traces")


# Each format's writer and the per-row writer it replaced. Only the CSV is
# read back; the JSON lines are for other tools.
TRACE_FORMATS = {"csv": (write_trace_csv, per_row_csv), "jsonl": (write_trace_jsonl, per_row_jsonl)}


@settings(max_examples=40, deadline=None)
@given(records=st.lists(trace_records, min_size=1, max_size=3), length=trace_lengths)
def test_trace_writers_match_the_per_row_writers(trace_dir, records, length):
    """A list of records, and one ``Trace`` written in each order of the two
    formats and in one format twice: a cell shared between the formats
    keeps each format's own spelling of None, the bools and the
    non-finite floats. The CSV reads back."""
    trace = (records * (length // len(records) + 1))[:length]
    want = {}
    for name, (writer, reference) in TRACE_FORMATS.items():
        writer(trace_dir / name, trace)
        reference(trace_dir / "old", trace)
        want[name] = (trace_dir / "old").read_bytes()
        assert (trace_dir / name).read_bytes() == want[name]
    if not all(r.ground_truth in (None, 0, 1) and r.decision in (0, 1) for r in trace):
        with pytest.raises(DataError, match="labels must be 0 or 1"):
            read_trace_csv(trace_dir / "csv")
    elif not any(isinstance(v, float) and math.isnan(v) for r in trace
                 for v in r._asdict().values()):
        assert list(read_trace_csv(trace_dir / "csv")) == trace
    for order in [("jsonl", "csv"), ("csv", "jsonl"), ("csv", "csv"), ("jsonl", "jsonl")]:
        shared = Trace.from_records(trace)
        for name in order:
            TRACE_FORMATS[name][0](trace_dir / "new", shared)
            assert (trace_dir / "new").read_bytes() == want[name], order


def fresh_floats(record: TraceRecord) -> TraceRecord:
    """``record`` with each float a new object of the same value: a NaN is
    then unequal to the record's own, as in a list."""
    return TraceRecord(*(float(repr(v)) if isinstance(v, float) else v for v in record))


@settings(max_examples=60, deadline=None)
@given(records=st.lists(trace_records, max_size=6), data=st.data())
def test_a_trace_behaves_as_the_list_of_its_records(records, data):
    trace = Trace.from_records(records)
    assert len(trace) == len(records)
    for i in range(-len(records), len(records)):
        assert type(trace[i]) is TraceRecord and trace[i] == records[i]
    for i in (len(records), -len(records) - 1):
        with pytest.raises(IndexError):
            trace[i]
    cut = data.draw(st.slices(len(records)))
    assert type(trace[cut]) is Trace and list(trace[cut]) == records[cut]
    assert all(type(r) is TraceRecord for r in trace) and list(trace) == records
    fresh = list(map(fresh_floats, records))
    for other in (records, records[:-1], records[::-1], fresh):
        # The records hold the very values they were built from, a NaN included.
        assert (list(Trace.from_records(other)) == records) is (other == records)
    with pytest.raises(TypeError):
        trace[0] = TraceRecord(0, None, 0.5, 0, None, False, 0, 0.0)


class CountedFloat(float):
    """A float that counts the calls of its ``repr``."""

    calls = 0

    def __repr__(self) -> str:
        CountedFloat.calls += 1
        return float.__repr__(self)


def test_both_trace_files_format_each_value_once(trace_dir):
    n = 2 * N + 1
    ys = [CountedFloat(math.nan if i == 5 else math.inf if i == N else i / n) for i in range(n)]
    records = [TraceRecord(i, i % 2, y, 1, None, i % 3 == 0, i % 7, 0.0) for i, y in enumerate(ys)]
    want = {}
    for name, (_, reference) in TRACE_FORMATS.items():
        reference(trace_dir / name, records)
        want[name] = (trace_dir / name).read_bytes()
    CountedFloat.calls = 0
    trace = Trace(zip(*records))  # as the fold builds it: from_records refuses a float subclass
    for name, (writer, _) in TRACE_FORMATS.items():
        writer(trace_dir / name, trace)
        assert (trace_dir / name).read_bytes() == want[name]
    assert CountedFloat.calls == n


# ---------------------------------------------------------------------------
# The engine's trusted gradient step against the checked one
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_stream():
    art = build_artifacts(0, d=8, n_users=4, frames_per_user=60, replay_size=40)
    # A live and a spoof segment, each longer than the 120-frame eviction
    # horizon: the buffer holds one class, then both, then the other.
    scenario = continual_scenario(segment_frames=150, n_pairs=1)
    frames, truth = generate_stream(art.generator, scenario)
    empty = ReplayStore(np.zeros((0, 8)), np.zeros(0, dtype=np.int64))
    return art.head, {True: art.replay, False: empty}, frames, truth


@settings(max_examples=15, deadline=None)
@given(
    margin=st.sampled_from([0.01, 0.2, 0.5]),
    iterations=st.sampled_from([1, 3]),
    finetune_freq=st.sampled_from([1.0, 0.37]),
    online_prob=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    with_replay=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(margin=0.5, iterations=3, finetune_freq=1.0, online_prob=0.9, with_replay=False, seed=0)
def test_engine_on_the_trusted_step_matches_the_checked_step(
    small_stream, trace_dir, margin, iterations, finetune_freq, online_prob, with_replay, seed
):
    """The engine trains through ``_grad_kernel``. Run on the checked
    ``loss_and_grad`` instead, it gives the same trace bytes, head and Adam
    moments, and no batch it builds fails the checks."""
    assert oap.engine.loss_and_grad is _grad_kernel
    head, replays, frames, truth = small_stream
    params = desk_params(seed, margin=margin, iterations_per_call=iterations,
                         finetune_freq=finetune_freq, online_prob=online_prob)
    runs = []
    for step in (loss_and_grad, _grad_kernel):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oap.engine, "loss_and_grad", step)
            engine = Engine(head, replays[with_replay], params)
            write_trace_csv(trace_dir / "engine.csv", engine.run_stream(frames, truth))
        runs.append(((trace_dir / "engine.csv").read_bytes(), engine.head.flat.tobytes(),
                     engine.adam.m_flat.tobytes(), engine.adam.v_flat.tobytes(),
                     engine.adam.step_count))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# Readers on edited bytes
# ---------------------------------------------------------------------------

# Bytes an edit inserts: one that is not UTF-8, the separators and line
# breaks of the text formats, or any byte at all.
INSERTED_BYTES = st.one_of(
    st.sampled_from([b"\xff", b"\n", b"\r", b",", b"=", b"#", b"{", b'"', b"-"]),
    st.binary(min_size=1, max_size=1),
)


@st.composite
def edited_bytes(draw, content: bytes) -> bytes:
    """``content`` after 1-3 edits, each truncating it, flipping bits of
    one byte or inserting a byte."""
    data = bytearray(content)
    for _ in range(draw(st.integers(1, 3))):
        # Every format keeps its header first: half the edits land there.
        at = draw(st.one_of(st.integers(0, min(len(data), 24)), st.integers(0, len(data))))
        kind = draw(st.sampled_from(["truncate", "flip", "insert"]))
        if kind == "truncate":
            del data[at:]
        elif kind == "flip" and at < len(data):
            data[at] ^= draw(st.integers(1, 255))
        else:
            data[at:at] = draw(INSERTED_BYTES)
    return bytes(data)


# Each reader, the file it reads and the one error type it may raise.
READERS = {
    "load_head": (load_head, "head.oaph", DataError),
    "ReplayStore.load": (ReplayStore.load, "replay.oapf", DataError),
    "read_trace_csv": (read_trace_csv, "trace.csv", DataError),
    "parse_kv_file": (parse_kv_file, "config.cfg", ConfigError),
}


@pytest.fixture(scope="module")
def reader_files(tmp_path_factory):
    """One valid file for each reader: the bytes the edits start from."""
    root = tmp_path_factory.mktemp("readers")
    save_head(init_head(2, seeded_rng(0, "init")), root / "head.oaph")
    features = np.random.default_rng(0).normal(size=(4, 2))
    ReplayStore(features, [0, 1, 1, 0]).save(root / "replay.oapf")
    trace = [TraceRecord(1, 0, 0.25, 0, 1, True, 3, 1536.0),
             TraceRecord(2, None, 0.75, 1, None, False, 0, 0.0)]
    write_trace_csv(root / "trace.csv", trace)
    (root / "config.cfg").write_text("# desk run\nmargin = 0.05\n\nsegments = live:9  # one\n")
    sources = {}
    for name, (read, file, _) in READERS.items():
        read(root / file)
        sources[name] = (root / file).read_bytes()
    return root, sources


@pytest.mark.parametrize("reader", READERS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_reader_on_edited_bytes_reads_or_raises_its_error(reader_files, reader, data):
    """A truncated file, a flipped byte or an inserted byte (one that is not
    UTF-8 included) makes each reader return a value or raise its own error
    type, never another exception."""
    root, sources = reader_files
    read, file, error = READERS[reader]
    path = root / f"edited_{file}"
    path.write_bytes(data.draw(edited_bytes(sources[reader])))
    try:
        read(path)
    except error:
        pass
