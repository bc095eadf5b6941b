"""Streams held as their arrays, frames made on read, and whole sets scored
in fixed blocks: what a list of frames gave, at a bounded memory cost."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oap.engine
from oap.config import ClassLabel
from oap.errors import DataError
from oap.head import SCORE_ROWS_PER_CALL, PretrainSchedule, forward, forward_batch, init_head
from oap.presets import DESK_FRAMES_PER_USER, DESK_N_USERS, fit_head
from oap.rng import seeded_rng
from oap.simstream import (
    FRAMES_PER_READ,
    GeneratorConfig,
    Segment,
    StreamFrame,
    StreamFrames,
    StreamScenario,
    generate_pretraining_set,
    generate_stream,
    load_feature_file,
    save_feature_file,
)

from oracles import record_strided


def columns(n, d, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, d))
    indices = np.cumsum(rng.integers(1, 4, size=n)).astype(np.int64)
    times = np.arange(n) / 30.0
    return features, indices, times


def as_list(features, indices, times):
    """The list of frames that ``StreamFrames`` replaces."""
    return list(map(StreamFrame, features, indices.tolist(), times.tolist()))


def assert_same_frame(got, want, features):
    """Same type, field types and bits; the feature a view of ``features``."""
    assert type(got) is StreamFrame
    assert type(got.feature) is np.ndarray and type(got.frame_index) is int
    assert type(got.time) is float
    assert got.feature.tobytes() == want.feature.tobytes()
    assert (got.frame_index, got.time) == (want.frame_index, want.time)
    assert np.shares_memory(got.feature, features)


def assert_same_frames(got, want, features):
    assert type(got) is StreamFrames
    assert len(got) == len(want)
    for g, w in zip(got, want, strict=True):
        assert_same_frame(g, w, features)


bounds = st.one_of(st.none(), st.integers(-55, 55))
steps = st.sampled_from([None, 1, 2, 3, -1, -2, -3])


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 50), d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       positions=st.lists(st.integers(-55, 55), max_size=8),
       cuts=st.lists(st.tuples(bounds, bounds, steps), max_size=4))
def test_frames_equal_the_list_they_replace(n, d, seed, positions, cuts):
    """Length, iteration, int and negative indexing, IndexError out of
    range and slices (empty ones too, and slices of slices) read as the
    list does, frame by frame."""
    features, indices, times = columns(n, d, seed)
    frames = StreamFrames(features, indices, times)
    want = as_list(features, indices, times)
    assert_same_frames(frames, want, features)
    if n == 0:
        assert list(frames) == want == []
    for i in positions:
        if -n <= i < n:
            assert_same_frame(frames[i], want[i], features)
        else:
            with pytest.raises(IndexError):
                frames[i]
    got_cut, want_cut = frames, want
    for start, stop, step in cuts:
        cut = slice(start, stop, step)
        got_cut, want_cut = got_cut[cut], want_cut[cut]
        assert_same_frames(got_cut, want_cut, features)
        for i in positions:
            if -len(want_cut) <= i < len(want_cut):
                assert_same_frame(got_cut[i], want_cut[i], features)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_a_write_through_a_frame_lands_in_the_backing_array(n, seed, data):
    features, indices, times = columns(n, 3, seed)
    frames = StreamFrames(features, indices, times)
    cut = frames[data.draw(st.sampled_from([slice(None), slice(None, None, -1),
                                            slice(1, None, 2)]))]
    if not len(cut):
        return
    i = data.draw(st.integers(-len(cut), len(cut) - 1))
    row = cut[i].frame_index
    cut[i].feature[:] = 7.5
    assert (features[indices == row] == 7.5).all()
    assert np.count_nonzero((features == 7.5).all(axis=1)) == 1


def test_iteration_reads_across_its_steps():
    """A stream longer than one read step iterates as the list does."""
    features, indices, times = columns(2 * FRAMES_PER_READ + 3, 2)
    frames = StreamFrames(features, indices, times)
    assert_same_frames(frames, as_list(features, indices, times), features)


def test_frames_refuse_columns_of_other_lengths():
    features, indices, times = columns(4, 2)
    with pytest.raises(DataError, match="one length"):
        StreamFrames(features, indices[:3], times)


def test_frames_are_read_only():
    frames = StreamFrames(*columns(3, 2))
    with pytest.raises(TypeError):
        frames[0] = frames[1]


def test_generated_and_loaded_streams_are_frames_on_read(tmp_path):
    frames, labels = generate_stream(GeneratorConfig(d=4),
                                     StreamScenario((Segment(ClassLabel.LIVE, 5),)))
    assert type(frames) is StreamFrames
    path = tmp_path / "s.oapf"
    save_feature_file(path, frames.features, frames.frame_indices, frames.times, labels)
    data = load_feature_file(path)
    loaded = data.to_frames()
    assert type(loaded) is StreamFrames
    assert_same_frames(loaded, list(frames), data.features)


def test_stream_retained_footprint_is_its_arrays():
    """A 20000-frame stream at d = 32 holds under 1.2 times its (n, d)
    feature block: the block, the labels and the index and time columns.
    A list of frames held about 2.0 times. A small stream first loads what
    numpy loads lazily, so the count holds the stream alone."""
    n, d = 20_000, 32
    generate_stream(GeneratorConfig(d=d), StreamScenario((Segment(ClassLabel.LIVE, 3),)))
    scenario = StreamScenario((Segment(ClassLabel.LIVE, n),))
    tracemalloc.start()
    try:
        frames, labels = generate_stream(GeneratorConfig(d=d), scenario)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(frames) == len(labels) == n
    assert retained < 1.2 * n * d * 8


def test_fit_head_peak_memory_is_bounded_by_its_feature_block():
    """At the desk size (10000 rows, d = 32) training the head, carving the
    replay store and scoring every row for the accuracy peaks below twice
    the feature block. One pass over all rows at once peaked near 4.5. A
    small fit first loads what numpy loads lazily."""
    feats, labels = generate_pretraining_set(GeneratorConfig(d=32), DESK_N_USERS,
                                             DESK_FRAMES_PER_USER)
    assert feats.shape == (10_000, 32)
    fit_head(feats[::100], labels[::100], 0, 10, PretrainSchedule(iterations=1))
    tracemalloc.start()
    try:
        _, _, accuracy = fit_head(feats, labels, 0, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert accuracy > 0.9
    assert peak < 2 * feats.nbytes


@pytest.mark.parametrize("n", [SCORE_ROWS_PER_CALL, SCORE_ROWS_PER_CALL + 1,
                               2 * SCORE_ROWS_PER_CALL + 3])
def test_forward_batch_blocks_keep_each_rows_bits(n):
    """Rows in every block, the last one short, keep the bits ``forward``
    gives them alone, on a strided view as on a contiguous array."""
    head = init_head(8, seeded_rng(3, "init"))
    wide = np.random.default_rng(4).normal(0.0, 3.0, size=(n, 16))
    for feats in (wide[:, ::2], np.ascontiguousarray(wide[:, ::2])):
        want = np.array([forward(head, f) for f in feats])
        assert forward_batch(head, feats).tobytes() == want.tobytes()


def test_the_engine_stacks_frames_by_the_heads_block():
    assert oap.engine.SCORE_ROWS_PER_CALL is SCORE_ROWS_PER_CALL


@pytest.mark.parametrize("n", [5, SCORE_ROWS_PER_CALL + 3])
@pytest.mark.parametrize("layout", ["contiguous", "record-strided"])
@pytest.mark.parametrize("momentum", [0.0, 0.7])
def test_baselines_read_the_columns_with_the_bits_of_each_frame(n, layout, momentum):
    """The baselines score a ``StreamFrames`` block from its columns and
    give each frame the bits of ``forward`` on its row alone, averaged a
    frame at a time, and its index as a Python int."""
    head = init_head(8, seeded_rng(3, "init"))
    cols = columns(n, 8, seed=n)
    if layout == "record-strided":
        cols = record_strided(*cols)
    frames = StreamFrames(*cols)
    truth = np.random.default_rng(n).integers(0, 2, size=n)
    got = oap.engine.run_baseline_smoothed(head, frames, momentum, ground_truth=truth)
    ema, want = None, []
    for frame in frames:
        y = forward(head, frame.feature)
        ema = y if ema is None else momentum * ema + (1.0 - momentum) * y
        want.append(ema)
    assert np.array(got.columns.y).tobytes() == np.array(want).tobytes()
    assert list(got.columns.frame_index) == cols[1].tolist()
    assert list(got.columns.ground_truth) == truth.tolist()
    assert [type(v) for v in got[-1]] == [int, int, float, int, type(None), bool, int, float]
