"""The stream contract has one scalar door, ``memory.check_frame``, behind
``Engine.process_frame`` and ``OnlineBuffer.insert``, and one block door,
``memory.first_bad_frame``, behind the CLI; the baselines check a block
through either. The block door refuses the frame the scalar doors and the
baselines refuse first, in the same words, and the words are spelled in
one module only. Every runner's trace takes its frame indices from its
door, so they read back from a trace file."""

import ast
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oap.config import PseudoLabel
from oap.engine import Engine, read_trace_csv, run_baseline_frozen, run_baseline_smoothed
from oap.engine import write_trace_csv
from oap.errors import DataError
from oap.head import SCORE_ROWS_PER_CALL, init_head
from oap.memory import OnlineBuffer, ReplayStore, first_bad_frame
from oap.presets import desk_params
from oap.simstream import StreamFrame, StreamFrames

from oracles import message_texts, spelled_in

D = 2
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
HEAD = init_head(D, np.random.default_rng(0))
EMPTY_REPLAY = ReplayStore(np.zeros((0, D)), np.zeros(0, dtype=np.int64))
FAULTS = ("nan time", "inf time", "repeated index", "index going back", "time going back")
BASELINES = {"frozen": lambda frames: run_baseline_frozen(HEAD, frames),
             "ema": lambda frames: run_baseline_smoothed(HEAD, frames, 0.9)}


@st.composite
def columns(draw):
    """An index and a time column that keep the contract, then zero to
    three planted faults, two of which may hit one row and any of which
    may hit row 0 (where only a non-finite time can break the contract)."""
    n = draw(st.integers(1, 30))
    start = draw(st.integers(INT64_MIN, INT64_MAX - 10 * n))
    indices = [start]
    for step in draw(st.lists(st.integers(1, 10), min_size=n - 1, max_size=n - 1)):
        indices.append(indices[-1] + step)
    times = [draw(st.floats(-1e6, 1e6))]
    for step in draw(st.lists(st.sampled_from([0.0, 1 / 30, 0.5, 7.25]), min_size=n - 1,
                              max_size=n - 1)):
        times.append(times[-1] + step)
    rows = st.one_of(st.just(0), st.integers(0, n - 1))
    for fault, k in draw(st.lists(st.tuples(st.sampled_from(FAULTS), rows), max_size=3)):
        if fault == "nan time":
            times[k] = math.nan
        elif fault == "inf time":
            times[k] = draw(st.sampled_from([math.inf, -math.inf]))
        elif k == 0:
            continue  # no frame before row 0 to break the order with
        elif fault == "repeated index":
            indices[k] = indices[k - 1]
        elif fault == "index going back":
            indices[k] = max(indices[k - 1] - draw(st.integers(1, 5)), INT64_MIN)
        else:
            times[k] = times[k - 1] - draw(st.sampled_from([1e-3, 0.5, 100.0]))
    return np.array(indices, dtype=np.int64), np.array(times, dtype=np.float64)


def first_refusal(door, indices, times):
    """Feed the frames to ``door`` in order, as a stream of Python numbers
    (what ``StreamFrames`` yields): the position and text of the first
    DataError, or None."""
    for k, (index, time) in enumerate(zip(indices.tolist(), times.tolist())):
        try:
            door(index, time)
        except DataError as exc:
            return k, str(exc)
    return None


def prefix_refusal(run, frames):
    """Run the stream runner ``run`` on ever longer prefixes of ``frames``:
    the last row of the shortest prefix it refuses and the text of its
    DataError, or None."""
    for k in range(len(frames)):
        try:
            run(frames[: k + 1])
        except DataError as exc:
            return k, str(exc)
    return None


def int64s(*values):
    return np.array(values, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(cols=columns())
@example(cols=(int64s(), np.zeros(0)))
@example(cols=(int64s(7, 9), np.array([-math.inf, 0.0])))
@example(cols=(int64s(3, 3), np.array([0.0, math.nan])))  # two faults on one row
def test_block_door_refuses_what_the_scalar_doors_refuse_first(cols):
    indices, times = cols
    feature = np.zeros(D)
    engine = Engine(HEAD, EMPTY_REPLAY, desk_params(margin=0.5, finetune_freq=0.01))
    buffer = OnlineBuffer()
    block = first_bad_frame(indices, times)
    assert first_refusal(lambda i, t: engine.process_frame(feature, i, t), indices, times) == block
    assert first_refusal(lambda i, t: buffer.insert(feature, PseudoLabel.LIVE, i, t),
                         indices, times) == block
    frames = StreamFrames(np.zeros((len(indices), D)), indices, times)
    for run in BASELINES.values():
        assert prefix_refusal(run, frames) == block
        assert prefix_refusal(run, list(frames)) == block


@pytest.mark.parametrize("baseline", BASELINES)
@pytest.mark.parametrize("fault, words", [
    ("repeated index", "frame index 1023 does not follow the last frame's 1023"),
    ("time going back", "frame time 1022.5 precedes the last frame's 1023.0"),
    ("nan time", "non-finite frame time nan"),
])
def test_the_baselines_carry_the_last_frame_into_the_next_block(baseline, fault, words):
    """The first frame of the second block of the fold is checked against
    the last frame of the first, over a ``StreamFrames`` and over a list."""
    n = SCORE_ROWS_PER_CALL
    indices, times = np.arange(n + 1), np.arange(n + 1, dtype=np.float64)
    if fault == "repeated index":
        indices[n] = n - 1
    elif fault == "time going back":
        times[n] = n - 1.5
    else:
        times[n] = math.nan
    frames = StreamFrames(np.zeros((n + 1, D)), indices, times)
    for stream in (frames, list(frames)):
        with pytest.raises(DataError, match=f"^{words}$"):
            BASELINES[baseline](stream)


@pytest.mark.parametrize("baseline", BASELINES)
@pytest.mark.parametrize("index, kind", [(1.5, "a list"), (1.5, "float64 columns"),
                                         (np.float64(1.0), "a list")])
def test_the_baselines_refuse_an_index_that_is_not_an_integer(baseline, index, kind):
    """An index ``operator.index`` refuses is refused in ``check_frame``'s
    words, in a list and in a ``StreamFrames`` whose index column is not
    int64, as ``process_frame`` refuses it."""
    if kind == "a list":
        stream = [StreamFrame(np.zeros(D), 0, 0.0), StreamFrame(np.zeros(D), index, 1.0)]
    else:
        stream = StreamFrames(np.zeros((1, D)), np.array([index]), np.array([0.0]))
    with pytest.raises(DataError, match=f"^frame index {re.escape(repr(index))} is not an integer$"):
        BASELINES[baseline](stream)


@pytest.mark.parametrize("runner", ["engine", *BASELINES])
def test_a_list_of_numpy_indices_reads_back_from_a_trace_file(runner, tmp_path):
    """The trace holds the ints that the door checked, not the stream's
    ``np.int64`` indices, so its CSV file reads back equal."""
    stream = [StreamFrame(np.full(D, 0.1 * k), np.int64(k + 1), float(k)) for k in range(5)]
    run = BASELINES.get(runner) or Engine(HEAD, EMPTY_REPLAY, desk_params()).run_stream
    trace = run(stream)
    assert [type(i) for i in trace.columns.frame_index] == [int] * 5
    write_trace_csv(tmp_path / "trace.csv", trace)
    assert read_trace_csv(tmp_path / "trace.csv") == trace


# ---------------------------------------------------------------------------
# One set of words: a source scan of the package
# ---------------------------------------------------------------------------

CONTRACT_WORDS = ("does not follow", "precedes", "non-finite frame time")


@pytest.mark.parametrize("words", CONTRACT_WORDS)
def test_each_contract_message_is_spelled_in_one_module(words):
    assert spelled_in(words) == ["memory.py"]


def test_the_scan_sees_a_message_and_skips_a_docstring():
    tree = ast.parse(
        'def f(t):\n'
        '    """A time that precedes the last one is refused."""\n'
        '    raise ValueError(f"frame time {t!r} precedes the last one")\n'
    )
    assert message_texts(tree) == ["frame time ", " precedes the last one"]
