"""The stream contract has one scalar door, ``memory.check_frame``, behind
``Engine.process_frame`` only (``OnlineBuffer.insert`` appends what that
door checked), and one stream door, ``memory.first_bad_frame``, behind the
CLI and the three runners. The stream door checks a whole ``StreamFrames``
of int64 and float64 columns by column before a frame runs, and the
runners refuse any other stream before it too. The stream door refuses the
frame the scalar door refuses first, in the same words, and the words are
spelled in one module only. A runner refuses an empty stream first, then
a ground truth of another length, then the first bad frame, whichever
block of the fold it falls in. It refuses the whole stream and each prefix
that holds the refused frame, and takes the prefix before it. Every
runner's trace takes its frame indices from its stream, so they read back
from a trace file, and is the same trace whichever layout of the columns
it reads."""

import ast
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oap.engine import Engine, read_trace_csv, run_baseline_frozen, run_baseline_smoothed
from oap.engine import write_trace_csv
from oap.errors import DataError
from oap.head import SCORE_ROWS_PER_CALL, init_head
from oap.memory import ReplayStore, first_bad_frame
from oap.presets import desk_params
from oap.simstream import StreamFrames

from oracles import engine_state, message_texts, record_strided, refusal, spelled_in

D = 2
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
HEAD = init_head(D, np.random.default_rng(0))
EMPTY_REPLAY = ReplayStore(np.zeros((0, D)), np.zeros(0, dtype=np.int64))
FAULTS = ("nan time", "inf time", "repeated index", "index going back", "time going back")
FEATURE_FAULTS = ("nan", "inf", "-inf")
BASELINES = {"frozen": lambda frames, **truth: run_baseline_frozen(HEAD, frames, **truth),
             "ema": lambda frames, **truth: run_baseline_smoothed(HEAD, frames, 0.9, **truth)}
RUNNERS = {"engine": lambda frames, **truth: Engine(HEAD, EMPTY_REPLAY, desk_params(
    margin=0.5, finetune_freq=0.5)).run_stream(frames, **truth), **BASELINES}


@st.composite
def columns(draw):
    """An index and a time column that keep the contract, then zero to
    three planted faults, two of which may hit one row and any of which
    may hit row 0 (where only a non-finite time can break the contract),
    and a feature per row, with zero to two non-finite values planted; now
    and then every row is one wider or narrower than the head."""
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
    width = draw(st.sampled_from([D, D, D, D - 1, D + 1]))
    features = [np.full(width, 0.25 * k) for k in range(n)]
    for fault, k in draw(st.lists(st.tuples(st.sampled_from(FEATURE_FAULTS), rows), max_size=2)):
        features[k][draw(st.integers(0, width - 1))] = float(fault)
    return np.array(indices, dtype=np.int64), np.array(times, dtype=np.float64), features


def first_refusal(door, indices, times, features=None):
    """Feed the frames to ``door`` in order, as a stream of Python numbers
    (what ``StreamFrames`` yields), each with its feature if ``features``
    are given: the position and text of the first DataError, or None."""
    rows = zip(indices.tolist(), times.tolist(), *[features] * (features is not None))
    for k, row in enumerate(rows):
        try:
            door(*row)
        except DataError as exc:
            return k, str(exc)
    return None


def assert_refuses(run, frames, refusal):
    """``run`` takes ``frames`` if ``refusal`` is None. Else, for (k, text),
    it takes the first k frames and refuses the first k + 1, and the whole
    stream, with ``text``."""
    if refusal is None:
        run(frames)
        return
    k, text = refusal
    if k:
        run(frames[:k])
    for stream in (frames[: k + 1], frames):
        with pytest.raises(DataError, match=f"^{re.escape(text)}$"):
            run(stream)


def int64s(*values):
    return np.array(values, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(cols=columns())
@example(cols=(int64s(), np.zeros(0), []))
@example(cols=(int64s(7, 9), np.array([-math.inf, 0.0]), [np.zeros(D)] * 2))
@example(cols=(int64s(3, 3), np.array([0.0, math.nan]), [np.zeros(D)] * 2))  # two faults on one row
@example(cols=(int64s(1, 2, 3), np.array([0.0, 1.0, 0.5]),
               [np.zeros(D), np.array([0.0, math.inf]), np.zeros(D)]))  # a bad row, then an order fault
@example(cols=(int64s(1, 1), np.array([0.0, 1.0]),
               [np.zeros(D), np.array([math.nan, 0.0])]))  # an order fault on a bad row
@example(cols=(int64s(1, 2), np.array([math.nan, 1.0]), [np.zeros(D + 1)] * 2))  # a wide row's time
@example(cols=(int64s(1, 2), np.array([0.0, 1.0]), [np.zeros(D + 1)] * 2))  # a wide first row
@example(cols=(int64s(1, 2), np.array([0.0, 1.0]), [np.zeros(D - 1)] * 2))  # a narrow first row
def test_block_door_refuses_what_the_scalar_doors_refuse_first(cols):
    indices, times, features = cols
    feature = np.zeros(D)
    engine = Engine(HEAD, EMPTY_REPLAY, desk_params(margin=0.5, finetune_freq=0.01))
    block = first_bad_frame(StreamFrames(np.zeros((len(indices), D)), indices, times), D)
    assert first_refusal(lambda i, t: engine.process_frame(feature, i, t), indices, times) == block
    if not len(indices):
        return
    engine = Engine(HEAD, EMPTY_REPLAY, desk_params(margin=0.5, finetune_freq=0.01))
    # ``forward`` may warn of the NaN an inf feature makes in its product before it refuses the row.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "invalid value encountered in dot", RuntimeWarning)
        refusal = first_refusal(lambda i, t, f: engine.process_frame(f, i, t), indices, times,
                                features)
    stream = StreamFrames(np.array(features), indices, times)
    assert first_bad_frame(stream, D) == refusal
    for run in RUNNERS.values():
        assert_refuses(run, stream, refusal)


@pytest.mark.parametrize("runner", RUNNERS)
def test_no_runner_warns_before_it_refuses_an_inf_feature(runner):
    """A runner refuses a non-finite feature from its column, without
    scoring it, so the NaN that an inf feature makes in the product is not
    reported before the DataError."""
    frames = StreamFrames(np.array([[0.0, 0.0], [math.inf, math.inf]]), int64s(1, 2),
                          np.array([0.0, 0.1]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DataError, match="^non-finite value in feature input$"):
            RUNNERS[runner](frames)
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("runner", RUNNERS)
def test_every_runner_refuses_an_empty_stream_then_a_ground_truth_of_another_length(runner):
    """Before any frame: an empty stream first, whatever its ground truth,
    then a ground truth of the wrong length, whatever the frames hold."""
    empty = StreamFrames(np.zeros((0, D)), int64s(), np.zeros(0))
    assert refusal(lambda: RUNNERS[runner](empty, ground_truth=[0, 1])) == "empty stream"
    nan_rows = StreamFrames(np.full((4, D), np.nan), int64s(1, 2, 3, 4), np.zeros(4))
    assert refusal(lambda: RUNNERS[runner](nan_rows, ground_truth=[0] * 3)) == (
        "3 labels for 4 rows: want one label per row")


# Two faults, the first at row ``at`` and the second two rows on, and the
# words of the first, where frame k has index k + 1 and time k.
TWO_FAULTS = {
    "nan before time": ("nan", "time going back", lambda at: "non-finite value in feature input"),
    "time before nan": ("time going back", "nan",
                        lambda at: f"frame time -1.0 precedes the last frame's {at - 1.0}"),
    "index before nan": ("repeated index", "nan",
                         lambda at: f"frame index {at} does not follow the last frame's {at}"),
    "inf before index": ("inf", "repeated index", lambda at: "non-finite value in feature input"),
}


@pytest.mark.parametrize("runner", RUNNERS)
@pytest.mark.parametrize("at", [2, SCORE_ROWS_PER_CALL + 2], ids=["first block", "second block"])
@pytest.mark.parametrize("case", TWO_FAULTS)
def test_every_runner_refuses_the_first_of_two_faults(runner, at, case):
    """Whichever block of the fold the first fault falls in, every runner
    raises its frame's error."""
    first, second, words = TWO_FAULTS[case]
    n = at + 5
    features, indices, times = np.zeros((n, D)), np.arange(1, n + 1), np.arange(n, dtype=float)
    for fault, k in ((first, at), (second, at + 2)):
        if fault in ("nan", "inf"):
            features[k, 1] = float(fault)
        elif fault == "time going back":
            times[k] = -1.0
        else:
            indices[k] = indices[k - 1]
    assert refusal(lambda: RUNNERS[runner](StreamFrames(features, indices, times))) == words(at)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       start=st.integers(-(2**31), 2**31 - 1 - 2 * 40))
def test_every_runner_gives_one_trace_for_every_form_of_a_stream(n, seed, start):
    """One stream as contiguous int64 and float64 columns, as the record
    fields of a loaded feature file, and as big-endian columns: each runner
    gives each of them the same trace, its indices Python ints."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, D))
    indices = start + np.cumsum(rng.integers(1, 3, size=n))
    times = np.cumsum(rng.choice([0.0, 1 / 30, 0.5], size=n))
    forms = [
        StreamFrames(features, indices.astype(np.int64), times),
        StreamFrames(*record_strided(features, indices, times)),
        StreamFrames(features.astype(">f8"), indices.astype(">i8"), times.astype(">f8")),
    ]
    for run in RUNNERS.values():
        traces = [run(stream) for stream in forms]
        assert list(traces[1]) == list(traces[0]) and list(traces[2]) == list(traces[0])
        assert [type(i) for i in traces[2].columns.frame_index] == [int] * n


NOT_A_STREAM = ("a stream must be a StreamFrames of int64 frame indices, float64 times and "
                "(n, d) float64 features")
OTHER_FORMS = {
    "list of frames": lambda f, i, t: list(StreamFrames(f, i, t)),
    "int32 indices": lambda f, i, t: StreamFrames(f, i.astype(np.int32), t),
    "uint64 indices": lambda f, i, t: StreamFrames(f, i.astype(np.uint64), t),
    "float64 indices": lambda f, i, t: StreamFrames(f, i.astype(np.float64), t),
    "float32 times": lambda f, i, t: StreamFrames(f, i, t.astype(np.float32)),
    "float32 features": lambda f, i, t: StreamFrames(f.astype(np.float32), i, t),
    "object features": lambda f, i, t: StreamFrames(f.astype(object), i, t),
    "1-D features": lambda f, i, t: StreamFrames(f[:, 0], i, t),
    "3-D features": lambda f, i, t: StreamFrames(f[:, None], i, t),
    "list columns": lambda f, i, t: StreamFrames(f.tolist(), i.tolist(), t.tolist()),
}


@pytest.mark.parametrize("runner", RUNNERS)
@pytest.mark.parametrize("form", OTHER_FORMS)
def test_every_runner_refuses_a_stream_of_another_form_before_any_frame_runs(runner, form):
    """A stream that is not a ``StreamFrames`` of int64 indices, float64
    times and (n, d) float64 features is one DataError, raised before any
    frame runs: an engine that ran a stream before is as it was, and the
    head is untouched."""
    features, indices, times = np.ones((3, D)), int64s(4, 5, 6), np.array([0.2, 0.5, 1.0])
    engine = Engine(HEAD, EMPTY_REPLAY, desk_params(margin=0.5, finetune_freq=0.5))
    engine.run_stream(StreamFrames(np.zeros((3, D)), int64s(1, 2, 3), np.array([0.0, 0.1, 0.2])))
    before, head = engine_state(engine), HEAD.flat.tobytes()
    run = BASELINES.get(runner) or engine.run_stream
    with pytest.raises(DataError, match=f"^{re.escape(NOT_A_STREAM)}$"):
        run(OTHER_FORMS[form](features, indices, times))
    assert engine_state(engine) == before and HEAD.flat.tobytes() == head


@pytest.mark.parametrize("baseline", BASELINES)
@pytest.mark.parametrize("fault, words", [
    ("repeated index", "frame index 1023 does not follow the last frame's 1023"),
    ("time going back", "frame time 1022.5 precedes the last frame's 1023.0"),
    ("nan time", "non-finite frame time nan"),
])
def test_the_baselines_carry_the_last_frame_into_the_next_block(baseline, fault, words):
    """The first frame of the second block of the fold is checked against
    the last frame of the first."""
    n = SCORE_ROWS_PER_CALL
    indices, times = np.arange(n + 1), np.arange(n + 1, dtype=np.float64)
    if fault == "repeated index":
        indices[n] = n - 1
    elif fault == "time going back":
        times[n] = n - 1.5
    else:
        times[n] = math.nan
    frames = StreamFrames(np.zeros((n + 1, D)), indices, times)
    with pytest.raises(DataError, match=f"^{words}$"):
        BASELINES[baseline](frames)


@pytest.mark.parametrize("runner", ["engine", *BASELINES])
def test_a_streams_int64_indices_read_back_from_a_trace_file(runner, tmp_path):
    """The trace holds the ints that the door checked, not the stream's
    ``np.int64`` indices, so its CSV file reads back equal."""
    stream = StreamFrames(np.arange(5.0)[:, None] * np.full(D, 0.1), np.arange(1, 6),
                          np.arange(5.0))
    run = BASELINES.get(runner) or Engine(HEAD, EMPTY_REPLAY, desk_params()).run_stream
    trace = run(stream)
    assert [type(i) for i in trace.columns.frame_index] == [int] * 5
    write_trace_csv(tmp_path / "trace.csv", trace)
    assert list(read_trace_csv(tmp_path / "trace.csv")) == list(trace)


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
