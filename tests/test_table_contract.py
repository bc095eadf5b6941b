"""An in-memory feature table has one door, in ``oap.head``:
``check_features`` holds the features rule (an (n, d) matrix of finite
real numbers, d >= 1, the head's d where a head is given) and
``check_labels`` the labels rule (one label per row, each a real number
equal to 0 or 1). Every entry point that takes a table refuses what the
door refuses, in the door's words, and the words are spelled in one
module only. The ground truth of the stream runners and the ground truth
and decision columns of a trace file keep the labels rule too."""

import ast
import os

import numpy as np
import pytest

from oap.engine import Engine, read_trace_csv, run_baseline_frozen, run_baseline_smoothed
from oap.engine import write_trace_csv
from oap.errors import DataError
from oap.head import PretrainSchedule, check_features, check_labels, forward_batch, init_head
from oap.head import loss_and_grad, pretrain
from oap.memory import ReplayStore, subsample_pretraining
from oap.metrics import evaluate_frames, fixed_threshold_metrics
from oap.presets import desk_params
from oap.rng import seeded_rng
from oap.simstream import StreamFrame, StreamFrames, save_feature_file

from oracles import SOURCES, spelled_in, stream_of

D = 3
HEAD = init_head(D, np.random.default_rng(0))
GOOD_FEATURES = np.arange(4.0 * D).reshape(4, D)
GOOD_LABELS = [0, 1, 0, 1]


def refusal(call) -> str:
    with pytest.raises(DataError) as info:
        call()
    return str(info.value)


def nan_at(row: int) -> np.ndarray:
    features = GOOD_FEATURES.copy()
    features[row, 1] = np.nan
    return features


# Tables that break the features rule whatever the head. A NaN sits in
# the last row, which a draw of every row reaches.
BAD_FEATURES = {
    "nan": nan_at(3),
    "inf": np.where(GOOD_FEATURES == 5.0, -np.inf, GOOD_FEATURES),
    "one row": GOOD_FEATURES[0],
    "three axes": GOOD_FEATURES[None],
    "no column": np.zeros((4, 0)),
    "complex": GOOD_FEATURES + 1j,
    "strings": [["a"] * D] * 4,
    "numeric strings": [["0.5"] * D] * 4,
    "10**400": [[0] * D] * 3 + [[0, 0, 10**400]],
}

# Entry points that take a feature table with good labels, and whether
# the table's width must be the head's.
FEATURE_DOORS = {
    "forward_batch": (True, lambda f: forward_batch(HEAD, f)),
    "loss_and_grad": (True, lambda f: loss_and_grad(HEAD, f, GOOD_LABELS)),
    "pretrain": (True, lambda f: pretrain(HEAD.copy(), f, GOOD_LABELS, PretrainSchedule(),
                                          seeded_rng(0, "pretrain"))),
    "ReplayStore": (False, lambda f: ReplayStore(f, GOOD_LABELS)),
    # The draw goes by the labels, one a row, and takes every row here.
    "subsample_pretraining": (False, lambda f: subsample_pretraining(
        f, GOOD_LABELS[:len(f)], len(f), seeded_rng(0, "replay"))),
    "save_feature_file": (False, lambda f: save_feature_file(
        os.devnull, f, range(1, 5), [0.0] * 4, GOOD_LABELS)),
}


# ``loss_and_grad`` takes one (d,) row as a batch of one.
@pytest.mark.parametrize("case, entry", [
    (case, entry) for case in BAD_FEATURES for entry in FEATURE_DOORS
    if (case, entry) != ("one row", "loss_and_grad")
])
def test_every_table_entry_point_refuses_bad_features_in_the_door_words(case, entry):
    head_width, call = FEATURE_DOORS[entry]
    features = BAD_FEATURES[case]
    want = refusal(lambda: check_features(features, D if head_width else None))
    assert refusal(lambda: call(features)) == want


@pytest.mark.parametrize("entry", ["forward_batch", "loss_and_grad", "pretrain"])
def test_a_head_entry_point_refuses_another_width(entry):
    _, call = FEATURE_DOORS[entry]
    assert refusal(lambda: call(np.zeros((4, D + 1)))) == (
        f"feature table must have shape (n, {D}), got (4, {D + 1})"
    )


# Label columns for a four-row table that break the labels rule.
BAD_LABELS = {
    "0.7": [0, 1, 0.7, 1],
    "2": [0, 1, 2, 1],
    "-1": [0, 1, -1, 1],
    "nan": [0, 1, float("nan"), 1],
    "string": [0, 1, "1", 1],
    "None": [0, 1, None, 1],
    "complex": [0, 1, 1 + 0j, 1],
    "2**70": [0, 1, 2**70, 1],
    "ragged": [0, 1, [0, 1], 1],
    "three": [0, 1, 1],
    "five": [0, 1, 1, 0, 1],
}

SCORES = [0.1, 0.9, 0.5, 0.7]
FRAMES = stream_of([StreamFrame(row, k + 1, k / 30) for k, row in enumerate(GOOD_FEATURES)])
# The three stream runners, each taking a stream and its ground truth.
RUNNERS = {
    "run_stream": lambda frames, y: Engine(HEAD, ReplayStore(GOOD_FEATURES, GOOD_LABELS),
                                           desk_params()).run_stream(frames, ground_truth=y),
    "run_baseline_frozen": lambda frames, y: run_baseline_frozen(HEAD, frames, ground_truth=y),
    "run_baseline_smoothed": lambda frames, y: run_baseline_smoothed(HEAD, frames, 0.9,
                                                                     ground_truth=y),
}
LABEL_DOORS = {
    "loss_and_grad": lambda y: loss_and_grad(HEAD, GOOD_FEATURES, y),
    "pretrain": lambda y: pretrain(HEAD.copy(), GOOD_FEATURES, y, PretrainSchedule(),
                                   seeded_rng(0, "pretrain")),
    "ReplayStore": lambda y: ReplayStore(GOOD_FEATURES, y),
    "subsample_pretraining": lambda y: subsample_pretraining(GOOD_FEATURES, y, 2,
                                                             seeded_rng(0, "replay")),
    "evaluate_frames": lambda y: evaluate_frames(SCORES, y),
    "fixed_threshold_metrics": lambda y: fixed_threshold_metrics(SCORES, y, 0.5),
    **{name: lambda y, run=run: run(FRAMES, y) for name, run in RUNNERS.items()},
}


@pytest.mark.parametrize("entry", LABEL_DOORS)
@pytest.mark.parametrize("case", BAD_LABELS)
def test_every_labeled_entry_point_refuses_bad_labels_in_the_door_words(entry, case):
    labels = BAD_LABELS[case]
    assert refusal(lambda: LABEL_DOORS[entry](labels)) == refusal(lambda: check_labels(labels, 4))


def test_the_door_words():
    assert refusal(lambda: check_features(np.zeros((2, 0)))) == (
        "feature table must have shape (n, d) with at least one column, got (2, 0)"
    )
    assert refusal(lambda: check_features(nan_at(0))) == "non-finite value in feature input"
    assert refusal(lambda: check_labels([0.5], 1)) == "labels must be 0 or 1"
    assert refusal(lambda: check_labels([0, 1], 3)) == "2 labels for 3 rows: want one label per row"


@pytest.mark.parametrize("labels", [[0, 1, 1], [0.0, 1.0, 1.0], [False, True, True],
                                    np.array([0, 1, 1], dtype=np.uint8), [[0], [1], [1]]],
                         ids=["ints", "floats", "bools", "uint8", "column"])
def test_the_labels_door_takes_any_real_0_or_1_and_gives_the_spoof_mask(labels):
    assert check_labels(labels, 3).tolist() == [False, True, True]


# ---------------------------------------------------------------------------
# Ground truth: the runners write it as 0/1, and the trace readers hold the
# ground truth and decision columns to the labels rule
# ---------------------------------------------------------------------------

STREAM = StreamFrames(np.random.default_rng(1).normal(size=(1100, D)), np.arange(1, 1101),
                      np.arange(1100) / 30)
TRUTH = [k // 300 % 2 for k in range(len(STREAM))]


@pytest.mark.parametrize("runner", RUNNERS)
def test_any_real_0_or_1_ground_truth_gives_the_same_trace_bytes(runner, tmp_path):
    """The ground truth crosses a block boundary of the fold."""
    run = RUNNERS[runner]
    write_trace_csv(tmp_path / "ints.csv", run(STREAM, TRUTH))
    want = (tmp_path / "ints.csv").read_bytes()
    for truth in ([bool(y) for y in TRUTH], [float(y) for y in TRUTH],
                  np.array(TRUTH, dtype=np.uint8), np.array(TRUTH, dtype=np.int64)):
        write_trace_csv(tmp_path / "other.csv", run(STREAM, truth))
        assert (tmp_path / "other.csv").read_bytes() == want


def trace_file(tmp_path, change: dict):
    """A frozen trace of FRAMES, written as CSV with the fields in
    ``change`` replaced in its third record."""
    trace = list(run_baseline_frozen(HEAD, FRAMES, ground_truth=GOOD_LABELS))
    trace[2] = trace[2]._replace(**change)
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    return path


@pytest.mark.parametrize("column, value", [("ground_truth", 7), ("decision", 5),
                                           ("ground_truth", -1), ("decision", 2**70)])
def test_the_trace_reader_refuses_a_label_other_than_0_or_1(tmp_path, column, value):
    path = trace_file(tmp_path, {column: value})
    assert refusal(lambda: read_trace_csv(path)) == f"{path}: {column}: labels must be 0 or 1"


def test_the_trace_reader_takes_an_unknown_ground_truth(tmp_path):
    trace = run_baseline_frozen(HEAD, FRAMES)
    assert [r.ground_truth for r in trace] == [None] * len(FRAMES)
    write_trace_csv(tmp_path / "trace.csv", trace)
    assert list(read_trace_csv(tmp_path / "trace.csv")) == list(trace)
    path = trace_file(tmp_path, {"ground_truth": None})
    assert [r.ground_truth for r in read_trace_csv(path)] == [0, 1, None, 1]


def test_the_features_door_hands_a_float64_matrix_back_as_it_is():
    assert check_features(GOOD_FEATURES, D) is GOOD_FEATURES
    empty = np.zeros((0, 5))
    assert check_features(empty) is empty


# ---------------------------------------------------------------------------
# One set of words: a source scan of the package
# ---------------------------------------------------------------------------

DOOR_WORDS = ("feature table must have shape", "non-finite value in feature input",
              "non-numeric value in feature input", "labels must be 0 or 1",
              "want one label per row")


@pytest.mark.parametrize("words", DOOR_WORDS)
def test_each_door_message_is_spelled_in_one_module(words):
    assert spelled_in(words) == ["head.py"]


def spells_2_to_the_63(tree: ast.AST) -> bool:
    """Whether ``tree`` computes ``2**63`` anywhere."""
    return any(
        isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
        and [getattr(side, "value", None) for side in (node.left, node.right)] == [2, 63]
        for node in ast.walk(tree)
    )


def test_the_int64_range_is_spelled_in_config_only():
    """Frame indices are int64: the bounds are ``config.FRAME_INDEX_MIN``
    and ``FRAME_INDEX_MAX``, and no other module spells them."""
    assert spells_2_to_the_63(ast.parse("x = range(-(2 ** 63), 2**63)"))
    assert not spells_2_to_the_63(ast.parse('"""Up to 2**63."""\nx = 2**64'))
    assert [path.name for path in SOURCES if spells_2_to_the_63(ast.parse(path.read_text()))] == [
        "config.py"
    ]
