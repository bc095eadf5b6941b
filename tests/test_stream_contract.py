"""The stream contract has one scalar door, ``memory.check_frame``, behind
``Engine.process_frame`` and ``OnlineBuffer.insert``, and one block door,
``memory.first_bad_frame``, behind the CLI: the block door refuses the
frame the scalar doors refuse first, in the same words, and the words are
spelled in one module only."""

import ast
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oap.config import PseudoLabel
from oap.engine import Engine
from oap.errors import DataError
from oap.head import init_head
from oap.memory import OnlineBuffer, ReplayStore, first_bad_frame
from oap.presets import desk_params

from oracles import message_texts, spelled_in

D = 2
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
HEAD = init_head(D, np.random.default_rng(0))
EMPTY_REPLAY = ReplayStore(np.zeros((0, D)), np.zeros(0, dtype=np.int64))
FAULTS = ("nan time", "inf time", "repeated index", "index going back", "time going back")


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
