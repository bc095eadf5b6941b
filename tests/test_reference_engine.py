"""``Engine`` against ``oracles.ReferenceEngine``, the adaptation loop
written plainly: over drawn widths, streams and settings, both give every
trace record, the final head, the Adam moments and the sampler's RNG state
bit for bit."""

import math
import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oap.engine import Engine
from oap.head import HIDDEN_UNITS, ClassifierHead, forward
from oap.memory import ReplayStore
from oap.presets import desk_params
from oap.simstream import StreamFrames

from oracles import ReferenceEngine

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
# Time steps between frames: a steady stream at 30 fps that repeats a time
# now and then, which fills the buffer up to the horizon, or one with gaps
# up to and past the shorter horizon.
TIME_STEPS = {"steady": [1 / 30] * 9 + [0.0], "gappy": [0.0, 1 / 30, 0.25, 0.5, 1.0]}


def pass_through_head(d, seed):
    """A random head whose first two hidden units pass feature 0 through
    to the logit: ``w1[0]`` is (1, -1, 0, ...), ``w2[:2]`` is (1, -1) and
    the biases are 0, so a feature (z, 0, ..., 0) has the logit z exactly,
    until the first update moves the head."""
    rng = np.random.default_rng(seed)
    w1 = rng.normal(0.0, 1.0 / math.sqrt(d), size=(d, HIDDEN_UNITS))
    w1[0] = 0.0
    w1[0, :2] = (1.0, -1.0)
    w2 = rng.normal(0.0, 1.0 / math.sqrt(HIDDEN_UNITS), size=HIDDEN_UNITS)
    w2[:2] = (1.0, -1.0)
    return ClassifierHead(w1, np.zeros(HIDDEN_UNITS), w2, np.zeros(1))


def row_scoring(head, y):
    """A feature (z, 0, ..., 0) that ``head``, a pass-through head, scores
    exactly ``y``, searched from the exact logit a float step at a time."""
    up = down = math.log(y / (1.0 - y))
    for _ in range(400):
        for z in (up, down):
            row = np.zeros(head.d)
            row[0] = z
            if forward(head, row) == y:
                return row
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
    raise AssertionError(f"no logit scores {y!r} exactly")


def record_bits(record):
    """A record with each float as its bytes, so NaN and -0.0 compare too."""
    return tuple(struct.pack("<d", v) if type(v) is float else (type(v), v) for v in record)


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(1, 8),
    n=st.integers(1, 400),
    base=st.sampled_from(["zero", "int64 min", "int64 max"]),
    margin=st.sampled_from([0.01, 0.2, 0.5]),
    window=st.integers(1, 31),
    finetune_freq=st.sampled_from([1.0, math.nextafter(1.0, 0.0), 0.37, 0.05]),
    iterations=st.integers(1, 3),
    online_prob=st.sampled_from([0.0, 0.5, 1.0]),
    replay_size=st.sampled_from([0, 1, 7, 40]),
    learning_rate=st.sampled_from([1.5e-5, 0.05, 1e300]),
    weight_decay=st.sampled_from([0.0, 1e-3]),
    horizon=st.sampled_from([0.5, 4.0]),
    pace=st.sampled_from(sorted(TIME_STEPS)),
    seed=st.integers(0, 2**16),
)
# Next to the top of the int64 range: scores exactly on the thresholds,
# and three-iteration events whose later update is rejected, so each one
# rolls back whole.
@example(d=2, n=60, base="int64 max", margin=0.2, window=5, finetune_freq=0.37, iterations=3,
         online_prob=0.5, replay_size=7, learning_rate=1e300, weight_decay=0.0, horizon=4.0,
         pace="steady", seed=1)
def test_engine_matches_the_reference_engine(d, n, base, margin, window, finetune_freq,
                                             iterations, online_prob, replay_size, learning_rate,
                                             weight_decay, horizon, pace, seed):
    rng = np.random.default_rng(seed)
    head = pass_through_head(d, seed)
    features = rng.normal(0.0, 2.0, size=(n, d))
    # About one frame in four scores exactly a threshold or 1/2.
    on_threshold = [row_scoring(head, y) for y in (margin, 1.0 - margin, 0.5)]
    for k in np.flatnonzero(rng.random(n) < 0.25):
        features[k] = on_threshold[rng.integers(3)]
    offsets = np.cumsum(rng.integers(1, 4, size=n)) - 1
    start = {"zero": 0, "int64 min": INT64_MIN, "int64 max": INT64_MAX - int(offsets[-1])}[base]
    indices = np.array([start + int(k) for k in offsets], dtype=np.int64)
    times = np.cumsum(rng.choice(TIME_STEPS[pace], size=n))
    replay = ReplayStore(rng.normal(size=(replay_size, d)), rng.integers(0, 2, size=replay_size))
    params = desk_params(seed, margin=margin, window=window, finetune_freq=finetune_freq,
                         iterations_per_call=iterations, online_prob=online_prob,
                         learning_rate=learning_rate, weight_decay=weight_decay,
                         eviction_horizon=horizon)

    engine, reference = Engine(head, replay, params), ReferenceEngine(head, replay, params)
    with np.errstate(all="ignore"):  # a huge learning rate overflows, and the update is rejected
        trace = engine.run_stream(StreamFrames(features, indices, times))
        expected = reference.run_stream(StreamFrames(features, indices, times))
    assert list(map(record_bits, trace)) == list(map(record_bits, expected))
    assert engine.head.flat.tobytes() == reference.head.flat.tobytes()
    assert engine.adam.m_flat.tobytes() == reference.m.tobytes()
    assert engine.adam.v_flat.tobytes() == reference.v.tobytes()
    assert engine.adam.step_count == reference.step_count
    assert engine.rng.bit_generator.state == reference.rng.bit_generator.state
