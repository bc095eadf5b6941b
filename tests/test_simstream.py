"""Synthetic stream generator and the feature-file exchange format."""

import dataclasses
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oap.config import ClassLabel, from_mapping
from oap.errors import ConfigError, DataError
from oap.rng import seeded_rng
from oap.simstream import (
    FEATURE_ROWS_PER_WRITE,
    HELD_OUT_USER_BASE,
    SOURCE_SHIFT_SCALE,
    _class_mean,
    _user_offset,
    _read_lines,
    _read_table,
    GeneratorConfig,
    Segment,
    StreamFrame,
    StreamScenario,
    generate_pretraining_set,
    generate_stream,
    load_feature_file,
    parse_segments,
    save_feature_file,
    scenario_from_mapping,
)


CFG = GeneratorConfig(d=16, seed=5)


class TestPretrainingSet:
    def test_size_and_balance(self):
        feats, labels = generate_pretraining_set(CFG, n_users=20, frames_per_user=500)
        assert feats.shape == (10_000, 16)
        assert labels.sum() == 5_000

    def test_user_shift_zero_means_identical_users(self):
        cfg = GeneratorConfig(d=8, user_shift_scale=0.0, seed=1)
        feats, labels = generate_pretraining_set(cfg, n_users=4, frames_per_user=4000)
        live = feats[labels == 0]
        per_user_means = [b.mean(axis=0) for b in np.split(live, 4)]
        for mean in per_user_means[1:]:
            np.testing.assert_allclose(mean, per_user_means[0], atol=0.15)

    def test_deterministic(self):
        a = generate_pretraining_set(CFG, 5, 100)
        b = generate_pretraining_set(CFG, 5, 100)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_rejects_single_user(self):
        with pytest.raises(ConfigError):
            generate_pretraining_set(CFG, n_users=1, frames_per_user=10)

    def test_classes_are_separated_along_first_axis(self):
        feats, labels = generate_pretraining_set(CFG, 10, 1000)
        gap = feats[labels == 1][:, 0].mean() - feats[labels == 0][:, 0].mean()
        assert gap == pytest.approx(CFG.class_separation, abs=0.5)


OUT_OF_RANGE_CHANGES = [
    ({"d": 0}, "d out of range"),
    ({"noise_std": 0.0}, "noise_std out of range: 0.0"),
    ({"class_separation": -1.0}, "class_separation out of range: -1.0"),
    ({"drift_rate": float("nan")}, "drift_rate out of range: nan"),
    ({"drift_rate": float("-inf")}, "drift_rate out of range: -inf"),
    ({"user_shift_scale": float("inf")}, "user_shift_scale out of range: inf"),
    ({"class_separation": float("inf")}, "class_separation out of range: inf"),
    ({"noise_std": float("inf")}, "noise_std out of range: inf"),
    ({"noise_std": float("nan")}, "noise_std out of range: nan"),
    ({"seed": -1}, "seed out of range: -1"),
    ({"seed": 2**64}, "seed out of range: 18446744073709551616"),
]


@pytest.mark.parametrize("change,message", OUT_OF_RANGE_CHANGES)
@pytest.mark.parametrize("build", [
    lambda change: GeneratorConfig(**change),
    lambda change: dataclasses.replace(CFG, **change),
    lambda change: from_mapping(CFG, {key: str(value) for key, value in change.items()}),
], ids=["constructor", "replace", "from_mapping"])
def test_generator_config_checks_its_ranges_however_built(build, change, message):
    """A GeneratorConfig checks its ranges however it is built (the CLI
    builds one with ``from_mapping``), so neither generator is ever handed
    one that is out of range."""
    with pytest.raises(ConfigError, match=message):
        build(change)


@pytest.mark.parametrize("build", [
    lambda user_id: StreamScenario((Segment(ClassLabel.LIVE, 3),), user_id=user_id),
    lambda user_id: dataclasses.replace(StreamScenario((Segment(ClassLabel.LIVE, 3),)),
                                        user_id=user_id),
    lambda user_id: scenario_from_mapping({"segments": "live:3", "user_id": str(user_id)}),
], ids=["constructor", "replace", "from_mapping"])
@pytest.mark.parametrize("user_id", [-1, -999_997, -HELD_OUT_USER_BASE])
def test_scenario_refuses_a_negative_user_id(build, user_id):
    """A negative ``user_id`` would number the stream's user below
    ``HELD_OUT_USER_BASE``, among the pre-training users (-999997 is
    pre-training user 3), so it is refused however the scenario is built."""
    with pytest.raises(ConfigError, match=f"user_id out of range: {user_id} "):
        build(user_id)


def per_frame_stream(cfg, scenario):
    """The frame-at-a-time generator that ``generate_stream`` replaced: the
    reference for its bits, its frame types and its labels."""
    uid = HELD_OUT_USER_BASE + scenario.user_id
    offset = _user_offset(cfg, uid)
    drift_rng = seeded_rng(cfg.seed, f"drift-direction-{uid}")
    direction = drift_rng.standard_normal(cfg.d)
    direction /= np.linalg.norm(direction)
    noise_rng = seeded_rng(cfg.seed, f"stream-noise-{uid}")

    frames = []
    labels = np.empty(scenario.total_frames, dtype=np.int64)
    t = 0
    for seg in scenario.segments:
        source_rng = seeded_rng(cfg.seed, f"source-{int(seg.label)}-{seg.source_id}-{uid}")
        source_offset = (
            source_rng.standard_normal(cfg.d) * SOURCE_SHIFT_SCALE * cfg.noise_std
        )
        base = _class_mean(cfg, seg.label) + offset + source_offset
        noise = noise_rng.standard_normal((seg.duration_frames, cfg.d)) * cfg.noise_std
        for k in range(seg.duration_frames):
            time = t / scenario.frame_rate
            drift = direction * cfg.drift_rate * cfg.noise_std * time
            frames.append(StreamFrame(base + drift + noise[k], t + 1, time))
            labels[t] = int(seg.label)
            t += 1
    return frames, labels


@st.composite
def stream_setups(draw):
    """A generator config and a scenario of 1-4 segments of 1-400 frames."""
    cfg = GeneratorConfig(
        d=draw(st.integers(1, 64)),
        drift_rate=draw(st.sampled_from([0.0, 0.1, -5.0])),
        user_shift_scale=draw(st.sampled_from([0.0, 1.5])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    segments = draw(st.lists(
        st.builds(Segment, st.sampled_from(list(ClassLabel)), st.integers(1, 400),
                  st.integers(0, 5)),
        min_size=1, max_size=4,
    ))
    scenario = StreamScenario(
        tuple(segments),
        frame_rate=draw(st.sampled_from([30.0, 29.97, 1e-3, 1e6])),
        user_id=draw(st.integers(0, 10**6)),
    )
    return cfg, scenario


@settings(max_examples=150, deadline=None)
@given(setup=stream_setups())
def test_stream_matches_the_per_frame_generator(setup):
    """``generate_stream`` gives every frame the feature bits, the Python
    int index and the Python float time of the per-frame loop, and the same
    labels."""
    frames, labels = generate_stream(*setup)
    want_frames, want_labels = per_frame_stream(*setup)
    assert len(frames) == len(want_frames)
    assert np.stack([f.feature for f in frames]).tobytes() == (
        np.stack([f.feature for f in want_frames]).tobytes()
    )
    for got, want in zip(frames, want_frames):
        assert type(got.frame_index) is int and type(got.time) is float
        assert (got.frame_index, got.time) == (want.frame_index, want.time)
    assert labels.dtype == want_labels.dtype
    assert labels.tobytes() == want_labels.tobytes()


def test_stream_peak_memory_is_bounded_by_its_block():
    """No temporary is larger than one segment's block: a 20000-frame
    stream at d = 32 peaks well below 3.5 times its (n, d) feature block
    (about 2.1 times, counting the frame objects). The per-frame loop
    peaked at 3.0 and a whole-stream ``base + drift + noise`` at 4.1."""
    n, d = 20_000, 32
    scenario = StreamScenario((Segment(ClassLabel.LIVE, n),))
    tracemalloc.start()
    try:
        frames, _ = generate_stream(GeneratorConfig(d=d), scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(frames) == n
    assert peak < 3.5 * n * d * 8


class TestStream:
    def test_single_segment_timing(self):
        scenario = StreamScenario((Segment(ClassLabel.LIVE, 900),), frame_rate=30.0)
        frames, labels = generate_stream(CFG, scenario)
        assert len(frames) == 900
        assert frames[0].frame_index == 1 and frames[0].time == 0.0
        assert frames[-1].frame_index == 900
        assert frames[-1].time == pytest.approx(899 / 30.0)
        assert np.all(labels == ClassLabel.LIVE)

    def test_segment_boundaries(self):
        scenario = StreamScenario(
            (
                Segment(ClassLabel.LIVE, 300),
                Segment(ClassLabel.SPOOF, 300),
                Segment(ClassLabel.LIVE, 300, source_id=1),
            )
        )
        _, labels = generate_stream(CFG, scenario)
        assert labels[299] == 0 and labels[300] == 1  # boundary at frame 301
        assert labels[599] == 1 and labels[600] == 0  # boundary at frame 601

    def test_frames_carry_no_labels(self):
        scenario = StreamScenario((Segment(ClassLabel.SPOOF, 5),))
        frames, _ = generate_stream(CFG, scenario)
        assert set(frames[0]._fields) == {"feature", "frame_index", "time"}

    def test_no_shift_matches_pretraining_distribution(self):
        """With user shift and drift off, stream features come from the
        same clusters as pre-training data."""
        cfg = GeneratorConfig(d=8, user_shift_scale=0.0, drift_rate=0.0, seed=3)
        train_feats, train_labels = generate_pretraining_set(cfg, 10, 2000)
        scenario = StreamScenario((Segment(ClassLabel.SPOOF, 3000, source_id=0),))
        frames, _ = generate_stream(cfg, scenario)
        stream_mean = np.stack([f.feature for f in frames]).mean(axis=0)
        train_mean = train_feats[train_labels == 1].mean(axis=0)
        # source sub-offset is the only residual shift: 0.5 std units
        np.testing.assert_allclose(stream_mean, train_mean, atol=3 * 0.5 + 0.2)
        assert abs(stream_mean[0] - cfg.class_separation / 2) < 1.6

    def test_stationary_within_segment_when_drift_off(self):
        cfg = GeneratorConfig(d=8, drift_rate=0.0, seed=11)
        scenario = StreamScenario((Segment(ClassLabel.LIVE, 2000),))
        frames, _ = generate_stream(cfg, scenario)
        feats = np.stack([f.feature for f in frames])
        first, second = feats[:1000], feats[1000:]
        gap = abs(first[:, 0].mean() - second[:, 0].mean())
        assert gap < 3.0 * cfg.noise_std / np.sqrt(2000)

    def test_drift_moves_the_cluster(self):
        cfg = GeneratorConfig(d=8, drift_rate=0.5, seed=11)
        scenario = StreamScenario((Segment(ClassLabel.LIVE, 3000),), frame_rate=30.0)
        frames, _ = generate_stream(cfg, scenario)
        feats = np.stack([f.feature for f in frames])
        displacement = np.linalg.norm(feats[2500:].mean(axis=0) - feats[:500].mean(axis=0))
        assert displacement > 20.0  # ~83 s apart at 0.5 std/s

    def test_deterministic_and_pure(self):
        scenario = StreamScenario((Segment(ClassLabel.LIVE, 50),), user_id=3)
        a, _ = generate_stream(CFG, scenario)
        b, _ = generate_stream(CFG, scenario)
        np.testing.assert_array_equal(
            np.stack([f.feature for f in a]), np.stack([f.feature for f in b])
        )

    def test_distinct_sources_get_distinct_offsets(self):
        """Same class, different source ids: segments differ by their
        sub-offsets (two N(0, 0.5^2 I) draws, typical distance ~2 std)."""
        cfg = GeneratorConfig(d=8, drift_rate=0.0, seed=2)
        scenario = StreamScenario(
            (Segment(ClassLabel.SPOOF, 500, 0), Segment(ClassLabel.SPOOF, 500, 1))
        )
        frames, _ = generate_stream(cfg, scenario)
        feats = np.stack([f.feature for f in frames])
        gap = np.linalg.norm(feats[:500].mean(axis=0) - feats[500:].mean(axis=0))
        assert gap > 0.5

    def test_frames_are_rows_of_one_array(self):
        """Each frame's feature is a view of its own row: writing into one
        frame's feature changes that frame alone."""
        scenario = StreamScenario((Segment(ClassLabel.LIVE, 3), Segment(ClassLabel.SPOOF, 2)))
        frames, _ = generate_stream(CFG, scenario)
        before = np.stack([f.feature for f in frames])
        frames[2].feature[:] = 0.0
        after = np.stack([f.feature for f in frames])
        assert not after[2].any()
        np.testing.assert_array_equal(np.delete(after, 2, axis=0), np.delete(before, 2, axis=0))


def per_row_save(path, features, frame_indices, times, labels=None, frame_rate=30.0):
    """The row-at-a-time writer save_feature_file replaced: the reference
    for its bytes."""
    n, d = features.shape
    with open(path, "w") as fh:
        fh.write(f"oapf v1 d={d} labeled={int(labels is not None)} fps={frame_rate!r}\n")
        for i in range(n):
            cols = [str(int(frame_indices[i])), repr(float(times[i]))]
            if labels is not None:
                cols.append(str(int(labels[i])))
            cols.extend(repr(float(v)) for v in features[i])
            fh.write(",".join(cols) + "\n")


@pytest.mark.parametrize("n", [0, 1, FEATURE_ROWS_PER_WRITE - 1, FEATURE_ROWS_PER_WRITE,
                               FEATURE_ROWS_PER_WRITE + 1, 2 * FEATURE_ROWS_PER_WRITE + 1])
@pytest.mark.parametrize("labeled", [False, True])
def test_save_matches_the_per_row_writer(tmp_path, n, labeled):
    rng = np.random.default_rng(n)
    special = [0.0, -0.0, 5e-324, -2.5e-308, 1e300, -1e-300, 0.1, 1 / 3]
    features = rng.choice(special, size=(n, 3)) * rng.choice([1.0, -1.0], size=(n, 3))
    features[:, 0] = rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, size=n)
    frame_indices = list(range(7, 7 + n))  # a list, not an array
    times = np.arange(n) / 29.97
    labels = rng.integers(0, 2, size=n) if labeled else None
    save_feature_file(tmp_path / "new.oapf", features, frame_indices, times, labels, 29.97)
    per_row_save(tmp_path / "old.oapf", features, frame_indices, times, labels, 29.97)
    assert (tmp_path / "new.oapf").read_bytes() == (tmp_path / "old.oapf").read_bytes()
    data = load_feature_file(tmp_path / "new.oapf")
    assert data.features.tobytes() == features.tobytes()


class TestFeatureFiles:
    def round_trip(self, tmp_path, labeled):
        rng = np.random.default_rng(4)
        n, d = 1000, 7
        feats = rng.normal(size=(n, d))
        idx = np.arange(1, n + 1)
        times = idx / 30.0
        labels = rng.integers(0, 2, size=n) if labeled else None
        path = tmp_path / "stream.oapf"
        save_feature_file(path, feats, idx, times, labels=labels, frame_rate=30.0)
        return feats, idx, times, labels, load_feature_file(path)

    def test_round_trip_bit_exact_labeled(self, tmp_path):
        feats, idx, times, labels, data = self.round_trip(tmp_path, labeled=True)
        np.testing.assert_array_equal(data.features, feats)
        np.testing.assert_array_equal(data.frame_indices, idx)
        np.testing.assert_array_equal(data.times, times)
        np.testing.assert_array_equal(data.labels, labels)
        assert data.frame_rate == 30.0

    def test_round_trip_unlabeled(self, tmp_path):
        feats, _, _, _, data = self.round_trip(tmp_path, labeled=False)
        np.testing.assert_array_equal(data.features, feats)
        assert data.labels is None

    def test_mixed_dimension_row_named(self, tmp_path):
        path = tmp_path / "bad.oapf"
        path.write_text(
            "oapf v1 d=3 labeled=0 fps=30.0\n"
            "1,0.0,1.0,2.0,3.0\n"
            "2,0.033,1.0,2.0\n"
        )
        with pytest.raises(DataError, match=":3"):
            load_feature_file(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.oapf"
        path.write_text("featfile d=3\n")
        with pytest.raises(DataError, match="header"):
            load_feature_file(path)

    def test_non_finite_rejected_on_load(self, tmp_path):
        path = tmp_path / "bad.oapf"
        path.write_text("oapf v1 d=2 labeled=0 fps=30.0\n1,0.0,inf,1.0\n")
        with pytest.raises(DataError, match="non-finite"):
            load_feature_file(path)

    def test_save_wants_a_feature_column(self, tmp_path):
        with pytest.raises(DataError, match="at least one column"):
            save_feature_file(tmp_path / "s.oapf", np.zeros((3, 0)), [1, 2, 3], [0.0, 0.1, 0.2])

    @pytest.mark.parametrize("short", ["frame_indices", "times", "labels"])
    def test_save_wants_one_entry_per_row(self, tmp_path, short):
        columns = {"frame_indices": [1, 2, 3], "times": [0.0, 0.1, 0.2], "labels": [0, 1, 0]}
        columns[short] = columns[short][:2]
        with pytest.raises(DataError, match="3 entries"):
            save_feature_file(tmp_path / "s.oapf", np.zeros((3, 2)), **columns)

    def test_stream_columns_round_trip(self, tmp_path):
        frames, labels = generate_stream(
            CFG, StreamScenario((Segment(ClassLabel.LIVE, 40),))
        )
        path = tmp_path / "s.oapf"
        save_feature_file(path, frames.features, frames.frame_indices, frames.times,
                          labels=labels, frame_rate=30.0)
        data = load_feature_file(path)
        roundtrip = data.to_frames()
        assert len(roundtrip) == 40
        np.testing.assert_array_equal(roundtrip[7].feature, frames[7].feature)
        assert roundtrip[7].time == frames[7].time


HEADER = "oapf v1 d=2 labeled=1 fps=30.0"
GOOD_ROW = "1,0.0,0,0.5,-1.5"

# Each row: the data lines after the header, then the error's tail and the
# line it names (None for a file that loads). Line 1 is the header.
MALFORMED_FILES = {
    "short row": (["1,0.0,0,0.5"], "expected 5 columns, got 4", 2),
    "long row": ([GOOD_ROW, "2,0.1,0,0.5,1.0,2.0"], "expected 5 columns, got 6", 3),
    "bad index": (["x,0.0,0,0.5,1.0"], "unparseable value", 2),
    "float index": (["1.0,0.0,0,0.5,1.0"], "unparseable value", 2),
    "bad time": (["1,t,0,0.5,1.0"], "unparseable value", 2),
    "bad label": (["1,0.0,live,0.5,1.0"], "unparseable value", 2),
    "bad feature": ([GOOD_ROW, "2,0.1,1,0.5,abc"], "unparseable value", 3),
    "empty feature": (["1,0.0,0,,1.0"], "unparseable value", 2),
    "nan feature": (["1,0.0,0,nan,1.0"], "non-finite value in feature input", 2),
    "inf feature": ([GOOD_ROW, "2,0.1,0,0.5,-inf"], "non-finite value in feature input", 3),
    "overflowing feature": (["1,0.0,0,1e999,1.0"], "non-finite value in feature input", 2),
    "blank lines first": (["", "  ", GOOD_ROW, "", "2,0.1,0,0.5"], "expected 5 columns, got 4", 6),
    "non-finite before short row": (
        [GOOD_ROW, "2,0.1,1,inf,0.0", GOOD_ROW, "3,0.2"], "non-finite value in feature input", 3,
    ),
    "non-finite before bad cell": (
        [GOOD_ROW, "2,0.1,1,nan,0.0", "3,0.2,1,0.0,zz"], "non-finite value in feature input", 3,
    ),
    "bad cell before non-finite": (
        [GOOD_ROW, "2,0.1,1,0.0,zz", "3,0.2,1,nan,0.0"], "unparseable value", 3,
    ),
    "overflowing index": (
        [GOOD_ROW, "99999999999999999999,0.1,1,0.5,2.0"], "frame index out of range", 3,
    ),
    "index below int64": (["-9223372036854775809,0.0,0,0.5,1.0"], "frame index out of range", 2),
    "overflowing label": ([GOOD_ROW, "2,0.1,18446744073709551616,0.5,1.0"], "labels must be 0 or 1", 3),
    "overflowing index before short row": (
        [GOOD_ROW, "99999999999999999999,0.1,0,0.5,1.0", "3,0.2"], "frame index out of range", 3,
    ),
    "non-finite before overflowing index": (
        [GOOD_ROW, "2,0.1,1,inf,0.0", "99999999999999999999,0.2,0,0.5,1.0"],
        "non-finite value in feature input", 3,
    ),
    "overflowing index before non-finite": (
        ["99999999999999999999,0.1,0,0.5,1.0", "2,0.1,1,inf,0.0"], "frame index out of range", 2,
    ),
    "overflowing index on a bad line": (
        [GOOD_ROW, "99999999999999999999,t,0,0.5,1.0"], "unparseable value", 3,
    ),
    "label 7": ([GOOD_ROW, "2,0.1,7,0.5,1.0"], "labels must be 0 or 1", 3),
    "label -1": (["1,0.0,-1,0.5,1.0"], "labels must be 0 or 1", 2),
    "non-finite before label 2": (
        [GOOD_ROW, "2,0.1,1,inf,0.0", "3,0.2,2,0.5,1.0"], "non-finite value in feature input", 3,
    ),
    "label 7 before short row": (
        [GOOD_ROW, "2,0.1,7,0.5,1.0", "3,0.2"], "labels must be 0 or 1", 3,
    ),
    "label 7 before overflowing label": (
        ["1,0.0,7,0.5,1.0", "2,0.1,18446744073709551616,0.5,1.0"], "labels must be 0 or 1", 2,
    ),
}

# Header lines that do not load: an fps that is not finite and > 0, the
# rule StreamScenario applies to frame_rate, and a d below 1, the rule of
# load_head and GeneratorConfig, or above what numpy can shape as one
# float64 row.
MALFORMED_HEADERS = {
    "d zero": "oapf v1 d=0 labeled=1 fps=30.0",
    "d negative": "oapf v1 d=-2 labeled=1 fps=30.0",
    "d beyond int64": "oapf v1 d=9999999999999999999 labeled=1 fps=30.0",
    "d beyond a float64 row": f"oapf v1 d={2**60} labeled=1 fps=30.0",
    "fps zero": "oapf v1 d=2 labeled=1 fps=0.0",
    "fps negative": "oapf v1 d=2 labeled=1 fps=-5.0",
    "fps nan": "oapf v1 d=2 labeled=1 fps=nan",
    "fps inf": "oapf v1 d=2 labeled=1 fps=inf",
}


class TestMalformedFeatureFiles:
    """Every malformed row is a DataError naming the file and the first bad
    line, whatever kind of fault comes after it."""

    @pytest.mark.parametrize("lines,message,lineno", MALFORMED_FILES.values(),
                             ids=MALFORMED_FILES.keys())
    def test_first_bad_line_named(self, tmp_path, lines, message, lineno):
        path = tmp_path / "bad.oapf"
        path.write_text("\n".join([HEADER, *lines]) + "\n")
        with pytest.raises(DataError, match=re.escape(f"{path}:{lineno}: {message}")):
            load_feature_file(path)

    @pytest.mark.parametrize("header", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS.keys())
    def test_malformed_header_rejected(self, tmp_path, header):
        path = tmp_path / "bad.oapf"
        path.write_text(f"{header}\n{GOOD_ROW}\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: malformed header {header!r}")):
            load_feature_file(path)

    @pytest.mark.parametrize("where", ["header", "row"])
    def test_undecodable_bytes_rejected(self, tmp_path, where):
        """A byte that is not UTF-8 is a DataError naming the file."""
        path = tmp_path / "bad.oapf"
        lines = [HEADER.encode(), GOOD_ROW.encode()]
        lines[where == "row"] += b"\xff"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: not a text file")):
            load_feature_file(path)

    def test_bad_cell_before_undecodable_bytes_named(self, tmp_path):
        """A bad value on a line read before the undecodable bytes is still
        the fault reported."""
        path = tmp_path / "bad.oapf"
        path.write_bytes(f"{HEADER}\n1,0.0,0,nan,0.0\n".encode() + b"x" * 20000 + b"\xff\n")
        with pytest.raises(DataError, match=re.escape(f"{path}:2: non-finite value in feature input")):
            load_feature_file(path)

    @pytest.mark.parametrize("labeled", [0, 1])
    def test_header_only_file_is_empty(self, tmp_path, labeled):
        path = tmp_path / "empty.oapf"
        path.write_text(f"oapf v1 d=3 labeled={labeled} fps=25.0\n\n")
        data = load_feature_file(path)
        assert data.features.shape == (0, 3)
        assert data.features.dtype == np.float64
        assert data.frame_indices.shape == (0,) and data.times.shape == (0,)
        assert (data.labels is None) == (not labeled)
        assert data.to_frames() == []

    def test_rows_after_blank_lines_load(self, tmp_path):
        path = tmp_path / "gaps.oapf"
        path.write_text(f"{HEADER}\n\n{GOOD_ROW}\n\n  \n2,0.1,1,-0.0,4e-320\n")
        data = load_feature_file(path)
        np.testing.assert_array_equal(data.features, [[0.5, -1.5], [-0.0, 4e-320]])
        assert np.signbit(data.features[1, 0])
        np.testing.assert_array_equal(data.labels, [0, 1])
        np.testing.assert_array_equal(data.frame_indices, [1, 2])


# ---------------------------------------------------------------------------
# The numpy reader against the line loop
# ---------------------------------------------------------------------------

# What an edit puts in place of a byte or between two: separators, line
# breaks, float syntax, non-ASCII digits and whitespace (which float() and
# int() accept and numpy does not), and a byte that is not UTF-8.
EDIT_TOKENS = [
    *(s.encode() for s in (" ", "\t", "\r", "\r\n", "\n", ",", "_", "e", ".", "+", "-",
                           "nan", "inf", "٣", "\x0c", "\xa0")),
    b"\xff",
]


@st.composite
def edited_feature_files(draw) -> bytes:
    """A valid feature file (d 1-4, 0-6 rows, labeled or not) after 0-3
    edits, each inserting a token, deleting a byte or replacing one."""
    d = draw(st.integers(1, 4))
    labeled = draw(st.booleans())
    fps = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    floats = st.floats(allow_nan=False, allow_infinity=False)
    lines = [f"oapf v1 d={d} labeled={int(labeled)} fps={fps!r}"]
    for _ in range(draw(st.integers(0, 6))):
        cells = [draw(st.integers(-(2**63), 2**63 - 1)), draw(floats)]
        cells += [draw(st.integers(0, 1))] * labeled
        cells += draw(st.lists(floats, min_size=d, max_size=d))
        lines.append(",".join(map(repr, cells)))
    content = bytearray("\n".join(lines).encode() + b"\n")
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(content)))
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        token = b"" if kind == "delete" else draw(st.sampled_from(EDIT_TOKENS))
        content[at : at + (kind != "insert")] = token
    return bytes(content)


def read_outcome(read, path):
    """The text of the DataError ``read(path)`` raises, or the dtype, shape
    and bytes of each array it returns and the bits of its frame rate."""
    try:
        data = read(path)
    except DataError as exc:
        return str(exc)
    arrays = (data.features, data.labels, data.frame_indices, data.times)
    return [None if a is None else (a.dtype.str, a.shape, a.tobytes()) for a in arrays] + [
        struct.pack("<d", data.frame_rate)
    ]


@pytest.fixture(scope="module")
def feature_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("feature_files")


@settings(max_examples=300, deadline=None)
@given(content=edited_feature_files())
@example(content=f"{HEADER}\n".encode())  # an empty body
@example(content=f"{HEADER}\n  \n\t\n{GOOD_ROW}\n\x0c\n\xa0\n".encode())  # blank lines
@example(content=f"{HEADER}\r\n{GOOD_ROW}\r\n2,0.1,1,-0.0,4e-320\r\n".encode())  # CRLF
@example(content=f"{HEADER}\r{GOOD_ROW}\r2,0.1,1,-0.0,4e-320".encode())  # CR, no last break
@example(content=f"{HEADER}\n1,-nan,1,5e-324,-1e308\n".encode())  # a signed NaN time
@example(content=f"{HEADER}\n{GOOD_ROW}\n2,0.1,0,nan,1.0\n".encode())
@example(content=f"{HEADER}\n{GOOD_ROW}\n2,0.1,0,0.5,-1e999\n".encode())
@example(content=f"{HEADER}\n{GOOD_ROW}\n2,0.1,-1,0.5,1.0\n".encode())
@example(content=f"{HEADER}\n2,0.1,2,0.5,1.0\n".encode())
@example(content=f"{HEADER}\n9223372036854775808,0.1,1,0.5,1.0\n".encode())
@example(content=f"{HEADER}\n1_0,0.1,1,0.5,1.0\n".encode())
@example(content=f"{HEADER}\n1,0.1,1,٣.5,1.0\n".encode())
@example(content=f"{HEADER}\n{GOOD_ROW}\n".encode() + b"\xff\n")
@example(content=b"oapf v1 d=100000000 labeled=0 fps=30.0\n1,0.0,0.5\n")
def test_numpy_reader_matches_the_line_loop(feature_dir, content):
    """``load_feature_file`` gives the bits of ``_read_lines``, or the same
    DataError, for every file."""
    path = feature_dir / "edited.oapf"
    path.write_bytes(content)
    assert read_outcome(load_feature_file, path) == read_outcome(_read_lines, path)


@pytest.mark.parametrize("labeled", [False, True])
def test_written_files_take_the_numpy_pass(tmp_path, labeled):
    """What ``save_feature_file`` writes is read in the one numpy pass,
    without a copy of the features out of the record table."""
    feats = np.random.default_rng(1).normal(size=(5, 3))
    path = tmp_path / "s.oapf"
    save_feature_file(path, feats, range(1, 6), np.arange(5) / 30.0,
                      [0, 1, 1, 0, 1] if labeled else None)
    data = _read_table(path)
    assert data is not None and not data.features.flags.owndata
    assert data.features.tobytes() == feats.tobytes()


def test_large_header_d_over_a_short_row_allocates_nothing(tmp_path):
    """A header d that the first row does not have never sizes a table:
    the 51-byte file below is refused within a few MB."""
    path = tmp_path / "big.oapf"
    path.write_text("oapf v1 d=100000000 labeled=0 fps=30.0\n1,0.0,0.5\n")
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match=re.escape(f"{path}:2: expected 100000002 columns")):
            load_feature_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


class TestScenarioParsing:
    def test_basic_segments(self):
        segs = parse_segments("live:300,spoof:300,live:300")
        assert [int(s.label) for s in segs] == [0, 1, 0]
        assert [s.duration_frames for s in segs] == [300, 300, 300]
        assert [s.source_id for s in segs] == [0, 0, 1]  # per-class numbering

    def test_explicit_source(self):
        segs = parse_segments("spoof:100:7")
        assert segs[0].source_id == 7

    def test_zero_duration_rejected(self):
        with pytest.raises(ConfigError, match="duration"):
            parse_segments("live:0")

    def test_unknown_label_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_segments("ghost:10")

    def test_scenario_from_mapping(self):
        scenario = scenario_from_mapping(
            {"segments": "live:60,spoof:30", "frame_rate": "25", "user_id": "4"}
        )
        assert scenario.total_frames == 90
        assert scenario.frame_rate == 25.0
        assert scenario.user_id == 4

    def test_generator_from_mapping(self):
        cfg = from_mapping(GeneratorConfig(), {"d": "8", "drift_rate": "0.3", "other": "x"})
        assert cfg.d == 8
        assert cfg.drift_rate == 0.3
        assert cfg.class_separation == 4.0
