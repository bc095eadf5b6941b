"""``save_feature_file`` (v1 text) and ``save_labeled_set`` (v2 records)
write only what ``load_feature_file`` reads back with the same bits, a
broken v2 body is refused naming its first bad record, and the
pre-training users stay below the held-out ids."""

import math
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oap.simstream
from oap.config import FRAME_INDEX_MAX, FRAME_INDEX_MIN
from oap.errors import ConfigError, DataError
from oap.simstream import (
    FEATURE_ROWS_PER_WRITE,
    HELD_OUT_USER_BASE,
    GeneratorConfig,
    _save,
    generate_pretraining_set,
    load_feature_file,
    save_feature_file,
    save_labeled_set,
)

FEATURES = np.arange(6.0).reshape(3, 2)
GOOD = {"frame_indices": [1, 2, 3], "times": [0.0, 0.1, 0.2], "labels": [0, 1, 0]}


@pytest.mark.parametrize("column, value, message", [
    ("labels", 0.5, "label out of range at row 2: 0.5 (want 0 or 1)"),
    ("labels", 2, "label out of range at row 2: 2 (want 0 or 1)"),
    ("labels", "1", "label out of range at row 2: '1'"),
    ("frame_indices", 1.7, "frame index out of range at row 2: 1.7 (want an int64 integer)"),
    ("frame_indices", 2**64, f"frame index out of range at row 2: {2**64}"),
    ("frame_indices", -(2**63) - 1, f"frame index out of range at row 2: {-(2**63) - 1}"),
    ("frame_indices", math.nan, "frame index out of range at row 2: nan"),
    ("times", math.nan, "frame time out of range at row 2: nan (want a finite float)"),
    ("times", -math.inf, "frame time out of range at row 2: -inf"),
    ("times", None, "frame time out of range at row 2: None"),
])
def test_save_refuses_what_load_refuses_writing_nothing(tmp_path, column, value, message):
    """A label 0.5 was written as 0 and a frame index 1.7 as 1; a label 2 or
    a frame index 2**64 was written to a file whose load fails. Each is
    refused, naming its row, before the file is opened."""
    columns = {name: list(cells) for name, cells in GOOD.items()}
    columns[column][1] = value
    path = tmp_path / "s.oapf"
    with pytest.raises(DataError, match=message.replace("(", r"\(").replace(")", r"\)")):
        save_feature_file(path, FEATURES, **columns)
    assert not path.exists()


@pytest.mark.parametrize("frame_rate", [0.0, -30.0, math.inf, math.nan, "fast"])
def test_save_refuses_a_frame_rate_load_refuses(tmp_path, frame_rate):
    path = tmp_path / "s.oapf"
    with pytest.raises(DataError, match="frame rate out of range"):
        save_feature_file(path, FEATURES, **GOOD, frame_rate=frame_rate)
    assert not path.exists()


@pytest.mark.parametrize("frame_rate, want", [
    (0.0, "a finite frame_rate > 0"), (10**400, "a finite frame_rate > 0"),
    ("30", "a real number"), (True, "a real number"),
])
def test_save_words_a_bad_frame_rate_as_the_frame_rate_rule(tmp_path, frame_rate, want):
    """A rate too large for a float was an OverflowError, and a numeric
    string was written; both are refused, in ``FRAME_RATE_RULE``'s words."""
    path = tmp_path / "s.oapf"
    words = f"frame rate out of range: {frame_rate!r} (want {want})"
    with pytest.raises(DataError, match=re.escape(words)):
        save_feature_file(path, FEATURES, **GOOD, frame_rate=frame_rate)
    assert not path.exists()


@pytest.mark.parametrize("header, words", [
    ("oapf v1 d=0 labeled=1 fps=30.0", "d out of range: 0 (want d >= 1)"),
    (f"oapf v1 d={2**60} labeled=1 fps=30.0", f"d out of range: {2**60} (want d <= {2**60 - 1})"),
    ("oapf v1 d=2 labeled=1 fps=-5.0", "fps out of range: -5.0 (want a finite frame_rate > 0)"),
    ("oapf v1 d=2 labeled=1 fps=inf", "fps out of range: inf (want a finite frame_rate > 0)"),
])
def test_a_header_d_or_fps_is_worded_as_its_rule(tmp_path, header, words):
    path = tmp_path / "bad.oapf"
    path.write_text(f"{header}\n")
    with pytest.raises(DataError, match=re.escape(f"{path}: malformed header {header!r}: {words}")):
        load_feature_file(path)


def test_save_writes_a_numpy_frame_rate_as_a_float(tmp_path):
    """An ``np.float64`` rate was written by its repr, ``np.float64(25.0)``,
    which no load reads."""
    path = tmp_path / "s.oapf"
    save_feature_file(path, FEATURES, **GOOD, frame_rate=np.float64(25.0))
    assert load_feature_file(path).frame_rate == 25.0


def test_save_takes_whole_floats_and_numpy_cells(tmp_path):
    path = tmp_path / "s.oapf"
    save_feature_file(path, FEATURES, np.array([1.0, 2.0, 2.0**62]), np.array([0, 1, 2]),
                      np.array([True, False, True]))
    data = load_feature_file(path)
    assert data.frame_indices.tolist() == [1, 2, 2**62]
    assert data.times.tolist() == [0.0, 1.0, 2.0]
    assert data.labels.tolist() == [1, 0, 1]


def bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


# Per column: cells save must take, and odd cells, some of which it must refuse.
CELLS = {
    "features": (st.floats(allow_nan=False, allow_infinity=False),
                 st.sampled_from([math.nan, math.inf, -0.0, 5e-324])),
    "indices": (st.one_of(st.integers(-(2**63), 2**63 - 1),
                          st.integers(-(2**53), 2**53).map(float)),
                st.sampled_from([1.7, -0.0, 2**63, -(2**63) - 1, 2**64, 2.0**63, math.nan])),
    "times": (st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.integers(-(2**53), 2**53)),
              st.sampled_from([math.nan, -math.nan, math.inf, -0.0, 2**60 + 1, 2**1024])),
    "labels": (st.sampled_from([0, 1, 0.0, 1.0, True, False, np.int64(1)]),
               st.sampled_from([0.5, 2, -1, math.nan, "1", -0.0])),
}
rates = st.one_of(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                  st.sampled_from([0.0, -1.0, math.nan, math.inf, np.float64(25.0)]))


def drawn_column(data, name, n):
    """``n`` cells save takes, one of them swapped for an odd cell one
    time in three."""
    valid, odd = CELLS[name]
    cells = data.draw(st.lists(valid, min_size=n, max_size=n))
    if n and data.draw(st.integers(0, 2)) == 0:
        cells[data.draw(st.integers(0, n - 1))] = data.draw(odd)
    return cells


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 6), d=st.integers(1, 4), rate=rates,
       labeled=st.booleans())
def test_what_save_accepts_loads_back_bit_equal(data, n, d, rate, labeled):
    """Whatever ``save_feature_file`` writes, ``load_feature_file`` reads
    back with the bits it was given: the features, the times and the rate
    as float64, the frame indices and labels as the same integers."""
    features = np.array(drawn_column(data, "features", n * d), dtype=np.float64).reshape(n, d)
    indices = drawn_column(data, "indices", n)
    times = drawn_column(data, "times", n)
    labels = drawn_column(data, "labels", n) if labeled else None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.oapf"
        try:
            save_feature_file(path, features, indices, times, labels, frame_rate=rate)
        except DataError:
            assert not path.exists()
            return
        loaded = load_feature_file(path)
    assert loaded.features.tobytes() == features.tobytes()
    assert loaded.frame_indices.tolist() == indices
    assert loaded.times.tobytes() == bits(times)
    if labeled:
        assert loaded.labels.tolist() == labels
    else:
        assert loaded.labels is None
    assert bits(loaded.frame_rate) == bits(rate)


# float64 cells at the edges: signed zeros, subnormals and the largest finite values.
EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.1125369292536007e-308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
)
EDGE_INDICES = st.one_of(st.integers(FRAME_INDEX_MIN, FRAME_INDEX_MAX),
                         st.sampled_from([FRAME_INDEX_MIN, FRAME_INDEX_MAX]))


def int_bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64).tolist()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(0, 50), d=st.integers(1, 6), labeled=st.booleans(),
       rate=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
def test_both_versions_load_back_bit_equal(data, n, d, labeled, rate):
    """A table written as v1 text and as v2 records loads back from each
    with the bits it was given, so the two loads are equal too."""
    features = np.array(data.draw(st.lists(EDGE_FLOATS, min_size=n * d, max_size=n * d)),
                        dtype=np.float64).reshape(n, d)
    indices = data.draw(st.lists(EDGE_INDICES, min_size=n, max_size=n))
    times = data.draw(st.lists(EDGE_FLOATS, min_size=n, max_size=n))
    labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)) if labeled else None
    with tempfile.TemporaryDirectory() as tmp:
        text, records = Path(tmp) / "v1.oapf", Path(tmp) / "v2.oapf"
        save_feature_file(text, features, indices, times, labels, frame_rate=rate)
        _save(records, "v2", features, indices, times, labels, rate)
        assert text.read_bytes().startswith(b"oapf v1 ")
        assert records.read_bytes().startswith(b"oapf v2 ")
        loads = [load_feature_file(text), load_feature_file(records)]
    columns = [(int_bits(load.features), load.frame_indices.tolist(), int_bits(load.times),
                None if load.labels is None else load.labels.tolist(),
                struct.pack("<d", load.frame_rate)) for load in loads]
    want = (int_bits(features), indices, int_bits(times), labels, struct.pack("<d", rate))
    assert columns == [want, want]


def test_a_labeled_set_is_records_viewed_in_place(tmp_path):
    """``save_labeled_set`` writes the header line and one packed record per
    row; the load views them in a writable buffer, without a copy."""
    path = tmp_path / "set.oapf"
    save_labeled_set(path, FEATURES, [0, 1, 0], frame_rate=25.0)
    body = path.read_bytes().split(b"\n", 1)[1]
    assert path.read_bytes().startswith(b"oapf v2 d=2 labeled=1 fps=25.0\n")
    assert len(body) == 3 * 5 * 8
    data = load_feature_file(path)
    assert data.features.tobytes() == FEATURES.tobytes()
    assert data.frame_indices.tolist() == [1, 2, 3]
    assert data.times.tolist() == [0.0, 1 / 25.0, 2 / 25.0]
    assert data.labels.tolist() == [0, 1, 0]
    assert not data.features.flags.owndata and data.features.flags.writeable
    assert data.features.strides == (5 * 8, 8)


@pytest.mark.parametrize("n", [0, 1, FEATURE_ROWS_PER_WRITE - 1, FEATURE_ROWS_PER_WRITE,
                               FEATURE_ROWS_PER_WRITE + 1, 2 * FEATURE_ROWS_PER_WRITE + 1])
@pytest.mark.parametrize("labeled", [False, True])
def test_a_v2_save_in_blocks_writes_the_whole_table(tmp_path, n, labeled):
    """Records written a block at a time are the bytes of the whole record
    table, at every block boundary."""
    rng = np.random.default_rng(n)
    features = rng.normal(size=(n, 3))
    indices, times = list(range(-5, n - 5)), np.arange(n) / 7.0
    labels = rng.integers(0, 2, size=n) if labeled else None
    path = tmp_path / "set.oapf"
    _save(path, "v2", features, indices, times, labels, 7.0)
    dtype = oap.simstream._record_dtype(path, 3, labeled)
    table = np.rec.fromarrays([indices, times, *[labels] * labeled, features], dtype)
    header = f"oapf v2 d=3 labeled={int(labeled)} fps=7.0\n".encode()
    assert path.read_bytes() == header + table.tobytes()


def cell(value, fmt="<d") -> bytes:
    return struct.pack(fmt, value)


def record(index, label, *features) -> bytes:
    return cell(index, "<q") + cell(0.0) + cell(label, "<q") + b"".join(map(cell, features))


V2_HEADER = b"oapf v2 d=2 labeled=1 fps=30.0\n"
GOOD_RECORD = record(1, 0, 0.5, -1.5)

# Each: the body after V2_HEADER, then the error's tail.
BROKEN_BODIES = {
    "cut by one byte": (GOOD_RECORD * 2 + GOOD_RECORD[:-1], "record 3: only 39 of its 40 bytes"),
    "one extra byte": (GOOD_RECORD * 2 + b"\0", "record 3: only 1 of its 40 bytes"),
    "nan feature": (GOOD_RECORD + record(2, 1, 0.5, math.nan),
                    "record 2: non-finite value in feature input"),
    "inf feature": (record(1, 1, math.inf, 0.0), "record 1: non-finite value in feature input"),
    "label 2": (GOOD_RECORD * 2 + record(3, 2, 0.5, 1.0), "record 3: labels must be 0 or 1"),
    "label -1 before a nan": (record(1, -1, 0.5, 1.0) + record(2, 0, math.nan, 1.0),
                              "record 1: labels must be 0 or 1"),
}


@pytest.mark.parametrize("body, words", BROKEN_BODIES.values(), ids=BROKEN_BODIES.keys())
def test_a_broken_v2_body_names_its_first_bad_record(tmp_path, body, words):
    path = tmp_path / "bad.oapf"
    path.write_bytes(V2_HEADER + body)
    with pytest.raises(DataError, match=re.escape(f"{path}: {words}")):
        load_feature_file(path)


def test_a_v2_header_d_beyond_any_record_is_refused(tmp_path):
    """numpy makes no record of 2 GiB or more: such a ``d`` is a DataError,
    not numpy's ValueError."""
    path = tmp_path / "wide.oapf"
    path.write_bytes(f"oapf v2 d={2**40} labeled=0 fps=30.0\n".encode())
    with pytest.raises(DataError, match=re.escape(f"{path}: no record holds d={2**40} features")):
        load_feature_file(path)


@pytest.mark.parametrize("labels", [[], None])
def test_a_v2_save_of_a_width_beyond_any_record_is_refused(tmp_path, labels):
    """The save holds ``d`` to the record the load would make, and writes nothing."""
    path = tmp_path / "wide.oapf"
    with pytest.raises(DataError, match=re.escape(f"{path}: no record holds d={2**28} features")):
        _save(path, "v2", np.zeros((0, 2**28)), [], [], labels, 30.0)
    with pytest.raises(DataError, match=re.escape(f"{path}: no record holds d={2**28} features")):
        save_labeled_set(path, np.zeros((0, 2**28)), [])
    assert not path.exists()


@pytest.mark.parametrize("labels", [[], None])
def test_a_v1_table_wider_than_any_record_round_trips(tmp_path, labels):
    """v1 text needs no record, so an empty table of 2**28 columns saves
    and loads back, as a header-only file."""
    path = tmp_path / "wide.oapf"
    save_feature_file(path, np.zeros((0, 2**28)), [], [], labels, frame_rate=25.0)
    labeled = int(labels is not None)
    assert path.read_bytes() == f"oapf v1 d={2**28} labeled={labeled} fps=25.0\n".encode()
    data = load_feature_file(path)
    assert data.features.shape == (0, 2**28) and data.features.dtype == np.float64
    assert data.frame_indices.tolist() == [] and data.times.tolist() == []
    assert data.labels is None if labels is None else data.labels.tolist() == []
    assert data.frame_rate == 25.0


def test_an_unlabeled_v2_file_loads_without_labels(tmp_path):
    path = tmp_path / "unlabeled.oapf"
    _save(path, "v2", FEATURES, [5, 6, 7], [0.0, 0.5, 1.0], None, 2.0)
    data = load_feature_file(path)
    assert data.labels is None
    assert data.frame_indices.tolist() == [5, 6, 7]
    assert data.features.tobytes() == FEATURES.tobytes()


def test_pretraining_users_stay_below_the_held_out_ids(monkeypatch):
    """Pre-training user HELD_OUT_USER_BASE would draw held-out user 0's
    offset, so one user more than HELD_OUT_USER_BASE is refused before any
    draw, and HELD_OUT_USER_BASE users get as far as the first draw."""

    class Drawn(Exception):
        pass

    def no_draws(*args):
        raise Drawn

    monkeypatch.setattr(oap.simstream, "seeded_rng", no_draws)
    with pytest.raises(ConfigError, match=f"n_users out of range: {HELD_OUT_USER_BASE + 1} "):
        generate_pretraining_set(GeneratorConfig(), HELD_OUT_USER_BASE + 1, 2)
    with pytest.raises(Drawn):
        generate_pretraining_set(GeneratorConfig(), HELD_OUT_USER_BASE, 2)


@pytest.mark.parametrize("features", [[["a", "b"]], np.array([[1 + 5j, 0j]])],
                         ids=["string", "complex"])
def test_save_refuses_features_that_are_not_real_numbers(tmp_path, features):
    """A string feature escaped as a ValueError, and a complex one was
    written without its imaginary part."""
    path = tmp_path / "s.oapf"
    with pytest.raises(DataError, match="non-numeric value in feature input"):
        save_feature_file(path, features, [1], [0.0])
    assert not path.exists()
