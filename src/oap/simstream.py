"""Synthetic drift-stream lab and the feature-file exchange format: an
``oapf`` header line, then a v1 text body (streams, one record a line) or
a v2 binary body (labeled sets, packed records that load without a parse).

The generator is a Gaussian cluster model with three separately
controllable shift sources: a per-user random offset (new user), small
per-source sub-offsets within a class (distinct attack recordings), and a
slow linear drift of the cluster means over wall time (changing lighting,
pose, expression). Live and spoof clusters sit ``class_separation``
within-cluster standard deviations apart along the first feature axis.

Streams are generated for held-out users whose identities live in a
disjoint id range from the pre-training users, so train/test user
disjointness is structural rather than conventional. Hidden ground-truth
labels are returned on a separate channel from the frames: the engine's
input type carries no label field, only the evaluation harness sees them.

``GeneratorConfig``, ``Segment`` and ``StreamScenario`` check their own
ranges when built, so the generators take them as given.
"""

from __future__ import annotations

import math
import operator
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import FRAME_INDEX_MAX, FRAME_INDEX_MIN, FRAME_RATE_RULE, SEED_RULE, ClassLabel
from .config import check_ranges, check_value, from_mapping, open_text
from .errors import ConfigError, DataError
from .head import WIDTH_RULE, check_features, check_labels
from .rng import seeded_rng

# Held-out stream users are offset into their own id range so they can
# never collide with pre-training user ids.
HELD_OUT_USER_BASE = 1_000_000

# Per-source sub-offset magnitude, in units of within-cluster std.
SOURCE_SHIFT_SCALE = 0.5

# Pre-training users are numbered 0 .. n_users - 1, below the held-out ids.
N_USERS_RULE = (lambda v: 2 <= v <= HELD_OUT_USER_BASE, f"2 <= n_users <= {HELD_OUT_USER_BASE}")


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the synthetic feature distribution. All shift magnitudes
    are measured in units of the within-cluster standard deviation."""

    d: int = 32
    class_separation: float = 4.0
    user_shift_scale: float = 1.5
    drift_rate: float = 0.1
    noise_std: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_ranges(self, (
            ("d", *WIDTH_RULE),
            ("class_separation", lambda v: math.isfinite(v) and v > 0,
             "a finite class_separation > 0"),
            ("noise_std", lambda v: math.isfinite(v) and v > 0, "a finite noise_std > 0"),
            ("user_shift_scale", math.isfinite, "a finite user_shift_scale"),
            ("drift_rate", math.isfinite, "a finite drift_rate"),
            ("seed", *SEED_RULE),
        ))


@dataclass(frozen=True)
class Segment:
    label: ClassLabel
    duration_frames: int
    source_id: int = 0

    def __post_init__(self) -> None:  # a segment is written in the ``segments`` entry
        check_value("segments", self.label, (lambda v: v.__class__ is ClassLabel, "a ClassLabel"))
        check_value("segments", self.duration_frames, int, (lambda v: v >= 1, "durations >= 1"))
        check_value("segments", self.source_id, int)


@dataclass(frozen=True)
class StreamScenario:
    """A timed sequence of single-class segments. One segment is the
    single-video regime; several interleaved segments form the continual
    regime. ``user_id`` is at least 0, so the stream's user
    (``HELD_OUT_USER_BASE + user_id``) stays in the held-out id range."""

    segments: tuple[Segment, ...]
    frame_rate: float = 30.0
    user_id: int = 0

    def __post_init__(self) -> None:
        check_ranges(self, (
            ("segments", bool, "at least one segment"),
            ("frame_rate", *FRAME_RATE_RULE),
            ("user_id", lambda v: v >= 0, "user_id >= 0"),
        ))

    @property
    def total_frames(self) -> int:
        return sum(s.duration_frames for s in self.segments)


class StreamFrame(NamedTuple):
    """What the engine is allowed to see: a feature vector and its timing.
    No label field, by construction."""

    feature: np.ndarray
    frame_index: int
    time: float


# Frames made per step of iterating a ``StreamFrames``: the Python ints and
# floats of one step stay the same size, whatever the stream's length.
FRAMES_PER_READ = 1024


class StreamFrames(Sequence):
    """A read-only sequence of ``StreamFrame`` over three columns of one
    length: an (n, d) float64 ``features`` array, an int64
    ``frame_indices`` column and a float64 ``times`` column.

    Each frame is made when it is read, as a list of frames would hold it:
    its feature is a view of its row (a write through it lands in
    ``features``), its index a Python int and its time a Python float.
    ``[i]`` takes a negative ``i`` too and raises IndexError out of range;
    a slice is a ``StreamFrames`` over views of the columns. A held stream
    costs its columns alone, where a list of frames costs about 300 bytes
    a frame more. It equals a list or a ``StreamFrames`` of equal frames."""

    __slots__ = ("features", "frame_indices", "times")

    def __init__(self, features: np.ndarray, frame_indices: np.ndarray, times: np.ndarray):
        if not len(features) == len(frame_indices) == len(times):
            raise DataError("features, frame indices and times must have one length")
        self.features, self.frame_indices, self.times = features, frame_indices, times

    def __len__(self) -> int:
        return len(self.frame_indices)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return StreamFrames(self.features[i], self.frame_indices[i], self.times[i])
        i = operator.index(i)
        return StreamFrame(self.features[i], self.frame_indices.item(i), self.times.item(i))

    def __iter__(self):
        return chain.from_iterable(map(self._read, range(0, len(self), FRAMES_PER_READ)))

    def _read(self, start: int):
        """The frames of rows ``start`` up to FRAMES_PER_READ more, made as
        they are iterated. ``tuple.__new__`` builds each as the NamedTuple's
        own ``__new__`` does, without that Python-level call."""
        rows = slice(start, start + FRAMES_PER_READ)
        indices, times = self.frame_indices[rows].tolist(), self.times[rows].tolist()
        return map(tuple.__new__, repeat(StreamFrame), zip(self.features[rows], indices, times))

    def __eq__(self, other):
        if isinstance(other, (list, StreamFrames)):
            return list(self) == list(other)
        return NotImplemented


def _user_offset(cfg: GeneratorConfig, user_id: int) -> np.ndarray:
    rng = seeded_rng(cfg.seed, f"user-offset-{user_id}")
    return rng.standard_normal(cfg.d) * cfg.user_shift_scale * cfg.noise_std


def _class_mean(cfg: GeneratorConfig, label: ClassLabel) -> np.ndarray:
    mean = np.zeros(cfg.d)
    sign = 1.0 if label == ClassLabel.SPOOF else -1.0
    mean[0] = sign * cfg.class_separation * cfg.noise_std / 2.0
    return mean


def generate_pretraining_set(
    cfg: GeneratorConfig, n_users: int, frames_per_user: int
) -> tuple[np.ndarray, np.ndarray]:
    """Balanced labeled features from ``n_users`` training users, each with
    its own random offset. Deterministic under cfg.seed. The users are
    numbered 0 .. n_users - 1, so ``n_users`` is at most
    ``HELD_OUT_USER_BASE``: one more would draw the offset of held-out
    user 0 (``N_USERS_RULE``). Each block of rows is drawn in place into
    the (n, d) array, with the bits of ``(mean + offset) + noise * noise_std``."""
    check_value("n_users", n_users, int, N_USERS_RULE)
    n_live = frames_per_user - frames_per_user // 2
    counts = {ClassLabel.LIVE: n_live, ClassLabel.SPOOF: frames_per_user // 2}
    feats = np.empty((n_users * frames_per_user, cfg.d))
    labels = np.empty(n_users * frames_per_user, dtype=np.int64)
    start = 0
    for user in range(n_users):
        offset = _user_offset(cfg, user)
        noise_rng = seeded_rng(cfg.seed, f"pretrain-noise-{user}")
        for label, count in counts.items():
            block = feats[start : start + count]
            noise_rng.standard_normal(out=block)
            block *= cfg.noise_std
            block += _class_mean(cfg, label) + offset
            labels[start : start + count] = int(label)
            start += count
    return feats, labels


def generate_stream(
    cfg: GeneratorConfig, scenario: StreamScenario
) -> tuple[StreamFrames, np.ndarray]:
    """Feature stream for a held-out user.

    Returns (frames, hidden_labels): the frames carry only features and
    timing; the labels array is the harness-side ground truth. Frame
    indices are 1-based; frame t occurs at wall time (t - 1) / frame_rate.
    Cluster means drift by ``drift_rate`` std units per second along one
    seeded random direction for the whole stream.

    The features are the rows of one (n, d) array, filled a segment at a
    time. Every element is ``(base + drift) + noise`` with ``drift =
    ((direction * drift_rate) * noise_std) * time``, the operations and
    order of a frame-at-a-time loop, so the bits do not depend on how the
    stream is cut. No temporary is larger than one segment's (k, d) block.
    The frames are a ``StreamFrames`` over that array and the index and
    time columns: each frame is made when it is read, with its feature a
    view of its row, so the stream holds (d + 2) * 8 bytes a frame.
    """
    uid = HELD_OUT_USER_BASE + scenario.user_id
    offset = _user_offset(cfg, uid)
    drift_rng = seeded_rng(cfg.seed, f"drift-direction-{uid}")
    direction = drift_rng.standard_normal(cfg.d)
    direction /= np.linalg.norm(direction)
    drift_per_second = direction * cfg.drift_rate * cfg.noise_std
    noise_rng = seeded_rng(cfg.seed, f"stream-noise-{uid}")

    n = scenario.total_frames
    times = np.arange(n) / scenario.frame_rate
    features = np.empty((n, cfg.d))
    labels = np.empty(n, dtype=np.int64)
    start = 0
    for seg in scenario.segments:
        stop = start + seg.duration_frames
        source_rng = seeded_rng(cfg.seed, f"source-{int(seg.label)}-{seg.source_id}-{uid}")
        source_offset = source_rng.standard_normal(cfg.d) * SOURCE_SHIFT_SCALE * cfg.noise_std
        base = _class_mean(cfg, seg.label) + offset + source_offset
        block = features[start:stop]
        np.multiply(times[start:stop, None], drift_per_second, out=block)
        block += base
        noise = noise_rng.standard_normal((seg.duration_frames, cfg.d))
        noise *= cfg.noise_std
        block += noise
        del noise  # freed before the next segment's draw
        labels[start:stop] = int(seg.label)
        start = stop
    return StreamFrames(features, np.arange(1, n + 1, dtype=np.int64), times), labels


# ---------------------------------------------------------------------------
# Feature files: a v1 text or a v2 binary body, bit-exact round trip
# ---------------------------------------------------------------------------

# Rows per write of a feature file: the text of one write grows with the
# feature dimension, not with the file's length (about 170 kB at d=32).
FEATURE_ROWS_PER_WRITE = 256


@dataclass
class FeatureFileData:
    """The columns of a feature file, which may be strided views of one
    record table: ``features`` is (n, d) and need not be C-contiguous, the
    other arrays are (n,)."""

    features: np.ndarray
    labels: np.ndarray | None
    frame_indices: np.ndarray
    times: np.ndarray
    frame_rate: float

    def to_frames(self) -> StreamFrames:
        return StreamFrames(self.features, self.frame_indices, self.times)


def _record_dtype(d: int, labeled: bool) -> np.dtype:
    """A feature-file row as one packed little-endian record: a v2 body's
    record, and the table a v1 body is parsed into."""
    return np.dtype([("index", "<i8"), ("time", "<f8"), *([("label", "<i8")] * labeled),
                     ("features", "<f8", (d,))])


def save_feature_file(path: str | Path, features, frame_indices, times, labels=None,
                      frame_rate: float = 30.0) -> None:
    """Write an ``oapf v1`` file: header ``oapf v1 d=<dim> labeled=<0|1>
    fps=<rate>`` then one record per line: frame_index, time, optional
    label, then the feature values. Floats are printed with shortest
    round-trip repr, so a save / load cycle is bit-exact. ``frame_indices``,
    ``times`` and ``labels`` hold one entry per feature row.

    What ``load_feature_file`` would refuse, or could not read back with
    the same bits, is a DataError raised before the file is opened:
    features that ``head.check_features`` refuses, a frame index that is
    not an int64 integer (1.7 or 2**64), a label other than 0 or 1 (0.5 or
    2), a time that is not a finite float (a NaN's sign and payload do not
    survive the text, and the engine refuses a non-finite time) or a frame
    rate that ``FRAME_RATE_RULE`` refuses, in its words (a real number,
    finite and > 0). An entry is named by its row, from 1."""
    _save(path, "v1", features, frame_indices, times, labels, frame_rate)


def save_labeled_set(path: str | Path, features, labels, frame_rate: float = 30.0) -> None:
    """A labeled set without timing, such as a pre-training set or a replay
    store, as an ``oapf v2`` file: row k gets frame index k and time (k - 1)
    / frame_rate. It passes the checks of ``save_feature_file``; its body is
    one ``_record_dtype`` record per row, which loads without a text parse."""
    n = len(features)
    _save(path, "v2", features, np.arange(1, n + 1), np.arange(n) / frame_rate, labels,
          frame_rate)


def _save(path, version: str, features, frame_indices, times, labels, frame_rate) -> None:
    """Check as ``save_feature_file`` says; write a v1 text or v2 records body."""
    features = check_features(features)
    n, d = features.shape
    labeled = labels is not None
    if len(frame_indices) != n or len(times) != n or (labeled and len(labels) != n):
        raise DataError(f"frame indices, times and labels must each have {n} entries")
    in_int64 = range(FRAME_INDEX_MIN, FRAME_INDEX_MAX + 1).__contains__
    frame_indices = _column(frame_indices, int, in_int64, "frame index", "an int64 integer")
    times = _column(times, float, math.isfinite, "frame time", "a finite float")
    if labeled:
        labels = _column(labels, int, (0, 1).__contains__, "label", "0 or 1")
    check_value("frame rate", frame_rate, float, FRAME_RATE_RULE, error=DataError)
    header = f"oapf {version} d={d} labeled={int(labeled)} fps={float(frame_rate)!r}\n"
    if version == "v2":
        table = np.empty(n, _record_dtype(d, labeled))
        table["index"], table["time"], table["features"] = frame_indices, times, features
        if labeled:
            table["label"] = labels
        with open(path, "wb") as fh:
            fh.write(header.encode())
            table.tofile(fh)
        return
    with open(path, "w") as fh:
        fh.write(header)
        for start in range(0, n, FEATURE_ROWS_PER_WRITE):
            rows = slice(start, start + FEATURE_ROWS_PER_WRITE)
            cols = [map(str, frame_indices[rows]), map(repr, times[rows])]
            if labeled:
                cols.append(map(str, labels[rows]))
            cols.append(",".join(map(repr, row)) for row in features[rows].tolist())
            fh.write("".join([",".join(cells) + "\n" for cells in zip(*cols)]))


def _column(values, convert, valid, what: str, want: str) -> list:
    """``values`` as a list of ``convert(value)``, when each entry equals
    its converted value and that passes ``valid``; otherwise a DataError
    naming the first entry that does not."""
    values = values.tolist() if isinstance(values, np.ndarray) else list(values)
    try:
        cells = list(map(convert, values))
    except (TypeError, ValueError, OverflowError):
        cells = None
    if cells is None or cells != values or not all(map(valid, cells)):
        row = next(k for k, v in enumerate(values) if not _fits(v, convert, valid))
        raise DataError(f"{what} out of range at row {row + 1}: {values[row]!r} (want {want})")
    return cells


def _fits(value, convert, valid) -> bool:
    try:
        cell = convert(value)
        return bool(cell == value) and valid(cell)
    except (TypeError, ValueError, OverflowError):
        return False


def load_feature_file(path: str | Path) -> FeatureFileData:
    """Read a feature file; the header's version word picks the body's
    reader. A malformed header (a ``d`` below 1 or too large for one float64
    row, or an ``fps`` that is not finite and > 0) or body is a DataError
    naming the file, and the first bad line or record. A v2 body is one
    read of the record table (``_read_records``). A v1 body is parsed into
    it by one ``np.loadtxt`` pass; a file that numpy refuses, or whose table
    fails a check, is read again by ``_read_lines``, which takes what numpy
    does not (say, blank lines of spaces or ``1_000``) and names the first
    bad line. numpy converts a float cell as ``float()`` does and accepts a
    subset of what ``float()`` and ``int()`` accept, so both readers give
    the same bits on every file numpy takes. Either way ``features`` is the
    table's (n, d) field: a strided view that need not be C-contiguous."""
    path = Path(path)
    with open_text(path, DataError) as fh:
        version, d, labeled, frame_rate = _read_header(path, fh)
        if version == "v2":
            return _read_records(path, bytearray(fh.buffer.read()), d, labeled, frame_rate)
    return _read_table(path) or _read_lines(path)


# The largest header ``d``: numpy refuses a float64 row of more bytes than
# int64 counts, even in a (0, d) array.
_MAX_D = np.iinfo(np.int64).max // np.dtype(np.float64).itemsize


def _read_header(path: Path, fh) -> tuple[str, int, bool, float]:
    """The version, ``d``, ``labeled`` and ``fps`` of the header line of the
    text file ``fh``, read from its byte buffer and leaving it after the line
    break, so a binary body is not decoded. ``d`` is held to ``WIDTH_RULE``
    and one float64 row, ``fps`` to ``FRAME_RATE_RULE``, in their words."""
    line = (fh.buffer.readline().splitlines(keepends=True) or [b""])[0]
    fh.buffer.seek(len(line))
    header = line.decode(fh.encoding).strip()
    parts = header.split()
    if len(parts) != 5 or parts[0] != "oapf":
        raise DataError(f"{path}: malformed header {header!r}")
    if parts[1] not in ("v1", "v2"):
        raise DataError(f"{path}: unsupported format version {parts[1]!r}")
    try:
        fields = dict(p.split("=", 1) for p in parts[2:])
        d = int(fields["d"])
        labeled = bool(int(fields["labeled"]))
        frame_rate = float(fields["fps"])
    except (ValueError, KeyError) as exc:
        raise DataError(f"{path}: malformed header {header!r}") from exc
    try:
        check_value("d", d, WIDTH_RULE, (_MAX_D.__ge__, f"d <= {_MAX_D}"), error=DataError)
        check_value("fps", frame_rate, FRAME_RATE_RULE, error=DataError)
    except DataError as exc:
        raise DataError(f"{path}: malformed header {header!r}: {exc}") from None
    return parts[1], d, labeled, frame_rate


def _check_record(where: str, feature, label) -> None:
    """A record's features and label (or None) at the table door, refused after ``where``."""
    try:
        check_features([feature])
        if label is not None:
            check_labels([label], 1)
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from None


def _read_records(path: Path, body: bytearray, d: int, labeled: bool,
                  frame_rate: float) -> FeatureFileData:
    """A v2 body as ``_record_dtype`` records, viewed in place in the
    writable ``body``. A part record, a non-finite feature or a label other
    than 0 or 1 is a DataError naming the first bad record, from 1."""
    try:
        dtype = _record_dtype(d, labeled)
    except ValueError as exc:  # numpy makes no record of 2 GiB or more
        raise DataError(f"{path}: no record holds d={d} features ({exc})") from None
    n, extra = divmod(len(body), dtype.itemsize)
    if extra:
        raise DataError(f"{path}: record {n + 1}: only {extra} of its {dtype.itemsize} bytes")
    table = np.frombuffer(body, dtype)
    features, labels = table["features"], table["label"] if labeled else None
    good = np.isfinite(features).all(axis=1) & (np.isin(labels, (0, 1)) if labeled else True)
    for k in np.flatnonzero(~good)[:1]:
        _check_record(f"{path}: record {k + 1}", features[k], labels[k] if labeled else None)
    return FeatureFileData(features, labels, table["index"], table["time"], frame_rate)


def _read_table(path: Path) -> FeatureFileData | None:
    """A v1 file through ``np.loadtxt``, or None when numpy refuses it,
    warns (an empty body does), or a feature is not finite or a label not 0
    or 1. A malformed header raises its DataError here.

    The first non-blank row must have the header's column count before
    numpy sees the body: numpy sizes its first block of records by ``d``,
    so a large ``d`` over a short row would allocate for nothing."""
    try:
        with open(path) as fh:
            _, d, labeled, frame_rate = _read_header(path, fh)
            first = 2 + int(labeled)  # the first feature column
            body = fh.tell()
            row = fh.readline()
            while row and not row.strip():
                row = fh.readline()
            if row.count(",") != first + d - 1:
                return None
            fh.seek(body)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = np.loadtxt(fh, dtype=_record_dtype(d, labeled), delimiter=",",
                                   comments=None, ndmin=1)
    except (ValueError, OverflowError, Warning):  # UnicodeDecodeError is a ValueError
        return None
    features = table["features"]
    labels = table["label"] if labeled else None
    if not np.isfinite(features).all() or labeled and not np.isin(labels, (0, 1)).all():
        return None
    return FeatureFileData(features, labels, table["index"], table["time"], frame_rate)


def _read_lines(path: Path) -> FeatureFileData:
    """A v1 file a line at a time: the reader that names a malformed file's
    first bad line, and the reference ``_read_table`` is tested against.
    Each row is checked as it is read: its column count, then that every
    cell parses, then its features and label at the table door, then that
    its frame index fits int64."""
    with open_text(path, DataError) as fh:
        _, d, labeled, frame_rate = _read_header(path, fh)
        first = 2 + int(labeled)  # the first feature column
        expected_cols = first + d
        # The columns; ``values`` holds the feature cells of every row, row-major.
        frame_indices, times, labels, values = [], [], [], []
        for lineno, line in enumerate(map(str.strip, fh), start=2):
            if not line:
                continue
            cols = line.split(",")
            if len(cols) != expected_cols:
                raise DataError(f"{path}:{lineno}: expected {expected_cols} columns, got {len(cols)}")
            try:
                index, time = int(cols[0]), float(cols[1])
                label = int(cols[2]) if labeled else 0
                feature = [float(c) for c in cols[first:]]
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: unparseable value") from exc
            if not all(map(math.isfinite, feature)) or label not in (0, 1):
                _check_record(f"{path}:{lineno}", feature, label)
            if not FRAME_INDEX_MIN <= index <= FRAME_INDEX_MAX:
                raise DataError(f"{path}:{lineno}: frame index out of range")
            frame_indices.append(index)
            times.append(time)
            labels.append(label)
            values.extend(feature)
    return FeatureFileData(
        np.array(values, dtype=np.float64).reshape(len(times), d),
        np.array(labels, dtype=np.int64) if labeled else None,
        np.array(frame_indices, dtype=np.int64), np.array(times, dtype=np.float64), frame_rate,
    )


# ---------------------------------------------------------------------------
# Scenario config parsing (flat key = value files)
# ---------------------------------------------------------------------------


def parse_segments(text: str) -> tuple[Segment, ...]:
    """Parse ``live:300,spoof:300,live:300``. An optional third component
    pins the source id (``spoof:300:2``); otherwise sources number each
    class's segments in order of appearance."""
    segments: list[Segment] = []
    per_class_count = {ClassLabel.LIVE: 0, ClassLabel.SPOOF: 0}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        bits = part.split(":")
        if len(bits) not in (2, 3):
            raise ConfigError(f"bad segment spec {part!r} (want label:frames[:source])")
        name = bits[0].strip().lower()
        if name not in ("live", "spoof"):
            raise ConfigError(f"unknown segment label {bits[0]!r}")
        label = ClassLabel.LIVE if name == "live" else ClassLabel.SPOOF
        try:
            duration = int(bits[1])
            source = int(bits[2]) if len(bits) == 3 else per_class_count[label]
        except ValueError as exc:
            raise ConfigError(f"bad segment spec {part!r}") from exc
        per_class_count[label] += 1
        segments.append(Segment(label, duration, source))
    return tuple(segments)


def scenario_from_mapping(mapping: dict[str, str]) -> StreamScenario:
    if "segments" not in mapping:
        raise ConfigError("scenario config needs a 'segments' entry")
    return from_mapping(StreamScenario(parse_segments(mapping["segments"])), mapping)
