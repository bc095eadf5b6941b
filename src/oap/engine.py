"""Per-frame adaptation loop.

The hard contract: every frame is scored by the model as it stood BEFORE
that frame arrived, and only then may the frame influence the model. Each
step runs, in order: input checks (frame indices strictly increase, times
are finite and never decrease) -> forward pass -> pseudo-label -> buffer
insert (unless discarded) -> time-based eviction -> at most one fine-tune
event, driven by an accumulator that adds ``finetune_freq`` (at most 1) per
frame and fires when it reaches a whole unit. The buffer's width (the
head's), smoothing window and eviction cutoff are fixed when the engine
builds it. An event samples its batches, and the sampler first brings the
buffer's working labels up to date (majority smoothing over the whole
buffer, redone only when an entry came or went since the last pass). Labels
are read only by the sampler, so this is the same as smoothing on every
frame. The verdict for frame t is therefore a deterministic function of
frames 1..t only, and a frozen-head run is exactly the degenerate case with
adaptation disabled.

Per-frame results are named tuples, ``FrameVerdict`` and ``TraceRecord``;
a TraceRecord's fields, in order, are the columns of the trace files. Both
are built with ``tuple.__new__``, which skips the NamedTuple's Python-level
``__new__`` (0.20 us against 0.41 us for a verdict, ``timeit`` on a 2-vCPU
Intel Xeon).
``Engine.run_stream`` and both baselines read only a ``StreamFrames`` of
int64 indices, float64 times and (n, d) float64 features, through one block
fold. The fold checks the whole stream by its columns first
(``memory.first_bad_frame``): the first frame ``process_frame`` would refuse
raises that door's DataError, in its words, before any frame runs, so a
refused stream leaves the engine as it was. Then the runner's step scores
the frames a block at a time (``process_frame`` a frame at a time for the
engine, one stacked ``forward`` for the baselines) into a ``Trace``.
Both trace formats share a ``Trace``'s cells. ``read_trace_csv`` is the one
trace reader; the JSON lines are for other tools.

Adaptation cost is accounted in FLOPs per standard multiply-accumulate
counting: one sample costs 2*(d*64 + 64) forward, times 3 for the joint
forward+backward pass. The per-frame expected cost is then exactly linear
in ``finetune_freq``.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain, islice, repeat
from pathlib import Path
from typing import NamedTuple, get_args, get_type_hints

import numpy as np

from .config import ClassLabel, HyperParams, PseudoLabel, check_value, open_text
from .errors import DataError, NumericalError
from .head import (
    HIDDEN_UNITS,
    SCORE_ROWS_PER_CALL,
    AdamState,
    ClassifierHead,
    _as_floats,
    apply_update,
    check_labels,
    forward,
    not_a_row,
)
# Batches come from door-checked stores (see oap.head), so skip the checks and the loss.
from .head import _grad_kernel as loss_and_grad
from .memory import OnlineBuffer, ReplayStore, check_frame, first_bad_frame, sample_batch
from .pseudolabel import assign_pseudo_label
from .rng import seeded_rng
from .simstream import StreamFrames

# Cost of the full-size deployment this desk-scale model stands in for, at
# finetune_freq=1. Sweep reports scale it by finetune_freq; the engine
# accumulates the raw model count.
FULL_SCALE_KFLOPS_PER_FRAME = 960.0

# The momentum of ``run_baseline_smoothed``, and so of the ``ema`` runner.
MOMENTUM_RULE = (lambda v: 0.0 <= v < 1.0, "0 <= momentum < 1")


def per_sample_flops(d: int, hidden: int = HIDDEN_UNITS) -> float:
    """Forward+backward FLOPs for one sample through the head."""
    return 3.0 * 2.0 * (d * hidden + hidden)


def event_flops(params: HyperParams, d: int, events=1) -> float:
    """The one cost formula: FLOPs of ``events`` fine-tune events, multiplied
    left to right; ``events`` = 1, an int, leaves the other factors' product."""
    return events * params.iterations_per_call * params.batch_size * per_sample_flops(d)


def adaptation_cost(params: HyperParams, d: int) -> float:
    """Expected adaptation FLOPs per frame: ``finetune_freq`` events."""
    return event_flops(params, d, params.finetune_freq)


def calibrated_kflops_per_frame(params: HyperParams) -> float:
    """The sweep report's cost column: adaptation_cost rescaled so that
    finetune_freq=1 costs FULL_SCALE_KFLOPS_PER_FRAME. The config-dependent
    factors cancel analytically; computing it in that canceled form keeps
    the reference figures exact in float."""
    return FULL_SCALE_KFLOPS_PER_FRAME * params.finetune_freq


# Enum members read on every frame, as module constants: a member read off
# its class costs about ten module-global reads. assign_pseudo_label returns
# members of PseudoLabel, so a discard is tested by identity.
_LIVE, _SPOOF = ClassLabel.LIVE, ClassLabel.SPOOF
_DISCARD = PseudoLabel.DISCARD


class FrameVerdict(NamedTuple):
    frame_index: int
    y: float
    decision: ClassLabel
    pseudo: PseudoLabel
    finetuned_this_frame: bool


class TraceRecord(NamedTuple):
    """One emitted row per frame: the verdict plus harness-side context
    (ground truth when known, buffer occupancy, cumulative cost). The
    fields, in order, are the trace file schema."""

    frame_index: int
    ground_truth: int | None
    y: float
    decision: int
    pseudo_label: int | None
    finetuned: bool
    buffer_size: int
    cumulative_flops: float


class Trace(Sequence):
    """A read-only sequence of ``TraceRecord`` over ``columns``, a
    TraceRecord of tuples of one length (``trace.columns.y`` is the ``y``
    column). Each record is made when it is read; ``[i]`` takes a negative
    ``i`` too and raises IndexError out of range, and a slice is a
    ``Trace``; ``list(trace)`` is an editable copy. It keeps the cells a
    trace writer formats, so a second writer makes no ``repr`` again."""

    __slots__ = ("columns", "_cells")

    def __init__(self, columns: Iterable[Iterable]) -> None:
        self.columns = TraceRecord._make(map(tuple, columns))
        if len(set(map(len, self.columns))) != 1:
            raise DataError("trace columns must have one length")
        self._cells = {}  # (start, stop) of a write's rows -> their kept cells

    @classmethod
    def from_records(cls, records: Iterable[Sequence]) -> Trace:
        """The trace of ``records``; a DataError names the first record of another
        length, else the first field, and its first record, holding a value
        not exactly of a type the field admits."""
        rows, want = list(records), len(TRACE_COLUMNS)
        if not set(map(len, rows)) <= {want}:
            k = next(k for k, row in enumerate(rows) if len(row) != want)
            raise DataError(f"trace record {k + 1}: {len(rows[k])} fields, want {want}")
        trace = cls(zip(*rows) if rows else repeat((), len(TRACE_COLUMNS)))
        for name, column, types in zip(TRACE_COLUMNS, trace.columns, _FIELD_TYPES):
            if not set(map(type, column)).issubset(types):
                k = next(k for k, v in enumerate(column) if type(v) not in types)
                want = " | ".join(t.__name__ for t in types)
                raise DataError(f"trace record {k + 1}: {name} {column[k]!r} is not {want}")
        return trace

    def __len__(self) -> int:
        return len(self.columns.frame_index)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Trace(column[i] for column in self.columns)
        return tuple.__new__(TraceRecord, [column[i] for column in self.columns])

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(tuple.__new__, repeat(TraceRecord), zip(*self.columns))

    def _reprs(self, rows: slice) -> list[tuple[list[str], bool]]:
        """The repr cells of each column over ``rows``, and whether a format
        may spell one of them its own way; a column that is one object over
        ``rows`` has one cell. They are made once and kept as one text per
        column, which a second writer splits: an engine trace keeps about
        50 bytes a frame, where a list of the cells would keep some 440."""
        if (kept := self._cells.get((rows.start, rows.stop))) is not None:
            return [(text.split("\n"), respelled) for text, respelled in kept]
        made = []
        for column in self.columns:
            column = column[rows]
            if column and all(map(operator.is_, column, repeat(column[0]))):
                column = column[:1]
            cells = list(map(repr, column))
            made.append((cells, not _RESPELLED.isdisjoint(cells)))
        self._cells[rows.start, rows.stop] = [("\n".join(c), respelled) for c, respelled in made]
        return made


def _fold(frames: StreamFrames, ground_truth, eval_threshold: float, d: int, step: Callable,
          last: tuple | None = None) -> Trace:
    """The one stream runner behind the engine and both baselines. Any stream
    but a ``StreamFrames`` of int64 frame indices, float64 times and (n, d)
    float64 features, an empty one, a ground truth that ``check_labels``
    refuses and a frame that ``first_bad_frame`` refuses after ``last``, the
    (index, time) of the frame before the stream, are each a DataError before
    any frame runs. Then ``step`` takes the frames in order, a block of
    SCORE_ROWS_PER_CALL at a time, and returns a column each of their int
    frame indices, ``y`` and the trace fields after ``decision`` (a constant
    one may be a ``repeat``). No record is made: the ``Trace`` makes one when
    it is read."""
    columns = [frames.frame_indices, frames.times, frames.features] if isinstance(
        frames, StreamFrames) else []
    # By dtype kind and item size, so the loader's <i8 and <f8 fields pass.
    if [(c.dtype.kind, c.itemsize, c.ndim) for c in columns if isinstance(c, np.ndarray)] != [
            ("i", 8, 1), ("f", 8, 1), ("f", 8, 2)]:
        raise DataError("a stream must be a StreamFrames of int64 frame indices, float64 times "
                        "and (n, d) float64 features")
    n = len(frames)
    if n == 0:
        raise DataError("empty stream")
    truth = [None] * n
    if ground_truth is not None:  # the labels rule's spoof mask, as 0/1 ints
        truth = check_labels(ground_truth, n).view(np.uint8).tolist()
    if (fault := first_bad_frame(frames, d, last)) is not None:
        raise DataError(fault[1])
    made = [[] for _ in range(len(TRACE_COLUMNS) - 2)]  # all but the truth and the decisions
    for start in range(0, n, SCORE_ROWS_PER_CALL):
        block = frames[start : start + SCORE_ROWS_PER_CALL]
        for column, values in zip(made, step(block)):
            column += islice(values, len(block))
    indices, ys, *context = made
    decisions = [1 if y > eval_threshold else 0 for y in ys]  # spoof iff y > eval_threshold
    return Trace((indices, truth, ys, decisions, *context))


class Engine:
    """One adaptation engine per stream. Strictly sequential: the
    fine-tune step for frame t completes before frame t+1 is scored.
    The pre-trained head is copied at construction, Adam moments start
    fresh and persist across the whole stream. A non-empty replay store
    whose dimension is not the head's is a DataError."""

    def __init__(self, head: ClassifierHead, replay: ReplayStore, params: HyperParams) -> None:
        if len(replay) > 0 and replay.d != head.d:
            raise DataError(f"replay dimension {replay.d} != head dimension {head.d}")
        self.head = head.copy()
        self.adam = AdamState.for_head(self.head)
        self.online = OnlineBuffer(head.d, params.window, params.eviction_horizon)
        self.replay = replay
        self.params = params
        self.finetune_accumulator = 0.0
        self.cumulative_flops = 0.0  # non-decreasing adaptation FLOPs
        self.last_frame: tuple[int, float] | None = None  # (index, time) of the last frame
        self.rng = seeded_rng(params.seed, "sampler")
        self._event_flops = event_flops(params, head.d)

    def process_frame(self, feature, frame_index: int, time: float) -> FrameVerdict:
        """Score one frame, then let it adapt the head. A frame that breaks
        the stream contract (see ``check_frame``: int64 indices strictly
        increase, times are finite reals that never decrease), or whose
        feature is not a (d,) row of finite numbers, raises DataError before
        any state changes; the buffer stores the checked row unchecked."""
        p = self.params
        frame_index = check_frame(frame_index, time, self.last_frame)
        row = _as_floats(feature)
        y = forward(self.head, row)
        if y.__class__ is not float:  # forward scored a stack of rows
            raise not_a_row(self.head.d, row)
        self.last_frame = frame_index, time
        decision = _SPOOF if y > p.eval_threshold else _LIVE
        pseudo = assign_pseudo_label(y, p.margin)

        if pseudo is not _DISCARD:
            self.online.insert(row, pseudo, frame_index, time)
        self.online.evict_old(time)

        self.finetune_accumulator += p.finetune_freq
        if self.finetune_accumulator < 1.0:
            finetuned = False
        else:
            self.finetune_accumulator -= 1.0
            finetuned = self._finetune()
        return tuple.__new__(FrameVerdict, (frame_index, y, decision, pseudo, finetuned))

    def _finetune(self) -> bool:
        """One fine-tune event, undone whole if an update is rejected; True if committed."""
        p = self.params
        if len(self.online) == 0 and len(self.replay) == 0:
            return False
        # apply_update commits atomically, so one update needs no snapshot.
        snapshot = (self.head.copy(), self.adam.copy()) if p.iterations_per_call > 1 else None
        try:
            for _ in range(p.iterations_per_call):
                feats, labels = sample_batch(self.online, self.replay, p.batch_size,
                                             p.online_prob, self.rng)
                _, grad = loss_and_grad(self.head, feats, labels)
                apply_update(self.head, self.adam, grad, p.learning_rate, p.weight_decay)
        except NumericalError:
            if snapshot is not None:
                self.head, self.adam = snapshot
            return False
        self.cumulative_flops += self._event_flops
        return True

    def run_stream(self, frames: StreamFrames, ground_truth=None) -> Trace:
        """Fold process_frame over the stream (see ``_fold``), each frame once,
        its time read as a float64. ``ground_truth`` is harness-side only; it
        is copied into the trace and never touches the model."""

        def process_block(block: StreamFrames) -> Iterator[tuple]:
            rows = []
            for frame in block:
                v = self.process_frame(frame.feature, frame.frame_index, frame.time)
                rows.append((v.frame_index, v.y, int(v.pseudo), v.finetuned_this_frame,
                             len(self.online), self.cumulative_flops))
            return zip(*rows)

        return _fold(frames, ground_truth, self.params.eval_threshold, self.head.d, process_block,
                     self.last_frame)


def run_baseline_frozen(head: ClassifierHead, frames: StreamFrames, ground_truth=None,
                        eval_threshold: float = 0.5) -> Trace:
    """Pure inference with no adaptation: what run_stream degenerates to
    when nothing fires. The head is never touched. It is the smoothed
    baseline at momentum 0, where 0*ema + 1*y is exactly y."""
    return run_baseline_smoothed(head, frames, 0.0, ground_truth=ground_truth,
                                 eval_threshold=eval_threshold)


def run_baseline_smoothed(head: ClassifierHead, frames: StreamFrames, momentum: float,
                          ground_truth=None, eval_threshold: float = 0.5) -> Trace:
    """Frozen head whose emitted probability is an exponential moving
    average of the per-frame probabilities. The head never changes, so each
    block of the fold is scored in one ``forward`` call on its stack of
    features, with the bits of per-frame scoring (see ``forward_batch``), and
    the average runs over the block's scores as Python floats. A stream the
    fold refuses (see ``_fold``) is refused before any frame is scored. A
    momentum that is not a real number in [0, 1) is a ConfigError."""
    check_value("momentum", momentum, float, MOMENTUM_RULE)
    rest = 1.0 - momentum
    ema = None  # the last frame's average, carried into the next block

    def score_block(block: StreamFrames) -> tuple:
        nonlocal ema
        ys = forward(head, block.features).tolist()
        if momentum:  # at momentum 0 each average is exactly its y
            for i, y in enumerate(ys):
                ema = y if ema is None else momentum * ema + rest * y
                ys[i] = ema
        return block.frame_indices.tolist(), ys, repeat(None), repeat(False), repeat(0), repeat(0.0)

    return _fold(frames, ground_truth, eval_threshold, head.d, score_block)


# ---------------------------------------------------------------------------
# Trace files: CSV and line-delimited JSON, both laid out by TraceRecord
# ---------------------------------------------------------------------------

TRACE_COLUMNS = TraceRecord._fields

# The exact value types each field admits, e.g. (int, NoneType) for
# ``int | None``; a bool is not accepted as an int.
_FIELD_TYPES = tuple(get_args(h) or (h,) for h in get_type_hints(TraceRecord).values())

# Records per write of a trace file: what one write holds (about 200 kB of
# JSONL text and the cells behind it) stays the same, whatever the trace's
# length.
TRACE_ROWS_PER_WRITE = 1024

# A cell is the value's repr (the shortest round-trip form for a float, the
# digits for an int), shared by both formats, but for the reprs of None, the
# bools and the non-finite floats, which each format spells its own way.
_CSV_SPELLING = {"None": "", "True": "1", "False": "0"}
_JSON_SPELLING = {"None": "null", "True": "true", "False": "false",
                  "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_RESPELLED = _CSV_SPELLING.keys() | _JSON_SPELLING.keys()
_CSV_PIECES = ("", *[","] * (len(TRACE_COLUMNS) - 1), "\n")
_JSON_PIECES = (
    *(("{" if i == 0 else ", ") + json.dumps(name) + ": " for i, name in enumerate(TRACE_COLUMNS)),
    "}\n",
)


def _write_trace(path: str | Path, trace: Iterable[TraceRecord], head: str, pieces: tuple,
                 spelling: dict) -> None:
    """Write ``head``, then each record as ``pieces[0]``, its first cell,
    ``pieces[1]``, ..., its last cell and ``pieces[-1]``, a column at a time,
    TRACE_ROWS_PER_WRITE rows per write, ``spelling`` mapping the cells that
    this format spells its own way. Records that are not a ``Trace`` are made
    one, held whole; a ``Trace`` lends its repr cells. A column of one cell
    joins the pieces around it, so its rows are not zipped."""
    if not isinstance(trace, Trace):
        trace = Trace.from_records(trace)
    with open(path, "w") as fh:
        fh.write(head)
        for start in range(0, len(trace), TRACE_ROWS_PER_WRITE):
            texts, piece = [], pieces[0]
            columns = trace._reprs(slice(start, start + TRACE_ROWS_PER_WRITE))
            for (cells, respelled), after in zip(columns, pieces[1:]):
                if respelled:
                    cells = [spelling.get(c, c) for c in cells]
                if len(cells) == 1:
                    piece += cells[0] + after
                else:
                    texts += (repeat(piece), cells)
                    piece = after
            texts.append([piece] * min(TRACE_ROWS_PER_WRITE, len(trace) - start))
            fh.write("".join(chain.from_iterable(zip(*texts))))


def _parse_cell(cell: str, types: tuple):
    """The inverse of a CSV cell for a field admitting ``types``."""
    if cell == "" and type(None) in types:
        return None
    if bool in types:
        if cell not in ("0", "1"):
            raise ValueError(f"not a 0/1 cell: {cell!r}")
        return cell == "1"
    return types[0](cell)


def write_trace_csv(path: str | Path, trace: Iterable[TraceRecord]) -> None:
    _write_trace(path, trace, ",".join(TRACE_COLUMNS) + "\n", _CSV_PIECES, _CSV_SPELLING)


def read_trace_csv(path: str | Path) -> Trace:
    """The trace in a CSV trace file, blank lines skipped: the one trace
    reader. A file whose first line is not the header is not a trace file;
    a row with a wrong cell count or a cell its field does not take is a
    DataError naming the file and the row; a ground truth or decision that
    ``check_labels`` refuses, the file and the column."""
    with open_text(path, DataError) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != ",".join(TRACE_COLUMNS):
        raise DataError(f"{path}: not a trace file")
    rows = []
    for line in filter(None, lines[1:]):
        try:
            cells = zip(line.split(","), _FIELD_TYPES, strict=True)
            rows.append([_parse_cell(cell, types) for cell, types in cells])
        except ValueError as exc:
            raise DataError(f"{path}: malformed trace row {line!r}") from exc
    trace = Trace.from_records(rows)
    truths = [v for v in trace.columns.ground_truth if v is not None]
    for name, labels in (("ground_truth", truths), ("decision", trace.columns.decision)):
        try:
            check_labels(labels, len(labels))
        except DataError as exc:
            raise DataError(f"{path}: {name}: {exc}") from None
    return trace


def write_trace_jsonl(path: str | Path, trace: Iterable[TraceRecord]) -> None:
    """Write each record as ``json.dumps`` of its ``_asdict()``, a line each."""
    _write_trace(path, trace, "", _JSON_PIECES, _JSON_SPELLING)
