"""Per-frame adaptation loop.

The hard contract: every frame is scored by the model as it stood BEFORE
that frame arrived, and only then may the frame influence the model. Each
step runs, in order: input checks (frame indices strictly increase, times
are finite and never decrease) -> forward pass -> pseudo-label -> buffer
insert (unless discarded) -> time-based eviction -> zero or more fine-tune
invocations, driven by an accumulator that adds ``finetune_freq`` per frame
and fires on every whole unit. Each invocation first brings the buffer's
working labels up to date (majority smoothing over the whole buffer, redone
only when an entry came or went since the last pass), then samples its
batches. Labels are read only by the sampler, so this is the same as
smoothing on every frame. The verdict for frame t is therefore a
deterministic function of frames 1..t only, and a frozen-head run is
exactly the degenerate case with adaptation disabled.

Adaptation cost is accounted in FLOPs per standard multiply-accumulate
counting: one sample costs 2*(d*64 + 64) forward, times 3 for the joint
forward+backward pass. The per-frame expected cost is then exactly linear
in ``finetune_freq``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Sequence, get_args, get_type_hints

import numpy as np

from .config import ClassLabel, HyperParams, PseudoLabel
from .errors import ConfigError, DataError, NumericalError
from .head import (
    HIDDEN_UNITS,
    AdamState,
    ClassifierHead,
    apply_update,
    forward,
    loss_and_grad,
)
from .memory import OnlineBuffer, ReplayStore, sample_batch
from .pseudolabel import assign_pseudo_label
from .rng import seeded_rng
from .simstream import StreamFrame

# Cost of the full-size deployment this desk-scale model stands in for, at
# finetune_freq=1. Sweep reports scale it by finetune_freq; the engine
# accumulates the raw model count.
FULL_SCALE_KFLOPS_PER_FRAME = 960.0


def per_sample_flops(d: int, hidden: int = HIDDEN_UNITS) -> float:
    """Forward+backward FLOPs for one sample through the head."""
    return 3.0 * 2.0 * (d * hidden + hidden)


def adaptation_cost(params: HyperParams, d: int) -> float:
    """Expected adaptation FLOPs per frame:
    finetune_freq * iterations * batch_size * per_sample_flops(d)."""
    p = params
    return p.finetune_freq * p.iterations_per_call * p.batch_size * per_sample_flops(d)


def calibrated_kflops_per_frame(params: HyperParams) -> float:
    """The sweep report's cost column: adaptation_cost rescaled so that
    finetune_freq=1 costs FULL_SCALE_KFLOPS_PER_FRAME. The config-dependent
    factors cancel analytically; computing it in that canceled form keeps
    the reference figures exact in float."""
    return FULL_SCALE_KFLOPS_PER_FRAME * params.finetune_freq


@dataclass(frozen=True)
class FrameVerdict:
    frame_index: int
    y: float
    decision: ClassLabel
    pseudo: PseudoLabel
    finetuned_this_frame: bool


@dataclass(frozen=True)
class TraceRecord:
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


def _fold(
    frames: Sequence[StreamFrame], ground_truth, eval_threshold: float, step: Callable
) -> list[TraceRecord]:
    """The one stream runner behind the engine and both baselines. It visits
    each frame exactly once, in order. ``step(frame)`` returns ``y`` and
    then the trace fields after ``decision``; the fold adds the frame
    index, the ground truth (which ``step`` never sees) and the decision."""
    if len(frames) == 0:
        raise DataError("empty stream")
    if ground_truth is None:
        truths = [None] * len(frames)
    elif len(ground_truth) != len(frames):
        raise DataError("ground truth length does not match the stream")
    else:
        truths = [int(g) for g in ground_truth]
    trace = []
    for frame, truth in zip(frames, truths):
        y, *context = step(frame)
        decision = int(ClassLabel.SPOOF if y > eval_threshold else ClassLabel.LIVE)
        trace.append(TraceRecord(frame.frame_index, truth, y, decision, *context))
    return trace


class Engine:
    """One adaptation engine per stream. Strictly sequential: the
    fine-tune step for frame t completes before frame t+1 is scored.
    The pre-trained head is copied at construction, Adam moments start
    fresh and persist across the whole stream."""

    def __init__(
        self,
        head: ClassifierHead,
        replay: ReplayStore,
        params: HyperParams,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.head = head.copy()
        self.adam = AdamState.for_head(self.head)
        self.online = OnlineBuffer()
        self.replay = replay
        self.params = params
        self.frame_count = 0
        self.finetune_accumulator = 0.0
        self.cumulative_flops = 0.0  # non-decreasing adaptation FLOPs
        self.last_frame_index: int | None = None  # of the last frame processed
        self.last_frame_time: float | None = None
        self.rng = rng if rng is not None else seeded_rng(params.seed, "sampler")

    def process_frame(self, feature, frame_index: int, time: float) -> FrameVerdict:
        """Score one frame, then let it adapt the head. Frame indices must
        strictly increase and times must be finite and never decrease; a
        frame that breaks this, or whose feature has the wrong dimension or
        a non-finite value, raises DataError before any state changes."""
        p = self.params
        if not math.isfinite(time):
            raise DataError(f"non-finite frame time {time!r}")
        if self.last_frame_index is not None:
            if not frame_index > self.last_frame_index:
                raise DataError(
                    f"frame index {frame_index} does not follow the last frame's "
                    f"{self.last_frame_index}"
                )
            if time < self.last_frame_time:
                raise DataError(
                    f"frame time {time!r} precedes the last frame's {self.last_frame_time!r}"
                )
        y = forward(self.head, feature)
        self.last_frame_index, self.last_frame_time = frame_index, time
        decision = ClassLabel.SPOOF if y > p.eval_threshold else ClassLabel.LIVE
        pseudo = assign_pseudo_label(y, p.margin)

        if pseudo != PseudoLabel.DISCARD:
            self.online.insert(feature, pseudo, frame_index, time)
        self.online.evict_old(time, p.eviction_horizon)

        self.finetune_accumulator += p.finetune_freq
        events = 0
        snapshot = None
        while self.finetune_accumulator >= 1.0:
            self.finetune_accumulator -= 1.0
            if len(self.online) == 0 and len(self.replay) == 0:
                continue
            # finetune_freq <= 1 fires at most one event per frame, and
            # apply_update commits atomically, so a single update needs no
            # snapshot to roll back to.
            if snapshot is None and p.iterations_per_call > 1:
                snapshot = (self.head.copy(), self.adam.copy())
            self.online.refresh_working_labels(p.window)
            try:
                for _ in range(p.iterations_per_call):
                    feats, labels = sample_batch(
                        self.online, self.replay, p.batch_size, p.online_prob, self.rng
                    )
                    _, grads = loss_and_grad(self.head, feats, labels)
                    apply_update(self.head, self.adam, grads, p.learning_rate, p.weight_decay)
            except NumericalError:
                # Rejected update: roll the whole frame's fine-tuning back
                # and mark the verdict as not fine-tuned.
                if snapshot is not None:
                    self.head, self.adam = snapshot
                events = 0
                break
            events += 1

        flops = events * p.iterations_per_call * p.batch_size * per_sample_flops(self.head.d)
        self.cumulative_flops += flops
        self.frame_count += 1
        return FrameVerdict(frame_index, y, decision, pseudo, events > 0)

    def run_stream(
        self, frames: Sequence[StreamFrame], ground_truth=None
    ) -> list[TraceRecord]:
        """Fold process_frame over the stream: one verdict per frame, each
        frame visited exactly once. ``ground_truth`` is harness-side only;
        it is copied into the trace and never touches the model."""

        def step(frame: StreamFrame) -> tuple:
            v = self.process_frame(frame.feature, frame.frame_index, frame.time)
            flops = self.cumulative_flops
            return v.y, int(v.pseudo), v.finetuned_this_frame, len(self.online), flops

        return _fold(frames, ground_truth, self.params.eval_threshold, step)


def run_baseline_frozen(
    head: ClassifierHead,
    frames: Sequence[StreamFrame],
    ground_truth=None,
    eval_threshold: float = 0.5,
) -> list[TraceRecord]:
    """Pure inference with no adaptation: what run_stream degenerates to
    when nothing fires. The head is never touched. It is the smoothed
    baseline at momentum 0, where 0*ema + 1*y is exactly y."""
    return run_baseline_smoothed(
        head, frames, 0.0, ground_truth=ground_truth, eval_threshold=eval_threshold
    )


def run_baseline_smoothed(
    head: ClassifierHead,
    frames: Sequence[StreamFrame],
    momentum: float,
    ground_truth=None,
    reset_at: Iterable[int] = (),
    eval_threshold: float = 0.5,
) -> list[TraceRecord]:
    """Frozen head whose emitted probability is an exponential moving
    average of the per-frame probabilities. ``reset_at`` lists frame
    indices at which the average restarts (for scripted video boundaries).
    """
    if not 0.0 <= momentum < 1.0:
        raise ConfigError(f"momentum out of range: {momentum!r} (want 0 <= momentum < 1)")
    resets = set(int(i) for i in reset_at)
    ema: float | None = None

    def step(frame: StreamFrame) -> tuple:
        nonlocal ema
        y = forward(head, frame.feature)
        if ema is None or frame.frame_index in resets:
            ema = y
        else:
            ema = momentum * ema + (1.0 - momentum) * y
        return ema, None, False, 0, 0.0

    return _fold(frames, ground_truth, eval_threshold, step)


# ---------------------------------------------------------------------------
# Trace files: CSV and line-delimited JSON, both laid out by TraceRecord
# ---------------------------------------------------------------------------

TRACE_COLUMNS = tuple(f.name for f in fields(TraceRecord))


def _cell(value) -> str:
    """One CSV cell: blank for None, 0/1 for a bool, repr otherwise
    (shortest round-trip form for a float, the digits for an int)."""
    if value is None:
        return ""
    if value is True or value is False:
        return "1" if value else "0"
    return repr(value)


# The exact value types each field admits, e.g. (int, NoneType) for
# ``int | None``; a bool is not accepted as an int.
_FIELD_TYPES = tuple(get_args(h) or (h,) for h in get_type_hints(TraceRecord).values())


def _parse_cell(cell: str, types: tuple):
    """The inverse of _cell for a field admitting ``types``."""
    if cell == "" and type(None) in types:
        return None
    if bool in types:
        if cell not in ("0", "1"):
            raise ValueError(f"not a 0/1 cell: {cell!r}")
        return cell == "1"
    return types[0](cell)


# Rows are written from ``r.__dict__``: the dataclass __init__ sets the
# fields in declaration order, which is TRACE_COLUMNS. dataclasses.asdict
# gives the same bytes but deep-copies every row at several times the cost.
def write_trace_csv(path: str | Path, trace: Sequence[TraceRecord]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for r in trace:
            fh.write(",".join(map(_cell, r.__dict__.values())) + "\n")


def _read_trace(path: str | Path, lines: list[str], parse_row) -> list[TraceRecord]:
    """Parse every non-blank line; any row the parser rejects (a wrong
    cell count or type, a missing key, a line that is not JSON) is a
    DataError naming the file and the row."""
    trace = []
    for line in lines:
        if not line:
            continue
        try:
            trace.append(parse_row(line))
        except (ValueError, TypeError) as exc:
            raise DataError(f"{path}: malformed trace row {line!r}") from exc
    return trace


def _parse_csv_row(line: str) -> TraceRecord:
    cells = zip(line.split(","), _FIELD_TYPES, strict=True)
    return TraceRecord(*(_parse_cell(cell, types) for cell, types in cells))


def _parse_jsonl_row(line: str) -> TraceRecord:
    record = TraceRecord(**json.loads(line))
    if any(type(v) not in t for v, t in zip(record.__dict__.values(), _FIELD_TYPES)):
        raise TypeError("a trace field has the wrong type")
    return record


def read_trace_csv(path: str | Path) -> list[TraceRecord]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != ",".join(TRACE_COLUMNS):
        raise DataError(f"{path}: not a trace file")
    return _read_trace(path, lines[1:], _parse_csv_row)


def write_trace_jsonl(path: str | Path, trace: Sequence[TraceRecord]) -> None:
    with open(path, "w") as fh:
        for r in trace:
            fh.write(json.dumps(r.__dict__) + "\n")


def read_trace_jsonl(path: str | Path) -> list[TraceRecord]:
    return _read_trace(path, Path(path).read_text().splitlines(), _parse_jsonl_row)
