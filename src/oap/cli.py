"""Experiment runner: generate / pretrain / run / sweep / report.

Each subcommand reads an optional flat config file (``--config``) plus
``--set key=value`` overrides, builds every config dataclass it reads,
reads and checks its input files, then echoes the fully resolved
configuration into the output directory (re-running from that echo
reproduces outputs bit-exactly) and writes machine-readable results.

Every config key is a field of one of the dataclasses in ``_SECTIONS``
(hyper-parameters, generator, scenario, the pre-training schedule behind
``pretrain_``, and ``RunnerConfig``), read by ``config.from_mapping`` with
the field's type. Each dataclass checks its own types and ranges when
built. A value that does not parse or lies out of range is a config error,
in one wording (``<key> out of range: <value> (want ...)``), and so is a
``--set`` key that names no field; a config error writes nothing, not even
the echo, and neither does a data error in an input file. A config file
may carry keys for other tools.

Exit codes are fixed for scripting: 0 success, 2 config/validation error,
3 data error, 4 numerical failure. An input file that cannot be opened (a
missing one, a directory) is a data error, or a config error for ``--config``;
an output path that cannot be written is a config error, found before any work.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import HyperParams, apply_overrides, check_ranges, from_mapping, parse_kv_file
from .engine import MOMENTUM_RULE, Engine, calibrated_kflops_per_frame, read_trace_csv
from .engine import run_baseline_frozen, run_baseline_smoothed, write_trace_csv, write_trace_jsonl
from .errors import ConfigError, DataError, NumericalError, OapError
from .head import PRETRAIN_PREFIX, PretrainSchedule, load_head, save_head
from .memory import ReplayStore, first_bad_frame
from .metrics import MetricReport, check_both_classes, evaluate_frames
from .presets import DESK_FRAMES_PER_USER, DESK_LEARNING_RATE, DESK_N_USERS, carve_replay, fit_head
from .simstream import N_USERS_RULE, GeneratorConfig, StreamScenario, generate_pretraining_set
from .simstream import generate_stream, load_feature_file, save_feature_file, save_labeled_set
from .simstream import scenario_from_mapping

MODES = ("oap", "frozen", "ema")
SWEEP_AXES = ("finetune_freq", "margin", "online_prob", "replay_size")


@dataclass(frozen=True)
class RunnerConfig:
    """The runner's own keys: the engine of ``run``, the number of seeds
    (streams for ``generate``, runs per stream or grid point otherwise), the
    ``ema`` baseline's momentum and the size of the generated training set."""

    mode: str = "oap"
    seeds: int = 1
    ema_momentum: float = 0.9
    n_users: int = DESK_N_USERS
    frames_per_user: int = DESK_FRAMES_PER_USER

    def __post_init__(self) -> None:
        check_ranges(self, (
            ("mode", MODES.__contains__, f"one of {MODES}"),
            ("seeds", lambda v: v >= 1, "seeds >= 1"),
            ("ema_momentum", *MOMENTUM_RULE),
            ("n_users", *N_USERS_RULE),
            ("frames_per_user", lambda v: v >= 2, "frames_per_user >= 2"),
        ))


# Every config key is a field of one of these dataclasses behind its prefix.
_SECTIONS = (
    (HyperParams, ""),
    (GeneratorConfig, ""),
    (StreamScenario, ""),
    (PretrainSchedule, PRETRAIN_PREFIX),
    (RunnerConfig, ""),
)
_KNOWN_KEYS = {prefix + f.name for cls, prefix in _SECTIONS for f in dataclasses.fields(cls)}


def _entries(obj, prefix: str = "") -> dict[str, str]:
    """The fields of dataclass ``obj`` as config entries."""
    return {prefix + f.name: str(getattr(obj, f.name)) for f in dataclasses.fields(obj)}


_DEFAULTS = {
    "segments": "live:900,spoof:900",
    "user_id": "0",
    "frame_rate": "30.0",
    "learning_rate": repr(DESK_LEARNING_RATE),
    **_entries(RunnerConfig()),
    **_entries(PretrainSchedule(), PRETRAIN_PREFIX),
}


def resolve_mapping(args) -> dict[str, str]:
    """Defaults, then the config file, then ``--set`` overrides. A config
    file may carry keys for other tools; an override must name a known key."""
    mapping = dict(_DEFAULTS)
    if args.config:
        mapping.update(parse_kv_file(args.config))
    overrides = apply_overrides({}, args.set or [])
    for key in overrides:
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config key {key!r} in --set")
    mapping.update(overrides)
    return mapping


def echo_config(mapping: dict[str, str], out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "resolved.cfg"
    lines = [f"{key} = {mapping[key]}" for key in sorted(mapping)]
    path.write_text("\n".join(lines) + "\n")
    return path


def _check_outputs(args) -> None:
    """A ConfigError for an output path that cannot be written: ``--out`` a directory or a
    path ``mkdir`` can make one, ``report --out`` and ``--save-head`` a file in a directory."""
    files = [args.out] if args.command == "report" else [getattr(args, "save_head", None)]
    for path in map(Path, filter(None, files)):
        if path.is_dir() or not path.parent.is_dir():
            raise ConfigError(f"{path}: not a file in an existing directory")
    out = Path(args.out)
    nearest = next(p for p in (out, *out.parents) if p.exists() or p.is_symlink())
    if args.command != "report" and not nearest.is_dir():
        raise ConfigError(f"{out}: not a directory, and no directory can be made there")


def cmd_generate(args) -> int:
    mapping = resolve_mapping(args)
    generator = from_mapping(GeneratorConfig(), mapping)
    scenario = scenario_from_mapping(mapping)
    runner = from_mapping(RunnerConfig(), mapping)
    seeded = [dataclasses.replace(generator, seed=generator.seed + i) for i in range(runner.seeds)]
    out_dir = Path(args.out)
    echo_config(mapping, out_dir)

    feats, labels = generate_pretraining_set(generator, runner.n_users, runner.frames_per_user)
    train_path = out_dir / "train.oapf"
    save_labeled_set(train_path, feats, labels, scenario.frame_rate)
    print(f"{train_path} rows={len(feats)}")

    for stream_generator in seeded:
        frames, hidden = generate_stream(stream_generator, scenario)
        path = out_dir / f"stream_seed{stream_generator.seed}.oapf"
        save_feature_file(path, frames.features, frames.frame_indices, frames.times,
                          labels=hidden, frame_rate=scenario.frame_rate)
        print(f"{path} rows={len(frames)}")
    return 0


def cmd_pretrain(args) -> int:
    mapping = resolve_mapping(args)
    params = from_mapping(HyperParams(), mapping)
    schedule = from_mapping(PretrainSchedule(), mapping, PRETRAIN_PREFIX)
    data = load_feature_file(args.train)
    if data.labels is None:
        raise DataError(f"{args.train}: pre-training data must be labeled")

    head, replay, accuracy = fit_head(
        data.features, data.labels, params.seed, params.replay_size, schedule
    )
    out_dir = Path(args.out)
    echo_config(mapping, out_dir)
    head_path = out_dir / "head.oaph"
    save_head(head, head_path)
    replay_path = out_dir / "replay.oapf"
    replay.save(replay_path, frame_rate=data.frame_rate)
    print(f"{head_path} d={head.d}")
    print(f"{replay_path} rows={len(replay)}")
    print(f"train_accuracy={accuracy:.4f}")
    return 0


def _check_dimension(path, what: str, features, head) -> None:
    """A DataError naming ``path`` unless its ``features`` are as wide as the head's."""
    if (d := features.shape[1]) != head.d:
        raise DataError(f"{path}: {what} dimension {d} != head dimension {head.d}")


def _read_stream(path, head):
    """Load a stream file and check, before anything is written, that it
    has the head's dimension, a frame, and frames in order (see
    ``first_bad_frame``). A DataError names the file, and any bad row, from
    1, with the engine's reason."""
    data = load_feature_file(path)
    _check_dimension(path, "stream", data.features, head)
    if not len(data.features):
        raise DataError(f"{path}: empty stream")
    fault = first_bad_frame(data.frame_indices, data.times)
    if fault is not None:
        k, reason = fault
        raise DataError(f"{path}: row {k + 1}: {reason}")
    return data


def _run_mode(runner, head, replay, params, data, save_head_path):
    frames, truth = data.to_frames(), data.labels
    if runner.mode == "frozen":
        return run_baseline_frozen(
            head, frames, ground_truth=truth, eval_threshold=params.eval_threshold
        )
    if runner.mode == "ema":
        return run_baseline_smoothed(
            head, frames, runner.ema_momentum, ground_truth=truth,
            eval_threshold=params.eval_threshold,
        )
    engine = Engine(head, replay, params)
    trace = engine.run_stream(frames, ground_truth=truth)
    if save_head_path:
        save_head(engine.head, save_head_path)
    return trace


def _summarize(reports: list[MetricReport], out_dir: Path) -> None:
    summary = {}
    for field in ("apcer", "bpcer", "acer", "eer"):
        values = [getattr(r, field) for r in reports]
        summary[f"{field}_mean"] = float(np.mean(values))
        summary[f"{field}_std"] = float(np.std(values))
    (out_dir / "metrics_summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"acer_mean={summary['acer_mean']:.6f} acer_std={summary['acer_std']:.6f}")


def cmd_run(args) -> int:
    mapping = resolve_mapping(args)
    if args.mode:
        mapping["mode"] = args.mode
    if args.seeds is not None:
        mapping["seeds"] = str(args.seeds)
    runner = from_mapping(RunnerConfig(), mapping)
    params = from_mapping(HyperParams(), mapping)
    seeded = [params.replace(seed=params.seed + i) for i in range(runner.seeds)]
    if args.save_head and (runner.mode != "oap" or len(args.stream) != 1 or runner.seeds != 1):
        raise ConfigError("--save-head needs mode oap, exactly one stream and seeds=1")
    stems = [Path(path).stem for path in args.stream]
    for stem in stems:
        if stems.count(stem) > 1:  # its traces would overwrite each other's
            raise ConfigError(f"two --stream files share the stem {stem!r}")

    head = load_head(args.head)
    if args.replay:
        replay = ReplayStore.load(args.replay)
        _check_dimension(args.replay, "replay", replay.features, head)
    else:
        replay = ReplayStore(np.zeros((0, head.d)), np.zeros(0, dtype=np.int64))
    streams = [(stem, _read_stream(path, head)) for stem, path in zip(stems, args.stream)]
    labeled = [data.labels for _, data in streams if data.labels is not None]
    if labeled:
        check_both_classes(np.concatenate(labeled))
    out_dir = Path(args.out)
    echo_config(mapping, out_dir)

    reports = []
    for run_params in seeded:
        scores, truth = [], []
        for stem, data in streams:
            trace = _run_mode(runner, head, replay, run_params, data, args.save_head)
            write_trace_csv(out_dir / f"trace_seed{run_params.seed}_{stem}.csv", trace)
            write_trace_jsonl(out_dir / f"trace_seed{run_params.seed}_{stem}.jsonl", trace)
            if data.labels is not None:
                scores += trace.columns.y
                truth.extend(data.labels.tolist())
        if truth:
            report = evaluate_frames(scores, truth, params.eval_threshold)
            report.save(out_dir / f"metrics_seed{run_params.seed}.json")
            reports.append(report)
    if reports:
        _summarize(reports, out_dir)
    else:
        print("streams carry no labels: traces written, metrics skipped")
    return 0


def cmd_sweep(args) -> int:
    mapping = resolve_mapping(args)
    if args.seeds is not None:
        mapping["seeds"] = str(args.seeds)
    base_params = from_mapping(HyperParams(), mapping)
    runner = from_mapping(RunnerConfig(), mapping)
    values = [v for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("empty sweep value list")
    grid = [from_mapping(base_params, {args.axis: v}) for v in values]
    seeded = [[p.replace(seed=p.seed + i) for i in range(runner.seeds)] for p in grid]

    head = load_head(args.head)
    train = load_feature_file(args.train)
    if train.labels is None:
        raise DataError(f"{args.train}: sweep needs labeled pre-training data")
    _check_dimension(args.train, "pre-training", train.features, head)
    stream = _read_stream(args.stream, head)
    if stream.labels is None:
        raise DataError(f"{args.stream}: sweep needs a labeled stream")
    check_both_classes(stream.labels)
    frames = stream.to_frames()

    rows = []
    for params, runs in zip(grid, seeded):
        value = getattr(params, args.axis)
        replay = carve_replay(train.features, train.labels, params.replay_size, params.seed)
        acers = []
        for run_params in runs:
            trace = Engine(head, replay, run_params).run_stream(frames)
            report = evaluate_frames(trace.columns.y, stream.labels, params.eval_threshold)
            acers.append(report.acer)
        row = {"value": value, "acer_mean": float(np.mean(acers)), "acer_std": float(np.std(acers))}
        if args.axis == "finetune_freq":
            row["kflops_per_frame"] = calibrated_kflops_per_frame(params)
        if args.axis == "replay_size":
            row["replay_bytes"] = value * (head.d + 1) * 8
        rows.append(row)

    out_dir = Path(args.out)
    mapping["sweep_axis"] = args.axis
    mapping["sweep_values"] = args.values
    echo_config(mapping, out_dir)
    columns = list(rows[0])
    table_path = out_dir / f"sweep_{args.axis}.csv"
    with open(table_path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in columns) + "\n")
    print(table_path)
    for row in rows:
        print("  " + "  ".join(f"{c}={row[c]}" for c in columns))
    return 0


def cmd_report(args) -> int:
    traces = [read_trace_csv(path) for path in args.trace]
    lengths = {len(t) for t in traces}
    if len(lengths) != 1:
        raise DataError(f"trace lengths differ: {sorted(lengths)}")
    first = traces[0].columns
    for path, trace in zip(args.trace[1:], traces[1:]):
        for column in ("frame_index", "ground_truth"):
            if getattr(trace.columns, column) != getattr(first, column):
                raise DataError(f"{path}: {column} differs from {args.trace[0]}")
    # A row per frame, reduced as its 1-D column would be: a reduction over
    # axis 0 of the (traces, frames) array gives other bits from 8 traces on.
    ys = np.ascontiguousarray(np.array([t.columns.y for t in traces]).T)
    rows = zip(first.frame_index, first.ground_truth, ys.mean(axis=1).tolist(),
               ys.std(axis=1).tolist())
    out = Path(args.out)
    with open(out, "w") as fh:
        fh.write("frame_index,ground_truth,y_mean,y_std,n_traces\n")
        fh.writelines(f"{i},{'' if g is None else g},{m!r},{s!r},{len(traces)}\n"
                      for i, g, m, s in rows)
    print(out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``oap`` parser, built once per process: parsing leaves it as
    it was, and each call's repeatable options start from no list."""
    parser = argparse.ArgumentParser(
        prog="oap",
        description="Streaming per-frame classification with online adaptive personalization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry (repeatable)")
        if out:
            p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("generate", help="write pre-training and stream feature files")
    common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("pretrain", help="train a head and carve the replay store")
    common(p)
    p.add_argument("--train", required=True, help="labeled feature file")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("run", help="run a stream through oap / frozen / ema")
    common(p)
    p.add_argument("--head", required=True)
    p.add_argument("--replay", help="replay store file (omit to run replay-free)")
    p.add_argument("--stream", action="append", required=True,
                   help="stream feature file (repeatable; metrics pool over all)")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--seeds", type=int)
    p.add_argument("--save-head", help="write the adapted head (one stream, seeds=1)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="ablate one hyper-parameter axis")
    common(p)
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.add_argument("--head", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--stream", required=True)
    p.add_argument("--seeds", type=int)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="merge per-seed traces into plot-ready CSV")
    p.add_argument("--trace", action="append", required=True, help="trace CSV (repeatable)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except OapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
