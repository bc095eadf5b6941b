"""Experiment runner: generate / pretrain / run / sweep / report.

Each subcommand reads an optional flat config file (``--config``) plus
``--set key=value`` overrides, echoes the fully resolved configuration
into the output directory (re-running from that echo reproduces outputs
bit-exactly), and writes machine-readable results.

Exit codes are fixed for scripting: 0 success, 2 config/validation error,
3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .config import (
    HyperParams,
    apply_overrides,
    hyperparams_from_mapping,
    parse_kv_file,
    validate,
)
from .engine import (
    Engine,
    calibrated_kflops_per_frame,
    run_baseline_frozen,
    run_baseline_smoothed,
    write_trace_csv,
    write_trace_jsonl,
    read_trace_csv,
)
from .errors import ConfigError, DataError, NumericalError, OapError
from .head import PretrainSchedule, forward_batch, init_head, load_head, pretrain, save_head
from .memory import ReplayStore, subsample_pretraining
from .metrics import MetricReport, evaluate_frames
from .presets import DESK_LEARNING_RATE
from .rng import seeded_rng
from .simstream import (
    GeneratorConfig,
    generate_pretraining_set,
    generate_stream,
    generator_from_mapping,
    load_feature_file,
    save_feature_file,
    save_stream_file,
    scenario_from_mapping,
)

MODES = ("oap", "frozen", "ema")
SWEEP_AXES = ("finetune_freq", "margin", "online_prob", "replay_size")

_DEFAULTS = {
    "segments": "live:900",
    "user_id": "0",
    "frame_rate": "30.0",
    "n_users": "20",
    "frames_per_user": "500",
    "mode": "oap",
    "seeds": "1",
    "ema_momentum": "0.9",
    "learning_rate": repr(DESK_LEARNING_RATE),
    "pretrain_iterations": "2000",
    "pretrain_batch_size": "128",
    "pretrain_learning_rate": "0.001",
    "pretrain_weight_decay": "0.001",
    "pretrain_decay_gamma": "0.8",
    "pretrain_decay_every": "1000",
}


def resolve_mapping(args) -> dict[str, str]:
    mapping = dict(_DEFAULTS)
    if args.config:
        mapping.update(parse_kv_file(args.config))
    return apply_overrides(mapping, args.set or [])


def echo_config(mapping: dict[str, str], out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "resolved.cfg"
    lines = [f"{key} = {mapping[key]}" for key in sorted(mapping)]
    path.write_text("\n".join(lines) + "\n")
    return path


def schedule_from_mapping(mapping: dict[str, str]) -> PretrainSchedule:
    try:
        return PretrainSchedule(
            iterations=int(mapping["pretrain_iterations"]),
            batch_size=int(mapping["pretrain_batch_size"]),
            learning_rate=float(mapping["pretrain_learning_rate"]),
            weight_decay=float(mapping["pretrain_weight_decay"]),
            decay_gamma=float(mapping["pretrain_decay_gamma"]),
            decay_every=int(mapping["pretrain_decay_every"]),
        )
    except ValueError as exc:
        raise ConfigError(f"bad pre-training schedule value: {exc}") from exc


def cmd_generate(args) -> int:
    mapping = resolve_mapping(args)
    out_dir = Path(args.out)
    echo_config(mapping, out_dir)
    generator = generator_from_mapping(mapping)
    scenario = scenario_from_mapping(mapping)
    n_seeds = int(mapping["seeds"])

    feats, labels = generate_pretraining_set(
        generator, int(mapping["n_users"]), int(mapping["frames_per_user"])
    )
    train_path = out_dir / "train.oapf"
    save_feature_file(
        train_path,
        feats,
        frame_indices=np.arange(1, len(feats) + 1),
        times=np.arange(len(feats)) / scenario.frame_rate,
        labels=labels,
        frame_rate=scenario.frame_rate,
    )
    print(f"{train_path} rows={len(feats)}")

    for i in range(n_seeds):
        seeded = dataclasses.replace(generator, seed=generator.seed + i)
        frames, hidden = generate_stream(seeded, scenario)
        path = out_dir / f"stream_seed{generator.seed + i}.oapf"
        save_stream_file(path, frames, labels=hidden, frame_rate=scenario.frame_rate)
        print(f"{path} rows={len(frames)}")
    return 0


def cmd_pretrain(args) -> int:
    mapping = resolve_mapping(args)
    out_dir = Path(args.out)
    echo_config(mapping, out_dir)
    params = validate(hyperparams_from_mapping(mapping))
    data = load_feature_file(args.train)
    if data.labels is None:
        raise DataError(f"{args.train}: pre-training data must be labeled")

    head = init_head(data.features.shape[1], seeded_rng(params.seed, "init"))
    pretrain(
        head,
        data.features,
        data.labels,
        schedule_from_mapping(mapping),
        seeded_rng(params.seed, "pretrain"),
    )
    accuracy = float(
        np.mean((forward_batch(head, data.features) > 0.5).astype(np.int64) == data.labels)
    )
    head_path = out_dir / "head.oaph"
    save_head(head, head_path)
    replay = subsample_pretraining(
        data.features, data.labels, params.replay_size, seeded_rng(params.seed, "replay")
    )
    replay_path = out_dir / "replay.oapf"
    replay.save(replay_path, frame_rate=data.frame_rate)
    print(f"{head_path} d={head.d}")
    print(f"{replay_path} rows={len(replay)}")
    print(f"train_accuracy={accuracy:.4f}")
    return 0


def _run_mode(mode, head, replay, params, data, momentum, save_head_path):
    frames, truth = data.to_frames(), data.labels
    if mode == "frozen":
        return run_baseline_frozen(
            head, frames, ground_truth=truth, eval_threshold=params.eval_threshold
        )
    if mode == "ema":
        return run_baseline_smoothed(
            head, frames, momentum, ground_truth=truth, eval_threshold=params.eval_threshold
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
    if args.seeds:
        mapping["seeds"] = str(args.seeds)
    mode = mapping["mode"]
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r} (want one of {MODES})")
    out_dir = Path(args.out)
    echo_config(mapping, out_dir)
    params = validate(hyperparams_from_mapping(mapping))
    momentum = float(mapping["ema_momentum"])
    n_seeds = int(mapping["seeds"])

    head = load_head(args.head)
    replay = ReplayStore.load(args.replay) if args.replay else ReplayStore(
        np.zeros((0, head.d)), np.zeros(0, dtype=np.int64)
    )
    if replay.d and replay.d != head.d:
        raise DataError(f"replay dimension {replay.d} != head dimension {head.d}")
    streams = []
    for path in args.stream:
        data = load_feature_file(path)
        if data.features.shape[1] != head.d:
            raise DataError(
                f"{path}: stream dimension {data.features.shape[1]} != head dimension {head.d}"
            )
        streams.append((Path(path).stem, data))
    if args.save_head and (mode != "oap" or len(streams) != 1 or n_seeds != 1):
        raise ConfigError("--save-head needs mode oap, exactly one stream and seeds=1")

    reports = []
    for i in range(n_seeds):
        run_params = params.replace(seed=params.seed + i)
        scores, truth = [], []
        for stem, data in streams:
            trace = _run_mode(mode, head, replay, run_params, data, momentum, args.save_head)
            write_trace_csv(out_dir / f"trace_seed{run_params.seed}_{stem}.csv", trace)
            write_trace_jsonl(out_dir / f"trace_seed{run_params.seed}_{stem}.jsonl", trace)
            if data.labels is not None:
                scores.extend(r.y for r in trace)
                truth.extend(data.labels)
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
    if args.seeds:
        mapping["seeds"] = str(args.seeds)
    if args.axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {args.axis!r} (want one of {SWEEP_AXES})")
    out_dir = Path(args.out)
    mapping["sweep_axis"] = args.axis
    mapping["sweep_values"] = args.values
    echo_config(mapping, out_dir)
    base_params = validate(hyperparams_from_mapping(mapping))
    n_seeds = int(mapping["seeds"])

    head = load_head(args.head)
    train = load_feature_file(args.train)
    if train.labels is None:
        raise DataError(f"{args.train}: sweep needs labeled pre-training data")
    stream = load_feature_file(args.stream)
    if stream.labels is None:
        raise DataError(f"{args.stream}: sweep needs a labeled stream")
    frames = stream.to_frames()

    try:
        values = [
            int(v) if args.axis == "replay_size" else float(v)
            for v in args.values.split(",")
            if v.strip()
        ]
    except ValueError as exc:
        raise ConfigError(f"bad sweep values {args.values!r}") from exc
    if not values:
        raise ConfigError("empty sweep value list")

    rows = []
    for value in values:
        params = validate(base_params.replace(**{args.axis: value}))
        replay = subsample_pretraining(
            train.features, train.labels, params.replay_size,
            seeded_rng(params.seed, "replay"),
        )
        acers = []
        for i in range(n_seeds):
            run_params = params.replace(seed=params.seed + i)
            trace = Engine(head, replay, run_params).run_stream(frames)
            report = evaluate_frames([r.y for r in trace], stream.labels, params.eval_threshold)
            acers.append(report.acer)
        row = {
            "value": value,
            "acer_mean": float(np.mean(acers)),
            "acer_std": float(np.std(acers)),
        }
        if args.axis == "finetune_freq":
            row["kflops_per_frame"] = calibrated_kflops_per_frame(params)
        if args.axis == "replay_size":
            row["replay_bytes"] = value * (head.d + 1) * 8
        rows.append(row)

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
    n = lengths.pop()
    ys = np.array([[r.y for r in t] for t in traces])
    out = Path(args.out)
    with open(out, "w") as fh:
        fh.write("frame_index,ground_truth,y_mean,y_std,n_traces\n")
        for j in range(n):
            truth = traces[0][j].ground_truth
            fh.write(
                f"{traces[0][j].frame_index},"
                f"{'' if truth is None else truth},"
                f"{float(ys[:, j].mean())!r},{float(ys[:, j].std())!r},{len(traces)}\n"
            )
    print(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
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
