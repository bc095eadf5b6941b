"""The benchmark's three workloads and their output checks.

Every workload drives the package from outside through two entry points:
``Engine(head, replay, params).process_frame`` for the engine workloads and
``oap.cli.main([...])`` for the CLI workload. The loop is closed and runs in
one thread: the next frame (or CLI call) starts only when the previous
verdict has returned.

Inputs come from the workload seed alone. For seed ``s`` the engine
workloads use ``build_artifacts(s)``, ``desk_params(s)`` and the continual
streams of held-out users 0..n-1; the CLI workload writes the same
continual layout for generator seeds s..s+n-1 with ``oap generate`` and
trains with ``oap pretrain``, both with ``--set seed=s``. More streams per
seed average out how much one user's stream fills the buffer, which moves
the cost per frame from seed to seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import oap
import oap.cli
import oap.engine
import oap.memory
import oap.presets
import oap.simstream
from oap import AdamState, ClassifierHead, Engine, NumericalError, OnlineBuffer, ReplayStore
from oap.config import PseudoLabel
from oap.metrics import fixed_threshold_metrics

from spans import Tracer

SETUP_REPEATS = 3
TRACED_REPEATS = 2
TRACED_STREAMS = 2
CONTINUAL_SEGMENTS = "live:900,spoof:900,live:900,spoof:900"
CLI_MODES = ("frozen", "ema")

# Span names of the traced run, grouped by how the per-layer metrics report
# them. ``patch_layers`` / ``patch_setup`` record these names, ``run.py``
# builds the metrics from the groups and ``selftest.py`` checks against them.
ROOT_SPANS = ("engine.process_frame", "cli.run")  # the only spans without a parent
CALL_COUNTED = (
    "head.forward", "head.loss_and_grad", "head.apply_update", "head.snapshot",
    "pseudolabel.assign", "pseudolabel.smooth_labels", "memory.insert", "memory.evict_old",
    "memory.refresh", "memory.sample_batch",
)  # -> <name>.calls
SELF_TIME_LAYERS = CALL_COUNTED + (
    "memory.features_matrix", "engine.process_frame", "engine.baseline_frozen",
    "engine.baseline_ema",
)  # -> <name>.self_us_per_frame
WHOLE_SPANS = (
    "memory.replay_load", "engine.write_trace_csv", "engine.write_trace_jsonl",
    "simstream.load_feature_file", "metrics.evaluate_frames",
)  # no traced children -> <name>.ms, time per call
SETUP_SPANS = (
    "head.pretrain", "memory.subsample_pretraining", "simstream.generate_stream",
    "simstream.generate_pretraining_set", "simstream.save_feature_file",
)  # -> <name>.ms, time per call in the traced set-up
COUNTERS = (
    "head.apply_update.rejected", "pseudolabel.smooth_labels.entries",
    "pseudolabel.smooth_flips", "memory.evicted_entries", "memory.features_matrix.rows",
    "engine.finetune_events", "engine.trace_bytes", "simstream.load_feature_file.rows",
)  # exact counts kept by the wrappers
TRAINING_AND_BUFFER = (
    "head.loss_and_grad", "head.apply_update", "head.snapshot", "memory.insert",
    "memory.evict_old", "memory.refresh", "memory.sample_batch", "memory.features_matrix",
    "pseudolabel.smooth_labels",
)  # zero calls on cli_scoring


class Checks:
    """Output checks of one run. Each frame or CLI call is one operation;
    each whole-run check is one more."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def ops(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{what}: {failed} of {attempted} failed")

    def check(self, ok: bool, what: str) -> None:
        self.ops(1, 0 if ok else 1, what)


def quantile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def latency_summary(clock, frames_per_sample) -> dict:
    """End-to-end figures from the durations in ``clock``: each sample
    covers ``frames_per_sample`` frames (1 for a frame, a stream for a CLI
    call). Rates and percentiles are normalized; raw ones are kept too.
    With no samples (the first operation failed) every figure reads 0."""
    if clock.raw().size == 0:
        names = ("frames_per_s", "frame_p50_us", "frame_p99_us")
        return {**{f"{kind}{n}": 0.0 for kind in ("", "raw_") for n in names},
                "samples": 0, "samples_above_p99": 0, "frames": 0, "measured_s": 0.0,
                "kernel_factor_median": 0.0}
    out = {}
    for kind, ns in (("", clock.normalized()), ("raw_", clock.raw())):
        per_frame_us = ns / frames_per_sample / 1e3
        p99 = quantile(per_frame_us, 99)
        out.update({
            f"{kind}frames_per_s": per_frame_us.size * frames_per_sample / (ns.sum() / 1e9),
            f"{kind}frame_p50_us": quantile(per_frame_us, 50),
            f"{kind}frame_p99_us": p99,
        })
        if not kind:
            out["samples"] = int(per_frame_us.size)
            out["samples_above_p99"] = int(np.count_nonzero(per_frame_us > p99))
    out["frames"] = int(clock.raw().size * frames_per_sample)
    out["measured_s"] = float(clock.raw().sum() / 1e9)
    out["kernel_factor_median"] = float(np.median(clock.factors()))
    return out


def sha256_files(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Layers seen by the traced pass
# ---------------------------------------------------------------------------


def _count_accepted(counts, args, result, state):
    counts["pseudolabel.accepted"] += int(result) != int(PseudoLabel.DISCARD)


def _count_finetuned(counts, args, result, state):
    counts["engine.finetune_events"] += bool(result.finetuned_this_frame)


def _count_rejected(counts, exc):
    if isinstance(exc, NumericalError):
        counts["head.apply_update.rejected"] += 1


def _count_smoothed(counts, args, result, state):
    raw = np.asarray(args[1])
    counts["pseudolabel.smooth_labels.entries"] += raw.shape[0]
    counts["pseudolabel.smooth_flips"] += int(np.count_nonzero(np.asarray(result) != raw))


def _len_before(args):
    return len(args[0])


def _count_evicted(counts, args, result, state):
    counts["memory.evicted_entries"] += state - len(args[0])


def _count_rows(counts, args, result, state):
    counts["memory.features_matrix.rows"] += result.shape[0]


def _count_file_rows(counts, args, result, state):
    counts["simstream.load_feature_file.rows"] += result.features.shape[0]


def _count_bytes(counts, args, result, state):
    counts["engine.trace_bytes"] += os.path.getsize(args[0])


def _online_slot_counter():
    # A batch row is a replay row iff its first feature value is one of the
    # replay store's (the store is immutable; stream and pre-training
    # features are continuous draws, so values never coincide).
    replay_keys: dict[int, frozenset] = {}

    def count(counts, args, result, state):
        replay = args[1]
        keys = replay_keys.get(id(replay))
        if keys is None:
            keys = replay_keys[id(replay)] = frozenset(replay.features[:, 0].tolist())
        first = result[0][:, 0].tolist()
        counts["memory.sample_batch.slots"] += len(first)
        counts["memory.sample_batch.online_slots"] += sum(v not in keys for v in first)

    return count


def patch_layers(tracer: Tracer) -> None:
    """Wrap every per-frame layer of the engine and of ``oap run``."""
    e, cli = oap.engine, oap.cli
    tracer.patch(Engine, "process_frame", "engine.process_frame", op_arg=2, after=_count_finetuned)
    tracer.patch(e, "forward", "head.forward")
    tracer.patch(e, "assign_pseudo_label", "pseudolabel.assign", after=_count_accepted)
    tracer.patch(e, "sample_batch", "memory.sample_batch", after=_online_slot_counter())
    tracer.patch(e, "loss_and_grad", "head.loss_and_grad")
    tracer.patch(e, "apply_update", "head.apply_update", on_error=_count_rejected)
    tracer.patch(oap.memory, "smooth_labels", "pseudolabel.smooth_labels", after=_count_smoothed)
    tracer.patch(OnlineBuffer, "insert", "memory.insert")
    tracer.patch(OnlineBuffer, "evict_old", "memory.evict_old", before=_len_before, after=_count_evicted)
    tracer.patch(OnlineBuffer, "refresh_working_labels", "memory.refresh")
    tracer.patch(OnlineBuffer, "features_matrix", "memory.features_matrix", after=_count_rows)
    tracer.patch(ClassifierHead, "copy", "head.snapshot")
    tracer.patch(AdamState, "copy", "head.snapshot")
    tracer.patch(cli, "main", "cli.run")
    tracer.patch(cli, "load_feature_file", "simstream.load_feature_file", after=_count_file_rows)
    tracer.patch(ReplayStore, "load", "memory.replay_load")
    tracer.patch(cli, "run_baseline_frozen", "engine.baseline_frozen")
    tracer.patch(cli, "run_baseline_smoothed", "engine.baseline_ema")
    tracer.patch(cli, "write_trace_csv", "engine.write_trace_csv", after=_count_bytes)
    tracer.patch(cli, "write_trace_jsonl", "engine.write_trace_jsonl", after=_count_bytes)
    tracer.patch(cli, "evaluate_frames", "metrics.evaluate_frames")


def patch_setup(tracer: Tracer) -> None:
    """Wrap the set-up calls of both ``build_artifacts`` and the CLI's
    ``generate`` / ``pretrain`` commands."""
    s, p, cli = oap.simstream, oap.presets, oap.cli
    for owner in (s, cli):
        tracer.patch(owner, "generate_pretraining_set", "simstream.generate_pretraining_set")
        tracer.patch(owner, "generate_stream", "simstream.generate_stream")
        tracer.patch(owner, "save_feature_file", "simstream.save_feature_file")
    for owner in (p, cli):
        tracer.patch(owner, "pretrain", "head.pretrain")
        tracer.patch(owner, "subsample_pretraining", "memory.subsample_pretraining")
    tracer.patch(cli, "load_feature_file", "simstream.load_feature_file")
    tracer.patch(cli, "main", "cli.setup")


def merge_tables(total: dict, table: dict) -> None:
    for name, row in table.items():
        acc = total.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        for key in acc:
            acc[key] += row[key]


# ---------------------------------------------------------------------------
# Engine workloads
# ---------------------------------------------------------------------------


class EngineWorkload:
    """``process_frame`` over the continual streams of ``streams`` users,
    with ``finetune_freq`` as the only change from ``desk_params``."""

    def __init__(self, name: str, finetune_freq: float, streams: int) -> None:
        self.name = name
        self.finetune_freq = finetune_freq
        self.streams = streams

    def params(self, seed: int):
        return oap.desk_params(seed, finetune_freq=self.finetune_freq)

    def setup(self, seed: int, workdir: Path):
        art = oap.build_artifacts(seed)
        streams = [
            oap.simstream.generate_stream(art.generator, oap.continual_scenario(user_id=u))
            for u in range(self.streams)
        ]
        return art, streams

    @staticmethod
    def setup_digest(setup) -> str:
        art, streams = setup
        digest = hashlib.sha256()
        for arr in art.head.params().values():
            digest.update(arr.tobytes())
        digest.update(art.replay.fingerprint().encode())
        for frames, truth in streams:
            digest.update(np.stack([f.feature for f in frames]).tobytes())
            digest.update(truth.tobytes())
        return digest.hexdigest()

    def reference(self, seed: int, setup, workdir: Path, checks: Checks) -> dict:
        """Fresh ``run_stream`` per stream: the verdicts every timed and
        traced pass must reproduce, the trace fingerprint and the ACER."""
        art, streams = setup
        params = self.params(seed)
        bound = math.ceil(params.eviction_horizon * params.frame_rate)
        traces, paths = [], []
        for k, (frames, truth) in enumerate(streams):
            trace = Engine(art.head, art.replay, params).run_stream(frames, ground_truth=truth)
            path = workdir / f"reference_user{k}.csv"
            oap.engine.write_trace_csv(path, trace)
            traces.append(trace)
            paths.append(path)
            bad = sum(
                (r.y > params.eval_threshold) != bool(r.decision) or r.buffer_size > bound
                for r in trace
            )
            flops = [r.cumulative_flops for r in trace]
            bad += sum(b < a for a, b in zip(flops, flops[1:]))
            checks.ops(len(trace), bad, f"reference trace invariants, user {k}")
        ys = [r.y for t in traces for r in t]
        truth = np.concatenate([s[1] for s in streams])
        sizes = [r.buffer_size for t in traces for r in t]
        return {
            "y": [[r.y for r in t] for t in traces],
            "decision": [[int(r.decision) for r in t] for t in traces],
            "finetuned": [[r.finetuned for r in t] for t in traces],
            "fingerprint": sha256_files(paths),
            "acer": fixed_threshold_metrics(ys, truth, params.eval_threshold)[2],
            "frames": len(ys),
            "buffer_len_mean": float(np.mean(sizes)),
            "buffer_len_max": int(max(sizes)),
            "buffer_bound": bound,
        }

    def _pass(self, seed, setup, k, ref, checks, clock, budget_ns=None) -> tuple[int, int, bool]:
        """Process stream ``k`` with a fresh engine, timing each
        ``process_frame`` call into ``clock``; return (frames, measured ns,
        whether a frame raised). Stops once ``budget_ns`` has been measured
        or at the first frame that raises. Verdicts are checked against the
        reference after the last frame."""
        art, streams = setup
        frames = streams[k][0]
        ys, fts, decs = [], [], []
        raised = used = 0
        budget = budget_ns if budget_ns is not None else float("inf")
        engine = Engine(art.head, art.replay, self.params(seed))
        try:
            for f in frames:
                t0 = perf_counter_ns()
                v = engine.process_frame(f.feature, f.frame_index, f.time)
                t1 = perf_counter_ns()
                clock.add(t1 - t0, t1)
                used += t1 - t0
                ys.append(v.y)
                fts.append(v.finetuned_this_frame)
                decs.append(int(v.decision))
                if used >= budget:
                    break
        except Exception as exc:  # a frame that raised is a failed operation
            raised = 1
            checks.failures.append(f"user {k} frame {len(ys) + 1}: {exc!r}")
        n = len(ys)
        bad = 0
        if ys != ref["y"][k][:n] or fts != ref["finetuned"][k][:n] or decs != ref["decision"][k][:n]:
            bad = sum(
                a != b or c != d or e != g
                for a, b, c, d, e, g in zip(
                    ys, ref["y"][k], fts, ref["finetuned"][k], decs, ref["decision"][k]
                )
            )
        checks.ops(n + raised, bad + raised, f"verdicts equal to run_stream, user {k}")
        return n, used, bool(raised)

    def timed(self, seed, setup, ref, seconds, checks, clock) -> dict:
        budget = int(seconds * 1e9)
        spent = k = 0
        while spent < budget:
            n, ns, raised = self._pass(seed, setup, k % self.streams, ref, checks, clock,
                                       budget - spent)
            if raised or n == 0:  # a broken stream would otherwise never spend the budget
                break
            spent += ns
            k += 1
        clock.finish()
        return latency_summary(clock, 1)

    def one_pass(self, seed, setup, ref, checks, clock, tracer=None) -> int:
        """One repeat of the traced run's fixed work: the first
        ``TRACED_STREAMS`` streams once. Returns the number of frames."""
        frames = 0
        for k in range(TRACED_STREAMS):
            if tracer is not None:
                tracer.stream = k
            n, _, raised = self._pass(seed, setup, k, ref, checks, clock)
            frames += n
            if raised:
                break
        return frames


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------


def _rows(path: Path) -> int:
    """Data rows of a feature file (all lines but the header)."""
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def call_cli(argv: list[str]) -> int | str:
    """``oap.cli.main`` with its console output captured, as a script
    piping it somewhere would see it. Returns the exit code, or the repr of
    an exception ``main`` let through (a failed call, like a non-zero
    exit)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return oap.cli.main(argv)
        except Exception as exc:
            return repr(exc)


class CliWorkload:
    """``oap run --mode frozen`` and ``--mode ema`` on each stream that
    ``oap generate`` wrote, with the head and replay store of ``oap
    pretrain``."""

    name = "cli_scoring"
    streams = 2

    def setup(self, seed: int, workdir: Path):
        out = workdir / "setup"
        shutil.rmtree(out, ignore_errors=True)
        rc_gen = call_cli([
            "generate", "--out", str(out), "--set", f"seed={seed}",
            "--set", f"segments={CONTINUAL_SEGMENTS}", "--set", f"seeds={self.streams}",
        ])
        rc_pre = call_cli([
            "pretrain", "--out", str(out), "--train", str(out / "train.oapf"),
            "--set", f"seed={seed}",
        ])
        streams = [out / f"stream_seed{seed + i}.oapf" for i in range(self.streams)]
        return {"dir": out, "workdir": workdir, "rc": (rc_gen, rc_pre), "streams": streams}

    @staticmethod
    def setup_digest(setup) -> str:
        out = setup["dir"]
        files = ["train.oapf", "head.oaph", "replay.oapf"] + [p.name for p in setup["streams"]]
        if setup["rc"] != (0, 0) or not all((out / f).is_file() for f in files):
            return f"failed: exit codes {setup['rc']}"
        return sha256_files(out / f for f in files)

    def _call(self, seed, setup, mode, k, checks, clock=None, expect=None):
        """One ``oap run``, timed into ``clock``; returns (measured ns, csv
        path, whether the call succeeded). Outputs are checked after the
        call; a call that raises is a failed operation."""
        stream = setup["streams"][k]
        out = setup["workdir"] / f"run_{mode}_{k}"
        shutil.rmtree(out, ignore_errors=True)
        argv = [
            "run", "--out", str(out), "--mode", mode, "--set", f"seed={seed}",
            "--head", str(setup["dir"] / "head.oaph"),
            "--replay", str(setup["dir"] / "replay.oapf"), "--stream", str(stream),
        ]
        start = perf_counter_ns()
        rc = call_cli(argv)
        end = perf_counter_ns()
        if clock is not None:
            clock.add(end - start, end)
        csv = out / f"trace_seed{seed}_{stream.stem}.csv"
        written = [
            "resolved.cfg", csv.name, f"trace_seed{seed}_{stream.stem}.jsonl",
            f"metrics_seed{seed}.json", "metrics_summary.json",
        ]
        ok = rc == 0 and all((out / f).is_file() for f in written)
        if ok and expect is not None:
            ok = sha256_files([csv]) == expect[(mode, k)]
        checks.ops(1, 0 if ok else 1, f"oap run --mode {mode} stream {k} (exit {rc})")
        return end - start, csv, ok

    def reference(self, seed, setup, workdir, checks) -> dict:
        """One call per mode and stream: the CSV hashes every later call
        must reproduce, the fingerprint and the ACER of both modes."""
        setup["frames"] = [_rows(path) for path in setup["streams"]]
        checks.check(len(set(setup["frames"])) == 1, "all streams have the same length")
        hashes, paths, acers = {}, [], []
        for mode in CLI_MODES:
            ys, truth = [], []
            for k in range(self.streams):
                _, csv, ok = self._call(seed, setup, mode, k, checks)
                paths.append(csv)
                hashes[(mode, k)] = sha256_files([csv]) if ok else None
                trace = oap.engine.read_trace_csv(csv) if ok else []
                bad = sum((r.y > 0.5) != bool(r.decision) for r in trace)
                checks.ops(len(trace), bad, f"{mode} decisions agree with y > 0.5, stream {k}")
                ys += [r.y for r in trace]
                truth += [r.ground_truth for r in trace]
            acers.append(fixed_threshold_metrics(ys, truth, 0.5)[2] if ys else math.nan)
        return {
            "hashes": hashes,
            "fingerprint": sha256_files(p for p in paths if p.is_file()),
            "acer": float(np.mean(acers)),
            "acer_by_mode": dict(zip(CLI_MODES, acers)),
            "frames": len(CLI_MODES) * sum(setup["frames"]),
        }

    def _calls(self, streams):
        for k in range(streams):
            for mode in CLI_MODES:
                yield mode, k

    def timed(self, seed, setup, ref, seconds, checks, clock) -> dict:
        """Calls cycle through every (mode, stream) input. A call emits all
        its verdicts at its end, so there is no per-frame latency: p50 is
        the median over calls of call time per frame, and p99 is taken over
        the inputs, each at the median of its calls (the slowest input's
        typical cost), since ~40 calls give no 99th percentile of calls."""
        budget = int(seconds * 1e9)
        spent = 0
        inputs = []
        while spent < budget:
            for mode, k in self._calls(self.streams):
                ns, _, ok = self._call(seed, setup, mode, k, checks, clock, ref["hashes"])
                spent += ns
                inputs.append((mode, k))
                if spent >= budget or not ok:
                    break
            if not ok:
                break
        clock.finish()
        out = latency_summary(clock, setup["frames"][0])
        per_input: dict = {}
        for key, ns in zip(inputs, clock.normalized()):
            per_input.setdefault(key, []).append(ns / setup["frames"][0] / 1e3)
        medians = [float(np.median(v)) for v in per_input.values()]
        out["frame_p99_us"] = quantile(medians, 99)
        out["calls"] = int(clock.raw().size)
        out["samples"] = len(medians)
        out["samples_above_p99"] = sum(m > out["frame_p99_us"] for m in medians)
        return out

    def one_pass(self, seed, setup, ref, checks, clock, tracer=None) -> int:
        """One repeat of the traced run's fixed work: every mode on the
        first ``TRACED_STREAMS`` streams. Returns the number of frames."""
        for op, (mode, k) in enumerate(self._calls(TRACED_STREAMS)):
            if tracer is not None:
                tracer.stream, tracer.op = k, op
            self._call(seed, setup, mode, k, checks, clock, ref["hashes"])
        return len(CLI_MODES) * sum(setup["frames"][:TRACED_STREAMS])


WORKLOADS = {
    "continual_ff1": EngineWorkload("continual_ff1", 1.0, streams=4),
    "continual_sparse": EngineWorkload("continual_sparse", 0.05, streams=6),
    "cli_scoring": CliWorkload(),
}
