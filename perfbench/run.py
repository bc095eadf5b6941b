"""Benchmark of the oap per-frame loop.

    python3 perfbench/run.py --workload continual_ff1 --seed 0 --seconds 10 --trace 0

Run from anywhere; it measures the package in ``src/`` next to this
directory and writes only under ``.bench_out/`` there. With ``--trace 0`` it
times the workload and prints the end-to-end metrics; with ``--trace 1`` it
runs untraced and traced passes in turn and prints the per-layer metrics.
Both modes check every output (see README.md). The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. A full report, with the environment record, goes to
``.bench_out/<workload>_seed<seed>_trace<0|1>.json``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the benchmark is one process and
# one thread, as the engine's contract is strictly sequential.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import json
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from calibration import Clock
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
FINGERPRINTS = HERE / "fingerprints.json"
BENCHMARK = ROOT / "BENCHMARK.json"

# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    """SHA-256 over the package sources, so a result names the code it
    measured even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "oap").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def recorded_fingerprint(workload: str, seed: int):
    try:
        table = json.loads(FINGERPRINTS.read_text())
    except (OSError, ValueError):
        return None
    return table.get(workload, {}).get(str(seed))


def timed_run(w, wl, seed, seconds, workdir, checks, report) -> tuple[dict, dict]:
    setup_clock, digests = Clock(), []
    for _ in range(w.SETUP_REPEATS):
        t0 = perf_counter_ns()
        setup = wl.setup(seed, workdir)
        t1 = perf_counter_ns()
        setup_clock.add(t1 - t0, t1)
        digests.append(wl.setup_digest(setup))
    setup_clock.finish()
    checks.check(len(set(digests)) == 1 and not digests[0].startswith("failed"),
                 f"set-up succeeds and repeats bit for bit: {digests}")
    ref = wl.reference(seed, setup, workdir, checks)
    # Peak RSS over a fixed amount of work: the set-ups and one reference
    # pass over every stream. The timed loop comes after, so the samples it
    # keeps (more when the program is faster) stay out of the figure.
    rss = peak_rss_mib()
    clock = Clock()
    timed = wl.timed(seed, setup, ref, seconds, checks, clock)
    report.update(reference={k: ref[k] for k in ("fingerprint", "acer", "frames")},
                  setup_s=(setup_clock.normalized() / 1e9).tolist(),
                  raw_setup_s=(setup_clock.raw() / 1e9).tolist(), timed=timed,
                  peak_rss_mib_at_end=peak_rss_mib(),
                  bench_sample_bytes=clock.retained_bytes())
    return {
        "frames_per_s": timed["frames_per_s"],
        "frame_p50_us": timed["frame_p50_us"],
        "frame_p99_us": timed["frame_p99_us"],
        "setup_s": float(np.median(setup_clock.normalized())) / 1e9,
        "peak_rss_mib": rss,
    }, ref


def traced_run(w, wl, seed, workdir, checks, report) -> tuple[dict, dict]:
    setup_tracer = Tracer()
    setup_clock = Clock()
    w.patch_setup(setup_tracer)
    try:
        t0 = perf_counter_ns()
        setup = wl.setup(seed, workdir)
        t1 = perf_counter_ns()
    finally:
        setup_tracer.unpatch()
    setup_clock.add(t1 - t0, t1)
    setup_clock.finish()
    checks.check(not wl.setup_digest(setup).startswith("failed"), "traced set-up succeeds")
    setup_table = setup_tracer.table()
    ref = wl.reference(seed, setup, workdir, checks)
    tracer = Tracer(roots=w.ROOT_SPANS)

    # Untraced and traced passes alternate, so the overhead share compares
    # neighbouring stretches of time.
    untraced, traced = Clock(), Clock()
    totals: dict = {}
    repeat_counts = []
    root_names: set = set()
    frames = [0, 0]
    unattributed = 0
    for _ in range(w.TRACED_REPEATS):
        frames[0] += wl.one_pass(seed, setup, ref, checks, untraced)
        measured_before = traced.raw().sum()
        tracer.clear()
        w.patch_layers(tracer)
        try:
            frames[1] += wl.one_pass(seed, setup, ref, checks, traced, tracer)
        finally:
            tracer.unpatch()
        table = tracer.table()
        w.merge_tables(totals, table)
        root_names.update(tracer.root_names())
        unattributed += int(traced.raw().sum() - measured_before) - tracer.root_ns()
        counts = {f"{name}.calls": row["calls"] for name, row in table.items()}
        counts.update(tracer.counts)
        repeat_counts.append(counts)
    untraced.finish()
    traced.finish()
    checks.check(all(c == repeat_counts[0] for c in repeat_counts),
                 "every count repeats exactly across traced repeats")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans_{wl.name}_seed{seed}.csv"
    tracer.write_csv(spans_path)

    untraced_fps = frames[0] / (untraced.normalized().sum() / 1e9)
    traced_fps = frames[1] / (traced.normalized().sum() / 1e9)
    metrics = layer_metrics(
        w, totals, repeat_counts[-1], setup_table, setup_clock.scale(), frames[1],
        traced.scale(), traced.raw().sum(), unattributed, ref,
    )
    metrics["trace.overhead_share"] = 1.0 - traced_fps / untraced_fps
    report.update(
        reference={k: ref[k] for k in ("fingerprint", "acer", "frames")},
        layers=totals, setup_layers=setup_table, counts_per_repeat=repeat_counts[-1],
        traced_frames=frames[1], traced_raw_ns=int(traced.raw().sum()),
        traced_scale=traced.scale(), unattributed_raw_ns=unattributed,
        untraced_frames=frames[0], untraced_frames_per_s=untraced_fps,
        traced_frames_per_s=traced_fps, root_names=sorted(root_names),
        missing_names=sorted(setup_tracer.missing | tracer.missing),
        spans_file=str(spans_path.relative_to(ROOT)),
    )
    return metrics, ref


def layer_metrics(w, totals, counts, setup_table, setup_scale, frames, scale, raw_ns,
                  unattributed, ref) -> dict:
    """Per-layer metrics of the traced passes, named by the span groups of
    ``workloads``. Times are raw span times rescaled by the traced passes'
    calibration (``scale``), or by the set-up calibration for set-up spans;
    counts are those of one traced repeat."""

    def self_us(name):
        return totals.get(name, {}).get("self_ns", 0) * scale / frames / 1e3

    def ms(name, table, scale, key="total_ns"):
        row = table.get(name)
        return row[key] * scale / row["calls"] / 1e6 if row else 0.0

    def share(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    out = {f"{name}.calls": counts.get(f"{name}.calls", 0) for name in w.CALL_COUNTED}
    out.update({f"{name}.self_us_per_frame": self_us(name) for name in w.SELF_TIME_LAYERS})
    out.update({f"{name}.ms": ms(name, totals, scale) for name in w.WHOLE_SPANS})
    out.update({f"{name}.ms": ms(name, setup_table, setup_scale) for name in w.SETUP_SPANS})
    out.update({name: counts.get(name, 0) for name in w.COUNTERS})
    out.update({
        "pseudolabel.accepted_share": share("pseudolabel.accepted", "pseudolabel.assign.calls"),
        "memory.buffer_len_mean": ref.get("buffer_len_mean", 0.0),
        "memory.buffer_len_max": ref.get("buffer_len_max", 0),
        "memory.sample_batch.online_share": share(
            "memory.sample_batch.online_slots", "memory.sample_batch.slots"),
        "engine.rollback_share": share("head.apply_update.rejected", "head.apply_update.calls"),
        "cli.run.self_ms": ms("cli.run", totals, scale, key="self_ns"),
        "trace.wall_us_per_frame": raw_ns * scale / frames / 1e3,
        "trace.bookkeeping_us_per_frame": self_us("trace.bookkeeping"),
        "trace.unattributed_us_per_frame": unattributed * scale / frames / 1e3,
        "quality.acer": ref["acer"],
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "oap" / "__init__.py").is_file():
        print(f"error: the oap package is not at {SRC / 'oap'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import oap

    if Path(oap.__file__).resolve().parent != (SRC / "oap").resolve():
        print(f"error: imported oap from {oap.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads as w

    if args.workload not in w.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (want one of {sorted(w.WORKLOADS)})",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: want --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    wl = w.WORKLOADS[args.workload]

    report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(), "load_start": os.getloadavg()}
    checks = w.Checks()
    workdir = OUT / f"work_{wl.name}_seed{args.seed}_{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            values, ref = traced_run(w, wl, args.seed, workdir, checks, report)
        else:
            values, ref = timed_run(w, wl, args.seed, args.seconds, workdir, checks, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    recorded = recorded_fingerprint(wl.name, args.seed)
    bits_changed = None if recorded is None else int(recorded != ref["fingerprint"])
    values["trace_bits_changed"] = -1 if bits_changed is None else bits_changed
    declared = json.loads(BENCHMARK.read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    report.update(
        load_end=os.getloadavg(), trace_bits_changed=bits_changed,
        recorded_fingerprint=recorded, attempted=checks.attempted, failed=checks.failed,
        failed_share=checks.failed / max(checks.attempted, 1), failures=checks.failures,
        acer=ref["acer"], metrics=metrics,
    )
    OUT.mkdir(exist_ok=True)
    report_path = OUT / f"{wl.name}_seed{args.seed}_trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, default=str) + "\n")

    env = report["env"]
    print(f"env: nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
          f"numpy={env['numpy']} blas={env['blas']!r} blas_threads={env['blas_threads']} "
          f"load={report['load_start']}->{report['load_end']} commit={env['git_commit']} "
          f"source={env['source_sha256'][:12]}")
    if not args.trace:
        timed = report["timed"]
        print(f"run: workload={wl.name} seed={args.seed} frames={timed['frames']} "
              f"samples={timed['samples']} above_p99={timed['samples_above_p99']} "
              f"measured_s={timed['measured_s']:.3f} "
              f"raw_frames_per_s={timed['raw_frames_per_s']:.1f} "
              f"kernel_factor_median={timed['kernel_factor_median']:.3f}")
    print(f"checks: attempted={checks.attempted} failed={checks.failed} "
          f"failed_share={report['failed_share']} acer={ref['acer']!r} "
          f"trace_bits_changed={bits_changed} fingerprint={ref['fingerprint'][:16]}")
    for failure in checks.failures[:20]:
        print(f"FAILED {failure}")
    print(f"report: {report_path.relative_to(ROOT)}")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
