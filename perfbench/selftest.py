"""Self-test of the benchmark.

    python3 perfbench/selftest.py [workload ...]

For each workload (all by default) it makes one short timed run and two
traced runs with seed 0, each in its own process, and checks that:

1. every run finishes with ``failed`` = 0 and prints exactly the metrics
   BENCHMARK.json declares;
2. in each traced run the layers' self times plus the unattributed
   remainder add up to the traced wall time; the unattributed remainder
   (measured time outside any span) is not negative and below
   ``MAX_UNATTRIBUTED`` of it; no span opens outside a root span
   (``engine.process_frame`` / ``cli.run``), so no span lies outside
   measured time; and every layer's time is reported by some per-layer
   metric;
3. every count (calls, entries smoothed, rows stacked, entries evicted,
   flips, rejected updates, fine-tune events, shares, bytes) and the ACER
   are identical across the two traced runs;
4. on ``cli_scoring`` the buffer and training layers report zero calls.

Exits 0 when every check passes. Takes a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from spans import BOOKKEEPING

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))
import workloads as w  # noqa: E402  (needs the package path above)

TIME_UNITS = {"us", "ms"}
# Measured time outside any span is the root wrappers' own entry and exit
# and, for the CLI, the console capture around ``main``: a few percent.
MAX_UNATTRIBUTED = 0.05


def run(workload: str, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    report = json.loads((OUT / f"{workload}_seed0_trace{trace}.json").read_text())
    return result, report


def main(argv=None) -> int:
    workloads = (argv if argv is not None else sys.argv[1:]) or list(w.WORKLOADS)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    problems = []

    def check(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    for name in workloads:
        result, _ = run(name, 0)
        check(result["failed"] == 0 and result["correct"], f"{name}: timed run has no failures")
        check(list(result["metrics"]) == [m["name"] for m in declared["end_to_end"]],
              f"{name}: timed run prints the declared end-to-end metrics")
        traced = [run(name, 1) for _ in range(2)]
        for i, (result, report) in enumerate(traced, 1):
            check(result["failed"] == 0 and result["correct"],
                  f"{name}: traced run {i} has no failures")
            check(list(result["metrics"]) == list(units),
                  f"{name}: traced run {i} prints the declared per-layer metrics")
            layers = report["layers"]
            total = sum(row["self_ns"] for row in layers.values())
            unattributed, wall = report["unattributed_raw_ns"], report["traced_raw_ns"]
            check(total + unattributed == wall,
                  f"{name}: traced run {i}: self times + unattributed = traced wall "
                  f"({total} + {unattributed} vs {wall})")
            check(0 <= unattributed <= MAX_UNATTRIBUTED * wall,
                  f"{name}: traced run {i}: unattributed is {unattributed / wall:.2%} of "
                  f"traced wall (want 0 to {MAX_UNATTRIBUTED:.0%})")
            strays = set(report["root_names"]) - set(w.ROOT_SPANS) - {BOOKKEEPING}
            check(not strays, f"{name}: traced run {i}: spans only under root spans "
                  f"{sorted(strays)}")
            reported = set(w.SELF_TIME_LAYERS + w.WHOLE_SPANS + w.ROOT_SPANS) | {BOOKKEEPING}
            uncovered = sorted(set(layers) - reported)
            check(not uncovered, f"{name}: traced run {i}: every layer is reported {uncovered}")
        (first, first_report), (second, second_report) = traced
        exact = [n for n, u in units.items() if u not in TIME_UNITS and n != "trace.overhead_share"]
        differ = [n for n in exact
                  if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
        check(not differ and first_report["counts_per_repeat"] == second_report["counts_per_repeat"],
              f"{name}: counts identical across two traced runs {differ}")
        if name == "cli_scoring":
            calls = {layer: row["calls"] for layer, row in first_report["layers"].items()}
            busy = [layer for layer in w.TRAINING_AND_BUFFER if calls.get(layer, 0)]
            check(not busy, f"{name}: buffer and training layers get zero calls {busy}")
    print("self-test " + ("failed: " + "; ".join(problems) if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
