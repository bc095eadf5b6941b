"""Record the trace fingerprints that runs compare against.

    python3 perfbench/record_fingerprints.py

For each workload and each seed in ``SEEDS`` it builds the inputs and the
reference traces exactly as a run does, and writes their SHA-256 to
``fingerprints.json``.
The recorded values belong to the commit that defines the benchmark's
baseline; a run reports ``trace_bits_changed`` against them.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

SEEDS = range(64)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads as w

    table = json.loads(run.FINGERPRINTS.read_text()) if run.FINGERPRINTS.is_file() else {}
    workdir = run.OUT / "record_fingerprints"
    for name, wl in w.WORKLOADS.items():
        for seed in SEEDS:
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            checks = w.Checks()
            ref = wl.reference(seed, wl.setup(seed, workdir), workdir, checks)
            if checks.failed:
                print(f"{name} seed {seed}: checks failed: {checks.failures}", file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = ref["fingerprint"]
            print(f"{name} {seed} {ref['fingerprint']}", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    run.FINGERPRINTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
