"""The kept mutation list: what the test suite guards, mutant by mutant.

Each mutant is one exact text edit to one source file, with the rule it
breaks. For each, one at a time, the script copies the repository (less
``.git`` and caches: the tests read ``demos/``, ``perfbench/`` and the
README too) to a temporary directory, applies the edit there and runs
``python -m pytest -x -q`` with a timeout. A mutant is killed when a test
fails, and survives when the suite passes. Before the mutants it runs the
unedited copy, which must pass. It prints one JSON object on stdout: the
unedited run, then per mutant its status, the first failing test and the
seconds to the kill. Progress lines go to stderr.

A survivor must become a test that names its rule, or get an ``equivalent``
note that says why no test can tell it from the source. The script exits 1
if a mutant survives without a note, times out or no longer applies (its
old text is not in the file exactly once), or if the unedited copy fails.

    python tests/mutants/run.py [name ...] > mutants.json
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
TIMEOUT = 900.0  # seconds per suite run

# (name, file, exact old text, new text, the rule it breaks[, equivalent: why])
MUTANTS = [
    ("insert_keeps_smoothed", "src/oap/memory.py",
     "        self._hi = i + 1\n        self._smoothed = None\n",
     "        self._hi = i + 1\n",
     "an insert drops the last smoothing"),
    ("eviction_keeps_smoothed", "src/oap/memory.py",
     "        self._lo, self._hi = (0, 0) if lo == hi else (lo, hi)\n"
     "        self._smoothed = None\n",
     "        self._lo, self._hi = (0, 0) if lo == hi else (lo, hi)\n",
     "an eviction that removes an entry drops the last smoothing"),
    ("refresh_ignores_window", "src/oap/memory.py",
     "self._smoothed is not None and self._smoothed[0] == window",
     "self._smoothed is not None",
     "a refresh is a no-op only for the window its labels were smoothed with"),
    ("all_spoof_is_smoothed", "src/oap/memory.py",
     "if n_spoof == 0 or n_spoof == raw.size:",
     "if n_spoof == 0:",
     "one class present: the working labels are the raw labels",
     "equivalent: a vote among spoof labels alone is spoof in every window, so"
     " smooth_labels gives the raw labels again and _class_buckets of them is"
     " (None, [0], [n]), the branch's own buckets; only the cost differs"),
    ("cutoff_without_slack", "src/oap/memory.py",
     "cutoff = horizon - horizon * 1e-12",
     "cutoff = horizon",
     "an entry whose exact age equals the horizon is evicted, whatever the round-off"),
    ("snapshot_never_restored", "src/oap/engine.py",
     "                self.head, self.adam = snapshot\n",
     "                pass\n",
     "a rejected update undoes its whole fine-tune event"),
    ("spoof_at_threshold", "src/oap/pseudolabel.py",
     "    if y > 1.0 - margin:",
     "    if y >= 1.0 - margin:",
     "spoof only strictly above 1 - margin"),
    ("no_empty_online_redirect", "src/oap/memory.py",
     "    if n_online == 0:\n        use_online[:] = False\n",
     "",
     "an empty online buffer sends its slots to the replay store"),
]

IGNORED = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__",
                                 "*.egg-info", ".bench_out", ".bench_build")
FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def run_suite(edit: tuple[str, str, str] | None) -> dict:
    """Run the suite on a copy of the repository with ``edit`` applied."""
    with tempfile.TemporaryDirectory(prefix="oap-mutant-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        if edit is not None:
            path, old, new = tree / edit[0], edit[1], edit[2]
            text = path.read_text()
            if text.count(old) != 1:
                return {"status": "stale", "first_failure": None, "seconds": 0.0,
                        "detail": f"the old text occurs {text.count(old)} times in {edit[0]}"}
            path.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                                   "no:cacheprovider"], cwd=tree, env=env, capture_output=True,
                                  text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return {"status": "timeout", "first_failure": None, "seconds": TIMEOUT}
        seconds = round(time.perf_counter() - start, 1)
    failure = FIRST_FAILURE.search(proc.stdout)
    if proc.returncode == 0:
        return {"status": "survived", "first_failure": None, "seconds": seconds}
    return {"status": "killed", "first_failure": failure and failure.group(1),
            "seconds": seconds, "exit_code": proc.returncode}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="run only these mutants")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m[0] for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")

    baseline = run_suite(None)
    report = {"baseline": baseline, "mutants": []}
    ok = baseline["status"] == "survived"
    if ok:
        for name, file, old, new, rule, *note in MUTANTS:
            if args.names and name not in args.names:
                continue
            result = {"name": name, "file": file, "rule": rule,
                      **run_suite((file, old, new))}
            if note:
                result["note"] = note[0]
            ok &= result["status"] == "killed" or result["status"] == "survived" and bool(note)
            report["mutants"].append(result)
            print(json.dumps(result), file=sys.stderr, flush=True)
    print(json.dumps(report, indent=2))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
