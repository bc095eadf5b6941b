"""The kept mutation list: what the test suite guards, mutant by mutant.

Each mutant is one exact text edit to one source file, with the rule it
breaks. For each, one at a time, the script copies the repository (less
``.git`` and caches: the tests read ``demos/``, ``perfbench/`` and the
README too) to a temporary directory, applies the edit there and runs
``python -m pytest -x -q`` with a timeout. A mutant is killed when a test
fails, and survives when the suite passes. Before the mutants it runs the
unedited copy, which must pass. Every run leaves out ``GUARD``, the test
that each mutant's old text is in the unedited tree, which no mutated copy
keeps. It prints one JSON object on stdout: the unedited run, then per
mutant its status, the first failing test and the seconds to the kill.
Progress lines go to stderr.

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
GUARD = "tests/test_mutant_list.py"

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
    ("all_spoof_is_smoothed", "src/oap/memory.py",
     "if n_spoof == 0 or n_spoof == raw.size:",
     "if n_spoof == 0:",
     "one class present: the working labels are the raw labels",
     "equivalent: a vote among spoof labels alone is spoof in every window, so"
     " smooth_labels gives the raw labels again and _class_buckets of them is"
     " (None, [0], [n]), the branch's own buckets; only the cost differs"),
    ("cutoff_without_slack", "src/oap/memory.py",
     "self._cutoff = horizon - horizon * 1e-12",
     "self._cutoff = horizon",
     "an entry whose exact age equals the horizon is evicted, whatever the round-off"),
    ("unchecked_width", "src/oap/memory.py",
     "        if feature.shape != self._features.shape[1:]:\n"
     "            raise DataError(f\"feature shape {feature.shape} differs from the buffer's"
     " ({self.d},)\")\n",
     "",
     "an insert takes only a (d,) row: a (1,) row is refused, not broadcast"),
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
    ("two_copy_load", "src/oap/simstream.py",
     "_read_records(path, _read_body(fh.buffer), d, labeled, frame_rate)",
     "_read_records(path, bytearray(fh.buffer.read()), d, labeled, frame_rate)",
     "a v2 load holds its body in one buffer, not a read and a copy"),
    ("whole_table_v2_save", "src/oap/simstream.py",
     "            for start in range(0, n, FEATURE_ROWS_PER_WRITE):\n"
     "                rows = slice(start, start + FEATURE_ROWS_PER_WRITE)\n"
     "                fh.write(np.rec.fromarrays([c[rows] for c in columns], dtype).tobytes())\n",
     "            fh.write(np.rec.fromarrays(columns, dtype).tobytes())\n",
     "a v2 save packs its records a block at a time"),
    ("uncapped_header", "src/oap/simstream.py",
     "fh.buffer.readline(HEADER_MAX_BYTES + 1)",
     "fh.buffer.readline()",
     "a load reads at most HEADER_MAX_BYTES of a header line"),
    ("late_seed", "src/oap/cli.py",
     "    seeded = [params.replace(seed=params.seed + i) for i in range(runner.seeds)]\n",
     "    seeded = (params.replace(seed=params.seed + i) for i in range(runner.seeds))\n",
     "every derived seed is built before the first write"),
    # The engine docstring's rules.
    ("verdict_after_finetune", "src/oap/engine.py",
     "        return tuple.__new__(FrameVerdict, (frame_index, y, decision, pseudo, finetuned))\n",
     "        y = forward(self.head, feature) if finetuned else y\n"
     "        return tuple.__new__(FrameVerdict, (frame_index, y, decision, pseudo, finetuned))\n",
     "causality: a frame is scored by the head as it stood before the frame arrived"),
    ("no_eviction", "src/oap/engine.py",
     "        self.online.evict_old(time)\n",
     "",
     "the buffer bound: every frame evicts the entries older than the horizon"),
    ("discard_inserted", "src/oap/engine.py",
     "        if pseudo is not _DISCARD:\n"
     "            self.online.insert(feature, pseudo, frame_index, time)\n",
     "        self.online.insert(feature, decision if pseudo is _DISCARD else pseudo, frame_index,"
     " time)\n",
     "a discarded frame never enters the buffer"),
    ("two_events_a_frame", "src/oap/engine.py",
     "            finetuned = self._finetune()\n",
     "            self._finetune()\n            finetuned = self._finetune()\n",
     "at most one fine-tune event per frame"),
    # The doors: each accepts what it should refuse.
    ("check_frame_repeats_index", "src/oap/memory.py",
     "(index <= last[0] or time < last[1])",
     "(index < last[0] or time < last[1])",
     "check_frame: frame indices strictly increase"),
    ("first_bad_frame_repeats_index", "src/oap/memory.py",
     "(indices[1:] <= indices[:-1])",
     "(indices[1:] < indices[:-1])",
     "first_bad_frame: frame indices strictly increase"),
    ("nan_before_order_fault", "src/oap/memory.py",
     "min(start + SCORE_ROWS_PER_CALL, k)]",
     "min(start + SCORE_ROWS_PER_CALL, k + 1)]",
     "first_bad_frame: a frame's order fault is named before its non-finite feature"),
    ("finite_scan_short", "src/oap/memory.py",
     "for start in range(0, k, SCORE_ROWS_PER_CALL):",
     "for start in range(0, k - SCORE_ROWS_PER_CALL, SCORE_ROWS_PER_CALL):",
     "first_bad_frame: the finite scan reads every row before the order fault"),
    ("prefix_runs_first", "src/oap/engine.py",
     "    if (fault := first_bad_frame(frames, d, last)) is not None:\n"
     "        raise DataError(fault[1])\n"
     "    made = [[] for _ in range(len(TRACE_COLUMNS) - 2)]"
     "  # all but the truth and the decisions\n"
     "    for start in range(0, n, SCORE_ROWS_PER_CALL):\n"
     "        block = frames[start : start + SCORE_ROWS_PER_CALL]\n"
     "        for column, values in zip(made, step(block)):\n"
     "            column += islice(values, len(block))\n",
     "    made = [[] for _ in range(len(TRACE_COLUMNS) - 2)]\n"
     "    for start in range(0, n, SCORE_ROWS_PER_CALL):\n"
     "        block = frames[start : start + SCORE_ROWS_PER_CALL]\n"
     "        fault = first_bad_frame(block, d, last)\n"
     "        block = block[: fault[0]] if fault else block\n"
     "        if len(block):\n"
     "            for column, values in zip(made, step(block)):\n"
     "                column += islice(values, len(block))\n"
     "            last = block.frame_indices.item(-1), block.times.item(-1)\n"
     "        if fault is not None:\n"
     "            raise DataError(fault[1])\n",
     "_fold: a refused stream runs no frame, so it leaves the engine as it was"),
    ("check_features_not_finite", "src/oap/head.py",
     "    if not all_finite(feats):\n        raise DataError(NON_FINITE_FEATURE)\n",
     "",
     "check_features: every feature value is finite"),
    ("check_labels_not_counted", "src/oap/head.py",
     "    if np.count_nonzero(spoof | (labels == 0)) != n:\n"
     "        raise DataError(\"labels must be 0 or 1\")\n",
     "",
     "check_labels: every label is 0 or 1"),
    ("check_ranges_no_ranges", "src/oap/config.py",
     "    for name, test, want in checks:\n"
     "        check_value(prefix + name, getattr(obj, name), (test, want))\n",
     "",
     "check_ranges: every config field lies in its range"),
    ("check_outputs_off", "src/oap/cli.py",
     "    files = [args.out] if args.command == \"report\" else",
     "    return\n    files = [args.out] if args.command == \"report\" else",
     "_check_outputs: an output path that cannot be written is refused before any work"),
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
                                   "no:cacheprovider", f"--ignore={GUARD}"], cwd=tree, env=env,
                                  capture_output=True, text=True, timeout=TIMEOUT)
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
