"""The kept mutation list (``tests/mutants/run.py``) still applies to the
tree: each mutant's old text occurs exactly once in its file, and no two
mutants share a name. A stale mutant would otherwise show only in a full
run of the list, one suite run per mutant."""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("mutant_runner", ROOT / "tests/mutants/run.py")
RUNNER = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(RUNNER)


def test_mutant_names_are_unique():
    names = Counter(mutant[0] for mutant in RUNNER.MUTANTS)
    assert [name for name, count in names.items() if count > 1] == []


@pytest.mark.parametrize("name, file, old", [m[:3] for m in RUNNER.MUTANTS],
                         ids=[m[0] for m in RUNNER.MUTANTS])
def test_each_mutant_applies_once(name, file, old):
    assert (ROOT / file).read_text().count(old) == 1


def test_the_runner_leaves_this_guard_out():
    assert Path(RUNNER.GUARD) == Path(__file__).relative_to(ROOT)
