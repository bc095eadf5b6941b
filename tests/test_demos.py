"""Smoke test of the demos and of the README's library tour: each demo
loads against the current library API, and the two quick ones run end to
end. ``hyperparameter_sweeps`` is only loaded, because its full run takes
several times longer than the others. The tour runs as written."""

import json
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
README = DEMOS.parent / "README.md"


@pytest.mark.parametrize("name,run", [
    ("single_video_adaptation", True),
    ("continual_interleaving", True),
    ("hyperparameter_sweeps", False),
])
def test_demo(name, run, capsys):
    # run_name keeps the demo's ``__main__`` block from running on load.
    main = runpy.run_path(str(DEMOS / f"{name}.py"), run_name=f"demo_{name}")["main"]
    if run:
        main()
        assert capsys.readouterr().out.strip()


def test_readme_library_tour_runs(capsys):
    """The first python block of the README runs, and prints one metric
    report for the engine and one for the frozen head, both two-class."""
    tour = README.read_text().split("## Library tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, f"{README}:library tour", "exec"), {})
    reports = [json.loads("{" + part) for part in capsys.readouterr().out.split("{")[1:]]
    assert len(reports) == 2
    assert all(r["n_live"] > 0 and r["n_spoof"] > 0 for r in reports)
