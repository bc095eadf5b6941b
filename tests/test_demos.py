"""Smoke test of the demos: each one loads against the current library API,
and the two quick ones run end to end. ``hyperparameter_sweeps`` is only
loaded, because its full run takes several times longer than the others."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


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
