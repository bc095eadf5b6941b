"""The benchmark's per-layer spans wrap names that the engine actually
calls. perfbench patches ``oap.engine.forward``, ``sample_batch``,
``loss_and_grad`` and friends from outside the package; a refactor that
stops calling one of them, or renames it, leaves that layer's span empty
and its metrics at 0 without failing the benchmark. This test runs a short
engine stream under perfbench's own wrappers, read-only, and checks that
every wrapped name exists and every engine layer is called."""

import sys
from pathlib import Path

import pytest

from oap.engine import Engine
from oap.presets import build_artifacts, continual_scenario, desk_params
from oap.simstream import generate_stream

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    import spans
    import workloads

    return spans, workloads


def test_every_engine_layer_span_is_called(perfbench):
    spans, workloads = perfbench
    art = build_artifacts(0, d=8, n_users=4, frames_per_user=60, replay_size=40)
    frames, _ = generate_stream(art.generator, continual_scenario(segment_frames=30, n_pairs=1))
    # margin 0.5 stores every frame; three iterations per call take the
    # rollback snapshot, so every layer in CALL_COUNTED has work to do.
    params = desk_params(0, margin=0.5, iterations_per_call=3)
    tracer = spans.Tracer(roots=workloads.ROOT_SPANS)
    workloads.patch_layers(tracer)
    try:
        engine = Engine(art.head, art.replay, params)
        for f in frames:
            engine.process_frame(f.feature, f.frame_index, f.time)
    finally:
        tracer.unpatch()

    assert not tracer.missing
    table = tracer.table()
    calls = {name: table.get(name, {}).get("calls", 0) for name in workloads.CALL_COUNTED}
    assert all(n > 0 for n in calls.values()), calls
