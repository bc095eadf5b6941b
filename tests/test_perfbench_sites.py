"""The benchmark's per-layer spans wrap names that the engine and the CLI
actually call. perfbench patches ``oap.engine.forward``, ``sample_batch``,
``loss_and_grad``, ``oap.cli.load_feature_file``, the trace writers and
friends from outside the package; a refactor that stops calling one of
them, or renames it, leaves that layer's span empty and its metrics at 0
without failing the benchmark. These tests run a short engine stream and a
tiny ``oap`` pipeline under perfbench's own wrappers, read-only, and check
that every wrapped name exists and every layer of each is called."""

import sys
from pathlib import Path

import pytest

import oap.cli
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


# The spans of ``oap run --mode frozen`` and ``--mode ema``: the layers of
# perfbench's cli_scoring workload.
CLI_SPANS = (
    "cli.run", "simstream.load_feature_file", "memory.replay_load", "head.forward",
    "engine.baseline_frozen", "engine.baseline_ema", "engine.write_trace_csv",
    "engine.write_trace_jsonl", "metrics.evaluate_frames",
)


def test_every_cli_span_is_called(perfbench, tmp_path):
    spans, workloads = perfbench
    gen, pre = tmp_path / "gen", tmp_path / "pre"
    # Called through the module: perfbench wraps ``oap.cli.main`` itself.
    tracer = spans.Tracer(roots=workloads.ROOT_SPANS)
    workloads.patch_layers(tracer)
    try:
        assert oap.cli.main([
            "generate", "--out", str(gen), "--set", "d=8", "--set", "n_users=4",
            "--set", "frames_per_user=20", "--set", "segments=live:10,spoof:10",
        ]) == 0
        assert oap.cli.main([
            "pretrain", "--out", str(pre), "--train", str(gen / "train.oapf"),
            "--set", "replay_size=10", "--set", "pretrain_iterations=10",
        ]) == 0
        for mode in ("frozen", "ema"):
            assert oap.cli.main([
                "run", "--out", str(tmp_path / mode), "--mode", mode,
                "--head", str(pre / "head.oaph"), "--replay", str(pre / "replay.oapf"),
                "--stream", str(gen / "stream_seed0.oapf"),
            ]) == 0
    finally:
        tracer.unpatch()

    assert not tracer.missing
    table = tracer.table()
    calls = {name: table.get(name, {}).get("calls", 0) for name in CLI_SPANS}
    assert all(n > 0 for n in calls.values()), calls


def test_every_setup_span_is_called(perfbench, tmp_path):
    """The set-up spans cover both ways a workload builds its inputs:
    ``build_artifacts`` for the engine workloads and ``oap generate`` plus
    ``oap pretrain`` for the CLI one. Some patched names may be gone (the
    CLI trains through ``oap.presets``), but every span must be called."""
    spans, workloads = perfbench
    out = tmp_path / "setup"
    tracer = spans.Tracer()
    workloads.patch_setup(tracer)
    try:
        build_artifacts(0, d=8, n_users=4, frames_per_user=60, replay_size=40)
        assert oap.cli.main([
            "generate", "--out", str(out), "--set", "d=8", "--set", "n_users=4",
            "--set", "frames_per_user=20", "--set", "segments=live:10,spoof:10",
        ]) == 0
        assert oap.cli.main([
            "pretrain", "--out", str(out), "--train", str(out / "train.oapf"),
            "--set", "replay_size=10", "--set", "pretrain_iterations=10",
        ]) == 0
    finally:
        tracer.unpatch()

    table = tracer.table()
    calls = {name: table.get(name, {}).get("calls", 0) for name in workloads.SETUP_SPANS}
    assert all(n > 0 for n in calls.values()), calls


# perfbench's output checks read record fields (``v.finetuned_this_frame``,
# ``r.buffer_size``, ...) and the files ``oap run`` writes; a change that
# breaks one of those reads shows up here as a failed check, not only as
# failed operations in a benchmark run.


@pytest.mark.parametrize("name", ["continual_ff1", "continual_sparse"])
def test_engine_workload_output_checks_pass(perfbench, tmp_path, name):
    _, workloads = perfbench
    import calibration

    workload = workloads.WORKLOADS[name]
    art = build_artifacts(0, d=8, n_users=4, frames_per_user=60, replay_size=40)
    setup = (art, [
        generate_stream(art.generator, continual_scenario(user_id=u, segment_frames=15))
        for u in range(workloads.TRACED_STREAMS)
    ])
    checks = workloads.Checks()
    ref = workload.reference(0, setup, tmp_path, checks)
    frames = workload.one_pass(0, setup, ref, checks, calibration.Clock())
    assert checks.failed == 0, checks.failures
    assert frames == ref["frames"] == 2 * 60
    assert checks.attempted == 2 * frames


def test_cli_workload_output_checks_pass(perfbench, tmp_path):
    _, workloads = perfbench
    import calibration

    workload = workloads.CliWorkload()
    out = tmp_path / "setup"
    assert oap.cli.main([
        "generate", "--out", str(out), "--set", "d=8", "--set", "n_users=4",
        "--set", "frames_per_user=20", "--set", "segments=live:10,spoof:10",
        "--set", f"seeds={workload.streams}",
    ]) == 0
    assert oap.cli.main([
        "pretrain", "--out", str(out), "--train", str(out / "train.oapf"),
        "--set", "replay_size=10", "--set", "pretrain_iterations=10",
    ]) == 0
    setup = {
        "dir": out, "workdir": tmp_path, "rc": (0, 0),
        "streams": [out / f"stream_seed{k}.oapf" for k in range(workload.streams)],
    }
    checks = workloads.Checks()
    ref = workload.reference(0, setup, tmp_path, checks)
    frames = workload.one_pass(0, setup, ref, checks, calibration.Clock())
    assert checks.failed == 0, checks.failures
    assert frames == ref["frames"] == 2 * 2 * 20
