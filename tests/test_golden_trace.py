"""Golden traces: the SHA-256 of the CSV and JSONL trace bytes of four
seeded runs on a short continual stream. Any change to scoring,
adaptation, the baselines or the trace writers that moves a single bit
shows up here; a change that means to move bits must update the digests
and say why."""

import hashlib

import pytest

from oap.engine import Engine, run_baseline_frozen, run_baseline_smoothed
from oap.engine import write_trace_csv, write_trace_jsonl
from oap.presets import build_artifacts, continual_scenario, desk_params
from oap.simstream import generate_stream

# name -> (CSV digest, JSONL digest)
GOLDEN = {
    "oap_ff1": (
        "5d1e493284cb6f7c26bf7c201539dd238e3a982a88cd818501a748619d6f1e50",
        "19b2f89d01c73872f25919420acf3a3f4a32e29efece9cf8e3ee43c57cc59638",
    ),
    "oap_ff005": (
        "ab637465ef28186d0739ae2ad22be167b6f8c45e87106c4bbaf636861a464b70",
        "ef2963f4eece4cb05beba4a919fda22964d0ca38c3d90cf84259f328bda8724a",
    ),
    "frozen": (
        "74aaf2889e8639cbfbd5643cac6dac9a6ee805f536df9b02d8b57232590b7762",
        "ac659c99928791e10732500e83eb10110f9582ca37c528be7ce3293a9f5f8f3d",
    ),
    "ema": (
        "b3a4fb83eb97774305318cfbe2962bb7b4c6511d5f8328d93fe8765da22c6338",
        "1bdd72b5a9e4d2ecd7cfa57bea53bcf206f23d11aa0490efdfd1ae0fbef012ad",
    ),
}


@pytest.fixture(scope="module")
def stream():
    art = build_artifacts(0)
    frames, truth = generate_stream(art.generator, continual_scenario(segment_frames=300))
    return art, frames, truth


def run(name, art, frames, truth):
    if name == "frozen":
        return run_baseline_frozen(art.head, frames, ground_truth=truth)
    if name == "ema":
        return run_baseline_smoothed(art.head, frames, 0.9, ground_truth=truth)
    freq = 1.0 if name == "oap_ff1" else 0.05
    engine = Engine(art.head, art.replay, desk_params(0, finetune_freq=freq))
    return engine.run_stream(frames, ground_truth=truth)


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_bytes_pinned(name, stream, tmp_path):
    trace = run(name, *stream)
    csv, jsonl = tmp_path / "t.csv", tmp_path / "t.jsonl"
    write_trace_csv(csv, trace)
    write_trace_jsonl(jsonl, trace)
    assert (sha(csv), sha(jsonl)) == GOLDEN[name]
