"""Golden traces: the SHA-256 of the CSV and JSONL trace bytes of ten
seeded runs on a short continual stream. Any change to scoring,
adaptation, the baselines or the trace writers that moves a single bit
shows up here; a change that means to move bits must update the digests
and say why.

Besides the default fine-tune rates, six oap runs cover paths the defaults
skip: three Adam iterations per fine-tune call (the rollback snapshot);
fine-tuning on every frame with weight decay 1e-3 (the decay term); a
smoothing window of 7 with an even source mix (both sampler sources);
replay-only batches; online-only batches at margin 0.5, where no frame is
discarded and every frame enters the buffer; and an empty replay store at
margin 1e-6, where most frames are discarded, so the buffer starts empty
and runs empty again (208 of 1200 frames skip fine-tuning) and batches
come from the online buffer alone, often from one class."""

import hashlib

import numpy as np
import pytest

from oap.engine import Engine, run_baseline_frozen, run_baseline_smoothed
from oap.engine import write_trace_csv, write_trace_jsonl
from oap.memory import ReplayStore
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
    "oap_iter3": (
        "42b206f021b0fc6c912344a44ef3f408a85ec5439ed0fd942ffead4e1e3d4c2f",
        "a2b9d4f1aa20961ca78e12400f392eff29627a439e0945953ee6bcd71022a56a",
    ),
    "oap_window7_mix": (
        "89300ef2dce182f6552e2b94bb8f69aa45e353f1d129f6cf106a33d397ee250c",
        "dff60629a8d6b49d7ef51d5496204b9decb79f431dbb0759a0f7008b55ccf305",
    ),
    "oap_replay_only": (
        "c5731422a6c0b439643b71cb8a7338f1ed2dda225bef53aec0acb52fd1994044",
        "2bb49d33584381940224d8cdab11ec0ee6d67cf27dd5ed9c78ef7ce07a3b8a64",
    ),
    "oap_online_only_margin05": (
        "0b5b6616f06a30dd39ea7c6923af773e3566f447d1c9582441a172eeb92da8fe",
        "c686ae4c97a21bdef1d74d4ae97dc7db811836a1099254c4cde97f39c99ed82f",
    ),
    "oap_empty_replay": (
        "63f2ab251db57c45fd3e8a31f3c4ed3450d7bc7646541b5b937ff667f63d9fff",
        "4a0e359748da0aedf132edc961bbe64d57c22a95ecd54e1f214a0f6be92b0a05",
    ),
    "oap_weight_decay": (
        "179510f818484142928bc7757f1bd2713fc38fb0f2048cf944ff009626c09f5a",
        "a2dc4297d3d6bf0bed0d5540e8778ac304165b2560d0fbc92976cda24630d882",
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

OAP_OVERRIDES = {
    "oap_ff1": {"finetune_freq": 1.0},
    "oap_ff005": {"finetune_freq": 0.05},
    "oap_iter3": {"iterations_per_call": 3},
    "oap_weight_decay": {"finetune_freq": 1.0, "weight_decay": 1e-3},
    "oap_window7_mix": {"window": 7, "online_prob": 0.5},
    "oap_replay_only": {"online_prob": 0.0},
    "oap_online_only_margin05": {"online_prob": 1.0, "margin": 0.5},
    "oap_empty_replay": {"margin": 1e-6},
}
# Cases that run against a 0-row replay store instead of the artifacts' own.
EMPTY_REPLAY = {"oap_empty_replay"}


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
    replay = art.replay
    if name in EMPTY_REPLAY:
        replay = ReplayStore(np.zeros((0, art.head.d)), np.zeros(0, dtype=np.int64))
    engine = Engine(art.head, replay, desk_params(0, **OAP_OVERRIDES[name]))
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
