"""Golden CLI outputs: the SHA-256 of every file that a small generate ->
pretrain -> run (oap, frozen, ema; two streams, two seeds) -> sweep
pipeline writes, each command's ``resolved.cfg`` included. A change to the
config reader, its defaults or the echo, or to anything the commands
compute, that moves a single byte shows up here; a change that means to
move bytes must update the digests and say why."""

import hashlib

import pytest

from oap.cli import main

GEN = ["--set", "d=8", "--set", "n_users=4", "--set", "frames_per_user=60",
       "--set", "segments=live:90,spoof:90", "--set", "seeds=2"]
PRE = ["--set", "pretrain_iterations=200", "--set", "replay_size=50"]
SWEEPS = {"finetune_freq": "1,0.2", "replay_size": "20,50"}

# output directory -> {file name: SHA-256}
GOLDEN = {
    "generate": {
        "resolved.cfg": "247e4ce6fd8483b23cd2b61176b2f9c30554a70826593bcceda44b7a8bd2e0f2",
        "stream_seed0.oapf": "b663bd8fb69cd2643394314dcc50f7a62c45feb3f82df26ae33e7ee650af57f2",
        "stream_seed1.oapf": "d683781f1160cb0db892985ad1d9101e2d514f4b70059157dce16236fc3d59cd",
        "train.oapf": "ea0461ffee192537fb8ac89d414eee5b7471d01ee4f67a36df54d96268f2edc1",
    },
    "pretrain": {
        "head.oaph": "6ba0b21d3d6dbe06cc83554f17d3463ae04c1574a362d4a1d9de302ed6decac6",
        "replay.oapf": "9b78eb2b021f9ad830a1f2827df4c46129fce225db4b74ea0516ba8c548ceee7",
        "resolved.cfg": "4134a9ce57767690c68b23672f19da44820f01e82a6bae40088a6d9cf311eac4",
    },
    "run_ema": {
        "metrics_seed0.json": "3bfb9bdfab347e02cb946a5b4867051aa4376200822691f6d150bf02f2d3e023",
        "metrics_seed1.json": "3bfb9bdfab347e02cb946a5b4867051aa4376200822691f6d150bf02f2d3e023",
        "metrics_summary.json": "7b42010b978fa553cfc967930bb3f4ca595afc180aa430df5dc7358382bb8240",
        "resolved.cfg": "0d839875640c4785a24bbba5bc1a8736ce0e237446f1e809774cff01080819b6",
        "trace_seed0_stream_seed0.csv": "d77ff0fcda052a13cc919238252663b1f5b2d9d4b816ecc3fc2c1b73bffd5d8c",
        "trace_seed0_stream_seed0.jsonl": "18e4e7495644887285fc0dd277376dfb73342d41346be64aabafd98f590e36dd",
        "trace_seed0_stream_seed1.csv": "2c6659a64907ac29c35841295c1d5e9e718f1f731b6e6c893f70112f5d47d2ca",
        "trace_seed0_stream_seed1.jsonl": "7b9f4ba18abf57869b3f0cc4d722d367b333340f7916182774b50681ec193505",
        "trace_seed1_stream_seed0.csv": "d77ff0fcda052a13cc919238252663b1f5b2d9d4b816ecc3fc2c1b73bffd5d8c",
        "trace_seed1_stream_seed0.jsonl": "18e4e7495644887285fc0dd277376dfb73342d41346be64aabafd98f590e36dd",
        "trace_seed1_stream_seed1.csv": "2c6659a64907ac29c35841295c1d5e9e718f1f731b6e6c893f70112f5d47d2ca",
        "trace_seed1_stream_seed1.jsonl": "7b9f4ba18abf57869b3f0cc4d722d367b333340f7916182774b50681ec193505",
    },
    "run_frozen": {
        "metrics_seed0.json": "eb9440265349829963ad187012924406f6bd3c93f870767b3bb2a5389135232c",
        "metrics_seed1.json": "eb9440265349829963ad187012924406f6bd3c93f870767b3bb2a5389135232c",
        "metrics_summary.json": "aa71825d79946757d7354804a0018ca390b80ec671608f7bcf2d7a9ae27bd945",
        "resolved.cfg": "5929445f9a86e1f17872cc0f54cb3d4b15f96bcde3623457ff94a463fce4e148",
        "trace_seed0_stream_seed0.csv": "7d8b587fc19d0e20a2aad773a99ddd94cc2be41ee3e01f4a435147c3cbc2bdfa",
        "trace_seed0_stream_seed0.jsonl": "a7e635fa00d21a0b66364ab06683c941499179cf3d50047b555290992d04f8b2",
        "trace_seed0_stream_seed1.csv": "2944fc40199c2b951207f60d5f7cdb4ed06b3d602588ca0eaf9fff6289526301",
        "trace_seed0_stream_seed1.jsonl": "43842033abae9093975a98d57788fb4311a77bba7990349ed116659e5d841278",
        "trace_seed1_stream_seed0.csv": "7d8b587fc19d0e20a2aad773a99ddd94cc2be41ee3e01f4a435147c3cbc2bdfa",
        "trace_seed1_stream_seed0.jsonl": "a7e635fa00d21a0b66364ab06683c941499179cf3d50047b555290992d04f8b2",
        "trace_seed1_stream_seed1.csv": "2944fc40199c2b951207f60d5f7cdb4ed06b3d602588ca0eaf9fff6289526301",
        "trace_seed1_stream_seed1.jsonl": "43842033abae9093975a98d57788fb4311a77bba7990349ed116659e5d841278",
    },
    "run_oap": {
        "metrics_seed0.json": "eb9440265349829963ad187012924406f6bd3c93f870767b3bb2a5389135232c",
        "metrics_seed1.json": "4c4c7c466aebb2c7c6eadbb2a2847f0334417e6cd3fc43bd00b4f72fb634296b",
        "metrics_summary.json": "e100fed6555fd54cead295efb22cc767868102b95e8e3240bf670375db497228",
        "resolved.cfg": "5022896e3e537b97287076673570eb33e88d2a3c4dea6cd48dc326b811c929a2",
        "trace_seed0_stream_seed0.csv": "3e8cd87c14226d78f152fe4fd1d589e250b5d9fcb100f6d88967ffbbf161d3b6",
        "trace_seed0_stream_seed0.jsonl": "15d63b9ef8aec3effc29242ceafbd3521bf6119a7aa81282ddc4239a980689d7",
        "trace_seed0_stream_seed1.csv": "bd0e52e6fb3262ef4ba0204815d2120bb8f51475cb6092bb1e1a3a30dd653c02",
        "trace_seed0_stream_seed1.jsonl": "7cb9f26983cd386c81ac80e99cbce649d3fddc670e9a7a23db1e4e1d5620866d",
        "trace_seed1_stream_seed0.csv": "cde6186b6743c9dc328aada39bb7a1026d5b2c22511c2535f4611ea021774dd4",
        "trace_seed1_stream_seed0.jsonl": "0b1487e4e17626839827fb7688ec6cbf4edc79af2423ae847a5a11cbb2b42960",
        "trace_seed1_stream_seed1.csv": "f0094e558cab1a0820ec5e80aadf2789f8fd492073eee14903a3711d6ceec3b4",
        "trace_seed1_stream_seed1.jsonl": "c2bffb8bb6f10f1112a1d8f7b94d189cb233ec528e8fc8f5b7e8fad0cb9d2508",
    },
    "sweep_finetune_freq": {
        "resolved.cfg": "a8f6c509533d3d9ffd80ec46fe0c2fa0fe6a782623662e22f2ba5d915574ed50",
        "sweep_finetune_freq.csv": "7c7126b070081657937ed889fa7f2544defe512175f0122db94aecd362f978bd",
    },
    "sweep_replay_size": {
        "resolved.cfg": "837baaa0a56eb560248797f45d7d89e2426786ec7c19b1c1c6c75fa76f803cb8",
        "sweep_replay_size.csv": "d70c0e1fc57eb35d26cbb75fcc04b45827b4ec7633ce2b500eb300305ca7123e",
    },
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Run the whole pipeline once; map each output directory to the
    digests of the files in it."""
    root = tmp_path_factory.mktemp("golden")
    gen, pre = root / "generate", root / "pretrain"
    assert main(["generate", "--out", str(gen), *GEN]) == 0
    assert main(["pretrain", "--out", str(pre), "--train", str(gen / "train.oapf"), *PRE]) == 0
    streams = [arg for i in range(2) for arg in ("--stream", str(gen / f"stream_seed{i}.oapf"))]
    for mode in ("oap", "frozen", "ema"):
        assert main([
            "run", "--out", str(root / f"run_{mode}"), "--mode", mode, "--seeds", "2",
            "--head", str(pre / "head.oaph"), "--replay", str(pre / "replay.oapf"), *streams,
        ]) == 0
    for axis, values in SWEEPS.items():
        assert main([
            "sweep", "--out", str(root / f"sweep_{axis}"), "--axis", axis, "--values", values,
            "--head", str(pre / "head.oaph"), "--train", str(gen / "train.oapf"),
            "--stream", str(gen / "stream_seed0.oapf"), *PRE[2:],
        ]) == 0
    return {
        out.name: {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
        for out in root.iterdir()
    }


def test_every_output_directory_pinned(outputs):
    assert sorted(outputs) == sorted(GOLDEN)


@pytest.mark.parametrize("out", sorted(GOLDEN))
def test_output_bytes_pinned(out, outputs):
    assert outputs[out] == GOLDEN[out]
