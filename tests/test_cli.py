"""End-to-end CLI: the generate -> pretrain -> run -> sweep -> report
pipeline in a temp directory, exit codes, and config-echo reproducibility."""

import hashlib
import json
import math
import shlex
import struct
from pathlib import Path

import numpy as np
import pytest

from oap.cli import main
from oap.config import parse_kv_file
from oap.engine import TraceRecord, read_trace_csv, write_trace_csv
from oap.head import PretrainSchedule, save_head
from oap.memory import ReplayStore
from oap.presets import build_artifacts
from oap.simstream import _save, load_feature_file, save_feature_file


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small generate + pretrain shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    gen_dir, pre_dir = root / "gen", root / "pre"
    assert main([
        "generate", "--out", str(gen_dir),
        "--set", "d=8", "--set", "n_users=6", "--set", "frames_per_user=100",
        "--set", "segments=live:120,spoof:120", "--set", "seeds=3",
    ]) == 0
    assert main([
        "pretrain", "--out", str(pre_dir), "--train", str(gen_dir / "train.oapf"),
        "--set", "pretrain_iterations=300", "--set", "replay_size=100",
    ]) == 0
    return root, gen_dir, pre_dir


class TestGenerate:
    def test_outputs_parse_back(self, pipeline):
        _, gen_dir, _ = pipeline
        train = load_feature_file(gen_dir / "train.oapf")
        assert train.features.shape == (600, 8)
        assert set(np.unique(train.labels)) == {0, 1}
        streams = sorted(gen_dir.glob("stream_seed*.oapf"))
        assert len(streams) == 3  # seeds=3 -> three stream files
        loaded = [load_feature_file(p) for p in streams]
        assert loaded[0].features.shape == (240, 8)
        for i in range(3):
            for j in range(i + 1, 3):
                assert not np.array_equal(loaded[i].features, loaded[j].features)

    def test_zero_duration_segment_rejected(self, tmp_path):
        code = main([
            "generate", "--out", str(tmp_path / "x"),
            "--set", "segments=live:0",
        ])
        assert code == 2

    def test_echo_reproduces_bit_exactly(self, pipeline, tmp_path):
        _, gen_dir, _ = pipeline
        redo = tmp_path / "redo"
        assert main([
            "generate", "--out", str(redo), "--config", str(gen_dir / "resolved.cfg"),
        ]) == 0
        for name in ["train.oapf"] + [p.name for p in gen_dir.glob("stream_seed*.oapf")]:
            assert sha(gen_dir / name) == sha(redo / name), name

    def test_the_default_stream_is_one_that_run_takes(self, tmp_path):
        """Without ``--set segments`` the stream has a live and a spoof
        segment, so ``pretrain`` and then ``run`` on it exit 0."""
        gen, pre = tmp_path / "gen", tmp_path / "pre"
        assert main(["generate", "--out", str(gen), "--set", "n_users=4",
                     "--set", "frames_per_user=250"]) == 0
        stream = gen / "stream_seed0.oapf"
        assert set(load_feature_file(stream).labels.tolist()) == {0, 1}
        assert main(["pretrain", "--out", str(pre), "--train", str(gen / "train.oapf"),
                     "--set", "pretrain_iterations=50"]) == 0
        assert main(["run", "--out", str(tmp_path / "run"), "--head", str(pre / "head.oaph"),
                     "--replay", str(pre / "replay.oapf"), "--stream", str(stream)]) == 0


class TestPretrain:
    def test_artifacts_written(self, pipeline):
        _, _, pre_dir = pipeline
        assert (pre_dir / "head.oaph").exists()
        replay = load_feature_file(pre_dir / "replay.oapf")
        assert replay.features.shape == (100, 8)

    def test_separable_set_reports_high_accuracy(self, tmp_path, capsys):
        """Wide class separation makes the set separable; the reported
        training accuracy then reaches 0.99."""
        gen = tmp_path / "gen"
        assert main([
            "generate", "--out", str(gen), "--set", "d=8",
            "--set", "class_separation=8", "--set", "user_shift_scale=0.5",
            "--set", "n_users=6", "--set", "frames_per_user=100",
            "--set", "segments=live:10",
        ]) == 0
        assert main([
            "pretrain", "--out", str(tmp_path / "pre"), "--train", str(gen / "train.oapf"),
            "--set", "pretrain_iterations=500", "--set", "replay_size=50",
        ]) == 0
        out = capsys.readouterr().out
        accuracy = float(out.split("train_accuracy=")[1].split()[0])
        assert accuracy >= 0.99

    def test_single_class_data_rejected(self, pipeline, tmp_path):
        root, gen_dir, _ = pipeline
        train = load_feature_file(gen_dir / "train.oapf")
        from oap.simstream import save_feature_file

        bad = tmp_path / "one_class.oapf"
        live_only = train.labels == 0
        save_feature_file(
            bad,
            train.features[live_only],
            frame_indices=np.arange(1, live_only.sum() + 1),
            times=np.arange(live_only.sum()) / 30.0,
            labels=train.labels[live_only],
        )
        assert main(["pretrain", "--out", str(tmp_path / "o"), "--train", str(bad),
                     "--set", "replay_size=10"]) == 3

    def test_same_head_and_replay_as_build_artifacts(self, tmp_path):
        """``oap pretrain`` and ``build_artifacts`` both train through
        ``presets.fit_head``, so this guards how the CLI passes the seed,
        ``replay_size`` and the schedule to it: for one seed, ``oap
        generate`` + ``oap pretrain`` train the same head and keep the same
        replay as ``build_artifacts``."""
        seed, gen, pre = 3, tmp_path / "gen", tmp_path / "pre"
        assert main([
            "generate", "--out", str(gen), "--set", f"seed={seed}", "--set", "d=8",
            "--set", "n_users=4", "--set", "frames_per_user=60", "--set", "segments=live:10",
        ]) == 0
        assert main([
            "pretrain", "--out", str(pre), "--train", str(gen / "train.oapf"),
            "--set", f"seed={seed}", "--set", "pretrain_iterations=50",
            "--set", "replay_size=40",
        ]) == 0
        art = build_artifacts(seed, d=8, n_users=4, frames_per_user=60, replay_size=40,
                              schedule=PretrainSchedule(iterations=50))
        save_head(art.head, tmp_path / "library.oaph")
        assert (pre / "head.oaph").read_bytes() == (tmp_path / "library.oaph").read_bytes()
        assert ReplayStore.load(pre / "replay.oapf").fingerprint() == art.replay.fingerprint()


class TestRun:
    def test_oap_run_writes_traces_and_metrics(self, pipeline):
        root, gen_dir, pre_dir = pipeline
        out = root / "run_oap"
        stream = sorted(gen_dir.glob("stream_seed*.oapf"))[0]
        assert main([
            "run", "--out", str(out), "--head", str(pre_dir / "head.oaph"),
            "--replay", str(pre_dir / "replay.oapf"), "--stream", str(stream),
            "--mode", "oap", "--seeds", "2",
        ]) == 0
        traces = sorted(out.glob("trace_seed*_*.csv"))
        assert len(traces) == 2
        trace = read_trace_csv(traces[0])
        assert len(trace) == 240  # row count equals stream frame count
        summary = json.loads((out / "metrics_summary.json").read_text())
        assert set(summary) >= {"acer_mean", "acer_std"}
        per_seed = sorted(out.glob("metrics_seed*.json"))
        assert len(per_seed) == 2

    def test_frozen_mode_never_touches_head(self, pipeline):
        root, gen_dir, pre_dir = pipeline
        out = root / "run_frozen"
        head_path = pre_dir / "head.oaph"
        before = sha(head_path)
        stream = sorted(gen_dir.glob("stream_seed*.oapf"))[0]
        assert main([
            "run", "--out", str(out), "--head", str(head_path),
            "--replay", str(pre_dir / "replay.oapf"), "--stream", str(stream),
            "--mode", "frozen",
        ]) == 0
        assert sha(head_path) == before
        trace = read_trace_csv(sorted(out.glob("trace_*.csv"))[0])
        assert all(not r.finetuned for r in trace)

    def test_ema_mode_runs(self, pipeline):
        root, gen_dir, pre_dir = pipeline
        out = root / "run_ema"
        stream = sorted(gen_dir.glob("stream_seed*.oapf"))[0]
        assert main([
            "run", "--out", str(out), "--head", str(pre_dir / "head.oaph"),
            "--stream", str(stream), "--mode", "ema",
        ]) == 0

    def test_dimension_mismatch_is_data_error(self, pipeline, tmp_path):
        root, gen_dir, pre_dir = pipeline
        other = tmp_path / "othergen"
        assert main([
            "generate", "--out", str(other),
            "--set", "d=5", "--set", "n_users=4", "--set", "frames_per_user=40",
            "--set", "segments=live:30",
        ]) == 0
        code = main([
            "run", "--out", str(tmp_path / "o"), "--head", str(pre_dir / "head.oaph"),
            "--replay", str(pre_dir / "replay.oapf"),
            "--stream", str(other / "stream_seed0.oapf"),
        ])
        assert code == 3

    @pytest.mark.parametrize("mode", ["frozen", "ema"])
    def test_save_head_needs_oap_mode(self, pipeline, tmp_path, mode):
        """A baseline never changes the head, so asking it to save one is a
        config error, and no head file appears."""
        _, gen_dir, pre_dir = pipeline
        stream = sorted(gen_dir.glob("stream_seed*.oapf"))[0]
        saved = tmp_path / "adapted.oaph"
        assert main([
            "run", "--out", str(tmp_path / "o"), "--head", str(pre_dir / "head.oaph"),
            "--stream", str(stream), "--mode", mode, "--save-head", str(saved),
        ]) == 2
        assert not saved.exists()
        assert not (tmp_path / "o").exists()  # checked before the config echo

    def test_adapted_head_probe(self, pipeline, tmp_path):
        """Adapting on one stream, then probing another with the saved
        head through frozen mode, works end to end."""
        root, gen_dir, pre_dir = pipeline
        out = tmp_path / "probe"
        streams = sorted(gen_dir.glob("stream_seed*.oapf"))
        adapted = tmp_path / "adapted.oaph"
        assert main([
            "run", "--out", str(out), "--head", str(pre_dir / "head.oaph"),
            "--replay", str(pre_dir / "replay.oapf"), "--stream", str(streams[0]),
            "--mode", "oap", "--save-head", str(adapted),
        ]) == 0
        assert adapted.exists()
        assert main([
            "run", "--out", str(tmp_path / "probe2"), "--head", str(adapted),
            "--stream", str(streams[1]), "--mode", "frozen",
        ]) == 0

    def test_successive_calls_see_only_their_own_lists(self, pipeline, tmp_path):
        """One parser serves every call: the repeatable ``--set`` and
        ``--stream`` of a call carry nothing into the next."""
        _, gen_dir, pre_dir = pipeline
        streams = sorted(gen_dir.glob("stream_seed*.oapf"))
        calls = [
            ([streams[0], streams[1]], ["margin=0.1", "eval_threshold=0.4"]),
            ([streams[2]], ["learning_rate=0.002"]),
        ]
        for i, (paths, sets) in enumerate(calls):
            argv = ["run", "--out", str(tmp_path / f"o{i}"), "--head", str(pre_dir / "head.oaph"),
                    "--mode", "frozen"]
            for path in paths:
                argv += ["--stream", str(path)]
            for kv in sets:
                argv += ["--set", kv]
            assert main(argv) == 0
        for i, (paths, sets) in enumerate(calls):
            out = tmp_path / f"o{i}"
            assert sorted(p.name for p in out.glob("trace_*.csv")) == sorted(
                f"trace_seed0_{p.stem}.csv" for p in paths)
            resolved = parse_kv_file(out / "resolved.cfg")
            _, other_sets = calls[1 - i]
            for kv in sets:
                key, value = kv.split("=")
                assert resolved[key] == value
            for kv in other_sets:  # each differs from the default
                key, value = kv.split("=")
                assert resolved.get(key) != value


class TestSweep:
    def test_frequency_axis_emits_proportional_kflops(self, pipeline):
        root, gen_dir, pre_dir = pipeline
        out = root / "sweep_freq"
        stream = sorted(gen_dir.glob("stream_seed*.oapf"))[0]
        assert main([
            "sweep", "--out", str(out), "--axis", "finetune_freq",
            "--values", "1,0.5,0.2,0.05,0.01",
            "--head", str(pre_dir / "head.oaph"), "--train", str(gen_dir / "train.oapf"),
            "--stream", str(stream), "--set", "replay_size=100",
        ]) == 0
        lines = (out / "sweep_finetune_freq.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
        kflops = [float(r["kflops_per_frame"]) for r in rows]
        assert kflops == [960.0, 480.0, 192.0, 48.0, 9.6]

    def test_replay_axis_reports_linear_memory(self, pipeline):
        root, gen_dir, pre_dir = pipeline
        out = root / "sweep_replay"
        stream = sorted(gen_dir.glob("stream_seed*.oapf"))[0]
        assert main([
            "sweep", "--out", str(out), "--axis", "replay_size", "--values", "20,50,100",
            "--head", str(pre_dir / "head.oaph"), "--train", str(gen_dir / "train.oapf"),
            "--stream", str(stream),
        ]) == 0
        lines = (out / "sweep_replay_size.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
        mem = [int(r["replay_bytes"]) for r in rows]
        assert mem == [20 * 9 * 8, 50 * 9 * 8, 100 * 9 * 8]

    def test_out_of_range_value_rejected(self, pipeline, tmp_path):
        root, gen_dir, pre_dir = pipeline
        stream = sorted(gen_dir.glob("stream_seed*.oapf"))[0]
        code = main([
            "sweep", "--out", str(tmp_path / "s"), "--axis", "margin", "--values", "0.6",
            "--head", str(pre_dir / "head.oaph"), "--train", str(gen_dir / "train.oapf"),
            "--stream", str(stream),
        ])
        assert code == 2


def command_argv(command, pipeline, tmp_path):
    """A small, otherwise valid invocation of ``command`` on the pipeline's
    files; later ``--set`` flags override the ones given here."""
    _, gen_dir, pre_dir = pipeline
    out = ["--out", str(tmp_path / "out")]
    files = {
        "generate": ["--set", "d=8", "--set", "n_users=4", "--set", "frames_per_user=20",
                     "--set", "segments=live:10"],
        "pretrain": ["--train", str(gen_dir / "train.oapf"), "--set", "replay_size=10",
                     "--set", "pretrain_iterations=10"],
        "run": ["--head", str(pre_dir / "head.oaph"), "--stream",
                str(gen_dir / "stream_seed0.oapf")],
        "sweep": ["--axis", "margin", "--values", "0.1", "--head", str(pre_dir / "head.oaph"),
                  "--train", str(gen_dir / "train.oapf"),
                  "--stream", str(gen_dir / "stream_seed0.oapf"), "--set", "replay_size=10"],
    }
    return [command, *out, *files[command]]


class TestConfigAtTheDoor:
    """A value that does not parse as its field's type, or lies outside its
    range, and a --set key that no command reads, exit 2 with a message
    naming the key, and write nothing: not even resolved.cfg. In ``extra``,
    the item after ``--config`` is the text of a config file."""

    @pytest.mark.parametrize("command,extra,message", [
        ("generate", ["--set", "seeds=abc"], "seeds out of range: 'abc' (want an integer)"),
        ("generate", ["--set", "frame_rate=fast"],
         "frame_rate out of range: 'fast' (want a real number)"),
        ("generate", ["--set", "n_users=x"], "n_users out of range: 'x' (want an integer)"),
        ("run", ["--mode", "ema", "--set", "ema_momentum=abc"], "ema_momentum out of range: 'abc'"),
        ("generate", ["--set", "seeds=0"], "seeds out of range"),
        ("run", ["--set", "seeds=0"], "seeds out of range"),
        ("run", ["--seeds", "0"], "seeds out of range"),
        ("sweep", ["--set", "seeds=-1"], "seeds out of range"),
        ("generate", ["--set", "d=0"], "d out of range"),
        ("pretrain", ["--set", "pretrain_decay_every=0"], "pretrain_decay_every out of range"),
        ("pretrain", ["--set", "pretrain_batch_size=0"], "pretrain_batch_size out of range"),
        ("sweep", ["--axis", "replay_size", "--values", "10,4.5"],
         "replay_size out of range: '4.5'"),
        ("run", ["--set", "marign=0.2"], "unknown config key 'marign'"),
        ("generate", ["--set", "sweep_axis=margin"], "unknown config key 'sweep_axis'"),
        ("generate", ["--set", "frames_per_user=0"], "frames_per_user out of range: 0"),
        ("generate", ["--set", "frames_per_user=1"], "frames_per_user out of range: 1"),
        ("generate", ["--set", "n_users=1"], "n_users out of range: 1"),
        ("pretrain", ["--set", "pretrain_iterations=-1"], "pretrain_iterations out of range: -1"),
        ("run", ["--set", "ema_momentum=1.5"], "ema_momentum out of range: 1.5"),
        ("generate", ["--config", "mode = bogus\n"],
         "mode out of range: 'bogus' (want one of ('oap', 'frozen', 'ema'))"),
        ("run", ["--set", "margin=0.9"], "margin out of range: 0.9"),
        ("generate", ["--set", "segments=spoof:-3:2"],
         "segments out of range: -3 (want durations >= 1)"),
        ("generate", ["--set", "frame_rate=0"], "frame_rate out of range: 0.0"),
        ("sweep", ["--values", "0.1,0.7"], "margin out of range: 0.7"),
        ("generate", ["--set", "segments=live:0"],
         "segments out of range: 0 (want durations >= 1)"),
        ("generate", ["--set", "segments="],
         "segments out of range: () (want at least one segment)"),
        ("generate", ["--set", "frame_rate=inf"], "frame_rate out of range: inf"),
        ("generate", ["--set", "user_id=-999997"], "user_id out of range: -999997"),
        ("generate", ["--set", "drift_rate=nan"], "drift_rate out of range: nan"),
        ("generate", ["--set", "user_shift_scale=inf"], "user_shift_scale out of range: inf"),
        ("generate", ["--set", "class_separation=inf"], "class_separation out of range: inf"),
        ("generate", ["--set", "noise_std=nan"], "noise_std out of range: nan"),
        ("generate", ["--set", "seed=-1"], "seed out of range: -1"),
        ("run", ["--set", "eviction_horizon=inf"], "eviction_horizon out of range: inf"),
        ("run", ["--set", "learning_rate=inf"], "learning_rate out of range: inf"),
        ("run", ["--set", "weight_decay=inf"], "weight_decay out of range: inf"),
        ("sweep", ["--set", "eviction_horizon=nan"], "eviction_horizon out of range: nan"),
        ("pretrain", ["--set", "pretrain_learning_rate=inf"],
         "pretrain_learning_rate out of range: inf"),
        ("pretrain", ["--set", "pretrain_weight_decay=-1"], "pretrain_weight_decay out of range: -1.0"),
        ("pretrain", ["--set", "pretrain_decay_gamma=0"], "pretrain_decay_gamma out of range: 0.0"),
    ])
    def test_rejected_with_key_named(self, pipeline, tmp_path, capsys, command, extra, message):
        if "--config" in extra:
            at = extra.index("--config") + 1
            cfg = tmp_path / "door.cfg"
            cfg.write_text(extra[at])
            extra = [*extra[:at], str(cfg), *extra[at + 1:]]
        capsys.readouterr()
        assert main(command_argv(command, pipeline, tmp_path) + extra) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "resolved.cfg").exists()
        assert not (tmp_path / "out").exists()

    def test_sweep_grid_checked_before_first_run(self, pipeline, tmp_path, monkeypatch):
        """An out-of-range third value stops the sweep before any run."""
        def no_run(*args, **kwargs):
            raise AssertionError("sweep ran a grid point")

        monkeypatch.setattr("oap.cli.Engine", no_run)
        argv = command_argv("sweep", pipeline, tmp_path) + ["--values", "0.1,0.2,0.6"]
        assert main(argv) == 2

    def test_config_file_may_carry_other_keys(self, pipeline, tmp_path):
        """One config file can be shared with other tools: keys no command
        reads are ignored there, unlike in --set."""
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("plot_style = dark\nmargin = 0.05\n")
        argv = command_argv("generate", pipeline, tmp_path) + ["--config", str(cfg)]
        assert main(argv) == 0


@pytest.mark.parametrize("command,flag", [
    ("pretrain", "--train"), ("run", "--stream"), ("run", "--replay"), ("sweep", "--stream"),
])
def test_malformed_feature_file_exits_3_naming_the_line(pipeline, tmp_path, capsys, command,
                                                       flag):
    """Every command that reads a feature file exits 3 on a malformed row,
    names the file and the first bad line, and writes nothing."""
    _, gen_dir, _ = pipeline
    lines = (gen_dir / "stream_seed0.oapf").read_text().splitlines()
    cols = lines[4].split(",")
    cols[-1] = "nan"
    lines[4] = ",".join(cols)
    lines[6] = lines[6].rsplit(",", 1)[0]  # a short row after it
    bad = tmp_path / "bad.oapf"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(command_argv(command, pipeline, tmp_path) + [flag, str(bad)]) == 3
    assert f"{bad}:5: non-finite value in feature input" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_data_error_at_a_later_grid_point_writes_nothing(pipeline, tmp_path, capsys):
    """A grid value the training set cannot serve stops ``oap sweep`` with
    exit 3 and writes nothing, though an earlier grid point has run."""
    argv = command_argv("sweep", pipeline, tmp_path)
    capsys.readouterr()
    assert main(argv + ["--axis", "replay_size", "--values", "10,100000000"]) == 3
    assert "cannot subsample 100000000" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["frozen", "ema"])
@pytest.mark.parametrize("row, message", [
    ("99999999999999999999", "frame index out of range"),
    ("short", "expected 11 columns, got 10"),
    ("long", "expected 11 columns, got 12"),
    ("label 7", "labels must be 0 or 1"),
])
def test_run_on_a_bad_stream_exits_3_without_a_trace(pipeline, tmp_path, capsys, mode, row,
                                                      message):
    """A frame index beyond int64, a label other than 0 or 1 and a row of
    another width (a ragged stream) stop ``oap run`` of a baseline with
    exit 3 before writing anything."""
    _, gen_dir, _ = pipeline
    lines = (gen_dir / "stream_seed0.oapf").read_text().splitlines()
    cols = lines[4].split(",")
    cols = {
        "short": cols[:-1], "long": cols + ["0.0"], "label 7": [*cols[:2], "7", *cols[3:]],
    }.get(row, [row, *cols[1:]])
    lines[4] = ",".join(cols)
    bad = tmp_path / "bad.oapf"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    argv = command_argv("run", pipeline, tmp_path) + ["--mode", mode, "--stream", str(bad)]
    assert main(argv) == 3
    assert f"{bad}:5: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("kept, message", [
    (0, "no spoof frames: APCER undefined"), (1, "no live frames: BPCER undefined"),
])
def test_one_class_stream_exits_3_writing_nothing(pipeline, tmp_path, capsys, command, kept,
                                                   message):
    """The error rates need both classes, so ``oap run`` and ``oap sweep``
    refuse a labeled stream of one class before they write anything."""
    _, gen_dir, pre_dir = pipeline
    data = load_feature_file(gen_dir / "stream_seed0.oapf")
    rows = data.labels == kept
    one_class = tmp_path / "one_class.oapf"
    save_feature_file(one_class, data.features[rows], data.frame_indices[rows],
                      data.times[rows], data.labels[rows])
    argv = {
        "run": ["run", "--out", str(tmp_path / "out"), "--mode", "frozen",
                "--head", str(pre_dir / "head.oaph"), "--stream", str(one_class)],
        "sweep": command_argv("sweep", pipeline, tmp_path) + ["--stream", str(one_class)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_empty_stream_exits_3_writing_nothing(pipeline, tmp_path, capsys):
    """A stream file of no rows is refused at the door too."""
    _, _, pre_dir = pipeline
    empty = tmp_path / "empty.oapf"
    empty.write_text("oapf v1 d=8 labeled=1 fps=30.0\n")
    capsys.readouterr()
    assert main(["run", "--out", str(tmp_path / "out"), "--mode", "frozen",
                 "--head", str(pre_dir / "head.oaph"), "--stream", str(empty)]) == 3
    assert f"{empty}: empty stream" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("second", ["the same path", "another directory"])
def test_run_refuses_two_streams_with_one_stem_writing_nothing(pipeline, tmp_path, capsys,
                                                               second):
    """Traces are named by the stream's file stem, so a second stream of
    that stem would overwrite the first one's traces: exit 2, naming it."""
    _, gen_dir, _ = pipeline
    stream = gen_dir / "stream_seed0.oapf"
    copy = tmp_path / "other" / stream.name
    copy.parent.mkdir()
    copy.write_bytes(stream.read_bytes())
    argv = command_argv("run", pipeline, tmp_path)
    argv += ["--stream", str(stream if second == "the same path" else copy)]
    capsys.readouterr()
    assert main(argv) == 2
    assert "two --stream files share the stem 'stream_seed0'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def seed_traces(pipeline):
    """Trace CSVs of a two-seed oap run on one stream, for the report tests."""
    root, gen_dir, pre_dir = pipeline
    out = root / "report_oap"
    stream = sorted(gen_dir.glob("stream_seed*.oapf"))[0]
    assert main([
        "run", "--out", str(out), "--head", str(pre_dir / "head.oaph"),
        "--replay", str(pre_dir / "replay.oapf"), "--stream", str(stream),
        "--mode", "oap", "--seeds", "2",
    ]) == 0
    return sorted(out.glob("trace_seed*_*.csv"))


class TestReport:
    def test_merges_seed_traces(self, seed_traces, tmp_path):
        traces = seed_traces
        out = tmp_path / "merged.csv"
        assert main(["report", "--trace", str(traces[0]), "--trace", str(traces[1]),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "frame_index,ground_truth,y_mean,y_std,n_traces"
        assert len(lines) == 241

    def test_single_trace_gives_zero_std(self, seed_traces, tmp_path):
        trace = seed_traces[0]
        out = tmp_path / "single.csv"
        assert main(["report", "--trace", str(trace), "--out", str(out)]) == 0
        stds = [float(l.split(",")[3]) for l in out.read_text().splitlines()[1:]]
        assert all(s == 0.0 for s in stds)

    def test_mismatched_lengths_rejected(self, seed_traces, tmp_path):
        full = seed_traces[0]
        short = tmp_path / "short.csv"
        lines = Path(full).read_text().splitlines()
        short.write_text("\n".join(lines[:100]) + "\n")
        assert main(["report", "--trace", str(full), "--trace", str(short),
                     "--out", str(tmp_path / "m.csv")]) == 3

    @pytest.mark.parametrize("column", [0, 1])
    def test_traces_of_different_streams_rejected(self, seed_traces, tmp_path, column):
        """Traces whose frame_index (column 0) or ground_truth (column 1)
        differ from the first trace's come from different streams and
        exit 3 instead of merging."""
        lines = Path(seed_traces[1]).read_text().splitlines()
        cols = lines[-1].split(",")
        cols[column] = str(int(cols[column]) + 1) if column == 0 else str(1 - int(cols[column]))
        lines[-1] = ",".join(cols)
        other = tmp_path / "other.csv"
        other.write_text("\n".join(lines) + "\n")
        out = tmp_path / "m.csv"
        assert main(["report", "--trace", str(seed_traces[0]), "--trace", str(other),
                     "--out", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("column, value", [(1, "7"), (3, "5")],
                             ids=["ground truth 7", "decision 5"])
    def test_a_label_other_than_0_or_1_is_data_error(self, seed_traces, tmp_path, capsys,
                                                     column, value):
        """A ground truth or decision that the labels rule refuses exits 3,
        naming the file and the column, and writes nothing."""
        lines = Path(seed_traces[0]).read_text().splitlines()
        cols = lines[5].split(",")
        cols[column] = value
        lines[5] = ",".join(cols)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "m.csv"
        capsys.readouterr()
        assert main(["report", "--trace", str(bad), "--out", str(out)]) == 3
        name = lines[0].split(",")[column]
        assert f"{bad}: {name}: labels must be 0 or 1" in capsys.readouterr().err
        assert not out.exists()

    def test_an_all_blank_ground_truth_column_is_merged(self, seed_traces, tmp_path):
        lines = Path(seed_traces[0]).read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        blank = tmp_path / "blank.csv"
        blank.write_text("\n".join([lines[0], *(",".join([r[0], "", *r[2:]]) for r in rows)])
                         + "\n")
        out = tmp_path / "m.csv"
        assert main(["report", "--trace", str(blank), "--out", str(out)]) == 0
        merged = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [m[:2] for m in merged] == [[r[0], ""] for r in rows]

    def test_malformed_trace_is_data_error(self, seed_traces, tmp_path):
        """A trace cell that does not parse exits 3 like any other bad input."""
        lines = Path(seed_traces[0]).read_text().splitlines()
        cols = lines[1].split(",")
        cols[2] = "abc"
        lines[1] = ",".join(cols)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["report", "--trace", str(bad), "--out", str(tmp_path / "m.csv")]) == 3

    @pytest.mark.parametrize("k", range(1, 13))
    def test_merged_bytes_match_the_per_frame_reduction(self, tmp_path, k):
        """``report`` reduces all frames at once, with the bits of a mean
        and a spread taken frame by frame over each frame's column of
        ``y``, for 1 to 12 traces of drawn scores at mixed scales."""
        rng = np.random.default_rng(k)
        n = 64
        index = np.cumsum(rng.integers(1, 4, n)).tolist()
        truth = [None if u < 0.2 else int(u > 0.6) for u in rng.random(n)]
        ys = rng.random((k, n)) * 10.0 ** rng.integers(-12, 3, (k, n))
        paths = []
        for t, row in enumerate(ys):
            paths += ["--trace", str(tmp_path / f"t{t}.csv")]
            write_trace_csv(paths[-1], [TraceRecord(i, g, y, int(y > 0.5), None, False, 0, 0.0)
                                        for i, g, y in zip(index, truth, row.tolist())])
        out = tmp_path / "merged.csv"
        assert main(["report", *paths, "--out", str(out)]) == 0
        expected = "frame_index,ground_truth,y_mean,y_std,n_traces\n" + "".join(
            f"{i},{'' if g is None else g},{float(ys[:, j].mean())!r},"
            f"{float(ys[:, j].std())!r},{k}\n"
            for j, (i, g) in enumerate(zip(index, truth)))
        assert out.read_bytes() == expected.encode()


def text_copy(source, dest):
    """``dest``: the feature file ``source`` written again as ``oapf v1`` text."""
    data = load_feature_file(source)
    save_feature_file(dest, data.features, data.frame_indices, data.times, data.labels,
                      data.frame_rate)
    return dest


@pytest.mark.parametrize("command, code", [("pretrain", 3), ("report", 3), ("generate", 2)])
def test_undecodable_input_exits_with_its_code(pipeline, seed_traces, tmp_path, capsys,
                                               command, code):
    """A non-UTF-8 byte in the file a command reads (a feature file, a trace,
    a config file) exits 3 for data or 2 for config, naming the file, and
    writes nothing."""
    _, gen_dir, _ = pipeline
    source = {"pretrain": text_copy(gen_dir / "train.oapf", tmp_path / "train_v1.oapf"),
              "report": seed_traces[0], "generate": None}[command]
    bad = tmp_path / "bad"
    bad.write_bytes((source.read_bytes() if source else b"d = 8\n") + b"\xff\n")
    out = tmp_path / "out"
    argv = {"pretrain": ["pretrain", "--out", str(out), "--train", str(bad)],
            "report": ["report", "--trace", str(bad), "--out", str(out)],
            "generate": ["generate", "--out", str(out), "--config", str(bad)]}[command]
    capsys.readouterr()
    assert main(argv) == code
    assert f"{bad}: not a text file" in capsys.readouterr().err
    assert not out.exists()


def truncated_mid_row(source: bytes) -> bytes:
    """``source`` cut halfway through its middle line, or for a binary head
    file halfway through a parameter."""
    if source.startswith(b"OAPH"):
        return source[: len(source) // 2 + 3]
    lines = source.split(b"\n")
    middle = len(lines) // 2
    return b"\n".join(lines[:middle] + [lines[middle][: len(lines[middle]) // 2]])


# Each kind makes the broken file at ``path`` from the ``source`` bytes of a good one.
BROKEN_FILES = {
    "corrupt": lambda path, source: path.write_bytes(b"\xff" + source),
    "empty": lambda path, source: path.write_bytes(b""),
    "truncated mid-row": lambda path, source: path.write_bytes(truncated_mid_row(source)),
    "missing": lambda path, source: None,
    "a directory": lambda path, source: path.mkdir(),
}
CONFIG_TEXT = b"seed = 0\nreplay_size = 10\npretrain_iterations = 10\n"


@pytest.mark.parametrize("broken", sorted(BROKEN_FILES))
@pytest.mark.parametrize("command, flag", [
    ("pretrain", "--train"), ("run", "--head"), ("run", "--replay"), ("run", "--stream"),
    ("sweep", "--head"), ("sweep", "--train"), ("sweep", "--stream"), ("report", "--trace"),
    ("generate", "--config"), ("pretrain", "--config"), ("run", "--config"),
    ("sweep", "--config"),
])
def test_broken_input_file_exits_with_its_code_writing_nothing(pipeline, seed_traces, tmp_path,
                                                               capsys, command, flag, broken):
    """Every flag that reads a file, given a corrupt file (one that starts
    with a byte that is not UTF-8), an empty one, one truncated mid-row, a
    path to no file or a directory, exits 2 for a config file or 3 for a
    data file, names the file and writes no output."""
    _, gen_dir, pre_dir = pipeline
    source = {
        "--train": gen_dir / "train.oapf", "--stream": gen_dir / "stream_seed0.oapf",
        "--head": pre_dir / "head.oaph", "--replay": pre_dir / "replay.oapf",
        "--trace": seed_traces[0],
    }.get(flag)
    bad = tmp_path / "bad"
    BROKEN_FILES[broken](bad, source.read_bytes() if source else CONFIG_TEXT)
    out = tmp_path / "out"
    if command == "report":
        argv = ["report", "--trace", str(bad), "--out", str(out)]
    else:
        argv = command_argv(command, pipeline, tmp_path) + [flag, str(bad)]
    capsys.readouterr()
    assert main(argv) == (2 if flag == "--config" else 3)
    err = capsys.readouterr().err
    assert str(bad) in err
    if broken in ("missing", "a directory"):
        reason = "No such file or directory" if broken == "missing" else "Is a directory"
        assert err.endswith(f"{bad}: cannot read ({reason})\n")
    assert not out.exists()


# Each kind of output path that cannot be written, under ``root`` beside a
# file ``afile`` and a link ``alink`` to nothing: its flag and the path.
UNWRITABLE_OUTPUTS = {
    "--out a file": ("--out", lambda root: root / "afile"),
    "--out under a file": ("--out", lambda root: root / "afile" / "out"),
    "--out a broken link": ("--out", lambda root: root / "alink"),
    "report --out in no directory": ("--out", lambda root: root / "nodir" / "merged.csv"),
    "report --out a directory": ("--out", lambda root: root),
    "--save-head in no directory": ("--save-head", lambda root: root / "nodir" / "head.oaph"),
}


@pytest.mark.parametrize("command, kind", [
    ("generate", "--out a file"), ("pretrain", "--out a file"), ("run", "--out a file"),
    ("sweep", "--out a file"), ("sweep", "--out under a file"), ("run", "--out a broken link"),
    ("report", "report --out in no directory"), ("report", "report --out a directory"),
    ("run", "--save-head in no directory"),
])
def test_unwritable_output_path_exits_2_writing_nothing(pipeline, seed_traces, tmp_path, capsys,
                                                         monkeypatch, command, kind):
    """The output-side twin of the broken input file: an output path that
    cannot be written exits 2 with one config error line naming it, before
    any input is read, and writes nothing."""
    afile = tmp_path / "afile"
    afile.write_bytes(b"kept")
    (tmp_path / "alink").symlink_to(tmp_path / "nowhere")
    flag, make = UNWRITABLE_OUTPUTS[kind]
    path = make(tmp_path)
    if command == "report":
        argv = ["report", "--trace", str(seed_traces[0]), "--out", str(path)]
    else:
        argv = command_argv(command, pipeline, tmp_path) + [flag, str(path)]

    def work(*args, **kwargs):
        raise AssertionError("work began before the output paths were checked")

    for name in ("load_feature_file", "load_head", "read_trace_csv", "generate_pretraining_set"):
        monkeypatch.setattr(f"oap.cli.{name}", work)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "alink"]
    assert afile.read_bytes() == b"kept" and not (tmp_path / "nowhere").exists()


def with_cell(source: bytes, offset: int, cell: bytes) -> bytes:
    """The ``oapf v2`` file ``source`` with the 8 bytes at ``offset`` of its
    first record, which starts after the header line, replaced by ``cell``."""
    at = source.index(b"\n") + 1 + offset
    return source[:at] + cell + source[at + 8:]


# Labeled sets that ``oap generate`` and ``oap pretrain`` write as binary
# records, broken in ways that only a v2 file can be. A record of d=8 is
# index, time, label, then the features, 8 bytes each.
BROKEN_LABELED_SETS = {
    "body cut by one byte": lambda source: source[:-1],
    "one extra byte": lambda source: source + b"\0",
    "header d off by one": lambda source: source.replace(b" d=8 ", b" d=9 ", 1),
    "version v3": lambda source: source.replace(b"oapf v2 ", b"oapf v3 ", 1),
    "nan feature": lambda source: with_cell(source, 24, struct.pack("<d", math.nan)),
    "label 2": lambda source: with_cell(source, 16, struct.pack("<q", 2)),
}


@pytest.mark.parametrize("broken", sorted(BROKEN_LABELED_SETS))
@pytest.mark.parametrize("command, flag", [
    ("pretrain", "--train"), ("sweep", "--train"), ("run", "--replay"),
])
def test_broken_labeled_set_exits_3_writing_nothing(pipeline, tmp_path, capsys, command, flag,
                                                     broken):
    """A training set or a replay store whose binary body is cut, too long,
    of another ``d``, of an unknown version or holds a NaN feature or a
    label of 2 exits 3, names the file and writes no output."""
    _, gen_dir, pre_dir = pipeline
    source = (gen_dir / "train.oapf" if flag == "--train" else pre_dir / "replay.oapf").read_bytes()
    assert source.startswith(b"oapf v2 d=8 labeled=1 ")
    bad = tmp_path / "bad.oapf"
    bad.write_bytes(BROKEN_LABELED_SETS[broken](source))
    capsys.readouterr()
    assert main(command_argv(command, pipeline, tmp_path) + [flag, str(bad)]) == 3
    assert str(bad) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unlabeled_binary_replay_exits_3_writing_nothing(pipeline, tmp_path, capsys):
    _, _, pre_dir = pipeline
    replay = load_feature_file(pre_dir / "replay.oapf")
    bad = tmp_path / "unlabeled.oapf"
    _save(bad, "v2", replay.features, replay.frame_indices, replay.times, None, replay.frame_rate)
    capsys.readouterr()
    assert main(command_argv("run", pipeline, tmp_path) + ["--replay", str(bad)]) == 3
    assert f"{bad}: replay store file must carry labels" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_text_labeled_sets_give_the_same_head_replay_and_traces(pipeline, tmp_path):
    """``oap pretrain`` on a v1 text copy of the binary training set writes
    the same ``head.oaph`` and keeps the same replay store, and ``oap run``
    with a v1 text copy of the binary replay store writes the same traces."""
    _, gen_dir, pre_dir = pipeline
    text_train = text_copy(gen_dir / "train.oapf", tmp_path / "train_v1.oapf")
    assert text_train.read_bytes().startswith(b"oapf v1 ")
    pretrain = ["--set", "pretrain_iterations=300", "--set", "replay_size=100"]
    for name, train in [("pre_v1", text_train), ("pre_v2", gen_dir / "train.oapf")]:
        assert main(["pretrain", "--out", str(tmp_path / name), "--train", str(train),
                     *pretrain]) == 0
    assert sha(tmp_path / "pre_v1" / "head.oaph") == sha(tmp_path / "pre_v2" / "head.oaph")
    assert (ReplayStore.load(tmp_path / "pre_v1" / "replay.oapf").fingerprint()
            == ReplayStore.load(tmp_path / "pre_v2" / "replay.oapf").fingerprint())

    text_replay = text_copy(pre_dir / "replay.oapf", tmp_path / "replay_v1.oapf")
    for name, replay in [("run_v1", text_replay), ("run_v2", pre_dir / "replay.oapf")]:
        assert main(["run", "--out", str(tmp_path / name), "--mode", "oap", "--seeds", "2",
                     "--head", str(pre_dir / "head.oaph"), "--replay", str(replay),
                     "--stream", str(gen_dir / "stream_seed0.oapf")]) == 0
    traces = sorted(p.name for p in (tmp_path / "run_v2").glob("trace_*"))
    assert len(traces) == 4
    for name in traces:
        assert sha(tmp_path / "run_v1" / name) == sha(tmp_path / "run_v2" / name), name


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_commands() -> list[list[str]]:
    """The ``oap`` command lines of the README's CLI walkthrough, with line
    continuations joined, each split as a shell would."""
    section = README.read_text().split("## CLI walkthrough", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.startswith("oap ")]


def test_readme_cli_walkthrough_runs(tmp_path, monkeypatch, capsys):
    """Every command of the README's CLI walkthrough exits 0, in order, in
    a fresh directory."""
    commands = readme_cli_commands()
    assert [argv[1] for argv in commands] == [
        "generate", "pretrain", "run", "run", "sweep", "report",
    ]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code = main(argv[1:])
        assert code == 0, (argv, capsys.readouterr().err)
