"""End-to-end CLI: the generate -> pretrain -> run -> sweep -> report
pipeline in a temp directory, exit codes, and config-echo reproducibility."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from oap.cli import main
from oap.engine import read_trace_csv
from oap.simstream import load_feature_file


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
        ("generate", ["--set", "seeds=abc"], "bad value for seeds: 'abc'"),
        ("generate", ["--set", "frame_rate=fast"], "bad value for frame_rate: 'fast'"),
        ("generate", ["--set", "n_users=x"], "bad value for n_users: 'x'"),
        ("run", ["--mode", "ema", "--set", "ema_momentum=abc"], "bad value for ema_momentum"),
        ("generate", ["--set", "seeds=0"], "seeds out of range"),
        ("run", ["--set", "seeds=0"], "seeds out of range"),
        ("run", ["--seeds", "0"], "seeds out of range"),
        ("sweep", ["--set", "seeds=-1"], "seeds out of range"),
        ("generate", ["--set", "d=0"], "d out of range"),
        ("pretrain", ["--set", "pretrain_decay_every=0"], "pretrain_decay_every out of range"),
        ("pretrain", ["--set", "pretrain_batch_size=0"], "pretrain_batch_size out of range"),
        ("sweep", ["--axis", "replay_size", "--values", "10,4.5"], "bad value for replay_size"),
        ("run", ["--set", "marign=0.2"], "unknown config key 'marign'"),
        ("generate", ["--set", "sweep_axis=margin"], "unknown config key 'sweep_axis'"),
        ("generate", ["--set", "frames_per_user=0"], "frames_per_user out of range: 0"),
        ("generate", ["--set", "frames_per_user=1"], "frames_per_user out of range: 1"),
        ("generate", ["--set", "n_users=1"], "n_users out of range: 1"),
        ("pretrain", ["--set", "pretrain_iterations=-1"], "pretrain_iterations out of range: -1"),
        ("run", ["--set", "ema_momentum=1.5"], "ema_momentum out of range: 1.5"),
        ("generate", ["--config", "mode = bogus\n"], "unknown mode 'bogus'"),
        ("run", ["--set", "margin=0.9"], "margin out of range: 0.9"),
        ("generate", ["--set", "segments=live:0"], "segment duration must be >= 1, got 0"),
        ("generate", ["--set", "frame_rate=0"], "frame_rate out of range: 0.0"),
        ("sweep", ["--values", "0.1,0.7"], "margin out of range: 0.7"),
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

    def test_malformed_trace_is_data_error(self, seed_traces, tmp_path):
        """A trace cell that does not parse exits 3 like any other bad input."""
        lines = Path(seed_traces[0]).read_text().splitlines()
        cols = lines[1].split(",")
        cols[2] = "abc"
        lines[1] = ",".join(cols)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["report", "--trace", str(bad), "--out", str(tmp_path / "m.csv")]) == 3
