"""``oap run`` and ``oap sweep`` check a stream's frame order and times at
the door, ``oap sweep`` the dimension of its stream and pre-training file,
``oap run`` that of its replay store, and ``n_users`` stays below the
held-out user ids: a data error exits 3 and a config error 2, and neither
writes anything."""

import pytest

import oap.cli
from oap.cli import RunnerConfig, main
from oap.errors import ConfigError
from oap.simstream import HELD_OUT_USER_BASE


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A small generated pair of streams and a head trained for them."""
    root = tmp_path_factory.mktemp("cli_checks")
    gen_dir, pre_dir = root / "gen", root / "pre"
    assert main([
        "generate", "--out", str(gen_dir), "--set", "d=4", "--set", "n_users=4",
        "--set", "frames_per_user=40", "--set", "segments=live:40,spoof:40", "--set", "seeds=2",
    ]) == 0
    assert main([
        "pretrain", "--out", str(pre_dir), "--train", str(gen_dir / "train.oapf"),
        "--set", "pretrain_iterations=20", "--set", "replay_size=20",
    ]) == 0
    return gen_dir, pre_dir


# Row 31 of a stream file, given row 30 before it: the three ways a frame
# breaks the engine's order, and the reason each is refused with.
FAULTS = {
    "nan time": (lambda row, prev: [row[0], "nan", *row[2:]], "non-finite frame time nan"),
    "repeated index": (lambda row, prev: [prev[0], *row[1:]],
                       "frame index 30 does not follow the last frame's 30"),
    "backward time": (lambda row, prev: [row[0], "0.5", *row[2:]],
                      "frame time 0.5 precedes the last frame's 0.9666666666666667"),
}


def broken_stream(files, tmp_path, fault):
    """The first stream with row 31 broken by ``fault``."""
    gen_dir, _ = files
    lines = (gen_dir / "stream_seed0.oapf").read_text().splitlines()
    row, prev = lines[31].split(","), lines[30].split(",")
    lines[31] = ",".join(FAULTS[fault][0](row, prev))
    bad = tmp_path / "bad.oapf"
    bad.write_text("\n".join(lines) + "\n")
    return bad


@pytest.mark.parametrize("mode", ["oap", "frozen", "ema"])
@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("after_a_good_stream", [False, True], ids=["alone", "second"])
def test_run_refuses_a_stream_out_of_order_writing_nothing(files, tmp_path, capsys, mode, fault,
                                                           after_a_good_stream):
    """A NaN time, a repeated index or a backward time exits 3 in every
    mode, naming the file and the row, with no config echo and no trace,
    also of a good stream given before it."""
    gen_dir, pre_dir = files
    bad = broken_stream(files, tmp_path, fault)
    streams = ["--stream", str(gen_dir / "stream_seed1.oapf")] if after_a_good_stream else []
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["run", "--out", str(out), "--mode", mode, "--head", str(pre_dir / "head.oaph"),
                 "--replay", str(pre_dir / "replay.oapf"), *streams, "--stream", str(bad)]) == 3
    assert f"{bad}: row 31: {FAULTS[fault][1]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_sweep_refuses_a_stream_out_of_order_writing_nothing(files, tmp_path, capsys, fault):
    gen_dir, pre_dir = files
    bad = broken_stream(files, tmp_path, fault)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["sweep", "--out", str(out), "--axis", "margin", "--values", "0.1,0.2",
                 "--head", str(pre_dir / "head.oaph"), "--train", str(gen_dir / "train.oapf"),
                 "--stream", str(bad), "--set", "replay_size=10"]) == 3
    assert f"{bad}: row 31: {FAULTS[fault][1]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def wide_files(tmp_path_factory):
    """A pre-training set and a stream of dimension 8, twice the head's."""
    gen_dir = tmp_path_factory.mktemp("cli_checks_wide")
    assert main([
        "generate", "--out", str(gen_dir), "--set", "d=8", "--set", "n_users=2",
        "--set", "frames_per_user=10", "--set", "segments=live:10,spoof:10",
    ]) == 0
    return gen_dir


@pytest.mark.parametrize("wide", ["stream", "train"])
def test_sweep_refuses_a_file_of_another_dimension_writing_nothing(files, wide_files, tmp_path,
                                                                   capsys, monkeypatch, wide):
    """A stream or a pre-training file whose dimension is not the head's
    exits 3, naming the file, before a replay store is carved."""

    def no_carve(*args):
        raise AssertionError("carved a replay store")

    monkeypatch.setattr(oap.cli, "carve_replay", no_carve)
    gen_dir, pre_dir = files
    paths = {"stream": gen_dir / "stream_seed0.oapf", "train": gen_dir / "train.oapf"}
    paths[wide] = wide_files / paths[wide].name
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["sweep", "--out", str(out), "--axis", "margin", "--values", "0.1,0.2",
                 "--head", str(pre_dir / "head.oaph"), "--train", str(paths["train"]),
                 "--stream", str(paths["stream"]), "--set", "replay_size=10"]) == 3
    what = {"stream": "stream", "train": "pre-training"}[wide]
    assert f"{paths[wide]}: {what} dimension 8 != head dimension 4" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["oap", "frozen", "ema"])
def test_run_refuses_a_replay_of_another_dimension_writing_nothing(files, wide_files, tmp_path,
                                                                   capsys, mode):
    """A replay store whose dimension is not the head's exits 3 in every
    mode, naming the file, as a stream of another dimension does."""
    gen_dir, pre_dir = files
    replay = tmp_path / "replay.oapf"
    assert main(["pretrain", "--out", str(tmp_path / "wide"), "--train",
                 str(wide_files / "train.oapf"), "--set", "pretrain_iterations=0",
                 "--set", "replay_size=6"]) == 0
    (tmp_path / "wide" / "replay.oapf").rename(replay)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["run", "--out", str(out), "--mode", mode, "--head", str(pre_dir / "head.oaph"),
                 "--replay", str(replay), "--stream", str(gen_dir / "stream_seed0.oapf")]) == 3
    assert f"{replay}: replay dimension 8 != head dimension 4" in capsys.readouterr().err
    assert not out.exists()


def test_run_takes_equal_times(files, tmp_path):
    """Times may repeat; only a backward time is refused."""
    gen_dir, pre_dir = files
    lines = (gen_dir / "stream_seed0.oapf").read_text().splitlines()
    row, prev = lines[31].split(","), lines[30].split(",")
    lines[31] = ",".join([row[0], prev[1], *row[2:]])
    stream = tmp_path / "equal.oapf"
    stream.write_text("\n".join(lines) + "\n")
    assert main(["run", "--out", str(tmp_path / "out"), "--mode", "frozen",
                 "--head", str(pre_dir / "head.oaph"), "--stream", str(stream)]) == 0


@pytest.mark.parametrize("command", ["generate", "run", "sweep"])
def test_n_users_beyond_the_held_out_ids_exits_2_writing_nothing(files, tmp_path, capsys,
                                                                  monkeypatch, command):
    """With more than HELD_OUT_USER_BASE pre-training users, user
    HELD_OUT_USER_BASE would draw held-out user 0's offset. The generator is
    replaced by one that fails, so no command gets as far as a draw."""

    def no_generation(*args):
        raise AssertionError("generated a pre-training set")

    monkeypatch.setattr(oap.cli, "generate_pretraining_set", no_generation)
    gen_dir, pre_dir = files
    out = tmp_path / "out"
    head, stream = str(pre_dir / "head.oaph"), str(gen_dir / "stream_seed0.oapf")
    argv = {"generate": ["generate", "--out", str(out)],
            "run": ["run", "--out", str(out), "--head", head, "--stream", stream],
            "sweep": ["sweep", "--out", str(out), "--axis", "margin", "--values", "0.1",
                      "--head", head, "--train", str(gen_dir / "train.oapf"),
                      "--stream", stream]}[command]
    capsys.readouterr()
    assert main(argv + ["--set", f"n_users={HELD_OUT_USER_BASE + 1}"]) == 2
    assert f"n_users out of range: {HELD_OUT_USER_BASE + 1}" in capsys.readouterr().err
    assert not out.exists()


def test_runner_config_takes_n_users_up_to_the_held_out_ids():
    assert RunnerConfig(n_users=HELD_OUT_USER_BASE).n_users == HELD_OUT_USER_BASE
    with pytest.raises(ConfigError, match=f"want 2 <= n_users <= {HELD_OUT_USER_BASE}"):
        RunnerConfig(n_users=HELD_OUT_USER_BASE + 1)
