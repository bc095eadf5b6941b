"""Every config value has one door: its dataclass's check table, behind
``config.check_ranges``. The table first holds each int, float and str
field to its annotated kind (an int field refuses 16.5, 16.0, True and
"3"; a float field refuses "0.1" and True), then to its range. A value of
the wrong kind or out of range is a ConfigError naming its key, in the
words ``<key> out of range: <value> (want ...)``, however the object is
built: its constructor, ``dataclasses.replace``, or ``oap --set``, which
writes nothing. The library functions that share a rule (the seed, the
width d, the number of training users, the smoothing momentum) take it
from its owner, and each rule's words are spelled in one module."""

import ast
import dataclasses
import math
import typing

import numpy as np
import pytest

from oap.cli import RunnerConfig, main
from oap.config import ClassLabel, HyperParams
from oap.engine import run_baseline_smoothed
from oap.errors import ConfigError
from oap.head import PretrainSchedule, init_head
from oap.presets import desk_params
from oap.rng import seeded_rng
from oap.simstream import GeneratorConfig, Segment, StreamFrame, StreamScenario
from oap.simstream import generate_pretraining_set

from oracles import SOURCES, spelled_in, stream_of

SEGMENTS = (Segment(ClassLabel.LIVE, 10),)

# Each config dataclass: its config-key prefix, the arguments it needs
# besides its scalar fields, and the ``oap`` command that builds it first.
SECTIONS = {
    HyperParams: ("", {}, "run"),
    GeneratorConfig: ("", {}, "generate"),
    StreamScenario: ("", {"segments": SEGMENTS}, "generate"),
    PretrainSchedule: ("pretrain_", {}, "pretrain"),
    RunnerConfig: ("", {}, "generate"),
}

# Values of each kind's wrong kind: Python and numpy alike.
WRONG_KIND = {
    int: (1.5, 16.0, True, "3", None, np.float64(2.0), np.bool_(True)),
    float: ("0.1", True, None, 1j, np.bool_(False)),
    str: (3, None, b"oap"),
}

# Values of the right kind that lie outside each field's range.
OUT_OF_RANGE = {
    "HyperParams.margin": (0.0, 0.51, math.nan),
    "HyperParams.window": (0, -1, 2**64),
    "HyperParams.eviction_horizon": (0.0, math.inf, math.nan, 10**400),
    "HyperParams.frame_rate": (0.0, -30.0, math.inf, math.nan, 10**400),
    "HyperParams.finetune_freq": (0.0, 1.5, math.nan),
    "HyperParams.iterations_per_call": (0, 1025),
    "HyperParams.online_prob": (-0.1, 1.1, math.nan),
    "HyperParams.batch_size": (0, 65537, 2**62),
    "HyperParams.learning_rate": (0.0, math.inf, math.nan, 10**400),
    "HyperParams.weight_decay": (-1e-3, math.inf, math.nan),
    "HyperParams.replay_size": (-1, 2**53 + 1),
    "HyperParams.eval_threshold": (0.0, 1.0, math.nan),
    "HyperParams.seed": (-1, 2**64),
    "GeneratorConfig.d": (0, -3),
    "GeneratorConfig.class_separation": (0.0, math.inf, math.nan, 10**400),
    "GeneratorConfig.user_shift_scale": (math.inf, math.nan),
    "GeneratorConfig.drift_rate": (-math.inf, math.nan, -(10**400)),
    "GeneratorConfig.noise_std": (0.0, -1.0, math.nan),
    "GeneratorConfig.seed": (-1, 2**64),
    "StreamScenario.frame_rate": (0.0, math.inf, math.nan),
    "StreamScenario.user_id": (-1,),
    "PretrainSchedule.iterations": (-1,),
    "PretrainSchedule.batch_size": (0,),
    "PretrainSchedule.learning_rate": (0.0, math.inf),
    "PretrainSchedule.weight_decay": (-1.0, math.nan),
    "PretrainSchedule.decay_gamma": (0.0, 1.5),
    "PretrainSchedule.decay_every": (0,),
    "RunnerConfig.mode": ("bogus", ""),
    "RunnerConfig.seeds": (0,),
    "RunnerConfig.ema_momentum": (1.0, -0.1),
    "RunnerConfig.n_users": (1, 1_000_001),
    "RunnerConfig.frames_per_user": (1,),
}


def scalar_fields(cls):
    """The ``(name, kind)`` of each int, float and str field of ``cls``."""
    hints = typing.get_type_hints(cls)
    return [(f.name, hints[f.name]) for f in dataclasses.fields(cls)
            if hints[f.name] in (int, float, str)]


FIELDS = [(cls, name, kind) for cls in SECTIONS for name, kind in scalar_fields(cls)]
BAD = [
    pytest.param(cls, name, value, id=f"{cls.__name__}.{name}={value!r}")
    for cls, name, kind in FIELDS
    for value in (*WRONG_KIND[kind], *OUT_OF_RANGE[f"{cls.__name__}.{name}"])
]


def refusal(call) -> str:
    with pytest.raises(ConfigError) as info:
        call()
    return str(info.value)


def test_every_scalar_field_has_out_of_range_values():
    assert sorted(OUT_OF_RANGE) == sorted(f"{cls.__name__}.{name}" for cls, name, _ in FIELDS)


@pytest.mark.parametrize("cls,name,value", BAD)
def test_built_or_replaced_a_bad_value_is_refused_with_its_key(cls, name, value):
    prefix, needs, _ = SECTIONS[cls]
    words = f"{prefix}{name} out of range: {value!r} (want "
    assert refusal(lambda: cls(**needs, **{name: value})).startswith(words)
    assert refusal(lambda: dataclasses.replace(cls(**needs), **{name: value})).startswith(words)


# The input files of each command, which a config error leaves unread.
INPUTS = {"run": ["--head", "no.oaph", "--stream", "no.oapf"], "pretrain": ["--train", "no.oapf"],
          "generate": []}

# Texts that do not parse as each kind; every text is a str.
UNPARSED = {int: ("1.5", "16.0", "True", "0x10", ""), float: ("abc", "True", "1,5", ""), str: ()}

SET_CASES = [
    pytest.param(cls, name, text, id=f"{cls.__name__}.{name}={text!r}")
    for cls, name, kind in FIELDS
    for text in (*UNPARSED[kind], *map(str, OUT_OF_RANGE[f"{cls.__name__}.{name}"]))
]


@pytest.mark.parametrize("cls,name,text", SET_CASES)
def test_set_refuses_a_bad_value_with_its_key_and_writes_nothing(tmp_path, capsys, cls, name, text):
    prefix, _, command = SECTIONS[cls]
    out = tmp_path / "out"
    capsys.readouterr()
    argv = [command, "--out", str(out), *INPUTS[command], "--set", f"{prefix}{name}={text}"]
    assert main(argv) == 2
    assert f"config error: {prefix}{name} out of range: " in capsys.readouterr().err
    assert not out.exists()


def test_numbers_of_the_right_kind_pass_unchanged():
    for cls, (_, needs, _) in SECTIONS.items():
        base = cls(**needs)
        for name, kind in scalar_fields(cls):
            default = getattr(base, name)
            if kind is int:
                values = [np.int64(default), np.uint32(default)]
            elif kind is float:
                values = [np.float64(default), np.float32(default)]
                values += [int(default)] if float(default).is_integer() else []
            else:
                values = [str(default)]
            for value in values:
                assert getattr(dataclasses.replace(base, **{name: value}), name) is value


@pytest.mark.parametrize("build,words", [
    (lambda: desk_params(batch_size=16.5), "batch_size out of range: 16.5 (want an integer)"),
    (lambda: HyperParams(iterations_per_call=1.5), "iterations_per_call out of range: 1.5"),
    (lambda: HyperParams(seed=1.5), "seed out of range: 1.5 (want an integer)"),
    (lambda: HyperParams(margin="0.1"), "margin out of range: '0.1' (want a real number)"),
    (lambda: GeneratorConfig(d=8.5), "d out of range: 8.5 (want an integer)"),
    (lambda: StreamScenario(SEGMENTS, frame_rate="30"), "frame_rate out of range: '30'"),
    (lambda: RunnerConfig(seeds=2.5), "seeds out of range: 2.5 (want an integer)"),
    (lambda: PretrainSchedule(iterations=True), "pretrain_iterations out of range: True"),
    (lambda: RunnerConfig(mode=3), "mode out of range: 3 (want a string)"),
])
def test_mistyped_values_are_refused_at_construction(build, words):
    assert refusal(build).startswith(words)


@pytest.mark.parametrize("args,value", [
    (("live", 3), "'live'"), ((2, 3), "2"), ((ClassLabel.LIVE, 2.5), "2.5"),
    ((ClassLabel.LIVE, 0), "0"), ((ClassLabel.SPOOF, 3, 1.5), "1.5"),
])
def test_a_segment_is_checked_under_the_segments_key(args, value):
    """A segment's label is a ClassLabel, its duration an integer >= 1 and
    its source id an integer; ``parse_segments`` builds each one."""
    assert refusal(lambda: Segment(*args)).startswith(f"segments out of range: {value} (want ")


# ---------------------------------------------------------------------------
# Library functions that share a rule take it from its owner
# ---------------------------------------------------------------------------

def test_seeded_rng_takes_the_seed_rule():
    for seed in (-1, 2**64, 2**70, 1.5, True, "3", np.float64(1.0)):
        assert refusal(lambda: seeded_rng(seed, "x")).startswith(f"seed out of range: {seed!r}")
    top = seeded_rng(np.uint64(2**64 - 1), "x").random(3)
    np.testing.assert_array_equal(top, seeded_rng(2**64 - 1, "x").random(3))
    np.testing.assert_array_equal(seeded_rng(np.int64(5), "x").random(3),
                                  seeded_rng(5, "x").random(3))


def test_init_head_takes_the_width_rule():
    rng = np.random.default_rng(0)
    for d in (0, -1, 1.5, True, "4"):
        assert refusal(lambda: init_head(d, rng)).startswith(f"d out of range: {d!r}")
    assert init_head(np.int64(3), rng).d == 3


def test_generate_pretraining_set_takes_the_n_users_rule():
    cfg = GeneratorConfig(d=2)
    for n in (1, 1_000_001, 2.5, True):
        assert refusal(lambda: generate_pretraining_set(cfg, n, 4)).startswith(
            f"n_users out of range: {n!r}")
    assert refusal(lambda: RunnerConfig(n_users=1)) == refusal(
        lambda: generate_pretraining_set(cfg, 1, 4))


def test_run_baseline_smoothed_takes_the_momentum_rule():
    head = init_head(2, np.random.default_rng(0))
    frames = stream_of([StreamFrame(np.zeros(2), 1, 0.0)])
    for momentum in (1.0, -0.1, math.nan, "0.5", True):
        assert refusal(lambda: run_baseline_smoothed(head, frames, momentum)).startswith(
            f"momentum out of range: {momentum!r}")
    assert len(run_baseline_smoothed(head, frames, np.float64(0.5))) == 1


# ---------------------------------------------------------------------------
# One set of words: a source scan of the package
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("words,owner", [
    (" out of range: ", "config.py"),
    ("an integer", "config.py"),
    ("a real number", "config.py"),
    ("a 64-bit unsigned integer", "config.py"),
    ("a finite frame_rate > 0", "config.py"),
    (": not a text file (", "config.py"),
    ("2 <= n_users <= ", "simstream.py"),
    ("0 <= momentum < 1", "engine.py"),
    ("d >= 1", "head.py"),
])
def test_each_rule_is_worded_in_one_module(words, owner):
    assert spelled_in(words, exact=True) == [owner]


@pytest.mark.parametrize("words", [
    "bad value for", "must be positive", "unknown mode", "need at least 2 training users",
    "scenario needs at least one segment", "seed must be non-negative",
])
def test_the_old_words_are_gone(words):
    assert spelled_in(words) == []


def test_the_seed_range_is_spelled_in_config_only():
    """``2**64`` bounds the seed rule, which ``config.SEED_RULE`` holds."""
    def spells_2_to_the_64(tree):
        return any(isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                   and [getattr(side, "value", None) for side in (node.left, node.right)] == [2, 64]
                   for node in ast.walk(tree))

    assert [path.name for path in SOURCES
            if spells_2_to_the_64(ast.parse(path.read_text()))] == ["config.py"]
