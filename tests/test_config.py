"""Hyper-parameter ledger: golden defaults, range validation, threshold
geometry, config-file syntax, and the tagged deterministic RNG contract."""

import dataclasses

import numpy as np
import pytest

from oap.cli import RunnerConfig

from oap.config import (
    ClassLabel,
    HyperParams,
    PseudoLabel,
    apply_overrides,
    from_mapping,
    parse_kv_file,
)
from oap.errors import ConfigError
from oap.head import PretrainSchedule
from oap.rng import seeded_rng
from oap.simstream import GeneratorConfig, Segment, StreamScenario


class TestGoldenDefaults:
    """The default ledger reproduces every documented constant."""

    def test_defaults(self):
        p = HyperParams()
        assert p.margin == 0.01
        assert p.window == 30
        assert p.eviction_horizon == 4.0
        assert p.frame_rate == 30.0
        assert p.finetune_freq == 1.0
        assert p.online_prob == 0.9
        assert p.batch_size == 16
        assert p.learning_rate == 1e-6
        assert p.replay_size == 1000
        assert p.eval_threshold == 0.5
        assert p.weight_decay == 0.0

    def test_defaults_validate_unchanged(self):
        p = HyperParams()
        assert p is p

    def test_threshold_symmetry(self):
        """The two derived pseudo-label thresholds sit symmetrically
        around 0.5 and never cross, for any legal margin."""
        for margin in (0.01, 0.05, 0.1, 0.2, 0.5):
            p = HyperParams(margin=margin)
            assert p.accept_spoof_threshold + p.accept_live_threshold == pytest.approx(1.0)
            assert p.accept_spoof_threshold >= p.accept_live_threshold

    def test_label_codings_fixed(self):
        assert ClassLabel.LIVE == 0
        assert ClassLabel.SPOOF == 1
        assert PseudoLabel.LIVE == 0
        assert PseudoLabel.SPOOF == 1
        assert PseudoLabel.DISCARD not in (PseudoLabel.LIVE, PseudoLabel.SPOOF)


class TestValidation:
    def test_degenerate_single_threshold_margin_accepted(self):
        HyperParams(margin=0.5)

    def test_margin_out_of_range(self):
        with pytest.raises(ConfigError, match="margin out of range"):
            HyperParams(margin=0.6)
        with pytest.raises(ConfigError, match="margin out of range"):
            HyperParams(margin=0.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("window", 0),
            ("eviction_horizon", 0.0),
            ("frame_rate", -1.0),
            ("finetune_freq", 0.0),
            ("finetune_freq", 1.5),
            ("iterations_per_call", 0),
            ("online_prob", -0.1),
            ("online_prob", 1.1),
            ("batch_size", 0),
            ("learning_rate", 0.0),
            ("weight_decay", -1e-9),
            ("replay_size", -1),
            ("eval_threshold", 0.0),
            ("eval_threshold", 1.0),
            ("seed", -1),
        ],
    )
    def test_each_range_is_enforced_with_field_name(self, field, value):
        with pytest.raises(ConfigError, match=field):
            HyperParams(**{field: value})


ONE_SEGMENT = (Segment(ClassLabel.LIVE, 10),)


OUT_OF_RANGE = {
    "HyperParams-margin": (lambda: HyperParams(margin=0.9), "margin out of range: 0.9"),
    "GeneratorConfig-d": (lambda: GeneratorConfig(d=0), "d out of range: 0"),
    "GeneratorConfig-noise_std": (
        lambda: GeneratorConfig(noise_std=0.0), "noise_std must be positive"),
    "Segment-duration": (
        lambda: Segment(ClassLabel.LIVE, 0), "segment duration must be >= 1, got 0"),
    "StreamScenario-segments": (
        lambda: StreamScenario(()), "scenario needs at least one segment"),
    "StreamScenario-frame_rate": (
        lambda: StreamScenario(ONE_SEGMENT, frame_rate=0.0),
        "frame_rate out of range: 0.0 (want frame_rate > 0)"),
    "PretrainSchedule-iterations": (
        lambda: PretrainSchedule(iterations=-1), "pretrain_iterations out of range: -1"),
    "PretrainSchedule-batch_size": (
        lambda: PretrainSchedule(batch_size=0), "pretrain_batch_size out of range: 0"),
    "PretrainSchedule-decay_every": (
        lambda: PretrainSchedule(decay_every=0), "pretrain_decay_every out of range: 0"),
    "RunnerConfig-mode": (lambda: RunnerConfig(mode="bogus"), "unknown mode 'bogus'"),
    "RunnerConfig-seeds": (lambda: RunnerConfig(seeds=0), "seeds out of range: 0"),
    "RunnerConfig-ema_momentum-high": (
        lambda: RunnerConfig(ema_momentum=1.0), "ema_momentum out of range: 1.0"),
    "RunnerConfig-ema_momentum-low": (
        lambda: RunnerConfig(ema_momentum=-0.1), "ema_momentum out of range: -0.1"),
    "RunnerConfig-n_users": (lambda: RunnerConfig(n_users=1), "n_users out of range: 1"),
    "RunnerConfig-frames_per_user": (
        lambda: RunnerConfig(frames_per_user=1), "frames_per_user out of range: 1"),
    "replace": (
        lambda: dataclasses.replace(HyperParams(), window=0), "window out of range: 0"),
    "from_mapping": (
        lambda: from_mapping(PretrainSchedule(), {"pretrain_iterations": "-5"}, "pretrain_"),
        "pretrain_iterations out of range: -5"),
}


@pytest.mark.parametrize("build,message", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
def test_out_of_range_config_cannot_be_built(build, message):
    """Every config dataclass checks its own ranges when built, through
    its constructor, ``dataclasses.replace`` or ``from_mapping`` alike."""
    with pytest.raises(ConfigError) as info:
        build()
    assert message in str(info.value)


def test_boundary_values_build():
    """The inclusive ends of each new range are legal."""
    PretrainSchedule(iterations=0)
    RunnerConfig(ema_momentum=0.0, n_users=2, frames_per_user=2)
    for mode in ("oap", "frozen", "ema"):
        RunnerConfig(mode=mode)


class TestConfigFile:
    def test_parse_and_overlay(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# experiment config\n"
            "margin = 0.05\n"
            "batch_size = 8   # smaller batches\n"
            "\n"
            "unrelated_key = hello\n"
        )
        mapping = parse_kv_file(cfg)
        assert mapping["unrelated_key"] == "hello"
        p = from_mapping(HyperParams(), mapping)
        assert p.margin == 0.05
        assert p.batch_size == 8
        assert p.window == 30  # untouched default

    def test_overrides_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("margin = 0.05\n")
        mapping = apply_overrides(parse_kv_file(cfg), ["margin=0.2", "seed=7"])
        p = from_mapping(HyperParams(), mapping)
        assert p.margin == 0.2
        assert p.seed == 7

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("margin 0.05\n")
        with pytest.raises(ConfigError):
            parse_kv_file(cfg)

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="margin"):
            from_mapping(HyperParams(), {"margin": "wide"})


class TestSeededRng:
    def test_same_seed_same_tag_identical(self):
        a = seeded_rng(42, "sampler").random(100)
        b = seeded_rng(42, "sampler").random(100)
        np.testing.assert_array_equal(a, b)

    def test_distinct_tags_differ(self):
        a = seeded_rng(42, "sampler").random(100)
        b = seeded_rng(42, "init").random(100)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = seeded_rng(42, "sampler").random(100)
        b = seeded_rng(43, "sampler").random(100)
        assert not np.array_equal(a, b)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            seeded_rng(-1, "sampler")
