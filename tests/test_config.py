"""Hyper-parameter ledger: golden defaults, the inclusive range ends,
config-file syntax, and the tagged deterministic RNG contract. The
refusals are ``test_config_contract.py``'s table."""

import re

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

    def test_label_codings_fixed(self):
        assert ClassLabel.LIVE == 0
        assert ClassLabel.SPOOF == 1
        assert PseudoLabel.LIVE == 0
        assert PseudoLabel.SPOOF == 1
        assert PseudoLabel.DISCARD not in (PseudoLabel.LIVE, PseudoLabel.SPOOF)


def test_boundary_values_build():
    """The inclusive ends of each new range are legal; margin 0.5 is the
    degenerate single threshold."""
    HyperParams(margin=0.5)
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

    @pytest.mark.parametrize("text", ["", "\n\n", "# only a comment\n"])
    def test_file_without_an_entry_rejected(self, tmp_path, text):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"{cfg}: no 'key = value' line")):
            parse_kv_file(cfg)

    def test_undecodable_bytes_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"margin = 0.05\nseed = \xff\n")
        with pytest.raises(ConfigError, match=re.escape(f"{cfg}: not a text file")):
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
