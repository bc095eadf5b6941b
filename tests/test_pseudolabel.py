"""Dual-threshold labeling truth table and majority-smoothing oracle.

The smoothing oracle is a naive O(n*W) recount over the stored entries in
each centered window, written independently of the production path.
"""

import numpy as np
import pytest

from oap.config import HyperParams, PseudoLabel
from oap.errors import ConfigError, DataError
from oap.memory import check_frame
from oap.pseudolabel import assign_pseudo_label, smooth_labels

from oracles import brute_force_smooth


class TestAssign:
    def test_confident_spoof(self):
        assert assign_pseudo_label(0.995, 0.01) == PseudoLabel.SPOOF

    def test_uncertain_discarded(self):
        assert assign_pseudo_label(0.5, 0.01) == PseudoLabel.DISCARD

    def test_confident_live(self):
        assert assign_pseudo_label(0.004, 0.01) == PseudoLabel.LIVE

    def test_degenerate_margin_admits_everything(self):
        """margin = 0.5 collapses to single-threshold labeling: no discard
        band, ties at exactly 0.5 resolve to live."""
        assert assign_pseudo_label(0.7, 0.5) == PseudoLabel.SPOOF
        assert assign_pseudo_label(0.3, 0.5) == PseudoLabel.LIVE
        assert assign_pseudo_label(0.5, 0.5) == PseudoLabel.LIVE

    def test_monotone_in_y(self):
        """Raising y never moves the label from spoof toward live."""
        order = {PseudoLabel.LIVE: 0, PseudoLabel.DISCARD: 1, PseudoLabel.SPOOF: 2}
        for margin in (0.01, 0.1, 0.3, 0.5):
            ys = np.linspace(0.001, 0.999, 500)
            ranks = [order[assign_pseudo_label(y, margin)] for y in ys]
            assert all(a <= b for a, b in zip(ranks, ranks[1:]))

    def test_discard_band_width(self):
        """The discard band is (margin, 1 - margin): width 1 - 2*margin,
        empty exactly when margin = 0.5."""
        for margin in (0.01, 0.05, 0.1, 0.2):
            lo, hi = margin, 1.0 - margin
            assert hi - lo == pytest.approx(1.0 - 2.0 * margin)
            mid = (lo + hi) / 2.0
            assert assign_pseudo_label(mid, margin) == PseudoLabel.DISCARD
        ys = np.linspace(0.001, 0.999, 999)
        assert all(assign_pseudo_label(y, 0.5) != PseudoLabel.DISCARD for y in ys)


class TestSmoothing:
    def test_unanimous_window_unchanged(self):
        idx = np.arange(31)
        labels = np.ones(31, dtype=int)
        np.testing.assert_array_equal(smooth_labels(idx, labels, 30), labels)

    def test_idempotent_on_unanimous(self):
        idx = np.arange(40)
        labels = np.zeros(40, dtype=int)
        once = smooth_labels(idx, labels, 30)
        twice = smooth_labels(idx, once, 30)
        np.testing.assert_array_equal(once, twice)

    def test_majority_sixteen_vs_fifteen(self):
        """Center entry of a 31-frame window with 16 spoof votes flips to
        spoof, verified against the brute-force recount."""
        idx = np.arange(31)
        labels = np.array([1, 0] * 15 + [1])  # 16 spoof, 15 live, interleaved
        expected = brute_force_smooth(idx, labels, 30)
        got = smooth_labels(idx, labels, 30)
        np.testing.assert_array_equal(got, expected)
        assert got[15] == 1

    def test_gapped_entries_vote_over_stored_only(self):
        """Holes from discarded/evicted frames shrink the denominator."""
        idx = np.array([10, 12, 14])
        labels = np.array([1, 1, 0])
        got = smooth_labels(idx, labels, 30)
        np.testing.assert_array_equal(got, [1, 1, 1])  # mean 2/3 everywhere

    def test_exact_tie_resolves_live(self):
        idx = np.arange(30)
        labels = np.array([1] * 15 + [0] * 15)
        got = smooth_labels(idx, labels, 60)  # every window covers all 30
        np.testing.assert_array_equal(got, np.zeros(30, dtype=int))

    @pytest.mark.parametrize("window", [-3, 0, 2.5, True, 2**64, "3", np.float64(3.0)],
                             ids=["-3", "0", "2.5", "True", "2**64", "string", "numpy float"])
    def test_window_outside_the_rule_refused(self, window):
        """A window outside ``WINDOW_RULE`` is a ConfigError in the ledger's
        words, raised before any work: before the indices, which here are
        out of order, are read. Window -3 smoothed every label to live, and
        window 0 returned the labels as they were."""
        with pytest.raises(ConfigError) as want:
            HyperParams(window=window)
        with pytest.raises(ConfigError, match="^window out of range") as got:
            smooth_labels([3, 3, 2], [1, 0, 1], window)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("window", [1, 2**64 - 1, np.uint64(2**64 - 1), np.uint64(3)],
                             ids=["1", "2**64 - 1", "uint64 2**64 - 1", "uint64 3"])
    def test_window_at_the_rule_ends(self, window):
        """Window 1 leaves every label as it is; the widest window reaches
        half of the int64 range each way, not past it. A numpy unsigned
        window smooths as its int: it gave float keys, which cannot tell
        apart indices above 2**53."""
        idx = [-(2**63), -1, 0, 2**62, 2**62 + 2, 2**63 - 1]
        labels = [1, 0, 1, 1, 0, 0]
        np.testing.assert_array_equal(smooth_labels(idx, labels, window),
                                      brute_force_smooth(idx, labels, int(window)))

    def test_matches_brute_force_on_random_gapped_sequences(self):
        """1,000 random sequences with random gaps, lengths <= 300."""
        rng = np.random.default_rng(77)
        for _ in range(1000):
            n = int(rng.integers(1, 301))
            gaps = rng.integers(1, 5, size=n)
            idx = np.cumsum(gaps)
            labels = rng.integers(0, 2, size=n)
            window = max(1, int(rng.integers(0, 25)) * 2)  # 1, not 0: both leave labels as they are
            np.testing.assert_array_equal(
                smooth_labels(idx, labels, window),
                brute_force_smooth(idx, labels, window),
            )

    def test_rejects_non_increasing_indices(self):
        with pytest.raises(DataError, match="increasing"):
            smooth_labels([3, 3], [0, 1], 10)

    @pytest.mark.parametrize("indices, bad", [
        (np.array([2**63, 2**63 + 1], dtype=np.uint64), 2**63),
        ([1.5, 2.5], 1.5),
        (np.array([1.5, 2.5]), 1.5),
        ([2**63, 2**64], 2**63),
        ([-1, 2**63], 2**63),
        ([-(2**63) - 1, 0], -(2**63) - 1),
        (["1", "2"], "1"),
    ], ids=["uint64 past int64", "floats", "float64 array", "ints past int64",
            "an int past int64 after -1", "an int below int64", "strings"])
    def test_an_index_check_frame_refuses_is_refused(self, indices, bad):
        """Each index is held to ``check_frame``'s index rule as given, and the
        first it refuses is named in its words: a cast to int64 wrapped the
        unsigned ones, truncated the floats and overflowed on the Python ints."""
        with pytest.raises(DataError, match="^frame index ") as want:
            check_frame(bad, 0.0, None)
        with pytest.raises(DataError) as got:
            smooth_labels(indices, [1, 0], 3)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("indices", [np.array([1, 2, 4], dtype=np.uint64), [True, 2, 4],
                                         np.array([1, 2, 4], dtype=np.int32),
                                         np.array([1, 2, 4], dtype=object)],
                             ids=["uint64", "bool then ints", "int32", "object ints"])
    def test_indices_in_int64_of_any_integer_type_smooth_as_int64(self, indices):
        np.testing.assert_array_equal(smooth_labels(indices, [1, 1, 0], 3),
                                      smooth_labels(np.array([1, 2, 4]), [1, 1, 0], 3))
