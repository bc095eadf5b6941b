"""Online buffer eviction semantics, replay construction, and the
weighted two-store batch sampler."""

import numpy as np
import pytest

from oap.config import PseudoLabel
from oap.errors import DataError
from oap.memory import OnlineBuffer, ReplayStore, sample_batch, subsample_pretraining
from oap.rng import seeded_rng


def feat(value, d=4):
    return np.full(d, float(value))


class TestOnlineBuffer:
    def test_insert_into_empty(self):
        buf = OnlineBuffer()
        buf.insert(feat(1), PseudoLabel.LIVE, 1, 0.0)
        assert len(buf) == 1

    def test_discard_never_stored(self):
        buf = OnlineBuffer()
        with pytest.raises(DataError, match="discard"):
            buf.insert(feat(1), PseudoLabel.DISCARD, 1, 0.0)

    def test_out_of_order_insert_rejected(self):
        buf = OnlineBuffer()
        buf.insert(feat(1), PseudoLabel.LIVE, 5, 0.0)
        with pytest.raises(DataError, match="does not follow"):
            buf.insert(feat(2), PseudoLabel.LIVE, 5, 0.1)

    BAD_INDICES = {
        "beyond int64": 2**70,
        "just past int64": 2**63,
        "just below int64": -(2**63) - 1,
        "half past the last": 40.5,
        "integral float": 41.0,
        "numpy float": np.float64(41.0),
        "string": "41",
        "none": None,
    }

    @pytest.mark.parametrize("case", sorted(BAD_INDICES))
    def test_index_outside_int64_or_not_an_integer_refused(self, case):
        """An index ``operator.index`` refuses, or one the int64 column
        cannot hold, raises DataError and leaves the buffer as it was;
        the next valid entry goes in and a mixed-class refresh runs."""
        buf = OnlineBuffer()
        buf.insert(feat(1), PseudoLabel.LIVE, 39, 0.0)
        buf.insert(feat(2), PseudoLabel.SPOOF, 40, 0.1)

        def contents():
            return buf.frame_indices, buf.raw_labels, buf.times, buf.features_matrix()

        before = contents()
        with pytest.raises(DataError, match="frame index"):
            buf.insert(feat(3), PseudoLabel.SPOOF, self.BAD_INDICES[case], 0.2)
        for was, now in zip(before, contents()):
            np.testing.assert_array_equal(now, was)
        buf.insert(feat(3), PseudoLabel.SPOOF, 41, 0.2)
        buf.refresh_working_labels(5)
        np.testing.assert_array_equal(buf.frame_indices, [39, 40, 41])
        np.testing.assert_array_equal(buf.working_labels, [1, 1, 1])

    BAD_TIMES = {
        "string": "x",
        "none": None,
        "beyond float64": 10**400,
        "nan": float("nan"),
        "inf": float("inf"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_TIMES))
    def test_time_not_a_finite_real_refused(self, case):
        """A time that is not a finite real number raises DataError, as it
        does at ``process_frame``, and leaves the buffer as it was."""
        buf = OnlineBuffer()
        buf.insert(feat(1), PseudoLabel.LIVE, 39, 0.0)
        before = len(buf), buf.frame_indices, buf.times
        with pytest.raises(DataError, match="frame time"):
            buf.insert(feat(2), PseudoLabel.SPOOF, 40, self.BAD_TIMES[case])
        assert len(buf) == before[0]
        np.testing.assert_array_equal(buf.frame_indices, before[1])
        np.testing.assert_array_equal(buf.times, before[2])

    def test_int64_ends_accepted(self):
        buf = OnlineBuffer()
        buf.insert(feat(1), PseudoLabel.LIVE, -(2**63), 0.0)
        buf.insert(feat(2), PseudoLabel.LIVE, np.int64(2**63 - 1), 0.1)
        np.testing.assert_array_equal(buf.frame_indices, [-(2**63), 2**63 - 1])

    def test_eviction_is_strict_inequality(self):
        """Entries at 0..5 s, now=5, horizon=4 -> ages 3,2,1,0 survive."""
        buf = OnlineBuffer()
        for i, t in enumerate([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]):
            buf.insert(feat(i), PseudoLabel.LIVE, i + 1, t)
        buf.evict_old(now=5.0, horizon=4.0)
        np.testing.assert_array_equal(buf.times, [2.0, 3.0, 4.0, 5.0])

    def test_eviction_noop_cases(self):
        buf = OnlineBuffer()
        buf.evict_old(now=100.0, horizon=4.0)
        assert len(buf) == 0
        buf.insert(feat(0), PseudoLabel.LIVE, 1, 0.0)
        buf.evict_old(now=1.0, horizon=1000.0)
        assert len(buf) == 1

    def test_full_acceptance_steady_state_is_120(self):
        """300 consecutive accepted frames at 30 fps with a 4 s horizon
        settle at exactly 120 stored entries."""
        buf = OnlineBuffer()
        for t in range(1, 301):
            now = (t - 1) / 30.0
            buf.insert(feat(t), PseudoLabel.SPOOF, t, now)
            buf.evict_old(now, 4.0)
        assert len(buf) == 120

    def test_buffer_bound_any_rate(self):
        """|buffer| <= ceil(rate * horizon) after any insert+evict run."""
        for rate, horizon in [(10.0, 1.5), (30.0, 4.0), (7.0, 2.0)]:
            buf = OnlineBuffer()
            for t in range(1, 200):
                now = (t - 1) / rate
                buf.insert(feat(t), PseudoLabel.LIVE, t, now)
                buf.evict_old(now, horizon)
                assert len(buf) <= int(np.ceil(rate * horizon))

    def test_eviction_preserves_order(self):
        buf = OnlineBuffer()
        for t in range(1, 50):
            buf.insert(feat(t), PseudoLabel.LIVE, t, t / 10.0)
        buf.evict_old(now=4.9, horizon=2.0)
        idx = buf.frame_indices
        assert np.all(np.diff(idx) > 0)

    def test_smoothing_refresh_keeps_raw_labels(self):
        buf = OnlineBuffer()
        labels = [1, 1, 0, 1, 1]
        for t, lab in enumerate(labels, start=1):
            buf.insert(feat(t), PseudoLabel(lab), t, t / 30.0)
        buf.refresh_working_labels(window=4)
        np.testing.assert_array_equal(buf.raw_labels, labels)
        assert buf.working_labels[2] == 1  # outvoted by neighbours

    def test_refresh_after_eviction_to_one_class_restores_raw_labels(self):
        """Smoothed while mixed, the two live entries are outvoted by the
        four spoof entries before them; once those are evicted the buffer
        holds one class, and both the eviction and the next refresh must
        hand back the raw labels, not keep the votes of entries that are
        gone."""
        buf = OnlineBuffer()
        for t, lab in enumerate([1, 1, 1, 1, 0, 0], start=1):
            buf.insert(feat(t), PseudoLabel(lab), t, t / 30.0)
        buf.refresh_working_labels(window=8)
        np.testing.assert_array_equal(buf.working_labels, [1, 1, 1, 1, 1, 1])
        buf.evict_old(now=6 / 30.0, horizon=1.5 / 30.0)
        np.testing.assert_array_equal(buf.frame_indices, [5, 6])
        np.testing.assert_array_equal(buf.working_labels, [0, 0])
        buf.refresh_working_labels(window=8)
        np.testing.assert_array_equal(buf.working_labels, buf.raw_labels)
        np.testing.assert_array_equal(buf.working_labels, [0, 0])

    NOT_A_ROW = {"stack of rows": np.zeros((2, 3)), "0-d": np.float64(1.0),
                 "empty row": np.zeros(0)}

    @pytest.mark.parametrize("case", sorted(NOT_A_ROW))
    def test_first_feature_that_is_not_a_row_refused(self, case):
        """The first insert shapes the feature column, so it takes only a
        (d,) row with d >= 1. Anything else is refused before the buffer
        changes, not left to fail in the sampler."""
        buf = OnlineBuffer()
        with pytest.raises(DataError, match="^feature shape .* is not a row"):
            buf.insert(self.NOT_A_ROW[case], PseudoLabel.LIVE, 1, 0.0)
        assert len(buf) == 0
        buf.insert(feat(1, d=3), PseudoLabel.LIVE, 1, 0.0)
        feats, _ = sample_batch(buf, ReplayStore(np.zeros((0, 3)), []), 4, 1.0,
                                seeded_rng(0, "sampler"))
        assert feats.shape == (4, 3)


class TestReplayStore:
    def test_immutable(self):
        store = ReplayStore(np.zeros((4, 3)), [0, 1, 0, 1])
        with pytest.raises(ValueError):
            store.features[0, 0] = 1.0
        with pytest.raises(ValueError):
            store.labels[0] = 1

    def test_fingerprint_stable(self):
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(10, 4))
        store = ReplayStore(feats, rng.integers(0, 2, size=10))
        assert store.fingerprint() == store.fingerprint()

    def test_label_validation(self):
        with pytest.raises(DataError):
            ReplayStore(np.zeros((2, 3)), [0, 2])

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        store = ReplayStore(rng.normal(size=(25, 6)), rng.integers(0, 2, size=25))
        path = tmp_path / "replay.oapf"
        store.save(path)
        loaded = ReplayStore.load(path)
        np.testing.assert_array_equal(loaded.features, store.features)
        np.testing.assert_array_equal(loaded.labels, store.labels)
        assert loaded.fingerprint() == store.fingerprint()


class TestSubsample:
    def full_set(self, n=3000, d=5, live_fraction=0.5, seed=0):
        rng = np.random.default_rng(seed)
        labels = (rng.random(n) >= live_fraction).astype(int)
        return rng.normal(size=(n, d)), labels

    def test_exact_target_size(self):
        feats, labels = self.full_set()
        store = subsample_pretraining(feats, labels, 1000, seeded_rng(0, "replay"))
        assert len(store) == 1000

    def test_zero_target_gives_empty_store(self):
        feats, labels = self.full_set()
        store = subsample_pretraining(feats, labels, 0, seeded_rng(0, "replay"))
        assert len(store) == 0

    def test_deterministic_under_seed(self):
        feats, labels = self.full_set()
        a = subsample_pretraining(feats, labels, 500, seeded_rng(4, "replay"))
        b = subsample_pretraining(feats, labels, 500, seeded_rng(4, "replay"))
        assert a.fingerprint() == b.fingerprint()

    def test_oversized_target_rejected(self):
        feats, labels = self.full_set(n=100)
        with pytest.raises(DataError, match="subsample"):
            subsample_pretraining(feats, labels, 101, seeded_rng(0, "replay"))

    def test_both_classes_present_even_when_rare(self):
        feats, labels = self.full_set(n=5000, live_fraction=0.999, seed=1)
        assert labels.sum() > 0
        store = subsample_pretraining(feats, labels, 50, seeded_rng(2, "replay"))
        assert set(np.unique(store.labels)) == {0, 1}

    def test_no_duplicate_rows(self):
        feats, labels = self.full_set(n=400)
        store = subsample_pretraining(feats, labels, 400, seeded_rng(0, "replay"))
        assert len(np.unique(store.features, axis=0)) == 400


# A four-row table with one bad entry: each is refused by the table door
# (``head.check_features`` and ``head.check_labels``) at both replay entry
# points. A fraction or a 2 was stored as live or dropped by the draw, a
# string label was parsed, a complex feature lost its imaginary part with
# a warning, and the rest escaped as a bare ValueError or OverflowError.
BAD_TABLES = {
    "label 0.7": (np.zeros((4, 3)), [0, 1, 0.7, 1]),
    "label 2": (np.zeros((4, 3)), [0, 1, 2, 1]),
    "string label": (np.zeros((4, 3)), [0, 1, "1", 1]),
    "label 2**70": (np.zeros((4, 3)), [0, 1, 2**70, 1]),
    "complex feature": (np.full((4, 3), 1 + 2j), [0, 1, 0, 1]),
    "string feature": ([["a", "b", "c"]] * 4, [0, 1, 0, 1]),
    "feature 10**400": ([[0, 0, 0]] * 3 + [[0, 0, 10**400]], [0, 1, 0, 1]),
}


@pytest.mark.parametrize("case", BAD_TABLES.values(), ids=BAD_TABLES.keys())
@pytest.mark.parametrize("entry", ["ReplayStore", "subsample_pretraining"])
def test_replay_entry_points_refuse_what_the_table_door_refuses(entry, case):
    features, labels = case
    with pytest.raises(DataError):
        if entry == "ReplayStore":
            ReplayStore(features, labels)
        else:
            subsample_pretraining(features, labels, 2, seeded_rng(0, "replay"))


@pytest.mark.parametrize("d", [1, 3, 700])
def test_an_empty_store_of_any_width_is_accepted(d):
    store = ReplayStore(np.zeros((0, d)), np.zeros(0, dtype=np.int64))
    assert (len(store), store.d, store.labels.dtype) == (0, d, np.int64)


def populated_stores(n_online=40, n_replay=200, d=3):
    buf = OnlineBuffer()
    rng = np.random.default_rng(10)
    for t in range(1, n_online + 1):
        label = PseudoLabel.SPOOF if t % 3 == 0 else PseudoLabel.LIVE
        buf.insert(rng.normal(size=d), label, t, t / 30.0)
    buf.refresh_working_labels(window=0)
    feats = rng.normal(size=(n_replay, d))
    labels = np.array([0, 1] * (n_replay // 2))
    return buf, ReplayStore(feats, labels)


class TestSampleBatch:
    def test_alpha_one_is_online_only(self):
        buf, replay = populated_stores()
        feats, labels = sample_batch(buf, replay, 64, 1.0, seeded_rng(0, "sampler"))
        online_rows = {tuple(row) for row in buf.features_matrix()}
        assert all(tuple(row) in online_rows for row in feats)

    def test_empty_online_falls_back_to_replay(self):
        _, replay = populated_stores()
        feats, labels = sample_batch(OnlineBuffer(), replay, 32, 0.9, seeded_rng(1, "sampler"))
        replay_rows = {tuple(row) for row in replay.features}
        assert all(tuple(row) in replay_rows for row in feats)

    def test_empty_replay_falls_back_to_online(self):
        buf, _ = populated_stores()
        empty = ReplayStore(np.zeros((0, 3)), np.zeros(0, dtype=int))
        feats, _ = sample_batch(buf, empty, 32, 0.1, seeded_rng(2, "sampler"))
        online_rows = {tuple(row) for row in buf.features_matrix()}
        assert all(tuple(row) in online_rows for row in feats)

    def test_both_empty_rejected(self):
        empty = ReplayStore(np.zeros((0, 3)), np.zeros(0, dtype=int))
        with pytest.raises(DataError, match="empty"):
            sample_batch(OnlineBuffer(), empty, 8, 0.9, seeded_rng(0, "sampler"))

    def test_source_mix_concentrates_at_alpha(self):
        """Across many batches the online fraction lands within a tight
        binomial band around online_prob."""
        buf, replay = populated_stores()
        online_rows = {tuple(row) for row in buf.features_matrix()}
        rng = seeded_rng(42, "sampler")
        draws, online = 0, 0
        for _ in range(2000):
            feats, _ = sample_batch(buf, replay, 16, 0.9, rng)
            draws += len(feats)
            online += sum(tuple(row) in online_rows for row in feats)
        assert abs(online / draws - 0.9) < 0.01

    def test_replay_class_mix_is_uniform(self):
        """Replay slots pick a class uniformly among those present."""
        _, replay = populated_stores()
        rng = seeded_rng(43, "sampler")
        labels_seen = []
        for _ in range(500):
            _, labels = sample_batch(OnlineBuffer(), replay, 16, 0.9, rng)
            labels_seen.append(labels)
        frac_live = np.mean(np.concatenate(labels_seen) == 0)
        assert abs(frac_live - 0.5) < 0.02

    def test_never_emits_discard_and_never_mutates(self):
        buf, replay = populated_stores()
        before = replay.fingerprint()
        online_before = buf.features_matrix().copy()
        for i in range(20):
            _, labels = sample_batch(buf, replay, 16, 0.5, seeded_rng(i, "sampler"))
            assert np.isin(labels, (0, 1)).all()
        assert replay.fingerprint() == before
        np.testing.assert_array_equal(buf.features_matrix(), online_before)

    def test_online_labels_are_working_labels(self):
        """A buffer whose smoothing flipped one raw label must emit the
        smoothed value."""
        buf = OnlineBuffer()
        raw = [1, 1, 0, 1, 1]
        rng = np.random.default_rng(6)
        feats_in = [rng.normal(size=3) for _ in raw]
        for t, (lab, f) in enumerate(zip(raw, feats_in), start=1):
            buf.insert(f, PseudoLabel(lab), t, t / 30.0)
        buf.refresh_working_labels(window=4)
        empty = ReplayStore(np.zeros((0, 3)), np.zeros(0, dtype=int))
        feats, labels = sample_batch(buf, empty, 200, 1.0, seeded_rng(3, "sampler"))
        flipped_row = tuple(feats_in[2])
        hits = [lab for row, lab in zip(feats, labels) if tuple(row) == flipped_row]
        assert hits and all(lab == 1 for lab in hits)
