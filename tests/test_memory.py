"""Online buffer eviction semantics, replay construction, and the
weighted two-store batch sampler."""

import numpy as np
import pytest

import oap.memory
from oap.config import PseudoLabel
from oap.errors import DataError
from oap.memory import OnlineBuffer, ReplayStore, sample_batch, subsample_pretraining
from oap.rng import seeded_rng

from oracles import buffer_columns, sampled_labels


def feat(value, d=4):
    return np.full(d, float(value))


def buffer(window=30, horizon=4.0, d=4):
    """A buffer of ``feat``'s width, by default with the engine's window and horizon."""
    return OnlineBuffer(d, window, horizon)


class TestOnlineBuffer:
    def test_insert_into_empty(self):
        buf = buffer()
        buf.insert(feat(1), PseudoLabel.LIVE, 1, 0.0)
        assert len(buf) == 1

    def test_int64_ends_accepted(self):
        buf = buffer()
        buf.insert(feat(1), PseudoLabel.LIVE, -(2**63), 0.0)
        buf.insert(feat(2), PseudoLabel.LIVE, np.int64(2**63 - 1), 0.1)
        np.testing.assert_array_equal(buffer_columns(buf)[0], [-(2**63), 2**63 - 1])

    def test_eviction_is_strict_inequality(self):
        """Entries at 0..5 s, now=5, horizon=4 -> ages 3,2,1,0 survive."""
        buf = buffer(horizon=4.0)
        for i, t in enumerate([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]):
            buf.insert(feat(i), PseudoLabel.LIVE, i + 1, t)
        buf.evict_old(now=5.0)
        np.testing.assert_array_equal(buffer_columns(buf)[2], [2.0, 3.0, 4.0, 5.0])

    def test_eviction_noop_cases(self):
        buf = buffer(horizon=4.0)
        buf.evict_old(now=100.0)
        assert len(buf) == 0
        buf.insert(feat(0), PseudoLabel.LIVE, 1, 0.0)
        buf.evict_old(now=1.0)
        assert len(buf) == 1

    def test_full_acceptance_steady_state_is_120(self):
        """300 consecutive accepted frames at 30 fps with a 4 s horizon
        settle at exactly 120 stored entries."""
        buf = buffer(horizon=4.0)
        for t in range(1, 301):
            now = (t - 1) / 30.0
            buf.insert(feat(t), PseudoLabel.SPOOF, t, now)
            buf.evict_old(now)
        assert len(buf) == 120

    def test_buffer_bound_any_rate(self):
        """|buffer| <= ceil(rate * horizon) after any insert+evict run."""
        for rate, horizon in [(10.0, 1.5), (30.0, 4.0), (7.0, 2.0)]:
            buf = buffer(horizon=horizon)
            for t in range(1, 200):
                now = (t - 1) / rate
                buf.insert(feat(t), PseudoLabel.LIVE, t, now)
                buf.evict_old(now)
                assert len(buf) <= int(np.ceil(rate * horizon))

    def test_eviction_preserves_order(self):
        buf = buffer(horizon=2.0)
        for t in range(1, 50):
            buf.insert(feat(t), PseudoLabel.LIVE, t, t / 10.0)
        buf.evict_old(now=4.9)
        idx = buffer_columns(buf)[0]
        assert np.all(np.diff(idx) > 0)

    def test_smoothing_refresh_keeps_raw_labels(self):
        buf = buffer(window=4)
        labels = [1, 1, 0, 1, 1]
        for t, lab in enumerate(labels, start=1):
            buf.insert(feat(t), PseudoLabel(lab), t, t / 30.0)
        buf.refresh_working_labels()
        np.testing.assert_array_equal(buffer_columns(buf)[1], labels)
        assert sampled_labels(buf)[2] == 1  # outvoted by neighbours

    def test_labels_read_after_eviction_to_one_class_are_the_raw_labels(self):
        """Smoothed while mixed, the two live entries are outvoted by the
        four spoof entries before them; once those are evicted the buffer
        holds one class, and the labels read then are the raw labels, not
        the votes of entries that are gone."""
        buf = buffer(window=8, horizon=1.5 / 30.0)
        for t, lab in enumerate([1, 1, 1, 1, 0, 0], start=1):
            buf.insert(feat(t), PseudoLabel(lab), t, t / 30.0)
        buf.refresh_working_labels()
        np.testing.assert_array_equal(sampled_labels(buf), [1, 1, 1, 1, 1, 1])
        buf.evict_old(now=6 / 30.0)
        np.testing.assert_array_equal(buffer_columns(buf)[0], [5, 6])
        np.testing.assert_array_equal(sampled_labels(buf), buffer_columns(buf)[1])
        np.testing.assert_array_equal(sampled_labels(buf), [0, 0])

    @pytest.mark.parametrize("d", [1, 3, 700])
    def test_an_empty_buffer_has_its_width(self, d):
        """Built or emptied by eviction, a buffer's features are (0, d)."""
        buf = buffer(horizon=1.0, d=d)
        assert (buf.d, buffer_columns(buf)[3].shape) == (d, (0, d))
        buf.insert(feat(1, d), PseudoLabel.LIVE, 1, 0.0)
        buf.evict_old(now=2.0)
        assert (len(buf), buffer_columns(buf)[3].shape) == (0, (0, d))


class TestReplayStore:
    def test_immutable(self):
        store = ReplayStore(np.zeros((4, 3)), [0, 1, 0, 1])
        with pytest.raises(ValueError):
            store.features[0, 0] = 1.0
        with pytest.raises(ValueError):
            sampled_labels(store)[0] = 1

    def test_fingerprint_stable(self):
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(10, 4))
        store = ReplayStore(feats, rng.integers(0, 2, size=10))
        assert store.fingerprint() == store.fingerprint()

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        store = ReplayStore(rng.normal(size=(25, 6)), rng.integers(0, 2, size=25))
        path = tmp_path / "replay.oapf"
        store.save(path)
        loaded = ReplayStore.load(path)
        np.testing.assert_array_equal(loaded.features, store.features)
        np.testing.assert_array_equal(sampled_labels(loaded), sampled_labels(store))
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
        assert set(np.unique(sampled_labels(store))) == {0, 1}

    def test_no_duplicate_rows(self):
        feats, labels = self.full_set(n=400)
        store = subsample_pretraining(feats, labels, 400, seeded_rng(0, "replay"))
        assert len(np.unique(store.features, axis=0)) == 400


@pytest.mark.parametrize("d", [1, 3, 700])
def test_an_empty_store_of_any_width_is_accepted(d):
    store = ReplayStore(np.zeros((0, d)), np.zeros(0, dtype=np.int64))
    assert (len(store), store.d, sampled_labels(store).dtype) == (0, d, np.int64)


def populated_stores(n_online=40, n_replay=200, d=3):
    buf = buffer(window=1, d=d)
    rng = np.random.default_rng(10)
    for t in range(1, n_online + 1):
        label = PseudoLabel.SPOOF if t % 3 == 0 else PseudoLabel.LIVE
        buf.insert(rng.normal(size=d), label, t, t / 30.0)
    buf.refresh_working_labels()
    feats = rng.normal(size=(n_replay, d))
    labels = np.array([0, 1] * (n_replay // 2))
    return buf, ReplayStore(feats, labels)


class TestSampleBatch:
    def test_alpha_one_is_online_only(self):
        buf, replay = populated_stores()
        feats, labels = sample_batch(buf, replay, 64, 1.0, seeded_rng(0, "sampler"))
        online_rows = {tuple(row) for row in buffer_columns(buf)[3]}
        assert all(tuple(row) in online_rows for row in feats)

    def test_empty_online_falls_back_to_replay(self):
        _, replay = populated_stores()
        feats, labels = sample_batch(buffer(d=3), replay, 32, 0.9, seeded_rng(1, "sampler"))
        replay_rows = {tuple(row) for row in replay.features}
        assert all(tuple(row) in replay_rows for row in feats)

    @pytest.mark.parametrize("d", [1, 5])
    def test_cold_start_draws_rows_of_the_replay_store(self, d):
        """An engine's first event finds its buffer empty: every slot is a
        (d,) row of the replay store, with its label."""
        _, replay = populated_stores(d=d)
        feats, labels = sample_batch(buffer(d=d), replay, 32, 0.9, seeded_rng(4, "sampler"))
        assert (feats.shape, labels.shape) == ((32, d), (32,))
        rows = {tuple(row): label for row, label in zip(replay.features, sampled_labels(replay))}
        assert all(rows[tuple(row)] == label for row, label in zip(feats, labels))

    def test_empty_replay_falls_back_to_online(self):
        buf, _ = populated_stores()
        empty = ReplayStore(np.zeros((0, 3)), np.zeros(0, dtype=int))
        feats, _ = sample_batch(buf, empty, 32, 0.1, seeded_rng(2, "sampler"))
        online_rows = {tuple(row) for row in buffer_columns(buf)[3]}
        assert all(tuple(row) in online_rows for row in feats)

    def test_both_empty_rejected(self):
        empty = ReplayStore(np.zeros((0, 3)), np.zeros(0, dtype=int))
        with pytest.raises(DataError, match="empty"):
            sample_batch(buffer(d=3), empty, 8, 0.9, seeded_rng(0, "sampler"))

    def test_stores_of_two_widths_refused_before_a_draw(self):
        """Two non-empty stores of different widths are a DataError naming
        both widths, raised before the sampler draws: its RNG is as it was."""
        buf, _ = populated_stores(d=3)
        _, replay = populated_stores(d=5)
        rng = seeded_rng(0, "sampler")
        state = rng.bit_generator.state
        with pytest.raises(DataError,
                           match="^cannot sample a batch: online width 3, replay 5$"):
            sample_batch(buf, replay, 8, 0.9, rng)
        assert rng.bit_generator.state == state

    def test_source_mix_concentrates_at_alpha(self):
        """Across many batches the online fraction lands within a tight
        binomial band around online_prob."""
        buf, replay = populated_stores()
        online_rows = {tuple(row) for row in buffer_columns(buf)[3]}
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
            _, labels = sample_batch(buffer(d=3), replay, 16, 0.9, rng)
            labels_seen.append(labels)
        frac_live = np.mean(np.concatenate(labels_seen) == 0)
        assert abs(frac_live - 0.5) < 0.02

    def test_never_emits_discard_and_never_mutates(self):
        buf, replay = populated_stores()
        before = replay.fingerprint()
        online_before = buffer_columns(buf)[3]
        for i in range(20):
            _, labels = sample_batch(buf, replay, 16, 0.5, seeded_rng(i, "sampler"))
            assert np.isin(labels, (0, 1)).all()
        assert replay.fingerprint() == before
        np.testing.assert_array_equal(buffer_columns(buf)[3], online_before)

    def test_online_labels_are_working_labels(self):
        """A buffer whose smoothing flipped one raw label must emit the
        smoothed value."""
        buf = buffer(window=4, d=3)
        raw = [1, 1, 0, 1, 1]
        rng = np.random.default_rng(6)
        feats_in = [rng.normal(size=3) for _ in raw]
        for t, (lab, f) in enumerate(zip(raw, feats_in), start=1):
            buf.insert(f, PseudoLabel(lab), t, t / 30.0)
        buf.refresh_working_labels()
        empty = ReplayStore(np.zeros((0, 3)), np.zeros(0, dtype=int))
        feats, labels = sample_batch(buf, empty, 200, 1.0, seeded_rng(3, "sampler"))
        flipped_row = tuple(feats_in[2])
        hits = [lab for row, lab in zip(feats, labels) if tuple(row) == flipped_row]
        assert hits and all(lab == 1 for lab in hits)

    @pytest.mark.parametrize("change", ["insert", "eviction"])
    def test_a_buffer_changed_since_its_refresh_draws_freshly_smoothed_labels(self, change):
        """An insert or an eviction after the last refresh leaves the
        sampler no raw or stale labels: it draws what a buffer refreshed
        after the same change draws. A live entry's raw label is outvoted
        by the spoof entries around it, so a raw label would show."""
        labels = [1, 1, 0, 1, 1] if change == "insert" else [0, 1, 1, 0, 1, 1]
        rng = np.random.default_rng(8)
        rows = [rng.normal(size=3) for _ in labels]
        changed, refreshed = buffer(window=4, d=3), buffer(window=4, d=3)
        for t, (lab, f) in enumerate(zip(labels, rows), start=1):
            for buf in (changed, refreshed):
                buf.insert(f, PseudoLabel(lab), t, t / 30.0)
            if change == "insert" and t == 2:
                changed.refresh_working_labels()  # one class, before the live entry
        if change == "eviction":
            changed.refresh_working_labels()  # mixed, with the first entry
            for buf in (changed, refreshed):
                buf.evict_old(now=1 / 30.0 + 4.0)
            assert len(changed) == 5
        refreshed.refresh_working_labels()
        empty = ReplayStore(np.zeros((0, 3)), np.zeros(0, dtype=int))
        feats, labels = sample_batch(changed, empty, 200, 1.0, seeded_rng(5, "sampler"))
        want = sample_batch(refreshed, empty, 200, 1.0, seeded_rng(5, "sampler"))
        assert feats.tobytes() == want[0].tobytes() and labels.tobytes() == want[1].tobytes()
        outvoted = rows[2] if change == "insert" else rows[3]
        hits = [lab for row, lab in zip(feats, labels) if tuple(row) == tuple(outvoted)]
        assert hits and all(lab == 1 for lab in hits)

    def test_a_mixed_buffer_is_smoothed_once_per_change(self, monkeypatch):
        """However many batches are drawn, the sampler smooths a mixed
        buffer once after each change, and a buffer of one class never."""
        calls = []
        smooth = oap.memory.smooth_labels
        monkeypatch.setattr(oap.memory, "smooth_labels",
                            lambda *args: calls.append(args) or smooth(*args))
        buf = buffer(window=4, d=3)
        empty = ReplayStore(np.zeros((0, 3)), np.zeros(0, dtype=int))
        rng = seeded_rng(0, "sampler")
        for t, lab in enumerate([1, 1, 0, 1], start=1):
            buf.insert(feat(t, d=3), PseudoLabel(lab), t, t / 30.0)
            for _ in range(3):
                sample_batch(buf, empty, 4, 1.0, rng)
        assert [len(args[0]) for args in calls] == [3, 4]  # after the third and fourth inserts
