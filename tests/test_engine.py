"""Adaptation loop contracts: step order, causality, fine-tune firing
cadence, cost accounting, baselines, and trace files."""

import re

import numpy as np
import pytest

from oap.config import ClassLabel, HyperParams, PseudoLabel
from oap.engine import (
    SCORE_ROWS_PER_CALL,
    Engine,
    TraceRecord,
    adaptation_cost,
    calibrated_kflops_per_frame,
    per_sample_flops,
    read_trace_csv,
    run_baseline_frozen,
    run_baseline_smoothed,
    write_trace_csv,
    write_trace_jsonl,
)
from oap.errors import ConfigError, DataError
from oap.head import forward, init_head, pretrain, PretrainSchedule
from oap.memory import ReplayStore, subsample_pretraining
from oap.rng import seeded_rng
from oap.simstream import (
    GeneratorConfig,
    Segment,
    StreamFrame,
    StreamFrames,
    StreamScenario,
    generate_pretraining_set,
    generate_stream,
)

from oracles import engine_state, stream_of

D = 8
GEN = GeneratorConfig(d=D, seed=123)


@pytest.fixture(scope="module")
def artifacts():
    """A small pre-trained head + replay store + drifted stream."""
    feats, labels = generate_pretraining_set(GEN, n_users=6, frames_per_user=200)
    head = init_head(D, seeded_rng(0, "init"))
    pretrain(head, feats, labels, PretrainSchedule(iterations=500), seeded_rng(0, "pretrain"))
    replay = subsample_pretraining(feats, labels, 200, seeded_rng(0, "replay"))
    scenario = StreamScenario((Segment(ClassLabel.LIVE, 300),), user_id=1)
    frames, truth = generate_stream(GEN, scenario)
    return head, replay, frames, truth


def desk_params(**overrides):
    base = dict(learning_rate=1e-4, replay_size=200, seed=0)
    base.update(overrides)
    return HyperParams(**base)


class TestStepOrder:
    def test_first_frame_scored_by_pretrained_head(self, artifacts):
        """The verdict for frame 1 comes from the untouched head with an
        empty buffer, identical to the frozen baseline's first verdict."""
        head, replay, frames, truth = artifacts
        engine = Engine(head, replay, desk_params())
        v = engine.process_frame(frames[0].feature, frames[0].frame_index, frames[0].time)
        assert v.y == forward(head, frames[0].feature)
        frozen = run_baseline_frozen(head, frames[:1])
        assert frozen[0].y == v.y

    def test_engine_copies_the_head(self, artifacts):
        head, replay, frames, _ = artifacts
        before = {k: v.copy() for k, v in head.params().items()}
        engine = Engine(head, replay, desk_params())
        engine.run_stream(frames[:50])
        for k, v in head.params().items():
            np.testing.assert_array_equal(v, before[k])

    def test_discarded_frame_leaves_buffer_unchanged_but_may_finetune(self, artifacts):
        """A frame inside the uncertainty band is not stored, yet the
        fine-tune accumulator still fires on replay + older online data."""
        head, replay, frames, _ = artifacts
        engine = Engine(head, replay, desk_params(margin=1e-9))
        v = engine.process_frame(frames[0].feature, 1, 0.0)
        assert v.pseudo == PseudoLabel.DISCARD
        assert len(engine.online) == 0
        assert v.finetuned_this_frame  # replay store is non-empty

    def test_decision_threshold_strict(self, artifacts):
        head, replay, frames, _ = artifacts
        engine = Engine(head, replay, desk_params())
        trace = engine.run_stream(frames[:100])
        for r in trace:
            assert (r.decision == int(ClassLabel.SPOOF)) == (r.y > 0.5)


class TestFiringCadence:
    def test_every_frame_at_full_frequency(self, artifacts):
        head, replay, frames, _ = artifacts
        engine = Engine(head, replay, desk_params(finetune_freq=1.0))
        trace = engine.run_stream(frames[:50])
        assert all(r.finetuned for r in trace)
        assert engine.last_frame[0] == 50

    def test_every_hundredth_frame_at_0p01(self, artifacts):
        head, replay, frames, _ = artifacts
        engine = Engine(head, replay, desk_params(finetune_freq=0.01))
        trace = engine.run_stream(frames)
        fired = [r.frame_index for r in trace if r.finetuned]
        assert fired == [100, 200, 300]

    def test_nine_events_in_900_frames(self, artifacts):
        head, replay, _, _ = artifacts
        scenario = StreamScenario((Segment(ClassLabel.LIVE, 900),), user_id=1)
        frames, _ = generate_stream(GEN, scenario)
        engine = Engine(head, replay, desk_params(finetune_freq=0.01))
        trace = engine.run_stream(frames)
        assert sum(r.finetuned for r in trace) == 9

    def test_zero_frequency_rejected(self, artifacts):
        head, replay, _, _ = artifacts
        with pytest.raises(ConfigError, match="finetune_freq"):
            Engine(head, replay, desk_params(finetune_freq=0.0))


class TestBufferBound:
    def test_bound_holds_through_full_acceptance_run(self, artifacts):
        """Forced full acceptance (margin 0.5): the buffer reaches 120 at
        frame 120 and never exceeds it."""
        head, replay, _, _ = artifacts
        scenario = StreamScenario((Segment(ClassLabel.LIVE, 900),), user_id=1)
        frames, _ = generate_stream(GEN, scenario)
        engine = Engine(head, replay, desk_params(margin=0.5))
        trace = engine.run_stream(frames)
        sizes = [r.buffer_size for r in trace]
        assert all(s <= 120 for s in sizes)
        assert all(s == 120 for s in sizes[119:])


class TestCausalityAndDeterminism:
    def test_truncation_reproduces_prefix_verdicts(self, artifacts):
        """Verdict t is a function of frames 1..t: running the prefix
        alone gives bit-identical verdicts."""
        head, replay, frames, _ = artifacts
        full = Engine(head, replay, desk_params()).run_stream(frames[:120])
        for cut in (1, 17, 64, 120):
            prefix = Engine(head, replay, desk_params()).run_stream(frames[:cut])
            assert prefix[cut - 1].y == full[cut - 1].y
            assert prefix[cut - 1].decision == full[cut - 1].decision

    def test_identical_runs_bit_identical(self, artifacts, tmp_path):
        head, replay, frames, truth = artifacts
        t1 = Engine(head, replay, desk_params()).run_stream(frames, ground_truth=truth)
        t2 = Engine(head, replay, desk_params()).run_stream(frames, ground_truth=truth)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(p1, t1)
        write_trace_csv(p2, t2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_head_finite_after_10k_saturated_steps(self, artifacts):
        """Adversarially huge features keep every update finite over a
        long run."""
        head, replay, _, _ = artifacts
        engine = Engine(head, replay, desk_params(margin=0.5, learning_rate=1e-2))
        for t in range(1, 10_001):
            sign = 1.0 if t % 2 else -1.0
            f = np.full(D, sign * 1e3)
            v = engine.process_frame(f, t, (t - 1) / 30.0)
            assert np.isfinite(v.y)
        assert np.isfinite(engine.head.flat).all()
        assert engine.adam.step_count == 10_000

    def test_stream_indexed_from_2_to_the_60_gives_the_trace_from_1(self):
        """Smoothing compares frame indices as int64: float64 has no gaps
        of one above 2**53, so there a two-class buffer would see repeated
        indices. Apart from the index column, the trace is that of the
        same stream indexed from 1."""
        gen = GeneratorConfig(d=4, seed=7)
        feats, labels = generate_pretraining_set(gen, n_users=2, frames_per_user=100)
        head = init_head(4, seeded_rng(0, "init"))
        pretrain(head, feats, labels, PretrainSchedule(iterations=200), seeded_rng(0, "pretrain"))
        replay = subsample_pretraining(feats, labels, 50, seeded_rng(0, "replay"))
        scenario = StreamScenario((Segment(ClassLabel.LIVE, 60), Segment(ClassLabel.SPOOF, 60),
                                   Segment(ClassLabel.LIVE, 60)), user_id=1)
        frames, truth = generate_stream(gen, scenario)
        params = desk_params(margin=0.5, window=9)
        traces = []
        for base in (0, 2**60 - 1):
            shifted = stream_of([f._replace(frame_index=base + f.frame_index) for f in frames])
            engine = Engine(head, replay, params)
            trace = engine.run_stream(shifted, truth)
            traces.append(([r[1:] for r in trace], engine.head.flat.tobytes()))
        assert {r.pseudo_label for r in trace} == {0, 1}
        assert traces[0] == traces[1]

    def test_rejected_update_restores_head_and_marks_verdict(self, artifacts, monkeypatch):
        """A non-finite gradient mid-frame rolls the head back to its
        pre-frame parameters and reports finetuned=False."""
        import oap.engine as engine_mod

        head, replay, frames, _ = artifacts
        engine = Engine(head, replay, desk_params())
        engine.process_frame(frames[0].feature, 1, 0.0)
        before = {k: v.copy() for k, v in engine.head.params().items()}
        steps_before = engine.adam.step_count

        real = engine_mod.loss_and_grad

        def poisoned(h, feats, labels):
            loss, grad = real(h, feats, labels)
            h.views(grad)["w2"][...] *= np.nan
            return loss, grad

        monkeypatch.setattr(engine_mod, "loss_and_grad", poisoned)
        v = engine.process_frame(frames[1].feature, 2, 1 / 30.0)
        assert not v.finetuned_this_frame
        assert engine.adam.step_count == steps_before
        for k, arr in engine.head.params().items():
            np.testing.assert_array_equal(arr, before[k])
        monkeypatch.undo()
        v = engine.process_frame(frames[2].feature, 3, 2 / 30.0)
        assert v.finetuned_this_frame  # recovers on the next frame


    def test_rejected_later_iteration_rolls_back_the_whole_frame(self, artifacts, monkeypatch):
        """With three iterations per call, a non-finite gradient in the
        second iteration also undoes the first, already committed one."""
        import oap.engine as engine_mod

        head, replay, frames, _ = artifacts
        engine = Engine(head, replay, desk_params(iterations_per_call=3))
        engine.process_frame(frames[0].feature, 1, 0.0)
        before = engine.head.flat.copy()
        adam_before = (engine.adam.m_flat.copy(), engine.adam.v_flat.copy())
        steps_before = engine.adam.step_count

        real = engine_mod.loss_and_grad
        calls = []

        def poisoned_second(h, feats, labels):
            loss, grad = real(h, feats, labels)
            calls.append(1)
            if len(calls) == 2:
                h.views(grad)["b1"][...] *= np.nan
            return loss, grad

        monkeypatch.setattr(engine_mod, "loss_and_grad", poisoned_second)
        v = engine.process_frame(frames[1].feature, 2, 1 / 30.0)
        assert len(calls) == 2
        assert not v.finetuned_this_frame
        assert engine.adam.step_count == steps_before
        np.testing.assert_array_equal(engine.head.flat, before)
        np.testing.assert_array_equal(engine.adam.m_flat, adam_before[0])
        np.testing.assert_array_equal(engine.adam.v_flat, adam_before[1])


class TestInputContract:
    """A frame that breaks the input contract raises DataError at the door
    and leaves the engine exactly as it was."""

    BAD_FRAMES = {
        "repeated index": (3, 3 / 30),
        "decreasing index": (2, 3 / 30),
        "time going back": (4, 1 / 30),
        "nan time": (4, float("nan")),
        "inf time": (4, float("inf")),
        "minus inf time": (4, float("-inf")),
        "string time": (4, "0.1"),
        "None time": (4, None),
        "complex time": (4, 1 + 2j),
        "time beyond float64": (4, 10**400),
    }

    def warmed_engine(self, artifacts, **overrides):
        head, replay, frames, _ = artifacts
        engine = Engine(head, replay, desk_params(finetune_freq=0.5, **overrides))
        for k in range(3):
            engine.process_frame(frames[k].feature, k + 1, k / 30)
        return engine

    @pytest.mark.parametrize("case", sorted(BAD_FRAMES))
    def test_bad_index_or_time_rejected_without_state_change(self, artifacts, case):
        _, _, frames, _ = artifacts
        engine = self.warmed_engine(artifacts)
        assert len(engine.online) > 0 and engine.finetune_accumulator == 0.5
        before = engine_state(engine)
        index, time = self.BAD_FRAMES[case]
        with pytest.raises(DataError):
            engine.process_frame(frames[3].feature, index, time)
        assert engine_state(engine) == before

    BAD_FEATURES = {
        "nan feature": np.full(D, np.nan),
        "wrong dimension": np.zeros(D + 1),
        "row matrix": np.zeros((1, D)),
        "matrix": np.zeros((3, D)),
        "stack": np.zeros((2, 3, D)),
        "scalar": np.float64(0.0),
        "string feature": ["0.5x"] * D,
        "numeric string feature": ["0.5"] * D,
        "complex feature": [1j] * D,
        "complex array feature": np.full(D, 1 + 5j),
        "feature beyond float64": [10**400] * D,
    }

    @pytest.mark.parametrize("case", sorted(BAD_FEATURES))
    def test_bad_feature_rejected_without_state_change(self, artifacts, case):
        engine = self.warmed_engine(artifacts)
        before = engine_state(engine)
        feature = self.BAD_FEATURES[case]
        with pytest.raises(DataError):
            engine.process_frame(feature, 4, 3 / 30)
        assert engine_state(engine) == before

    @pytest.mark.parametrize("case", ["wrong dimension", "row matrix", "matrix", "stack", "scalar"])
    def test_bad_shape_named(self, artifacts, case):
        """``forward`` scores an (n, d) stack, but a frame is one (d,) row:
        the engine names any other shape, a stack included."""
        engine = self.warmed_engine(artifacts)
        feature = self.BAD_FEATURES[case]
        with pytest.raises(DataError, match=re.escape(f"got {np.shape(feature)}")):
            engine.process_frame(feature, 4, 3 / 30)

    # Indices operator.index refuses, or outside int64, after frame 3.
    BAD_INDICES = {
        "beyond int64": 2**70,
        "just past int64": 2**63,
        "half past the last": 3.5,
        "integral float": 4.0,
        "numpy float": np.float64(4.0),
        "string": "4",
    }

    @pytest.mark.parametrize("case", sorted(BAD_INDICES))
    def test_bad_index_type_or_range_rejected_without_state_change(self, artifacts, case):
        """The index is refused before the frame is scored, so the engine
        (its last index, buffer, head and sampler state) is as it was and
        later frames give the verdicts of an engine that never saw it."""
        _, _, frames, _ = artifacts
        engine, reference = self.warmed_engine(artifacts), self.warmed_engine(artifacts)
        before = engine_state(engine)
        with pytest.raises(DataError, match="frame index"):
            engine.process_frame(frames[3].feature, self.BAD_INDICES[case], 3 / 30)
        assert engine_state(engine) == before
        for k in range(3, 40):
            a = engine.process_frame(frames[k].feature, k + 1, k / 30)
            assert a == reference.process_frame(frames[k].feature, k + 1, k / 30)

    @pytest.mark.parametrize("index", [2**70, -(2**63) - 1])
    def test_first_frame_index_must_fit_int64(self, artifacts, index):
        head, replay, frames, _ = artifacts
        engine = Engine(head, replay, desk_params())
        before = engine_state(engine)
        with pytest.raises(DataError, match="lies outside int64"):
            engine.process_frame(frames[0].feature, index, 0.0)
        assert engine_state(engine) == before
        assert engine.process_frame(frames[0].feature, 1, 0.0).frame_index == 1

    def test_first_frame_time_must_be_finite(self, artifacts):
        head, replay, frames, _ = artifacts
        engine = Engine(head, replay, desk_params())
        before = engine_state(engine)
        with pytest.raises(DataError, match="non-finite"):
            engine.process_frame(frames[0].feature, 1, float("nan"))
        assert engine_state(engine) == before

    def test_rejected_frame_does_not_change_later_verdicts(self, artifacts):
        _, _, frames, _ = artifacts
        engine, reference = self.warmed_engine(artifacts), self.warmed_engine(artifacts)
        with pytest.raises(DataError):
            engine.process_frame(frames[3].feature, 3, 3 / 30)
        for k in range(3, 40):
            a = engine.process_frame(frames[k].feature, k + 1, k / 30)
            b = reference.process_frame(frames[k].feature, k + 1, k / 30)
            assert a == b

    def test_repeated_index_rejected_on_a_discarded_frame(self, artifacts):
        """The check does not depend on the frame's pseudo-label: a
        repeat is rejected even when the frame would not be stored."""
        head, replay, frames, _ = artifacts
        engine = Engine(head, replay, desk_params(margin=1e-9))
        v = engine.process_frame(frames[0].feature, 1, 0.0)
        assert v.pseudo == PseudoLabel.DISCARD and len(engine.online) == 0
        before = engine_state(engine)
        with pytest.raises(DataError, match="frame index"):
            engine.process_frame(frames[1].feature, 1, 1 / 30)
        assert engine_state(engine) == before

    def test_equal_times_accepted(self, artifacts):
        _, _, frames, _ = artifacts
        engine = self.warmed_engine(artifacts)
        engine.process_frame(frames[3].feature, 4, 2 / 30)
        assert engine.last_frame[0] == 4

    # Margin 1e-9 discards the first frame, so its batch comes from the
    # replay store alone; margin 0.5 stores it, and online_prob 0.5 then
    # mixes both stores.
    @pytest.mark.parametrize("overrides", [dict(margin=1e-9),
                                           dict(margin=0.5, online_prob=0.5)],
                             ids=["replay-only batch", "mixed batch"])
    def test_replay_of_another_dimension_rejected(self, artifacts, overrides):
        """The trusted gradient step relies on every replay row having the
        head's dimension, so a non-empty store of another is refused at
        construction, before any batch is drawn."""
        head, _, frames, _ = artifacts
        rng = np.random.default_rng(0)
        replay = ReplayStore(rng.normal(size=(10, D + 2)), np.tile([0, 1], 5))
        with pytest.raises(DataError, match=f"replay dimension {D + 2} != head dimension {D}"):
            engine = Engine(head, replay, desk_params(**overrides))
            engine.process_frame(frames[0].feature, 1, 0.0)

    def test_empty_replay_of_another_dimension_accepted(self, artifacts):
        head, _, frames, _ = artifacts
        empty = ReplayStore(np.zeros((0, D + 2)), np.zeros(0, dtype=np.int64))
        engine = Engine(head, empty, desk_params(margin=0.5))
        assert engine.process_frame(frames[0].feature, 1, 0.0).finetuned_this_frame


class TestCostModel:
    def test_per_sample_count(self):
        assert per_sample_flops(32) == 3 * 2 * (32 * 64 + 64)

    def test_linear_in_frequency(self):
        """cost/freq is one constant across the sweep row."""
        base = HyperParams()
        ratios = {
            adaptation_cost(base.replace(finetune_freq=f), d=32) / f
            for f in (1.0, 0.5, 0.2, 0.05, 0.01)
        }
        assert len(ratios) == 1

    def test_hundredfold_ratio(self):
        base = HyperParams()
        full = adaptation_cost(base.replace(finetune_freq=1.0), d=32)
        assert full / adaptation_cost(base.replace(finetune_freq=0.01), d=32) == pytest.approx(100.0)
        assert adaptation_cost(base.replace(finetune_freq=0.5), d=32) == pytest.approx(full / 2)

    def test_calibrated_full_rate_hits_reference_figure(self):
        assert calibrated_kflops_per_frame(HyperParams()) == 960.0

    def test_ledger_monotone_and_zero_without_events(self, artifacts):
        head, replay, frames, _ = artifacts
        engine = Engine(head, replay, desk_params(finetune_freq=0.01))
        trace = engine.run_stream(frames[:150])
        flops = [r.cumulative_flops for r in trace]
        assert all(b >= a for a, b in zip(flops, flops[1:]))
        assert flops[98] == 0.0  # nothing fired yet
        assert flops[99] > 0.0  # first event at frame 100

    @pytest.mark.parametrize("iterations", [1, 3])
    @pytest.mark.parametrize("finetune_freq", [1.0, float(np.nextafter(1.0, 0.0)), 0.37, 0.05])
    def test_ledger_is_the_running_sum_of_the_per_frame_formula(self, artifacts, monkeypatch,
                                                                finetune_freq, iterations):
        """After every frame the ledger holds, bit for bit, the running sum
        of ``events * iterations * batch_size * per_sample_flops(d)`` with
        the frame's committed events: none while both stores are empty,
        none for a rolled-back frame. The accumulator stays in [0, 1), so a
        frame fires at most one event, also at the largest frequency below
        1, which keeps it just below 1."""
        import oap.engine as engine_mod

        head, _, frames, _ = artifacts
        params = desk_params(finetune_freq=finetune_freq, iterations_per_call=iterations)
        engine = Engine(head, ReplayStore(np.zeros((0, D)), np.zeros(0, dtype=np.int64)), params)
        # The first 25 frames are discarded, so the accumulator fires while
        # both stores are empty; the third gradient is poisoned, which
        # rolls its frame back.
        real_assign, real_grad = engine_mod.assign_pseudo_label, engine_mod.loss_and_grad
        grads = []

        def assign(y, margin):
            return PseudoLabel.DISCARD if frame <= 25 else real_assign(y, margin)

        def grad(h, feats, labels):
            loss, g = real_grad(h, feats, labels)
            grads.append(1)
            if len(grads) == 3:
                g[0] = np.nan
            return loss, g

        monkeypatch.setattr(engine_mod, "assign_pseudo_label", assign)
        monkeypatch.setattr(engine_mod, "loss_and_grad", grad)
        ledger, fired_empty, rolled_back, events = 0.0, 0, 0, 0
        for frame, f in enumerate(frames[:200], start=1):
            accumulator, calls = engine.finetune_accumulator, len(grads)
            v = engine.process_frame(f.feature, f.frame_index, f.time)
            committed = int(v.finetuned_this_frame)
            ledger += committed * iterations * params.batch_size * per_sample_flops(D)
            assert engine.cumulative_flops.hex() == ledger.hex()
            assert 0.0 <= engine.finetune_accumulator < 1.0
            fired = engine.finetune_accumulator < accumulator + finetune_freq
            fired_empty += fired and len(engine.online) == 0
            rolled_back += fired and len(grads) > calls and not committed
            events += committed
        assert fired_empty > 0 and rolled_back == 1 and events > 1


class TestFrozenBaseline:
    def test_head_untouched_and_constant_behavior(self, artifacts):
        head, replay, frames, _ = artifacts
        before = {k: v.copy() for k, v in head.params().items()}
        run_baseline_frozen(head, frames)
        for k, v in head.params().items():
            np.testing.assert_array_equal(v, before[k])

    def test_constant_input_constant_trace(self, artifacts):
        head, _, _, _ = artifacts
        frames = stream_of([StreamFrame(np.ones(D), t, (t - 1) / 30.0) for t in range(1, 20)])
        trace = run_baseline_frozen(head, frames)
        assert len({r.y for r in trace}) == 1

    @pytest.mark.parametrize("features", [np.zeros((1, 1, D)), np.zeros(1)], ids=["row", "scalar"])
    def test_wrongly_shaped_feature_is_a_data_error(self, artifacts, features):
        head, _, _, _ = artifacts
        with pytest.raises(DataError, match="features"):
            run_baseline_frozen(head, StreamFrames(features, np.ones(1, np.int64), np.zeros(1)))

    def test_agrees_with_adaptive_engine_on_first_frame(self, artifacts):
        head, replay, frames, _ = artifacts
        frozen = run_baseline_frozen(head, frames[:1])
        adaptive = Engine(head, replay, desk_params()).run_stream(frames[:1])
        assert frozen[0].y == adaptive[0].y


def baseline(kind, head, frames, **kwargs):
    if kind == "frozen":
        return run_baseline_frozen(head, frames, **kwargs)
    return run_baseline_smoothed(head, frames, 0.7, **kwargs)


def rows(n):
    """A stream of ``n`` random frames, its columns editable."""
    features = np.random.default_rng(5).normal(size=(n, D))
    return StreamFrames(features, np.arange(1, n + 1), np.arange(1, n + 1) / 30.0)


@pytest.mark.parametrize("kind", ["frozen", "ema"])
class TestBaselineErrors:
    """The baselines score stacks of frames, but fail as scoring frame by
    frame did: an empty stream first, then a ground truth of the wrong
    length, then the DataError of the first frame that is not a finite
    (d,) row in order, whichever stack it falls in."""

    def test_empty_stream_before_ground_truth(self, artifacts, kind):
        head = artifacts[0]
        with pytest.raises(DataError, match="empty stream"):
            baseline(kind, head, stream_of([]), ground_truth=[0, 1])

    def test_ground_truth_length_before_bad_frames(self, artifacts, kind):
        head = artifacts[0]
        frames = rows(4)
        frames.features[0, 0] = np.nan
        with pytest.raises(DataError, match="^3 labels for 4 rows: want one label per row$"):
            baseline(kind, head, frames, ground_truth=[0] * 3)

    @pytest.mark.parametrize("first, second, message", [
        ("nan", "time going back", "^non-finite value in feature input$"),
        ("time going back", "nan", "^frame time -1.0 precedes the last frame's "),
        ("repeated index", "nan", r"^frame index (\d+) does not follow the last frame's \1$"),
        ("inf", "repeated index", "^non-finite value in feature input$"),
    ], ids=["nan before time", "time before nan", "index before nan", "inf before index"])
    @pytest.mark.parametrize("at", [2, SCORE_ROWS_PER_CALL + 2], ids=["first stack", "second stack"])
    def test_first_bad_frame_named(self, artifacts, kind, first, second, message, at):
        head = artifacts[0]
        frames = rows(at + 5)
        for fault, i in ((first, at), (second, at + 2)):
            if fault in ("nan", "inf"):
                frames.features[i, 1] = float(fault)
            elif fault == "time going back":
                frames.times[i] = -1.0
            else:
                frames.frame_indices[i] = frames.frame_indices[i - 1]
        with pytest.raises(DataError, match=message):
            baseline(kind, head, frames)

    @pytest.mark.parametrize("shape, message", [
        ((D + 1,), re.escape(f"got {(D + 1,)}")),
        ((1, D), "^a stream must be a StreamFrames of "),
        ((), "^a stream must be a StreamFrames of "),
        ((D - 1,), re.escape(f"got {(D - 1,)}")),
        ((2, 3, D), "^a stream must be a StreamFrames of "),
    ])
    def test_uniformly_misshaped_stream(self, artifacts, kind, shape, message):
        """A column of rows of another width is named as a single frame's
        row is; a feature column that is not (n, d) is not a stream."""
        head = artifacts[0]
        frames = StreamFrames(np.zeros((D, *shape)), np.arange(1, D + 1), np.arange(D) / 30.0)
        with pytest.raises(DataError, match=message):
            baseline(kind, head, frames)


@pytest.mark.parametrize("fault", ["nan feature", "time going back", "both"])
@pytest.mark.parametrize("at, earlier", [
    (0, 20), (500, 0), (SCORE_ROWS_PER_CALL + 5, 0), (SCORE_ROWS_PER_CALL + 30, 0), (500, 20),
], ids=["first frame", "mid-block", "second block", "last frame", "mid-block after a run"])
def test_a_refused_stream_leaves_the_engine_as_it_was(artifacts, fault, at, earlier):
    """``run_stream`` checks the whole stream before its first frame runs: a
    stream with a refused frame anywhere raises the DataError a
    ``process_frame`` loop raises on it, and leaves the engine, fine-tuning on
    every frame, as it was. A frame with a NaN feature and a time going back
    is refused for its time. The first frame's time goes back only against
    an ``earlier`` run's last frame."""
    head, replay, _, _ = artifacts
    frames = rows(earlier + SCORE_ROWS_PER_CALL + 31)
    done, frames = frames[:earlier], frames[earlier:]
    if fault != "time going back":
        frames.features[at] = np.nan
    if fault != "nan feature":
        frames.times[at] = -1.0
    params = desk_params(margin=0.3, finetune_freq=1.0)
    loop, engine = Engine(head, replay, params), Engine(head, replay, params)
    if earlier:
        loop.run_stream(done)
        engine.run_stream(done)
        assert engine.adam.step_count > 0 and len(engine.online) > 0
    with pytest.raises(DataError) as want:
        for f in frames:
            loop.process_frame(f.feature, f.frame_index, f.time)
    before = engine_state(engine)
    with pytest.raises(DataError, match=f"^{re.escape(str(want.value))}$"):
        engine.run_stream(frames)
    assert engine_state(engine) == before


@pytest.mark.parametrize("fault", ["repeated index", "time going back", "nan feature", "both"])
def test_a_first_frame_refused_after_an_earlier_run_leaves_the_engine_as_it_was(artifacts,
                                                                                fault):
    """The first frame of a second ``run_stream`` is checked against the
    last frame of the first run, and refused in ``process_frame``'s words
    before any state changes."""
    head, replay, _, _ = artifacts
    frames = rows(40)
    engine = Engine(head, replay, desk_params(margin=0.3, finetune_freq=0.5))
    engine.run_stream(frames[:20])
    rest = rows(40)[20:]
    if fault in ("repeated index", "both"):
        rest.frame_indices[0] = 20
    if fault == "time going back":
        rest.times[0] = 0.0
    if fault in ("nan feature", "both"):
        rest.features[0] = np.nan
    before = engine_state(engine)
    with pytest.raises(DataError) as want:
        engine.process_frame(rest[0].feature, rest[0].frame_index, rest[0].time)
    with pytest.raises(DataError, match=f"^{re.escape(str(want.value))}$"):
        engine.run_stream(rest)
    assert engine_state(engine) == before


class TestSmoothedBaseline:
    def test_zero_momentum_equals_frozen(self, artifacts):
        head, _, frames, _ = artifacts
        ema = run_baseline_smoothed(head, frames[:50], momentum=0.0)
        frozen = run_baseline_frozen(head, frames[:50])
        np.testing.assert_array_equal([r.y for r in ema], [r.y for r in frozen])

    def test_constant_input_is_fixed_point(self, artifacts):
        head, _, _, _ = artifacts
        frames = stream_of([StreamFrame(np.ones(D), t, (t - 1) / 30.0) for t in range(1, 30)])
        trace = run_baseline_smoothed(head, frames, momentum=0.8)
        assert len({r.y for r in trace}) == 1

    def test_step_response_crossing_time(self):
        """After a step change, the EMA crosses the midpoint after
        ceil(log 0.5 / log momentum) frames."""
        d = 2
        head = init_head(d, seeded_rng(1, "init"))
        head.w1[...] = 0.0
        head.b1[...] = 0.0
        head.w2[...] = 0.0
        lo_frames = [StreamFrame(np.zeros(d), t, t / 30.0) for t in range(1, 101)]
        hi_frames = [StreamFrame(np.zeros(d), t, t / 30.0) for t in range(101, 201)]
        head.b2[...] = -2.0
        lo = forward(head, np.zeros(d))
        head.b2[...] = 2.0
        hi = forward(head, np.zeros(d))
        momentum = 0.9
        # Emulate the step by stitching two half-streams through one EMA:
        # y is constant per half, so the EMA recurrence is exactly
        # geometric and the crossing index is the closed-form count.
        ema = lo
        crossing = None
        for k in range(1, 100):
            ema = momentum * ema + (1 - momentum) * hi
            if ema > (lo + hi) / 2 and crossing is None:
                crossing = k
        expected = int(np.ceil(np.log(0.5) / np.log(momentum)))
        assert crossing == expected

    def test_momentum_range_checked(self, artifacts):
        head, _, frames, _ = artifacts
        with pytest.raises(ConfigError, match="momentum"):
            run_baseline_smoothed(head, frames[:2], momentum=1.0)


class TestTraceFiles:
    def test_csv_round_trip(self, artifacts, tmp_path):
        head, replay, frames, truth = artifacts
        trace = Engine(head, replay, desk_params()).run_stream(frames[:40], ground_truth=truth[:40])
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        assert read_trace_csv(path) == trace

    @pytest.mark.parametrize("write", [write_trace_csv, write_trace_jsonl])
    @pytest.mark.parametrize("record, words", [
        (TraceRecord(np.int64(1), None, 0.5, 1, None, False, 0, 0.0),
         "frame_index np.int64(1) is not int"),
        (TraceRecord(1, None, np.float64(0.5), 1, None, False, 0, 0.0),
         "y np.float64(0.5) is not float"),
        (TraceRecord(1, True, 0.5, 1, None, False, 0, 0.0), "ground_truth True is not int | NoneType"),
        (TraceRecord(1, None, 0.5, 1, None, 1, 0, 0.0), "finetuned 1 is not bool"),
    ])
    def test_writers_refuse_a_record_the_reader_would_refuse(self, tmp_path, write, record,
                                                              words):
        """A value not exactly of its field's type (a bool is not an int) is
        a DataError naming the field and the first record holding one, and
        no file is written."""
        good = TraceRecord(0, None, 0.5, 1, None, False, 0, 0.0)
        path = tmp_path / "trace"
        with pytest.raises(DataError, match=f"^trace record 2: {re.escape(words)}$"):
            write(path, [good, record, record])
        assert not path.exists()

    @pytest.mark.parametrize("write", [write_trace_csv, write_trace_jsonl])
    @pytest.mark.parametrize("records, words", [
        ([(1, None, 0.5)], "trace record 1: 3 fields, want 8"),
        ([(0, None, 0.5, 1, None, False, 0, 0.0), (1, None, 0.5, 1, None, False, 0, 0.0, 7)],
         "trace record 2: 9 fields, want 8"),
    ], ids=["three fields", "nine after eight"])
    def test_writers_refuse_a_record_of_another_length(self, tmp_path, write, records, words):
        """A record of too few or too many fields is a DataError naming it,
        and no file is written: the columns are not cut to the shortest."""
        path = tmp_path / "trace"
        with pytest.raises(DataError, match=f"^{words}$"):
            write(path, records)
        assert not path.exists()

    def test_bad_csv_rejected(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("nope\n")
        with pytest.raises(DataError):
            read_trace_csv(path)

    def test_undecodable_bytes_rejected(self, artifacts, tmp_path):
        """A byte that is not UTF-8 is a DataError naming the file."""
        head, _, frames, _ = artifacts
        path = tmp_path / "trace"
        write_trace_csv(path, run_baseline_frozen(head, frames[:3]))
        path.write_bytes(path.read_bytes() + b"4,\xff\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: not a text file")):
            read_trace_csv(path)

    @pytest.mark.parametrize(
        "column, cell", [(2, "abc"), (0, "1.5"), (5, ""), (5, "2"), (7, "0.0,1")]
    )
    def test_malformed_csv_cell_rejected(self, artifacts, tmp_path, column, cell):
        """A cell that does not parse as its field's type, or a row with
        the wrong cell count, is a DataError, not a ValueError."""
        head, _, frames, _ = artifacts
        path = tmp_path / "trace.csv"
        write_trace_csv(path, run_baseline_frozen(head, frames[:3]))
        lines = path.read_text().splitlines()
        cols = lines[2].split(",")
        cols[column] = cell
        lines[2] = ",".join(cols)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="malformed trace row"):
            read_trace_csv(path)

    def test_empty_stream_rejected(self, artifacts):
        head, replay, _, _ = artifacts
        with pytest.raises(DataError, match="empty"):
            Engine(head, replay, desk_params()).run_stream(stream_of([]))

    @pytest.mark.parametrize("runner", ["engine", "frozen", "ema"])
    @pytest.mark.parametrize("n_frames, n_truth", [(300, 10), (10, 300)])
    def test_ground_truth_length_checked(self, artifacts, runner, n_frames, n_truth):
        """Ground truth shorter or longer than the stream is a DataError in
        every runner, in the labels rule's words, not an IndexError or a
        silent truncation."""
        head, replay, frames, truth = artifacts
        frames, truth = frames[:n_frames], truth[:n_truth]
        want = f"^{n_truth} labels for {n_frames} rows: want one label per row$"
        with pytest.raises(DataError, match=want):
            if runner == "engine":
                Engine(head, replay, desk_params()).run_stream(frames, ground_truth=truth)
            elif runner == "frozen":
                run_baseline_frozen(head, frames, ground_truth=truth)
            else:
                run_baseline_smoothed(head, frames, 0.9, ground_truth=truth)
