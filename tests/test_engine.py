"""Adaptation loop contracts: step order, causality, fine-tune firing
cadence, cost accounting, baselines, and trace files."""

import numpy as np
import pytest

from oap.config import ClassLabel, HyperParams, PseudoLabel
from oap.engine import (
    Engine,
    adaptation_cost,
    calibrated_kflops_per_frame,
    per_sample_flops,
    read_trace_csv,
    read_trace_jsonl,
    run_baseline_frozen,
    run_baseline_smoothed,
    write_trace_csv,
    write_trace_jsonl,
)
from oap.errors import ConfigError, DataError
from oap.head import forward, init_head, pretrain, PretrainSchedule
from oap.memory import subsample_pretraining
from oap.rng import seeded_rng
from oap.simstream import (
    GeneratorConfig,
    Segment,
    StreamFrame,
    StreamScenario,
    generate_pretraining_set,
    generate_stream,
)

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
        assert engine.frame_count == 50

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
        assert engine.head.is_finite()
        assert engine.adam.step_count == 10_000

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
            loss, grads = real(h, feats, labels)
            grads["w2"] = grads["w2"] * np.nan
            return loss, grads

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
            loss, grads = real(h, feats, labels)
            calls.append(1)
            if len(calls) == 2:
                grads["b1"] = grads["b1"] * np.nan
            return loss, grads

        monkeypatch.setattr(engine_mod, "loss_and_grad", poisoned_second)
        v = engine.process_frame(frames[1].feature, 2, 1 / 30.0)
        assert len(calls) == 2
        assert not v.finetuned_this_frame
        assert engine.adam.step_count == steps_before
        np.testing.assert_array_equal(engine.head.flat, before)
        np.testing.assert_array_equal(engine.adam.m_flat, adam_before[0])
        np.testing.assert_array_equal(engine.adam.v_flat, adam_before[1])


def engine_state(engine):
    """Everything a frame may change, as comparable values."""
    buf = engine.online
    return (
        engine.head.flat.tobytes(),
        engine.adam.m_flat.tobytes(),
        engine.adam.v_flat.tobytes(),
        engine.adam.step_count,
        buf.frame_indices.tobytes(),
        buf.raw_labels.tobytes(),
        buf.working_labels.tobytes(),
        buf.times.tobytes(),
        buf.features_matrix().tobytes(),
        engine.finetune_accumulator,
        engine.frame_count,
        engine.cumulative_flops,
        engine.last_frame_index,
        engine.last_frame_time,
        repr(engine.rng.bit_generator.state),
    )


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

    @pytest.mark.parametrize("case", ["nan feature", "wrong dimension"])
    def test_bad_feature_rejected_without_state_change(self, artifacts, case):
        engine = self.warmed_engine(artifacts)
        before = engine_state(engine)
        feature = np.full(D, np.nan) if case == "nan feature" else np.zeros(D + 1)
        with pytest.raises(DataError):
            engine.process_frame(feature, 4, 3 / 30)
        assert engine_state(engine) == before

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
        assert engine.frame_count == 4


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


class TestFrozenBaseline:
    def test_head_untouched_and_constant_behavior(self, artifacts):
        head, replay, frames, _ = artifacts
        before = {k: v.copy() for k, v in head.params().items()}
        run_baseline_frozen(head, frames)
        for k, v in head.params().items():
            np.testing.assert_array_equal(v, before[k])

    def test_constant_input_constant_trace(self, artifacts):
        head, _, _, _ = artifacts
        frames = [StreamFrame(np.ones(D), t, (t - 1) / 30.0) for t in range(1, 20)]
        trace = run_baseline_frozen(head, frames)
        assert len({r.y for r in trace}) == 1

    def test_agrees_with_adaptive_engine_on_first_frame(self, artifacts):
        head, replay, frames, _ = artifacts
        frozen = run_baseline_frozen(head, frames[:1])
        adaptive = Engine(head, replay, desk_params()).run_stream(frames[:1])
        assert frozen[0].y == adaptive[0].y


class TestSmoothedBaseline:
    def test_zero_momentum_equals_frozen(self, artifacts):
        head, _, frames, _ = artifacts
        ema = run_baseline_smoothed(head, frames[:50], momentum=0.0)
        frozen = run_baseline_frozen(head, frames[:50])
        np.testing.assert_array_equal([r.y for r in ema], [r.y for r in frozen])

    def test_constant_input_is_fixed_point(self, artifacts):
        head, _, _, _ = artifacts
        frames = [StreamFrame(np.ones(D), t, (t - 1) / 30.0) for t in range(1, 30)]
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

    def test_reset_restarts_average(self, artifacts):
        head, _, _, _ = artifacts
        rng = np.random.default_rng(3)
        frames = [StreamFrame(rng.normal(size=D), t, t / 30.0) for t in range(1, 40)]
        with_reset = run_baseline_smoothed(head, frames, momentum=0.95, reset_at=[20])
        raw = run_baseline_frozen(head, frames)
        assert with_reset[19].y == raw[19].y  # reset frame emits its raw score

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

    def test_jsonl_round_trip(self, artifacts, tmp_path):
        head, replay, frames, _ = artifacts
        trace = Engine(head, replay, desk_params()).run_stream(frames[:40])
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(path, trace)
        assert read_trace_jsonl(path) == trace

    def test_bad_csv_rejected(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("nope\n")
        with pytest.raises(DataError):
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

    @pytest.mark.parametrize("line", [
        '{"frame_index": 1}',
        "not json",
        "[1, 2]",
        '{"frame_index": 4, "ground_truth": null, "y": "abc", "decision": 1, '
        '"pseudo_label": null, "finetuned": false, "buffer_size": 0, "cumulative_flops": 0.0}',
        '{"frame_index": 4, "ground_truth": null, "y": 0.5, "decision": true, '
        '"pseudo_label": null, "finetuned": false, "buffer_size": 0, "cumulative_flops": 0.0}',
    ])
    def test_malformed_jsonl_line_rejected(self, artifacts, tmp_path, line):
        """A missing key, a value of the wrong type or a line that is not a
        JSON object is a DataError."""
        head, _, frames, _ = artifacts
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(path, run_baseline_frozen(head, frames[:3]))
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(DataError, match="malformed trace row"):
            read_trace_jsonl(path)

    def test_empty_stream_rejected(self, artifacts):
        head, replay, _, _ = artifacts
        with pytest.raises(DataError, match="empty"):
            Engine(head, replay, desk_params()).run_stream([])

    @pytest.mark.parametrize("runner", ["engine", "frozen", "ema"])
    @pytest.mark.parametrize("n_frames, n_truth", [(300, 10), (10, 300)])
    def test_ground_truth_length_checked(self, artifacts, runner, n_frames, n_truth):
        """Ground truth shorter or longer than the stream is a DataError in
        every runner, not an IndexError or a silent truncation."""
        head, replay, frames, truth = artifacts
        frames, truth = frames[:n_frames], truth[:n_truth]
        with pytest.raises(DataError, match="ground truth length"):
            if runner == "engine":
                Engine(head, replay, desk_params()).run_stream(frames, ground_truth=truth)
            elif runner == "frozen":
                run_baseline_frozen(head, frames, ground_truth=truth)
            else:
                run_baseline_smoothed(head, frames, 0.9, ground_truth=truth)
