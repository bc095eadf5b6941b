"""Classifier head numerics, checked against independent oracles:

- forward pass vs a straight-line re-evaluation of the same formula,
- analytic gradients vs central finite differences,
- Adam single step vs the recurrence evaluated by hand,
- serialization round trip.
"""

import math
import re
import struct

import numpy as np
import pytest

from oap.errors import ConfigError, DataError, NumericalError
from oap.head import (
    HIDDEN_UNITS,
    PROB_EPS,
    AdamState,
    ClassifierHead,
    apply_update,
    forward,
    forward_batch,
    init_head,
    load_head,
    loss_and_grad,
    pretrain,
    PretrainSchedule,
    save_head,
)
from oap.rng import seeded_rng

from oracles import random_head


def reference_forward(head, f):
    """Independent straight-line transcription of the forward map."""
    hidden = [max(0.0, sum(f[i] * head.w1[i, j] for i in range(len(f))) + head.b1[j])
              for j in range(HIDDEN_UNITS)]
    logit = sum(hidden[j] * head.w2[j] for j in range(HIDDEN_UNITS)) + head.b2[0]
    y = 1.0 / (1.0 + math.exp(-logit))
    return min(max(y, PROB_EPS), 1.0 - PROB_EPS)


class TestInit:
    def test_deterministic(self):
        a = init_head(32, seeded_rng(7, "init"))
        b = init_head(32, seeded_rng(7, "init"))
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_biases_zero_and_weights_bounded(self):
        h = init_head(32, seeded_rng(0, "init"))
        assert np.all(h.b1 == 0.0) and np.all(h.b2 == 0.0)
        assert np.max(np.abs(h.w1)) <= 1.0 / np.sqrt(32)
        assert np.max(np.abs(h.w2)) <= 1.0 / np.sqrt(HIDDEN_UNITS)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ConfigError):
            init_head(0, seeded_rng(0, "init"))


class TestForward:
    def test_all_zero_head_gives_half(self):
        h = ClassifierHead(np.zeros((5, HIDDEN_UNITS)), np.zeros(HIDDEN_UNITS),
                           np.zeros(HIDDEN_UNITS), np.zeros(1))
        assert forward(h, np.ones(5)) == 0.5

    def test_saturated_logit_clamped(self):
        h = ClassifierHead(np.zeros((3, HIDDEN_UNITS)), np.zeros(HIDDEN_UNITS),
                           np.zeros(HIDDEN_UNITS), np.array([20.0]))
        assert forward(h, np.zeros(3)) == 1.0 - PROB_EPS

    def test_matches_straight_line_reference(self):
        rng = np.random.default_rng(123)
        for case in range(20):
            h = random_head(8, seed=case)
            f = rng.normal(size=8)
            np.testing.assert_allclose(forward(h, f), reference_forward(h, f), rtol=1e-12)

    def test_dimension_mismatch(self):
        h = random_head(8, seed=0)
        with pytest.raises(DataError, match="dimension"):
            forward(h, np.zeros(9))

    def test_a_stack_gives_each_row_its_own_bits(self):
        h = random_head(8, seed=0)
        feats = np.random.default_rng(2).normal(size=(5, 8))
        ys = forward(h, feats)
        assert ys.shape == (5,)
        assert ys.tobytes() == np.array([forward(h, f) for f in feats]).tobytes()

    @pytest.mark.parametrize("shape", [(), (9,), (1, 1, 8), (2, 3, 8), (4, 9)])
    def test_other_shapes_named(self, shape):
        h = random_head(8, seed=0)
        with pytest.raises(DataError, match=re.escape(f"got {shape}")):
            forward(h, np.zeros(shape))

    def test_non_finite_input_rejected(self):
        h = random_head(8, seed=0)
        with pytest.raises(DataError):
            forward(h, np.array([np.nan] + [0.0] * 7))

    def test_pure_function(self):
        h = random_head(8, seed=1)
        f = np.arange(8.0)
        before = {k: v.copy() for k, v in h.params().items()}
        y1, y2 = forward(h, f), forward(h, f)
        assert y1 == y2
        for k, v in h.params().items():
            np.testing.assert_array_equal(v, before[k])


# Shapes the batch entry points reject: a single row, a scalar, a stack of
# matrices and a matrix of the wrong width. Each message names the shape.
BAD_BATCH_SHAPES = {
    "row": (8,),
    "scalar": (),
    "stack": (2, 3, 8),
    "wrong width": (4, 9),
}


class TestBatchShapes:
    @pytest.mark.parametrize("shape", BAD_BATCH_SHAPES.values(), ids=BAD_BATCH_SHAPES.keys())
    def test_forward_batch_wants_a_matrix(self, shape):
        h = random_head(8, seed=0)
        with pytest.raises(DataError, match=re.escape(f"got {shape}")):
            forward_batch(h, np.ones(shape))

    @pytest.mark.parametrize("shape", BAD_BATCH_SHAPES.values(), ids=BAD_BATCH_SHAPES.keys())
    def test_pretrain_wants_a_matrix(self, shape):
        h = random_head(8, seed=0)
        before = h.flat.copy()
        labels = np.arange(math.prod(shape[:-1]) if len(shape) > 1 else 1) % 2
        with pytest.raises(DataError, match=re.escape(f"got {shape}")):
            pretrain(h, np.ones(shape), labels, PretrainSchedule(iterations=3),
                     seeded_rng(0, "pretrain"))
        np.testing.assert_array_equal(h.flat, before)

    def test_loss_and_grad_takes_one_row_and_rejects_a_stack(self):
        h = random_head(8, seed=0)
        f = np.linspace(-1.0, 1.0, 8)
        row_loss, row_grad = loss_and_grad(h, f, [1])
        loss, grad = loss_and_grad(h, f[None, :], [1])
        assert row_loss == loss
        np.testing.assert_array_equal(row_grad, grad)
        for shape in [(), (1, 1, 8)]:
            with pytest.raises(DataError, match=re.escape(f"got {shape}")):
                loss_and_grad(h, np.ones(shape), [1])

    def test_forward_batch_on_a_matrix(self):
        h = random_head(8, seed=0)
        feats = np.random.default_rng(1).normal(size=(5, 8))
        ys = forward_batch(h, feats)
        assert ys.shape == (5,)
        assert ys.tobytes() == np.array([forward(h, f) for f in feats]).tobytes()


# Complex features, each at an entry point: numpy casts a complex array to
# float64 with only a ComplexWarning, dropping the imaginary part.
COMPLEX_FEATURES = {
    "forward row": lambda h: forward(h, np.array([1 + 5j] + [0j] * 7)),
    "forward row of complex64": lambda h: forward(h, np.ones(8, dtype=np.complex64)),
    "forward list of complex rows": lambda h: forward(h, [np.full(8, 1 + 5j)] * 3),
    "forward_batch": lambda h: forward_batch(h, np.full((3, 8), 2 + 0j)),
    "loss_and_grad": lambda h: loss_and_grad(h, np.full((2, 8), 1j), [0, 1]),
    "pretrain": lambda h: pretrain(h, np.full((4, 8), 1 + 1j), [0, 1, 0, 1],
                                   PretrainSchedule(iterations=3), seeded_rng(0, "pretrain")),
}


class TestNonNumericDoors:
    @pytest.mark.parametrize("case", COMPLEX_FEATURES.values(), ids=COMPLEX_FEATURES.keys())
    def test_complex_features_refused(self, case):
        h = random_head(8, seed=0)
        before = h.flat.copy()
        with pytest.raises(DataError, match="^non-numeric value in feature input"):
            case(h)
        assert h.flat.tobytes() == before.tobytes()

    @pytest.mark.parametrize("feature", [["0.5", "1.5"], np.array([b"0.5", b"1.5"]),
                                         [[0.5, "1.5"]] * 3],
                             ids=["row of str", "row of bytes", "stack with a str"])
    def test_forward_refuses_numeric_strings(self, feature):
        """numpy would parse "0.5" as 0.5; like a label, a feature is a number."""
        h = random_head(2, seed=0)
        with pytest.raises(DataError, match=r"^non-numeric value in feature input \(text of"):
            forward(h, feature)

    @pytest.mark.parametrize("labels", [["a", "b"], [None, 1], [1 + 2j, 0]],
                             ids=["strings", "None", "complex"])
    def test_loss_and_grad_refuses_non_numeric_labels(self, labels):
        h = random_head(2, seed=0)
        with pytest.raises(DataError, match="^labels must be 0 or 1$"):
            loss_and_grad(h, np.ones((2, 2)), labels)


class TestLoss:
    def test_zero_head_loss_is_ln2(self):
        h = ClassifierHead(np.zeros((4, HIDDEN_UNITS)), np.zeros(HIDDEN_UNITS),
                           np.zeros(HIDDEN_UNITS), np.zeros(1))
        loss, _ = loss_and_grad(h, np.ones((1, 4)), [1])
        assert loss == pytest.approx(math.log(2.0), rel=1e-12)

    def test_symmetric_labels_cancel_output_bias_gradient(self):
        h = ClassifierHead(np.zeros((4, HIDDEN_UNITS)), np.zeros(HIDDEN_UNITS),
                           np.zeros(HIDDEN_UNITS), np.zeros(1))
        loss, grad = loss_and_grad(h, np.ones((2, 4)), [0, 1])
        grads = h.views(grad)
        assert loss == pytest.approx(math.log(2.0), rel=1e-12)
        assert grads["b2"][0] == pytest.approx(0.0, abs=1e-15)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(5)
        for case in range(30):
            h = random_head(6, seed=100 + case)
            feats = rng.normal(size=(8, 6))
            labels = rng.integers(0, 2, size=8)
            loss, _ = loss_and_grad(h, feats, labels)
            assert loss >= 0.0

    def test_empty_batch_rejected(self):
        h = random_head(4, seed=0)
        with pytest.raises(DataError, match="empty"):
            loss_and_grad(h, np.zeros((0, 4)), [])

    def test_discard_label_rejected(self):
        h = random_head(4, seed=0)
        with pytest.raises(DataError, match="0 or 1"):
            loss_and_grad(h, np.zeros((1, 4)), [-1])


class TestGradientOracle:
    """Analytic gradients must match central finite differences."""

    @staticmethod
    def finite_difference(head, feats, labels, name, index, step=1e-5):
        arr = getattr(head, name)
        orig = arr[index]
        arr[index] = orig + step
        loss_plus, _ = loss_and_grad(head, feats, labels)
        arr[index] = orig - step
        loss_minus, _ = loss_and_grad(head, feats, labels)
        arr[index] = orig
        return (loss_plus - loss_minus) / (2.0 * step)

    def test_random_cases(self):
        rng = np.random.default_rng(2024)
        for case in range(25):
            d = int(rng.integers(2, 10))
            h = random_head(d, seed=case)
            feats = rng.normal(size=(8, d))
            labels = rng.integers(0, 2, size=8)
            _, grad = loss_and_grad(h, feats, labels)
            grads = h.views(grad)
            for name in ("w1", "b1", "w2", "b2"):
                arr = grads[name]
                flat = [idx for idx, _ in np.ndenumerate(arr)]
                picks = [flat[i] for i in rng.choice(len(flat), size=min(5, len(flat)), replace=False)]
                for idx in picks:
                    fd = self.finite_difference(h, feats, labels, name, idx)
                    denom = max(abs(fd), abs(arr[idx]), 1e-8)
                    assert abs(arr[idx] - fd) / denom < 1e-4, (case, name, idx)


class TestAdam:
    def test_zero_gradient_is_noop_with_step_count(self):
        h = random_head(4, seed=3)
        before = {k: v.copy() for k, v in h.params().items()}
        state = AdamState.for_head(h)
        grad = np.zeros_like(h.flat)
        apply_update(h, state, grad, learning_rate=0.1, weight_decay=0.0)
        assert state.step_count == 1
        for k, v in h.params().items():
            np.testing.assert_array_equal(v, before[k])

    def test_single_step_matches_hand_recurrence(self):
        """theta=1, g=0.5, lr=0.1, fresh state:
        m_hat=0.5, v_hat=0.25, theta' = 1 - 0.1*0.5/(0.5 + 1e-8)."""
        h = ClassifierHead(np.zeros((1, HIDDEN_UNITS)), np.zeros(HIDDEN_UNITS),
                           np.zeros(HIDDEN_UNITS), np.array([1.0]))
        state = AdamState.for_head(h)
        grad = np.zeros_like(h.flat)
        h.views(grad)["b2"][...] = np.array([0.5])
        apply_update(h, state, grad, learning_rate=0.1, weight_decay=0.0)
        expected = 1.0 - 0.1 * 0.5 / (math.sqrt(0.25) + 1e-8)
        assert h.b2[0] == pytest.approx(expected, rel=1e-12)
        assert h.b2[0] == pytest.approx(0.9000001, abs=5e-7)

    def test_pure_decay_term(self):
        h = ClassifierHead(np.zeros((1, HIDDEN_UNITS)), np.zeros(HIDDEN_UNITS),
                           np.zeros(HIDDEN_UNITS), np.array([1.0]))
        state = AdamState.for_head(h)
        grad = np.zeros_like(h.flat)
        apply_update(h, state, grad, learning_rate=1e-3, weight_decay=1e-3)
        assert h.b2[0] == pytest.approx(1.0 - 1e-6, rel=1e-12)

    def test_non_finite_gradient_rejected_state_unchanged(self):
        h = random_head(4, seed=9)
        state = AdamState.for_head(h)
        before = {k: v.copy() for k, v in h.params().items()}
        grad = np.zeros_like(h.flat)
        h.views(grad)["w1"][0, 0] = np.nan
        with pytest.raises(NumericalError):
            apply_update(h, state, grad, learning_rate=0.1)
        assert state.step_count == 0
        for k, v in h.params().items():
            np.testing.assert_array_equal(v, before[k])

    def test_non_finite_result_rejected_state_unchanged(self):
        """Finite gradients whose step overflows a parameter reject the
        whole update, name that parameter, and leave head and state as they
        were."""
        h = random_head(4, seed=9)
        h.b2[0] = 1e308
        state = AdamState.for_head(h)
        before = h.flat.copy()
        grad = np.ones_like(h.flat)
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="'b2'"):
            apply_update(h, state, grad, learning_rate=0.1, weight_decay=-1e10)
        assert state.step_count == 0
        np.testing.assert_array_equal(h.flat, before)
        assert not state.m_flat.any() and not state.v_flat.any()

    def test_non_finite_gradient_names_its_parameter(self):
        h = random_head(4, seed=9)
        grad = np.zeros_like(h.flat)
        h.views(grad)["w2"][5] = np.inf
        with pytest.raises(NumericalError, match="'w2'"):
            apply_update(h, AdamState.for_head(h), grad, learning_rate=0.1)

    def test_parameters_are_views_of_one_flat_vector(self):
        """The constructor copies its arguments into ``flat``; writes to a
        parameter and to ``flat`` are the same write."""
        w1 = np.ones((4, HIDDEN_UNITS))
        h = ClassifierHead(w1, np.zeros(HIDDEN_UNITS), np.zeros(HIDDEN_UNITS), np.zeros(1))
        assert h.flat.shape == (4 * HIDDEN_UNITS + 2 * HIDDEN_UNITS + 1,)
        h.w1[0, 0] = 5.0
        assert h.flat[0] == 5.0 and w1[0, 0] == 1.0
        h.flat[-1] = 2.0
        assert h.b2[0] == 2.0
        copy = h.copy()
        copy.flat[:] = 0.0
        assert h.w1[0, 0] == 5.0

    def test_moments_finite_after_long_bounded_sequence(self):
        h = random_head(4, seed=11)
        state = AdamState.for_head(h)
        rng = np.random.default_rng(0)
        for step in range(2000):
            grad = np.concatenate([rng.normal(size=v.shape).ravel() for v in h.params().values()])
            apply_update(h, state, grad, learning_rate=1e-3)
        assert state.step_count == 2000
        assert np.isfinite(h.flat).all()
        assert np.isfinite(state.m_flat).all()
        assert (state.v_flat >= 0).all() and np.isfinite(state.v_flat).all()


def two_blob_dataset(d=8, n=512, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    live = rng.normal(size=(half, d)) - 3.0
    spoof = rng.normal(size=(half, d)) + 3.0
    feats = np.concatenate([live, spoof])
    labels = np.concatenate([np.zeros(half, dtype=int), np.ones(half, dtype=int)])
    return feats, labels


class TestPretrain:
    def test_separable_blobs_reach_high_accuracy(self):
        feats, labels = two_blob_dataset()
        head = init_head(8, seeded_rng(0, "init"))
        pretrain(head, feats, labels, PretrainSchedule(iterations=800), seeded_rng(0, "pretrain"))
        acc = np.mean((forward_batch(head, feats) > 0.5).astype(int) == labels)
        assert acc >= 0.99

    def test_zero_iterations_is_noop(self):
        feats, labels = two_blob_dataset()
        head = init_head(8, seeded_rng(1, "init"))
        before = {k: v.copy() for k, v in head.params().items()}
        pretrain(head, feats, labels, PretrainSchedule(iterations=0), seeded_rng(0, "pretrain"))
        for k, v in head.params().items():
            np.testing.assert_array_equal(v, before[k])

    def test_deterministic(self):
        feats, labels = two_blob_dataset()
        results = []
        for _ in range(2):
            head = init_head(8, seeded_rng(2, "init"))
            pretrain(head, feats, labels, PretrainSchedule(iterations=200),
                     seeded_rng(5, "pretrain"))
            results.append({k: v.copy() for k, v in head.params().items()})
        for k in results[0]:
            np.testing.assert_array_equal(results[0][k], results[1][k])

    @pytest.mark.parametrize("bad", [2, 0.7], ids=["two", "fraction"])
    def test_label_other_than_0_or_1_rejected_before_any_update(self, bad):
        """The labels are checked as given, so 0.7 is refused rather than
        truncated to 0, and a bad label that the first batches would miss
        still fails before the head moves."""
        feats, labels = two_blob_dataset(d=4, n=64)
        labels = labels.astype(np.float64)
        labels[-1] = bad
        head = init_head(4, seeded_rng(0, "init"))
        before = head.flat.copy()
        with pytest.raises(DataError, match="labels must be 0 or 1"):
            pretrain(head, feats, labels, PretrainSchedule(iterations=10, batch_size=4),
                     seeded_rng(0, "pretrain"))
        assert head.flat.tobytes() == before.tobytes()

    def test_single_class_rejected(self):
        feats = np.zeros((10, 4))
        labels = np.ones(10, dtype=int)
        head = init_head(4, seeded_rng(0, "init"))
        with pytest.raises(DataError, match="single class"):
            pretrain(head, feats, labels, PretrainSchedule(iterations=10),
                     seeded_rng(0, "pretrain"))


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        head = random_head(17, seed=21)
        path = tmp_path / "head.oaph"
        save_head(head, path)
        loaded = load_head(path)
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(head, name))

    def test_magic_is_checked(self, tmp_path):
        path = tmp_path / "junk.oaph"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(DataError, match="magic"):
            load_head(path)

    def test_truncation_detected(self, tmp_path):
        head = random_head(5, seed=2)
        path = tmp_path / "head.oaph"
        save_head(head, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError, match="bytes"):
            load_head(path)

    @pytest.mark.parametrize("fault, words", [
        ("nan weight", "non-finite parameter value"),
        ("32 hidden units", "expected 2072 bytes, got 1048"),
    ])
    def test_save_refuses_what_load_refuses_writing_nothing(self, tmp_path, fault, words):
        """A head that ``load_head`` would refuse is refused by ``save_head``
        in its words, before the file is opened."""
        if fault == "nan weight":
            head = random_head(2, seed=3)
            head.w1[1, 5] = np.nan
        else:
            head = ClassifierHead(np.ones((2, 32)), np.zeros(32), np.ones(32), np.zeros(1))
        path = tmp_path / "head.oaph"
        with pytest.raises(DataError, match=re.escape(f"{path}: {words}")):
            save_head(head, path)
        assert not path.exists()

    def test_zero_dimension_rejected(self, tmp_path):
        """A header with d = 0 and the 129 parameters such a head would
        have is refused, as ``init_head`` refuses d < 1."""
        path = tmp_path / "d0.oaph"
        header = b"OAPH" + struct.pack("<III", 1, 0, HIDDEN_UNITS)
        path.write_bytes(header + np.zeros(2 * HIDDEN_UNITS + 1).astype("<f8").tobytes())
        with pytest.raises(DataError, match=re.escape(f"{path}: feature dimension")):
            load_head(path)
