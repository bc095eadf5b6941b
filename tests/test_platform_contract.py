"""The numpy and BLAS equalities that the bit-reproducible traces rest on.
They hold on the build this suite runs on, but no library promises them:
a row's gemv has the bits of the (1, d) @ (d, 64) row matmul, a stacked
forward pass has the bits of per-row ``forward``, the gradient kernel on
``ndarray.dot`` has the bits of the ``@`` form, a strided batch has the
bits of its contiguous copy, and one ``rng.random((3, b))`` draw is three
successive ``rng.random(b)`` draws. On a build where one of them breaks,
the test here that names it fails beside the golden digests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oap.head import HIDDEN_UNITS, _grad_kernel, forward, forward_batch, loss_and_grad
from oap.rng import seeded_rng

from oracles import bits, in_layout, log_scales, matmul_grad_kernel, stacked_case

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


@pytest.mark.parametrize("d", range(1, 65))
def test_row_gemv_has_the_bits_of_the_row_matmul(d):
    """``forward`` scores a row with ``f.dot(w1)``, the gemv that
    ``f[None, :] @ w1`` makes and ``forward_batch`` makes per row. A BLAS
    whose two calls round differently fails here."""
    rng = np.random.default_rng(d)
    for scale in (1e-3, 1.0, 1e3):
        w1 = rng.normal(0.0, scale, size=(d, HIDDEN_UNITS))
        for _ in range(4):
            f = rng.normal(0.0, scale, size=d)
            assert f.dot(w1).tobytes() == (f[None, :] @ w1)[0].tobytes()


# Any count up to 300, and counts next to the vector widths of numpy's
# loops and the BLAS kernels.
row_counts = st.one_of(st.integers(1, 300), st.sampled_from([1, 2, 3, 5, 7, 9, 15, 17, 31, 33, 257]))


@PROPERTY_SETTINGS
@given(d=st.integers(1, 40), rows=row_counts, seed=st.integers(0, 2**32 - 1),
       head_scale=log_scales, feature_scale=log_scales)
def test_forward_batch_rows_have_the_bits_of_forward(d, rows, seed, head_scale, feature_scale):
    h, feats = stacked_case(d, rows, seed, head_scale, feature_scale)
    per_row = np.array([forward(h, f) for f in feats])
    assert bits(forward_batch(h, feats)) == bits(per_row)
    assert bits(forward(h, feats)) == bits(per_row)


# Batch sizes 1 to 140, widths 1 to 64, and head and feature scales 1e-3 to 1e3.
product_cases = st.tuples(st.integers(1, 140), st.integers(1, 64), st.integers(0, 2**32 - 1),
                          log_scales, log_scales)


def product_case(rows, d, seed, head_scale, feature_scale):
    h, feats = stacked_case(d, rows, seed, head_scale, feature_scale)
    labels = np.random.default_rng(seed + 2).integers(0, 2, size=rows)
    return h, feats, labels


@PROPERTY_SETTINGS
@given(case=product_cases, layout=st.sampled_from(["c", "row", "f", "col"]))
def test_dot_kernel_has_the_bits_of_the_matmul_kernel(case, layout):
    h, feats, labels = product_case(*case)
    feats = in_layout(feats, layout)
    y, grad = _grad_kernel(h, feats, labels)
    y_ref, grad_ref = matmul_grad_kernel(h, feats, labels)
    assert y.tobytes() == y_ref.tobytes()
    assert grad.tobytes() == grad_ref.tobytes()


@PROPERTY_SETTINGS
@given(case=product_cases, layout=st.sampled_from(["row", "f", "col", "reversed"]))
def test_strided_batch_has_the_bits_of_its_contiguous_copy(case, layout):
    """``loss_and_grad`` gives a row-strided, Fortran-ordered,
    column-strided or reversed view the bits of its contiguous copy, which
    BLAS, handed the view as it is, need not. Where ``@`` would leave BLAS
    for numpy's own loop, ``ndarray.dot`` already gives a reversed view
    those bits in the kernel."""
    h, feats, labels = product_case(*case)
    view = in_layout(feats, layout)
    for got, want in zip(loss_and_grad(h, view, labels), loss_and_grad(h, feats, labels)):
        assert bits(got) == bits(want)
    if layout == "reversed":
        assert view.strides[0] < 0
        for got, want in zip(_grad_kernel(h, view, labels), _grad_kernel(h, feats, labels)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("b", [1, 2, 16, 17])
def test_one_draw_of_three_rows_is_three_draws_of_a_row(b):
    """``sample_batch`` draws its source, class and entry uniforms as one
    ``rng.random((3, b))``: the rows of three successive ``rng.random(b)``
    draws from the same state, which leave the generator in the same state."""
    for seed in range(8):
        one, three = seeded_rng(seed, "sampler"), seeded_rng(seed, "sampler")
        rows = one.random((3, b))
        want = np.stack([three.random(b) for _ in range(3)])
        assert rows.tobytes() == want.tobytes()
        assert one.bit_generator.state == three.bit_generator.state
