"""Trainable classifier head: dense d -> 64 -> 1 network with ReLU hidden
activation and a sigmoid spoof-probability output, plus its cross-entropy
loss, hand-derived gradients, and Adam with decoupled weight decay.

No autodiff framework is involved. The two-layer backward pass is written
out explicitly so it can be checked coordinate-by-coordinate against
central finite differences.

Shapes: ``w1`` is (d, 64), ``b1`` is (64,), ``w2`` is (64,), ``b2`` is
(1,). The forward map for a feature row f is

    y = sigmoid( w2 . relu(f @ w1 + b1) + b2 )

with the output clamped to [PROB_EPS, 1 - PROB_EPS] to keep the loss
finite. The clamp only binds for |logit| > ~16, far outside anything a
sane head produces; gradients treat it as the identity.

Parameters, Adam moments, gradients and head files share one layout: a
flat vector holding w1, b1, w2, b2 in that order, each row-major
(``ClassifierHead.flat``). ``loss_and_grad`` returns the gradient in that
layout and ``apply_update`` steps all of it in one pass.

Every in-memory feature table passes one door, in one wording:
``check_features`` and ``check_labels``. ``loss_and_grad`` checks its
inputs there, then runs ``_grad_kernel`` and computes the loss. The engine
and ``pretrain`` call the kernel alone, with the same gradient bits and no
loss, because every batch they build comes from data checked once at its
door. ``pretrain`` checks its whole set. Online rows passed ``forward``'s
finite ``(d,)`` check before ``OnlineBuffer.insert``, and their labels are
LIVE or SPOOF or the majority-smoothed values of those. Replay rows and
labels passed the table door and are write-protected, and ``Engine``
refuses a replay store whose ``d`` differs from the head's.
``sample_batch`` builds a ``(batch_size, d)`` float64 matrix with at least
one row.

Hot-path rules. The per-frame step (``forward`` on one row, the
pseudo-label, the buffer update) and the training step keep off numpy's
Python-level slow paths, with the same bits:

- finite checks count (``all_finite``) rather than call ``.all()``;
- reductions call the ufunc (``np.add.reduce``), never a method such as
  ``.sum()`` or ``.any()``;
- ``forward``'s scalar tail runs on Python floats, not numpy scalars;
- ``forward`` reads a row's finite check off its first product: a
  non-finite feature makes every product of its row non-finite, so the
  count runs only when that product is not finite;
- ``_as_floats`` hands a float64 ``np.ndarray`` back as it is; only other
  inputs are converted;
- products are ``ndarray.dot``, never ``np.dot`` or the ``@`` operator: the
  method makes the same C call and the same BLAS gemv or gemm with less
  dispatch. At d = 32 and a batch of 16 rows (``timeit``, one BLAS thread,
  2-vCPU Intel Xeon), ``x.dot(w1)`` takes 0.55 us against 0.87 us for
  ``np.dot(x, w1)``, and ``feats.T.dot(dz1)`` 1.71 us against 2.21 us for
  ``feats.T @ dz1``.
  ``forward_batch`` alone keeps ``np.matmul``, whose stacked product gives
  each row the bits of ``forward``.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.exceptions import ComplexWarning

from .config import check_ranges, check_value, open_text
from .errors import DataError, NumericalError

HIDDEN_UNITS = 64
PROB_EPS = 1e-7

PARAM_NAMES = ("w1", "b1", "w2", "b2")

# The feature width ``d`` of a head or of generated features.
WIDTH_RULE = (lambda v: v >= 1, "d >= 1")
# The words of every door that refuses a non-finite feature.
NON_FINITE_FEATURE = "non-finite value in feature input"

# Rows per block of ``forward_batch``: a block's stacked products (about
# 0.5 MB at 64 hidden units) stay the same size, whatever the input's length.
SCORE_ROWS_PER_CALL = 1024

# Adam's moment decay rates and denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive row-major views of ``flat`` with the given shapes."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return views


class ClassifierHead:
    """The head's parameters ``w1``, ``b1``, ``w2``, ``b2``. They are views
    into one contiguous vector ``flat`` (in that order, each row-major), so
    an optimizer step runs once over every parameter. The constructor copies
    its arguments; in-place writes to a parameter land in ``flat``."""

    def __init__(self, w1, b1, w2, b2) -> None:
        arrays = [np.asarray(a, dtype=np.float64) for a in (w1, b1, w2, b2)]
        self.flat = np.concatenate([a.ravel() for a in arrays])
        self.w1, self.b1, self.w2, self.b2 = _views(self.flat, [a.shape for a in arrays])

    @property
    def d(self) -> int:
        return self.w1.shape[0]

    def params(self) -> dict[str, np.ndarray]:
        return self.views(self.flat)

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Per-parameter views of a vector laid out like ``flat``, such as
        a gradient or an Adam moment."""
        shapes = [a.shape for a in (self.w1, self.b1, self.w2, self.b2)]
        return dict(zip(PARAM_NAMES, _views(flat, shapes)))

    def copy(self) -> "ClassifierHead":
        return ClassifierHead(self.w1, self.b1, self.w2, self.b2)


class AdamState:
    """First/second moment accumulators plus the step counter.

    The moments are flat vectors ``m_flat`` / ``v_flat`` laid out like
    ``ClassifierHead.flat``; the constructor copies them. ``step_count``
    increments by exactly one per committed update; the moments stay
    element-wise finite for any bounded gradient sequence.

    ``apply_update`` computes the next moments into ``_m_next`` /
    ``_v_next`` and its temporaries into ``_work``, all preallocated here,
    and commits the moments by swapping the pairs of buffers.
    """

    def __init__(self, m_flat, v_flat, step_count: int = 0) -> None:
        self.m_flat = np.array(m_flat, dtype=np.float64)
        self.v_flat = np.array(v_flat, dtype=np.float64)
        self.step_count = step_count
        self._m_next = np.empty_like(self.m_flat)
        self._v_next = np.empty_like(self.v_flat)
        self._work = np.empty((2,) + self.m_flat.shape)

    @classmethod
    def for_head(cls, head: ClassifierHead) -> "AdamState":
        return cls(np.zeros_like(head.flat), np.zeros_like(head.flat))

    def copy(self) -> "AdamState":
        return AdamState(self.m_flat, self.v_flat, self.step_count)


def init_head(d: int, rng: np.random.Generator) -> ClassifierHead:
    """Fresh head: zero-mean uniform weights scaled by 1/sqrt(fan_in),
    zero biases. A ``d`` that is not an integer >= 1 is a ConfigError."""
    check_value("d", d, int, WIDTH_RULE)
    w1_scale = 1.0 / np.sqrt(d)
    w2_scale = 1.0 / np.sqrt(HIDDEN_UNITS)
    return ClassifierHead(
        w1=rng.uniform(-w1_scale, w1_scale, size=(d, HIDDEN_UNITS)),
        b1=np.zeros(HIDDEN_UNITS),
        w2=rng.uniform(-w2_scale, w2_scale, size=HIDDEN_UNITS),
        b2=np.zeros(1),
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Split by sign so np.exp never sees a large positive argument:
    # 1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) otherwise.
    # min(z, -z) is -z or z on those two branches, and a NaN keeps its sign.
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def all_finite(a: np.ndarray) -> np.bool_:
    """What ``np.isfinite(a).all()`` gives, by a count, which skips the
    method's Python-level wrapper; an empty array is all finite."""
    return np.count_nonzero(np.isfinite(a)) == a.size


_FLOAT64 = np.dtype(np.float64)


def _as_floats(a) -> np.ndarray:
    """``a`` as float64: a float64 ``np.ndarray`` as it is, anything else
    converted. A string (a numeric one too), a complex (numpy would only
    warn and drop the imaginary part) or an int beyond float64 is a DataError."""
    if a.__class__ is np.ndarray and a.dtype is _FLOAT64:
        return a
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", ComplexWarning)
            a = np.asarray(a)
            if a.dtype.kind in "US":  # numpy would parse a numeric string
                raise TypeError(f"text of dtype {a.dtype}")
            return np.asarray(a, dtype=np.float64)
    except (TypeError, ValueError, OverflowError, ComplexWarning) as exc:
        raise DataError(f"non-numeric value in feature input ({exc})") from None


def check_features(feats, d: int | None = None) -> np.ndarray:
    """The features rule: ``feats`` as a float64 (n, d) matrix of finite
    real numbers, d >= 1 and the head's ``d`` where one is given; anything
    else is a DataError."""
    feats = _as_floats(feats)
    if feats.ndim != 2 or (feats.shape[1] != d if d else feats.shape[1] < 1):
        want = f"(n, {d})" if d else "(n, d) with at least one column"
        raise DataError(f"feature table must have shape {want}, got {feats.shape}")
    if not all_finite(feats):
        raise DataError(NON_FINITE_FEATURE)
    return feats


def check_labels(labels, n: int) -> np.ndarray:
    """The labels rule of a table of ``n`` rows: one label per row, each a
    real number (not a string) equal to 0 or 1. The labels as a bool
    array, True for 1; anything else is a DataError."""
    try:
        labels = np.asarray(labels).ravel()
    except ValueError:  # a ragged list
        labels = None
    if labels is None or labels.dtype.kind not in "biuf":
        raise DataError("labels must be 0 or 1")
    if labels.size != n:
        raise DataError(f"{labels.size} labels for {n} rows: want one label per row")
    spoof = labels == 1
    if np.count_nonzero(spoof | (labels == 0)) != n:
        raise DataError("labels must be 0 or 1")
    return spoof


def not_a_row(d: int, feature) -> DataError:
    """The error for a frame's feature that is not one (d,) row."""
    shape = np.shape(feature)
    return DataError(f"feature dimension mismatch: head expects shape ({d},), got {shape}")


def forward(head: ClassifierHead, feature):
    """Spoof probability for a single feature vector of shape (d,), clamped
    into (0, 1), as a float. Pure function: no state is touched. An (n, d)
    stack of rows is passed to ``forward_batch`` and gives the (n,) array
    of their probabilities, each with the bits of its row on its own. Any
    other shape, or a non-numeric or non-finite value, is a DataError.

    The first product is one gemv, ``ndarray.dot`` of the (d,) row and the
    (d, 64) ``w1``: the BLAS call that a (1, d) @ (d, 64) matmul makes,
    with less dispatch. A non-finite feature makes every entry of that
    product non-finite (inf * 0 is NaN, and NaN and inf carry through the
    sum), so a finite first entry clears the row. Only a non-finite one
    runs the full check, which tells a non-finite feature from a finite
    row whose product overflowed. Such a feature may make the product warn
    of an invalid value first; where np.errstate or a warnings filter
    raises that warning, the feature is still refused with a DataError.
    The bias add and the ReLU write into the product, and its ``.dot`` with
    ``w2`` gives the logit. The scalar tail runs the sigmoid branch and
    clamp on Python floats, with ``np.exp`` (``math.exp`` rounds differently
    on some inputs)."""
    feature = _as_floats(feature)
    if feature.shape != (head.d,):
        if feature.ndim == 2:
            return forward_batch(head, feature)
        raise not_a_row(head.d, feature)
    try:
        hidden = feature.dot(head.w1)
    except (FloatingPointError, RuntimeWarning):  # np.errstate or a warnings filter raised
        if all_finite(feature):
            raise
        raise DataError(NON_FINITE_FEATURE) from None
    if not math.isfinite(hidden.item(0)) and not all_finite(feature):
        raise DataError(NON_FINITE_FEATURE)
    np.add(hidden, head.b1, out=hidden)
    np.maximum(hidden, 0.0, out=hidden)
    z = float(hidden.dot(head.w2)) + head.b2.item()
    if z >= 0:
        y = 1.0 / (1.0 + float(np.exp(-z)))
    else:
        e = float(np.exp(z))
        y = e / (1.0 + e)
    return min(max(y, PROB_EPS), 1.0 - PROB_EPS)


def forward_batch(head: ClassifierHead, feats) -> np.ndarray:
    """Spoof probabilities of the rows of the (n, d) matrix ``feats``; any
    other shape is a DataError.

    Row i is bit-identical to ``forward(head, feats[i])`` for every n. The
    products are stacked, (k, 1, d) @ (d, 64) and (k, 1, 64) @ (64,), so
    numpy's matmul runs its inner loop once per row, with the BLAS calls
    ``forward`` makes on that row: a gemv of the row and ``w1``, then a
    dot of the hidden row and ``w2``. An (n, d) @ (d, 64) GEMM would block
    and order the sums by n and rounds differently. The bias adds, the
    sigmoid's branches and the clamp are elementwise and correctly rounded,
    the same operations as ``forward``'s scalar tail.

    The rows are scored SCORE_ROWS_PER_CALL at a time into one (n,) output,
    so no temporary is larger than one block's (k, 1, 64) products, about
    0.5 MB, whatever n is; a row's bits do not depend on its block. Each
    block is copied to a contiguous array first: over rows that are not
    adjacent, such as a feature file's field view, the stacked matmul runs
    slower, and a row's copy scores with its bits."""
    feats = check_features(feats, head.d)
    n = feats.shape[0]
    out = np.empty(n)
    for start in range(0, n, SCORE_ROWS_PER_CALL):
        rows = slice(start, start + SCORE_ROWS_PER_CALL)
        block = np.ascontiguousarray(feats[rows])
        hidden = np.matmul(block[:, None, :], head.w1)
        np.add(hidden, head.b1, out=hidden)
        np.maximum(hidden, 0.0, out=hidden)
        logits = np.matmul(hidden, head.w2)[:, 0]
        np.add(logits, head.b2[0], out=logits)
        np.clip(_sigmoid(logits), PROB_EPS, 1.0 - PROB_EPS, out=out[rows])
    return out


def loss_and_grad(head: ClassifierHead, feats, labels) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy over the batch and its exact analytic
    gradient, one vector laid out like ``head.flat``.

        loss = -(1/n) sum_i [ l_i log y_i + (1 - l_i) log(1 - y_i) ]

    ``feats`` is an (n, d) matrix or one (d,) row, and the labels are one
    per row, each 0 or 1 (see ``check_features`` and ``check_labels``);
    discard-labeled samples never reach this point.
    The loss is computed as the mean of ``log(y_i)`` or ``log(1 - y_i)``
    picked by the label. That is exact, not an approximation: with l in
    {0, 1} the two products above are ``1 * a`` and ``0 * b``, so the sum
    is exactly ``a`` or exactly ``b``.

    ``feats`` is made C-contiguous first, so a strided, Fortran-ordered or
    reversed view gets the bits of its contiguous copy; BLAS, handed such an
    operand as it is, can round differently.
    """
    feats = _as_floats(feats)
    if feats.ndim == 1:
        feats = feats.reshape(1, -1)
    feats = np.ascontiguousarray(check_features(feats, head.d))
    n = feats.shape[0]
    if n == 0:
        raise DataError("empty batch")
    spoof = check_labels(labels, n)

    y, grad = _grad_kernel(head, feats, spoof)
    y_safe = np.minimum(np.maximum(y, PROB_EPS), 1.0 - PROB_EPS)
    loss = -float(np.add.reduce(np.log(np.where(spoof, y_safe, 1.0 - y_safe))) / n)
    return loss, grad


def _grad_kernel(head: ClassifierHead, feats: np.ndarray, labels: np.ndarray):
    """The forward and backward pass of a checked batch: the unclamped
    probabilities ``y`` and the flat gradient of the mean cross-entropy."""
    n = feats.shape[0]
    z1 = feats.dot(head.w1) + head.b1
    hidden = np.maximum(z1, 0.0)
    logits = hidden.dot(head.w2) + head.b2[0]
    y = _sigmoid(logits)

    # d loss / d logit for sigmoid + cross entropy collapses to (y - l)/n.
    dlogits = (y - labels) / n
    dhidden = dlogits[:, None] * head.w2
    dz1 = dhidden * (z1 > 0.0)
    grad = np.concatenate(
        (
            feats.T.dot(dz1).ravel(),
            np.add.reduce(dz1, axis=0),
            hidden.T.dot(dlogits),
            np.add.reduce(dlogits, keepdims=True),
        )
    )
    return y, grad


def apply_update(
    head: ClassifierHead,
    state: AdamState,
    grad: np.ndarray,
    learning_rate: float,
    weight_decay: float = 0.0,
) -> tuple[ClassifierHead, AdamState]:
    """One Adam step with bias correction and decoupled weight decay:

        m <- b1 m + (1 - b1) g          v <- b2 v + (1 - b2) g^2
        theta <- theta - lr * m_hat / (sqrt(v_hat) + eps) - lr * wd * theta

    ``grad`` is laid out like ``head.flat``. Mutates ``head`` and ``state``
    in place and returns them. A non-finite gradient or result rejects the
    whole update: NumericalError is raised, naming the parameter, and
    neither head nor state is touched. The step runs once over the flat
    vector, writing each operation of the expression above, in its order,
    into ``state``'s preallocated buffers; every operation is elementwise
    and correctly rounded, so the result is bit-identical to stepping each
    parameter on its own with fresh arrays.

    Two operations whose result is known exactly are skipped:

    - A bias correction ``1 - b**t`` that has rounded to 1.0 (``b1`` from
      t = 356, ``b2`` from t = 37412) is not divided by, as ``x / 1.0`` is
      ``x`` for every float.
    - When ``learning_rate * weight_decay`` is +0.0 the decay term is
      ``theta_new + 0.0`` rather than ``theta_new - 0.0 * theta``. For
      finite theta the two agree bit for bit: ``theta_new`` is -0.0 only
      for a -0.0 parameter stepped by +0.0, and both forms turn that into
      +0.0 while leaving every other value as it is. A non-finite theta
      gives a non-finite result at the same positions either way.
    """
    g = np.asarray(grad)
    if g.shape != head.flat.shape:
        raise DataError(f"gradient shape mismatch: {g.shape} vs {head.flat.shape}")
    if not all_finite(g):
        raise NumericalError(f"non-finite gradient for parameter {_first_nonfinite(g, head)!r}")

    t = state.step_count + 1
    bias1 = 1.0 - ADAM_BETA1**t
    bias2 = 1.0 - ADAM_BETA2**t
    m, v, (a, b) = state._m_next, state._v_next, state._work
    np.multiply(ADAM_BETA1, state.m_flat, out=m)
    np.add(m, np.multiply(1.0 - ADAM_BETA1, g, out=a), out=m)
    np.multiply(ADAM_BETA2, state.v_flat, out=v)
    np.multiply(1.0 - ADAM_BETA2, g, out=a)
    np.add(v, np.multiply(a, g, out=a), out=v)
    m_hat = m if bias1 == 1.0 else np.divide(m, bias1, out=a)
    step = np.multiply(learning_rate, m_hat, out=a)
    v_hat = v if bias2 == 1.0 else np.divide(v, bias2, out=b)
    np.sqrt(v_hat, out=b)
    np.divide(step, np.add(b, ADAM_EPS, out=b), out=a)
    theta = head.flat
    theta_new = np.subtract(theta, step, out=a)
    decay = learning_rate * weight_decay
    no_decay = decay == 0.0 and math.copysign(1.0, decay) == 1.0
    if not no_decay:
        np.subtract(theta_new, np.multiply(decay, theta, out=b), out=a)
    if not all_finite(theta_new):
        raise NumericalError(
            f"update produced non-finite values in {_first_nonfinite(theta_new, head)!r}"
        )

    if no_decay:
        # Adding +0.0 keeps every value finite or not, so it can wait for
        # the check and write the commit in the same pass.
        np.add(theta_new, 0.0, out=theta)
    else:
        theta[...] = theta_new
    state.m_flat, state._m_next = m, state.m_flat
    state.v_flat, state._v_next = v, state.v_flat
    state.step_count = t
    return head, state


def _first_nonfinite(flat: np.ndarray, head: ClassifierHead) -> str:
    """Name of the first parameter whose part of ``flat`` (laid out like
    ``head.flat``) holds a non-finite value: the error path of apply_update."""
    return next(name for name, part in head.views(flat).items() if not np.isfinite(part).all())


PRETRAIN_PREFIX = "pretrain_"


@dataclass(frozen=True)
class PretrainSchedule:
    """Desk-scale pre-training recipe: mini-batch Adam with exponential
    learning-rate decay (gamma per decay_every iterations); 0 iterations
    means no training. Config keys: ``PRETRAIN_PREFIX`` + field name."""

    iterations: int = 2000
    batch_size: int = 128
    learning_rate: float = 1e-3
    weight_decay: float = 1e-3
    decay_gamma: float = 0.8
    decay_every: int = 1000

    def __post_init__(self) -> None:
        check_ranges(self, (
            ("iterations", lambda v: v >= 0, ">= 0"),
            ("batch_size", lambda v: v >= 1, ">= 1"),
            ("learning_rate", lambda v: math.isfinite(v) and v > 0.0, "a finite value > 0"),
            ("weight_decay", lambda v: math.isfinite(v) and v >= 0.0, "a finite value >= 0"),
            ("decay_gamma", lambda v: 0.0 < v <= 1.0, "> 0 and <= 1"),
            ("decay_every", lambda v: v >= 1, ">= 1"),
        ), PRETRAIN_PREFIX)


def pretrain(
    head: ClassifierHead,
    feats,
    labels,
    schedule: PretrainSchedule,
    rng: np.random.Generator,
) -> ClassifierHead:
    """Train the head on a feature table and its labels, which keep the
    table door's rules and hold both classes, all checked before any
    update; a zero-iteration schedule returns the head unchanged."""
    feats = check_features(feats, head.d)
    spoof = check_labels(labels, feats.shape[0])
    if schedule.iterations > 0 and np.count_nonzero(spoof) in (0, spoof.size):
        raise DataError("pre-training data contains a single class")
    labels = spoof.astype(np.float64)  # so no batch's ``y - labels`` casts

    state = AdamState.for_head(head)
    n = feats.shape[0]
    for it in range(schedule.iterations):
        lr = schedule.learning_rate * schedule.decay_gamma ** (it // schedule.decay_every)
        batch_idx = rng.integers(0, n, size=schedule.batch_size)
        _, grad = _grad_kernel(head, feats[batch_idx], labels[batch_idx])
        apply_update(head, state, grad, lr, schedule.weight_decay)
    return head


# ---------------------------------------------------------------------------
# Serialization: versioned little-endian binary head files
# ---------------------------------------------------------------------------

HEAD_MAGIC = b"OAPH"
HEAD_FORMAT_VERSION = 1


def save_head(head: ClassifierHead, path: str | Path) -> None:
    """Write magic "OAPH", u32 version, u32 d, u32 hidden width, then
    ``head.flat`` (w1/b1/w2/b2, each row-major) as little-endian f64. A head
    that ``load_head`` would refuse is its DataError, raised before the file is opened."""
    raw = HEAD_MAGIC + struct.pack("<III", HEAD_FORMAT_VERSION, head.d, HIDDEN_UNITS)
    raw += head.flat.astype("<f8").tobytes()
    _decode_head(path, raw)
    Path(path).write_bytes(raw)


def load_head(path: str | Path) -> ClassifierHead:
    with open_text(path, DataError) as fh:  # its bytes are read, not decoded
        return _decode_head(path, fh.buffer.read())


def _decode_head(path: str | Path, raw: bytes) -> ClassifierHead:
    """The head in the bytes ``raw`` of a head file, or a DataError naming ``path``."""
    if raw[:4] != HEAD_MAGIC:
        raise DataError(f"{path}: not a head file (bad magic)")
    if len(raw) < 16:
        raise DataError(f"{path}: truncated header")
    version, d, hidden = struct.unpack("<III", raw[4:16])
    if version != HEAD_FORMAT_VERSION:
        raise DataError(f"{path}: unsupported format version {version}")
    if hidden != HIDDEN_UNITS:
        raise DataError(f"{path}: unsupported hidden width {hidden}")
    if d < 1:
        raise DataError(f"{path}: feature dimension must be >= 1, got {d}")
    shapes = ((d, hidden), (hidden,), (hidden,), (1,))
    expected = 16 + 8 * sum(map(math.prod, shapes))
    if len(raw) != expected:
        raise DataError(f"{path}: expected {expected} bytes, got {len(raw)}")
    flat = np.frombuffer(raw, dtype="<f8", offset=16)
    if not np.isfinite(flat).all():
        raise DataError(f"{path}: non-finite parameter value")
    return ClassifierHead(*_views(flat, shapes))
