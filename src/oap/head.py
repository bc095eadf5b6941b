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
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, NumericalError

HIDDEN_UNITS = 64
PROB_EPS = 1e-7

PARAM_NAMES = ("w1", "b1", "w2", "b2")

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


def _pack(arrays) -> tuple[np.ndarray, list[np.ndarray]]:
    """Copy ``arrays`` into one contiguous float64 vector; return it and
    views of it shaped like the inputs."""
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    flat = np.concatenate([a.ravel() for a in arrays])
    return flat, _views(flat, [a.shape for a in arrays])


class ClassifierHead:
    """The head's parameters ``w1``, ``b1``, ``w2``, ``b2``. They are views
    into one contiguous vector ``flat`` (in that order, each row-major), so
    an optimizer step runs once over every parameter. The constructor copies
    its arguments; in-place writes to a parameter land in ``flat``."""

    def __init__(self, w1, b1, w2, b2) -> None:
        self.flat, (self.w1, self.b1, self.w2, self.b2) = _pack((w1, b1, w2, b2))

    @property
    def d(self) -> int:
        return self.w1.shape[0]

    def params(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def copy(self) -> "ClassifierHead":
        return ClassifierHead(self.w1, self.b1, self.w2, self.b2)

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())


class AdamState:
    """First/second moment accumulators plus the step counter.

    The moments are held as flat vectors ``m_flat`` / ``v_flat`` laid out
    like ``ClassifierHead.flat``; ``m`` and ``v`` are dicts of per-parameter
    views into them. ``step_count`` increments by exactly one per committed
    update; the moments stay element-wise finite for any bounded gradient
    sequence.
    """

    def __init__(
        self, m: dict[str, np.ndarray], v: dict[str, np.ndarray], step_count: int = 0
    ) -> None:
        self.m_flat, m_views = _pack(m[name] for name in PARAM_NAMES)
        self.v_flat, v_views = _pack(v[name] for name in PARAM_NAMES)
        self.m = dict(zip(PARAM_NAMES, m_views))
        self.v = dict(zip(PARAM_NAMES, v_views))
        self.step_count = step_count

    @classmethod
    def for_head(cls, head: ClassifierHead) -> "AdamState":
        zeros = {name: np.zeros_like(arr) for name, arr in head.params().items()}
        return cls(m=zeros, v=zeros)

    def copy(self) -> "AdamState":
        return AdamState(self.m, self.v, self.step_count)


def init_head(d: int, rng: np.random.Generator) -> ClassifierHead:
    """Fresh head: zero-mean uniform weights scaled by 1/sqrt(fan_in),
    zero biases."""
    if d < 1:
        raise ConfigError(f"feature dimension must be >= 1, got {d}")
    w1_scale = 1.0 / np.sqrt(d)
    w2_scale = 1.0 / np.sqrt(HIDDEN_UNITS)
    return ClassifierHead(
        w1=rng.uniform(-w1_scale, w1_scale, size=(d, HIDDEN_UNITS)),
        b1=np.zeros(HIDDEN_UNITS),
        w2=rng.uniform(-w2_scale, w2_scale, size=HIDDEN_UNITS),
        b2=np.zeros(1),
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Split by sign so np.exp never sees a large positive argument.
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _check_features(head: ClassifierHead, feats: np.ndarray) -> np.ndarray:
    feats = np.asarray(feats, dtype=np.float64)
    if feats.shape[-1] != head.d:
        raise DataError(
            f"feature dimension mismatch: head expects {head.d}, got {feats.shape[-1]}"
        )
    if not np.isfinite(feats).all():
        raise DataError("non-finite value in feature input")
    return feats


def forward(head: ClassifierHead, feature) -> float:
    """Spoof probability for a single feature vector, clamped into
    (0, 1). Pure function: no state is touched."""
    return float(forward_batch(head, np.asarray(feature, dtype=np.float64)[None, :])[0])


def forward_batch(head: ClassifierHead, feats) -> np.ndarray:
    """Vectorized forward pass over rows of ``feats`` (n, d)."""
    feats = _check_features(head, feats)
    hidden = np.maximum(feats @ head.w1 + head.b1, 0.0)
    logits = hidden @ head.w2 + head.b2[0]
    return np.clip(_sigmoid(logits), PROB_EPS, 1.0 - PROB_EPS)


def loss_and_grad(
    head: ClassifierHead, feats, labels
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean binary cross-entropy over the batch and its exact analytic
    gradients.

        loss = -(1/n) sum_i [ l_i log y_i + (1 - l_i) log(1 - y_i) ]

    Labels must be 0/1; discard-labeled samples never reach this point.
    """
    feats = _check_features(head, np.atleast_2d(np.asarray(feats, dtype=np.float64)))
    labels = np.asarray(labels, dtype=np.float64).ravel()
    n = feats.shape[0]
    if n == 0:
        raise DataError("empty batch")
    if labels.shape[0] != n:
        raise DataError(f"batch has {n} features but {labels.shape[0]} labels")
    if not ((labels == 0.0) | (labels == 1.0)).all():
        raise DataError("labels must be 0 or 1")

    z1 = feats @ head.w1 + head.b1
    hidden = np.maximum(z1, 0.0)
    logits = hidden @ head.w2 + head.b2[0]
    y = _sigmoid(logits)
    y_safe = np.clip(y, PROB_EPS, 1.0 - PROB_EPS)
    loss = -float(np.mean(labels * np.log(y_safe) + (1.0 - labels) * np.log(1.0 - y_safe)))

    # d loss / d logit for sigmoid + cross entropy collapses to (y - l)/n.
    dlogits = (y - labels) / n
    dhidden = dlogits[:, None] * head.w2
    dz1 = dhidden * (z1 > 0.0)
    grads = {
        "w1": feats.T @ dz1,
        "b1": dz1.sum(axis=0),
        "w2": hidden.T @ dlogits,
        "b2": np.array([dlogits.sum()]),
    }
    return loss, grads


def apply_update(
    head: ClassifierHead,
    state: AdamState,
    grads: dict[str, np.ndarray],
    learning_rate: float,
    weight_decay: float = 0.0,
) -> tuple[ClassifierHead, AdamState]:
    """One Adam step with bias correction and decoupled weight decay:

        m <- b1 m + (1 - b1) g          v <- b2 v + (1 - b2) g^2
        theta <- theta - lr * m_hat / (sqrt(v_hat) + eps) - lr * wd * theta

    Mutates ``head`` and ``state`` in place and returns them. A non-finite
    gradient or result rejects the whole update: NumericalError is raised
    and neither head nor state is touched. The step runs once over the flat
    parameter vector; every operation is elementwise and correctly rounded,
    so the result is bit-identical to stepping each parameter on its own.
    """
    for name in PARAM_NAMES:
        if name not in grads:
            raise DataError(f"missing gradient for parameter {name!r}")
        if grads[name].shape != getattr(head, name).shape:
            raise DataError(
                f"gradient shape mismatch for {name!r}: "
                f"{grads[name].shape} vs {getattr(head, name).shape}"
            )
    g = np.concatenate([grads[name].ravel() for name in PARAM_NAMES])
    if not np.isfinite(g).all():
        raise NumericalError(f"non-finite gradient for parameter {_first_nonfinite(g, head)!r}")

    t = state.step_count + 1
    bias1 = 1.0 - ADAM_BETA1**t
    bias2 = 1.0 - ADAM_BETA2**t
    m = ADAM_BETA1 * state.m_flat + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * state.v_flat + (1.0 - ADAM_BETA2) * g * g
    step = learning_rate * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
    theta = head.flat
    theta_new = theta - step - learning_rate * weight_decay * theta
    if not np.isfinite(theta_new).all():
        raise NumericalError(
            f"update produced non-finite values in {_first_nonfinite(theta_new, head)!r}"
        )

    theta[...] = theta_new
    state.m_flat[...] = m
    state.v_flat[...] = v
    state.step_count = t
    return head, state


def _first_nonfinite(flat: np.ndarray, head: ClassifierHead) -> str:
    """Name of the first parameter whose part of ``flat`` (laid out like
    ``head.flat``) holds a non-finite value: the error path of apply_update."""
    parts = _views(flat, [arr.shape for arr in head.params().values()])
    return next(name for name, part in zip(PARAM_NAMES, parts) if not np.isfinite(part).all())


@dataclass(frozen=True)
class PretrainSchedule:
    """Desk-scale pre-training recipe: mini-batch Adam with exponential
    learning-rate decay (gamma per decay_every iterations). Its config
    keys are the field names behind a ``pretrain_`` prefix."""

    iterations: int = 2000
    batch_size: int = 128
    learning_rate: float = 1e-3
    weight_decay: float = 1e-3
    decay_gamma: float = 0.8
    decay_every: int = 1000


def pretrain(
    head: ClassifierHead,
    feats,
    labels,
    schedule: PretrainSchedule,
    rng: np.random.Generator,
) -> ClassifierHead:
    """Train the head on a labeled feature set. The dataset must contain
    both classes, and the batch size and decay interval must be at least 1;
    a zero-iteration schedule returns the head unchanged."""
    feats = _check_features(head, np.asarray(feats, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if feats.shape[0] != labels.shape[0]:
        raise DataError("features and labels disagree in length")
    if schedule.iterations > 0 and len(np.unique(labels)) < 2:
        raise DataError("pre-training data contains a single class")
    for name in ("batch_size", "decay_every"):
        value = getattr(schedule, name)
        if value < 1:
            raise ConfigError(f"pretrain_{name} out of range: {value!r} (want >= 1)")

    state = AdamState.for_head(head)
    n = feats.shape[0]
    for it in range(schedule.iterations):
        lr = schedule.learning_rate * schedule.decay_gamma ** (it // schedule.decay_every)
        batch_idx = rng.integers(0, n, size=schedule.batch_size)
        _, grads = loss_and_grad(head, feats[batch_idx], labels[batch_idx])
        apply_update(head, state, grads, lr, schedule.weight_decay)
    return head


# ---------------------------------------------------------------------------
# Serialization: versioned little-endian binary head files
# ---------------------------------------------------------------------------

HEAD_MAGIC = b"OAPH"
HEAD_FORMAT_VERSION = 1


def save_head(head: ClassifierHead, path: str | Path) -> None:
    """Write magic "OAPH", u32 version, u32 d, u32 hidden width, then all
    parameters as little-endian f64, row-major, in w1/b1/w2/b2 order."""
    with open(path, "wb") as fh:
        fh.write(HEAD_MAGIC)
        fh.write(struct.pack("<III", HEAD_FORMAT_VERSION, head.d, HIDDEN_UNITS))
        for name in PARAM_NAMES:
            fh.write(np.ascontiguousarray(getattr(head, name), dtype="<f8").tobytes())


def load_head(path: str | Path) -> ClassifierHead:
    raw = Path(path).read_bytes()
    if raw[:4] != HEAD_MAGIC:
        raise DataError(f"{path}: not a head file (bad magic)")
    if len(raw) < 16:
        raise DataError(f"{path}: truncated header")
    version, d, hidden = struct.unpack("<III", raw[4:16])
    if version != HEAD_FORMAT_VERSION:
        raise DataError(f"{path}: unsupported format version {version}")
    if hidden != HIDDEN_UNITS:
        raise DataError(f"{path}: unsupported hidden width {hidden}")
    counts = (d * hidden, hidden, hidden, 1)
    expected = 16 + 8 * sum(counts)
    if len(raw) != expected:
        raise DataError(f"{path}: expected {expected} bytes, got {len(raw)}")
    flat = np.frombuffer(raw[16:], dtype="<f8").astype(np.float64)
    if not np.isfinite(flat).all():
        raise DataError(f"{path}: non-finite parameter value")
    w1, b1, w2, b2 = np.split(flat, np.cumsum(counts)[:-1])
    return ClassifierHead(w1.reshape(d, hidden), b1, w2, b2)
