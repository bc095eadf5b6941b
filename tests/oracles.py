"""Oracles and helpers that several test modules share: independent
reference computations (the plain forms the fast paths replaced, each the
reference for their bits or bytes), the readers of a store's columns, a
stream's record-strided layout, a pipe that holds given bytes, a refusal's
words, and the source scan behind the one-module-wording tests. Not a test
module; import what is needed from it."""

import ast
import contextlib
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import oap
from oap.engine import TRACE_COLUMNS, TraceRecord
from oap.errors import DataError, NumericalError
from oap.head import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, HIDDEN_UNITS, PROB_EPS, ClassifierHead
from oap.head import _sigmoid, forward, loss_and_grad
from oap.rng import seeded_rng
from oap.simstream import (
    HELD_OUT_USER_BASE,
    SOURCE_SHIFT_SCALE,
    StreamFrame,
    StreamFrames,
    _class_mean,
    _user_offset,
)


def random_head(d, seed, scale=0.3):
    """Small random head (biases included) for gradient checks."""
    rng = np.random.default_rng(seed)
    return ClassifierHead(
        w1=rng.normal(0, scale / np.sqrt(d), size=(d, HIDDEN_UNITS)),
        b1=rng.normal(0, 0.05, size=HIDDEN_UNITS),
        w2=rng.normal(0, scale / np.sqrt(HIDDEN_UNITS), size=HIDDEN_UNITS),
        b2=rng.normal(0, 0.05, size=1),
    )


def stream_of(frames) -> StreamFrames:
    """The ``StreamFrames`` of a list of ``StreamFrame``, the one form of a
    stream the runners read: int64 indices, float64 times and the features
    stacked as (n, d) float64 rows (d = 0 for an empty list)."""
    features = np.array([f.feature for f in frames], dtype=np.float64)
    return StreamFrames(features.reshape(len(frames), -1 if len(frames) else 0),
                        np.array([f.frame_index for f in frames], dtype=np.int64),
                        np.array([f.time for f in frames], dtype=np.float64))


def record_strided(features, indices, times):
    """The columns as views of one structured table, laid out as the
    feature-file reader's: rows of a column are a record apart."""
    n, d = features.shape
    table = np.empty(n, dtype=[("index", "<i8"), ("time", "<f8"), ("features", "<f8", (d,))])
    table["index"], table["time"], table["features"] = indices, times, features
    return table["features"], table["index"], table["time"]


def buffer_columns(buf):
    """Copies of an ``OnlineBuffer``'s live frame index, raw label, time
    and feature columns, in stored order."""
    live = slice(buf._lo, buf._hi)
    return (buf._index[live].copy(), buf._raw[live].copy(), buf._time[live].copy(),
            buf._features[live].copy())


def sampled_labels(store):
    """The labels the sampler reads from ``store``: an online buffer's
    working labels, smoothed over the entries it holds now, or a replay
    store's frozen labels."""
    return store._sample_source()[1]


def engine_state(engine):
    """Everything a frame may change, as comparable values."""
    buf = engine.online
    return (
        engine.head.flat.tobytes(),
        engine.adam.m_flat.tobytes(),
        engine.adam.v_flat.tobytes(),
        engine.adam.step_count,
        *(column.tobytes() for column in buffer_columns(buf)),
        sampled_labels(buf).tobytes(),
        engine.finetune_accumulator,
        engine.cumulative_flops,
        engine.last_frame,
        repr(engine.rng.bit_generator.state),
    )


def dense_sweep_eer(scores, labels, n_thresholds=10_001):
    """Brute-force oracle: evaluate APCER/BPCER definitionally on an even
    threshold grid over [0, 1] and return their mean where they are
    closest. No sorting, no interpolation."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    spoof = scores[labels == 1]
    live = scores[labels == 0]
    grid = np.linspace(0.0, 1.0, n_thresholds)
    apcer = (spoof[None, :] <= grid[:, None]).mean(axis=1)
    bpcer = (live[None, :] > grid[:, None]).mean(axis=1)
    best = np.argmin(np.abs(apcer - bpcer))
    return (apcer[best] + bpcer[best]) / 2.0


def brute_force_smooth(frame_indices, labels, window):
    """Naive windowed majority recount on Python ints, exact at the int64
    ends: for each stored entry, count the stored 0/1 labels with frame
    index within window/2 of its own; spoof iff more than half vote spoof.
    One explicit membership test per pair, no shared prefix sums with the
    production path. Indices strictly increase, as ``smooth_labels``
    requires, so no entry more than window // 2 places away is that close."""
    idx, lab = np.asarray(frame_indices).tolist(), np.asarray(labels).tolist()
    half, n = window // 2, len(idx)
    out = []
    for i, t in enumerate(idx):
        votes = [lab[j] for j in range(max(0, i - half), min(n, i + half + 1))
                 if 2 * abs(idx[j] - t) <= window]
        out.append(int(2 * sum(votes) > len(votes)))
    return np.array(out, dtype=np.int64)


def per_slot_sample_batch(online, replay, batch_size, online_prob, rng):
    """The sampler as one loop over slots: the reference the vectorized
    version must reproduce bit for bit, RNG stream included."""
    n_online, n_replay = len(online), len(replay)
    if n_online == 0 and n_replay == 0:
        raise DataError("cannot sample a batch: both stores are empty")

    use_online = rng.random(batch_size) < online_prob
    if n_online == 0:
        use_online[:] = False
    if n_replay == 0:
        use_online[:] = True
    class_u = rng.random(batch_size)
    entry_u = rng.random(batch_size)

    online_feats, online_labels = online._sample_source()[:2]
    online_buckets = [np.flatnonzero(online_labels == c) for c in (0, 1)]
    online_present = [b for b in online_buckets if len(b)]
    replay_feats, replay_labels = replay._sample_source()[:2]
    replay_buckets = [np.flatnonzero(replay_labels == c) for c in (0, 1)]
    replay_present = [b for b in replay_buckets if len(b)]

    d = online_feats.shape[1] if n_online else replay.d
    feats = np.empty((batch_size, d))
    labels = np.empty(batch_size, dtype=np.int64)
    for i in range(batch_size):
        buckets = online_present if use_online[i] else replay_present
        bucket = buckets[int(class_u[i] * len(buckets))]
        j = bucket[int(entry_u[i] * len(bucket))]
        if use_online[i]:
            feats[i] = online_feats[j]
            labels[i] = online_labels[j]
        else:
            feats[i] = replay_feats[j]
            labels[i] = replay_labels[j]
    return feats, labels


def fresh_array_adam(theta, m, v, step_count, g, learning_rate, weight_decay):
    """One Adam step with a fresh array per operation; returns the new
    (theta, m, v, step_count) or raises NumericalError."""
    if not np.isfinite(g).all():
        raise NumericalError("non-finite gradient")
    t = step_count + 1
    bias1 = 1.0 - ADAM_BETA1**t
    bias2 = 1.0 - ADAM_BETA2**t
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
    step = learning_rate * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
    theta = theta - step - learning_rate * weight_decay * theta
    if not np.isfinite(theta).all():
        raise NumericalError("non-finite result")
    return theta, m, v, t


class ListBuffer:
    """The online buffer as a brute-force model: a list of [feature, raw
    label, frame index, time] entries, filtered on eviction, whose working
    labels are a recount (``brute_force_smooth``) over the entries it holds
    when the sampler reads them."""

    def __init__(self, window, horizon):
        self.entries = []
        self.window, self.horizon = window, horizon

    def __len__(self):
        return len(self.entries)

    def insert(self, feature, label, frame_index, time):
        self.entries.append([feature, label, frame_index, time])

    def evict_old(self, now):
        cutoff = self.horizon - self.horizon * 1e-12
        self.entries = [e for e in self.entries if now - e[3] < cutoff]

    def _sample_source(self):
        features = np.array([e[0] for e in self.entries])
        labels = brute_force_smooth([e[2] for e in self.entries], [e[1] for e in self.entries],
                                    self.window)
        return features, labels, None


class ReferenceEngine:
    """The adaptation loop written plainly: the oracle that ``Engine``
    matches record for record, bit for bit. Each frame is scored, labeled
    by the dual threshold, stored unless discarded, and ages out past the
    horizon; the accumulator fires at most one event. An event runs its
    iterations on the per-slot sampler, which reads the list model's labels
    re-smoothed by recount, the checked ``loss_and_grad`` and a fresh-array
    Adam. A
    rejected update restores the head and the moments as they were before
    the event, and the event counts no cost."""

    def __init__(self, head, replay, params):
        self.head, self.replay, self.params = head.copy(), replay, params
        self.m, self.v, self.step_count = np.zeros_like(head.flat), np.zeros_like(head.flat), 0
        self.online = ListBuffer(params.window, params.eviction_horizon)
        self.accumulator = self.cumulative_flops = 0.0
        self.rng = seeded_rng(params.seed, "sampler")

    def run_stream(self, frames):
        return [self.process_frame(f.feature, f.frame_index, f.time) for f in frames]

    def process_frame(self, feature, frame_index, time):
        p = self.params
        y = forward(self.head, feature)
        if y > 1.0 - p.margin:
            pseudo = 1
        elif y < p.margin or p.margin == 0.5:
            pseudo = 0
        else:
            pseudo = -1  # discarded
        if pseudo != -1:
            self.online.insert(np.array(feature, dtype=np.float64), pseudo, frame_index, time)
        self.online.evict_old(time)
        self.accumulator += p.finetune_freq
        finetuned = False
        if self.accumulator >= 1.0:
            self.accumulator -= 1.0
            finetuned = self.finetune()
        return TraceRecord(frame_index, None, y, int(y > p.eval_threshold), pseudo, finetuned,
                           len(self.online), self.cumulative_flops)

    def finetune(self):
        p, online = self.params, self.online
        if not online and not len(self.replay):
            return False
        before = self.head.flat.copy(), self.m, self.v, self.step_count
        try:
            for _ in range(p.iterations_per_call):
                feats, labels = per_slot_sample_batch(online, self.replay, p.batch_size,
                                                      p.online_prob, self.rng)
                _, grad = loss_and_grad(self.head, feats, labels)
                theta, self.m, self.v, self.step_count = fresh_array_adam(
                    self.head.flat, self.m, self.v, self.step_count, grad, p.learning_rate,
                    p.weight_decay)
                self.head.flat[:] = theta
        except NumericalError:
            theta, self.m, self.v, self.step_count = before
            self.head.flat[:] = theta
            return False
        d = self.head.d
        self.cumulative_flops += p.iterations_per_call * p.batch_size * 6.0 * (d + 1) * HIDDEN_UNITS
        return True


# ---------------------------------------------------------------------------
# Drawn heads and batches, and the plain forms of the head's products
# ---------------------------------------------------------------------------

# Head and feature scales 1e-3 ... 1e3: logits from near 0 to far past the
# clamp, on both sides of 0.
log_scales = st.floats(-3.0, 3.0)


def bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def drawn_head(d, seed, scale):
    rng = np.random.default_rng(seed)
    return ClassifierHead(
        rng.normal(0.0, scale, size=(d, HIDDEN_UNITS)),
        rng.normal(0.0, scale, size=HIDDEN_UNITS),
        rng.normal(0.0, scale, size=HIDDEN_UNITS),
        rng.normal(0.0, scale, size=1),
    )


def stacked_case(d, rows, seed, head_scale, feature_scale):
    h = drawn_head(d, seed, 10.0**head_scale)
    feats = np.random.default_rng(seed + 1).normal(0.0, 10.0**feature_scale, size=(rows, d))
    return h, feats


def in_layout(x, layout):
    """The values of the 1-D or 2-D ``x`` in the memory layout ``layout``
    names: ``c`` contiguous; ``row`` a column slice of a wider array, whose
    rows lie a record apart like a feature file's field view; ``f``
    Fortran-ordered; ``col`` every other column (or element) of a wider
    array; ``reversed`` a negative-stride view of a reversed copy."""
    if layout == "c":
        return np.ascontiguousarray(x)
    if layout == "row":
        wide = np.zeros((x.shape[0], x.shape[1] + 3))
        wide[:, 1:-2] = x
        return wide[:, 1:-2]
    if layout == "f":
        return np.asfortranarray(x)
    if layout == "col":
        wide = np.zeros(x.shape[:-1] + (2 * x.shape[-1],))
        wide[..., ::2] = x
        return wide[..., ::2]
    assert layout == "reversed"
    return x[::-1].copy()[::-1]


def scalar_tail(z):
    """``forward``'s sigmoid and clamp of the logit ``z`` on Python floats."""
    if z >= 0:
        y = 1.0 / (1.0 + float(np.exp(-z)))
    else:
        e = float(np.exp(z))
        y = e / (1.0 + e)
    return min(max(y, PROB_EPS), 1.0 - PROB_EPS)


def matmul_forward(head, feature):
    """``forward`` on one row with a (1, d) @ (d, 64) matmul behind a full
    finite check: the row path before it read the check off a gemv."""
    feature = np.asarray(feature, dtype=np.float64)
    if not np.isfinite(feature).all():
        raise DataError("non-finite value in feature input")
    hidden = feature[None, :] @ head.w1
    np.add(hidden, head.b1, out=hidden)
    np.maximum(hidden, 0.0, out=hidden)
    return scalar_tail(np.dot(hidden, head.w2).item() + head.b2.item())


def matmul_grad_kernel(head, feats, labels):
    """``_grad_kernel`` as it ran on the ``@`` operator (numpy's matmul ufunc)."""
    n = feats.shape[0]
    z1 = feats @ head.w1 + head.b1
    hidden = np.maximum(z1, 0.0)
    logits = hidden @ head.w2 + head.b2[0]
    y = _sigmoid(logits)
    dlogits = (y - labels) / n
    dz1 = dlogits[:, None] * head.w2 * (z1 > 0.0)
    grad = np.concatenate((
        (feats.T @ dz1).ravel(),
        np.add.reduce(dz1, axis=0),
        hidden.T @ dlogits,
        np.add.reduce(dlogits, keepdims=True),
    ))
    return y, grad


# ---------------------------------------------------------------------------
# The per-row writers and the per-frame generator the column forms replaced
# ---------------------------------------------------------------------------


def per_row_cell(value) -> str:
    if value is None:
        return ""
    if value is True or value is False:
        return "1" if value else "0"
    return repr(value)


def per_row_csv(path, trace):
    with open(path, "w") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for r in trace:
            fh.write(",".join(map(per_row_cell, r._asdict().values())) + "\n")


def per_row_jsonl(path, trace):
    with open(path, "w") as fh:
        for r in trace:
            fh.write(json.dumps(r._asdict()) + "\n")


def per_row_save(path, features, frame_indices, times, labels=None, frame_rate=30.0):
    """The row-at-a-time writer save_feature_file replaced: the reference
    for its bytes."""
    n, d = features.shape
    with open(path, "w") as fh:
        fh.write(f"oapf v1 d={d} labeled={int(labels is not None)} fps={frame_rate!r}\n")
        for i in range(n):
            cols = [str(int(frame_indices[i])), repr(float(times[i]))]
            if labels is not None:
                cols.append(str(int(labels[i])))
            cols.extend(repr(float(v)) for v in features[i])
            fh.write(",".join(cols) + "\n")


def per_frame_stream(cfg, scenario):
    """The frame-at-a-time generator that ``generate_stream`` replaced: the
    reference for its bits, its frame types and its labels."""
    uid = HELD_OUT_USER_BASE + scenario.user_id
    offset = _user_offset(cfg, uid)
    drift_rng = seeded_rng(cfg.seed, f"drift-direction-{uid}")
    direction = drift_rng.standard_normal(cfg.d)
    direction /= np.linalg.norm(direction)
    noise_rng = seeded_rng(cfg.seed, f"stream-noise-{uid}")

    frames = []
    labels = np.empty(scenario.total_frames, dtype=np.int64)
    t = 0
    for seg in scenario.segments:
        source_rng = seeded_rng(cfg.seed, f"source-{int(seg.label)}-{seg.source_id}-{uid}")
        source_offset = (
            source_rng.standard_normal(cfg.d) * SOURCE_SHIFT_SCALE * cfg.noise_std
        )
        base = _class_mean(cfg, seg.label) + offset + source_offset
        noise = noise_rng.standard_normal((seg.duration_frames, cfg.d)) * cfg.noise_std
        for k in range(seg.duration_frames):
            time = t / scenario.frame_rate
            drift = direction * cfg.drift_rate * cfg.noise_std * time
            frames.append(StreamFrame(base + drift + noise[k], t + 1, time))
            labels[t] = int(seg.label)
            t += 1
    return frames, labels


# The package source, for scans of the words its messages spell.
SOURCES = sorted(Path(oap.__file__).parent.glob("*.py"))


def message_texts(tree: ast.AST) -> list[str]:
    """Every string literal in ``tree``, f-string pieces included, other
    than docstrings."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    return [
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and id(node) not in docstrings
    ]


def spelled_in(words: str, exact: bool = False) -> list[str]:
    """The package modules with a message text that holds ``words`` (that
    is ``words``, when ``exact``)."""
    return [path.name for path in SOURCES
            if any(text == words if exact else words in text
                   for text in message_texts(ast.parse(path.read_text())))]


def refusal(call, error=DataError) -> str:
    """The words of the ``error`` that ``call()`` raises; the test fails
    if it raises none."""
    with pytest.raises(error) as info:
        call()
    return str(info.value)


@contextlib.contextmanager
def piped(data: bytes):
    """``/dev/fd/<n>`` of the read end of a pipe that holds ``data`` (less
    than a pipe's buffer), as a shell's ``<(cat file)`` gives it."""
    r, w = os.pipe()
    try:
        os.write(w, data)
    finally:
        os.close(w)
    try:
        yield f"/dev/fd/{r}"
    finally:
        os.close(r)
