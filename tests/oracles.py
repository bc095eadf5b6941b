"""Oracles and helpers that several test modules share: independent
reference computations and the source scan behind the one-module-wording
tests. Not a test module; import what is needed from it."""

import ast
from pathlib import Path

import numpy as np

import oap
from oap.engine import TraceRecord
from oap.errors import DataError, NumericalError
from oap.head import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, HIDDEN_UNITS, ClassifierHead, forward
from oap.head import loss_and_grad
from oap.rng import seeded_rng


def random_head(d, seed, scale=0.3):
    """Small random head (biases included) for gradient checks."""
    rng = np.random.default_rng(seed)
    return ClassifierHead(
        w1=rng.normal(0, scale / np.sqrt(d), size=(d, HIDDEN_UNITS)),
        b1=rng.normal(0, 0.05, size=HIDDEN_UNITS),
        w2=rng.normal(0, scale / np.sqrt(HIDDEN_UNITS), size=HIDDEN_UNITS),
        b2=rng.normal(0, 0.05, size=1),
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

    online_feats = online.features_matrix()
    online_labels = online.working_labels
    online_buckets = [np.flatnonzero(online_labels == c) for c in (0, 1)]
    online_present = [b for b in online_buckets if len(b)]
    replay_buckets = [np.flatnonzero(replay.labels == c) for c in (0, 1)]
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
            feats[i] = replay.features[j]
            labels[i] = replay.labels[j]
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


class RowBuffer(list):
    """The online buffer as a list of (feature, raw label, frame index,
    time) rows and the working labels of its last re-smooth, read as the
    per-slot sampler reads a buffer."""

    working_labels = np.zeros(0, dtype=np.int64)

    def features_matrix(self):
        return np.array([row[0] for row in self]) if self else np.zeros((0, 0))


class ReferenceEngine:
    """The adaptation loop written plainly: the oracle that ``Engine``
    matches record for record, bit for bit. Each frame is scored, labeled
    by the dual threshold, stored unless discarded, and ages out past the
    horizon; the accumulator fires at most one event. An event re-smooths
    the whole buffer by recount, then runs its iterations on the per-slot
    sampler, the checked ``loss_and_grad`` and a fresh-array Adam. A
    rejected update restores the head and the moments as they were before
    the event, and the event counts no cost."""

    def __init__(self, head, replay, params):
        self.head, self.replay, self.params = head.copy(), replay, params
        self.m, self.v, self.step_count = np.zeros_like(head.flat), np.zeros_like(head.flat), 0
        self.online = RowBuffer()
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
            self.online.append((np.array(feature, dtype=np.float64), pseudo, frame_index, time))
        cutoff = p.eviction_horizon - p.eviction_horizon * 1e-12
        self.online[:] = [row for row in self.online if time - row[3] < cutoff]
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
        online.working_labels = brute_force_smooth(
            [row[2] for row in online], [row[1] for row in online], p.window)
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
