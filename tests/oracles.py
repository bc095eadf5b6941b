"""Oracles and helpers that several test modules share: independent
reference computations and the source scan behind the one-module-wording
tests. Not a test module; import what is needed from it."""

import ast
from pathlib import Path

import numpy as np

import oap
from oap.head import HIDDEN_UNITS, ClassifierHead


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
    """Naive windowed majority recount: for each stored entry, average the
    stored 0/1 labels with frame index in [t - W/2, t + W/2]; spoof iff
    strictly above one half. One explicit membership test per entry, no
    shared prefix sums with the production path."""
    idx = np.asarray(frame_indices, dtype=float)
    lab = np.asarray(labels, dtype=float)
    out = []
    half = window / 2.0
    for t in idx:
        in_window = (idx >= t - half) & (idx <= t + half)
        out.append(1 if lab[in_window].mean() > 0.5 else 0)
    return np.array(out)


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
