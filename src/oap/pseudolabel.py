"""Dual-threshold pseudo-labeling and sliding-window majority smoothing.

A frame is pseudo-labeled only when the model is confident: spoof above
``1 - margin``, live below ``margin``, everything in between discarded.
Stored labels are then smoothed by a hard majority vote over a centered
window of the entries actually present in the buffer: discarded and
evicted frames leave holes and simply do not vote, so the denominator is
the number of stored entries in the window, not the nominal window width.
Smoothing always recomputes from the raw stored labels, never from its own
prior output, so repeated passes cannot drift.
"""

from __future__ import annotations

import numpy as np

from .config import FRAME_INDEX_MAX, FRAME_INDEX_MIN, WINDOW_RULE, PseudoLabel, check_value
from .errors import DataError

# The labels as module constants: a member read off its class costs about
# ten module-global reads, more than the rest of ``assign_pseudo_label``.
_SPOOF, _LIVE, _DISCARD = PseudoLabel.SPOOF, PseudoLabel.LIVE, PseudoLabel.DISCARD


def assign_pseudo_label(y: float, margin: float) -> PseudoLabel:
    """Three-way confidence rule.

    Spoof if y > 1 - margin, live if y < margin, discard otherwise.
    At margin = 0.5 the band is empty and the rule degenerates to the
    single-threshold form "spoof iff y strictly exceeds 0.5", so an exact
    tie at 0.5 resolves to live.
    """
    if y > 1.0 - margin:
        return _SPOOF
    if y < margin:
        return _LIVE
    if margin == 0.5:
        return _LIVE
    return _DISCARD


def smooth_labels(frame_indices, labels, window: int) -> np.ndarray:
    """Majority-vote each stored label over the window
    [t - window/2, t + window/2] of stored neighbours.

    ``frame_indices`` must strictly increase, each kept by ``check_frame``'s
    index rule; ``labels`` are the raw 0/1 stored labels; a ``window``
    outside ``WINDOW_RULE`` is a ConfigError in the ledger's words, before
    any work. Returns ``_vote``'s smoothed 0/1 labels: spoof (1) iff the
    mean of stored labels in the window strictly exceeds 0.5, so an exact
    tie resolves to live. Windows truncate at the buffer edges; entries
    missing from storage contribute nothing to either side of the mean.
    """
    check_value("window", window, int, WINDOW_RULE)
    idx = np.asarray(frame_indices)
    if idx.dtype.kind != "i":  # each index as given: a cast would wrap, truncate or overflow
        from .memory import check_frame  # memory imports this module
        for index in np.asarray(frame_indices, dtype=object).ravel().tolist():
            check_frame(index, 0.0, None)
    idx = idx.astype(np.int64, copy=False)
    lab = np.asarray(labels, dtype=np.int64)
    if idx.shape != lab.shape:
        raise DataError("frame_indices and labels disagree in length")
    if np.count_nonzero(idx[1:] <= idx[:-1]):
        raise DataError("frame indices must be strictly increasing")
    return _vote(idx, lab, window)


def _vote(idx: np.ndarray, lab: np.ndarray, window: int) -> np.ndarray:
    """``smooth_labels`` on int64 ``idx`` and ``lab`` that passed its checks."""
    # On integers |j - i| <= window / 2 iff |j - i| <= window // 2, a Python
    # int (a numpy unsigned one makes float keys) that WINDOW_RULE keeps in
    # int64. The bounds saturate in int64, which only a buffer near an end needs.
    half = int(window) // 2
    if idx.size and (idx.item(0) - FRAME_INDEX_MIN < half or FRAME_INDEX_MAX - idx.item(-1) < half):
        lo_keys = np.maximum(idx, FRAME_INDEX_MIN + half) - half
        hi_keys = np.minimum(idx, FRAME_INDEX_MAX - half) + half
    else:
        lo_keys, hi_keys = idx - half, idx + half
    lo = idx.searchsorted(lo_keys, side="left")
    hi = idx.searchsorted(hi_keys, side="right")
    csum = np.empty(idx.size + 1, dtype=np.int64)
    csum[0] = 0
    lab.cumsum(out=csum[1:])
    # s spoof votes among c entries: s / c > 0.5 exactly when 2s > c, and
    # the integer form needs no division.
    return (2 * (csum[hi] - csum[lo]) > hi - lo).astype(np.int64)
