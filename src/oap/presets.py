"""Canonical desk-scale experiment setups.

These are the configurations the demos, the CLI defaults, and the
acceptance suite all share: a pre-trained head plus replay store built
from the default synthetic generator, and the three standard stream
layouts (single-video pair, forgetting probe, continual interleaving).

One knob deviates from the hyper-parameter ledger's defaults: the online
learning rate. The ledger default (1e-6) is sized for feature spaces in
the thousands of dimensions, where each Adam step nudges thousands of
coordinates at once; at the generator's desk scale (d = 32, unit noise)
the same per-coordinate step moves the decision logits too little to
matter within a 30-second video, so the desk presets use 1.5e-5. Raising
it much further destabilizes the continual regime (wrong-signed updates
right after live/spoof switches get amplified), so this value is a
measured balance, not a free parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ClassLabel, HyperParams
from .head import ClassifierHead, PretrainSchedule, forward_batch, init_head, pretrain
from .memory import ReplayStore, subsample_pretraining
from .rng import seeded_rng
from .simstream import GeneratorConfig, Segment, StreamScenario

DESK_LEARNING_RATE = 1.5e-5
DESK_N_USERS = 20
DESK_FRAMES_PER_USER = 500
ACCEPTANCE_SEEDS = (0, 1, 2)


def desk_params(seed: int = 0, **overrides) -> HyperParams:
    """Default ledger with the desk-scale online learning rate."""
    overrides.setdefault("learning_rate", DESK_LEARNING_RATE)
    return HyperParams(seed=seed, **overrides)


@dataclass
class DeskArtifacts:
    """Everything a desk run needs: generator, pre-trained head, replay
    store, and the achieved training accuracy (sanity anchor)."""

    generator: GeneratorConfig
    head: ClassifierHead
    replay: ReplayStore
    train_accuracy: float


def build_artifacts(
    seed: int,
    d: int = 32,
    n_users: int = DESK_N_USERS,
    frames_per_user: int = DESK_FRAMES_PER_USER,
    replay_size: int = 1000,
    schedule: PretrainSchedule | None = None,
) -> DeskArtifacts:
    """Generate the synthetic pre-training set and ``fit_head`` on it.
    Fully deterministic under ``seed``."""
    # Imported at call time, so a wrapper patched onto oap.simstream is the one called.
    from .simstream import generate_pretraining_set

    generator = GeneratorConfig(d=d, seed=seed)
    feats, labels = generate_pretraining_set(generator, n_users, frames_per_user)
    return DeskArtifacts(generator, *fit_head(feats, labels, seed, replay_size, schedule))


def fit_head(
    feats, labels, seed: int, replay_size: int, schedule: PretrainSchedule | None = None
) -> tuple[ClassifierHead, ReplayStore, float]:
    """A fresh head trained on the labeled (n, d) ``feats``, the replay
    store carved from them and the head's accuracy on them, all from ``seed``."""
    head = init_head(feats.shape[1], seeded_rng(seed, "init"))
    pretrain(head, feats, labels, schedule or PretrainSchedule(), seeded_rng(seed, "pretrain"))
    accuracy = float(np.mean((forward_batch(head, feats) > 0.5).astype(np.int64) == labels))
    return head, carve_replay(feats, labels, replay_size, seed), accuracy


def carve_replay(feats, labels, replay_size: int, seed: int) -> ReplayStore:
    """``replay_size`` rows of the pre-training set, drawn under ``seed``."""
    return subsample_pretraining(feats, labels, replay_size, seeded_rng(seed, "replay"))


def single_video_scenarios(
    user_id: int = 0, frames: int = 900, frame_rate: float = 30.0
) -> tuple[StreamScenario, StreamScenario]:
    """The standard single-video evaluation pair: one live and one spoof
    video of the same held-out user, each processed by a fresh engine."""
    live = StreamScenario((Segment(ClassLabel.LIVE, frames),), frame_rate, user_id)
    spoof = StreamScenario((Segment(ClassLabel.SPOOF, frames),), frame_rate, user_id)
    return live, spoof


def forgetting_scenario(
    user_id: int = 0,
    live_frames: int = 1200,
    spoof_frames: int = 600,
    frame_rate: float = 30.0,
) -> StreamScenario:
    """Long live prefix followed by a spoof attack: the probe that exposes
    catastrophic forgetting when replay is disabled (online_prob = 1)."""
    return StreamScenario(
        (
            Segment(ClassLabel.LIVE, live_frames),
            Segment(ClassLabel.SPOOF, spoof_frames),
        ),
        frame_rate,
        user_id,
    )


def continual_scenario(
    user_id: int = 0,
    segment_frames: int = 900,
    n_pairs: int = 2,
    frame_rate: float = 30.0,
) -> StreamScenario:
    """Full-length live and spoof videos interleaved, with distinct spoof
    sources per attack, as one uninterrupted stream."""
    segments = []
    for i in range(n_pairs):
        segments.append(Segment(ClassLabel.LIVE, segment_frames, i))
        segments.append(Segment(ClassLabel.SPOOF, segment_frames, i))
    return StreamScenario(tuple(segments), frame_rate, user_id)
