"""Deterministic, tag-separated random streams.

Every stochastic component in the package draws from its own named
sub-stream of a single master seed. Identical (seed, tag) pairs reproduce
bit-identical sequences across runs and platforms; distinct tags give
statistically independent streams. This is what makes end-to-end runs
byte-reproducible from one integer.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .config import SEED_RULE, check_value


def seeded_rng(seed: int, stream_tag: str) -> np.random.Generator:
    """Return a PCG64 generator keyed by (seed, stream_tag).

    The tag is folded into the seed material by hashing, so any printable
    string can name a stream without colliding with integer seeds. A seed
    that is not an integer in [0, 2**64) is a ConfigError.
    """
    check_value("seed", seed, int, SEED_RULE)
    seed = int(seed)
    digest = hashlib.sha256(stream_tag.encode("utf-8")).digest()
    tag_words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([seed, *tag_words]))
