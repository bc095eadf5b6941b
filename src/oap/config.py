"""Run-level value types: class labels, pseudo-labels, and the
hyper-parameter ledger; the flat-file syntax and the one reader that types
its values by any config dataclass's fields.

Each config dataclass checks its own ranges when built (``check_ranges``
in ``__post_init__``), so no out-of-range config can exist. All types
here are plain values, safe to copy and share between threads.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

from .errors import ConfigError

T = typing.TypeVar("T")


class ClassLabel(IntEnum):
    """Ground-truth class of a frame. The numeric coding is fixed:
    live = 0, spoof = 1."""

    LIVE = 0
    SPOOF = 1


class PseudoLabel(IntEnum):
    """Self-assigned training label. DISCARD marks frames whose prediction
    falls inside the uncertainty band; they are never stored or trained on."""

    LIVE = 0
    SPOOF = 1
    DISCARD = -1


@dataclass(frozen=True)
class HyperParams:
    """The full hyper-parameter ledger of the adaptation engine.

    margin:
        Half-width of the confident region. Confident-spoof threshold is
        ``1 - margin`` and confident-live threshold is ``margin``, so the
        two thresholds sit symmetrically around 0.5 and never cross.
        ``margin = 0.5`` degenerates into single-threshold labeling with
        no discard band.
    window:
        Sliding-window length in frames for majority label smoothing.
    eviction_horizon:
        Online samples older than this many seconds are dropped.
    frame_rate:
        Nominal stream rate in frames/second, at which the online buffer
        holds at most ``ceil(eviction_horizon * frame_rate)`` entries (120
        at 30 fps with a 4 s horizon). Eviction reads the frames' times.
    finetune_freq:
        Expected fine-tune invocations per incoming frame, in (0, 1].
        Fractional values fire via an accumulator, e.g. 0.01 fires once
        every 100 frames.
    iterations_per_call:
        Gradient iterations per fine-tune invocation.
    online_prob:
        Probability that a batch slot draws from the online buffer rather
        than the replay store.
    batch_size:
        Mini-batch size for online fine-tuning.
    learning_rate:
        Adam step size for online fine-tuning.
    weight_decay:
        Decoupled weight decay used during online fine-tuning (0 disables;
        the pre-training schedule carries its own value).
    replay_size:
        Number of pre-training samples kept frozen for replay.
    eval_threshold:
        Fixed decision threshold: a frame is called spoof iff y strictly
        exceeds it.
    seed:
        Master seed; every stochastic component derives a tagged sub-stream
        from it.
    """

    margin: float = 0.01
    window: int = 30
    eviction_horizon: float = 4.0
    frame_rate: float = 30.0
    finetune_freq: float = 1.0
    iterations_per_call: int = 1
    online_prob: float = 0.9
    batch_size: int = 16
    learning_rate: float = 1e-6
    weight_decay: float = 0.0
    replay_size: int = 1000
    eval_threshold: float = 0.5
    seed: int = 0

    @property
    def accept_spoof_threshold(self) -> float:
        """Probability above which a frame is pseudo-labeled spoof."""
        return 1.0 - self.margin

    @property
    def accept_live_threshold(self) -> float:
        """Probability below which a frame is pseudo-labeled live."""
        return self.margin

    def __post_init__(self) -> None:
        check_ranges(self, _RANGE_CHECKS)

    def replace(self, **changes) -> "HyperParams":
        return dataclasses.replace(self, **changes)


_RANGE_CHECKS = (
    ("margin", lambda v: 0.0 < v <= 0.5, "0 < margin <= 0.5"),
    ("window", lambda v: v >= 1, "window >= 1"),
    ("eviction_horizon", lambda v: v > 0.0, "eviction_horizon > 0"),
    ("frame_rate", lambda v: v > 0.0, "frame_rate > 0"),
    ("finetune_freq", lambda v: 0.0 < v <= 1.0, "0 < finetune_freq <= 1"),
    ("iterations_per_call", lambda v: v >= 1, "iterations_per_call >= 1"),
    ("online_prob", lambda v: 0.0 <= v <= 1.0, "0 <= online_prob <= 1"),
    ("batch_size", lambda v: v >= 1, "batch_size >= 1"),
    ("learning_rate", lambda v: v > 0.0, "learning_rate > 0"),
    ("weight_decay", lambda v: v >= 0.0, "weight_decay >= 0"),
    ("replay_size", lambda v: v >= 0, "replay_size >= 0"),
    ("eval_threshold", lambda v: 0.0 < v < 1.0, "0 < eval_threshold < 1"),
    ("seed", lambda v: 0 <= v < 2**64, "a 64-bit unsigned integer"),
)


def check_ranges(obj, checks, prefix: str = "") -> None:
    """Raise ConfigError naming the first field of dataclass ``obj`` whose
    value fails its check. ``checks`` holds ``(field, test, want)``
    triples: ``test`` takes the field's value, ``want`` states the range.
    ``prefix`` is the config-key prefix of ``obj``'s fields."""
    for name, test, want in checks:
        value = getattr(obj, name)
        if not test(value):
            raise ConfigError(f"{prefix}{name} out of range: {value!r} (want {want})")


# ---------------------------------------------------------------------------
# Flat key = value config files
# ---------------------------------------------------------------------------


def parse_kv_file(path: str | Path) -> dict[str, str]:
    """Parse a flat config file: one ``key = value`` per line, ``#`` starts
    a comment, blank lines ignored. Returns raw string values."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def from_mapping(base: T, mapping: dict[str, str], prefix: str = "") -> T:
    """Overlay ``mapping[prefix + name]`` onto the dataclass instance
    ``base`` for each of its int, float and str fields, converted by the
    field's annotation. Other fields, and keys that name no field, are left
    for other readers of the same mapping."""
    hints = typing.get_type_hints(type(base))
    changes = {}
    for field in dataclasses.fields(base):
        key, kind = prefix + field.name, hints[field.name]
        if key in mapping and kind in (int, float, str):
            try:
                changes[field.name] = kind(mapping[key])
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {mapping[key]!r}") from exc
    return dataclasses.replace(base, **changes)


def apply_overrides(mapping: dict[str, str], overrides: list[str]) -> dict[str, str]:
    """Apply ``key=value`` override strings (CLI --set flags) on top of a
    raw config mapping."""
    merged = dict(mapping)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, value = item.split("=", 1)
        merged[key.strip()] = value.strip()
    return merged
