"""Run-level value types: class labels, pseudo-labels, and the
hyper-parameter ledger; the flat-file syntax and the one reader that types
its values by any config dataclass's fields.

Each config dataclass checks the kinds and ranges of its fields when built
(``check_ranges`` in ``__post_init__``), so no invalid config can exist.
All types here are plain values, safe to copy and share between threads.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import typing
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from .errors import ConfigError, OapError

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


# Frame indices are int64 values.
FRAME_INDEX_MIN, FRAME_INDEX_MAX = -(2**63), 2**63 - 1

# A rule is a (test, want) pair. An int field takes Python and numpy
# integers, a float field those and floats, and neither takes a bool.
_INTS, _REALS = (int, np.integer), (int, float, np.integer, np.floating)
KIND_RULES = {
    int: (lambda v: isinstance(v, _INTS) and v.__class__ is not bool, "an integer"),
    float: (lambda v: isinstance(v, _REALS) and v.__class__ is not bool, "a real number"),
    str: (lambda v: isinstance(v, str), "a string"),
}
SEED_RULE = (lambda v: 0 <= v < 2**64, "a 64-bit unsigned integer")
FRAME_RATE_RULE = (lambda v: math.isfinite(v) and v > 0.0, "a finite frame_rate > 0")
# The online buffer's window (half of it is added to int64 frame indices) and horizon.
WINDOW_RULE = (lambda v: 1 <= v < 2**64, "1 <= window < 2**64")
HORIZON_RULE = (lambda v: math.isfinite(v) and v > 0.0, "a finite eviction_horizon > 0")


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

    def __post_init__(self) -> None:
        check_ranges(self, _RANGE_CHECKS)

    def replace(self, **changes) -> "HyperParams":
        return dataclasses.replace(self, **changes)


_RANGE_CHECKS = (
    ("margin", lambda v: 0.0 < v <= 0.5, "0 < margin <= 0.5"),
    ("window", *WINDOW_RULE),
    ("eviction_horizon", *HORIZON_RULE),
    ("frame_rate", *FRAME_RATE_RULE),
    ("finetune_freq", lambda v: 0.0 < v <= 1.0, "0 < finetune_freq <= 1"),
    # An event runs all its iterations before the next frame is scored: 1024
    # at the desk batch take about 70 ms on a 2-vCPU Xeon, two frames at 30 fps.
    ("iterations_per_call", lambda v: 1 <= v <= 1024, "1 <= iterations_per_call <= 1024"),
    ("online_prob", lambda v: 0.0 <= v <= 1.0, "0 <= online_prob <= 1"),
    # An event draws its batch into (batch_size, d) float64 rows: 65536 rows is 16 MiB at d = 32.
    ("batch_size", lambda v: 1 <= v <= 65536, "1 <= batch_size <= 65536"),
    ("learning_rate", lambda v: math.isfinite(v) and v > 0.0, "a finite learning_rate > 0"),
    ("weight_decay", lambda v: math.isfinite(v) and v >= 0.0, "a finite weight_decay >= 0"),
    # The sampler's row int(u * n), u < 1 a float64, can round up to n above 2**53 rows.
    ("replay_size", lambda v: 0 <= v <= 2**53, "0 <= replay_size <= 2**53"),
    ("eval_threshold", lambda v: 0.0 < v < 1.0, "0 < eval_threshold < 1"),
    ("seed", *SEED_RULE),
)


# A dataclass's field annotations, read once per class: a read takes about 0.2 ms.
_field_types = functools.cache(typing.get_type_hints)


def check_value(key: str, value, *rules, error: type[OapError] = ConfigError) -> None:
    """A ConfigError (or ``error``) naming ``key`` unless ``value`` passes
    each rule in turn: a rule pair, or int, float or str for that kind's
    rule. An int too large for a float (``math.isfinite`` overflows) fails."""
    for rule in rules:
        test, want = KIND_RULES.get(rule, rule)
        try:
            ok = test(value)
        except OverflowError:
            ok = False
        if not ok:
            raise error(f"{key} out of range: {value!r} (want {want})")


def check_ranges(obj, checks, prefix: str = "") -> None:
    """Refuse the first int, float or str field of dataclass ``obj`` that
    is not of its annotated kind, then the first field that fails its
    check. ``checks`` holds ``(field, test, want)`` triples; ``prefix`` is
    the config-key prefix of ``obj``'s fields."""
    for name, kind in _field_types(type(obj)).items():
        if kind in KIND_RULES:
            check_value(prefix + name, getattr(obj, name), kind)
    for name, test, want in checks:
        check_value(prefix + name, getattr(obj, name), (test, want))


# ---------------------------------------------------------------------------
# Flat key = value config files
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def open_text(path: str | Path, error: type[OapError]):
    """The file at ``path``, open to read text. A file that does not open
    or read (a missing one, a directory, a pipe where a seek is needed), and
    bytes read in the block that do not decode, raise ``error`` naming the
    file and the reason: the OS's words, or the exception's when it has none."""
    try:
        with open(path) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not a text file ({exc.reason})") from exc
    except OSError as exc:
        raise error(f"{path}: cannot read ({exc.strerror or exc})") from exc


def parse_kv_file(path: str | Path) -> dict[str, str]:
    """Parse a flat config file: one ``key = value`` per line, ``#`` starts
    a comment, blank lines ignored. Returns raw string values. A file with
    no ``key = value`` line (an empty one, say) is a ConfigError."""
    with open_text(path, ConfigError) as fh:
        lines = fh.read().splitlines()
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        mapping[key.strip()] = value.strip()
    if not mapping:
        raise ConfigError(f"{path}: no 'key = value' line")
    return mapping


def from_mapping(base: T, mapping: dict[str, str], prefix: str = "") -> T:
    """Overlay ``mapping[prefix + name]`` onto the dataclass instance
    ``base`` for each of its int, float and str fields, converted by the
    field's annotation; a text that does not convert fails the kind rule,
    as a str. Other fields, and keys that name no field, are left for other
    readers of the same mapping."""
    changes = {}
    for name, kind in _field_types(type(base)).items():
        key = prefix + name
        if key in mapping and kind in KIND_RULES:
            try:
                changes[name] = kind(mapping[key])
            except ValueError:
                check_value(key, mapping[key], kind)
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
