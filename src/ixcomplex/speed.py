"""Interaction-speed models and IS/time conversion.

An interaction speed is measured in interaction steps per second (IS/sec).
The built-in models carry the bundled reference measurements from a
movie-ticket booking task: the pooled model has a mean of 1.05 IS/sec with
observed extremes 0.18 and 8.15; the per-version models carry means only
(1.20 and 0.66), so range estimates with them are refused rather than
invented.

A group's mean speed is defined as is_count / mean_s, not as the mean of
per-sample speeds; this is the definition that keeps the table identity
mean_is_per_s * mean_s = is_count exact.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Sequence

from .errors import DomainError
from .value import Value


class SpeedModel(Value):
    __slots__ = ("name", "mean", "min", "max", "source")
    name: str
    mean: float
    min: float | None
    max: float | None
    source: str

    def __init__(
        self,
        name: str,
        mean: float,
        min: float | None = None,
        max: float | None = None,
        source: str = "",
    ):
        for what, value in (("mean", mean), ("min", min), ("max", max)):
            if value is not None and not math.isfinite(value):
                raise DomainError(f"{what} speed must be finite, got {value}")
        if mean <= 0:
            raise DomainError(f"mean speed must be positive, got {mean}")
        if min is not None and not 0 < min <= mean:
            raise DomainError(f"min speed must satisfy 0 < min <= mean, got {min}")
        if max is not None and max < mean:
            raise DomainError(f"max speed must be >= mean, got {max}")
        self._store(name, mean, min, max, source)


BUILTIN_SPEED_MODELS: dict[str, SpeedModel] = {
    "overall": SpeedModel(
        "overall", 1.05, 0.18, 8.15, "all booking tasks pooled, n=912"
    ),
    "v1": SpeedModel("v1", 1.20, source="wizard version, all attempts pooled"),
    "v2": SpeedModel("v2", 0.66, source="single-page version, n=260"),
}


def json_number(value: object, what: str) -> float:
    """A number read from a JSON file, as a float; bools are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{what} is too large") from None


def speed_model_from_dict(data: object) -> SpeedModel:
    """Build a model from a JSON speed file: an object with a numeric "mean",
    optional numeric "min" and "max", and optional string "name" and
    "source"."""
    if not isinstance(data, Mapping) or data.get("mean") is None:
        raise DomainError("speed model must be a JSON object with a 'mean'")
    limits = {
        key: json_number(data[key], f"speed {key!r}")
        for key in ("mean", "min", "max")
        if data.get(key) is not None
    }
    name, source = data.get("name", "custom"), data.get("source", "")
    for key, value in (("name", name), ("source", source)):
        if not isinstance(value, str):
            raise DomainError(f"speed model {key!r} must be a string, got {value!r}")
    return SpeedModel(name=name, source=source, **limits)


def get_speed_model(name: str) -> SpeedModel:
    model = BUILTIN_SPEED_MODELS.get(name)
    if model is None:
        raise DomainError(
            f"unknown speed model {name!r}; built-ins: {sorted(BUILTIN_SPEED_MODELS)}"
        )
    return model


class TimeEstimate(Value):
    """Expected/fastest/slowest seconds; the range is None for mean-only
    models rather than a fabricated value.  Every time present is finite."""

    __slots__ = ("expected", "fastest", "slowest")
    expected: float
    fastest: float | None
    slowest: float | None

    def __init__(self, expected: float, fastest: float | None, slowest: float | None):
        for name, value in zip(self._fields, (expected, fastest, slowest)):
            if value is not None and not math.isfinite(value):
                raise DomainError(f"{name} time must be finite, got {value}")
        self._store(expected, fastest, slowest)


def estimate_time(is_count: int, model: SpeedModel) -> TimeEstimate:
    """Translate an IS count into seconds by dividing by model speeds.

    A time that overflows to infinity, as with a subnormal speed, raises
    DomainError."""
    if is_count < 0:
        raise DomainError(f"IS count cannot be negative, got {is_count}")
    return TimeEstimate(
        expected=is_count / model.mean,
        fastest=is_count / model.max if model.max is not None else None,
        slowest=is_count / model.min if model.min is not None else None,
    )


class SpeedStats(NamedTuple):
    """One row of a speed table: a group's sample count and IS count, its
    durations in seconds and the speeds they give in IS/sec.  The fields
    are in logs.TABLE_COLUMNS order, which the renderers rely on."""

    group: str
    n: int
    is_count: int
    min_s: float
    max_s: float
    mean_s: float
    max_is_per_s: float
    min_is_per_s: float
    mean_is_per_s: float


def speed_stats(samples: Sequence[tuple[int, float]], group: str = "") -> SpeedStats:
    """The table row of one task or step group, named group: its duration
    statistics and derived speeds.

    All samples must share one IS count and have positive durations; the
    fastest duration gives the max speed and vice versa.
    """
    if not samples:
        raise DomainError("cannot compute speeds from an empty sample list")
    counts = {is_count for is_count, _ in samples}
    if len(counts) > 1:
        raise DomainError(f"samples mix IS counts: {sorted(counts)}")
    is_count = counts.pop()
    if is_count < 0:
        raise DomainError(f"IS count cannot be negative, got {is_count}")
    durations = [duration for _, duration in samples]
    if min(durations) <= 0:
        raise DomainError("durations must be positive")
    return _speed_row(group, is_count, durations)


def _speed_row(group: str, is_count: int, durations: Sequence[float]) -> SpeedStats:
    """The row of a group whose samples share is_count and have these
    durations, already checked: at least one, each positive."""
    mean_s = sum(durations) / len(durations)
    min_s = min(durations)
    max_s = max(durations)
    return SpeedStats(
        group, len(durations), is_count, min_s, max_s, mean_s,
        is_count / min_s, is_count / max_s, is_count / mean_s,
    )


def aggregate_speed(rows: Sequence[tuple[int, float]]) -> float:
    """Sample-count-weighted mean of per-row mean speeds."""
    if not rows:
        raise DomainError("cannot aggregate an empty row list")
    total_n = 0
    weighted = 0.0
    for n, mean_speed in rows:
        if n <= 0:
            raise DomainError(f"row sample count must be positive, got {n}")
        total_n += n
        weighted += n * mean_speed
    return weighted / total_n
