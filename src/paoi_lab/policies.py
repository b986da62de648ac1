"""Request-policy taxonomy.

Every policy is work-conserving: a new request is issued the instant an
update is received, and the wait until the next event is
``min(threshold, service)``.  ``ZeroWait`` is the non-preemptive member
(threshold infinity); ``XMinThreshold`` re-requests every ``support_min``
time units; ``MedianThreshold`` is sugar for a fixed threshold at the
service-time median.

Every deterministic policy is a threshold sequence under a given law, and
:func:`resolve` is the one mapping from a policy to those thresholds: the
closed forms and the simulator both read a policy through it.  Only
``RandomizedThreshold`` has no sequence; it draws a threshold per request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .distributions import ServiceDistribution, weighted_pick
from .errors import ConfigError

__all__ = [
    "FixedThreshold",
    "ZeroWait",
    "XMinThreshold",
    "MedianThreshold",
    "RepetitiveSequence",
    "RandomizedThreshold",
    "Policy",
    "ThresholdSampler",
    "PointSampler",
    "UniformSampler",
    "ChoiceSampler",
    "TriangularSampler",
    "resolve",
]


@dataclass(frozen=True)
class FixedThreshold:
    theta: float

    def __post_init__(self):
        if not self.theta >= 0:  # also rejects nan; +inf is zero-wait
            raise ValueError(f"threshold must be nonnegative, got {self.theta!r}")

    def label(self) -> str:
        return f"fixed({self.theta:g})"


@dataclass(frozen=True)
class ZeroWait:
    def label(self) -> str:
        return "zero-wait"


@dataclass(frozen=True)
class XMinThreshold:
    def label(self) -> str:
        return "xmin-threshold"


@dataclass(frozen=True)
class MedianThreshold:
    def label(self) -> str:
        return "median-threshold"


@dataclass(frozen=True)
class RepetitiveSequence:
    """Deterministic threshold sequence, restarted after every reception.

    The last entry repeats forever once the sequence is exhausted.
    """

    thresholds: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "thresholds", tuple(float(t) for t in self.thresholds))
        if not self.thresholds:
            raise ValueError("threshold sequence must be nonempty")
        if any(not math.isfinite(t) or t < 0 for t in self.thresholds):
            raise ValueError("thresholds must be finite and nonnegative")

    def threshold_for_attempt(self, r: int) -> float:
        """Threshold used by the r-th request (1-based) since the last reception."""
        return self.thresholds[min(r, len(self.thresholds)) - 1]

    def label(self) -> str:
        return "repetitive[" + ",".join(f"{t:g}" for t in self.thresholds) + "]"


class ThresholdSampler:
    """Base for i.i.d. per-request threshold samplers.

    ``draw_batch(rng, n)`` returns the same ``n`` thresholds, bit for bit,
    as ``n`` successive ``draw(rng)`` calls on the same generator.
    """

    def draw_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def draw(self, rng: np.random.Generator) -> float:
        return float(self.draw_batch(rng, 1)[0])

    def supremum(self) -> float:
        """Least upper bound of the thresholds this sampler draws."""
        raise NotImplementedError

    def label(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class PointSampler(ThresholdSampler):
    value: float

    def __post_init__(self):
        if not self.value >= 0:
            raise ValueError(f"threshold must be nonnegative, got {self.value!r}")

    def draw_batch(self, rng, n):
        return np.full(n, self.value, dtype=float)

    def supremum(self):
        return self.value

    def label(self):
        return f"point({self.value:g})"


@dataclass(frozen=True)
class UniformSampler(ThresholdSampler):
    low: float
    high: float

    def __post_init__(self):
        if not 0 <= self.low < self.high < math.inf:
            raise ValueError("need 0 <= low < high < inf")

    def draw_batch(self, rng, n):
        return rng.uniform(self.low, self.high, n)

    def supremum(self):
        return self.high

    def label(self):
        return f"uniform({self.low:g},{self.high:g})"


@dataclass(frozen=True)
class ChoiceSampler(ThresholdSampler):
    values: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.values) != len(self.weights) or not self.values:
            raise ValueError("values and weights must be nonempty and equal length")
        if not all(0 <= w < math.inf for w in self.weights):
            raise ValueError(f"weights must be nonnegative and finite, got {self.weights!r}")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        if not all(v >= 0 for v in self.values):
            raise ValueError(f"thresholds must be nonnegative, got {self.values!r}")

    def draw_batch(self, rng, n):
        return np.asarray(self.values)[weighted_pick(self.weights, rng.random(n))]

    def supremum(self):
        return max(v for v, w in zip(self.values, self.weights) if w > 0)

    def label(self):
        return "choice[" + ",".join(f"{v:g}" for v in self.values) + "]"


@dataclass(frozen=True)
class TriangularSampler(ThresholdSampler):
    low: float
    mode: float
    high: float

    def __post_init__(self):
        if not 0 <= self.low <= self.mode <= self.high < math.inf or self.low == self.high:
            raise ValueError("need 0 <= low <= mode <= high < inf with low < high")

    def draw_batch(self, rng, n):
        return rng.triangular(self.low, self.mode, self.high, n)

    def supremum(self):
        return self.high

    def label(self):
        return f"triangular({self.low:g},{self.mode:g},{self.high:g})"


@dataclass(frozen=True)
class RandomizedThreshold:
    """Draws a fresh threshold for every request, i.i.d. from ``sampler``."""

    sampler: ThresholdSampler

    def label(self) -> str:
        return f"randomized[{self.sampler.label()}]"


Policy = Union[
    FixedThreshold,
    ZeroWait,
    XMinThreshold,
    MedianThreshold,
    RepetitiveSequence,
    RandomizedThreshold,
]


def resolve(policy: Policy, d: ServiceDistribution) -> Optional[tuple[float, ...]]:
    """The thresholds ``policy`` uses under ``d``, one per request since the
    last reception, the last repeating forever; ``None`` for a randomized
    policy, whose thresholds are drawn per request.  Raises
    :class:`ConfigError` where the median lies past the largest float."""
    if isinstance(policy, FixedThreshold):
        return (policy.theta,)
    if isinstance(policy, ZeroWait):
        return (math.inf,)
    if isinstance(policy, XMinThreshold):
        return (d.support_min(),)
    if isinstance(policy, MedianThreshold):
        median = d.quantile(0.5)
        if median == math.inf:
            raise ConfigError(f"policy {policy.label()}: its threshold under {d} overflows a float")
        return (median,)
    if isinstance(policy, RepetitiveSequence):
        return policy.thresholds
    if isinstance(policy, RandomizedThreshold):
        return None
    raise TypeError(f"unknown policy {policy!r}")
