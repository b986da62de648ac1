"""Closed-form average peak age of information of threshold policies.

For a fixed threshold ``theta`` the average PAoI splits into the expected
service time of a received update,

    E[Xr] = M(theta) / F(theta),    M(theta) = int_0^theta x dF(x),

and the expected spacing between consecutive receptions,

    E[Y] = E[Xr] + theta * P(X > theta) / F(theta)
         = (theta * P(X > theta) + M(theta)) / F(theta),

with ``zeta = E[Xr] + E[Y] = c(theta) / F(theta)``, where
``c(theta) = 2 M(theta) + theta P(X > theta)`` is the per-attempt cost of
the optimizer's Bellman operator.  Only ``F``, ``P(X > theta)`` and ``M``
enter, each once, and no term cancels.  Division by ``F(theta) = 0``
yields ``inf`` (a threshold below the support never delivers), never an
error, so the minimum over policy candidates stays total.  ``theta = inf``
never preempts (the zero-wait policy): every attempt is received, and the
value is ``2 E[X]`` straight from the mean, where the formula would
multiply ``inf * 0``.

The process regenerates at every reception, so a deterministic threshold
sequence whose last entry repeats is exact too: a finite sum over the
attempts before the last entry plus the fixed-threshold value of that
entry, weighted by the probability of reaching it (:func:`paoi_repetitive`).
Every deterministic policy is such a sequence (:func:`paoi_policy`).

A single threshold reads ``F``, ``P(X > theta)`` and ``M`` from one call
of :meth:`~paoi_lab.distributions.ServiceDistribution.primitives`.  Every
grid of thresholds (the optimizer's search and cross-check, the sweep, the
figure curves) is read in one pass by :func:`paoi_thresholds`, which takes
the three for the whole grid from one call of
:meth:`~paoi_lab.distributions.ServiceDistribution.grid_primitives`.  Both
run the law's one formula, so the grid and a single value agree bit for
bit.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .distributions import ServiceDistribution
from .errors import ConfigError
from .policies import Policy, RepetitiveSequence, resolve

__all__ = [
    "PaoiValue",
    "PaoiGrid",
    "paoi_fixed_threshold",
    "paoi_thresholds",
    "paoi_zero_wait",
    "paoi_xmin",
    "paoi_repetitive",
    "paoi_policy",
]


@dataclass(frozen=True)
class PaoiValue:
    """Average PAoI with its two-component decomposition.

    ``zeta = received_service + interreception`` whenever both are finite.
    """

    zeta: float
    received_service: float
    interreception: float


# Arrays over a threshold grid: the three values, each ``inf`` where ``cdf``
# is 0, and the primitives they came from (``m`` is the truncated first moment).
PaoiGrid = namedtuple("PaoiGrid", "zeta received_service interreception cdf sf m")


def _paoi(theta, f, sf, m):
    """``(zeta, E[Xr], E[Y])`` from ``F > 0``, ``P(X > theta)`` and ``M``."""
    ex = m / f
    ey = (theta * sf + m) / f
    return ex + ey, ex, ey


def paoi_fixed_threshold(d: ServiceDistribution, theta: float) -> PaoiValue:
    if theta == math.inf:  # never preempt: each attempt is received
        m = d.mean()
        return PaoiValue(zeta=2.0 * m, received_service=m, interreception=m)
    f, sf, m = d.primitives(theta)
    if f <= 0.0:
        return PaoiValue(math.inf, math.inf, math.inf)
    return PaoiValue(*_paoi(theta, f, sf, m))


def paoi_thresholds(d: ServiceDistribution, thetas) -> PaoiGrid:
    """:func:`paoi_fixed_threshold` at every threshold of ``thetas``, bit
    for bit, from one call of ``d.grid_primitives``.

    An infinite threshold never preempts and reads the zero-wait row
    ``(2 E[X], E[X], E[X])``, where the formula would multiply ``inf * 0``.
    """
    thetas = np.asarray(thetas, dtype=float)
    f, sf, m = d.grid_primitives(thetas)
    values = np.full((3, thetas.size), math.inf)
    never = thetas == math.inf
    delivers = (f > 0.0) & ~never
    with np.errstate(over="ignore"):  # a subnormal F overflows the quotients to inf
        values[:, delivers] = _paoi(thetas[delivers], f[delivers], sf[delivers], m[delivers])
    mean = d.mean()  # as paoi_fixed_threshold(d, inf)
    values[0, never], values[1:, never] = 2.0 * mean, mean
    return PaoiGrid(*values, f, sf, m)


def paoi_zero_wait(d: ServiceDistribution) -> float:
    """Average PAoI of the never-preempting policy: ``2 E[X]``."""
    return paoi_fixed_threshold(d, math.inf).zeta


def paoi_xmin(d: ServiceDistribution) -> float:
    """Average PAoI of re-requesting every ``support_min`` time units.

    Finite only when the distribution has an atom at its support minimum;
    otherwise no update ever completes and the value is ``inf``.  The limit
    of ``zeta(s_theta)`` as ``theta`` falls to ``support_min`` is a
    different quantity and is reported by the optimizer's window endpoint,
    not here.
    """
    return paoi_fixed_threshold(d, d.support_min()).zeta


def paoi_repetitive(d: ServiceDistribution, seq: RepetitiveSequence) -> PaoiValue:
    """Exact PAoI of a threshold sequence restarted after every reception.

    With ``S_1 = 1`` and ``S_{j+1} = S_j P(X > theta_j)`` the probability of
    reaching attempt ``j``, the first ``n - 1`` attempts contribute
    ``S_j M(theta_j)`` to ``E[Xr]`` and ``S_j E[min(X, theta_j)]`` to
    ``E[Y]``; from attempt ``n`` on the last threshold repeats, which is
    the fixed-threshold policy weighted by ``S_n``.  The value is ``inf``
    when that tail is reached and cannot deliver (``F(theta_n) = 0``).
    """
    return _paoi_sequence(d, seq.thresholds)


def _paoi_sequence(d: ServiceDistribution, thresholds: tuple[float, ...]) -> PaoiValue:
    ex = ey = 0.0
    reach = 1.0  # probability that every attempt so far was preempted
    for theta in thresholds[:-1]:
        _, sf, m = d.primitives(theta)
        ex += reach * m
        ey += reach * (m + theta * sf)
        reach *= sf
    if reach > 0.0:  # skipped when never reached, so 0 * inf cannot appear
        tail = paoi_fixed_threshold(d, thresholds[-1])
        ex += reach * tail.received_service
        ey += reach * tail.interreception
    return PaoiValue(zeta=ex + ey, received_service=ex, interreception=ey)


def paoi_policy(d: ServiceDistribution, policy: Policy) -> PaoiValue:
    """Closed-form PAoI of every deterministic policy, read as the threshold
    sequence it resolves to under ``d``; a randomized policy, which has
    none, raises :class:`ConfigError`."""
    thresholds = resolve(policy, d)
    if thresholds is None:
        raise ConfigError(f"policy {policy.label()}: randomized-threshold policies have "
                          "no closed form; simulate instead")
    return _paoi_sequence(d, thresholds)
