"""Closed-form and series evaluation of the average peak age of information.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import ServiceDistribution
from .errors import NoAnalyticForm, SeriesDiverged
from .policies import Policy, RepetitiveSequence, resolve

__all__ = [
    "PaoiValue",
    "expected_received_service",
    "expected_interreception",
    "paoi_fixed_threshold",
    "paoi_zero_wait",
    "paoi_xmin",
    "has_atom_at_support_min",
    "paoi_repetitive",
    "paoi_policy",
]

_MAX_SERIES_TERMS = 10_000_000


@dataclass(frozen=True)
class PaoiValue:
    """Average PAoI with its two-component decomposition.

    ``zeta = received_service + interreception`` whenever both are finite.
    ``truncation_bound`` is nonzero only for series-evaluated policies and
    certifies ``|zeta - exact| <= truncation_bound``.
    """

    zeta: float
    received_service: float
    interreception: float
    truncation_bound: float = 0.0


def expected_received_service(d: ServiceDistribution, theta: float) -> float:
    """Mean service time of the update that finally gets through."""
    return paoi_fixed_threshold(d, theta).received_service


def expected_interreception(d: ServiceDistribution, theta: float) -> float:
    """Mean time between consecutive receptions, preempted attempts included."""
    return paoi_fixed_threshold(d, theta).interreception


def paoi_fixed_threshold(d: ServiceDistribution, theta: float) -> PaoiValue:
    if theta == math.inf:  # never preempt: each attempt is received
        m = d.mean()
        return PaoiValue(zeta=2.0 * m, received_service=m, interreception=m)
    f = d.cdf(theta)
    if f <= 0.0:
        return PaoiValue(math.inf, math.inf, math.inf)
    m = d.truncated_first_moment(theta)
    ex = m / f
    ey = (theta * d.sf(theta) + m) / f
    return PaoiValue(zeta=ex + ey, received_service=ex, interreception=ey)


def paoi_zero_wait(d: ServiceDistribution) -> float:
    """Average PAoI of the never-preempting policy: ``2 E[X]``."""
    return paoi_fixed_threshold(d, math.inf).zeta


def has_atom_at_support_min(d: ServiceDistribution) -> bool:
    return d.cdf(d.support_min()) > 0.0


def paoi_xmin(d: ServiceDistribution) -> float:
    """Average PAoI of re-requesting every ``support_min`` time units.

    Finite only when the distribution has an atom at its support minimum;
    otherwise no update ever completes and the value is ``inf``.  The limit
    of ``zeta(s_theta)`` as ``theta`` falls to ``support_min`` is a
    different quantity and is reported by the optimizer's window endpoint,
    not here.
    """
    return paoi_fixed_threshold(d, d.support_min()).zeta


def paoi_repetitive(
    d: ServiceDistribution,
    seq: RepetitiveSequence,
    eps: float = 1e-10,
) -> PaoiValue:
    """Series evaluation for a repeated deterministic threshold sequence.

    The sequence restarts after every reception; past its last entry the
    final threshold repeats, which makes the series tail geometric.  Terms
    are accumulated until an explicit remainder bound (the surviving-prefix
    probability times a per-term cost that grows linearly with the term
    index) certifies a total error below ``eps``.

    Raises :class:`SeriesDiverged` when the surviving probability cannot
    contract, i.e. the repeated tail threshold sits below the support and
    some sample path never delivers an update.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    xmin = d.support_min()
    if any(t < xmin for t in seq.thresholds):
        raise ValueError("thresholds below the support minimum are never useful")

    thetas = seq.thresholds
    last = thetas[-1]
    q_tail = d.sf(last)
    m_tail = d.truncated_first_moment(last)

    ex = d.truncated_first_moment(thetas[0])
    extra = 0.0  # E[Y] - E[Xr]: threshold time burned by preemptions
    prefix = 1.0  # probability every attempt so far was preempted
    spent = 0.0  # sum of thresholds of those attempts
    bound = 0.0
    j = 0
    while True:
        j += 1
        if j > _MAX_SERIES_TERMS:
            raise RuntimeError(
                "series failed to certify the truncation bound within "
                f"{_MAX_SERIES_TERMS} terms (tail survival {q_tail})"
            )
        theta_j = seq.threshold_for_attempt(j)
        prefix *= d.sf(theta_j)
        spent += theta_j
        if prefix == 0.0:
            bound = 0.0
            break
        theta_next = seq.threshold_for_attempt(j + 1)
        ex += prefix * d.truncated_first_moment(theta_next)
        extra += prefix * d.cdf(theta_next) * spent
        if j >= len(thetas):  # geometric tail regime
            if q_tail >= 1.0:
                raise SeriesDiverged(
                    "every tail attempt is preempted with probability 1; "
                    "the policy never delivers"
                )
            rem_x = prefix * m_tail * q_tail / (1.0 - q_tail)
            rem_extra = prefix * q_tail * (spent + last / (1.0 - q_tail))
            bound = 2.0 * rem_x + rem_extra
            if bound < eps:
                break

    ey = ex + extra
    return PaoiValue(
        zeta=ex + ey,
        received_service=ex,
        interreception=ey,
        truncation_bound=bound,
    )


def paoi_policy(d: ServiceDistribution, policy: Policy) -> PaoiValue:
    """Closed-form PAoI for any policy that has one."""
    if isinstance(policy, RepetitiveSequence):
        return paoi_repetitive(d, policy)
    thresholds = resolve(policy, d)
    if thresholds is None:
        raise NoAnalyticForm(
            "randomized-threshold policies have no closed form; simulate instead"
        )
    return paoi_fixed_threshold(d, thresholds[0])
