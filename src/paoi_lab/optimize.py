"""Optimal fixed thresholds and preemption-benefit verdicts.

The threshold search is a dense grid followed by golden-section
refinement around the best grid cell.  A line search is not safe: the PAoI
curve is monotone for memoryless service times and convex only for more
regular shapes.  Each golden step reads ``paoi_fixed_threshold``, and the
grid is read in two sets, each by one ``paoi_thresholds`` call, so every
zeta comes from :mod:`paoi_lab.analytic`.  A bound pass reads zeta,
c / F and the Bellman cost c below at every 32nd point and the last.  c
never falls (its slope is P(X > theta) + theta f(theta)) and F rises, so
zeta = c / F >= c(a) / F(b) on a cell between two of its points a < b.
Cells whose bound is within 1e-9 (relative) of the pass's smallest zeta
are read, for zeta and c / F; the first minimum is picked between the two
sets as a whole-grid read picks it, and no full-length array is built.
``evaluations`` still counts every grid point, read or bounded.

The optimality cross-check is the fixed point of the one-stage Bellman
equation

    U = min_theta { c(theta) + U * P(X > theta) },
    c(theta) = 2 * int_0^theta x dF(x) + theta * P(X > theta),

on the search's grid, which is the grid's smallest ``c / F`` (``inf`` if
``F`` is 0 on the whole grid), taken from the same reads: a shut cell's
``c / F`` is bounded like its zeta.  Because ``zeta(s_theta)`` is ``c/F`` by
construction, the cross-check confirms the grid-and-golden search, not
the peak-age formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analytic import paoi_fixed_threshold, paoi_thresholds, paoi_xmin, paoi_zero_wait
from .distributions import ServiceDistribution
from .errors import ConfigError

__all__ = [
    "OptimizationResult",
    "PreemptionVerdict",
    "WINNER_FIXED",
    "WINNER_ZERO_WAIT",
    "WINNER_XMIN",
    "default_window",
    "window_or_default",
    "theta_grid",
    "optimal_threshold",
    "min_achievable_paoi",
    "bellman_tables",
    "bellman_apply",
    "bellman_fixed_point",
    "preemption_beneficial",
    "benefit_verdict",
    "mean_residual_witness",
    "twopoint_benefit_threshold",
]

WINNER_FIXED = "fixed-threshold"
WINNER_XMIN = "xmin-threshold"
WINNER_ZERO_WAIT = "zero-wait"

# Preemption-capable winners are preferred on ties (within 1e-9 relative).
_WINNER_PRIORITY = (WINNER_FIXED, WINNER_XMIN, WINNER_ZERO_WAIT)
_TIE_REL_TOL = 1e-9

_DEFAULT_GRID_POINTS = 2000
# The most floats one numpy array can index: numpy fails on a larger grid
# whatever memory the host has.
_MAX_GRID_POINTS = np.iinfo(np.intp).max // np.dtype(float).itemsize
_LOG_SPACING_RATIO = 100.0
# The bound pass's stride and the relative slack on its cell bounds.
_CELL = 32
_BOUND_SLACK = 1e-9
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of the minimum-achievable-PAoI computation."""

    theta_opt: float
    zeta_opt: float
    zeta_zero_wait: float
    zeta_xmin: float
    zeta_min: float
    winner: str
    window: tuple[float, float]
    evaluations: int
    refine_iters: int
    bellman_value: float  # the Bellman fixed point on the search's grid


@dataclass(frozen=True)
class PreemptionVerdict:
    """Whether preemptions strictly beat the never-preempt baseline.

    From :func:`benefit_verdict` (threshold-policy optimum vs ``2 E[X]``),
    ``margin`` is ``2 E[X]`` minus the best preemptive value, positive when
    beneficial; from :func:`mean_residual_witness` (a grid search for a
    threshold whose mean residual service exceeds the mean), it is the
    largest residual excess found, ``nan`` when the mean diverges and the
    test is uninformative.
    """

    beneficial: bool
    witness_theta: Optional[float]
    margin: float


def default_window(d: ServiceDistribution) -> tuple[float, float]:
    """Search window hugging the support: barely above its minimum, out to
    the 1 - 1e-6 quantile."""
    xmin = d.support_min()
    lo = xmin * (1.0 + 1e-6) + 1e-9
    hi = d.quantile(1.0 - 1e-6)
    if hi == math.inf:
        raise ConfigError(
            f"default window: the 1 - 1e-6 quantile of {d} overflows a float; "
            "pass an explicit window"
        )
    if not hi > lo:
        raise ConfigError(
            f"default window collapsed (support [{xmin}, ...] too narrow); "
            "pass an explicit window"
        )
    return lo, hi


def window_or_default(
    d: ServiceDistribution, theta_min: Optional[float], theta_max: Optional[float]
) -> tuple[float, float]:
    """The given window, with a missing end taken from :func:`default_window`.

    :func:`default_window` is consulted only when an end is missing, since
    it raises for laws whose support is a single point.
    """
    if theta_min is None or theta_max is None:
        lo, hi = default_window(d)
        theta_min = lo if theta_min is None else theta_min
        theta_max = hi if theta_max is None else theta_max
    return theta_min, theta_max


def theta_grid(theta_min: float, theta_max: float, n: int = _DEFAULT_GRID_POINTS) -> np.ndarray:
    """Evaluation grid; log-spaced when the window spans over two decades."""
    if n < 2:
        raise ConfigError("grid needs at least 2 points")
    log = theta_min > 0 and theta_max / theta_min > _LOG_SPACING_RATIO
    return _spaced_grid(np.geomspace if log else np.linspace, theta_min, theta_max, n)


def _spaced_grid(spacing, theta_min: float, theta_max: float, n: int) -> np.ndarray:
    """``spacing(theta_min, theta_max, n)``, raising :class:`ConfigError`
    where numpy cannot allocate the ``n`` floats."""
    try:
        # geomspace's last power can overflow before it is set to theta_max
        with np.errstate(over="ignore"):
            return spacing(theta_min, theta_max, n)
    except MemoryError:
        raise ConfigError(f"a grid of {n} points does not fit in memory") from None


def _validate_window(d: ServiceDistribution, theta_min: float, theta_max: float) -> None:
    if not (math.isfinite(theta_min) and math.isfinite(theta_max)):
        raise ConfigError("window endpoints must be finite")
    if theta_min < 0 or theta_min >= theta_max:
        raise ConfigError(f"need 0 <= theta_min < theta_max, got [{theta_min}, {theta_max}]")
    if theta_min < d.support_min():
        raise ConfigError(
            f"theta_min={theta_min} lies below the support minimum {d.support_min()}"
        )


def _golden_refine(fn, lo: float, hi: float, tol: float):
    """Golden-section descent; returns evaluated (value, point) pairs."""
    evaluated = []
    dist = hi - lo
    if dist <= tol:
        return evaluated
    ratio = tol / dist  # 0 when a tiny tol over a wide bracket underflows
    shrink = math.log(ratio) if ratio > 0 else math.log(tol) - math.log(dist)
    n = int(math.ceil(shrink / math.log(_INV_PHI)))
    c = lo + _INV_PHI_SQ * dist
    e = lo + _INV_PHI * dist
    yc, ye = fn(c), fn(e)
    evaluated += [(yc, c), (ye, e)]
    for _ in range(max(n - 1, 0)):
        if yc < ye:
            hi, e, ye = e, c, yc
            dist *= _INV_PHI
            c = lo + _INV_PHI_SQ * dist
            yc = fn(c)
            evaluated.append((yc, c))
        else:
            lo, c, yc = c, e, ye
            dist *= _INV_PHI
            e = lo + _INV_PHI * dist
            ye = fn(e)
            evaluated.append((ye, e))
    return evaluated


def _read(d, thetas):
    """``F``, ``sf``, the Bellman cost ``c = 2 M + theta sf`` (it may overflow),
    ``zeta`` and ``c / F`` at ``thetas`` from one :func:`paoi_thresholds`
    read; ``c / F`` is ``inf`` where ``F`` is not positive."""
    grid = paoi_thresholds(d, thetas)
    cost = 2.0 * grid.m + thetas * grid.sf
    ratio = cost / grid.cdf
    ratio[~(grid.cdf > 0.0)] = math.inf
    return grid.cdf, grid.sf, cost, grid.zeta, ratio


def _grid_minimum(d, theta_min, theta_max, grid_points):
    """The checked window's grid, the index of its first smallest zeta (ties
    go to the smallest theta, a ``nan`` wins, as in ``np.argmin``), that zeta,
    and the smallest ``c / F``, each the bits of a read of the whole grid."""
    _validate_window(d, theta_min, theta_max)
    thetas = theta_grid(theta_min, theta_max, grid_points)
    n = thetas.size
    ends = np.arange(0, n - 1 + _CELL, _CELL)  # every 32nd point, and the last
    ends[-1] = n - 1
    with np.errstate(all="ignore"):  # F = 0 divides by 0; a nan bound stays open
        f, _, cost, zeta, ratio = _read(d, thetas[ends])
        shut = (f[1:] == 0.0) | (cost[:-1] / f[1:] > zeta.min() * (1.0 + _BOUND_SLACK))
        inner = np.repeat(~shut, _CELL)[:n - 1]
        inner[::_CELL] = False
        rest = np.flatnonzero(inner)
        *_, zeta_rest, ratio_rest = _read(d, thetas[rest])
    j = int(zeta.argmin())
    i, best = int(ends[j]), float(zeta[j])
    if rest.size:  # the later set's first wins below the earlier's, or as a nan after a number
        k = int(zeta_rest.argmin())
        (i, best), (k, later) = sorted([(i, best), (int(rest[k]), float(zeta_rest[k]))])
        if best == best and not best <= later:
            i, best = k, later
    return thetas, i, best, float(ratio_rest.min(initial=ratio.min()))


def _search_optimal(d, theta_min, theta_max, tol, grid_points):
    thetas, i, zeta, bellman = _grid_minimum(d, theta_min, theta_max, grid_points)
    if tol is None:
        tol = 1e-8 * (theta_max - theta_min)
    if not tol > 0:
        raise ConfigError("tol must be positive")

    lo = float(thetas[max(i - 1, 0)])
    hi = float(thetas[min(i + 1, len(thetas) - 1)])
    refined = _golden_refine(lambda t: paoi_fixed_threshold(d, t).zeta, lo, hi, tol)
    candidates = [(zeta, float(thetas[i])), *refined]

    best_val = min(v for v, _ in candidates)
    cut = best_val + 1e-12 * (1.0 + abs(best_val))  # inf when every candidate is inf
    ties = [t for v, t in candidates if v <= cut]
    evals = len(thetas) + len(refined)
    return min(ties), best_val, evals, len(refined), bellman


def optimal_threshold(
    d: ServiceDistribution,
    theta_min: float,
    theta_max: float,
    tol: Optional[float] = None,
    grid_points: int = _DEFAULT_GRID_POINTS,
) -> tuple[float, float]:
    """Global minimizer of the fixed-threshold PAoI over ``[theta_min, theta_max]``.

    Returns ``(theta, zeta)``.  Flat stretches tie-break toward the
    smallest threshold.
    """
    theta, zeta, *_ = _search_optimal(d, theta_min, theta_max, tol, grid_points)
    return theta, zeta


def min_achievable_paoi(
    d: ServiceDistribution,
    theta_min: Optional[float] = None,
    theta_max: Optional[float] = None,
    tol: Optional[float] = None,
    grid_points: int = _DEFAULT_GRID_POINTS,
) -> OptimizationResult:
    """Minimum average PAoI over {best fixed threshold, zero-wait, xmin}.

    Candidates that are infinite still participate in the min; with an
    infinite service mean the zero-wait candidate simply never wins.
    """
    theta_min, theta_max = window_or_default(d, theta_min, theta_max)
    theta_opt, zeta_opt, evals, iters, bellman = _search_optimal(
        d, theta_min, theta_max, tol, grid_points
    )
    zeta_zw = paoi_zero_wait(d)
    zeta_xm = paoi_xmin(d)

    by_tag = {
        WINNER_FIXED: zeta_opt,
        WINNER_XMIN: zeta_xm,
        WINNER_ZERO_WAIT: zeta_zw,
    }
    zeta_min = min(by_tag.values())
    winner = next((tag for tag in _WINNER_PRIORITY
                   if by_tag[tag] <= zeta_min * (1.0 + _TIE_REL_TOL)), WINNER_FIXED)

    return OptimizationResult(
        theta_opt=theta_opt,
        zeta_opt=zeta_opt,
        zeta_zero_wait=zeta_zw,
        zeta_xmin=zeta_xm,
        zeta_min=zeta_min,
        winner=winner,
        window=(theta_min, theta_max),
        evaluations=evals,
        refine_iters=iters,
        bellman_value=bellman,
    )


def bellman_tables(
    d: ServiceDistribution,
    theta_min: float,
    theta_max: float,
    grid_points: int = _DEFAULT_GRID_POINTS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid, per-attempt cost, and survival tables of the Bellman operator."""
    _validate_window(d, theta_min, theta_max)
    thetas = theta_grid(theta_min, theta_max, grid_points)
    with np.errstate(all="ignore"):
        _, sf, cost, *_ = _read(d, thetas)
    return thetas, cost, sf


def bellman_apply(cost: np.ndarray, surv: np.ndarray, u: float) -> float:
    """One sweep of the operator: ``min over the grid of cost + u * surv``."""
    return float(np.min(cost + u * surv))


def bellman_fixed_point(
    d: ServiceDistribution,
    theta_min: float,
    theta_max: float,
    grid_points: int = _DEFAULT_GRID_POINTS,
) -> float:
    """Fixed point of ``U = min_theta {c(theta) + U * P(X > theta)}`` on the
    grid: its smallest ``c / F``, as :func:`min_achievable_paoi` reports in
    ``bellman_value``."""
    return _grid_minimum(d, theta_min, theta_max, grid_points)[-1]


def preemption_beneficial(
    d: ServiceDistribution,
    theta_min: Optional[float] = None,
    theta_max: Optional[float] = None,
    grid_points: int = _DEFAULT_GRID_POINTS,
) -> PreemptionVerdict:
    """Exact verdict: does some preemptive policy strictly beat ``2 E[X]``?

    Runs the search of :func:`min_achievable_paoi` and judges it with
    :func:`benefit_verdict`.
    """
    return benefit_verdict(d, min_achievable_paoi(d, theta_min, theta_max, None, grid_points))


def benefit_verdict(d: ServiceDistribution, result: OptimizationResult) -> PreemptionVerdict:
    """The exact verdict for ``d``, read off a finished optimization.

    Compares ``min(zeta(s_theta_opt), zeta_xmin)`` against ``2 E[X]`` with
    a 1e-9 relative strictness guard.  An infinite mean short-circuits to
    beneficial with infinite margin: any finite-PAoI threshold policy wins.
    """
    baseline = result.zeta_zero_wait
    if math.isinf(baseline):
        return PreemptionVerdict(True, result.theta_opt, math.inf)

    best = min(result.zeta_opt, result.zeta_xmin)
    beneficial = best < baseline * (1.0 - _TIE_REL_TOL)
    witness = None
    if beneficial:
        witness = result.theta_opt if result.zeta_opt <= result.zeta_xmin else d.support_min()
    return PreemptionVerdict(beneficial, witness, baseline - best)


def mean_residual_witness(d: ServiceDistribution, thetas) -> PreemptionVerdict:
    """Grid search for a threshold whose mean residual exceeds the mean.

    ``E[X - theta | X > theta] > E[X]`` at some theta certifies that
    restarting a long-running attempt beats letting it finish, so
    preemptions are beneficial.  The converse does not hold: finding no
    witness proves nothing.  For an infinite mean the comparison is
    vacuous and the verdict is returned unestablished with ``nan`` margin.

    The residuals come from one call of ``d.grid_residuals``, each bit for
    bit :meth:`~paoi_lab.distributions.ServiceDistribution.conditional_residual`
    (the base form ``(E[X] - M) / sf - theta`` read from the law's
    ``sf`` and ``M`` arrays, or the law's own closed form).  A threshold
    with ``P(X > theta) = 0`` has no residual and is skipped; when every
    threshold is skipped the margin is ``-inf`` and there is no witness.
    The witness is the first threshold whose residual exceeds the mean.
    """
    mean = d.mean()
    if math.isinf(mean):
        return PreemptionVerdict(False, None, math.nan)
    thetas = np.asarray(thetas, dtype=float)
    with np.errstate(over="ignore"):  # near the largest float, -inf
        margins = d.grid_residuals(thetas) - mean
    best_margin = float(np.max(margins[~np.isnan(margins)], initial=-math.inf))
    above = np.flatnonzero(margins > 0.0)
    witness = float(thetas[above[0]]) if above.size else None
    return PreemptionVerdict(witness is not None, witness, best_margin)


def twopoint_benefit_threshold(p: float, t1: float) -> float:
    """Critical upper atom for a two-point service law.

    For service time ``t1`` w.p. ``p`` and ``t2`` w.p. ``1-p``, preemptions
    are beneficial exactly when ``t2`` exceeds the returned value.  Solved
    from ``t1 (1+p)/p < 2 (p t1 + (1-p) t2)``, i.e. best-preemptive vs
    twice the mean.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("need 0 < p < 1")
    if t1 <= 0:
        raise ValueError("need t1 > 0")
    return t1 * (1.0 / p + 1.0 - 2.0 * p) / (2.0 * (1.0 - p))
