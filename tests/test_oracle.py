"""Primitives and peak-age components against an mpmath oracle at 50 digits.

The oracle writes every law again from its textbook closed form in
mpmath, so the only rounding it shares with the program is that of the
float parameters and thresholds, which it takes as exact.  It checks
``F``, ``P(X > theta)``, ``M(theta) = E[X 1{X <= theta}]``, ``zeta``,
``E[Xr]`` and ``E[Y]`` at thresholds from the 1e-9 to the 1 - 1e-9
quantile, including the lower tail where the exponential-family optima
sit and heavy tails with ``alpha`` near 1.  It also checks ``E[X]``, the
three components of threshold sequences whose last entry repeats, and the
mean residual ``E[X - theta | X > theta]`` that ``check`` reads off the
optimizer grid.
"""

import math
from itertools import product

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paoi_lab import (
    Deterministic,
    Erlang,
    Exponential,
    HyperExponential,
    LogNormal,
    Pareto,
    RepetitiveSequence,
    ShiftedExponential,
    TwoPoint,
    paoi_fixed_threshold,
    paoi_repetitive,
    theta_grid,
)
from paoi_lab.optimize import default_window

from conftest import CATALOG, catalog_ids, hyper_exponentials

QUANTILES = (1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-3, 1 - 1e-6, 1 - 1e-9)
# Measured over 13000 random draws per law of the kinds drawn below: the
# largest relative error was 2.4e-14 (log-normal M at q = 1e-9 with sigma
# near 3), then 1.4e-14 (Erlang of shape 20); every other law stayed under
# 1e-14.  The catalog and the Pareto edge cases stay under 1e-14 too.
RTOL = 1e-13


def _exponential_parts(rate, t):
    """(F, sf, M) of Exponential(rate) at t > 0."""
    u = rate * t
    return -mp.expm1(-u), mp.exp(-u), (-mp.expm1(-u) - u * mp.exp(-u)) / rate


def _law_parts(d, t):
    """(F, sf, M) of ``d`` at ``t`` in 50-digit arithmetic."""
    zero, one = mp.mpf(0), mp.mpf(1)
    if isinstance(d, Exponential):
        return _exponential_parts(mp.mpf(d.rate), t) if t > 0 else (zero, one, zero)
    if isinstance(d, ShiftedExponential):
        tau = t - mp.mpf(d.shift)
        if tau <= 0:
            return zero, one, zero
        f, sf, m = _exponential_parts(mp.mpf(d.rate), tau)
        return f, sf, m + d.shift * f
    if isinstance(d, HyperExponential):
        if t <= 0:
            return zero, one, zero
        parts = [_exponential_parts(mp.mpf(r), t) for r in d.rates]
        return tuple(
            mp.fsum(mp.mpf(w) * p[i] for w, p in zip(d.weights, parts)) for i in range(3)
        )
    if isinstance(d, Erlang):
        if t <= 0:
            return zero, one, zero
        k, u = d.shape, mp.mpf(d.rate) * t
        return (
            mp.gammainc(k, 0, u, regularized=True),
            mp.gammainc(k, u, mp.inf, regularized=True),
            k / mp.mpf(d.rate) * mp.gammainc(k + 1, 0, u, regularized=True),
        )
    if isinstance(d, Pareto):
        xm, a = mp.mpf(d.xm), mp.mpf(d.alpha)
        if t < xm:
            return zero, one, zero
        ratio = xm / t
        if a == 1:
            m = xm * mp.log(t / xm)
        else:
            m = a * xm / (a - 1) * (1 - ratio ** (a - 1))
        return 1 - ratio**a, ratio**a, m
    if isinstance(d, LogNormal):
        if t <= 0:
            return zero, one, zero
        mu, sigma = mp.mpf(d.mu), mp.mpf(d.sigma)
        z = (mp.log(t) - mu) / sigma
        return mp.ncdf(z), mp.ncdf(-z), mp.exp(mu + sigma**2 / 2) * mp.ncdf(z - sigma)
    if isinstance(d, TwoPoint):
        p, t1, t2 = mp.mpf(d.p), mp.mpf(d.t1), mp.mpf(d.t2)
        f = zero if t < t1 else p if t < t2 else one
        m = (p * t1 if t >= t1 else zero) + ((1 - p) * t2 if t >= t2 else zero)
        return f, 1 - f, m
    if isinstance(d, Deterministic):
        v = mp.mpf(d.value)
        return (one, zero, v) if t >= v else (zero, one, zero)
    raise TypeError(d)


def oracle(d, theta):
    """F, sf, M, zeta, E[Xr] and E[Y] of ``d`` at the float ``theta``."""
    with mp.workdps(50):
        t = mp.mpf(theta)
        f, sf, m = _law_parts(d, t)
        if f <= 0:
            return {"cdf": f, "sf": sf, "M": m, "zeta": mp.inf, "ex": mp.inf, "ey": mp.inf}
        ex, ey = m / f, (t * sf + m) / f
        return {"cdf": f, "sf": sf, "M": m, "zeta": ex + ey, "ex": ex, "ey": ey}


def program(d, theta):
    v = paoi_fixed_threshold(d, theta)
    return {
        "cdf": d.cdf(theta),
        "sf": d.sf(theta),
        "M": d.truncated_first_moment(theta),
        "zeta": v.zeta,
        "ex": v.received_service,
        "ey": v.interreception,
    }


def worst_error(d, theta):
    """Largest relative error of the program against the oracle at ``theta``,
    with the quantity it occurred in."""
    return largest_error(oracle(d, theta), program(d, theta))


def largest_error(want, got):
    """Largest relative error of ``got`` against ``want``, with its key."""
    worst = (0.0, None)
    for key, exact in want.items():
        if exact == 0 or mp.isinf(exact):
            err = 0.0 if got[key] == exact else math.inf
        else:
            err = float(abs((mp.mpf(got[key]) - exact) / exact))
        worst = max(worst, (err, key), key=lambda e: e[0])
    return worst


def assert_quantile_sweep(d):
    for q in QUANTILES:
        theta = d.quantile(q)
        err, key = worst_error(d, theta)
        assert err <= RTOL, (d, q, theta, key, err)


@pytest.mark.parametrize("name", catalog_ids())
def test_catalog_against_oracle(name):
    assert_quantile_sweep(CATALOG[name])


def oracle_mean(d):
    """E[X] of ``d`` in 50-digit arithmetic, from its textbook closed form."""
    with mp.workdps(50):
        if isinstance(d, (Exponential, ShiftedExponential)):
            return mp.mpf(getattr(d, "shift", 0)) + 1 / mp.mpf(d.rate)
        if isinstance(d, Erlang):
            return d.shape / mp.mpf(d.rate)
        if isinstance(d, Pareto):
            xm, a = mp.mpf(d.xm), mp.mpf(d.alpha)
            return a * xm / (a - 1) if a > 1 else mp.inf
        if isinstance(d, HyperExponential):
            return mp.fsum(mp.mpf(w) / mp.mpf(r) for w, r in zip(d.weights, d.rates))
        if isinstance(d, LogNormal):
            return mp.exp(mp.mpf(d.mu) + mp.mpf(d.sigma) ** 2 / 2)
        return mp.fsum(mp.mpf(v) * mp.mpf(w) for v, w in d.atoms())


@pytest.mark.parametrize("d", [
    *(CATALOG[name] for name in catalog_ids()),
    Pareto(xm=1.0, alpha=0.5), Pareto(xm=1.0, alpha=1.0), Pareto(xm=1.0, alpha=1 + 1e-9),
], ids=[*catalog_ids(), "pareto-0.5", "pareto-1", "pareto-1+1e-9"])
def test_mean_against_oracle(d):
    # E[X] = M(inf) is one closed form: a few roundings
    err, _ = largest_error({"mean": oracle_mean(d)}, {"mean": d.mean()})
    assert err <= 1e-15, (d, err)


@pytest.mark.parametrize("alpha", [0.5, 1 - 1e-9, 1.0, 1 + 1e-12, 1 + 1e-9, 1 + 1e-6, 2.0])
def test_pareto_near_alpha_one(alpha):
    assert_quantile_sweep(Pareto(xm=1.0, alpha=alpha))


@pytest.mark.parametrize("alpha", [1 - 1e-9, 1.0, 1 + 1e-9, 2.0])
def test_pareto_just_above_xm(alpha):
    d = Pareto(xm=3.0, alpha=alpha)
    for excess in (1e-15, 1e-12, 1e-9, 1e-6):
        theta = 3.0 * (1 + excess)
        err, key = worst_error(d, theta)
        assert err <= RTOL, (alpha, theta, key, err)


# Past x / xm = the largest float, where (x - xm) / xm overflows: sf and M
# are normal floats there while xm / x, or alpha * xm, rounds to 0.
# Measured: 5e-14 at most, on sf of Pareto(5e-324, 0.5) at 2.
@pytest.mark.parametrize("d, theta", [
    (Pareto(xm=5e-324, alpha=0.5), 2.0),
    (Pareto(xm=1e-300, alpha=0.5), 1e10),
    (Pareto(xm=1e-300, alpha=0.01), 1e300),
    (Pareto(xm=5e-324, alpha=0.01), 1e300),
])
def test_pareto_past_the_largest_ratio(d, theta):
    err, key = worst_error(d, theta)
    assert err <= 1e-12, (d, theta, key, err)
    # a grid reads the same bits, next to a threshold short of the far tail
    grid = d.grid_primitives([d.xm * 2.0, theta])
    assert [g[1] for g in grid] == list(d.primitives(theta))


def test_hyper_exponential_deep_lower_tail():
    d = CATALOG["hyper-exponential"]
    for theta in (1e-15, 1e-12, 1e-9, 1e-6):
        err, key = worst_error(d, theta)
        assert err <= RTOL, (theta, key, err)


_rates = st.floats(min_value=1e-3, max_value=1e3)
_times = st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def _two_point(draw):
    t1 = draw(_times)
    return TwoPoint(t1, t1 * draw(st.floats(min_value=1.01, max_value=100.0)),
                    draw(st.floats(min_value=0.01, max_value=0.99)))


LAWS = st.one_of(
    st.builds(Exponential, _rates),
    st.builds(Erlang, st.integers(min_value=1, max_value=20), _rates),
    st.builds(Pareto, _times, st.floats(min_value=0.2, max_value=5.0)),
    st.builds(Pareto, _times, st.floats(min_value=1 - 1e-6, max_value=1 + 1e-6)),
    st.builds(ShiftedExponential, _times, _rates),
    _two_point(),
    hyper_exponentials(),
    st.builds(LogNormal, st.floats(min_value=-5.0, max_value=5.0),
              st.floats(min_value=0.05, max_value=3.0)),
    st.builds(Deterministic, _times),
)


@settings(max_examples=300, deadline=None)
@given(d=LAWS, q=st.sampled_from(QUANTILES) | st.floats(min_value=1e-9, max_value=1 - 1e-9))
def test_drawn_laws_against_oracle(d, q):
    theta = d.quantile(q)
    err, key = worst_error(d, theta)
    assert err <= RTOL, (d, q, theta, key, err)


def oracle_sequence(d, thresholds):
    """zeta, E[Xr] and E[Y] of a sequence restarted after every reception
    whose last entry repeats, summed over the attempt that delivers.

    Reception at attempt ``j`` happens with probability ``S_j F(theta_j)``
    and follows ``T_j = theta_1 + ... + theta_{j-1}`` of preempted time,
    so ``E[Xr] = sum S_j M(theta_j)`` and ``E[Y] = sum S_j (M(theta_j) +
    F(theta_j) T_j)``; from attempt ``n`` on the sums are geometric in
    ``q = P(X > theta_n)``.  This is a different grouping of the terms
    than the program's per-attempt cost, so it checks that algebra too.
    """
    with mp.workdps(50):
        ts = [mp.mpf(t) for t in thresholds]
        reach, spent = mp.mpf(1), mp.mpf(0)
        ex = ey = mp.mpf(0)
        for t in ts[:-1]:
            f, sf, m = _law_parts(d, t)
            ex += reach * m
            ey += reach * (m + f * spent)
            reach *= sf
            spent += t
        if reach > 0:
            t = ts[-1]
            f, q, m = _law_parts(d, t)
            if f <= 0:
                return {"zeta": mp.inf, "ex": mp.inf, "ey": mp.inf}
            ex += reach * m / f
            ey += reach * (m / f + spent + t * q / f)
        return {"zeta": ex + ey, "ex": ex, "ey": ey}


def sequence_error(d, thresholds):
    v = paoi_repetitive(d, RepetitiveSequence(thresholds))
    got = {"zeta": v.zeta, "ex": v.received_service, "ey": v.interreception}
    return largest_error(oracle_sequence(d, thresholds), got)


def sequence_entries(d):
    """Thresholds below the support, in the lower tail down to quantile
    1e-9, in the bulk, and at the law's atoms."""
    atoms = ()
    if isinstance(d, TwoPoint):
        atoms = (d.t1, d.t2)
    elif isinstance(d, Deterministic):
        atoms = (d.value,)
    below = d.support_min() / 2  # 0 when the support starts at 0
    return (below,) + tuple(d.quantile(q) for q in (1e-9, 1e-6, 1e-3, 0.5, 0.9)) + atoms


# Measured over every sequence of length 1 to 3 from ``sequence_entries``
# of every catalog law: the largest relative error was 4.3e-15; over 5000
# drawn laws and sequences of length 1 to 4 it was 1.4e-14 (log-normal).
@pytest.mark.parametrize("name", catalog_ids())
def test_sequences_against_oracle(name):
    d = CATALOG[name]
    entries = sequence_entries(d)
    seqs = [s for n in (1, 2) for s in product(entries, repeat=n)]
    # every length-3 and length-4 sequence would be slow; these cover a
    # below-support and a lower-tail entry in each position
    bulk, below, tail = entries[4], entries[0], entries[1]
    seqs += [(below, bulk, tail), (tail, below, bulk), (bulk, tail, below),
             (below, tail, bulk, entries[5]), (tail, tail, below, bulk),
             (entries[5], bulk, tail, tail), entries[-4:]]
    for seq in seqs:
        err, key = sequence_error(d, seq)
        assert err <= RTOL, (d, seq, key, err)


@settings(max_examples=200, deadline=None)
@given(d=LAWS, picks=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=4))
def test_drawn_sequences_against_oracle(d, picks):
    entries = sequence_entries(d)
    seq = tuple(entries[i] for i in picks)
    err, key = sequence_error(d, seq)
    assert err <= RTOL, (d, seq, key, err)


def oracle_residual(d, theta):
    """``E[X - theta | X > theta] = (E[X] - M(theta)) / P(X > theta) - theta``
    to 50 digits, or ``None`` where ``P(X > theta) = 0``.  The working
    precision grows by the digits that ``E[X] - M`` cancels."""
    with mp.workdps(50):
        sf = _law_parts(d, mp.mpf(theta))[1]
    if sf == 0:
        return None
    with mp.workdps(50 + max(0, int(-mp.log10(sf)))):
        t = mp.mpf(theta)
        _, sf, m = _law_parts(d, t)
        return (oracle_mean(d) - m) / sf - t


def assert_residuals(d, thetas, rtol):
    for theta, got in zip(thetas, d.grid_residuals(thetas).tolist()):
        want = oracle_residual(d, theta)
        if want is None:
            assert math.isnan(got), (d, theta, got)
        else:
            assert abs(got - want) <= rtol * abs(want), (d, theta, got, mp.nstr(want, 12))


# Measured on these grids: 2.0e-10 on Erlang(3, 1) at theta = 19.13 and
# 3.4e-12 on LogNormal(0, 1) at theta = 111.6, from the cancellation in
# E[X] - M; every other law stays under 3.3e-16.
@pytest.mark.parametrize("name", catalog_ids())
def test_grid_residuals_against_oracle(name):
    d = CATALOG[name]
    # a point mass has no default window; its grid starts below the support
    window = (0.5, 3.0) if isinstance(d, Deterministic) else default_window(d)
    assert_residuals(d, theta_grid(*window, 2000).tolist(), 1e-9)


# Known far-tail failures of the residual, kept visible: E[X] - M cancels
# to nothing while P(X > theta) is still a normal float.  LogNormal(0, 1)
# reads 413.0 for 413.2 at theta = 3000 and 3660 for 1186 at 1e4;
# Erlang(3, 1) is off by 3.1e-2 at theta = 40, reads -100 at 100 and nan
# at 3000.
@pytest.mark.xfail(strict=True, reason="E[X] - M cancels in the far tail")
@pytest.mark.parametrize("name, theta", [
    ("log-normal", 3000.0), ("log-normal", 1e4),
    ("erlang", 40.0), ("erlang", 100.0), ("erlang", 3000.0),
])
def test_far_tail_residuals_against_oracle(name, theta):
    assert_residuals(CATALOG[name], [theta], 1e-9)
