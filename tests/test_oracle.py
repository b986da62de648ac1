"""Primitives and peak-age components against an mpmath oracle at 50 digits.

The oracle is the benchmark's: every law comes from the one mpmath law
table in ``perfbench/oracle.py`` (``conftest.oracle_law``), written again
from its textbook closed form, so the only rounding it shares with the
program is that of the float parameters and thresholds, which it takes as
exact.  This file groups its ``F``, ``P(X > theta)``, ``M(theta) = E[X
1{X <= theta}]`` and ``E[X]`` into ``zeta``, ``E[Xr]`` and ``E[Y]``, and
checks them at thresholds from the 1e-9 to the 1 - 1e-9 quantile,
including the lower tail where the exponential-family optima sit and
heavy tails with ``alpha`` near 1.  It also checks ``E[X]``, the three
components of threshold sequences whose last entry repeats, the mean
residual ``E[X - theta | X > theta]`` that ``check`` reads off the
optimizer grid, and Lemma 1's verdict on laws with mass past ``2 E[X]``.
"""

import math
import sys
from itertools import product

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paoi_lab import (
    Deterministic,
    Erlang,
    Exponential,
    LogNormal,
    Pareto,
    RepetitiveSequence,
    ShiftedExponential,
    TwoPoint,
    paoi_fixed_threshold,
    paoi_repetitive,
    theta_grid,
)
from paoi_lab.optimize import benefit_verdict, default_window, min_achievable_paoi

from conftest import CATALOG, catalog_ids, hyper_exponentials, oracle_law

QUANTILES = (1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-3, 1 - 1e-6, 1 - 1e-9)
# Measured over 13000 random draws per law of the kinds drawn below: the
# largest relative error was 2.4e-14 (log-normal M at q = 1e-9 with sigma
# near 3), then 1.4e-14 (Erlang of shape 20); every other law stayed under
# 1e-14.  The catalog and the Pareto edge cases stay under 1e-14 too.
RTOL = 1e-13


def parts(law, t):
    """(F, sf, M) of the oracle ``law`` at the mpf ``t``."""
    return law.cdf(t), law.sf(t), law.moment(t)


def oracle(d, theta):
    """F, sf, M, zeta, E[Xr] and E[Y] of ``d`` at the float ``theta``."""
    with mp.workdps(50):
        t = mp.mpf(theta)
        f, sf, m = parts(oracle_law(d), t)
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


@pytest.mark.parametrize("d", [
    *(CATALOG[name] for name in catalog_ids()),
    Pareto(xm=1.0, alpha=0.5), Pareto(xm=1.0, alpha=1.0), Pareto(xm=1.0, alpha=1 + 1e-9),
], ids=[*catalog_ids(), "pareto-0.5", "pareto-1", "pareto-1+1e-9"])
def test_mean_against_oracle(d):
    # E[X] = M(inf) is one closed form: a few roundings
    with mp.workdps(50):
        want = oracle_law(d).mean
    err, _ = largest_error({"mean": want}, {"mean": d.mean()})
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
    The benchmark oracle's ``zeta_repetitive`` reads inf for
    ``Deterministic(1.5)`` with ``(1.5, 0.75)``, where this and the program
    read 3.0, so this grouping stays here.
    """
    with mp.workdps(50):
        law = oracle_law(d)
        ts = [mp.mpf(t) for t in thresholds]
        reach, spent = mp.mpf(1), mp.mpf(0)
        ex = ey = mp.mpf(0)
        for t in ts[:-1]:
            f, sf, m = parts(law, t)
            ex += reach * m
            ey += reach * (m + f * spent)
            reach *= sf
            spent += t
        if reach > 0:
            t = ts[-1]
            f, q, m = parts(law, t)
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
        sf = oracle_law(d).sf(mp.mpf(theta))
    if sf == 0:
        return None
    # the law, and so its mean, is built at the raised precision
    with mp.workdps(50 + max(0, int(-mp.log10(sf)))):
        law, t = oracle_law(d), mp.mpf(theta)
        return (law.mean - law.moment(t)) / law.sf(t) - t


# E[X] - M cancels nearly all of E[X] here (sf = 1.4e-225 and 4.1e-68), so
# E[X] must be exact to the raised precision, not to 50 digits only: at 50
# digits these read 2.6e174 and 1.49e323.
@pytest.mark.parametrize("d, theta, want", [
    pytest.param(Erlang(20, 3.0), 200.0, "0.34419554", id="erlang-20-200.0"),
    pytest.param(Erlang(7, 1e-306), sys.float_info.max, "1.0341247e+306",
                 id="erlang-7-1e-306-max"),
])
def test_oracle_residual_takes_the_mean_at_the_raised_precision(d, theta, want):
    assert mp.nstr(oracle_residual(d, theta), 8) == want


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
# at 3000.  Erlang(400, 1) reads -800.0 for 1.9853033 at 800 and
# LogNormal(0, 0.1) 1.1034527 for 0.027244482 at 2.268; at the largest
# float LogNormal(700, 1) reads -1.798e308 for 1.9992687e307 and
# Erlang(7, 1e-306) -1.798e308 for 1.0341247e306.
@pytest.mark.xfail(strict=True, reason="E[X] - M cancels in the far tail")
@pytest.mark.parametrize("d, theta", [
    pytest.param(CATALOG["log-normal"], 3000.0, id="log-normal-3000.0"),
    pytest.param(CATALOG["log-normal"], 1e4, id="log-normal-10000.0"),
    pytest.param(CATALOG["erlang"], 40.0, id="erlang-40.0"),
    pytest.param(CATALOG["erlang"], 100.0, id="erlang-100.0"),
    pytest.param(CATALOG["erlang"], 3000.0, id="erlang-3000.0"),
    pytest.param(Erlang(400, 1.0), 800.0, id="erlang-400-800.0"),
    pytest.param(LogNormal(0.0, 0.1), 2.268, id="log-normal-s0.1-2.268"),
    pytest.param(LogNormal(700.0, 1.0), sys.float_info.max, id="log-normal-mu700-max"),
    pytest.param(Erlang(7, 1e-306), sys.float_info.max, id="erlang-7-1e-306-max"),
])
def test_far_tail_residuals_against_oracle(d, theta):
    assert_residuals(d, [theta], 1e-9)


# Lemma 1: a law with P(X > 2 E[X]) > 0 is beneficial.  In floats the
# shifted exponential's sf(2 E[X]) underflows to 0.0; the oracle's is 9.7e-1374.
LEMMA_1_LAWS = [
    pytest.param(LogNormal(0.0, 0.1), id="log-normal-s0.1"),
    pytest.param(ShiftedExponential(69.9, 45.2), id="shifted-exponential-69.9"),
]


@pytest.mark.parametrize("d", LEMMA_1_LAWS)
def test_lemma_1_laws_have_mass_past_twice_the_mean(d):
    with mp.workdps(50):
        law = oracle_law(d)
        assert law.sf(2 * law.mean) > 0


def test_log_normal_beats_zero_wait_at_twice_the_mean():
    # zeta(2 E[X]) is 8.2e-14 short of 2 E[X]: a 1e-9 guard cannot see it
    d = LogNormal(0.0, 0.1)
    with mp.workdps(50):
        twice_mean = 2 * oracle_law(d).mean
        assert oracle(d, twice_mean)["zeta"] < twice_mean


# The verdict reads not beneficial, with margins -3.3755e-07 and
# -6.96e-05, on the default window.
@pytest.mark.xfail(strict=True, reason="the verdict's guard and window miss Lemma 1's gain")
@pytest.mark.parametrize("d", LEMMA_1_LAWS)
def test_verdict_follows_lemma_1(d):
    assert benefit_verdict(d, min_achievable_paoi(d)).beneficial is True
