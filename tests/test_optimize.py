import math
import sys
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gammainc, gammaincc

from paoi_lab import (
    ConfigError,
    Deterministic,
    Erlang,
    Exponential,
    HyperExponential,
    LogNormal,
    Pareto,
    PreemptionVerdict,
    ServiceDistribution,
    ShiftedExponential,
    TwoPoint,
    benefit_verdict,
    default_window,
    mean_residual_witness,
    min_achievable_paoi,
    paoi_fixed_threshold,
    theta_grid,
    twopoint_benefit_threshold,
)
from paoi_lab.analytic import paoi_thresholds
from paoi_lab.optimize import (
    _BOUND_SLACK,
    _CELL,
    _grid_minimum,
    window_or_default,
)

from conftest import CATALOG, SCALED, bellman_operator, bellman_sweep, hyper_exponentials

TP = TwoPoint(1.0, 3.0, 0.5)


def erlang_zeta_dense(k, rate, thetas):
    """Vectorized fixed-threshold PAoI for Erlang via the one-shot cost form,
    zeta = (2 int_0^t x f + t Fbar) / F; independent of the library path."""
    u = rate * np.asarray(thetas)
    f = gammainc(k, u)
    m1 = (k / rate) * gammainc(k + 1, u)
    return (2 * m1 + thetas * gammaincc(k, u)) / f


class TestOptimalThreshold:
    def test_exponential_minimum_sits_at_left_endpoint(self):
        d = Exponential(1.0)
        r = min_achievable_paoi(d, 0.01, 20.0)
        assert r.theta_opt == pytest.approx(0.01, abs=1e-6)
        assert r.zeta_opt == pytest.approx(paoi_fixed_threshold(d, r.theta_opt).zeta)

    def test_deterministic_flat_curve_ties_to_smallest(self):
        r = min_achievable_paoi(Deterministic(1.0), 1.0, 5.0)
        assert r.zeta_opt == 2.0
        assert r.theta_opt == 1.0

    def test_erlang3_interior_minimum_vs_dense_sweep(self):
        d = Erlang(3, 1.0)
        lo, hi = 0.01, 30.0
        r = min_achievable_paoi(d, lo, hi)
        theta, zeta = r.theta_opt, r.zeta_opt
        assert lo < theta < hi
        dense = np.linspace(lo, hi, 100_000)
        zd = erlang_zeta_dense(3, 1.0, dense)
        assert zeta <= zd.min() + 1e-7
        assert zeta < min(zd[0], zd[-1]) - 1e-3
        assert abs(theta - dense[zd.argmin()]) < 2e-3

    def test_invalid_windows(self):
        d = Exponential(1.0)
        with pytest.raises(ConfigError):
            min_achievable_paoi(d, 2.0, 1.0)
        with pytest.raises(ConfigError):
            min_achievable_paoi(d, 0.1, math.inf)
        with pytest.raises(ConfigError):
            min_achievable_paoi(Pareto(1.0, 2.0), 0.2, 0.8)
        for tol in (-1.0, math.nan):
            with pytest.raises(ConfigError):
                min_achievable_paoi(d, 0.1, 1.0, tol=tol)

    @pytest.mark.parametrize("tol", [1e-300, 5e-324])
    def test_tiny_tolerance_over_a_wide_bracket(self, tol):
        # tol / (hi - lo) underflows to 0, whose log raised ValueError
        r = min_achievable_paoi(Exponential(1.0), 0.5, 1e300, tol=tol, grid_points=2)
        assert r.theta_opt == 0.5
        assert r.zeta_opt == paoi_fixed_threshold(Exponential(1.0), 0.5).zeta

    def test_default_window_collapses_for_deterministic(self):
        with pytest.raises(ConfigError):
            default_window(Deterministic(1.0))

    def test_log_grid_kicks_in_for_wide_windows(self):
        g = theta_grid(1e-3, 10.0, 100)
        assert g[0] == pytest.approx(1e-3) and g[-1] == pytest.approx(10.0)
        ratios = g[1:] / g[:-1]
        assert np.allclose(ratios, ratios[0])  # geometric
        g2 = theta_grid(1.0, 3.0, 100)
        assert np.allclose(np.diff(g2), g2[1] - g2[0])  # arithmetic


@st.composite
def scaled_laws(draw):
    """A law of any catalog kind with drawn shape parameters, at a time scale
    2^k, and its window: the default one, or ``[v, 2v]`` for Deterministic(v).
    Below about 2^-20 the default window's absolute 1e-9 floor can lie above
    the optimum, or above a narrow support."""
    s = 2.0 ** draw(st.integers(-20, 30))
    kind = draw(st.sampled_from(sorted(SCALED)))
    if kind == "deterministic":
        v = s * draw(st.floats(0.1, 10.0))
        return Deterministic(v), (v, 2.0 * v)
    unit = st.floats(0.05, 0.95)
    d = {
        "exponential": lambda: Exponential(1.0 / s),
        "erlang": lambda: Erlang(draw(st.integers(1, 40)), 1.0 / s),
        "pareto": lambda: Pareto(s, draw(st.floats(0.3, 5.0))),
        "shifted-exponential": lambda: ShiftedExponential(s * draw(st.floats(0.0, 10.0)), 1.0 / s),
        "two-point": lambda: TwoPoint(s, s * draw(st.floats(1.01, 10.0)), draw(unit)),
        "hyper-exponential": lambda: scaled_rates(draw(hyper_exponentials()), s),
        "log-normal": lambda: LogNormal(math.log(s), draw(st.floats(0.1, 3.0))),
    }[kind]()
    return d, (None, None)


def scaled_rates(d, s):
    return HyperExponential(tuple(r / s for r in d.rates), d.weights)


class TestMinAchievable:
    def test_two_point_winner_is_xmin(self):
        res = min_achievable_paoi(TP)
        assert res.winner == "xmin-threshold"
        assert res.zeta_min == 3.0
        assert res.zeta_opt > 3.0
        assert res.zeta_zero_wait == 4.0

    def test_heavy_pareto_winner_is_fixed(self):
        res = min_achievable_paoi(Pareto(1.0, 0.5))
        assert res.winner == "fixed-threshold"
        assert math.isfinite(res.zeta_min)
        assert math.isinf(res.zeta_zero_wait)
        assert math.isinf(res.zeta_xmin)

    def test_deterministic_three_way_tie(self):
        res = min_achievable_paoi(Deterministic(1.0), 1.0, 5.0)
        assert res.zeta_min == 2.0
        assert res.zeta_opt == res.zeta_zero_wait == res.zeta_xmin == 2.0
        assert res.winner == "fixed-threshold"  # tie priority

    def test_subnormal_cdf_warns_nothing(self):
        # F is subnormal at the default window's low end, so the quotients
        # there are inf; the suite makes every RuntimeWarning an error
        res = min_achievable_paoi(Erlang(400, 1.0))
        assert res.zeta_min == res.zeta_zero_wait == 800.0
        assert res.winner == "zero-wait"

    # Kept visible: the default tol, 1e-8 times the window's width, exceeds
    # the golden bracket on a wide window, so refinement runs 0 iterations
    # and the grid point is reported (3.3229095 here, 3.3228757 with 17
    # iterations on the default window).
    @pytest.mark.xfail(strict=True, reason="an absolute tol skips refinement on a wide window")
    def test_wide_window_refines(self):
        d = Pareto(1.0, 2.0)
        want = min_achievable_paoi(d).zeta_opt
        assert min_achievable_paoi(d, 1.0, 1e12).zeta_opt == pytest.approx(want, rel=1e-7)

    def test_zeta_min_bounds(self):
        for name, d in CATALOG.items():
            if name == "deterministic":
                res = min_achievable_paoi(d, d.value, 5 * d.value)
            else:
                res = min_achievable_paoi(d)
            if math.isfinite(d.mean()):
                assert res.zeta_min <= 2 * d.mean() + 1e-12
            assert res.zeta_min <= res.zeta_opt
            assert res.window[0] <= res.theta_opt <= res.window[1]

    @settings(max_examples=200, deadline=None)
    @given(law=scaled_laws())
    def test_lemma_2_optimum_sits_below_its_value(self, law):
        # Lemma 2: zeta strictly increases wherever theta >= zeta(theta) and
        # P(X > theta) > 0, so the best threshold lies below the best value
        d, window = law
        res = min_achievable_paoi(d, *window)
        assert res.theta_opt <= res.zeta_opt, (d, res)


class TestBellman:
    WINDOWS = {
        "exponential": (0.05, 20.0),
        "erlang": (0.05, 30.0),
        "pareto": (1.05, 50.0),
        "two-point": (1.000001, 3.0),
    }

    @pytest.mark.parametrize("name", sorted(WINDOWS))
    def test_fixed_point_matches_grid_minimum(self, name):
        d = CATALOG[name]
        lo, hi = self.WINDOWS[name]
        fp = min_achievable_paoi(d, lo, hi).bellman_value
        thetas = theta_grid(lo, hi, 2000)
        grid_min = min(paoi_fixed_threshold(d, float(t)).zeta for t in thetas)
        assert fp == pytest.approx(grid_min, rel=1e-9)

    def test_deterministic_single_sweep(self):
        assert min_achievable_paoi(Deterministic(1.0), 1.0, 5.0).bellman_value == 2.0

    def test_exponential_left_endpoint_window(self):
        # increasing curve: the fixed point is the left endpoint's value
        d = Exponential(1.0)
        fp = min_achievable_paoi(d, 0.5, 10.0).bellman_value
        assert fp == pytest.approx(paoi_fixed_threshold(d, 0.5).zeta, rel=1e-9)

    def test_support_edge_windows_match_grid_minimum(self):
        # P(X > theta_min) == 1 here, so these windows admit no contraction
        # modulus; F == 0 at theta = 0 must not be divided by
        for d, lo, hi in [(Pareto(1.0, 2.0), 1.0, 5.0), (Exponential(1.0), 0.0, 5.0)]:
            fp = min_achievable_paoi(d, lo, hi).bellman_value
            grid_min = min(paoi_fixed_threshold(d, float(t)).zeta for t in theta_grid(lo, hi))
            assert fp == pytest.approx(grid_min, rel=1e-12), d

    def test_policy_iteration_at_catalog_default_windows(self):
        # the default windows start at theta = 1e-9: P(X > theta) rounds to 1
        # there for Erlang and log-normal, and the exponential and
        # hyper-exponential optima sit there
        for name, d in CATALOG.items():
            lo, hi = (1.5, 3.0) if name == "deterministic" else default_window(d)
            # the search's own cross-check, on the arrays it read
            fp = min_achievable_paoi(d, lo, hi).bellman_value
            grid_min = min(paoi_fixed_threshold(d, float(t)).zeta for t in theta_grid(lo, hi))
            assert fp == pytest.approx(grid_min, rel=1e-9), name

    def test_contraction_modulus(self):
        d = CATALOG["erlang"]
        lo, hi = self.WINDOWS["erlang"]
        _, cost, surv = bellman_operator(d, lo, hi)
        modulus = surv[0]
        rng = np.random.default_rng(5)
        for _ in range(100):
            u1, u2 = rng.uniform(0.0, 50.0, size=2)
            t1, t2 = bellman_sweep(cost, surv, u1), bellman_sweep(cost, surv, u2)
            assert abs(t1 - t2) <= modulus * abs(u1 - u2) + 1e-12

    def test_fixed_point_across_catalog_windows(self):
        # three quantile-anchored windows per member
        for name, d in CATALOG.items():
            if name == "deterministic":
                windows = [(d.value, 2 * d.value), (d.value, 5 * d.value)]
            else:
                windows = [
                    (d.quantile(0.05), d.quantile(0.90)),
                    (d.quantile(0.20), d.quantile(0.99)),
                    (d.quantile(0.40), d.quantile(0.80)),
                ]
            for lo, hi in windows:
                fp = min_achievable_paoi(d, lo, hi, grid_points=400).bellman_value
                grid = theta_grid(lo, hi, 400)
                grid_min = min(paoi_fixed_threshold(d, float(t)).zeta for t in grid)
                assert fp == pytest.approx(grid_min, rel=1e-8), (name, lo, hi)


def policy_iteration(cost, f):
    """Reference for the Bellman fixed point: Howard's policy iteration.

    From ``U = c/F`` at the last grid point with ``F > 0``, step to
    ``c(theta)/F(theta)`` at the argmin of ``c - U F`` until ``U`` stops
    decreasing; ``inf`` if ``F`` is 0 on the whole grid.
    """
    delivers = f > 0.0
    if not delivers.any():
        return math.inf
    cost, f = cost[delivers], f[delivers]
    u = cost[-1] / f[-1]
    while True:
        i = int(np.argmin(cost - u * f))
        u_next = cost[i] / f[i]
        if not u_next < u:
            return float(u)
        u = u_next


def reference_fixed_point(d, lo, hi, grid_points=2000):
    thetas, cost, _ = bellman_operator(d, lo, hi, grid_points)
    return policy_iteration(cost, paoi_thresholds(d, thetas).cdf)


class TestBellmanClosedForm:
    """The fixed point read as the grid's smallest ``c/F`` equals the
    policy-iteration loop bit for bit, except on windows that start far
    down the lower tail, where the loop can stop above the minimum."""

    def assert_matches_loop(self, d, lo, hi, grid_points=2000):
        want = reference_fixed_point(d, lo, hi, grid_points)
        result = min_achievable_paoi(d, lo, hi, grid_points=grid_points)
        assert result.bellman_value == want, (d, lo, hi)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog_default_windows(self, name):
        d = CATALOG[name]
        lo, hi = (1.5, 3.0) if name == "deterministic" else default_window(d)
        self.assert_matches_loop(d, lo, hi)

    @pytest.mark.parametrize("name", sorted(TestBellman.WINDOWS))
    def test_bellman_windows(self, name):
        self.assert_matches_loop(CATALOG[name], *TestBellman.WINDOWS[name])

    @staticmethod
    def window(name, start, width):
        d = CATALOG[name]
        base = d.support_min()
        span = max(d.quantile(0.999) - base, 1.0)
        lo = base + start * span
        return d, lo, lo + width * span

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(CATALOG)),
        start=st.one_of(st.just(0.0), st.floats(1e-12, 1.0)),
        width=st.floats(1e-3, 1.0),
        grid_points=st.integers(2, 3000),
    )
    def test_random_windows(self, name, start, width, grid_points):
        self.assert_matches_loop(*self.window(name, start, width), grid_points)

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(CATALOG)),
        start=st.floats(0.0, 1.0),
        width=st.floats(1e-3, 1.0),
        grid_points=st.integers(2, 3000),
    )
    def test_never_above_the_loop(self, name, start, width, grid_points):
        # a window starting far down the lower tail can stop the loop above
        # the smallest c/F (see below); the closed form reads that minimum
        d, lo, hi = self.window(name, start, width)
        thetas, cost, _ = bellman_operator(d, lo, hi, grid_points)
        f = paoi_thresholds(d, thetas).cdf
        got = min_achievable_paoi(d, lo, hi, grid_points=grid_points).bellman_value
        ratios = [c / x for c, x in zip(cost.tolist(), f.tolist()) if x > 0.0]
        assert got == min(ratios, default=math.inf)
        assert got <= policy_iteration(cost, f)

    def test_loop_stops_short_in_the_far_lower_tail(self):
        # at theta = 1e-300 the first grid point's gain F * (U - c/F) is far
        # below the rounding of c - U F at the other points, so the loop
        # stops a step early; zeta(s_theta) there is 1 + O(theta)
        d = Exponential(1.0)
        thetas, cost, _ = bellman_operator(d, 1e-300, 0.0135, 45)
        f = paoi_thresholds(d, thetas).cdf
        assert cost[0] / f[0] == 1.0
        assert min_achievable_paoi(d, 1e-300, 0.0135, grid_points=45).bellman_value == 1.0
        assert policy_iteration(cost, f) > 1.0

    def test_no_delivering_grid_point_is_inf(self):
        # F(theta) ~ theta^3 / 6 underflows to 0 on the whole window
        d = Erlang(3, 1.0)
        thetas, cost, _ = bellman_operator(d, 0.0, 1e-120, 40)
        f = paoi_thresholds(d, thetas).cdf
        assert not f.any()
        u = min_achievable_paoi(d, 0.0, 1e-120, grid_points=40).bellman_value
        assert u == policy_iteration(cost, f) == math.inf

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_is_a_fixed_point_of_the_operator(self, name):
        d = CATALOG[name]
        if name == "deterministic":
            windows = [(1.5, 3.0), (d.value, 5 * d.value)]
        else:
            windows = [default_window(d), (d.quantile(0.05), d.quantile(0.9))]
        for lo, hi in windows:
            u = min_achievable_paoi(d, lo, hi).bellman_value
            _, cost, surv = bellman_operator(d, lo, hi)
            assert abs(bellman_sweep(cost, surv, u) - u) <= 4 * math.ulp(u), (lo, hi)


def full_grid_minimum(d, lo, hi, grid_points):
    """Reference for the bounded search: every grid point read in one call,
    as ``(first argmin, its zeta, smallest c/F)``."""
    thetas = theta_grid(lo, hi, grid_points)
    grid = paoi_thresholds(d, thetas)
    f = grid.cdf
    with np.errstate(over="ignore"):
        cost = 2.0 * grid.m + thetas * grid.sf
        ratio = cost[f > 0] / f[f > 0]
    i = int(np.argmin(grid.zeta))
    return i, float(grid.zeta[i]), float(np.min(ratio, initial=math.inf))


@dataclass(frozen=True)
class NanMomentAt(Erlang):
    """Erlang whose truncated first moment is ``nan`` at one threshold."""

    at: float = math.nan

    def _primitives(self, x):
        f, sf, m = super()._primitives(x)
        return f, sf, np.where(x == self.at, math.nan, m)


@st.composite
def golden_thresholds(draw):
    """A scaled catalog law and a threshold inside its support, below it, at
    an atom (the support minimum on a law without one), ``nan``, ``inf``,
    or where ``F`` is subnormal, on the laws that have such a threshold."""
    name = draw(st.sampled_from(sorted(SCALED)))
    d = SCALED[name](2.0 ** draw(st.integers(-30, 30)))
    base, scale = d.support_min(), d.quantile(0.5)
    where = draw(st.sampled_from(["inside", "below", "atom", "nan", "inf", "subnormal"]))
    if where == "subnormal":
        thetas = base + scale * 2.0 ** -np.arange(1100.0)
        f = d.grid_primitives(thetas)[0]
        thetas = thetas[(f > 0.0) & (f < sys.float_info.min)]
        assume(thetas.size)
        return d, float(draw(st.sampled_from(thetas.tolist())))
    return d, {
        "inside": lambda: base + scale * draw(st.floats(0.0, 100.0)),
        "below": lambda: base - scale * draw(st.floats(1e-9, 1.0)),
        "atom": lambda: draw(st.sampled_from([a for a, _ in d.atoms()] or [base])),
        "nan": lambda: math.nan,
        "inf": lambda: math.inf,
    }[where]()


class TestGoldenStep:
    """The golden steps read zeta through ``paoi_fixed_threshold``, and a
    grid read gives the same bits at the same threshold."""

    @settings(max_examples=300, deadline=None)
    @given(point=golden_thresholds())
    def test_equals_paoi_fixed_threshold(self, point):
        d, theta = point
        want = paoi_fixed_threshold(d, theta)
        grid = paoi_thresholds(d, [theta])
        for name, value in want._asdict().items():
            assert float(getattr(grid, name)[0]).hex() == value.hex(), (d, theta, name)


@st.composite
def search_windows(draw):
    """A scaled catalog law and a window: the default one, or one that
    starts at the support minimum (an atom, or where F is 0), at 0, or
    inside the support, and ends near it, at a quantile or at the largest
    float.  Spans below about 1e-100 of the law's scale keep F at 0 on
    Erlang and log-normal windows."""
    name = draw(st.sampled_from(sorted(SCALED)))
    d = SCALED[name](2.0 ** draw(st.integers(-30, 30)))
    base = d.support_min()
    if name != "deterministic" and draw(st.booleans()):
        return d, *window_or_default(d, None, None)
    scale = d.quantile(0.5)
    lo = draw(st.sampled_from([base, base * (1.0 + 1e-6) + 1e-9 * scale, base + scale]))
    hi = draw(st.one_of(
        st.just(sys.float_info.max),
        st.floats(-300.0, 3.0).map(lambda e: lo + scale * 10.0 ** e),
    ))
    return d, lo, hi


class TestBoundedGridMinimum:
    """The search reads the bound pass and only the cells it leaves open,
    and returns what a read of the whole grid returns, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(window=search_windows(), grid_points=st.sampled_from([2, 31, 32, 33, 65, 5000]))
    def test_equals_the_full_grid(self, window, grid_points):
        d, lo, hi = window
        assume(lo < hi)  # a span that rounds away
        thetas, i, zeta, bellman = _grid_minimum(d, lo, hi, grid_points)
        got = (i, zeta.hex(), bellman.hex())
        want_i, want_zeta, want_bellman = full_grid_minimum(d, lo, hi, grid_points)
        assert got == (want_i, want_zeta.hex(), want_bellman.hex()), (d, lo, hi)

    @pytest.mark.parametrize("d, lo, hi, first", [
        (Deterministic(1.5), 1.5, 3.0, 0),  # zeta = 3 everywhere, every cell open
        # zeta = 2 + theta below the upper atom 3, then 4: grid point 667, inside
        # a cell, ties with the bound pass's points from 672 on
        (TP, 2.5, 4.0, 667),
    ], ids=["deterministic", "two-point"])
    def test_flat_ties_go_to_the_smallest_theta(self, d, lo, hi, first):
        _, i, zeta, bellman = _grid_minimum(d, lo, hi, 2000)
        want_i, want_zeta, want_bellman = full_grid_minimum(d, lo, hi, 2000)
        assert (i, zeta.hex(), bellman.hex()) == (want_i, want_zeta.hex(), want_bellman.hex())
        assert i == first
        # bound-pass points after the first minimum tie with it
        later_ends = theta_grid(lo, hi)[_CELL * (i // _CELL + 1)::_CELL]
        assert (paoi_thresholds(d, later_ends).zeta == zeta).any()

    @pytest.mark.parametrize("where", ["cell before", "cell after", "first end", "last end"])
    def test_the_first_nan_wins(self, where):
        # M is nan at one point, before or after the bound pass's first
        # minimum e, in one of the open cells beside e or at an end of the
        # bound pass: zeta and c / F are nan there, np.argmin picks it and
        # np.min returns it
        erlang = CATALOG["erlang"]
        lo, hi = default_window(erlang)
        thetas = theta_grid(lo, hi)
        ends = [*range(0, thetas.size - 1, _CELL), thetas.size - 1]
        e = ends[int(np.argmin(paoi_thresholds(erlang, thetas[ends]).zeta))]
        p = {"cell before": e - 1, "cell after": e + 1, "first end": 0, "last end": ends[-1]}[where]
        d = NanMomentAt(3, 1.0, float(thetas[p]))
        _, i, zeta, bellman = _grid_minimum(d, lo, hi, 2000)
        assert (i, zeta.hex(), bellman.hex()) == (p, "nan", "nan")
        want_i, want_zeta, want_bellman = full_grid_minimum(d, lo, hi, 2000)
        assert (want_i, want_zeta.hex(), want_bellman.hex()) == (p, "nan", "nan")

    SOUNDNESS_LAWS = {
        **CATALOG,
        # zeta drops from 2 + theta to 2 E[X] = 2.5 at the atom 1.5, which the
        # 2000-point grid on [1, 2] places inside a cell
        "two-point dip": TwoPoint(1.0, 1.5, 0.5),
        "hyper-exponential 2^8": HyperExponential((256.0, 1.0), (0.5, 0.5)),
    }

    @pytest.mark.parametrize("name", sorted(SOUNDNESS_LAWS))
    def test_shut_cells_stay_above_the_bound_pass(self, name):
        d = self.SOUNDNESS_LAWS[name]
        lo, hi = {"deterministic": (1.5, 3.0), "two-point dip": (1.0, 2.0)}.get(
            name) or default_window(d)
        thetas = theta_grid(lo, hi)
        grid = paoi_thresholds(d, thetas)
        ends = np.append(np.arange(0, thetas.size - 1, _CELL), thetas.size - 1)
        best = np.min(grid.zeta[ends])
        m, sf, f = grid.m, grid.sf, grid.cdf
        with np.errstate(divide="ignore", over="ignore"):
            low = (2.0 * m[ends[:-1]] + thetas[ends[:-1]] * sf[ends[1:]]) / f[ends[1:]]
            ratio = np.divide(2.0 * m + thetas * sf, f, out=np.full(f.size, math.inf), where=f > 0)
        floor = best * (1.0 + _BOUND_SLACK / 2)
        shut = 0
        for k in np.flatnonzero((f[ends[1:]] > 0) & (low > best * (1.0 + _BOUND_SLACK))):
            cell = slice(ends[k] + 1, ends[k + 1])
            assert (grid.zeta[cell] > floor).all(), (name, k)
            assert (ratio[cell] > floor).all(), (name, k)
            shut += 1
        if name in ("erlang", "pareto", "log-normal", "two-point dip"):
            assert shut > 0, name

    @pytest.mark.parametrize("name", ["erlang", "log-normal", "pareto"])
    def test_an_interior_optimum_reads_a_quarter_of_the_grid(self, name, monkeypatch):
        d, read = CATALOG[name], []
        grid_primitives = type(d).grid_primitives

        def counting(self, thetas):
            read.append(len(thetas))
            return grid_primitives(self, thetas)

        monkeypatch.setattr(type(d), "grid_primitives", counting)
        assert min_achievable_paoi(d).evaluations > 2000
        assert sum(read) <= 500, read


@dataclass(frozen=True)
class Uniform(ServiceDistribution):
    """Uniform on (0, b): zeta(theta) = (theta^2 / b + theta (b - theta) / b)
    / (theta / b) = b = 2E[X] on (0, b], so Lemma 1's witness does not
    exist, and no threshold beats zero-wait."""

    b: float

    def _primitives(self, x):
        x = np.minimum(x, self.b)
        return x / self.b, (self.b - x) / self.b, x * x / (2.0 * self.b)

    def quantile(self, q):
        return q * self.b


class TestPreemptionVerdicts:
    def test_two_point_beneficial(self):
        v = benefit_verdict(TP, min_achievable_paoi(TP))
        assert v.beneficial
        assert v.margin == pytest.approx(1.0)
        assert v.witness_theta == 1.0  # the xmin policy wins

    def test_two_point_below_critical(self):
        d = TwoPoint(1.0, 1.9, 0.5)
        v = benefit_verdict(d, min_achievable_paoi(d))
        assert not v.beneficial
        assert v.witness_theta is None
        # the window's upper endpoint is t2, where a right-closed threshold
        # never preempts and ties the zero-wait baseline exactly
        assert v.margin == pytest.approx(0.0, abs=1e-12)

    def test_two_point_below_critical_interior_window(self):
        d = TwoPoint(1.0, 1.9, 0.5)
        v = benefit_verdict(d, min_achievable_paoi(d, 1.0001, 1.8999))
        assert not v.beneficial
        assert v.margin == pytest.approx(2.9 - 3.0, abs=1e-3)

    def test_deterministic_never_beneficial(self):
        d = Deterministic(1.0)
        v = benefit_verdict(d, min_achievable_paoi(d, 1.0, 5.0))
        assert not v.beneficial
        assert v.margin == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("k", range(-20, 21))
    def test_flat_zeta_at_twice_the_mean_is_not_beneficial(self, k):
        # where Lemma 1 does not decide, the search's verdict reads the tie
        d = Uniform(2.0**k)
        v = benefit_verdict(d, min_achievable_paoi(d))
        assert not v.beneficial and v.witness_theta is None
        assert 0.0 <= v.margin <= 1e-12 * d.b

    def test_infinite_mean_short_circuit(self):
        d = Pareto(1.0, 0.5)
        v = benefit_verdict(d, min_achievable_paoi(d))
        assert v.beneficial and math.isinf(v.margin)
        assert v.witness_theta is not None

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.floats(min_value=0.1, max_value=0.9),
        t1=st.floats(min_value=0.2, max_value=3.0),
        bump=st.floats(min_value=0.02, max_value=5.0),
        extra=st.floats(min_value=0.0, max_value=5.0),
    )
    def test_monotone_in_upper_atom(self, p, t1, bump, extra):
        # once beneficial at some t2, beneficial for every larger t2
        base = twopoint_benefit_threshold(p, t1) + bump
        a, b = (benefit_verdict(d, min_achievable_paoi(d))
                for d in (TwoPoint(t1, base, p), TwoPoint(t1, base + extra, p)))
        assert a.beneficial and b.beneficial


class TestResidualCondition:
    def grid(self, d, n=2000):
        return theta_grid(*default_window(d), n)

    def test_erlang_has_no_witness(self):
        for k in (2, 3, 4, 5, 6):
            d = Erlang(k, 1.0)
            v = mean_residual_witness(d, self.grid(d))
            assert not v.beneficial and v.witness_theta is None
            assert v.margin < 0

    def test_exponential_sits_exactly_on_the_boundary(self):
        # memoryless residual equals the mean; the strict inequality never
        # fires, so the sufficient test stays silent
        d = Exponential(1.0)
        v = mean_residual_witness(d, self.grid(d))
        assert not v.beneficial
        assert v.margin == pytest.approx(0.0, abs=1e-9)

    def test_hyper_exponential_witness(self):
        d = CATALOG["hyper-exponential"]
        v = mean_residual_witness(d, self.grid(d))
        assert v.beneficial and v.witness_theta is not None

    def test_pareto_witness(self):
        d = Pareto(1.0, 3.0)
        v = mean_residual_witness(d, self.grid(d))
        assert v.beneficial
        # residual theta/(alpha-1) crosses the mean at theta = 3
        assert v.witness_theta == pytest.approx(3.0, rel=0.02)

    def test_infinite_mean_uninformative(self):
        d = Pareto(1.0, 0.5)
        v = mean_residual_witness(d, self.grid(d))
        assert not v.beneficial and math.isnan(v.margin)

    @pytest.mark.parametrize("name", ["hyper-exponential"])
    def test_witness_implies_exact_verdict(self, name):
        d = CATALOG[name]
        lo, hi = default_window(d)
        suff = mean_residual_witness(d, theta_grid(lo, hi, 2000))
        assert suff.beneficial
        assert benefit_verdict(d, min_achievable_paoi(d, lo, hi)).beneficial

    def test_pareto3_witness_implies_exact_verdict(self):
        d = Pareto(1.0, 3.0)
        lo, hi = default_window(d)
        assert mean_residual_witness(d, theta_grid(lo, hi, 2000)).beneficial
        assert benefit_verdict(d, min_achievable_paoi(d, lo, hi)).beneficial


def loop_witness(d, thetas):
    """The reference for :func:`mean_residual_witness`: ``conditional_residual``
    one threshold at a time, skipping those where it reads ``nan``."""
    mean = d.mean()
    if math.isinf(mean):
        return PreemptionVerdict(False, None, math.nan)
    best_margin = -math.inf
    witness = None
    for theta in np.asarray(thetas, dtype=float).tolist():
        residual = d.conditional_residual(theta)
        if math.isnan(residual):
            continue
        margin = residual - mean
        best_margin = max(best_margin, margin)
        if witness is None and margin > 0.0:
            witness = theta
    return PreemptionVerdict(witness is not None, witness, best_margin)


def assert_same_verdict(got, want):
    assert (got.beneficial, got.witness_theta) == (want.beneficial, want.witness_theta)
    assert got.margin == want.margin or (math.isnan(got.margin) and math.isnan(want.margin))


class TestResidualWitnessFromArrays:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_default_grid_matches_loop(self, name):
        d = CATALOG[name]
        window = (1.5, 3.0) if name == "deterministic" else default_window(d)
        thetas = theta_grid(*window, 2000)
        assert_same_verdict(mean_residual_witness(d, thetas), loop_witness(d, thetas))

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_infinite_mean_is_nan(self, alpha):
        d = Pareto(1.0, alpha)
        thetas = theta_grid(*default_window(d), 2000)
        got = mean_residual_witness(d, thetas)
        assert math.isnan(got.margin) and got.witness_theta is None
        assert_same_verdict(got, loop_witness(d, thetas))

    def test_every_lane_skipped_is_minus_inf(self):
        # P(X > theta) = 0 on the whole window: no residual anywhere
        d = Deterministic(1.5)
        thetas = theta_grid(1.5, 3.0, 2000)
        got = mean_residual_witness(d, thetas)
        assert got.margin == -math.inf and got.witness_theta is None and not got.beneficial
        assert_same_verdict(got, loop_witness(d, thetas))

    @pytest.mark.parametrize("window", [(3.0, 6.0), (0.5, 6.0)])
    def test_two_point_past_the_upper_atom(self, window):
        # P(X > theta) = 0 from t2 = 3 on: the first window skips every lane,
        # the second mixes skipped and live lanes
        thetas = theta_grid(*window, 2000)
        got = mean_residual_witness(TP, thetas)
        assert_same_verdict(got, loop_witness(TP, thetas))
        if window[0] >= TP.t2:
            assert got.margin == -math.inf and got.witness_theta is None


class TestTwoPointCritical:
    def test_worked_example(self):
        assert twopoint_benefit_threshold(0.5, 1.0) == 2.0

    def test_linear_in_t1(self):
        assert twopoint_benefit_threshold(0.5, 2.0) == 4.0

    def test_flip_consistency_with_exact_verdict(self):
        delta = 1e-3
        for p, t1 in ((0.5, 1.0), (0.3, 2.0), (0.7, 0.5)):
            crit = twopoint_benefit_threshold(p, t1)
            above, below = TwoPoint(t1, crit + delta, p), TwoPoint(t1, crit - delta, p)
            assert benefit_verdict(above, min_achievable_paoi(above)).beneficial
            assert not benefit_verdict(below, min_achievable_paoi(below)).beneficial

    def test_validation(self):
        with pytest.raises(ValueError):
            twopoint_benefit_threshold(0.0, 1.0)
        with pytest.raises(ValueError):
            twopoint_benefit_threshold(0.5, -1.0)
