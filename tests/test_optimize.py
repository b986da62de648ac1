import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc, gammaincc

from paoi_lab import (
    ConfigError,
    Deterministic,
    Erlang,
    Exponential,
    Pareto,
    PreemptionVerdict,
    TwoPoint,
    bellman_fixed_point,
    default_window,
    mean_residual_witness,
    min_achievable_paoi,
    optimal_threshold,
    paoi_fixed_threshold,
    preemption_beneficial,
    theta_grid,
    twopoint_benefit_threshold,
)
from paoi_lab.analytic import paoi_thresholds
from paoi_lab.optimize import _bellman_value, bellman_apply, bellman_tables, benefit_verdict

from conftest import CATALOG

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
        theta, zeta = optimal_threshold(Exponential(1.0), 0.01, 20.0)
        assert theta == pytest.approx(0.01, abs=1e-6)
        assert zeta == pytest.approx(paoi_fixed_threshold(Exponential(1.0), theta).zeta)

    def test_deterministic_flat_curve_ties_to_smallest(self):
        theta, zeta = optimal_threshold(Deterministic(1.0), 1.0, 5.0)
        assert zeta == 2.0
        assert theta == 1.0

    def test_erlang3_interior_minimum_vs_dense_sweep(self):
        d = Erlang(3, 1.0)
        lo, hi = 0.01, 30.0
        theta, zeta = optimal_threshold(d, lo, hi)
        assert lo < theta < hi
        dense = np.linspace(lo, hi, 100_000)
        zd = erlang_zeta_dense(3, 1.0, dense)
        assert zeta <= zd.min() + 1e-7
        assert zeta < min(zd[0], zd[-1]) - 1e-3
        assert abs(theta - dense[zd.argmin()]) < 2e-3

    def test_invalid_windows(self):
        d = Exponential(1.0)
        with pytest.raises(ConfigError):
            optimal_threshold(d, 2.0, 1.0)
        with pytest.raises(ConfigError):
            optimal_threshold(d, 0.1, math.inf)
        with pytest.raises(ConfigError):
            optimal_threshold(Pareto(1.0, 2.0), 0.2, 0.8)
        for tol in (-1.0, math.nan):
            with pytest.raises(ConfigError):
                optimal_threshold(d, 0.1, 1.0, tol=tol)

    @pytest.mark.parametrize("tol", [1e-300, 5e-324])
    def test_tiny_tolerance_over_a_wide_bracket(self, tol):
        # tol / (hi - lo) underflows to 0, whose log raised ValueError
        theta, zeta = optimal_threshold(Exponential(1.0), 0.5, 1e300, tol=tol, grid_points=2)
        assert theta == 0.5
        assert zeta == paoi_fixed_threshold(Exponential(1.0), 0.5).zeta

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
        fp = bellman_fixed_point(d, lo, hi)
        thetas = theta_grid(lo, hi, 2000)
        grid_min = min(paoi_fixed_threshold(d, float(t)).zeta for t in thetas)
        assert fp == pytest.approx(grid_min, rel=1e-9)

    def test_deterministic_single_sweep(self):
        assert bellman_fixed_point(Deterministic(1.0), 1.0, 5.0) == 2.0

    def test_exponential_left_endpoint_window(self):
        # increasing curve: the fixed point is the left endpoint's value
        d = Exponential(1.0)
        fp = bellman_fixed_point(d, 0.5, 10.0)
        assert fp == pytest.approx(paoi_fixed_threshold(d, 0.5).zeta, rel=1e-9)

    def test_support_edge_windows_match_grid_minimum(self):
        # P(X > theta_min) == 1 here, so these windows admit no contraction
        # modulus; F == 0 at theta = 0 must not be divided by
        for d, lo, hi in [(Pareto(1.0, 2.0), 1.0, 5.0), (Exponential(1.0), 0.0, 5.0)]:
            fp = bellman_fixed_point(d, lo, hi)
            grid_min = min(paoi_fixed_threshold(d, float(t)).zeta for t in theta_grid(lo, hi))
            assert fp == pytest.approx(grid_min, rel=1e-12), d

    def test_policy_iteration_at_catalog_default_windows(self):
        # the default windows start at theta = 1e-9: P(X > theta) rounds to 1
        # there for Erlang and log-normal, and the exponential and
        # hyper-exponential optima sit there
        for name, d in CATALOG.items():
            lo, hi = (1.5, 3.0) if name == "deterministic" else default_window(d)
            fp = bellman_fixed_point(d, lo, hi)
            grid_min = min(paoi_fixed_threshold(d, float(t)).zeta for t in theta_grid(lo, hi))
            assert fp == pytest.approx(grid_min, rel=1e-9), name
            # the search's own cross-check, on the arrays it read
            assert min_achievable_paoi(d, lo, hi).bellman_value == fp, name

    def test_contraction_modulus(self):
        d = CATALOG["erlang"]
        lo, hi = self.WINDOWS["erlang"]
        _, cost, surv = bellman_tables(d, lo, hi)
        modulus = surv[0]
        rng = np.random.default_rng(5)
        for _ in range(100):
            u1, u2 = rng.uniform(0.0, 50.0, size=2)
            t1, t2 = bellman_apply(cost, surv, u1), bellman_apply(cost, surv, u2)
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
                fp = bellman_fixed_point(d, lo, hi, grid_points=400)
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
    thetas, cost, _ = bellman_tables(d, lo, hi, grid_points)
    return policy_iteration(cost, paoi_thresholds(d, thetas).cdf)


class TestBellmanClosedForm:
    """The fixed point read as the grid's smallest ``c/F`` equals the
    policy-iteration loop bit for bit, except on windows that start far
    down the lower tail, where the loop can stop above the minimum."""

    def assert_matches_loop(self, d, lo, hi, grid_points=2000):
        want = reference_fixed_point(d, lo, hi, grid_points)
        assert bellman_fixed_point(d, lo, hi, grid_points) == want, (d, lo, hi)
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
        thetas, cost, _ = bellman_tables(d, lo, hi, grid_points)
        f = paoi_thresholds(d, thetas).cdf
        got = bellman_fixed_point(d, lo, hi, grid_points)
        ratios = [c / x for c, x in zip(cost.tolist(), f.tolist()) if x > 0.0]
        assert got == min(ratios, default=math.inf)
        assert got <= policy_iteration(cost, f)

    def test_loop_stops_short_in_the_far_lower_tail(self):
        # at theta = 1e-300 the first grid point's gain F * (U - c/F) is far
        # below the rounding of c - U F at the other points, so the loop
        # stops a step early; zeta(s_theta) there is 1 + O(theta)
        d = Exponential(1.0)
        thetas, cost, _ = bellman_tables(d, 1e-300, 0.0135, 45)
        f = paoi_thresholds(d, thetas).cdf
        assert cost[0] / f[0] == 1.0
        assert bellman_fixed_point(d, 1e-300, 0.0135, 45) == 1.0
        assert policy_iteration(cost, f) > 1.0

    def test_no_delivering_grid_point_is_inf(self):
        cost, f = np.array([1.0, 2.0]), np.zeros(2)
        assert _bellman_value(cost, f) == policy_iteration(cost, f) == math.inf

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_is_a_fixed_point_of_the_operator(self, name):
        d = CATALOG[name]
        if name == "deterministic":
            windows = [(1.5, 3.0), (d.value, 5 * d.value)]
        else:
            windows = [default_window(d), (d.quantile(0.05), d.quantile(0.9))]
        for lo, hi in windows:
            u = bellman_fixed_point(d, lo, hi)
            _, cost, surv = bellman_tables(d, lo, hi)
            assert abs(bellman_apply(cost, surv, u) - u) <= 4 * math.ulp(u), (lo, hi)


class TestPreemptionVerdicts:
    def test_two_point_beneficial(self):
        v = preemption_beneficial(TP)
        assert v.beneficial
        assert v.margin == pytest.approx(1.0)
        assert v.witness_theta == 1.0  # the xmin policy wins

    def test_two_point_below_critical(self):
        v = preemption_beneficial(TwoPoint(1.0, 1.9, 0.5))
        assert not v.beneficial
        assert v.witness_theta is None
        # the window's upper endpoint is t2, where a right-closed threshold
        # never preempts and ties the zero-wait baseline exactly
        assert v.margin == pytest.approx(0.0, abs=1e-12)

    def test_two_point_below_critical_interior_window(self):
        v = preemption_beneficial(TwoPoint(1.0, 1.9, 0.5), 1.0001, 1.8999)
        assert not v.beneficial
        assert v.margin == pytest.approx(2.9 - 3.0, abs=1e-3)

    def test_deterministic_never_beneficial(self):
        v = preemption_beneficial(Deterministic(1.0), 1.0, 5.0)
        assert not v.beneficial
        assert v.margin == pytest.approx(0.0, abs=1e-12)

    def test_infinite_mean_short_circuit(self):
        v = preemption_beneficial(Pareto(1.0, 0.5))
        assert v.beneficial and math.isinf(v.margin)
        assert v.witness_theta is not None

    @pytest.mark.parametrize(
        "d", [TP, TwoPoint(1.0, 1.9, 0.5), Erlang(3, 1.0), Pareto(1.0, 2.0), Pareto(1.0, 0.5)]
    )
    def test_verdict_reads_the_optimization(self, d):
        assert benefit_verdict(d, min_achievable_paoi(d)) == preemption_beneficial(d)

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
        a = preemption_beneficial(TwoPoint(t1, base, p))
        b = preemption_beneficial(TwoPoint(t1, base + extra, p))
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
        assert preemption_beneficial(d, lo, hi).beneficial

    def test_pareto3_witness_implies_exact_verdict(self):
        d = Pareto(1.0, 3.0)
        lo, hi = default_window(d)
        assert mean_residual_witness(d, theta_grid(lo, hi, 2000)).beneficial
        assert preemption_beneficial(d, lo, hi).beneficial


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
            above = preemption_beneficial(TwoPoint(t1, crit + delta, p))
            below = preemption_beneficial(TwoPoint(t1, crit - delta, p))
            assert above.beneficial
            assert not below.beneficial

    def test_validation(self):
        with pytest.raises(ValueError):
            twopoint_benefit_threshold(0.0, 1.0)
        with pytest.raises(ValueError):
            twopoint_benefit_threshold(0.5, -1.0)
