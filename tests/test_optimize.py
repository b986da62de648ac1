import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc, gammaincc

from paoi_lab import (
    Deterministic,
    Erlang,
    Exponential,
    InvalidWindow,
    Pareto,
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
from paoi_lab.optimize import bellman_apply, bellman_tables, benefit_verdict

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
        with pytest.raises(InvalidWindow):
            optimal_threshold(d, 2.0, 1.0)
        with pytest.raises(InvalidWindow):
            optimal_threshold(d, 0.1, math.inf)
        with pytest.raises(InvalidWindow):
            optimal_threshold(Pareto(1.0, 2.0), 0.2, 0.8)
        for tol in (-1.0, math.nan):
            with pytest.raises(InvalidWindow):
                optimal_threshold(d, 0.1, 1.0, tol=tol)

    def test_default_window_collapses_for_deterministic(self):
        with pytest.raises(InvalidWindow):
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


class TestPreemptionVerdicts:
    def test_two_point_beneficial(self):
        v = preemption_beneficial(TP)
        assert v.beneficial and v.condition == "necessary-sufficient"
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
