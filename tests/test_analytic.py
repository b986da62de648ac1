import math

import mpmath as mp
import numpy as np
import pytest

from paoi_lab import (
    ConfigError,
    Deterministic,
    Exponential,
    PaoiValue,
    Pareto,
    PointSampler,
    RandomizedThreshold,
    RepetitiveSequence,
    TwoPoint,
    XMinThreshold,
    ZeroWait,
    paoi_fixed_threshold,
    paoi_policy,
    paoi_repetitive,
    paoi_xmin,
    paoi_zero_wait,
)
from paoi_lab.analytic import paoi_thresholds
from paoi_lab.optimize import default_window, theta_grid
from paoi_lab.policies import FixedThreshold, MedianThreshold, resolve

from conftest import CATALOG, FINITE_MEAN, SCALED, theta_probe_grid

TP = CATALOG["two-point"]
EXP = CATALOG["exponential"]


class TestReceivedService:
    def test_two_point_case(self):
        assert paoi_fixed_threshold(TP, 2.0).received_service == 1.0

    def test_deterministic_above_atom(self):
        assert paoi_fixed_threshold(Deterministic(1.0), 1.5).received_service == 1.0

    def test_exponential_ratio(self):
        expected = (1 - 2 * math.exp(-1)) / (1 - math.exp(-1))
        value = paoi_fixed_threshold(EXP, 1.0).received_service
        assert value == pytest.approx(expected, rel=1e-12)

    def test_infinite_when_threshold_below_support(self):
        assert math.isinf(paoi_fixed_threshold(TP, 0.5).received_service)
        assert math.isinf(paoi_fixed_threshold(EXP, 0.0).received_service)

    def test_nondecreasing_in_theta(self, member):
        grid = theta_probe_grid(member, n=15)
        values = [paoi_fixed_threshold(member, float(t)).received_service for t in grid]
        finite = [v for v in values if math.isfinite(v)]
        assert all(b >= a - 1e-10 for a, b in zip(finite, finite[1:]))


class TestInterreception:
    def test_exponential_memoryless_rate_recovery(self):
        # every preempted attempt costs theta, but the residual restarts:
        # the mean spacing stays exactly the mean service time
        for rate in (0.5, 1.0, 2.0):
            d = Exponential(rate)
            for theta in np.linspace(0.05, 8.0, 20):
                assert paoi_fixed_threshold(d, float(theta)).interreception == pytest.approx(
                    1.0 / rate, rel=1e-12
                )

    def test_deterministic(self):
        assert paoi_fixed_threshold(Deterministic(2.0), 2.0).interreception == 2.0

    def test_two_point_case(self):
        assert paoi_fixed_threshold(TP, 2.0).interreception == 3.0

    def test_identity_vs_received_service(self, member):
        # E[Y] - E[Xr] = theta * P(X > theta) / F(theta)
        for theta in theta_probe_grid(member, n=25, q_lo=0.02, q_hi=0.98):
            theta = float(theta)
            f = member.cdf(theta)
            if f <= 0:
                continue
            v = paoi_fixed_threshold(member, theta)
            gap = v.interreception - v.received_service
            assert gap == pytest.approx(theta * member.sf(theta) / f, rel=1e-8, abs=1e-12)


class TestFixedThreshold:
    def test_two_point_closed_form(self):
        # (2 p t1 + (1-p) theta) / p while the upper atom still preempts,
        # i.e. on [t1, t2); at theta = t2 the atom completes within the
        # right-closed threshold and the value drops to 2 E[X]
        for theta in np.linspace(1.0, 3.0, 25)[:-1]:
            v = paoi_fixed_threshold(TP, float(theta))
            assert v.zeta == pytest.approx((2 * 0.5 * 1.0 + 0.5 * theta) / 0.5, abs=1e-12)
        assert paoi_fixed_threshold(TP, 2.0).zeta == 4.0
        assert paoi_fixed_threshold(TP, 3.0).zeta == 4.0

    def test_deterministic(self):
        v = paoi_fixed_threshold(Deterministic(1.0), 1.0)
        assert (v.zeta, v.received_service, v.interreception) == (2.0, 1.0, 1.0)

    def test_exponential(self):
        assert paoi_fixed_threshold(EXP, 1.0).zeta == pytest.approx(1.41802329, abs=1e-7)

    def test_components_sum(self, member):
        for theta in theta_probe_grid(member, n=10):
            v = paoi_fixed_threshold(member, float(theta))
            if math.isfinite(v.zeta):
                assert v.zeta == pytest.approx(v.received_service + v.interreception)
                assert v.interreception >= v.received_service - 1e-12

    def test_lower_bound_twice_support_min(self, member):
        lo = member.support_min()
        for theta in theta_probe_grid(member, n=10):
            z = paoi_fixed_threshold(member, float(theta)).zeta
            if math.isfinite(z):
                assert z >= 2 * lo - 1e-9

    def test_pareto_half_optimum_to_fifty_digits(self):
        # Pareto(1, 1/2): zeta = (3u - 2) u / (u - 1) with u = sqrt(theta),
        # least at u = 1 + 1/sqrt(3), where it is 4 + 2 sqrt(3)
        with mp.workdps(50):
            theta = float((1 + 1 / mp.sqrt(3)) ** 2)
            want = 4 + 2 * mp.sqrt(3)
            z = paoi_fixed_threshold(Pareto(1.0, 0.5), theta).zeta
            assert abs(z - want) <= 1e-14 * want

    def test_value_is_an_immutable_named_record(self):
        v = PaoiValue(zeta=3.0, received_service=1.0, interreception=2.0)
        assert v == PaoiValue(3.0, 1.0, 2.0)
        assert repr(v) == "PaoiValue(zeta=3.0, received_service=1.0, interreception=2.0)"
        with pytest.raises(AttributeError):
            v.zeta = 0.0

    @pytest.mark.parametrize("name", FINITE_MEAN)
    def test_large_threshold_limit_is_zero_wait(self, name):
        d = CATALOG[name]
        theta = d.quantile(1 - 1e-9)
        z = paoi_fixed_threshold(d, theta).zeta
        assert z == pytest.approx(2 * d.mean(), rel=1e-4)


class TestThresholdGrid:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_grid_equals_fixed_threshold(self, name):
        # points below the support, the support minimum, the atoms and the
        # default window, evaluated in one pass
        d = CATALOG[name]
        lo, hi = (1.5, 3.0) if name == "deterministic" else default_window(d)
        atoms = [getattr(d, a) for a in ("t1", "t2", "value") if hasattr(d, a)]
        xmin = d.support_min()
        thetas = [0.0, 0.5 * xmin, xmin, *atoms, *theta_grid(lo, hi, 300).tolist()]
        grid = paoi_thresholds(d, thetas)
        for i, theta in enumerate(thetas):
            v = paoi_fixed_threshold(d, theta)
            got = (grid.zeta[i], grid.received_service[i], grid.interreception[i])
            assert got == (v.zeta, v.received_service, v.interreception), (name, theta)
            assert (grid.cdf[i], grid.sf[i], grid.m[i]) == (
                d.cdf(theta), d.sf(theta), d.truncated_first_moment(theta))
        undelivered = grid.cdf == 0.0
        assert undelivered[0]  # theta = 0 never delivers on any catalog law
        assert np.all(np.isinf(np.array(grid[:3])[:, undelivered]))
        assert np.all(np.isfinite(np.array(grid[:3])[:, ~undelivered]))

    @pytest.mark.parametrize(
        "d", [*CATALOG.values(), Pareto(1.0, 0.5)], ids=[*CATALOG, "pareto-a0.5"])
    def test_infinite_threshold_reads_zero_wait(self, d):
        # theta = inf never preempts: the row is (2 E[X], E[X], E[X]), as for
        # a single value, where the formula would multiply inf * 0
        grid = paoi_thresholds(d, [d.support_min() + 1.0, math.inf])
        v = paoi_fixed_threshold(d, math.inf)
        assert (grid.zeta[1], grid.received_service[1], grid.interreception[1]) == (
            v.zeta, v.received_service, v.interreception)
        assert grid.zeta[1] == paoi_zero_wait(d)
        assert grid.zeta[0] == paoi_fixed_threshold(d, d.support_min() + 1.0).zeta

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_nan_threshold_never_delivers(self, name):
        # nan is outside every support: (F, sf, M) = (0, 1, 0) and zeta = inf,
        # alone as on a grid
        d = CATALOG[name]
        grid = paoi_thresholds(d, [math.nan])
        v = paoi_fixed_threshold(d, math.nan)
        assert (grid.zeta[0], grid.received_service[0], grid.interreception[0]) == (
            v.zeta, v.received_service, v.interreception) == (math.inf,) * 3
        assert (grid.cdf[0], grid.sf[0], grid.m[0]) == d.primitives(math.nan) == (0.0, 1.0, 0.0)


class TestTimeScale:
    """zeta(s X, s theta) = s zeta(X, theta): with s = 2^k every step of the
    formula scales exactly, except log-normal's, whose mu moves by log(s)."""

    SCALES = [2.0 ** k for k in range(-60, 61)]

    @staticmethod
    def thresholds(d):
        atoms = [a for a, _ in d.atoms()]
        return np.array([0.0, 0.5 * d.support_min(), d.support_min(), *atoms,
                         *theta_probe_grid(d, 40, 1e-3, 1 - 1e-3), math.inf])

    @staticmethod
    def assert_scaled(name, got, want):
        if name == "log-normal":  # 1.5e-14 measured
            np.testing.assert_allclose(got, want, rtol=1e-13)
        else:
            assert [float(g).hex() for g in got] == [float(w).hex() for w in want]

    @pytest.mark.parametrize("name", sorted(SCALED))
    def test_grid_scales_with_the_time_unit(self, name):
        d = CATALOG[name]
        thetas = self.thresholds(d)
        zeta = paoi_thresholds(d, thetas).zeta
        for s in self.SCALES:
            self.assert_scaled(name, paoi_thresholds(SCALED[name](s), s * thetas).zeta, s * zeta)

    @pytest.mark.parametrize("name", sorted(SCALED))
    def test_fixed_threshold_scales_with_the_time_unit(self, name):
        d = CATALOG[name]
        thetas = self.thresholds(d)
        zeta = [paoi_fixed_threshold(d, t).zeta for t in thetas]
        for s in self.SCALES:
            got = [paoi_fixed_threshold(SCALED[name](s), s * t).zeta for t in thetas]
            self.assert_scaled(name, got, [s * z for z in zeta])


class TestSimplePolicies:
    def test_zero_wait(self):
        assert paoi_zero_wait(TP) == 4.0
        assert paoi_zero_wait(Deterministic(2.0)) == 4.0
        assert math.isinf(paoi_zero_wait(Pareto(1.0, 0.5)))

    def test_xmin_with_atom(self):
        # t1 (1+p) / p
        assert paoi_xmin(TP) == 3.0
        assert paoi_xmin(TwoPoint(2.0, 5.0, 0.25)) == pytest.approx(2 * 1.25 / 0.25)
        assert paoi_xmin(Deterministic(1.0)) == 2.0

    def test_xmin_without_atom_is_infinite(self):
        assert not EXP.atoms()
        assert math.isinf(paoi_xmin(EXP))
        assert math.isinf(paoi_xmin(CATALOG["pareto"]))


class TestRepetitiveSeries:
    def naive_series(self, d, thetas, terms=4000):
        """Direct partial-sum of the defining series, no tail closed form."""

        def theta_at(i):  # 1-based
            return thetas[min(i, len(thetas)) - 1]

        ex = d.truncated_first_moment(theta_at(1))
        extra = 0.0
        prefix = 1.0
        spent = 0.0
        for j in range(1, terms):
            prefix *= d.sf(theta_at(j))
            spent += theta_at(j)
            if prefix == 0.0:
                break
            ex += prefix * d.truncated_first_moment(theta_at(j + 1))
            extra += prefix * d.cdf(theta_at(j + 1)) * spent
        return 2 * ex + extra

    def test_constant_sequence_collapses_to_fixed_threshold(self, member):
        for q in (0.2, 0.4, 0.6, 0.8, 0.95):
            theta = member.quantile(q)
            got = paoi_repetitive(member, RepetitiveSequence((theta,)))
            assert got == paoi_fixed_threshold(member, theta)

    def test_deterministic_single_attempt(self):
        v = paoi_repetitive(Deterministic(1.0), RepetitiveSequence((1.0,)))
        assert v.zeta == 2.0

    def test_two_point_no_preemption(self):
        v = paoi_repetitive(TP, RepetitiveSequence((3.0,)))
        assert v.zeta == 4.0
        assert v.received_service == 2.0

    def test_varying_sequence_matches_naive_sum(self):
        seq = RepetitiveSequence((0.5, 1.5, 2.5))
        got = paoi_repetitive(EXP, seq)
        assert got.zeta == pytest.approx(self.naive_series(EXP, seq.thresholds), rel=1e-10)

        seq2 = RepetitiveSequence((1.0, 2.0))
        got2 = paoi_repetitive(TP, seq2)
        assert got2.zeta == pytest.approx(self.naive_series(TP, seq2.thresholds), rel=1e-10)

    def test_tail_below_support_diverges(self):
        inf = PaoiValue(math.inf, math.inf, math.inf)
        assert paoi_repetitive(CATALOG["pareto"], RepetitiveSequence((1.0,))) == inf
        assert paoi_repetitive(EXP, RepetitiveSequence((0.0,))) == inf
        assert paoi_repetitive(EXP, RepetitiveSequence((2.0, 0.0))) == inf

    def test_thresholds_below_support_burn_their_length(self):
        fixed = paoi_fixed_threshold(TP, 2.0)
        got = paoi_repetitive(TP, RepetitiveSequence((0.5, 2.0)))
        assert got.zeta == fixed.zeta + 0.5
        assert got.received_service == fixed.received_service
        assert got.interreception == fixed.interreception + 0.5

    def test_unreached_tail_is_skipped(self):
        # the first attempt always delivers, so the undeliverable tail
        # threshold is never used and contributes no inf
        got = paoi_repetitive(TP, RepetitiveSequence((3.0, 0.5)))
        assert got == paoi_fixed_threshold(TP, 3.0)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            RepetitiveSequence(())


class TestPolicyDispatch:
    def test_zero_wait_components(self):
        v = paoi_policy(EXP, ZeroWait())
        assert (v.zeta, v.received_service, v.interreception) == (2.0, 1.0, 1.0)

    def test_xmin_dispatch(self):
        assert paoi_policy(TP, XMinThreshold()).zeta == 3.0
        assert math.isinf(paoi_policy(EXP, XMinThreshold()).zeta)

    def test_median_sugar(self):
        v = paoi_policy(TP, MedianThreshold())
        assert v.zeta == paoi_fixed_threshold(TP, TP.quantile(0.5)).zeta == 3.0

    def test_randomized_has_no_closed_form(self):
        with pytest.raises(ConfigError):
            paoi_policy(EXP, RandomizedThreshold(PointSampler(1.0)))


class TestResolve:
    @pytest.mark.parametrize(
        "d, xmin, median",
        [(TwoPoint(1.0, 3.0, 0.5), 1.0, 1.0), (Exponential(1.0), 0.0, math.log(2.0))],
    )
    def test_policy_to_thresholds(self, d, xmin, median):
        assert resolve(FixedThreshold(2.0), d) == (2.0,)
        assert resolve(ZeroWait(), d) == (math.inf,)
        assert resolve(XMinThreshold(), d) == (xmin,)
        assert resolve(MedianThreshold(), d) == (median,)
        assert resolve(RepetitiveSequence((1.0, 2.0)), d) == (1.0, 2.0)
        assert resolve(RandomizedThreshold(PointSampler(1.0)), d) is None
        with pytest.raises(TypeError):
            resolve(object(), d)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_infinite_threshold_is_zero_wait(self, name):
        d = CATALOG[name]
        assert paoi_policy(d, FixedThreshold(math.inf)) == paoi_policy(d, ZeroWait())
