import math
import time
import tracemalloc
from dataclasses import dataclass
from functools import partial
from itertools import count, islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from paoi_lab import (
    ChoiceSampler,
    ConfigError,
    Deterministic,
    Erlang,
    Exponential,
    FixedThreshold,
    HyperExponential,
    MedianThreshold,
    Pareto,
    PointSampler,
    RandomizedThreshold,
    RepetitiveSequence,
    ServiceDistribution,
    SimulationStall,
    TriangularSampler,
    TwoPoint,
    UniformSampler,
    XMinThreshold,
    ZeroWait,
    aoi_trajectory,
    estimate_paoi,
    optimal_threshold,
    paoi_fixed_threshold,
    paoi_repetitive,
    paoi_xmin,
    pooled_estimate,
    run_replications,
    simulate,
    simulate_peaks,
)
from paoi_lab.policies import resolve
from paoi_lab.simulate import (
    DEFAULT_STALL_LIMIT,
    PaoiEstimate,
    _batch_means,
    _Engine,
    _lockstep,
)


@dataclass
class Scripted(ServiceDistribution):
    """Replays a fixed list of service times; for hand-traced paths."""

    draws: tuple

    def __post_init__(self):
        self._queue = list(self.draws)

    def cdf(self, x):
        raise NotImplementedError

    def sf(self, x):
        raise NotImplementedError

    def support_min(self):
        return 0.0

    def mean(self):
        raise NotImplementedError

    def truncated_first_moment(self, theta):
        raise NotImplementedError

    def integrated_cdf(self, theta):
        raise NotImplementedError

    def quantile(self, q):
        raise NotImplementedError

    def sample_batch(self, rng, n):
        out, self._queue = self._queue[:n], self._queue[n:]
        if len(out) < n:
            out = out + [0.0] * (n - len(out))
        return np.array(out)


class TestEventLoop:
    def test_hand_trace_zero_wait(self):
        # initial AoI 0, then services 1, 2, 3: receptions at 1, 3, 6 and
        # peaks 1, 3, 5
        d = Scripted((0.0, 1.0, 2.0, 3.0))
        records = simulate_peaks(d, ZeroWait(), peaks=3, seed=0)
        assert [r.peak for r in records] == [1.0, 3.0, 5.0]
        assert [r.receive_time for r in records] == [1.0, 3.0, 6.0]
        assert [r.received_service for r in records] == [0.0, 1.0, 2.0]
        assert [r.interreception for r in records] == [1.0, 2.0, 3.0]
        assert all(r.preemptions == 0 for r in records)

    def test_hand_trace_with_preemption(self):
        # threshold 2: the 5.0 draw is cut at 2, then 1.5 completes
        d = Scripted((1.0, 5.0, 1.5, 0.5))
        records = simulate_peaks(d, FixedThreshold(2.0), peaks=2, seed=0)
        first = records[0]
        assert first.preemptions == 1
        assert first.interreception == 2.0 + 1.5
        assert first.peak == 1.0 + 3.5
        assert records[1].received_service == 1.5

    def test_threshold_tie_counts_as_reception(self):
        d = Scripted((1.0, 2.0))
        records = simulate_peaks(d, FixedThreshold(2.0), peaks=1, seed=0)
        assert records[0].preemptions == 0
        assert records[0].interreception == 2.0

    def test_deterministic_zero_wait(self):
        records = simulate_peaks(Deterministic(1.0), ZeroWait(), peaks=3, seed=99)
        assert [r.peak for r in records] == [2.0, 2.0, 2.0]

    def test_decomposition_identity(self):
        records = simulate_peaks(Erlang(2, 1.0), FixedThreshold(2.5), peaks=5000, seed=4)
        for r in records:
            assert r.peak == r.received_service + r.interreception
        # carried service chains across consecutive peaks and obeys the cap
        for prev, cur in zip(records, records[1:]):
            assert cur.received_service <= 2.5
            assert cur.receive_time == pytest.approx(
                prev.receive_time + cur.interreception
            )

    def test_work_conserving_no_idle_time(self):
        records = simulate_peaks(Exponential(1.0), FixedThreshold(1.0), peaks=2000, seed=8)
        t = 0.0
        for r in records:
            t += r.interreception
            assert r.receive_time == pytest.approx(t)

    def test_seed_determinism(self):
        a = simulate_peaks(Pareto(1.0, 2.0), FixedThreshold(2.0), peaks=500, seed=31)
        b = simulate_peaks(Pareto(1.0, 2.0), FixedThreshold(2.0), peaks=500, seed=31)
        assert a.tolist() == b.tolist()

    def test_warmup_drops_leading_peaks(self):
        full = simulate_peaks(Exponential(1.0), ZeroWait(), peaks=10, seed=5)
        tail = simulate_peaks(Exponential(1.0), ZeroWait(), peaks=7, seed=5, warmup=3)
        assert tail.tolist() == full[3:].tolist()

    def test_stall_guard(self):
        with pytest.raises(SimulationStall):
            simulate_peaks(
                Exponential(1.0), FixedThreshold(0.0), peaks=1, seed=1, stall_limit=500
            )

    def test_certain_stall_raises_before_any_draw(self):
        # P(X <= 0.5) = 0 under Pareto(1, 2): at the default stall_limit the
        # loop would run 1e9 attempts before giving up
        class Undrawn(Pareto):
            def sample_batch(self, rng, n):
                raise AssertionError("drew a service time")

        with pytest.raises(SimulationStall, match="can deliver"):
            simulate_peaks(Undrawn(1.0, 2.0), FixedThreshold(0.5), peaks=1, seed=1)

    def test_stranding_tail_raises_before_any_draw(self):
        # a peak that misses its first attempt waits on theta = 0 forever
        class Undrawn(Exponential):
            def sample_batch(self, rng, n):
                raise AssertionError("drew a service time")

        seq = RepetitiveSequence((2.0, 0.0))
        with pytest.raises(SimulationStall, match="repeating last threshold"):
            simulate_peaks(Undrawn(1.0), seq, peaks=1, seed=1)

    @pytest.mark.parametrize("run", [simulate_peaks, aoi_trajectory])
    def test_stall_limit_below_one_raises_before_any_draw(self, run):
        class Undrawn(Exponential):
            def sample_batch(self, rng, n):
                raise AssertionError("drew a service time")

        with pytest.raises(ValueError, match="stall_limit"):
            run(Undrawn(1.0), FixedThreshold(2.0), 10, 1, stall_limit=0)

    @pytest.mark.parametrize("counts", [{"peaks": 2.5}, {"peaks": 2, "warmup": 1.0}])
    def test_counts_that_are_not_integers_raise_before_any_draw(self, counts):
        class Undrawn(Exponential):
            def sample_batch(self, rng, n):
                raise AssertionError("drew a service time")

        with pytest.raises(TypeError, match="must be an integer"):
            simulate_peaks(Undrawn(1.0), ZeroWait(), seed=1, **counts)
        with pytest.raises(TypeError, match="must be an integer"):
            run_replications(Undrawn(1.0), ZeroWait(), replications=1, base_seed=1, **counts)

    @pytest.mark.parametrize("stall_limit", [float("nan"), 2.5, 500.0])
    def test_a_stall_limit_that_is_not_an_integer_raises_before_any_draw(self, stall_limit):
        # nan compares false with every count, so the guard would never fire
        class Undrawn(Exponential):
            def sample_batch(self, rng, n):
                raise AssertionError("drew a service time")

        d, policy = Undrawn(1.0), FixedThreshold(1e-3)
        for run in (
            partial(simulate_peaks, d, policy, 50, 1),
            partial(aoi_trajectory, d, policy, 10.0, 1),
            partial(run_replications, d, policy, 50, 1, 1),
        ):
            with pytest.raises(TypeError, match="stall_limit must be an integer"):
                run(stall_limit=stall_limit)

    def test_unreached_tail_does_not_stall(self):
        # the first attempt at theta = 3 always delivers, so the tail
        # threshold below the support is never used
        tp = TwoPoint(1.0, 3.0, 0.5)
        records = simulate_peaks(tp, RepetitiveSequence((3.0, 0.5)), peaks=20_000, seed=4)
        est = estimate_paoi(records)
        assert all(r.preemptions == 0 for r in records)
        assert abs(est.mean - 4.0) < 3 * est.std_error

    def test_xmin_policy_on_atom(self):
        tp = TwoPoint(1.0, 3.0, 0.5)
        records = simulate_peaks(tp, XMinThreshold(), peaks=100_000, seed=12)
        est = estimate_paoi(records)
        assert abs(est.mean - paoi_xmin(tp)) < 3 * est.std_error

    def test_preemption_counts_are_geometric(self):
        tp = TwoPoint(1.0, 3.0, 0.5)
        records = simulate_peaks(tp, FixedThreshold(1.0), peaks=100_000, seed=21)
        counts = records.preemptions
        # success probability F(theta) = 0.5; pool the tail beyond 9
        kmax = 10
        observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
        expected = np.array(
            [0.5 * 0.5**k for k in range(kmax)] + [0.5**kmax]
        ) * len(counts)
        chi = stats.chisquare(observed, expected)
        assert chi.pvalue > 0.01

    def test_component_means_match_analytics(self):
        d = Erlang(2, 1.0)
        theta = 2.0
        records = simulate_peaks(d, FixedThreshold(theta), peaks=100_000, seed=17)
        xr = records.received_service[1:]  # skip initial draw
        y = records.interreception
        value = paoi_fixed_threshold(d, theta)
        ex, ey = value.received_service, value.interreception
        assert abs(xr.mean() - ex) < 3 * xr.std(ddof=1) / math.sqrt(len(xr))
        assert abs(y.mean() - ey) < 3 * y.std(ddof=1) / math.sqrt(len(y))


class TestEstimator:
    def test_constant_peaks(self):
        records = simulate_peaks(Deterministic(1.0), ZeroWait(), peaks=3, seed=0)
        est = estimate_paoi(records)
        assert est.mean == 2.0 and est.std_error == 0.0
        assert (est.ci_low, est.ci_high) == (2.0, 2.0)
        assert est.peak_count == 3

    def test_needs_two_peaks(self):
        records = simulate_peaks(Deterministic(1.0), ZeroWait(), peaks=1, seed=0)
        with pytest.raises(ValueError):
            estimate_paoi(records)

    def test_zero_wait_matches_twice_the_mean(self):
        records = simulate_peaks(Exponential(1.0), ZeroWait(), peaks=100_000, seed=3)
        est = estimate_paoi(records)
        assert abs(est.mean - 2.0) < 3 * est.std_error

    def test_fixed_threshold_matches_analytics(self):
        d = Erlang(2, 1.0)
        theta, zeta = optimal_threshold(d, 0.05, 20.0)
        records = simulate_peaks(d, FixedThreshold(theta), peaks=100_000, seed=13)
        est = estimate_paoi(records)
        assert est.ci_low <= zeta <= est.ci_high

    def test_ci_width_definition(self):
        records = simulate_peaks(Exponential(1.0), ZeroWait(), peaks=5000, seed=2)
        est = estimate_paoi(records)
        assert est.ci_high - est.ci_low == pytest.approx(2 * 1.96 * est.std_error)

    def test_pooled_interval_is_mean_plus_minus_z_se(self):
        ests = run_replications(Erlang(3, 1.0), FixedThreshold(2.0), 3000, 3, base_seed=8)
        pooled = pooled_estimate(ests)
        assert pooled.ci_low == pooled.mean - 1.96 * pooled.std_error
        assert pooled.ci_high == pooled.mean + 1.96 * pooled.std_error

    def test_an_overflowed_mean_has_a_nan_interval(self):
        # the sum of the peaks overflows, and so does their spread: the
        # interval is nan at both ends, not [inf - inf, inf + inf]
        peaks = np.rec.fromarrays([np.array([1e308, 1.7e308])], names="peak")
        est = estimate_paoi(peaks)
        assert (est.mean, est.std_error) == (math.inf, math.inf)
        assert math.isnan(est.ci_low) and math.isnan(est.ci_high)
        pooled = pooled_estimate([est, est])
        assert (pooled.mean, pooled.std_error) == (math.inf, math.inf)
        assert math.isnan(pooled.ci_low) and math.isnan(pooled.ci_high)

    def test_pooling(self):
        ests = run_replications(
            Exponential(1.0), ZeroWait(), peaks=5000, replications=4, base_seed=100
        )
        assert [e.seed for e in ests] == [100, 101, 102, 103]
        pooled = pooled_estimate(ests, seed=100)
        assert pooled.peak_count == 20_000
        assert pooled.mean == pytest.approx(np.mean([e.mean for e in ests]))
        again = run_replications(
            Exponential(1.0), ZeroWait(), peaks=5000, replications=4, base_seed=100
        )
        assert ests == again


class TestTrajectory:
    def test_deterministic_sawtooth(self):
        points = aoi_trajectory(Deterministic(1.0), ZeroWait(), horizon=3.0, seed=0)
        assert [(p.time, p.peak, p.reset_to) for p in points] == [
            (1.0, 2.0, 1.0),
            (2.0, 2.0, 1.0),
            (3.0, 2.0, 1.0),
        ]

    def test_reset_value_is_received_service(self):
        points = aoi_trajectory(Erlang(2, 1.0), FixedThreshold(3.0), horizon=200.0, seed=6)
        for p in points:
            assert 0.0 < p.reset_to <= 3.0
            assert p.peak > p.reset_to

    def test_stops_at_the_first_reception_past_the_horizon(self):
        # receptions at 1 and 2; the attempt after the one at 2 would be
        # preempted (5 > 2) and stall at stall_limit = 1, so the trajectory
        # must not simulate past the first reception beyond the horizon
        d = Scripted((0.5, 1.0, 1.0, 5.0))
        points = aoi_trajectory(d, FixedThreshold(2.0), horizon=1.5, seed=0, stall_limit=1)
        assert [(p.time, p.peak, p.reset_to) for p in points] == [(1.0, 1.5, 1.0)]

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_a_horizon_that_is_not_positive_and_finite(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            aoi_trajectory(Exponential(1.0), ZeroWait(), horizon=horizon, seed=0)

    def test_past_its_cap_raises_config_error(self):
        # the first block's receptions end near 2e-320: 2**22 of them reach 2e-314
        with pytest.raises(ConfigError, match="needs more than 4194304 receptions"):
            aoi_trajectory(Deterministic(5e-324), ZeroWait(), horizon=1e-9, seed=0)

    def test_agrees_with_peak_simulation(self):
        d = Exponential(1.0)
        policy = FixedThreshold(1.5)
        points = aoi_trajectory(d, policy, horizon=100.0, seed=44)
        records = simulate_peaks(d, policy, peaks=len(points), seed=44)
        assert [p.time for p in points] == [r.receive_time for r in records]
        assert [p.peak for p in points] == [r.peak for r in records]

    @pytest.mark.parametrize(
        "policy", [FixedThreshold(2.0), RandomizedThreshold(UniformSampler(0.5, 3.0))]
    )
    def test_drop_to_value_is_the_next_carried_service(self, policy):
        d = Erlang(3, 1.0)
        points = aoi_trajectory(d, policy, horizon=600.0, seed=12)
        assert len(points) > 50
        assert points.dtype.names == ("time", "peak", "reset_to")
        # a drop-to value is the next peak's carried service time
        records = simulate_peaks(d, policy, peaks=len(points) + 1, seed=12)
        assert points.reset_to.tolist() == records.received_service[1:].tolist()
        assert points.time.tolist() == records.receive_time[:-1].tolist()
        assert points.peak.tolist() == records.peak[:-1].tolist()


class TestRandomized:
    def test_point_mass_equals_fixed_policy(self):
        d = Erlang(3, 1.0)
        fixed = simulate_peaks(d, FixedThreshold(2.0), peaks=2000, seed=9)
        random_point = simulate_peaks(
            d, RandomizedThreshold(PointSampler(2.0)), peaks=2000, seed=9
        )
        assert fixed.tolist() == random_point.tolist()

    @pytest.mark.parametrize(
        "dist,window",
        [
            (Erlang(3, 1.0), (0.01, 30.0)),
            (Pareto(1.0, 2.0), (1.05, 60.0)),
        ],
    )
    def test_never_beats_optimal_fixed_threshold(self, dist, window):
        theta_opt, zeta_opt = optimal_threshold(dist, *window)
        samplers = [
            UniformSampler(max(theta_opt - 0.5, window[0]), theta_opt + 0.5),
            UniformSampler(theta_opt, 2 * theta_opt),
            ChoiceSampler((0.8 * theta_opt, 1.6 * theta_opt), (0.5, 0.5)),
        ]
        for sampler in samplers:
            policy = RandomizedThreshold(sampler)
            est = run_replications(dist, policy, peaks=20_000, replications=1, base_seed=71)[0]
            assert est.mean >= zeta_opt - 3 * est.std_error

    def test_one_replication_is_the_estimate_of_its_seed(self):
        d, policy = Erlang(3, 1.0), RandomizedThreshold(UniformSampler(0.5, 3.5))
        est = _estimate(d, policy, 5000, DEFAULT_STALL_LIMIT, 0, 23)
        assert est == run_replications(d, policy, 5000, 1, 23)[0]

    @pytest.mark.parametrize("weights", [(1.5, -0.5), (math.nan, 0.5), (math.inf, 0.5)])
    def test_choice_sampler_rejects_negative_or_non_finite_weights(self, weights):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            ChoiceSampler((1.0, 3.0), weights)

    def test_choice_supremum_skips_zero_weights(self):
        assert ChoiceSampler((0.5, 5.0), (1.0, 0.0)).supremum() == 0.5
        assert ChoiceSampler((5.0, 0.5), (0.0, 1.0)).supremum() == 0.5
        assert ChoiceSampler((0.5, 5.0), (0.5, 0.5)).supremum() == 5.0

    def test_sequence_policy_runs(self):
        d = TwoPoint(1.0, 3.0, 0.5)
        records = simulate_peaks(
            d, RepetitiveSequence((1.0, 3.0)), peaks=20_000, seed=15
        )
        est = estimate_paoi(records)
        from paoi_lab import paoi_repetitive

        want = paoi_repetitive(d, RepetitiveSequence((1.0, 3.0))).zeta
        assert abs(est.mean - want) < 3 * est.std_error

    def test_prefix_below_support_matches_closed_form(self):
        # the first attempt at 0.5 < xm is always preempted and burns 0.5
        d = Pareto(1.0, 2.0)
        seq = RepetitiveSequence((0.5, 2.0))
        est = estimate_paoi(simulate_peaks(d, seq, peaks=40_000, seed=19))
        assert est.ci_low <= paoi_repetitive(d, seq).zeta <= est.ci_high

    def test_median_threshold_sugar(self):
        d = Exponential(1.0)
        a = simulate_peaks(d, MedianThreshold(), peaks=1000, seed=2)
        b = simulate_peaks(d, FixedThreshold(d.quantile(0.5)), peaks=1000, seed=2)
        assert a.tolist() == b.tolist()


# on Exponential(1): fixed(0.01) takes about 100 attempts a peak, so its
# peaks straddle blocks while zero-wait's take one attempt each
MIX = (
    ZeroWait(),
    FixedThreshold(0.01),
    RepetitiveSequence((0.5, 0.05, 0.2)),
    RandomizedThreshold(UniformSampler(0.05, 2.0)),
    RandomizedThreshold(ChoiceSampler((0.1, 1.0), (0.5, 0.5))),
)


# every policy kind: zero-wait, fixed, a repetitive sequence, and uniform,
# choice and triangular draws
KINDS = MIX + (RandomizedThreshold(TriangularSampler(0.05, 0.3, 2.0)),)


def _estimate(d, policy, peaks, stall_limit, warmup, seed):
    """The estimate of one replication, from its seed: that of its peak dump."""
    return estimate_paoi(simulate_peaks(d, policy, peaks, seed, stall_limit, warmup), seed)


def _service_blocks(d, rng):
    """The endless service draws of ``rng``, in blocks of 4096, as the
    lockstep loop draws them."""
    while True:
        yield np.asarray(d.sample_batch(rng, 4096), dtype=float)


def _joined(runs):
    """Per policy, the step columns that ``_lockstep`` returns, each column
    joined into one array."""
    return [[np.concatenate(c) for c in zip(*parts)] for parts in runs]


def _per_block_lockstep(d, policies, seed, stall_limit, peaks, peaks_only=False):
    """What ``_lockstep`` returns without a horizon, joined (see
    :func:`_joined`), from a loop that steps every running engine on every
    block it draws."""
    ss_service, ss_threshold = np.random.SeedSequence(seed).spawn(2)
    engines = [_Engine(d, policy, ss_threshold, stall_limit, peaks_only) for policy in policies]
    blocks = _service_blocks(d, np.random.default_rng(ss_service))
    parts = [[] for _ in policies]
    have = [0] * len(policies)
    running = list(range(len(policies)))
    while running:
        x = next(blocks)
        for i in running:
            cols = engines[i].step(x)
            parts[i].append(cols)
            have[i] += len(cols[0])
        running = [i for i in running if have[i] < peaks]
    return _joined(parts)


def _outcome(run):
    """The type and bytes of every column of every policy that ``run()``
    returns, or the type and message of what it raises."""
    try:
        runs = run()
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    return [[(c.dtype.str, c.tobytes()) for c in cols] for cols in runs]


class TestLockstep:
    """A seed's policies read one service stream; each gets the estimate it
    gets alone."""

    @pytest.mark.parametrize("warmup", [0, 5])
    def test_each_policy_equals_its_run_alone(self, warmup):
        d = Exponential(1.0)
        got = run_replications(d, MIX, 300, 3, 40, DEFAULT_STALL_LIMIT, warmup, 1)
        for policy, estimates in zip(MIX, got):
            alone = run_replications(d, policy, 300, 3, base_seed=40, warmup=warmup)
            assert estimates == alone, policy
            # and each equals the estimate of its seed's peak dump
            assert estimates == [
                _estimate(d, policy, 300, DEFAULT_STALL_LIMIT, warmup, seed)
                for seed in (40, 41, 42)
            ], policy
            # and the batch means of the attempt-at-a-time loop's peaks
            assert estimates == [
                _batch_means(np.array([r[1] for r in _reference(d, policy, 300, seed, warmup)]),
                             seed)
                for seed in (40, 41, 42)
            ], policy

    @pytest.mark.parametrize("warmup", [0, 5])
    def test_estimate_of_the_peak_dump_is_the_estimate_of_its_seed(self, warmup):
        # simulate writes the dump's estimate as replication 0, in place of
        # the lockstep replication of that seed
        d = Exponential(1.0)
        lockstep = run_replications(d, MIX, 300, 1, 40, DEFAULT_STALL_LIMIT, warmup, 1)
        for policy, (want,) in zip(MIX, lockstep):
            dump = simulate_peaks(d, policy, peaks=300, seed=40, warmup=warmup)
            assert estimate_paoi(dump, seed=40) == want, policy

    def test_no_replication_raises_before_any_draw(self):
        # simulate with dump_peaks and one replication calls no replication
        class Undrawn(Exponential):
            def sample_batch(self, rng, n):
                raise AssertionError("drew a service time")

        for policy in (ZeroWait(), MIX[:2]):
            with pytest.raises(ValueError, match="at least one replication"):
                run_replications(Undrawn(1.0), policy, 10, 0, 1, 100, 0, 2)

    def test_each_step_reads_one_block(self):
        # fixed(1e-4) takes about 1e4 attempts a peak, so most blocks hold
        # no reception and yield empty columns
        read = []

        def blocks():
            for block in _service_blocks(Exponential(1.0), np.random.default_rng(1)):
                read.append(len(block))
                yield block

        engine = _Engine(Exponential(1.0), FixedThreshold(1e-4), np.random.SeedSequence(1),
                         DEFAULT_STALL_LIMIT)
        assert read == []
        steps = [engine.step(x) for x in islice(blocks(), 12)]
        assert read == [4096] * 12
        empty = [cols for cols in steps if not len(cols[0])]
        assert 0 < len(empty) < len(steps)
        assert all(len(cols) == 5 and not any(map(len, cols)) for cols in empty)

    def test_reads_each_block_once_and_draws_none_past_the_last_policy(self):
        # zero-wait has its 6000 peaks after 2 blocks and fixed(0.01) after
        # about 150, as in the loop that steps each engine on each block.
        # Every step of an engine reads all the blocks drawn since its last
        # one, so the last draw belongs to fixed(0.01)'s last step.
        events = []

        class Counted(Exponential):
            def sample_batch(self, rng, n):
                events.append(("draw", n))
                return super().sample_batch(rng, n)

        step = _Engine.step

        def counted_step(engine, x):
            cols = step(engine, x)
            events.append((engine.policy, len(x), len(cols[0])))
            return cols

        _per_block_lockstep(Counted(1.0), MIX[:2], 3, DEFAULT_STALL_LIMIT, 6000)
        drawn, events[:] = len(events), []
        with mock.patch.object(_Engine, "step", counted_step):
            _lockstep(Counted(1.0), MIX[:2], 3, DEFAULT_STALL_LIMIT, peaks=6000)
        assert [e for e in events if e[0] == "draw"] == [("draw", 4096)] * drawn
        blocks, read, steps = 0, {}, {}
        for what, *counts in events:
            if what == "draw":
                blocks += 1
                continue
            read[what] = read.get(what, 0) + counts[0]
            assert read[what] == 4096 * blocks, what
            steps.setdefault(what, []).append(counts[1])
        zero_wait, fixed = MIX[:2]
        assert events[-1][0] == fixed
        assert read == {zero_wait: 2 * 4096, fixed: drawn * 4096}
        for counts in steps.values():
            have = np.cumsum([0, *counts])
            assert have[-2] < 6000 <= have[-1]
        # fixed(0.01) reads its first 2 blocks in one step, as zero-wait does
        assert len(steps[zero_wait]) == 1
        assert len(steps[fixed]) < drawn

    def test_a_stall_in_one_policy_raises(self):
        d = Exponential(1.0)
        with pytest.raises(SimulationStall, match="FixedThreshold"):
            run_replications(d, MIX[:2], 2000, 1, 1, 200, 0, 1)

    def test_the_first_stall_raises_in_policy_order(self):
        # fixed(0.3) meets 5 drops in a row in the first block; an engine
        # that waited for blocks that could hold its last peak would meet it
        # later, after a fixed(2.0) meets one
        policies = (FixedThreshold(2.0), FixedThreshold(0.3), FixedThreshold(2.0))
        with pytest.raises(SimulationStall, match=r"FixedThreshold\(theta=0\.3\)"):
            _lockstep(Exponential(1.0), policies, 623, 5, peaks=9000)

    @pytest.mark.parametrize("first", KINDS)
    @settings(max_examples=25, deadline=None)
    @given(
        others=st.lists(st.sampled_from(KINDS), max_size=2),
        peaks=(st.sampled_from([1, 4095, 4097, 8191, 12_289]) | st.integers(1, 12_000)).filter(
            lambda n: n % 4096),
        stall_limit=st.sampled_from([3, 50, 4097, 10**9]),
        peaks_only=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_loop_that_steps_on_every_block(
        self, first, others, peaks, stall_limit, peaks_only, seed
    ):
        # the same columns or the same stall, after the same blocks
        drawn = []

        class Counted(Exponential):
            def sample_batch(self, rng, n):
                drawn.append(n)
                return super().sample_batch(rng, n)

        d, policies = Counted(1.0), (first, *others)
        want = _outcome(
            lambda: _per_block_lockstep(d, policies, seed, stall_limit, peaks, peaks_only))
        want_drawn, drawn[:] = len(drawn), []
        got = _outcome(lambda: _joined(_lockstep(d, policies, seed, stall_limit, peaks=peaks,
                                                 peaks_only=peaks_only)))
        assert got == want
        assert len(drawn) == want_drawn

    def test_memory_stays_at_one_stream_for_all_policies(self):
        # zero-wait has its 16k peaks after 4 blocks and fixed(0.01) after
        # about 400: zero-wait's engine must stop when it is done, or it
        # holds the peaks of every block fixed(0.01) draws after that.  The
        # reference, two zero-wait engines, holds two peak columns of the
        # same length, and each reads its 4 blocks in one step, as zero-wait
        # does alongside fixed(0.01): a step's arrays grow with the peaks it
        # finds, and no step of fixed(0.01) finds more than about 160.
        d = Exponential(1.0)

        def traced_peak(policies, peaks):
            tracemalloc.start()
            try:
                run_replications(d, policies, peaks, 1, 3, DEFAULT_STALL_LIMIT, 0, 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(MIX[:2], 100)  # one-time allocations out of the way
        for peaks in (4000, 16_000):
            reference = traced_peak((MIX[0], MIX[0]), peaks)
            assert traced_peak(MIX[:2], peaks) < 1.25 * reference, peaks


class TestSequenceCalls:
    """A sequence of policies runs as one lockstep and returns, in policy
    order, what each policy returns alone; one policy returns its own
    result, not a list."""

    @pytest.mark.parametrize("warmup", [0, 5])
    def test_peaks_equal_each_policy_alone(self, warmup):
        d = Exponential(1.0)
        got = simulate_peaks(d, KINDS, 300, 40, warmup=warmup)
        assert isinstance(got, list) and len(got) == len(KINDS)
        for policy, records in zip(KINDS, got):
            alone = simulate_peaks(d, policy, 300, 40, warmup=warmup)
            assert records.dtype == alone.dtype, policy
            assert records.tobytes() == alone.tobytes(), policy

    def test_trajectories_equal_each_policy_alone(self):
        d = Exponential(1.0)
        got = aoi_trajectory(d, KINDS, 300.0, 40)
        assert isinstance(got, list) and len(got) == len(KINDS)
        for policy, points in zip(KINDS, got):
            alone = aoi_trajectory(d, policy, 300.0, 40)
            assert len(points) > 100, policy
            assert points.dtype == alone.dtype, policy
            assert points.tobytes() == alone.tobytes(), policy

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("warmup", [0, 5])
    def test_replications_equal_each_policy_alone(self, warmup, workers):
        d = Exponential(1.0)
        got = run_replications(d, KINDS, 300, 3, 40, DEFAULT_STALL_LIMIT, warmup, workers)
        assert got == [run_replications(d, policy, 300, 3, 40, warmup=warmup) for policy in KINDS]

    def test_one_policy_returns_its_own_result(self):
        d, policy = Exponential(1.0), FixedThreshold(1.0)
        records = simulate_peaks(d, policy, 10, 1)
        assert isinstance(records, np.recarray) and len(records) == 10
        assert isinstance(aoi_trajectory(d, policy, 5.0, 1), np.recarray)
        estimates = run_replications(d, policy, 10, 2, 1)
        assert [type(e) for e in estimates] == [PaoiEstimate, PaoiEstimate]
        # a sequence of one is a list of one, and no policy gives an empty list
        (alone,) = simulate_peaks(d, [policy], 10, 1)
        assert alone.tobytes() == records.tobytes()
        assert run_replications(d, (policy,), 10, 2, 1) == [estimates]
        assert simulate_peaks(d, (), 10, 1) == run_replications(d, (), 10, 2, 1) == []

    def test_the_first_error_the_lockstep_meets_raises(self):
        # alone, fixed(0.3) stalls, which raises on its second step, and
        # zero-wait passes the 2**22 reception cap on its first, so together
        # they raise the cap, whatever their order
        d, fixed = Erlang(3, 1.0), FixedThreshold(0.3)
        run = partial(aoi_trajectory, d, horizon=1e8, seed=1, stall_limit=1000)
        with pytest.raises(SimulationStall, match=r"FixedThreshold\(theta=0\.3\)"):
            run(fixed)
        for policies in ((fixed, ZeroWait()), (ZeroWait(), fixed)):
            with pytest.raises(ConfigError, match=r"receptions under ZeroWait\(\)"):
                run(policies)


def _engine_steps(d, policy, seed, stall_limit, peaks_only):
    """Every step of one engine on the stream of ``seed``, up to its stall."""
    ss_service, ss_threshold = np.random.SeedSequence(seed).spawn(2)
    engine = _Engine(d, policy, ss_threshold, stall_limit, peaks_only)
    steps = []
    with pytest.raises(SimulationStall):
        for x in _service_blocks(d, np.random.default_rng(ss_service)):
            steps.append(engine.step(x))
    return steps


class TestPeakOnlySteps:
    """A replication keeps only the peak column, and its engines build only
    that; each peak has the bits of the full-column run."""

    @pytest.mark.parametrize("warmup", [0, 5])
    def test_replications_equal_full_column_runs(self, warmup):
        d = Exponential(1.0)
        got = run_replications(d, KINDS, 2000, 2, 40, DEFAULT_STALL_LIMIT, warmup, 1)
        for policy, estimates in zip(KINDS, got):
            assert estimates == [
                _estimate(d, policy, 2000, DEFAULT_STALL_LIMIT, warmup, seed) for seed in (40, 41)
            ], policy
        peak_only = _lockstep(d, KINDS, 40, DEFAULT_STALL_LIMIT, peaks=warmup + 2000,
                              peaks_only=True)
        for policy, (peak,) in zip(KINDS, _joined(peak_only)):
            full = simulate_peaks(d, policy, 2000, 40, warmup=warmup).peak
            assert peak[warmup : warmup + 2000].tolist() == full.tolist(), policy

    def test_a_stall_mid_block_after_completed_peaks(self):
        # fixed(0.01) drops about 100 attempts a peak; at seed 2 the 500th
        # drop in a row comes in the 6th block, after 21 of its peaks
        d, policy = Exponential(1.0), FixedThreshold(0.01)
        peak_only = _engine_steps(d, policy, 2, 500, peaks_only=True)
        full = _engine_steps(d, policy, 2, 500, peaks_only=False)
        assert len(peak_only) == len(full) == 6
        assert len(full[-1][0]) == 21
        assert [cols[0].tolist() for cols in peak_only] == [cols[0].tolist() for cols in full]

    def test_a_peak_only_step_yields_one_column(self):
        # fixed(1e-4) leaves most blocks without a reception
        d = Exponential(1.0)
        blocks = _service_blocks(d, np.random.default_rng(1))
        engine = _Engine(d, FixedThreshold(1e-4), np.random.SeedSequence(1),
                         DEFAULT_STALL_LIMIT, peaks_only=True)
        steps = [engine.step(x) for x in islice(blocks, 12)]
        assert all(len(cols) == 1 for cols in steps)
        assert 0 < sum(1 for (peak,) in steps if len(peak)) < len(steps)


# stretches of draws: the first opens with the initial AoI; under
# fixed(2.0) the second drops three times and carries the last two into
# the third; the fifth is empty, and the sixth holds zero draws and a tie
# at the threshold
_RNG = np.random.default_rng(5)
STRETCHES = (_RNG.uniform(0.0, 2.0, 100), [1.0, 3.0, 0.5, 2.5, 4.0], _RNG.uniform(0.0, 2.0, 50),
             _RNG.uniform(0.0, 2.0, 60), [], [0.0, -0.0, 2.0, 1.5], _RNG.uniform(0.0, 2.0, 30))


class TestNoDropSteps:
    """A step whose draws are all receptions, with no drop carried in,
    builds its columns from the draws alone, to the bits of the general
    step and of the attempt-at-a-time loop."""

    @pytest.mark.parametrize("peaks_only", [False, True])
    @pytest.mark.parametrize("policy, drops, general_steps",
                             [(ZeroWait(), 0, 1), (FixedThreshold(2.0), 3, 3)],
                             ids=["zero-wait", "fixed(2)"])
    def test_equals_the_general_step_and_the_reference_loop(self, policy, drops, general_steps,
                                                            peaks_only):
        draws = np.concatenate([np.asarray(x, dtype=float) for x in STRETCHES])

        def columns(stretches):
            engine = _Engine(Scripted(()), policy, np.random.SeedSequence(0),
                             DEFAULT_STALL_LIMIT, peaks_only)
            steps = [engine.step(np.asarray(x, dtype=float)) for x in stretches]
            return [np.concatenate(c) for c in zip(*steps)]

        with mock.patch.object(simulate, "_sequence_sums", wraps=simulate._sequence_sums) as sums:
            got = columns(STRETCHES)
        # only the empty stretch, and under fixed(2.0) the one that drops
        # and the one after it, take the general step
        assert sums.call_count == general_steps
        # a nan draw is never received, so one stretch that ends in it
        # takes the general step; its peaks are those of the draws before it
        want = columns([np.append(draws, math.nan)])
        n = len(want[0])
        assert n == len(draws) - 1 - drops
        reference = _reference(Scripted(tuple(draws)), policy, n, seed=0)
        ref_columns = [np.array(c) for c in list(zip(*reference))[1:]]
        for got_col, want_col, ref_col in zip(got, want, ref_columns):
            assert got_col.dtype == want_col.dtype
            assert got_col.tobytes() == want_col.tobytes()
            assert got_col.tolist() == ref_col.tolist()
            if got_col.dtype.kind == "f":  # a -0.0 draw carries its sign
                assert got_col.tobytes() == ref_col.tobytes()


class TestParallelReplications:
    def test_worker_pool_matches_sequential(self):
        d = Exponential(1.0)
        seq = run_replications(d, ZeroWait(), peaks=2000, replications=4, base_seed=55)
        par = run_replications(
            d, ZeroWait(), peaks=2000, replications=4, base_seed=55, workers=2
        )
        assert seq == par

    def test_a_policy_that_never_delivers_raises_before_the_pool_starts(self):
        # P(X <= 0.5) = 0 under Pareto(1, 2)
        policies = [ZeroWait(), FixedThreshold(0.5)]
        with mock.patch("concurrent.futures.ProcessPoolExecutor",
                        side_effect=AssertionError("started a pool")):
            with pytest.raises(SimulationStall, match=r"FixedThreshold\(theta=0\.5\)"):
                run_replications(Pareto(1.0, 2.0), policies, 100, 4, 1, workers=2)

    @pytest.mark.parametrize("warmup", [0, 5])
    def test_worker_pool_matches_sequential_in_lockstep(self, warmup):
        d = Exponential(1.0)
        seq = run_replications(d, MIX, 300, 4, 55, DEFAULT_STALL_LIMIT, warmup, 1)
        par = run_replications(d, MIX, 300, 4, 55, DEFAULT_STALL_LIMIT, warmup, 2)
        assert seq == par
        assert [e.seed for e in par[0]] == [55, 56, 57, 58]


def _scalar_draw(sampler, rng):
    """One threshold, drawn the way the samplers drew one per call."""
    if isinstance(sampler, PointSampler):
        return sampler.value
    if isinstance(sampler, UniformSampler):
        return rng.uniform(sampler.low, sampler.high)
    if isinstance(sampler, TriangularSampler):
        return rng.triangular(sampler.low, sampler.mode, sampler.high)
    u = rng.random()
    acc = 0.0
    for v, w in zip(sampler.values, sampler.weights):
        acc += w
        if u <= acc:
            return v
    return sampler.values[-1]


def _reference_peaks(d, policy, seed, stall_limit=10**9):
    """The attempt loop one attempt at a time: an independent model of the
    simulator, with the same two seed streams and 4096-draw blocks.  Yields
    one ``(k, peak, received_service, interreception, preemptions,
    receive_time)`` tuple per peak."""
    ss_service, ss_threshold = np.random.SeedSequence(seed).spawn(2)
    rng_service = np.random.default_rng(ss_service)
    rng_threshold = np.random.default_rng(ss_threshold)
    thresholds = resolve(policy, d)

    def service():
        while True:
            yield from d.sample_batch(rng_service, 4096).tolist()

    draws = service()
    x_prev = next(draws)
    now = 0.0
    for k in count(1):
        y = 0.0
        drops = 0
        while True:
            if thresholds is None:
                theta = _scalar_draw(policy.sampler, rng_threshold)
            else:
                theta = thresholds[min(drops, len(thresholds) - 1)]
            x = next(draws)
            if x <= theta:
                y += x
                break
            y += theta
            drops += 1
            if drops >= stall_limit:
                raise SimulationStall("stalled")
        now += y
        yield k, x_prev + y, x_prev, y, drops, now
        x_prev = x


def _reference(d, policy, peaks, seed, warmup=0):
    return list(islice(_reference_peaks(d, policy, seed), warmup, warmup + peaks))


HYPER = HyperExponential((10.0, 1.0), (10 / 11, 1 / 11))


class TestMatchesReferenceLoop:
    """The block engine reproduces the attempt-by-attempt loop, every field
    with ``==``."""

    @pytest.mark.parametrize(
        "d, policy, peaks",
        [
            (Erlang(3, 1.0), FixedThreshold(2.0), 5000),
            (Erlang(3, 1.0), ZeroWait(), 5000),
            (TwoPoint(1.0, 3.0, 0.5), XMinThreshold(), 5000),
            (Exponential(1.0), MedianThreshold(), 5000),
            (Erlang(3, 1.0), RepetitiveSequence((1.0, 2.0, 2.5)), 5000),
            (Pareto(1.0, 2.0), RepetitiveSequence((0.5, 2.0)), 3000),
            (Exponential(1.0), RepetitiveSequence((0.5, 0.05, 0.01)), 300),
            (Erlang(3, 1.0), RandomizedThreshold(ChoiceSampler((1.0, 3.0), (0.3, 0.7))), 5000),
            (Erlang(3, 1.0), RandomizedThreshold(UniformSampler(0.5, 3.5)), 5000),
            (Erlang(3, 1.0), RandomizedThreshold(TriangularSampler(0.5, 1.5, 3.5)), 5000),
            (Erlang(3, 1.0), RandomizedThreshold(PointSampler(2.0)), 5000),
            # drawn thresholds on the atoms: a tie is a reception
            (TwoPoint(1.0, 3.0, 0.5), RandomizedThreshold(ChoiceSampler((1.0, 3.0), (0.5, 0.5))),
             3000),
            # F about 0.01: about 100 attempts per peak, so peaks straddle
            # the block edges
            (HYPER, FixedThreshold(0.0011), 300),
            (HYPER, RandomizedThreshold(UniformSampler(0.0005, 0.0017)), 300),
            (HYPER, RepetitiveSequence((0.05, 0.0011)), 300),
            # a few peaks of about 1e4 attempts each, across many blocks
            (Exponential(1.0), FixedThreshold(1e-4), 4),
            (Exponential(1.0), RandomizedThreshold(UniformSampler(1e-5, 2e-4)), 4),
        ],
        ids=lambda v: v.label() if hasattr(v, "label") else None,
    )
    def test_every_field_matches(self, d, policy, peaks):
        got = simulate_peaks(d, policy, peaks=peaks, seed=23)
        assert got.tolist() == _reference(d, policy, peaks, seed=23)

    def test_warmup(self):
        d, policy = Erlang(3, 1.0), RepetitiveSequence((1.0, 2.0, 2.5))
        got = simulate_peaks(d, policy, peaks=2000, seed=5, warmup=37)
        assert got.tolist() == _reference(d, policy, 2000, seed=5, warmup=37)
        assert got[0].k == 38

    @pytest.mark.parametrize("stall_limit", [200, 400])
    def test_stall_hit_mid_block_after_completed_peaks(self, stall_limit):
        # at F = 0.01 a peak drops 200 (400) attempts with probability
        # about 0.13 (0.018), so the stall comes after several peaks
        d, policy = Exponential(1.0), FixedThreshold(0.01)
        done = []
        with pytest.raises(SimulationStall):
            for r in _reference_peaks(d, policy, seed=3, stall_limit=stall_limit):
                done.append(r)
        assert len(done) >= 2
        attempts = 1 + sum(drops + 1 for *_, drops, _ in done)
        assert attempts % 4096 not in (0, 1)  # the stalling peak starts mid-block
        got = simulate_peaks(d, policy, peaks=len(done), seed=3, stall_limit=stall_limit)
        assert got.tolist() == done
        with pytest.raises(SimulationStall):
            simulate_peaks(d, policy, peaks=len(done) + 1, seed=3, stall_limit=stall_limit)

    @pytest.mark.parametrize(
        "draws, policy, peaks",
        [
            ((0.0, 1.0, 2.0, 3.0), ZeroWait(), 3),
            ((1.0, 5.0, 1.5, 0.5), FixedThreshold(2.0), 2),
            ((1.0, 2.0), FixedThreshold(2.0), 1),
            ((0.5, 3.0, 1.5, 0.5, 4.0, 4.0, 1.0), RepetitiveSequence((1.0, 2.0, 3.0)), 3),
        ],
    )
    def test_scripted_traces(self, draws, policy, peaks):
        got = simulate_peaks(Scripted(draws), policy, peaks=peaks, seed=0)
        assert got.tolist() == _reference(Scripted(draws), policy, peaks, seed=0)

    @pytest.mark.parametrize(
        "sampler",
        [
            PointSampler(2.0),
            UniformSampler(0.5, 3.5),
            TriangularSampler(0.5, 1.5, 3.5),
            ChoiceSampler((1.0, 2.0, 3.0), (0.2, 0.5, 0.3)),
        ],
    )
    def test_batch_draws_equal_scalar_draws(self, sampler):
        rng_a, rng_b, rng_c = (np.random.default_rng(8) for _ in range(3))
        want = [_scalar_draw(sampler, rng_a) for _ in range(10_000)]
        batches = [sampler.draw_batch(rng_b, n) for n in (4095, 4096, 1809)]
        assert np.concatenate(batches).tolist() == want
        assert [sampler.draw(rng_c) for _ in range(10_000)] == want


def test_memory_stays_bounded_over_many_blocks():
    # F(1e-6) = 1e-6: one peak of many preemptions, carried across blocks
    tracemalloc.start()
    try:
        start = time.perf_counter()
        (record,) = simulate_peaks(
            Exponential(1.0), FixedThreshold(1e-6), peaks=1, seed=1, stall_limit=10**7
        )
        elapsed = time.perf_counter() - start
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert record.preemptions > 10 * 4096
    assert peak_bytes < 4_000_000
    assert elapsed < 1.0
