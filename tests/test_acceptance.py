"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (or ``-s`` to see the
per-criterion lines).  Every tolerance is pinned here; nothing defers to
later calibration.
"""

import math

import numpy as np
import pytest

import paoi_lab as pl
from paoi_lab.cli import main as cli_main
from paoi_lab.optimize import bellman_apply, bellman_tables

SEED = 4242

TP = pl.TwoPoint(1.0, 3.0, 0.5)

ALL_KINDS = {
    "exponential": pl.Exponential(1.0),
    "erlang": pl.Erlang(3, 1.0),
    "pareto": pl.Pareto(1.0, 2.0),
    "shifted-exponential": pl.ShiftedExponential(0.5, 2.0),
    "two-point": TP,
    "hyper-exponential": pl.HyperExponential((10.0, 1.0), (10 / 11, 1 / 11)),
    "log-normal": pl.LogNormal(0.0, 1.0),
    "deterministic": pl.Deterministic(1.5),
}


def report(n, label):
    print(f"criterion {n:>2} ({label}): PASS")


def test_c01_two_point_closed_form():
    # (2 p t1 + (1-p) theta)/p holds while the upper atom still preempts,
    # i.e. on [t1, t2); at theta = t2 the right-closed threshold admits the
    # atom and the value is 2 E[X] (see the decisions ledger).
    for theta in np.linspace(1.0, 3.0, 41)[:-1]:
        got = pl.paoi_fixed_threshold(TP, float(theta)).zeta
        want = (2 * 0.5 * 1.0 + 0.5 * theta) / 0.5
        assert abs(got - want) <= 1e-12
    assert pl.paoi_fixed_threshold(TP, 2.0).zeta == 4.0
    assert pl.paoi_fixed_threshold(TP, 3.0).zeta == 4.0
    assert pl.paoi_xmin(TP) == 3.0 == 1.0 * (1 + 0.5) / 0.5
    report(1, "two-point closed form")


def test_c02_two_point_critical_atom():
    assert pl.twopoint_benefit_threshold(0.5, 1.0) == 2.0
    above = pl.preemption_beneficial(pl.TwoPoint(1.0, 2.0 + 1e-3, 0.5))
    below = pl.preemption_beneficial(pl.TwoPoint(1.0, 2.0 - 1e-3, 0.5))
    assert above.beneficial and not below.beneficial
    report(2, "critical t2")


def test_c03_exponential_memorylessness():
    for rate in (0.5, 1.0, 2.0):
        d = pl.Exponential(rate)
        for theta in np.linspace(0.05, 12.0, 20):
            got = pl.expected_interreception(d, float(theta))
            assert abs(got - 1.0 / rate) <= 1e-9 / rate
    # consequence: the PAoI curve increases in theta, so the optimum is the
    # left window endpoint
    d = pl.Exponential(1.0)
    grid = np.linspace(0.05, 15.0, 50)
    zetas = [pl.paoi_fixed_threshold(d, float(t)).zeta for t in grid]
    assert all(b > a for a, b in zip(zetas, zetas[1:]))
    theta_opt, _ = pl.optimal_threshold(d, 0.01, 20.0)
    assert theta_opt <= 0.01 + 1e-6
    report(3, "exponential memorylessness")


def test_c04_erlang_shape_transition():
    lo, hi = 0.05, 15.0
    grid = np.linspace(lo, hi, 2000)
    for k in (2, 3, 4):
        d = pl.Erlang(k, 1.0)
        zetas = np.array([pl.paoi_fixed_threshold(d, float(t)).zeta for t in grid])
        i = int(zetas.argmin())
        assert 0 < i < len(grid) - 1
        assert zetas[i] < zetas[0] - 1e-3
        assert zetas[i] < zetas[-1] - 1e-3
    d1 = pl.Erlang(1, 1.0)
    zetas1 = np.array([pl.paoi_fixed_threshold(d1, float(t)).zeta for t in grid])
    assert int(zetas1.argmin()) == 0
    report(4, "erlang shape transition")


def test_c05_heavy_tail_benefit():
    heavy = pl.Pareto(1.0, 0.5)
    assert math.isinf(pl.paoi_zero_wait(heavy))
    _, zeta_opt = pl.optimal_threshold(heavy, *pl.default_window(heavy))
    assert math.isfinite(zeta_opt)

    light = pl.Pareto(1.0, 3.0)
    _, zeta_opt3 = pl.optimal_threshold(light, *pl.default_window(light))
    zw = pl.paoi_zero_wait(light)
    assert abs(zeta_opt3 - zw) / zw <= 0.05
    report(5, "heavy-tail benefit")


def test_c06_interreception_identity():
    for name, d in ALL_KINDS.items():
        for q in np.linspace(0.02, 0.98, 50):
            theta = float(d.quantile(float(q)))
            f = d.cdf(theta)
            if f <= 0.0:
                continue
            lhs = pl.expected_interreception(d, theta) - pl.expected_received_service(d, theta)
            rhs = theta * d.sf(theta) / f
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-12), (name, theta)
    report(6, "interreception identity")


def test_c07_series_collapse():
    for name, d in ALL_KINDS.items():
        for q in (0.2, 0.4, 0.6, 0.8, 0.95):
            theta = float(d.quantile(q))
            got = pl.paoi_repetitive(d, pl.RepetitiveSequence((theta,)))
            assert got == pl.paoi_fixed_threshold(d, theta), (name, theta)
    report(7, "series collapse")


def test_c08_bellman_verification():
    windows = {
        "exponential": (pl.Exponential(1.0), (0.05, 20.0)),
        "erlang": (pl.Erlang(3, 1.0), (0.05, 30.0)),
        "pareto": (pl.Pareto(1.0, 2.0), (1.05, 50.0)),
        "two-point": (TP, (1.000001, 3.0)),
    }
    rng = np.random.default_rng(SEED)
    for name, (d, (lo, hi)) in windows.items():
        fp = pl.bellman_fixed_point(d, lo, hi)
        grid = pl.theta_grid(lo, hi, 2000)
        grid_min = min(pl.paoi_fixed_threshold(d, float(t)).zeta for t in grid)
        assert abs(fp - grid_min) / grid_min <= 1e-6, name

        _, cost, surv = bellman_tables(d, lo, hi)
        modulus = surv[0]
        for _ in range(100):
            u1, u2 = rng.uniform(0.0, 40.0, size=2)
            gap = abs(bellman_apply(cost, surv, u1) - bellman_apply(cost, surv, u2))
            assert gap <= modulus * abs(u1 - u2) + 1e-12, name
    report(8, "policy-iteration verification")


def _policy_cells():
    cases = {
        "exponential": (pl.Exponential(1.0), (0.2, 20.0)),
        "erlang2": (pl.Erlang(2, 1.0), None),
        "pareto2": (pl.Pareto(1.0, 2.0), None),
        "two-point": (TP, None),
    }
    for name, (d, window) in cases.items():
        lo, hi = window if window else pl.default_window(d)
        theta_opt, _ = pl.optimal_threshold(d, lo, hi)
        yield name, d, {
            "zero-wait": pl.ZeroWait(),
            "fixed-opt": pl.FixedThreshold(theta_opt),
            "median": pl.MedianThreshold(),
        }


def test_c09_simulation_confirms_analytics():
    for name, d, policies in _policy_cells():
        for pname, policy in policies.items():
            zeta = pl.paoi_policy(d, policy).zeta
            estimates = pl.run_replications(
                d, policy, peaks=10_000, replications=10, base_seed=SEED
            )
            pooled = pl.pooled_estimate(estimates, seed=SEED)
            assert pooled.ci_low <= zeta <= pooled.ci_high, (name, pname)
            if pname == "zero-wait":
                baseline = 2 * d.mean()
                assert abs(pooled.mean - baseline) / baseline <= 0.01, name
    report(9, "simulation vs analytics")


def test_c10_randomized_never_beats_fixed_optimum():
    for d in (pl.Erlang(3, 1.0), pl.Pareto(1.0, 2.0)):
        lo, hi = pl.default_window(d)
        theta, zeta_opt = pl.optimal_threshold(d, lo, hi)
        samplers = [
            pl.PointSampler(1.5 * theta),
            pl.UniformSampler(max(theta - 0.5, lo), theta + 0.5),
            pl.UniformSampler(theta, 2.0 * theta),
            pl.ChoiceSampler((0.8 * theta, 1.6 * theta), (0.5, 0.5)),
            pl.TriangularSampler(0.7 * theta, theta, 2.0 * theta),
        ]
        for sampler in samplers:
            est = pl.simulate_randomized(d, sampler, peaks=20_000, seed=SEED)
            assert est.mean >= zeta_opt - 3 * est.std_error, sampler.label()
    report(10, "randomized-threshold dominance")


def test_c11_residual_condition_verdicts():
    for k in (2, 3, 4, 5, 6):
        d = pl.Erlang(k, 1.0)
        grid = pl.theta_grid(*pl.default_window(d), 2000)
        v = pl.mean_residual_witness(d, grid)
        assert not v.beneficial and v.witness_theta is None, k

    for d in (ALL_KINDS["hyper-exponential"], pl.Pareto(1.0, 3.0)):
        grid = pl.theta_grid(*pl.default_window(d), 2000)
        v = pl.mean_residual_witness(d, grid)
        assert v.beneficial and v.witness_theta is not None
    report(11, "residual-condition verdicts")


def test_c12_reproduction_bundles(tmp_path):
    import csv

    for fig in ("fig4", "fig5", "fig6", "fig7"):
        assert cli_main(["reproduce", "--figure", fig, "--out", str(tmp_path)]) == 0
        assert (tmp_path / f"{fig}.csv").exists()

    def load(fig):
        with open(tmp_path / f"{fig}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["param", "policy", "zeta"]
        return rows

    for fig in ("fig5", "fig7"):
        table = {}
        for r in load(fig):
            table.setdefault(float(r["param"]), {})[r["policy"]] = float(r["zeta"])
        for param, vals in table.items():
            assert vals["optimal"] <= vals["median"] + 1e-9, (fig, param)
            assert vals["optimal"] <= vals["zero-wait"] + 1e-9, (fig, param)
            if fig == "fig7" and param <= 1.0:
                assert math.isinf(vals["zero-wait"])
                assert math.isfinite(vals["optimal"])
    load("fig4"), load("fig6")
    report(12, "figure reproduction bundles")
