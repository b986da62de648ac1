"""The names the benchmark's traced run wraps or calls, and the names the
oracle tests read from the benchmark's oracle, must stay.

``perfbench/tracing.py`` patches public functions of ``paoi_lab`` by name
and times a few methods directly; a name it expects that is gone fails the
traced run, not this suite, unless this test checks it.  The oracle tests
build every law through ``perfbench/oracle.py``'s ``law``; a name they read
that is gone fails here with one message, not in every oracle test.  The
tests read both files as they are and change nothing in them.
"""

import dataclasses
import inspect

import mpmath
import numpy as np
import pytest

from conftest import (
    CATALOG,
    bellman_operator,
    bellman_sweep,
    catalog_ids,
    cdf_integral,
    oracle_law,
    perfbench_module,
)
from paoi_lab import Erlang, Pareto, RepetitiveSequence, TwoPoint, UniformSampler, optimize


def test_tracer_installs_and_uninstalls_on_the_cli():
    import paoi_lab.cli
    from paoi_lab import config, simulate

    originals = (simulate.run_replications, paoi_lab.cli.load_config)
    tracer = perfbench_module("tracing").Tracer()
    tracer.install()
    try:
        assert simulate.run_replications is not originals[0]
        assert paoi_lab.cli.load_config is not originals[1]
    finally:
        tracer.uninstall()
    assert (simulate.run_replications, paoi_lab.cli.load_config) == originals
    assert config.load_config is originals[1]


def test_names_the_benchmark_calls_directly_exist():
    from paoi_lab.policies import RepetitiveSequence, ThresholdSampler
    from paoi_lab.simulate import run_replications

    assert "workers" in inspect.signature(run_replications).parameters
    assert callable(RepetitiveSequence.threshold_for_attempt)
    assert callable(ThresholdSampler.draw)


def _bits(value):
    """``value`` with every float as its hex spelling and every array as its
    bytes, so that ``==`` compares bits."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        value = dataclasses.astuple(value)
    if isinstance(value, (tuple, list)):
        return [_bits(v) for v in value]
    return value


def _spelled_twice(name, d):
    """The value of the name the tracer wraps, and of the canonical call it
    stands for, on ``d``'s default window."""
    lo, hi = optimize.default_window(d)
    n = 2000
    qs = [d.quantile(q) for q in (0.1, 0.25, 0.5, 0.75, 0.9)]
    if name == "optimal_threshold":
        r = optimize.min_achievable_paoi(d, lo, hi, None, n)
        return optimize.optimal_threshold(d, lo, hi, None, n), (r.theta_opt, r.zeta_opt)
    if name == "bellman_fixed_point":
        return (optimize.bellman_fixed_point(d, lo, hi, n),
                optimize.min_achievable_paoi(d, lo, hi, grid_points=n).bellman_value)
    if name == "preemption_beneficial":
        return (optimize.preemption_beneficial(d),
                optimize.benefit_verdict(d, optimize.min_achievable_paoi(d)))
    if name == "bellman_tables":
        return optimize.bellman_tables(d, lo, hi, n), bellman_operator(d, lo, hi, n)
    if name == "bellman_apply":
        _, cost, surv = bellman_operator(d, lo, hi, n)
        us = [0.0, 1.0, optimize.min_achievable_paoi(d, lo, hi, grid_points=n).bellman_value]
        return ([optimize.bellman_apply(cost, surv, u) for u in us],
                [bellman_sweep(cost, surv, u) for u in us])
    if name == "integrated_cdf":
        return [d.integrated_cdf(t) for t in qs], [cdf_integral(d, t) for t in qs]
    if name == "threshold_for_attempt":
        seq = RepetitiveSequence(tuple(qs[:3]))
        return ([seq.threshold_for_attempt(r) for r in range(1, 6)],
                [seq.thresholds[min(r, len(seq.thresholds)) - 1] for r in range(1, 6)])
    assert name == "draw"
    sampler = UniformSampler(qs[1], qs[3])
    rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
    return ([sampler.draw(rng_a) for _ in range(20)],
            [float(sampler.draw_batch(rng_b, 1)[0]) for _ in range(20)])


SPELLED_TWICE = ["optimal_threshold", "bellman_fixed_point", "preemption_beneficial",
                 "bellman_tables", "bellman_apply", "integrated_cdf", "threshold_for_attempt",
                 "draw"]
PIN_LAWS = [TwoPoint(1.0, 3.0, 0.5), TwoPoint(1.0, 1.9, 0.5), Erlang(3, 1.0), Pareto(1.0, 2.0),
            Pareto(1.0, 0.5)]


@pytest.mark.parametrize("d", PIN_LAWS, ids=repr)
@pytest.mark.parametrize("name", SPELLED_TWICE)
def test_second_spellings_equal_their_canonical_calls(name, d):
    # the tracer wraps or times these names, and no program path calls
    # them; each must still return the bits of the call it stands for
    got, want = _spelled_twice(name, d)
    assert _bits(got) == _bits(want), (name, d)


def test_search_spans_bind_the_window_arguments():
    # the tracer's _search_extra binds each call of a name in SEARCHES to
    # its signature and reads d, theta_min, theta_max and grid_points
    from paoi_lab import optimize

    tracing = perfbench_module("tracing")
    assert tracing.SEARCHES
    for name in tracing.SEARCHES:
        bound = inspect.signature(getattr(optimize, name)).bind("d", "lo", "hi")
        bound.apply_defaults()
        a = bound.arguments
        assert (a["d"], a["theta_min"], a["theta_max"]) == ("d", "lo", "hi"), name
        assert isinstance(a["grid_points"], int), name


def test_counted_primitives_resolve_where_the_tracer_patches():
    # the tracer wraps each name in PRIMITIVES only where it sits in vars()
    # of ServiceDistribution or of a catalog class, so a law that inherits
    # one from any other class would run it uncounted
    from paoi_lab import distributions

    tracing = perfbench_module("tracing")
    for name in tracing.LAWS:
        cls = getattr(distributions, name)
        for method in tracing.PRIMITIVES:
            owner = next(c for c in cls.__mro__ if method in vars(c))
            assert owner in (distributions.ServiceDistribution, cls), (name, method, owner)


def test_simulate_runs_the_functions_the_tracer_spans(tmp_path, monkeypatch):
    # the traced run reads simulate.trajectory_ms from the aoi_trajectory
    # spans and self_ms.simulate from the spans of all three functions, so
    # the CLI must call them
    import paoi_lab.cli

    config = tmp_path / "sim.yaml"
    config.write_text(
        "distribution: {kind: exponential, params: {rate: 1.0}}\n"
        "policies: [zero-wait]\n"
        "simulation: {peaks: 20, replications: 2, seed: 3, dump_peaks: true, "
        "trajectory_horizon: 5.0}\n"
    )
    monkeypatch.setenv("PAOI_THREADS", "1")
    tracer = perfbench_module("tracing").Tracer()
    tracer.install()
    try:
        code = paoi_lab.cli.main(["simulate", "--config", str(config), "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    names = {span[0] for span in tracer.spans}
    assert {"simulate.simulate_peaks", "simulate.aoi_trajectory",
            "simulate.run_replications"} <= names


def test_every_zeta_of_a_search_is_a_traced_span():
    # the traced run reads analytic.zeta_evals from the paoi_fixed_threshold
    # spans, so each golden step must call it, as zero-wait and xmin do
    from paoi_lab import Erlang, optimize

    tracer = perfbench_module("tracing").Tracer()
    tracer.install()
    try:
        res = optimize.min_achievable_paoi(Erlang(3, 1.0))
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert res.refine_iters > 0
    assert names.count("analytic.paoi_fixed_threshold") == res.refine_iters + 2


def test_loading_the_oracle_keeps_mpmath_precision():
    # perfbench/oracle.py sets mp.dps = 50 when it runs
    with mpmath.workdps(20):
        perfbench_module("oracle")
        assert mpmath.mp.dps == 20


def test_oracle_laws_have_what_the_oracle_tests_read():
    assert callable(getattr(perfbench_module("oracle"), "law", None)), \
        "tests/test_oracle.py builds its laws with perfbench/oracle.py's law(kind, params)"
    for name in catalog_ids():
        law = oracle_law(CATALOG[name])
        for attr in ("cdf", "sf", "moment"):
            assert callable(getattr(law, attr, None)), f"the oracle tests read Law.{attr}(t)"
        assert isinstance(getattr(law, "mean", None), mpmath.mpf), "the oracle tests read Law.mean"
