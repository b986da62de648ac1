"""The names the benchmark's traced run wraps or calls, and the names the
oracle tests read from the benchmark's oracle, must stay.

``perfbench/tracing.py`` patches public functions of ``paoi_lab`` by name
and times a few methods directly; a name it expects that is gone fails the
traced run, not this suite, unless this test checks it.  The oracle tests
build every law through ``perfbench/oracle.py``'s ``law``; a name they read
that is gone fails here with one message, not in every oracle test.  The
tests read both files as they are and change nothing in them.
"""

import inspect

import mpmath

from conftest import CATALOG, catalog_ids, oracle_law, perfbench_module


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
