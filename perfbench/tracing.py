"""Tracing from outside the program, for the benchmark's traced run.

``Tracer.install`` wraps public functions of ``paoi_lab`` in the module
that defines them and in every ``paoi_lab`` module that imported the name
(``optimize.paoi_fixed_threshold``, ``cli.load_config``, ...).  Two kinds
of wrapper:

* span wrappers record ``[name, layer, parent, command, start, end, law,
  failed, extra]`` for calls at a layer boundary;
* count wrappers only count calls, keyed by name and law, for callees that
  take a few microseconds (the distribution primitives, ``bellman_apply``);
  their time per call comes from the micro-loops below instead.  A
  primitive called by another primitive (``quad`` calling ``cdf``,
  ``HyperExponential.cdf`` calling ``sf``) is not counted, so the counts
  are calls across the distributions layer's boundary.

Spans stay in memory and are written out when the run ends.  Calls made
inside ``PAOI_THREADS`` worker processes would not be traced (the workers
would record into their own copies), so the traced pass, like every timed
pass, runs with ``PAOI_THREADS=1``; only the untraced warm-up pass fans
out.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import sys
import time
from collections import Counter

LAWS = {
    "Exponential": "exponential",
    "Erlang": "erlang",
    "Pareto": "pareto",
    "ShiftedExponential": "shifted-exponential",
    "TwoPoint": "two-point",
    "HyperExponential": "hyper-exponential",
    "LogNormal": "log-normal",
    "Deterministic": "deterministic",
}

SPANNED = {
    "config": ["load_config"],
    "analytic": ["paoi_fixed_threshold", "paoi_zero_wait", "paoi_xmin", "paoi_repetitive",
                 "paoi_policy"],
    "optimize": ["default_window", "optimal_threshold", "min_achievable_paoi",
                 "preemption_beneficial", "bellman_tables", "bellman_fixed_point",
                 "mean_residual_witness", "twopoint_benefit_threshold"],
    "simulate": ["run_replications", "pooled_estimate", "simulate_peaks", "estimate_paoi",
                 "aoi_trajectory"],
}
COUNTED = {"optimize": ["bellman_apply"]}
PRIMITIVES = ["cdf", "sf", "truncated_first_moment", "integrated_cdf", "quantile",
              "sample_batch", "mean", "conditional_residual"]
SEARCHES = ("min_achievable_paoi", "preemption_beneficial", "optimal_threshold")

NAME, LAYER, PARENT, CMD, START, END, LAW, FAILED, EXTRA = range(9)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._cmd = None
        self._undo: list[tuple] = []
        self._counting = False

    # -- wrappers ----------------------------------------------------------

    def _law(self, args):
        if args:
            law = LAWS.get(type(args[0]).__name__)
            if law is not None:
                return law
        return self.spans[self._stack[-1]][LAW] if self._stack else None

    def _span(self, fn, name, layer):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        signature = inspect.signature(fn) if name.rsplit(".", 1)[1] in SEARCHES else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, layer, stack[-1] if stack else -1, self._cmd, 0.0, 0.0,
                   self._law(args), False, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if signature is not None:
                rec[EXTRA] = _search_extra(signature, args, kwargs, out)
            return out

        return wrapper

    def _count(self, fn, name):
        counts, law_of = self.counts, self._law

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._counting:  # called by another counted callee
                return fn(*args, **kwargs)
            counts[(name, law_of(args))] += 1
            self._counting = True
            try:
                return fn(*args, **kwargs)
            finally:
                self._counting = False

        return wrapper

    def install(self):
        import paoi_lab.distributions as dist

        modules = [m for n, m in sys.modules.items()
                   if n == "paoi_lab" or n.startswith("paoi_lab.")]
        for layer, names in SPANNED.items():
            for n in names:
                self._patch_function(modules, layer, n, self._span, f"{layer}.{n}", layer)
        for layer, names in COUNTED.items():
            for n in names:
                self._patch_function(modules, layer, n, self._count, f"{layer}.{n}")
        for cls in (dist.ServiceDistribution, *(getattr(dist, c) for c in LAWS)):
            for m in PRIMITIVES:
                if m in vars(cls) and not getattr(vars(cls)[m], "__isabstractmethod__", False):
                    self._patch_attr(cls, m, self._count(vars(cls)[m], f"distributions.{m}"))

    def _patch_function(self, modules, layer, name, make, *make_args):
        original = getattr(sys.modules[f"paoi_lab.{layer}"], name)
        wrapper = make(original, *make_args)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch_attr(mod, attr, wrapper)

    def _patch_attr(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- one CLI command ---------------------------------------------------

    @contextlib.contextmanager
    def command(self, cmd_id, verb):
        """The root span of one CLI command."""
        rec = [f"cli.{verb}", "cli", -1, cmd_id, 0.0, 0.0, None, False, None]
        self._cmd = cmd_id
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            yield
        except BaseException:
            rec[FAILED] = True
            raise
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()
            self._cmd = None

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        inner = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                inner[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - inner[i] for i, s in enumerate(self.spans)]

    def write(self, path):
        keys = ("name", "layer", "parent", "command", "start", "end", "law", "failed", "extra")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


def _search_extra(signature, args, kwargs, out):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    key = [repr(a["d"]), a["theta_min"], a["theta_max"], a["grid_points"]]
    if hasattr(out, "evaluations"):
        return {"key": key, "evaluations": out.evaluations, "refine_iters": out.refine_iters}
    return {"key": key}


# -- micro-loops: time per call of the callees that are only counted ---------

def _per_call(fn, items, repeats=5):
    """Median over ``repeats`` of the mean time of ``fn`` over ``items``, in s."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for x in items:
            fn(x)
        times.append((time.perf_counter() - t0) / len(items))
    return statistics.median(times)


def micro_metrics(laws: dict, scale: float) -> dict:
    """Per-call cost of each primitive and of zeta for each law, over the
    quantiles 0.01..0.99; per-draw cost of sampling in blocks of 4096; the
    threshold samplers' cost per call."""
    import numpy as np
    from paoi_lab import analytic
    from paoi_lab.policies import RepetitiveSequence, UniformSampler

    out = {}
    qs = [i / 100 for i in range(1, 100)]
    for law, d in laws.items():
        thetas = [d.quantile(q) for q in qs]
        for prim in ("cdf", "sf", "truncated_first_moment", "integrated_cdf"):
            out[f"distributions.{prim}_us.{law}"] = 1e6 * _per_call(getattr(d, prim), thetas)
        out[f"distributions.quantile_us.{law}"] = 1e6 * _per_call(d.quantile, qs)
        rng = np.random.default_rng(0)
        out[f"distributions.sample_ns.{law}"] = 1e9 * _per_call(
            lambda _: d.sample_batch(rng, 4096), range(20)) / 4096
        out[f"analytic.zeta_us.{law}"] = 1e6 * _per_call(
            lambda t: analytic.paoi_fixed_threshold(d, t), thetas)
    rng = np.random.default_rng(0)
    sampler = UniformSampler(0.05 * scale, 0.5 * scale)
    out["policies.draw_us"] = 1e6 * _per_call(lambda _: sampler.draw(rng), range(20_000))
    seq = RepetitiveSequence((1.0 * scale, 2.0 * scale, 2.5 * scale))
    out["policies.threshold_for_attempt_us"] = 1e6 * _per_call(
        seq.threshold_for_attempt, [1 + i % 5 for i in range(20_000)])
    return out


def pool_speedup(d, policy, seed: int, repeats: int = 3) -> float:
    """Wall time of one ``run_replications`` job at workers 1 over workers 2."""
    from paoi_lab import simulate

    def wall(workers):
        t0 = time.perf_counter()
        simulate.run_replications(d, policy, peaks=20_000, replications=4, base_seed=seed,
                                  workers=workers)
        return time.perf_counter() - t0

    serial = statistics.median(wall(1) for _ in range(repeats))
    pooled = statistics.median(wall(2) for _ in range(repeats))
    return serial / pooled
