#!/usr/bin/env python3
"""paoi-lab benchmark: run one workload through the CLI and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree; it imports ``paoi_lab`` from
``src/`` there and writes only under ``.perfbench/`` there.  A run

1. with ``--trace 0``, spawns fresh interpreters that import the CLI and
   load the workload's configs, and reports the median time to the end of
   the loads, scaled to the speed probe's reference speed, as ``setup_s``;
2. runs one untimed warm-up pass and checks every output against the
   oracle (``checks.py``);
3. runs timed passes for ``--seconds`` seconds; each must reproduce the
   warm-up pass byte for byte.  ``pass_norm_s`` is the mean pass time
   scaled to the speed probe's reference speed (``probe.py``);
4. with ``--trace 1``, runs one more pass with wrappers installed
   (``tracing.py``), then the micro-loops, and reports the per-layer
   metrics instead of the end-to-end ones.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Metric
names and units are read from ``BENCHMARK.json``.  A command fails on a
non-zero exit, an exception, or an output the checks reject;
``error_rate`` is ``failed / attempted``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
import probe
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_SPAWNS = 7
# Run in a fresh interpreter: start the speed probe, import the CLI, load the
# configs, and print when that ended with the probe's samples.  Interpreter
# teardown is not timed.
SETUP_CODE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import probe
with probe.SpeedProbe() as speed:
    sys.path.insert(0, sys.argv[2])
    import paoi_lab.cli
    from paoi_lab.config import load_config
    for path in sys.argv[3:]:
        load_config(path)
    end = time.perf_counter()
print(json.dumps({"end": end, "samples": speed.samples}))
"""
SIM_CASES = ("erlang-zero-wait", "erlang-fixed", "erlang-median", "hyper-exponential-fixed",
             "hyper-exponential-randomized")


@dataclass
class Result:
    rc: int | None
    stdout: str
    error: str | None
    files: dict  # output file name -> bytes
    seconds: float  # wall time of the command

    def signature(self):
        return (self.rc, self.stdout, self.error,
                {n: hashlib.sha256(b).hexdigest() for n, b in self.files.items()})


def run_command(cli, cmd, threads: str) -> tuple:
    os.environ["PAOI_THREADS"] = threads
    buf = io.StringIO()
    rc, error = None, None
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli.main(cmd.argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a failed command is counted, and the run goes on
        error = traceback.format_exc()
    return rc, buf.getvalue(), error


def run_pass(cli, workload, tracer=None, warmup=False) -> tuple[float, float, list[Result]]:
    """One pass over the workload's commands; returns its start, wall time and results."""
    shutil.rmtree(workload.out_root, ignore_errors=True)
    saved = os.environ.get("PAOI_THREADS")
    raw = []
    t0 = time.perf_counter()
    for cmd in workload.commands:
        threads = cmd.warmup_threads if warmup else "1"
        t = time.perf_counter()
        if tracer is None:
            raw.append((*run_command(cli, cmd, threads), time.perf_counter() - t))
        else:
            with tracer.command(cmd.id, cmd.argv[0]):
                raw.append((*run_command(cli, cmd, threads), time.perf_counter() - t))
    elapsed = time.perf_counter() - t0
    if saved is None:
        os.environ.pop("PAOI_THREADS", None)
    else:
        os.environ["PAOI_THREADS"] = saved
    results = []
    for cmd, (rc, out, err, seconds) in zip(workload.commands, raw):
        files = {}
        if cmd.out_dir.is_dir():
            files = {p.name: p.read_bytes() for p in sorted(cmd.out_dir.iterdir())}
        results.append(Result(rc, out, err, files, seconds))
    return t0, elapsed, results


def measure_setup(configs: list[str]) -> tuple[list[float], list[float]]:
    """Raw and normalized times from spawning an interpreter to the CLI
    imported and the configs loaded.  Both clocks are ``CLOCK_MONOTONIC``, so
    the child's end time is comparable with the parent's spawn time."""
    raw, norm = [], []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(Path(__file__).parent),
                              str(SRC), *configs],
                             check=True, capture_output=True, text=True, cwd=ROOT, timeout=120)
        child = json.loads(out.stdout.splitlines()[-1])
        raw.append(child["end"] - t0)
        norm.append(probe.normalize(child["samples"], t0, child["end"]))
    return raw, norm


def simulation_counts(workload, first: list[Result]) -> tuple[dict, dict]:
    """Peaks and attempts one pass simulates, per case, by re-running each
    replication serially outside the timing.  Also checks that the
    replication estimates the CLI wrote (possibly from worker processes)
    are the serial ones: fan-out must not change results."""
    from paoi_lab import simulate
    from paoi_lab.config import load_config

    counts, problems = {}, {}
    for cmd, res in zip(workload.commands, first):
        if cmd.argv[0] != "simulate":
            continue
        cfg = load_config(cmd.argv[2])
        sim = cfg.simulation
        seed = int(cmd.argv[cmd.argv.index("--seed") + 1])
        for policy in cfg.policies:
            slug = checks.policy_slug(policy.label())
            peaks = attempts = 0
            rows = res.files.get(f"{cfg.prefix}_simulate_{slug}.csv", b"").decode().splitlines()
            for i in range(sim.replications):
                n = sim.peaks
                traj = f"{cfg.prefix}_trajectory_{slug}.csv"
                if i == 0 and traj in res.files:
                    n = max(n, res.files[traj].count(b"\n"))  # its rows + 1 records
                recs = simulate.simulate_peaks(cfg.distribution, policy, n, seed + i,
                                               sim.stall_limit, sim.warmup)
                used = [recs[:sim.peaks]]
                if i == 0:
                    if sim.dump_peaks:
                        used.append(recs[:sim.peaks])
                    if traj in res.files:
                        used.append(recs[:res.files[traj].count(b"\n")])
                for part in used:
                    peaks += len(part)
                    attempts += len(part) + sum(r.preemptions for r in part)
                est = simulate.estimate_paoi(recs[:sim.peaks], seed=seed + i)
                if len(rows) <= i + 1 or rows[i + 1].split(",")[3] != format(est.mean, ".12g"):
                    problems.setdefault(cmd.id, []).append(
                        f"{slug}: replication {i} differs from a serial re-run")
            kind = type(policy).__name__
            case = {"ZeroWait": "zero-wait", "FixedThreshold": "fixed",
                    "MedianThreshold": "median", "RandomizedThreshold": "randomized"}[kind]
            counts[f"{cmd.law}-{case}"] = (peaks, attempts)
    return counts, problems


def environment(workload, seed) -> dict:
    import mpmath
    import numpy
    import scipy

    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for p in sorted((SRC / "paoi_lab").glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload_seed": seed,
        "scale": workload.scale,
        "simulate_seed": workload.sim_seed,
        "pool_start_method": multiprocessing.get_start_method(),
        "machine": platform.machine(),
    }


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def end_to_end(setup_raw, setup, times, norm_times, sim_counts, failed,
               attempted) -> tuple[dict, list[str]]:
    pass_s = statistics.median(times)
    q1, q3 = quartiles(times)
    n1, n3 = quartiles(norm_times)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "setup_s": statistics.median(setup),
        # the mean, not the median: normalized pass times are bimodal with the
        # machine's speed, and a median jumps from one mode to the other as
        # the share of slow time crosses one half (NOTES.md)
        "pass_norm_s": statistics.fmean(norm_times),
        "peak_rss_mb": rss_kb / 1024,
    }
    lines = [
        f"  setup_s             {metrics['setup_s']:.4f} s    median of {len(setup)} spawns at "
        f"the probe's reference speed, range {min(setup):.4f} .. {max(setup):.4f}; raw median "
        f"{statistics.median(setup_raw):.4f}",
        f"  pass_s              {pass_s:.4f} s    median of {len(times)} passes, "
        f"q1 {q1:.4f}, q3 {q3:.4f}",
        f"  pass_norm_s         {metrics['pass_norm_s']:.4f} s    mean of the same at the "
        f"probe's reference speed, q1 {n1:.4f}, q3 {n3:.4f}",
    ]
    if sim_counts:
        peaks = sum(c[0] for c in sim_counts.values())
        attempts = sum(c[1] for c in sim_counts.values())
        lines += [f"  sim_peaks_per_s     {peaks / pass_s:.1f} 1/s  {peaks} peaks per pass",
                  f"  sim_attempts_per_s  {attempts / pass_s:.1f} 1/s  {attempts} attempts "
                  "per pass"]
    else:
        lines += ["  sim_peaks_per_s     n/a (no simulation in this workload)",
                  "  sim_attempts_per_s  n/a (no simulation in this workload)"]
    lines += [f"  peak_rss_mb         {metrics['peak_rss_mb']:.1f} MB   largest process of "
              "the run (this one or a child)",
              f"  error_rate          {failed / attempted:.4g}      {failed} of {attempted} "
              "commands failed"]
    return metrics, lines


def per_layer(tracer, first, untraced_s, traced_s, sim_counts, micro,
              speedup) -> tuple[dict, list[str]]:
    from tracing import CMD, END, EXTRA, FAILED, LAW, LAYER, NAME, PARENT, SEARCHES, START

    spans = tracer.spans
    selfs = tracer.self_times()
    ms = 1e3

    def total(name, law=None):
        return ms * sum(s[END] - s[START] for s in spans
                        if s[NAME] == name and (law is None or s[LAW] == law))

    def calls(name, law=None):
        return sum(n for (k, lw), n in tracer.counts.items()
                   if k == name and (law is None or lw == law))

    m = dict(micro)
    loads = [s[END] - s[START] for s in spans if s[NAME] == "config.load_config"]
    m["config.load_ms"] = ms * statistics.median(loads) if loads else 0.0
    for verb in ("eval", "sweep", "optimize", "simulate", "check", "reproduce"):
        m[f"cli.self_ms.{verb}"] = ms * sum(t for s, t in zip(spans, selfs)
                                            if s[NAME] == f"cli.{verb}")
    m["cli.csv_rows"] = sum(b.count(b"\n") - 1 for r in first for n, b in r.files.items()
                            if n.endswith(".csv"))
    for prim in ("cdf", "sf", "truncated_first_moment", "integrated_cdf", "quantile",
                 "sample_batch", "mean", "conditional_residual"):
        m[f"distributions.calls.{prim}"] = calls(f"distributions.{prim}")
    m["analytic.zeta_evals"] = sum(1 for s in spans if s[NAME] == "analytic.paoi_fixed_threshold")
    m["analytic.repetitive_ms"] = total("analytic.paoi_repetitive")
    m["optimize.search_ms"] = total("optimize.min_achievable_paoi")
    m["optimize.verdict_ms"] = total("optimize.preemption_beneficial")
    m["optimize.residual_ms"] = total("optimize.mean_residual_witness")
    for law in workloads.OPTIMIZED:
        m[f"optimize.crosscheck_ms.{law}"] = total("optimize.bellman_fixed_point", law)
        m[f"optimize.vi_sweeps.{law}"] = calls("optimize.bellman_apply", law)
    results = [s[EXTRA] for s in spans if s[NAME] == "optimize.min_achievable_paoi"]
    m["optimize.evaluations"] = sum(e["evaluations"] for e in results)
    m["optimize.refine_iters"] = sum(e["refine_iters"] for e in results)
    crosschecks = [s for s in spans if s[NAME] == "optimize.bellman_fixed_point"]
    m["optimize.crosscheck_attempted"] = len(crosschecks)
    m["optimize.crosscheck_failed"] = sum(1 for s in crosschecks if s[FAILED])
    searches = {}  # optimize command -> keys of the threshold searches it ran
    for s in spans:
        if s[NAME].rsplit(".", 1)[1] in SEARCHES and s[CMD].startswith("optimize:"):
            searches.setdefault(s[CMD], []).append(json.dumps(s[EXTRA]["key"]))
    ran = sum(len(v) for v in searches.values())
    m["optimize.search_reuse_ratio"] = (
        sum(len(set(v)) for v in searches.values()) / ran if ran else 0.0)
    reps = [s[END] - s[START] for s in spans if s[NAME] == "simulate.simulate_peaks"
            and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "simulate.run_replications"]
    m["simulate.replication_ms"] = ms * statistics.mean(reps) if reps else 0.0
    m["simulate.estimate_ms"] = total("simulate.estimate_paoi")
    m["simulate.trajectory_ms"] = total("simulate.aoi_trajectory")
    for case in SIM_CASES:
        c = sim_counts.get(case)
        m[f"simulate.attempts_per_peak.{case}"] = c[1] / c[0] if c else 0.0
    m["simulate.pool_speedup"] = speedup
    for layer in ("cli", "config", "analytic", "optimize", "simulate"):
        m[f"self_ms.{layer}"] = ms * sum(t for s, t in zip(spans, selfs) if s[LAYER] == layer)
    m["trace.traced_pass_s"] = traced_s
    m["trace.overhead_s"] = traced_s - untraced_s

    by_name = {}
    for s, t in zip(spans, selfs):
        by_name[s[NAME]] = by_name.get(s[NAME], 0.0) + t
    top = sorted(by_name.items(), key=lambda kv: -kv[1])[:8]
    lines = [f"  traced pass {traced_s:.4f} s, untraced mean {untraced_s:.4f} s (both at the "
             f"probe's reference speed), overhead {traced_s - untraced_s:+.4f} s; "
             f"{len(spans)} spans",
             "  largest self times (s):"]
    lines += [f"    {name:<40} {t:.4f}" for name, t in top]
    zeta = {}
    for s in spans:
        if s[NAME] == "analytic.paoi_fixed_threshold":
            zeta.setdefault(s[LAW], []).append(s[END] - s[START])
    lines += [f"  zeta span us per call, {law}: {1e6 * statistics.mean(v):.2f} over {len(v)}"
              for law, v in sorted(zeta.items())]
    for name in ("optimize.min_achievable_paoi", "optimize.preemption_beneficial",
                 "optimize.optimal_threshold"):
        per_law = {}
        for s in spans:
            if s[NAME] == name:
                per_law[s[LAW]] = per_law.get(s[LAW], 0.0) + s[END] - s[START]
        if per_law:
            lines.append(f"  {name} ms by law: " + ", ".join(
                f"{law} {ms * t:.2f}" for law, t in sorted(per_law.items())))
    return m, lines


def emit(spec_key, values, correct, attempted, failed):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[spec_key]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in spec}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "paoi_lab" / "__init__.py").is_file():
        print(f"error: no paoi_lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import paoi_lab
    import paoi_lab.cli as cli

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not Path(paoi_lab.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported paoi_lab from {paoi_lab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    wl = workloads.build(args.workload, args.seed, work)
    configs = sorted({c.argv[2] for c in wl.commands if c.config is not None})
    setup_raw, setup = measure_setup(configs) if args.trace == 0 else ([], [])

    checker = checks.Checker(args.seed)
    _, _, first = run_pass(cli, wl, warmup=True)
    verdicts = [checker.check(cmd, res) for cmd, res in zip(wl.commands, first)]
    sim_counts, sim_problems = simulation_counts(wl, first)
    for i, cmd in enumerate(wl.commands):
        verdicts[i] += sim_problems.get(cmd.id, [])
    reference = [res.signature() for res in first]
    attempted = len(verdicts)
    failed = sum(1 for v in verdicts if v)

    def tally(results):
        nonlocal attempted, failed
        for i, res in enumerate(results):
            attempted += 1
            if verdicts[i] or res.signature() != reference[i]:
                failed += 1
                if not verdicts[i]:
                    verdicts[i] = ["differs from the first pass"]

    times, norm_times, speeds = [], [], []
    per_command = {cmd.id: [] for cmd in wl.commands}
    t0 = time.perf_counter()
    with probe.SpeedProbe() as speed:
        while not times or time.perf_counter() - t0 < args.seconds:
            start, elapsed, results = run_pass(cli, wl)
            times.append(elapsed)
            norm_times.append(speed.normalize(start, start + elapsed))
            speeds.append(speed.speed(start, start + elapsed))
            tally(results)
            for cmd, res in zip(wl.commands, results):
                per_command[cmd.id].append(res.seconds)

    print(f"workload {wl.name}: seed {args.seed}, scale {wl.scale:.6g}, "
          f"{len(wl.commands)} commands per pass, {len(times)} timed passes after a warm-up")
    print(f"  why: {wl.why}")
    print(f"  predicted shares: {wl.shares}")
    env = environment(wl, args.seed)
    q1, q3 = quartiles(times)
    record = {"workload": wl.name, "trace": args.trace, "environment": env,
              "pass_s": {"median": statistics.median(times), "q1": q1, "q3": q3,
                         "count": len(times)},
              "pass_times_s": times, "pass_norm_times_s": norm_times,
              "probe_speeds": speeds,
              "setup_times_s": setup_raw, "setup_norm_times_s": setup,
              "command_median_s": {k: statistics.median(v) for k, v in per_command.items()},
              "tolerances": {k: v for k, v in vars(checks.O).items() if k.isupper()}}
    if args.trace == 0:
        values, lines = end_to_end(setup_raw, setup, times, norm_times, sim_counts, failed,
                                   attempted)
        spec_key = "end_to_end"
    else:
        import tracing
        from paoi_lab.config import parse_distribution
        from paoi_lab.policies import FixedThreshold

        tracer = tracing.Tracer()
        tracer.install()
        try:
            with probe.SpeedProbe() as speed:
                start, traced_s, results = run_pass(cli, wl, tracer)
        finally:
            tracer.uninstall()
        traced_norm_s = speed.normalize(start, start + traced_s)
        tally(results)
        laws = {k: parse_distribution({"kind": k, "params": workloads.scaled_params(k, wl.scale)})
                for k in workloads.CATALOG}
        micro = tracing.micro_metrics(laws, wl.scale)
        speedup = tracing.pool_speedup(laws["erlang"], FixedThreshold(2.0 * wl.scale),
                                     wl.sim_seed)
        values, lines = per_layer(tracer, first, statistics.fmean(norm_times), traced_norm_s,
                                  sim_counts, micro, speedup)
        tracer.write(work / "spans.jsonl")
        lines.append(f"  spans written to {work / 'spans.jsonl'}")
        spec_key = "per_layer"
    for line in lines:
        print(line)
    problems = [(cmd.id, v) for cmd, v in zip(wl.commands, verdicts) if v]
    for cid, v in problems:
        print(f"  FAILED {cid}: {'; '.join(v[:3])}")
    if checker.worst[1]:
        err, where, rtol = checker.worst
        print(f"  oracle: closest to its tolerance, relative error {err:.3g} of {rtol:.3g} "
              f"({where})")
    print(f"  env: {json.dumps(env)}")
    record.update(failures=problems,
                  closest_to_tolerance=dict(zip(("error", "where", "tolerance"), checker.worst)))
    correct = failed == 0
    record["metrics"] = emit(spec_key, values, correct, attempted, failed)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
