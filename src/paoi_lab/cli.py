"""Command-line front end: ``paoi-lab <command> --config <file>``.

Commands
--------
eval       closed-form PAoI per (distribution, policy) pair
sweep      PAoI vs threshold curve as CSV, minimum row flagged
optimize   optimal threshold, minimum achievable PAoI, verdicts, policy-iteration cross-check
simulate   Monte-Carlo replications with pooled batch-means CI
check      preemption-benefit verdicts (exact and residual-based)
reproduce  the four figure-data bundles (Erlang/Pareto studies)

Exit codes: 0 success, 2 configuration problem, 3 simulation stall.
All numeric CSV cells use ``.`` decimals and the literal token ``inf``
for an infinite value; re-running a command overwrites its outputs
byte-identically.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import analytic, optimize, simulate
from .config import ExperimentConfig, load_config
from .distributions import Erlang, Pareto, TwoPoint
from .errors import ConfigError, InvalidWindow, NoAnalyticForm, SimulationStall

# figure -> (law of one parameter, parameter values, curve label, thresholds):
# one zeta curve over the thresholds per parameter value
_CURVE_FIGURES = {
    "fig4": (lambda k: Erlang(shape=k, rate=1.0), (1, 2, 3, 4), "erlang-k{}",
             np.linspace(0.05, 15.0, 300)),
    "fig6": (lambda alpha: Pareto(xm=1.0, alpha=alpha), (0.5, 1.0, 2.0, 3.0), "pareto-a{:g}",
             np.linspace(1.001, 12.0, 400)),
}
# figure -> (law of one parameter, parameter values): the zero-wait, optimal
# and median policies compared at each parameter value
_COMPARISON_FIGURES = {
    "fig5": (lambda k: Erlang(shape=k, rate=1.0), (1, 2, 3, 4, 5, 6)),
    # The source study only pins alpha <= 1 vs larger; this grid is our choice.
    "fig7": (lambda alpha: Pareto(xm=1.0, alpha=alpha), (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)),
}
_FIGURES = tuple(sorted(_CURVE_FIGURES.keys() | _COMPARISON_FIGURES.keys()))


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return format(float(x), ".12g")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])


def _slug(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9.-]+", "_", label).strip("_")


def _dist_label(d) -> str:
    return f"{type(d).__name__}{tuple(getattr(d, f.name) for f in d.__dataclass_fields__.values())}"


def _workers() -> int:
    raw = os.environ.get("PAOI_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"PAOI_THREADS must be an integer, got {raw!r}")
    if n == 0:
        return os.cpu_count() or 1
    return max(n, 1)


def cmd_eval(cfg: ExperimentConfig, out_dir: Path) -> int:
    rows = []
    print(f"distribution: {_dist_label(cfg.distribution)}")
    print(f"{'policy':<28} {'zeta':>14} {'e_x_check':>14} {'e_y':>14}")
    for policy in cfg.policies:
        try:
            value = analytic.paoi_policy(cfg.distribution, policy)
        except NoAnalyticForm as exc:
            raise ConfigError(f"policy {policy.label()}: {exc}") from exc
        print(
            f"{policy.label():<28} {_fmt(value.zeta):>14} "
            f"{_fmt(value.received_service):>14} {_fmt(value.interreception):>14}"
        )
        rows.append(
            [policy.label(), value.zeta, value.received_service, value.interreception]
        )
    _write_csv(out_dir / f"{cfg.prefix}_eval.csv", ["policy", "zeta", "e_x_check", "e_y"], rows)
    return 0


def cmd_sweep(cfg: ExperimentConfig, out_dir: Path) -> int:
    d = cfg.distribution
    spec = cfg.sweep
    lo, hi = optimize.window_or_default(d, spec.theta_min, spec.theta_max)
    if not lo < hi:
        raise InvalidWindow(f"sweep window [{lo}, {hi}] is empty")
    if spec.spacing == "log":
        if lo <= 0:
            raise InvalidWindow("log spacing needs theta_min > 0")
        thetas = np.geomspace(lo, hi, spec.count)
    else:
        thetas = np.linspace(lo, hi, spec.count)

    grid = analytic.paoi_thresholds(d, thetas)
    i_min = int(np.argmin(grid.zeta))
    columns = zip(thetas.tolist(), *(a.tolist() for a in grid[:3]))  # zeta, E[Xr], E[Y]
    rows = [[*row, 1 if i == i_min else 0] for i, row in enumerate(columns)]
    path = out_dir / f"{cfg.prefix}_sweep.csv"
    _write_csv(path, ["theta", "zeta", "e_x_check", "e_y", "is_minimum"], rows)
    print(f"sweep: {len(rows)} rows -> {path}")
    print(f"minimum zeta {_fmt(rows[i_min][1])} at theta {_fmt(rows[i_min][0])}")
    return 0


def cmd_optimize(cfg: ExperimentConfig, out_dir: Path) -> int:
    d = cfg.distribution
    result = optimize.min_achievable_paoi(d, **vars(cfg.optimizer))
    verdict = optimize.benefit_verdict(d, result)
    bellman_delta = abs(result.bellman_value - result.zeta_opt)

    print(f"distribution: {_dist_label(d)}")
    print(f"window:       [{_fmt(result.window[0])}, {_fmt(result.window[1])}]")
    print(f"theta_opt:    {_fmt(result.theta_opt)}")
    print(f"zeta(fixed):  {_fmt(result.zeta_opt)}")
    print(f"zeta(zero-wait): {_fmt(result.zeta_zero_wait)}")
    print(f"zeta(xmin):   {_fmt(result.zeta_xmin)}")
    if not analytic.has_atom_at_support_min(d):
        print("              (no atom at the support minimum: the xmin policy never delivers)")
    print(f"zeta_min:     {_fmt(result.zeta_min)}   winner: {result.winner}")
    print(
        f"preemptions beneficial: {verdict.beneficial}   margin vs 2E[X]: {_fmt(verdict.margin)}"
    )
    print(f"policy-iteration cross-check delta: {_fmt(bellman_delta)}")
    print(f"grid evaluations: {result.evaluations}, refinement iterations: {result.refine_iters}")

    rows = [[
        _dist_label(d),
        result.theta_opt,
        result.zeta_opt,
        result.zeta_zero_wait,
        result.zeta_xmin,
        result.zeta_min,
        result.winner,
        int(verdict.beneficial),
        verdict.margin,
        bellman_delta,
    ]]
    _write_csv(
        out_dir / f"{cfg.prefix}_optimize.csv",
        [
            "distribution", "theta_opt", "zeta_opt", "zeta_zero_wait", "zeta_xmin",
            "zeta_min", "winner", "beneficial", "margin", "bellman_delta",
        ],
        rows,
    )
    return 0


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path, seed_override: int | None) -> int:
    d = cfg.distribution
    sim = cfg.simulation
    if seed_override is not None:
        try:
            sim = dataclasses.replace(sim, seed=seed_override)
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from exc
    seed = sim.seed
    workers = _workers()
    for policy in cfg.policies:
        estimates = simulate.run_replications(
            d,
            policy,
            peaks=sim.peaks,
            replications=sim.replications,
            base_seed=seed,
            stall_limit=sim.stall_limit,
            warmup=sim.warmup,
            workers=workers,
        )
        pooled = simulate.pooled_estimate(estimates, seed=seed)
        print(f"policy {policy.label()}: pooled mean {_fmt(pooled.mean)} "
              f"ci95 [{_fmt(pooled.ci_low)}, {_fmt(pooled.ci_high)}] "
              f"({sim.replications} x {sim.peaks} peaks)")
        rows: list[list] = [
            [i, e.seed, e.peak_count, e.mean, e.std_error, e.ci_low, e.ci_high]
            for i, e in enumerate(estimates)
        ]
        rows.append(
            ["pooled", seed, pooled.peak_count, pooled.mean, pooled.std_error,
             pooled.ci_low, pooled.ci_high]
        )
        _write_csv(
            out_dir / f"{cfg.prefix}_simulate_{_slug(policy.label())}.csv",
            ["replication", "seed", "peaks", "mean", "stderr", "ci_low", "ci_high"],
            rows,
        )
        if sim.trajectory_horizon is not None:
            points = simulate.aoi_trajectory(
                d, policy, horizon=sim.trajectory_horizon, seed=seed,
                stall_limit=sim.stall_limit,
            )
            _write_csv(
                out_dir / f"{cfg.prefix}_trajectory_{_slug(policy.label())}.csv",
                ["time", "peak", "reset_to"],
                [[p.time, p.peak, p.reset_to] for p in points],
            )
        if sim.dump_peaks:
            records = simulate.simulate_peaks(
                d, policy, peaks=sim.peaks, seed=seed,
                stall_limit=sim.stall_limit, warmup=sim.warmup,
            )
            _write_csv(
                out_dir / f"{cfg.prefix}_peaks_{_slug(policy.label())}.csv",
                ["k", "peak", "received_service", "interreception", "preemptions",
                 "receive_time"],
                [[r.index, r.peak, r.received_service, r.interreception,
                  r.preemptions, r.receive_time] for r in records],
            )
    return 0


def cmd_check(cfg: ExperimentConfig, out_dir: Path) -> int:
    d = cfg.distribution
    result = optimize.min_achievable_paoi(d, **vars(cfg.optimizer))
    exact = optimize.benefit_verdict(d, result)
    grid = optimize.theta_grid(*result.window, cfg.optimizer.grid_points)
    residual = optimize.mean_residual_witness(d, grid)

    print(f"distribution: {_dist_label(d)}")
    print(f"necessary-sufficient: beneficial={exact.beneficial} "
          f"margin={_fmt(exact.margin)} witness_theta="
          f"{'-' if exact.witness_theta is None else _fmt(exact.witness_theta)}")
    print(f"sufficient-residual:  witness="
          f"{'-' if residual.witness_theta is None else _fmt(residual.witness_theta)} "
          f"max_margin={_fmt(residual.margin)}")
    if isinstance(d, TwoPoint):
        critical = optimize.twopoint_benefit_threshold(d.p, d.t1)
        print(f"two-point critical t2: {_fmt(critical)} (beneficial iff t2 > critical)")
    return 0


def _reproduce_rows(figure: str) -> list[list]:
    rows: list[list] = []
    if figure in _CURVE_FIGURES:
        law, params, label, thetas = _CURVE_FIGURES[figure]
        for param in params:
            zetas = analytic.paoi_thresholds(law(param), thetas).zeta
            rows += [[t, label.format(param), z] for t, z in zip(thetas.tolist(), zetas.tolist())]
        return rows
    law, params = _COMPARISON_FIGURES[figure]
    for param in params:
        d = law(param)
        _, zeta_opt = optimize.optimal_threshold(d, *optimize.default_window(d))
        rows.append([param, "zero-wait", analytic.paoi_zero_wait(d)])
        rows.append([param, "optimal", zeta_opt])
        rows.append([param, "median", analytic.paoi_fixed_threshold(d, d.quantile(0.5)).zeta])
    return rows


def cmd_reproduce(figure: str, out_dir: Path) -> int:
    if figure not in _FIGURES:
        raise ConfigError(f"unknown figure id {figure!r}; one of {', '.join(_FIGURES)}")
    rows = _reproduce_rows(figure)
    path = out_dir / f"{figure}.csv"
    _write_csv(path, ["param", "policy", "zeta"], rows)
    print(f"{figure}: {len(rows)} rows -> {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paoi-lab",
        description="Average peak-AoI analysis for preemptive threshold request policies",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("eval", "sweep", "optimize", "simulate", "check"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment YAML file")
        if name == "simulate":
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
    p = sub.add_parser("reproduce")
    p.add_argument("--figure", required=True, help="one of fig4, fig5, fig6, fig7")
    p.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        if args.command == "reproduce":
            return cmd_reproduce(args.figure, out_dir)
        cfg = load_config(args.config)
        if args.command == "eval":
            return cmd_eval(cfg, out_dir)
        if args.command == "sweep":
            return cmd_sweep(cfg, out_dir)
        if args.command == "optimize":
            return cmd_optimize(cfg, out_dir)
        if args.command == "check":
            return cmd_check(cfg, out_dir)
        return cmd_simulate(cfg, out_dir, args.seed)
    except (ConfigError, InvalidWindow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulationStall as exc:
        print(f"simulation stalled: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
