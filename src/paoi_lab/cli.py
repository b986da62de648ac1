"""Command-line front end: ``paoi-lab <command> --config <file>``.

Commands
--------
eval       closed-form PAoI per (distribution, policy) pair
sweep      PAoI vs threshold curve as CSV, minimum row flagged
optimize   optimal threshold, minimum achievable PAoI, verdicts, the Bellman value on
           the search grid (its gap printed, for byte-identical output, as the
           "policy-iteration cross-check delta")
simulate   Monte-Carlo replications with pooled batch-means CI
check      preemption-benefit verdicts (exact and residual-based)
reproduce  the four figure-data bundles (Erlang/Pareto studies)

Exit codes: 0 success, 2 configuration problem (a ``ConfigError``), 3 simulation
stall (a ``SimulationStall``).
Numeric CSV cells use ``.`` decimals and 12 significant digits, and the
literal tokens ``inf``, ``-inf`` and ``nan`` for non-finite values; text
cells are quoted only when they hold a comma, a double quote or a newline.
Re-running a command overwrites its outputs byte-identically.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import os
import re
import sys
from pathlib import Path
from typing import TextIO

import numpy as np

from . import analytic, optimize, simulate
from .config import ExperimentConfig, load_config
from .distributions import Erlang, Pareto, TwoPoint
from .errors import ConfigError, SimulationStall
from .policies import MedianThreshold

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
_CSV_CHUNK = 1024  # rows joined per write


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _quote(cell: str) -> str:
    """``cell`` as ``csv.QUOTE_MINIMAL`` writes it with a ``\\n`` line end."""
    if "," in cell or '"' in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _open_csv(path: Path):
    """``path`` opened for writing a CSV."""
    try:
        return open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _header(names) -> str:
    return ",".join(map(_quote, names)) + "\n"


def _write_table(fh: TextIO, header: list[str], columns: list) -> None:
    """Write one row per entry of the equally long ``columns`` under ``header``
    to the open file ``fh``.

    A float column writes its cells as ``_fmt`` does (``%.12g``), an integer
    column as ``%d``, and any other column its cells' ``str``, quoted where
    needed; one ``%`` template per row fills them in, a chunk of rows at a
    time.
    """
    formats, cells = [], []
    for column in columns:
        array = np.asarray(column)
        if array.dtype.kind in "fiu":
            formats.append("%.12g" if array.dtype.kind == "f" else "%d")
            cells.append(array)
        else:
            formats.append("%s")
            cells.append(np.array([_quote(str(v)) for v in column], dtype=object))
    template = ",".join(formats)
    fh.write(_header(header))
    for i in range(0, max(map(len, cells)), _CSV_CHUNK):
        rows = zip(*(c[i : i + _CSV_CHUNK].tolist() for c in cells), strict=True)
        fh.write("\n".join([template % row for row in rows]) + "\n")


def _write_csv(path: Path, header: list[str], columns: list) -> None:
    """:func:`_write_table` to ``path``."""
    with _open_csv(path) as fh:
        _write_table(fh, header, columns)


# field of a peak dump or a trajectory -> (engine column, offset): the field
# of the record at engine row r holds the column's value at row r + offset; a
# reception's drop-to value is the service the next peak carries
_ENGINE_FIELDS = {
    "k": ("k", 0),
    "peak": ("peak", 0),
    "received_service": ("received", 0),
    "interreception": ("interreception", 0),
    "preemptions": ("preemptions", 0),
    "receive_time": ("time", 0),
    "time": ("time", 0),
    "reset_to": ("received", 1),
}


def _chunks(spans):
    """``(a, b)`` row ranges of at most ``_CSV_CHUNK`` rows that cover the
    union of the half-open row ``spans`` once, each inside one span."""
    done = 0
    for lo, hi in sorted(spans):
        for a in range(max(lo, done), hi, _CSV_CHUNK):
            yield a, min(a + _CSV_CHUNK, hi)
        done = max(done, hi)


def _engine_cells(sources, lo: int, hi: int) -> list[str]:
    """The cells of engine rows ``lo`` to ``hi - 1`` of one column, rendered
    as :func:`_write_csv` renders a column of their kind; ``sources`` holds
    ``(values, engine row of values[0])`` pairs that cover those rows."""
    values = np.empty(hi - lo, dtype=sources[0][0].dtype)
    for column, first in sources:
        start, stop = max(lo, first), min(hi, first + len(column))
        if start < stop:
            values[start - lo : stop - lo] = column[start - first : stop - first]
    fmt = "%.12g\n" if values.dtype.kind == "f" else "%d\n"
    return ((fmt * len(values)) % tuple(values.tolist())).split()


def _write_engine_rows(outputs: list[tuple[TextIO, np.recarray, int]]) -> None:
    """Write record arrays read off the engine rows of one seed, each to its
    own open file, in one pass that renders every cell they share once.

    ``outputs`` holds ``(file, records, first)`` triples: record ``i`` is
    engine row ``first + i`` (a trajectory starts at row 0, a peak dump at
    its warm-up), and each field maps to an engine column by
    ``_ENGINE_FIELDS``, so a dump and a trajectory of one seed share their
    ``peak`` and time cells and the carried service of every row past the
    first.  The pass renders ``_CSV_CHUNK`` engine rows at a time and writes
    each file's records among them before it renders the next, so each
    file gets the bytes :func:`_write_table` writes for its records' fields
    alone.
    """
    plans = []  # per output: its file, engine rows and fields' (engine column, offset)
    sources = {}  # engine column -> [(values, engine row of values[0])]
    for fh, records, first in outputs:
        fh.write(_header(records.dtype.names))
        fields = [_ENGINE_FIELDS[name] for name in records.dtype.names]
        for name, (column, offset) in zip(records.dtype.names, fields):
            sources.setdefault(column, []).append((records[name], first + offset))
        plans.append((fh, first, first + len(records), fields))
    for a, b in _chunks([plan[1:3] for plan in plans]):
        # per file holding records here: the records' engine rows and fields
        rows = [(fh, max(a, lo), min(b, hi), fields)
                for fh, lo, hi, fields in plans if lo < b and a < hi]
        wanted = {}  # engine column -> the span of its rows some file writes here
        for _, lo, hi, fields in rows:
            for column, offset in fields:
                w_lo, w_hi = wanted.get(column, (lo + offset, hi + offset))
                wanted[column] = min(w_lo, lo + offset), max(w_hi, hi + offset)
        cells = {column: (w_lo, _engine_cells(sources[column], w_lo, w_hi))
                 for column, (w_lo, w_hi) in wanted.items()}
        for fh, lo, hi, fields in rows:
            columns = []
            for column, offset in fields:
                w_lo, rendered = cells[column]
                columns.append(rendered[lo + offset - w_lo : hi + offset - w_lo])
            fh.write("\n".join(map(",".join, zip(*columns))) + "\n")


def _slug(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9.-]+", "_", label).strip("_")


def _csv_name(cfg: ExperimentConfig, kind: str, policy=None) -> str:
    """``{prefix}_{kind}.csv``, or ``{prefix}_{kind}_{slug}.csv`` for a file
    written per policy."""
    suffix = "" if policy is None else "_" + _slug(policy.label())
    return f"{cfg.prefix}_{kind}{suffix}.csv"


def _dist_label(d) -> str:
    return f"{type(d).__name__}{tuple(getattr(d, f.name) for f in d.__dataclass_fields__.values())}"


def _workers() -> int:
    raw = os.environ.get("PAOI_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"PAOI_THREADS must be an integer, got {raw!r}")
    if n < 0:
        raise ConfigError(f"PAOI_THREADS must be nonnegative, got {raw!r}")
    return n or os.cpu_count() or 1


def _reject_clashes(policies, key, clash: str) -> None:
    """Raise :class:`ConfigError` when two policies share ``key(policy)``."""
    seen = {}  # key -> index of the first policy with it
    for i, policy in enumerate(policies):
        k = key(policy)
        if k in seen:
            raise ConfigError(f"policies[{seen[k]}] and policies[{i}] would both {clash} {k!r}")
        seen[k] = i


def cmd_eval(cfg: ExperimentConfig, out_dir: Path) -> int:
    _reject_clashes(cfg.policies, lambda p: p.label(), "be labelled")
    labels, values = [], []
    for policy in cfg.policies:  # every value before any output
        value = analytic.paoi_policy(cfg.distribution, policy)
        labels.append(policy.label())
        values.append((value.zeta, value.received_service, value.interreception))
    print(f"distribution: {_dist_label(cfg.distribution)}")
    print(f"{'policy':<28} {'zeta':>14} {'e_x_check':>14} {'e_y':>14}")
    for label, (zeta, e_x, e_y) in zip(labels, values):
        print(f"{label:<28} {_fmt(zeta):>14} {_fmt(e_x):>14} {_fmt(e_y):>14}")
    _write_csv(
        out_dir / _csv_name(cfg, "eval"),
        ["policy", "zeta", "e_x_check", "e_y"],
        [labels, *np.array(values, dtype=float).T],
    )
    return 0


def cmd_sweep(cfg: ExperimentConfig, out_dir: Path) -> int:
    d = cfg.distribution
    spec = cfg.sweep
    lo, hi = optimize.window_or_default(d, spec.theta_min, spec.theta_max)
    if not lo < hi:
        raise ConfigError(f"sweep window [{lo}, {hi}] is empty")
    if spec.spacing == "log" and lo <= 0:
        raise ConfigError("log spacing needs theta_min > 0")
    spacing = np.geomspace if spec.spacing == "log" else np.linspace
    thetas = optimize._spaced_grid(spacing, lo, hi, spec.count)

    grid = analytic.paoi_thresholds(d, thetas)
    i_min = int(np.argmin(grid.zeta))
    is_minimum = np.zeros(len(thetas), dtype=int)
    is_minimum[i_min] = 1
    path = out_dir / _csv_name(cfg, "sweep")
    _write_csv(  # zeta, E[Xr], E[Y]
        path, ["theta", "zeta", "e_x_check", "e_y", "is_minimum"], [thetas, *grid[:3], is_minimum]
    )
    print(f"sweep: {len(thetas)} rows -> {path}")
    print(f"minimum zeta {_fmt(grid.zeta[i_min])} at theta {_fmt(thetas[i_min])}")
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
    if not d.atoms():
        print("              (no atom at the support minimum: the xmin policy never delivers)")
    print(f"zeta_min:     {_fmt(result.zeta_min)}   winner: {result.winner}")
    print(
        f"preemptions beneficial: {verdict.beneficial}   margin vs 2E[X]: {_fmt(verdict.margin)}"
    )
    print(f"policy-iteration cross-check delta: {_fmt(bellman_delta)}")
    print(f"grid evaluations: {result.evaluations}, refinement iterations: {result.refine_iters}")

    row = [
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
    ]
    _write_csv(
        out_dir / _csv_name(cfg, "optimize"),
        [
            "distribution", "theta_opt", "zeta_opt", "zeta_zero_wait", "zeta_xmin",
            "zeta_min", "winner", "beneficial", "margin", "bellman_delta",
        ],
        [[cell] for cell in row],
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
    _reject_clashes(cfg.policies, lambda p: _slug(p.label()), "write the files of")
    for policy in cfg.policies:  # one that overflows or never delivers fails before any output
        simulate._deliverable(d, policy)
    # every trajectory, peak dump and replication before any output
    trajectories = dumps = [None] * len(cfg.policies)
    if sim.trajectory_horizon is not None:
        trajectories = [
            simulate.aoi_trajectory(d, policy, horizon=sim.trajectory_horizon, seed=seed,
                                    stall_limit=sim.stall_limit)
            for policy in cfg.policies
        ]
    base_seed, replications = seed, sim.replications
    if sim.dump_peaks:  # the dumped peaks are replication 0
        dumps = [
            simulate.simulate_peaks(d, policy, peaks=sim.peaks, seed=seed,
                                    stall_limit=sim.stall_limit, warmup=sim.warmup)
            for policy in cfg.policies
        ]
        base_seed, replications = seed + 1, replications - 1
    replicated = simulate._replications(d, cfg.policies, sim.peaks, replications, base_seed,
                                        sim.stall_limit, sim.warmup, workers)
    with contextlib.ExitStack() as stack:
        def open_csv(kind, policy):
            return stack.enter_context(_open_csv(out_dir / _csv_name(cfg, kind, policy)))

        # every file of every policy opened before any output, so that a path
        # that cannot be opened leaves no output but empty files
        files = []  # per policy: its summary and seed 0's (file, records, first engine row)
        for policy, trajectory, dump in zip(cfg.policies, trajectories, dumps):
            summary, rows = open_csv("simulate", policy), []
            if trajectory is not None:  # from its first row
                rows.append((open_csv("trajectory", policy), trajectory, 0))
            if dump is not None:  # after warmup
                rows.append((open_csv("peaks", policy), dump, sim.warmup))
            files.append((summary, rows))
        for policy, (summary, rows), dump, estimates in zip(cfg.policies, files, dumps,
                                                            replicated):
            if dump is not None:
                estimates.insert(0, simulate.estimate_paoi(dump, seed=seed))
            pooled = simulate.pooled_estimate(estimates, seed=seed)
            print(f"policy {policy.label()}: pooled mean {_fmt(pooled.mean)} "
                  f"ci95 [{_fmt(pooled.ci_low)}, {_fmt(pooled.ci_high)}] "
                  f"({sim.replications} x {sim.peaks} peaks)")
            fields = ("seed", "peak_count", "mean", "std_error", "ci_low", "ci_high")
            _write_table(
                summary,
                ["replication", "seed", "peaks", "mean", "stderr", "ci_low", "ci_high"],
                [
                    [*map(str, range(len(estimates))), "pooled"],
                    *([getattr(e, name) for e in (*estimates, pooled)] for name in fields),
                ],
            )
            _write_engine_rows(rows)
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


def _reproduce_columns(figure: str) -> list:
    """The figure's ``param``, ``policy`` and ``zeta`` columns."""
    if figure in _CURVE_FIGURES:
        law, params, label, thetas = _CURVE_FIGURES[figure]
        return [
            np.tile(thetas, len(params)),
            [label.format(param) for param in params for _ in thetas],
            np.concatenate([analytic.paoi_thresholds(law(p), thetas).zeta for p in params]),
        ]
    law, params = _COMPARISON_FIGURES[figure]
    zetas = []
    for param in params:
        d = law(param)
        _, zeta_opt = optimize.optimal_threshold(d, *optimize.default_window(d))
        median = analytic.paoi_policy(d, MedianThreshold()).zeta
        zetas += [analytic.paoi_zero_wait(d), zeta_opt, median]
    return [
        [param for param in params for _ in range(3)],
        ["zero-wait", "optimal", "median"] * len(params),
        zetas,
    ]


def cmd_reproduce(figure: str, out_dir: Path) -> int:
    if figure not in _FIGURES:
        raise ConfigError(f"unknown figure id {figure!r}; one of {', '.join(_FIGURES)}")
    columns = _reproduce_columns(figure)
    path = out_dir / f"{figure}.csv"
    _write_csv(path, ["param", "policy", "zeta"], columns)
    print(f"{figure}: {len(columns[0])} rows -> {path}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each
    ``parse_args`` call starts from a fresh namespace, so no argument of
    one call carries into the next."""
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


def _make_out_dir(out_dir: Path, first: str) -> None:
    """Create ``out_dir`` before the command runs, so that an ``--out`` that
    cannot be created fails at once, naming ``first``, the command's first
    output file."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_dir / first}: {exc}") from exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        if args.command == "reproduce":
            if args.figure in _FIGURES:
                _make_out_dir(out_dir, f"{args.figure}.csv")
            return cmd_reproduce(args.figure, out_dir)
        cfg = load_config(args.config)
        if args.command != "check":  # check writes no file
            policy = cfg.policies[0] if args.command == "simulate" else None
            _make_out_dir(out_dir, _csv_name(cfg, args.command, policy))
        if args.command == "eval":
            return cmd_eval(cfg, out_dir)
        if args.command == "sweep":
            return cmd_sweep(cfg, out_dir)
        if args.command == "optimize":
            return cmd_optimize(cfg, out_dir)
        if args.command == "check":
            return cmd_check(cfg, out_dir)
        return cmd_simulate(cfg, out_dir, args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulationStall as exc:
        print(f"simulation stalled: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
