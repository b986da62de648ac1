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

Exit codes: 0 success, 2 configuration problem (a ``ConfigError``, as is an
output that cannot be written), 3 simulation stall (a ``SimulationStall``).
Numeric CSV cells use ``.`` decimals and 12 significant digits, and the
literal tokens ``inf``, ``-inf`` and ``nan`` for non-finite values; text
cells are quoted only when they hold a comma, a double quote or a newline.
One writer, :func:`_write_table`, spells a table of ``_KERNEL_MIN_CELLS``
cells or more (sweeps, fig4 and fig6, peak dumps, trajectories) from digit
tables (:mod:`paoi_lab.digits`) and a smaller one (optimize's row, eval,
simulate summaries, fig5 and fig7) by one ``%`` template per row, to the
same bytes; re-runs overwrite them byte-identically.  Commands print their
stdout only after their last file is closed, so a failed write prints
nothing.
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
_KERNEL_MIN_CELLS = 512  # a smaller table takes the template: the kernel's fixed cost outweighs it


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


@contextlib.contextmanager
def _writing(fh: TextIO):
    """Close ``fh`` on exit; an ``OSError`` writing or closing it is a ConfigError."""
    try:
        with fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {fh.name}: {exc}") from exc


def _header(names) -> str:
    return ",".join(map(_quote, names)) + "\n"


def _table(columns: list) -> tuple[list, int]:
    """The cells of the equally long ``columns`` as the fills take them, and
    their row count.  A column of floats or integers stays an array; any
    other column becomes its distinct cells' ``str``, quoted where needed,
    and each row's index into them."""
    cells = []
    for column in columns:
        # numpy reads a column whose first cell is a str as text: skip its string array
        text = len(column) > 0 and isinstance(column[0], str)
        if not text and (array := np.asarray(column)).dtype.kind in "fiu":
            cells.append(array)
        else:
            index = {}  # cell -> its place among the distinct cells
            rows = [index.setdefault(cell, len(index)) for cell in map(str, column)]
            cells.append(([_quote(cell) for cell in index], np.array(rows, dtype=np.intp)))
    lengths = {len(c) if isinstance(c, np.ndarray) else len(c[1]) for c in cells}
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal lengths {sorted(lengths)}")
    return cells, lengths.pop() if lengths else 0


def _slotted(text: list[str]) -> bool:
    """Whether each cell of ``text`` fits a 4-word slot: 31 bytes, the last
    byte being the separator's, and no NUL, as NULs are what the kernel
    deletes."""
    return all(len(cell.encode()) < 32 and "\0" not in cell for cell in text)


def _write_table(fh: TextIO, header: list[str], columns: list) -> None:
    """Write one row per entry of the equally long ``columns`` under ``header``
    to the open file ``fh``.

    A float column writes its cells as ``_fmt`` does (``%.12g``), an integer
    column as ``%d``, and any other column its cells' ``str``, quoted where
    needed.  A table of ``_KERNEL_MIN_CELLS`` cells or more is spelled from
    digit tables by :func:`digits.spell_rows`, unless a text cell does not
    fit a slot; a smaller one by :func:`_template_rows`, whose fixed cost
    is lower.  Both write the same bytes.
    """
    cells, rows = _table(columns)
    fh.write(_header(header))
    if rows * len(cells) >= _KERNEL_MIN_CELLS and all(
            _slotted(c[0]) for c in cells if isinstance(c, tuple)):
        from . import digits  # compiled and imported by the first such table

        digits.spell_rows(fh, cells, rows)
    else:
        _template_rows(fh, cells, rows)


def _write_csv(path: Path, header: list[str], columns: list) -> None:
    """:func:`_write_table` to ``path``."""
    with _writing(_open_csv(path)) as fh:
        _write_table(fh, header, columns)


def _template_rows(fh: TextIO, cells: list, rows: int) -> None:
    """Write the ``rows`` rows of ``cells``, as :func:`_table` gives them, by one
    ``%`` template per row, a chunk of rows at a time."""
    formats, columns = [], []
    for c in cells:
        if isinstance(c, tuple):
            formats.append("%s")
            columns.append(np.array(c[0], dtype=object).take(c[1]))
        else:
            formats.append("%.12g" if c.dtype.kind == "f" else "%d")
            columns.append(c)
    template = ",".join(formats)
    for i in range(0, rows, _CSV_CHUNK):
        chunk = zip(*(c[i : i + _CSV_CHUNK].tolist() for c in columns))
        fh.write("\n".join([template % row for row in chunk]) + "\n")


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
    if n == 0 and hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        return len(os.sched_getaffinity(0))
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
    _write_csv(
        out_dir / _csv_name(cfg, "eval"),
        ["policy", "zeta", "e_x_check", "e_y"],
        [labels, *np.array(values, dtype=float).T],
    )
    print(f"distribution: {_dist_label(cfg.distribution)}")  # once the file is closed
    print(f"{'policy':<28} {'zeta':>14} {'e_x_check':>14} {'e_y':>14}")
    for label, (zeta, e_x, e_y) in zip(labels, values):
        print(f"{label:<28} {_fmt(zeta):>14} {_fmt(e_x):>14} {_fmt(e_y):>14}")
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

    print(f"distribution: {_dist_label(d)}")  # once the file is closed
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
    report = []  # printed once every file is closed
    with contextlib.ExitStack() as stack:
        def open_csv(kind, policy):
            return stack.enter_context(_open_csv(out_dir / _csv_name(cfg, kind, policy)))

        # every file of every policy opened before any output, so that a path
        # that cannot be opened leaves no output but empty files
        files = []  # per policy: its summary and seed 0's (file, records) pairs
        for policy, trajectory, dump in zip(cfg.policies, trajectories, dumps):
            files.append((open_csv("simulate", policy), [
                (open_csv(kind, policy), records) for kind, records
                in (("trajectory", trajectory), ("peaks", dump)) if records is not None]))
        for policy, (summary, rows), dump, estimates in zip(cfg.policies, files, dumps,
                                                            replicated):
            if dump is not None:
                estimates.insert(0, simulate.estimate_paoi(dump, seed=seed))
            pooled = simulate.pooled_estimate(estimates, seed=seed)
            report.append(f"policy {policy.label()}: pooled mean {_fmt(pooled.mean)} "
                          f"ci95 [{_fmt(pooled.ci_low)}, {_fmt(pooled.ci_high)}] "
                          f"({sim.replications} x {sim.peaks} peaks)")
            fields = ("seed", "peak_count", "mean", "std_error", "ci_low", "ci_high")
            with _writing(summary):
                _write_table(summary, ["replication", "seed", "peaks", "mean", "stderr",
                                       "ci_low", "ci_high"], [
                    [*map(str, range(len(estimates))), "pooled"],
                    *([getattr(e, name) for e in (*estimates, pooled)] for name in fields),
                ])
            for fh, records in rows:
                names, records = records.dtype.names, np.asarray(records)
                with _writing(fh):
                    _write_table(fh, list(names), [records[name] for name in names])
    print("\n".join(report))
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
            [text for param in params for text in [label.format(param)] * len(thetas)],
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
