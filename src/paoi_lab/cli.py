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
same bytes; re-runs overwrite them byte-identically.  A policy's peak dump
and trajectory are cut from one sample path: the dump runs first, and the
trajectory is read off its records where they reach past the horizon, so
the path is drawn once.  The two go through one kernel pass that spells
each cell they share once.  Commands return their tables and stdout
lines, and neither open a file nor print: :func:`main` writes the tables by
:func:`_write_files` and prints the lines once every file is closed, so a
failed write prints nothing.  An :class:`_OutputFile` owns each output
file: it names the file in the error of a failed open, write or close.
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
_KERNEL_MIN_CELLS = 512  # a smaller table takes the template: the kernel's fixed cost outweighs it


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _quote(cell: str) -> str:
    """``cell`` as ``csv.QUOTE_MINIMAL`` writes it with a ``\\n`` line end."""
    if "," in cell or '"' in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


class _OutputFile(contextlib.AbstractContextManager):
    """An output file, truncated as it opens.  An ``OSError`` opening,
    writing or closing it is a ConfigError that names it, and an exception
    that leaves its ``with`` closes it and then empties it, best effort."""

    def __init__(self, path: Path):
        self.path = path
        self.fh = self._named(open, path, "w", newline="", encoding="utf-8")

    def _named(self, call, *args, **kwargs):
        try:
            return call(*args, **kwargs)
        except OSError as exc:
            raise ConfigError(f"cannot write {self.path}: {exc}") from exc

    def write(self, text: str) -> None:
        self._named(self.fh.write, text)

    def close(self) -> None:
        self._named(self.fh.close)

    def __exit__(self, kind, *_):
        if kind is None:
            return self.close()
        with contextlib.suppress(OSError):  # the first error is the one reported
            self.fh.close()
        with contextlib.suppress(OSError):
            os.truncate(self.path, 0)


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


def _write_table(fh: TextIO, header: list[str], columns: list, copy=None) -> None:
    """Write one row per entry of the equally long ``columns`` under ``header``
    to the open file ``fh``, and ``copy``, an ``(fh, header, columns,
    links)``, to its own file.

    A float column writes its cells as ``_fmt`` does (``%.12g``), an integer
    column as ``%d``, and any other column its cells' ``str``, quoted where
    needed.  A table of ``_KERNEL_MIN_CELLS`` cells or more is spelled from
    digit tables by :func:`digits.spell_rows`, unless a text cell does not
    fit a slot; a smaller one by :func:`_template_rows`, whose fixed cost
    is lower.  Both write the same bytes.  The copy, whose columns must be
    numeric and which ``links`` ties to this table's (see
    :func:`digits.spell_rows`), is spelled in this table's kernel pass, so
    that each shared cell is spelled once; without that pass, it is
    written on its own.
    """
    cells, rows = _table(columns)
    fh.write(_header(header))
    if rows * len(cells) >= _KERNEL_MIN_CELLS and all(
            _slotted(c[0]) for c in cells if isinstance(c, tuple)):
        from . import digits  # compiled and imported by the first such table

        if copy is not None:
            copy_fh, copy_header, copy_columns, links = copy
            copy_fh.write(_header(copy_header))
            copy = (copy_fh, *_table(copy_columns), links)
        digits.spell_rows(fh, cells, rows, copy)
    else:
        _template_rows(fh, cells, rows)
        if copy is not None:
            _write_table(*copy[:3])


def _template_rows(fh: TextIO, cells: list, rows: int) -> None:
    """Write the ``rows`` rows of ``cells``, as :func:`_table` gives them, by one
    ``%`` template per row, in one write."""
    formats, columns = [], []
    for c in cells:
        if isinstance(c, tuple):
            formats.append("%s")
            columns.append(np.array(c[0], dtype=object).take(c[1]))
        else:
            formats.append("%.12g" if c.dtype.kind == "f" else "%d")
            columns.append(c)
    line = ",".join(formats) + "\n"
    fh.write("".join([line % row for row in zip(*(c.tolist() for c in columns))]))


def _write_files(tables: list) -> None:
    """Write each ``(path, header, columns)`` of ``tables`` to its file, and
    each ``(path, header, columns, (source, links))`` as the copy (see
    :func:`_write_table`) of the table written to ``source``.  Every file is
    opened, in order, before any is written, and closed, in order, after the
    last write, each by its :class:`_OutputFile`."""
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(_OutputFile(path)) for path, *_ in tables]
        copies = {source: (fh, header, columns, links)  # one per source, as simulate gives
                  for fh, (_, header, columns, *copied) in zip(files, tables)
                  for source, links in copied}
        for fh, (path, header, columns, *copied) in zip(files, tables):
            if not copied:
                _write_table(fh, header, columns, copies.get(path))
        for fh in files:  # inside the stack: a failed close empties every file
            fh.close()


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


def cmd_eval(cfg: ExperimentConfig, out_dir: Path) -> tuple[list, list[str]]:
    _reject_clashes(cfg.policies, lambda p: p.label(), "be labelled")
    labels, values = [], []
    for policy in cfg.policies:
        value = analytic.paoi_policy(cfg.distribution, policy)
        labels.append(policy.label())
        values.append((value.zeta, value.received_service, value.interreception))
    table = (out_dir / _csv_name(cfg, "eval"), ["policy", "zeta", "e_x_check", "e_y"],
             [labels, *np.array(values, dtype=float).T])
    return [table], [
        f"distribution: {_dist_label(cfg.distribution)}",
        f"{'policy':<28} {'zeta':>14} {'e_x_check':>14} {'e_y':>14}",
        *(f"{label:<28} {_fmt(zeta):>14} {_fmt(e_x):>14} {_fmt(e_y):>14}"
          for label, (zeta, e_x, e_y) in zip(labels, values)),
    ]


def cmd_sweep(cfg: ExperimentConfig, out_dir: Path) -> tuple[list, list[str]]:
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
    columns = [thetas, *grid[:3], is_minimum]  # zeta, E[Xr], E[Y]
    return [(path, ["theta", "zeta", "e_x_check", "e_y", "is_minimum"], columns)], [
        f"sweep: {len(thetas)} rows -> {path}",
        f"minimum zeta {_fmt(grid.zeta[i_min])} at theta {_fmt(thetas[i_min])}"]


def cmd_optimize(cfg: ExperimentConfig, out_dir: Path) -> tuple[list, list[str]]:
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
    table = (out_dir / _csv_name(cfg, "optimize"), [
        "distribution", "theta_opt", "zeta_opt", "zeta_zero_wait", "zeta_xmin",
        "zeta_min", "winner", "beneficial", "margin", "bellman_delta",
    ], [[cell] for cell in row])
    no_atom = "              (no atom at the support minimum: the xmin policy never delivers)"
    return [table], [
        f"distribution: {_dist_label(d)}",
        f"window:       [{_fmt(result.window[0])}, {_fmt(result.window[1])}]",
        f"theta_opt:    {_fmt(result.theta_opt)}",
        f"zeta(fixed):  {_fmt(result.zeta_opt)}",
        f"zeta(zero-wait): {_fmt(result.zeta_zero_wait)}",
        f"zeta(xmin):   {_fmt(result.zeta_xmin)}",
        *([] if d.atoms() else [no_atom]),
        f"zeta_min:     {_fmt(result.zeta_min)}   winner: {result.winner}",
        f"preemptions beneficial: {verdict.beneficial}   margin vs 2E[X]: {_fmt(verdict.margin)}",
        f"policy-iteration cross-check delta: {_fmt(bellman_delta)}",
        f"grid evaluations: {result.evaluations}, refinement iterations: {result.refine_iters}",
    ]


def _record_columns(records: np.recarray) -> tuple[list[str], list]:
    """The field names of ``records`` and a column per field."""
    names, records = records.dtype.names, np.asarray(records)
    return list(names), [records[name] for name in names]


def _trajectory_links(dump: list[str], warmup: int) -> dict:
    """The links (see :func:`digits.spell_rows`) of a trajectory's columns to
    the peak dump's of the same seed: trajectory row i is the seed's i-th
    reception, the dump's row i - warmup, each column shifted as
    ``simulate._TRAJECTORY_FIELDS`` says."""
    return {j: (dump.index(field), shift - warmup)
            for j, (field, shift) in enumerate(simulate._TRAJECTORY_FIELDS.values())}


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path,
                 seed_override: int | None) -> tuple[list, list[str]]:
    d = cfg.distribution
    sim = cfg.simulation
    if seed_override is not None:
        try:
            sim = dataclasses.replace(sim, seed=seed_override)
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from exc
    seed = sim.seed
    workers = _workers()
    policies = cfg.policies
    _reject_clashes(policies, lambda p: _slug(p.label()), "write the files of")
    # every peak dump, trajectory and replication, each one lockstep of all
    # policies, which checks every policy before its first draw; the
    # trajectories are read off the dumps' records where those pass the horizon
    trajectories = dumps = [None] * len(policies)
    records, base_seed, replications = None, seed, sim.replications
    if sim.dump_peaks:  # the dumped peaks are replication 0
        records = simulate.simulate_peaks(d, policies, sim.warmup + sim.peaks, seed,
                                          sim.stall_limit)
        dumps = [rec[sim.warmup:] for rec in records]
        base_seed, replications = seed + 1, replications - 1
    if sim.trajectory_horizon is not None:
        trajectories = simulate.aoi_trajectory(d, policies, horizon=sim.trajectory_horizon,
                                               seed=seed, stall_limit=sim.stall_limit,
                                               records=records)
    replicated = [[] for _ in policies]
    if replications:
        replicated = simulate.run_replications(d, policies, sim.peaks, replications, base_seed,
                                               sim.stall_limit, sim.warmup, workers)
    tables, lines = [], []  # per policy: its summary, trajectory and peak dump
    for policy, trajectory, dump, estimates in zip(policies, trajectories, dumps, replicated):
        path = {kind: out_dir / _csv_name(cfg, kind, policy)
                for kind in ("simulate", "trajectory", "peaks")}
        if dump is not None:
            estimates.insert(0, simulate.estimate_paoi(dump, seed=seed))
        pooled = simulate.pooled_estimate(estimates, seed=seed)
        lines.append(f"policy {policy.label()}: pooled mean {_fmt(pooled.mean)} "
                     f"ci95 [{_fmt(pooled.ci_low)}, {_fmt(pooled.ci_high)}] "
                     f"({sim.replications} x {sim.peaks} peaks)")
        fields = ("seed", "peak_count", "mean", "std_error", "ci_low", "ci_high")
        tables.append((path["simulate"], ["replication", "seed", "peaks", "mean", "stderr",
                                          "ci_low", "ci_high"], [
            [*map(str, range(len(estimates))), "pooled"],
            *([getattr(e, name) for e in (*estimates, pooled)] for name in fields),
        ]))
        if trajectory is not None:  # spelled in the dump's pass, when there is one
            copied = [] if dump is None else [
                (path["peaks"], _trajectory_links(dump.dtype.names, sim.warmup))]
            tables.append((path["trajectory"], *_record_columns(trajectory), *copied))
        if dump is not None:
            tables.append((path["peaks"], *_record_columns(dump)))
    return tables, lines


def cmd_check(cfg: ExperimentConfig, out_dir: Path) -> tuple[list, list[str]]:
    d = cfg.distribution
    result = optimize.min_achievable_paoi(d, **vars(cfg.optimizer))
    exact = optimize.benefit_verdict(d, result)
    grid = optimize.theta_grid(*result.window, cfg.optimizer.grid_points)
    residual = optimize.mean_residual_witness(d, grid)

    lines = [
        f"distribution: {_dist_label(d)}",
        f"necessary-sufficient: beneficial={exact.beneficial} "
        f"margin={_fmt(exact.margin)} witness_theta="
        f"{'-' if exact.witness_theta is None else _fmt(exact.witness_theta)}",
        f"sufficient-residual:  witness="
        f"{'-' if residual.witness_theta is None else _fmt(residual.witness_theta)} "
        f"max_margin={_fmt(residual.margin)}",
    ]
    if isinstance(d, TwoPoint):
        critical = optimize.twopoint_benefit_threshold(d.p, d.t1)
        lines.append(f"two-point critical t2: {_fmt(critical)} (beneficial iff t2 > critical)")
    return [], lines  # writes no file


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
        result = optimize.min_achievable_paoi(d)
        median = analytic.paoi_policy(d, MedianThreshold()).zeta
        zetas += [result.zeta_zero_wait, result.zeta_opt, median]
    return [
        [param for param in params for _ in range(3)],
        ["zero-wait", "optimal", "median"] * len(params),
        zetas,
    ]


def cmd_reproduce(figure: str, out_dir: Path) -> tuple[list, list[str]]:
    if figure not in _FIGURES:
        raise ConfigError(f"unknown figure id {figure!r}; one of {', '.join(_FIGURES)}")
    columns = _reproduce_columns(figure)
    path = out_dir / f"{figure}.csv"
    return [(path, ["param", "policy", "zeta"], columns)], [
        f"{figure}: {len(columns[0])} rows -> {path}"]


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
            tables, lines = cmd_reproduce(args.figure, out_dir)
        else:
            cfg = load_config(args.config)
            if args.command != "check":  # check writes no file
                policy = cfg.policies[0] if args.command == "simulate" else None
                _make_out_dir(out_dir, _csv_name(cfg, args.command, policy))
            if args.command == "simulate":
                tables, lines = cmd_simulate(cfg, out_dir, args.seed)
            else:
                commands = {"eval": cmd_eval, "sweep": cmd_sweep, "optimize": cmd_optimize,
                            "check": cmd_check}
                tables, lines = commands[args.command](cfg, out_dir)
        _write_files(tables)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulationStall as exc:
        print(f"simulation stalled: {exc}", file=sys.stderr)
        return 3
    for line in lines:  # once the last file is closed
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
