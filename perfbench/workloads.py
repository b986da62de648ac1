"""The benchmark's workloads: each is a fixed list of CLI commands, one *pass*.

Every workload is a closed loop with one caller: the benchmark sends the
next command when the previous one has returned, all in one process,
through ``paoi_lab.cli.main``.

The workload seed is used in two places only:

* it picks a scale factor ``s`` in [1/2, 2] that multiplies every time-like
  parameter (Pareto ``xm``, shifts, two-point atoms, the deterministic
  value, windows, thresholds, the trajectory horizon), divides every rate
  and shifts the log-normal ``mu`` by ``ln s``.  The peak age is
  scale-equivariant, ``zeta(sX, s theta) = s zeta(X, theta)``, so the work
  done and the relative oracle tolerances do not depend on the seed;
* it picks the ``--seed`` passed to ``simulate``.

The predicted layer shares below were measured on the parent commit on a
2-vCPU machine (Python 3.11, numpy 2.4, scipy 1.17); see ``NOTES.md``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

import yaml

# Base catalog, one member per law, at scale 1.
CATALOG = {
    "exponential": {"rate": 1.0},
    "erlang": {"shape": 3, "rate": 1.0},
    "pareto": {"xm": 1.0, "alpha": 2.0},
    "shifted-exponential": {"shift": 0.5, "rate": 2.0},
    "two-point": {"t1": 1.0, "t2": 3.0, "p": 0.5},
    "hyper-exponential": {"rates": [10.0, 1.0], "weights": [10 / 11, 1 / 11]},
    "log-normal": {"mu": 0.0, "sigma": 1.0},
    "deterministic": {"value": 1.5},
}

# The laws optimize-catalog optimizes, in command order.
OPTIMIZED = ("exponential", "erlang", "pareto", "shifted-exponential", "two-point",
             "log-normal", "deterministic")

_TIME_KEYS = {"xm", "shift", "t1", "t2", "value"}
_RATE_KEYS = {"rate", "rates"}


def scale_for(seed: int) -> float:
    return 2.0 ** random.Random(seed).uniform(-1.0, 1.0)


def sim_seed_for(seed: int) -> int:
    rng = random.Random(seed)
    rng.random()  # the draw scale_for used
    return rng.randrange(1, 2**31)


def scaled_params(kind: str, s: float, params: dict | None = None) -> dict:
    """Parameters of ``kind`` for service time ``s * X``."""
    out = {}
    for key, v in (params or CATALOG[kind]).items():
        if key in _TIME_KEYS:
            out[key] = v * s
        elif key in _RATE_KEYS:
            out[key] = [r / s for r in v] if isinstance(v, list) else v / s
        elif key == "mu":
            out[key] = v + math.log(s)
        else:
            out[key] = v
    return out


@dataclass
class Command:
    """One CLI call of a pass, with what its checks need to know."""

    id: str
    argv: list[str]
    out_dir: Path  # holds only this command's outputs
    warmup_threads: str = "1"  # PAOI_THREADS in the warm-up pass; timed passes use 1
    law: str | None = None  # catalog kind of the config's distribution
    config: dict | None = None  # the config as written, None for reproduce


@dataclass
class Workload:
    name: str
    why: str
    shares: str  # predicted shares of the pass time, by layer
    commands: list[Command]
    scale: float
    sim_seed: int
    out_root: Path  # parent of the commands' output directories


def _write_config(cfg_dir: Path, name: str, cfg: dict) -> str:
    path = cfg_dir / f"{name}.yaml"
    path.write_text(yaml.safe_dump(cfg, sort_keys=True), encoding="utf-8")
    return str(path)


def _config_command(verb, name, law, cfg, cfg_dir, out_root, warmup_threads="1", extra=()):
    cfg = {**cfg, "output": {"prefix": name}}
    path = _write_config(cfg_dir, name, cfg)
    out_dir = out_root / f"{verb}-{name}"
    return Command(
        id=f"{verb}:{name}",
        argv=[verb, "--config", path, "--out", str(out_dir), *extra],
        out_dir=out_dir,
        warmup_threads=warmup_threads,
        law=law,
        config=cfg,
    )


def optimize_catalog(seed: int, cfg_dir: Path, out_dir: Path) -> Workload:
    s = scale_for(seed)
    commands = []
    for law in OPTIMIZED:
        cfg = {"distribution": {"kind": law, "params": scaled_params(law, s)}}
        if law == "deterministic":
            # the default window collapses on a single atom
            cfg["optimizer"] = {"theta_min": 1.5 * s, "theta_max": 3.0 * s}
        commands.append(_config_command("optimize", law, law, cfg, cfg_dir, out_dir))
        commands.append(_config_command("check", law, law, cfg, cfg_dir, out_dir))
    return Workload(
        name="optimize-catalog",
        why=(
            "The paper's headline computation: the optimal threshold and its benefit "
            "verdict for every law. optimize (search, verdict, value-iteration "
            "cross-check) and the distribution primitives do all the work; the "
            "simulator is never called."
        ),
        shares=(
            "about 87 % optimize on exponential, nearly all of it bellman_fixed_point "
            "(1e6 sweeps, then it gives up); about 10 % optimize and check on log-normal "
            "(quadrature in distributions); about 3 % the other five laws, cli and config"
        ),
        commands=commands,
        scale=s,
        sim_seed=sim_seed_for(seed),
        out_root=out_dir,
    )


def sweep_figures(seed: int, cfg_dir: Path, out_dir: Path) -> Workload:
    s = scale_for(seed)
    commands = [
        Command(id=f"reproduce:{fig}",
                argv=["reproduce", "--figure", fig, "--out", str(out_dir / fig)],
                out_dir=out_dir / fig)
        for fig in ("fig4", "fig5", "fig6", "fig7")
    ]
    sweeps = (
        ("log-normal", None, "log"),
        ("erlang", None, "linear"),
        ("pareto", {"xm": 1.0, "alpha": 1.5}, "log"),
        ("hyper-exponential", None, "log"),
    )
    for law, params, spacing in sweeps:
        cfg = {
            "distribution": {"kind": law, "params": scaled_params(law, s, params)},
            "sweep": {"count": 2000, "spacing": spacing},
        }
        commands.append(_config_command("sweep", law, law, cfg, cfg_dir, out_dir))
    cfg = {
        "distribution": {"kind": "two-point", "params": scaled_params("two-point", s)},
        "policies": [
            "zero-wait",
            "xmin",
            "median",
            {"kind": "fixed", "theta": 2.0 * s},
            {"kind": "repetitive", "thresholds": [1.0 * s, 2.0 * s, 2.5 * s]},
        ],
    }
    commands.append(_config_command("eval", "two-point", "two-point", cfg, cfg_dir, out_dir))
    return Workload(
        name="sweep-figures",
        why=(
            "Zeta on fixed grids: the figure bundles, four 2000-point sweeps and one "
            "policy table. Value iteration and the simulator never run, so a change to "
            "either should leave this workload unchanged."
        ),
        shares=(
            "about 41 % the log-normal sweep (quadrature); about 42 % reproduce, of which "
            "28 % is fig5's Erlang searches; about 16 % the other three sweeps; under 1 % "
            "eval. CSV formatting (cli self time) is about a fifth of the pass"
        ),
        commands=commands,
        scale=s,
        sim_seed=sim_seed_for(seed),
        out_root=out_dir,
    )


def simulate_mix(seed: int, cfg_dir: Path, out_dir: Path) -> Workload:
    s = scale_for(seed)
    sim_seed = sim_seed_for(seed)
    erlang = {
        "distribution": {"kind": "erlang", "params": scaled_params("erlang", s)},
        "policies": ["zero-wait", {"kind": "fixed", "theta": 2.0 * s}, "median"],
        "simulation": {"peaks": 20_000, "replications": 8, "seed": sim_seed},
    }
    hyper = {
        "distribution": {"kind": "hyper-exponential",
                         "params": scaled_params("hyper-exponential", s)},
        "policies": [
            {"kind": "fixed", "theta": 0.05 * s},
            {"kind": "randomized",
             "sampler": {"kind": "uniform", "low": 0.05 * s, "high": 0.5 * s}},
        ],
        "simulation": {"peaks": 20_000, "replications": 4, "seed": sim_seed,
                       "dump_peaks": True, "trajectory_horizon": 2000.0 * s},
    }
    seed_arg = ["--seed", str(sim_seed)]
    commands = [
        # The warm-up pass fans out over two processes (nproc on the reference
        # machine) and the timed passes, which must reproduce it byte for byte,
        # run serially: see probe.py.  simulate.pool_speedup times the pool.
        _config_command("simulate", "erlang", "erlang", erlang, cfg_dir, out_dir,
                        warmup_threads="2", extra=seed_arg),
        # with the peak dump and the trajectory
        _config_command("simulate", "hyper-exponential", "hyper-exponential", hyper, cfg_dir,
                        out_dir, extra=seed_arg),
    ]
    return Workload(
        name="simulate-mix",
        why=(
            "The attempt loop run lightly (zero-wait, 1.00 attempts per peak) and heavily "
            "(about 3 attempts per peak); the hyper-exponential command also dumps peak "
            "records to CSV and writes a trajectory. The warm-up pass fans the Erlang "
            "replications out over two processes and the serial timed passes must "
            "reproduce it."
        ),
        shares=(
            "about 53 % the Erlang simulate (three policies, 24 replications); about 47 % "
            "the hyper-exponential simulate, of which about a third is the peak dump, the "
            "trajectory and their CSV; zeta is needed only by the checks"
        ),
        commands=commands,
        scale=s,
        sim_seed=sim_seed,
        out_root=out_dir,
    )


WORKLOADS = {
    "optimize-catalog": optimize_catalog,
    "sweep-figures": sweep_figures,
    "simulate-mix": simulate_mix,
}


def build(name: str, seed: int, work_dir: Path) -> Workload:
    cfg_dir = work_dir / "configs"
    out_dir = work_dir / "out"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, cfg_dir, out_dir)
