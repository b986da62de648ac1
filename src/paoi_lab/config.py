"""Experiment configuration: one YAML file describes a whole run.

Unknown keys anywhere in the file are an error (typos must not silently
change an experiment).  Every field has a default except the service-time
distribution itself; key names are documented in the README.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional

import yaml

from .distributions import (
    Deterministic,
    Erlang,
    Exponential,
    HyperExponential,
    LogNormal,
    Pareto,
    ServiceDistribution,
    ShiftedExponential,
    TwoPoint,
)
from .errors import ConfigError
from .policies import (
    ChoiceSampler,
    FixedThreshold,
    MedianThreshold,
    PointSampler,
    Policy,
    RandomizedThreshold,
    RepetitiveSequence,
    ThresholdSampler,
    TriangularSampler,
    UniformSampler,
    XMinThreshold,
    ZeroWait,
)

__all__ = [
    "SweepSpec",
    "SimulationSpec",
    "OptimizerSpec",
    "ExperimentConfig",
    "parse_distribution",
    "parse_policy",
    "parse_config",
    "load_config",
]


@dataclass(frozen=True)
class SweepSpec:
    theta_min: Optional[float] = None  # None: default window endpoint
    theta_max: Optional[float] = None
    count: int = 200
    spacing: str = "linear"  # or "log"


@dataclass(frozen=True)
class SimulationSpec:
    peaks: int = 10_000
    replications: int = 5
    seed: int = 12345
    warmup: int = 0
    stall_limit: int = 10**9
    dump_peaks: bool = False
    trajectory_horizon: Optional[float] = None


@dataclass(frozen=True)
class OptimizerSpec:
    theta_min: Optional[float] = None
    theta_max: Optional[float] = None
    tol: Optional[float] = None
    grid_points: int = 2000
    bellman_tol: float = 1e-10


@dataclass(frozen=True)
class ExperimentConfig:
    distribution: ServiceDistribution
    policies: tuple[Policy, ...] = (ZeroWait(),)
    sweep: SweepSpec = field(default_factory=SweepSpec)
    simulation: SimulationSpec = field(default_factory=SimulationSpec)
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    prefix: str = "paoi"


def _require_mapping(node: Any, where: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(node).__name__}")
    return node


def _check_keys(node: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(node) - allowed)
    if unknown:
        raise ConfigError(
            f"{where}: unknown key(s) {', '.join(unknown)}; allowed: "
            + ", ".join(sorted(allowed))
        )


def _number(node: dict, key: str, where: str, default=None, required=False):
    if key not in node or node[key] is None:
        if required:
            raise ConfigError(f"{where}: missing required key '{key}'")
        return default
    v = node[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number, got {v!r}")
    return float(v)


def _integer(node: dict, key: str, where: str, default=None, required=False):
    v = _number(node, key, where, default, required)
    if v is None:
        return None
    if not math.isfinite(v) or v != int(v):
        raise ConfigError(f"{where}.{key}: expected an integer, got {v!r}")
    return int(v)


def _number_list(node: dict, key: str, where: str) -> tuple[float, ...]:
    v = node.get(key)
    if not isinstance(v, (list, tuple)) or not v:
        raise ConfigError(f"{where}.{key}: expected a nonempty list of numbers")
    out = []
    for item in v:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigError(f"{where}.{key}: expected numbers, got {item!r}")
        out.append(float(item))
    return tuple(out)


_DIST_PARAM_KEYS = {
    "exponential": {"rate"},
    "erlang": {"shape", "rate"},
    "pareto": {"xm", "alpha"},
    "shifted-exponential": {"shift", "rate"},
    "two-point": {"t1", "t2", "p"},
    "hyper-exponential": {"rates", "weights"},
    "log-normal": {"mu", "sigma"},
    "deterministic": {"value"},
}


def parse_distribution(node: Any, where: str = "distribution") -> ServiceDistribution:
    node = _require_mapping(node, where)
    _check_keys(node, {"kind", "params"}, where)
    kind = node.get("kind")
    if kind not in _DIST_PARAM_KEYS:
        raise ConfigError(
            f"{where}.kind: unknown kind {kind!r}; one of "
            + ", ".join(sorted(_DIST_PARAM_KEYS))
        )
    params = _require_mapping(node.get("params", {}), f"{where}.params")
    _check_keys(params, _DIST_PARAM_KEYS[kind], f"{where}.params")
    w = f"{where}.params"
    try:
        if kind == "exponential":
            return Exponential(rate=_number(params, "rate", w, required=True))
        if kind == "erlang":
            return Erlang(
                shape=_integer(params, "shape", w, required=True),
                rate=_number(params, "rate", w, required=True),
            )
        if kind == "pareto":
            return Pareto(
                xm=_number(params, "xm", w, required=True),
                alpha=_number(params, "alpha", w, required=True),
            )
        if kind == "shifted-exponential":
            return ShiftedExponential(
                shift=_number(params, "shift", w, required=True),
                rate=_number(params, "rate", w, required=True),
            )
        if kind == "two-point":
            return TwoPoint(
                t1=_number(params, "t1", w, required=True),
                t2=_number(params, "t2", w, required=True),
                p=_number(params, "p", w, required=True),
            )
        if kind == "hyper-exponential":
            return HyperExponential(
                rates=_number_list(params, "rates", w),
                weights=_number_list(params, "weights", w),
            )
        if kind == "log-normal":
            return LogNormal(
                mu=_number(params, "mu", w, required=True),
                sigma=_number(params, "sigma", w, required=True),
            )
        return Deterministic(value=_number(params, "value", w, required=True))
    except ValueError as exc:
        raise ConfigError(f"{w}: {exc}") from exc


_SAMPLER_KEYS = {
    "point": {"value"},
    "uniform": {"low", "high"},
    "choice": {"values", "weights"},
    "triangular": {"low", "mode", "high"},
}


def _parse_sampler(node: Any, where: str) -> ThresholdSampler:
    node = _require_mapping(node, where)
    kind = node.get("kind")
    if kind not in _SAMPLER_KEYS:
        raise ConfigError(
            f"{where}.kind: unknown sampler {kind!r}; one of "
            + ", ".join(sorted(_SAMPLER_KEYS))
        )
    _check_keys(node, _SAMPLER_KEYS[kind] | {"kind"}, where)
    try:
        if kind == "point":
            return PointSampler(_number(node, "value", where, required=True))
        if kind == "uniform":
            return UniformSampler(
                _number(node, "low", where, required=True),
                _number(node, "high", where, required=True),
            )
        if kind == "choice":
            return ChoiceSampler(
                _number_list(node, "values", where),
                _number_list(node, "weights", where),
            )
        return TriangularSampler(
            _number(node, "low", where, required=True),
            _number(node, "mode", where, required=True),
            _number(node, "high", where, required=True),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


_POLICY_SHORTHANDS = {
    "zero-wait": ZeroWait(),
    "xmin": XMinThreshold(),
    "xmin-threshold": XMinThreshold(),
    "median": MedianThreshold(),
    "median-threshold": MedianThreshold(),
}


def parse_policy(node: Any, where: str = "policy") -> Policy:
    if isinstance(node, str):
        if node in _POLICY_SHORTHANDS:
            return _POLICY_SHORTHANDS[node]
        raise ConfigError(
            f"{where}: unknown policy shorthand {node!r}; one of "
            + ", ".join(sorted(_POLICY_SHORTHANDS))
        )
    node = _require_mapping(node, where)
    kind = node.get("kind")
    try:
        if kind in _POLICY_SHORTHANDS:
            _check_keys(node, {"kind"}, where)
            return _POLICY_SHORTHANDS[kind]
        if kind in ("fixed", "fixed-threshold"):
            _check_keys(node, {"kind", "theta"}, where)
            return FixedThreshold(theta=_number(node, "theta", where, required=True))
        if kind == "repetitive":
            _check_keys(node, {"kind", "thresholds"}, where)
            return RepetitiveSequence(thresholds=_number_list(node, "thresholds", where))
        if kind == "randomized":
            _check_keys(node, {"kind", "sampler"}, where)
            if "sampler" not in node:
                raise ConfigError(f"{where}: randomized policy needs a sampler")
            return RandomizedThreshold(sampler=_parse_sampler(node["sampler"], f"{where}.sampler"))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}.kind: unknown policy kind {kind!r}")


def _parse_sweep(node: Any) -> SweepSpec:
    node = _require_mapping(node, "sweep")
    _check_keys(node, {"theta_min", "theta_max", "count", "spacing"}, "sweep")
    spacing = node.get("spacing", "linear")
    if spacing not in ("linear", "log"):
        raise ConfigError(f"sweep.spacing: expected 'linear' or 'log', got {spacing!r}")
    count = _integer(node, "count", "sweep", default=200)
    if count < 2:
        raise ConfigError("sweep.count: need at least 2 points")
    return SweepSpec(
        theta_min=_number(node, "theta_min", "sweep"),
        theta_max=_number(node, "theta_max", "sweep"),
        count=count,
        spacing=spacing,
    )


def _parse_simulation(node: Any) -> SimulationSpec:
    node = _require_mapping(node, "simulation")
    _check_keys(
        node,
        {"peaks", "replications", "seed", "warmup", "stall_limit", "dump_peaks",
         "trajectory_horizon"},
        "simulation",
    )
    dump = node.get("dump_peaks", False)
    if not isinstance(dump, bool):
        raise ConfigError("simulation.dump_peaks: expected a boolean")
    spec = SimulationSpec(
        peaks=_integer(node, "peaks", "simulation", default=10_000),
        replications=_integer(node, "replications", "simulation", default=5),
        seed=_integer(node, "seed", "simulation", default=12345),
        warmup=_integer(node, "warmup", "simulation", default=0),
        stall_limit=_integer(node, "stall_limit", "simulation", default=10**9),
        dump_peaks=dump,
        trajectory_horizon=_number(node, "trajectory_horizon", "simulation"),
    )
    if spec.peaks < 2 or spec.replications < 1 or spec.warmup < 0 or spec.stall_limit < 1:
        raise ConfigError(
            "simulation: need peaks >= 2, replications >= 1, warmup >= 0, stall_limit >= 1"
        )
    if spec.trajectory_horizon is not None and spec.trajectory_horizon <= 0:
        raise ConfigError("simulation.trajectory_horizon: must be positive")
    return spec


def _parse_optimizer(node: Any) -> OptimizerSpec:
    node = _require_mapping(node, "optimizer")
    _check_keys(
        node, {"theta_min", "theta_max", "tol", "grid_points", "bellman_tol"}, "optimizer"
    )
    return OptimizerSpec(
        theta_min=_number(node, "theta_min", "optimizer"),
        theta_max=_number(node, "theta_max", "optimizer"),
        tol=_number(node, "tol", "optimizer"),
        grid_points=_integer(node, "grid_points", "optimizer", default=2000),
        bellman_tol=_number(node, "bellman_tol", "optimizer", default=1e-10),
    )


def parse_config(raw: Any) -> ExperimentConfig:
    raw = _require_mapping(raw, "config")
    _check_keys(
        raw,
        {"distribution", "policies", "sweep", "simulation", "optimizer", "output"},
        "config",
    )
    if "distribution" not in raw:
        raise ConfigError("config: missing required section 'distribution'")
    dist = parse_distribution(raw["distribution"])

    policies: tuple[Policy, ...] = (ZeroWait(),)
    if "policies" in raw and raw["policies"] is not None:
        items = raw["policies"]
        if not isinstance(items, list) or not items:
            raise ConfigError("policies: expected a nonempty list")
        policies = tuple(
            parse_policy(item, f"policies[{i}]") for i, item in enumerate(items)
        )

    sweep = _parse_sweep(raw["sweep"]) if raw.get("sweep") is not None else SweepSpec()
    sim = (
        _parse_simulation(raw["simulation"])
        if raw.get("simulation") is not None
        else SimulationSpec()
    )
    opt = (
        _parse_optimizer(raw["optimizer"])
        if raw.get("optimizer") is not None
        else OptimizerSpec()
    )

    prefix = "paoi"
    if raw.get("output") is not None:
        out = _require_mapping(raw["output"], "output")
        _check_keys(out, {"prefix"}, "output")
        prefix = out.get("prefix", "paoi")
        if not isinstance(prefix, str) or not prefix:
            raise ConfigError("output.prefix: expected a nonempty string")

    return ExperimentConfig(
        distribution=dist,
        policies=policies,
        sweep=sweep,
        simulation=sim,
        optimizer=opt,
        prefix=prefix,
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    return parse_config(raw)
