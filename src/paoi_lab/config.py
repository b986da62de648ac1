"""Experiment configuration: one YAML file describes a whole run.

The dataclasses are the schema: :func:`_construct` reads a section, a
law's ``params``, a sampler or a policy from the fields of the class it
builds.  The fields are the only allowed keys (typos must not silently
change an experiment), a field without a default is required, ``null``
keeps the default, and the field's annotation picks how a value is read.
Range checks live in each class's ``__post_init__``, whose ``ValueError``
becomes a :class:`ConfigError` naming the key path.  A ``kind`` key picks
a law, sampler or policy class.  Only the distribution is required.
Numbers follow YAML 1.2, so ``1e-6`` is a float.  Key names are
documented in the README.

PyYAML's pure-Python loader defines how a file reads: its data, or its
error message.  Where PyYAML has libyaml, libyaml parses the files it
reads the same way, about four times faster, and the pure-Python loader
reads the rest.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
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
from .optimize import _DEFAULT_GRID_POINTS, _MAX_GRID_POINTS
from .policies import (
    ChoiceSampler,
    FixedThreshold,
    MedianThreshold,
    PointSampler,
    Policy,
    RandomizedThreshold,
    RepetitiveSequence,
    TriangularSampler,
    UniformSampler,
    XMinThreshold,
    ZeroWait,
)
from .simulate import DEFAULT_STALL_LIMIT

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

    def __post_init__(self):
        if any(t is not None and not 0 <= t < math.inf for t in (self.theta_min, self.theta_max)):
            raise ValueError("theta_min and theta_max must be finite and nonnegative")
        if self.count < 2:
            raise ValueError("count must be at least 2")
        if self.count > _MAX_GRID_POINTS:
            raise ValueError(
                f"count must be at most {_MAX_GRID_POINTS}, the most floats numpy can index"
            )
        if self.spacing not in ("linear", "log"):
            raise ValueError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")


@dataclass(frozen=True)
class SimulationSpec:
    peaks: int = 10_000
    replications: int = 5
    seed: int = 12345
    warmup: int = 0
    stall_limit: int = DEFAULT_STALL_LIMIT
    dump_peaks: bool = False
    trajectory_horizon: Optional[float] = None

    def __post_init__(self):
        if self.peaks < 2 or self.replications < 1 or self.warmup < 0 or self.stall_limit < 1:
            raise ValueError("need peaks >= 2, replications >= 1, warmup >= 0, stall_limit >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.trajectory_horizon is not None and not 0 < self.trajectory_horizon < math.inf:
            raise ValueError("trajectory_horizon must be positive and finite")


@dataclass(frozen=True)
class OptimizerSpec:  # the keyword arguments of optimize.min_achievable_paoi
    theta_min: Optional[float] = None
    theta_max: Optional[float] = None
    tol: Optional[float] = None
    grid_points: int = _DEFAULT_GRID_POINTS

    def __post_init__(self):  # optimize.theta_grid checks the lower bound
        if self.grid_points > _MAX_GRID_POINTS:
            raise ValueError(
                f"grid_points must be at most {_MAX_GRID_POINTS}, the most floats numpy can index"
            )


@dataclass(frozen=True)
class ExperimentConfig:
    distribution: ServiceDistribution
    policies: tuple[Policy, ...] = (ZeroWait(),)
    sweep: SweepSpec = field(default_factory=SweepSpec)
    simulation: SimulationSpec = field(default_factory=SimulationSpec)
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    prefix: str = "paoi"


@dataclass(frozen=True)
class _Output:  # the file's output section, which sets ExperimentConfig.prefix
    prefix: str = ExperimentConfig.prefix

    def __post_init__(self):  # a file name's prefix: every file lands inside --out
        if {os.sep, os.altsep, "\0"} & set(self.prefix):
            raise ValueError(f"prefix must hold no path separator or NUL, got {self.prefix!r}")


_LAWS = {
    "exponential": Exponential,
    "erlang": Erlang,
    "pareto": Pareto,
    "shifted-exponential": ShiftedExponential,
    "two-point": TwoPoint,
    "hyper-exponential": HyperExponential,
    "log-normal": LogNormal,
    "deterministic": Deterministic,
}

_SAMPLERS = {
    "point": PointSampler,
    "uniform": UniformSampler,
    "choice": ChoiceSampler,
    "triangular": TriangularSampler,
}

# A bare string names a kind without fields: zero-wait, xmin or median.
_POLICIES = {
    "zero-wait": ZeroWait,
    "xmin": XMinThreshold,
    "xmin-threshold": XMinThreshold,
    "median": MedianThreshold,
    "median-threshold": MedianThreshold,
    "fixed": FixedThreshold,
    "fixed-threshold": FixedThreshold,
    "repetitive": RepetitiveSequence,
    "randomized": RandomizedThreshold,
}


def _mapping(node: Any, where: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(node).__name__}")
    return node


def _check_keys(node: dict, allowed, where: str) -> None:
    unknown = sorted(map(str, node.keys() - set(allowed)))  # YAML keys need not be strings
    if unknown:
        raise ConfigError(
            f"{where}: unknown key(s) {', '.join(unknown)}; allowed: "
            + (", ".join(sorted(allowed)) or "none")
        )


def _number(v: Any, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:  # an int literal past the largest float
        raise ConfigError(f"{where}: expected a number, got an int too large for a float") from None


def _integer(v: Any, where: str) -> int:
    x = _number(v, where)
    if not x.is_integer():  # nor is nan or inf
        raise ConfigError(f"{where}: expected an integer, got {x!r}")
    return v if isinstance(v, int) else int(x)  # an int stays exact, even past 2**53


def _numbers(v: Any, where: str) -> tuple[float, ...]:
    if not isinstance(v, (list, tuple)) or not v:
        raise ConfigError(f"{where}: expected a nonempty list of numbers")
    return tuple(_number(x, f"{where}[{i}]") for i, x in enumerate(v))


def _boolean(v: Any, where: str) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"{where}: expected a boolean, got {v!r}")
    return v


def _string(v: Any, where: str) -> str:
    if not isinstance(v, str) or not v:
        raise ConfigError(f"{where}: expected a nonempty string, got {v!r}")
    return v


def _policies(v: Any, where: str) -> tuple[Policy, ...]:
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{where}: expected a nonempty list")
    return tuple(parse_policy(p, f"{where}[{i}]") for i, p in enumerate(v))


def _construct(cls, node: Any, where: str, **sections):
    """Build ``cls`` from the mapping ``node``, keyed by the fields of ``cls``.

    Each of ``sections`` names a key of ``node`` and the class that reads
    it; the fields of that class are passed on to ``cls``.
    """
    node = {} if node is None else _mapping(node, where)
    at = "" if cls is ExperimentConfig else f"{where}."  # the file's sections sit at the top
    values = {}
    for key, section in sections.items():
        values.update(vars(_construct(section, node.get(key), at + key)))
    keyed = [f for f in fields(cls) if f.name not in values]
    _check_keys(node, [f.name for f in keyed] + list(sections), where)
    for f in keyed:
        if node.get(f.name) is not None:
            values[f.name] = _READERS[f.type](node[f.name], at + f.name)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where}: missing required key '{f.name}'")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _build(kinds: dict, node: Any, where: str):
    """The class ``node["kind"]`` names in ``kinds``, built from the other keys."""
    if isinstance(node, str):  # a bare kind name, complete only for a class without fields
        node = {"kind": node}
    node = _mapping(node, where)
    rest = {k: v for k, v in node.items() if k != "kind"}
    return _construct(_pick(kinds, node, where), rest, where)


def _pick(kinds: dict, node: dict, where: str):
    kind = node.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{where}.kind: unknown kind {kind!r}; one of {', '.join(sorted(kinds))}")
    return kinds[kind]


def parse_distribution(node: Any, where: str = "distribution") -> ServiceDistribution:
    node = _mapping(node, where)
    _check_keys(node, ("kind", "params"), where)
    return _construct(_pick(_LAWS, node, where), node.get("params"), f"{where}.params")


def parse_policy(node: Any, where: str = "policy") -> Policy:
    return _build(_POLICIES, node, where)


# Field annotation -> reader of the value under that field's key.
_READERS = {
    "float": _number,
    "Optional[float]": _number,
    "int": _integer,
    "tuple[float, ...]": _numbers,
    "bool": _boolean,
    "str": _string,
    "ThresholdSampler": partial(_build, _SAMPLERS),
    "ServiceDistribution": parse_distribution,
    "tuple[Policy, ...]": _policies,
    "SweepSpec": partial(_construct, SweepSpec),
    "SimulationSpec": partial(_construct, SimulationSpec),
    "OptimizerSpec": partial(_construct, OptimizerSpec),
}


def parse_config(raw: Any) -> ExperimentConfig:
    return _construct(ExperimentConfig, raw, "config", output=_Output)


class _Rules:
    """Safe loading that also reads YAML 1.2 floats such as ``1e-6`` and ``1E3``
    (YAML 1.1 wants a dot and a signed exponent) and rejects a key given
    twice in one mapping, which would otherwise keep the last value.

    A mixin, so that the pure-Python and the libyaml loader share one copy:
    a method borrowed from one loader class keeps ``super()`` bound to it.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.add_implicit_resolver(
            "tag:yaml.org,2002:float",
            re.compile(r"^[-+]?(?:\.[0-9]+|[0-9][0-9_]*(?:\.[0-9_]*)?)[eE][-+]?[0-9]+$"),
            list("-+.0123456789"),
        )

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"duplicate key {key!r}", key_node.start_mark,
                    )
                seen.add(key)
        return super().construct_mapping(node, deep)


class _Loader(_Rules, yaml.SafeLoader):
    """The reference: whatever it returns or raises is what a config reads as."""


if yaml.__with_libyaml__ and hasattr(yaml, "CSafeLoader"):
    class _CLoader(_Rules, yaml.CSafeLoader):
        """The same rules on libyaml's parser, which reads a config about four times faster."""
else:
    _CLoader = None

# libyaml reads some texts otherwise than _Loader: it accepts ``a:\t1``,
# ``{k?ind: x}`` and ``a: |#``, which _Loader rejects, reads ``a: !`` as ''
# where _Loader reads None, drops a U+FEFF that starts a line, which _Loader
# keeps as text, and rejects ``"\ud800"``.  A text with a tab, a U+FEFF, a
# line break other than ``\n`` or one of ``? ! | >``, none of which a config
# needs, goes to _Loader alone.  A file opened in text mode has no ``\r``
# left: ``\r\n`` and ``\r`` read as ``\n``.
_PURE_ONLY = re.compile("[\t\ufeff\x85\u2028\u2029?!|>]")
# Each level of nesting opens with one of ``[{-:``, so a text with at most
# this many of them nests no deeper.  _Loader exceeds the recursion limit
# at a few hundred levels, where libyaml, whose composer recurses in C,
# reads on until it overflows the stack and kills the process (1e5 levels).
_MAX_OPENERS = 200


def _load(fh):
    """The document in the text file ``fh``, as :class:`_Loader` reads it.

    A text that libyaml reads as _Loader does (see ``_PURE_ONLY``) goes to
    libyaml.  _Loader reads any other text, a text libyaml rejects or that
    cannot be decoded, and a file that cannot be read twice, such as a pipe,
    from the file itself: its data or its error is the result, so that the
    error's marks name the file and a bad byte's position reads as before.
    """
    if _CLoader is not None and fh.seekable():
        try:
            text = fh.read()
            if not _PURE_ONLY.search(text) and sum(map(text.count, "[{-:")) <= _MAX_OPENERS:
                return yaml.load(text, Loader=_CLoader)
        except (yaml.YAMLError, ValueError):  # ValueError: a bad byte, an int past 4300 digits
            pass
        fh.seek(0)
    return yaml.load(fh, Loader=_Loader)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = _load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    # ValueError: an int past 4300 digits; RecursionError: nesting a few hundred levels deep
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    return parse_config(raw)
