import dataclasses
import functools
import importlib.util
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import strategies as st
from scipy import integrate, stats

from paoi_lab import (
    Deterministic,
    Erlang,
    Exponential,
    HyperExponential,
    LogNormal,
    Pareto,
    ShiftedExponential,
    TwoPoint,
    cli,
    config,
    digits,
)

# One representative per catalog kind; parameters chosen so every kind has
# a comfortable quantile range for grid-based checks.
CATALOG = {
    "exponential": Exponential(rate=1.0),
    "erlang": Erlang(shape=3, rate=1.0),
    "pareto": Pareto(xm=1.0, alpha=2.0),
    "shifted-exponential": ShiftedExponential(shift=0.5, rate=2.0),
    "two-point": TwoPoint(t1=1.0, t2=3.0, p=0.5),
    "hyper-exponential": HyperExponential(rates=(10.0, 1.0), weights=(10 / 11, 1 / 11)),
    "log-normal": LogNormal(mu=0.0, sigma=1.0),
    "deterministic": Deterministic(value=1.5),
}

# Each catalog law as a function of its time scale ``s``: ``SCALED[k](s)`` is
# ``s * X`` for ``X = CATALOG[k]``, and ``SCALED[k](1.0) == CATALOG[k]``.
SCALED = {
    "exponential": lambda s: Exponential(1.0 / s),
    "erlang": lambda s: Erlang(3, 1.0 / s),
    "pareto": lambda s: Pareto(s, 2.0),
    "shifted-exponential": lambda s: ShiftedExponential(0.5 * s, 2.0 / s),
    "two-point": lambda s: TwoPoint(s, 3.0 * s, 0.5),
    "hyper-exponential": lambda s: HyperExponential((10.0 / s, 1.0 / s), (10 / 11, 1 / 11)),
    "log-normal": lambda s: LogNormal(math.log(s), 1.0),
    "deterministic": lambda s: Deterministic(1.5 * s),
}

CONTINUOUS = [
    "exponential",
    "erlang",
    "pareto",
    "shifted-exponential",
    "hyper-exponential",
    "log-normal",
]

FINITE_MEAN = [k for k in CATALOG if not math.isinf(CATALOG[k].mean())]

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(name):
    """``perfbench/<name>.py`` loaded by path as a new module.

    ``perfbench/oracle.py`` sets mpmath's working precision to 50 digits
    when it runs, so the precision is put back after loading: the suite's
    other mpmath calls keep the one they had.
    """
    import mpmath

    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with mpmath.workprec(mpmath.mp.prec):
        spec.loader.exec_module(module)
    return module


_KINDS = {law: kind for kind, law in config._LAWS.items()}


@functools.cache
def _oracle():
    return perfbench_module("oracle")


def oracle_law(d):
    """``d`` as a ``Law`` of ``perfbench/oracle.py``, the one mpmath law
    table: its ``cdf``, ``sf`` and ``moment`` take an mpf, and its ``mean``
    is evaluated here, at mpmath's working precision."""
    params = {f.name: getattr(d, f.name) for f in dataclasses.fields(d)}
    return _oracle().law(_KINDS[type(d)],
                         {k: list(v) if isinstance(v, tuple) else v for k, v in params.items()})


@st.composite
def hyper_exponentials(draw):
    """A mixture of 1 to 4 exponential phases with rates in [1e-3, 1e3]."""
    rates = draw(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=4))
    raw = draw(st.lists(st.floats(min_value=1e-3, max_value=1.0),
                        min_size=len(rates), max_size=len(rates)))
    return HyperExponential(tuple(rates), tuple(w / sum(raw) for w in raw))


def catalog_ids():
    return sorted(CATALOG)


@pytest.fixture(params=catalog_ids())
def member(request):
    return CATALOG[request.param]


def scipy_frozen(name):
    """Independent scipy.stats counterpart for continuous catalog members."""
    d = CATALOG[name]
    if name == "exponential":
        return stats.expon(scale=1.0 / d.rate)
    if name == "erlang":
        return stats.gamma(d.shape, scale=1.0 / d.rate)
    if name == "pareto":
        return stats.pareto(d.alpha, scale=d.xm)
    if name == "shifted-exponential":
        return stats.expon(loc=d.shift, scale=1.0 / d.rate)
    if name == "log-normal":
        return stats.lognorm(d.sigma, scale=math.exp(d.mu))
    raise KeyError(name)


def hyperexp_pdf(d, x):
    return sum(w * r * math.exp(-r * x) for w, r in zip(d.weights, d.rates))


def pdf_of(name):
    d = CATALOG[name]
    if name == "hyper-exponential":
        return lambda x: hyperexp_pdf(d, x)
    frozen = scipy_frozen(name)
    return frozen.pdf


def quad_truncated_moment(name, theta):
    """Brute-force oracle for E[X 1{X <= theta}] on continuous kinds."""
    pdf = pdf_of(name)
    lo = CATALOG[name].support_min()
    if theta <= lo:
        return 0.0
    val, _ = integrate.quad(lambda x: x * pdf(x), lo, theta, limit=400)
    return val


def quad_integrated_cdf(name, theta):
    """Brute-force oracle for int_0^theta F on continuous kinds."""
    d = CATALOG[name]
    lo = d.support_min()
    if theta <= lo:
        return 0.0
    val, _ = integrate.quad(d.cdf, lo, theta, limit=400)
    return val


def theta_probe_grid(d, n=20, q_lo=0.05, q_hi=0.95):
    """Representative thresholds inside the support of ``d``."""
    return np.array([d.quantile(q) for q in np.linspace(q_lo, q_hi, n)])


def ks_statistic(samples, grid_cdf):
    """Kolmogorov-Smirnov distance of an empirical sample against the CDF
    that ``grid_cdf`` reads on an array of points.

    Valid for distributions with atoms: the supremum is checked at every
    observed value from both sides, using a left limit for the jump.
    """
    xs = np.asarray(samples, dtype=float)
    n = len(xs)
    values, counts = np.unique(xs, return_counts=True)
    cum = np.cumsum(counts)
    f_right = grid_cdf(values)
    f_left = grid_cdf(values - 1e-9 * np.maximum(1.0, np.abs(values)))
    return max(np.max(np.abs(cum / n - f_right)), np.max(np.abs((cum - counts) / n - f_left)))


def pure_yaml(fh):
    """The document in ``fh`` as the pure-Python loader alone reads it."""
    return yaml.load(fh, Loader=config._Loader)


def read_yaml(load, fh):
    """``load(fh)`` as ``("data", repr)``, or as the type and text of its error."""
    try:
        return "data", repr(load(fh))
    except (yaml.YAMLError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.fixture(autouse=True)
def yaml_loaders_agree(monkeypatch):
    """Every config a test loads must read as the pure-Python loader reads
    it: the same data, or the same error with the same text.  Returns the
    loader it checks, for a test that calls it directly."""
    load = config._load

    def checked(fh):
        if fh.seekable():
            want = read_yaml(pure_yaml, fh)
            fh.seek(0)
            assert read_yaml(load, fh) == want
            fh.seek(0)
        return load(fh)

    monkeypatch.setattr(config, "_load", checked)
    return load


def run_fresh(probe):
    """The stdout of ``probe`` run in a fresh interpreter that imports this
    ``paoi_lab``: the suite's own process has imported scipy.special."""
    import paoi_lab

    src = str(Path(paoi_lab.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def fill_text(fill, header, columns):
    """What ``fill``, :func:`cli._template_rows` or :func:`digits.spell_rows`,
    writes for ``columns`` under ``header``, whatever the table's size."""
    fh = io.StringIO()
    fh.write(cli._header(header))
    fill(fh, *cli._table(columns))
    return fh.getvalue()


def record_text(fill, records):
    """What ``fill`` writes for a record array, one row per record under its
    field names, as ``simulate`` passes a peak dump or a trajectory."""
    names = list(records.dtype.names)
    return fill_text(fill, names, [records[name] for name in names])


def kernel_text(records):
    """What the digit-table kernel writes for ``records``."""
    return record_text(digits.spell_rows, records)


def assert_same_text(got, want):
    """``assert got == want`` for two texts, but a failure reports only the
    first line that differs, both versions of it and the line counts:
    pytest's own diff of two texts of a megabyte runs for minutes."""
    __tracebackhide__ = True
    if got == want:
        return
    lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    i = next((i for i, (a, b) in enumerate(zip(lines, want_lines)) if a != b),
             min(len(lines), len(want_lines)))
    line, want_line = (ls[i] if i < len(ls) else None for ls in (lines, want_lines))
    raise AssertionError(f"line {i + 1} differs: {line!r} != {want_line!r} "
                         f"({len(lines)} lines against {len(want_lines)})")
