"""Service-time distribution catalog.

The peak-age formulas read a law only through ``F``, ``P(X > theta)`` and
the truncated first moment ``M(theta) = E[X 1{X <= theta}]``.  Each law
writes those three once, in ``_primitives(x)``, plus a generalized-inverse
quantile and seeded sampling, and says where its support starts, if not
at 0, only through ``support_min()``.  All are closed forms but the
``HyperExponential`` quantile: the smallest float ``x`` with ``F(x) >= q``
(``sf(x) <= 1 - q`` above the median), one bisection over the ordered bit
patterns of the nonnegative floats.  An atom law (``TwoPoint``,
``Deterministic``) gives only ``atoms()``, and the base class derives all
of these from one table of them.  The same expressions take a float or an
array: :meth:`ServiceDistribution.primitives` reads one threshold and
:meth:`ServiceDistribution.grid_primitives` a whole grid, so a single value
and a grid agree bit for bit.  ``cdf``, ``sf``, ``truncated_first_moment``,
the integrated CDF ``int_0^theta F = theta F(theta) - M(theta)`` (by parts),
the mean ``E[X] = M(inf)`` (but the mixture's own ``sum(w / r)``, which
rounds otherwise) and the conditional residual ``E[X - theta | X > theta]``
derive from them in the base class; four laws give the residual in closed form
(``_residuals``), and below the support every law reads ``E[X] - theta``.

One formula serves both because the array form changes only how the
arithmetic is dispatched:

* a ``scipy.special`` function (``gammainc``, ``gammaincc``, ``ndtr``)
  takes a float or the whole array, the same ufunc loop either way;
* a ``math`` function (``exp``, ``expm1``, ``log``, ``log1p``, ``pow``) is
  called once per element (:func:`_each`), because numpy's ``exp``,
  ``expm1``, ``log`` and ``power`` round some points differently: on
  ``(xm / x) ** alpha``, ``np.power`` differs from ``**`` on about 5 % of
  points for Pareto alpha = 1.5 and 3;
* numpy does only ``+ - * /`` and comparisons, which round each element
  as Python's operators do, in the expression's order (a mixture sums its
  phases in ``sum``'s order);
* thresholds below the support never reach a ``math`` function (``log1p``
  raises below Pareto's ``xm``) and read ``(0, 1, 0)`` instead, and
  numpy's overflow warning is silenced on a grid and in ``mean``, since
  Python's float arithmetic overflows to ``inf`` silently.

Conventions
-----------
* All Stieltjes integrals over ``[0, theta]`` are right-closed: an atom
  sitting exactly at ``theta`` contributes fully, matching the
  right-continuous CDF.
* An infinite mean is the float ``inf`` (IEEE infinity, not a sentinel);
  arithmetic on it stays total.  So is a quantile past the largest float,
  on every law.
* ``sample_batch`` uses the inverse-CDF transform wherever the catalog member
  has a usable inverse and standard transforms otherwise; a fixed seed
  reproduces the draw sequence bit for bit.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import struct
import sys
from dataclasses import dataclass
from itertools import repeat

import numpy as np


def _special_ufuncs(*names):
    """The ``scipy.special`` ufuncs ``names``, the very objects it exports.
    A bare package stub stands in while ``_ufuncs`` loads, skipping the
    array-API shim ``_support_alternative_backends`` (it imports
    ``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``); on any failure the
    package is imported as usual."""
    if "scipy.special" not in sys.modules:
        try:
            spec = importlib.util.find_spec("scipy.special")
            sys.modules["scipy.special"] = importlib.util.module_from_spec(spec)
            ufuncs = importlib.import_module("scipy.special._ufuncs")
            return [getattr(ufuncs, name) for name in names]
        except Exception:  # the plain import below is the fallback
            pass
        finally:
            sys.modules.pop("scipy.special", None)
    import scipy.special
    return [getattr(scipy.special, name) for name in names]


gammainc, gammaincc, gammaincinv, ndtr, ndtri = _special_ufuncs(
    "gammainc", "gammaincc", "gammaincinv", "ndtr", "ndtri")

__all__ = [
    "ServiceDistribution",
    "Exponential",
    "Erlang",
    "Pareto",
    "ShiftedExponential",
    "TwoPoint",
    "HyperExponential",
    "LogNormal",
    "Deterministic",
]


# the longest weight table picked by comparisons: on 4096 draws, one
# comparison and add per edge beat the binary search up to about 16 edges
_PICK_BY_COMPARISON = 16


def _pick_table(weights) -> tuple[np.ndarray, int, list[float]]:
    """What :func:`_pick` reads of ``weights``: their running sums, the
    index of the last positive weight, and the sums before it."""
    weights = np.asarray(weights, dtype=float)
    edges = np.cumsum(weights)
    last = int(np.flatnonzero(weights)[-1])
    return edges, last, edges[:last].tolist()


def _pick(table: tuple[np.ndarray, int, list[float]], u) -> np.ndarray:
    """For each ``u`` in [0, 1), the pick among the nonnegative weights whose
    :func:`_pick_table` is ``table``: the first index whose running sum
    exceeds ``u``, capped at the last positive weight (the sum may round
    below 1), so that a zero weight is never picked.

    The pick is the number of running sums at or below ``u``, counted
    among those before the last positive weight, which is the capped
    ``searchsorted(..., side="right")``.  A table of up to
    ``_PICK_BY_COMPARISON`` weights counts them with one array comparison
    per sum (two phases: one comparison); a longer one keeps the binary
    search.  A caller that picks from the same weights again keeps their
    table."""
    edges, last, below = table
    if len(edges) > _PICK_BY_COMPARISON:
        return np.minimum(np.searchsorted(edges, u, side="right"), last)
    u = np.asarray(u, dtype=float)
    pick = np.zeros(u.shape, dtype=np.intp)
    for edge in below:
        pick += u >= edge
    return pick


def _exp_truncated_moment(rate: float, tau):
    """``int_0^tau x d(1 - e^{-rate x})``, i.e. ``P(2, rate tau) / rate``,
    for a number or an array ``tau``.

    The regularized incomplete gamma keeps full relative accuracy deep in
    the lower tail, where ``1 - e^{-u} - u e^{-u}`` cancels.
    """
    return gammainc(2, rate * tau) / rate


def _each(fn, xs, *constants):
    """``fn(x, *constants)`` for a float ``xs``, or for every element of an
    array ``xs``: a ``math`` function called once per element, so each
    rounds as a call on that float alone."""
    if not isinstance(xs, np.ndarray):
        return fn(xs, *constants)
    return np.fromiter(map(fn, xs.tolist(), *map(repeat, constants)), float, xs.size)


def _exp(x: float) -> float:
    """``math.exp(x)``, or ``inf`` past the largest float, where it raises."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _float(bits: int) -> float:
    """The float whose IEEE 754 binary64 bit pattern is the integer ``bits``."""
    return struct.unpack("<d", struct.pack("<q", bits))[0]


class ServiceDistribution:
    """A nonnegative service-time law with the primitives PAoI formulas need."""

    def atoms(self) -> tuple[tuple[float, float], ...]:
        """``(value, weight)`` pairs in increasing order, positive weights
        summing to 1; ``()`` for a law that writes its own primitives."""
        return ()

    @functools.cached_property
    def _atom_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(values, F, sf, M)`` at each atom, built once per instance: ``F``
        reads exactly 1 at the last atom, ``sf`` adds the weights after
        each atom from the right, and ``M`` is the running sum of ``w v``."""
        atoms = self.atoms()
        if not atoms:
            raise NotImplementedError(f"{type(self).__name__} gives neither atoms nor this method")
        values, weights = np.array(atoms, dtype=float).T.copy()  # contiguous rows
        f = np.cumsum(weights)
        f[-1] = 1.0
        sf = np.append(np.cumsum(weights[:0:-1])[::-1], 0.0)
        return values, f, sf, np.cumsum(weights * values)

    def support_min(self) -> float:
        """Infimum of the support: the smallest atom of an atom law, else 0."""
        atoms = self.atoms()
        return float(atoms[0][0]) if atoms else 0.0

    def mean(self) -> float:
        """E[X] = M(inf); ``inf`` when the integral diverges."""
        with np.errstate(over="ignore"):  # past the largest float: inf, as a float reads it
            return float(self._primitives(math.inf)[2])

    def quantile(self, q: float) -> float:
        """Generalized inverse inf{x : F(x) >= q} for 0 < q < 1."""
        values, f, _, _ = self._atom_table
        return float(values[f.searchsorted(q, "left")])

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` i.i.d. service times."""
        values, f, _, _ = self._atom_table
        return values[f.searchsorted(rng.random(n), "left")]

    def primitives(self, theta: float) -> tuple[float, float, float]:
        """``(F(theta), P(X > theta), M(theta))`` with ``M(theta) =
        E[X 1{X <= theta}]``: ``F`` right-continuous, ``P(X > theta)``
        computed directly for tail accuracy, and atoms at or below
        ``theta`` counted fully.

        A threshold below the support reads ``(0, 1, 0)``, and so does
        ``nan``, which no comparison places inside it: a ``nan`` threshold
        never delivers, so its PAoI is ``inf``, on a grid as alone.
        """
        x = float(theta)
        if not self._reaches_support(x):
            return 0.0, 1.0, 0.0
        f, sf, m = self._primitives(x)
        return float(f), float(sf), float(m)

    def cdf(self, x: float) -> float:
        """P(X <= x), right-continuous."""
        return self.primitives(x)[0]

    def sf(self, x: float) -> float:
        """P(X > x), computed directly for tail accuracy."""
        return self.primitives(x)[1]

    def truncated_first_moment(self, theta: float) -> float:
        """E[X 1{X <= theta}]; atoms at or below ``theta`` count fully."""
        return self.primitives(theta)[2]

    def integrated_cdf(self, theta: float) -> float:
        """int_0^theta F(x) dx, by parts ``theta F(theta) - M(theta)``."""
        f, _, m = self.primitives(theta)
        return theta * f - m

    def conditional_residual(self, theta: float) -> float:
        """E[X - theta | X > theta]: ``inf`` when the mean diverges, and
        ``nan`` where no event is conditioned on (P(X > theta) = 0, a
        mixture's posterior phase weights underflow, or ``theta`` is
        ``nan``), as :meth:`grid_residuals` reads it."""
        return float(self.grid_residuals([theta])[0])

    def grid_primitives(self, thetas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`primitives` at every threshold of ``thetas`` in one call,
        as the ``F``, ``sf`` and ``M`` arrays."""
        x = np.asarray(thetas, dtype=float)
        f, sf, m = np.zeros(x.shape), np.ones(x.shape), np.zeros(x.shape)
        inside = self._reaches_support(x)
        with np.errstate(over="ignore"):
            f[inside], sf[inside], m[inside] = self._primitives(x[inside])
        return f, sf, m

    def grid_residuals(self, thetas) -> np.ndarray:
        """:meth:`conditional_residual` at every threshold of ``thetas`` in
        one call.  Below the support X > theta surely, so it reads
        ``E[X] - theta`` there."""
        x = np.asarray(thetas, dtype=float)
        with np.errstate(over="ignore"):
            out = self._residuals(x)
        below = x < self.support_min()
        out[below] = self.mean() - x[below]
        out[np.isnan(x)] = math.nan
        return out

    def _reaches_support(self, x):
        """Where ``x`` reaches the support and ``(F, sf, M)`` come from
        :meth:`_primitives`; elsewhere they are ``(0, 1, 0)``.  An atom at
        ``support_min`` reaches it there."""
        edge = self.support_min()
        return x >= edge if self.atoms() else x > edge

    def _primitives(self, x):
        """``(F, sf, M)`` on thresholds that reach the support, one formula
        for a float or an array; an atom law reads its table at the last
        atom at or below ``x``."""
        values, f, sf, m = self._atom_table
        i = values.searchsorted(x, "right") - 1
        return f[i], sf[i], m[i]

    def _residuals(self, x: np.ndarray) -> np.ndarray:
        """The base form ``(E[X] - M) / sf - theta`` where ``sf > 0``."""
        _, tail, m = self.grid_primitives(x)
        out = np.full(x.shape, math.nan)
        live = tail > 0.0
        out[live] = (self.mean() - m[live]) / tail[live] - x[live]
        return out


@dataclass(frozen=True)
class Exponential(ServiceDistribution):
    rate: float

    def __post_init__(self):
        object.__setattr__(self, "rate", float(self.rate))
        if not 0 < self.rate < math.inf:
            raise ValueError("rate must be positive and finite")

    def _primitives(self, x):
        u = -self.rate * x
        return -_each(math.expm1, u), _each(math.exp, u), _exp_truncated_moment(self.rate, x)

    def _residuals(self, x):
        # memoryless: the residual never depends on theta
        return np.full(x.shape, 1.0 / self.rate)

    def quantile(self, q):
        return -math.log1p(-q) / self.rate

    def sample_batch(self, rng, n):
        return -np.log1p(-rng.random(n)) / self.rate


@dataclass(frozen=True)
class Erlang(ServiceDistribution):
    shape: int
    rate: float

    def __post_init__(self):
        if not 1 <= self.shape < math.inf or self.shape != int(self.shape):
            raise ValueError("shape must be a positive integer")
        object.__setattr__(self, "shape", int(self.shape))
        object.__setattr__(self, "rate", float(self.rate))
        if not 0 < self.rate < math.inf:
            raise ValueError("rate must be positive and finite")

    def _primitives(self, x):
        # x f_k(x) = (k/rate) f_{k+1}(x), so the truncated moment is a
        # higher-shape CDF evaluation.  Where k/rate overflows, the CDF
        # is divided by the rate first, so M reads 0 where it underflows
        # and not inf * 0 = nan.
        u = self.rate * x
        upper = gammainc(self.shape + 1, u)
        scale = self.shape / self.rate
        m = scale * upper if scale < math.inf else self.shape * (upper / self.rate)
        return gammainc(self.shape, u), gammaincc(self.shape, u), m

    def quantile(self, q):
        return float(gammaincinv(self.shape, q)) / self.rate

    def sample_batch(self, rng, n):
        return rng.gamma(self.shape, 1.0 / self.rate, size=n)


@dataclass(frozen=True)
class Pareto(ServiceDistribution):
    """Pareto law on ``[xm, inf)`` with tail index ``alpha``.

    The mean is infinite for ``alpha <= 1``; every operation stays total
    in that regime.  ``F`` and ``M`` use ``L = ln(x / xm)`` computed as
    ``log1p((x - xm) / xm)``, plus ``expm1``, so they keep full relative
    accuracy just above ``xm`` and as ``alpha -> 1``.  Where ``x / xm``
    passes the largest float, ``L`` is ``log(x) - log(xm)`` and ``sf`` and
    ``M`` follow from it (see :meth:`_far_primitives`).
    """

    xm: float
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "xm", float(self.xm))
        object.__setattr__(self, "alpha", float(self.alpha))
        if not (0 < self.xm < math.inf and 0 < self.alpha < math.inf):
            raise ValueError("xm and alpha must be positive and finite")

    def support_min(self):
        return self.xm

    def _primitives(self, x):
        far = (x - self.xm) / self.xm == math.inf
        if not isinstance(x, np.ndarray):
            return self._far_primitives(x) if far else self._near_primitives(x)
        if not far.any():
            return self._near_primitives(x)
        out = np.empty((3, *x.shape))
        out[:, ~far] = self._near_primitives(x[~far])
        out[:, far] = self._far_primitives(x[far])
        return tuple(out)

    def _near_primitives(self, x):
        a, xm = self.alpha, self.xm
        log_ratio = _each(math.log1p, (x - xm) / xm)
        f = -_each(math.expm1, -a * log_ratio)
        sf = _each(math.pow, xm / x, a)  # math.pow rounds as ``**`` does
        if a == 1.0:
            return f, sf, xm * log_ratio
        return f, sf, a * xm * -_each(math.expm1, -(a - 1.0) * log_ratio) / (a - 1.0)

    def _far_primitives(self, x):
        """``(F, sf, M)`` where ``(x - xm) / xm`` overflows.  ``xm / x`` may
        round to 0 there, and ``alpha * xm`` too, so ``sf = exp(-alpha L)``;
        for ``alpha < 1``, ``M = alpha / (1 - alpha) xm (e^z - 1)`` with
        ``z = (1 - alpha) L`` reads as ``alpha (1 - e^-z) / (1 - alpha)
        e^(ln xm + z)``, which stays finite while ``x`` does."""
        a, xm = self.alpha, self.xm
        log_ratio = _each(math.log, x) - math.log(xm)
        f = -_each(math.expm1, -a * log_ratio)
        sf = _each(math.exp, -a * log_ratio)
        if a == 1.0:
            return f, sf, xm * log_ratio
        if a > 1.0:
            return f, sf, a * xm * -_each(math.expm1, -(a - 1.0) * log_ratio) / (a - 1.0)
        z = (1.0 - a) * log_ratio
        return f, sf, a * -_each(math.expm1, -z) / (1.0 - a) * _each(_exp, math.log(xm) + z)

    def _residuals(self, x):
        if self.alpha <= 1.0:
            return np.full(x.shape, math.inf)
        return x / (self.alpha - 1.0)

    def quantile(self, q):
        return self.xm * _exp(-math.log1p(-q) / self.alpha)

    def sample_batch(self, rng, n):
        return self.xm * np.exp(-np.log1p(-rng.random(n)) / self.alpha)


@dataclass(frozen=True)
class ShiftedExponential(ServiceDistribution):
    shift: float
    rate: float

    def __post_init__(self):
        object.__setattr__(self, "shift", float(self.shift))
        object.__setattr__(self, "rate", float(self.rate))
        if not 0 <= self.shift < math.inf:
            raise ValueError("shift must be nonnegative and finite")
        if not 0 < self.rate < math.inf:
            raise ValueError("rate must be positive and finite")

    def support_min(self):
        return self.shift

    def _primitives(self, x):
        tau = x - self.shift
        u = -self.rate * tau
        f = -_each(math.expm1, u)
        return f, _each(math.exp, u), _exp_truncated_moment(self.rate, tau) + self.shift * f

    def _residuals(self, x):
        return np.full(x.shape, 1.0 / self.rate)

    def quantile(self, q):
        return self.shift - math.log1p(-q) / self.rate

    def sample_batch(self, rng, n):
        return self.shift - np.log1p(-rng.random(n)) / self.rate


@dataclass(frozen=True)
class TwoPoint(ServiceDistribution):
    """Atom at ``t1`` with probability ``p``, atom at ``t2`` otherwise."""

    t1: float
    t2: float
    p: float

    def __post_init__(self):
        for name in ("t1", "t2", "p"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not 0.0 < self.t1 < self.t2 < math.inf:
            raise ValueError("need finite 0 < t1 < t2")
        if not 0.0 < self.p < 1.0:
            raise ValueError("need 0 < p < 1")

    def atoms(self):
        return ((self.t1, self.p), (self.t2, 1.0 - self.p))


@dataclass(frozen=True)
class HyperExponential(ServiceDistribution):
    """Mixture of exponentials: phase ``i`` with weight ``w_i`` and rate ``l_i``."""

    rates: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.rates) != len(self.weights) or not self.rates:
            raise ValueError("rates and weights must be nonempty and equal length")
        if not all(0 < v < math.inf for v in self.rates + self.weights):
            raise ValueError("rates and weights must be positive and finite")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")

    def mean(self):
        # M(inf) = sum(w * (1 / r)) rounds otherwise on about 18 % of random mixtures
        return sum(w / r for w, r in zip(self.weights, self.rates))

    def _primitives(self, x):
        # each column sums its phases in ``sum``'s order, on a float or an array
        phases = list(zip(self.weights, self.rates))
        return (sum(w * -_each(math.expm1, -r * x) for w, r in phases),
                sum(w * _each(math.exp, -r * x) for w, r in phases),
                sum(w * _exp_truncated_moment(r, x) for w, r in phases))

    def _residuals(self, x):
        out = np.full(x.shape, self.mean())
        on = np.flatnonzero(x > 0)
        # posterior phase weights given survival past theta
        tails = [w * _each(math.exp, -r * x[on]) for w, r in zip(self.weights, self.rates)]
        z = sum(tails)
        live = z > 0.0  # the posterior weights exist; nan where z underflowed
        out[on] = math.nan
        out[on[live]] = sum(t[live] / r for t, r in zip(tails, self.rates)) / z[live]
        return out

    def quantile(self, q):
        # The smallest float x with gap(x) <= 0, i.e. the exact generalized
        # inverse of this class's own F: one bisection over the bit patterns
        # of the nonnegative floats, which order as the floats do, in at
        # most 64 reads.  Above the median, gap reads sf, the accurate side.
        if q == 1.0:
            return math.inf  # F reaches 1 only in the limit

        def gap(x):  # positive exactly below the answer
            return q - self.cdf(x) if q <= 0.5 else self.sf(x) - (1.0 - q)

        lo, hi = -1, 0x7FF0_0000_0000_0000  # "below 0.0" and the bits of inf
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if gap(_float(mid)) > 0.0 else (lo, mid)
        return _float(hi)

    @functools.cached_property
    def _pick_table(self) -> tuple[np.ndarray, int, list[float]]:
        """The phase weights' :func:`_pick_table`, built once per instance."""
        return _pick_table(self.weights)

    def sample_batch(self, rng, n):
        rates = np.asarray(self.rates)[_pick(self._pick_table, rng.random(n))]
        return -np.log1p(-rng.random(n)) / rates


@dataclass(frozen=True)
class LogNormal(ServiceDistribution):
    """log X ~ Normal(mu, sigma^2).

    The truncated first moment has the closed form
    ``M(theta) = e^{mu + sigma^2/2} Phi((ln theta - mu - sigma^2) / sigma)``.
    """

    mu: float
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "sigma", float(self.sigma))
        if not (-math.inf < self.mu < math.inf and 0 < self.sigma < math.inf):
            raise ValueError("mu must be finite and sigma positive and finite")
        try:
            self.mean()
        except OverflowError:
            exponent = self.mu + 0.5 * self.sigma * self.sigma  # inf where sigma**2 raises
            raise ValueError(
                f"the mean exp(mu + sigma^2/2) = exp({exponent:g}) overflows a float"
            ) from None

    def _primitives(self, x):
        z = (_each(math.log, x) - self.mu) / self.sigma
        return ndtr(z), ndtr(-z), math.exp(self.mu + 0.5 * self.sigma**2) * ndtr(z - self.sigma)

    def quantile(self, q):
        return _exp(self.mu + self.sigma * float(ndtri(q)))

    def sample_batch(self, rng, n):
        return np.exp(self.mu + self.sigma * ndtri(rng.random(n)))


@dataclass(frozen=True)
class Deterministic(ServiceDistribution):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if not 0 < self.value < math.inf:
            raise ValueError("value must be positive and finite")

    def atoms(self):
        return ((self.value, 1.0),)
