"""Independent high-precision oracle for the peak-age formulas.

Shares no code with ``paoi_lab``: every law is written again from its
textbook closed form in mpmath at 50 digits.  The log-normal truncated
moment uses ``M(t) = exp(mu + sigma^2/2) Phi((ln t - mu - sigma^2)/sigma)``
where the program integrates numerically, and ``int_0^t F`` is never
evaluated: the oracle uses ``t - int_0^t F = t P(X > t) + M(t)``.

The tolerances below are relative.  ``ZETA_RTOL`` admits the last-digit
drift that a change of summation order or of quadrature brings (at most
1.1e-10 at the parent commit, on log-normal cells) and little more, so a
change that gives up precision for speed fails the checks.  The one known
exception is the program's hyper-exponential CDF, computed as ``1 - sf``:
it cancels near zero, with a relative error of about ``eps / F(theta)``
(1.6e-8 at theta = 1e-9).  ``zeta_rtol`` widens the tolerance for that law
alone, by ``CANCEL_ULPS`` times that error.  Each run prints the relative
error that came closest to its tolerance.
"""

from __future__ import annotations

import math
import sys

import mpmath as mp

mp.mp.dps = 50

ZETA_RTOL = 1e-9  # a zeta, E[Xr] or E[Y] cell against the oracle
CANCEL_ULPS = 100  # hyper-exponential cells: ZETA_RTOL or this many eps / F(theta)
WINDOW_RTOL = 1e-9  # the default optimizer window and the sweep grid
SEARCH_RTOL = 1e-6  # a searched optimum against the oracle's grid or refined minimum
SIM_SE = 5.0  # pooled simulation mean within this many pooled standard errors
PEAK_SUM_RTOL = 1e-11  # peak == received_service + interreception in a dumped row
TIE_RTOL = 1e-9  # the program's documented strictness guard for the benefit verdict
PRINTED_RTOL = 5e-12  # half a unit in the 12th significant digit, relative

INF = mp.inf


class Law:
    """A service-time law: F, P(X > t), M(t) = E[X 1{X <= t}], mean, support."""

    def __init__(self, kind, cdf, sf, moment, mean, xmin, quantile=None):
        self.kind = kind
        self.key = None  # (kind, parameters), set by ``law``
        self.cdf = cdf
        self.sf = sf
        self.moment = moment
        self.mean = mean
        self.xmin = xmin
        self._quantile = quantile

    def quantile(self, q):
        """Generalized inverse ``inf{x : F(x) >= q}`` by bisection."""
        if self._quantile is not None:
            return self._quantile(mp.mpf(q))
        q = mp.mpf(q)
        lo, hi = mp.mpf(self.xmin), mp.mpf(self.xmin) + 1
        while self.cdf(hi) < q:
            hi *= 2
        for _ in range(200):
            mid = (lo + hi) / 2
            if self.cdf(mid) >= q:
                hi = mid
            else:
                lo = mid
        return hi


def _exp_moment(rate, t):
    u = rate * t
    return (-mp.expm1(-u) - u * mp.exp(-u)) / rate


def law(kind: str, params: dict) -> Law:
    d = _law(kind, {k: ([mp.mpf(x) for x in v] if isinstance(v, list) else mp.mpf(v))
                    for k, v in params.items()})
    d.key = (kind, repr(sorted(params.items())))
    return d


def _law(kind: str, p: dict) -> Law:
    if kind == "exponential":
        lam = p["rate"]
        return Law(
            kind,
            lambda t: -mp.expm1(-lam * t) if t > 0 else mp.mpf(0),
            lambda t: mp.exp(-lam * t) if t > 0 else mp.mpf(1),
            lambda t: _exp_moment(lam, t) if t > 0 else mp.mpf(0),
            1 / lam,
            0,
            lambda q: -mp.log1p(-q) / lam,
        )
    if kind == "erlang":
        k, lam = p["shape"], p["rate"]
        return Law(
            kind,
            lambda t: mp.gammainc(k, 0, lam * t, regularized=True) if t > 0 else mp.mpf(0),
            lambda t: mp.gammainc(k, lam * t, mp.inf, regularized=True) if t > 0 else mp.mpf(1),
            # int_0^t x^k e^{-lam x} lam^k / (k-1)! dx, written as a lower gamma
            lambda t: (mp.gammainc(k + 1, 0, lam * t) / (lam * mp.gamma(k))
                       if t > 0 else mp.mpf(0)),
            k / lam,
            0,
        )
    if kind == "pareto":
        xm, a = p["xm"], p["alpha"]

        def moment(t):
            if t < xm:
                return mp.mpf(0)
            if a == 1:
                return xm * mp.log(t / xm)
            return a * xm / (a - 1) * (1 - (xm / t) ** (a - 1))

        return Law(
            kind,
            lambda t: 1 - (xm / t) ** a if t >= xm else mp.mpf(0),
            lambda t: (xm / t) ** a if t >= xm else mp.mpf(1),
            moment,
            a * xm / (a - 1) if a > 1 else INF,
            xm,
            lambda q: xm * (1 - q) ** (-1 / a),
        )
    if kind == "shifted-exponential":
        c, lam = p["shift"], p["rate"]
        return Law(
            kind,
            lambda t: -mp.expm1(-lam * (t - c)) if t > c else mp.mpf(0),
            lambda t: mp.exp(-lam * (t - c)) if t > c else mp.mpf(1),
            lambda t: (c * -mp.expm1(-lam * (t - c)) + _exp_moment(lam, t - c)
                       if t > c else mp.mpf(0)),
            c + 1 / lam,
            c,
        )
    if kind == "two-point":
        t1, t2, pr = p["t1"], p["t2"], p["p"]

        def cdf(t):
            return mp.mpf(0) if t < t1 else (pr if t < t2 else mp.mpf(1))

        def moment(t):
            return mp.mpf(0) if t < t1 else (pr * t1 if t < t2 else pr * t1 + (1 - pr) * t2)

        return Law(kind, cdf, lambda t: 1 - cdf(t), moment, pr * t1 + (1 - pr) * t2, t1,
                   lambda q: t1 if q <= pr else t2)
    if kind == "hyper-exponential":
        pairs = list(zip(p["weights"], p["rates"]))
        return Law(
            kind,
            lambda t: mp.fsum(w * -mp.expm1(-r * t) for w, r in pairs) if t > 0 else mp.mpf(0),
            lambda t: mp.fsum(w * mp.exp(-r * t) for w, r in pairs) if t > 0 else mp.mpf(1),
            lambda t: mp.fsum(w * _exp_moment(r, t) for w, r in pairs) if t > 0 else mp.mpf(0),
            mp.fsum(w / r for w, r in pairs),
            0,
        )
    if kind == "log-normal":
        mu, sg = p["mu"], p["sigma"]
        return Law(
            kind,
            lambda t: mp.ncdf((mp.log(t) - mu) / sg) if t > 0 else mp.mpf(0),
            lambda t: mp.ncdf(-(mp.log(t) - mu) / sg) if t > 0 else mp.mpf(1),
            lambda t: (mp.exp(mu + sg**2 / 2) * mp.ncdf((mp.log(t) - mu - sg**2) / sg)
                       if t > 0 else mp.mpf(0)),
            mp.exp(mu + sg**2 / 2),
            0,
            lambda q: mp.exp(mu + sg * mp.sqrt(2) * mp.erfinv(2 * q - 1)),
        )
    if kind == "deterministic":
        v = p["value"]
        return Law(
            kind,
            lambda t: mp.mpf(1) if t >= v else mp.mpf(0),
            lambda t: mp.mpf(0) if t >= v else mp.mpf(1),
            lambda t: v if t >= v else mp.mpf(0),
            v,
            v,
            lambda q: v,
        )
    raise KeyError(kind)


def zeta(d: Law, theta):
    """``(zeta, E[Xr], E[Y])`` of the fixed threshold ``theta``."""
    t = mp.mpf(theta)
    f = d.cdf(t)
    if f <= 0:
        return INF, INF, INF
    m = d.moment(t)
    ex = m / f
    ey = (t * d.sf(t) + m) / f
    return ex + ey, ex, ey


def zeta_rtol(d: Law, theta) -> float:
    """Tolerance of a zeta, E[Xr] or E[Y] cell at ``theta``."""
    if d.kind != "hyper-exponential":
        return ZETA_RTOL
    f = d.cdf(mp.mpf(theta))
    return max(ZETA_RTOL, CANCEL_ULPS * sys.float_info.epsilon / float(f)) if f > 0 else ZETA_RTOL


def zeta_repetitive(d: Law, thresholds):
    """``(zeta, E[Xr], E[Y])`` of a threshold sequence that restarts after
    each reception and repeats its last entry, summed in closed form."""
    ts = [mp.mpf(t) for t in thresholds]
    surv = mp.mpf(1)  # P(the first j attempts were all preempted)
    spent = mp.mpf(0)  # time they burned
    ex = ey = mp.mpf(0)
    for t in ts[:-1]:
        m, f = d.moment(t), d.cdf(t)
        ex += surv * m
        ey += surv * (m + f * spent)
        surv *= d.sf(t)
        spent += t
    t = ts[-1]
    m, f, q = d.moment(t), d.cdf(t), d.sf(t)
    if q >= 1:
        return INF, INF, INF
    # geometric tail: attempt n + j for j = 0, 1, ... uses t
    ex += surv * m / (1 - q)
    ey += surv * ((m + f * spent) / (1 - q) + f * t * q / (1 - q) ** 2)
    return ex + ey, ex, ey


def zeta_range(d: Law, printed: float):
    """Least and greatest zeta over the thetas that print as ``printed``.

    Near the support minimum, or at an atom, zeta changes by more than the
    check tolerance within the 12 digits a CSV cell keeps."""
    vals = [zeta(d, mp.mpf(printed) * (1 + k * mp.mpf(PRINTED_RTOL)))[0] for k in (-1, 0, 1)]
    return min(vals), max(vals)


def zero_wait(d: Law):
    return 2 * d.mean


def zeta_xmin(d: Law):
    if d.cdf(mp.mpf(d.xmin)) <= 0:
        return INF
    return zeta(d, d.xmin)[0]


def default_window(d: Law):
    lo = mp.mpf(d.xmin) * (1 + mp.mpf("1e-6")) + mp.mpf("1e-9")
    return lo, d.quantile(1 - mp.mpf("1e-6"))


def grid(lo, hi, n):
    """The program's grid rule, in mpmath: log-spaced over two decades."""
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    if lo > 0 and hi / lo > 100:
        return [lo * (hi / lo) ** (mp.mpf(i) / (n - 1)) for i in range(n)]
    return [lo + (hi - lo) * mp.mpf(i) / (n - 1) for i in range(n)]


def coarse_min(d: Law, lo, hi, n=200):
    """Smallest zeta on an ``n``-point grid of ``[lo, hi]``, with its theta."""
    return min((zeta(d, t)[0], t) for t in grid(lo, hi, n))


def refined_min(d: Law, lo, hi, n=200, iters=120):
    """Coarse grid, then golden-section search in the best cell's neighbours."""
    pts = grid(lo, hi, n)
    vals = [zeta(d, t)[0] for t in pts]
    i = min(range(n), key=lambda j: vals[j])
    a, b = pts[max(i - 1, 0)], pts[min(i + 1, n - 1)]
    g = (mp.sqrt(5) - 1) / 2
    c, e = b - g * (b - a), a + g * (b - a)
    fc, fe = zeta(d, c)[0], zeta(d, e)[0]
    for _ in range(iters):
        if fc < fe:
            b, e, fe = e, c, fc
            c = b - g * (b - a)
            fc = zeta(d, c)[0]
        else:
            a, c, fc = c, e, fe
            e = a + g * (b - a)
            fe = zeta(d, e)[0]
    return min(vals[i], fc, fe)


def mean_residual_excess(d: Law, theta):
    """``E[X - theta | X > theta] - E[X]``, None where P(X > theta) = 0."""
    t = mp.mpf(theta)
    q = d.sf(t)
    if q <= 0:
        return None
    return (d.mean - d.moment(t)) / q - t - d.mean


def close(program: float, exact, rtol: float) -> bool:
    """``program`` (a parsed CSV or stdout cell) agrees with ``exact``."""
    if exact == INF or math.isinf(program):
        return exact == INF and program == math.inf
    exact = float(exact)
    return abs(program - exact) <= rtol * max(abs(exact), 1e-300)
