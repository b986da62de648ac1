import hashlib
import math
import pickle
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paoi_lab import (
    ConfigError,
    Deterministic,
    Erlang,
    Exponential,
    HyperExponential,
    LogNormal,
    MedianThreshold,
    Pareto,
    ShiftedExponential,
    TwoPoint,
)
from paoi_lab.analytic import paoi_fixed_threshold
from paoi_lab import distributions
from paoi_lab.distributions import ServiceDistribution, _pick, _pick_table
from paoi_lab.policies import resolve

from conftest import (
    CATALOG,
    CONTINUOUS,
    catalog_ids,
    hyper_exponentials,
    ks_statistic,
    oracle_law,
    quad_integrated_cdf,
    quad_truncated_moment,
    scipy_frozen,
    theta_probe_grid,
)


class TestCdf:
    def test_two_point_atom_included_at_t1(self):
        assert CATALOG["two-point"].cdf(1.0) == 0.5

    def test_zero_below_positive_support(self):
        for name in ("pareto", "two-point", "deterministic", "shifted-exponential"):
            assert CATALOG[name].cdf(0.0) == 0.0

    def test_exponential_closed_form(self):
        assert CATALOG["exponential"].cdf(1.0) == pytest.approx(1 - math.exp(-1), abs=1e-15)

    @pytest.mark.parametrize("name", CONTINUOUS)
    def test_matches_scipy(self, name):
        d = CATALOG[name]
        if name == "hyper-exponential":
            return  # no scipy counterpart; covered by the quadrature oracles
        frozen = scipy_frozen(name)
        for theta in theta_probe_grid(d):
            assert d.cdf(float(theta)) == pytest.approx(frozen.cdf(theta), abs=1e-12)
            assert d.sf(float(theta)) == pytest.approx(frozen.sf(theta), rel=1e-10)

    def test_cdf_sf_complement(self, member):
        for theta in theta_probe_grid(member):
            assert member.cdf(float(theta)) + member.sf(float(theta)) == pytest.approx(
                1.0, abs=1e-12
            )


class TestSupportMin:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("two-point", 1.0),
            ("deterministic", 1.5),
            ("pareto", 1.0),
            ("exponential", 0.0),
            ("shifted-exponential", 0.5),
        ],
    )
    def test_values(self, name, expected):
        assert CATALOG[name].support_min() == expected


POSITIVE = st.floats(min_value=1e-300, max_value=1e300)
UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


def atom_sum(d):
    values, weights = np.array(d.atoms()).T
    return float(np.cumsum(weights * values)[-1])


# Each law's E[X] as the law wrote it before the base class read it as
# M(inf), with a strategy that draws the law.
WRITTEN_MEANS = {
    "exponential": (st.builds(Exponential, POSITIVE), lambda d: 1.0 / d.rate),
    "erlang": (st.builds(Erlang, st.integers(1, 200), POSITIVE), lambda d: d.shape / d.rate),
    "pareto": (
        st.builds(Pareto, POSITIVE, st.one_of(
            st.sampled_from([1.0, 1 - 1e-9, 1 + 1e-12]), st.floats(1e-3, 1e3))),
        lambda d: math.inf if d.alpha <= 1.0 else d.alpha * d.xm / (d.alpha - 1.0),
    ),
    "shifted-exponential": (
        st.builds(ShiftedExponential, st.just(0.0) | POSITIVE, POSITIVE),
        lambda d: d.shift + 1.0 / d.rate,
    ),
    "log-normal": (
        # mu + sigma^2/2 stays below 709.78, where exp overflows
        st.builds(LogNormal, st.floats(-700.0, 650.0), st.floats(1e-3, 10.0)),
        lambda d: math.exp(d.mu + 0.5 * d.sigma**2),
    ),
    "two-point": (
        st.builds(lambda ts, p: TwoPoint(*sorted(ts), p),
                  st.lists(POSITIVE, min_size=2, max_size=2, unique=True), UNIT),
        atom_sum,
    ),
    "deterministic": (st.builds(Deterministic, POSITIVE), atom_sum),
}


class TestMean:
    @pytest.mark.parametrize("name", sorted(WRITTEN_MEANS))
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mean_is_the_written_closed_form(self, name, data):
        d = data.draw(WRITTEN_MEANS[name][0])
        assert d.mean().hex() == WRITTEN_MEANS[name][1](d).hex(), d

    def test_only_hyper_exponential_writes_its_mean(self):
        # sum(w / r) rounds otherwise than M(inf) = sum(w * (1 / r))
        assert [name for name, d in CATALOG.items() if "mean" in vars(type(d))] == [
            "hyper-exponential"]
        assert set(WRITTEN_MEANS) == set(CATALOG) - {"hyper-exponential"}

    def test_primitives_never_read_the_mean(self, member, monkeypatch):
        monkeypatch.setattr(type(member), "mean", lambda self: pytest.fail("read the mean"))
        member.grid_primitives(theta_probe_grid(member))
        member.primitives(member.quantile(0.5))

    def test_two_point(self):
        assert CATALOG["two-point"].mean() == 2.0

    def test_heavy_pareto_is_infinite(self):
        assert math.isinf(Pareto(1.0, 0.5).mean())
        assert math.isinf(Pareto(1.0, 1.0).mean())

    def test_deterministic(self):
        assert Deterministic(2.5).mean() == 2.5

    def test_mean_equals_truncated_plus_tail(self, member):
        # E[X] = E[X 1{X<=t}] + E[X 1{X>t}] with the tail via survival:
        # E[X 1{X>t}] = t*sf(t) + int_t^inf sf.
        m = member.mean()
        if math.isinf(m):
            return
        from scipy import integrate

        for theta in theta_probe_grid(member, n=5, q_lo=0.2, q_hi=0.8):
            theta = float(theta)
            tail_int, _ = integrate.quad(member.sf, theta, np.inf, limit=400)
            total = member.truncated_first_moment(theta) + theta * member.sf(theta) + tail_int
            assert total == pytest.approx(m, rel=1e-8)


class TestTruncatedFirstMoment:
    def test_two_point_only_lower_atom(self):
        assert CATALOG["two-point"].truncated_first_moment(2.0) == 0.5

    def test_zero_below_support(self, member):
        lo = member.support_min()
        if lo > 0:
            assert member.truncated_first_moment(lo * 0.5) == 0.0
        assert member.truncated_first_moment(0.0) == 0.0

    def test_exponential_symbolic_value(self):
        # int_0^1 x e^-x dx = 1 - 2/e
        assert CATALOG["exponential"].truncated_first_moment(1.0) == pytest.approx(
            1 - 2 * math.exp(-1), abs=1e-15
        )

    @pytest.mark.parametrize("name", CONTINUOUS)
    def test_against_quadrature(self, name):
        d = CATALOG[name]
        for theta in theta_probe_grid(d, n=8):
            theta = float(theta)
            assert d.truncated_first_moment(theta) == pytest.approx(
                quad_truncated_moment(name, theta), abs=1e-9, rel=1e-9
            )

    @pytest.mark.parametrize("rate", [5e-324, 1e-308])
    def test_erlang_where_k_over_rate_overflows(self, rate):
        # M = (k / rate) P(k + 1, rate x) would read inf * 0 = nan where the
        # incomplete gamma underflows, and inf where M is finite elsewhere
        import mpmath

        d = Erlang(3, rate)
        thetas = np.array([0.6, 2.1, 1e300, np.finfo(float).max])
        m = d.grid_primitives(thetas)[2]
        assert [d.truncated_first_moment(t) for t in thetas.tolist()] == m.tolist()
        with mpmath.workdps(40):
            exact = [oracle_law(d).moment(mpmath.mpf(t)) for t in thetas.tolist()]
        assert m[:2].tolist() == [0.0, 0.0] == [float(x) for x in exact[:2]]
        assert m[2:].tolist() == pytest.approx([float(x) for x in exact[2:]], rel=1e-14)
        assert math.isinf(d.mean())


class TestIntegratedCdf:
    def test_two_point_plateau(self):
        assert CATALOG["two-point"].integrated_cdf(2.0) == 0.5

    def test_zero_at_support_min(self, member):
        assert member.integrated_cdf(member.support_min()) == pytest.approx(0.0, abs=1e-15)

    def test_exponential_closed_form(self):
        assert CATALOG["exponential"].integrated_cdf(1.0) == pytest.approx(
            math.exp(-1), abs=1e-15
        )

    @pytest.mark.parametrize("name", CONTINUOUS)
    def test_against_quadrature(self, name):
        d = CATALOG[name]
        for theta in theta_probe_grid(d, n=8):
            theta = float(theta)
            assert d.integrated_cdf(theta) == pytest.approx(
                quad_integrated_cdf(name, theta), abs=1e-9, rel=1e-9
            )

    @pytest.mark.parametrize("name", CONTINUOUS)
    def test_integration_by_parts(self, name):
        # int_0^t x f = t F(t) - int_0^t F for purely continuous kinds
        d = CATALOG[name]
        for theta in theta_probe_grid(d, n=10):
            theta = float(theta)
            lhs = d.truncated_first_moment(theta)
            rhs = theta * d.cdf(theta) - d.integrated_cdf(theta)
            assert lhs == pytest.approx(rhs, abs=1e-8, rel=1e-8)


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(catalog_ids()),
    a=st.floats(min_value=0.0, max_value=30.0),
    b=st.floats(min_value=0.0, max_value=30.0),
)
def test_truncated_integrals_nondecreasing(name, a, b):
    d = CATALOG[name]
    lo, hi = min(a, b), max(a, b)
    assert d.truncated_first_moment(hi) >= d.truncated_first_moment(lo) - 1e-12
    assert d.integrated_cdf(hi) >= d.integrated_cdf(lo) - 1e-12
    assert d.cdf(hi) >= d.cdf(lo)


class TestConditionalResidual:
    def test_exponential_memoryless(self):
        for rate in (0.5, 1.0, 2.0):
            d = Exponential(rate)
            for theta in (0.0, 0.3, 1.0, 5.0):
                assert d.conditional_residual(theta) == pytest.approx(1.0 / rate)

    def test_deterministic_countdown(self):
        assert Deterministic(2.0).conditional_residual(0.5) == 1.5

    def test_two_point_upper_atom(self):
        assert CATALOG["two-point"].conditional_residual(1.0) == 2.0

    def test_null_event_reads_nan(self):
        assert math.isnan(CATALOG["two-point"].conditional_residual(3.0))
        assert math.isnan(Deterministic(1.0).conditional_residual(1.0))

    def test_nan_threshold_reads_nan(self, member):
        # every law reads (F, sf, M) = (0, 1, 0) at nan, so no event is conditioned on
        assert math.isnan(member.grid_residuals([math.nan])[0])
        assert math.isnan(member.conditional_residual(math.nan))

    def test_below_support_is_mean_minus_theta(self, member):
        # X > theta surely below the support, so E[X - theta | X > theta] = E[X] - theta
        xmin = member.support_min()
        thetas = [-1.0, math.nextafter(xmin, 0.0), *([0.5 * xmin] if xmin > 0 else [])]
        want = [(member.mean() - t).hex() for t in thetas]
        assert [member.conditional_residual(t).hex() for t in thetas] == want
        assert [r.hex() for r in member.grid_residuals(thetas).tolist()] == want

    def test_infinite_mean_propagates(self):
        assert math.isinf(Pareto(1.0, 0.5).conditional_residual(2.0))

    @pytest.mark.parametrize("name", ["erlang", "log-normal", "hyper-exponential"])
    def test_against_quadrature(self, name):
        from scipy import integrate

        d = CATALOG[name]
        from conftest import pdf_of

        pdf = pdf_of(name)
        for theta in theta_probe_grid(d, n=5, q_lo=0.2, q_hi=0.9):
            theta = float(theta)
            num, _ = integrate.quad(lambda x: (x - theta) * pdf(x), theta, np.inf, limit=400)
            assert d.conditional_residual(theta) == pytest.approx(
                num / d.sf(theta), rel=1e-7
            )


# The catalog plus the shapes whose arithmetic differs: Pareto on both sides
# of alpha = 1 (where M changes form) and 2, a wide log-normal and three phases.
ARRAY_LAWS = {
    **CATALOG,
    "pareto-a0.5": Pareto(1.0, 0.5),
    "pareto-a1": Pareto(1.0, 1.0),
    "pareto-a1.5": Pareto(1.0, 1.5),
    "pareto-a3": Pareto(1.0, 3.0),
    "log-normal-s2.5": LogNormal(0.0, 2.5),
    "hyper-exponential-3": HyperExponential((20.0, 2.0, 0.1), (0.5, 0.3, 0.2)),
}


# SHA-256 of the int64 views of the F, sf, M and residual columns on
# ``TestArrayForms.dense_grid``, concatenated in that order.
PINNED_GRID_BITS = {
    "deterministic": "213430740983485354123751bb8e352da52e648544330aaaff5289d2009764a2",
    "erlang": "959d6498b92c8feb0a935165d8f86679af1ccefa137a3d62dc5c14c0e96799e8",
    "exponential": "0023def897da2056f7c9808d8c844b4dfb2a0f08fe54140d60cff22e2fcfe720",
    "hyper-exponential": "d6964c568496eaa2e0b4ad31bd7c5d241ca1e7e462c7e73f323bc4549b2d8893",
    "hyper-exponential-3": "69bd531ce6abae3b0665bd70decdbbea754350a56a1c1cd5ad63ff18f036c16c",
    "log-normal": "2fd3d376724e6509473e8503b24153477973c909ae13e641bf92c6b255f7cdc4",
    "log-normal-s2.5": "2072e96ebb362c4910eb247f55d2e3404e059f0d504b7367fbcd58b631849a30",
    "pareto": "9311a4db3a75f70ee6f806988124e7a44a48f37a1d17c10588e0debbd6f99d9d",
    "pareto-a0.5": "41da821e6b0774d6a46dae9f8766a6912d2b5c0d67425e062e91a3f36ef96929",
    "pareto-a1": "070c548697fa559d26ec002328241cbf40831088dac90641a3b144a0a2dadf73",
    "pareto-a1.5": "c9fd7f102fc291d4d3b6c6a2853fc64d53291b5936ff3a1659981b71d26c9bfd",
    "pareto-a3": "5160290b3843d778cd27f4159920bbcaf813a1a440c8ea3a39b2ac54fd70b54b",
    "shifted-exponential": "361e03c319322c92c1b72f85bc5fd447848e54ef36214b3cf7f244e9820c3f52",
    "two-point": "feab1134b3d1043a9387dddcfb25c61626ab3e4d6c9973ba3e019baa4fc806cc",
}


def scalar_columns(d, thetas):
    """F, sf, M and the residual, point by point."""
    rows = [(*d.primitives(t), d.conditional_residual(t)) for t in thetas]
    return list(np.array(rows, dtype=float).reshape(len(thetas), 4).T)


def assert_same_bits(name, thetas, got, want):
    """Equal as 64-bit patterns, so -0.0 against 0.0 or a last-bit slip fails."""
    for column, a, b in zip(("F", "sf", "M", "residual"), got, want):
        a = np.asarray(a, dtype=float)
        differ = np.flatnonzero(a.view(np.int64) != b.view(np.int64))
        assert differ.size == 0, (name, column, [(thetas[i], a[i], b[i]) for i in differ[:5]])


def array_columns(d, thetas):
    return [*d.grid_primitives(thetas), d.grid_residuals(thetas)]


class TestArrayForms:
    """``grid_primitives`` and ``grid_residuals`` against ``primitives`` and
    ``conditional_residual`` at each point alone, bit for bit.

    Each law writes its formula once, for a float and an array, so these
    tests check the dispatch; the pinned digests check the arithmetic.
    Swapping in ``np.power`` for Pareto's ``(xm / x) ** alpha``, ``np.log``
    for the log-normal's ``math.log`` or ``np.expm1`` for the exponential
    laws' ``math.expm1`` moves last bits and fails the pin.
    """

    @staticmethod
    def dense_grid(d):
        xmin = d.support_min()
        atoms = [value for value, _ in d.atoms()]
        edges = [0.0, -0.0, -1.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-300,
                 0.5 * xmin, math.nextafter(xmin, 0.0), xmin, math.nextafter(xmin, math.inf),
                 *atoms, *(math.nextafter(a, s) for a in atoms for s in (0.0, math.inf)),
                 1e300, math.inf]
        return np.concatenate([edges, np.geomspace(1e-12, 1e6, 10_000),
                               np.linspace(0.0, 20.0, 10_001)]).tolist()

    @pytest.mark.parametrize("name", sorted(ARRAY_LAWS))
    def test_dense_grid_matches_scalar_bits(self, name):
        d = ARRAY_LAWS[name]
        thetas = [*self.dense_grid(d), math.nan]
        assert len(thetas) > 20_000
        assert_same_bits(name, thetas, array_columns(d, thetas), scalar_columns(d, thetas))

    @pytest.mark.parametrize("name", sorted(ARRAY_LAWS))
    def test_dense_grid_bits_are_pinned(self, name):
        # A single threshold and a grid run the same formula, so the test
        # above checks only the dispatch; this pins the bits the formula
        # reads, so a change to a law's arithmetic shows.
        d = ARRAY_LAWS[name]
        columns = array_columns(d, self.dense_grid(d))
        data = b"".join(np.asarray(c, dtype="<f8").view("<i8").tobytes() for c in columns)
        assert hashlib.sha256(data).hexdigest() == PINNED_GRID_BITS[name]

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(sorted(ARRAY_LAWS)),
        thetas=st.lists(st.floats(min_value=-1.0) | st.just(math.nan), max_size=40),
    )
    def test_any_grid_matches_scalar_bits(self, name, thetas):
        d = ARRAY_LAWS[name]
        assert_same_bits(name, thetas, array_columns(d, thetas), scalar_columns(d, thetas))

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_one_formula_per_law(self, name):
        # the base class derives these from the law's one ``_primitives``;
        # a law that defines its own would be a second formula to keep in step
        own = vars(type(CATALOG[name]))
        assert not {"cdf", "sf", "truncated_first_moment", "conditional_residual"} & own.keys()

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_support_edge_is_support_min(self, name):
        # the base class reads where the support starts from ``support_min``
        # and whether an atom sits there from ``atoms``; no law restates it
        d = CATALOG[name]
        assert "_reaches_support" not in vars(type(d))
        f, sf, m = d.primitives(d.support_min())
        if name in CONTINUOUS:
            assert d.atoms() == () and (f, sf, m) == (0.0, 1.0, 0.0)
        else:
            assert d.atoms()[0][0] == d.support_min() and f > 0


@dataclass(frozen=True)
class AtomsOnly(ServiceDistribution):
    """A law that gives only its atoms; the base class derives the rest."""

    pairs: tuple

    def atoms(self):
        return self.pairs


class ScriptedRng:
    """Hands out a fixed list of uniforms, as ``rng.random(n)`` would."""

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)

    def random(self, n):
        out, self.uniforms = self.uniforms[:n], self.uniforms[n:]
        return np.array(out)


class TestAtomTable:
    LAW = AtomsOnly(((0.5, 0.25), (2.0, 0.625), (3.25, 0.125)))  # exact in binary

    def exact(self, theta):
        """``(F, sf, M)`` at ``theta`` as exact sums over the atoms."""
        atoms = [(Fraction(v), Fraction(w)) for v, w in self.LAW.atoms()]
        f = sum(w for v, w in atoms if v <= theta)
        sf = sum(w for v, w in atoms if v > theta)
        return f, sf, sum(w * v for v, w in atoms if v <= theta)

    # below, at, between and past the atoms
    @pytest.mark.parametrize("theta", [0.25, 0.5, 1.0, 2.0, 3.0, 3.25, 10.0, math.inf])
    def test_primitives_are_exact_sums(self, theta):
        d = self.LAW
        f, sf, m = self.exact(theta)
        assert d.primitives(theta) == (f, sf, m)
        assert [c.tolist() for c in d.grid_primitives([theta])] == [[f], [sf], [m]]
        zeta = paoi_fixed_threshold(d, theta).zeta
        if f == 0:
            assert zeta == math.inf
        elif theta == math.inf:
            assert zeta == 2 * m
        else:
            assert zeta == pytest.approx(float((2 * m + Fraction(theta) * sf) / f), rel=1e-15)

    def test_derived_members(self):
        d = self.LAW
        mean = self.exact(math.inf)[2]
        assert (d.support_min(), d.mean()) == (0.5, mean)
        assert d.conditional_residual(1.0) == pytest.approx(
            float((mean - self.exact(1.0)[2]) / self.exact(1.0)[1] - 1), rel=1e-15)
        qs = [0.25, math.nextafter(0.25, 1.0), 0.875, math.nextafter(0.875, 1.0), 1.0]
        assert [d.quantile(q) for q in qs] == [0.5, 2.0, 2.0, 3.25, 3.25]
        assert d.sample_batch(ScriptedRng([0.0, *qs[:4]]), 5).tolist() == [0.5, 0.5, 2.0, 2.0, 3.25]

    def test_table_keeps_its_rounding_order(self):
        # F runs left to right and ends at exactly 1; sf adds the weights
        # after each atom from the right, not 1 - F; M runs left to right
        d = AtomsOnly(((1.0, 0.7), (2.0, 0.2), (3.0, 0.1)))
        got = [d.primitives(v) for v in (1.0, 2.0, 3.0)]
        assert got == [(0.7, 0.1 + 0.2, 0.7), (0.7 + 0.2, 0.1, 0.7 + 0.2 * 2.0),
                       (1.0, 0.0, 0.7 + 0.2 * 2.0 + 0.1 * 3.0)]
        # the sums this pins apart from the other orders
        assert 0.7 + 0.2 + 0.1 != 1.0 and 1.0 - (0.7 + 0.2) != 0.1
        assert d.mean() == got[2][2]

    def test_table_survives_pickling(self):
        # the simulator's pool pickles laws, cached table and all
        d = TwoPoint(1.0, 3.0, 0.5)
        d.primitives(2.0)
        copy = pickle.loads(pickle.dumps(d))
        assert copy == d and copy.primitives(2.0) == d.primitives(2.0)

    def test_two_point_inverts_f_at_p(self):
        # u == p still draws t1, as quantile(p) reads t1; the next float draws t2
        d = TwoPoint(1.0, 3.0, 0.3)
        uniforms = [d.p, math.nextafter(d.p, 1.0), 0.0]
        assert d.sample_batch(ScriptedRng(uniforms), 3).tolist() == [1.0, 3.0, 1.0]
        assert [d.quantile(q) for q in uniforms[:2]] == [1.0, 3.0]

    def test_law_without_atoms_or_primitives_says_so(self):
        class Bare(ServiceDistribution):
            pass

        with pytest.raises(NotImplementedError, match="Bare gives neither atoms"):
            Bare().cdf(1.0)



@pytest.mark.parametrize("d", [*CATALOG.values(), TestAtomTable.LAW],
                         ids=[*CATALOG, "atoms-only"])
def test_atom_at_support_min_is_read_from_atoms(d):
    # the law states it through atoms(); F read at support_min agrees
    assert bool(d.atoms()) == (d.cdf(d.support_min()) > 0.0)

class TestQuantile:
    def test_exponential_median(self):
        assert CATALOG["exponential"].quantile(0.5) == pytest.approx(math.log(2), abs=1e-15)

    def test_two_point_generalized_inverse(self):
        d = CATALOG["two-point"]
        assert d.quantile(0.5) == 1.0
        assert d.quantile(0.500001) == 3.0

    def test_deterministic(self):
        assert Deterministic(4.0).quantile(0.123) == 4.0

    def test_inverse_property(self, member):
        for q in (0.01, 0.25, 0.5, 0.9, 0.999):
            x = member.quantile(q)
            assert member.cdf(x) >= q - 1e-9

    @pytest.mark.parametrize("name", [n for n in CONTINUOUS if n != "hyper-exponential"])
    def test_matches_scipy_ppf(self, name):
        frozen = scipy_frozen(name)
        d = CATALOG[name]
        for q in (0.05, 0.3, 0.5, 0.8, 0.99):
            assert d.quantile(q) == pytest.approx(frozen.ppf(q), rel=1e-9)

    def test_hyper_exponential_root(self):
        d = CATALOG["hyper-exponential"]
        for q in (0.1, 0.5, 0.9, 0.999):
            assert d.cdf(d.quantile(q)) == pytest.approx(q, abs=1e-10)

    def test_reads_inf_past_the_largest_float(self):
        # the first two overflow math.exp, the rest a quotient or the bisection
        for d, q in [
            (Pareto(1.0, 1e-4), 0.5),
            (LogNormal(706.0, 1.0), 1 - 1e-6),
            (Exponential(5e-324), 0.5),
            (ShiftedExponential(0.0, 5e-324), 0.5),
            (HyperExponential((5e-324,), (1.0,)), 0.5),
            (Erlang(3, 1e-308), 1 - 1e-6),
        ]:
            assert d.quantile(q) == math.inf, d
        with pytest.raises(ConfigError, match="^policy median-threshold: its threshold under "
                                              r"Pareto\(xm=1.0, alpha=0.0001\) overflows"):
            resolve(MedianThreshold(), Pareto(1.0, 1e-4))


@settings(max_examples=300, deadline=None)
@given(
    d=hyper_exponentials()
    | st.sampled_from([(10.0, 1.0), (1.0,), (2.5,), (1.0, 1.0 + 1e-12), (3.0, 0.5, 0.01)]).map(
        lambda rates: HyperExponential(rates, tuple(1.0 / len(rates) for _ in rates))),
    q=st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
    | st.sampled_from([0.0, 5e-324, 1e-300, 1e-9, 0.5, math.nextafter(0.5, 1.0), 1 - 1e-9,
                       1 - 1e-12]),
)
def test_hyper_exponential_quantile_is_exact_inverse(d, q):
    # inf{x : F(x) >= q} of the law's own F to the last float, read through
    # sf above the median where 1 - q is exact and F has run out of digits
    def gap(x):
        return q - d.cdf(x) if q <= 0.5 else d.sf(x) - (1.0 - q)

    x = d.quantile(q)
    assert gap(x) <= 0.0
    assert x == 0.0 or gap(math.nextafter(x, 0.0)) > 0.0
    assert d.quantile(1.0) == math.inf


def bisection_quantile(d, q):
    """``HyperExponential.quantile`` by bisection alone, from the bracket
    [0, the slowest phase's quantile] down to adjacent floats."""

    def below(x):
        return d.cdf(x) < q if q <= 0.5 else d.sf(x) > 1.0 - q

    lo, hi = 0.0, -math.log1p(-q) / min(d.rates)
    while hi > lo and below(hi):
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if below(mid):
            lo = mid
        else:
            hi = mid


HYPER_LAWS = [
    CATALOG["hyper-exponential"],
    HyperExponential((2.5,), (1.0,)),
    HyperExponential((1.0, 1.0 + 1e-12), (0.5, 0.5)),
    HyperExponential((3.0, 0.5, 0.01), (1 / 3, 1 / 3, 1 / 3)),
    HyperExponential((1e6, 1.0), (0.5, 0.5)),
]


@pytest.mark.parametrize("d", HYPER_LAWS, ids=lambda d: str(d.rates))
def test_hyper_exponential_quantile_matches_bisection(d):
    # the bisection over bit patterns finds the very float a bisection over
    # reals finds, down both tails and at the optimizer's default window end
    tails = np.geomspace(1e-12, 0.5, 300)
    qs = [*tails.tolist(), *(1.0 - tails).tolist(), *np.linspace(0.001, 0.999, 200).tolist()]
    qs.append(1.0 - 1e-6)
    assert [d.quantile(q) for q in qs] == [bisection_quantile(d, q) for q in qs]


def test_hyper_exponential_quantile_reads_at_most_64_primitives():
    # one bisection over the 2**63 - 2**52 + 1 patterns from 0.0 to inf
    calls = []

    class Counted(HyperExponential):
        def cdf(self, x):
            calls.append(x)
            return super().cdf(x)

        def sf(self, x):
            calls.append(x)
            return super().sf(x)

    base = CATALOG["hyper-exponential"]
    d = Counted(base.rates, base.weights)
    for q in (0.0, 1e-9, 0.1, 0.5, 0.9, 1.0 - 1e-6):
        calls.clear()
        d.quantile(q)
        assert len(calls) <= 64, q


class TestSampling:
    def test_deterministic_constant(self):
        rng = np.random.default_rng(0)
        d = Deterministic(2.0)
        assert all(float(d.sample_batch(rng, 1)[0]) == 2.0 for _ in range(10))

    def test_seed_reproducibility(self, member):
        a = member.sample_batch(np.random.default_rng(42), 100)
        b = member.sample_batch(np.random.default_rng(42), 100)
        assert np.array_equal(a, b)

    def test_exponential_mean_large_sample(self):
        d = CATALOG["exponential"]
        draws = d.sample_batch(np.random.default_rng(2024), 1_000_000)
        assert abs(draws.mean() - 1.0) < 0.005

    def test_two_point_frequency(self):
        d = CATALOG["two-point"]
        n = 100_000
        draws = d.sample_batch(np.random.default_rng(7), n)
        freq = np.mean(draws == 1.0)
        sigma = math.sqrt(0.5 * 0.5 / n)
        assert abs(freq - 0.5) < 3 * sigma

    def test_kolmogorov_smirnov(self, member):
        draws = member.sample_batch(np.random.default_rng(123), 100_000)
        assert ks_statistic(draws, lambda xs: member.grid_primitives(xs)[0]) < 0.01

    def test_weighted_pick_never_picks_a_zero_weight(self):
        # u = 0.0 is a draw of rng.random(); a zero first weight must not take it
        assert _pick(_pick_table([0.0, 1.0]), [0.0]).tolist() == [1]
        u = [0.0, 0.25, 0.5, 0.75, 1.0 - 2**-53]
        assert _pick(_pick_table([0.5, 0.0, 0.5, 0.0]), u).tolist() == [0, 0, 2, 2, 2]
        # the running sum rounds to 1 - 2**-53, so u = 1 - 2**-53 passes it
        assert _pick(_pick_table([0.1] * 10 + [0.0]), [1 - 2**-53]).tolist() == [9]

    @settings(max_examples=300, deadline=None)
    @given(weights=st.lists(st.just(0.0) | st.floats(0.0, 1.0), min_size=1, max_size=20)
           .filter(any), u=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=30))
    def test_weighted_pick_is_the_capped_binary_search(self, weights, u):
        # tables of 1 to 20 weights lie on both sides of the comparison cut;
        # u also sits exactly at each running sum and at its neighbours
        assert distributions._PICK_BY_COMPARISON < 20
        edges = np.cumsum(weights)
        u = np.concatenate([u, edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0)])
        want = np.minimum(np.searchsorted(edges, u, side="right"), np.flatnonzero(weights)[-1])
        assert _pick(_pick_table(weights), u).tolist() == want.tolist()


class TestValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            Exponential(0.0)
        with pytest.raises(ValueError):
            Erlang(0, 1.0)
        with pytest.raises(ValueError):
            TwoPoint(3.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            TwoPoint(1.0, 3.0, 1.5)
        with pytest.raises(ValueError):
            HyperExponential((1.0, 2.0), (0.7, 0.7))
        with pytest.raises(ValueError):
            Pareto(-1.0, 2.0)
        # non-finite parameters; an infinite Erlang shape must fail before int(),
        # which raises OverflowError
        for make in (
            lambda: Erlang(math.inf, 1.0),
            lambda: HyperExponential((10.0, 1.0), (math.nan, 0.5)),
            lambda: Pareto(1.0, math.inf),
        ):
            with pytest.raises(ValueError, match="finite|integer"):
                make()
