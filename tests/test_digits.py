"""The digit-table kernel of :mod:`paoi_lab.digits` against Python's own
``'%.12g'`` and ``'%d'``, cell by cell, and the cut between it and the
template fill in :func:`paoi_lab.cli._write_table`."""

import io
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paoi_lab import cli, digits
from paoi_lab.cli import _write_table

from conftest import fill_text, kernel_text, run_fresh


def float_text(values):
    return "x\n" + "".join("%.12g\n" % v for v in values.tolist())


def int_text(values):
    return "x\n" + "".join("%d\n" % v for v in values.tolist())


def one_field(values):
    return np.rec.fromarrays([values], names="x")


class TestCellKernel:
    """Every float cell reads as ``'%.12g' % v`` and every integer cell as
    ``'%d' % v``, whether the tables spell it or the fallback does."""

    def test_random_bit_patterns(self):
        # subnormals, both zeros, infinities and nans among them; then
        # subnormals and magnitudes spread over every exponent
        bits = np.random.default_rng(12).integers(0, 2**64, 1_000_000, dtype=np.uint64)
        values = np.concatenate([bits.view(np.float64), [0.0, -0.0, math.inf, -math.inf,
                                                          math.nan, 5e-324, -5e-324]])
        assert kernel_text(one_field(values)) == float_text(values)
        rng = np.random.default_rng(17)
        subnormal = rng.integers(1, 2**52, 100_000, dtype=np.uint64).view(np.float64)
        anywhere = 10.0 ** rng.uniform(-323.3, 308.25, 200_000)
        for values in (subnormal, -subnormal, anywhere, -anywhere):
            assert kernel_text(one_field(values)) == float_text(values)

    def test_next_to_every_power_of_ten(self):
        # log10 may miss the exponent by one here, and 12 digits round up
        # to the power itself just below it; every decimal exponent a
        # double has, subnormals included
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        below = np.nextafter(powers, 0)
        values = np.concatenate([np.nextafter(below, 0), below, powers,
                                 np.nextafter(powers, math.inf)])
        values = np.concatenate([values, -values])
        assert kernel_text(one_field(values)) == float_text(values)

    def test_thirteen_digit_halves(self):
        # each rounds to 12 digits by the last bits of its double; then at
        # every exponent, where the exponent form's power of ten is rounded
        # too, a second rounding
        rng = np.random.default_rng(13)
        mantissas = rng.integers(10**11, 10**12, 200_000) * 10 + 5
        pairs = list(zip(mantissas.tolist(), rng.integers(-17, 1, 200_000).tolist()))
        mantissas = rng.integers(10**11, 10**12, 200_000) * 10 + 5
        pairs += zip(mantissas.tolist(), rng.integers(-335, 296, 200_000).tolist())
        values = np.array([float(f"{m}e{k}") for m, k in pairs])
        assert kernel_text(one_field(values)) == float_text(values)

    def test_dyadic_rationals_and_short_decimals(self):
        rng = np.random.default_rng(14)
        dyadic = rng.integers(-2**40, 2**40, 200_000) / 2.0 ** rng.integers(0, 50, 200_000)
        short = np.array([float(f"{m}e{k}") for m, k in
                          zip(rng.integers(0, 10**6, 200_000).tolist(),
                              rng.integers(-12, 12, 200_000).tolist())])
        for values in (dyadic, short, -short):
            assert kernel_text(one_field(values)) == float_text(values)

    def test_integers(self):
        values = np.array([0, 1, 9, 10, 9999, 10**4, 10**4 + 1, 10**8, 10**8 - 1, 10**11,
                           10**12 - 1, 10**12, 10**12 + 1, -1, -9999, -(10**12),
                           2**63 - 1, -(2**63)])
        rng = np.random.default_rng(15)
        values = np.concatenate([values, rng.integers(0, 10**12, 100_000)
                                 // 10 ** rng.integers(0, 12, 100_000)])
        assert kernel_text(one_field(values)) == int_text(values)

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(-2**63, 2**63 - 1),
                                   st.floats() | st.floats(-1e13, 1e13)), max_size=40))
    def test_any_row(self, rows):
        k = np.array([row[0] for row in rows], dtype=np.int64)
        x = np.array([row[1] for row in rows], dtype=float)
        want = "k,x\n" + "".join("%d,%.12g\n" % row for row in rows)
        assert kernel_text(np.rec.fromarrays([k, x], names="k,x")) == want

    # text that holds spaces, commas and quotes, and text that does not fit a
    # slot's 31 bytes or holds the NUL the kernel deletes
    LABELS = ["zero-wait", "fixed(2)", 'say "hi"', "a,b", "two words", " padded ", "x" * 31]
    UNFIT = ["y" * 32, "HyperExponential((10.0, 1.0), (0.9, 0.1))", "nul\0"]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_any_table(self, data):
        # up to 12 rows of a text, an integer and a float column, repeated to
        # either side of the cut: the bytes of the template fill, by
        # whichever fill the table takes
        text = st.sampled_from(self.LABELS) | st.text(
            st.characters(exclude_categories=["Cs"], exclude_characters="\0"), max_size=8)
        row = st.tuples(text, st.integers(-2**63, 2**63 - 1), st.floats() | st.floats(-1e13, 1e13))
        rows = data.draw(st.lists(row, min_size=1, max_size=12))
        n = data.draw(st.integers(0, 2 * cli._KERNEL_MIN_CELLS // 3))
        columns = [list(column) for column in zip(*(rows * n)[:n])] or [[], [], []]
        unfit = n > 0 and data.draw(st.booleans())
        if unfit:  # one cell
            columns[0][data.draw(st.integers(0, n - 1))] = data.draw(st.sampled_from(self.UNFIT))
        header, fh = ["policy", "k", "x"], io.StringIO()
        with mock.patch.object(digits, "spell_rows", wraps=digits.spell_rows) as kernel:
            _write_table(fh, header, columns)
        assert fh.getvalue() == fill_text(cli._template_rows, header, columns)
        assert kernel.called == (3 * n >= cli._KERNEL_MIN_CELLS and not unfit)

    @pytest.mark.parametrize("unfit", UNFIT)
    def test_text_that_does_not_fit_a_slot_takes_the_template(self, unfit):
        columns = [["two words"] * 199 + [unfit], list(range(200)), [0.5] * 200]
        fh = io.StringIO()
        with mock.patch.object(digits, "spell_rows", wraps=digits.spell_rows) as kernel:
            _write_table(fh, ["policy", "k", "x"], columns)
        assert not kernel.called
        assert fh.getvalue() == fill_text(cli._template_rows, ["policy", "k", "x"], columns)

    def test_falls_back_only_near_a_half(self):
        # in either form, every other finite cell is spelled by the tables:
        # the fallback takes only digits past the 12th within 1e-3 of a half
        rng = np.random.default_rng(18)
        values = np.concatenate([10.0 ** rng.uniform(-323.3, 308.25, 100_000),
                                 rng.integers(1, 2**52, 10_000, dtype=np.uint64).view(np.float64)])
        words = np.empty((len(values), 1, 4), dtype="<u8")
        left = digits.spell(values[:, None], words, np.array([True]))[:, 0]
        assert left.sum() < 200
        for v in values[left].tolist():
            scaled = Fraction(v) * Fraction(10) ** (11 - int(("%.11e" % v).split("e")[1]))
            assert abs(scaled - math.floor(scaled) - Fraction(1, 2)) < Fraction(1, 1000)

    def test_import_builds_no_table(self):
        # the kernel's module, tables and all, waits for the first large table
        out = run_fresh("import sys, paoi_lab.cli\n"
                        "print('paoi_lab.digits' in sys.modules)")
        assert out == "False"
