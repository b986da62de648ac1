"""CSV cells spelled from digit tables: the bytes ``%.12g`` and ``%d`` write,
a chunk of numpy rows at a time.

:func:`paoi_lab.cli._write_table` hands a table here when it has enough
cells to pay for the fixed cost of some 40 numpy calls per chunk; the
module is imported only then.  Floats take the fixed form or the exponent
form of ``%.12g``, integers the fixed form, text cells their quoted UTF-8
bytes; a cell the tables cannot spell exactly falls back to ``%``.

One pass writes a table, or a table and its copy over a shared row range:
the copy, whose cells repeat the table's a fixed number of rows apart (a
trajectory repeats its peak dump's), takes the words of those cells from
each of the table's chunks instead of spelling them again.
"""

from __future__ import annotations

import functools
import itertools
from typing import TextIO

import numpy as np

CHUNK_CELLS = 1 << 13  # cells per chunk: 256 KB of words, kept in cache
EXPONENT_MIN_CELLS = 64  # fewer exponent-form cells in a chunk cost less by ``%``


def spell_rows(fh: TextIO, cells: list, rows: int, copy=None) -> None:
    """Write the ``rows`` rows of ``cells``, as :func:`paoi_lab.cli._table`
    gives them with each text cell :func:`paoi_lab.cli._slotted`, to the
    open file ``fh``, ``CHUNK_CELLS`` cells at a time, and the table
    ``copy`` in the same pass.

    The copy is ``(fh, cells, rows, links)``: ``links`` maps each column j
    of it to ``(c, s)`` when its row i holds this table's column c at row
    i + s, cell for cell and of the same kind.  A chunk spells this table's
    rows once, and the copy's rows whose cells all lie in this table take
    their words from that chunk; its other rows are spelled on their own."""
    lead = _Table(fh, cells)
    if copy is None:
        return lead.write_rows(0, rows)
    fh_copy, cells_copy, rows_copy, links = copy
    assert len(links) == len(cells_copy), "a copy's links cover each of its columns"
    table, shifts = _Table(fh_copy, cells_copy), [s for _, s in links.values()]
    low, high = min(shifts), max(shifts)
    first = min(max(-low, 0), rows_copy)  # [first, last): the gathered rows
    last = min(max(rows - high, first), rows_copy)
    table.write_rows(0, first)
    for a in range(0, rows, lead.step):
        b = min(a + lead.step, rows)
        words = lead.words(a, min(b + high - low, rows))  # and the rows the copy reads past it
        i, j = min(max(a - low, first), last), min(max(b - low, first), last)
        if i < j:  # after the fallback, before the separators
            gathered = np.empty((j - i, len(links), 4), dtype="<u8")
            for column, (c, s) in links.items():
                gathered[:, column] = words[i + s - a : j + s - a, c]
            table.write(gathered)
        lead.write(words[: b - a])
    table.write_rows(last, rows_copy)


class _Table:
    """One table of a :func:`spell_rows` pass: its file and cells, its text
    columns' slots and the separator after each column's cells.

    Each cell is four words, blank bytes zero, last byte the ``,`` or line
    end after it: a number spelled by :func:`spell`, or a text cell's slot,
    each distinct cell encoded once and gathered by one ``take``.  A chunk
    of rows is its words' bytes less the zeros.  Numbers the tables cannot
    spell take one ``%`` per column, padded to 31 bytes with spaces, which
    become zeros; spaces in text stay."""

    def __init__(self, fh: TextIO, cells: list):
        self.fh, self.cells = fh, cells
        width = len(cells)
        self.slots = {
            j: np.frombuffer(b"".join(cell.encode().ljust(32, b"\0") for cell in c[0]),
                             "<u8").reshape(-1, 4)
            for j, c in enumerate(cells) if isinstance(c, tuple)}
        self.exponent = np.array([j not in self.slots and c.dtype.kind == "f"
                                  for j, c in enumerate(cells)])
        self.ends = np.array([ord(",")] * (width - 1) + [ord("\n")], dtype=np.uint64) << 56
        self.step = CHUNK_CELLS // width

    def words(self, start: int, stop: int) -> np.ndarray:
        """The words of rows [start, stop), each array freed as it returns."""
        cells, rows = self.cells, slice(start, stop)
        values = np.empty((stop - start, len(cells)))
        for j, c in enumerate(cells):  # a text column's 0s are spelled, then overwritten
            values[:, j] = 0 if j in self.slots else c[rows]
        words = np.empty((*values.shape, 4), dtype="<u8")
        left = spell(values, words, self.exponent)
        del values
        for j, slot in self.slots.items():
            words[:, j] = slot.take(cells[j][1][rows], axis=0, mode="clip")
        for j in np.flatnonzero(left.any(axis=0)):
            fallback = np.flatnonzero(left[:, j])
            fmt = "%31.12g" if cells[j].dtype.kind == "f" else "%31d"
            text = fmt * len(fallback) % tuple(cells[j][start + fallback].tolist())
            words.view(np.uint8)[fallback, j, :31] = np.frombuffer(
                text.encode("ascii").replace(b" ", b"\0"), np.uint8).reshape(-1, 31)
        return words

    def write(self, words: np.ndarray) -> None:
        """Separate the cells of ``words`` and write them."""
        words[..., 3] |= self.ends
        self.fh.write(words.tobytes().translate(None, b"\0").decode())

    def write_rows(self, start: int, stop: int) -> None:
        """Spell and write rows [start, stop), a chunk at a time."""
        for i in range(start, stop, self.step):
            self.write(self.words(i, min(i + self.step, stop)))


@functools.cache
def _tables():
    """``groups[g]`` spells the digits of ``g`` < 10**4 at a word's even
    bytes, trailing zeros blank (zero bytes); ``groups[10**4 + g]`` keeps
    them.  ``marks[(16 * negative + 4 + e) * 2 + fraction]``, for exponent e
    in [-4, 11], holds the ``-`` and ``0.0…`` of word 0 and the ``0`` of
    each integer digit and ``.`` after them in words 1 to 3;
    ``marks[64 + 2 * negative + fraction]`` the ``-`` and ``.`` of word 0
    in exponent form.  ``powers[p + 297]`` is 10**p rounded, for p in
    [-297, 335], divided by 2**128 past 10**308; ``exponents[e + 324]``
    spells ``e±XX[X]`` for every exponent e of a double."""
    g = np.arange(10_000, dtype=np.uint16)
    groups = np.zeros((2, 10_000, 8), dtype=np.uint8)  # built mid-run: small temporaries
    for k, place in enumerate((1000, 100, 10, 1)):
        groups[:, :, 2 * k] = 48 + g // place % 10
        groups[0, g % (10 * place) == 0, 2 * k] = 0
    marks = ""
    for negative, e, fraction in itertools.product((0, 1), range(-4, 12), (0, 1)):
        head = "-" * negative + ("0." + "0" * (-e - 1) if e < 0 else "")
        body = ("0\0" * (e + 1))[:-1] + "\0."[fraction] if e >= 0 else ""
        marks += head.ljust(8, "\0") + body.ljust(24, "\0")
    for negative, fraction in itertools.product((0, 1), (0, 1)):
        marks += (("-" * negative).ljust(2, "\0") + "." * fraction).ljust(32, "\0")
    # int / int is correctly rounded
    powers = [10**p / 2 ** (128 * (p > 308)) if p >= 0 else 1 / 10**-p for p in range(-297, 336)]
    exponents = "".join(("e%+03d" % e).ljust(8, "\0") for e in range(-324, 309))
    return (groups.view("<u8").ravel(), np.frombuffer(marks.encode(), "<u8").reshape(-1, 4),
            np.array(powers), np.frombuffer(exponents.encode(), "<u8"))


def _digits(n: np.ndarray, words: np.ndarray, odd: bool) -> None:
    """OR the digits of each ``n``, an integer in [1e11, 1e12) or 0, into the
    three words on the last axis of ``words``, four to a word, at even bytes or
    (``odd``) odd ones; trailing zeros blank.  Float division splits N
    exactly, and faster than integer division."""
    groups = _tables()[0]

    def put(word, index):  # each group computed just before its lookup
        group = groups.take(index.astype(np.intp), mode="clip")
        if odd:
            group <<= 8
        words[..., word] |= group

    head = np.floor(n / 1e4)  # the first eight digits
    lo = np.subtract(n, head * 1e4)
    put(2, lo)
    more = lo != 0
    del lo
    hi = np.floor(head / 1e4)
    head -= hi * 1e4
    head += 1e4 * more
    put(1, head)
    del head
    more = n != hi * 1e8
    hi += 1e4 * more
    put(0, hi)


def spell(x: np.ndarray, cells: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """Spell each float of ``x`` as ``%.12g`` does into the four words on the
    last axis of the C-contiguous ``cells``; return where the tables cannot.
    Only a cell where ``exponent``, broadcast against ``x``, holds may take
    the exponent form: an integer column's may not, as ``%d`` has none.

    With e = floor(log10|x|) in [-4, 11], ``%.12g`` writes N = |x| *
    10**(11 - e) rounded.  The power is exact, so y, that product as a
    float (< 2**40), is off by at most 2**-14: rint(y) is N unless y lies
    within 1e-4 of a half.  An e one too low, or an x that rounds up to a
    power of ten, gives N >= 1e12; one too high, N < 1e11 or the power x
    rounds to.  Integers below 1e12 in size read the same through ``%d``.
    Other finite nonzero cells take :func:`_spell_exponent`, when a chunk
    has ``EXPONENT_MIN_CELLS`` of them to pay for its fixed cost."""
    marks, powers = _tables()[1:3]
    with np.errstate(all="ignore"):  # log10(0), and inf or nan on the cells left out
        y = np.abs(x)
        zero = y == 0  # e = N = 0: a "0", after its sign
        e = np.log10(y)
        np.floor(e, out=e)
        fixed = (e >= -4) & (e < 12)
        e[~fixed] = 0
        index = e.astype(np.intp)
        scale = powers.take(np.subtract(308, index, out=index), mode="clip")  # 10**(11 - e)
        del index
        y *= scale
        n = np.rint(y)
        y -= n
        ok = fixed & (np.abs(y, out=y) < 0.4999) & (n >= 1e11) & (n < 1e12)
        del y
        ok |= zero
    n[~ok] = 1e11
    np.divide(n, scale, out=scale)
    e += 4 + 16 * np.signbit(x)
    e *= 2
    e += scale != np.floor(scale)  # a digit past the point
    del scale
    np.take(marks, e.astype(np.intp), axis=0, out=cells, mode="clip")
    del e
    _digits(n, cells[..., 1:], odd=False)
    del n
    left = ~ok
    rest = np.flatnonzero(left & ~fixed & exponent)
    if len(rest) >= EXPONENT_MIN_CELLS:
        words = np.empty((len(rest), 4), dtype="<u8")
        left.reshape(-1)[rest] = _spell_exponent(x.reshape(-1)[rest], words)
        cells.reshape(-1, 4)[rest] = words
    return left


def _spell_exponent(x: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Spell each float of the 1-D ``x`` whose e = floor(log10|x|) lies
    outside [-4, 11] in the exponent form of ``%.12g`` into its row of the
    ``(len(x), 4)`` words ``cells``; return where the tables cannot.

    Word 0 holds the sign, the first digit, the ``.`` and the next three
    digits, the digits at odd bytes; words 1 and 2 the other eight digits;
    word 3 the ``e±XX[X]``.  N = |x| * 10**(11 - e) rounded, as in
    :func:`spell`, but 10**(11 - e) is now a rounded power (but for e in
    [-11, -5]), off by up to 2**-53 relative: so y, the product as a float
    (< 2**40), is off from |x| times the exact power by up to 2**-13 for the
    power and 2**-14 for the product, 3 * 2**-14 < 2e-4 in all, and a
    margin of 5e-4 from a half keeps rint(y) = N.  For e < -297, where
    10**(11 - e) overflows, the table holds the power over 2**128 and |x|
    is scaled by 2**128 first, exactly."""
    marks, powers, exponents = _tables()[1:]
    with np.errstate(all="ignore"):  # inf or nan on the cells left out
        ax = np.abs(x)
        e = np.floor(np.log10(ax))
        ok = np.isfinite(e) & ((e < -4) | (e >= 12))
        e[~ok] = 0
        ax[e < -297] *= 2.0**128
        y = ax * powers.take((308 - e).astype(np.intp), mode="clip")
        n = np.rint(y)
        ok &= (np.abs(y - n) < 0.4995) & (n >= 1e11) & (n < 1e12)
    n[~ok] = 1e11
    fraction = n != np.floor(n / 1e11) * 1e11  # a digit after the first
    np.take(marks, 64 + 2 * np.signbit(x) + fraction, axis=0, out=cells, mode="clip")
    _digits(n, cells[:, :3], odd=True)
    cells[:, 3] |= exponents.take((e + 324).astype(np.intp), mode="clip")
    return ~ok
