"""Exact linear algebra over prime fields GF(p).

Vectors are rows and a subspace is the row space of its basis matrix.
All arithmetic is integer arithmetic mod p; there are no floats
anywhere, so every result is exact. Matrices and every public result
hold int64 residues. Elimination works in one narrower form per field.
Over GF(2) and GF(3) one Gauss-Jordan loop holds each row as a pair of
Python ints, the bit masks of its 1s and its 2s, so a row update is an
XOR over GF(2) and six word operations over GF(3) (bitslicing:
Boothby and Bradshaw, arXiv:0901.1413), with no numpy call per pivot.
Over p >= 5 the loop works on int32, since every intermediate is below
p**2 <= 2**26. The stacked rank loop holds uint8 over GF(2) and int32
over odd p (`_work_dtype`).

Elimination has two entry points. `_rref_array` is the Gauss-Jordan loop
on one matrix behind rref, kernel, inverse and complete_to_basis, and
rank and `_vanishing` over p >= 5. `ranks` gives only the rank of each
column group of one matrix, gathered into one zero-padded stack and
eliminated in one loop over its columns; it serves the behavior's
state-trim and branch-trim tests, one group per state or constraint,
which would otherwise be one Python-level elimination each. A single
matrix stays on the 2-D loop: `ranks` gives no RREF or pivots,
and a stack of one costs more (about 0.08 against 0.05 ms on a 6x10
GF(3) matrix). Over GF(2) and GF(3) a rank needs only the forward pass
of the bit-row loop (`_pivot_rows`); its pivot rows, back-reduced by
`_rref_rows`, are the RREF. The rank of a column block of a subspace's
basis, which analyze and the reduction driver ask at every visit, is
`Subspace._block_rank` for every field: that pass on the bit rows the
subspace keeps, masked to the block, over GF(2) and GF(3), and `rank` of
the sliced basis over p >= 5. The engine is chosen in this module alone:
in `_rref_array`, `rank` and `_vanishing`, and in `_block_rank`,
`_block_maps` and `_stepped`.

Inputs are validated at the public boundary only. `MatrixF(...)` reduces
integer entries mod p, and `Subspace(...)` requires a caller's basis to
equal the engine's RREF of it (`_vanishing`), whose pivots and bit rows
it adopts. Every subspace the package derives is an RREF, built by one
constructor, `_canonical`. `_vanishing(field, a, skip)` gives the words of
the row space of the residues `a` that are zero on the first `skip`
columns: with skip = 0 a span (every kernel, complement, sum and
projection), and with other columns first a cross-section. Over GF(2)
and GF(3) it and a reduction step's endpoint codes (`_stepped`) hand
pivot rows of `_pivot_rows` to `_kept_space`: `_rref_rows` keeps those
whose lead lies in the last `ambient` columns, which are the words zero
on the others, and back-reduces them, and the rows, each exactly as wide
as the ambient, are written once as the int64 basis and kept as the
subspace's bit rows: every GF(2)/GF(3) subspace holds them from
construction. A trim's or a merge's L is reduced the same way and never
written (`Subspace._block_maps`). Over p >= 5 `_vanishing` cuts one RREF.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, FieldMismatchError

MAX_FIELD = 1 << 13


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """The prime field GF(p), 2 <= p <= 2**13."""

    __slots__ = ("p",)

    def __init__(self, p: int) -> None:
        if not isinstance(p, int) or isinstance(p, bool):
            raise TypeError(f"field order must be an int, got {type(p).__name__}")
        if not 2 <= p <= MAX_FIELD or not _is_prime(p):
            raise ValueError(f"field order must be a prime in [2, {MAX_FIELD}], got {p}")
        self.p = p

    def residues(self, values: Iterable[int]) -> np.ndarray:
        """A flat sequence of ints as a read-only residue vector."""
        v = _residues(list(values), self.p)
        v.setflags(write=False)
        return v

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"


def _residues(values, p: int) -> np.ndarray:
    """Entries as int64 residues mod p. An object or unsigned entry goes
    through `operator.index` and is reduced in Python, so no int wraps; a
    float must be integral, and text or complex raises TypeError."""
    a = np.asarray(values)
    if a.dtype.kind in "Ou":
        a = np.reshape([operator.index(x) % p for x in a.flat], a.shape)
    elif a.dtype.kind == "f" and not ((np.trunc(a) == a) & (abs(a) < 2.0 ** 63)).all():
        raise ValueError("entries must be integers; got a non-integral or non-finite float")
    elif a.dtype.kind not in "bif":
        raise TypeError(f"entries must be integers, got {a.dtype} entries")
    return a.astype(np.int64, copy=False) % p


GF2 = PrimeField(2)
GF3 = PrimeField(3)


class MatrixF:
    """An immutable row-major matrix of residues over a prime field."""

    __slots__ = ("field", "_a")

    def __init__(self, field: PrimeField, array) -> None:
        a = _residues(array, field.p)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {a.shape}")
        a.setflags(write=False)
        self.field = field
        self._a = a

    @classmethod
    def from_rows(cls, field: PrimeField, rows: Sequence[Sequence[int]],
                  cols: int | None = None) -> "MatrixF":
        """Build from a list of rows; `cols` disambiguates the empty matrix."""
        data = [list(r) for r in rows]
        widths = {len(r) for r in data}
        if len(widths) > 1:
            raise ValueError(f"ragged rows: widths {sorted(widths)}")
        width = widths.pop() if data else (0 if cols is None else cols)
        if cols is not None and width != cols:
            raise DimensionMismatchError(f"rows have width {width}, expected {cols}")
        return cls(field, np.reshape(data, (len(data), width)))

    @property
    def array(self) -> np.ndarray:
        return self._a

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    def row(self, i: int) -> np.ndarray:
        return self._a[i]

    def tolist(self) -> list[list[int]]:
        return self._a.tolist()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatrixF):
            return NotImplemented
        return (self.field == other.field and self.shape == other.shape
                and bool(np.array_equal(self._a, other._a)))

    def __repr__(self) -> str:
        return f"MatrixF({self.field!r}, {self.tolist()!r})"


def _held(field: PrimeField, a: np.ndarray) -> MatrixF:
    """A MatrixF around an array of residues that this package built,
    taken as it is: no `% p` copy.

    Every MatrixF a caller can reach holds int64. The one narrower
    MatrixF is a realization's check system or its state columns, in
    `_work_dtype(p)`, which it hands to `kernel` and never lets out."""
    m = MatrixF.__new__(MatrixF)
    a.setflags(write=False)
    m.field = field
    m._a = a
    return m


def _work_dtype(p: int) -> type:
    """The dtype of every elimination transient: the stack `ranks` gathers,
    the rref `_rref_array` returns, null rows (kept check rows too), check
    systems; uint8 when p = 2, where a row update is an XOR, and int32
    otherwise. Every intermediate is below p**2 <= 2**26 in magnitude, so
    int32 is exact up to MAX_FIELD."""
    return np.uint8 if p == 2 else np.int32


def _rref_array(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Gauss-Jordan elimination mod p; returns (rref, pivot columns).

    rref, kernel, inverse and complete_to_basis run it, and rank and
    `_vanishing` over p >= 5. `a` holds residues mod p, and the rref
    comes back in `_work_dtype(p)`: callers widen to int64 where they
    build a MatrixF for a caller. Over GF(2) and GF(3) the rows are
    eliminated as bit rows (`_pivot_rows`, then `_rref_rows`), the one
    loop for both fields, whatever the shape. Over p >= 5 the loop runs
    on an int32 copy, and each pivot clears its column in one block
    update of every other row with a nonzero there, so the work per
    pivot is a few numpy calls, not one per row.
    """
    nrows, ncols = a.shape
    if p <= 3:
        rows, pivots = _rref_rows(_pivot_rows(_bit_rows(a, p), p), ncols, p)
        return _from_bit_rows(rows, a.shape, p), pivots
    m = a.astype(_work_dtype(p))
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        hits = m[r:, c].nonzero()[0]
        if hits.size == 0:
            continue
        i = r + int(hits[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        lead = int(m[r, c])
        if lead != 1:
            m[r] = m[r] * pow(lead, p - 2, p) % p
        hits = m[:, c].nonzero()[0]
        if hits.size > 1:
            others = hits[hits != r]
            block = m[others]
            m[others] = (block - block[:, c, None] * m[r]) % p
        pivots.append(c)
        r += 1
    return m, pivots


# Bit rows: a row over GF(2) or GF(3) is the pair (ones, twos) of Python
# ints whose bits mark its entries equal to 1 and equal to 2; column j of
# an ncols-column matrix is bit `ncols - 1 - j`, so a row's lowest nonzero
# column is its highest set bit, and a column block is a mask ANDed into
# both ints. A matrix of up to _SMALL_CELLS cells is read as one binary
# numeral per mask and cut into rows by shifts; a larger one is read row
# by row from np.packbits, each row shifted right past the zero columns
# that pad it to whole bytes, so both codecs give the same rows. Best-of-7
# times of `_rref_array` on random dense matrices, GF(2) then GF(3),
# numeral codec against packbits: 3x20 17 and 24 against 27 and 44 us;
# 10x24 41 and 69 against 52 and 95 us; 16x40 62 and 175 against 53 and
# 183 us; 20x50 97 and 290 against 102 and 253 us. On an 840x960 GF(2)
# behavior system the numeral codec took 60 ms against 4.5 ms, as every
# shift copies the whole numeral.
_SMALL_CELLS = 512
_ONES = bytes.maketrans(b"\0\1\2", b"010")
_TWOS = bytes.maketrans(b"\0\1\2", b"001")
_DIGITS = bytes.maketrans(b"012", b"\0\1\2")


def _bit_rows(a: np.ndarray, p: int) -> list[tuple[int, int]]:
    """The nonzero rows of a matrix of residues mod p <= 3 as bit rows,
    none for an empty one. A small matrix is cut at its nonzero rows
    only, so the mostly-zero tall ones that section codes give cost one
    step per nonzero row."""
    nrows, ncols = a.shape
    if not a.size:
        return []
    if nrows * ncols > _SMALL_CELLS:
        step = (ncols + 7) // 8
        pad = 8 * step - ncols

        def masks(v: int) -> list[int]:
            packed = np.packbits(a == v, axis=1).tobytes()
            return [int.from_bytes(packed[at:at + step], "big") >> pad
                    for at in range(0, nrows * step, step)]
        rows = zip(masks(1), masks(2) if p == 3 else [0] * nrows)
        return [(x1, x2) for x1, x2 in rows if x1 | x2]
    text = a.astype(np.uint8).tobytes()
    full = (1 << ncols) - 1
    ones = int(text.translate(_ONES), 2)
    twos = int(text.translate(_TWOS), 2) if p == 3 else 0
    rows = []
    x = ones | twos
    while x:
        s = (x.bit_length() - 1) // ncols * ncols
        rows.append((ones >> s & full, twos >> s & full))
        x &= (1 << s) - 1
    return rows


def _from_bit_rows(rows: list[tuple[int, int]], shape: tuple[int, int], p: int
                   ) -> np.ndarray:
    """Bit rows of a matrix of this shape as a matrix in `_work_dtype(p)`,
    zero rows appended up to the shape."""
    nrows, ncols = shape
    if nrows * ncols > _SMALL_CELLS:
        m = np.zeros(shape, dtype=_work_dtype(p))
        if rows:
            step = (ncols + 7) // 8
            pad = 8 * step - ncols

            def bits(k: int) -> np.ndarray:
                packed = b"".join([(row[k] << pad).to_bytes(step, "big") for row in rows])
                return np.unpackbits(np.frombuffer(packed, dtype=np.uint8).reshape(-1, step),
                                     axis=1, count=ncols)
            m[:len(rows)] = bits(0)
            if p == 3:
                m[:len(rows)] += 2 * bits(1)
        return m
    ones = twos = 0
    for x1, x2 in rows:
        ones = ones << ncols | x1
        twos = twos << ncols | x2
    cells = len(rows) * ncols
    # ones and twos share no bit, so their binary numerals read as decimal
    # add up with no carry: digit j is the entry in cell j
    text = (f"{int(f'{ones:b}') + 2 * int(f'{twos:b}'):0{cells}d}" if twos
            else f"{ones:0{cells}b}" if rows else "") + "0" * (nrows * ncols - cells)
    m = np.frombuffer(bytearray(text.encode().translate(_DIGITS)), dtype=np.uint8)
    return m.reshape(shape).astype(_work_dtype(p), copy=False)


def _pivot_rows(rows: Iterable[tuple[int, int]], p: int) -> dict[int, tuple[int, int]]:
    """The forward pass of the bit-row elimination mod p <= 3: the rows
    kept as pivots, by the bit length of their lead; their count is the
    rank.

    Each row is reduced at its lowest nonzero column against the rows
    kept so far, until that column is a new pivot, kept with lead 1
    (swapped if its lead is 2), or the row is zero. Only the row
    arithmetic differs between the fields. Over GF(2) twos stays 0 and
    adding a row is one XOR of its ones (word-packed rows as in M4RI:
    Albrecht, Bard and Hart, ACM TOMS 2010). Over GF(3) x + y is
    t = (x1|y2) ^ (x2|y1), then ((x2|y2) ^ t, (x1|y1) ^ t), and -y is y
    with its masks swapped, so subtracting a row is adding it swapped
    (bitslicing: Boothby and Bradshaw, arXiv:0901.1413).
    """
    kept: dict[int, tuple[int, int]] = {}
    for x1, x2 in rows:
        while x := x1 | x2:
            b = x.bit_length()
            row = kept.get(b)
            if row is None:
                kept[b] = (x1, x2) if x1.bit_length() == b else (x2, x1)
                break
            y1, y2 = row
            if p == 2:
                x1 ^= y1
                continue
            if x1.bit_length() == b:
                y1, y2 = y2, y1
            t = (x1 | y2) ^ (x2 | y1)
            x1, x2 = (x2 | y2) ^ t, (x1 | y1) ^ t
    return kept


def _rref_rows(kept: dict[int, tuple[int, int]], width: int, p: int
               ) -> tuple[list[tuple[int, int]], list[int]]:
    """The RREF bit rows, in pivot order, and the pivot columns of the
    pivot rows of `_pivot_rows` whose lead lies in the last `width`
    columns. A row has no bit before its lead, so these rows are the
    words zero on any earlier columns, seen on the last `width`, and
    they meet no pivot outside them. An RREF is unique, so these are the
    rows and pivots of any other Gauss-Jordan order.

    The rows are back-reduced from the highest pivot column down: once
    the rows of the later pivot columns (lower bits) are reduced, adding
    one in clears just its lead bit."""
    leads = [b for b in sorted(kept) if b <= width]
    later = 0
    for b in leads:
        x1, x2 = kept[b]
        hits = (x1 | x2) & later
        while hits:
            h = hits.bit_length()
            hits ^= 1 << h - 1
            y1, y2 = kept[h]
            if p == 2:
                x1 ^= y1
                continue
            if x1 >> h - 1 & 1:
                y1, y2 = y2, y1
            t = (x1 | y2) ^ (x2 | y1)
            x1, x2 = (x2 | y2) ^ t, (x1 | y1) ^ t
        kept[b] = (x1, x2)
        later |= 1 << b - 1
    leads.reverse()
    return [kept[b] for b in leads], [width - b for b in leads]


def _kept_space(field: PrimeField, kept: dict[int, tuple[int, int]], ambient: int
                ) -> "Subspace":
    """The subspace of F^ambient spanned by the pivot rows of
    `_pivot_rows` whose lead lies in its columns, the last `ambient`:
    their RREF (`_rref_rows`), written once as the int64 basis and kept
    as the subspace's bit rows. Every GF(2)/GF(3) subspace, derived or
    checked against this RREF by `Subspace(...)`, comes from here."""
    rows, pivots = _rref_rows(kept, ambient, field.p)
    basis = _from_bit_rows(rows, (len(rows), ambient), field.p).astype(np.int64)
    return _canonical(field, basis, tuple(pivots), rows)


def _canonical(field: PrimeField, basis: np.ndarray, pivots: tuple[int, ...],
               bits: list[tuple[int, int]] | None = None) -> "Subspace":
    """The Subspace on a canonical int64 RREF basis this package derived,
    its pivots and, over GF(2) and GF(3), its bit rows, taken as they are
    with no re-check: the one constructor of every derived subspace."""
    space = Subspace.__new__(Subspace)
    space.field = field
    space.ambient = basis.shape[1]
    space.basis = _held(field, basis)
    space.pivots = pivots
    space._checks = None
    space._orthogonal = None
    space._bits = bits
    return space


def ranks(a: np.ndarray, index: np.ndarray, p: int) -> np.ndarray:
    """The rank of each group of columns of the residues `a` mod p.

    Row g of the (groups, width) `index` lists group g's columns; the index
    a.shape[1] reads a zero column, which pads a narrower group and leaves
    its rank unchanged. The groups are gathered in one indexing call into
    a (groups, rows, width) stack in the working dtype, a half or an eighth
    of the memory of int64, and one loop over its columns serves them all:
    a row not yet used as a pivot is zero left of the current column, and
    each pivot updates only the (group, row) pairs with a nonzero in its
    column (an XOR when p = 2). Over odd p an updated row is scaled by the
    pivot's lead rather than the pivot row by its inverse; both are row
    operations, so the ranks are the same.
    """
    padded = np.zeros((a.shape[0], a.shape[1] + 1), dtype=_work_dtype(p))
    padded[:, :-1] = a
    # gathering rows of the transpose reads whole columns; the stack is
    # a (groups, rows, width) view of the result
    m = padded.T[index].transpose(0, 2, 1)
    batch, nrows, ncols = m.shape
    free = np.ones((batch, nrows), dtype=bool)
    pivot_row = np.zeros(batch, dtype=np.intp)
    for c in range(ncols):
        if not free.any():
            break
        hit = free & (m[:, :, c] != 0)
        has = hit.any(axis=1)
        if not has.any():
            continue
        at = has.nonzero()[0]
        rows = hit[at].argmax(axis=1)
        free[at, rows] = False
        hit[at, rows] = False
        pivot_row[at] = rows
        bs, rs = hit.nonzero()
        if bs.size and c + 1 < ncols:  # no column is left to update after the last
            piv = m[bs, pivot_row[bs], c:]
            if p == 2:
                m[bs, rs, c:] ^= piv
            else:
                lead = piv[:, :1]
                m[bs, rs, c:] = (lead * m[bs, rs, c:] - m[bs, rs, c:c + 1] * piv) % p
    return nrows - free.sum(axis=1)


def rref(m: MatrixF) -> tuple[MatrixF, int, tuple[int, ...]]:
    """Reduced row echelon form with its rank and pivot columns."""
    a, piv = _rref_array(m.array, m.field.p)
    return _held(m.field, a.astype(np.int64)), len(piv), tuple(piv)


def rank(m: MatrixF) -> int:
    """The rank; of a matrix of at most one row, whether it is nonzero,
    and otherwise over GF(2) and GF(3) the pivot count of the forward
    pass on bit rows, which are never back-reduced or unpacked."""
    a, p = m.array, m.field.p
    if a.shape[0] < 2:
        return int(a.any())
    if p <= 3:
        return len(_pivot_rows(_bit_rows(a, p), p))
    return len(_rref_array(a, p)[1])


def kernel(m: MatrixF) -> "Subspace":
    """The right null space {x : m @ x = 0}, as a row-vector subspace."""
    a, piv = _rref_array(m.array, m.field.p)
    return _vanishing(m.field, _null_rows(a, piv, m.field.p))


def _null_rows(a: np.ndarray, piv: Sequence[int], p: int) -> np.ndarray:
    """Null rows of a matrix of residues mod p in RREF with the given pivot
    columns, not yet canonical: row f is e_f minus column f on the pivots,
    as residues in `_work_dtype(p)`. Their transpose is the quotient map
    modulo the row space. p - x negates a residue x without wrapping."""
    n = a.shape[1]
    pivset = set(piv)
    free = [f for f in range(n) if f not in pivset]
    rows = np.zeros((len(free), n), dtype=_work_dtype(p))
    rows[np.arange(len(free)), free] = 1
    rows[:, list(piv)] = (p - a[:len(piv), free].T) % p
    return rows


def _vanishing(field: PrimeField, a: np.ndarray, skip: int = 0) -> "Subspace":
    """The words of the row space of the residues `a` that are zero on
    its first `skip` columns, seen on the others, as a canonical int64
    basis: over GF(2) and GF(3) `_kept_space` of the pivot rows of `a`'s
    bit rows, and over p >= 5 the rows of one RREF whose pivot is at or
    past `skip`, cut there."""
    p = field.p
    if p <= 3:
        return _kept_space(field, _pivot_rows(_bit_rows(a, p), p), a.shape[1] - skip)
    red, piv = _rref_array(a, p)
    kept = tuple(c - skip for c in piv if c >= skip)
    basis = red[len(piv) - len(kept):len(piv), skip:].astype(np.int64)
    return _canonical(field, basis, kept)


def inverse(m: MatrixF) -> MatrixF:
    """Inverse of a square matrix; raises on singular input."""
    n = m.rows
    if m.cols != n:
        raise DimensionMismatchError(f"not square: {m.shape}")
    aug = np.hstack([m.array, np.eye(n, dtype=np.int64)])
    red, piv = _rref_array(aug, m.field.p)
    if list(piv) != list(range(n)):
        raise ValueError("matrix is singular")
    return _held(m.field, red[:, n:].astype(np.int64))


def complete_to_basis(m: MatrixF) -> MatrixF:
    """Standard basis vectors completing row_space(m) to the full space.

    Pivot-greedy: returns e_i for every non-pivot column i of rref(m), in
    index order, so the choice is canonical.
    """
    _, piv = _rref_array(m.array, m.field.p)
    return _held(m.field, np.delete(np.eye(m.cols, dtype=np.int64), piv, axis=0))


class Subspace:
    """A subspace of F^n held as a canonical RREF basis with no zero rows.

    Equality is representation equality: two subspaces are equal exactly
    when their canonical bases are identical. Over GF(2) and GF(3) it holds
    its basis's bit rows from construction. Slots keep what a first call
    derives: the check rows and the orthogonal complement.
    """

    __slots__ = ("field", "ambient", "basis", "pivots", "_checks", "_orthogonal", "_bits")

    def __init__(self, field: PrimeField, ambient: int, basis: MatrixF) -> None:
        canon = Subspace.spanned_by(field, ambient, basis)
        if canon.basis != basis:
            raise ValueError("basis is not in canonical reduced echelon form")
        for slot in Subspace.__slots__:  # canon's basis equals the caller's: adopt canon whole
            setattr(self, slot, getattr(canon, slot))

    @classmethod
    def spanned_by(cls, field: PrimeField, ambient: int, rows) -> "Subspace":
        m = rows if isinstance(rows, MatrixF) else MatrixF.from_rows(field, rows, cols=ambient)
        if m.field != field:
            raise FieldMismatchError(f"{m.field} vs {field}")
        if m.cols != ambient:
            raise DimensionMismatchError(f"rows have width {m.cols}, ambient {ambient}")
        return _vanishing(field, m.array)

    @property
    def dim(self) -> int:
        return self.basis.rows

    def _check_mate(self, other: "Subspace") -> None:
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")
        if self.ambient != other.ambient:
            raise DimensionMismatchError(f"ambients {self.ambient} vs {other.ambient}")

    def contains(self, vec) -> bool:
        """Whether vec lies in the subspace: stacked under the basis, it keeps the dim."""
        v = self.field.residues(vec)
        if v.shape != (self.ambient,):
            raise DimensionMismatchError(f"vector length {v.shape}, ambient {self.ambient}")
        return _vanishing(self.field, np.vstack([self.basis.array, v])).dim == self.dim

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_mate(other)
        return _vanishing(self.field, np.vstack([self.basis.array, other.basis.array]))

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_mate(other)
        checks = np.vstack([self.orthogonal().basis.array, other.orthogonal().basis.array])
        return kernel(_held(self.field, checks))

    def _check_rows(self) -> np.ndarray:
        """The null rows of the RREF basis (`_null_rows`), read off it with no
        elimination: they span the orthogonal complement, not canonically."""
        if self._checks is None:
            self._checks = _null_rows(self.basis.array, self.pivots, self.field.p)
        return self._checks

    def orthogonal(self) -> "Subspace":
        """All vectors with zero dot product against every basis row: the
        check rows brought to RREF, on the first call, and kept."""
        if self._orthogonal is None:
            self._orthogonal = _vanishing(self.field, self._check_rows())
        return self._orthogonal

    def _block_rank(self, spans: Iterable[tuple[int, int]], off: bool = False) -> int:
        """The rank of the basis columns in the (offset, width) column
        spans, or with off=True of the columns outside them.

        Over GF(2) and GF(3) each call ANDs the bit rows held from
        construction with the spans' column mask and counts the pivots of
        the forward pass alone; over p >= 5 it is `rank` of the sliced basis.
        """
        p, n = self.field.p, self.ambient
        if p > 3:
            cols = np.full(n, off)
            for at, d in spans:
                cols[at:at + d] = not off
            return rank(_held(self.field, self.basis.array[:, cols]))
        mask = 0
        for at, d in spans:
            mask |= (1 << d) - 1 << n - at - d
        if off:
            mask = ~mask
        return len(_pivot_rows([(x1 & mask, x2 & mask) for x1, x2 in self._bits], p))

    def _block_maps(self, at: int, d: int, cross: bool = False
                    ) -> tuple[tuple[int, ...], np.ndarray]:
        """The pivots of L and N(L)^T (`_check_rows().T`), for L the
        projection onto the columns [at, at + d), or with cross=True the
        cross-section there: the words zero off them, seen on them. They
        are what a trim or a merge reads off L.

        Over p >= 5 L is `_vanishing` of the sliced basis, as
        `BlockedCode.project` and `cross_section` take it. Over GF(2) and
        GF(3) L's RREF rows come off the kept bit rows and are never written
        as a basis: the rows masked to the block for a projection, and for
        a cross-section the rows with the block rotated to the end, whose
        pivot rows with a lead in the block are the words (`_rref_rows`).
        """
        field, p = self.field, self.field.p
        if p > 3:
            a = self.basis.array
            if cross:
                rotated = np.hstack([a[:, :at], a[:, at + d:], a[:, at:at + d]])
                space = _vanishing(field, rotated, self.ambient - d)
            else:
                space = _vanishing(field, a[:, at:at + d])
            return space.pivots, space._check_rows().T
        rows = self._bits
        tail = self.ambient - at - d
        block = (1 << d) - 1
        if cross:
            low = (1 << tail) - 1
            kept = _pivot_rows([((x1 >> tail + d << tail | x1 & low) << d | x1 >> tail & block,
                                 (x2 >> tail + d << tail | x2 & low) << d | x2 >> tail & block)
                                for x1, x2 in rows], p)
        else:
            kept = _pivot_rows([(x1 >> tail & block, x2 >> tail & block) for x1, x2 in rows], p)
        rows, pivots = _rref_rows(kept, d, p)
        return tuple(pivots), _quotient_rows(rows, pivots, d, p)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.field == other.field and self.ambient == other.ambient
                and self.basis == other.basis)

    def __repr__(self) -> str:
        return f"<subspace dim {self.dim} of {self.field!r}^{self.ambient}>"


def _quotient_rows(rows: list[tuple[int, int]], pivots: Sequence[int], ambient: int,
                   p: int) -> np.ndarray:
    """The quotient map N(L)^T modulo the subspace L of F^ambient, p <= 3,
    whose RREF bit rows have these pivot columns, as int64: the identity
    on the free columns, and at pivot c the negated row of c on them,
    where -1 is p - 1 and -2 is 1."""
    taken = set(pivots)
    free = [c for c in range(ambient) if c not in taken]
    q = [[int(c == f) for f in free] for c in range(ambient)]
    at = [ambient - 1 - f for f in free]
    for (x1, x2), c in zip(rows, pivots):
        q[c] = [(p - 1) * (x1 >> s & 1) + (x2 >> s & 1) for s in at]
    return np.array(q, dtype=np.int64).reshape(ambient, len(free))


def _stepped(ends: Sequence[tuple[Subspace, int]], f: np.ndarray, x: np.ndarray
             ) -> list[Subspace]:
    """For each (subspace, at) in `ends`, the words whose value v on the
    columns [at, at + d) has v @ f = 0, with v rewritten as v @ x, for
    residues (d, k) f and (d, new_dim) x: the endpoint codes of one
    reduction step (`reduction._shrink`).

    They are the words of [v f | the word with v rewritten as v x] that
    are zero on v f. Over p >= 5 that is one `_vanishing` call per end.
    Over GF(2) and GF(3) the rows of [f | x] are read once as bit rows;
    each kept bit row of an end gets v f | v x as the sum of those rows at
    v's nonzero digits (a digit 2 adds the row negated, its masks
    swapped), is put back together by shifts, and the pivot rows whose
    lead lies past v f are the words (`_kept_space`).
    """
    d, new_dim = x.shape
    field = ends[0][0].field
    p = field.p
    if p > 3:
        out = []
        for space, at in ends:
            g = space.basis.array
            v = g[:, at:at + d]
            both = np.hstack([(v @ f) % p, g[:, :at], (v @ x) % p, g[:, at + d:]])
            out.append(_vanishing(field, both, f.shape[1]))
        return out
    maps = []  # the rows of [f | x] as bit rows
    for row in map(list.__add__, f.tolist(), x.tolist()):
        z1 = z2 = 0
        for v in row:
            z1, z2 = z1 << 1 | (v == 1), z2 << 1 | (v == 2)
        maps.append((z1, z2))
    block, mapped = (1 << d) - 1, (1 << new_dim) - 1
    out = []
    for space, at in ends:
        tail = space.ambient - at - d
        low = (1 << tail) - 1
        words = []
        for x1, x2 in space._bits:
            v1, v2 = x1 >> tail & block, x2 >> tail & block
            y1 = y2 = 0
            while v := v1 | v2:
                h = v.bit_length()
                z1, z2 = maps[d - h]
                if v2 >> h - 1:
                    z1, z2 = z2, z1
                    v2 ^= 1 << h - 1
                else:
                    v1 ^= 1 << h - 1
                if p == 2:
                    y1 ^= z1
                    continue
                t = (y1 | z2) ^ (y2 | z1)
                y1, y2 = (y2 | z2) ^ t, (y1 | z1) ^ t
            words.append(((((y1 >> new_dim) << at | x1 >> tail + d) << new_dim | y1 & mapped)
                          << tail | x1 & low,
                          (((y2 >> new_dim) << at | x2 >> tail + d) << new_dim | y2 & mapped)
                          << tail | x2 & low))
        out.append(_kept_space(field, _pivot_rows(words, p), space.ambient - d + new_dim))
    return out
