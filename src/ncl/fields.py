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
on one matrix behind rref, rank, kernel, inverse and complete_to_basis.
`ranks` gives only the rank of each matrix in a list, zero-padded into
one stack and eliminated in one loop over its columns; it serves the
many small rank tests behind analyze's verdicts, which would otherwise
be one Python-level elimination each. A single matrix stays on the 2-D
loop: `ranks` gives no RREF or pivots, and a stack of one costs more
(about 0.08 against 0.05 ms on a 6x10 GF(3) matrix). Over GF(2) and
GF(3) a rank needs only the forward pass of the bit-row loop
(`_pivot_rows`), and the rank of a column block of a subspace's basis,
which the reduction driver asks at every visit, is that pass on the bit
rows the subspace keeps, masked to the block (`Subspace._block_rank`).

Inputs are validated at the public boundary only. `MatrixF(...)` reduces
what it is given mod p, and `Subspace(...)` checks that its basis is in
canonical reduced echelon form. Every subspace the package derives is
read off one RREF, which is already both, by `_vanishing(field, a,
skip)`: the words of the row space of the residues `a` that are zero on
the first `skip` columns. With skip = 0 that is a span (every kernel,
complement, sum and projection), and with other columns first a
cross-section or the endpoint code of a reduction step. Over GF(2) and
GF(3) a reduction step takes the same words off kept bit rows instead:
a trim's or a merge's L is reduced bit rows that are never written
(`Subspace._block_maps`), and each of its two endpoint codes is the
RREF bit rows of its mapped rows (`_stepped`), written once as the
int64 basis and kept as the new subspace's bit rows (`_kept_space`), so
the next block rank or step on it packs nothing.
"""

from __future__ import annotations

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
        v = np.asarray(list(values), dtype=np.int64) % self.p
        v.setflags(write=False)
        return v

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"


GF2 = PrimeField(2)
GF3 = PrimeField(3)


class MatrixF:
    """An immutable row-major matrix of residues over a prime field."""

    __slots__ = ("field", "_a", "_echelon")

    def __init__(self, field: PrimeField, array) -> None:
        a = np.asarray(array, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {a.shape}")
        a = a % field.p
        a.setflags(write=False)
        self.field = field
        self._a = a
        # pivots, set by _held alone, mark a known canonical RREF basis
        self._echelon: tuple[int, ...] | None = None

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
        a = np.array(data, dtype=np.int64).reshape(len(data), width)
        return cls(field, a)

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


def _held(field: PrimeField, a: np.ndarray,
          echelon: tuple[int, ...] | None = None) -> MatrixF:
    """A MatrixF around an array of residues that this package built,
    taken as it is: no `% p` copy, and, given the pivots of a canonical
    RREF basis, no canonical re-check when a Subspace takes it.

    Every MatrixF a caller can reach holds int64. The one narrower
    MatrixF is a realization's check system or its state columns, in
    `_work_dtype(p)`, which it hands to `kernel` and never lets out;
    `_vanishing` wraps its input for `rref` the same way, whatever its
    dtype, and keeps only the int64 RREF."""
    m = MatrixF.__new__(MatrixF)
    a.setflags(write=False)
    m.field = field
    m._a = a
    m._echelon = echelon
    return m


def _work_dtype(p: int) -> type:
    """The dtype of every elimination transient: `ranks`' stack, the rref
    `_rref_array` returns, null rows (kept check rows too), check systems;
    uint8 when p = 2, where a row update is an XOR, and int32 otherwise.
    Every intermediate is below p**2 <= 2**26 in magnitude, so int32 is
    exact up to MAX_FIELD."""
    return np.uint8 if p == 2 else np.int32


def _rref_array(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Gauss-Jordan elimination mod p; returns (rref, pivot columns).

    rref, kernel, inverse and complete_to_basis run it, and rank over
    p >= 5. `a` holds residues mod p, and the rref comes back in
    `_work_dtype(p)`: callers widen to int64 where they build a MatrixF
    for a caller. Over GF(2) and GF(3) the rows are eliminated as bit
    rows (`_bit_rref`), the one loop for both fields. A matrix with fewer
    than two rows or no columns skips the packing: it is its own RREF
    once its lead is 1, and negating a GF(3) row turns a lead of 2 into
    1. Over p >= 5 the loop runs on an int32 copy, and each pivot clears
    its column in one block update of every other row with a nonzero
    there, so the work per pivot is a few numpy calls, not one per row.
    """
    nrows, ncols = a.shape
    if p <= 3:
        if nrows >= 2 and ncols:
            rows, pivots = _bit_rref(a, p)
            return _from_bit_rows(rows, a.shape, p), pivots
        m = a.astype(_work_dtype(p))
        pivots = m[0].nonzero()[0][:1].tolist() if m.size else []
        if pivots and m[0, pivots[0]] == 2:
            m = -m % 3
        return m, pivots
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
# ints whose bits mark its entries equal to 1 and equal to 2; column j is
# bit `width - 1 - j`, so a row's lowest nonzero column is its highest set
# bit, and a column block is a mask ANDed into both ints. The width is the
# column count for a matrix of up to _SMALL_CELLS cells, read as one binary
# numeral per mask and cut into rows by shifts; a larger one is read row
# by row from np.packbits, which pads the width to whole bytes with zero
# columns, so a mask is shifted by the rows' width, not the column
# count. Best-of-7 times of `_rref_array` on random dense
# matrices, GF(2) then GF(3), numeral codec against packbits: 3x20 17 and
# 24 against 27 and 44 us; 10x24 41 and 69 against 52 and 95 us; 16x40 62
# and 175 against 53 and 183 us; 20x50 97 and 290 against 102 and 253 us.
# On an 840x960 GF(2) behavior system the numeral codec took 60 ms
# against 4.5 ms, as every shift copies the whole numeral.
_SMALL_CELLS = 512
_ONES = bytes.maketrans(b"\0\1\2", b"010")
_TWOS = bytes.maketrans(b"\0\1\2", b"001")
_DIGITS = bytes.maketrans(b"012", b"\0\1\2")


def _bit_rows(a: np.ndarray, p: int) -> tuple[list[tuple[int, int]], int]:
    """The nonzero rows of a nonempty matrix of residues mod p <= 3 as bit
    rows, with their width in bits. A small matrix is cut at its nonzero
    rows only, so the mostly-zero tall ones that section codes give cost
    one step per nonzero row."""
    nrows, ncols = a.shape
    if nrows * ncols > _SMALL_CELLS:
        step = (ncols + 7) // 8

        def masks(v: int) -> list[int]:
            packed = np.packbits(a == v, axis=1).tobytes()
            return [int.from_bytes(packed[at:at + step], "big")
                    for at in range(0, nrows * step, step)]
        rows = zip(masks(1), masks(2) if p == 3 else [0] * nrows)
        return [(x1, x2) for x1, x2 in rows if x1 | x2], 8 * step
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
    return rows, ncols


def _from_bit_rows(rows: list[tuple[int, int]], shape: tuple[int, int], p: int
                   ) -> np.ndarray:
    """The bit rows `_bit_rows` gives for this shape as a matrix in
    `_work_dtype(p)`, zero rows appended up to the shape."""
    nrows, ncols = shape
    if nrows * ncols > _SMALL_CELLS:
        m = np.zeros(shape, dtype=_work_dtype(p))
        if rows:
            step = (ncols + 7) // 8

            def bits(k: int) -> np.ndarray:
                packed = b"".join([row[k].to_bytes(step, "big") for row in rows])
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


def _bit_rref(a: np.ndarray, p: int) -> tuple[list[tuple[int, int]], list[int]]:
    """The nonzero bit rows of the RREF of a nonempty matrix of residues
    mod p <= 3, in pivot order, and the pivot columns.

    `_pivot_rows` keeps the pivot rows; they are then back-reduced from
    the highest pivot column down. An RREF is unique, so the rows and
    pivots are those of any other Gauss-Jordan order.
    """
    rows, width = _bit_rows(a, p)
    kept = _back_reduced(_pivot_rows(rows, p), p)
    leads = sorted(kept, reverse=True)
    return [kept[b] for b in leads], [width - b for b in leads]


def _back_reduced(kept: dict[int, tuple[int, int]], p: int) -> dict[int, tuple[int, int]]:
    """Pivot rows of `_pivot_rows` back-reduced in place, from the highest
    pivot column down, into the rows of an RREF. Any of them whose leads
    lie at or past a column will do: such a row has no bit before its
    lead, so it meets no pivot outside them."""
    # once the rows of the later pivot columns (lower bits) are reduced,
    # adding one in clears just its lead bit
    later = 0
    for b in sorted(kept):
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
    return kept


def _kept_space(field: PrimeField, kept: dict[int, tuple[int, int]], width: int,
                ambient: int) -> "Subspace":
    """The subspace of F^ambient spanned by pivot rows of `_pivot_rows`
    (or a part of them closed under later pivots, `_back_reduced`) whose
    `width` bits are the ambient columns then zero columns: their RREF,
    written once as the int64 basis and kept as the subspace's bit rows,
    placed at the width `_bit_rows` gives its basis."""
    p = field.p
    kept = _back_reduced(kept, p)
    leads = sorted(kept, reverse=True)
    full = ambient if len(leads) * ambient <= _SMALL_CELLS else 8 * ((ambient + 7) // 8)
    rows = [kept[b] for b in leads]
    if full > width:
        rows = [(x1 << full - width, x2 << full - width) for x1, x2 in rows]
    elif full < width:
        rows = [(x1 >> width - full, x2 >> width - full) for x1, x2 in rows]
    basis = _from_bit_rows(rows, (len(rows), ambient), p).astype(np.int64)
    space = Subspace(field, ambient, _held(field, basis, tuple(width - b for b in leads)))
    space._bits = (rows, full)
    return space


def ranks(mats: Sequence[np.ndarray] | np.ndarray, p: int) -> np.ndarray:
    """The rank of each 2-D matrix of residues mod p in `mats`.

    The matrices are zero-padded into one (batch, rows, cols) stack,
    which leaves their ranks unchanged; a 3-D array is taken as that
    stack as it is, with no padding loop. One loop over the columns serves
    the whole batch: a row not yet used as a pivot is zero left of the
    current column, and each pivot updates only the (matrix, row) pairs
    with a nonzero in its column (an XOR when p = 2). Over odd p an
    updated row is scaled by the pivot's lead rather than the pivot row
    by its inverse; both are row operations, so the ranks are the same.
    The stack is held in the working dtype, a half or an eighth of the
    memory of int64.
    """
    if isinstance(mats, np.ndarray):
        m = mats.astype(_work_dtype(p))
        batch, nrows, ncols = m.shape
    else:
        batch = len(mats)
        nrows = max((a.shape[0] for a in mats), default=0)
        ncols = max((a.shape[1] for a in mats), default=0)
        m = np.zeros((batch, nrows, ncols), dtype=_work_dtype(p))
        for i, a in enumerate(mats):
            m[i, :a.shape[0], :a.shape[1]] = a
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
    """The rank; over GF(2) and GF(3) the pivot count of the forward pass
    on bit rows, which are never back-reduced or unpacked."""
    a, p = m.array, m.field.p
    if p <= 3 and a.shape[0] >= 2 and a.shape[1]:
        return len(_pivot_rows(_bit_rows(a, p)[0], p))
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
    its first `skip` columns, seen on the others: the rows of one RREF
    whose pivot is at or past `skip`, cut there, a canonical int64 basis."""
    red, rk, piv = rref(_held(field, a))
    kept = tuple(c - skip for c in piv if c >= skip)
    basis = _held(field, red.array[rk - len(kept):rk, skip:], kept)
    return Subspace(field, a.shape[1] - skip, basis)


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
    pivset = set(piv)
    extra = [i for i in range(m.cols) if i not in pivset]
    out = np.zeros((len(extra), m.cols), dtype=np.int64)
    for r, i in enumerate(extra):
        out[r, i] = 1
    return _held(m.field, out)


class Subspace:
    """A subspace of F^n held as a canonical RREF basis with no zero rows.

    Equality is representation equality: two subspaces are equal exactly
    when their canonical bases are identical. Slots keep what a first call
    derives: the check rows, the orthogonal complement, and over GF(2) and
    GF(3) the basis's bit rows (`_block_rank`).
    """

    __slots__ = ("field", "ambient", "basis", "pivots", "_checks", "_orthogonal", "_bits")

    def __init__(self, field: PrimeField, ambient: int, basis: MatrixF) -> None:
        if basis.field != field:
            raise FieldMismatchError(f"{basis.field} vs {field}")
        if basis.cols != ambient:
            raise DimensionMismatchError(f"basis width {basis.cols}, ambient {ambient}")
        pivots = basis._echelon
        if pivots is None:
            a = basis.array
            found = []
            last = -1
            for i in range(a.shape[0]):
                nz = np.nonzero(a[i])[0]
                if nz.size == 0 or a[i, nz[0]] != 1 or int(nz[0]) <= last:
                    raise ValueError("basis is not in canonical reduced echelon form")
                c = int(nz[0])
                if np.count_nonzero(a[:, c]) != 1:
                    raise ValueError("basis is not in canonical reduced echelon form")
                found.append(c)
                last = c
            pivots = tuple(found)
        self.field = field
        self.ambient = ambient
        self.basis = basis
        self.pivots = pivots
        self._checks: np.ndarray | None = None
        self._orthogonal: Subspace | None = None
        self._bits: tuple[list[tuple[int, int]], int] | None = None

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
        v = self.field.residues(vec).copy()
        if v.shape != (self.ambient,):
            raise DimensionMismatchError(f"vector length {v.shape}, ambient {self.ambient}")
        p = self.field.p
        a = self.basis.array
        for i, c in enumerate(self.pivots):
            if v[c]:
                v = (v - v[c] * a[i]) % p
        return not v.any()

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

    def _bit_basis(self) -> tuple[list[tuple[int, int]], int]:
        """The basis's bit rows and their width (`_bit_rows`), built on the
        first call and kept; p <= 3. An endpoint code that a reduction
        step derives arrives with them (`_kept_space`)."""
        if self._bits is None:
            a = self.basis.array
            self._bits = _bit_rows(a, self.field.p) if a.size else ([], self.ambient)
        return self._bits

    def _block_rank(self, spans: Iterable[tuple[int, int]], off: bool = False) -> int:
        """The rank of the basis columns in the (offset, width) column
        spans, or with off=True of the columns outside them; p <= 3.

        Each call ANDs the kept bit rows with the spans' column mask,
        placed by the rows' width, and counts the pivots of the forward
        pass alone.
        """
        rows, width = self._bit_basis()
        mask = 0
        for at, d in spans:
            mask |= (1 << d) - 1 << width - at - d
        if off:
            mask = ~mask
        return len(_pivot_rows([(x1 & mask, x2 & mask) for x1, x2 in rows], self.field.p))

    def _block_maps(self, at: int, d: int, cross: bool = False
                    ) -> tuple[tuple[int, ...], np.ndarray]:
        """The pivots of L and N(L)^T (`_quotient_map`), for L the
        projection onto the columns [at, at + d), or with cross=True the
        cross-section there: the words zero off them, seen on them. They
        are what a trim or a merge reads off L.

        Over p >= 5 L is `_vanishing` of the sliced basis, as
        `BlockedCode.project` and `cross_section` take it. Over GF(2) and
        GF(3) L's RREF rows come off the kept bit rows and are never written
        as a basis: the rows masked to the block for a projection, and for
        a cross-section the rows with the block rotated to the end, whose
        pivot rows with a lead in the block are the words.
        """
        field, p = self.field, self.field.p
        if p > 3:
            a = self.basis.array
            if cross:
                rotated = np.hstack([a[:, :at], a[:, at + d:], a[:, at:at + d]])
                space = _vanishing(field, rotated, self.ambient - d)
            else:
                space = _vanishing(field, a[:, at:at + d])
            return space.pivots, _quotient_map(space)
        rows, width = self._bit_basis()
        tail = width - at - d
        block = (1 << d) - 1
        if cross:
            low = (1 << tail) - 1
            kept = _pivot_rows([((x1 >> tail + d << tail | x1 & low) << d | x1 >> tail & block,
                                 (x2 >> tail + d << tail | x2 & low) << d | x2 >> tail & block)
                                for x1, x2 in rows], p)
            kept = {b: row for b, row in kept.items() if b <= d}
        else:
            kept = _pivot_rows([(x1 >> tail & block, x2 >> tail & block) for x1, x2 in rows], p)
        kept = _back_reduced(kept, p)
        leads = sorted(kept, reverse=True)
        pivots = tuple(d - b for b in leads)
        return pivots, _quotient_rows([kept[b] for b in leads], pivots, d, d, p)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.field == other.field and self.ambient == other.ambient
                and self.basis == other.basis)

    def __repr__(self) -> str:
        return f"<subspace dim {self.dim} of {self.field!r}^{self.ambient}>"


def _quotient_map(space: Subspace) -> np.ndarray:
    """N(L)^T for the subspace L, the quotient map modulo L, read off L's
    RREF rows: row f of N(L) is e_f minus column f of L on the pivots
    (`_null_rows`); over GF(2) and GF(3) off its kept bit rows."""
    p = space.field.p
    if p > 3:
        return _null_rows(space.basis.array, space.pivots, p).T
    rows, width = space._bit_basis()
    return _quotient_rows(rows, space.pivots, width, space.ambient, p)


def _quotient_rows(rows: list[tuple[int, int]], pivots: tuple[int, ...], width: int,
                   ambient: int, p: int) -> np.ndarray:
    """N(L)^T for the subspace L of F^ambient, p <= 3, whose RREF bit rows,
    `width` bits wide, have these pivot columns: the identity on the free
    columns, and at pivot c the negated row of c on them, where -1 is
    p - 1 and -2 is 1."""
    taken = set(pivots)
    free = [c for c in range(ambient) if c not in taken]
    q = [[int(c == f) for f in free] for c in range(ambient)]
    at = [width - 1 - f for f in free]
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
    lead lies past v f are the words.
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
        rows, width = space._bit_basis()
        tail = width - at - d
        low = (1 << tail) - 1
        words = []
        for x1, x2 in rows:
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
        past = width - d + new_dim
        out.append(_kept_space(field, {b: row for b, row in _pivot_rows(words, p).items()
                                       if b <= past}, past, space.ambient - d + new_dim))
    return out
