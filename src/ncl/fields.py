"""Exact linear algebra over prime fields GF(p).

Vectors are rows and a subspace is the row space of its basis matrix.
All arithmetic is integer arithmetic mod p; there are no floats
anywhere, so every result is exact. Matrices and every public result
hold int64 residues. Elimination works in one narrower form per field:
over GF(2) the Gauss-Jordan loop holds each row as a Python int, one bit
per column, so a row update is one XOR of machine words, and the
stacked rank loop holds uint8 (`_work_dtype`); over odd p both work in
int32, since every intermediate is below p**2 <= 2**26.

Elimination has two entry points. `_rref_array` is the Gauss-Jordan loop
on one matrix behind rref, rank, kernel, inverse and complete_to_basis.
`ranks` gives only the rank of each matrix in a list, zero-padded into
one stack and eliminated in one loop over its columns; it serves the
many small rank tests behind analyze's verdicts, which would otherwise
be one Python-level elimination each. A single matrix stays on the 2-D
loop: `ranks` gives no RREF or pivots, and a stack of one costs more
(about 0.08 against 0.05 ms on a 6x10 GF(3) matrix).

Inputs are validated at the public boundary only. `MatrixF(...)` reduces
what it is given mod p, and `Subspace(...)` checks that its basis is in
canonical reduced echelon form. Every subspace the package derives is
read off one RREF, which is already both, by `_vanishing(field, a,
skip)`: the words of the row space of the residues `a` that are zero on
the first `skip` columns. With skip = 0 that is a span (every kernel,
complement, sum and projection), and with other columns first a
cross-section or the endpoint code of a reduction step.
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
    MatrixF is the behavior's check system, in `_work_dtype(p)`, which
    `Realization._behavior_code` hands to `kernel` and never lets out;
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
    `_rref_array` returns, null rows and the behavior's check system;
    uint8 when p = 2, where a row update is an XOR, and int32 otherwise.
    Every intermediate is below p**2 <= 2**26 in magnitude, so int32 is
    exact up to MAX_FIELD."""
    return np.uint8 if p == 2 else np.int32


def _rref_array(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Gauss-Jordan elimination mod p; returns (rref, pivot columns).

    rref, rank, kernel, inverse and complete_to_basis all run it. `a`
    holds residues mod p, and the rref comes back in `_work_dtype(p)`:
    callers widen to int64 where they build a MatrixF for a caller. Over
    GF(2) the rows are eliminated as Python ints (`_rref_bits`). Over odd
    p the loop runs on an int32 copy, and each pivot clears its column in
    one block update of every other row with a nonzero there, so the work
    per pivot is a few numpy calls, not one per row.
    """
    if p == 2:
        return _rref_bits(a)
    m = a.astype(_work_dtype(p))
    nrows, ncols = m.shape
    pivots: list[int] = []
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


def _rref_bits(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """`_rref_array` over GF(2), on rows held as Python ints.

    Bit j of a row is column j, so a row operation is one XOR, with no
    numpy call per pivot (word-packed rows as in M4RI: Albrecht, Bard and
    Hart, ACM TOMS 2010). Each row is XOR-reduced at its lowest set bit
    against the rows kept so far, until that bit is a new pivot or the
    row is zero; the kept rows are then back-reduced from the highest
    pivot down. An RREF is unique, so the uint8 result and the pivots are
    those of any other Gauss-Jordan order. A matrix with fewer than two
    rows or no columns is its own RREF and skips the packing.
    """
    nrows, ncols = a.shape
    if nrows < 2 or not ncols:
        m = a.astype(np.uint8)
        return m, m[0].nonzero()[0][:1].tolist() if m.size else []
    width = (ncols + 7) // 8
    packed = np.packbits(a, axis=1, bitorder="little").tobytes()
    kept: dict[int, int] = {}
    for at in range(0, nrows * width, width):
        x = int.from_bytes(packed[at:at + width], "little")
        while x:
            c = (x & -x).bit_length() - 1
            row = kept.get(c)
            if row is None:
                kept[c] = x
                break
            x ^= row
    pivots = sorted(kept)
    # a kept row has no set bit below its pivot, so once the rows of the
    # higher pivots are reduced, XOR-ing one in clears just its pivot bit
    higher = 0
    for c in reversed(pivots):
        row = kept[c]
        hits = row & higher
        while hits:
            low = hits & -hits
            row ^= kept[low.bit_length() - 1]
            hits ^= low
        kept[c] = row
        higher |= 1 << c
    m = np.zeros((nrows, ncols), dtype=np.uint8)
    if pivots:
        rows = b"".join(kept[c].to_bytes(width, "little") for c in pivots)
        m[:len(pivots)] = np.unpackbits(
            np.frombuffer(rows, dtype=np.uint8).reshape(len(pivots), width),
            axis=1, count=ncols, bitorder="little")
    return m, pivots


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
        if bs.size:
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
    return len(_rref_array(m.array, m.field.p)[1])


def kernel(m: MatrixF) -> "Subspace":
    """The right null space {x : m @ x = 0}, as a row-vector subspace."""
    a, piv = _rref_array(m.array, m.field.p)
    return _rref_kernel(m.field, a, piv)


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


def _rref_kernel(field: PrimeField, a: np.ndarray, piv: Sequence[int]) -> "Subspace":
    """The right null space of a matrix in RREF with the given pivot columns."""
    return _vanishing(field, _null_rows(a, piv, field.p))


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
    when their canonical bases are identical. The orthogonal complement
    is kept in a slot on the first `orthogonal()` call.
    """

    __slots__ = ("field", "ambient", "basis", "pivots", "_orthogonal")

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
        self._orthogonal: Subspace | None = None

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

    def orthogonal(self) -> "Subspace":
        """All vectors with zero dot product against every basis row.

        The basis is already in RREF, so its null space is read off it
        without eliminating it again; it is built on the first call and
        kept.
        """
        if self._orthogonal is None:
            self._orthogonal = _rref_kernel(self.field, self.basis.array, self.pivots)
        return self._orthogonal

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.field == other.field and self.ambient == other.ambient
                and self.basis == other.basis)

    def __repr__(self) -> str:
        return f"<subspace dim {self.dim} of {self.field!r}^{self.ambient}>"
