"""Brute-force reference checks.

Everything here re-derives its answers from every parity row of every
constraint, the rows found by list arithmetic rather than the matrix
machinery the main path uses, and accounts for all |F|^N global
assignments. The behavior is found by a join (brute_behavior): each
assignment is a leading half and a trailing half, and it satisfies the
checks exactly when the halves' syndromes cancel, so sorting one side's
syndromes finds each other half's partners directly. It is bounded by
an explicit budget on the assignments and in memory by a fixed chunk
whatever that budget is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockcode import DEFAULT_MAX_POINTS, BlockedCode
from .errors import DimensionMismatchError, EnumerationLimitError, FieldMismatchError
from .realization import Realization

_CHUNK = 1 << 13


def _nullspace(rows: list[list[int]], ncols: int, p: int) -> list[list[int]]:
    """Right null space of the row list, by plain-integer elimination."""
    m = [[x % p for x in row] for row in rows]
    pivots: list[int] = []
    placed = 0
    for col in range(ncols):
        piv = next((i for i in range(placed, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[placed], m[piv] = m[piv], m[placed]
        inv = pow(m[placed][col], p - 2, p)
        m[placed] = [(x * inv) % p for x in m[placed]]
        for i in range(len(m)):
            if i != placed and m[i][col]:
                f = m[i][col]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[placed])]
        pivots.append(col)
        placed += 1
        if placed == len(m):
            break
    basis = []
    for free_col in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[free_col] = 1
        for rix, pc in enumerate(pivots):
            v[pc] = (-m[rix][free_col]) % p
        basis.append(v)
    return basis


def _global_layout(r: Realization) -> tuple[list[tuple[str, int, int]], int]:
    """(id, offset, dim) for symbols then states, and the total width."""
    layout = []
    at = 0
    for var in (*r.topology.symbols, *r.topology.states):
        layout.append((var.id, at, var.dim))
        at += var.dim
    return layout, at


def _digits(vals: np.ndarray, width: int, p: int) -> np.ndarray:
    """The base-p words of the given values, most significant digit first."""
    return vals[:, None] // p ** np.arange(width - 1, -1, -1, dtype=np.int64) % p


def _syndrome_table(rows: np.ndarray, p: int) -> np.ndarray:
    """The syndrome of every base-p word over rows' coordinates: column j
    holds the j-th word's, in ascending order of the words.

    int32 holds every sum before the final reduction: there are at most
    13 rows (p**rows <= _CHUNK = 2**13), each adding less than p**2.
    """
    m = rows.shape[1]
    table = np.zeros((m, 1), dtype=np.int32)
    digits = np.arange(p, dtype=np.int32)[:, None]
    for row in rows[::-1].astype(np.int32):
        # prepend a coordinate: digit d shifts every later word's syndrome by d * row
        table = (row[:, None, None] * digits + table[:, None, :]).reshape(m, p * table.shape[1])
    return table % p


def _keys(syndromes: np.ndarray, p: int) -> np.ndarray:
    """Each row of residues mod p as one exact key, its bytes: one byte
    per residue up to p = 256, two above (p <= 2**13)."""
    cells = np.ascontiguousarray(syndromes, np.uint8 if p <= 256 else np.uint16)
    return cells.view(np.dtype((np.void, cells.shape[1] * cells.itemsize))).ravel()


def brute_behavior(r: Realization, max_points: int = DEFAULT_MAX_POINTS
                   ) -> list[tuple[int, ...]]:
    """Every satisfying global assignment, symbols first, ascending order.

    An assignment is a high part (the leading coordinates) followed by a
    low part (the trailing ones: about half of them, and at most _CHUNK
    values). Its syndrome is the high part's plus the low part's, so it
    satisfies every parity row exactly when the low part's syndrome
    equals the negated high part's. The low parts' syndromes are tabled
    once and sorted by an exact key, their residues as bytes; for each
    chunk of at most _CHUNK high parts, a binary search of the negated
    syndromes' keys finds each high part's run of matching low parts.
    High parts ascend, and the stable sort keeps each run's low parts
    ascending, so the matches come out in ascending order, turned into
    words at most _CHUNK at a time.
    """
    r.ensure_valid()
    p = r.field.p
    layout, total = _global_layout(r)
    points = p ** total
    if points > max_points:
        raise EnumerationLimitError(f"{p}^{total} assignments exceed the budget of {max_points}")
    offset = {vid: at for vid, at, _ in layout}

    parity_rows: list[list[int]] = []
    for c in r.topology.constraints:
        gens = [[int(x) for x in row] for row in r.code(c.id).space.basis.array]
        spans = [(offset[v], r.topology.var_dim(v)) for v in c.vars]
        width = sum(d for _, d in spans)
        for h in _nullspace(gens, width, p):
            row = [0] * total
            at = 0
            for start, d in spans:
                row[start:start + d] = h[at:at + d]
                at += d
            parity_rows.append(row)

    # no parity row: the zero row, which every assignment satisfies, keeps a key one byte wide
    rows = parity_rows or [[0] * total]
    checks = np.array(rows, dtype=np.int64).reshape(len(rows), total).T
    low = 0
    while low < (total + 1) // 2 and p ** (low + 1) <= _CHUNK:
        low += 1
    high = total - low
    low_keys = _keys(_syndrome_table(checks[high:], p).T, p)
    order = np.argsort(low_keys, kind="stable")  # equal keys keep their lows ascending
    low_keys = low_keys[order]
    out: list[tuple[int, ...]] = []
    for start in range(0, p ** high, _CHUNK):
        heads = np.arange(start, min(start + _CHUNK, p ** high), dtype=np.int64)
        wanted = _keys(-(_digits(heads, high, p) @ checks[:high]) % p, p)
        first = np.searchsorted(low_keys, wanted, "left")
        counts = np.searchsorted(low_keys, wanted, "right") - first
        ends = np.cumsum(counts)
        # the chunk's n-th match is head h, the first whose run ends past n,
        # with the low order[first[h] + n - (ends[h] - counts[h])]
        skip = first + counts - ends
        matches = int(ends[-1])
        for at in range(0, matches, _CHUNK):
            n = np.arange(at, min(at + _CHUNK, matches), dtype=np.int64)
            h = np.searchsorted(ends, n, "right")
            vals = heads[h] * p ** low + order[n + skip[h]]
            out.extend(map(tuple, _digits(vals, total, p).tolist()))
    return out


def brute_realized_words(r: Realization, max_points: int = DEFAULT_MAX_POINTS
                         ) -> set[tuple[int, ...]]:
    """Symbol projections of the brute-force behavior, as a set."""
    width = r.topology.total_symbol_dim()
    return {w[:width] for w in brute_behavior(r, max_points)}


@dataclass(frozen=True)
class RealizesVerdict:
    """Outcome of comparing a realization against an expected code."""

    ok: bool
    counterexample: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_realizes(r: Realization, expected: BlockedCode,
                   max_points: int = DEFAULT_MAX_POINTS) -> RealizesVerdict:
    """Set-compare the realized words with the expected code's words.

    An expected code over another field or of another length is a typed
    error, raised before anything is enumerated: its words could only
    differ from the realized ones.
    """
    if expected.field != r.field:
        raise FieldMismatchError(
            f"expected code is over {expected.field!r}, realization over {r.field!r}")
    width = r.topology.total_symbol_dim()
    if expected.structure.total != width:
        raise DimensionMismatchError(
            f"expected code has length {expected.structure.total}, "
            f"the realized code {width}")
    got = brute_realized_words(r, max_points)
    want = set(expected.enumerate(max_points))
    if got == want:
        return RealizesVerdict(True)
    return RealizesVerdict(False, min(got ^ want))
