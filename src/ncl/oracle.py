"""Brute-force reference checks.

Everything here re-derives its answers by scanning all |F|^N global
assignments and testing each constraint as a plain parity equation
system, built with list arithmetic rather than the matrix machinery the
main path uses. Slow on purpose; bounded by an explicit budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockcode import DEFAULT_ENUM_CAP, BlockedCode
from .errors import BudgetExceededError, DimensionMismatchError, FieldMismatchError
from .realization import Realization

DEFAULT_MAX_POINTS = DEFAULT_ENUM_CAP
_CHUNK = 1 << 13


@dataclass(frozen=True)
class EnumerationBudget:
    """Cap on how many assignments a brute-force scan may visit."""

    max_points: int = DEFAULT_MAX_POINTS

    def __post_init__(self) -> None:
        if self.max_points <= 0:
            raise ValueError("budget must be positive")


def _nullspace(rows: list[list[int]], ncols: int, p: int) -> list[list[int]]:
    """Right null space of the row list, by plain-integer elimination."""
    m = [[x % p for x in row] for row in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [(x * inv) % p for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(m):
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


def brute_behavior(r: Realization, budget: EnumerationBudget | None = None
                   ) -> list[tuple[int, ...]]:
    """Every satisfying global assignment, symbols first, ascending order."""
    budget = budget or EnumerationBudget()
    r.ensure_valid()
    p = r.field.p
    layout, total = _global_layout(r)
    points = p ** total
    if points > budget.max_points:
        raise BudgetExceededError(
            f"{p}^{total} assignments exceed the budget of {budget.max_points}")
    offset = {vid: at for vid, at, _ in layout}

    parity_rows: list[list[int]] = []
    for c in r.topology.constraints:
        gens = [[int(x) for x in row] for row in r.code(c.id).space.basis.array]
        width = sum(r.topology.var_dim(v) for v in c.vars)
        for h in _nullspace(gens, width, p):
            row = [0] * total
            at = 0
            for v in c.vars:
                d = r.topology.var_dim(v)
                row[offset[v]:offset[v] + d] = h[at:at + d]
                at += d
            parity_rows.append(row)

    checks = np.array(parity_rows, dtype=np.int64).reshape(len(parity_rows), total).T
    divisors = p ** np.arange(total - 1, -1, -1, dtype=np.int64)
    out: list[tuple[int, ...]] = []
    for start in range(0, points, _CHUNK):
        vals = np.arange(start, min(start + _CHUNK, points), dtype=np.int64)
        words = (vals[:, None] // divisors[None, :]) % p
        good = ~((words @ checks) % p).any(axis=1)
        out.extend(tuple(int(x) for x in w) for w in words[good])
    return out


def brute_realized_words(r: Realization, budget: EnumerationBudget | None = None
                         ) -> set[tuple[int, ...]]:
    """Symbol projections of the brute-force behavior, as a set."""
    width = r.topology.total_symbol_dim()
    return {w[:width] for w in brute_behavior(r, budget)}


@dataclass(frozen=True)
class RealizesVerdict:
    """Outcome of comparing a realization against an expected code."""

    ok: bool
    counterexample: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_realizes(r: Realization, expected: BlockedCode,
                   budget: EnumerationBudget | None = None) -> RealizesVerdict:
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
    budget = budget or EnumerationBudget()
    got = brute_realized_words(r, budget)
    want = set(expected.enumerate(budget.max_points))
    if got == want:
        return RealizesVerdict(True)
    return RealizesVerdict(False, min(got ^ want))
