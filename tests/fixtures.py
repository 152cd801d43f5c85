"""Golden fixtures shared by the unit and acceptance tests.

Expected word sets are computed by tiny standalone helpers (plain
integer arithmetic, no package linear algebra) so they can serve as
independent oracles.
"""

from __future__ import annotations

import json
from itertools import product as iproduct
from pathlib import Path

import numpy as np

from ncl import (
    GF2,
    BlockedCode,
    BlockStructure,
    Constraint,
    MatrixF,
    Realization,
    Span,
    SpannedGenerator,
    StateVar,
    SymbolVar,
    Topology,
    parity_check_realization,
    product_trellis,
)

DATA = Path(__file__).parent / "data"


def span_words(p: int, rows: list[list[int]]) -> set[tuple[int, ...]]:
    """All coefficient combinations of the rows, mod p."""
    if not rows:
        return {()}
    n = len(rows[0])
    out = set()
    for coeffs in iproduct(range(p), repeat=len(rows)):
        w = [0] * n
        for a, row in zip(coeffs, rows):
            for k in range(n):
                w[k] = (w[k] + a * row[k]) % p
        out.add(tuple(w))
    return out


def null_words(p: int, rows: list[list[int]], n: int) -> set[tuple[int, ...]]:
    """All length-n words orthogonal to every row, by full scan."""
    out = set()
    for w in iproduct(range(p), repeat=n):
        if all(sum(h * x for h, x in zip(row, w)) % p == 0 for row in rows):
            out.add(w)
    return out


# length-3 even-weight code on a 3-section tail-biting trellis
EX1_GENS = [
    SpannedGenerator((1, 1, 0), Span(0, 1)),
    SpannedGenerator((0, 1, 1), Span(1, 2)),
    SpannedGenerator((1, 0, 1), Span(2, 0)),
]


def example1() -> Realization:
    return product_trellis(GF2, 3, EX1_GENS)


EX1_WORDS = {(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)}
EX1_DUAL_WORDS = {(0, 0, 0), (1, 1, 1)}

# five checks cutting out an (8,4) self-dual code
RM84_CHECKS = [
    [1, 1, 1, 1, 0, 0, 0, 0],
    [0, 0, 1, 1, 1, 1, 0, 0],
    [0, 0, 0, 0, 1, 1, 1, 1],
    [1, 1, 0, 0, 0, 0, 1, 1],
    [0, 1, 0, 1, 1, 0, 1, 0],
]


def example2() -> Realization:
    return parity_check_realization(GF2, 8, RM84_CHECKS)


def rm84_words() -> set[tuple[int, ...]]:
    return null_words(2, RM84_CHECKS, 8)


# hand-built 5-section tail-biting trellis for a (5,3) code, state dims
# (2,1,1,2,2); one unobservable trajectory
EX3_STATE_DIMS = (2, 1, 1, 2, 2)
EX3_ROWS = {
    "c0": [[0, 1, 1, 0], [1, 0, 0, 1]],
    "c1": [[1, 0, 1], [0, 1, 1]],
    "c2": [[1, 0, 1, 0], [0, 1, 0, 1]],
    "c3": [[0, 0, 1, 0, 1], [0, 1, 1, 1, 0], [1, 0, 0, 1, 0]],
    "c4": [[0, 0, 1, 0, 1], [0, 1, 0, 0, 1], [1, 0, 0, 1, 0]],
}


def example3() -> Realization:
    n = 5
    symbols = tuple(SymbolVar(f"a{i}", 1) for i in range(n))
    states = tuple(StateVar(f"s{j}", EX3_STATE_DIMS[j], f"c{(j - 1) % n}", f"c{j}")
                   for j in range(n))
    constraints = []
    codes = {}
    for i in range(n):
        cid = f"c{i}"
        vars_ = (f"s{i}", f"a{i}", f"s{(i + 1) % n}")
        constraints.append(Constraint(cid, vars_))
        structure = BlockStructure((
            (f"s{i}", EX3_STATE_DIMS[i]),
            (f"a{i}", 1),
            (f"s{(i + 1) % n}", EX3_STATE_DIMS[(i + 1) % n]),
        ))
        rows = np.array(EX3_ROWS[cid], dtype=np.int64)
        codes[cid] = BlockedCode.from_rows(GF2, structure, MatrixF(GF2, rows))
    topo = Topology(symbols, states, tuple(constraints))
    return Realization(GF2, topo, codes)


EX3_GEN_ROWS = [[0, 1, 1, 1, 0], [1, 0, 0, 1, 0], [0, 1, 1, 0, 1]]
EX3_DUAL_ROWS = [[1, 0, 1, 1, 1], [0, 1, 1, 0, 0]]

EX3_DUAL_GENS = [
    SpannedGenerator((1, 0, 1, 1, 1), Span(2, 0)),
    SpannedGenerator((0, 1, 1, 0, 0), Span(degenerate=True)),
]


def example3_dual_product() -> Realization:
    return product_trellis(GF2, 5, EX3_DUAL_GENS)


# conventional trellis with one span stretched past its support: state
# dims (0,1,2,0) where (0,1,1,0) suffices, c2 improper at s2
def conventional_improper() -> Realization:
    return product_trellis(GF2, 3, [
        SpannedGenerator((1, 1, 0), Span(0, 2)),
        SpannedGenerator((0, 1, 1), Span(1, 2)),
    ], "conventional")


# "General graphical realizations do not share this property"
# (arXiv:1202.0534): two constraints joined by three parallel dim-1
# states, reduced, observable, trim and proper everywhere and
# uncontrollable (defect 1), yet with one trajectory-graph component
CRITERION12_DOCUMENT = (
    '{"field": 2, "symbols": [{"id": "a0", "dim": 1}, {"id": "a1", "dim": 2}],'
    ' "states": [{"id": "s0", "dim": 1, "left": "c0", "right": "c1"},'
    ' {"id": "s1", "dim": 1, "left": "c0", "right": "c1"},'
    ' {"id": "s2", "dim": 1, "left": "c0", "right": "c1", "negate_at": "left"}],'
    ' "constraints": [{"id": "c0", "vars": ["s1", "s0", "s2", "a0"],'
    ' "generators": [[1,0,0,1],[0,1,1,0]]},'
    ' {"id": "c1", "vars": ["s1", "s0", "s2", "a1"],'
    ' "generators": [[1,0,0,0,1],[0,1,1,0,1],[0,0,0,1,1]]}]}\n')


def criterion12_witness() -> Realization:
    """The criterion-12 witness, built from its topology and codes."""
    rows = {"c0": [[1, 0, 0, 1], [0, 1, 1, 0]],
            "c1": [[1, 0, 0, 0, 1], [0, 1, 1, 0, 1], [0, 0, 0, 1, 1]]}
    symbols = (SymbolVar("a0", 1), SymbolVar("a1", 2))
    states = (StateVar("s0", 1, "c0", "c1"), StateVar("s1", 1, "c0", "c1"),
              StateVar("s2", 1, "c0", "c1", "left"))
    constraints = (Constraint("c0", ("s1", "s0", "s2", "a0")),
                   Constraint("c1", ("s1", "s0", "s2", "a1")))
    dims = {"a0": 1, "a1": 2, "s0": 1, "s1": 1, "s2": 1}
    codes = {c.id: BlockedCode.from_rows(
        GF2, BlockStructure(tuple((v, dims[v]) for v in c.vars)), rows[c.id])
        for c in constraints}
    return Realization(GF2, Topology(symbols, states, constraints), codes)


# symbol "a" declared with dim 1 and again with dim 2: a DocumentError
# at the second declaration
DECLARED_TWICE = ('{"field": 2, "symbols": [{"id": "a", "dim": 1}, {"id": "a", "dim": 2}],'
                  ' "states": [], "constraints": [{"id": "c0", "vars": ["a"],'
                  ' "generators": [[1]]}]}')


def example1_document() -> str:
    return (DATA / "example1.json").read_text(encoding="utf-8")


def chain_document(n: int) -> str:
    """A GF(2) chain of n constraints, each with one dim-1 symbol and dim-1
    states to its neighbours, and a full local code: no check rows."""
    constraints = []
    for i in range(n):
        names = [f"a{i}"] + [f"s{j}" for j in (i - 1, i) if 0 <= j < n - 1]
        constraints.append({"id": f"c{i}", "vars": names, "generators": [
            [int(j == k) for k in range(len(names))] for j in range(len(names))]})
    return json.dumps({
        "field": 2, "symbols": [{"id": f"a{i}", "dim": 1} for i in range(n)],
        "states": [{"id": f"s{i}", "dim": 1, "left": f"c{i}", "right": f"c{i + 1}"}
                   for i in range(n - 1)],
        "constraints": constraints}, separators=(",", ":")) + "\n"
