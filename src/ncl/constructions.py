"""Standard realization builders and trajectory-graph connectivity.

Builders: generator-style (equality nodes feeding per-position combiner
nodes), parity-check style (its dual, a Tanner graph), and product
trellises (conventional or tail-biting) from spanned generators. Like a
parsed document, the first two give constraints with equal generator
rows one shared subspace, so a Tanner graph of a regular code
eliminates two local codes, not one per node.

trajectory_components builds the graph whose nodes are reachable state
values and whose edges are the branches of the behavior, and counts its
connected components. For a reduced tail-biting trellis, more than one
component is equivalent to uncontrollability; for anything else the
verdict is withheld. One union-find (realization._component_labels)
finds these components and every constraint-graph component too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .blockcode import DEFAULT_MAX_POINTS, BlockedCode, BlockStructure, _trusted
from .errors import EnumerationLimitError
from .fields import PrimeField, Subspace, _held
from .realization import (
    Constraint,
    Realization,
    StateVar,
    SymbolVar,
    Topology,
    _component_labels,
    behavior,
    controllability_defect,
    is_reduced,
)

CONVENTIONAL = "conventional"
TAIL_BITING = "tail-biting"


@dataclass(frozen=True)
class Span:
    """Circular coordinate window of one trellis generator.

    Covered positions run from start to end inclusive, wrapping modulo n.
    The crossed edges are the ones stepped over when walking start..end,
    so a one-position span crosses nothing. A degenerate span covers all
    positions and crosses all edges regardless of start/end.
    """

    start: int = 0
    end: int = 0
    degenerate: bool = False

    def covered(self, n: int) -> list[int]:
        if self.degenerate:
            return list(range(n))
        length = (self.end - self.start) % n + 1
        return [(self.start + u) % n for u in range(length)]

    def crossed(self, n: int) -> list[int]:
        if self.degenerate:
            return list(range(n))
        steps = (self.end - self.start) % n
        return [(self.start + 1 + u) % n for u in range(steps)]

    def wraps(self, n: int) -> bool:
        return self.degenerate or self.start > self.end

    def check(self, n: int) -> None:
        if not (0 <= self.start < n and 0 <= self.end < n):
            raise ValueError(f"span {self.start}:{self.end} out of range for n={n}")


@dataclass(frozen=True)
class SpannedGenerator:
    """One generator vector together with its span window."""

    vector: tuple[int, ...]
    span: Span

    def __post_init__(self) -> None:
        object.__setattr__(self, "vector", tuple(int(v) for v in self.vector))

    def check(self, n: int) -> None:
        if len(self.vector) != n:
            raise ValueError(f"generator length {len(self.vector)} != n={n}")
        self.span.check(n)
        inside = set(self.span.covered(n))
        for k, v in enumerate(self.vector):
            if v and k not in inside:
                raise ValueError(
                    f"generator has nonzero entry at position {k} outside its span")


def _symbol_vars(n: int) -> tuple[SymbolVar, ...]:
    return tuple(SymbolVar(f"a{k}", 1) for k in range(n))


# node prefix -> (what a row is called, the error for an all-zero row)
_ROWS = {
    "gen": ("generator", "zero generator not allowed: its equality node would be isolated"),
    "chk": ("check", "zero check row not allowed: its node would be isolated"),
}


def _bipartite(field: PrimeField, n: int, matrix: Sequence[Sequence[int]], node: str,
               node_code: Callable[[int], np.ndarray],
               position_code: Callable[[np.ndarray], np.ndarray]) -> Realization:
    """The graph both builders share, one node per row and one per position.

    Each nonzero entry m[i][k] becomes a dim-1 state "g{i}@p{k}" from
    row node "{node}{i}" to position node "pos{k}", whose vars are the
    symbol a_k and then its states. node_code(w) gives the residue rows
    generating a row node with w states, position_code(entries) those of
    a position node from its column's nonzero entries in row order.
    """
    noun, zero = _ROWS[node]
    rows = [tuple(int(v) % field.p for v in row) for row in matrix]
    if not rows:
        raise ValueError(f"at least one {noun} required")
    if any(len(row) != n for row in rows):
        raise ValueError(f"all {noun}s must have length n")
    if any(not any(row) for row in rows):
        raise ValueError(zero)

    supports = [tuple(k for k, v in enumerate(row) if v) for row in rows]
    columns = [tuple(i for i, row in enumerate(rows) if row[k]) for k in range(n)]

    states = tuple(StateVar(f"g{i}@p{k}", 1, f"{node}{i}", f"pos{k}")
                   for i, supp in enumerate(supports) for k in supp)
    constraints = []
    codes: dict[str, BlockedCode] = {}
    # (width, generator rows) -> the one space built for them, as parse_realization keys it
    spaces: dict[tuple, Subspace] = {}

    def add(cid: str, vars_: tuple[str, ...], local: np.ndarray) -> None:
        constraints.append(Constraint(cid, vars_))
        key = (len(vars_), tuple(map(tuple, local.tolist())))
        if key not in spaces:
            spaces[key] = Subspace.spanned_by(field, len(vars_), _held(field, local))
        codes[cid] = BlockedCode(BlockStructure(tuple((v, 1) for v in vars_)), spaces[key])

    for i, supp in enumerate(supports):
        add(f"{node}{i}", tuple(f"g{i}@p{k}" for k in supp), node_code(len(supp)))
    for k in range(n):
        entries = np.array([rows[i][k] for i in columns[k]], dtype=np.int64)
        add(f"pos{k}", (f"a{k}",) + tuple(f"g{i}@p{k}" for i in columns[k]),
            position_code(entries))

    topo = Topology(_symbol_vars(n), states, tuple(constraints))
    return _trusted(Realization, field=field, topology=topo, _codes=codes,
                    _issues=tuple(topo._graph_issues()))  # zero columns disconnect


def generator_realization(field: PrimeField, n: int,
                          generators: Sequence[Sequence[int]]) -> Realization:
    """Equality node per generator, combiner node per position.

    Each nonzero entry g[i][k] becomes a dim-1 replica state "g{i}@p{k}"
    from equality node "gen{i}" to position node "pos{k}"; the position
    node pins its symbol to the weighted sum of incoming replicas. The
    realized code is the row span of the generators.
    """
    def weighted_sum(entries: np.ndarray) -> np.ndarray:
        # one word per replica: the replica at 1, the symbol at its weight
        return np.hstack([entries.reshape(-1, 1), np.eye(len(entries), dtype=np.int64)])

    return _bipartite(field, n, generators, "gen",
                      lambda w: np.ones((1, w), dtype=np.int64), weighted_sum)


def parity_check_realization(field: PrimeField, n: int,
                             checks: Sequence[Sequence[int]]) -> Realization:
    """Tanner graph: zero-sum node per check, equality-style node per position.

    The position node for symbol a_k pins every incident replica to
    h[i][k] * a_k; the check node forces its replicas to sum to zero.
    Realizes the right null space of the check matrix. Equals the dual
    of the generator-style realization of the checks, with "gen" nodes
    renamed "chk".
    """
    def zero_sum(w: int) -> np.ndarray:
        # e_0 - e_j for each j > 0 spans the words that sum to zero
        return np.hstack([np.ones((w - 1, 1), dtype=np.int64),
                          (field.p - 1) * np.eye(w - 1, dtype=np.int64)])

    return _bipartite(field, n, checks, "chk", zero_sum,
                      lambda entries: np.concatenate([[1], entries]).reshape(1, -1))


def product_trellis(field: PrimeField, n: int, gens: Sequence[SpannedGenerator],
                    kind: str = TAIL_BITING) -> Realization:
    """Product construction: one section per position, states sized by spans.

    Edge j, state s{j}, joins nodes[j] and nodes[j + 1] of one node list:
    the ring [c{n-1}, c0, ..., c{n-1}] of a tail-biting trellis, or the
    path [end0, c0, ..., c{n-1}, end1] of a conventional one, whose ends
    are empty constraints on dim-0 states and which forbids wrap-around
    and degenerate spans. State j has one coordinate per generator whose
    span crosses edge j. Section c{i} has one local word per generator:
    its edge-i indicator, its value at i, and its indicator on edge
    (i + 1) mod the edge count. Realizes the row span of the generators.
    """
    if kind not in (CONVENTIONAL, TAIL_BITING):
        raise ValueError(f"unknown trellis kind {kind!r}")
    # spans are checked on residues: an entry that is 0 mod p is a zero
    gens = [SpannedGenerator(tuple(v % field.p for v in g.vector), g.span) for g in gens]
    if not gens:
        raise ValueError("at least one spanned generator required")
    if kind == TAIL_BITING and n < 2:
        raise ValueError("tail-biting trellis needs n >= 2")
    if kind == CONVENTIONAL and n < 1:
        raise ValueError("conventional trellis needs n >= 1")
    for g in gens:
        g.check(n)
        if kind == CONVENTIONAL and g.span.wraps(n):
            raise ValueError(
                "conventional trellis forbids wrap-around and degenerate spans")

    sections = [f"c{i}" for i in range(n)]
    nodes = [sections[-1], *sections] if kind == TAIL_BITING else ["end0", *sections, "end1"]
    edges = len(nodes) - 1
    crossers: list[list[int]] = [[] for _ in range(edges)]
    for t, g in enumerate(gens):
        for j in g.span.crossed(n):
            crossers[j].append(t)
    states = tuple(StateVar(f"s{j}", len(crossers[j]), nodes[j], nodes[j + 1])
                   for j in range(edges))

    constraints = []
    codes: dict[str, BlockedCode] = {}
    for i, cid in enumerate(sections):
        j_in, j_out = i, (i + 1) % edges
        vars_ = (f"s{j_in}", f"a{i}", f"s{j_out}")
        constraints.append(Constraint(cid, vars_))
        d_in, d_out = len(crossers[j_in]), len(crossers[j_out])
        local = np.zeros((len(gens), d_in + 1 + d_out), dtype=np.int64)
        local[crossers[j_in], np.arange(d_in)] = 1
        local[:, d_in] = [g.vector[i] for g in gens]
        local[crossers[j_out], d_in + 1 + np.arange(d_out)] = 1
        structure = BlockStructure(((f"s{j_in}", d_in), (f"a{i}", 1), (f"s{j_out}", d_out)))
        codes[cid] = BlockedCode.from_rows(field, structure, _held(field, local))
    if kind == CONVENTIONAL:
        for cid, sid in (("end0", "s0"), ("end1", f"s{n}")):
            constraints.append(Constraint(cid, (sid,)))
            structure = BlockStructure(((sid, 0),))
            codes[cid] = BlockedCode.from_rows(field, structure, [])

    topo = Topology(_symbol_vars(n), states, tuple(constraints))
    return _trusted(Realization, field=field, topology=topo, _codes=codes, _issues=())


def is_tail_biting_trellis(topology: Topology) -> bool:
    """Single cycle of constraints, each touching exactly two states."""
    if len(topology.constraints) < 2:
        return False
    if len(topology.states) != len(topology.constraints):
        return False
    for c in topology.constraints:
        if sum(1 for v in c.vars if topology.is_state(v)) != 2:
            return False
    return topology.is_connected()


@dataclass(frozen=True)
class ComponentReport:
    """Trajectory-graph connectivity summary."""

    count: int
    partition: tuple[tuple[str, tuple[int, ...], int], ...]
    tail_biting: bool
    reduced: bool
    defect: int
    uncontrollable: bool | None
    warning: str | None


def trajectory_components(r: Realization, *,
                          max_points: int = DEFAULT_MAX_POINTS) -> ComponentReport:
    """Count connected pieces of the behavior's state-value branch graph.

    Nodes are the (state, value) pairs that actually occur; every branch
    of every section links the state values it passes through. The
    uncontrollable verdict is populated only for reduced tail-biting
    trellises, where disconnection is equivalent to uncontrollability.
    The state values and branch words it enumerates, p^dim per projection,
    count together against max_points, checked before any is enumerated.
    """
    r.ensure_valid()
    b = behavior(r)
    topo = r.topology
    # symbol coordinates add words but no edges: a branch is its state values only
    state_sets = ([v for v in c.vars if topo.is_state(v)] for c in topo.constraints)
    branches = [vs for vs in state_sets if len(vs) >= 2]
    values = [b.project([s.id]) for s in topo.states]
    words = [b.project(vs) for vs in branches]
    points = sum(r.field.p ** proj.dim for proj in (*values, *words))
    if points > max_points:
        raise EnumerationLimitError(
            f"{points} state values and branch words exceed the budget of {max_points}")

    node_index: dict[tuple[str, tuple[int, ...]], int] = {}
    for s, proj in zip(topo.states, values):
        for value in proj.enumerate(max_points):
            node_index.setdefault((s.id, value), len(node_index))

    def branch_edges() -> Iterator[tuple[int, int]]:
        for state_vars, branch in zip(branches, words):
            offsets = [(v, branch.structure.offset(v), topo.var_dim(v)) for v in state_vars]
            for word in branch.enumerate(max_points):
                touched = [node_index[(v, word[at:at + d])] for v, at, d in offsets]
                yield from zip(touched, touched[1:])

    labels = _component_labels(len(node_index), branch_edges())
    partition = tuple((sid, value, comp) for (sid, value), comp in zip(node_index, labels))
    count = max(labels, default=0) + 1

    tb = is_tail_biting_trellis(topo)
    red = is_reduced(r)
    defect = controllability_defect(r)
    if tb and red:
        verdict: bool | None = count > 1
        warning = None
    else:
        verdict = None
        warning = ("connectivity verdict withheld: disconnection is equivalent to "
                   "uncontrollability only for reduced tail-biting trellises")
    return ComponentReport(count, partition, tb, red, defect, verdict, warning)
