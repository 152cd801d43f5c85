"""Seeded random instance generators and small reference operations
shared across the test modules."""

from __future__ import annotations

import ast
import random
import re
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from ncl import (
    AnalysisReport,
    BlockedCode,
    BlockStructure,
    Constraint,
    ConstraintReport,
    DEFAULT_MAX_POINTS,
    DimensionMismatchError,
    EdgeCut,
    EnumerationLimitError,
    FieldMismatchError,
    MatrixF,
    NotCycleFreeError,
    PrimeField,
    ProperVerdict,
    Realization,
    ReductionStep,
    Span,
    SpannedGenerator,
    StateVar,
    Subspace,
    SymbolVar,
    Topology,
    TrimVerdict,
    ValidationIssue,
    behavior,
    complete_to_basis,
    controllability_defect,
    dualize,
    is_proper,
    is_trim,
    kernel,
    product_trellis,
    rank,
    reduce_unobservable,
    unobservable_behavior,
)
from ncl.blockcode import _trusted
from ncl.constructions import _ROWS, CONVENTIONAL, TAIL_BITING
from ncl.docio import DocumentError, _document_head, _int_rows, _matrix, _require
from ncl.fields import _bit_rows, _held, _null_rows
from ncl.oracle import _CHUNK, _global_layout, _nullspace
from ncl.reduction import MERGE, TRIM, UNOBS_TRIM, _unobservable_direction

SRC = Path(__file__).resolve().parents[1] / "src" / "ncl"


def scoped_hits(module: str, source: str, hit: Callable[[ast.AST], bool]) -> list[str]:
    """The scope (module, then classes and functions) of each ast node of
    the source for which hit(node) holds, in source order: the one visitor
    of the ast guards over src/ncl."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            if hit(child):
                found.append((child.lineno, child.col_offset, inner))
            visit(child, inner)

    visit(ast.parse(source), module)
    return [scope for _, _, scope in sorted(found)]


def scoped_hits_in_src(hit: Callable[[ast.AST], bool]) -> list[str]:
    """scoped_hits over every module of src/ncl, named by its stem."""
    return [scope for path in sorted(SRC.glob("*.py"))
            for scope in scoped_hits(path.stem, path.read_text(encoding="utf-8"), hit)]


def neg(field: PrimeField, a: int) -> int:
    return -a % field.p


def inv(field: PrimeField, a: int) -> int:
    a %= field.p
    if a == 0:
        raise ZeroDivisionError("0 has no inverse")
    return pow(a, field.p - 2, field.p)


def identity(field: PrimeField, n: int) -> MatrixF:
    return MatrixF(field, np.eye(n, dtype=np.int64))


def zeros(field: PrimeField, rows: int, cols: int) -> MatrixF:
    return MatrixF(field, np.zeros((rows, cols), dtype=np.int64))


def transpose(m: MatrixF) -> MatrixF:
    return MatrixF(m.field, m.array.T)


def mul(a: MatrixF, b: MatrixF) -> MatrixF:
    if a.field != b.field:
        raise FieldMismatchError(f"{a.field} vs {b.field}")
    if a.cols != b.rows:
        raise DimensionMismatchError(f"cannot multiply {a.shape} by {b.shape}")
    return MatrixF(a.field, (a.array @ b.array) % a.field.p)


def _block(code: BlockedCode, var_id: str) -> np.ndarray:
    """The columns of the code's basis on one of its blocks."""
    at = code.structure.offset(var_id)
    return code.space.basis.array[:, at:at + code.structure.dim(var_id)]


def _quotient_map(space: Subspace) -> np.ndarray:
    """N(L)^T for the subspace L, the quotient map modulo L, read off L's
    RREF rows: row f of N(L) is e_f minus column f of L on the pivots."""
    return _null_rows(space.basis.array, space.pivots, space.field.p).T


def assert_rows_kept(space):
    """The space arrived with the bit rows its basis gives afresh, and
    answers block ranks from them as `rank` of the sliced basis does."""
    a = space.basis.array
    assert space._bits is not None
    assert space._bits == (_bit_rows(a, space.field.p) if a.size else [])
    n = space.ambient
    for spans in ([(0, n // 2)], [(n // 3, n - n // 3)]):
        cols = np.zeros(n, dtype=bool)
        for at, d in spans:
            cols[at:at + d] = True
        for off in (False, True):
            want = rank(_held(space.field, a[:, cols != off])) if a.size else 0
            assert space._block_rank(spans, off) == want


def zero_space(field: PrimeField, ambient: int) -> Subspace:
    return Subspace(field, ambient, zeros(field, 0, ambient))


def full_space(field: PrimeField, ambient: int) -> Subspace:
    return Subspace(field, ambient, identity(field, ambient))


def reference_dual_merge(r: Realization) -> tuple[Realization, ReductionStep]:
    """The dual merge as the composition that defines it: the
    unobservability trim of the dual realization, dualized back."""
    rd = dualize(r)
    state_id, line = _unobservable_direction(rd, unobservable_behavior(rd))
    trimmed, _ = reduce_unobservable(rd)
    # G[1:] of the basis G = [g; complete_to_basis(g)] that the trim cuts g from
    rest = complete_to_basis(line.basis)
    step = ReductionStep("dual-merge", state_id, line.ambient, line.ambient - 1, rest)
    return dualize(trimmed), step


def reference_trajectory_partition(r: Realization, max_points: int
                                   ) -> tuple[int, tuple[tuple[str, tuple[int, ...], int], ...]]:
    """(count, partition) of the trajectory graph by its own union-find, as
    trajectory_components computed them before the constraint graph and
    the trajectory graph shared one: components numbered in the order of
    their first (state, value) node."""
    b = behavior(r)
    topo = r.topology
    node_index: dict[tuple[str, tuple[int, ...]], int] = {}
    for s in topo.states:
        for value in b.project([s.id]).enumerate(max_points):
            node_index.setdefault((s.id, value), len(node_index))

    parent = list(range(len(node_index)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for c in topo.constraints:
        state_vars = [v for v in c.vars if topo.is_state(v)]
        if len(state_vars) < 2:
            continue
        branch = b.project(state_vars)
        offsets = [(v, branch.structure.offset(v), topo.var_dim(v)) for v in state_vars]
        for word in branch.enumerate(max_points):
            touched = [node_index[(v, word[at:at + d])] for v, at, d in offsets]
            for a, bb in zip(touched, touched[1:]):
                union(a, bb)

    roots: dict[int, int] = {}
    partition = []
    for (sid, value), idx in node_index.items():
        comp = roots.setdefault(find(idx), len(roots))
        partition.append((sid, value, comp))
    return max(len(roots), 1), tuple(partition)


def random_matrix(rng: random.Random, field: PrimeField, rows: int, cols: int) -> MatrixF:
    data = np.array([[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)],
                    dtype=np.int64).reshape(rows, cols)
    return MatrixF(field, data)


def random_blocked_code(rng: random.Random, field: PrimeField,
                        blocks: tuple[tuple[str, int], ...]) -> BlockedCode:
    structure = BlockStructure(blocks)
    k = rng.randint(0, structure.total + 1)
    return BlockedCode.from_rows(field, structure, random_matrix(rng, field, k, structure.total))


def random_realization(rng: random.Random, field: PrimeField, *,
                       max_constraints: int = 4, max_dim: int = 2,
                       total_cap: int = 12, allow_cycles: bool = True,
                       extra_edges: int = 0) -> Realization:
    """A structurally valid random realization within a total-dimension cap.

    A random tree of constraints, with one more edge 40% of the time when
    allow_cycles, and then extra_edges more between random pairs of
    constraints (parallel states allowed), so each of those closes
    another cycle.
    """
    while True:
        m = rng.randint(1, max_constraints)
        edges: list[tuple[int, int]] = []
        for i in range(1, m):
            edges.append((rng.randrange(i), i))
        if allow_cycles and m >= 2 and rng.random() < 0.4:
            a, b = rng.sample(range(m), 2)
            edges.append((a, b))
        if m >= 2:
            edges += [tuple(rng.sample(range(m), 2)) for _ in range(extra_edges)]

        states = []
        for idx, (a, b) in enumerate(edges):
            negate = rng.choice(("left", "right"))
            states.append(StateVar(f"s{idx}", rng.randint(0, max_dim),
                                   f"c{a}", f"c{b}", negate))
        symbols = []
        attach: dict[int, list[str]] = {i: [] for i in range(m)}
        n_sym = rng.randint(1, max(2, m))
        for k in range(n_sym):
            owner = rng.randrange(m)
            symbols.append(SymbolVar(f"a{k}", rng.randint(0, max_dim)))
            attach[owner].append(f"a{k}")

        total = sum(s.dim for s in states) + sum(a.dim for a in symbols)
        if total > total_cap:
            continue

        constraints = []
        codes = {}
        for i in range(m):
            vars_ = list(attach[i])
            for idx, (a, b) in enumerate(edges):
                if i in (a, b):
                    vars_.append(f"s{idx}")
            rng.shuffle(vars_)
            cid = f"c{i}"
            constraints.append(Constraint(cid, tuple(vars_)))
        dims = {v.id: v.dim for v in symbols} | {v.id: v.dim for v in states}
        topo = Topology(tuple(symbols), tuple(states), tuple(constraints))
        for c in constraints:
            blocks = tuple((v, dims[v]) for v in c.vars)
            codes[c.id] = random_blocked_code(rng, field, blocks)
        return Realization(field, topo, codes)


def reference_brute_behavior(r: Realization, max_points: int = DEFAULT_MAX_POINTS
                             ) -> list[tuple[int, ...]]:
    """brute_behavior as one chunked loop over the assignments: each chunk
    spelled out digit by digit and multiplied into every parity row."""
    r.ensure_valid()
    p = r.field.p
    layout, total = _global_layout(r)
    points = p ** total
    if points > max_points:
        raise EnumerationLimitError(
            f"{p}^{total} assignments exceed the budget of {max_points}")
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


def random_tree_realization(rng: random.Random, field: PrimeField, *,
                            max_constraints: int = 5, max_dim: int = 2,
                            total_cap: int = 12) -> Realization:
    return random_realization(rng, field, max_constraints=max_constraints,
                              max_dim=max_dim, total_cap=total_cap, allow_cycles=False)


def in_constraint_order(r: Realization, order) -> Realization:
    """r with the same codes over Topology(symbols, states, the constraints
    in order): the order every sweep of the reduction driver follows."""
    topo = r.topology
    return Realization(r.field, Topology(topo.symbols, topo.states,
                                         [topo.constraint(cid) for cid in order]), r.codes)


def random_support_matrix(rng: random.Random, field: PrimeField,
                          m: int, n: int) -> list[list[int]]:
    """Rows over GF(p): no zero row or column, connected bipartite support."""
    while True:
        rows = [[rng.randrange(field.p) if rng.random() < 0.6 else 0 for _ in range(n)]
                for _ in range(m)]
        if any(not any(row) for row in rows):
            continue
        if any(all(row[k] == 0 for row in rows) for k in range(n)):
            continue
        parent = list(range(m + n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, row in enumerate(rows):
            for k, v in enumerate(row):
                if v:
                    parent[find(m + k)] = find(i)
        if len({find(x) for x in range(m + n)}) == 1:
            return rows


def random_spanned_generator(rng: random.Random, field: PrimeField, n: int,
                             *, allow_degenerate: bool = True) -> SpannedGenerator:
    if allow_degenerate and rng.random() < 0.3:
        span = Span(degenerate=True)
        covered = list(range(n))
    else:
        start = rng.randrange(n)
        end = (start + rng.randrange(n)) % n
        span = Span(start, end)
        covered = span.covered(n)
    vec = [0] * n
    for k in covered:
        vec[k] = rng.randrange(field.p)
    if not any(vec):
        vec[rng.choice(covered)] = rng.randrange(1, field.p)
    return SpannedGenerator(tuple(vec), span)


def random_tail_biting_product(rng: random.Random, field: PrimeField, *,
                               max_n: int = 8, max_gens: int = 4,
                               allow_degenerate: bool = True) -> Realization:
    n = rng.randint(2, max_n)
    m = rng.randint(1, max_gens)
    gens = [random_spanned_generator(rng, field, n, allow_degenerate=allow_degenerate)
            for _ in range(m)]
    return product_trellis(field, n, gens, "tail-biting")


def ladder_trellis(rng: random.Random, field: PrimeField, n: int, *,
                   chain: int = 6) -> Realization:
    """The tail-biting product trellis of ladder_generators."""
    return product_trellis(field, n, ladder_generators(rng, field, n, chain=chain),
                           "tail-biting")


def ladder_generators(rng: random.Random, field: PrimeField, n: int, *,
                      chain: int = 6) -> list[SpannedGenerator]:
    """The generators of a tail-biting trellis shaped like the benchmark's
    trellis-reduce documents, in a shuffled order.

    chain generators tile the circle with values that cancel where they
    meet, so their sum is zero: one unobservable direction that only the
    unobservability trim removes, after which trims follow around the
    cycle. n // 4 short generators (spans 1, 2, 3 in turn) avoid the
    chain's cut points; some of them have a zero at one span end, which
    leaves a merge to make. Raises ValueError, before drawing anything,
    when no gap between the cuts fits the longest short generator.
    """
    p = field.p
    cuts = [n // (2 * chain) + (i * n) // chain for i in range(chain)]
    short = n // 4
    longest = min(short, 3)
    if short and all(set(cuts).intersection((s + u) % n for u in range(longest + 1))
                     for s in range(n)):
        raise ValueError(f"n = {n} with chain {chain}: no {longest + 1} positions in a "
                         f"row avoid the cuts {cuts}, so no span-{longest} generator fits")
    gens = []
    first = a = rng.randrange(1, p)
    for i in range(chain):
        start, end = cuts[i], cuts[(i + 1) % chain]
        b = rng.randrange(1, p) if i < chain - 1 else (-first) % p
        vec = [0] * n
        vec[start], vec[end] = a, b
        gens.append(SpannedGenerator(tuple(vec), Span(start, end)))
        a = (-b) % p
    for j in range(short):
        length = 1 + j % 3
        while True:
            start = rng.randrange(n)
            covered = [(start + u) % n for u in range(length + 1)]
            if not set(cuts).intersection(covered):
                break
        vec = [0] * n
        for k in covered:
            vec[k] = rng.randrange(1, p)
        if j < 3 * short // 8 and length >= 2:
            vec[covered[rng.choice((0, -1))]] = 0
        gens.append(SpannedGenerator(tuple(vec), Span(start, (start + length) % n)))
    rng.shuffle(gens)
    return gens


def ladder_conventional_trellis(rng: random.Random, field: PrimeField, n: int) -> Realization:
    """A conventional trellis shaped like the benchmark's minimize documents.

    3n // 8 short generators (spans 1, 2, 3 in turn, none wrapping); the
    first n // 8 of them that are 2+ long have a zero at one span end,
    which leaves a merge to make.
    """
    p = field.p
    gens = []
    for j in range(3 * n // 8):
        length = 1 + j % 3
        start = rng.randrange(n - length)
        vec = [0] * n
        for k in range(start, start + length + 1):
            vec[k] = rng.randrange(1, p)
        if j < n // 8 and length >= 2:
            vec[rng.choice((start, start + length))] = 0
        gens.append(SpannedGenerator(tuple(vec), Span(start, start + length)))
    rng.shuffle(gens)
    return product_trellis(field, n, gens, "conventional")


def sympy_rank(a, p: int) -> int:
    """The rank of the residues `a` mod p, from sympy's sparse
    DomainMatrix over GF(p), independent of ncl.fields. The entries go in
    as GF(p) elements: fed ints, DomainMatrix reported ranks above the
    column count."""
    a = np.asarray(a, dtype=np.int64)
    k = GF(p)
    return DomainMatrix([[k(int(x)) for x in row] for row in a], a.shape, k).to_sparse().rank()


def gallager_checks(rng: random.Random, n: int) -> list[list[int]]:
    """Check matrix of a (3,6)-regular LDPC code, Gallager's way: three
    stacked blocks of n // 6 rows, each block a random permutation of the
    n columns cut into rows of six, so no check lists a variable twice."""
    rows = []
    for _ in range(3):
        perm = list(range(n))
        rng.shuffle(perm)
        rows += [perm[6 * i:6 * i + 6] for i in range(n // 6)]
    return [[int(k in row) for k in range(n)] for row in rows]


def reference_behavior(r: Realization) -> BlockedCode:
    """The behavior built through the checking MatrixF constructor, as
    realization._behavior_code built it before the system skipped its
    % p copy."""
    r.ensure_valid()
    topo = r.topology
    frame = BlockStructure(tuple(
        (v.id, v.dim) for v in (*topo.symbols, *topo.states)))
    rows = [np.zeros((0, frame.total), dtype=np.int64)]
    for c in topo.constraints:
        h = r.code(c.id).dual().space.basis.array
        emb = np.zeros((h.shape[0], frame.total), dtype=np.int64)
        emb[:, frame.positions(c.vars)] = h
        rows.append(emb)
    return BlockedCode(frame, kernel(MatrixF(r.field, np.vstack(rows))))


def _rank(field: PrimeField, a: np.ndarray) -> int:
    """The 2-D `rank` of one sliced block: on bit rows over GF(2) and
    GF(3), by `_rref_array` over p >= 5; never the stacked `ranks`."""
    return rank(MatrixF(field, a))


def reference_is_state_trim(r: Realization) -> bool:
    """is_state_trim with one sliced block per state, each ranked alone."""
    b = behavior(r)
    return all(_rank(r.field, _block(b, s.id)) == s.dim for s in r.topology.states)


def reference_is_branch_trim(r: Realization) -> bool:
    """is_branch_trim with one sliced block per constraint, each ranked alone."""
    b = behavior(r)
    return all(_rank(r.field, b.space.basis.array[:, b.structure.positions(c.vars)])
               == r.code(c.id).dim for c in r.topology.constraints)


def reference_analyze(r: Realization) -> AnalysisReport:
    """analyze with one trim and one proper block ranked per (constraint,
    state) incidence, as it was before the verdicts were asked once per
    distinct local code; the behavior's state-trim and branch-trim tests
    are the sliced references above."""
    r.ensure_valid()
    topo = r.topology
    b = behavior(r)
    realized = b.projection_dim(topo.symbol_ids())
    unobs = b.dim - realized
    defect = controllability_defect(r)
    incidences = topo.incidences()
    full = []
    for cid, v in incidences:
        code = r.code(cid)
        full += (_rank(r.field, _block(c, v)) == topo.var_dim(v) for c in (code, code.dual()))
    trim_ok = dict(zip(incidences, full[0::2]))
    improper = {cid for (cid, _), ok in zip(incidences, full[1::2]) if not ok}
    reports = []
    for c in topo.constraints:
        trims = tuple(TrimVerdict(True, c.id, v) if trim_ok[c.id, v] else is_trim(r, c.id, v)
                      for v in c.vars if topo.is_state(v))
        proper = is_proper(r, c.id) if c.id in improper else ProperVerdict(True, c.id)
        reports.append(ConstraintReport(c.id, r.code(c.id).dim, trims, proper))
    trim_proper = all(cr.fully_trim and cr.proper.ok for cr in reports)
    cycle_free = topo.is_cycle_free()
    state_trim = reference_is_state_trim(r)
    branch_trim = reference_is_branch_trim(r)
    observable = unobs == 0
    controllable = defect == 0
    return AnalysisReport(
        field_order=r.field.p,
        symbol_dims=tuple((s.id, s.dim) for s in topo.symbols),
        state_dims=tuple((s.id, s.dim) for s in topo.states),
        constraint_dims=tuple((c.id, r.code(c.id).dim) for c in topo.constraints),
        behavior_dim=b.dim,
        realized_dim=realized,
        unobservable_dim=unobs,
        defect=defect,
        observable=observable,
        controllable=controllable,
        state_trim=state_trim,
        branch_trim=branch_trim,
        reduced=state_trim and branch_trim,
        cycle_free=cycle_free,
        minimal=trim_proper if cycle_free else None,
        trim_proper=trim_proper,
        locally_reducible=not trim_proper or not observable or not controllable,
        constraints=tuple(reports),
    )


def reference_cross_section(code: BlockedCode, block_ids) -> BlockedCode:
    """BlockedCode.cross_section as a left kernel and a second span: the
    coefficient vectors y with y g = 0 off the blocks, times g on them."""
    keep = code.structure.positions(block_ids)
    kept = set(block_ids)
    drop = code.structure.positions([b for b in code.structure.ids() if b not in kept])
    g = code.space.basis.array
    coeffs = kernel(MatrixF(code.field, g[:, drop].T))
    rows = (coeffs.basis.array @ g[:, keep]) % code.field.p
    sub = code.structure.restrict(block_ids)
    return BlockedCode(sub, Subspace.spanned_by(code.field, sub.total, MatrixF(code.field, rows)))


def reference_shrink(r: Realization, kind: str, state_id: str, f: np.ndarray, x: np.ndarray,
                     constraint_id: str | None = None) -> tuple[Realization, ReductionStep]:
    """reduction._shrink with each endpoint code updated in three passes:
    the left kernel of v F picks the surviving rows (all of them when
    v F = 0), their value v is rewritten as v X, and the rows are spanned
    again."""
    field, p = r.field, r.field.p
    state = r.topology.state(state_id)
    d, new_dim = x.shape
    spaces = []
    for cid in (state.left, state.right):
        code = r.code(cid)
        g = code.space.basis.array
        at = code.structure.offset(state_id)
        prod = (g[:, at:at + d] @ f) % p
        if prod.any():
            g = (kernel(MatrixF(field, prod.T)).basis.array @ g) % p
        mapped = np.hstack([g[:, :at], (g[:, at:at + d] @ x) % p, g[:, at + d:]])
        spaces.append(Subspace.spanned_by(field, mapped.shape[1], MatrixF(field, mapped)))
    step = ReductionStep(kind, state_id, d, new_dim, MatrixF(field, x.T), constraint_id)
    return r._with_state(state_id, new_dim, tuple(spaces)), step


def reference_move(r: Realization, kind: str, state_id: str | None = None,
                   constraint_id: str | None = None) -> tuple[Realization, ReductionStep]:
    """trim_state, merge_state or reduce_unobservable (kind TRIM, MERGE or
    UNOBS_TRIM; the last one chooses its own state) with F and X read as
    those moves read them, every cross-section and endpoint update taken
    by the references above."""
    if kind == TRIM:
        proj = r.code(constraint_id).project([state_id]).space
        keep = np.eye(proj.ambient, dtype=np.int64)[:, list(proj.pivots)]
        return reference_shrink(r, TRIM, state_id, _quotient_map(proj), keep, constraint_id)
    if kind == MERGE:
        section = reference_cross_section(r.code(constraint_id), [state_id]).space
        zero = np.zeros((section.ambient, 0), dtype=np.int64)
        return reference_shrink(r, MERGE, state_id, zero, _quotient_map(section), constraint_id)
    unobs = reference_cross_section(behavior(r), r.topology.state_ids())
    trajectory = unobs.space.basis.array[0]
    for s in r.topology.states:
        block = trajectory[unobs.structure.offset(s.id):][:s.dim]
        if block.any():
            line = Subspace.spanned_by(r.field, s.dim, MatrixF(r.field, block.reshape(1, -1)))
            e_j = np.eye(s.dim, dtype=np.int64)[:, list(line.pivots)]
            return reference_shrink(r, UNOBS_TRIM, s.id, e_j, _quotient_map(line))
    raise AssertionError("nonzero unobservable trajectory with all-zero state blocks")


def reference_is_proper(r: Realization, cid: str) -> ProperVerdict:
    """is_proper as the trim question of the dual: per state, the null
    space of the check matrix's columns there is the cross-section, and
    its first canonical generator is the witness."""
    code = r.code(cid)
    for v in r.topology.constraint(cid).vars:
        if not r.topology.is_state(v):
            continue
        section = kernel(MatrixF(r.field, _block(code.dual(), v)))
        if section.dim:
            word = np.zeros(code.structure.total, dtype=np.int64)
            at = code.structure.offset(v)
            word[at:at + section.ambient] = section.basis.row(0)
            return ProperVerdict(False, cid, v, tuple(int(x) for x in word))
    return ProperVerdict(True, cid)


# docio.natural_key verbatim as it was while the parse sorted by it: the
# reference for the order docio._id_order gives
_CHUNKS = re.compile(r"\d+|\D+")


def natural_key(text: str) -> tuple:
    """Sort key treating digit runs as numbers: a2 before a10."""
    return tuple((0, int(c)) if c.isdecimal() else (1, c)
                 for c in _CHUNKS.findall(text))


def reference_parse_realization(text: str) -> Realization:
    """The reference for docio.parse_realization: every field read
    through _require, every constraint's rows converted and checked, and
    the whole validation left to the realization's _issues."""
    doc, field = _document_head(text)
    dim_of: dict[str, int] = {}  # symbols and states share one namespace
    symbols = []
    for i, entry in enumerate(_require(doc, "symbols", list, "$")):
        path = f"$.symbols[{i}]"
        sid = _require(entry, "id", str, path)
        dim = _require(entry, "dim", int, path)
        try:
            symbols.append(SymbolVar(sid, dim))
        except ValueError as e:
            raise DocumentError(path, str(e)) from None
        if sid in dim_of:
            raise DocumentError(path, f"id {sid!r} declared twice")
        dim_of[sid] = dim

    states = []
    for i, entry in enumerate(_require(doc, "states", list, "$")):
        path = f"$.states[{i}]"
        sid = _require(entry, "id", str, path)
        dim = _require(entry, "dim", int, path)
        left = _require(entry, "left", str, path)
        right = _require(entry, "right", str, path)
        negate_at = entry.get("negate_at", "right") if isinstance(entry, dict) else "right"
        if not isinstance(negate_at, str):
            raise DocumentError(f"{path}.negate_at", "expected a string")
        try:
            states.append(StateVar(sid, dim, left, right, negate_at))
        except ValueError as e:
            raise DocumentError(path, str(e)) from None
        if sid in dim_of:
            raise DocumentError(path, f"id {sid!r} declared twice")
        dim_of[sid] = dim

    constraints = []
    codes: dict[str, BlockedCode] = {}
    # (width, generator rows) -> the one space built for them
    spaces: dict[tuple, Subspace] = {}
    for i, entry in enumerate(_require(doc, "constraints", list, "$")):
        path = f"$.constraints[{i}]"
        cid = _require(entry, "id", str, path)
        raw_vars = _require(entry, "vars", list, path)
        for j, v in enumerate(raw_vars):
            if not isinstance(v, str):
                raise DocumentError(f"{path}.vars[{j}]", "expected a variable id")
            if v not in dim_of:
                raise DocumentError(f"{path}.vars[{j}]", f"undeclared variable {v!r}")
            if v in raw_vars[:j]:
                raise DocumentError(f"{path}.vars[{j}]", f"variable {v!r} listed twice")
        rows = _int_rows(_require(entry, "generators", list, path), f"{path}.generators",
                        field.p)
        width = sum(dim_of[v] for v in raw_vars)
        for j, row in enumerate(rows):
            if len(row) != width:
                raise DocumentError(
                    f"{path}.generators[{j}]",
                    f"row length {len(row)} != total var dim {width}")
        constraints.append(Constraint(cid, tuple(raw_vars)))
        structure = BlockStructure(tuple((v, dim_of[v]) for v in raw_vars))
        key = (width, tuple(map(tuple, rows)))
        if key not in spaces:
            matrix = _matrix(field, rows, width, f"{path}.generators")
            spaces[key] = Subspace.spanned_by(field, width, matrix)
        if cid in codes:
            raise DocumentError(path, f"constraint id {cid!r} declared twice")
        codes[cid] = BlockedCode(structure, spaces[key])

    symbols.sort(key=lambda v: natural_key(v.id))
    states.sort(key=lambda v: natural_key(v.id))
    constraints.sort(key=lambda c: natural_key(c.id))
    topo = Topology(tuple(symbols), tuple(states), tuple(constraints))
    return Realization(field, topo, codes)


def reference_graph_issues(topo: Topology) -> list[ValidationIssue]:
    """Topology._graph_issues as it was while it built every var's use
    list: the reference for its findings, their order and their messages."""
    found: list[ValidationIssue] = []
    uses: dict[str, list[str]] = {v.id: [] for v in (*topo.symbols, *topo.states)}
    for c in topo.constraints:
        for v in c.vars:
            if v in uses:
                uses[v].append(c.id)

    for s in topo.symbols:
        if len(uses[s.id]) != 1:
            found.append(ValidationIssue(
                "normality",
                f"symbol {s.id!r} must be involved in exactly one constraint, "
                f"found {len(uses[s.id])}", (s.id, *uses[s.id])))
    cids = topo._constraints_by_id
    for s in topo.states:
        if s.left == s.right:
            found.append(ValidationIssue(
                "self-loop", f"state {s.id!r} has both endpoints at {s.left!r}",
                (s.id, s.left)))
            continue
        missing = [end for end in (s.left, s.right) if end not in cids]
        found += [ValidationIssue("unknown-id", f"state {s.id!r} endpoint {end!r} is not "
                                  "a constraint", (s.id, end)) for end in missing]
        if not missing and uses[s.id] not in ([s.left, s.right], [s.right, s.left]):
            found.append(ValidationIssue(
                "normality",
                f"state {s.id!r} must be involved in exactly its two endpoints "
                f"{s.left!r} and {s.right!r}, found {uses[s.id]!r}",
                (s.id, *uses[s.id])))

    comps = topo._uncut_components
    if len(comps) > 1:
        smaller = min(comps, key=len)
        found.append(ValidationIssue(
            "disconnected",
            f"constraint graph has {len(comps)} components; "
            f"one contains {sorted(smaller)!r}", tuple(sorted(smaller))))
    return found


def _symbol_vars(n: int) -> tuple[SymbolVar, ...]:
    """The dim-1 symbols a0 .. a{n-1} of the references below, through the
    public constructor (the builders make them with _trusted)."""
    return tuple(SymbolVar(f"a{k}", 1) for k in range(n))


# constructions.product_trellis and reduction.cut_dims (with _side_symbols)
# verbatim as they were while product_trellis decided ring or path at each
# of four places (the edge count, a state's left and right end, a section's
# outgoing edge) and cut_dims collected and sorted each side's symbols: the
# references for the one node list and the symbol owner map that replaced them
def reference_product_trellis(field: PrimeField, n: int, gens: Sequence[SpannedGenerator],
                              kind: str = TAIL_BITING) -> Realization:
    """Product construction: one section per position, states sized by spans.

    State j sits between sections j-1 and j and has one coordinate per
    generator whose span crosses edge j. Section i is generated by one
    local word per generator: its edge-i indicator, its value at i, and
    its edge-(i+1) indicator. Realizes the row span of the generators.

    Conventional trellises get explicit zero-dimensional boundary states
    closed off by empty end constraints; wrap-around and degenerate
    spans are rejected there.
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

    n_edges = n if kind == TAIL_BITING else n + 1
    crossers: list[list[int]] = [[] for _ in range(n_edges)]
    for t, g in enumerate(gens):
        for j in g.span.crossed(n):
            crossers[j].append(t)

    def left_of(j: int) -> str:
        if kind == TAIL_BITING:
            return f"c{(j - 1) % n}"
        return "end0" if j == 0 else f"c{j - 1}"

    def right_of(j: int) -> str:
        if kind == TAIL_BITING:
            return f"c{j}"
        return "end1" if j == n else f"c{j}"

    states = tuple(StateVar(f"s{j}", len(crossers[j]), left_of(j), right_of(j))
                   for j in range(n_edges))

    constraints = []
    codes: dict[str, BlockedCode] = {}
    for i in range(n):
        cid = f"c{i}"
        j_in, j_out = i, (i + 1) % n if kind == TAIL_BITING else i + 1
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


def _side_symbols(topo: Topology, side: set[str]) -> list[str]:
    """Symbol ids of the constraints on one side of a cut, in symbol order."""
    out = [v for c in topo.constraints if c.id in side for v in c.vars if topo.is_symbol(v)]
    order = {sid: i for i, sid in enumerate(topo.symbol_ids())}
    out.sort(key=order.__getitem__)
    return out


def reference_cut_dims(code: BlockedCode, topology: Topology) -> list[EdgeCut]:
    """Minimal state dim at every tree edge: dim(projection) - dim(cross-section).

    Computed from the past side of each cut and checked against the
    future side, which must agree. A tree without one edge has two
    components, one at each end of that edge: one call gives both sides.
    """
    if not topology.is_cycle_free():
        raise NotCycleFreeError("cut dimensions are defined on trees only")
    want = {s.id: s.dim for s in topology.symbols}
    have = {bid: code.structure.dim(bid) for bid in code.structure.ids()}
    if want != have:
        raise DimensionMismatchError(
            "code blocks do not match the topology's symbols")
    cuts = []
    for s in topology.states:
        comps = topology._components(s.id)
        past, future = (_side_symbols(topology, next(c for c in comps if end in c))
                        for end in (s.left, s.right))
        proj = code.projection_dim(past)
        sect = code.cross_section_dim(past)
        f_dim = code.projection_dim(future) - code.cross_section_dim(future)
        if proj - sect != f_dim:
            raise AssertionError(
                f"cut at {s.id!r}: past gives {proj - sect}, future gives {f_dim}")
        cuts.append(EdgeCut(s.id, tuple(past), proj, sect))
    return cuts


# constructions._bipartite verbatim as it was while it read every entry of the
# dense matrix in three Python passes (the residues, the supports, the columns):
# the reference for the builder that reads them once, as one residue array
def reference_bipartite(field: PrimeField, n: int, matrix: Sequence[Sequence[int]],
                        node: str, node_code: Callable[[int], np.ndarray],
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


# --- one injected defect --------------------------------------------------

DEFECTS = ("none", "repeated-var-id", "constraint-takes-var-id", "unknown-var",
           "dim-mismatch", "dangling-state")


def in_natural_order(items) -> tuple:
    return tuple(sorted(items, key=lambda e: natural_key(e.id)))


def with_defect(r: Realization, kind: str, rng: random.Random) -> Realization:
    """r with one defect of the kind injected, its entries in natural id order."""
    topo, field = r.topology, r.field
    symbols, states, constraints = list(topo.symbols), list(topo.states), list(topo.constraints)
    codes = r.codes
    declared = symbols + states
    if kind == "repeated-var-id":  # declared again, with any dim
        v = rng.choice(declared)
        if isinstance(v, SymbolVar):
            symbols.append(SymbolVar(v.id, rng.randint(0, 2)))
        else:
            states.append(StateVar(v.id, rng.randint(0, 2), v.left, v.right))
    elif kind == "constraint-takes-var-id":  # which the parse records
        c, v = rng.choice(constraints), rng.choice(declared)
        constraints[constraints.index(c)] = Constraint(v.id, c.vars)
        codes[v.id] = codes.pop(c.id)
        states = [StateVar(s.id, s.dim, v.id if s.left == c.id else s.left,
                           v.id if s.right == c.id else s.right, s.negate_at) for s in states]
    elif kind == "unknown-var":  # listed by a constraint, with a code on it
        i = rng.randrange(len(constraints))
        at = rng.randint(0, len(constraints[i].vars))
        listed = constraints[i].vars[:at] + ("z0",) + constraints[i].vars[at:]
        constraints[i] = Constraint(constraints[i].id, listed)
        dims = {v.id: v.dim for v in declared} | {"z0": rng.randint(0, 2)}
        codes[constraints[i].id] = random_blocked_code(
            rng, field, tuple((v, dims[v]) for v in listed))
    elif kind == "dim-mismatch":  # a var declared one dim off its codes' blocks
        i = rng.randrange(len(declared))
        v = declared[i]
        dim = rng.choice([d for d in (v.dim - 1, v.dim + 1) if d >= 0])
        if isinstance(v, SymbolVar):
            symbols[i] = SymbolVar(v.id, dim)
        else:
            states[i - len(symbols)] = StateVar(v.id, dim, v.left, v.right, v.negate_at)
    elif kind == "dangling-state":  # which the parse records
        if states and rng.random() < 0.5:  # an endpoint that is no constraint
            i = rng.randrange(len(states))
            s = states[i]
            states[i] = StateVar(s.id, s.dim, s.left, "c99", s.negate_at)
        else:  # listed by no constraint
            left = rng.choice(constraints).id
            states.append(StateVar("s99", rng.randint(0, 2), left, "c99"))
    return Realization(field, Topology(in_natural_order(symbols), in_natural_order(states),
                                       in_natural_order(constraints)), codes)
