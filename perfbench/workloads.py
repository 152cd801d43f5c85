"""Seeded instances and the command list of each workload.

Every instance comes from ncl's public builders (``parity_check_realization``,
``product_trellis``, ``Topology``/``Realization``) and ``random.Random(seed)``,
so the same seed gives byte-identical documents. Builders are called as
``ncl.<name>`` so that the traced run's wrappers in the ``ncl`` namespace
see them. An op is one ``ncl`` command line. A workload is made of passes:
each pass has documents of its own, of the same sizes and mix as every
other pass, and runs each of them through its commands once, in a seeded
order. Many distinct documents keep a seed's draw from moving the figures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ncl
from ncl import (BlockedCode, BlockStructure, Constraint, MatrixF, PrimeField,
                 Realization, Span, SpannedGenerator, StateVar, SymbolVar, Topology)
from ncl.oracle import DEFAULT_MAX_POINTS

WORKLOADS = ("tanner-analyze", "trellis-reduce", "cli-small")

DOC_DIR = "docs"
OUT_DIR = "out"


@dataclass(frozen=True)
class Op:
    """One ncl command line and the documents it writes (relative paths)."""

    command: str
    argv: tuple[str, ...]
    doc: str
    outputs: tuple[str, ...] = ()


@dataclass
class Workload:
    name: str
    docs: dict[str, str] = field(default_factory=dict)   # path -> document text
    meta: dict[str, dict] = field(default_factory=dict)  # path -> what the checks need
    ops: list[Op] = field(default_factory=list)          # every pass's ops, pass by pass
    passes: int = 1

    @property
    def ops_per_pass(self) -> int:
        return len(self.ops) // self.passes

    def add_doc(self, stem: str, r: Realization, **meta) -> str:
        path = f"{DOC_DIR}/{stem}.json"
        self.docs[path] = ncl.emit_realization(r)
        self.meta[path] = meta
        return path

    def write(self, root: Path) -> None:
        (root / DOC_DIR).mkdir(parents=True, exist_ok=True)
        (root / OUT_DIR).mkdir(parents=True, exist_ok=True)
        for path, text in self.docs.items():
            (root / path).write_text(text, encoding="utf-8")


def build(name: str, seed: int, tiny: bool = False, passes: int = 1) -> Workload:
    """The workload's documents and ``passes`` passes of ops for this seed.

    The first passes of a seed are the same whatever ``passes`` is.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    w = Workload(name, passes=passes)
    one_pass = {"tanner-analyze": _tanner, "trellis-reduce": _trellis,
                "cli-small": _cli_small}[name]
    for k in range(passes):
        one_pass(w, rng, tiny, f"p{k}-")
    return w


def ops_per_pass(name: str, tiny: bool = False) -> int:
    """Ops in one pass, known before any document is built."""
    if name == "tanner-analyze":
        return len(TANNER_N_TINY if tiny else TANNER_N)
    if name == "trellis-reduce":
        shape = TRELLIS_TINY if tiny else TRELLIS
        return shape.tail_biting + shape.conventional
    return 6 * (CLI_DOCS_TINY if tiny else CLI_DOCS)


# tanner-analyze ------------------------------------------------------------

# An odd count of sizes puts the median op among documents of the middle size.
TANNER_N = (120, 140, 160, 180, 200, 220, 240)
TANNER_N_TINY = (24, 36)


def ldpc_checks(rng: random.Random, n: int) -> list[list[int]]:
    """Check matrix of a random (3,6)-regular LDPC code: connected, no repeated edge.

    A repeated variable in a check is swapped with one from another check
    rather than redrawing everything, so generation costs about the same
    for every seed.
    """
    m = n // 2
    while True:
        sockets = [k for k in range(n) for _ in range(3)]
        rng.shuffle(sockets)
        rows = [sockets[6 * i:6 * i + 6] for i in range(m)]
        for i, row in enumerate(rows):
            for j in range(6):
                while row.count(row[j]) > 1:
                    other = rows[rng.randrange(m)]
                    q = rng.randrange(6)
                    if other is not row and other[q] not in row and row[j] not in other:
                        row[j], other[q] = other[q], row[j]
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for row in rows:
            for k in row[1:]:
                parent[find(k)] = find(row[0])
        if len({find(k) for k in range(n)}) != 1:
            continue
        h = [[0] * n for _ in range(m)]
        for i, row in enumerate(rows):
            for k in row:
                h[i][k] = 1
        return h


def _tanner(w: Workload, rng: random.Random, tiny: bool, prefix: str) -> None:
    ladder = list(TANNER_N_TINY if tiny else TANNER_N)
    rng.shuffle(ladder)
    gf2 = PrimeField(2)
    for i, n in enumerate(ladder):
        h = ldpc_checks(rng, n)
        path = w.add_doc(f"{prefix}tanner{i}-n{n}", ncl.parity_check_realization(gf2, n, h),
                         n=n, checks=h)
        w.ops.append(Op("analyze", ("analyze", "--json", path), path))


# trellis-reduce ------------------------------------------------------------

TRELLIS_P = 3


@dataclass(frozen=True)
class TrellisShape:
    n: int
    tail_biting: int      # tail-biting documents per pass, run through `reduce`
    conventional: int     # conventional documents per pass, run through `minimize`
    short_tb: int         # short-span generators per tail-biting trellis
    short_conv: int       # short-span generators per conventional trellis
    zero_ended_tb: int    # the first this many get a zero at one span end, if 2+ long
    zero_ended_conv: int
    chain: int            # generators in the wrap-around chain


TRELLIS = TrellisShape(128, 6, 2, 32, 48, 12, 16, 6)
TRELLIS_TINY = TrellisShape(18, 3, 1, 4, 6, 2, 2, 3)


def _short_generator(rng: random.Random, n: int, p: int, avoid: set[int], length: int,
                     zero_end: bool, wrap: bool) -> SpannedGenerator:
    """A generator covering ``length`` + 1 consecutive positions, none of them in ``avoid``.

    A zero at one end of the span leaves a section with a codeword on a
    single state, so the reduction has a merge to make there.
    """
    while True:
        start = rng.randrange(n) if wrap else rng.randrange(n - length)
        covered = [(start + u) % n for u in range(length + 1)]
        if not avoid.intersection(covered):
            break
    vec = [0] * n
    for k in covered:
        vec[k] = rng.randrange(1, p)
    if zero_end and length >= 2:
        vec[covered[rng.choice((0, -1))]] = 0
    return SpannedGenerator(tuple(vec), Span(start, (start + length) % n))


def _zero_sum_chain(rng: random.Random, n: int, p: int, c: int
                    ) -> tuple[list[SpannedGenerator], set[int]]:
    """c generators tiling the circle whose values cancel where they meet.

    They sum to zero, so their joint state trajectory emits the all-zero
    word: one unobservable dimension that no single section can see, which
    only the unobservability trim removes (its trims follow around the cycle).
    The reduction rescans from the first section after every step, so where
    those trims fall sets most of its work. The cuts are fixed, half a
    segment past position 0, so that work is the same for every seed.
    """
    offset = n // (2 * c)
    cuts = [offset + (i * n) // c for i in range(c)]
    first = a = rng.randrange(1, p)
    gens = []
    for i in range(c):
        start, end = cuts[i], cuts[(i + 1) % c]
        b = rng.randrange(1, p) if i < c - 1 else (-first) % p
        vec = [0] * n
        vec[start], vec[end] = a, b
        gens.append(SpannedGenerator(tuple(vec), Span(start, end)))
        a = (-b) % p
    return gens, set(cuts)


def _trellis(w: Workload, rng: random.Random, tiny: bool, prefix: str) -> None:
    shape = TRELLIS_TINY if tiny else TRELLIS
    field_ = PrimeField(TRELLIS_P)
    n, p = shape.n, TRELLIS_P
    kinds = ["tail-biting"] * shape.tail_biting + ["conventional"] * shape.conventional
    rng.shuffle(kinds)
    for i, kind in enumerate(kinds):
        if kind == "tail-biting":
            gens, cuts = _zero_sum_chain(rng, n, p, shape.chain)
            gens += [_short_generator(rng, n, p, cuts, 1 + j % 3, j < shape.zero_ended_tb,
                                      True) for j in range(shape.short_tb)]
            command = "reduce"
        else:
            gens = [_short_generator(rng, n, p, set(), 1 + j % 3, j < shape.zero_ended_conv,
                                     False) for j in range(shape.short_conv)]
            command = "minimize"
        rng.shuffle(gens)
        r = ncl.product_trellis(field_, n, gens, kind)
        stem = f"{prefix}trellis{i}-{kind}"
        path = w.add_doc(stem, r, p=p, n=n, generators=[list(g.vector) for g in gens])
        out = f"{OUT_DIR}/{stem}.json"
        w.ops.append(Op(command, (command, path, out, "--steps"), path, (out,)))


# cli-small -----------------------------------------------------------------

CLI_DOCS = 180
CLI_DOCS_TINY = 6
CLI_FIELDS = (2, 3, 5)
CLI_KINDS = ("tree", "cyclic", "tail-biting")
# Total symbol+state dimension per field: most documents are tiny, one in
# nine is big enough that the brute-force oracle sets the tail.
CLI_TOTAL = {2: (9, 11, 18), 3: (6, 7, 11), 5: (4, 5, 8)}


def _random_code(rng: random.Random, field_: PrimeField,
                 blocks: tuple[tuple[str, int], ...]) -> BlockedCode:
    structure = BlockStructure(blocks)
    width = structure.total
    k = rng.randint(1, max(width - 1, 1))
    rows = np.array([[rng.randrange(field_.p) for _ in range(width)] for _ in range(k)],
                    dtype=np.int64).reshape(k, width)
    return BlockedCode.from_rows(field_, structure, MatrixF(field_, rows))


def random_graph_realization(rng: random.Random, field_: PrimeField, total: int,
                             cyclic: bool) -> Realization:
    """A random tree (or tree plus one extra edge) with exactly ``total`` dims."""
    while True:
        m = rng.randint(3, 4)
        edges = [(rng.randrange(i), i) for i in range(1, m)]
        if cyclic:
            a, b = rng.sample(range(m), 2)
            edges.append((a, b))
        state_dims = [rng.randint(1, 2) for _ in edges]
        n_sym = total - sum(state_dims)
        if n_sym >= 1:
            break
    states = [StateVar(f"s{j}", d, f"c{a}", f"c{b}", rng.choice(("left", "right")))
              for j, ((a, b), d) in enumerate(zip(edges, state_dims))]
    symbols = [SymbolVar(f"a{k}", 1) for k in range(n_sym)]
    owners = [k % m for k in range(n_sym)]
    rng.shuffle(owners)
    constraints, codes = [], {}
    dims = {s.id: s.dim for s in states} | {s.id: 1 for s in symbols}
    for i in range(m):
        vars_ = [s.id for s, o in zip(symbols, owners) if o == i]
        vars_ += [s.id for s in states if f"c{i}" in (s.left, s.right)]
        rng.shuffle(vars_)
        constraints.append(Constraint(f"c{i}", tuple(vars_)))
        codes[f"c{i}"] = _random_code(rng, field_, tuple((v, dims[v]) for v in vars_))
    return Realization(field_, Topology(tuple(symbols), tuple(states), tuple(constraints)),
                       codes)


def random_small_trellis(rng: random.Random, field_: PrimeField, total: int) -> Realization:
    """A tail-biting product trellis with n <= 8 and total dims in [total-1, total]."""
    while True:
        n = rng.randint(3, min(8, total - 1))
        gens = []
        for _ in range(rng.randint(1, n)):
            start = rng.randrange(n)
            span = Span(start, (start + rng.randint(1, 2)) % n)
            vec = [0] * n
            for k in span.covered(n):
                vec[k] = rng.randrange(1, field_.p)
            gens.append(SpannedGenerator(tuple(vec), span))
        r = ncl.product_trellis(field_, n, gens, "tail-biting")
        dims = r.topology.total_symbol_dim() + r.topology.total_state_dim()
        if total - 1 <= dims <= total:
            return r


def _cli_small(w: Workload, rng: random.Random, tiny: bool, prefix: str) -> None:
    count = CLI_DOCS_TINY if tiny else CLI_DOCS
    ops: list[Op] = []
    for i in range(count):
        kind = CLI_KINDS[i % len(CLI_KINDS)]
        p = CLI_FIELDS[(i // len(CLI_KINDS)) % len(CLI_FIELDS)]
        # each block of nine covers every kind and field once; its big document rotates
        block = i // 9
        size = 2 if i % 9 == block % 9 else block % 2
        total = CLI_TOTAL[p][size]
        field_ = PrimeField(p)
        if kind == "tail-biting":
            r = random_small_trellis(rng, field_, total)
        else:
            r = random_graph_realization(rng, field_, total, cyclic=kind == "cyclic")
        points = p ** (r.topology.total_symbol_dim() + r.topology.total_state_dim())
        if points > DEFAULT_MAX_POINTS:
            raise AssertionError(f"document {i} needs {points} points, over the verify budget")
        stem = f"{prefix}small{i}-{kind}-gf{p}"
        path = w.add_doc(stem, r, p=p, kind=kind)
        reduced, dual = f"{OUT_DIR}/{stem}.reduced.json", f"{OUT_DIR}/{stem}.dual.json"
        shrink = "minimize" if kind == "tree" else "reduce"
        ops += [
            Op("analyze", ("analyze", "--json", path), path),
            Op(shrink, (shrink, path, reduced, "--steps"), path, (reduced,)),
            Op("dual", ("dual", path, dual), path, (dual,)),
            Op("verify", ("verify", path), path),
            Op("verify", ("verify", reduced), reduced),
            Op("components", ("components", path), path),
        ]
    order = list(range(count))
    rng.shuffle(order)
    w.ops += [ops[6 * i + j] for i in order for j in range(6)]
