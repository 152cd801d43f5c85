"""The brute-force oracle itself."""

import random
import tracemalloc

import numpy as np
import pytest

from ncl import (
    GF2,
    GF3,
    BlockedCode,
    BlockStructure,
    Constraint,
    DimensionMismatchError,
    EnumerationLimitError,
    FieldMismatchError,
    InvalidRealizationError,
    PrimeField,
    Realization,
    Span,
    SpannedGenerator,
    StateVar,
    SymbolVar,
    Topology,
    behavior,
    brute_behavior,
    brute_realized_words,
    check_realizes,
    dualize,
    product_trellis,
)
from ncl import oracle
from ncl.oracle import _CHUNK, _nullspace
from fixtures import EX1_DUAL_WORDS, EX1_WORDS, example1
from helpers import (
    random_realization,
    random_tail_biting_product,
    reference_brute_behavior,
    sympy_rank,
)

GF5, GF7 = PrimeField(5), PrimeField(7)
GF257, GF8191 = PrimeField(257), PrimeField(8191)
# the largest total dimension drawn per field: 2^15, 3^10, 5^7 and 7^6
# assignments, so the bigger instances take several chunks of high parts
_TOTAL_CAP = {2: 15, 3: 10, 5: 7, 7: 6}


def _total(r: Realization) -> int:
    return r.topology.total_symbol_dim() + r.topology.total_state_dim()


def _conventional_product(rng: random.Random, field: PrimeField) -> Realization:
    n = rng.randint(1, 7)
    gens = []
    for _ in range(rng.randint(1, 3)):
        start = rng.randrange(n)
        end = rng.randint(start, n - 1)
        vec = [0] * n
        for k in range(start, end + 1):
            vec[k] = rng.randrange(field.p)
        vec[start] = vec[start] or 1
        gens.append(SpannedGenerator(tuple(vec), Span(start, end)))
    return product_trellis(field, n, gens, "conventional")


def _reference_instances() -> list[tuple[str, Realization]]:
    """320 seeded (kind, realization) pairs over GF(2/3/5/7): general
    graphs, graphs with two or three independent cycles, graphs of
    dims 0 and 1 only (some of total dimension 0), and tail-biting and
    conventional product trellises."""
    rng = random.Random(1313)
    out = []
    for i in range(320):
        field = (GF2, GF3, GF5, GF7)[i % 4]
        cap = _TOTAL_CAP[field.p]
        kind = ("graph", "graph", "graph", "cycles", "cycles", "small dims",
                "tail-biting", "conventional")[i // 4 % 8]
        if kind == "graph":
            r = random_realization(rng, field, total_cap=cap)
        elif kind == "cycles":
            r = random_realization(rng, field, total_cap=cap, extra_edges=rng.choice((1, 2)))
        elif kind == "small dims":
            r = random_realization(rng, field, max_dim=rng.choice((0, 1)), total_cap=cap)
        elif kind == "tail-biting":
            r = random_tail_biting_product(rng, field, max_n=cap // 2 + 1, max_gens=3)
        else:
            r = _conventional_product(rng, field)
        if _total(r) <= cap:
            out.append((kind, r))
    return out


def _no_parity_rows(field: PrimeField, n: int) -> Realization:
    """n symbols on a chain of n constraints joined by n - 1 states of dim
    1, every code the whole space: no parity row at all, so each of the
    p^(2n - 1) assignments is in the behavior."""
    symbols = tuple(SymbolVar(f"a{k}", 1) for k in range(n))
    states = tuple(StateVar(f"s{k}", 1, f"c{k}", f"c{k + 1}") for k in range(n - 1))
    cons = tuple(Constraint(f"c{k}", (f"s{k - 1}",) * (k > 0) + (f"a{k}",)
                            + (f"s{k}",) * (k < n - 1)) for k in range(n))
    codes = {c.id: BlockedCode.from_rows(field, BlockStructure((v, 1) for v in c.vars),
                                         np.eye(len(c.vars), dtype=np.int64)) for c in cons}
    return Realization(field, Topology(symbols, states, cons), codes)


def _total_22() -> Realization:
    """A GF(2) instance of total 22 whose behavior has 16 assignments."""
    symbols = tuple(SymbolVar(f"a{k}", 1) for k in range(20))
    states = (StateVar("s0", 2, "c0", "c1"),)
    cons = (Constraint("c0", tuple(f"a{k}" for k in range(10)) + ("s0",)),
            Constraint("c1", ("s0",) + tuple(f"a{k}" for k in range(10, 20))))
    rng = np.random.default_rng(7)
    codes = {c.id: BlockedCode.from_rows(
        GF2, BlockStructure(tuple((v, 2 if v == "s0" else 1) for v in c.vars)),
        rng.integers(0, 2, (3, 12))) for c in cons}
    return Realization(GF2, Topology(symbols, states, cons), codes)


def _digits_sizes(monkeypatch) -> list[int]:
    """The number of values each later oracle._digits call converts."""
    sizes: list[int] = []
    real = oracle._digits

    def spy(vals, width, p):
        sizes.append(len(vals))
        return real(vals, width, p)

    monkeypatch.setattr(oracle, "_digits", spy)
    return sizes


class TestBruteBehavior:
    def test_example1_word_count_and_order(self):
        words = brute_behavior(example1())
        assert len(words) == 8
        assert words == sorted(words)
        assert all(len(w) == 6 for w in words)

    def test_agrees_with_kernel_path(self):
        r = example1()
        assert set(brute_behavior(r)) == set(behavior(r).enumerate())

    def test_realized_words(self):
        assert brute_realized_words(example1()) == EX1_WORDS
        assert brute_realized_words(dualize(example1())) == EX1_DUAL_WORDS

    def test_budget_enforced(self):
        with pytest.raises(EnumerationLimitError):
            brute_behavior(example1(), 63)
        assert len(brute_behavior(example1(), 64)) == 8

    def test_requires_valid_realization(self):
        r = example1()
        codes = r.codes
        del codes["c0"]
        with pytest.raises(InvalidRealizationError):
            brute_behavior(Realization(GF2, r.topology, codes))

    def test_zero_code_constraint(self):
        symbols = (SymbolVar("a0", 1), SymbolVar("a1", 1))
        cons = (Constraint("c0", ("a0", "a1")),)
        codes = {"c0": BlockedCode.from_rows(
            GF2, BlockStructure((("a0", 1), ("a1", 1))), [])}
        r = Realization(GF2, Topology(symbols, (), cons), codes)
        assert brute_behavior(r) == [(0, 0)]

    def test_gf3(self):
        symbols = (SymbolVar("a0", 1), SymbolVar("a1", 1))
        cons = (Constraint("c0", ("a0", "a1")),)
        codes = {"c0": BlockedCode.from_rows(
            GF3, BlockStructure((("a0", 1), ("a1", 1))), [[1, 2]])}
        r = Realization(GF3, Topology(symbols, (), cons), codes)
        assert set(brute_behavior(r)) == {(0, 0), (1, 2), (2, 1)}


class TestAgainstReferenceLoop:
    """brute_behavior equals the one chunked loop it replaced, list for list."""

    def test_random_realizations(self):
        instances = _reference_instances()
        assert len(instances) >= 300
        seen = dict.fromkeys(("zero-dim symbol", "zero-dim state", "no generators",
                              "no checks", "total 0", "several chunks", "two cycles",
                              "tail-biting", "conventional"), 0)
        for kind, r in instances:
            assert brute_behavior(r) == reference_brute_behavior(r)
            topo = r.topology
            widths = {c.id: sum(topo.var_dim(v) for v in c.vars) for c in topo.constraints}
            seen["zero-dim symbol"] += any(s.dim == 0 for s in topo.symbols)
            seen["zero-dim state"] += any(s.dim == 0 for s in topo.states)
            seen["no generators"] += any(r.code(c).dim == 0 < w for c, w in widths.items())
            seen["no checks"] += any(r.code(c).dim == w > 0 for c, w in widths.items())
            seen["total 0"] += _total(r) == 0
            seen["several chunks"] += r.field.p ** _total(r) > 2 * _CHUNK
            # a connected graph has states - constraints + 1 independent cycles
            seen["two cycles"] += len(topo.states) - len(topo.constraints) >= 1
            seen[kind] = seen.get(kind, 0) + 1
        assert all(count > 0 for count in seen.values()), seen

    def test_at_exactly_the_budget_and_one_point_over(self):
        rng = random.Random(2024)
        r = next(r for r in iter(lambda: random_realization(rng, GF3, total_cap=10), None)
                 if _total(r) == 10)
        points = 3 ** 10
        assert brute_behavior(r, points) == reference_brute_behavior(r, points)
        with pytest.raises(EnumerationLimitError) as new:
            brute_behavior(r, points - 1)
        with pytest.raises(EnumerationLimitError) as old:
            reference_brute_behavior(r, points - 1)
        assert str(new.value) == str(old.value) == f"3^10 assignments exceed the budget of {points - 1}"

    def test_zero_dim_symbols_and_states(self):
        # total 0: the single empty assignment satisfies every (empty) check
        symbols = (SymbolVar("a0", 0), SymbolVar("a1", 0))
        states = (StateVar("s0", 0, "c0", "c1"),)
        cons = (Constraint("c0", ("a0", "s0")), Constraint("c1", ("s0", "a1")))
        codes = {c.id: BlockedCode.from_rows(GF5, BlockStructure(((v, 0) for v in c.vars)), [])
                 for c in cons}
        r = Realization(GF5, Topology(symbols, states, cons), codes)
        assert brute_behavior(r) == reference_brute_behavior(r) == [()]

    @pytest.mark.parametrize("field, cap", [(GF257, 2), (GF8191, 1)])
    def test_two_byte_keys(self, field, cap):
        # residues up to p - 1 > 255: a one-byte key would let 256 meet 0
        rng = random.Random(field.p)
        instances = [random_realization(rng, field, total_cap=cap, extra_edges=k % 2)
                     for k in range(12)]
        assert any(_total(r) == cap and 0 < len(brute_behavior(r)) < field.p ** cap
                   for r in instances)
        for r in instances:
            assert brute_behavior(r) == reference_brute_behavior(r)

    @pytest.mark.parametrize("field, n", [(GF2, 6), (GF3, 4)])
    def test_no_parity_row_over_several_head_chunks(self, field, n, monkeypatch):
        r = _no_parity_rows(field, n)
        want = reference_brute_behavior(r)
        assert len(want) == field.p ** (2 * n - 1)
        assert brute_behavior(r) == want
        # at a chunk of 2^13, several chunks of high parts would take 2^27 assignments
        monkeypatch.setattr(oracle, "_CHUNK", 16)
        sizes = _digits_sizes(monkeypatch)
        assert brute_behavior(r) == want
        assert sizes.count(16) > 2 and max(sizes) == 16

    def test_chunks_of_8_split_head_chunks_and_match_blocks(self, monkeypatch):
        instances = _reference_instances()[::4]
        want = [reference_brute_behavior(r) for _, r in instances]
        monkeypatch.setattr(oracle, "_CHUNK", 8)
        sizes = _digits_sizes(monkeypatch)
        assert [brute_behavior(r) for _, r in instances] == want
        assert max(sizes) == 8 and sizes.count(8) > len(instances)


def test_peak_memory_is_bounded_by_the_chunk():
    """A GF(2) instance of total 22, scanned under a budget of 2^22: the
    join's peak traced allocation stays below 2 MB. It peaks at 0.67 MB;
    the pairwise comparison it replaced peaked at 1.19 MB and the chunked
    loop before that at 4.4 MB, its 8192 x 22 int64 words and their
    quotients (tracemalloc, numpy 2.4)."""
    r = _total_22()
    tracemalloc.start()
    try:
        words = brute_behavior(r, 1 << 22)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(words) == 16
    assert set(words) == set(behavior(r).enumerate())
    assert peak < 2 << 20


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_nullspace_on_rows_that_need_swaps_scaling_and_clearing(p):
    """The oracle's own elimination on raw rows, not the RREF bases that
    brute_behavior hands it: random rows with a zero row, a dependent row
    and entries outside 0..p-1, so pivots need swaps, scaling and clearing.
    Every returned row is orthogonal to every input row, the rows are
    independent, and there are ncols minus sympy's rank of them."""
    rng = random.Random(p)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 8)
        rows = [[rng.randrange(-p, 2 * p) for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 1:
            k = rng.randrange(p)
            rows.append([k * a + b for a, b in zip(rows[0], rows[1])])
        rows.insert(rng.randrange(len(rows) + 1), [0] * ncols)
        null = _nullspace(rows, ncols, p)
        assert all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in rows for v in null)
        assert len(null) == ncols - sympy_rank(np.array(rows) % p, p)
        assert not null or sympy_rank(null, p) == len(null)


@pytest.mark.parametrize("instance, count", [
    (lambda: _no_parity_rows(GF2, 8), 1 << 15),
    (_total_22, 16),
], ids=["no parity row", "total 22"])
def test_digits_converts_at_most_a_chunk(instance, count, monkeypatch):
    """Every assignment matches on the first instance, 16 of 2^22 on the
    second; either way no conversion takes more than _CHUNK values."""
    r = instance()
    sizes = _digits_sizes(monkeypatch)
    assert len(brute_behavior(r, 1 << 22)) == count
    assert 0 < max(sizes) <= _CHUNK


class TestCheckRealizes:
    def test_accepts_the_true_code(self):
        expected = BlockedCode.from_rows(
            GF2, BlockStructure((("word", 3),)), [[1, 1, 0], [1, 0, 1]])
        verdict = check_realizes(example1(), expected)
        assert verdict.ok and verdict.counterexample is None
        assert bool(verdict)

    def test_rejects_with_minimal_counterexample(self):
        wrong = BlockedCode.from_rows(
            GF2, BlockStructure((("word", 3),)), [[1, 1, 1]])
        verdict = check_realizes(example1(), wrong)
        assert not verdict.ok
        assert verdict.counterexample == (0, 1, 1)

    def test_budget_passthrough(self):
        expected = BlockedCode.from_rows(
            GF2, BlockStructure((("word", 3),)), [[1, 1, 0], [1, 0, 1]])
        with pytest.raises(EnumerationLimitError):
            check_realizes(example1(), expected, 8)

    # the reproducer of a foreign expected code: one GF(2) symbol, code <1>
    @pytest.mark.parametrize("field, rows, error", [
        (GF3, [[1]], FieldMismatchError),
        (GF2, [[1, 1]], DimensionMismatchError),
    ])
    def test_foreign_code_is_a_typed_error_before_enumerating(self, field, rows, error):
        symbols = (SymbolVar("a0", 1),)
        cons = (Constraint("c0", ("a0",)),)
        codes = {"c0": BlockedCode.from_rows(GF2, BlockStructure((("a0", 1),)), [[1]])}
        r = Realization(GF2, Topology(symbols, (), cons), codes)
        expected = BlockedCode.from_rows(field, BlockStructure((("word", len(rows[0])),)), rows)
        # a budget of one point would stop any enumeration first
        with pytest.raises(error):
            check_realizes(r, expected, 1)
