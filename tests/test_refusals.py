"""Every input ends in a result or a typed error: each public function that
takes a Realization, and cut_dims on the realization's topology, over
realizations with one injected defect (helpers.with_defect) or none.

The functions are found from ncl.__all__ by signature (first parameter
annotated Realization), so a new one is swept with no edit here. validate
and emit_realization are left out: validate reports the findings the others
refuse on, and the writer's contract is pinned in test_docio_reference.py.
cut_dims is judged by the topology's findings alone: a dim mismatch is a
finding of the codes, and cut_dims reads no code but the one it is given.

The builders take their entries by the MatrixF rule (fields._residues): a
fractional or non-finite float raises ValueError, text or an object with
no __index__ TypeError, and no entry is truncated or parsed. Their n, and
a Span's start and end, go through operator.index, as every dim does."""

import inspect
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import ncl
from ncl import (
    BlockedCode,
    Constraint,
    InvalidRealizationError,
    NclError,
    NotCycleFreeError,
    GF3,
    PrimeField,
    Realization,
    Span,
    SpannedGenerator,
    SymbolVar,
    StateVar,
    Topology,
    cut_dims,
    generator_realization,
    parity_check_realization,
    product_trellis,
    validate,
)
from helpers import DEFECTS, random_blocked_code, random_realization, with_defect

LEFT_OUT = {"validate", "emit_realization"}


def takes_a_realization(name: str) -> bool:
    f = getattr(ncl, name)
    if not inspect.isfunction(f):
        return False
    first = next(iter(inspect.signature(f).parameters.values()), None)
    return first is not None and first.annotation in (Realization, "Realization")


SWEPT = sorted(n for n in ncl.__all__ if takes_a_realization(n) and n not in LEFT_OUT)


def symbol_code(r: Realization, rng: random.Random) -> BlockedCode:
    """A random code on the topology's symbols, a repeated id at its first dim."""
    blocks = {v.id: v.dim for v in reversed(r.topology.symbols)}
    return random_blocked_code(rng, r.field, tuple(blocks.items()))


def arguments(f, r: Realization, code: BlockedCode, rng: random.Random) -> list:
    """r, then each further required argument by its name: an incidence of
    the topology where there is one, and the symbol code."""
    incidences = r.topology.incidences()
    cid, sid = (rng.choice(incidences) if incidences
                else (r.topology.constraints[0].id, "s0"))
    given = {"constraint_id": cid, "state_id": sid, "expected": code}
    rest = [p for p in list(inspect.signature(f).parameters.values())[1:]
            if p.default is inspect.Parameter.empty]
    missing = [p.name for p in rest if p.name not in given]
    assert not missing, f"{f.__name__}: no sweep argument for {missing}"
    return [r] + [given[p.name] for p in rest]


def refusal(call) -> NclError | None:
    """The typed error the call raises, or None when it returns; any other
    exception propagates and fails the test."""
    try:
        call()
    except NclError as e:
        return e
    return None


def test_the_sweep_finds_every_public_function_on_a_realization():
    assert len(SWEPT) == 25
    assert {"analyze", "minimize_cycle_free", "trajectory_components",
            "check_realizes", "trim_state"} <= set(SWEPT)


def test_every_defect_ends_in_a_result_or_a_typed_error():
    """360 draws: ten for each of trees and three-cycle graphs, GF(2), GF(3)
    and GF(5), and the six defect kinds. Every function refuses every draw
    with findings with an NclError, and raises nothing untyped on any draw;
    cut_dims refuses exactly the topologies with findings, with their
    findings, and otherwise cuts a tree and refuses a cycle."""
    rng = random.Random(15)
    shapes = ({"allow_cycles": False}, {"extra_edges": 2})
    fields = [PrimeField(p) for p in (2, 3, 5)]
    seen = {"invalid": 0, "graph": 0, "cut": 0, "cycle": 0}
    kinds = set()
    draws = 0
    for shape, field, kind in itertools.product(shapes, fields, DEFECTS):
        for _ in range(10):
            r = with_defect(random_realization(rng, field, **shape), kind, rng)
            draws += 1
            code = symbol_code(r, rng)
            findings = validate(r)
            if findings:
                seen["invalid"] += 1
                kinds.add(kind)
            for name in SWEPT:
                f = getattr(ncl, name)
                error = refusal(lambda: f(*arguments(f, r, code, rng)))
                assert error is not None or not findings, (name, kind, r)

            graph = r.topology.issues()
            try:
                cuts = cut_dims(code, r.topology)
            except InvalidRealizationError as e:
                assert graph and e.issues == tuple(graph), (kind, r)
                seen["graph"] += 1
            except NotCycleFreeError:
                assert not graph and not r.topology.is_cycle_free(), (kind, r)
                seen["cycle"] += 1
            else:
                assert not graph and len(cuts) == len(r.topology.states), (kind, r)
                seen["cut"] += 1
    assert draws == 360
    assert kinds == set(DEFECTS[1:]), kinds
    assert min(seen.values()) >= 30, seen


def test_a_symbol_listed_by_both_constraints_is_refused():
    """A tree whose symbol a both constraints list: a normality finding. An
    owner map gives a to one constraint only, so a cut read without the
    check would leave a off the past side and read EdgeCut('s0', (), 0, 0)."""
    topo = Topology((SymbolVar("a", 1),), (StateVar("s0", 1, "c0", "c1"),),
                    (Constraint("c0", ("a", "s0")), Constraint("c1", ("a", "s0"))))
    code = BlockedCode.from_rows(ncl.GF2, ncl.BlockStructure((("a", 1),)), [[1]])
    assert topo.is_cycle_free()
    with pytest.raises(InvalidRealizationError) as e:
        cut_dims(code, topo)
    assert [i.tag for i in e.value.issues] == ["normality"]
    assert "symbol 'a' must be involved in exactly one constraint" in str(e.value)


GF5 = PrimeField(5)


@pytest.mark.parametrize("make, error", [
    (lambda: parity_check_realization(GF3, 3, [[1.7, 1, "2"]]), TypeError),
    (lambda: parity_check_realization(GF3, 3, [[1.7, 1, 2]]), ValueError),
    (lambda: parity_check_realization(GF3, 2, [[float("inf"), 1]]), ValueError),
    (lambda: generator_realization(GF5, 2, [[1, "2"]]), TypeError),
    (lambda: generator_realization(GF5, 2, [[1, 1], [2.5, 1]]), ValueError),
    (lambda: generator_realization(GF5, 2, [[Fraction(3, 2), 1]]), TypeError),
    (lambda: SpannedGenerator((1.5, 0), Span(0, 0)), ValueError),
    (lambda: SpannedGenerator(("1", 0), Span(0, 0)), TypeError),
    (lambda: SpannedGenerator((Fraction(1, 2), 2 ** 70), Span(0, 1)), TypeError),
], ids=["check-text", "check-fraction", "check-inf", "generator-text", "generator-fraction",
        "generator-object-fraction", "spanned-fraction", "spanned-text",
        "spanned-object-fraction"])
def test_a_builder_entry_is_never_truncated_or_parsed(make, error):
    with pytest.raises(error):
        make()


def test_a_builder_reads_integral_floats_and_any_int_exactly():
    big = [2 ** 63, -1, 2 ** 70]
    residues = [x % 3 for x in big]
    for build in (generator_realization, parity_check_realization):
        assert build(GF3, 3, [[4.0, -2.0, 1.0]]) == build(GF3, 3, [[1, 1, 1]])
        assert build(GF3, 3, [big]) == build(GF3, 3, [residues])
    g = SpannedGenerator((3.0, -1), Span(0, 1))
    assert g.vector == (3, -1) and all(type(v) is int for v in g.vector)
    assert product_trellis(GF3, 2, [g]) == product_trellis(
        GF3, 2, [SpannedGenerator((0, 2), Span(0, 1))])
    assert SpannedGenerator(tuple(big), Span(0, 2)).vector == tuple(big)


# one builder call per builder on n = 4, or on the n given: n goes through operator.index
BUILDS_AT = {
    "parity-check": lambda n: parity_check_realization(GF3, n, [[1, 2, 0, 1]]),
    "generator": lambda n: generator_realization(GF3, n, [[1, 2, 0, 1]]),
    "tail-biting": lambda n: product_trellis(
        GF3, n, [SpannedGenerator((1, 2, 0, 0), Span(0, 1))], "tail-biting"),
    "conventional": lambda n: product_trellis(
        GF3, n, [SpannedGenerator((1, 2, 0, 0), Span(0, 1))], "conventional"),
}


@pytest.mark.parametrize("builder", BUILDS_AT)
@pytest.mark.parametrize("n", [4.0, 4.5, "4"], ids=["integral-float", "fraction", "text"])
def test_a_builder_takes_n_through_index(builder, n):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        BUILDS_AT[builder](n)


@pytest.mark.parametrize("builder", BUILDS_AT)
def test_a_builder_reads_an_index_n_as_its_int(builder):
    assert BUILDS_AT[builder](np.int64(4)) == BUILDS_AT[builder](4)


def test_a_builder_reads_true_as_n_equal_to_one():
    for build in (parity_check_realization, generator_realization):
        assert build(GF3, True, [[2]]) == build(GF3, 1, [[2]])
    gens = [SpannedGenerator((2,), Span(0, 0))]
    assert product_trellis(GF3, True, gens, "conventional") == product_trellis(
        GF3, 1, gens, "conventional")
    with pytest.raises(ValueError, match="tail-biting trellis needs n >= 2"):
        product_trellis(GF3, True, gens, "tail-biting")


@pytest.mark.parametrize("start, end", [(0.5, 1), ("0", 1), (0, 1.0), (0, "1"), (None, 1)])
def test_a_span_takes_its_ends_through_index(start, end):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        Span(start, end)


def test_a_span_holds_its_ends_as_ints():
    for span in (Span(np.int64(2), np.int64(0)), Span(True, 2), Span(1, 2)):
        assert all(type(x) is int for x in (span.start, span.end))
    assert Span(np.int64(2), np.int64(0)) == Span(2, 0)
    assert Span(True, 2) == Span(1, 2)


@pytest.mark.parametrize("vector, stored", [
    ((1, 0, 2), (1, 0, 2)),
    ((True, 0), (1, 0)),
    ((np.int64(3), 1), (3, 1)),
    ((2.0, -1), (2, -1)),
    ((10 ** 30, 0), (10 ** 30, 0)),
    ((-5, 2 ** 63), (-5, 2 ** 63)),
    ((1, np.int64(2), True, 2.0), (1, 2, 1, 2)),
    ((), ()),
], ids=["ints", "bool", "int64", "integral-float", "past-int64", "negative", "mixed", "empty"])
def test_a_spanned_generator_stores_exact_ints(vector, stored):
    g = SpannedGenerator(vector, Span(0, 0))
    assert g.vector == stored
    assert all(type(v) is int for v in g.vector)


@pytest.mark.parametrize("vector, error, message", [
    ((1.7, 0), ValueError, "entries must be integers; got a non-integral or non-finite float"),
    ((1, 1.7), ValueError, "entries must be integers; got a non-integral or non-finite float"),
    (("1",), TypeError, "entries must be integers, got <U1 entries"),
    (("1", 0), TypeError, "entries must be integers, got <U21 entries"),
    ((2.0, 10 ** 30), TypeError, "'float' object cannot be interpreted as an integer"),
], ids=["fraction", "fraction-after-int", "text", "text-and-int", "float-beside-a-big-int"])
def test_a_spanned_generator_refuses_as_matrix_entries_do(vector, error, message):
    with pytest.raises(error) as e:
        SpannedGenerator(vector, Span(0, 0))
    assert str(e.value) == message
