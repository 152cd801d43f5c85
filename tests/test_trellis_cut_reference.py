"""product_trellis and cut_dims against their references
(helpers.reference_product_trellis and helpers.reference_cut_dims): the
same realizations, topology and code order included, the same EdgeCut
lists, and the same refusals with the same messages."""

import random

from ncl import (
    GF2,
    GF3,
    BlockedCode,
    BlockStructure,
    NclError,
    PrimeField,
    Span,
    SpannedGenerator,
    cut_dims,
    product_trellis,
    realized_code,
)
from helpers import (
    random_realization,
    random_spanned_generator,
    random_tree_realization,
    reference_cut_dims,
    reference_product_trellis,
)

FIELDS = (GF2, GF3, PrimeField(5))


def outcome(call):
    """(result, None), or (None, (type, message)) of the error it raised."""
    try:
        return call(), None
    except (ValueError, NclError) as e:
        return None, (type(e), str(e))


def path_generator(rng: random.Random, field: PrimeField, n: int) -> SpannedGenerator:
    """A generator whose span does not wrap, as a conventional trellis needs."""
    start = rng.randrange(n)
    end = rng.randrange(start, n)
    vec = [0] * n
    for k in range(start, end + 1):
        vec[k] = rng.randrange(field.p)
    if not any(vec):
        vec[rng.randint(start, end)] = rng.randrange(1, field.p)
    return SpannedGenerator(tuple(vec), Span(start, end))


def off_residue(rng: random.Random, field: PrimeField, g: SpannedGenerator) -> SpannedGenerator:
    """g with multiples of p added to its entries: the same generator mod p."""
    return SpannedGenerator(tuple(v + field.p * rng.randint(-1, 2) for v in g.vector), g.span)


def trellis_cases():
    """(field, n, gens, kind): over GF(2), GF(3) and GF(5), eight tail-biting
    trellises at each n from 2 to 12 (degenerate spans in about 30% of the
    generators) and eight conventional ones at each n from 1 to 12, 1 to 6
    generators each, a third of them written off their residues:
    3 * (88 + 96) = 552 builds."""
    rng = random.Random(4001)
    for field in FIELDS:
        for n in range(1, 13):
            for kind in ("tail-biting", "conventional"):
                if kind == "tail-biting" and n < 2:
                    continue
                for _ in range(8):
                    draw = (random_spanned_generator if kind == "tail-biting"
                            else path_generator)
                    gens = [draw(rng, field, n) for _ in range(rng.randint(1, 6))]
                    if rng.random() < 1 / 3:
                        gens = [off_residue(rng, field, g) for g in gens]
                    yield field, n, gens, kind


def test_product_trellis_builds_what_the_reference_builds():
    seen = {"tail-biting": 0, "conventional": 0, "degenerate": 0}
    for field, n, gens, kind in trellis_cases():
        got = product_trellis(field, n, gens, kind)
        want = reference_product_trellis(field, n, gens, kind)
        assert got == want  # topology, in order, and every code's blocks and basis
        assert list(got.codes) == list(want.codes)
        assert vars(got)["_issues"] == vars(want)["_issues"] == ()
        seen[kind] += 1
        seen["degenerate"] += any(g.span.degenerate for g in gens)
    assert seen["tail-biting"] == 264 and seen["conventional"] == 288
    assert seen["degenerate"] > 100, seen


def bad_trellis_arguments():
    """Every kind, n and list of generators below, most of them refused:
    an unknown kind, no generators, n too small for the kind, a generator of
    the wrong length, a span out of range, a nonzero entry outside its span
    (also one that is zero mod p), and a wrapping or degenerate span, which
    only a conventional trellis refuses."""
    for kind in ("tail-biting", "conventional", "ring"):
        for n in (-1, 0, 1, 2, 3):
            width = max(n, 1)
            ones = (1,) * width
            lists = [
                [],
                [SpannedGenerator(ones, Span(degenerate=True))],
                [SpannedGenerator((1,) * (width + 1), Span(0, 0))],
                [SpannedGenerator(ones, Span(0, width))],
                [SpannedGenerator((0,) * (width - 1) + (1,), Span(0, 0))],
                [SpannedGenerator((0,) * (width - 1) + (3,), Span(0, 0))],
                [SpannedGenerator((1,) + (0,) * (width - 2) + (1,), Span(width - 1, 0))],
                [SpannedGenerator((1,) + (0,) * (width - 1), Span(0, 0)),
                 SpannedGenerator(ones, Span(degenerate=True))],
            ]
            for gens in lists:
                yield kind, n, gens


# the start of each message product_trellis can refuse with
REFUSALS = ("unknown trellis kind", "at least one spanned generator required",
            "tail-biting trellis needs n >= 2", "conventional trellis needs n >= 1",
            "generator length", "span", "generator has nonzero entry",
            "conventional trellis forbids wrap-around and degenerate spans")


def test_product_trellis_refuses_what_the_reference_refuses():
    """5 values of n, 3 kinds and 8 lists of generators over GF(3): 120
    calls, which reach every refusal."""
    reached = set()
    calls = 0
    for kind, n, gens in bad_trellis_arguments():
        got, error = outcome(lambda: product_trellis(GF3, n, gens, kind))
        want, want_error = outcome(lambda: reference_product_trellis(GF3, n, gens, kind))
        assert error == want_error
        assert got == want
        calls += 1
        if error:
            assert error[0] is ValueError
            reached.add(next(m for m in REFUSALS if error[1].startswith(m)))
    assert calls == 120
    assert reached == set(REFUSALS)


def conventional(rng: random.Random, field: PrimeField):
    n = rng.randint(1, 8)
    gens = [path_generator(rng, field, n) for _ in range(rng.randint(1, 4))]
    return product_trellis(field, n, gens, "conventional")


def test_cut_dims_cuts_what_the_reference_cuts():
    """100 random trees over each of GF(2), GF(3), GF(5) and GF(7), up to six
    constraints with symbols attached in a random order, and 25 conventional
    trellises over each field: 500 realizations."""
    rng = random.Random(4002)
    cuts = trees = 0
    for field in (*FIELDS, PrimeField(7)):
        for i in range(125):
            r = (random_tree_realization(rng, field, max_constraints=6) if i < 100
                 else conventional(rng, field))
            code = realized_code(r)
            got = cut_dims(code, r.topology)
            assert got == reference_cut_dims(code, r.topology)
            cuts += len(got)
            trees += 1
    assert trees == 500 and cuts > 1000, cuts


def test_cut_dims_refuses_what_the_reference_refuses():
    """A graph with a cycle, and codes whose blocks are not the symbols:
    40 random realizations over GF(3), each with its own code and then one
    on another block list."""
    rng = random.Random(4003)
    errors = set()
    for _ in range(40):
        r = random_realization(rng, GF3, max_constraints=5, extra_edges=1)
        code = realized_code(r)
        other = BlockedCode.from_rows(
            GF3, BlockStructure(tuple((s.id, s.dim + 1) for s in r.topology.symbols)), [])
        for c in (code, other):
            got, error = outcome(lambda: cut_dims(c, r.topology))
            want, want_error = outcome(lambda: reference_cut_dims(c, r.topology))
            assert (got, error) == (want, want_error)
            errors.add(error and error[0].__name__)
    assert errors == {"NotCycleFreeError", "DimensionMismatchError", None}, errors
