"""product_trellis and cut_dims against their references
(helpers.reference_product_trellis and helpers.reference_cut_dims): the
same realizations, topology and code order included, the same EdgeCut
lists, and the same refusals with the same messages. The reference
eliminates every section from one word per generator; product_trellis
from the words of the generators active there, so the wider sweep adds
the cases that tell them apart: dim-0 states, rank-deficient sections,
large fields and the benchmark's n = 128 shape."""

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
    ladder_generators,
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


def gapped_generators(rng: random.Random, field: PrimeField, n: int, kind: str
                      ) -> list[SpannedGenerator]:
    """Generators whose spans cross no edge of a random set of gaps, so those
    states have dim 0, with dependent ones among them: two multiples of one
    generator on a one-position span, whose section words are equal up to
    scale, so that section is rank-deficient; an all-zero generator; and the
    sum of two generators on their common span. A conventional trellis gets
    no wrapping span."""
    edges = n if kind == "tail-biting" else n + 1
    gaps = set(rng.sample(range(edges), rng.randint(1, max(1, edges // 3))))

    def span() -> Span:
        while True:
            start = rng.randrange(n)
            end = (start + rng.randint(0, 2)) % n
            s = Span(start, end)
            if not gaps.intersection(s.crossed(n)) and not (
                    kind == "conventional" and s.wraps(n)):
                return s

    def draw(s: Span) -> tuple[int, ...]:
        vec = [0] * n
        for k in s.covered(n):
            vec[k] = rng.randrange(field.p)
        vec[rng.choice(s.covered(n))] = rng.randrange(1, field.p)
        return tuple(vec)

    gens = [SpannedGenerator(draw(s), s) for s in (span() for _ in range(rng.randint(1, 4)))]
    k = rng.randrange(n)
    one = [0] * n
    one[k] = rng.randrange(1, field.p)
    gens += [SpannedGenerator(tuple(one), Span(k, k)),
             SpannedGenerator(tuple(c * rng.randrange(1, field.p) for c in one), Span(k, k))]
    s = span()
    gens.append(SpannedGenerator((0,) * n, s))
    a, b = draw(s), draw(s)
    gens += [SpannedGenerator(a, s), SpannedGenerator(b, s),
             SpannedGenerator(tuple((x + y) % field.p for x, y in zip(a, b)), s)]
    rng.shuffle(gens)
    return gens


def wider_trellis_cases():
    """(field, n, gens, kind), 280 builds in all:
    - 160 random trellises over GF(7) and GF(8191), as trellis_cases draws
      them: four tail-biting ones at each n from 2 to 11 and four
      conventional ones at each n from 1 to 10, per field;
    - 12 ladder trellises, the benchmark's trellis-reduce shape (a chain
      whose values sum to zero, and short spans, some with a zero at one
      end), at n = 32, 64 and 128 over GF(2), GF(3), GF(5) and GF(7);
    - 108 trellises of gapped_generators (uncrossed edges, rank-deficient
      sections) over GF(2), GF(3) and GF(7): at each n from 2 to 10, two
      tail-biting and two conventional ones per field."""
    rng = random.Random(4004)
    for field in (PrimeField(7), PrimeField(8191)):
        for kind, sizes in (("tail-biting", range(2, 12)), ("conventional", range(1, 11))):
            draw = random_spanned_generator if kind == "tail-biting" else path_generator
            for n in sizes:
                for _ in range(4):
                    gens = [draw(rng, field, n) for _ in range(rng.randint(1, 6))]
                    if rng.random() < 1 / 3:
                        gens = [off_residue(rng, field, g) for g in gens]
                    yield field, n, gens, kind
    for field in (GF2, GF3, PrimeField(5), PrimeField(7)):
        for n in (32, 64, 128):
            yield field, n, ladder_generators(rng, field, n), "tail-biting"
    for field in (GF2, GF3, PrimeField(7)):
        for n in range(2, 11):
            for kind in ("tail-biting", "conventional"):
                for _ in range(2):
                    yield field, n, gapped_generators(rng, field, n, kind), kind


def section_is_rank_deficient(r, field: PrimeField, n: int, gens, i: int) -> bool:
    """Whether section c{i} has a lower dim than the number of generators
    active there (crossing its in- or out-edge, or nonzero at i)."""
    out = (i + 1) % len(r.topology.states)
    active = [g for g in gens
              if i in g.span.crossed(n) or out in g.span.crossed(n) or g.vector[i] % field.p]
    return r.codes[f"c{i}"].dim < len(active)


def test_product_trellis_builds_what_the_reference_builds_on_wider_cases():
    """wider_trellis_cases, each built by product_trellis and by the
    reference: 280 builds, about 0.3 s on a 2-core x86-64 VM. Every
    gapped_generators build has a rank-deficient section."""
    seen = {"builds": 0, "ladder": 0, "dim-0 states": 0, "rank-deficient": 0, "big-field": 0}
    for field, n, gens, kind in wider_trellis_cases():
        got = product_trellis(field, n, gens, kind)
        want = reference_product_trellis(field, n, gens, kind)
        assert got == want
        assert list(got.codes) == list(want.codes)
        assert vars(got)["_issues"] == vars(want)["_issues"] == ()
        seen["builds"] += 1
        seen["ladder"] += n >= 32
        seen["big-field"] += field.p == 8191
        inner = got.topology.states if kind == "tail-biting" else got.topology.states[1:-1]
        seen["dim-0 states"] += any(s.dim == 0 for s in inner)
        seen["rank-deficient"] += any(section_is_rank_deficient(got, field, n, gens, i)
                                      for i in range(n))
    assert seen["builds"] == 280 and seen["ladder"] == 12 and seen["big-field"] == 80, seen
    assert seen["dim-0 states"] >= 100 and seen["rank-deficient"] >= 108, seen


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
