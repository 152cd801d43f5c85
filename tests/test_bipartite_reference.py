"""generator_realization and parity_check_realization against the same
builders on helpers.reference_bipartite: the same topology, codes and
findings, the same sharing of one subspace among constraints with equal
local rows, byte-identical documents, and the same refusals."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncl.constructions as constructions
from ncl import (
    GF2,
    GF3,
    PrimeField,
    Realization,
    emit_realization,
    generator_realization,
    parity_check_realization,
)
from helpers import gallager_checks, reference_bipartite

FIELDS = (GF2, GF3, PrimeField(5), PrimeField(7))
BUILDERS = (generator_realization, parity_check_realization)
# past int64, past uint64, and below int64: read exactly, next to negative entries too
BIG = (2 ** 63, 2 ** 64 - 1, 2 ** 70 + 1, -2 ** 63 - 5)


def on_reference(build, field, n, rows) -> Realization:
    """build with constructions._bipartite swapped for the reference."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(constructions, "_bipartite", reference_bipartite)
        return build(field, n, rows)


def sharing(r: Realization) -> set[frozenset[str]]:
    """The constraints grouped by the subspace object their codes hold."""
    groups: dict[int, set[str]] = {}
    for cid, code in r.codes.items():
        groups.setdefault(id(code.space), set()).add(cid)
    return {frozenset(g) for g in groups.values()}


def assert_same_build(got: Realization, want: Realization) -> None:
    assert got == want  # topology, in order, and every code's blocks and basis
    assert list(got.codes) == list(want.codes)
    assert vars(got)["_issues"] == vars(want)["_issues"]
    assert sharing(got) == sharing(want)
    assert emit_realization(got) == emit_realization(want)


@st.composite
def matrices(draw):
    """(field, n, rows): 1-5 rows over 1-7 positions whose columns are drawn
    new, as a repeat of an earlier column, or zero mod p (0 or +-p); entries
    run from -p to 2p, with one in about six from BIG. A row that is zero
    mod p gets one nonzero entry."""
    field = draw(st.sampled_from(FIELDS))
    p = field.p
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    entry = st.tuples(st.integers(0, 5), st.integers(-p, 2 * p), st.sampled_from(BIG)).map(
        lambda t: t[2] if t[0] == 0 else t[1])
    columns: list[list[int]] = []
    for k in range(n):
        kind = draw(st.sampled_from(("new", "new", "repeat", "zero")))
        if kind == "repeat" and columns:
            columns.append(list(columns[draw(st.integers(0, k - 1))]))
        elif kind == "zero":
            columns.append([p * draw(st.integers(-1, 1)) for _ in range(m)])
        else:
            columns.append(draw(st.lists(entry, min_size=m, max_size=m)))
    rows = [[columns[k][i] for k in range(n)] for i in range(m)]
    for row in rows:
        if not any(v % p for v in row):
            row[draw(st.integers(0, n - 1))] = draw(st.integers(1, p - 1))
    return field, n, rows


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_builds_what_the_reference_builds(case):
    """150 examples, two builders each: about 1.3 s."""
    field, n, rows = case
    for build in BUILDERS:
        assert_same_build(build(field, n, rows), on_reference(build, field, n, rows))


def test_equal_rows_and_columns_share_one_subspace():
    rows = [[1, 1, 0, 2, 1], [1, 1, 0, 2, 1], [0, 0, 0, 1, 1]]
    for build in BUILDERS:
        got = build(GF3, 5, rows)
        assert_same_build(got, on_reference(build, GF3, 5, rows))
        node = "gen" if build is generator_realization else "chk"
        assert got.codes[f"{node}0"].space is got.codes[f"{node}1"].space
        assert got.codes["pos0"].space is got.codes["pos1"].space is not got.codes["pos3"].space
        assert [i.tag for i in vars(got)["_issues"]] == ["disconnected"]  # pos2 is alone


def test_a_gallager_code_builds_what_the_reference_builds():
    rows = gallager_checks(random.Random(4201), 48)
    for build in BUILDERS:
        assert_same_build(build(GF2, 48, rows), on_reference(build, GF2, 48, rows))


@pytest.mark.parametrize("rows", [[], [[1, 0], [1]], [[1, 1, 0]], [[1, 1], [0, 3]]],
                         ids=["empty", "ragged", "short", "zero-row"])
def test_refuses_what_the_reference_refuses(rows):
    for build in BUILDERS:
        with pytest.raises(ValueError) as got:
            build(GF3, 2, rows)
        with pytest.raises(ValueError) as want:
            on_reference(build, GF3, 2, rows)
        assert str(got.value) == str(want.value)
