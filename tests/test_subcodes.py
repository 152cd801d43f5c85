"""Every subcode the package derives comes from fields._vanishing.

Spans, projections, cross-sections, the proper witness and the endpoint
codes of each reduction step over p >= 5 are all one call of it; over
GF(2) and GF(3) a step reduces kept bit rows instead, and
tests/test_bit_steps.py checks those too. Here it is checked
against brute-force enumeration, and each of those subcodes against the
construction it replaced (tests/helpers.py): a left kernel, a product
with its coefficients and a second span, or a null space of the check
matrix.
"""

import itertools
import random
from collections import Counter

import numpy as np
import pytest

from ncl import (
    GF2,
    GF3,
    BlockedCode,
    BlockStructure,
    MatrixF,
    PrimeField,
    Subspace,
    is_observable,
    is_proper,
    merge_state,
    reduce_unobservable,
    trim_state,
)
from ncl.fields import _vanishing
from ncl.reduction import MERGE, TRIM, UNOBS_TRIM
from helpers import (
    full_space,
    random_blocked_code,
    random_realization,
    random_tail_biting_product,
    random_tree_realization,
    reference_cross_section,
    reference_is_proper,
    reference_move,
    zero_space,
)

FIELDS = [GF2, GF3, PrimeField(5), PrimeField(7)]


def words(p: int, rows: np.ndarray, width: int) -> set[tuple[int, ...]]:
    """Every combination of the rows mod p, by full scan."""
    out = set()
    for coeffs in itertools.product(range(p), repeat=rows.shape[0]):
        w = [0] * width
        for a, row in zip(coeffs, rows.tolist()):
            w = [(x + a * y) % p for x, y in zip(w, row)]
        out.add(tuple(w))
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_vanishing_is_the_enumerated_subcode(p):
    field = PrimeField(p)
    rng = np.random.default_rng(500 + p)
    for _ in range(40):
        rows, cols = int(rng.integers(0, 5)), int(rng.integers(0, 7))
        a = rng.integers(0, p, (rows, cols))
        if rows and rng.random() < 0.3:
            a[int(rng.integers(rows))] = a[0] * int(rng.integers(p)) % p
        span = words(p, a, cols)
        for skip in range(cols + 1):
            got = _vanishing(field, a.copy(), skip)
            want = {w[skip:] for w in span if not any(w[:skip])}
            assert got.ambient == cols - skip
            assert words(p, got.basis.array, cols - skip) == want
            checked = Subspace(field, got.ambient, MatrixF(field, got.basis.array.copy()))
            assert (got, got.pivots) == (checked, checked.pivots)


def structures(rng: random.Random):
    """Random block layouts, zero-dim blocks included."""
    for _ in range(12):
        yield BlockStructure(tuple((f"b{i}", rng.randint(0, 3))
                                   for i in range(rng.randint(1, 4))))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"GF{f.p}")
def test_cross_section_matches_the_left_kernel_reference(field):
    rng = random.Random(f"cross-section:{field.p}")
    seen = Counter()
    for structure in structures(rng):
        codes = [random_blocked_code(rng, field, structure.blocks) for _ in range(3)]
        codes += [BlockedCode(structure, zero_space(field, structure.total)),
                  BlockedCode(structure, full_space(field, structure.total))]
        ids = structure.ids()
        for code in codes:
            for k in range(len(ids) + 1):
                for chosen in itertools.permutations(ids, k):
                    got = code.cross_section(chosen)
                    assert got == reference_cross_section(code, chosen)
                    seen["nonzero" if got.dim else "zero"] += 1
    assert seen["nonzero"] and seen["zero"], seen


def families(field: PrimeField, rng: random.Random):
    """Trees, graphs with 2-3 independent cycles and tail-biting products."""
    for _ in range(6):
        yield random_tree_realization(rng, field, max_dim=3)
        yield random_realization(rng, field, max_dim=2, extra_edges=rng.randint(2, 3))
        yield random_tail_biting_product(rng, field, max_n=6)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"GF{f.p}")
def test_every_move_matches_the_three_pass_reference(field):
    """Each applicable trim, merge and unobservability trim, at every
    realization along one path of moves, gives the reference's codes and
    step."""
    rng = random.Random(f"moves:{field.p}")
    seen = Counter()
    for r in families(field, rng):
        for _ in range(12):
            applied = []
            for cid, sid in r.topology.incidences():
                if r.code(cid).projection_dim([sid]) < r.topology.var_dim(sid):
                    applied.append((trim_state(r, sid, cid), reference_move(r, TRIM, sid, cid)))
                if r.code(cid).cross_section_dim([sid]):
                    applied.append((merge_state(r, sid, cid), reference_move(r, MERGE, sid, cid)))
            if not is_observable(r):
                applied.append((reduce_unobservable(r), reference_move(r, UNOBS_TRIM)))
            if not applied:
                break
            for got, want in applied:
                assert got == want
                seen[got[1].kind] += 1
            r = applied[0][0][0]
    assert seen[TRIM] and seen[MERGE] and seen[UNOBS_TRIM], seen


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"GF{f.p}")
def test_proper_witness_matches_the_check_matrix_reference(field):
    rng = random.Random(f"proper:{field.p}")
    seen = Counter()
    for r in families(field, rng):
        for cid in r.topology.constraint_ids():
            verdict = is_proper(r, cid)
            assert verdict == reference_is_proper(r, cid)
            seen[verdict.ok] += 1
    assert seen[True] and seen[False], seen
