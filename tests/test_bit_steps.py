"""Reduction steps over GF(2) and GF(3) on the bit rows each code keeps.

Over GF(2) and GF(3) a trim or a merge reads L off the kept bit rows of
a constraint's code (`Subspace._block_maps`), and every step maps the
kept rows of both endpoint codes (`fields._stepped`). Here every move,
and every step under random maps, is checked against the three-pass
reference of tests/helpers.py, and every subspace a step derives
arrives with the bit rows `_bit_rows` reads off its basis afresh, so
`_block_rank` stays exact. The instances cover what the shifts must get
right: codes past `_SMALL_CELLS`, whose rows are read through
np.packbits, widths that are not multiples of 8, states going to dim 0,
dim-0 endpoint codes, and GF(3) words whose lead is 2.
"""

import random
from collections import Counter

import numpy as np
import pytest

from ncl import (
    GF2,
    GF3,
    BlockedCode,
    BlockStructure,
    Constraint,
    PrimeField,
    Realization,
    StateVar,
    SymbolVar,
    Topology,
    controllability_defect,
    dual_merge_unobservable,
    is_observable,
    merge_state,
    rank,
    reduce_unobservable,
    trim_state,
)
from ncl.fields import _SMALL_CELLS, _held, _null_rows
from ncl.reduction import MERGE, TRIM, UNOBS_TRIM, _shrink
from helpers import (
    assert_rows_kept,
    random_blocked_code,
    random_matrix,
    random_realization,
    random_tail_biting_product,
    reference_dual_merge,
    reference_move,
    reference_shrink,
)

FIELDS = [GF2, GF3]
FEATURES = ("zero code", "padded in", "padded out", "odd width", "to dim 0")


def wide_realization(rng: random.Random, field: PrimeField) -> Realization:
    """Two constraints on a cycle of two states, with symbols wide enough
    that their codes pass _SMALL_CELLS cells, mostly at widths that are
    not multiples of 8."""
    dims = {"a0": rng.randint(16, 24), "a1": rng.randint(16, 24),
            "s0": rng.randint(1, 6), "s1": rng.randint(1, 6)}
    topo = Topology((SymbolVar("a0", dims["a0"]), SymbolVar("a1", dims["a1"])),
                    (StateVar("s0", dims["s0"], "c0", "c1", "left"),
                     StateVar("s1", dims["s1"], "c1", "c0", "right")),
                    (Constraint("c0", ("a0", "s0", "s1")), Constraint("c1", ("s0", "a1", "s1"))))
    codes = {}
    for c in topo.constraints:
        structure = BlockStructure(tuple((v, dims[v]) for v in c.vars))
        rows = random_matrix(rng, field, structure.total - rng.randint(0, 8), structure.total)
        codes[c.id] = BlockedCode.from_rows(field, structure, rows)
    return Realization(field, topo, codes)


def families(rng: random.Random, field: PrimeField):
    for _ in range(5):
        yield random_realization(rng, field, max_dim=3, total_cap=14, extra_edges=1)
        yield random_tail_biting_product(rng, field, max_n=6)
        yield wide_realization(rng, field)


def seen_in(counts: Counter, before, after, step) -> None:
    """Count the instance features the module docstring names."""
    for cid in (before.topology.state(step.state_id).left,
                before.topology.state(step.state_id).right):
        old, new = before.code(cid).space, after.code(cid).space
        counts["zero code"] += old.dim == 0
        counts["padded in"] += old.dim * old.ambient > _SMALL_CELLS and old.ambient % 8 != 0
        counts["padded out"] += new.dim * new.ambient > _SMALL_CELLS and new.ambient % 8 != 0
        counts["odd width"] += new.ambient % 8 != 0
    counts["to dim 0"] += step.new_dim == 0


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"GF{f.p}")
def test_moves_match_the_reference_on_kept_rows(field):
    rng = random.Random(f"bit-steps:{field.p}")
    counts = Counter()
    for r in families(rng, field):
        for _ in range(8):
            applied = []
            for cid, sid in r.topology.incidences():
                code = r.code(cid)
                if code.projection_dim([sid]) < r.topology.var_dim(sid):
                    applied.append((trim_state(r, sid, cid), reference_move(r, TRIM, sid, cid)))
                if code.cross_section_dim([sid]):
                    applied.append((merge_state(r, sid, cid), reference_move(r, MERGE, sid, cid)))
            if not is_observable(r):
                applied.append((reduce_unobservable(r), reference_move(r, UNOBS_TRIM)))
            if controllability_defect(r):
                applied.append((dual_merge_unobservable(r), reference_dual_merge(r)))
            if not applied:
                break
            for (got, step), want in applied:
                assert (got, step) == want
                for cid in (r.topology.state(step.state_id).left,
                            r.topology.state(step.state_id).right):
                    assert_rows_kept(got.code(cid).space)
                counts[step.kind] += 1
                seen_in(counts, r, got, step)
            r = applied[rng.randrange(len(applied))][0][0]
    assert all(counts[k] for k in (TRIM, MERGE, UNOBS_TRIM, "dual-merge", *FEATURES)), counts


def leads_of_two(r, state_id, f, x) -> int:
    """Rows of the stacked words of `_shrink` (its docstring) whose first
    nonzero entry is 2."""
    count = 0
    state = r.topology.state(state_id)
    for cid in (state.left, state.right):
        code = r.code(cid)
        g = code.space.basis.array
        at = code.structure.offset(state_id)
        v = g[:, at:at + x.shape[0]]
        both = np.hstack([v @ f, g[:, :at], v @ x, g[:, at + x.shape[0]:]]) % r.field.p
        count += sum(row[row.nonzero()[0][0]] == 2 for row in both if row.any())
    return count


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"GF{f.p}")
def test_steps_under_random_maps_match_the_reference(field):
    """Any (f, x) with x of full column rank, not only the ones the moves
    read off L: every digit, 2 included, reaches the rows' sums."""
    rng = random.Random(f"bit-maps:{field.p}")
    p = field.p
    counts = Counter()
    for _ in range(60):
        r = wide_realization(rng, field) if rng.random() < 0.4 else random_realization(
            rng, field, max_dim=4, total_cap=16, extra_edges=1)
        for state in r.topology.states:
            d = state.dim
            if d == 0:
                continue
            new_dim = rng.randrange(d)
            while True:
                x = np.array([[rng.randrange(p) for _ in range(new_dim)] for _ in range(d)],
                             dtype=np.int64).reshape(d, new_dim)
                if rank(_held(field, x.T.copy())) == new_dim:
                    break
            k = rng.randint(0, d)
            f = np.array([[rng.randrange(p) for _ in range(k)] for _ in range(d)],
                         dtype=np.int64).reshape(d, k)
            got, step = _shrink(r, TRIM, state.id, f, x)
            assert (got, step) == reference_shrink(r, TRIM, state.id, f, x)
            for cid in (state.left, state.right):
                assert_rows_kept(got.code(cid).space)
            counts["lead 2"] += int(leads_of_two(r, state.id, f, x))
            seen_in(counts, r, got, step)
    assert all(counts[k] for k in FEATURES), counts
    assert counts["lead 2"] or p == 2, counts


@pytest.mark.parametrize("p", [2, 3, 5])
def test_block_maps_read_the_projection_and_the_cross_section(p):
    """The pivots and quotient map of a trim's and a merge's L, from kept
    bit rows over GF(2) and GF(3) and from the sliced basis over GF(5),
    against `project`, `cross_section` and the numpy null rows."""
    field = PrimeField(p)
    rng = random.Random(f"block-maps:{p}")
    counts = Counter()
    for _ in range(40):
        blocks = tuple((f"b{i}", rng.randint(0, 29)) for i in range(rng.randint(1, 3)))
        code = random_blocked_code(rng, field, blocks)
        counts["padded"] += code.dim * code.structure.total > _SMALL_CELLS
        for bid, d in blocks:
            at = code.structure.offset(bid)
            for cross, want in ((False, code.project([bid])), (True, code.cross_section([bid]))):
                pivots, quotient = code.space._block_maps(at, d, cross)
                space = want.space
                assert pivots == space.pivots
                assert np.array_equal(quotient, _null_rows(space.basis.array, pivots, p).T)
                counts[cross, space.dim > 0] += 1
    assert counts["padded"] and all(counts[c, n] for c in (False, True) for n in (False, True))
