"""The rank-test predicates agree with their definitions.

Trim, proper, state-trim and branch-trim are decided by ranks; here each
verdict is recomputed from the projection and cross-section subspaces
themselves, and the reduction drivers are replayed with scans written
directly in terms of those subspaces. At ladder scale the driver's work
is pinned too: it re-tests an incidence only after its code changed,
builds a projection only to trim, and the realizations its moves derive
validate as fresh ones would.
"""

import itertools
import random
from collections import Counter

import numpy as np
import pytest

import ncl.realization
import ncl.reduction
from ncl import (
    BlockedCode,
    DimensionMismatchError,
    GF2,
    GF3,
    NotReducibleError,
    PrimeField,
    ProperVerdict,
    Realization,
    Subspace,
    TrimVerdict,
    UnknownBlockError,
    analyze,
    behavior,
    dual_merge_unobservable,
    dualize,
    emit_realization,
    generator_realization,
    is_branch_trim,
    is_observable,
    is_proper,
    is_state_trim,
    is_trim,
    merge_state,
    minimize_cycle_free,
    next_reduction,
    parity_check_realization,
    parse_realization,
    reduce_to_fixpoint,
    reduce_unobservable,
    trim_state,
    unobservable_behavior,
    validate,
)
from ncl.fields import _SMALL_CELLS
from fixtures import example1
from helpers import (
    gallager_checks,
    ladder_trellis,
    random_blocked_code,
    random_realization,
    random_support_matrix,
    random_tail_biting_product,
    random_tree_realization,
    reference_analyze,
    reference_dual_merge,
    sympy_rank,
)

FIELDS = [GF2, GF3, PrimeField(5)]


def state_pairs(r):
    """(constraint, state) incidences in the order the reduction driver sweeps them."""
    topo = r.topology
    for c in topo.constraints:
        for sid in c.vars:
            if topo.is_state(sid):
                yield c.id, sid


def reference_trim(r, cid, sid):
    """Trim by sympy ranks of the code's basis columns at the state: a unit
    vector lies in the projection iff stacking it keeps the rank."""
    code = r.code(cid)
    at, d = code.structure.offset(sid), r.topology.var_dim(sid)
    columns, p = code.space.basis.array[:, at:at + d], r.field.p
    rk = sympy_rank(columns, p)
    if rk == d:
        return TrimVerdict(True, cid, sid)
    for i in range(d):
        unit = tuple(int(i == j) for j in range(d))
        if sympy_rank(np.vstack([columns, unit]), p) > rk:
            return TrimVerdict(False, cid, sid, unit)
    raise AssertionError("proper subspace contains every standard vector")


def reference_proper(r, cid):
    code = r.code(cid)
    for v in r.topology.constraint(cid).vars:
        if not r.topology.is_state(v):
            continue
        cs = code.cross_section([v])
        if cs.dim > 0:
            word = [0] * code.structure.total
            at = code.structure.offset(v)
            word[at:at + cs.structure.total] = cs.space.basis.row(0).tolist()
            return ProperVerdict(False, cid, v, tuple(word))
    return ProperVerdict(True, cid)


def reference_state_trim(r):
    b = behavior(r)
    return all(b.project([s.id]).dim == s.dim for s in r.topology.states)


def reference_branch_trim(r):
    b = behavior(r)
    return all(b.project(list(c.vars)).dim == r.code(c.id).dim
               for c in r.topology.constraints)


def trimmable(r, cid, sid):
    return r.code(cid).project([sid]).dim < r.topology.var_dim(sid)


def mergeable(r, cid, sid):
    return r.code(cid).cross_section([sid]).dim > 0


def reference_minimize(r):
    steps = []
    changed = True
    while changed:
        changed = False
        for cid in r.topology.constraint_ids():
            for sid in r.topology.constraint(cid).vars:
                if not r.topology.is_state(sid):
                    continue
                for test, move in ((trimmable, trim_state), (mergeable, merge_state)):
                    if test(r, cid, sid):
                        r, step = move(r, sid, cid)
                        steps.append(step)
                        changed = True
    return r, steps


def reference_fixpoint(r):
    """Sweep to a trim/merge fixpoint, cut one unobservable direction, repeat."""
    steps = []
    while True:
        r, swept = reference_minimize(r)
        steps += swept
        if unobservable_behavior(r).dim == 0:
            return r, steps
        r, step = reduce_unobservable(r)
        steps.append(step)


def instances(field, count, **kwargs):
    rng = random.Random(f"rank-verdicts:{field.p}")
    return [random_realization(rng, field, max_dim=3, **kwargs) for _ in range(count)]


def trellises(field, count):
    rng = random.Random(f"rank-verdicts-trellis:{field.p}")
    return [random_tail_biting_product(rng, field, max_n=6) for _ in range(count)]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"GF{f.p}")
def test_projection_and_cross_section_dims(field):
    rng = random.Random(f"blocked-dims:{field.p}")
    for _ in range(30):
        blocks = tuple((f"b{i}", rng.randint(0, 3)) for i in range(rng.randint(1, 4)))
        code = random_blocked_code(rng, field, blocks)
        ids = code.structure.ids()
        for k in range(len(ids) + 1):
            for chosen in itertools.permutations(ids, k):
                assert code.projection_dim(chosen) == code.project(chosen).dim
                assert code.cross_section_dim(chosen) == code.cross_section(chosen).dim
        for dims in (code.projection_dim, code.cross_section_dim):
            with pytest.raises(UnknownBlockError):
                dims([*ids, "nope"])
            with pytest.raises(ValueError, match="duplicate"):
                dims([ids[0], ids[0]])
    # a behavior past the small codec, whose width is no whole number of
    # bytes: over GF(2) and GF(3) its bit rows come from np.packbits,
    # padded with zero columns, and the column masks must not read them
    checks = random_support_matrix(random.Random(f"blocked-dims-wide:{field.p}"), field, 6, 20)
    code = behavior(parity_check_realization(field, 20, checks))
    assert code.dim * code.structure.total > _SMALL_CELLS and code.structure.total % 8
    ids = code.structure.ids()
    for _ in range(40):
        chosen = rng.sample(ids, rng.randint(0, len(ids)))
        assert code.projection_dim(chosen) == code.project(chosen).dim
        assert code.cross_section_dim(chosen) == code.cross_section(chosen).dim


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"GF{f.p}")
def test_local_verdicts_match_definitions(field):
    seen = Counter()
    for r in instances(field, 60):
        for cid, sid in state_pairs(r):
            verdict = is_trim(r, cid, sid)
            assert verdict == reference_trim(r, cid, sid)
            if not verdict.ok and r.topology.var_dim(sid) >= 2:
                seen["trim failure at dim >= 2"] += 1
        for c in r.topology.constraints:
            verdict = is_proper(r, c.id)
            assert verdict == reference_proper(r, c.id)
            if not verdict.ok and r.topology.var_dim(verdict.state_id) >= 2:
                seen["proper failure at dim >= 2"] += 1
        state_trim, branch_trim = reference_state_trim(r), reference_branch_trim(r)
        assert is_state_trim(r) == state_trim
        assert is_branch_trim(r) == branch_trim
        report = analyze(r)
        for cr in report.constraints:
            assert cr.proper == reference_proper(r, cr.id)
            assert cr.trim == tuple(reference_trim(r, cr.id, v)
                                    for v in r.topology.constraint(cr.id).vars
                                    if r.topology.is_state(v))
        assert (report.state_trim, report.branch_trim) == (state_trim, branch_trim)
        assert report.reduced == (state_trim and branch_trim)
        seen[f"state trim {state_trim}"] += 1
        seen[f"branch trim {branch_trim}"] += 1
    # every outcome occurs, so no assertion above holds vacuously
    assert set(seen) == {"trim failure at dim >= 2", "proper failure at dim >= 2",
                         "state trim True", "state trim False",
                         "branch trim True", "branch trim False"}


def with_repeated_codes(r):
    """r with every constraint taking the generator rows of the first one
    with its block dims, emitted and parsed, so those constraints share
    one subspace, failing verdicts and all."""
    first, codes = {}, {}
    for c in r.topology.constraints:
        code = r.code(c.id)
        rows = first.setdefault(tuple(d for _, d in code.structure.blocks), code.space.basis)
        codes[c.id] = BlockedCode.from_rows(r.field, code.structure, rows)
    return parse_realization(emit_realization(Realization(r.field, r.topology, codes)))


def analyze_cases(field):
    """(kind, realization) pairs for comparing analyze with its reference."""
    rng = random.Random(f"analyze-reference:{field.p}")
    cases = [("tree", random_tree_realization(rng, field, max_dim=3)) for _ in range(12)]
    cases += [("one cycle", random_realization(rng, field, max_dim=3)) for _ in range(12)]
    cases += [("cycles", random_realization(rng, field, max_dim=2, extra_edges=rng.randint(2, 3)))
              for _ in range(16)]
    cases += [("tail-biting", random_tail_biting_product(rng, field, max_n=6))
              for _ in range(10)]
    cases += [("shared", with_repeated_codes(random_realization(
        rng, field, max_constraints=6, max_dim=2, extra_edges=rng.randint(0, 3))))
        for _ in range(16)]
    for _ in range(4):
        n = rng.randint(3, 7)
        rows = random_support_matrix(rng, field, rng.randint(1, n - 1), n)
        for build in (parity_check_realization, generator_realization):
            cases.append(("shared", parse_realization(emit_realization(build(field, n, rows)))))
    # the fixpoints of every other tree and graph above, derived step by step
    cases += [("derived", reduce_to_fixpoint(r)[0]) for _, r in cases[:40:2]]
    return cases


def test_analyze_matches_the_per_incidence_reference():
    seen = Counter()
    for field in FIELDS + [PrimeField(7)]:
        for kind, r in analyze_cases(field):
            report = analyze(r)
            assert report.to_dict() == reference_analyze(r).to_dict()
            spaces = [id(r.code(c).space) for c in r.topology.constraint_ids()]
            shared = len(set(spaces)) < len(spaces)
            seen[kind] += 1
            seen["shared subspace"] += shared
            for cr in report.constraints:
                failed = sum(not t.ok for t in cr.trim) + (not cr.proper.ok)
                seen["failed trim"] += any(not t.ok for t in cr.trim)
                seen["failed proper"] += not cr.proper.ok
                seen["failed verdict on a shared subspace"] += bool(failed) and shared
    assert sum(seen[k] for k in ("tree", "one cycle", "cycles", "tail-biting", "shared",
                                 "derived")) >= 300, seen
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"GF{f.p}")
def test_dual_validates_as_a_fresh_realization(field):
    # dualize keeps the validated topology and every block structure, so it
    # sets the findings to none; a fresh realization on its parts finds none
    for kind, r in analyze_cases(field):
        d = dualize(r)
        assert "_issues" in vars(d)
        assert validate(d) == validate(Realization(d.field, d.topology, d.codes)) == [], kind


def test_analyze_ranks_each_distinct_local_code_once(monkeypatch):
    """A parsed (3,6)-regular Tanner graph with n = 240 has two local codes:
    a variable node's three states and a check node's six give 9 trim
    and 9 proper block ranks, where one per incidence would be 2,880."""
    batches, local = [], Counter()

    def counted(a, index, p):
        batches.append(len(index))
        return ranks(a, index, p)

    def counted_block_rank(space, spans, off=False):
        local[id(space)] += 1
        return block_rank(space, spans, off)

    ranks, block_rank = ncl.realization.ranks, Subspace._block_rank
    n = 240
    r = parse_realization(emit_realization(
        parity_check_realization(GF2, n, gallager_checks(random.Random(15), n))))
    monkeypatch.setattr(ncl.realization, "ranks", counted)
    monkeypatch.setattr(Subspace, "_block_rank", counted_block_rank)
    report = analyze(r)
    spaces = {id(r.code(cid).space) for cid in r.topology.constraint_ids()}
    assert len(spaces) == 2
    assert 0 < sum(local[space] for space in spaces) <= 18
    # the only stacked ranks are the behavior's state-trim and branch-trim
    # calls, one column group per constraint and one per state
    assert sorted(batches) == [n // 2 * 3, 3 * n]
    assert report.to_dict() == reference_analyze(r).to_dict()


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"GF{f.p}")
def test_reduce_to_fixpoint_matches_reference_scan(field):
    kinds = Counter()
    for r in instances(field, 40, total_cap=10) + trellises(field, 20):
        got = reduce_to_fixpoint(r)
        assert got == reference_fixpoint(r)
        kinds.update(step.kind for step in got[1])
    assert set(kinds) == {"trim", "merge", "unobservability-trim"}


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"GF{f.p}")
def test_next_reduction_names_first_fixpoint_step(field):
    seen = Counter()
    for r in instances(field, 40, total_cap=10) + trellises(field, 20):
        _, steps = reduce_to_fixpoint(r)
        first = steps[0].kind if steps else None
        want = None
        if first in ("trim", "merge"):
            want = (first, steps[0].state_id, steps[0].constraint_id)
        assert next_reduction(r) == want
        seen[first] += 1
    assert set(seen) == {"trim", "merge", "unobservability-trim", None}


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"GF{f.p}")
def test_fixpoint_takes_no_step_iff_trim_proper_and_observable(field):
    seen = Counter()
    for r in instances(field, 40, total_cap=10) + trellises(field, 20):
        report = analyze(r)
        irreducible = report.trim_proper and report.observable
        assert (reduce_to_fixpoint(r)[1] == []) == irreducible
        seen[(report.trim_proper, report.observable)] += 1
    assert set(seen) == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"GF{f.p}")
def test_minimize_cycle_free_matches_reference_scan(field):
    kinds = Counter()
    for r in instances(field, 40, total_cap=10, allow_cycles=False):
        got = minimize_cycle_free(r)
        assert got == reference_minimize(r)
        kinds.update(step.kind for step in got[1])
    assert set(kinds) == {"trim", "merge"}


def ladder_trellises():
    """Two GF(3) tail-biting trellises, n = 48, each needing an
    unobservability trim and then trims around the cycle."""
    return [ladder_trellis(random.Random(f"rank-verdicts-ladder:{i}"), GF3, 48)
            for i in range(2)]


def test_fixpoint_retests_an_incidence_only_after_its_code_changed(monkeypatch):
    calls = Counter()
    trim_test = ncl.reduction.is_trim

    def counting(r, cid, sid):
        calls["tests"] += 1
        return trim_test(r, cid, sid)

    # the driver's visit starts with its trim test; reference_fixpoint
    # tests by projection and cross-section, not through it
    monkeypatch.setattr(ncl.reduction, "is_trim", counting)
    for r in ladder_trellises():
        calls.clear()
        got = reduce_to_fixpoint(r)
        assert got == reference_fixpoint(r)
        _, steps = got
        kinds = [step.kind for step in steps]
        assert "trim" in kinds[kinds.index("unobservability-trim"):]
        # a constraint has one code version more than the steps at its states
        topo = r.topology
        versions = Counter({c.id: 1 for c in topo.constraints})
        for step in steps:
            state = topo.state(step.state_id)
            versions.update((state.left, state.right))
        bound = len(steps) + sum(versions[cid] for cid, _ in state_pairs(r))
        assert calls["tests"] <= bound


def test_fixpoint_projects_twice_per_trim(monkeypatch):
    calls = Counter()
    block_maps, project = Subspace._block_maps, BlockedCode.project

    def counting(space, at, d, cross=False):
        calls["section" if cross else "project"] += 1
        return block_maps(space, at, d, cross)

    def written(code, block_ids):
        calls["code"] += 1
        return project(code, block_ids)

    # the trim test reads its verdict off the kept bit rows; only a failed
    # test reads the projection, its L, for the witness, and the trim reads
    # it again; no projection is ever written as a code
    monkeypatch.setattr(Subspace, "_block_maps", counting)
    monkeypatch.setattr(BlockedCode, "project", written)
    for r in ladder_trellises():
        calls.clear()
        _, steps = reduce_to_fixpoint(r)
        trims = sum(step.kind == "trim" for step in steps)
        assert trims > 0
        assert calls["project"] == 2 * trims
        assert calls["code"] == 0


def intermediate_realizations(r):
    """Every realization trim_state, merge_state and reduce_unobservable
    derive on the way from r to its fixpoint, with the move's kind."""
    while True:
        move = next_reduction(r)
        if move is not None:
            kind, sid, cid = move
            r, _ = (trim_state if kind == "trim" else merge_state)(r, sid, cid)
        elif not is_observable(r):
            kind = "unobservability-trim"
            r, _ = reduce_unobservable(r)
        else:
            return
        yield kind, r


def test_derived_realizations_validate_as_fresh_ones():
    kinds = Counter()
    for r in ladder_trellises() + [example1()]:
        for kind, derived in intermediate_realizations(r):
            # the move set the findings; nothing was validated from scratch
            assert "_issues" in vars(derived)
            fresh = Realization(derived.field, derived.topology, derived.codes)
            assert validate(derived) == validate(fresh) == []
            # the indexes carried into the child are the ones a fresh topology computes
            topo = derived.topology
            again = ncl.realization.Topology(topo.symbols, topo.states, topo.constraints)
            assert topo._state_index == again._state_index
            kinds[kind] += 1
    assert set(kinds) == {"trim", "merge", "unobservability-trim"}


def test_a_derived_space_of_the_wrong_width_is_refused():
    r = example1()
    topo, codes = r.topology, r.codes
    trimmed, step = reduce_unobservable(r)
    state = topo.state(step.state_id)
    # the left space shrinks with the state, the right one keeps the old width
    spaces = (trimmed.code(state.left).space, r.code(state.right).space)
    with pytest.raises(DimensionMismatchError):
        r._with_state(state.id, step.new_dim, spaces)
    with pytest.raises(ValueError):  # one space for two ends
        r._with_state(state.id, step.new_dim, spaces[:1])
    assert r.topology is topo and r.codes == codes and validate(r) == []
    assert r.topology.state(state.id) == state


def assert_dual_merges_match_reference(cases, monkeypatch):
    """dual_merge_unobservable equals the dual trim dualized back, builds
    no dual code, and keeps every code off the merged state; returns how
    many cases it applied to."""
    calls = Counter()
    dual = BlockedCode.dual

    def counting(code):
        calls["dual"] += 1
        return dual(code)

    monkeypatch.setattr(BlockedCode, "dual", counting)
    applied = 0
    for r in cases:
        try:
            want = reference_dual_merge(r)
        except NotReducibleError:
            calls.clear()
            with pytest.raises(NotReducibleError):
                dual_merge_unobservable(r)
            assert calls["dual"] == 0
            continue
        calls.clear()
        out, step = dual_merge_unobservable(r)
        assert calls["dual"] == 0
        assert (out, step) == want
        state = r.topology.state(step.state_id)
        for c in r.topology.constraints:
            if c.id not in (state.left, state.right):
                assert out.code(c.id) is r.code(c.id)
        applied += 1
    return applied


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"GF{f.p}")
def test_dual_merge_is_the_dual_trim_dualized_back(field, monkeypatch):
    rng = random.Random(f"rank-verdicts-dual:{field.p}")
    families = [instances(field, 40), trellises(field, 20),
                [dualize(random_tail_biting_product(rng, field)) for _ in range(30)]]
    for cases in families:
        assert assert_dual_merges_match_reference(cases, monkeypatch) > 0


def test_dual_merge_on_a_ladder_trellis(monkeypatch):
    ladder = ladder_trellises()[0]
    # the ladder is controllable and its dual is not
    assert assert_dual_merges_match_reference([ladder, dualize(ladder)], monkeypatch) == 1
