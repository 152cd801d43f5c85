"""Acceptance suite: one test per criterion, fixed seeds, explicit counts.

Instance sizes are chosen so the brute-force oracle stays cheap; where an
instance is too large to enumerate (the 28-variable check-matrix example)
the comparison falls back to the kernel-computed realized code plus an
independent plain-integer scan of the check matrix itself.
"""

import random

import pytest

from ncl import (
    GF2,
    GF3,
    MatrixF,
    PrimeField,
    Subspace,
    analyze,
    behavior,
    brute_behavior,
    brute_realized_words,
    controllability_defect,
    cut_dims,
    dual_merge_unobservable,
    dualize,
    generator_realization,
    is_controllable,
    is_observable,
    is_proper,
    is_reduced,
    is_tail_biting_trellis,
    is_trim,
    kernel,
    merge_state,
    minimize_cycle_free,
    next_reduction,
    parity_check_realization,
    parse_realization,
    product_trellis,
    rank,
    Span,
    SpannedGenerator,
    realized_code,
    reduce_unobservable,
    trajectory_components,
    trim_state,
    unobservable_behavior,
)
from fixtures import (
    EX1_DUAL_WORDS,
    EX1_WORDS,
    EX3_DUAL_ROWS,
    EX3_GEN_ROWS,
    EX3_STATE_DIMS,
    CRITERION12_DOCUMENT,
    RM84_CHECKS,
    conventional_improper,
    criterion12_witness,
    example1,
    example2,
    example3,
    example3_dual_product,
    rm84_words,
    span_words,
)
from helpers import (
    gallager_checks,
    in_constraint_order,
    random_realization,
    random_blocked_code,
    random_spanned_generator,
    random_support_matrix,
    random_tree_realization,
    reference_trajectory_partition,
    sympy_rank,
)

ORACLE_POINTS = 1 << 16


def fixture_realizations():
    return [
        example1(),
        dualize(example1()),
        example2(),
        example3(),
        example3_dual_product(),
        conventional_improper(),
    ]


def total_dim(r):
    return r.topology.total_symbol_dim() + r.topology.total_state_dim()


def realized_words(r):
    """Realized word set; brute-force when enumerable, else the kernel path."""
    if r.field.p ** total_dim(r) <= ORACLE_POINTS:
        return brute_realized_words(r)
    return set(realized_code(r).enumerate())


def test_criterion_01_three_section_example():
    r = example1()
    assert brute_realized_words(r) == EX1_WORDS
    assert set(realized_code(r).enumerate()) == EX1_WORDS
    assert behavior(r).dim == 3
    assert unobservable_behavior(r).dim == 1
    assert controllability_defect(r) == 0

    d = dualize(r)
    assert brute_realized_words(d) == EX1_DUAL_WORDS
    assert behavior(d).dim == 1
    assert d.total_constraint_dim() == 3
    assert d.topology.total_state_dim() == 3
    assert controllability_defect(d) == 1
    assert trajectory_components(d).count == 2


def test_criterion_02_eight_four_self_dual():
    r = example2()
    assert r.topology.total_state_dim() == 20
    assert r.total_constraint_dim() == 23

    code = realized_code(r)
    assert code.structure.total == 8 and code.dim == 4
    words = set(code.enumerate())
    assert code == code.dual()
    assert min(sum(1 for x in w if x) for w in words if any(w)) == 4
    # independent plain-integer scan of the published check rows
    assert words == rm84_words()

    assert is_observable(r)
    assert controllability_defect(r) == 1
    rep = trajectory_components(r)
    assert rep.count == 1
    assert rep.uncontrollable is None and rep.warning is not None


def test_criterion_03_five_section_example():
    r = example3()
    assert tuple(s.dim for s in r.topology.states) == EX3_STATE_DIMS
    want = span_words(2, EX3_GEN_ROWS)
    assert brute_realized_words(r) == want
    assert set(realized_code(r).enumerate()) == want
    assert unobservable_behavior(r).dim == 1

    d = dualize(r)
    dual_want = span_words(2, EX3_DUAL_ROWS)
    assert brute_realized_words(d) == dual_want

    prod = example3_dual_product()
    assert tuple(s.dim for s in prod.topology.states) == EX3_STATE_DIMS
    assert brute_realized_words(prod) == dual_want

    assert trajectory_components(d).count == 2


def test_criterion_04_trim_proper_duality():
    rng = random.Random(11001)
    checked = 0
    for field in (GF2, GF3):
        for _ in range(100):
            blocks = tuple((f"b{i}", rng.randint(0, 3))
                           for i in range(rng.randint(1, 4)))
            c = random_blocked_code(rng, field, blocks)
            d = c.dual()
            for bid, dim in blocks:
                trim_here = c.project([bid]).dim == dim
                proper_dual_here = d.cross_section([bid]).dim == 0
                assert trim_here == proper_dual_here, (field, blocks, bid)
            checked += 1
    assert checked >= 200


def _applicable_ops(r):
    ops = []
    topo = r.topology
    for c in topo.constraints:
        for sid in (v for v in c.vars if topo.is_state(v)):
            if not is_trim(r, c.id, sid).ok:
                ops.append(("trim", sid, c.id))
            if r.code(c.id).cross_section([sid]).dim > 0:
                ops.append(("merge", sid, c.id))
    if unobservable_behavior(r).dim > 0:
        ops.append(("unobs", None, None))
    if controllability_defect(r) > 0:
        ops.append(("dual-merge", None, None))
    return ops


def _check_reductions_preserve(r):
    before = realized_words(r)
    applied = 0
    for kind, sid, cid in _applicable_ops(r):
        if kind == "trim":
            out, step = trim_state(r, sid, cid)
        elif kind == "merge":
            out, step = merge_state(r, sid, cid)
        elif kind == "unobs":
            out, step = reduce_unobservable(r)
        else:
            out, step = dual_merge_unobservable(r)
            assert controllability_defect(out) == controllability_defect(r) - 1
        assert realized_words(out) == before, (kind, sid, cid)
        assert step.new_dim < step.old_dim
        applied += 1

    # unobservability trims walk B_u down one dimension at a time
    current = r
    d = unobservable_behavior(current).dim
    while d > 0:
        current, _ = reduce_unobservable(current)
        assert unobservable_behavior(current).dim == d - 1
        assert realized_words(current) == before
        d -= 1
    return applied


def test_criterion_05_reductions_preserve_realized_code():
    for r in fixture_realizations():
        _check_reductions_preserve(r)

    rng = random.Random(5150)
    done = 0
    trims = merges = unobs = 0
    while done < 100:
        if rng.random() < 0.3:
            r = random_realization(rng, GF3, total_cap=7)
        elif rng.random() < 0.15:
            r = random_realization(rng, GF2, total_cap=14)
        else:
            r = random_realization(rng, GF2, total_cap=12)
        ops = _applicable_ops(r)
        trims += sum(1 for k, _, _ in ops if k == "trim")
        merges += sum(1 for k, _, _ in ops if k == "merge")
        unobs += sum(1 for k, _, _ in ops if k == "unobs")
        _check_reductions_preserve(r)
        done += 1
    assert done >= 100
    # the sample must actually exercise each move
    assert trims > 0 and merges > 0 and unobs > 0


def test_criterion_06_tree_minimizer():
    rng = random.Random(606060)
    done = 0
    while done < 50:
        r = random_tree_realization(rng, GF2, total_cap=12)
        before = brute_realized_words(r)
        minimal, _ = minimize_cycle_free(r)
        assert brute_realized_words(minimal) == before

        # fixpoint: no trim or merge applies anywhere
        assert next_reduction(minimal) is None
        for c in minimal.topology.constraints:
            assert is_proper(minimal, c.id).ok
            for v in c.vars:
                if minimal.topology.is_state(v):
                    assert is_trim(minimal, c.id, v).ok

        # state dims equal the cut dims of the realized code (cut_dims
        # itself recomputes each cut from both sides and compares)
        cuts = {c.state_id: c.minimal_dim
                for c in cut_dims(realized_code(r), r.topology)}
        dims = {s.id: s.dim for s in minimal.topology.states}
        assert dims == cuts

        order = list(r.topology.constraint_ids())
        rng.shuffle(order)
        permuted, _ = minimize_cycle_free(in_constraint_order(r, order))
        assert {s.id: s.dim for s in permuted.topology.states} == dims
        assert realized_code(permuted) == realized_code(minimal)
        done += 1
    assert done >= 50


def test_criterion_07_controllable_iff_dual_observable():
    rng = random.Random(70707)
    pool = fixture_realizations()
    while len(pool) < 106:
        field = GF3 if rng.random() < 0.3 else GF2
        pool.append(random_realization(rng, field, total_cap=10))
    randoms = 0
    for r in pool:
        d = dualize(r)
        assert is_controllable(r) == is_observable(d)
        free = r.total_constraint_dim() - r.topology.total_state_dim()
        assert (behavior(r).dim == free) == is_observable(d)
        randoms += 1
    assert randoms - 6 >= 100


def test_criterion_08_dual_realizes_dual_code():
    for r in fixture_realizations():
        d = dualize(r)
        want = realized_code(r).dual()
        assert realized_code(d) == want
        if r.field.p ** total_dim(r) <= ORACLE_POINTS:
            assert brute_realized_words(d) == set(want.enumerate())
        else:
            # kernel-level set comparison for the non-enumerable fixture
            assert set(realized_code(d).enumerate()) == set(want.enumerate())

    rng = random.Random(80808)
    total = gf3 = 0
    while total < 100 or gf3 < 20:
        use3 = rng.random() < 0.3 or (total >= 100 and gf3 < 20)
        field = GF3 if use3 else GF2
        r = random_realization(rng, field, total_cap=7 if use3 else 12)
        d = dualize(r)
        want = realized_code(r).dual()
        assert realized_code(d) == want
        assert brute_realized_words(d) == set(want.enumerate())
        total += 1
        gf3 += 1 if use3 else 0
    assert total >= 100 and gf3 >= 20


def test_criterion_09_generator_and_check_builds():
    rng = random.Random(90909)
    gens = checks = 0
    for _ in range(55):
        field = GF3 if rng.random() < 0.35 else GF2
        m, n = rng.randint(1, 3), rng.randint(2, 6)
        rows = random_support_matrix(rng, field, m, n)
        independent = rank(MatrixF(field, rows)) == m

        g = generator_realization(field, n, rows)
        assert is_controllable(g)
        assert is_observable(g) == independent
        assert realized_code(g).space == Subspace.spanned_by(field, n, rows)
        gens += 1

        h = parity_check_realization(field, n, rows)
        assert is_observable(h)
        assert is_controllable(h) == independent
        assert realized_code(h).space == kernel(MatrixF(field, rows))
        checks += 1
    assert gens >= 50 and checks >= 50


def test_criterion_10_tail_biting_connectivity():
    rng = random.Random(101010)
    done = 0
    disconnected = 0
    while done < 100:
        field = GF3 if rng.random() < 0.25 else GF2
        n = rng.randint(2, 8)
        m = rng.randint(1, 4)
        gens = [random_spanned_generator(rng, field, n) for _ in range(m)]
        r = product_trellis(field, n, gens, "tail-biting")
        assert is_tail_biting_trellis(r.topology)
        assert is_reduced(r)

        rep = trajectory_components(r)
        uncontrollable = controllability_defect(r) > 0
        assert rep.uncontrollable == uncontrollable
        assert (rep.count > 1) == uncontrollable
        assert is_controllable(r) == (not any(g.span.degenerate for g in gens))
        disconnected += 1 if rep.count > 1 else 0
        done += 1
    assert done >= 100
    # both outcomes must actually occur in the sample
    assert 0 < disconnected < done


def test_criterion_11_oracle_matches_kernel_everywhere():
    instances = fixture_realizations()
    rng = random.Random(111111)
    for _ in range(30):
        field = GF3 if rng.random() < 0.3 else GF2
        instances.append(random_realization(rng, field, total_cap=10))
    # ten graphs with two or three independent cycles, parallel states allowed
    rng = random.Random(111112)
    multi_cycle = 0
    while multi_cycle < 10:
        field = GF3 if multi_cycle % 3 == 0 else GF2
        r = random_realization(rng, field, total_cap=12, extra_edges=2)
        if len(r.topology.states) - len(r.topology.constraints) >= 1:
            instances.append(r)
            multi_cycle += 1
    # a 16-variable instance and a boundary instance at exactly 2^20 points
    instances.append(product_trellis(GF2, 8, [
        SpannedGenerator((1, 1, 1, 1, 1, 0, 0, 0), Span(0, 4)),
        SpannedGenerator((1, 0, 0, 0, 1, 1, 1, 1), Span(4, 0)),
    ]))
    instances.append(parity_check_realization(
        GF2, 8, [RM84_CHECKS[0], RM84_CHECKS[1], RM84_CHECKS[2]]))

    max_points = 1 << 20
    checked = 0
    boundary_seen = False
    for r in instances:
        points = r.field.p ** total_dim(r)
        if points > max_points:
            continue
        boundary_seen = boundary_seen or points == max_points
        got = set(behavior(r).enumerate(max_points))
        want = set(brute_behavior(r, max_points))
        assert got == want
        checked += 1
    assert checked >= 35
    assert boundary_seen


def test_criterion_12_general_graph_connected_yet_uncontrollable():
    # "General graphical realizations do not share this property"
    # (arXiv:1202.0534): off tail-biting trellises, a reduced realization
    # can be uncontrollable with a connected trajectory graph
    r = criterion12_witness()
    assert r == parse_realization(CRITERION12_DOCUMENT)
    words = brute_behavior(r)
    behavior_dim = len(words).bit_length() - 1
    assert len(words) == 2 ** behavior_dim == 8
    free = r.total_constraint_dim() - r.topology.total_state_dim()
    defect = behavior_dim - free
    assert defect == 1

    report = analyze(r)
    assert report.reduced and report.observable
    assert report.trim_proper
    assert all(cr.fully_trim and cr.proper.ok for cr in report.constraints)
    assert report.defect == defect and not report.controllable
    assert report.locally_reducible
    assert not report.cycle_free

    rep = trajectory_components(r)
    count, partition = reference_trajectory_partition(r, 1 << 10)
    assert rep.count == count == 1
    assert rep.partition == partition
    assert not rep.tail_biting and rep.reduced
    assert rep.defect == defect
    assert rep.uncontrollable is None and rep.warning


def redundant_checks(rng, field, n, redundant):
    """Gallager's (3,6)-regular checks on n positions with random nonzero
    coefficients, then `redundant` rows, each a nonzero multiple of one
    row plus another."""
    p = field.p
    rows = [[x * rng.randrange(1, p) for x in row] for row in gallager_checks(rng, n)]
    for _ in range(redundant):
        i, j = rng.sample(range(len(rows)), 2)
        c = rng.randrange(1, p)
        rows.append([(c * x + y) % p for x, y in zip(rows[i], rows[j])])
    return rows


def test_criterion_13_redundant_checks_and_generators_counted():
    # "A parity-check realization is uncontrollable if and only if it has
    # redundant parity checks" (arXiv:1202.0534), counted: the defect of
    # the Tanner graph of m checks H is m - rank(H). By duality a
    # generator realization of m generators G is unobservable exactly by
    # m - rank(G). The rank comes from sympy (helpers.sympy_rank).
    # Cost cap: about 3.5 s in all on a 2-core VM. sympy's rank of the
    # GF(3) n = 480 checks is 2-3 s of it (ncl: about 0.2 s); every other
    # rung stays at n <= 120 and under 0.2 s.
    rng = random.Random(131313)
    checks = [(GF2, 120, 0), (GF2, 96, 3), (GF3, 120, 1), (GF3, 480, 2),
              (PrimeField(5), 120, 3), (PrimeField(7), 72, 2)]
    for field, n, redundant in checks:
        rows = redundant_checks(rng, field, n, redundant)
        r = parity_check_realization(field, n, rows)
        defect = len(rows) - sympy_rank(rows, field.p)
        assert controllability_defect(r) == defect >= redundant
        assert is_controllable(r) == (defect == 0)
    generators = [(GF2, 48, 2), (GF3, 72, 0), (GF3, 120, 3), (PrimeField(5), 96, 1),
                  (PrimeField(7), 24, 3)]
    for field, n, redundant in generators:
        rows = redundant_checks(rng, field, n, redundant)
        g = generator_realization(field, n, rows)
        unobservable = len(rows) - sympy_rank(rows, field.p)
        assert unobservable_behavior(g).dim == unobservable >= redundant
        assert is_observable(g) == (unobservable == 0)


@pytest.mark.parametrize("n", range(1, 14))
def test_criteria_all_numbers_have_a_test(n):
    # guard: renaming a criterion test would silently drop its summary line
    import test_acceptance as me
    names = [x for x in dir(me) if x.startswith(f"test_criterion_{n:02d}_")]
    assert len(names) == 1
