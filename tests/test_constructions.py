"""Builders (generator, parity-check, trellis) and trajectory connectivity."""

import hashlib
import random

import pytest

from ncl import (
    GF2,
    GF3,
    EnumerationLimitError,
    InvalidRealizationError,
    PrimeField,
    Realization,
    Span,
    SpannedGenerator,
    Subspace,
    behavior,
    brute_realized_words,
    controllability_defect,
    dualize,
    emit_realization,
    generator_realization,
    is_controllable,
    is_observable,
    is_reduced,
    is_tail_biting_trellis,
    kernel,
    MatrixF,
    parity_check_realization,
    product_trellis,
    is_state_trim,
    realized_code,
    trajectory_components,
    validate,
)
from fixtures import (
    EX3_DUAL_GENS,
    EX3_STATE_DIMS,
    RM84_CHECKS,
    example1,
    example2,
    example3,
    example3_dual_product,
)
from helpers import (
    random_realization,
    random_support_matrix,
    random_tail_biting_product,
    reference_trajectory_partition,
)


class TestSpan:
    def test_plain(self):
        s = Span(1, 3)
        assert s.covered(5) == [1, 2, 3]
        assert s.crossed(5) == [2, 3]
        assert not s.wraps(5)

    def test_single_position_crosses_nothing(self):
        s = Span(2, 2)
        assert s.covered(4) == [2]
        assert s.crossed(4) == []

    def test_wrapping(self):
        s = Span(3, 1)
        assert s.covered(5) == [3, 4, 0, 1]
        assert s.crossed(5) == [4, 0, 1]
        assert s.wraps(5)

    def test_degenerate(self):
        s = Span(degenerate=True)
        assert s.covered(4) == [0, 1, 2, 3]
        assert s.crossed(4) == [0, 1, 2, 3]
        assert s.wraps(4)

    def test_range_check(self):
        with pytest.raises(ValueError):
            Span(0, 5).check(5)
        Span(0, 4).check(5)


class TestSpannedGenerator:
    def test_length_check(self):
        with pytest.raises(ValueError):
            SpannedGenerator((1, 0), Span(0, 1)).check(3)

    def test_support_must_sit_inside_span(self):
        with pytest.raises(ValueError):
            SpannedGenerator((1, 0, 1), Span(0, 1)).check(3)
        SpannedGenerator((1, 0, 1), Span(2, 0)).check(3)


class TestGeneratorRealization:
    def test_realizes_row_span(self):
        rows = [[1, 1, 0, 1], [0, 1, 1, 0]]
        r = generator_realization(GF2, 4, rows)
        assert realized_code(r).space == Subspace.spanned_by(GF2, 4, rows)
        assert brute_realized_words(r) == {
            (0, 0, 0, 0), (1, 1, 0, 1), (0, 1, 1, 0), (1, 0, 1, 1)}

    def test_independent_rows_observable(self):
        r = generator_realization(GF2, 3, [[1, 1, 0], [0, 1, 1]])
        assert is_observable(r) and is_controllable(r)

    def test_dependent_rows_unobservable_but_controllable(self):
        r = generator_realization(GF2, 3, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert not is_observable(r)
        assert is_controllable(r)

    def test_single_generator(self):
        r = generator_realization(GF3, 3, [[1, 2, 1]])
        assert brute_realized_words(r) == {(0, 0, 0), (1, 2, 1), (2, 1, 2)}

    def test_zero_column_disconnects(self):
        # a position no generator touches gets an isolated combiner node
        r = generator_realization(GF3, 3, [[1, 2, 0]])
        assert any(issue.tag == "disconnected" for issue in validate(r))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            generator_realization(GF2, 3, [])
        with pytest.raises(ValueError):
            generator_realization(GF2, 3, [[1, 1]])
        with pytest.raises(ValueError):
            generator_realization(GF2, 3, [[0, 0, 0]])


class TestParityCheckRealization:
    def test_realizes_null_space(self):
        checks = [[1, 1, 1, 0], [0, 1, 1, 1]]
        r = parity_check_realization(GF2, 4, checks)
        assert realized_code(r).space == kernel(MatrixF(GF2, checks))
        assert is_observable(r)
        assert is_controllable(r)

    def test_dependent_checks_uncontrollable(self):
        checks = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
        r = parity_check_realization(GF2, 3, checks)
        assert is_observable(r)
        assert not is_controllable(r)
        assert controllability_defect(r) == 1

    def test_is_dual_of_generator_realization(self):
        checks = [[1, 1, 1, 0], [0, 1, 1, 1]]
        tanner = parity_check_realization(GF3, 4, checks)
        gen_dual = dualize(generator_realization(GF3, 4, checks))
        for c in tanner.topology.constraints:
            other = c.id.replace("chk", "gen")
            assert tanner.code(c.id).space == gen_dual.code(other).space

    def test_single_position_identity_check(self):
        # a lone unit check pins its one symbol; realizes the zero code
        r = parity_check_realization(GF2, 1, [[1]])
        assert brute_realized_words(r) == {(0,)}

    def test_identity_checks_disconnect_for_n_over_1(self):
        # per-position unit checks share nothing, so the graph falls apart
        r = parity_check_realization(GF2, 2, [[1, 0], [0, 1]])
        with pytest.raises(InvalidRealizationError):
            behavior(r)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            parity_check_realization(GF2, 3, [])
        with pytest.raises(ValueError):
            parity_check_realization(GF2, 3, [[0, 0, 0]])

    def test_equal_local_codes_share_one_space(self):
        # Gallager's (3,6)-regular check matrix: three bands of n/6 rows, each
        # band a column permutation of runs of six
        rng = random.Random("shared-spaces")
        n, h = 240, []
        for band in range(3):
            cols = list(range(n))
            if band:
                rng.shuffle(cols)
            for i in range(n // 6):
                h.append([int(k in cols[6 * i:6 * i + 6]) for k in range(n)])
        r = parity_check_realization(GF2, n, h)
        assert len(r.topology.constraints) == 360
        # every check node has six replicas and every position node three
        assert len({id(r.code(c.id).space) for c in r.topology.constraints}) == 2
        # the digest of the same document built with one space per constraint
        text = emit_realization(r)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "98cf765204d480fbc52ae11b93d2dfba152df96063166a7963b1f3229b766ff6"


class TestProductTrellis:
    def test_example1_structure(self):
        r = example1()
        assert [s.dim for s in r.topology.states] == [1, 1, 1]
        assert is_tail_biting_trellis(r.topology)
        assert [c.vars for c in r.topology.constraints] == [
            ("s0", "a0", "s1"), ("s1", "a1", "s2"), ("s2", "a2", "s0")]

    def test_example3_dual_product_dims(self):
        r = example3_dual_product()
        assert tuple(s.dim for s in r.topology.states) == EX3_STATE_DIMS

    def test_degenerate_span_covers_everything(self):
        vec = EX3_DUAL_GENS[1]
        assert vec.span.degenerate
        r = example3_dual_product()
        assert not is_controllable(r)

    def test_conventional_boundaries(self):
        r = product_trellis(GF2, 3, [SpannedGenerator((1, 1, 1), Span(0, 2))],
                            "conventional")
        dims = {s.id: s.dim for s in r.topology.states}
        assert dims == {"s0": 0, "s1": 1, "s2": 1, "s3": 0}
        assert {c.id for c in r.topology.constraints} == {"c0", "c1", "c2", "end0", "end1"}
        assert r.topology.is_cycle_free()
        assert brute_realized_words(r) == {(0, 0, 0), (1, 1, 1)}

    def test_conventional_rejects_wraps_and_degenerate(self):
        with pytest.raises(ValueError):
            product_trellis(GF2, 3, [SpannedGenerator((1, 0, 1), Span(2, 0))],
                            "conventional")
        with pytest.raises(ValueError):
            product_trellis(GF2, 3, [SpannedGenerator((1, 0, 1), Span(degenerate=True))],
                            "conventional")

    def test_input_validation(self):
        with pytest.raises(ValueError):
            product_trellis(GF2, 3, [], "tail-biting")
        with pytest.raises(ValueError):
            product_trellis(GF2, 1, [SpannedGenerator((1,), Span(0, 0))], "tail-biting")
        with pytest.raises(ValueError):
            product_trellis(GF2, 3, [SpannedGenerator((1, 1, 0), Span(0, 1))], "sideways")

    def test_conventional_needs_a_section(self):
        # the check itself, not the length check after it, refuses n = 0
        with pytest.raises(ValueError, match=r"^conventional trellis needs n >= 1$"):
            product_trellis(GF2, 0, [SpannedGenerator((1,), Span(0, 0))], "conventional")

    def test_spans_are_checked_on_residues(self):
        # 3 is zero over GF(3), so it may sit outside the span
        got = product_trellis(GF3, 3, [SpannedGenerator((1, 0, 3), Span(0, 0))])
        want = product_trellis(GF3, 3, [SpannedGenerator((1, 0, 0), Span(0, 0))])
        assert emit_realization(got) == emit_realization(want)

    def test_gf3_product(self):
        r = product_trellis(GF3, 3, [
            SpannedGenerator((1, 2, 0), Span(0, 1)),
            SpannedGenerator((0, 1, 1), Span(1, 2)),
        ])
        want = {(a, (2 * a + b) % 3, b) for a in range(3) for b in range(3)}
        assert brute_realized_words(r) == want


class TestTailBitingPredicate:
    def test_products_are_tail_biting(self):
        assert is_tail_biting_trellis(example1().topology)
        assert is_tail_biting_trellis(example3().topology)

    def test_others_are_not(self):
        assert not is_tail_biting_trellis(example2().topology)
        conv = product_trellis(GF2, 3, [SpannedGenerator((1, 1, 1), Span(0, 2))],
                               "conventional")
        assert not is_tail_biting_trellis(conv.topology)


class TestTrajectoryComponents:
    def test_example1_connected_controllable(self):
        rep = trajectory_components(example1())
        assert rep.count == 1
        assert rep.tail_biting and rep.reduced
        assert rep.defect == 0
        assert rep.uncontrollable is False
        assert rep.warning is None

    def test_dual_example1_splits(self):
        rep = trajectory_components(dualize(example1()))
        assert rep.count == 2
        assert rep.uncontrollable is True
        comps = {}
        for sid, value, comp in rep.partition:
            comps.setdefault(comp, set()).add((sid, value))
        assert {frozenset(v for _, v in side) for side in comps.values()} == {
            frozenset({(0,)}), frozenset({(1,)})}

    def test_example2_verdict_withheld(self):
        rep = trajectory_components(example2())
        assert rep.count == 1
        assert not rep.tail_biting
        assert rep.uncontrollable is None
        assert rep.warning is not None

    def test_example3_dual_product_two_components(self):
        rep = trajectory_components(example3_dual_product())
        assert rep.count == 2
        assert rep.uncontrollable is True

    def test_defect_matches(self):
        r = example3_dual_product()
        assert trajectory_components(r).defect == controllability_defect(r)

    def test_budget_counts_state_values_not_symbol_coordinates(self):
        # 3 states of 2 values and 3 branches of 4 state-value pairs: 18
        # points, though c1's branches with their symbol coordinate are 8
        gens = [SpannedGenerator((1, 1, 0), Span(0, 1)),
                SpannedGenerator((0, 1, 1), Span(1, 2)),
                SpannedGenerator((1, 0, 1), Span(2, 0)),
                SpannedGenerator((0, 1, 0), Span(1, 1))]
        r = product_trellis(GF2, 3, gens, "tail-biting")
        rep = trajectory_components(r, max_points=18)
        assert rep == trajectory_components(r, max_points=22)
        assert rep.count == 1
        with pytest.raises(EnumerationLimitError, match="^18 state values and branch words "
                           "exceed the budget of 17$"):
            trajectory_components(r, max_points=17)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_partition_matches_the_reference_union_find(self, p):
        rng = random.Random(900 + p)
        field = PrimeField(p)
        split = 0
        for i in range(80):
            r = (random_tail_biting_product(rng, field, max_n=6, max_gens=3) if i % 2
                 else random_realization(rng, field, max_constraints=5))
            rep = trajectory_components(r)
            assert (rep.count, rep.partition) == reference_trajectory_partition(r, 4096)
            split += rep.count > 1
        assert split >= 10


class TestRandomSupportMatrices:
    def test_generator_and_check_sides_agree_with_brute_force(self):
        rng = random.Random(4242)
        for _ in range(10):
            field = rng.choice([GF2, GF3])
            m, n = rng.randint(1, 3), rng.randint(2, 4)
            rows = random_support_matrix(rng, field, m, n)
            g = generator_realization(field, n, rows)
            assert brute_realized_words(g) == _span_words(field.p, rows, n)
            h = parity_check_realization(field, n, rows)
            assert realized_code(h).space == kernel(MatrixF(field, rows))
            # the generator form is always reduced; the check form loses
            # state-trimness exactly when some check has weight 1 (its
            # zero-sum node then pins the replica to 0)
            assert is_reduced(g)
            weights = [sum(1 for v in row if v) for row in rows]
            assert is_state_trim(h) == all(w >= 2 for w in weights)


class TestBuildersFillTheirFindings:
    """Each builder sets the findings a fresh validation of its parts
    gives: none for a trellis, the graph's alone for the two bipartite
    builders (a zero column isolates its position node). The documents
    they emit do not change."""

    @staticmethod
    def assert_filled_as_fresh(r):
        fresh = Realization(r.field, r.topology, r.codes)
        assert "_issues" in vars(r)
        assert validate(r) == validate(fresh)
        assert emit_realization(r) == emit_realization(fresh)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_bipartite_builders(self, p):
        rng, field = random.Random(3700 + p), PrimeField(p)
        seen = {"zero column": 0, "disconnected": 0}
        for _ in range(60):
            m, n = rng.randint(1, 4), rng.randint(1, 6)
            rows = [[rng.randrange(1, p) if rng.random() < 0.4 else 0 for _ in range(n)]
                    for _ in range(m)]
            for row in rows:
                if not any(row):
                    row[rng.randrange(n)] = rng.randrange(1, p)
            seen["zero column"] += any(not any(col) for col in zip(*rows))
            for build in (generator_realization, parity_check_realization):
                r = build(field, n, rows)
                self.assert_filled_as_fresh(r)
                seen["disconnected"] += any(i.tag == "disconnected" for i in validate(r))
        assert min(seen.values()) > 0, seen

    def test_disconnected_generator_build(self):
        r = generator_realization(GF2, 3, [[1, 1, 0]])
        self.assert_filled_as_fresh(r)
        assert [i.tag for i in validate(r)] == ["disconnected"]

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_trellises(self, p):
        rng, field = random.Random(3710 + p), PrimeField(p)
        for _ in range(20):
            r = random_tail_biting_product(rng, field)
            self.assert_filled_as_fresh(r)
            assert validate(r) == []
            n = rng.randint(1, 6)
            gens = []
            for _ in range(rng.randint(1, 3)):
                start = rng.randrange(n)
                end = rng.randrange(start, n)
                vec = [rng.randrange(p) if start <= k <= end else 0 for k in range(n)]
                vec[start] = rng.randrange(1, p)
                gens.append(SpannedGenerator(tuple(vec), Span(start, end)))
            r = product_trellis(field, n, gens, "conventional")
            self.assert_filled_as_fresh(r)
            assert validate(r) == []


def _span_words(p, rows, n):
    from itertools import product as iproduct
    out = set()
    for coeffs in iproduct(range(p), repeat=len(rows)):
        w = tuple(sum(a * row[k] for a, row in zip(coeffs, rows)) % p
                  for k in range(n))
        out.add(w)
    return out
