"""Local reductions, the fixpoint driver, the tree minimizer, cut dims."""

import ast
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ncl import (
    GF2,
    GF3,
    BlockedCode,
    BlockStructure,
    DimensionMismatchError,
    MatrixF,
    NotCycleFreeError,
    NotReducibleError,
    PrimeField,
    Realization,
    ReductionStep,
    Subspace,
    Topology,
    UnknownBlockError,
    behavior,
    brute_realized_words,
    complete_to_basis,
    controllability_defect,
    cut_dims,
    dual_merge_unobservable,
    dualize,
    inverse,
    is_observable,
    is_proper,
    is_trim,
    kernel,
    merge_state,
    minimize_cycle_free,
    next_reduction,
    realized_code,
    reduce_to_fixpoint,
    reduce_unobservable,
    trim_state,
    unobservable_behavior,
    validate,
)
import ncl.realization
import ncl.reduction
from ncl.reduction import DUAL_MERGE, MERGE, UNOBS_TRIM, _shrink
from fixtures import EX1_WORDS, conventional_improper, example1, example3
from helpers import (_quotient_map, identity, in_constraint_order, ladder_conventional_trellis,
                     ladder_trellis, random_realization, random_tail_biting_product,
                     random_tree_realization)


def state_dims(r):
    return {s.id: s.dim for s in r.topology.states}


class TestReductionStep:
    def test_requires_strict_shrink(self):
        with pytest.raises(ValueError):
            ReductionStep("trim", "s0", 1, 1, identity(GF2, 1))

    def test_requires_matching_shape(self):
        with pytest.raises(ValueError):
            ReductionStep("trim", "s0", 2, 1, MatrixF(GF2, [[1, 0], [0, 1]]))

    def test_requires_full_row_rank(self):
        with pytest.raises(ValueError):
            ReductionStep("trim", "s0", 2, 1, MatrixF(GF2, [[0, 0]]))


class TestTrim:
    def _non_trim_chain(self):
        # c0 only reaches the (1,1) line of the 2-dim state s0
        from ncl import Constraint, Realization, StateVar, SymbolVar, Topology
        symbols = (SymbolVar("a0", 1), SymbolVar("a1", 2))
        states = (StateVar("s0", 2, "c0", "c1"),)
        cons = (Constraint("c0", ("a0", "s0")), Constraint("c1", ("s0", "a1")))
        codes = {
            "c0": BlockedCode.from_rows(
                GF2, BlockStructure((("a0", 1), ("s0", 2))), [[1, 1, 1]]),
            "c1": BlockedCode.from_rows(
                GF2, BlockStructure((("s0", 2), ("a1", 2))),
                [[1, 0, 1, 0], [0, 1, 0, 1]]),
        }
        return Realization(GF2, Topology(symbols, states, cons), codes)

    def test_trim_state(self):
        r = self._non_trim_chain()
        before = brute_realized_words(r)
        out, step = trim_state(r, "s0", "c0")
        assert validate(out) == []
        assert state_dims(out)["s0"] == 1
        assert step.kind == "trim" and step.constraint_id == "c0"
        assert (step.old_dim, step.new_dim) == (2, 1)
        assert is_trim(out, "c0", "s0").ok
        assert brute_realized_words(out) == before

    def test_trim_requires_incidence(self):
        with pytest.raises(UnknownBlockError):
            trim_state(conventional_improper(), "s2", "c0")

    def test_trim_refuses_when_trim(self):
        r = example1()
        with pytest.raises(NotReducibleError):
            trim_state(r, "s0", "c0")

    def test_trim_basis_change_maps_values(self):
        r = self._non_trim_chain()
        out, step = trim_state(r, "s0", "c0")
        # old value (1,1) lands at the single surviving coordinate
        mapped = (step.basis_change.array @ [1, 1]) % 2
        assert mapped.tolist() == [1]


class TestMerge:
    def test_merge_on_conventional(self):
        r = conventional_improper()
        before = brute_realized_words(r)
        assert not is_proper(r, "c2").ok
        out, step = merge_state(r, "s2", "c2")
        assert validate(out) == []
        assert state_dims(out) == {"s0": 0, "s1": 1, "s2": 1, "s3": 0}
        assert step.kind == "merge" and step.constraint_id == "c2"
        assert is_proper(out, "c2").ok
        assert brute_realized_words(out) == before

    def test_merge_refuses_when_proper(self):
        with pytest.raises(NotReducibleError):
            merge_state(example1(), "s0", "c0")

    def test_merge_requires_incidence(self):
        with pytest.raises(UnknownBlockError):
            merge_state(conventional_improper(), "s2", "c0")


class TestUnobservabilityTrim:
    def test_example1_single_step(self):
        r = example1()
        before = brute_realized_words(r)
        out, step = reduce_unobservable(r)
        assert validate(out) == []
        assert step.kind == "unobservability-trim"
        assert step.state_id == "s0" and (step.old_dim, step.new_dim) == (1, 0)
        assert unobservable_behavior(out).dim == 0
        assert brute_realized_words(out) == before
        with pytest.raises(NotReducibleError):
            reduce_unobservable(out)

    def test_example3_steps_down_by_one(self):
        r = example3()
        before = brute_realized_words(r)
        d0 = unobservable_behavior(r).dim
        out, _ = reduce_unobservable(r)
        assert unobservable_behavior(out).dim == d0 - 1
        assert brute_realized_words(out) == before


class TestDualMerge:
    def test_removes_defect_on_dual_example1(self):
        r = dualize(example1())
        assert controllability_defect(r) == 1
        before = brute_realized_words(r)
        out, step = dual_merge_unobservable(r)
        assert validate(out) == []
        assert step.kind == "dual-merge"
        assert controllability_defect(out) == 0
        assert brute_realized_words(out) == before

    def test_refuses_when_controllable(self):
        with pytest.raises(NotReducibleError):
            dual_merge_unobservable(example1())

    def test_refusals_name_what_is_missing(self):
        with pytest.raises(NotReducibleError, match="^realization is controllable; nothing to merge$"):
            dual_merge_unobservable(example1())
        observable = reduce_unobservable(example1())[0]
        with pytest.raises(NotReducibleError, match="^realization is observable; nothing to trim$"):
            reduce_unobservable(observable)

    def test_step_matches_dual_trim_dims(self):
        r = dualize(example1())
        out, step = dual_merge_unobservable(r)
        assert (step.old_dim, step.new_dim) == (1, 0)
        assert state_dims(out)[step.state_id] == 0


class TestFixpoint:
    def test_next_reduction_scan_order(self):
        assert next_reduction(conventional_improper()) == ("merge", "s2", "c2")
        assert next_reduction(example1()) is None

    def test_reduce_to_fixpoint_example1(self):
        r = example1()
        before = brute_realized_words(r)
        out, steps = reduce_to_fixpoint(r)
        assert [s.kind for s in steps] == ["unobservability-trim"]
        assert is_observable(out)
        assert next_reduction(out) is None
        assert brute_realized_words(out) == before

    def test_reduce_to_fixpoint_conventional(self):
        out, steps = reduce_to_fixpoint(conventional_improper())
        assert [s.kind for s in steps] == ["merge"]
        assert state_dims(out) == {"s0": 0, "s1": 1, "s2": 1, "s3": 0}

    def test_fixpoint_is_trim_proper_observable(self):
        rng = random.Random(20260819)
        for _ in range(15):
            r = random_tree_realization(rng, rng.choice([GF2, GF3]), total_cap=9)
            out, _ = reduce_to_fixpoint(r)
            assert is_observable(out)
            for c in out.topology.constraints:
                assert is_proper(out, c.id).ok
                for v in c.vars:
                    if out.topology.is_state(v):
                        assert is_trim(out, c.id, v).ok


class TestDriverBuildsNoBehavior:
    """The driver asks is_observable of U, the kernel of the check system's
    state columns, and its unobservability trim reads that same kernel:
    every kernel the realization module runs while it reduces a graph with
    a cycle is total_state_dim columns wide, and the steps are those that
    the behavior's cross-section on the states gives."""

    @staticmethod
    def cases():
        for field in (GF2, GF3, PrimeField(5)):
            for n in (32, 40, 48):
                yield ladder_trellis(random.Random(f"no-behavior:{n}"), field, n)
        rng = random.Random("no-behavior")
        for k in range(60):
            yield random_tail_biting_product(rng, (GF2, GF3, PrimeField(5))[k % 3])

    @staticmethod
    def from_the_behavior(monkeypatch, r):
        """reduce_to_fixpoint with U read off the whole behavior B."""
        with monkeypatch.context() as m:
            m.setattr(ncl.reduction, "is_observable", lambda x: behavior(x).cross_section_dim(
                x.topology.state_ids()) == 0)
            m.setattr(ncl.reduction, "unobservable_behavior", lambda x: behavior(x).cross_section(
                x.topology.state_ids()))
            return reduce_to_fixpoint(r)

    def test_only_state_column_kernels(self, monkeypatch):
        unobs_trims = 0
        for r in self.cases():
            want, want_steps = self.from_the_behavior(monkeypatch, r)
            widths, asked = [], []
            with monkeypatch.context() as m:
                m.setattr(ncl.realization, "kernel", lambda a: widths.append(a.cols) or kernel(a))
                asked_of = ncl.reduction.is_observable
                m.setattr(ncl.reduction, "is_observable",
                          lambda x: asked.append(x.topology.total_state_dim()) or asked_of(x))
                out, steps = reduce_to_fixpoint(r)
            assert widths == asked
            assert (out, steps) == (want, want_steps)
            unobs_trims += sum(s.kind == UNOBS_TRIM for s in steps)
        assert unobs_trims >= 12


class TestTreesFirst:
    """On a cycle-free graph the driver stops at its first trim-and-proper
    fixpoint without building the behavior: trim and proper everywhere
    means minimal there, and minimal means observable."""

    @staticmethod
    def behavior_built(r) -> bool:
        # _behavior_code is a cached_property: a build leaves it in the instance dict
        return "_behavior_code" in vars(r)

    def test_random_tree_fixpoints_are_observable(self):
        rng = random.Random(1202_0534)
        for k in range(1000):
            field = (GF2, GF3, PrimeField(5))[k % 3]
            r = random_tree_realization(rng, field, total_cap=9)
            if k % 2:
                order = list(r.topology.constraint_ids())
                rng.shuffle(order)
                out, steps = minimize_cycle_free(in_constraint_order(r, order))
            else:
                out, steps = reduce_to_fixpoint(r)
            assert not self.behavior_built(out)
            assert is_observable(out)
            assert all(s.kind in ("trim", "merge") for s in steps)

    def test_ladder_conventional_trellises(self):
        for i in range(3):
            r = ladder_conventional_trellis(random.Random(f"trees-first:{i}"), GF3, 48)
            for out, steps in (minimize_cycle_free(r), reduce_to_fixpoint(r)):
                assert steps and not self.behavior_built(out)
                assert is_observable(out)
                assert next_reduction(out) is None


class TestStepTopology:
    """Each step's child topology takes over its parent's id indexes and
    components unchanged, and every code off the shrunk state."""

    CARRIED = ("_symbols_by_id", "_state_index", "_constraints_by_id", "_uncut_components")

    def test_carried_indexes_equal_fresh_ones(self, monkeypatch):
        children = []
        with_state = Realization._with_state

        def recorded(self, state_id, *args):
            child = with_state(self, state_id, *args)
            children.append((self, state_id, child))
            return child

        monkeypatch.setattr(Realization, "_with_state", recorded)
        rng = random.Random(1202)
        for _ in range(3):
            reduce_to_fixpoint(ladder_trellis(rng, GF3, 18, chain=3))
            reduce_to_fixpoint(random_realization(rng, GF2, max_dim=3, total_cap=14,
                                                  extra_edges=2))
            minimize_cycle_free(ladder_conventional_trellis(rng, GF3, 24))
        assert len(children) > 30
        for parent, state_id, child in children:
            t = child.topology
            fresh = Topology(t.symbols, t.states, t.constraints)
            for name in self.CARRIED:
                assert getattr(t, name) == getattr(fresh, name), name
                assert getattr(t, name) is getattr(parent.topology, name), name
            state = t.state(state_id)
            for cid, code in parent.codes.items():
                if cid not in (state.left, state.right):
                    assert child.code(cid) is code, cid


# a step's child is laid out by Realization._with_state alone: the
# reduction module builds no block structure and sets no findings
LAYOUT_NAMES = ("BlockStructure", "_issues")
REDUCTION = Path(__file__).resolve().parents[1] / "src" / "ncl" / "reduction.py"


def layout_uses(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name, attribute or imported alias in LAYOUT_NAMES."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            found += [(node.lineno, n) for n in (node.name, node.asname) if n in LAYOUT_NAMES]
        elif isinstance(node, ast.Name) and node.id in LAYOUT_NAMES:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in LAYOUT_NAMES:
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_the_reduction_module_leaves_the_child_layout_to_with_state():
    assert layout_uses(REDUCTION.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, found", [
    ("from .blockcode import BlockedCode, BlockStructure\n", [(1, "BlockStructure")]),
    ("from .blockcode import BlockStructure as B\n", [(1, "BlockStructure")]),
    ("from . import blockcode\n\n\ndef f(blocks):\n    return blockcode.BlockStructure(blocks)\n",
     [(5, "BlockStructure")]),
    ("def f(child):\n    child._issues = ()\n", [(2, "_issues")]),
])
def test_a_layout_name_in_source_is_reported(source, found):
    assert layout_uses(source) == found


class TestMinimize:
    def test_conventional(self):
        r = conventional_improper()
        before = brute_realized_words(r)
        out, steps = minimize_cycle_free(r)
        assert state_dims(out) == {"s0": 0, "s1": 1, "s2": 1, "s3": 0}
        assert len(steps) == 1
        assert brute_realized_words(out) == before

    def test_order_insensitive(self):
        r = conventional_improper()
        base, _ = minimize_cycle_free(r)
        flipped, _ = minimize_cycle_free(
            in_constraint_order(r, reversed(r.topology.constraint_ids())))
        assert state_dims(flipped) == state_dims(base)
        assert realized_code(flipped) == realized_code(base)

    def test_rejects_cycles(self):
        with pytest.raises(NotCycleFreeError):
            minimize_cycle_free(example1())


class TestCutDims:
    def test_conventional_matches_minimized(self):
        r = conventional_improper()
        code = realized_code(r)
        cuts = {c.state_id: c.minimal_dim for c in cut_dims(code, r.topology)}
        assert cuts == {"s0": 0, "s1": 1, "s2": 1, "s3": 0}

    def test_projection_and_section_recorded(self):
        r = conventional_improper()
        cuts = {c.state_id: c for c in cut_dims(realized_code(r), r.topology)}
        c = cuts["s2"]
        assert c.minimal_dim == c.projection_dim - c.cross_section_dim
        assert set(c.past_symbols) == {"a0", "a1"}

    def test_repetition_code_cuts(self):
        # {000,111} on a path: every cut carries one bit
        from ncl import SpannedGenerator, Span, product_trellis
        r = product_trellis(GF2, 3, [SpannedGenerator((1, 1, 1), Span(0, 2))],
                            "conventional")
        cuts = {c.state_id: c.minimal_dim for c in cut_dims(realized_code(r), r.topology)}
        assert cuts == {"s0": 0, "s1": 1, "s2": 1, "s3": 0}

    def test_rejects_cyclic_topology(self):
        r = example1()
        with pytest.raises(NotCycleFreeError):
            cut_dims(realized_code(r), r.topology)

    def test_rejects_foreign_code(self):
        r = conventional_improper()
        other = BlockedCode.from_rows(GF2, BlockStructure((("x", 3),)), [[1, 1, 1]])
        with pytest.raises(DimensionMismatchError):
            cut_dims(other, r.topology)

    def test_agrees_with_minimizer_on_random_trees(self):
        rng = random.Random(77)
        for _ in range(10):
            r = random_tree_realization(rng, GF2, total_cap=10)
            minimal, _ = minimize_cycle_free(r)
            cuts = {c.state_id: c.minimal_dim
                    for c in cut_dims(realized_code(r), r.topology)}
            assert state_dims(minimal) == cuts


def complete_and_invert(field, rows):
    """The old construction of the unobservability moves: G = [rows; complete_to_basis(rows)]
    and its inverse."""
    g = np.vstack([rows, complete_to_basis(MatrixF(field, rows)).array])
    return g, inverse(MatrixF(field, g)).array


def old_merge_maps(r, sid, cid):
    """(F, X) of merge_state as [complement; section]^-1 restricted to the complement."""
    section = r.code(cid).cross_section([sid]).space
    d, k = section.ambient, section.dim
    complement = complete_to_basis(section.basis).array
    q = inverse(MatrixF(r.field, np.vstack([complement, section.basis.array]))).array
    return np.zeros((d, 0), dtype=np.int64), q[:, :d - k]


def old_direction(r):
    """The state and value g of the first canonical unobservable trajectory."""
    unobs = unobservable_behavior(r)
    trajectory = unobs.space.basis.array[0]
    for s in r.topology.states:
        at = unobs.structure.offset(s.id)
        if trajectory[at:at + s.dim].any():
            return s.id, trajectory[at:at + s.dim].reshape(1, -1)


class TestMapsMatchCompleteAndInvert:
    """Every move reads its maps off an RREF basis; the old construction
    completed a basis and inverted it. Both give the same steps."""

    FIELDS = (GF2, GF3, PrimeField(5), PrimeField(7))

    def test_moves_on_random_realizations(self):
        rng = random.Random(2024)
        seen = Counter()
        for i in range(160):
            field = self.FIELDS[i % 4]
            r = random_realization(rng, field, max_dim=3, total_cap=14)
            for cid, sid in r.topology.incidences():
                section_dim = r.code(cid).cross_section_dim([sid])
                if section_dim == 0:
                    continue
                f, x = old_merge_maps(r, sid, cid)
                got = merge_state(r, sid, cid)
                assert got == _shrink(r, MERGE, sid, f, x, cid)
                assert got[1].basis_change == MatrixF(field, x.T)
                seen["merge", min(section_dim, 2)] += 1
            if not is_observable(r):
                sid, g = old_direction(r)
                _, gi = complete_and_invert(field, g)
                got = reduce_unobservable(r)
                assert got == _shrink(r, UNOBS_TRIM, sid, gi[:, :1], gi[:, 1:])
                assert got[1].basis_change == MatrixF(field, gi[:, 1:].T)
                seen["unobs"] += 1
            if controllability_defect(r) > 0:
                sid, g = old_direction(dualize(r))
                gg, _ = complete_and_invert(field, g)
                d = gg.shape[0]
                got = dual_merge_unobservable(r)
                assert got == _shrink(r, DUAL_MERGE, sid, np.zeros((d, 0), dtype=np.int64),
                                      gg[1:].T)
                assert got[1].basis_change == MatrixF(field, gg[1:])
                seen["dual"] += 1
        assert seen["merge", 1] and seen["merge", 2] and seen["unobs"] and seen["dual"], seen

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_line_maps_for_any_leading_entry(self, p):
        # the moves above only meet values whose first nonzero entry is 1,
        # because they come from a canonical generator; the maps hold for any
        field = PrimeField(p)
        rng = random.Random(p)
        for _ in range(40):
            d = rng.randint(1, 5)
            g = np.zeros((1, d), dtype=np.int64)
            j = rng.randrange(d)
            g[0, j] = rng.randrange(2, p)
            g[0, j + 1:] = [rng.randrange(p) for _ in range(d - j - 1)]
            gg, gi = complete_and_invert(field, g)
            line = Subspace.spanned_by(field, d, MatrixF(field, g))
            assert line.pivots == (j,)
            assert MatrixF(field, _quotient_map(line)) == MatrixF(field, gi[:, 1:])
            assert MatrixF(field, gi[:, :1] * g[0, j]) == MatrixF(field, np.eye(d)[:, [j]])
            kept = np.delete(np.eye(d, dtype=np.int64), list(line.pivots), axis=1)
            assert MatrixF(field, kept) == MatrixF(field, gg[1:].T)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_quotient_map_of_any_subspace(self, p):
        field = PrimeField(p)
        rng = random.Random(10 + p)
        for _ in range(40):
            d = rng.randint(1, 6)
            rows = [[rng.randrange(p) for _ in range(d)] for _ in range(rng.randint(1, d))]
            space = Subspace.spanned_by(field, d, rows)
            if space.dim == 0:
                continue
            q = inverse(MatrixF(field, np.vstack([complete_to_basis(space.basis).array,
                                                  space.basis.array]))).array
            assert MatrixF(field, space._check_rows().T) == MatrixF(field, q[:, :d - space.dim])
