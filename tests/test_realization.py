"""Realization structure, validation, behavior, predicates, dualization."""

import random
from decimal import Decimal
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncl import (
    GF2,
    GF3,
    BlockedCode,
    BlockStructure,
    Constraint,
    InvalidRealizationError,
    MatrixF,
    PrimeField,
    Realization,
    StateVar,
    SymbolVar,
    Topology,
    UnknownBlockError,
    Subspace,
    analyze,
    behavior,
    controllability_defect,
    cut_dims,
    dualize,
    emit_realization,
    is_branch_trim,
    is_controllable,
    is_observable,
    is_proper,
    is_reduced,
    is_state_trim,
    is_trim,
    merge_state,
    parse_realization,
    realized_code,
    reduce_to_fixpoint,
    trim_state,
    unobservable_behavior,
    validate,
)
from fixtures import (EX1_WORDS, conventional_improper, criterion12_witness, example1,
                      example2, example3, example3_dual_product)
from helpers import (
    random_realization,
    random_tail_biting_product,
    random_tree_realization,
    reference_behavior,
    reference_graph_issues,
)
from ncl.realization import _component_labels


def tags(r):
    return sorted(i.tag for i in validate(r))


def chain(field, codes_rows, state_dims, *, negate_at="right"):
    """Path graph c0 - s0 - c1 - s1 - ... with one symbol per constraint."""
    m = len(codes_rows)
    symbols = tuple(SymbolVar(f"a{i}", 1) for i in range(m))
    states = tuple(StateVar(f"s{j}", state_dims[j], f"c{j}", f"c{j + 1}", negate_at)
                   for j in range(m - 1))
    constraints = []
    codes = {}
    for i in range(m):
        vars_ = []
        if i > 0:
            vars_.append(f"s{i - 1}")
        vars_.append(f"a{i}")
        if i < m - 1:
            vars_.append(f"s{i}")
        constraints.append(Constraint(f"c{i}", tuple(vars_)))
        dims = {f"a{i}": 1} | {f"s{j}": state_dims[j] for j in range(m - 1)}
        structure = BlockStructure(tuple((v, dims[v]) for v in vars_))
        codes[f"c{i}"] = BlockedCode.from_rows(
            field, structure, MatrixF.from_rows(field, codes_rows[i], cols=structure.total))
    return Realization(field, Topology(symbols, states, tuple(constraints)), codes)


class TestValidation:
    def test_clean(self):
        assert validate(example1()) == []

    def test_duplicate_id(self):
        r = example1()
        topo = r.topology
        bad = Topology(topo.symbols + (SymbolVar("s0", 1),), topo.states, topo.constraints)
        assert "duplicate-id" in tags(Realization(GF2, bad, r.codes))

    def test_symbol_usage_normality(self):
        # symbol attached to two constraints
        symbols = (SymbolVar("a0", 1),)
        states = (StateVar("s0", 1, "c0", "c1"),)
        cons = (Constraint("c0", ("a0", "s0")), Constraint("c1", ("s0", "a0")))
        codes = {
            "c0": BlockedCode.from_rows(GF2, BlockStructure((("a0", 1), ("s0", 1))), [[1, 1]]),
            "c1": BlockedCode.from_rows(GF2, BlockStructure((("s0", 1), ("a0", 1))), [[1, 1]]),
        }
        r = Realization(GF2, Topology(symbols, states, cons), codes)
        assert "normality" in tags(r)

    def test_state_usage_normality(self):
        # state declared between c0 and c1 but never listed by c1
        symbols = (SymbolVar("a0", 1), SymbolVar("a1", 1))
        states = (StateVar("s0", 1, "c0", "c1"),)
        cons = (Constraint("c0", ("a0", "s0")), Constraint("c1", ("a1",)))
        codes = {
            "c0": BlockedCode.from_rows(GF2, BlockStructure((("a0", 1), ("s0", 1))), [[1, 1]]),
            "c1": BlockedCode.from_rows(GF2, BlockStructure((("a1", 1),)), [[1]]),
        }
        r = Realization(GF2, Topology(symbols, states, cons), codes)
        assert "normality" in tags(r)

    def test_self_loop(self):
        symbols = (SymbolVar("a0", 1),)
        states = (StateVar("s0", 1, "c0", "c0"),)
        cons = (Constraint("c0", ("a0", "s0", "s0")),)
        r = Realization(GF2, Topology(symbols, states, cons), {})
        assert "self-loop" in tags(r)

    def test_disconnected(self):
        symbols = (SymbolVar("a0", 1), SymbolVar("a1", 1))
        cons = (Constraint("c0", ("a0",)), Constraint("c1", ("a1",)))
        codes = {
            "c0": BlockedCode.from_rows(GF2, BlockStructure((("a0", 1),)), [[1]]),
            "c1": BlockedCode.from_rows(GF2, BlockStructure((("a1", 1),)), [[1]]),
        }
        r = Realization(GF2, Topology(symbols, (), cons), codes)
        assert "disconnected" in tags(r)
        with pytest.raises(InvalidRealizationError):
            behavior(r)

    def test_missing_code(self):
        r = example1()
        codes = r.codes
        del codes["c1"]
        assert "missing-code" in tags(Realization(GF2, r.topology, codes))

    def test_unknown_code_id(self):
        r = example1()
        codes = r.codes
        codes["zz"] = codes["c0"]
        assert "unknown-id" in tags(Realization(GF2, r.topology, codes))

    def test_field_mismatch(self):
        r = example1()
        codes = r.codes
        c0 = codes["c0"]
        codes["c0"] = BlockedCode.from_rows(
            GF3, c0.structure, MatrixF(GF3, c0.space.basis.array))
        assert "field-mismatch" in tags(Realization(GF2, r.topology, codes))

    def test_dim_mismatch(self):
        r = example1()
        codes = r.codes
        codes["c0"] = BlockedCode.from_rows(
            GF2, BlockStructure((("s0", 2), ("a0", 1), ("s1", 1))), [[1, 0, 0, 1]])
        issues = validate(Realization(GF2, r.topology, codes))
        assert any(i.tag == "dim-mismatch" and "c0" in i.ids for i in issues)

    def test_ensure_valid_raises_with_issues(self):
        r = example1()
        codes = r.codes
        del codes["c2"]
        bad = Realization(GF2, r.topology, codes)
        with pytest.raises(InvalidRealizationError) as exc:
            bad.ensure_valid()
        assert any(i.tag == "missing-code" for i in exc.value.issues)


class TestConstructors:
    def test_negative_dims_rejected(self):
        with pytest.raises(ValueError):
            SymbolVar("a", -1)
        with pytest.raises(ValueError):
            StateVar("s", -2, "c0", "c1")

    @pytest.mark.parametrize("dim", [2.5, 2.0, Fraction(7, 2), Fraction(4, 2), Decimal("2"), "3"])
    def test_non_integer_dims_refused(self, dim):
        # a dim goes through operator.index, as a MatrixF entry does: an
        # integral float or fraction is refused too, never truncated or kept
        with pytest.raises(TypeError):
            BlockStructure((("a", dim),))
        with pytest.raises(TypeError):
            BlockStructure((x for x in [("a", 1), ("b", dim)]))
        with pytest.raises(TypeError):
            SymbolVar("a", dim)
        with pytest.raises(TypeError):
            StateVar("s", dim, "c0", "c1")

    @pytest.mark.parametrize("dim", [np.int64(3), np.int32(3), np.uint8(3), 3])
    def test_integer_dims_stored_as_int(self, dim):
        blocks = BlockStructure(((7, dim),)).blocks
        assert blocks == (("7", 3),) and type(blocks[0][1]) is int
        for var in (SymbolVar("a", dim), StateVar("s", dim, "c0", "c1")):
            assert var.dim == 3 and type(var.dim) is int

    def test_negative_dim_messages(self):
        with pytest.raises(ValueError, match="^block 'a' has negative dim -1$"):
            BlockStructure((("a", np.int64(-1)),))
        with pytest.raises(ValueError, match="^symbol 'a' has negative dim$"):
            SymbolVar("a", -1)
        with pytest.raises(ValueError, match="^state 's' has negative dim$"):
            StateVar("s", np.int64(-2), "c0", "c1")

    def test_half_dim_block_no_longer_validates_clean(self):
        # a code on a 2.5-dim block next to a 2-dim symbol once validated
        # clean, its block truncated to 2; its structure is refused now
        with pytest.raises(TypeError):
            BlockedCode.from_rows(GF2, BlockStructure((("a", 2.5),)), [[1, 0]])
        topo = Topology((SymbolVar("a", 2),), (), (Constraint("c", ("a",)),))
        code = BlockedCode.from_rows(GF2, BlockStructure((("a", 2),)), [[1, 0]])
        assert validate(Realization(GF2, topo, {"c": code})) == []

    def test_negate_at_values(self):
        assert StateVar("s", 1, "c0", "c1", "left").negate_constraint == "c0"
        assert StateVar("s", 1, "c0", "c1").negate_constraint == "c1"
        with pytest.raises(ValueError):
            StateVar("s", 1, "c0", "c1", "middle")

    def test_unknown_lookups(self):
        topo = example1().topology
        with pytest.raises(UnknownBlockError):
            topo.symbol("nope")
        with pytest.raises(UnknownBlockError):
            topo.state("a0")
        with pytest.raises(UnknownBlockError):
            topo.constraint("s0")

    def test_unknown_code_lookup(self):
        with pytest.raises(UnknownBlockError, match=r"^no constraint code for 'x'$"):
            example1().code("x")

    def test_incidences_in_sweep_order(self):
        topo = example1().topology
        assert topo.incidences() == [("c0", "s0"), ("c0", "s1"), ("c1", "s1"),
                                     ("c1", "s2"), ("c2", "s2"), ("c2", "s0")]

    def test_cycle_free(self):
        assert not example1().topology.is_cycle_free()
        assert conventional_improper().topology.is_cycle_free()


def _first_node_order(graph, order):
    """networkx's components, numbered in the order of their first node."""
    return sorted(nx.connected_components(graph), key=lambda comp: min(map(order.get, comp)))


class TestConnectivity:
    """One union-find serves the constraint graph, every cut of a tree and
    the trajectory graph; networkx is the independent reference."""

    @pytest.mark.parametrize("seed", range(40))
    def test_labels_match_networkx(self, seed):
        rng = random.Random(seed)
        n = rng.randint(0, 12)
        # self-loops, parallel edges and isolated nodes all occur
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n + 3))
                 ] if n else []
        g = nx.MultiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        want = [0] * n
        for label, comp in enumerate(_first_node_order(g, {i: i for i in range(n)})):
            for node in comp:
                want[node] = label
        assert _component_labels(n, edges) == want
        assert _component_labels(n, [(b, a) for a, b in reversed(edges)]) == want

    @pytest.mark.parametrize("seed", range(40))
    def test_topology_components_match_networkx(self, seed):
        rng = random.Random(seed)
        cids = [f"c{rng.randrange(10)}" for _ in range(rng.randint(1, 9))]
        # an endpoint may be undeclared ("x"), and a constraint id may repeat
        ends = cids + ["x"]
        states = tuple(StateVar(f"s{i}", 1, rng.choice(ends), rng.choice(ends))
                       for i in range(rng.randint(0, 10)))
        topo = Topology((), states, tuple(Constraint(c, ()) for c in cids))
        order = {c: cids.index(c) for c in cids}
        for cut in (None, *(s.id for s in states)):
            g = nx.MultiGraph()
            g.add_nodes_from(cids)
            g.add_edges_from((s.left, s.right) for s in states
                             if s.id != cut and s.left in order and s.right in order)
            assert topo._components(cut) == _first_node_order(g, order)
        comps = topo._components()
        found = [i for i in topo.issues() if i.tag == "disconnected"]
        if len(comps) > 1:
            assert found[0].ids == tuple(sorted(min(comps, key=len)))
        else:
            assert found == []


def _fresh(topo):
    """An equal topology that has computed nothing yet."""
    return Topology(topo.symbols, topo.states, topo.constraints)


def _uncut_cases():
    rng = random.Random("uncut-components")
    for field in (GF2, GF3, PrimeField(5), PrimeField(7)):
        for _ in range(10):
            yield random_tree_realization(rng, field, max_constraints=6)
            yield random_realization(rng, field, extra_edges=rng.randint(0, 3))
            yield random_tail_biting_product(rng, field, max_n=6)


class TestUncutComponents:
    """The uncut components are computed once per topology and handed to
    every realization a step derives; nothing reads differently."""

    def test_findings_and_cut_dims_match_a_fresh_topology(self):
        seen = {"tree": 0, "derived": 0}
        for r in _uncut_cases():
            reduced, steps = reduce_to_fixpoint(r)
            for x in (r, reduced):
                topo = x.topology
                fresh = _fresh(topo)
                assert topo._uncut_components == fresh._components() == topo._components()
                assert validate(x) == validate(Realization(x.field, fresh, x.codes))
                assert topo.is_cycle_free() == fresh.is_cycle_free()
                if topo.is_cycle_free():
                    code = realized_code(x)
                    assert cut_dims(code, topo) == cut_dims(code, fresh)
                    seen["tree"] += 1
            if steps:
                # the derived topology took its parent's components, not its own
                assert "_uncut_components" in vars(reduced.topology)
                seen["derived"] += 1
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("seed", range(40))
    def test_multigraph_findings_match_a_fresh_topology(self, seed):
        rng = random.Random(seed)
        cids = [f"c{rng.randrange(10)}" for _ in range(rng.randint(1, 9))]
        ends = cids + ["x"]
        states = tuple(StateVar(f"s{i}", 1, rng.choice(ends), rng.choice(ends))
                       for i in range(rng.randint(0, 10)))
        topo = Topology((), states, tuple(Constraint(c, ()) for c in cids))
        first = topo.issues()
        assert topo.issues() == first == _fresh(topo).issues()
        assert topo.is_connected() == _fresh(topo).is_connected()


def _with_vars(topo, cid, vars_):
    """topo with constraint cid's vars replaced."""
    return Topology(topo.symbols, topo.states, tuple(
        Constraint(c.id, vars_) if c.id == cid else c for c in topo.constraints))


def _inject(rng, topo, defect):
    """topo with one defect of the given kind."""
    cs, owner = topo.constraints, {v: c.id for c in topo.constraints for v in c.vars}
    pick = rng.choice
    if defect == "symbol-unused":
        s = pick(topo.symbols).id
        return _with_vars(topo, owner[s], tuple(v for v in topo.constraint(owner[s]).vars
                                                if v != s))
    if defect == "symbol-twice":
        s = pick(topo.symbols).id
        c = pick([c for c in cs if c.id != owner[s]] or list(cs))
        return _with_vars(topo, c.id, c.vars + (s,))
    if defect in ("self-loop", "unknown-endpoint") and not topo.states:
        c = pick(cs).id
        end = c if defect == "self-loop" else "nowhere"
        return Topology(topo.symbols, (StateVar("z", 1, c, end),),
                        _with_vars(topo, c, topo.constraint(c).vars + ("z",)).constraints)
    if defect in ("self-loop", "unknown-endpoint"):
        i = rng.randrange(len(topo.states))
        s = topo.states[i]
        moved = (StateVar(s.id, s.dim, s.left, s.left, s.negate_at) if defect == "self-loop"
                 else StateVar(s.id, s.dim, *rng.sample([s.left, "nowhere"], 2), s.negate_at))
        return Topology(topo.symbols, topo.states[:i] + (moved,) + topo.states[i + 1:], cs)
    if defect == "state-misplaced" and topo.states:
        s = pick(topo.states)
        c = pick(cs)
        if rng.random() < 0.5 or c.id in (s.left, s.right):
            end = topo.constraint(pick((s.left, s.right)))
            return _with_vars(topo, end.id, tuple(v for v in end.vars if v != s.id))
        return _with_vars(topo, c.id, c.vars + (s.id,))
    # disconnected, also where a state-misplaced topology has no state
    lone = SymbolVar("lone", 1)
    return Topology(topo.symbols + (lone,), topo.states,
                    cs + (Constraint("c-lone", ("lone",)),))


class TestGraphIssuesReference:
    """_graph_issues gives the reference's findings, in its order and with
    its messages, on random topologies with one injected defect each."""

    DEFECTS = ("symbol-unused", "symbol-twice", "self-loop", "unknown-endpoint",
               "state-misplaced", "disconnected")

    @pytest.mark.parametrize("defect", DEFECTS)
    def test_one_defect(self, defect):
        rng = random.Random(f"graph-issues:{defect}")
        found_any = 0
        for k in range(60):
            field = (GF2, GF3)[k % 2]
            r = (random_tail_biting_product(rng, field, max_n=6) if k % 3 == 0 else
                 random_realization(rng, field, max_constraints=6, extra_edges=k % 3))
            topo = _inject(rng, r.topology, defect)
            want = reference_graph_issues(_fresh(topo))
            assert topo._graph_issues() == want
            found_any += bool(want)
        assert found_any >= 50

    def test_clean_topologies(self):
        rng = random.Random("graph-issues:clean")
        for r in _uncut_cases():
            assert r.topology._graph_issues() == reference_graph_issues(r.topology) == []
        for _ in range(20):
            topo = random_realization(rng, GF2, max_constraints=6, extra_edges=2).topology
            assert _fresh(topo)._graph_issues() == reference_graph_issues(topo) == []


class TestBehavior:
    def test_matches_the_checked_system(self):
        rng = random.Random("behavior-reference")
        for field in (GF2, GF3, PrimeField(5), PrimeField(7)):
            for _ in range(15):
                for r in (random_tree_realization(rng, field),
                          random_realization(rng, field, extra_edges=rng.randint(0, 3)),
                          random_tail_biting_product(rng, field, max_n=6)):
                    b = behavior(r)
                    assert b == reference_behavior(r)
                    assert b.space.basis.array.dtype == np.int64
                    assert not b.space.basis.array.flags.writeable

    def test_unobservable_behavior_agrees_with_the_behavior(self):
        """U, the kernel of the check system's state columns, is the
        behavior's cross-section on the states, for a realization and
        its dual."""
        rng = random.Random("unobservable-from-state-columns")
        fields = (GF2, GF3, PrimeField(5), PrimeField(7))
        cases = [random_realization(rng, fields[k % 4], extra_edges=1 + k % 3)
                 for k in range(600)]
        cases += [example2(), example3_dual_product(), criterion12_witness()]
        unobservable = 0
        for r in cases:
            for x in (r, dualize(r)):
                u = unobservable_behavior(x)
                assert u == behavior(x).cross_section(x.topology.state_ids())
                assert is_observable(x) == (analyze(x).unobservable_dim == 0)
                unobservable += u.dim > 0
        assert unobservable > 200

    def test_example1_dimensions(self):
        r = example1()
        assert behavior(r).dim == 3
        assert unobservable_behavior(r).dim == 1
        assert controllability_defect(r) == 0
        assert set(realized_code(r).enumerate()) == EX1_WORDS

    def test_behavior_block_order_symbols_first(self):
        b = behavior(example1())
        assert b.structure.ids() == ("a0", "a1", "a2", "s0", "s1", "s2")

    def test_zero_code_constraint_pins_variables(self):
        # dim-0 constraint code forces its lone symbol to zero
        symbols = (SymbolVar("a0", 2),)
        cons = (Constraint("c0", ("a0",)),)
        codes = {"c0": BlockedCode.from_rows(GF2, BlockStructure((("a0", 2),)), [])}
        r = Realization(GF2, Topology(symbols, (), cons), codes)
        assert behavior(r).dim == 0
        assert realized_code(r).dim == 0

    def test_example3_unobservable(self):
        r = example3()
        assert unobservable_behavior(r).dim == 1
        assert not is_observable(r)
        assert is_controllable(r)


class TestCheckMatrixCache:
    def test_derived_behavior_computes_only_the_replaced_checks(self, monkeypatch):
        r = dualize(conventional_improper())
        behavior(r)
        child, step = trim_state(r, "s2", "c2")
        calls = []
        original = Subspace._check_rows

        def counted(space):
            if space._checks is None:  # computed here, not read from the slot
                calls.append(space)
            return original(space)

        monkeypatch.setattr(Subspace, "_check_rows", counted)
        behavior(child)
        state = child.topology.state("s2")
        replaced = [child.code(state.left).space, child.code(state.right).space]
        assert step.kind == "trim" and len(calls) == 2
        assert all(any(space is new for new in replaced) for space in calls)
        monkeypatch.undo()
        assert behavior(child) == behavior(parse_realization(emit_realization(child)))

    def test_documents_ignore_the_cache(self):
        for make in (example1, example3, conventional_improper):
            text = emit_realization(make())
            r = parse_realization(text)
            analyze(r)
            dualize(r)
            assert emit_realization(r) == text
            assert r == parse_realization(text)


class TestLocalPredicates:
    def test_improper_witness(self):
        r = conventional_improper()
        verdict = is_proper(r, "c2")
        assert not verdict
        assert verdict.state_id == "s2"
        word = verdict.codeword
        assert word is not None and r.code("c2").space.contains(word)
        # the witness is supported on s2 alone
        at = r.code("c2").structure.offset("s2")
        assert any(word[at:at + 2])
        assert not any(word[:at]) and not any(word[at + 2:])

    def test_trim_witness(self):
        # constraint projecting onto a plane inside a 2-dim state
        symbols = (SymbolVar("a0", 1), SymbolVar("a1", 1))
        states = (StateVar("s0", 2, "c0", "c1"),)
        cons = (Constraint("c0", ("a0", "s0")), Constraint("c1", ("s0", "a1")))
        codes = {
            "c0": BlockedCode.from_rows(
                GF2, BlockStructure((("a0", 1), ("s0", 2))), [[1, 1, 0]]),
            "c1": BlockedCode.from_rows(
                GF2, BlockStructure((("s0", 2), ("a1", 1))), [[1, 0, 1], [0, 1, 1]]),
        }
        r = Realization(GF2, Topology(symbols, states, cons), codes)
        v = is_trim(r, "c0", "s0")
        assert not v and v.missing == (0, 1)
        assert is_trim(r, "c1", "s0").ok

    def test_is_trim_requires_incidence(self):
        r = example1()
        with pytest.raises(UnknownBlockError):
            is_trim(r, "c0", "s2")
        with pytest.raises(UnknownBlockError):
            is_trim(r, "c0", "a0")

    # one incidence check serves the predicate and both moves
    @pytest.mark.parametrize("check", [
        lambda r, cid, sid: is_trim(r, cid, sid),
        lambda r, cid, sid: trim_state(r, sid, cid),
        lambda r, cid, sid: merge_state(r, sid, cid),
    ], ids=["is_trim", "trim_state", "merge_state"])
    @pytest.mark.parametrize("cid, sid, message", [
        ("c0", "zz", "unknown state 'zz'"),
        ("zz", "s0", "unknown constraint 'zz'"),
        ("c0", "s2", "state 's2' is not involved in constraint 'c0'"),
    ])
    def test_incidence_errors(self, check, cid, sid, message):
        with pytest.raises(UnknownBlockError, match=message):
            check(example1(), cid, sid)

    def test_example1_trim_proper_reduced(self):
        r = example1()
        for c in r.topology.constraints:
            assert is_proper(r, c.id)
            for v in c.vars:
                if r.topology.is_state(v):
                    assert is_trim(r, c.id, v)
        assert is_state_trim(r) and is_branch_trim(r) and is_reduced(r)

    def test_conventional_product_is_trim_but_improper(self):
        # product trellises are always state-trim and branch-trim; the
        # shortening opportunity here is a merge (improper c2), not a trim
        r = conventional_improper()
        assert is_state_trim(r) and is_branch_trim(r) and is_reduced(r)
        assert not is_proper(r, "c2").ok


class TestDualize:
    def test_gf2_dual_codes_are_orthogonal(self):
        r = example1()
        d = dualize(r)
        for cid in ("c0", "c1", "c2"):
            assert d.code(cid) == r.code(cid).dual()

    def test_involution(self):
        for r in (example1(), example3(), conventional_improper()):
            assert dualize(dualize(r)) == r

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3]), st.integers(0, 10 ** 9), st.integers(0, 3))
    def test_involution_random(self, p, seed, extra_edges):
        rng = random.Random(seed)
        field = GF2 if p == 2 else GF3
        r = random_realization(rng, field, total_cap=8, extra_edges=extra_edges)
        assert dualize(dualize(r)) == r

    def test_gf3_sign_lands_on_negate_constraint(self):
        r = chain(GF3, [[[1, 1]], [[1, 1]]], [1], negate_at="right")
        d = dualize(r)
        # negation applies inside c1 (the right endpoint), not c0, turning
        # c1's plain dual span{(1,2)} back into span{(1,1)}
        assert d.code("c0").space.basis.tolist() == [[1, 2]]
        assert d.code("c1").space.basis.tolist() == [[1, 1]]
        r_left = chain(GF3, [[[1, 1]], [[1, 1]]], [1], negate_at="left")
        d_left = dualize(r_left)
        assert d_left.code("c0").space.basis.tolist() == [[1, 1]]
        assert d_left.code("c1").space.basis.tolist() == [[1, 2]]

    def test_gf3_realized_dual(self):
        r = chain(GF3, [[[1, 1]], [[1, 1]]], [1])
        assert realized_code(dualize(r)) == realized_code(r).dual()


class TestAnalyze:
    def test_example1_report(self):
        rep = analyze(example1())
        assert rep.field_order == 2
        assert rep.total_symbol_dim == 3
        assert rep.total_state_dim == 3
        assert rep.total_constraint_dim == 6
        assert rep.behavior_dim == 3
        assert rep.realized_dim == 2
        assert rep.unobservable_dim == 1
        assert rep.defect == 0
        assert not rep.observable and rep.controllable
        assert rep.reduced
        assert not rep.cycle_free and rep.minimal is None
        # unobservable, so locally reducible although trim and proper
        assert rep.trim_proper and rep.locally_reducible

    def test_conventional_report(self):
        rep = analyze(conventional_improper())
        assert rep.cycle_free
        assert rep.minimal is False
        assert rep.locally_reducible
        bad = [c for c in rep.constraints if not c.proper.ok]
        assert [c.id for c in bad] == ["c2"]

    def test_to_dict_round_trips_key_facts(self):
        d = analyze(example1()).to_dict()
        assert d["field"] == 2
        assert d["behavior_dim"] == 3
        assert d["minimal"] is None
        assert d["states"] == [{"id": f"s{i}", "dim": 1} for i in range(3)]
        assert all(t["ok"] for c in d["constraints"] for t in c["trim"])

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([2, 3]), st.integers(0, 10 ** 9), st.integers(0, 3))
    def test_report_internal_consistency(self, p, seed, extra_edges):
        rng = random.Random(seed)
        r = random_realization(rng, GF2 if p == 2 else GF3, total_cap=10,
                               extra_edges=extra_edges)
        rep = analyze(r)
        assert rep.behavior_dim == rep.realized_dim + rep.unobservable_dim
        assert rep.observable == (rep.unobservable_dim == 0)
        assert rep.controllable == (rep.defect == 0)
        assert rep.defect >= 0
        assert rep.reduced == (rep.state_trim and rep.branch_trim)
        if rep.cycle_free:
            assert rep.minimal == (not rep.locally_reducible)
