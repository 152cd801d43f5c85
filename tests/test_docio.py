"""Document parsing/emission and DOT export."""

import json
import random
import string
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncl import (
    GF2,
    BlockedCode,
    BlockStructure,
    Constraint,
    DocumentError,
    InvalidRealizationError,
    Realization,
    StateVar,
    SymbolVar,
    Topology,
    analyze,
    behavior,
    dualize,
    emit_realization,
    export_dot,
    generator_realization,
    natural_key,
    parity_check_realization,
    parse_code_document,
    parse_realization,
    realized_code,
    validate,
)
from ncl import fields
from ncl.docio import _id_order
from fixtures import DECLARED_TWICE, chain_document, example1, example1_document, example3
from helpers import gallager_checks
from helpers import natural_key as reference_natural_key

# ASCII letters and digits, two separators, an Arabic-Indic three (a decimal
# digit, so a digit run) and a superscript two (a digit but not decimal: text)
id_texts = st.text(st.sampled_from(string.ascii_letters + string.digits + "@_\u0663\u00b2"),
                   max_size=8)


class TestNaturalKey:
    def test_digit_runs_compare_numerically(self):
        ids = ["a10", "a2", "a1", "b0", "a0"]
        assert sorted(ids, key=natural_key) == ["a0", "a1", "a2", "a10", "b0"]

    def test_mixed_chunks(self):
        assert natural_key("s12x3") == ((1, "s"), (0, 12), (1, "x"), (0, 3))

    @settings(max_examples=500, deadline=None)
    @given(id_texts)
    def test_key_is_the_reference_key(self, text):
        assert natural_key(text) == reference_natural_key(text)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(id_texts, max_size=12))
    def test_parse_order_is_natural_key_order_ties_included(self, texts):
        # a stable sort keeps tied ids (a01 and a1) in input order, so equal
        # lists mean equal orders and equal ties
        items = [SimpleNamespace(id=t) for t in texts]
        assert (sorted(items, key=_id_order)
                == sorted(items, key=lambda v: reference_natural_key(v.id)))
        for a in items:
            for b in items:
                assert ((_id_order(a) < _id_order(b))
                        == (reference_natural_key(a.id) < reference_natural_key(b.id)))


class TestParseEmit:
    def test_emit_is_pinned(self):
        assert emit_realization(example1()) == example1_document()

    def test_parse_emit_round_trip(self):
        text = example1_document()
        r = parse_realization(text)
        assert emit_realization(r) == text
        assert realized_code(r).dim == 2

    def test_parse_normalizes_declaration_order_and_rows(self):
        doc = json.loads(example1_document())
        doc["symbols"].reverse()
        doc["states"].reverse()
        doc["constraints"].reverse()
        # same row space, different generators
        doc["constraints"][0]["generators"] = [[1, 1, 0], [0, 1, 1]]
        scrambled = json.dumps(doc)
        assert emit_realization(parse_realization(scrambled)) == example1_document()

    def test_round_trip_preserves_behavior(self):
        r = example3()
        back = parse_realization(emit_realization(r))
        assert behavior(back) == behavior(r)

    def test_negate_at_defaults_to_right(self):
        doc = json.loads(example1_document())
        for s in doc["states"]:
            del s["negate_at"]
        r = parse_realization(json.dumps(doc))
        assert all(s.negate_at == "right" for s in r.topology.states)

    @pytest.mark.parametrize("make, message", [
        # the chain's full local codes have no check rows; its dual's check
        # rows are their dims, over the budget at the 1,564th constraint
        (lambda: dualize(parse_realization(chain_document(1600))),
         "$.constraints[1563].generators: the behavior's system needs 15006509 "
         "cells, over the budget of 15000000"),
        # a (3,6)-regular Tanner graph: 3.5n check rows over a frame of 4n
        (lambda: parity_check_realization(GF2, 1200, gallager_checks(random.Random(1200), 1200)),
         "$.constraints[1441].generators: the behavior's system needs 15004800 "
         "cells, over the budget of 15000000"),
    ], ids=["chain-1600-dual", "tanner-1200"])
    def test_emit_refuses_a_document_over_the_cell_budget(self, make, message):
        # the error, path and message that the parse of the text would raise
        with pytest.raises(DocumentError) as e:
            emit_realization(make())
        assert str(e.value) == message

    def test_emit_refuses_an_invalid_realization(self):
        # gen0's code has one block where its constraint lists two vars:
        # the text would fail its own parse, on the generators' row length
        r = generator_realization(GF2, 3, [[1, 1, 0], [0, 1, 1]])
        codes = r.codes
        codes["gen0"] = BlockedCode.from_rows(GF2, BlockStructure((("g0@p0", 1),)), [[1]])
        bad = Realization(GF2, r.topology, codes)
        assert [i.tag for i in validate(bad)] == ["dim-mismatch"]
        with pytest.raises(InvalidRealizationError):
            emit_realization(bad)

    @pytest.mark.parametrize("symbols, states, constraint_ids", [
        (("a", "a"), (), ("c",)),
        (("a",), ("a",), ("c",)),
        (("a",), (), ("c", "c")),
    ], ids=["two-symbols", "a-symbol-and-a-state", "two-constraints"])
    def test_emit_refuses_an_id_repeated_within_vars_or_constraints(
            self, symbols, states, constraint_ids):
        # the parse refuses the text at the second declaration of the id
        topo = Topology(tuple(SymbolVar(s, 1) for s in symbols),
                        tuple(StateVar(s, 1, "c", "d") for s in states),
                        tuple(Constraint(c, ("a",)) for c in constraint_ids))
        codes = {c: BlockedCode.from_rows(GF2, BlockStructure((("a", 1),)), [[1]])
                 for c in constraint_ids}
        r = Realization(GF2, topo, codes)
        assert "duplicate-id" in [i.tag for i in validate(r)]
        with pytest.raises(InvalidRealizationError):
            emit_realization(r)

    def test_emit_refuses_a_dim_mismatch_beside_an_id_a_var_and_a_constraint_share(self):
        # the shared id is recorded, as the parse records it; the code of the
        # wrong width is not, as the parse would refuse its row length
        topo = Topology((SymbolVar("x", 2),), (), (Constraint("x", ("x",)),))
        bad = Realization(GF2, topo, {"x": BlockedCode.from_rows(
            GF2, BlockStructure((("x", 1),)), [[1]])})
        assert [i.tag for i in validate(bad)] == ["duplicate-id", "dim-mismatch"]
        with pytest.raises(InvalidRealizationError):
            emit_realization(bad)
        good = Realization(GF2, topo, {"x": BlockedCode.from_rows(
            GF2, BlockStructure((("x", 2),)), [[1, 1]])})
        assert [i.tag for i in validate(good)] == ["duplicate-id"]
        assert validate(parse_realization(emit_realization(good))) == validate(good)


class TestParseErrors:
    def check(self, text, path_part, message_part=None):
        with pytest.raises(DocumentError) as exc:
            parse_realization(text)
        assert path_part in str(exc.value)
        if message_part:
            assert message_part in str(exc.value)

    def test_not_json(self):
        self.check("{nope", "$", "not valid JSON")

    def test_not_an_object(self):
        self.check("[1,2]", "$", "expected a JSON object")

    def test_missing_field(self):
        self.check('{"symbols": [], "states": [], "constraints": []}',
                   "$.field", "missing")

    def test_non_prime_field(self):
        self.check('{"field": 4, "symbols": [], "states": [], "constraints": []}',
                   "$.field", "prime")

    def test_bool_is_not_an_int(self):
        self.check('{"field": true, "symbols": [], "states": [], "constraints": []}',
                   "$.field", "integer")

    def test_symbol_errors_carry_index(self):
        self.check('{"field": 2, "symbols": [{"id": "a0"}], "states": [],'
                   ' "constraints": []}', "$.symbols[0].dim")
        self.check('{"field": 2, "symbols": [{"id": "a0", "dim": -1}],'
                   ' "states": [], "constraints": []}', "$.symbols[0]", "negative")

    def test_state_errors_carry_index(self):
        base = ('{"field": 2, "symbols": [], "states": [%s], "constraints": []}')
        self.check(base % '{"id": "s0", "dim": 1, "left": "c0"}', "$.states[0].right")
        self.check(base % '{"id": "s0", "dim": 1, "left": "c0", "right": "c1",'
                          ' "negate_at": "middle"}', "$.states[0]", "negate_at")

    def test_undeclared_var(self):
        self.check('{"field": 2, "symbols": [{"id": "a0", "dim": 1}], "states": [],'
                   ' "constraints": [{"id": "c0", "vars": ["a0", "zz"],'
                   ' "generators": []}]}', "$.constraints[0].vars[1]", "undeclared")

    def test_var_listed_twice(self):
        self.check('{"field": 2, "symbols": [{"id": "a1", "dim": 0}], "states": [],'
                   ' "constraints": [{"id": "c0", "vars": ["a1", "a1"],'
                   ' "generators": []}]}', "$.constraints[0].vars[1]", "listed twice")

    def test_a_constraint_of_40000_vars_parses_in_linear_time(self):
        # one constraint over k symbols of dim 0: checking each var against the
        # ones before it took 21.5 s at k = 40,000 on a 2-vCPU VM; one lookup per
        # var in the vars seen so far keeps the whole parse near 0.3 s there
        k = 40_000
        ids = [f"a{i}" for i in range(k)]
        doc = {"field": 2, "symbols": [{"id": v, "dim": 0} for v in ids], "states": [],
               "constraints": [{"id": "c0", "vars": ids, "generators": []}]}
        text = json.dumps(doc)
        seconds = []
        for _ in range(2):  # the faster of two, so one stall of a shared host does not fail it
            start = time.process_time()
            r = parse_realization(text)
            seconds.append(time.process_time() - start)
        assert min(seconds) < 1.0
        assert r.topology.constraint("c0").vars == tuple(ids)
        doc["constraints"][0]["vars"] = ids + ["a7"]
        with pytest.raises(DocumentError) as e:
            parse_realization(json.dumps(doc))
        assert str(e.value) == f"$.constraints[0].vars[{k}]: variable 'a7' listed twice"

    def test_row_width(self):
        self.check('{"field": 2, "symbols": [{"id": "a0", "dim": 2}], "states": [],'
                   ' "constraints": [{"id": "c0", "vars": ["a0"],'
                   ' "generators": [[1]]}]}',
                   "$.constraints[0].generators[0]", "row length")

    def test_row_entry_type(self):
        self.check('{"field": 2, "symbols": [{"id": "a0", "dim": 1}], "states": [],'
                   ' "constraints": [{"id": "c0", "vars": ["a0"],'
                   ' "generators": [[1.5]]}]}',
                   "$.constraints[0].generators[0][0]", "integer")

    def test_variable_declared_twice(self):
        # the second declaration is reported, not the row width it would skew
        self.check(DECLARED_TWICE, "$.symbols[1]", "id 'a' declared twice")
        self.check('{"field": 2, "symbols": [{"id": "s0", "dim": 1}],'
                   ' "states": [{"id": "s0", "dim": 1, "left": "c0", "right": "c1"}],'
                   ' "constraints": []}', "$.states[0]", "id 's0' declared twice")

    def test_duplicate_constraint(self):
        self.check('{"field": 2, "symbols": [{"id": "a0", "dim": 1},'
                   ' {"id": "a1", "dim": 1}], "states": [],'
                   ' "constraints": [{"id": "c0", "vars": ["a0"], "generators": []},'
                   ' {"id": "c0", "vars": ["a1"], "generators": []}]}',
                   "$.constraints[1]", "twice")


# A Tanner graph with position nodes of degree 2 and 3 and check nodes of
# degree 4: three distinct local codes on 13 constraints
TANNER_CHECKS = [[1, 1, 1, 1, 0, 0, 0, 0],
                 [0, 0, 0, 0, 1, 1, 1, 1],
                 [1, 1, 0, 0, 1, 1, 0, 0],
                 [0, 0, 1, 1, 0, 0, 1, 1],
                 [1, 0, 1, 0, 1, 0, 1, 0]]


class TestSharedLocalCodes:
    @staticmethod
    def document() -> str:
        return emit_realization(parity_check_realization(GF2, 8, TANNER_CHECKS))

    @staticmethod
    def spaces_by_rows(r) -> dict:
        """The code spaces of r, grouped by (width, generator rows)."""
        groups: dict = {}
        for c in r.topology.constraints:
            space = r.code(c.id).space
            groups.setdefault((space.ambient, tuple(map(tuple, space.basis.tolist()))),
                              []).append(space)
        return groups

    def test_equal_generator_rows_share_one_subspace(self):
        r = parse_realization(self.document())
        groups = self.spaces_by_rows(r)
        assert len(groups) == 3
        for spaces in groups.values():
            assert all(space is spaces[0] for space in spaces)

    def test_each_distinct_space_computes_its_check_matrix_once(self, monkeypatch):
        r = parse_realization(self.document())
        bases = [r.code(c.id).space.basis.array for c in r.topology.constraints]
        calls = []
        original = fields._null_rows

        def counted(a, piv, p):
            calls.append(a)
            return original(a, piv, p)

        monkeypatch.setattr(fields, "_null_rows", counted)
        behavior(r)
        analyze(r)
        # one check matrix per distinct space, read off its basis; the one
        # other call is the behavior kernel, read off a fresh RREF
        from_codes = [a for a in calls if any(a is b for b in bases)]
        assert len(bases) == 13
        assert len(from_codes) == len(self.spaces_by_rows(r)) == 3
        assert len(calls) - len(from_codes) == 1

    def test_emit_after_parse_is_byte_identical(self):
        text = self.document()
        r = parse_realization(text)
        analyze(r)
        assert emit_realization(r) == text
        assert emit_realization(parse_realization(emit_realization(r))) == text


class TestCodeDocuments:
    def test_parse(self):
        c = parse_code_document('{"field": 2, "generators": [[1, 1, 0], [1, 0, 1]]}')
        assert c.dim == 2 and c.structure.total == 3

    def test_empty_needs_width(self):
        c = parse_code_document('{"field": 3, "generators": [], "width": 4}')
        assert c.dim == 0 and c.structure.total == 4
        with pytest.raises(DocumentError) as exc:
            parse_code_document('{"field": 3, "generators": []}')
        assert "$.width" in str(exc.value)

    def test_width_must_match(self):
        with pytest.raises(DocumentError) as exc:
            parse_code_document('{"field": 2, "generators": [[1, 1]], "width": 3}')
        assert "$.generators[0]" in str(exc.value)

    def test_bad_width_type(self):
        with pytest.raises(DocumentError):
            parse_code_document('{"field": 2, "generators": [[1]], "width": true}')


class TestExportDot:
    def test_example1(self):
        text = export_dot(example1())
        lines = text.splitlines()
        assert lines[0] == "graph realization {"
        assert lines[1] == "  node [shape=box];"
        assert lines[-1] == "}"
        assert '  "c0" [label="c0\\ndim 2"];' in lines
        assert '  "c2" -- "c0" [label="s0:1"];' in lines
        assert '  "sym:a1" [shape=none, label="a1:1"];' in lines
        assert '  "c1" -- "sym:a1";' in lines
        assert sum(1 for ln in lines if " -- " in ln) == 6

    def test_quotes_escaped(self):
        from ncl import (BlockedCode, BlockStructure, Constraint, Realization,
                         SymbolVar, Topology)
        symbols = (SymbolVar('a"0', 1),)
        cons = (Constraint('c"0', ('a"0',)),)
        codes = {'c"0': BlockedCode.from_rows(
            GF2, BlockStructure((('a"0', 1),)), [[1]])}
        r = Realization(GF2, Topology(symbols, (), cons), codes)
        text = export_dot(r)
        assert '\\"' in text

    def test_backslashes_escaped_and_the_label_break_kept(self):
        # unescaped, the id's backslash would escape the closing quote
        doc = {"field": 2, "symbols": [{"id": "a\\", "dim": 1}], "states": [],
               "constraints": [{"id": "c\\", "vars": ["a\\"], "generators": [[1]]}]}
        lines = export_dot(parse_realization(json.dumps(doc))).splitlines()
        assert lines[2:5] == [r'  "c\\" [label="c\\\ndim 1"];',
                              r'  "sym:a\\" [shape=none, label="a\\:1"];',
                              r'  "c\\" -- "sym:a\\";']
