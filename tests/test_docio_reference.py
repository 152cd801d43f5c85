"""The document boundary against references: the JSON writer against
json.dumps(obj, indent=2), and parse_realization against the parse that
converted and checked every constraint's rows (reference_parse_realization).
Also the behavior-system cell budget."""

import io
import json
import math
import random
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ncl import (
    GF2,
    GF3,
    BlockedCode,
    BlockStructure,
    Constraint,
    DocumentError,
    InvalidRealizationError,
    PrimeField,
    Realization,
    StateVar,
    SymbolVar,
    Topology,
    analyze,
    emit_realization,
    parity_check_realization,
    parse_realization,
    validate,
)
from ncl.cli import main
from ncl.docio import MAX_SYSTEM_CELLS, _dumps
from ncl.fields import MatrixF, rank
from fixtures import DECLARED_TWICE, example1_document
from helpers import (
    gallager_checks,
    ladder_conventional_trellis,
    ladder_trellis,
    natural_key,
    random_blocked_code,
    random_realization,
    random_tail_biting_product,
    reference_parse_realization,
)
from test_fuzz_boundary import documents

# --- the writer --------------------------------------------------------------

strings = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é ü   😀", "a\nb\tc"])
scalars = (st.none() | st.booleans() | st.integers(-10 ** 30, 10 ** 30) | strings
           | st.floats(allow_nan=True, allow_infinity=True))
keys = strings | st.integers(-10 ** 30, 10 ** 30) | st.booleans() | st.none() | st.floats()
json_like = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(keys, children, max_size=4),
    max_leaves=30,
)


class Opaque:
    pass


# values and keys json.dumps rejects with TypeError
unsupported = st.sampled_from([{1, 2}, b"x", 1j, Opaque(), np.int64(3), frozenset()])
bad_keys = st.sampled_from([(1, 2), frozenset(), b"k", Opaque()])
with_unsupported = st.recursive(
    scalars | unsupported,
    lambda children: st.lists(children, max_size=3)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(keys, children, max_size=3)
    | st.tuples(bad_keys, children).map(lambda kv: {kv[0]: kv[1]}),
    max_leaves=12,
)


@settings(max_examples=400, deadline=None)
@given(json_like)
def test_writer_matches_json_dumps(obj):
    assert _dumps(obj) == json.dumps(obj, indent=2)


@settings(max_examples=300, deadline=None)
@given(with_unsupported)
def test_writer_raises_type_error_where_json_dumps_does(obj):
    try:
        want = json.dumps(obj, indent=2)
    except TypeError as e:
        with pytest.raises(TypeError) as got:
            _dumps(obj)
        assert str(got.value) == str(e)
    else:
        assert _dumps(obj) == want


@pytest.mark.parametrize("obj", [
    {}, [], (), "", 0, -1, 10 ** 40, True, False, None, math.nan, -math.inf, 1.5,
    {"a": []}, [{}], [[[]]], {1: "x", True: "y", None: "z", 2.5: ()}, "é\"\\\x01",
    # lists of more than 8 items that are neither all scalars, nor all
    # lists, nor dicts of one str key list: the writer's per-item branch
    [1, [2, 3]] * 5, [{"b": k} if k % 2 else {"a": k} for k in range(10)],
    [{1: k} for k in range(10)],
])
def test_writer_on_edge_values(obj):
    assert _dumps(obj) == json.dumps(obj, indent=2)


def test_writer_pinned_on_the_n240_analyze_report(tmp_path):
    r = parity_check_realization(GF2, 240, gallager_checks(random.Random(240), 240))
    path = tmp_path / "tanner240.json"
    path.write_text(emit_realization(r), encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["analyze", str(path), "--json"]) == 0
    report = analyze(parse_realization(path.read_text(encoding="utf-8"))).to_dict()
    assert out.getvalue() == json.dumps(report, indent=2) + "\n"
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert path.read_text(encoding="utf-8") == json.dumps(doc, indent=2) + "\n"


# --- the parse -----------------------------------------------------------------

def system_cells_exceed_budget(text: str) -> bool:
    """Whether the constraints, up to some one, have more check rows
    (width less dim) times the frame's total dim than the budget allows."""
    doc = json.loads(text)
    field = PrimeField(doc["field"])
    dims = {v["id"]: v["dim"] for v in doc["symbols"] + doc["states"]}
    frame, checks = sum(dims.values()), 0
    for c in doc["constraints"]:
        width = sum(dims[v] for v in c["vars"])
        rows = [[x % field.p for x in row] for row in c["generators"]]
        checks += width - rank(MatrixF.from_rows(field, rows, cols=width))
        if checks * frame > MAX_SYSTEM_CELLS:
            return True
    return False


def assert_parses_like_reference(text: str) -> None:
    """Equal emitted text, equal validation findings and as many distinct
    spaces as the reference parse; or the same error; or, where the
    behavior's system exceeds the budget, the budget error."""
    try:
        got = parse_realization(text)
    except DocumentError as e:
        if "over the budget" in str(e):
            assert system_cells_exceed_budget(text)
            return
        with pytest.raises(DocumentError) as want:
            reference_parse_realization(text)
        assert (e.path, str(e)) == (want.value.path, str(want.value))
        return
    except Exception as e:  # any other error: the reference must raise the same
        with pytest.raises(type(e)) as want:
            reference_parse_realization(text)
        assert str(want.value) == str(e)
        return
    want = reference_parse_realization(text)
    assert emit_realization(got) == emit_realization(want)
    assert got._issues == want._issues
    spaces = [{id(r.code(c.id).space) for c in r.topology.constraints} for r in (got, want)]
    assert len(spaces[0]) == len(spaces[1])
    assert_trusted_is_public(got)


def assert_trusted_is_public(r) -> None:
    """What the parse builds with no __post_init__ (blockcode._trusted) is
    what the public constructors build of the same values: each code's
    block structure, each constraint, and the findings of a realization
    built anew of them. Reprs are compared too, so that a value equal to
    the normalized one (True for 1) does not pass."""
    topo = r.topology
    constraints = tuple(Constraint(c.id, c.vars) for c in topo.constraints)
    assert (constraints, repr(constraints)) == (topo.constraints, repr(topo.constraints))
    codes = {}
    for c in topo.constraints:
        code = r.code(c.id)
        structure = BlockStructure(code.structure.blocks)
        assert (structure, repr(structure), structure.total) == (
            code.structure, repr(code.structure), code.structure.total)
        codes[c.id] = BlockedCode(structure, code.space)
    fresh = Realization(r.field, Topology(topo.symbols, topo.states, constraints), codes)
    assert r._issues == tuple(validate(fresh))


def scrambled(r, rng: random.Random) -> str:
    """r's document with its declarations shuffled and each row scaled by
    a nonzero unit and shifted by a multiple of p: the same realization."""
    doc = json.loads(emit_realization(r))
    p = doc["field"]
    for key in ("symbols", "states", "constraints"):
        rng.shuffle(doc[key])
    for c in doc["constraints"]:
        c["generators"] = [[(rng.randrange(1, p) * x) % p + p * rng.randint(-2, 2)
                            for x in row] for row in c["generators"]]
    return json.dumps(doc)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_parse_matches_reference_on_random_realizations(p):
    rng = random.Random(p)
    field = PrimeField(p)
    for k in range(60):
        r = random_realization(rng, field, max_constraints=5, extra_edges=k % 4)
        assert_parses_like_reference(emit_realization(r))
        assert_parses_like_reference(scrambled(r, rng))
    for _ in range(20):
        r = random_tail_biting_product(rng, field)
        assert_parses_like_reference(emit_realization(r))
        assert_parses_like_reference(scrambled(r, rng))


def test_parse_matches_reference_on_tanner_and_ladder_documents():
    rng = random.Random(18)
    for n in (6, 12, 24):
        r = parity_check_realization(GF2, n, gallager_checks(rng, n))
        assert_parses_like_reference(emit_realization(r))
        assert_parses_like_reference(scrambled(r, rng))
    for field in (PrimeField(2), PrimeField(3)):
        for r in (ladder_trellis(rng, field, 18, chain=3),
                  ladder_conventional_trellis(rng, field, 16)):
            assert_parses_like_reference(emit_realization(r))
            assert_parses_like_reference(scrambled(r, rng))
    assert_parses_like_reference(example1_document())
    assert_parses_like_reference(DECLARED_TWICE)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents)
def test_parse_matches_reference_on_the_fuzz_corpus(text):
    assert_parses_like_reference(text)


def test_a_constraint_that_takes_a_var_id_is_a_duplicate_id():
    # the parse checks constraint ids against each other and var ids against
    # each other; across the two only the topology's findings see a clash
    doc = {"field": 2, "symbols": [{"id": "x", "dim": 1}], "states": [],
           "constraints": [{"id": "x", "vars": ["x"], "generators": [[1]]}]}
    assert_parses_like_reference(json.dumps(doc))
    assert [i.tag for i in parse_realization(json.dumps(doc))._issues] == ["duplicate-id"]


def test_equal_residue_rows_share_one_space():
    doc = {"field": 3, "symbols": [{"id": f"a{k}", "dim": 2} for k in range(3)], "states": [],
           "constraints": [{"id": "c0", "vars": ["a0"], "generators": [[1, 2]]},
                           {"id": "c1", "vars": ["a1"], "generators": [[4, -1]]},
                           {"id": "c2", "vars": ["a2"], "generators": [[1, 2]]}]}
    r = parse_realization(json.dumps(doc))
    assert len({id(r.code(c).space) for c in ("c0", "c1", "c2")}) == 1
    assert_parses_like_reference(json.dumps(doc))


@pytest.mark.parametrize("bad, path, message", [
    (True, "$.constraints[1].generators[0][0]", "expected an integer"),
    (1.0, "$.constraints[1].generators[0][0]", "expected an integer"),
    ("1", "$.constraints[1].generators[0][0]", "expected an integer"),
])
def test_rows_equal_to_a_seen_key_but_of_another_type_are_rejected(bad, path, message):
    # True == 1 and 1.0 == 1 in Python; the seen key must not let them through
    doc = {"field": 2, "symbols": [{"id": "a0", "dim": 1}, {"id": "a1", "dim": 1}],
           "states": [],
           "constraints": [{"id": "c0", "vars": ["a0"], "generators": [[1]]},
                           {"id": "c1", "vars": ["a1"], "generators": [[bad]]}]}
    with pytest.raises(DocumentError) as e:
        parse_realization(json.dumps(doc))
    assert str(e.value) == f"{path}: {message}"
    assert_parses_like_reference(json.dumps(doc))


# --- one-defect mutations ---------------------------------------------------------
# Each mutation changes one thing in a valid document, at the second entry of
# its kind. The table pins the parse's (path, message) for a refusal, or the
# tags of the findings it records, on a GF(2) Tanner document and a GF(3)
# tail-biting one.

def _set(key, i, field, value):
    def mutate(doc):
        doc[key][i][field] = value
    return mutate


def _drop(key, i, field):
    def mutate(doc):
        del doc[key][i][field]
    return mutate


def _entry(key, i, value):
    def mutate(doc):
        doc[key][i] = value
    return mutate


def _copy_id(key, i, src_key, j):
    def mutate(doc):
        doc[key][i]["id"] = doc[src_key][j]["id"]
    return mutate


def _var(i, j, value):
    """Constraint i's var j set to value, or to its first var where value is None."""
    def mutate(doc):
        vars_ = doc["constraints"][i]["vars"]
        vars_[j] = vars_[0] if value is None else value
    return mutate


def _rows(i, edit):
    def mutate(doc):
        edit(doc["constraints"][i]["generators"])
    return mutate


MUTATIONS = {
    "symbols-not-a-list": lambda doc: doc.update(symbols={}),
    "states-missing": lambda doc: doc.pop("states"),
    "constraints-not-a-list": lambda doc: doc.update(constraints="c0"),
    "symbol-not-an-object": _entry("symbols", 1, 7),
    "symbol-a-list": _entry("symbols", 1, ["a1", 1]),
    "symbol-id-missing": _drop("symbols", 1, "id"),
    "symbol-id-an-int": _set("symbols", 1, "id", 1),
    "symbol-dim-missing": _drop("symbols", 1, "dim"),
    "symbol-dim-a-string": _set("symbols", 1, "dim", "1"),
    "symbol-dim-a-bool": _set("symbols", 1, "dim", True),
    "symbol-dim-a-float": _set("symbols", 1, "dim", 1.0),
    "symbol-dim-negative": _set("symbols", 1, "dim", -1),
    "symbol-id-repeated": _copy_id("symbols", 1, "symbols", 0),
    "state-not-an-object": _entry("states", 1, None),
    "state-id-missing": _drop("states", 1, "id"),
    "state-dim-a-bool": _set("states", 1, "dim", False),
    "state-dim-negative": _set("states", 1, "dim", -2),
    "state-left-missing": _drop("states", 1, "left"),
    "state-left-an-int": _set("states", 1, "left", 3),
    "state-right-null": _set("states", 1, "right", None),
    "state-negate-at-bad": _set("states", 1, "negate_at", "middle"),
    "state-negate-at-an-int": _set("states", 1, "negate_at", 0),
    "state-negate-at-null": _set("states", 1, "negate_at", None),
    "state-negate-at-a-list": _set("states", 1, "negate_at", ["left"]),
    "state-negate-at-missing": _drop("states", 1, "negate_at"),
    "state-negate-at-left": _set("states", 1, "negate_at", "left"),
    "state-id-repeated": _copy_id("states", 1, "states", 0),
    "state-takes-a-symbol-id": _copy_id("states", 1, "symbols", 0),
    "state-endpoint-unknown": _set("states", 1, "left", "nowhere"),
    "state-self-loop": lambda doc: doc["states"][1].update(right=doc["states"][1]["left"]),
    "constraint-not-an-object": _entry("constraints", 1, "c1"),
    "constraint-id-missing": _drop("constraints", 1, "id"),
    "constraint-id-null": _set("constraints", 1, "id", None),
    "constraint-vars-missing": _drop("constraints", 1, "vars"),
    "constraint-vars-a-string": _set("constraints", 1, "vars", "a0"),
    "constraint-generators-missing": _drop("constraints", 1, "generators"),
    "constraint-generators-an-object": _set("constraints", 1, "generators", {"0": [1]}),
    "var-not-a-string": _var(1, 1, 0),
    "var-a-list": _var(1, 1, ["a0"]),
    "var-undeclared": _var(1, 1, "zz"),
    "var-repeated": _var(1, 1, None),
    "row-not-a-list": _rows(1, lambda g: g.__setitem__(0, 1)),
    "row-too-long": _rows(1, lambda g: g[0].append(0)),
    "row-too-short": _rows(1, lambda g: g[-1].pop()),
    "entry-a-float": _rows(1, lambda g: g[0].__setitem__(0, 1.5)),
    "entry-a-bool": _rows(1, lambda g: g[-1].__setitem__(-1, True)),
    "entry-a-string": _rows(1, lambda g: g[0].__setitem__(1, "1")),
    "entry-null": _rows(1, lambda g: g[0].__setitem__(0, None)),
    "entry-huge": _rows(1, lambda g: g[0].__setitem__(0, 10 ** 30 + 1)),
    "constraint-id-repeated": _copy_id("constraints", 1, "constraints", 0),
    "constraint-takes-a-symbol-id": _copy_id("constraints", 1, "symbols", 0),
    "constraint-takes-a-state-id": _copy_id("constraints", 1, "states", 0),
}


def _mutation_documents() -> dict[str, str]:
    tanner = parity_check_realization(GF2, 12, gallager_checks(random.Random(36), 12))
    tail_biting = random_tail_biting_product(random.Random(0), GF3, max_n=5, max_gens=3)
    return {"tanner": emit_realization(tanner), "tail-biting": emit_realization(tail_biting)}


MUTATION_DOCUMENTS = _mutation_documents()

MUTATION_TABLE = [
    ("tanner", "symbols-not-a-list", '$.symbols', 'expected list'),
    ("tanner", "states-missing", '$.states', 'missing required field'),
    ("tanner", "constraints-not-a-list", '$.constraints', 'expected list'),
    ("tanner", "symbol-not-an-object", '$.symbols[1]', 'expected an object'),
    ("tanner", "symbol-a-list", '$.symbols[1]', 'expected an object'),
    ("tanner", "symbol-id-missing", '$.symbols[1].id', 'missing required field'),
    ("tanner", "symbol-id-an-int", '$.symbols[1].id', 'expected str'),
    ("tanner", "symbol-dim-missing", '$.symbols[1].dim', 'missing required field'),
    ("tanner", "symbol-dim-a-string", '$.symbols[1].dim', 'expected int'),
    ("tanner", "symbol-dim-a-bool", '$.symbols[1].dim', 'expected an integer'),
    ("tanner", "symbol-dim-a-float", '$.symbols[1].dim', 'expected int'),
    ("tanner", "symbol-dim-negative", '$.symbols[1]', "symbol 'a1' has negative dim"),
    ("tanner", "symbol-id-repeated", '$.symbols[1]', "id 'a0' declared twice"),
    ("tanner", "state-not-an-object", '$.states[1]', 'expected an object'),
    ("tanner", "state-id-missing", '$.states[1].id', 'missing required field'),
    ("tanner", "state-dim-a-bool", '$.states[1].dim', 'expected an integer'),
    ("tanner", "state-dim-negative", '$.states[1]', "state 'g0@p3' has negative dim"),
    ("tanner", "state-left-missing", '$.states[1].left', 'missing required field'),
    ("tanner", "state-left-an-int", '$.states[1].left', 'expected str'),
    ("tanner", "state-right-null", '$.states[1].right', 'expected str'),
    ("tanner", "state-negate-at-bad",
     '$.states[1]', "state 'g0@p3': negate_at must be 'left' or 'right'"),
    ("tanner", "state-negate-at-an-int", '$.states[1].negate_at', 'expected a string'),
    ("tanner", "state-negate-at-null", '$.states[1].negate_at', 'expected a string'),
    ("tanner", "state-negate-at-a-list", '$.states[1].negate_at', 'expected a string'),
    ("tanner", "state-negate-at-missing", None, None),
    ("tanner", "state-negate-at-left", None, None),
    ("tanner", "state-id-repeated", '$.states[1]', "id 'g0@p2' declared twice"),
    ("tanner", "state-takes-a-symbol-id", '$.states[1]', "id 'a0' declared twice"),
    ("tanner", "state-endpoint-unknown", None, ('unknown-id',)),
    ("tanner", "state-self-loop", None, ('self-loop',)),
    ("tanner", "constraint-not-an-object", '$.constraints[1]', 'expected an object'),
    ("tanner", "constraint-id-missing", '$.constraints[1].id', 'missing required field'),
    ("tanner", "constraint-id-null", '$.constraints[1].id', 'expected str'),
    ("tanner", "constraint-vars-missing", '$.constraints[1].vars', 'missing required field'),
    ("tanner", "constraint-vars-a-string", '$.constraints[1].vars', 'expected list'),
    ("tanner", "constraint-generators-missing",
     '$.constraints[1].generators', 'missing required field'),
    ("tanner", "constraint-generators-an-object", '$.constraints[1].generators', 'expected list'),
    ("tanner", "var-not-a-string", '$.constraints[1].vars[1]', 'expected a variable id'),
    ("tanner", "var-a-list", '$.constraints[1].vars[1]', 'expected a variable id'),
    ("tanner", "var-undeclared", '$.constraints[1].vars[1]', "undeclared variable 'zz'"),
    ("tanner", "var-repeated", '$.constraints[1].vars[1]', "variable 'g1@p0' listed twice"),
    ("tanner", "row-not-a-list", '$.constraints[1].generators[0]', 'expected a list of integers'),
    ("tanner", "row-too-long", '$.constraints[1].generators[0]', 'row length 7 != total var dim 6'),
    ("tanner", "row-too-short",
     '$.constraints[1].generators[4]', 'row length 5 != total var dim 6'),
    ("tanner", "entry-a-float", '$.constraints[1].generators[0][0]', 'expected an integer'),
    ("tanner", "entry-a-bool", '$.constraints[1].generators[4][5]', 'expected an integer'),
    ("tanner", "entry-a-string", '$.constraints[1].generators[0][1]', 'expected an integer'),
    ("tanner", "entry-null", '$.constraints[1].generators[0][0]', 'expected an integer'),
    ("tanner", "entry-huge", None, None),
    ("tanner", "constraint-id-repeated", '$.constraints[1]', "constraint id 'chk0' declared twice"),
    ("tanner", "constraint-takes-a-symbol-id", None,
     ('duplicate-id', 'unknown-id', 'unknown-id', 'unknown-id', 'unknown-id', 'unknown-id',
      'unknown-id', 'disconnected')),
    ("tanner", "constraint-takes-a-state-id", None,
     ('duplicate-id', 'unknown-id', 'unknown-id', 'unknown-id', 'unknown-id', 'unknown-id',
      'unknown-id', 'disconnected')),
    ("tail-biting", "symbols-not-a-list", '$.symbols', 'expected list'),
    ("tail-biting", "states-missing", '$.states', 'missing required field'),
    ("tail-biting", "constraints-not-a-list", '$.constraints', 'expected list'),
    ("tail-biting", "symbol-not-an-object", '$.symbols[1]', 'expected an object'),
    ("tail-biting", "symbol-a-list", '$.symbols[1]', 'expected an object'),
    ("tail-biting", "symbol-id-missing", '$.symbols[1].id', 'missing required field'),
    ("tail-biting", "symbol-id-an-int", '$.symbols[1].id', 'expected str'),
    ("tail-biting", "symbol-dim-missing", '$.symbols[1].dim', 'missing required field'),
    ("tail-biting", "symbol-dim-a-string", '$.symbols[1].dim', 'expected int'),
    ("tail-biting", "symbol-dim-a-bool", '$.symbols[1].dim', 'expected an integer'),
    ("tail-biting", "symbol-dim-a-float", '$.symbols[1].dim', 'expected int'),
    ("tail-biting", "symbol-dim-negative", '$.symbols[1]', "symbol 'a1' has negative dim"),
    ("tail-biting", "symbol-id-repeated", '$.symbols[1]', "id 'a0' declared twice"),
    ("tail-biting", "state-not-an-object", '$.states[1]', 'expected an object'),
    ("tail-biting", "state-id-missing", '$.states[1].id', 'missing required field'),
    ("tail-biting", "state-dim-a-bool", '$.states[1].dim', 'expected an integer'),
    ("tail-biting", "state-dim-negative", '$.states[1]', "state 's1' has negative dim"),
    ("tail-biting", "state-left-missing", '$.states[1].left', 'missing required field'),
    ("tail-biting", "state-left-an-int", '$.states[1].left', 'expected str'),
    ("tail-biting", "state-right-null", '$.states[1].right', 'expected str'),
    ("tail-biting", "state-negate-at-bad",
     '$.states[1]', "state 's1': negate_at must be 'left' or 'right'"),
    ("tail-biting", "state-negate-at-an-int", '$.states[1].negate_at', 'expected a string'),
    ("tail-biting", "state-negate-at-null", '$.states[1].negate_at', 'expected a string'),
    ("tail-biting", "state-negate-at-a-list", '$.states[1].negate_at', 'expected a string'),
    ("tail-biting", "state-negate-at-missing", None, None),
    ("tail-biting", "state-negate-at-left", None, None),
    ("tail-biting", "state-id-repeated", '$.states[1]', "id 's0' declared twice"),
    ("tail-biting", "state-takes-a-symbol-id", '$.states[1]', "id 'a0' declared twice"),
    ("tail-biting", "state-endpoint-unknown", None, ('unknown-id',)),
    ("tail-biting", "state-self-loop", None, ('self-loop',)),
    ("tail-biting", "constraint-not-an-object", '$.constraints[1]', 'expected an object'),
    ("tail-biting", "constraint-id-missing", '$.constraints[1].id', 'missing required field'),
    ("tail-biting", "constraint-id-null", '$.constraints[1].id', 'expected str'),
    ("tail-biting", "constraint-vars-missing", '$.constraints[1].vars', 'missing required field'),
    ("tail-biting", "constraint-vars-a-string", '$.constraints[1].vars', 'expected list'),
    ("tail-biting", "constraint-generators-missing",
     '$.constraints[1].generators', 'missing required field'),
    ("tail-biting", "constraint-generators-an-object",
     '$.constraints[1].generators', 'expected list'),
    ("tail-biting", "var-not-a-string", '$.constraints[1].vars[1]', 'expected a variable id'),
    ("tail-biting", "var-a-list", '$.constraints[1].vars[1]', 'expected a variable id'),
    ("tail-biting", "var-undeclared", '$.constraints[1].vars[1]', "undeclared variable 'zz'"),
    ("tail-biting", "var-repeated", '$.constraints[1].vars[1]', "variable 's1' listed twice"),
    ("tail-biting", "row-not-a-list",
     '$.constraints[1].generators[0]', 'expected a list of integers'),
    ("tail-biting", "row-too-long",
     '$.constraints[1].generators[0]', 'row length 5 != total var dim 4'),
    ("tail-biting", "row-too-short",
     '$.constraints[1].generators[1]', 'row length 3 != total var dim 4'),
    ("tail-biting", "entry-a-float", '$.constraints[1].generators[0][0]', 'expected an integer'),
    ("tail-biting", "entry-a-bool", '$.constraints[1].generators[1][3]', 'expected an integer'),
    ("tail-biting", "entry-a-string", '$.constraints[1].generators[0][1]', 'expected an integer'),
    ("tail-biting", "entry-null", '$.constraints[1].generators[0][0]', 'expected an integer'),
    ("tail-biting", "entry-huge", None, None),
    ("tail-biting", "constraint-id-repeated",
     '$.constraints[1]', "constraint id 'c0' declared twice"),
    ("tail-biting", "constraint-takes-a-symbol-id", None,
     ('duplicate-id', 'unknown-id', 'unknown-id', 'disconnected')),
    ("tail-biting", "constraint-takes-a-state-id", None,
     ('duplicate-id', 'unknown-id', 'unknown-id', 'disconnected')),
]


@pytest.mark.parametrize("kind, name, path, want", MUTATION_TABLE,
                         ids=[f"{k}-{n}" for k, n, _, _ in MUTATION_TABLE])
def test_one_defect_mutation(kind, name, path, want):
    doc = json.loads(MUTATION_DOCUMENTS[kind])
    MUTATIONS[name](doc)
    text = json.dumps(doc)
    assert_parses_like_reference(text)
    if path is None:
        issues = parse_realization(text)._issues
        assert tuple(i.tag for i in issues) == (want or ())
        return
    with pytest.raises(DocumentError) as e:
        parse_realization(text)
    assert (e.value.path, str(e.value)) == (path, f"{path}: {want}")


def test_the_mutation_table_covers_every_mutation_on_both_documents():
    assert sorted((k, n) for k, n, _, _ in MUTATION_TABLE) == sorted(
        (k, n) for k in MUTATION_DOCUMENTS for n in MUTATIONS)


# --- the cell budget -------------------------------------------------------------

def test_budget_admits_a_36_regular_tanner_graph_of_n_960():
    r = parity_check_realization(GF2, 960, gallager_checks(random.Random(960), 960))
    text = emit_realization(r)
    back = parse_realization(text)
    frame = sum(v.dim for v in (*back.topology.symbols, *back.topology.states))
    assert frame == 3840
    assert back._issues == ()
    assert not system_cells_exceed_budget(text)


def test_budget_rejects_one_symbol_of_dim_4000():
    doc = {"field": 2, "symbols": [{"id": "a0", "dim": 4000}], "states": [],
           "constraints": [{"id": "c0", "vars": ["a0"], "generators": []}]}
    with pytest.raises(DocumentError) as e:
        parse_realization(json.dumps(doc))
    assert e.value.path == "$.constraints[0].generators"
    assert "needs 16000000 cells" in str(e.value)


@pytest.mark.parametrize("generators", [[[1]], []])
def test_budget_counts_check_rows_not_widths(generators):
    n = 6000  # 6000 width-1 codes on a frame of 6000: one check row each, or none
    doc = {"field": 2, "symbols": [{"id": f"a{k}", "dim": 1} for k in range(n)], "states": [],
           "constraints": [{"id": f"c{k}", "vars": [f"a{k}"], "generators": generators}
                           for k in range(n)]}
    if generators:
        assert len(parse_realization(json.dumps(doc)).topology.constraints) == n
        return
    with pytest.raises(DocumentError) as e:
        parse_realization(json.dumps(doc))
    assert e.value.path == "$.constraints[2500].generators"
    assert "needs 15006000 cells" in str(e.value)


# --- the writer against the parse --------------------------------------------

DEFECTS = ("none", "repeated-var-id", "constraint-takes-var-id", "unknown-var",
           "dim-mismatch", "dangling-state")


def in_natural_order(items) -> tuple:
    return tuple(sorted(items, key=lambda e: natural_key(e.id)))


def document_of(r: Realization) -> str:
    """The document emit_realization writes for r, written here without
    the writer's check: every entry in natural id order."""
    topo = r.topology
    return json.dumps({
        "field": r.field.p,
        "symbols": [{"id": s.id, "dim": s.dim} for s in in_natural_order(topo.symbols)],
        "states": [{"id": s.id, "dim": s.dim, "left": s.left, "right": s.right,
                    "negate_at": s.negate_at} for s in in_natural_order(topo.states)],
        "constraints": [{"id": c.id, "vars": list(c.vars),
                         "generators": r.code(c.id).space.basis.tolist()}
                        for c in in_natural_order(topo.constraints)],
    }, indent=2) + "\n"


def with_defect(r: Realization, kind: str, rng: random.Random) -> Realization:
    """r with one defect of the kind injected, its entries in natural id order."""
    topo, field = r.topology, r.field
    symbols, states, constraints = list(topo.symbols), list(topo.states), list(topo.constraints)
    codes = r.codes
    declared = symbols + states
    if kind == "repeated-var-id":  # declared again, with any dim
        v = rng.choice(declared)
        if isinstance(v, SymbolVar):
            symbols.append(SymbolVar(v.id, rng.randint(0, 2)))
        else:
            states.append(StateVar(v.id, rng.randint(0, 2), v.left, v.right))
    elif kind == "constraint-takes-var-id":  # which the parse records
        c, v = rng.choice(constraints), rng.choice(declared)
        constraints[constraints.index(c)] = Constraint(v.id, c.vars)
        codes[v.id] = codes.pop(c.id)
        states = [StateVar(s.id, s.dim, v.id if s.left == c.id else s.left,
                           v.id if s.right == c.id else s.right, s.negate_at) for s in states]
    elif kind == "unknown-var":  # listed by a constraint, with a code on it
        i = rng.randrange(len(constraints))
        at = rng.randint(0, len(constraints[i].vars))
        listed = constraints[i].vars[:at] + ("z0",) + constraints[i].vars[at:]
        constraints[i] = Constraint(constraints[i].id, listed)
        dims = {v.id: v.dim for v in declared} | {"z0": rng.randint(0, 2)}
        codes[constraints[i].id] = random_blocked_code(
            rng, field, tuple((v, dims[v]) for v in listed))
    elif kind == "dim-mismatch":  # a var declared one dim off its codes' blocks
        i = rng.randrange(len(declared))
        v = declared[i]
        dim = rng.choice([d for d in (v.dim - 1, v.dim + 1) if d >= 0])
        if isinstance(v, SymbolVar):
            symbols[i] = SymbolVar(v.id, dim)
        else:
            states[i - len(symbols)] = StateVar(v.id, dim, v.left, v.right, v.negate_at)
    elif kind == "dangling-state":  # which the parse records
        if states and rng.random() < 0.5:  # an endpoint that is no constraint
            i = rng.randrange(len(states))
            s = states[i]
            states[i] = StateVar(s.id, s.dim, s.left, "c99", s.negate_at)
        else:  # listed by no constraint
            left = rng.choice(constraints).id
            states.append(StateVar("s99", rng.randint(0, 2), left, "c99"))
    return Realization(field, Topology(in_natural_order(symbols), in_natural_order(states),
                                       in_natural_order(constraints)), codes)


def outcome(call):
    """(result, None), or (None, the typed error) when the call refuses."""
    try:
        return call(), None
    except (InvalidRealizationError, DocumentError) as e:
        return None, e


@pytest.mark.parametrize("kind", DEFECTS)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_the_writer_refuses_exactly_what_it_cannot_write_faithfully(p, kind):
    """emit_realization raises exactly when the parse of the same document,
    written without the writer's check, raises or reads a realization
    other than r; where both accept, parse(emit(r)) == r. The parse reads
    another realization only where a var is declared at a dim its codes'
    blocks do not have and every code listing it has no rows: with no row
    to be too long, the document reads as zero codes on the declared dims."""
    rng, field = random.Random(3800 + p), PrimeField(p)
    seen = set()
    for _ in range(60):
        r = with_defect(random_realization(rng, field), kind, rng)
        text = document_of(r)
        emitted, refused = outcome(lambda: emit_realization(r))
        parsed, error = outcome(lambda: parse_realization(text))
        if refused is None:
            assert error is None and emitted == text and parsed == r
        else:
            assert error is not None or parsed != r
        seen.add((refused is None, error is None))
    want = {"none": {(True, True)}, "constraint-takes-var-id": {(True, True)},
            "dangling-state": {(True, True)}, "repeated-var-id": {(False, False)},
            "unknown-var": {(False, False)}, "dim-mismatch": {(False, False), (False, True)}}
    assert seen == want[kind]


@pytest.mark.parametrize("second", DEFECTS[1:])
@pytest.mark.parametrize("first", DEFECTS[1:])
def test_the_writer_refuses_exactly_what_it_cannot_write_faithfully_on_two_defects(
        first, second):
    """The contract of the test above with two defects injected in turn,
    for each ordered pair of the five kinds: 40 draws per field over GF(2),
    GF(3) and GF(5), less the 60 where the second defect cannot be built
    (an unknown var listed twice has no code). A dangling state next to a
    dim mismatch once slipped through: validation stopped at the state's
    unknown endpoint and never compared the codes' blocks."""
    built = 0
    for p in (2, 3, 5):
        rng, field = random.Random(f"{p}:{first}:{second}"), PrimeField(p)
        for _ in range(40):
            try:
                r = with_defect(with_defect(random_realization(rng, field), first, rng),
                                second, rng)
            except ValueError:  # BlockStructure refuses z0 twice
                assert first == second == "unknown-var"
                continue
            text = document_of(r)
            emitted, refused = outcome(lambda: emit_realization(r))
            parsed, error = outcome(lambda: parse_realization(text))
            if refused is None:
                assert error is None and emitted == text and parsed == r
            else:
                assert error is not None or parsed != r
            built += 1
    assert built == (60 if first == second == "unknown-var" else 120)  # 2,940 in all


def test_a_dangling_state_does_not_hide_a_dim_mismatch():
    """c1's state s1 ends at no constraint, and c0's code has b at dim 1
    where b is declared at dim 2: validation reports both, and the writer
    refuses the realization, whose document the parse would refuse."""
    topo = Topology((SymbolVar("a", 1), SymbolVar("b", 2)),
                    (StateVar("s0", 1, "c0", "c1"), StateVar("s1", 1, "c1", "ghost")),
                    (Constraint("c0", ("b", "s0")), Constraint("c1", ("a", "s0", "s1"))))
    c0 = BlockedCode.from_rows(GF2, BlockStructure((("b", 1), ("s0", 1))), [[1, 1]])
    c1 = BlockedCode.from_rows(GF2, BlockStructure((("a", 1), ("s0", 1), ("s1", 1))),
                               [[1, 1, 1]])
    r = Realization(GF2, topo, {"c0": c0, "c1": c1})
    assert [(i.tag, i.message) for i in validate(r)] == [
        ("unknown-id", "state 's1' endpoint 'ghost' is not a constraint"),
        ("dim-mismatch", "constraint 'c0' code blocks (('b', 1), ('s0', 1)) do not match "
                         "declared (('b', 2), ('s0', 1))")]
    with pytest.raises(InvalidRealizationError):
        emit_realization(r)
    with pytest.raises(DocumentError,
                       match=r"^\$\.constraints\[0\]\.generators\[0\]: row length 2 != "
                             r"total var dim 3$"):
        parse_realization(document_of(r))
