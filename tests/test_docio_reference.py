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
    BlockedCode,
    BlockStructure,
    Constraint,
    DocumentError,
    PrimeField,
    Realization,
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
