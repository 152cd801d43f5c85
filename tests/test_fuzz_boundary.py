"""Fuzz of the input boundary: any JSON ends in a result or a typed error.

Declared dims are mostly in [0, 2], sometimes 40, or wide enough (4000
and up) that the parse's cell budget rejects them; a replaced value is
in [-3, 12]. Generator rows are drawn for constraints at most 64 wide.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ncl import (DocumentError, InvalidRealizationError, Realization, parse_code_document,
                 parse_realization)
from ncl.cli import main
from fixtures import DECLARED_TWICE, example1_document

SYMBOLS = ("a0", "a1", "a2")
STATES = ("s0", "s1", "s2")
CONSTRAINTS = ("c0", "c1", "c2")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=12,
)
dims = st.integers(0, 2) | st.sampled_from([40, 4000, 10 ** 12])


@st.composite
def near_documents(draw):
    """Realization documents that are often valid, sometimes one value off."""
    n_constraints = draw(st.integers(1, 3))
    cids = CONSTRAINTS[:n_constraints]
    members = {cid: [] for cid in cids}
    symbols = []
    for sid in SYMBOLS[:draw(st.integers(0, 3))]:
        symbols.append({"id": sid, "dim": draw(dims)})
        members[draw(st.sampled_from(cids))].append(sid)
    states = []
    for sid in STATES[:draw(st.integers(0, 3))] if n_constraints > 1 else ():
        left, right = draw(st.permutations(cids))[:2]
        states.append({"id": sid, "dim": draw(dims), "left": left, "right": right,
                       "negate_at": draw(st.sampled_from(["left", "right"]))})
        members[left].append(sid)
        members[right].append(sid)
    dim_of = {v["id"]: v["dim"] for v in symbols + states}
    constraints = []
    for cid in cids:
        vars_ = draw(st.permutations(members[cid]))
        width = sum(dim_of[v] for v in vars_)
        row = st.lists(st.integers(-3, 12), min_size=width, max_size=width)
        constraints.append({"id": cid, "vars": vars_,
                            "generators": draw(st.lists(row, max_size=3)) if width <= 64 else []})
    doc = {"field": draw(st.sampled_from([2, 3, 5])), "symbols": symbols,
           "states": states, "constraints": constraints}
    if draw(st.integers(0, 3)) == 0:
        # one value anywhere in the document replaced by arbitrary JSON
        holders = [doc] + [e for key in ("symbols", "states", "constraints")
                           for e in doc[key]]
        holder = draw(st.sampled_from(holders))
        holder[draw(st.sampled_from(sorted(holder)))] = draw(json_values)
    return doc


documents = st.one_of(near_documents().map(json.dumps), near_documents().map(json.dumps),
                      json_values.map(json.dumps), st.text(max_size=12))


@settings(max_examples=300, deadline=None)
@given(documents)
@example(DECLARED_TWICE)
def test_parse_realization_ends_in_realization_or_typed_error(text):
    try:
        r = parse_realization(text)
    except DocumentError:
        return
    assert isinstance(r, Realization)
    try:
        r.ensure_valid()
    except InvalidRealizationError:
        return


COMMANDS = ("analyze", "behavior", "components", "verify", "dual", "reduce",
            "minimize", "export-dot")


def argv_for(command: str, doc: str, out: str) -> list[str]:
    if command in ("dual", "reduce", "minimize"):
        return [command, doc, out]
    if command in ("components", "verify"):
        # a small enumeration budget keeps brute force to milliseconds
        return [command, doc, "--budget", "4096"]
    return [command, doc]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=documents, command=st.sampled_from(COMMANDS), as_json=st.booleans())
@example(text=DECLARED_TWICE, command="analyze", as_json=True)
@example(text=DECLARED_TWICE, command="analyze", as_json=False)
def test_cli_exit_codes_and_output_format(tmp_path, text, command, as_json):
    doc = tmp_path / "doc.json"
    doc.write_text(text, encoding="utf-8")
    argv = argv_for(command, str(doc), str(tmp_path / "out"))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv + ["--json"] if as_json else argv)
    out, err = out.getvalue(), err.getvalue()

    assert code in (0, 1, 2)
    assert code != 1 or command == "verify"
    assert (code == 2) == bool(err)
    if as_json:
        decoder, at = json.JSONDecoder(), 0
        while out[at:].strip():
            at += len(out[at:]) - len(out[at:].lstrip())
            value, at = decoder.raw_decode(out, at)
            assert isinstance(value, dict)
        if err:
            assert err.endswith("\n") and err.count("\n") == 1
            payload = json.loads(err)
            assert set(payload) == {"error"}
            assert set(payload["error"]) == {"type", "message"}
    elif err:
        assert err.startswith("error:")


# json.loads raises RecursionError on the first and ValueError (Python's
# 4,300-digit limit on reading an int) on the second
UNREADABLE = {
    "deep": "[" * 100_000 + "]" * 100_000,
    "long-int": '{"field": 2, "symbols": [{"id": "a0", "dim": 1%s}]}' % ("0" * 5000),
}


@pytest.mark.parametrize("name", sorted(UNREADABLE))
def test_unreadable_json_is_a_document_error(tmp_path, name):
    text = UNREADABLE[name]
    for parse in (parse_realization, parse_code_document):
        with pytest.raises(DocumentError) as e:
            parse(text)
        assert e.value.path == "$"
    doc, ex1 = tmp_path / "doc.json", tmp_path / "ex1.json"
    doc.write_text(text, encoding="utf-8")
    ex1.write_text(example1_document(), encoding="utf-8")
    for argv in (["analyze", str(doc)], ["verify", str(ex1), "--expect", str(doc)]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*argv, "--json"])
        assert (code, out.getvalue()) == (2, "")
        assert json.loads(err.getvalue())["error"]["type"] == "document"
