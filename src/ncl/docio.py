"""Realization documents: JSON parse/emit and DOT export.

The on-disk format is one JSON object: field order, symbol and state
declarations, and one generator-row list per constraint. Emission is
canonical: ids in natural order (digit runs compared numerically),
generators in reduced echelon form, explicit negate_at, indented as
json.dumps(doc, indent=2) would. Parsing nudges any document into the
same order, so parse(emit(parse(text))) equals parse(text).

The parse checks each entry once, inline, and reads again only one that
fails, for its error; emission refuses what the parse refuses (the cell
budget, most findings), so every written document parses. _dumps writes JSON.
"""

from __future__ import annotations

import json
import re
from itertools import chain, islice
from typing import Any

import numpy as np

from .blockcode import BlockedCode, BlockStructure, _trusted
from .errors import DocumentError, InvalidRealizationError
from .fields import MatrixF, PrimeField, Subspace, _held
from .realization import LEFT, RIGHT, Constraint, Realization, StateVar, SymbolVar, Topology

_DIGIT_RUNS = re.compile(r"(\d+)").split

# Cells of the behavior's system: each local code's check rows (width less dim)
# times the frame's total dim; a (3,6)-regular Tanner graph of n = 960 has 12.9M.
MAX_SYSTEM_CELLS = 15_000_000


def natural_key(text: str) -> tuple:
    """Sort key treating digit runs as numbers: a2 before a10."""
    return tuple((0, int(c)) if c.isdecimal() else (1, c) for c in _DIGIT_RUNS(text) if c)


def _id_order(item: Any) -> list:
    """natural_key(item.id)'s order, cheaper: text, number, text...; "" first."""
    parts = _DIGIT_RUNS(item.id)
    parts[1::2] = map(int, parts[1::2])
    return parts


def _require(obj: Any, key: str, kind: type, path: str) -> Any:
    """obj[key], of the type `kind` exactly, as json.loads gives it: a bool is no int."""
    value = obj.get(key) if type(obj) is dict else None
    if type(value) is kind:
        return value
    if type(obj) is not dict:
        raise DocumentError(path, "expected an object")
    if key not in obj:
        raise DocumentError(f"{path}.{key}", "missing required field")
    raise DocumentError(f"{path}.{key}", "expected an integer" if kind is int
                        and type(value) is bool else f"expected {kind.__name__}")


def _int_rows(raw: list, path: str, p: int) -> list[list[int]]:
    """Integer rows reduced mod p, so any JSON integer becomes a residue."""
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list):
            raise DocumentError(f"{path}[{i}]", "expected a list of integers")
        for j, x in enumerate(row):
            if isinstance(x, bool) or not isinstance(x, int):
                raise DocumentError(f"{path}[{i}][{j}]", "expected an integer")
        rows.append([x % p for x in row])
    return rows


def _matrix(field: PrimeField, rows: list[list[int]], width: int, path: str) -> MatrixF:
    try:
        return _held(field, np.array(rows, dtype=np.int64).reshape(len(rows), width))
    except (ValueError, OverflowError, MemoryError) as e:
        raise DocumentError(path, f"cannot hold a {len(rows)} x {width} matrix: {e}") from None


def _check_cells(cells: int, i: int) -> None:
    """Refuse a system over the budget at constraint i's generators, the i-th in order."""
    if cells > MAX_SYSTEM_CELLS:
        raise DocumentError(f"$.constraints[{i}].generators", f"the behavior's system needs "
                            f"{cells} cells, over the budget of {MAX_SYSTEM_CELLS}")


def _document_head(text: str) -> tuple[dict, PrimeField]:
    """The JSON object a document holds and the prime field it names."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # also too deep, or an int too long to read
        raise DocumentError("$", f"not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise DocumentError("$", "expected a JSON object")
    p = _require(doc, "field", int, "$")
    try:
        return doc, PrimeField(p)
    except ValueError as e:
        raise DocumentError("$.field", str(e)) from None


def parse_realization(text: str) -> Realization:
    """Read and validate a realization document.

    Raises DocumentError with a JSON-path location for malformed input,
    at a second declaration of an id, a var listed undeclared or twice,
    and where the behavior's system would exceed the cell budget.

    Each entry is checked once, inline, against the exact types json.loads
    gives, and no path is built for one that passes; one that fails is read
    again field by field for its first error. Equal residue rows share one
    subspace, eliminated once. `blockcode._trusted` builds the checked vars,
    blocks and constraints, and the realization with the findings left:
    the graph's and any id that a var and a constraint share.
    """
    doc, field = _document_head(text)
    dim_of: dict[str, int] = {}  # symbols and states share one namespace
    symbols, states = [], []
    for name, declared in (("symbols", symbols), ("states", states)):
        state = declared is states
        for i, e in enumerate(_require(doc, name, list, "$")):
            if (type(e) is dict and type(sid := e.get("id")) is str
                    and type(dim := e.get("dim")) is int and dim >= 0 and sid not in dim_of
                    and (not state or type(e.get("left")) is str and type(e.get("right")) is str
                         and e.get("negate_at", RIGHT) in (LEFT, RIGHT))):
                var = (_trusted(StateVar, id=sid, dim=dim, left=e["left"], right=e["right"],
                                negate_at=e.get("negate_at", RIGHT)) if state
                       else _trusted(SymbolVar, id=sid, dim=dim))
            else:  # read field by field, for the error of the first check it fails
                path = f"$.{name}[{i}]"
                sid, dim = _require(e, "id", str, path), _require(e, "dim", int, path)
                ends = (_require(e, "left", str, path), _require(e, "right", str, path),
                        e.get("negate_at", RIGHT)) if state else ()
                if state and not isinstance(ends[2], str):
                    raise DocumentError(f"{path}.negate_at", "expected a string")
                try:
                    var = StateVar(sid, dim, *ends) if state else SymbolVar(sid, dim)
                except ValueError as exc:
                    raise DocumentError(path, str(exc)) from None
                if sid in dim_of:
                    raise DocumentError(path, f"id {sid!r} declared twice")
            declared.append(var)
            dim_of[sid] = dim

    constraints = []
    codes: dict[str, BlockedCode] = {}
    frame, checks, p = sum(dim_of.values()), 0, field.p
    # (width, rows), raw or residue, -> the one space their residues span
    spaces: dict[tuple, Subspace] = {}
    for i, e in enumerate(_require(doc, "constraints", list, "$")):
        try:
            listed = (dict(zip(vars_, map(dim_of.__getitem__, vars_)))
                      if type(e) is dict and type(cid := e.get("id")) is str
                      and type(vars_ := e.get("vars")) is list else None)
        except (KeyError, TypeError):  # an undeclared or non-str var
            listed = None
        if (listed is None or len(listed) != len(vars_)
                or type(raw := e.get("generators")) is not list):
            path = f"$.constraints[{i}]"  # read field by field, for the error
            cid, listed = _require(e, "id", str, path), {}
            for j, v in enumerate(_require(e, "vars", list, path)):
                if not isinstance(v, str):
                    raise DocumentError(f"{path}.vars[{j}]", "expected a variable id")
                if v not in dim_of:
                    raise DocumentError(f"{path}.vars[{j}]", f"undeclared variable {v!r}")
                if v in listed:
                    raise DocumentError(f"{path}.vars[{j}]", f"variable {v!r} listed twice")
                listed[v] = dim_of[v]
            raw = _require(e, "generators", list, path)
        width = sum(listed.values())
        if not ({*map(type, raw)} <= {list} and {*map(type, chain.from_iterable(raw))} <= {int}):
            _int_rows(raw, f"$.constraints[{i}].generators", p)  # raises
        raw_key = (width, tuple(map(tuple, raw)))  # exact: every entry is an int
        if (space := spaces.get(raw_key)) is None:
            for j, row in enumerate(raw):
                if len(row) != width:
                    raise DocumentError(f"$.constraints[{i}].generators[{j}]",
                                        f"row length {len(row)} != total var dim {width}")
            rows = [[x % p for x in row] for row in raw]
            key = (width, tuple(map(tuple, rows)))
            if key not in spaces:
                matrix = _matrix(field, rows, width, f"$.constraints[{i}].generators")
                spaces[key] = Subspace.spanned_by(field, width, matrix)
            space = spaces[raw_key] = spaces[key]
        checks += width - space.dim
        _check_cells(checks * frame, i)
        if cid in codes:
            raise DocumentError(f"$.constraints[{i}]", f"constraint id {cid!r} declared twice")
        constraints.append(_trusted(Constraint, id=cid, vars=tuple(listed)))
        structure = _trusted(BlockStructure, blocks=tuple(listed.items()), total=width)
        codes[cid] = BlockedCode(structure, space)

    symbols.sort(key=_id_order)
    states.sort(key=_id_order)
    constraints.sort(key=_id_order)
    topo = Topology(tuple(symbols), tuple(states), tuple(constraints))
    return _trusted(Realization, field=field, topology=topo, _codes=codes,
                    _issues=tuple(topo._duplicate_ids() + topo._graph_issues()))


def emit_realization(r: Realization) -> str:
    """Canonical document text for a realization.

    Raises the DocumentError that the parse of the text would raise where
    the behavior's system exceeds the cell budget, and InvalidRealizationError
    for a finding the parse refuses: all but the graph's and an id that one
    var and one constraint share.
    """
    topo = r.topology
    recorded = (topo._duplicate_ids() + topo._graph_issues()
                if r._issues and not topo._repeats_an_id() else [])
    if refused := [i for i in r._issues if i not in recorded]:
        raise InvalidRealizationError(refused)
    frame, checks = topo.total_symbol_dim() + topo.total_state_dim(), 0
    constraints = []
    for i, c in enumerate(sorted(topo.constraints, key=_id_order)):
        code = r.code(c.id)
        checks += code.structure.total - code.dim
        _check_cells(checks * frame, i)
        constraints.append({"id": c.id, "vars": list(c.vars),
                            "generators": code.space.basis.tolist()})
    return _dumps({
        "field": r.field.p,
        "symbols": [{"id": s.id, "dim": s.dim} for s in sorted(topo.symbols, key=_id_order)],
        "states": [{"id": s.id, "dim": s.dim, "left": s.left, "right": s.right,
                    "negate_at": s.negate_at} for s in sorted(topo.states, key=_id_order)],
        "constraints": constraints,
    }) + "\n"


_encode = json.encoder.encode_basestring_ascii
# how json.dumps writes the scalars that documents and results hold
_SCALARS = {str: _encode, int: int.__repr__, bool: {True: "true", False: "false"}.__getitem__,
            type(None): {None: "null"}.__getitem__, float: json.dumps}
# "[", plain scalars' texts a line each (no ensure_ascii text has a newline), "]"
_scalar_lines = json.JSONEncoder(separators=("\n", ": ")).encode


def _dumps(obj: Any) -> str:
    """json.dumps(obj, indent=2); on a value it rejects, json.dumps raises its own TypeError."""
    try:
        return _write(obj, "\n")
    except TypeError:
        return json.dumps(obj, indent=2)


def _write(obj: Any, nl: str) -> str:
    """One str.join per container; a list of over 8 items as a `_texts` column."""
    inner = nl + "  "
    if isinstance(obj, (list, tuple)):
        parts = (_texts(obj, inner) if len(obj) > 8 else
                 [f(v) if (f := _SCALARS.get(type(v))) else _write(v, inner) for v in obj])
        return f"[{inner}{f',{inner}'.join(parts)}{nl}]" if parts else "[]"
    if isinstance(obj, dict):
        parts = [(_encode(k) if type(k) is str else json.dumps({k: 0})[1:-4]) + ": "
                 + (f(v) if (f := _SCALARS.get(type(v))) else _write(v, inner))
                 for k, v in obj.items()]
        return f"{{{inner}{f',{inner}'.join(parts)}{nl}}}" if parts else "{}"
    f = _SCALARS.get(type(obj))
    return f(obj) if f else json.dumps(obj)


def _texts(values: list, nl: str) -> list[str]:
    """Each value's text at the indent `nl`: plain scalars in one encoder call; lists'
    items, and each key's values in dicts of the same keys, a column a level in."""
    types = set(map(type, values))
    if types <= _SCALARS.keys():
        return _scalar_lines(values)[1:-1].split("\n") if values else []
    inner = nl + "  "
    if types <= {list, tuple}:
        items = iter(_texts([x for v in values for x in v], inner))
        return [f"[{inner}{f',{inner}'.join(islice(items, len(v)))}{nl}]" if v else "[]"
                for v in values]
    keys = values[0]
    if types == {dict} and keys and len({*map(tuple, values)}) == 1 and {*map(type, keys)} <= {str}:
        row = "{" + ",".join(f"{inner}{_encode(k).replace('%', '%%')}: %s" for k in keys) + nl + "}"
        return list(map(row.__mod__, zip(*[_texts([v[k] for v in values], inner) for k in keys])))
    return [f(v) if (f := _SCALARS.get(type(v))) else _write(v, nl) for v in values]


def parse_code_document(text: str) -> BlockedCode:
    """Read an expected-code document: field, generators, optional width."""
    doc, field = _document_head(text)
    rows = _int_rows(_require(doc, "generators", list, "$"), "$.generators", field.p)
    width = doc.get("width")
    if width is None:
        if not rows:
            raise DocumentError("$.width", "required when generators is empty")
        width = len(rows[0])
    if isinstance(width, bool) or not isinstance(width, int) or width < 0:
        raise DocumentError("$.width", "expected a nonnegative integer")
    for j, row in enumerate(rows):
        if len(row) != width:
            raise DocumentError(f"$.generators[{j}]",
                                f"row length {len(row)} != width {width}")
    structure = BlockStructure((("word", width),))
    matrix = _matrix(field, rows, width, "$.generators")
    return BlockedCode.from_rows(field, structure, matrix)


def _quote(*lines: str) -> str:
    """A DOT string of the lines, backslashes and double quotes escaped,
    joined by DOT's \\n line break."""
    return '"' + "\\n".join(s.replace("\\", "\\\\").replace('"', '\\"') for s in lines) + '"'


def export_dot(r: Realization) -> str:
    """DOT text: constraint boxes, state edges, symbol stubs."""
    r.ensure_valid()
    topo = r.topology
    lines = ["graph realization {", "  node [shape=box];"]
    for c in topo.constraints:
        label = _quote(c.id, f"dim {r.code(c.id).dim}")
        lines.append(f"  {_quote(c.id)} [label={label}];")
    for s in topo.states:
        lines.append(f"  {_quote(s.left)} -- {_quote(s.right)} "
                     f"[label={_quote(f'{s.id}:{s.dim}')}];")
    owner = {v: c.id for c in topo.constraints for v in c.vars}
    for sym in topo.symbols:
        stub = f"sym:{sym.id}"
        lines.append(f"  {_quote(stub)} [shape=none, label={_quote(f'{sym.id}:{sym.dim}')}];")
        lines.append(f"  {_quote(owner[sym.id])} -- {_quote(stub)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
