"""Normal-graph realizations of linear codes.

A realization wires constraint codes together on a graph: constraints
are vertices, state variables are edges (each joining exactly two
constraints), symbol variables are half-edges (each at exactly one
constraint). The behavior is the set of global assignments satisfying
every constraint; the realized code is its projection onto the symbols.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .blockcode import BlockedCode, BlockStructure, _trusted
from .errors import InvalidRealizationError, UnknownBlockError
from .fields import PrimeField, Subspace, _held, _vanishing, _work_dtype, kernel, ranks

LEFT = "left"
RIGHT = "right"


def _component_labels(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """Union-find over nodes 0..n-1: each node's component number, with
    components numbered in the order of their first node, so the labels
    do not depend on the direction of any union."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(b)] = find(a)
    numbers: dict[int, int] = {}
    return [numbers.setdefault(find(x), len(numbers)) for x in range(n)]


@dataclass(frozen=True)
class SymbolVar:
    """A symbol (external) variable; attaches to exactly one constraint."""

    id: str
    dim: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", operator.index(self.dim))
        if self.dim < 0:
            raise ValueError(f"symbol {self.id!r} has negative dim")


@dataclass(frozen=True)
class StateVar:
    """A state (internal) variable joining its left and right constraints.

    negate_at names the endpoint whose dual constraint code absorbs the
    sign inversion when the realization is dualized.
    """

    id: str
    dim: int
    left: str
    right: str
    negate_at: str = RIGHT

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", operator.index(self.dim))
        if self.dim < 0:
            raise ValueError(f"state {self.id!r} has negative dim")
        if self.negate_at not in (LEFT, RIGHT):
            raise ValueError(f"state {self.id!r}: negate_at must be 'left' or 'right'")

    @property
    def negate_constraint(self) -> str:
        return self.left if self.negate_at == LEFT else self.right


@dataclass(frozen=True)
class Constraint:
    """A constraint vertex with its ordered variable list."""

    id: str
    vars: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vars", tuple(str(v) for v in self.vars))


@dataclass(frozen=True)
class ValidationIssue:
    """One structured validation finding."""

    tag: str
    message: str
    ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class Topology:
    """The graph layer of a realization: who connects to whom."""

    symbols: tuple[SymbolVar, ...]
    states: tuple[StateVar, ...]
    constraints: tuple[Constraint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple(self.symbols))
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "constraints", tuple(self.constraints))

    @cached_property
    def _symbols_by_id(self) -> dict[str, SymbolVar]:
        return {s.id: s for s in self.symbols}

    @cached_property
    def _state_index(self) -> dict[str, int]:
        return {s.id: i for i, s in enumerate(self.states)}

    @cached_property
    def _constraints_by_id(self) -> dict[str, Constraint]:
        return {c.id: c for c in self.constraints}

    def symbol_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.symbols)

    def state_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.states)

    def constraint_ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.constraints)

    def is_symbol(self, var_id: str) -> bool:
        return var_id in self._symbols_by_id

    def is_state(self, var_id: str) -> bool:
        return var_id in self._state_index

    def symbol(self, var_id: str) -> SymbolVar:
        try:
            return self._symbols_by_id[var_id]
        except KeyError:
            raise UnknownBlockError(f"unknown symbol {var_id!r}") from None

    def state(self, var_id: str) -> StateVar:
        try:
            return self.states[self._state_index[var_id]]
        except KeyError:
            raise UnknownBlockError(f"unknown state {var_id!r}") from None

    def constraint(self, cid: str) -> Constraint:
        try:
            return self._constraints_by_id[cid]
        except KeyError:
            raise UnknownBlockError(f"unknown constraint {cid!r}") from None

    def var_dim(self, var_id: str) -> int:
        if var_id in self._symbols_by_id:
            return self._symbols_by_id[var_id].dim
        return self.state(var_id).dim

    def total_symbol_dim(self) -> int:
        return sum(s.dim for s in self.symbols)

    def total_state_dim(self) -> int:
        return sum(s.dim for s in self.states)

    def incidences(self) -> list[tuple[str, str]]:
        """(constraint, state) pairs: constraints in topology order, each
        constraint's states in the order of its vars."""
        return [(c.id, v) for c in self.constraints for v in c.vars if self.is_state(v)]

    def _components(self, cut: str | None = None) -> list[set[str]]:
        """Connected components of the constraint graph, without the state
        cut if one is given, in the order of their first constraint."""
        ids = list(dict.fromkeys(self.constraint_ids()))
        index = {cid: i for i, cid in enumerate(ids)}
        labels = _component_labels(len(ids), (
            (index[s.left], index[s.right]) for s in self.states
            if s.id != cut and s.left in index and s.right in index))
        comps: list[set[str]] = [set() for _ in range(max(labels, default=-1) + 1)]
        for cid, label in zip(ids, labels):
            comps[label].add(cid)
        return comps

    @cached_property
    def _frame_columns(self) -> tuple[BlockStructure, np.ndarray]:
        """The behavior's frame, symbols then states, unchecked as its readers validate
        first, and a row per constraint of its vars' columns, padded with frame.total."""
        blocks = tuple((v.id, v.dim) for v in (*self.symbols, *self.states))
        frame = _trusted(BlockStructure, blocks=blocks, total=sum(d for _, d in blocks))
        where = {v: range(at, at + d) for v, (at, d) in frame._offsets.items()}
        cols = [[j for v in c.vars for j in where[v]] for c in self.constraints]
        width = max(map(len, cols), default=0)
        return frame, np.array([c + [frame.total] * (width - len(c)) for c in cols],
                               dtype=np.intp).reshape(len(cols), width)

    @cached_property
    def _uncut_components(self) -> list[set[str]]:
        """_components() computed once, for validation and is_connected."""
        return self._components()

    def is_connected(self) -> bool:
        return len(self._uncut_components) <= 1

    def is_cycle_free(self) -> bool:
        """Connected and acyclic; multi-edges count as cycles."""
        return self.is_connected() and len(self.states) == max(len(self.constraints), 1) - 1

    def issues(self) -> list[ValidationIssue]:
        """Structural findings; empty means the topology is sound."""
        found = self._duplicate_ids()
        known_vars = {s.id for s in self.symbols} | {s.id for s in self.states}
        for c in self.constraints:
            local: set[str] = set()
            for v in c.vars:
                if v not in known_vars:
                    found.append(ValidationIssue(
                        "unknown-id", f"constraint {c.id!r} lists undeclared variable {v!r}",
                        (c.id, v)))
                elif v in local:
                    found.append(ValidationIssue(
                        "normality", f"constraint {c.id!r} lists variable {v!r} twice",
                        (c.id, v)))
                local.add(v)
        return found + self._graph_issues()

    def _repeats_an_id(self) -> bool:
        """Two vars, or two constraints, share an id, which the parse refuses."""
        return (len({v.id for v in (*self.symbols, *self.states)}) < len(self.symbols)
                + len(self.states) or len(self._constraints_by_id) < len(self.constraints))

    def _duplicate_ids(self) -> list[ValidationIssue]:
        """Each id declared again, across symbols, states and constraints."""
        found: list[ValidationIssue] = []
        seen_ids: set[str] = set()
        for group in (self.symbols, self.states, self.constraints):
            for item in group:
                if item.id in seen_ids:
                    found.append(ValidationIssue(
                        "duplicate-id", f"id {item.id!r} declared more than once", (item.id,)))
                seen_ids.add(item.id)
        return found

    def _graph_issues(self) -> list[ValidationIssue]:
        """Symbol and state use, endpoints, self-loops, connectivity: no id findings.
        Use lists are built only if a count fails: a symbol listed once passes,
        and a state listed twice, by its two distinct endpoints."""
        found: list[ValidationIssue] = []
        counts = Counter(chain.from_iterable([c.vars for c in self.constraints]))
        cids = self._constraints_by_id
        symbols = [s for s in self.symbols if counts[s.id] != 1]
        states = [s for s in self.states if not (counts[s.id] == 2 and s.left != s.right
                  and s.id in getattr(cids.get(s.left), "vars", ())
                  and s.id in getattr(cids.get(s.right), "vars", ()))]
        uses: dict[str, list[str]] = {}
        for c in self.constraints if symbols or states else ():
            for v in c.vars:
                uses.setdefault(v, []).append(c.id)

        for s in symbols:
            used = uses.get(s.id, [])
            found.append(ValidationIssue(
                "normality",
                f"symbol {s.id!r} must be involved in exactly one constraint, "
                f"found {len(used)}", (s.id, *used)))
        for s in states:
            if s.left == s.right:
                found.append(ValidationIssue(
                    "self-loop", f"state {s.id!r} has both endpoints at {s.left!r}",
                    (s.id, s.left)))
                continue
            missing = [end for end in (s.left, s.right) if end not in cids]
            found += [ValidationIssue("unknown-id", f"state {s.id!r} endpoint {end!r} is not "
                                      "a constraint", (s.id, end)) for end in missing]
            used = uses.get(s.id, [])
            if not missing and used not in ([s.left, s.right], [s.right, s.left]):
                found.append(ValidationIssue(
                    "normality",
                    f"state {s.id!r} must be involved in exactly its two endpoints "
                    f"{s.left!r} and {s.right!r}, found {used!r}", (s.id, *used)))

        comps = self._uncut_components
        if len(comps) > 1:
            smaller = min(comps, key=len)
            found.append(ValidationIssue(
                "disconnected",
                f"constraint graph has {len(comps)} components; "
                f"one contains {sorted(smaller)!r}", tuple(sorted(smaller))))
        return found


class Realization:
    """Constraint codes wired together over a shared topology."""

    def __init__(self, field: PrimeField, topology: Topology,
                 codes: Mapping[str, BlockedCode]) -> None:
        self.field = field
        self.topology = topology
        self._codes = dict(codes)

    def code(self, cid: str) -> BlockedCode:
        try:
            return self._codes[cid]
        except KeyError:
            raise UnknownBlockError(f"no constraint code for {cid!r}") from None

    @property
    def codes(self) -> dict[str, BlockedCode]:
        return dict(self._codes)

    def total_constraint_dim(self) -> int:
        return sum(c.dim for c in self._codes.values())

    @cached_property
    def _issues(self) -> tuple[ValidationIssue, ...]:
        topo = self.topology
        found = topo.issues() + [
            ValidationIssue("missing-code", f"constraint {c.id!r} has no code", (c.id,))
            for c in topo.constraints if c.id not in self._codes] + [
            ValidationIssue("unknown-id", f"code given for undeclared constraint {cid!r}", (cid,))
            for cid in self._codes if cid not in topo._constraints_by_id]
        if topo._repeats_an_id():
            return tuple(found)
        dims = {v.id: v.dim for v in (*topo.symbols, *topo.states)}
        for c in topo.constraints:
            code = self._codes.get(c.id)
            if code is None or not all(v in dims for v in c.vars):
                continue  # reported above as missing-code or unknown-id
            expected = tuple((v, dims[v]) for v in c.vars)
            if code.field != self.field:
                found.append(ValidationIssue(
                    "field-mismatch",
                    f"constraint {c.id!r} code is over {code.field!r}, "
                    f"realization over {self.field!r}", (c.id,)))
            elif code.structure.blocks != expected:
                found.append(ValidationIssue(
                    "dim-mismatch",
                    f"constraint {c.id!r} code blocks {code.structure.blocks!r} "
                    f"do not match declared {expected!r}", (c.id,)))
        return tuple(found)

    def ensure_valid(self) -> None:
        if self._issues:
            raise InvalidRealizationError(self._issues)

    def _incident_dim(self, constraint_id: str, state_id: str) -> int:
        """The dim of a state of this valid realization that the constraint lists."""
        self.ensure_valid()
        state = self.topology.state(state_id)
        if state_id not in self.topology.constraint(constraint_id).vars:
            raise UnknownBlockError(
                f"state {state_id!r} is not involved in constraint {constraint_id!r}")
        return state.dim

    def _with_state(self, state_id: str, new_dim: int,
                    spaces: tuple[Subspace, Subspace]) -> "Realization":
        """The child of a reduction step: this valid realization with one
        state's dim set to new_dim and the codes at its (left, right) ends on
        the given spaces, their blocks the parent's with that dim replaced.

        Valid by construction, as ids, vars and endpoints stay the parent's.
        A space of the wrong width raises DimensionMismatchError."""
        self.ensure_valid()
        topo = self.topology
        old = topo.state(state_id)
        codes = dict(self._codes)
        for cid, space in zip((old.left, old.right), spaces, strict=True):
            blocks = tuple((b, new_dim if b == state_id else n)
                           for b, n in codes[cid].structure.blocks)
            codes[cid] = BlockedCode(_trusted(BlockStructure, blocks=blocks), space)
        states = list(topo.states)
        states[topo._state_index[state_id]] = StateVar(
            state_id, new_dim, old.left, old.right, old.negate_at)
        child_topo = _trusted(
            Topology, symbols=topo.symbols, states=tuple(states), constraints=topo.constraints,
            _symbols_by_id=topo._symbols_by_id, _state_index=topo._state_index,
            _constraints_by_id=topo._constraints_by_id, _uncut_components=topo._uncut_components)
        return _trusted(Realization, field=self.field, topology=child_topo, _codes=codes,
                        _issues=())

    def _check_system(self, checks_of) -> np.ndarray:
        """Each constraint c's checks_of(c, its subspace) at its vars' frame columns,
        in topology order; the rows of one array in one assignment. Not kept."""
        self.ensure_valid()
        frame, cols = self.topology._frame_columns
        checks = [checks_of(c, self._codes[c.id].space) for c in self.topology.constraints]
        starts = np.cumsum([0] + [h.shape[0] for h in checks])
        system = np.zeros((int(starts[-1]), frame.total), dtype=_work_dtype(self.field.p))
        sharing: dict[int, list[int]] = {}
        for i, h in enumerate(checks):
            sharing.setdefault(id(h), []).append(i)
        for at in sharing.values():
            h = checks[at[0]]
            if len(at) == 1:  # a row slice costs less than a broadcast index
                system[starts[at[0]]:starts[at[0]] + len(h), cols[at[0], :h.shape[1]]] = h
            else:
                rows = starts[at, None] + np.arange(h.shape[0])
                system[rows[:, :, None], cols[at, None, :h.shape[1]]] = h
        return system

    @cached_property
    def _behavior_code(self) -> BlockedCode:
        # canonical check matrices: on Tanner graphs their distinct leads eliminate faster
        system = self._check_system(lambda c, space: space.orthogonal().basis.array)
        return BlockedCode(self.topology._frame_columns[0], kernel(_held(self.field, system)))

    @cached_property
    def _unobservable_code(self) -> BlockedCode:
        """U, the s with (0, s) in the behavior: the state kernel of the check rows."""
        return self._state_kernel(lambda c, space: space._check_rows())

    def _state_kernel(self, checks_of) -> BlockedCode:
        """The kernel of the state columns, after the symbols', of _check_system(checks_of)."""
        states = self._check_system(checks_of)[:, self.topology.total_symbol_dim():]
        return BlockedCode(BlockStructure(tuple((s.id, s.dim) for s in self.topology.states)),
                           kernel(_held(self.field, states)))

    def _signed(self, c: Constraint, rows: np.ndarray) -> np.ndarray:
        """rows on c's vars, each state block negated where c is the state's negate_at
        end: the dual's sign rule. rows itself over GF(2) or where no block flips."""
        p, topo, at, out = self.field.p, self.topology, 0, rows
        for v in c.vars:
            d = topo.var_dim(v)
            if p > 2 and d and topo.is_state(v) and topo.state(v).negate_constraint == c.id:
                out = out.copy() if out is rows else out
                out[:, at:at + d] = (p - out[:, at:at + d]) % p
            at += d
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Realization):
            return NotImplemented
        return (self.field == other.field and self.topology == other.topology
                and self._codes == other._codes)

    def __repr__(self) -> str:
        t = self.topology
        return (f"<realization over {self.field!r}: {len(t.constraints)} constraints, "
                f"{len(t.states)} states, {len(t.symbols)} symbols>")


class TrimVerdict(NamedTuple):
    """Does one constraint project onto one of its state spaces surjectively?"""

    ok: bool
    constraint_id: str
    state_id: str
    missing: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


class ProperVerdict(NamedTuple):
    """Does a constraint avoid nonzero codewords supported on one state?"""

    ok: bool
    constraint_id: str
    state_id: str | None = None
    codeword: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate(r: Realization) -> list[ValidationIssue]:
    """All structural findings; an empty list means r is a valid realization."""
    return list(r._issues)


def behavior(r: Realization) -> BlockedCode:
    """The full solution set, as a code on symbols+states: the kernel of the
    stacked parity systems of all constraint codes."""
    return r._behavior_code


def realized_code(r: Realization) -> BlockedCode:
    """Projection of the behavior onto the symbol variables."""
    return r._behavior_code.project(list(r.topology.symbol_ids()))


def unobservable_behavior(r: Realization) -> BlockedCode:
    """The s with (0, s) in the behavior: the kernel of the check system's state columns."""
    return r._unobservable_code


def is_observable(r: Realization) -> bool:
    """No nonzero trajectory has all-zero symbols: unobservable_behavior has dim 0."""
    return r._unobservable_code.dim == 0


def controllability_defect(r: Realization) -> int:
    """dim B - (sum of constraint dims - total state dim); zero iff controllable."""
    free = r.total_constraint_dim() - r.topology.total_state_dim()
    return r._behavior_code.dim - free


def is_controllable(r: Realization) -> bool:
    return controllability_defect(r) == 0


def is_trim(r: Realization, constraint_id: str, state_id: str) -> TrimVerdict:
    """Trim check for one constraint at one of its states, with witness.

    Trim means the code's projection L onto the state is the whole state
    space: `projection_dim` equals the state's dim. Only on a failure is L
    read, as the trim reads it (`Subspace._block_maps`), for the witness:
    the first e_i with e_i N(L)^T != 0, which L misses, as N(L)^T is the
    quotient map modulo L.
    """
    d = r._incident_dim(constraint_id, state_id)
    code = r.code(constraint_id)
    if code.projection_dim([state_id]) == d:
        return TrimVerdict(True, constraint_id, state_id)
    i = int(code.space._block_maps(code.structure.offset(state_id), d)[1].any(axis=1).argmax())
    return TrimVerdict(False, constraint_id, state_id, tuple(int(k == i) for k in range(d)))


def is_proper(r: Realization, constraint_id: str) -> ProperVerdict:
    """Proper check for one constraint, with an offending codeword if any.

    Proper at a state means `cross_section_dim` there is zero. Only at the
    first state where it is not, in the order of the vars, is the
    cross-section built, for the witness: its first canonical generator,
    a word of the subcode merge_state quotients by.
    """
    r.ensure_valid()
    code = r.code(constraint_id)
    for v in r.topology.constraint(constraint_id).vars:
        if r.topology.is_state(v) and code.cross_section_dim([v]):
            section = code.cross_section([v]).space
            word = np.zeros(code.structure.total, dtype=np.int64)
            at = code.structure.offset(v)
            word[at:at + section.ambient] = section.basis.row(0)
            return ProperVerdict(False, constraint_id, v, tuple(int(x) for x in word))
    return ProperVerdict(True, constraint_id)


def is_state_trim(r: Realization) -> bool:
    """The behavior projects onto every state space: `ranks` of its basis on
    the states' column runs, which end the frame, padded with the index total."""
    b, dims = r._behavior_code, np.array([s.dim for s in r.topology.states], dtype=np.intp)
    at, width = b.structure.total - dims[::-1].cumsum()[::-1], np.arange(dims.max(initial=0))
    index = np.where(width < dims[:, None], at[:, None] + width, b.structure.total)
    return bool((ranks(b.space.basis.array, index, r.field.p) == dims).all())


def is_branch_trim(r: Realization) -> bool:
    """The behavior projects onto every constraint code: `ranks` of its basis on their vars."""
    dims = [r.code(c.id).dim for c in r.topology.constraints]
    basis = r._behavior_code.space.basis.array  # validates r before its frame is read
    return bool((ranks(basis, r.topology._frame_columns[1], r.field.p) == dims).all())


def is_reduced(r: Realization) -> bool:
    return is_state_trim(r) and is_branch_trim(r)


def dualize(r: Realization) -> Realization:
    """Same topology, orthogonal codes, one sign inversion per state edge.

    The inversion negates the state block inside the dual code of the
    constraint at the state's negate_at endpoint; over GF(2) it is the
    identity. dualize(dualize(r)) has constraint codes equal to r's.
    """
    r.ensure_valid()
    new_codes: dict[str, BlockedCode] = {}
    for c in r.topology.constraints:
        dual = r.code(c.id).dual()
        rows = r._signed(c, dual.space.basis.array)
        if rows is not dual.space.basis.array:
            dual = BlockedCode(dual.structure, _vanishing(r.field, rows))
        new_codes[c.id] = dual
    return _trusted(Realization, field=r.field, topology=r.topology, _codes=new_codes, _issues=())


class ConstraintReport(NamedTuple):
    """Per-constraint verdicts gathered by analyze()."""

    id: str
    dim: int
    trim: tuple[TrimVerdict, ...]
    proper: ProperVerdict

    @property
    def fully_trim(self) -> bool:
        return all(t.ok for t in self.trim)


@dataclass(frozen=True)
class AnalysisReport:
    """Every dimension and verdict analyze() computes for one realization."""

    field_order: int
    symbol_dims: tuple[tuple[str, int], ...]
    state_dims: tuple[tuple[str, int], ...]
    constraint_dims: tuple[tuple[str, int], ...]
    behavior_dim: int
    realized_dim: int
    unobservable_dim: int
    defect: int
    observable: bool
    controllable: bool
    state_trim: bool
    branch_trim: bool
    reduced: bool
    cycle_free: bool
    minimal: bool | None
    trim_proper: bool
    locally_reducible: bool
    constraints: tuple[ConstraintReport, ...]

    @property
    def total_symbol_dim(self) -> int:
        return sum(d for _, d in self.symbol_dims)

    @property
    def total_state_dim(self) -> int:
        return sum(d for _, d in self.state_dims)

    @property
    def total_constraint_dim(self) -> int:
        return sum(d for _, d in self.constraint_dims)

    def to_dict(self) -> dict:
        return {
            "field": self.field_order,
            "symbols": [{"id": i, "dim": d} for i, d in self.symbol_dims],
            "states": [{"id": i, "dim": d} for i, d in self.state_dims],
            "constraints": [
                {"id": c.id, "dim": c.dim,
                 "trim": [{"state": t.state_id, "ok": t.ok} if t.missing is None else
                          {"state": t.state_id, "ok": t.ok, "missing_value": list(t.missing)}
                          for t in c.trim],
                 "proper": {"ok": c.proper.ok} if c.proper.ok else {"ok": c.proper.ok,
                     "state": c.proper.state_id, "codeword": list(c.proper.codeword)}}
                for c in self.constraints
            ],
            **{key: getattr(self, "defect" if key == "controllability_defect" else key)
               for key in ("total_symbol_dim", "total_state_dim", "total_constraint_dim",
                           "behavior_dim", "realized_dim", "unobservable_dim",
                           "controllability_defect", "observable", "controllable",
                           "state_trim", "branch_trim", "reduced", "cycle_free", "minimal",
                           "trim_proper", "locally_reducible")},
        }


def analyze(r: Realization) -> AnalysisReport:
    """Compute the full report: dimensions, predicates, and witnesses.

    A code is trim at state s when `projection_dim` there is s's dim, and
    proper when every `cross_section_dim` at its states is zero: the
    tests is_trim, is_proper and the reduction driver ask. Both depend
    only on the code's subspace and where its states sit, so each
    distinct pair is asked once. The behavior's state-trim and branch-trim
    tests are one `ranks` call each on its basis, a column group per state
    or constraint. is_trim and is_proper run on a failed verdict, for its witness.
    """
    r.ensure_valid()
    topo = r.topology
    b = r._behavior_code
    realized = b.projection_dim(topo.symbol_ids())
    unobs = b.dim - realized
    defect = controllability_defect(r)
    # a constraint's key: its code's subspace and, per var, (dim, is a state)
    kind = {v.id: (v.dim, False) for v in topo.symbols} | {v.id: (v.dim, True) for v in topo.states}
    verdicts, reports = {}, []
    for c in topo.constraints:
        code, states = r._codes[c.id], [v for v in c.vars if kind[v][1]]
        key = (id(code.space), tuple(map(kind.__getitem__, c.vars)))
        if key not in verdicts:  # its trim verdicts, state by state, and its proper verdict
            verdicts[key] = ([code.projection_dim([v]) == kind[v][0] for v in states],
                             all(code.cross_section_dim([v]) == 0 for v in states))
        trim_ok, proper_ok = verdicts[key]
        trims = tuple([TrimVerdict(True, c.id, v) if t else is_trim(r, c.id, v)
                       for v, t in zip(states, trim_ok)])
        proper = ProperVerdict(True, c.id) if proper_ok else is_proper(r, c.id)
        reports.append(ConstraintReport(c.id, code.dim, trims, proper))
    trim_proper = all(all(trim_ok) and proper_ok for trim_ok, proper_ok in verdicts.values())
    cycle_free = topo.is_cycle_free()
    state_trim = is_state_trim(r)
    branch_trim = is_branch_trim(r)
    observable = unobs == 0
    controllable = defect == 0
    return AnalysisReport(
        field_order=r.field.p,
        symbol_dims=tuple((s.id, s.dim) for s in topo.symbols),
        state_dims=tuple((s.id, s.dim) for s in topo.states),
        constraint_dims=tuple((cr.id, cr.dim) for cr in reports),
        behavior_dim=b.dim,
        realized_dim=realized,
        unobservable_dim=unobs,
        defect=defect,
        observable=observable,
        controllable=controllable,
        state_trim=state_trim,
        branch_trim=branch_trim,
        reduced=state_trim and branch_trim,
        cycle_free=cycle_free,
        minimal=trim_proper if cycle_free else None,
        trim_proper=trim_proper,
        # A trim or proper failure admits a trim or a merge, and an
        # unobservable or uncontrollable realization is locally reducible
        # too (Forney and Gluesing-Luerssen, arXiv:1202.0534).
        locally_reducible=not trim_proper or not observable or not controllable,
        constraints=tuple(reports),
    )
