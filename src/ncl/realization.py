"""Normal-graph realizations of linear codes.

A realization wires constraint codes together on a graph: constraints
are vertices, state variables are edges (each joining exactly two
constraints), symbol variables are half-edges (each at exactly one
constraint). The behavior is the set of global assignments satisfying
every constraint; the realized code is its projection onto the symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, islice
from typing import Iterable, Mapping

import numpy as np

from .blockcode import BlockedCode, BlockStructure, _gathered, _trusted
from .errors import InvalidRealizationError, UnknownBlockError
from .fields import PrimeField, Subspace, _held, _vanishing, _work_dtype, kernel, ranks, rref

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
    def _states_by_id(self) -> dict[str, StateVar]:
        return {s.id: s for s in self.states}

    @cached_property
    def _state_index(self) -> dict[str, int]:
        return {s.id: i for i, s in enumerate(self.states)}

    @cached_property
    def _constraints_by_id(self) -> dict[str, Constraint]:
        return {c.id: c for c in self.constraints}

    @cached_property
    def _constraint_index(self) -> dict[str, int]:
        return {c.id: i for i, c in enumerate(self.constraints)}

    def symbol_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.symbols)

    def state_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.states)

    def constraint_ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.constraints)

    def is_symbol(self, var_id: str) -> bool:
        return var_id in self._symbols_by_id

    def is_state(self, var_id: str) -> bool:
        return var_id in self._states_by_id

    def symbol(self, var_id: str) -> SymbolVar:
        try:
            return self._symbols_by_id[var_id]
        except KeyError:
            raise UnknownBlockError(f"unknown symbol {var_id!r}") from None

    def state(self, var_id: str) -> StateVar:
        try:
            return self._states_by_id[var_id]
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
        """The behavior's frame, symbols then states, and the frame columns of
        each constraint's vars, one row each, padded with the index frame.total."""
        frame = BlockStructure(tuple((v.id, v.dim) for v in (*self.symbols, *self.states)))
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
        """Symbol and state use, endpoints, self-loops, connectivity: no id findings."""
        found: list[ValidationIssue] = []
        uses: dict[str, list[str]] = {v.id: [] for v in (*self.symbols, *self.states)}
        for c in self.constraints:
            for v in c.vars:
                if v in uses:
                    uses[v].append(c.id)

        for s in self.symbols:
            if len(uses[s.id]) != 1:
                found.append(ValidationIssue(
                    "normality",
                    f"symbol {s.id!r} must be involved in exactly one constraint, "
                    f"found {len(uses[s.id])}", (s.id, *uses[s.id])))
        cids = self._constraints_by_id
        for s in self.states:
            if s.left == s.right:
                found.append(ValidationIssue(
                    "self-loop", f"state {s.id!r} has both endpoints at {s.left!r}",
                    (s.id, s.left)))
                continue
            missing = [end for end in (s.left, s.right) if end not in cids]
            found += [ValidationIssue("unknown-id", f"state {s.id!r} endpoint {end!r} is not "
                                      "a constraint", (s.id, end)) for end in missing]
            if not missing and uses[s.id] not in ([s.left, s.right], [s.right, s.left]):
                found.append(ValidationIssue(
                    "normality",
                    f"state {s.id!r} must be involved in exactly its two endpoints "
                    f"{s.left!r} and {s.right!r}, found {uses[s.id]!r}",
                    (s.id, *uses[s.id])))

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
        found = self.topology.issues()
        for c in self.topology.constraints:
            if c.id not in self._codes:
                found.append(ValidationIssue(
                    "missing-code", f"constraint {c.id!r} has no code", (c.id,)))
        for cid in self._codes:
            if cid not in self.topology._constraints_by_id:
                found.append(ValidationIssue(
                    "unknown-id", f"code given for undeclared constraint {cid!r}", (cid,)))
        if any(i.tag in ("duplicate-id", "unknown-id", "missing-code") for i in found):
            return tuple(found)
        for c in self.topology.constraints:
            found.extend(self._code_issues(c.id))
        return tuple(found)

    def _code_issues(self, cid: str) -> list[ValidationIssue]:
        """Field and block-dim findings for one constraint's code."""
        code = self._codes[cid]
        if code.field != self.field:
            return [ValidationIssue(
                "field-mismatch",
                f"constraint {cid!r} code is over {code.field!r}, "
                f"realization over {self.field!r}", (cid,))]
        expected = tuple((v, self.topology.var_dim(v))
                         for v in self.topology.constraint(cid).vars)
        if code.structure.blocks != expected:
            return [ValidationIssue(
                "dim-mismatch",
                f"constraint {cid!r} code blocks {code.structure.blocks!r} "
                f"do not match declared {expected!r}", (cid,))]
        return []

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
                    replaced: Mapping[str, BlockedCode]) -> "Realization":
        """This valid realization with one state's dim changed and the codes
        of both its endpoints replaced.

        Validated from what changed: the topology's findings read ids,
        vars and endpoints, never dims, and every other constraint keeps
        its code and its vars' dims, so only the replaced codes can add a
        finding.
        """
        self.ensure_valid()
        topo = self.topology
        old = topo.state(state_id)
        if set(replaced) != {old.left, old.right}:
            raise ValueError(f"state {state_id!r}: replace the codes of exactly its endpoints")
        new = StateVar(state_id, new_dim, old.left, old.right, old.negate_at)
        states = list(topo.states)
        states[topo._state_index[state_id]] = new
        # only one state's dim changes: the indexes, its entry aside, and components carry over
        child_topo = _trusted(
            Topology, symbols=topo.symbols, constraints=topo.constraints, states=tuple(states),
            _symbols_by_id=topo._symbols_by_id, _constraints_by_id=topo._constraints_by_id,
            _states_by_id={**topo._states_by_id, state_id: new},
            _state_index=topo._state_index, _constraint_index=topo._constraint_index,
            _uncut_components=topo._uncut_components)
        child = Realization(self.field, child_topo, {**self._codes, **replaced})
        # _issues is a cached_property: assigning it fills the cache, in
        # topology order as a fresh realization lists its findings
        ends = sorted(replaced, key=topo._constraint_index.__getitem__)
        child._issues = tuple(issue for cid in ends for issue in child._code_issues(cid))
        return child

    def _check_system(self, checks_of) -> np.ndarray:
        """Each constraint's checks_of(its subspace) at its vars' frame columns,
        in topology order; a shared subspace's rows in one assignment. Not kept."""
        self.ensure_valid()
        frame, cols = self.topology._frame_columns
        checks = [checks_of(self._codes[c.id].space) for c in self.topology.constraints]
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
        system = self._check_system(lambda space: space.orthogonal().basis.array)
        return BlockedCode(self.topology._frame_columns[0], kernel(_held(self.field, system)))

    @cached_property
    def _unobservable_code(self) -> BlockedCode:
        """U, the kernel of the state columns alone, which follow the symbols'."""
        states = self._check_system(Subspace._check_rows)[:, self.topology.total_symbol_dim():]
        return BlockedCode(BlockStructure(tuple((s.id, s.dim) for s in self.topology.states)),
                           kernel(_held(self.field, states)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Realization):
            return NotImplemented
        return (self.field == other.field and self.topology == other.topology
                and self._codes == other._codes)

    def __repr__(self) -> str:
        t = self.topology
        return (f"<realization over {self.field!r}: {len(t.constraints)} constraints, "
                f"{len(t.states)} states, {len(t.symbols)} symbols>")


@dataclass(frozen=True)
class TrimVerdict:
    """Does one constraint project onto one of its state spaces surjectively?"""

    ok: bool
    constraint_id: str
    state_id: str
    missing: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class ProperVerdict:
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

    Trim means the code's projection onto the state is the whole state
    space: `projection_dim` equals the state's dim. Only on a failure is
    the basis's block at the state brought to RREF, for the witness: the
    first standard basis vector of the state space that the row space
    misses, as e_i lies in it exactly when i is a pivot whose row is e_i.
    """
    d = r._incident_dim(constraint_id, state_id)
    code = r.code(constraint_id)
    if code.projection_dim([state_id]) == d:
        return TrimVerdict(True, constraint_id, state_id)
    red, _, piv = rref(_held(r.field, _block(code, state_id)))
    units = {j for j, row in zip(piv, red.array) if np.count_nonzero(row) == 1}
    i = min(set(range(d)) - units)
    return TrimVerdict(False, constraint_id, state_id, tuple(int(k == i) for k in range(d)))


def is_proper(r: Realization, constraint_id: str) -> ProperVerdict:
    """Proper check for one constraint, with an offending codeword if any.

    Proper at a state means the code's cross-section there is zero. The
    witness is the first canonical generator of the first nonzero one, in
    the order of the vars: a word of the subcode merge_state quotients by.
    """
    r.ensure_valid()
    code = r.code(constraint_id)
    for v in r.topology.constraint(constraint_id).vars:
        if not r.topology.is_state(v):
            continue
        section = code.cross_section([v]).space
        if section.dim:
            word = np.zeros(code.structure.total, dtype=np.int64)
            at = code.structure.offset(v)
            word[at:at + section.ambient] = section.basis.row(0)
            return ProperVerdict(False, constraint_id, v, tuple(int(x) for x in word))
    return ProperVerdict(True, constraint_id)


def _block(code: BlockedCode, var_id: str) -> np.ndarray:
    """The columns of the code's basis on one of its blocks."""
    at = code.structure.offset(var_id)
    return code.space.basis.array[:, at:at + code.structure.dim(var_id)]


def is_state_trim(r: Realization) -> bool:
    """The behavior projects onto every state space: one stacked rank call on
    the states' column runs, which end the frame, padded with the index total."""
    b, dims = r._behavior_code, np.array([s.dim for s in r.topology.states], dtype=np.intp)
    at, width = b.structure.total - dims[::-1].cumsum()[::-1], np.arange(dims.max(initial=0))
    stack = _gathered(b, np.where(width < dims[:, None], at[:, None] + width, b.structure.total))
    return bool((ranks(stack, r.field.p) == dims).all())


def is_branch_trim(r: Realization) -> bool:
    """The behavior projects onto every constraint code: one stacked rank call."""
    stack = _gathered(r._behavior_code, r.topology._frame_columns[1])
    dims = [r.code(c.id).dim for c in r.topology.constraints]
    return bool((ranks(stack, r.field.p) == dims).all())


def is_reduced(r: Realization) -> bool:
    return is_state_trim(r) and is_branch_trim(r)


def dualize(r: Realization) -> Realization:
    """Same topology, orthogonal codes, one sign inversion per state edge.

    The inversion negates the state block inside the dual code of the
    constraint at the state's negate_at endpoint; over GF(2) it is the
    identity. dualize(dualize(r)) has constraint codes equal to r's.
    """
    r.ensure_valid()
    topo = r.topology
    p = r.field.p
    new_codes: dict[str, BlockedCode] = {}
    for c in topo.constraints:
        dual = r.code(c.id).dual()
        scale = np.ones(dual.structure.total, dtype=np.int64)
        for v in c.vars:
            if topo.is_state(v) and topo.state(v).negate_constraint == c.id:
                at = dual.structure.offset(v)
                scale[at:at + topo.var_dim(v)] = p - 1
        if (scale != 1).any():
            rows = (dual.space.basis.array * scale) % p
            dual = BlockedCode(dual.structure, _vanishing(r.field, rows))
        new_codes[c.id] = dual
    return Realization(r.field, topo, new_codes)


@dataclass(frozen=True)
class ConstraintReport:
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
            "total_symbol_dim": self.total_symbol_dim,
            "total_state_dim": self.total_state_dim,
            "total_constraint_dim": self.total_constraint_dim,
            "behavior_dim": self.behavior_dim,
            "realized_dim": self.realized_dim,
            "unobservable_dim": self.unobservable_dim,
            "controllability_defect": self.defect,
            "observable": self.observable,
            "controllable": self.controllable,
            "state_trim": self.state_trim,
            "branch_trim": self.branch_trim,
            "reduced": self.reduced,
            "cycle_free": self.cycle_free,
            "minimal": self.minimal,
            "trim_proper": self.trim_proper,
            "locally_reducible": self.locally_reducible,
        }


def analyze(r: Realization) -> AnalysisReport:
    """Compute the full report: dimensions, predicates, and witnesses.

    Every local verdict is a block-column rank: trim at state s when the
    code's generator matrix has full column rank on s, proper when its
    check matrix does. Both depend only on the code's subspace and where
    its states sit, so each distinct pair is ranked once, all in one
    stacked rank call; the state-trim and branch-trim tests of the
    behavior are one call each. is_trim and is_proper run only where a
    rank falls short, to build the witness.
    """
    r.ensure_valid()
    topo = r.topology
    b = r._behavior_code
    realized = b.projection_dim(topo.symbol_ids())
    unobs = b.dim - realized
    defect = controllability_defect(r)
    # a constraint's key: its code's subspace and, per var, (dim, is a state)
    kind = {v.id: (v.dim, False) for v in topo.symbols} | {v.id: (v.dim, True) for v in topo.states}
    keys = [(id(r._codes[c.id].space), tuple(map(kind.__getitem__, c.vars)))
            for c in topo.constraints]
    distinct = {key: r._codes[c.id] for key, c in zip(keys, topo.constraints)}
    blocks, dims = [], []
    for (_, layout), code in distinct.items():
        g, h = code.space.basis.array, code.dual().space.basis.array
        at = 0
        for d, is_state in layout:
            if is_state:
                blocks += (g[:, at:at + d], h[:, at:at + d])
                dims += (d, d)
            at += d
    full = iter((ranks(blocks, r.field.p) == dims).tolist())
    # each key's trim verdicts, state by state, proper verdict, state flags and dim
    verdicts = {}
    for (space, layout), code in distinct.items():
        ok = list(islice(full, 2 * sum(s for _, s in layout)))
        verdicts[space, layout] = (ok[0::2], all(ok[1::2]), [s for _, s in layout], code.dim)
    reports = []
    for c, key in zip(topo.constraints, keys):
        trim_ok, proper_ok, flags, dim = verdicts[key]
        trims = tuple(TrimVerdict(True, c.id, v) if t else is_trim(r, c.id, v)
                      for v, t in zip(compress(c.vars, flags), trim_ok))
        proper = ProperVerdict(True, c.id) if proper_ok else is_proper(r, c.id)
        reports.append(ConstraintReport(c.id, dim, trims, proper))
    trim_proper = all(all(trim_ok) and proper_ok for trim_ok, proper_ok, _, _ in verdicts.values())
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
