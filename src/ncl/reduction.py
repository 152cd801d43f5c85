"""Local reductions of realizations and the cycle-free minimizer.

Each reduction shrinks one state space in place, preserves the realized
code, and reports the coordinate map it applied. All of them take one
step: given a state s and matrices F and X, each of the two codes at the
ends of s keeps the words whose value v at s has v F = 0, and rewrites
that value as v X. Those are the words of [v F | the code with v
rewritten as v X] that are zero on v F (fields._stepped): over p >= 5
one fields._vanishing call per end, and over GF(2) and GF(3) the ends'
kept bit rows, each mapped by adding the rows of [F | X] at the
nonzero digits of its v, then reduced. F and X are read off a subspace
L of the state space held in RREF, with pivot columns pi and free
columns phi: row f of N(L) is e_f minus column f of L on the pivots, and
N(L)^T is the quotient map modulo L, read off L's RREF rows
(fields._quotient_map; its kept bit rows over GF(2) and GF(3)). To
restrict to L is F = N(L)^T and X = I[:, pi]; to quotient by L is F
with no columns and X = N(L)^T. A trim's and a merge's L, the constraint code's
projection or cross-section at the state, is read as its pivots and
N(L)^T alone (Subspace._block_maps), over GF(2) and GF(3) off the code's
kept bit rows.

- trim: restrict to a constraint's projection onto the state.
- merge: quotient by a constraint's cross-section on the state.
- unobservability trim: L is the line spanned by the value at the state
  of a nonzero all-zero-symbol trajectory, with pivot j. F = e_j keeps
  the values with v_j = 0, and X = N(L)^T.
- dual merge: the unobservability trim of the dual realization, seen on
  the primal; it lowers the controllability defect. It is the quotient
  by the coordinate line e_j, j the pivot of the line chosen on the
  dual: F has no columns and X = I[:, phi].

reduce_to_fixpoint and minimize_cycle_free share one driver. It sweeps
the (constraint, state) incidences, constraints in order and each one's
states in the order its vars list them. A visit is one trim test, a
trim if it fails, then one merge test on the code that is there now,
and a merge if that finds a nonzero cross-section. When a whole sweep
changes nothing, an unobservable realization loses one unobservable
direction and the sweep starts again; a cycle-free one is observable by
then. The driver never builds the behavior: the question and the trim
read one kept kernel, U, of the check system's state columns alone.
next_reduction names the first move of that sweep.

An incidence is tested again only after its constraint's code changed.
Whether a trim or a merge applies there depends on that code alone (the
state's dim is one of its blocks), and every step replaces the codes at
both ends of the state it shrinks, so a skipped test is one whose answer
is known to be "none": the sweep takes the same steps in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockcode import BlockedCode, BlockStructure
from .errors import (
    DimensionMismatchError,
    NotCycleFreeError,
    NotReducibleError,
)
from .fields import MatrixF, Subspace, _quotient_map, _stepped, _vanishing, rank
from .realization import (
    Realization,
    Topology,
    dualize,
    is_observable,
    is_trim,
    unobservable_behavior,
)

TRIM = "trim"
MERGE = "merge"
UNOBS_TRIM = "unobservability-trim"
DUAL_MERGE = "dual-merge"


@dataclass(frozen=True)
class ReductionStep:
    """One applied reduction: which state shrank and by what coordinate map.

    basis_change has shape (new_dim, old_dim); a value v of the old state
    space maps to v @ basis_change.T in the new coordinates.
    """

    kind: str
    state_id: str
    old_dim: int
    new_dim: int
    basis_change: MatrixF
    constraint_id: str | None = None

    def __post_init__(self) -> None:
        if self.new_dim >= self.old_dim:
            raise ValueError("reduction must strictly shrink the state")
        if self.basis_change.shape != (self.new_dim, self.old_dim):
            raise ValueError("basis change shape does not match dims")
        if rank(self.basis_change) != self.new_dim:
            raise ValueError("basis change must have full row rank")


def _shrink(r: Realization, kind: str, state_id: str, f: np.ndarray, x: np.ndarray,
            constraint_id: str | None = None) -> tuple[Realization, ReductionStep]:
    """The one step of every move (module docstring): at both ends of the
    state, keep the words whose value v there has v @ f = 0 and rewrite v
    as v @ x, for residue matrices f and x, x (old_dim, new_dim) and its
    transpose the step's basis change."""
    state = r.topology.state(state_id)
    d, new_dim = x.shape
    codes = [r.code(cid) for cid in (state.left, state.right)]
    spaces = _stepped([(code.space, code.structure.offset(state_id)) for code in codes], f, x)
    replaced = {}
    for cid, code, space in zip((state.left, state.right), codes, spaces):
        blocks = tuple((b, new_dim if b == state_id else n) for b, n in code.structure.blocks)
        replaced[cid] = BlockedCode(BlockStructure(blocks), space)
    step = ReductionStep(kind, state_id, d, new_dim, MatrixF(r.field, x.T), constraint_id)
    return r._with_state(state_id, new_dim, replaced), step


def trim_state(r: Realization, state_id: str, constraint_id: str
               ) -> tuple[Realization, ReductionStep]:
    """Restrict one state space to the given constraint's projection onto it."""
    d = r._incident_dim(constraint_id, state_id)
    code = r.code(constraint_id)
    pivots, quotient = code.space._block_maps(code.structure.offset(state_id), d)
    if len(pivots) == d:
        raise NotReducibleError(
            f"constraint {constraint_id!r} is already trim at state {state_id!r}")
    selector = np.eye(d, dtype=np.int64)[:, list(pivots)]
    return _shrink(r, TRIM, state_id, quotient, selector, constraint_id)


def merge_state(r: Realization, state_id: str, constraint_id: str
                ) -> tuple[Realization, ReductionStep]:
    """Quotient one state space by the given constraint's cross-section on it."""
    d = r._incident_dim(constraint_id, state_id)
    code = r.code(constraint_id)
    pivots, quotient = code.space._block_maps(code.structure.offset(state_id), d, cross=True)
    if not pivots:
        raise NotReducibleError(
            f"constraint {constraint_id!r} is already proper at state {state_id!r}")
    return _shrink(r, MERGE, state_id, np.zeros((d, 0), dtype=np.int64), quotient,
                   constraint_id)


def _unobservable_direction(r: Realization) -> tuple[str, Subspace]:
    """Pick the state and the line of it that the unobservability trim cuts.

    Returns (state_id, L) with L the line spanned by the chosen
    trajectory's value there; its RREF row has one pivot j. Deterministic:
    first canonical generator of the unobservable behavior, then the
    first state (topology order) where it is nonzero.
    """
    unobs = unobservable_behavior(r)
    if unobs.dim == 0:
        raise NotReducibleError("realization is observable; nothing to trim")
    trajectory = unobs.space.basis.array[0]
    for state in r.topology.states:
        at = unobs.structure.offset(state.id)
        block = trajectory[at:at + state.dim]
        if block.any():
            return state.id, _vanishing(r.field, block.reshape(1, -1))
    raise AssertionError("nonzero unobservable trajectory with all-zero state blocks")


def reduce_unobservable(r: Realization) -> tuple[Realization, ReductionStep]:
    """Cut the direction of one state space spanned by an unobservable trajectory.

    With L that line and j its pivot, the step keeps the values with
    v_j = 0 and reads them modulo L: F = e_j, X = N(L)^T. The state's
    dim, dim B, and the unobservable dimension each drop by exactly one;
    the realized code is unchanged.
    """
    r.ensure_valid()
    state_id, line = _unobservable_direction(r)
    e_j = np.eye(line.ambient, dtype=np.int64)[:, list(line.pivots)]
    return _shrink(r, UNOBS_TRIM, state_id, e_j, _quotient_map(line))


def dual_merge_unobservable(r: Realization) -> tuple[Realization, ReductionStep]:
    """Merge the state that the dual's unobservability trim would cut;
    lowers the defect.

    That trim keeps the dual words whose value w has w_j = 0 and maps w
    to w N(L)^T, with L the dual's chosen line and j its pivot. The
    orthogonal of its result keeps every primal word and drops the
    coordinate j of its value, X = I[:, phi], so the dual is built only
    to choose L.
    """
    r.ensure_valid()
    if is_observable(dual := dualize(r)):  # controllable iff the dual is observable
        raise NotReducibleError("realization is controllable; nothing to merge")
    state_id, line = _unobservable_direction(dual)
    d = line.ambient
    keep = np.delete(np.eye(d, dtype=np.int64), list(line.pivots), axis=1)
    return _shrink(r, DUAL_MERGE, state_id, np.zeros((d, 0), dtype=np.int64), keep)


def _sweep_to_fixpoint(r: Realization) -> tuple[Realization, list[ReductionStep]]:
    """The one reduction driver described in the module docstring.

    A visit is one trim test and one merge test. A trim leaves the
    constraint trim at that state and a merge leaves it trim and proper
    there, so nothing is left to re-test. dirty holds the incidences to
    visit: every one at first, then ends[s] after each step on a state s.

    Trees first: "On a finite cycle-free graph, a linear realization is
    minimal if and only if every constraint code is both trim and
    proper" (arXiv:1202.0534), and a minimal realization is observable.
    So on a cycle-free topology a sweep that changes nothing ends the
    driver without asking is_observable. Elsewhere it asks the kernel U
    that reduce_unobservable then reads, and never builds the behavior.
    """
    pairs = r.topology.incidences()
    at: dict[str, list[tuple[str, str]]] = {}
    for pair in pairs:
        at.setdefault(pair[0], []).append(pair)
    ends = {s.id: at[s.left] + at[s.right] for s in r.topology.states}
    steps: list[ReductionStep] = []
    dirty = set(pairs)
    while True:
        taken = len(steps)
        for pair in pairs:
            if pair not in dirty:
                continue
            cid, sid = pair
            if not is_trim(r, cid, sid).ok:
                r, step = trim_state(r, sid, cid)
                steps.append(step)
                dirty.update(ends[sid])
            if r.code(cid).cross_section_dim([sid]) > 0:
                r, step = merge_state(r, sid, cid)
                steps.append(step)
                dirty.update(ends[sid])
            dirty.discard(pair)
        if len(steps) == taken:
            if r.topology.is_cycle_free() or is_observable(r):
                return r, steps
            r, step = reduce_unobservable(r)
            steps.append(step)
            dirty.update(ends[step.state_id])


def next_reduction(r: Realization) -> tuple[str, str, str] | None:
    """The first move of reduce_to_fixpoint's sweep as (kind, state_id,
    constraint_id), or None when no trim or merge applies anywhere."""
    r.ensure_valid()
    for cid, sid in r.topology.incidences():
        if not is_trim(r, cid, sid).ok:
            return TRIM, sid, cid
        if r.code(cid).cross_section_dim([sid]) > 0:
            return MERGE, sid, cid
    return None


def reduce_to_fixpoint(r: Realization) -> tuple[Realization, list[ReductionStep]]:
    """Sweep trims and merges in topology order, with an unobservability
    trim whenever a sweep changes nothing, until no reduction applies.

    The result is trim and proper at every constraint and observable.
    Terminates: every step strictly shrinks the total state dimension.
    """
    r.ensure_valid()
    return _sweep_to_fixpoint(r)


def minimize_cycle_free(r: Realization) -> tuple[Realization, list[ReductionStep]]:
    """Reduce a cycle-free realization until every constraint is trim and proper.

    The sweep of reduce_to_fixpoint, in topology order. On a tree, trim
    and proper everywhere means minimal, hence observable, so only trims
    and merges are taken, and the state dims match cut_dims of the
    realized code whatever the order of the topology's constraints.
    """
    r.ensure_valid()
    if not r.topology.is_cycle_free():
        raise NotCycleFreeError("minimization requires a cycle-free topology")
    return _sweep_to_fixpoint(r)


@dataclass(frozen=True)
class EdgeCut:
    """What the realized code forces across one tree edge.

    The least state dimension any realization can get away with at this
    edge is dim(project onto one side) minus dim(cross section of that
    side): symbols that show up on the side but carry no information
    across the cut do not need state support.
    """

    state_id: str
    past_symbols: tuple[str, ...]
    projection_dim: int
    cross_section_dim: int

    @property
    def minimal_dim(self) -> int:
        return self.projection_dim - self.cross_section_dim


def _side_symbols(topo: Topology, side: set[str]) -> list[str]:
    """Symbol ids of the constraints on one side of a cut, in symbol order."""
    out = [v for c in topo.constraints if c.id in side for v in c.vars if topo.is_symbol(v)]
    order = {sid: i for i, sid in enumerate(topo.symbol_ids())}
    out.sort(key=order.__getitem__)
    return out


def cut_dims(code: BlockedCode, topology: Topology) -> list[EdgeCut]:
    """Minimal state dim at every tree edge: dim(projection) - dim(cross-section).

    Computed from the past side of each cut and checked against the
    future side, which must agree. A tree without one edge has two
    components, one at each end of that edge: one call gives both sides.
    """
    if not topology.is_cycle_free():
        raise NotCycleFreeError("cut dimensions are defined on trees only")
    want = {s.id: s.dim for s in topology.symbols}
    have = {bid: code.structure.dim(bid) for bid in code.structure.ids()}
    if want != have:
        raise DimensionMismatchError(
            "code blocks do not match the topology's symbols")
    cuts = []
    for s in topology.states:
        comps = topology._components(s.id)
        past, future = (_side_symbols(topology, next(c for c in comps if end in c))
                        for end in (s.left, s.right))
        proj = code.projection_dim(past)
        sect = code.cross_section_dim(past)
        f_dim = code.projection_dim(future) - code.cross_section_dim(future)
        if proj - sect != f_dim:
            raise AssertionError(
                f"cut at {s.id!r}: past gives {proj - sect}, future gives {f_dim}")
        cuts.append(EdgeCut(s.id, tuple(past), proj, sect))
    return cuts
