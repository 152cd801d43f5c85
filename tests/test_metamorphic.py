"""Metamorphic checks on trellises too big for the brute-force oracle.

GF(3) tail-biting trellises with n = 64 to 128 have 3^n-sized codes, so
nothing here enumerates. Instead each check relates two computations
that must agree: a reduction preserves the realized code, dualizing
twice gives back the constraint codes, the dual realizes the dual code,
and a realization is observable exactly when its dual is controllable
(Forney and Gluesing-Luerssen, arXiv:1202.0534). The same properties
are checked on small random graphs with several independent cycles.
"""

import random
from collections import Counter

import pytest

from ncl import (GF2, GF3, PrimeField, dualize, is_controllable, is_observable,
                 realized_code, reduce_to_fixpoint)
from helpers import ladder_trellis, random_realization

SIZES = (64, 96, 128)


@pytest.fixture(scope="module", params=SIZES, ids=lambda n: f"n{n}")
def pair(request):
    """A ladder trellis and its reduce_to_fixpoint result."""
    r = ladder_trellis(random.Random(f"metamorphic:{request.param}"), GF3, request.param)
    reduced, steps = reduce_to_fixpoint(r)
    assert {step.kind for step in steps} == {"trim", "merge", "unobservability-trim"}
    return r, reduced


def test_reduction_preserves_the_realized_code(pair):
    r, reduced = pair
    assert realized_code(reduced) == realized_code(r)
    assert reduced.topology.total_state_dim() < r.topology.total_state_dim()


def test_dualizing_twice_gives_back_the_codes(pair):
    for r in pair:
        assert dualize(dualize(r)).codes == r.codes


def test_dual_realizes_the_dual_code(pair):
    for r in pair:
        assert realized_code(dualize(r)) == realized_code(r).dual()


def test_observable_iff_dual_controllable(pair):
    r, reduced = pair
    # the input carries the chain's unobservable direction; the result does not
    assert [is_observable(r), is_observable(reduced)] == [False, True]
    for x in pair:
        assert is_observable(x) == is_controllable(dualize(x))


def multi_cycle_realizations():
    for field in (GF2, GF3, PrimeField(5)):
        rng = random.Random(f"metamorphic-cycles:{field.p}")
        for _ in range(60):
            yield random_realization(rng, field, max_constraints=5, max_dim=2,
                                     extra_edges=rng.randint(2, 3))


def test_properties_on_multi_cycle_graphs():
    seen = Counter()
    for r in multi_cycle_realizations():
        reduced, steps = reduce_to_fixpoint(r)
        assert realized_code(reduced) == realized_code(r)
        for x in (r, reduced):
            assert dualize(dualize(x)).codes == x.codes
            assert is_observable(x) == is_controllable(dualize(x))
        # a connected graph has states - constraints + 1 independent cycles
        topo = r.topology
        seen["two or more cycles"] += len(topo.states) - len(topo.constraints) >= 1
        seen["unobservable"] += not is_observable(r)
        seen["uncontrollable"] += not is_controllable(r)
        seen.update(step.kind for step in steps)
    assert {"two or more cycles", "unobservable", "uncontrollable", "trim", "merge",
            "unobservability-trim"} <= {k for k, v in seen.items() if v}, seen


def test_ladder_trellis_refuses_an_n_it_cannot_tile():
    # chain 6 at n = 16 cuts at 1, 3, 6, 9, 11 and 14, so no 4 positions
    # in a row are free for a span-3 short generator: refused, not retried
    # forever, and before the first draw
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="span-3"):
        ladder_trellis(rng, GF2, 16)
    assert rng.getstate() == state
