"""The behavior solve holds its transients in the working dtype, and every
public array stays int64.

The check system, its RREF and the null rows read off it are held in
`fields._work_dtype(p)`: uint8 over GF(2), int32 otherwise. What a caller
can reach is int64 over every field and every family of graphs: the
behavior and the codes read off it, kernels, RREFs, orthogonals and the
basis change of each reduction step.
"""

import random
import tracemalloc

import numpy as np
import pytest

from ncl import (GF2, GF3, MatrixF, PrimeField, Subspace, analyze, behavior, kernel,
                 parity_check_realization, realized_code, reduce_to_fixpoint, rref,
                 unobservable_behavior)
from ncl.fields import _null_rows, _work_dtype
from helpers import gallager_checks, ladder_trellis, random_realization

FIELDS = (GF2, GF3, PrimeField(5), PrimeField(7))


def tanner(field, n):
    return parity_check_realization(field, n, gallager_checks(random.Random(n), n))


def families(field):
    rng = random.Random(f"int64:{field.p}")
    yield "tanner", tanner(field, 24)
    yield "trellis", ladder_trellis(rng, field, 18, chain=3)
    for i in range(4):
        yield f"multi-cycle {i}", random_realization(rng, field, max_dim=3, total_cap=14,
                                                     extra_edges=2)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_every_public_array_is_int64(field):
    steps = 0
    for name, r in families(field):
        arrays = {
            "behavior": behavior(r).space.basis.array,
            "realized_code": realized_code(r).space.basis.array,
            "unobservable_behavior": unobservable_behavior(r).space.basis.array,
        }
        for cid, code in r.codes.items():
            g = code.space.basis
            red, _, _ = rref(g)
            arrays[f"rref {cid}"] = red.array
            arrays[f"kernel {cid}"] = kernel(g).basis.array
            fresh = Subspace.spanned_by(field, g.cols, g)
            arrays[f"orthogonal {cid}"] = fresh.orthogonal().basis.array
        out, taken = reduce_to_fixpoint(r)
        steps += len(taken)
        arrays["reduced behavior"] = behavior(out).space.basis.array
        for i, step in enumerate(taken):
            arrays[f"step {i} basis_change"] = step.basis_change.array
        for what, a in arrays.items():
            assert a.dtype == np.int64, (name, what, a.dtype)
    assert steps, "no family took a reduction step"


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_null_rows_are_residues_in_the_working_dtype(p):
    field = PrimeField(p)
    rng = random.Random(p)
    for _ in range(30):
        rows = [[rng.randrange(p) for _ in range(6)] for _ in range(rng.randint(1, 5))]
        red, _, piv = rref(MatrixF(field, rows))
        null = _null_rows(red.array, piv, p)
        assert null.dtype == _work_dtype(p)
        assert (null.astype(np.int64) @ red.array.T % p == 0).all()
        assert kernel(MatrixF(field, rows)) == Subspace.spanned_by(field, 6, null)


def test_analyze_peak_memory_is_bounded():
    # A (3,6)-regular GF(2) Tanner graph at n = 480 has a 1,680 x 1,920
    # check system. Held in int64 beside its working copy, analyze traced
    # a peak of about 37 MB; held in uint8 alone, about 11.5 MB.
    r = tanner(GF2, 480)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        analyze(r)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert peak < 20_000_000, f"analyze peaked at {peak / 1e6:.1f} MB"
