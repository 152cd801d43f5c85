"""Exact linear algebra over GF(p)."""

import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

import ncl.realization
from ncl import (
    GF2,
    GF3,
    BlockedCode,
    BlockStructure,
    DimensionMismatchError,
    FieldMismatchError,
    MatrixF,
    PrimeField,
    Subspace,
    complete_to_basis,
    inverse,
    kernel,
    parity_check_realization,
    rank,
    rref,
)
from ncl.fields import _SMALL_CELLS, _bit_rows, _from_bit_rows, _rref_array, _work_dtype, ranks
from helpers import (assert_rows_kept, full_space, gallager_checks, identity, inv, ladder_trellis,
                     mul, neg, sympy_rank, transpose, zero_space, zeros)

FIELDS = [GF2, GF3, PrimeField(5)]


def matrices(max_rows=4, max_cols=5):
    @st.composite
    def build(draw):
        field = draw(st.sampled_from(FIELDS))
        r = draw(st.integers(0, max_rows))
        c = draw(st.integers(0, max_cols))
        data = draw(st.lists(
            st.lists(st.integers(0, field.p - 1), min_size=c, max_size=c),
            min_size=r, max_size=r))
        return MatrixF(field, np.array(data, dtype=np.int64).reshape(r, c))
    return build()


class TestPrimeField:
    def test_accepts_primes(self):
        for p in (2, 3, 5, 7, 11, 8191):
            assert PrimeField(p).p == p

    def test_rejects_non_primes_and_bounds(self):
        for p in (0, 1, 4, 6, 9, 8192, 1 << 14):
            with pytest.raises(ValueError):
                PrimeField(p)

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            PrimeField(True)
        with pytest.raises(TypeError):
            PrimeField("2")

    def test_neg_inv(self):
        f = PrimeField(7)
        assert neg(f, 3) == 4
        assert neg(f, 0) == 0
        assert inv(f, 3) * 3 % 7 == 1
        with pytest.raises(ZeroDivisionError):
            inv(f, 0)

    def test_residues_read_only(self):
        v = GF3.residues([4, -1, 3])
        assert v.tolist() == [1, 2, 0]
        with pytest.raises(ValueError):
            v[0] = 1

    def test_equality_hash(self):
        assert PrimeField(3) == GF3
        assert PrimeField(3) != GF2
        assert hash(PrimeField(3)) == hash(GF3)


class TestMatrixF:
    def test_reduces_mod_p(self):
        m = MatrixF(GF3, [[4, -1], [3, 5]])
        assert m.tolist() == [[1, 2], [0, 2]]

    def test_immutable(self):
        m = MatrixF(GF2, [[1, 0]])
        with pytest.raises(ValueError):
            m.array[0, 0] = 0

    def test_refuses_a_1d_array(self):
        with pytest.raises(ValueError, match=r"^expected a 2-d array, got shape \(3,\)$"):
            MatrixF(GF2, [1, 0, 1])

    def test_from_rows_ragged(self):
        with pytest.raises(ValueError):
            MatrixF.from_rows(GF2, [[1, 0], [1]])

    def test_from_rows_empty_needs_cols(self):
        m = MatrixF.from_rows(GF2, [], cols=3)
        assert m.shape == (0, 3)
        with pytest.raises(DimensionMismatchError):
            MatrixF.from_rows(GF2, [[1, 0]], cols=3)

    def test_mul(self):
        a = MatrixF(GF3, [[1, 2]])
        b = MatrixF(GF3, [[2], [2]])
        assert mul(a, b).tolist() == [[0]]
        with pytest.raises(FieldMismatchError):
            mul(a, MatrixF(GF2, [[1], [1]]))
        with pytest.raises(DimensionMismatchError):
            mul(a, MatrixF(GF3, [[1, 2]]))

    @pytest.mark.parametrize("make, error", [
        (lambda: MatrixF(PrimeField(5), [[2.7, 1.2]]), ValueError),
        (lambda: MatrixF(GF2, [["1", "0"]]), TypeError),
        (lambda: MatrixF.from_rows(GF3, [[1, 1j]]), TypeError),
        (lambda: MatrixF(GF3, [[float("nan"), 1]]), ValueError),
        (lambda: PrimeField(5).residues([2.9, 7.5]), ValueError),
        # an object entry goes through operator.index, which refuses non-integers
        (lambda: MatrixF(GF3, [[Fraction(3, 2), 1]]), TypeError),
        (lambda: MatrixF(GF3, np.array([[1.5, 1]], dtype=object)), TypeError),
        (lambda: MatrixF(GF3, np.array([[Decimal("2.5"), 1]], dtype=object)), TypeError),
        (lambda: MatrixF.from_rows(GF3, [[Fraction(3, 2), 1]]), TypeError),
        (lambda: GF3.residues([Fraction(7, 2)]), TypeError),
        (lambda: Subspace.spanned_by(GF3, 2, [[Fraction(3, 2), 1]]), TypeError),
        (lambda: BlockedCode.from_rows(GF3, BlockStructure((("a", 2),)),
                                       [[Decimal("2.5"), 1]]), TypeError),
        (lambda: Subspace.spanned_by(GF3, 2, [[1, 1]]).contains([Fraction(7, 2), 1]),
         TypeError),
    ], ids=["fraction", "text", "complex", "nan", "residues-fraction", "object-fraction",
            "object-float", "object-decimal", "from-rows-fraction", "residues-object-fraction",
            "spanned-by-fraction", "blocked-code-decimal", "contains-fraction"])
    def test_refuses_what_no_integer_reads(self, make, error):
        # an entry is never truncated or parsed into a residue
        with pytest.raises(error):
            make()

    def test_integral_floats_still_read(self):
        assert MatrixF(GF3, np.eye(2) * 4).tolist() == [[1, 0], [0, 1]]
        assert MatrixF(GF2, np.zeros((0, 4))).shape == (0, 4)
        assert Subspace.spanned_by(GF3, 3, np.eye(3)) == full_space(GF3, 3)

    def test_an_int_past_int64_is_an_exact_residue(self):
        # reduced mod p in Python before the int64 cast, as the parse reads any JSON integer
        big = [2 ** 70, -2 ** 70, 2 ** 64, -2 ** 64 - 1]
        want = [x % 3 for x in big]
        assert want == [1, 2, 1, 1]
        assert MatrixF(GF3, [big]).tolist() == [want]
        assert MatrixF.from_rows(GF3, [big]).tolist() == [want]
        assert GF3.residues(big).tolist() == want
        assert MatrixF(GF3, np.array([[2 ** 64 - 1, 5]], dtype=np.uint64)).tolist() == [
            [(2 ** 64 - 1) % 3, 2]]
        assert MatrixF(PrimeField(257), np.array([[1, 255]], dtype=np.uint8)).tolist() == [
            [1, 255]]
        line = Subspace.spanned_by(GF3, 4, [want])
        assert Subspace.spanned_by(GF3, 4, [big]) == line
        assert BlockedCode.from_rows(GF3, BlockStructure((("a", 4),)), [big]).space == line
        assert line.contains([2 * x for x in big])
        assert not line.contains([2 ** 70, 0, 0, 0])

    def test_an_int_past_int64_next_to_a_negative_is_exact(self):
        # numpy reads such a list as float64, past the floats' exact range: read as objects
        assert MatrixF(GF3, [[-1, 2 ** 63]]).tolist() == [[2, 2 ** 63 % 3]]
        assert MatrixF.from_rows(GF3, [[-1], [2 ** 64 - 1]]).tolist() == [[2], [0]]
        assert GF3.residues([-2 ** 63 - 5, 2 ** 63]).tolist() == [(-2 ** 63 - 5) % 3, 2]
        with pytest.raises(ValueError):
            MatrixF(GF3, [[-1.5, 2 ** 63]])
        with pytest.raises(ValueError):
            MatrixF(GF3, np.array([[1.0, 2.0 ** 63]]))

    def test_identity_zeros_transpose(self):
        assert identity(GF2, 2).tolist() == [[1, 0], [0, 1]]
        assert zeros(GF2, 1, 2).tolist() == [[0, 0]]
        assert transpose(MatrixF(GF2, [[1, 0]])).tolist() == [[1], [0]]


class TestElimination:
    def test_rref_known(self):
        m = MatrixF(GF2, [[1, 1, 0], [1, 0, 1], [0, 1, 1]])
        red, rk, piv = rref(m)
        assert rk == 2
        assert piv == (0, 1)
        assert red.tolist() == [[1, 0, 1], [0, 1, 1], [0, 0, 0]]

    def test_rref_gf3_scaling(self):
        red, rk, piv = rref(MatrixF(GF3, [[2, 1]]))
        assert red.tolist() == [[1, 2]]
        assert (rk, piv) == (1, (0,))

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_rref_idempotent(self, m):
        red, rk, piv = rref(m)
        again, rk2, piv2 = rref(red)
        assert again == red and rk2 == rk and piv2 == piv

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_kernel_annihilates(self, m):
        k = kernel(m)
        assert k.dim == m.cols - rank(m)
        if k.dim and m.rows:
            prod = (m.array @ k.basis.array.T) % m.field.p
            assert not prod.any()

    def test_inverse(self):
        m = MatrixF(GF3, [[1, 1], [1, 2]])
        assert mul(m, inverse(m)).tolist() == [[1, 0], [0, 1]]
        with pytest.raises(ValueError):
            inverse(MatrixF(GF2, [[1, 1], [1, 1]]))
        with pytest.raises(DimensionMismatchError):
            inverse(MatrixF(GF2, [[1, 0]]))

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_complete_to_basis_fills_space(self, m):
        extra = complete_to_basis(m)
        stacked = MatrixF(m.field, np.vstack([m.array, extra.array]))
        assert rank(stacked) == m.cols
        assert rank(m) + extra.rows == m.cols


@st.composite
def large_matrices(draw):
    """Up to 40 x 60 over GF(2/3/7/257/8191): zero, tall, wide, square or any
    shape. 8191 is the largest field, where the int32 working dtype of the
    elimination has the least headroom.

    Entries come from a low-rank product (so pivots clear many rows at
    once), thinned to a drawn density, with a few columns forced fully
    nonzero.
    """
    p = draw(st.sampled_from((2, 3, 7, 257, 8191)))
    shape = draw(st.sampled_from(("zero", "tall", "wide", "square", "any")))
    rows, cols = {
        "tall": (draw(st.integers(20, 40)), draw(st.integers(1, 12))),
        "wide": (draw(st.integers(1, 12)), draw(st.integers(30, 60))),
        "square": (draw(st.integers(1, 40)),) * 2,
    }.get(shape, (draw(st.integers(0, 40)), draw(st.integers(0, 60))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if shape == "zero":
        return MatrixF(PrimeField(p), np.zeros((rows, cols), dtype=np.int64))
    k = draw(st.integers(1, 40))
    a = rng.integers(0, p, (rows, k)) @ rng.integers(0, p, (k, cols)) % p
    a = a * (rng.random((rows, cols)) < draw(st.sampled_from((0.1, 0.5, 1.0))))
    heavy = rng.choice(cols, size=min(cols, draw(st.integers(0, 3))), replace=False)
    a[:, heavy] = rng.integers(1, p, (rows, heavy.size))
    return MatrixF(PrimeField(p), a)


def reference_rref(m: MatrixF) -> tuple[np.ndarray, tuple[int, ...]]:
    """RREF and pivots from sympy's DomainMatrix over GF(p)."""
    p = m.field.p
    red, piv = sympy_matrix(m.array, p).rref()
    out = np.array([[int(x) % p for x in row] for row in red.to_list()], dtype=np.int64)
    return out.reshape(m.shape), tuple(piv)


class TestAgainstSympy:
    # rank answers a matrix of at most one row itself, for every field
    @settings(max_examples=60, deadline=None)
    @given(large_matrices())
    @example(MatrixF(PrimeField(5), np.zeros((0, 4))))
    @example(MatrixF(PrimeField(5), [[0, 3, 1, 4]]))
    @example(MatrixF(PrimeField(5), np.zeros((4, 0))))
    @example(MatrixF(PrimeField(7), np.zeros((0, 3))))
    @example(MatrixF(PrimeField(7), [[0, 0, 0]]))
    @example(MatrixF(PrimeField(7), np.zeros((3, 0))))
    @example(MatrixF(PrimeField(5), [[1, 2, 0, 4], [2, 4, 0, 3], [3, 1, 0, 2]]))
    @example(MatrixF(PrimeField(7), [[0, 3, 6, 1, 0], [0, 1, 2, 5, 0]]))
    def test_rref_rank_kernel_inverse(self, m):
        want, want_piv = reference_rref(m)
        red, rk, piv = rref(m)
        assert red.array.tolist() == want.tolist()
        assert (rk, piv) == (len(want_piv), want_piv)
        assert rank(m) == rk
        assert complete_to_basis(m).tolist() == [
            [int(j == i) for j in range(m.cols)] for i in range(m.cols) if i not in want_piv]

        p = m.field.p
        space = Subspace.spanned_by(m.field, m.cols, m)
        probes = [*m.array[:3], *np.eye(m.cols, dtype=np.int64)[:4],
                  (m.array[:2].sum(axis=0) + np.arange(m.cols)) % p]
        for v in probes:
            assert space.contains(v) == (sympy_rank(np.vstack([m.array, v]), p) == rk)

        k = kernel(m)
        assert k.dim == m.cols - rk
        assert not (m.array @ k.basis.array.T % m.field.p).any()

        if m.rows != m.cols:
            with pytest.raises(DimensionMismatchError):
                inverse(m)
        elif rk < m.rows:
            with pytest.raises(ValueError):
                inverse(m)
        else:
            inv = inverse(m).array
            eye = np.eye(m.rows, dtype=np.int64)
            assert (m.array @ inv % m.field.p).tolist() == eye.tolist()
            assert (inv @ m.array % m.field.p).tolist() == eye.tolist()


def bit_row_matrices(p):
    """Random GF(p) matrices, p = 2 or 3, of fixed and random shapes: no
    rows, no columns, one row, square, tall, wide, past a 64-bit word and
    on both sides of the codec switch at _SMALL_CELLS, each all-zero,
    sparse, half full and dense; with three or more rows, the last is the
    sum of the first two, so the rank falls short. The GF(2) cases keep
    their ids; the GF(3) ones are prefixed gf3-."""
    rng = np.random.default_rng(2718 if p == 2 else 3141)
    shapes = [(0, 0), (0, 6), (5, 0), (1, 1), (1, 9), (2, 2), (7, 7), (30, 8),
              (8, 30), (40, 70), (70, 40), (9, 130)]
    shapes += [(int(rng.integers(0, 40)), int(rng.integers(0, 90))) for _ in range(8)]
    if p == 3:
        cut = _SMALL_CELLS
        shapes += [(16, cut // 16), (16, cut // 16 + 1), (1, cut + 9), (2, cut), (3, 200)]
    for rows, cols in shapes:
        for density in (0.0, 0.06, 0.5, 0.94):
            a = (rng.random((rows, cols)) < density).astype(np.int64)
            if p == 3:
                a *= rng.integers(1, 3, (rows, cols))
            if rows > 2:
                a[-1] = (a[0] + a[1]) % p
            tag = "" if p == 2 else "gf3-"
            yield pytest.param(p, a, id=f"{tag}{rows}x{cols}-{density}")


def sympy_matrix(a: np.ndarray, p: int) -> DomainMatrix:
    k = GF(p)
    return DomainMatrix([[k(int(x)) for x in row] for row in a], a.shape, k)


def residue_list(dm: DomainMatrix, p: int) -> list[list[int]]:
    return [[int(x) % p for x in row] for row in dm.to_list()]


def behavior_systems():
    """The behavior system of each Tanner graph of the benchmark's tiny
    ladder (n = 24 and 36) over GF(2), and of two GF(3) ladder trellises
    shaped like the trellis-reduce documents, as the realization hands
    each to kernel."""
    graphs = [(2, f"tanner-n{n}", parity_check_realization(
        GF2, n, gallager_checks(random.Random(n), n))) for n in (24, 36)]
    graphs += [(3, f"gf3-trellis-n{n}", ladder_trellis(
        random.Random(f"bit-rows:{n}"), GF3, n)) for n in (32, 48)]
    for p, name, r in graphs:
        seen = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ncl.realization, "kernel", lambda m: seen.append(m) or kernel(m))
            r._behavior_code
        yield pytest.param(p, seen[0].array, id=name)


class TestGF2BitRows:
    """Over GF(2) and GF(3), _rref_array eliminates rows held as bit rows;
    it must give sympy's RREF and pivots, in uint8 over GF(2) and int32
    over GF(3), with the input's shape, on any shape. (The class keeps its
    GF(2) name so that the ids of its GF(2) cases stay as they were.)"""

    @staticmethod
    def check(a, p):
        red, piv = _rref_array(a, p)
        want, want_piv = reference_rref(MatrixF(PrimeField(p), a))
        assert red.dtype == (np.uint8 if p == 2 else np.int32)
        assert red.shape == a.shape
        assert red.tolist() == want.tolist()
        assert piv == list(want_piv)

    @pytest.mark.parametrize("p, a", [*bit_row_matrices(2), *bit_row_matrices(3),
                                      *behavior_systems()])
    def test_rref_array_matches_sympy(self, p, a):
        self.check(a, p)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 30), st.integers(0, 100), st.sampled_from((0.1, 0.5, 1.0)),
           st.integers(0, 2 ** 32 - 1))
    def test_gf3_shapes_match_sympy(self, rows, cols, density, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 3, (rows, cols)) * (rng.random((rows, cols)) < density)
        if rows > 2:
            a[-1] = (a[0] + 2 * a[1]) % 3
        self.check(a, 3)

    @pytest.mark.parametrize("p, a", [*bit_row_matrices(2), *bit_row_matrices(3)])
    def test_kernel_inverse_and_completion_match_sympy(self, p, a):
        field = PrimeField(p)
        m = MatrixF(field, a)
        dm = sympy_matrix(a, p)
        _, piv = dm.rref()
        rows, cols = a.shape
        assert complete_to_basis(m).tolist() == [
            [int(j == i) for j in range(cols)] for i in range(cols) if i not in piv]
        assert rank(m) == len(piv)
        null = dm.nullspace()
        want = residue_list(null.rref()[0], p) if null.shape[0] else []
        null_space = kernel(m)
        assert null_space.basis.tolist() == want
        assert_rows_kept(null_space)
        if rows == cols and len(piv) == rows:
            assert inverse(m).tolist() == residue_list(dm.inv(), p)
        elif rows == cols:
            with pytest.raises(ValueError):
                inverse(m)


@pytest.mark.parametrize("p, a", [case for case in [*bit_row_matrices(2), *bit_row_matrices(3)]
                                  if case.values[1].size])
def test_bit_rows_are_as_wide_as_the_matrix(p, a):
    """Under both codecs, either side of _SMALL_CELLS, a bit row of an
    ncols-column matrix has no bit past ncols, and _from_bit_rows gives
    back the nonzero rows, then zero rows. (_bit_rows takes nonempty
    matrices only.)"""
    rows = _bit_rows(a, p)
    assert all((x1 | x2).bit_length() <= a.shape[1] for x1, x2 in rows)
    nonzero = a[a.any(axis=1)]
    want = np.zeros_like(a)
    want[:len(nonzero)] = nonzero
    assert _from_bit_rows(rows, a.shape, p).tolist() == want.tolist()


def block_rank_cases():
    """Each bit_row_matrices case with column spans cut from it: a few
    disjoint spans and one of zero width. Each GF(3) case also gives a
    GF(5) and a GF(7) one: random nonzero residues where it is nonzero,
    the same spans, and again a last row that is the sum of the first two."""
    for case in [*bit_row_matrices(2), *bit_row_matrices(3)]:
        p, a = case.values
        n = a.shape[1]
        rng = np.random.default_rng(a.size + 7 * p)
        cuts = sorted(rng.integers(0, n + 1, 6).tolist())
        spans = [(lo, hi - lo) for lo, hi in zip(cuts[0::2], cuts[1::2])]
        spans.insert(int(rng.integers(0, 4)), (int(rng.integers(0, n + 1)), 0))
        yield pytest.param(p, a, spans, id=case.id)
        if p == 3:
            for q in (5, 7):
                b = np.where(a != 0, rng.integers(1, q, a.shape), 0)
                if a.shape[0] > 2:
                    b[-1] = (b[0] + b[1]) % q
                yield pytest.param(q, b, spans, id=f"gf{q}-{case.id[len('gf3-'):]}")


class TestBlockRank:
    """Subspace._block_rank masks the bit rows it keeps of its basis over
    GF(2) and GF(3), and ranks the sliced basis over GF(5) and GF(7); it
    must give sympy's rank of the basis's columns in the spans, and with
    off=True of the other columns, for these spans and for no spans. The
    cases reach both row codecs (test_cases_reach_both_codecs), no
    columns and the zero subspace."""

    @pytest.mark.parametrize("p, a, spans", block_rank_cases())
    def test_matches_sympy_rank_of_the_sliced_basis(self, p, a, spans):
        field = PrimeField(p)
        space = Subspace.spanned_by(field, a.shape[1], MatrixF(field, a))
        inside = np.zeros(a.shape[1], dtype=bool)
        for at, d in spans:
            inside[at:at + d] = True
        basis = space.basis.array
        assert space._block_rank(spans) == sympy_rank(basis[:, inside], p)
        assert space._block_rank(spans, off=True) == sympy_rank(basis[:, ~inside], p)
        assert space._block_rank([]) == 0
        assert space._block_rank([], off=True) == sympy_rank(basis, p)

    def test_cases_reach_both_codecs(self):
        shapes = set()
        for p, a, _ in (case.values for case in block_rank_cases()):
            dim = Subspace.spanned_by(PrimeField(p), a.shape[1], MatrixF(PrimeField(p), a)).dim
            shapes.add((p, dim == 0, dim * a.shape[1] > _SMALL_CELLS, a.shape[1] % 8 == 0))
        assert {(p, True) for p in (2, 3)} <= {s[:2] for s in shapes}
        assert {(p, False, big, whole) for p in (2, 3) for big in (False, True)
                for whole in (False, True)} <= shapes


class TestWorkingDtype:
    P = 8191

    @pytest.mark.parametrize("shape", [(4, 5), (6, 6)])
    def test_every_entry_p_minus_one_at_the_largest_field(self, shape):
        m = MatrixF(PrimeField(self.P), np.full(shape, self.P - 1))
        want, want_piv = reference_rref(m)
        red, rk, piv = rref(m)
        assert red.array.tolist() == want.tolist()
        assert (rk, piv) == (len(want_piv), want_piv) == (1, (0,))
        k = kernel(m)
        assert k.dim == shape[1] - 1
        assert not (m.array @ k.basis.array.T % self.P).any()

    def test_largest_products_at_the_largest_field(self):
        # p - 1 off the diagonal and 1 on it: after the first pivot every
        # update multiplies entries near p - 1
        p = self.P
        a = np.full((6, 6), p - 1)
        np.fill_diagonal(a, 1)
        m = MatrixF(PrimeField(p), a)
        want, want_piv = reference_rref(m)
        red, rk, piv = rref(m)
        assert red.array.tolist() == want.tolist()
        assert (rk, piv) == (len(want_piv), want_piv)

    @pytest.mark.parametrize("p", [2, 3, 8191])
    def test_public_results_are_int64(self, p):
        m = MatrixF(PrimeField(p), [[1, 1, 0], [0, 1, 1]])
        assert rref(m)[0].array.dtype == np.int64
        assert kernel(m).basis.array.dtype == np.int64
        assert Subspace.spanned_by(m.field, 3, m).orthogonal().basis.array.dtype == np.int64
        assert _rref_array(m.array, p)[0].dtype == _work_dtype(p)
        assert _work_dtype(p) == (np.uint8 if p == 2 else np.int32)


def group_ranks(a, index, p):
    """The rank of each group by the 2-D `rank` of its columns, the pads
    a.shape[1] dropped, and by sympy; the two must agree."""
    field, want = PrimeField(p), []
    for row in index:
        cols = a[:, [c for c in row if c != a.shape[1]]]
        want.append(rank(MatrixF(field, cols)))
        assert want[-1] == sympy_rank(cols, p)
    return want


class TestStackedRanks:
    """ranks(a, index, p) ranks each row's column group of one basis; the
    index a.shape[1] reads a zero column, wherever it stands in a row."""

    @pytest.mark.parametrize("p", [2, 3, 7, 257, 8191])
    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_shapes_match_rref_and_sympy(self, p, seed):
        rng = np.random.default_rng(1000 * p + seed)
        rows, cols = int(rng.integers(0, 8)), int(rng.integers(0, 11))
        a = rng.integers(0, p, (rows, cols))
        if rows > 2:
            # a dependent row and a zero row, so ranks below min(rows, width) occur
            a[-1] = (a[0] * int(rng.integers(0, p)) + a[1]) % p
            a[int(rng.integers(0, rows - 1))] = 0
        width = int(rng.integers(0, 7))
        index = np.full((int(rng.integers(1, 12)), width), cols, dtype=np.intp)
        for row in index:
            k = int(rng.integers(0, min(width, cols) + 1))
            row[rng.choice(width, k, replace=False)] = rng.choice(cols, k, replace=False)
        before = a.copy()
        assert ranks(a, index, p).tolist() == group_ranks(a, index, p)
        assert np.array_equal(a, before)

    def test_empty_stack(self):
        a = np.array([[1, 2, 0], [0, 1, 1]])
        for width in (0, 3):
            assert ranks(a, np.zeros((0, width), dtype=np.intp), 3).tolist() == []
        assert ranks(a, np.zeros((2, 0), dtype=np.intp), 3).tolist() == [0, 0]

    @pytest.mark.parametrize("shape", [(0, 5), (4, 0), (0, 0)])
    def test_no_rows_or_no_columns(self, shape):
        a = np.zeros(shape, dtype=np.int64)
        index = np.full((2, 3), shape[1], dtype=np.intp)
        index[0, :min(3, shape[1])] = range(min(3, shape[1]))
        assert ranks(a, index, 5).tolist() == [0, 0] == group_ranks(a, index, 5)

    @pytest.mark.parametrize("p", [2, 3, 7, 257, 8191])
    def test_group_of_pad_entries_only(self, p):
        a = np.array([[1, 0, 2 % p], [0, 1, 1], [1, 1, 0]])
        index = np.array([[3, 3], [0, 2], [3, 1], [3, 3]])
        assert ranks(a, index, p).tolist() == [0, 2, 1, 0] == group_ranks(a, index, p)

    @pytest.mark.parametrize("p", [2, 7])
    def test_one_matrix_full_before_the_others(self, p):
        # the first group has its three pivots in its columns 0-2; the
        # second needs its columns 3 and 4; the third is a zero block
        early = np.array([[1, 0, 0, 1, 1], [0, 1, 0, 0, 1], [0, 0, 1, 1, 0]])
        late = np.array([[0, 0, 0, 1, 1], [0, 0, 0, 0, 1], [0, 0, 0, 1, 0]])
        a = np.hstack([early, late, np.zeros((3, 5), dtype=np.int64)])
        index = np.arange(15).reshape(3, 5)
        got = ranks(a, index, p)
        assert got.tolist() == [3, 2, 0] == group_ranks(a, index, p)
        assert got.tolist() == [len(_rref_array(a[:, g], p)[1]) for g in index]


class TestSubspace:
    def test_canonical_enforced(self):
        with pytest.raises(ValueError):
            Subspace(GF2, 2, MatrixF(GF2, [[0, 1], [1, 0]]))
        with pytest.raises(ValueError):
            Subspace(GF2, 2, MatrixF(GF2, [[0, 0]]))
        with pytest.raises(ValueError):
            Subspace(GF3, 2, MatrixF(GF3, [[2, 0]]))

    def test_spanned_by_canonicalizes(self):
        s = Subspace.spanned_by(GF2, 3, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert s.basis.tolist() == [[1, 0, 1], [0, 1, 1]]
        assert s.pivots == (0, 1)

    def test_contains(self):
        s = Subspace.spanned_by(GF3, 3, [[1, 0, 2], [0, 1, 1]])
        assert s.contains([1, 1, 0])
        assert not s.contains([0, 0, 1])
        with pytest.raises(DimensionMismatchError):
            s.contains([1, 0])

    def test_zero_and_full(self):
        assert zero_space(GF2, 3).dim == 0
        assert full_space(GF2, 3).dim == 3
        assert zero_space(GF2, 0) == full_space(GF2, 0)

    @settings(max_examples=60, deadline=None)
    @given(matrices(), st.data())
    def test_modular_dimension_law(self, m, data):
        a = Subspace.spanned_by(m.field, m.cols, m)
        rows2 = data.draw(st.lists(
            st.lists(st.integers(0, m.field.p - 1), min_size=m.cols, max_size=m.cols),
            min_size=0, max_size=4))
        b = Subspace.spanned_by(m.field, m.cols, rows2)
        assert a.sum(b).dim + a.intersect(b).dim == a.dim + b.dim

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_double_orthogonal(self, m):
        s = Subspace.spanned_by(m.field, m.cols, m)
        assert s.orthogonal().orthogonal() == s
        assert s.dim + s.orthogonal().dim == s.ambient

    def test_mate_checks(self):
        a = zero_space(GF2, 2)
        with pytest.raises(FieldMismatchError):
            a.sum(zero_space(GF3, 2))
        with pytest.raises(DimensionMismatchError):
            a.intersect(zero_space(GF2, 3))

    def test_spanned_by_rejects_rows_of_another_width(self):
        with pytest.raises(DimensionMismatchError, match=r"^rows have width 2, ambient 3$"):
            Subspace.spanned_by(GF2, 3, MatrixF(GF2, [[1, 0]]))

    def test_spanned_by_rejects_rows_over_another_field(self):
        # 5 is no residue mod 3: the rows would become a GF(3) basis as they are
        with pytest.raises(FieldMismatchError):
            Subspace.spanned_by(GF3, 2, MatrixF(PrimeField(7), [[1, 5]]))


class TestTrustedConstruction:
    """Subspaces built from an elimination skip the % p copy and the
    canonical check; the public constructors keep both."""

    @pytest.mark.parametrize("p", [2, 3, 7, 8191])
    def test_spanned_by_equals_the_checking_constructor(self, p):
        field = PrimeField(p)
        rng = np.random.default_rng(p)
        for _ in range(60):
            rows, cols = int(rng.integers(0, 7)), int(rng.integers(0, 8))
            a = rng.integers(0, p, (rows, cols))
            if rows and rng.random() < 0.4:
                a[int(rng.integers(rows))] = 0
            if cols and rng.random() < 0.4:
                a[:, int(rng.integers(cols))] = 0
            s = Subspace.spanned_by(field, cols, MatrixF(field, a))
            checked = Subspace(field, cols, MatrixF(field, s.basis.array.copy()))
            assert s == checked
            assert s.pivots == checked.pivots
            if p <= 3:  # the check's RREF is the engine's, bit rows and all
                assert_rows_kept(checked)
            for m in (s.basis.array, rref(MatrixF(field, a))[0].array):
                assert m.dtype == np.int64
                assert not m.flags.writeable
                assert ((0 <= m) & (m < p)).all()

    def test_subspaces_an_elimination_builds_are_canonical(self):
        rng = np.random.default_rng(11)
        for p in (2, 3, 7):
            field = PrimeField(p)
            for _ in range(20):
                m = MatrixF(field, rng.integers(0, p, (4, 6)))
                s = Subspace.spanned_by(field, 6, m)
                for built in (kernel(m), s.orthogonal(), s.sum(kernel(m)), s.intersect(kernel(m))):
                    assert built == Subspace(field, 6, MatrixF(field, built.basis.array))

    def test_public_constructor_still_rejects_non_canonical_bases(self):
        # rref's own matrix keeps its zero rows, so it is no basis
        red, rk, _ = rref(MatrixF(GF3, [[1, 2, 0], [2, 1, 0]]))
        assert rk == 1
        with pytest.raises(ValueError):
            Subspace(GF3, 3, red)
        s = Subspace.spanned_by(GF3, 3, [[1, 0, 2], [0, 1, 1]])
        for bad in (s.basis.array[::-1], 2 * s.basis.array,
                    s.basis.array + np.array([[0, 1, 0], [0, 0, 0]])):
            with pytest.raises(ValueError):
                Subspace(GF3, 3, MatrixF(GF3, bad))
