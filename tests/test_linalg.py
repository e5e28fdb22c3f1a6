"""Exact linear algebra over prime fields."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix
from helpers import subspaces

from beilinson import linalg, reps
from beilinson.emod import forget, hom_modules
from beilinson.linalg import (
    DimensionMismatch,
    FpMatrix,
    batched_rank,
    check_modulus,
    combine,
    image_basis,
    kernel_basis,
    matmul,
    quotient_projection,
    rank,
    solve_matrix,
)


class TestPrimeField:
    """The modulus check behind every matrix, point and module: check_modulus."""

    def test_accepts_primes(self):
        for p in (2, 3, 5, 7, 11, 101):
            assert check_modulus(p) is None

    def test_rejects_composites_and_units(self):
        for bad in (0, 1, 4, 6, 9, 100):
            with pytest.raises(ValueError):
                check_modulus(bad)
        with pytest.raises(ValueError):
            FpMatrix(4, [[1]])

    def test_moduli_from_2_to_31_refused(self):
        # 2^31 + 11 is prime, but elimination products wrap in int64 there
        with pytest.raises(ValueError, match="2\\^31"):
            FpMatrix(2**31 + 11, [[1, 2], [3, 4]])
        with pytest.raises(ValueError, match="2\\^31"):
            check_modulus(2**31 + 11)
        # a Mersenne prime: trial division would take minutes, the bound is instant
        with pytest.raises(ValueError, match="2\\^31"):
            check_modulus(2**61 - 1)
        with pytest.raises(ValueError, match="not an integer"):
            FpMatrix(5.0, [[1]])
        assert FpMatrix(2**31 - 1, [[2**31]]).a.tolist() == [[1]]
        assert check_modulus(2**31 - 1) is None


class TestFpMatrix:
    def test_entries_reduced_mod_p(self):
        m = FpMatrix(5, [[7, -1], [10, 3]])
        assert m.tolist() == [2, 4, 0, 3]  # flat row-major

    def test_matmul_matches_integer_arithmetic(self):
        a = FpMatrix(7, [[1, 2], [3, 4]])
        b = FpMatrix(7, [[5, 6], [0, 1]])
        prod = (np.array([[1, 2], [3, 4]]) @ np.array([[5, 6], [0, 1]])) % 7
        assert (a @ b).tolist() == list(prod.reshape(-1))

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            FpMatrix(5, [[1, 2]]) @ FpMatrix(5, [[1, 2]])
        with pytest.raises(ValueError):
            FpMatrix(5, [[1]]) + FpMatrix(3, [[1]])

    def test_identity_neutral(self):
        a = FpMatrix(11, [[3, 1, 4], [1, 5, 9]])
        assert a @ FpMatrix.identity(11, 3) == a
        assert FpMatrix.identity(11, 2) @ a == a

    def test_immutable(self):
        a = FpMatrix(5, [[1, 2]])
        with pytest.raises(ValueError):
            a.a[0, 0] = 3

    def test_variadic_stacks_match_numpy(self):
        rng = np.random.default_rng(3)
        blocks = [rng.integers(0, 7, size=(3, k)) for k in (2, 0, 4)]
        wide = [FpMatrix(7, b) for b in blocks]
        tall = [m.transpose() for m in wide]
        assert np.array_equal(FpMatrix.hstack(*wide).a, np.hstack(blocks))
        assert np.array_equal(FpMatrix.vstack(*tall).a, np.vstack([b.T for b in blocks]))
        assert wide[0].hstack() == wide[0] == tall[0].vstack().transpose()

    @pytest.mark.parametrize("bad", range(3))
    def test_variadic_stacks_check_every_operand(self, bad):
        for odd in (FpMatrix.zeros(7, 4, 4), FpMatrix.zeros(5, 3, 3)):
            wide = [FpMatrix.zeros(7, 3, 2)] * 3
            tall = [FpMatrix.zeros(7, 2, 3)] * 3
            wide[bad], tall[bad] = odd, odd
            with pytest.raises(DimensionMismatch):
                FpMatrix.hstack(*wide)
            with pytest.raises(DimensionMismatch):
                FpMatrix.vstack(*tall)

    def test_hashable_and_equal(self):
        a = FpMatrix(5, [[1, 2]])
        b = FpMatrix(5, [[6, 7]])
        assert a == b and hash(a) == hash(b)

    def test_matmul_exact_at_largest_int32_prime(self):
        # 3 (p-1)^2 exceeds 2^63, so the sum must be reduced part-way
        p = 2**31 - 1
        a = FpMatrix(p, [[p - 1] * 3] * 3)
        assert (a @ a).a.tolist() == [[3] * 3] * 3

    def test_matmul_stacked_matches_python_integers(self):
        p = 2**31 - 1
        rng = np.random.default_rng(5)
        a = p - 1 - rng.integers(0, 4, size=(2, 3, 7))
        b = p - 1 - rng.integers(0, 4, size=(2, 7, 4))
        expected = [
            [[sum(int(a[s, i, k]) * int(b[s, k, j]) for k in range(7)) % p for j in range(4)]
             for i in range(3)]
            for s in range(2)
        ]
        assert matmul(a, b, p).tolist() == expected


def integer_product(a, b, p):
    """a @ b mod p in Python integers (object arrays): the oracle for the
    float64 products."""
    return (np.asarray(a, dtype=object) @ np.asarray(b, dtype=object)) % p


class TestMatmulFloatExactness:
    """matmul runs on float64 BLAS: one limb while every partial sum stays
    below 2^53, base-2^s limbs of b past it, inner chunks past 2^53 / (p-1)."""

    P25 = 2**25 - 39  # 8 (p-1)^2 <= 2^53 < 9 (p-1)^2

    @pytest.mark.parametrize("inner,limbs", [(7, 1), (8, 1), (9, 2)])
    def test_boundary_near_two_to_the_25(self, inner, limbs):
        p = self.P25
        assert linalg._limbs(p, inner)[:2] == (inner, limbs)
        top = np.full((3, inner), p - 1, dtype=np.int64)
        assert matmul(top, top.T.copy(), p).tolist() == [[inner % p] * 3] * 3
        # odd entries near the top: a sum past 2^53 in one limb would round
        rng = np.random.default_rng(inner)
        a = p - 1 - rng.integers(0, 9, size=(4, 3, inner))
        b = p - 1 - rng.integers(0, 9, size=(4, inner, 5))
        assert matmul(a, b, p).tolist() == integer_product(a, b, p).tolist()

    @pytest.mark.parametrize("p,inner,limbs", [
        (7, 2100, 1), (65521, 2100, 1), (P25, 64, 2), (2**31 - 1, 1, 2),
        (2**31 - 1, 64, 2), (2**31 - 1, 100, 3), (2**31 - 1, 2100, 4)])
    def test_random_stacks_at_each_limb_count(self, p, inner, limbs):
        assert linalg._limbs(p, inner)[:2] == (inner, limbs)
        rng = np.random.default_rng(inner + limbs)
        stacks = rng.integers(0, p, size=(2, 3, inner)), rng.integers(0, p, size=(2, inner, 2))
        near_top = (p - 1 - rng.integers(0, 3, size=(3, inner)),
                    p - 1 - rng.integers(0, 3, size=(inner, 2)))
        for a, b in (stacks, near_top):
            assert matmul(a, b, p).tolist() == integer_product(a, b, p).tolist()

    def test_every_limb_count_and_inner_chunks(self, monkeypatch):
        # with the float bound lowered to 2^40, small products take every
        # limb count that 31-bit entries allow, and inner chunks; the float
        # products stay exact, so the recombination must be too
        monkeypatch.setattr(linalg, "_FLOAT_EXACT", 2**40)
        linalg._limbs.cache_clear()
        try:
            rng = np.random.default_rng(40)
            seen, chunked = set(), False
            for p in ORACLE_PRIMES + (self.P25, 2**31 - 1):
                for inner in (0, 1, 2, 3, 5, 9, 17, 33, 65, 129, 257, 513, 1100):
                    step, limbs, _ = linalg._limbs(p, inner)
                    if p == 2**31 - 1:
                        seen.add(limbs)
                    chunked |= step < inner
                    a = rng.integers(0, p, size=(2, 2, inner))
                    b = p - 1 - rng.integers(0, 2, size=(2, inner, 3))
                    assert matmul(a, b, p).tolist() == integer_product(a, b, p).tolist()
            # 4, 5, 6, 7, 8, 11, 16 and 31 limbs; 1 to 4 at the true bound above
            assert seen == {-(-31 // s) for s in range(1, 10)} and chunked
        finally:
            monkeypatch.undo()
            linalg._limbs.cache_clear()


class TestCombine:
    def test_matches_python_integers(self):
        # near the top of the int64 range, stacked coefficients, one zero term
        p = 2**31 - 1
        rng = np.random.default_rng(11)
        mats = p - 1 - rng.integers(0, 3, size=(4, 2, 3))
        coeffs = p - 1 - rng.integers(0, 3, size=(5, 4))
        coeffs[:, 2] = 0
        expected = [[[sum(int(c[l]) * int(mats[l, i, j]) for l in range(4)) % p
                      for j in range(3)] for i in range(2)] for c in coeffs]
        assert combine(coeffs, mats, p).tolist() == expected
        assert combine(coeffs[0], list(mats), p).tolist() == expected[0]

    def test_length_mismatch_raises(self):
        mats = [np.eye(2, dtype=np.int64) * k for k in (1, 2, 3)]
        assert combine((1, 1, 1), mats, 7).tolist() == [[6, 0], [0, 6]]
        for coeffs in ((1, 1), (1, 1, 1, 5), ()):
            with pytest.raises(DimensionMismatch):
                combine(coeffs, mats, 7)

    def test_zero_size_steps(self):
        # a step into or out of a zero-dimensional vertex has no entries
        for shape in ((0, 3), (3, 0), (0, 0)):
            mats = np.zeros((2,) + shape, dtype=np.int64)
            assert combine(np.ones((4, 2), dtype=np.int64), mats, 5).shape == (4,) + shape


class TestRank:
    def test_known_ranks(self):
        assert rank(FpMatrix(5, [[1, 2], [2, 4]])) == 1
        assert rank(FpMatrix(5, [[1, 0], [0, 1]])) == 2
        assert rank(FpMatrix.zeros(5, 3, 4)) == 0

    def test_rank_depends_on_characteristic(self):
        rows = [[1, 1], [1, -1]]
        assert rank(FpMatrix(2, rows)) == 1
        assert rank(FpMatrix(3, rows)) == 2

    @given(st.integers(0, 3 ** 9 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_rank_transpose_invariant(self, seedval):
        digits = [(seedval // 3 ** k) % 3 for k in range(9)]
        m = FpMatrix(3, [digits[0:3], digits[3:6], digits[6:9]])
        assert rank(m) == rank(m.transpose())

    @given(st.integers(0, 2 ** 12 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_rank_nullity(self, seedval):
        digits = [(seedval >> k) & 1 for k in range(12)]
        m = FpMatrix(2, [digits[0:4], digits[4:8], digits[8:12]])
        assert rank(m) + kernel_basis(m).cols == 4

    def test_row_permutation_invariant(self):
        m = FpMatrix(7, [[1, 2, 3], [4, 5, 6], [0, 0, 1]])
        perm = FpMatrix(7, [[0, 0, 1], [4, 5, 6], [1, 2, 3]])
        assert rank(m) == rank(perm)


ORACLE_PRIMES = (2, 3, 5, 7, 101, 65521)


def sympy_matrix(a, p):
    """a as a sympy DomainMatrix over GF(p), independent of this package."""
    field = GF(p)
    return DomainMatrix([[field(int(x)) for x in row] for row in a.tolist()], a.shape, field)


def sympy_rank(a, p):
    """Rank over GF(p) by sympy's DomainMatrix."""
    return sympy_matrix(a, p).rank()


def sympy_rref(a, p):
    """(RREF as an int64 array in [0, p), pivot column list) over GF(p) by
    sympy's DomainMatrix.rref()."""
    ech, pivots = sympy_matrix(a, p).rref()
    return sympy_array(ech, p), list(pivots)


def sympy_array(m, p):
    """The sympy DomainMatrix m over GF(p) as an int64 array in [0, p)."""
    return np.array([[int(x) % p for x in row] for row in m.to_list()],
                    dtype=np.int64).reshape(m.shape)


def sympy_product(a, b, p):
    """a @ b over GF(p) by sympy, as an int64 array with entries in [0, p)."""
    return sympy_array(sympy_matrix(a, p).matmul(sympy_matrix(b, p)), p)


def sympy_sparse_kernel(shape, r, c, values, p):
    """The kernel basis of the matrix with entries values at (r, c), as
    columns, read off sympy's sparse-format RREF: for each free column f,
    e_f minus column f of the pivot rows."""
    field = GF(p)
    entries = {}
    for i, j, x in zip(r.tolist(), c.tolist(), values.tolist()):
        entries.setdefault(i, {})[j] = field(x)
    ech, pivots = DomainMatrix(entries, shape, field).rref()
    free = {f: k for k, f in enumerate(sorted(set(range(shape[1])) - set(pivots)))}
    basis = np.zeros((shape[1], len(free)), dtype=np.int64)
    for f, k in free.items():
        basis[f, k] = 1
    for t, row in ech.to_dod().items():
        for j, x in row.items():
            if j in free:
                basis[pivots[t], free[j]] = -int(x) % p
    return basis


def low_rank(rng, p, rows, cols, zeroed=0.1):
    """A product of random factors through a random inner dimension, with
    about a zeroed share of its rows and of its columns set to zero."""
    k = int(rng.integers(0, min(rows, cols) + 1))
    a = (rng.integers(0, p, size=(rows, k)) @ rng.integers(0, p, size=(k, cols))) % p
    a[rng.random(rows) < zeroed] = 0
    a[:, rng.random(cols) < zeroed] = 0
    return a


@st.composite
def low_rank_stacks(draw, max_count=8, max_side=12):
    """(p, stack): up to max_count low-rank matrices of one shape up to
    max_side x max_side.  The stack may be empty or all zero, and each
    matrix zeroes its own rows and columns, so the zero lines differ from
    matrix to matrix."""
    p = draw(st.sampled_from(ORACLE_PRIMES))
    count = draw(st.integers(0, max_count))
    rows, cols = draw(st.integers(0, max_side)), draw(st.integers(0, max_side))
    zeroed = draw(st.sampled_from((0.1, 0.5, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = [low_rank(rng, p, rows, cols, zeroed) for _ in range(count)]
    return p, np.array(mats, dtype=np.int64).reshape(count, rows, cols)


# zero rows and columns that differ from matrix to matrix; only the last
# row and the last two columns are zero in all three
STAGGERED = np.zeros((3, 4, 5), dtype=np.int64)
STAGGERED[0, [0, 2], 1] = 1, 2
STAGGERED[1, [0, 1], [0, 2]] = 3, 4
STAGGERED[2, 2, [0, 1]] = 5, 6
DEGENERATE_STACKS = (
    (7, np.zeros((0, 4, 3), dtype=np.int64)),  # B = 0
    (7, np.zeros((3, 0, 5), dtype=np.int64)),  # a side of length 0
    (5, np.zeros((3, 4, 0), dtype=np.int64)),
    (3, np.zeros((4, 3, 5), dtype=np.int64)),  # all zero
    (7, STAGGERED),
    (7, STAGGERED.transpose(0, 2, 1)),
)


# 40x40 stacks with no zeroed lines, which the derandomized draws rarely
# reach: one random matrix (full rank but for chance) and three low-rank ones
FULL_SIZE_STACKS = tuple(
    (p, np.array([rng.integers(0, p, size=(40, 40))]
                 + [low_rank(rng, p, 40, 40, zeroed=0.0) for _ in range(3)]))
    for p, rng in ((2, np.random.default_rng(40)), (65521, np.random.default_rng(41)))
)


def with_degenerate_stacks(test):
    for case in DEGENERATE_STACKS:
        test = example(case)(test)
    return test


@st.composite
def low_rank_systems(draw):
    """(p, a, b): a low-rank matrix a up to 12x12 and a right-hand side b
    with up to 4 columns, either a times a random matrix (consistent) or
    random (mostly inconsistent when a is rank-deficient)."""
    p = draw(st.sampled_from(ORACLE_PRIMES))
    rows, cols, k = draw(st.integers(0, 12)), draw(st.integers(0, 12)), draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = low_rank(rng, p, rows, cols)
    if draw(st.booleans()):
        b = (a @ rng.integers(0, p, size=(cols, k))) % p
    else:
        b = rng.integers(0, p, size=(rows, k))
    return p, a, b


class TestRankOracle:
    @given(low_rank_stacks())
    @with_degenerate_stacks
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_rank_matches_sympy_and_rref(self, case):
        p, stack = case
        for a in stack:
            expected = sympy_rank(a, p)
            free, _, sub = linalg._rref(a, p)
            assert a.shape[1] - free.size + len(sub) == expected
            assert rank(FpMatrix(p, a)) == expected

    @given(low_rank_stacks())
    @with_degenerate_stacks
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_batched_rank_matches_sympy(self, case):
        p, stack = case
        expected = [sympy_rank(a, p) for a in stack]
        ranks = batched_rank(stack, p)
        assert ranks.shape == (len(stack),)
        assert ranks.tolist() == expected

    @given(low_rank_stacks(max_count=4, max_side=40))
    @example(FULL_SIZE_STACKS[0])
    @example(FULL_SIZE_STACKS[1])
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_both_ranks_match_sympy_up_to_40x40(self, case):
        p, stack = case
        expected = [sympy_rank(a, p) for a in stack]
        assert [rank(FpMatrix(p, a)) for a in stack] == expected
        assert batched_rank(stack, p).tolist() == expected

    def test_batched_rank_leaves_input_unchanged(self):
        stack = np.array([[[1, 2], [3, 4]], [[0, 0], [5, 6]]], dtype=np.int64)
        before = stack.copy()
        assert batched_rank(stack, 7).tolist() == [2, 1]
        assert np.array_equal(stack, before)

    def test_rank_near_the_int64_limit(self):
        # the last step of a full-rank 3x3 elimination multiplies entries
        # near p; int64 stays exact because every step reduces mod p
        p = 2**31 - 1
        a = np.array([[p - 1, p - 2, 1], [p - 3, 2, p - 1], [5, p - 1, p - 7]])
        expected = sympy_rank(a, p)
        assert rank(FpMatrix(p, a)) == expected
        assert batched_rank(a[None], p).tolist() == [expected]


class TestKernelOracle:
    """The back-substituting kernels against sympy over GF(p)."""

    # the three structured cases of solve_matrix: a column of b forced by a
    # singleton row (inconsistent), a remainder pivot in b (inconsistent),
    # and a consistent system whose first unknown is forced
    SOLVE_EXAMPLES = (
        (7, np.array([[0]]), np.array([[1]])),
        (5, np.array([[1], [1]]), np.array([[1], [2]])),
        (7, np.array([[3, 0, 0], [0, 1, 2], [0, 2, 1]]), np.array([[0, 0], [1, 4], [2, 3]])),
    )

    @given(low_rank_systems())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_kernel_basis(self, case):
        p, a, _ = case
        k = kernel_basis(FpMatrix(p, a))
        assert k.a.shape == (a.shape[1], a.shape[1] - sympy_rank(a, p))
        assert not sympy_product(a, k.a, p).any()
        assert sympy_rank(k.a, p) == k.cols

    @given(low_rank_systems())
    @example(SOLVE_EXAMPLES[0])
    @example(SOLVE_EXAMPLES[1])
    @example(SOLVE_EXAMPLES[2])
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_solve_matrix(self, case):
        p, a, b = case
        consistent = sympy_rank(a, p) == sympy_rank(np.hstack([a, b]), p)
        x = solve_matrix(FpMatrix(p, a), FpMatrix(p, b))
        assert (x is not None) == consistent
        if x is not None:
            assert x.a.shape == (a.shape[1], b.shape[1])
            assert np.array_equal(sympy_product(a, x.a, p), b)

    @given(low_rank_systems())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_quotient_projection(self, case):
        # pi kills span U and has rank N - rank U, so ker pi = span U
        p, u, _ = case
        n, rk = u.shape[0], sympy_rank(u, p)
        pi, complement = quotient_projection(FpMatrix(p, u))
        assert pi.a.shape == (n - rk, n) and len(complement) == n - rk
        assert not sympy_product(pi.a, u, p).any()
        assert sympy_rank(pi.a, p) == n - rk

    @given(low_rank_systems())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_image_basis(self, case):
        p, a, _ = case
        rk = sympy_rank(a, p)
        img = image_basis(FpMatrix(p, a))
        assert img.a.shape == (a.shape[0], rk)
        assert sympy_rank(img.a, p) == rk == sympy_rank(np.hstack([a, img.a]), p)

    @given(st.sampled_from(ORACLE_PRIMES + (2**31 - 1,)), st.integers(0, 12),
           st.integers(0, 12), st.integers(0, 12), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_matmul(self, p, rows, inner, cols, near_top, seed):
        rng = np.random.default_rng(seed)
        if near_top:  # entries near p - 1, the largest products
            a = p - 1 - rng.integers(0, 2, size=(rows, inner))
            b = p - 1 - rng.integers(0, 2, size=(inner, cols))
        else:
            a = rng.integers(0, p, size=(rows, inner))
            b = rng.integers(0, p, size=(inner, cols))
        prod = FpMatrix(p, a) @ FpMatrix(p, b)
        assert np.array_equal(prod.a, sympy_product(a, b, p))


@st.composite
def sparse_systems(draw):
    """(p, a): up to 22 x 17, rows and columns shuffled: a singleton chain
    (row k has nonzeros in columns c_{k-1} and c_k only, so c_k is forced in
    round k + 1), rows with one or two nonzeros, a dense block (rows with
    three or more nonzeros, left to the column loop), repeated rows, zero
    rows and zero columns."""
    p = draw(st.sampled_from(ORACLE_PRIMES + (2**31 - 1,)))
    cols = draw(st.integers(1, 14))
    chain, sparse, dense, repeated, zero_rows, zero_cols = (
        draw(st.integers(0, k)) for k in (min(cols, 5), 8, 4, 3, 2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = np.zeros((chain + sparse + dense, cols + zero_cols), dtype=np.int64)
    order = rng.permutation(cols)
    for k in range(chain):
        a[k, order[max(k - 1, 0):k + 1]] = rng.integers(1, p, size=min(k, 1) + 1)
    for k in range(chain, chain + sparse):
        size = int(rng.integers(1, min(cols, 2) + 1))
        a[k, rng.choice(cols, size=size, replace=False)] = rng.integers(1, p, size=size)
    block = rng.choice(cols, size=min(cols, int(rng.integers(3, 7))), replace=False)
    a[chain + sparse:, block] = rng.integers(1, p, size=(dense, block.size))
    a = np.vstack([a, a[rng.integers(0, len(a), size=repeated if len(a) else 0)],
                   np.zeros((zero_rows, a.shape[1]), dtype=np.int64)])
    return p, a[rng.permutation(len(a))][:, rng.permutation(a.shape[1])]


class TestRrefOracle:
    """The structured RREF of _rref, entry for entry, against sympy's
    DomainMatrix.rref(): forced and remainder pivots together are sympy's
    pivots, sympy's row of a forced pivot is its unit vector, and its row
    of the k-th remainder pivot is m[k] on the free columns and 0 on the
    forced ones."""

    @given(sparse_systems())
    @example((7, np.zeros((0, 5), dtype=np.int64)))
    @example((7, np.zeros((4, 0), dtype=np.int64)))
    @example((5, np.zeros((3, 4), dtype=np.int64)))
    @example((7, np.array([[0, 3, 0, 0], [0, 0, 0, 2], [0, 5, 0, 0], [6, 0, 0, 0]])))
    @example((2**31 - 1, np.eye(6, dtype=np.int64)))
    @example((3, np.eye(6, dtype=np.int64) + np.eye(6, k=-1, dtype=np.int64)))  # six rounds
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_rref_matches_sympy(self, case):
        p, a = case
        free, m, sub = linalg._rref(a, p)
        ech, want = sympy_rref(a, p)
        remainder = free[sub].tolist()
        forced = np.ones(a.shape[1], dtype=bool)
        forced[free] = False
        assert sorted(np.flatnonzero(forced).tolist() + remainder) == want
        assert m.shape[1] == free.size
        for t, j in enumerate(want):
            if j in remainder:
                k = remainder.index(j)
                assert np.array_equal(ech[t, free], m[k]) and not ech[t, forced].any()
            else:
                assert forced[j] and ech[t].tolist() == [int(c == j) for c in range(a.shape[1])]
        assert not m[len(sub):].any() and not ech[len(want):].any()

    @pytest.mark.parametrize("args, shape", [((5, 3, 3, 4, 3), (1083, 361)),
                                             ((7, 3, 4, 4, 3), (4624, 1156))],
                             ids=["W(5,3,3,4,3)", "W(7,3,4,4,3)"])
    def test_end_system_kernel_matches_sparse_rref(self, args, shape, monkeypatch):
        w = forget(reps.w_module(*args))
        assert_kernel_matches_sparse_rref(monkeypatch, lambda: hom_modules(w, w), shape)

    def test_x_alpha_system_kernel_matches_sparse_rref(self, monkeypatch):
        # a Hom(X_alpha, M) system of the hom route: no row is a singleton,
        # so nothing is forced and the remainder is the whole system
        x = reps.x_module(7, 3, 4, reps.ProjPoint(7, (1, 2, 3, 4)), 0)
        w = reps.w_module(7, 3, 4, 5, 3)
        assert_kernel_matches_sparse_rref(monkeypatch, lambda: reps.hom_space(x, w), (200, 155))


def assert_kernel_matches_sparse_rref(monkeypatch, solve, shape):
    """Runs solve, which must build one Hom system, capturing the
    coordinates _intertwiners sends to coordinate_kernel, and checks the
    system's shape and its kernel basis against sympy's sparse RREF."""
    systems = []

    def capture(p, shape, r, c, values):
        basis = linalg.coordinate_kernel(p, shape, r, c, values)
        systems.append((p, shape, r, c, values, basis))
        return basis

    monkeypatch.setattr(reps, "coordinate_kernel", capture)
    solve()
    [(p, got_shape, r, c, values, basis)] = systems
    assert got_shape == shape
    assert np.array_equal(basis.T, sympy_sparse_kernel(shape, r, c, values, p))


class TestNoWrites:
    """Elimination copies only what it eliminates: no input is written, and
    read-only, transposed and strided inputs give the same results."""

    @staticmethod
    def results(m):
        free, rem, sub = linalg._rref(m.a, m.p)
        pi, complement = quotient_projection(m)
        x = solve_matrix(m, FpMatrix(m.p, m.a[:, :1]))
        return [free.tolist(), rem.tolist(), sub, kernel_basis(m).a.tolist(),
                image_basis(m).a.tolist(), x.a.tolist(), pi.a.tolist(), complement]

    @pytest.mark.parametrize("a", [
        # singleton rows (one repeated), a zero row and a dense remainder
        np.array([[0, 3, 0, 0, 0], [1, 0, 2, 4, 0], [0, 5, 0, 0, 0], [2, 6, 4, 1, 0],
                  [0, 0, 0, 0, 0]]),
        np.array([[1, 2, 3], [4, 5, 6], [0, 1, 1]]),  # nothing forced
    ])
    def test_inputs_unchanged_and_views_accepted(self, a):
        p = 7
        expected = self.results(FpMatrix(p, a))
        writable = a.copy()
        read_only = a.copy()
        transposed = np.ascontiguousarray(a.T)
        strided = np.zeros((a.shape[0], 2 * a.shape[1]), dtype=np.int64)
        strided[:, ::2] = a
        for arr in (read_only, transposed, strided):
            arr.setflags(write=False)
        for view in (writable[:], read_only, transposed.T, strided[:, ::2]):
            assert self.results(FpMatrix._reduced(p, view)) == expected
        free, rem, sub = linalg._rref(writable, p)
        assert [free.tolist(), rem.tolist(), sub] == expected[:3]
        assert np.array_equal(writable, a) and writable.flags.writeable


def loop_back_substitution(p, a, b):
    """kernel_basis, quotient_projection and solve_matrix of a (and b)
    from sympy's full RREFs by per-entry loops: the reference for the
    indexed assignments in linalg."""
    r, pivots = sympy_rref(a, p)
    free = [c for c in range(a.shape[1]) if c not in pivots]
    kernel = np.zeros((a.shape[1], len(free)), dtype=np.int64)
    for idx, f in enumerate(free):
        kernel[f, idx] = 1
        for t, pc in enumerate(pivots):
            kernel[pc, idx] = (-r[t, f]) % p
    ech, pivots = sympy_rref(a.T, p)
    complement = [i for i in range(a.shape[0]) if i not in pivots]
    pi = np.zeros((len(complement), a.shape[0]), dtype=np.int64)
    for idx, c in enumerate(complement):
        pi[idx, c] = 1
        for t, pv in enumerate(pivots):
            pi[idx, pv] = (-ech[t, c]) % p
    aug, pivots = sympy_rref(np.hstack([a, b]), p)
    x = None
    if all(pc < a.shape[1] for pc in pivots):
        x = np.zeros((a.shape[1], b.shape[1]), dtype=np.int64)
        for t, pc in enumerate(pivots):
            x[pc] = aug[t, a.shape[1]:]
    return kernel, (pi, complement), x


class TestBackSubstitutionMatchesLoop:
    @given(low_rank_systems())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_same_arrays(self, case):
        p, a, b = case
        kernel, (pi, complement), x = loop_back_substitution(p, a, b)
        m = FpMatrix(p, a)
        assert np.array_equal(kernel_basis(m).a, kernel)
        got_pi, got_complement = quotient_projection(m)
        assert np.array_equal(got_pi.a, pi) and got_complement == complement
        got_x = solve_matrix(m, FpMatrix(p, b))
        assert (got_x is None) == (x is None)
        assert got_x is None or np.array_equal(got_x.a, x)


class TestTrustedResults:
    """Results built without the public checks still meet the invariants."""

    @staticmethod
    def check(m, p):
        assert isinstance(m, FpMatrix) and m.p == p
        assert m.a.ndim == 2 and m.a.dtype == np.int64
        assert ((m.a >= 0) & (m.a < p)).all()
        assert not m.a.flags.writeable

    @given(low_rank_systems())
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_every_operation(self, case):
        p, a, b = case
        m, rhs = FpMatrix(p, a), FpMatrix(p, b)
        x = solve_matrix(m, rhs)
        results = [
            m @ m.transpose(), m + m, m - m, m.transpose(),
            m.hstack(rhs), m.transpose().vstack(rhs.transpose()), kernel_basis(m),
            image_basis(m), quotient_projection(m)[0],
            *([] if x is None else [x]),
        ]
        for res in results:
            self.check(res, p)
        free, rem, _ = linalg._rref(m.a, p)
        assert rem.ndim == 2 and rem.dtype == np.int64 and rem.shape[1] == free.size
        assert ((rem >= 0) & (rem < p)).all()

    def test_hom_bases_span_and_translate(self):
        from beilinson.emod import forget, hom_modules, twist
        from beilinson.kronecker import tau
        from beilinson.reps import ProjPoint, alpha_operator, hom_space, w_module

        w = w_module(5, 2, 3, 3, 2)
        phis = [phi for pair in hom_space(w, w) for phi in pair]
        mods = hom_modules(forget(w), forget(w))
        results = phis + mods + alpha_operator(w, ProjPoint(5, (1, 4, 2)))
        results += list(twist(forget(w), FpMatrix(5, [[1, 4, 0], [0, 1, 0], [2, 0, 1]])).ops)
        results += list(tau(w).maps[0])
        assert phis and mods
        for res in results:
            self.check(res, 5)

    def test_public_construction_copies(self):
        for arr in (np.array([[1, 9], [3, 4]]), np.array([[1, 2], [3, 4]], dtype=np.int64)):
            m = FpMatrix(7, arr)
            arr[0, 0] = 5
            assert m.a.tolist() == [[1, 2], [3, 4]]
            assert arr.flags.writeable


class TestKernelImage:
    def test_kernel_columns_annihilated(self):
        m = FpMatrix(7, [[1, 2, 3], [2, 4, 6]])
        k = kernel_basis(m)
        assert k.cols == 2
        assert (m @ k).is_zero()

    def test_image_basis_spans(self):
        m = FpMatrix(5, [[1, 2, 3], [0, 0, 1]])
        img = image_basis(m)
        assert img.cols == rank(m) == 2

    def test_cokernel_projection_annihilates(self):
        m = FpMatrix(5, [[1, 0], [0, 0], [2, 0]])
        q, complement = quotient_projection(m)
        coker_dim = len(complement)
        assert q.rows == coker_dim == 3 - rank(m) == 2
        assert (q @ m).is_zero()
        assert rank(q) == coker_dim

    def test_quotient_projection_complement(self):
        sub = FpMatrix(5, [[1], [2], [0]])
        pi, complement = quotient_projection(sub)
        assert (pi @ sub).is_zero()
        assert len(complement) == 2
        section_cols = [[1 if row == c else 0 for c in complement]
                        for row in range(3)]
        section = FpMatrix(5, section_cols)
        assert pi @ section == FpMatrix.identity(5, 2)


class TestSolve:
    def test_solve_round_trip(self):
        m = FpMatrix(7, [[1, 2], [3, 4]])
        x = solve_matrix(m, FpMatrix(7, [[5], [6]]))
        assert x is not None
        assert (m @ x).a[:, 0].tolist() == [5, 6]

    def test_solve_detects_inconsistency(self):
        m = FpMatrix(5, [[1, 2], [2, 4]])
        assert solve_matrix(m, FpMatrix(5, [[0], [1]])) is None

    def test_solve_matrix(self):
        m = FpMatrix(5, [[1, 1], [0, 1]])
        b = FpMatrix(5, [[2, 3], [1, 1]])
        x = solve_matrix(m, b)
        assert x is not None and m @ x == b


class TestSubspaces:
    def test_counts_match_gaussian_binomials(self):
        # Number of subspaces of F_p^d of each dimension is the Gaussian
        # binomial [d choose k]_p; independently via the product formula.
        def gaussian(d, k, p):
            num = den = 1
            for t in range(k):
                num *= p ** (d - t) - 1
                den *= p ** (k - t) - 1
            return num // den

        for p, d in ((2, 3), (3, 2), (2, 4)):
            by_dim = {}
            for s in subspaces(p, d):
                by_dim[s.cols] = by_dim.get(s.cols, 0) + 1
            for k in range(d + 1):
                assert by_dim.get(k, 0) == gaussian(d, k, p)

    def test_all_full_rank(self):
        for s in subspaces(3, 3):
            assert rank(s) == s.cols

