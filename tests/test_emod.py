"""Modules over the group algebra of an elementary abelian p-group."""

import itertools

import numpy as np
import pytest
from helpers import (
    first_fitting_split,
    fixpoint_local,
    quotient_soc_series,
    random_invertible,
    random_valid_rep,
    refuse_enumeration,
)

from beilinson import emod, linalg, reps
from beilinson.emod import (
    EndReport,
    ErModule,
    IndecResult,
    JordanType,
    end_algebra,
    forget,
    group_algebra_radical_power,
    hom_modules,
    is_indecomposable,
    is_isomorphic,
    jordan_type,
    jt_formula,
    loewy_length,
    rad_series,
    radical,
    soc_series,
    socle,
    twist,
)
from beilinson.emod import _local, _products, _span_stack
from beilinson.kronecker import e_lambda
from beilinson.linalg import FpMatrix, batched_rank, combine, matmul, power, rank
from beilinson.properties import constant_jordan_type
from beilinson.reps import (
    BeilinsonRep,
    ProjPoint,
    direct_sum,
    first_point,
    hom_space,
    injective,
    m_module,
    proj_points,
    projective,
    simple,
    w_module,
    x_module,
)


def trivial_module(p, r):
    return ErModule(p, r, 1, tuple(FpMatrix.zeros(p, 1, 1) for _ in range(r)))


def assert_relations(m):
    """The kE_r relations: the operators commute pairwise, and each p-th
    power vanishes."""
    ops = np.stack([op.a for op in m.ops])
    prods = matmul(ops[:, None], ops[None], m.p)
    assert (prods == prods.transpose(1, 0, 2, 3)).all()
    assert not power(ops, m.p, m.p).any()


class TestJordanType:
    def test_str_and_total(self):
        jt = JordanType((3, 3))  # three blocks of size 1, three of size 2
        assert jt.total == 3 * 1 + 3 * 2
        assert "[2]" in str(jt) and "[1]" in str(jt)

    def test_formula_against_direct_block_count(self):
        # Oracle: build the module, take a point, count Jordan blocks from
        # nilpotent ranks computed with raw numpy arithmetic.
        m = forget(m_module(5, 3, 3, 3, 2))
        alpha = ProjPoint(5, (1, 0, 0))
        op = sum(
            (m.ops[l].a * alpha.coords[l] for l in range(3)),
            np.zeros((m.dim, m.dim), dtype=np.int64),
        ) % 5
        ranks = [m.dim]
        cur = np.eye(m.dim, dtype=np.int64)
        for _ in range(m.dim):
            cur = (cur @ op) % 5
            ranks.append(rank(FpMatrix(5, cur)))
        blocks = [
            ranks[i - 1] - 2 * ranks[i] + ranks[i + 1]
            for i in range(1, m.dim)
        ]
        jt = jordan_type(m, alpha)
        for size, count in enumerate(jt.counts, start=1):
            assert blocks[size - 1] == count

    @pytest.mark.parametrize("n,d,r", [(2, 2, 2), (3, 2, 3), (4, 3, 2)])
    def test_formula_total_dimension(self, n, d, r):
        jt = jt_formula(n, d, r)
        m = forget(m_module(7, n, r, n, d))
        assert jt.total == m.dim

    def test_conservation_at_every_point(self):
        m = forget(m_module(3, 2, 2, 3, 2))
        for alpha in proj_points(3, 2):
            assert jordan_type(m, alpha).total == m.dim


def jordan_type_by_point(m, alpha):
    """The per-point reference: one point operator, its powers ranked one at
    a time, a_i = r_{i-1} - 2 r_i + r_{i+1}."""
    nil = FpMatrix(m.p, combine(alpha.coords, [op.a for op in m.ops], m.p))
    ranks = [m.dim]
    power = nil
    for _ in range(m.p):
        ranks.append(rank(power))
        if ranks[-1] == 0:
            break
        power = power @ nil
    ranks += [0, 0]
    return JordanType(tuple(
        ranks[i - 1] - 2 * ranks[i] + ranks[i + 1] for i in range(1, len(ranks) - 1)
    ))


def chunk_modules():
    """Forgotten random valid reps (P^3(F_7) among them), radical powers of
    kE_r, twists, direct sums, and modules of dim 0 and 1."""
    rng = np.random.default_rng(11)
    mods = [forget(random_valid_rep(7, n, 4, 3, rng)) for n in (2, 2, 3, 3)]
    mods += [forget(random_valid_rep(5, 3, 3, 4, rng)) for _ in range(2)]
    mods += [group_algebra_radical_power(p, r, s)
             for p, r in ((2, 3), (3, 2), (5, 2)) for s in range(0, r * (p - 1) + 1, 2)]
    mods.append(twist(forget(m_module(7, 3, 4, 3, 2)), random_invertible(7, 4, rng)))
    mods.append(forget(direct_sum(w_module(7, 2, 4, 2, 2), m_module(7, 2, 4, 2, 2))))
    mods += [ErModule(7, 4, 0, tuple(FpMatrix.zeros(7, 0, 0) for _ in range(4))),
             trivial_module(7, 4)]
    return mods


def graded_chunk_modules():
    """Modules that record a grading: forgotten random reps (P^3(F_7) among
    them), with a zero level, of dim 0 and summed, twists, and radical
    powers at p in {2, 3, 5} down to the zero one."""
    rng = np.random.default_rng(13)
    mods = [forget(random_valid_rep(7, 3, 4, 3, rng))]
    mods += [forget(random_valid_rep(5, n, 3, 4, rng)) for n in (2, 3, 3)]
    zero_level = BeilinsonRep(5, 3, 3, (2, 0, 3), tuple(
        tuple(FpMatrix.zeros(5, b, a) for _ in range(3)) for a, b in ((2, 0), (0, 3))))
    mods += [forget(zero_level), forget(direct_sum(zero_level, m_module(5, 3, 3, 3, 2))),
             forget(BeilinsonRep(5, 2, 3, (0, 0), ((FpMatrix.zeros(5, 0, 0),) * 3,))),
             forget(direct_sum(w_module(5, 2, 3, 2, 2), m_module(5, 2, 3, 2, 2)))]
    mods += [twist(forget(random_valid_rep(5, 3, 3, 3, rng)), random_invertible(5, 3, rng)),
             twist(group_algebra_radical_power(3, 3, 2), random_invertible(3, 3, rng))]
    mods += [group_algebra_radical_power(p, r, s) for p, r, s in
             ((2, 2, 0), (2, 3, 1), (2, 3, 4), (3, 2, 1), (3, 2, 4), (3, 3, 0),
              (5, 2, 0), (5, 2, 3), (5, 2, 9))]
    assert all(m._levels is not None and sum(m._levels) == m.dim for m in mods)
    return mods


class TestChunkedJordanTypes:
    """jordan_type computes whole chunks of points and memoizes them; every
    point must match the per-point reference, whatever the chunk size."""

    @pytest.mark.parametrize("chunk", ["default", "one point", "p^2 points"])
    def test_matches_per_point_loop(self, chunk, monkeypatch):
        # caller-built copies record no grading and take the dense powers;
        # modules that record one take the ranks of their level blocks'
        # composites (reps.composite_ranks) under the same chunk rule
        sizes, chunk_of, graded = set(), emod._jordan_chunk, []

        def recorded(m, coords):
            jts = chunk_of(m, coords)
            sizes.add(len(jts))
            return jts

        def counted(steps, p):
            graded.append(len(steps))
            return reps.composite_ranks(steps, p)

        cases = [(ErModule(m.p, m.r, m.dim, m.ops), False) for m in chunk_modules()]
        cases += [(m, True) for m in graded_chunk_modules()]
        for m, is_graded in cases:
            points = proj_points(m.p, m.r)
            expected = [jordan_type_by_point(m, a) for a in points]
            m._jordan.clear()
            if chunk == "one point":
                monkeypatch.setattr(linalg, "STACK_ENTRIES", 1)
            elif chunk == "p^2 points":
                # per point, a graded chunk stacks sum d_i^2 entries, a dense one dim^2
                levels = m._levels if is_graded else (m.dim,)
                per_point = max(sum(d * d for d in levels), 1)
                monkeypatch.setattr(linalg, "STACK_ENTRIES", m.p ** 2 * per_point)
            monkeypatch.setattr(emod, "_jordan_chunk", recorded)
            monkeypatch.setattr(emod, "composite_ranks", counted)
            sizes.clear()
            graded.clear()
            assert [jordan_type(m, a) for a in points] == expected
            assert bool(graded) == is_graded
            if chunk == "one point":
                assert sizes == {1}
            if chunk == "p^2 points" and (m.p, m.r) == (7, 4):
                # a prefix holding the leading 1 leaves 49 tails; the zero
                # prefix (0, 0) leaves the 8 points of P^1(F_7)
                assert sizes == {49, 8}
            monkeypatch.undo()

    def test_grading_leaves_equality_hash_and_repr(self):
        w = forget(w_module(5, 3, 3, 3, 2))
        rad = group_algebra_radical_power(3, 2, 1)
        g = random_invertible(5, 3, np.random.default_rng(2))
        assert w._levels == w_module(5, 3, 3, 3, 2).dims
        assert twist(w, g)._levels == w._levels
        assert rad._levels == (2, 3, 2, 1)  # monomials of degrees 1 .. 4 in [0, 2]^2
        for m in (w, twist(w, g), rad):
            built = ErModule(m.p, m.r, m.dim, m.ops)
            assert built._levels is None
            assert m == built and hash(m) == hash(built) and repr(m) == repr(built)

    def test_sweep_is_one_chunk(self, monkeypatch):
        # P^3(F_7) at dim <= 18 fits the stack budget: 400 * 18^2 <= 2^17
        rng = np.random.default_rng(5)
        mods = [forget(random_valid_rep(7, n, 4, 3, rng)) for n in (2, 3)]
        mods.append(forget(m_module(7, 3, 4, 3, 2)))
        calls, chunk_of = [], emod._jordan_chunk
        monkeypatch.setattr(emod, "_jordan_chunk", lambda m, c: calls.append(c) or chunk_of(m, c))
        for m in mods:
            assert m.dim <= 18
            calls.clear()
            jts = [jordan_type(m, a) for a in proj_points(7, 4)]
            assert len(calls) == 1
            assert list(m._jordan) == [a.coords for a in proj_points(7, 4)]
            assert jts == [jordan_type_by_point(m, a) for a in proj_points(7, 4)]

    def test_graded_budget_counts_level_blocks(self, monkeypatch):
        # forget(W(7,3,4,5,3)) has dim 65 on levels (35, 20, 10): a budget
        # of 2^17 // 1,725 = 75 points, not 2^17 // 4,225 = 31, so seven
        # chunks of 49 points and the 57 points after a zero in one chunk
        m = forget(w_module(7, 3, 4, 5, 3))
        calls, chunk_of = [], emod._jordan_chunk
        monkeypatch.setattr(emod, "_jordan_chunk", lambda m, c: calls.append(c) or chunk_of(m, c))
        jts = [jordan_type(m, a) for a in proj_points(7, 4)]
        assert len(calls) == 8
        assert set(jts) == {JordanType((15, 10, 10))}

    def test_equal_types_are_one_object(self):
        for m in chunk_modules():
            jts = [jordan_type(m, a) for a in proj_points(m.p, m.r)]
            assert len({id(jt) for jt in jts}) == len(set(jts))

    def test_shuffled_queries_on_one_module(self):
        rng = np.random.default_rng(3)
        m = forget(random_valid_rep(7, 3, 4, 3, rng))
        points = list(proj_points(7, 4))
        expected = {a: jordan_type_by_point(m, a) for a in points}
        for _ in range(2):
            rng.shuffle(points)
            assert all(jordan_type(m, a) == expected[a] for a in points)
        assert len(m._jordan) == len(points)

    def test_single_point_never_enumerates_the_space(self, monkeypatch):
        for p in (65521, 2**31 - 1):
            rng = np.random.default_rng(p)
            m = twist(forget(m_module(p, 3, 3, 3, 2)), random_invertible(p, 3, rng))
            assert max(int(op.a.max()) for op in m.ops) > p // 2
            refuse_enumeration(monkeypatch)
            alpha = ProjPoint(p, tuple(int(x) for x in rng.integers(1, p, size=3)))
            jt = jordan_type(m, alpha)
            assert jt == jordan_type_by_point(m, alpha)
            assert jt.total == m.dim
            assert len(m._jordan) == 1
            monkeypatch.undo()

    def test_point_operator_exact_at_largest_int32_prime(self):
        # x = (p-3) N + (p-1) N + (p-1) N + (p-1) N at alpha = (1, -1, -1, -1)
        # is (p-3 + 3) N = 0, so two blocks of size 1; the unreduced sum
        # p-3 + 3(p-1)^2 passes 2^63, so a late reduction would leave 1[2]
        p = 2**31 - 1
        n = np.array([[0, 0], [1, 0]], dtype=np.int64)
        m = ErModule(p, 4, 2, tuple(FpMatrix(p, c * n) for c in (p - 3, p - 1, p - 1, p - 1)))
        alpha = ProjPoint(p, (1, p - 1, p - 1, p - 1))
        assert jordan_type(m, alpha) == jordan_type_by_point(m, alpha) == JordanType((2,))

    def test_operator_past_order_p_named(self):
        block = FpMatrix(2, np.eye(3, k=-1, dtype=np.int64))
        m = ErModule(2, 2, 3, (block, FpMatrix.zeros(2, 3, 3)))
        with pytest.raises(ValueError, match=r"point \(1, 0\)"):
            jordan_type(m, ProjPoint(2, (1, 0)))

    def test_jordan_block_past_p_rejected(self):
        for p in (2, 3):
            block = FpMatrix(p, np.eye(p + 1, k=-1, dtype=np.int64))
            m = ErModule(p, 2, p + 1, (block, FpMatrix.zeros(p, p + 1, p + 1)))
            with pytest.raises(ValueError, match="not nilpotent of order <= p"):
                jordan_type(m, ProjPoint(p, (1, 0)))
            short = FpMatrix(p, np.eye(p, k=-1, dtype=np.int64))
            m = ErModule(p, 2, p, (FpMatrix.zeros(p, p, p), short))
            assert jordan_type(m, ProjPoint(p, (0, 1))) == JordanType((0,) * (p - 1) + (1,))

    def test_memo_leaves_equality_hash_and_repr(self):
        m = forget(m_module(5, 2, 3, 3, 2))
        before = (hash(m), repr(m))
        jordan_type(m, ProjPoint(5, (1, 0, 0)))
        assert m._jordan
        assert (hash(m), repr(m)) == before
        assert m == ErModule(m.p, m.r, m.dim, m.ops)


class TestErModule:
    def test_modulus_past_2_to_31_rejected(self):
        with pytest.raises(ValueError, match="2\\^31"):
            trivial_module(2**31 + 11, 2)
        assert trivial_module(2**31 - 1, 2).p == 2**31 - 1


class TestForget:
    def test_operators_pairwise_commute_and_nilpotent(self):
        assert_relations(forget(m_module(5, 3, 3, 3, 2)))

    def test_requires_small_loewy_length(self):
        with pytest.raises(ValueError):
            forget(projective(3, 5, 2, 0))  # n = 5 > p = 3

    def test_trivial_rep_gives_trivial_module(self):
        m = forget(simple(5, 3, 3, 1))
        assert m.dim == 1
        assert all(op.is_zero() for op in m.ops)


class TestRadicalSocle:
    def test_rad_soc_of_trivial(self):
        t = trivial_module(5, 2)
        assert rank(radical(t)) == 0
        assert rank(socle(t)) == 1

    def test_rad_series_decreasing(self):
        m = group_algebra_radical_power(3, 2, 0)  # the whole group algebra
        series = rad_series(m)
        assert series[0] == m.dim == 9
        assert series[-1] == 0
        assert all(a > b for a, b in zip(series, series[1:]))

    def test_loewy_length_of_group_algebra(self):
        for p, r in ((3, 2), (2, 3)):
            assert loewy_length(group_algebra_radical_power(p, r, 0)) \
                == r * (p - 1) + 1

    def test_soc_series_dual_lengths(self):
        m = forget(m_module(5, 3, 3, 4, 3))
        assert len(rad_series(m)) == len(soc_series(m))

    def test_soc_series_matches_quotient_reference(self):
        """soc_series, from the radical series of the dual, against the
        quotient-by-quotient socle series: M and W families, every radical
        power of kE_r, twists, and sums of uneven Loewy length."""
        modules = [forget(build(5, n, r, m, d)) for build in (m_module, w_module)
                   for n, r, m, d in ((2, 2, 3, 2), (3, 3, 4, 3), (3, 2, 3, 2))]
        for p, r in ((2, 3), (3, 2), (5, 2)):
            modules += [group_algebra_radical_power(p, r, s) for s in range(r * (p - 1) + 2)]
        rng = np.random.default_rng(3)
        for m in modules[:6]:
            modules.append(twist(m, random_invertible(m.p, m.r, rng)))
        modules.append(forget(direct_sum(m_module(5, 3, 3, 4, 3), simple(5, 3, 3, 1))))
        modules.append(module_sum(group_algebra_radical_power(3, 2, 0),
                                  group_algebra_radical_power(3, 2, 3)))
        for m in modules:
            assert soc_series(m) == quotient_soc_series(m)


class TestGroupAlgebra:
    def test_radical_power_dimension(self):
        # dim rad^s(kE_r) counts truncated monomials of degree >= s; oracle
        # by brute-force enumeration of exponent vectors.
        for p, r, s in ((3, 2, 2), (3, 2, 3), (5, 2, 7), (3, 3, 4)):
            count = sum(
                1
                for exps in itertools.product(range(p), repeat=r)
                if sum(exps) >= s
            )
            assert group_algebra_radical_power(p, r, s).dim == count

    @pytest.mark.parametrize("r", [-1, 0, 1])
    def test_fewer_than_two_variables_refused(self, r):
        with pytest.raises(ValueError, match="require r >= 2"):
            group_algebra_radical_power(5, r, 0)

    def test_top_power_vanishes(self):
        assert group_algebra_radical_power(3, 2, 2 * 2 + 1).dim == 0

    @pytest.mark.parametrize("p,r,d", [(3, 2, 2), (3, 3, 2), (5, 2, 2)])
    def test_wdd_is_radical_power(self, p, r, d):
        left = forget(w_module(p, d, r, d, d))
        right = group_algebra_radical_power(p, r, r * (p - 1) + 1 - d)
        assert left.dim == right.dim
        assert is_isomorphic(left, right) == "yes"


class TestTwist:
    def test_identity_twist_fixed(self):
        m = forget(m_module(5, 2, 2, 3, 2))
        assert twist(m, FpMatrix.identity(5, 2)) == m

    def test_twist_preserves_commutativity(self):
        m = forget(m_module(5, 2, 3, 3, 2))
        g = FpMatrix(5, [[1, 2, 0], [0, 1, 0], [3, 0, 1]])
        assert_relations(twist(m, g))

    def test_twist_permutes_jordan_types(self):
        m = forget(m_module(3, 2, 2, 3, 2))
        g = FpMatrix(3, [[0, 1], [1, 0]])
        before = sorted(str(jordan_type(m, a)) for a in proj_points(3, 2))
        after = sorted(
            str(jordan_type(twist(m, g), a)) for a in proj_points(3, 2)
        )
        assert before == after

    def test_twisted_module_isomorphic_to_original(self):
        m = forget(m_module(3, 2, 2, 3, 2))
        rng = np.random.default_rng(7)
        g = random_invertible(3, 2, rng)
        assert is_isomorphic(m, twist(m, g)) == "yes"


class TestIsomorphism:
    def test_dim_mismatch_certified_no(self):
        assert is_isomorphic(trivial_module(3, 2),
                             group_algebra_radical_power(3, 2, 3)) == "no"

    def test_jordan_type_mismatch_certified_no(self):
        a = forget(m_module(3, 2, 2, 3, 2))  # dims (2,3), dim 5
        ops = tuple(FpMatrix.zeros(3, 5, 5) for _ in range(2))
        b = ErModule(3, 2, 5, ops)
        assert is_isomorphic(a, b) == "no"

    def test_self_iso(self):
        m = forget(m_module(5, 3, 3, 3, 2))
        assert is_isomorphic(m, m) == "yes"

    def test_radical_series_screen_certifies_no(self, monkeypatch):
        # P(0) and I(2) at (5, 3, 3) agree in dimension and in Jordan type at
        # all 31 points; their radical series tell them apart before any Hom
        # system is built
        a, b = forget(projective(5, 3, 3, 0)), forget(injective(5, 3, 3, 2))
        assert all(jordan_type(a, alpha) == jordan_type(b, alpha) for alpha in proj_points(5, 3))
        assert (rad_series(a), rad_series(b)) == ([10, 9, 6, 0], [10, 4, 1, 0])

        def no_decision(*args, **kwargs):
            raise AssertionError("the isomorphism decision ran")

        monkeypatch.setattr(emod, "decide_isomorphism", no_decision)
        assert is_isomorphic(a, b) == "no"

    def test_screen_reads_one_chunk_at_large_prime(self, monkeypatch):
        # P^2(F_1009) has 1,019,091 points; the Jordan-type screen computes
        # only the chunk of the first point on each module, and the
        # decision settles the rest
        refuse_enumeration(monkeypatch)
        p = 1009
        w = forget(w_module(p, 2, 3, 3, 2))
        assert is_isomorphic(w, forget(m_module(p, 2, 3, 3, 2))) == "no"
        g = random_invertible(p, 3, np.random.default_rng(9))
        assert is_isomorphic(w, twist(w, g)) == "yes"

    def test_screen_compares_every_memoized_point(self, monkeypatch):
        # X(1,0,0) and X(1,1,0) agree at the first point but not at every
        # point; with one point per chunk, the first chunk cannot tell them
        # apart, but once both memos hold all points the screen says 'no'
        monkeypatch.setattr(linalg, "STACK_ENTRIES", 1)
        a, b = (forget(x_module(3, 2, 3, ProjPoint(3, c), 0, 1)) for c in ((1, 0, 0), (1, 1, 0)))
        for m in (a, b):
            for alpha in proj_points(3, 3):
                jordan_type(m, alpha)
        first = first_point(3, 3)
        assert jordan_type(a, first) == jordan_type(b, first)

        def no_decision(*args, **kwargs):
            raise AssertionError("a later screen or the decision ran")

        monkeypatch.setattr(emod, "rad_series", no_decision)
        monkeypatch.setattr(emod, "decide_isomorphism", no_decision)
        assert is_isomorphic(a, b) == "no"

    def test_hom_dimension_screen_certifies_no(self):
        # same dimension, Jordan types and radical series; dim Hom(a, b) = 9
        # against dim End(a) = 7 answers 'no' before any composite of
        # Hom(b, a) and Hom(a, b) is formed
        rng = np.random.default_rng(45)
        a, b = (forget(random_valid_rep(7, 2, 2, 3, rng)) for _ in range(2))
        assert (len(hom_modules(a, b)), len(hom_modules(a, a))) == (9, 7)
        assert is_isomorphic(a, b) == "no"


class TestEndAlgebra:
    def test_trivial_module(self):
        basis, report = end_algebra(trivial_module(5, 2))
        assert report.dimension == 1
        assert report.commutative and report.local
        assert report.regime == "deterministic"

    def test_direct_sum_not_local(self):
        t = trivial_module(5, 2)
        double = ErModule(
            5, 2, 2, tuple(FpMatrix.zeros(5, 2, 2) for _ in range(2))
        )
        _, report = end_algebra(double)
        assert not report.local

    def test_m_module_end_commutative_local(self):
        _, report = end_algebra(forget(m_module(5, 3, 2, 3, 2)))
        assert report.commutative and report.local

    def test_large_end_takes_heuristic_regime(self):
        basis, report = end_algebra(forget(w_module(5, 3, 3, 4, 3)))
        assert len(basis) == 34
        assert report == EndReport(34, True, True, "deterministic")


class TestPower:
    def test_matches_python_integers_at_largest_int32_prime(self):
        p = 2**31 - 1
        rng = np.random.default_rng(7)
        a = p - 1 - rng.integers(0, 5, size=(3, 3))
        entries = a.tolist()
        expected = [[int(i == j) for j in range(3)] for i in range(3)]
        for e in range(1, 12):
            expected = [[sum(expected[i][k] * entries[k][j] for k in range(3)) % p
                         for j in range(3)] for i in range(3)]
            assert power(a, e, p).tolist() == expected
            assert power(np.stack([a, a.T]), e, p)[0].tolist() == expected


def companion_rep(p, poly):
    """The Kronecker rep with arrows I and the companion matrix of a monic
    polynomial of degree d (coefficients low to high, leading 1 omitted).
    For an irreducible polynomial, End(rep) is F_{p^d} and End(forget(rep))
    is F_{p^d} plus a square-zero ideal: both local, with residue field
    F_{p^d}.  For d distinct roots in F_p, End(rep) is F_p^d."""
    d = len(poly)
    companion = np.eye(d, k=-1, dtype=np.int64)
    companion[:, -1] = [-c % p for c in poly]
    arrows = (FpMatrix.identity(p, d), FpMatrix(p, companion))
    return BeilinsonRep(p, 2, 2, (d, d), (arrows,))


def enumerated_local(basis):
    """(commutative, local) by brute force: all basis pairs commute, and
    every element of the span is nilpotent or invertible (its stable power
    has rank 0 or full), in a nonzero span."""
    p, n = basis[0].p, basis[0].rows
    coeffs = np.array(list(itertools.product(range(p), repeat=len(basis))), dtype=np.int64)
    power, reach = combine(coeffs, [phi.a for phi in basis], p), 1
    while reach < n:
        power, reach = matmul(power, power, p), 2 * reach
    ranks = batched_rank(power, p)
    commutative = all(a @ b == b @ a for a, b in itertools.combinations(basis, 2))
    return commutative, bool(np.isin(ranks, (0, n)).all())


def module_sum(m, n):
    """The direct sum of two kE_r-modules, operators block-diagonal."""
    ops = tuple(FpMatrix(m.p, reps.block_diagonal((a.a, b.a))) for a, b in zip(m.ops, n.ops))
    return ErModule(m.p, m.r, m.dim + n.dim, ops)


def graded_end(rep):
    return [FpMatrix(rep.p, reps.block_diagonal([f.a for f in phi]))
            for phi in hom_space(rep, rep)]


def module_end(rep):
    m = forget(rep)
    return hom_modules(m, m)


def stack(basis):
    return np.stack([phi.a for phi in basis])


def local_corpus():
    """Random reps, their direct sums and companion reps, whose small
    graded and module Ends (p^dim <= 3^6) show all four (commutative,
    local) outcomes."""
    rng = np.random.default_rng(5)
    s0, s1 = simple(2, 2, 2, 0), simple(2, 2, 2, 1)
    # graded End M_2(F_2) x F_2: a proper commutator ideal that is not nilpotent
    inputs = [direct_sum(direct_sum(s0, s0), s1), companion_rep(2, (1, 1)),
              companion_rep(3, (1, 0)), companion_rep(5, (3, 0)), companion_rep(2, (1, 1, 0)),
              companion_rep(5, (2, 2))]
    for _ in range(40):
        p = int(rng.choice([2, 3, 5]))
        n, r = int(rng.integers(2, p + 1)), int(rng.integers(2, 4))
        rep = random_valid_rep(p, n, r, 2, rng)
        if rng.random() < 0.4:
            rep = direct_sum(rep, random_valid_rep(p, n, r, 1, rng) if rng.random() < 0.7
                             else rep)
        inputs.append(rep)
    return inputs


class TestLocal:
    def test_residue_field_larger_than_prime_field(self):
        rep = companion_rep(5, (3, 0))  # t^2 - 2
        _, report = end_algebra(forget(rep))
        assert report == EndReport(6, False, True, "deterministic")
        assert _local(stack(graded_end(rep)), rep.p) == (True, True)
        assert is_indecomposable(rep) == IndecResult("yes")
        assert is_indecomposable(forget(rep)) == IndecResult("yes")

    def test_zero_module_end_is_not_local(self):
        zero = ErModule(5, 2, 0, tuple(FpMatrix.zeros(5, 0, 0) for _ in range(2)))
        assert end_algebra(zero)[1] == EndReport(0, True, False, "deterministic")

    def test_matches_enumeration(self):
        """Every small End (p^dim <= 3^6) of the corpus, graded and after
        forget, against brute force; all four (commutative, local)
        outcomes occur."""
        seen = set()
        for rep in local_corpus():
            for basis in (graded_end(rep), module_end(rep)):
                if rep.p ** len(basis) <= 3**6:
                    got = _local(stack(basis), rep.p)
                    assert got == enumerated_local(basis)
                    seen.add(got)
        assert seen == set(itertools.product((False, True), repeat=2))

    def test_matches_fixpoint_reference(self):
        """_local against the fixpoint loops it replaces, on every graded
        and module End of the corpus and on sums whose Ends are not
        commutative: E(lambda)^2 + S(0), and forget(W)^2 for small W."""
        e, s0 = e_lambda(3, 2, (1, 2)), simple(3, 2, 2, 0)
        extra = [direct_sum(direct_sum(e, e), s0)]
        extra += [direct_sum(w, w) for w in (w_module(3, 2, 2, 2, 2), w_module(3, 3, 2, 3, 3))]
        seen = set()
        for rep in local_corpus() + extra:
            for basis in (graded_end(rep), module_end(rep)):
                got = _local(stack(basis), rep.p)
                assert got == fixpoint_local(stack(basis), rep.p)
                seen.add(got)
        assert seen == set(itertools.product((False, True), repeat=2))

    def test_commutator_ideal_is_one_sided_product(self):
        """The identity behind _local's one product: [a, b] c = [a, b c] -
        b [a, c], so with 1 in A both span(A C) and span(C A) are the ideal
        span(A C A), C the commutator span, on every non-commutative End
        of the inputs of test_matches_fixpoint_reference."""
        e, s0 = e_lambda(3, 2, (1, 2)), simple(3, 2, 2, 0)
        extra = [direct_sum(direct_sum(e, e), s0)]
        extra += [direct_sum(w, w) for w in (w_module(3, 2, 2, 2, 2), w_module(3, 3, 2, 3, 3))]
        checked = 0
        for rep in local_corpus() + extra:
            for basis in (graded_end(rep), module_end(rep)):
                a, p = stack(basis), rep.p
                prods = _products(p, a, a).reshape(len(a), len(a), *a.shape[1:])
                comms = _span_stack(p, ((prods - prods.transpose(1, 0, 2, 3)) % p)
                                    .reshape(-1, *a.shape[1:]))
                if not len(comms):
                    continue
                left = _span_stack(p, _products(p, a, comms))
                ideal = _span_stack(p, _products(p, left, a))
                for one_sided in (left, _span_stack(p, _products(p, comms, a))):
                    both = _span_stack(p, np.concatenate([one_sided, ideal]))
                    assert len(one_sided) == len(ideal) == len(both)
                checked += 1
        assert checked == 68

    def test_nilpotent_commutators_spanning_no_ideal(self):
        """M_2(F_3) on a basis whose pairwise commutators are each nilpotent
        and span sl_2, a subspace but no ideal: the ideal they generate is
        all of M_2(F_3), which is not nilpotent, so A is not local."""
        p = 3
        basis = [np.eye(2, dtype=np.int64), np.array([[0, 1], [1, 0]]),
                 np.array([[1, 0], [1, 2]]), np.array([[1, 0], [2, 2]])]
        comms = [(a @ b - b @ a) % p for a, b in itertools.combinations(basis[1:], 2)]
        assert not any((c @ c % p).any() for c in comms)
        assert rank(FpMatrix(p, np.stack([c.ravel() for c in comms]))) == 3
        want = enumerated_local([FpMatrix(p, a) for a in basis])
        assert want == (False, False)
        assert _local(np.stack(basis), p) == fixpoint_local(np.stack(basis), p) == want

    def test_indecomposable_matches_per_element_splits(self):
        """is_indecomposable over the corpus, graded and after forget,
        against _local and the first split of the element-by-element
        Fitting loop; splits and their absence both occur."""
        seen = set()
        for rep in local_corpus():
            for m, basis in ((rep, graded_end(rep)), (forget(rep), module_end(rep))):
                if _local(stack(basis), rep.p)[1]:
                    want = IndecResult("yes")
                else:
                    want = IndecResult("decomposable", first_fitting_split(basis))
                assert is_indecomposable(m) == want
                seen.add((want.verdict, want.summand_dims is None))
        assert seen == {("yes", True), ("decomposable", False), ("decomposable", True)}


class TestIndecomposability:
    def test_trivial_is_indecomposable(self):
        res = is_indecomposable(trivial_module(5, 2))
        assert res.verdict == "yes"

    def test_direct_sum_detected(self):
        m = direct_sum(simple(5, 3, 3, 1), simple(5, 3, 3, 1))
        res = is_indecomposable(m)
        assert res.verdict == "decomposable"
        assert res.summand_dims == (1, 1)

    def test_m_module_indecomposable(self):
        res = is_indecomposable(forget(m_module(5, 2, 2, 3, 2)))
        assert res.verdict == "yes"

    def test_large_end_is_probably_indecomposable(self):
        res = is_indecomposable(forget(w_module(5, 3, 3, 4, 3)))
        assert res == IndecResult("yes")

    def test_no_basis_element_splits(self):
        # arrows I and the companion matrix of (t - 1)(t - 2): End is F_5 x F_5,
        # not local, though both basis elements are invertible
        rep = companion_rep(5, (2, 2))
        assert is_indecomposable(rep) == IndecResult("decomposable")
        assert is_indecomposable(forget(rep)) == IndecResult("decomposable")

    def test_graded_local_end_certified(self):
        # Kronecker rep with arrows I and a nilpotent Jordan block: End is
        # {aI + bN}, two-dimensional, commutative and local.
        arrows = (FpMatrix.identity(5, 2), FpMatrix(5, [[0, 1], [0, 0]]))
        rep = BeilinsonRep(5, 2, 2, (2, 2), (arrows,))
        assert len(hom_space(rep, rep)) == 2
        assert is_indecomposable(rep) == IndecResult("yes")


class TestConstantJordanType:
    @pytest.mark.parametrize("rep", [
        m_module(3, 2, 2, 3, 2),
        w_module(5, 3, 3, 4, 3),
        projective(5, 3, 3, 0),
        # x_1 a single Jordan block and x_2 zero after forget: (1, 0) and
        # (0, 1) have different Jordan types
        BeilinsonRep(3, 2, 2, (1, 1), ((FpMatrix(3, [[1]]), FpMatrix(3, [[0]])),)),
    ], ids=["M(3,2,2,3,2)", "W(5,3,3,4,3)", "P(0)", "kronecker-non-cjt"])
    def test_verdict_matches_jordan_types(self, rep):
        """rank(x_alpha^j) on forget(rep) is the sum over levels of the
        j-fold step composite ranks, so the rep-side verdict is "one Jordan
        type at every point" of the forgotten module."""
        m = forget(rep)
        types = {jordan_type(m, alpha) for alpha in proj_points(m.p, m.r)}
        assert constant_jordan_type(rep).verdict == (len(types) == 1)
