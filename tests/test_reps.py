"""Quiver representation constructions and functorial operations."""

import functools
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from helpers import (
    enumerated_isomorphic,
    random_invertible,
    random_valid_rep,
    reference_x_module,
    span_standardly_graded,
)

from beilinson import monomials, reps
from beilinson.emod import ErModule, forget, hom_modules, invert
from beilinson.linalg import FpMatrix, coordinate_kernel, kernel_basis, rank
from beilinson.reps import (
    BeilinsonRep,
    ConfigMismatch,
    ProjPoint,
    _intertwiners,
    alpha_operator,
    block_diagonal,
    decide_isomorphism,
    direct_sum,
    dualize,
    first_point,
    hom_space,
    image_rep,
    injective,
    is_costandardly_graded,
    is_standardly_graded,
    m_module,
    proj_coords,
    proj_points,
    projective,
    rep_isomorphic,
    simple,
    support,
    validate,
    w_module,
    x_module,
)


def count_monomials(r, degree):
    """Independent oracle: count exponent vectors by brute force."""
    if degree < 0:
        return 0
    return sum(
        1
        for exps in itertools.product(range(degree + 1), repeat=r)
        if sum(exps) == degree
    )


class TestMonomials:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    def test_dim_degree_matches_enumeration(self, r, degree):
        assert monomials.dim_degree(r, degree) == count_monomials(r, degree)
        assert len(monomials.monomials(r, degree)) == count_monomials(r, degree)

    def test_graded_lex_order(self):
        ms = monomials.monomials(3, 2)
        assert ms[0] == (2, 0, 0)
        assert ms[-1] == (0, 0, 2)
        assert ms == tuple(sorted(ms, reverse=True))

    def test_multiplication_matrix_shapes(self):
        m = monomials.multiplication_matrix(5, 3, 1, 1)
        assert (m.rows, m.cols) == (monomials.dim_degree(3, 2),
                                    monomials.dim_degree(3, 1))

    def test_multiplication_commutes(self):
        a = monomials.multiplication_matrix(5, 3, 1, 1)
        b0 = monomials.multiplication_matrix(5, 3, 0, 1)
        a2 = monomials.multiplication_matrix(5, 3, 1, 2)
        b1 = monomials.multiplication_matrix(5, 3, 0, 2)
        assert a @ b1 == a2 @ b0


class TestProjPoints:
    def test_normalization(self):
        assert ProjPoint(5, (2, 4, 0)).coords == (1, 2, 0)
        assert ProjPoint(5, (0, 3, 3)).coords == (0, 1, 1)

    def test_zero_rejected(self):
        # the zero vector, then moduli that are not primes below 2^31
        for p, coords in ((5, (0, 0, 0)), (6, (1, 5)), (0, (1, 0)), (2**31 + 11, (1, 0)),
                          (5.0, (1, 0))):
            with pytest.raises(ValueError):
                ProjPoint(p, coords)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_enumeration_order(self, p, r):
        # every witness is the first failing point in this order
        normalized = set()
        for vec in itertools.product(range(p), repeat=r):
            lead = next((x for x in vec if x), 0)
            if lead:
                inv = pow(lead, p - 2, p)
                normalized.add(tuple(x * inv % p for x in vec))
        assert [a.coords for a in proj_points(p, r)] == sorted(normalized)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_points_match_product_enumeration(self, p):
        # an independent generator of the enumeration order: the leading 1
        # moves from the last coordinate to the first, r = 1 included
        for r in range(1, 5):
            reference = [(0,) * lead + (1,) + tail for lead in reversed(range(r))
                         for tail in itertools.product(range(p), repeat=r - lead - 1)]
            assert [a.coords for a in proj_points(p, r)] == reference

    @pytest.mark.parametrize("p,r", [(2, 3), (3, 3), (5, 2), (7, 3)])
    def test_prefix_blocks_are_runs_of_the_points(self, p, r):
        # every normalized prefix of every length names the contiguous run
        # of points that start with it, in order
        rows = [a.coords for a in proj_points(p, r)]
        for length in range(r + 1):
            for prefix in itertools.product(range(p), repeat=length):
                if next((x for x in prefix if x), 1) != 1 or prefix == (0,) * r:
                    continue
                block = proj_coords(p, r, prefix)
                run = [i for i, c in enumerate(rows) if c[:length] == prefix]
                assert run == list(range(run[0], run[-1] + 1))
                assert block.dtype == np.int64 and block.shape == (len(run), r)
                assert [tuple(c) for c in block.tolist()] == [rows[i] for i in run]
                assert proj_coords(p, r, prefix) is block
                assert not block.flags.writeable

    def test_prefix_must_start_a_normalized_point(self):
        # the zero vector is no point, so (0, 0, 0) starts none
        for prefix in ((2,), (0, 3), (1, 7), (1, -1), (0, 0, 0), (0, 0, 0, 0)):
            with pytest.raises(ValueError):
                proj_coords(7, 3, prefix)

    @pytest.mark.parametrize("p,r", [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (5, 3)])
    def test_point_count(self, p, r):
        assert len(proj_points(p, r)) == (p ** r - 1) // (p - 1)

    def test_points_distinct(self):
        pts = proj_points(5, 3)
        assert len(set(pts)) == len(pts)

    @pytest.mark.parametrize("p,r", [(2, 2), (3, 3), (7, 4)])
    def test_coords_are_the_points_read_only(self, p, r):
        # one cached array per P^{r-1}(F_p), shared by every sweep, so no
        # caller may write to it
        coords = proj_coords(p, r)
        assert coords.dtype == np.int64 and coords.shape == ((p ** r - 1) // (p - 1), r)
        assert coords.tolist() == [list(a.coords) for a in proj_points(p, r)]
        assert proj_coords(p, r) is coords
        with pytest.raises(ValueError):
            coords[0, 0] = 0


class TestFamilies:
    def test_projective_dims(self):
        assert projective(5, 3, 3, 0).dims == (1, 3, 6)
        assert projective(5, 3, 3, 1).dims == (0, 1, 3)
        assert projective(5, 3, 3, 2).dims == (0, 0, 1)

    def test_injective_dual_of_projective(self):
        for i in range(3):
            assert injective(5, 3, 3, i) == dualize(projective(5, 3, 3, 2 - i))

    def test_simple_dims(self):
        assert simple(5, 3, 2, 1).dims == (0, 1, 0)

    def test_relations_hold_on_families(self):
        for rep in (
            projective(5, 3, 3, 0),
            injective(5, 3, 3, 2),
            m_module(5, 3, 3, 3, 2),
            w_module(5, 3, 3, 4, 3),
            x_module(5, 3, 3, ProjPoint(5, (1, 2, 0)), 0, 1),
        ):
            assert validate(rep) == []

    def test_m_module_dims(self):
        m = m_module(5, 3, 3, 3, 2)
        assert m.dims == (0, 3, 6)
        assert sum(m.dims) == sum(
            count_monomials(3, d) for d in (1, 2)
        )

    def test_m_module_precondition(self):
        with pytest.raises(ValueError):
            m_module(3, 4, 2, 4, 2)  # n > p
        with pytest.raises(ValueError):
            m_module(5, 3, 2, 2, 3)  # d > m

    def test_w_is_dual_of_m(self):
        assert w_module(5, 3, 3, 3, 2) == dualize(m_module(5, 3, 3, 3, 2))

    def test_x_module_dims(self):
        x = x_module(5, 3, 3, ProjPoint(5, (1, 0, 0)), 0, 1)
        assert x.dims == (1, 2, 3)
        x2 = x_module(5, 3, 3, ProjPoint(5, (1, 1, 1)), 1, 1)
        assert x2.dims == (0, 1, 2)

    def test_x_module_wrong_point_config(self):
        with pytest.raises(ConfigMismatch):
            x_module(5, 3, 3, ProjPoint(3, (1, 0, 0)), 0, 1)

    def test_x_module_matches_polynomial_reference(self):
        # p in {2, 3, 5, 7}, r in {2, 3, 4}, n <= 5, every i and j, at the
        # first and last points of P^{r-1}(F_p) and up to two seeded others
        rng = np.random.default_rng(15)
        compared = 0
        for p, r in itertools.product((2, 3, 5, 7), (2, 3, 4)):
            points = proj_points(p, r)
            picks = {0, len(points) - 1, *rng.integers(0, len(points), size=2).tolist()}
            for n, k in itertools.product(range(2, 6), sorted(picks)):
                for i in range(n - 1):
                    for j in range(1, n - i):
                        expected = reference_x_module(p, n, r, points[k], i, j)
                        assert x_module(p, n, r, points[k], i, j).to_json() == expected.to_json()
                        compared += 1
        assert compared == 840


class TestDualize:
    def test_involution(self):
        for rep in (projective(5, 3, 3, 0), m_module(5, 3, 3, 4, 3)):
            assert dualize(dualize(rep)) == rep

    def test_reverses_dims(self):
        m = m_module(5, 3, 3, 3, 2)
        assert dualize(m).dims == tuple(reversed(m.dims))

    def test_grading_swap(self):
        m = m_module(5, 3, 3, 3, 2)
        assert is_costandardly_graded(m)
        assert is_standardly_graded(dualize(m))

    def test_sum_of_simples_is_neither(self):
        # S0 + S1 is neither generated at vertex 0 nor cogenerated at vertex 1
        s = direct_sum(simple(5, 3, 3, 0), simple(5, 3, 3, 1))
        assert not is_standardly_graded(s)
        assert not is_costandardly_graded(s)

    def test_grading_matches_span_reference(self):
        """The per-level rank test against the span pushed up level by
        level, standard and (through the dual) costandard: families, X_alpha,
        random reps and sums, among them S(0) + S(2), zero in the middle."""
        p, rng = 5, np.random.default_rng(11)
        family = [projective(p, 3, 3, i) for i in range(3)] + [simple(p, 3, 3, i) for i in range(3)]
        family += [m_module(p, 3, 3, 4, 3), w_module(p, 3, 3, 4, 3), m_module(p, 3, 2, 3, 2),
                   x_module(p, 3, 3, ProjPoint(p, (1, 2, 0)), 0, 1),
                   x_module(p, 3, 2, ProjPoint(p, (0, 1)), 0, 2)]
        family += [random_valid_rep(q, n, 2, 2, rng) for q, n in ((2, 2), (3, 3), (5, 4))
                   for _ in range(4)]
        family += [direct_sum(simple(p, 3, 3, 0), simple(p, 3, 3, 2)),
                   direct_sum(projective(p, 3, 3, 0), simple(p, 3, 3, 2)),
                   direct_sum(m_module(p, 3, 3, 4, 3), projective(p, 3, 3, 1)),
                   direct_sum(projective(p, 3, 3, 0), projective(p, 3, 3, 0))]
        seen = set()
        for rep in family + [dualize(rep) for rep in family]:
            got = is_standardly_graded(rep)
            assert got == span_standardly_graded(rep)
            assert is_costandardly_graded(rep) == span_standardly_graded(dualize(rep))
            seen.add(got)
        assert seen == {False, True}


class TestHomSpace:
    def test_end_of_simple_is_one_dimensional(self):
        s = simple(5, 3, 3, 1)
        assert len(hom_space(s, s)) == 1

    def test_no_maps_between_disjoint_supports(self):
        assert hom_space(simple(5, 3, 3, 0), simple(5, 3, 3, 2)) == []

    def test_hom_elements_are_intertwiners(self):
        p1 = projective(5, 3, 3, 1)
        m = m_module(5, 3, 3, 3, 2)
        basis = hom_space(p1, m)
        assert len(basis) == m.dims[1] == 3
        for phi in basis:
            for v in range(2):
                for arrow in range(3):
                    assert (phi[v + 1] @ p1.maps[v][arrow]
                            == m.maps[v][arrow] @ phi[v])

    def test_duality_preserves_hom_dimension(self):
        x = m_module(5, 3, 3, 3, 2)
        y = projective(5, 3, 3, 1)
        assert len(hom_space(x, y)) == len(hom_space(dualize(y), dualize(x)))

    def test_projective_hom_counts_dimension(self):
        # Hom(P(i), M) has dimension dim M_i.
        m = m_module(5, 3, 3, 3, 2)
        for i in range(3):
            assert len(hom_space(projective(5, 3, 3, i), m)) == m.dims[i]


class TestStructure:
    def test_support(self):
        assert support(m_module(5, 3, 3, 3, 2)) == (1, 2)
        assert support(simple(5, 3, 3, 0)) == (0, 0)

    def test_direct_sum_dims(self):
        a = simple(5, 3, 3, 0)
        b = m_module(5, 3, 3, 3, 2)
        s = direct_sum(a, b)
        assert s.dims == (1, 3, 6)
        assert validate(s) == []

    def test_image_rep_of_endomorphism(self):
        m = m_module(5, 3, 3, 3, 2)
        basis = hom_space(m, m)
        img = image_rep(basis[0], m, m)
        assert validate(img) == []
        assert all(img.dims[v] <= m.dims[v] for v in range(3))

    def test_alpha_operator_shapes(self):
        m = m_module(5, 3, 3, 3, 2)
        steps = alpha_operator(m, ProjPoint(5, (1, 2, 3)))
        assert len(steps) == 2
        assert (steps[0].rows, steps[0].cols) == (3, 0)
        assert (steps[1].rows, steps[1].cols) == (6, 3)


class TestSerialization:
    def test_round_trip_bit_exact(self):
        for rep in (
            projective(5, 3, 3, 0),
            m_module(7, 3, 2, 3, 2),
            x_module(5, 2, 3, ProjPoint(5, (1, 4, 2)), 0, 1),
        ):
            assert BeilinsonRep.from_json(rep.to_json()) == rep

    def test_broken_relations_rejected_on_load(self):
        doc = json.loads(projective(5, 3, 3, 0).to_json())
        doc["maps"][1][0][1] = (doc["maps"][1][0][1] + 1) % 5
        with pytest.raises(ValueError, match="arrows 1 and 2 break"):
            BeilinsonRep.from_json(json.dumps(doc))

    def test_more_levels_than_dims_rejected_on_load(self):
        doc = json.loads(w_module(5, 2, 3, 3, 2).to_json())
        doc["maps"] *= 2
        with pytest.raises(ValueError, match="n - 1 = 1 levels of maps"):
            BeilinsonRep.from_json(json.dumps(doc))
        doc["maps"], doc["dims"] = doc["maps"][:1], doc["dims"] * 2
        with pytest.raises(ValueError, match="n = 2 dims"):
            BeilinsonRep.from_json(json.dumps(doc))

    def test_modulus_past_2_to_31_rejected_on_load(self):
        doc = json.loads(m_module(5, 2, 3, 3, 2).to_json())
        doc["p"] = 2**31 + 11
        with pytest.raises(ValueError, match="2\\^31"):
            BeilinsonRep.from_json(json.dumps(doc))
        doc["p"] = 2**31 - 1
        assert BeilinsonRep.from_json(json.dumps(doc)).p == 2**31 - 1

    def test_schema_fields(self):
        doc = json.loads(m_module(5, 3, 3, 3, 2).to_json())
        assert set(doc) == {"p", "n", "r", "dims", "maps"}
        assert doc["dims"] == [0, 3, 6]


class TestRepIsomorphic:
    def test_self_iso(self):
        m = m_module(5, 2, 3, 3, 2)
        assert rep_isomorphic(m, m) == "yes"

    def test_dim_mismatch_is_certified_no(self):
        assert rep_isomorphic(simple(5, 3, 3, 0), simple(5, 3, 3, 1)) == "no"

    def test_conjugated_rep_recognized(self):
        m = m_module(3, 2, 2, 3, 2)
        assert m.dims == (2, 3)
        g0 = FpMatrix(3, [[1, 1], [0, 2]])
        g1 = FpMatrix(3, [[2, 0, 0], [0, 1, 1], [0, 0, 1]])
        from beilinson.linalg import solve_matrix
        g0_inv = solve_matrix(g0, FpMatrix.identity(3, 2))
        conj = BeilinsonRep(
            3, 2, 2, m.dims,
            (tuple(g1 @ a @ g0_inv for a in m.maps[0]),),
        )
        assert validate(conj) == []
        assert rep_isomorphic(m, conj) == "yes"

    def test_hom_dimension_screen_certifies_no(self, monkeypatch):
        # dim Hom = 11 against dim End = 13 at p = 2: the Hom-dimension
        # screen answers after the basis pass, before any composite of
        # Hom(y, x) and Hom(x, y) is formed.
        from beilinson import reps
        from beilinson.kronecker import e_lambda

        def no_composite(*args, **kwargs):
            raise AssertionError("a composite was formed")

        monkeypatch.setattr(reps, "power", no_composite)
        s0, s1 = simple(2, 2, 2, 0), simple(2, 2, 2, 1)
        left = direct_sum(direct_sum(direct_sum(direct_sum(s0, s0), s1), s1), s1)
        right = direct_sum(direct_sum(direct_sum(e_lambda(2, 2, (1, 0)), s0), s1), s1)
        assert len(hom_space(left, right)) == 11
        assert len(hom_space(left, left)) == 13
        assert rep_isomorphic(left, right) == "no"


def conjugate(rep, rng):
    """rep with its arrows conjugated by random invertible vertex matrices."""
    gs = [random_invertible(rep.p, d, rng) for d in rep.dims]
    maps = tuple(tuple(gs[v + 1] @ a @ invert(gs[v]) for a in level)
                 for v, level in enumerate(rep.maps))
    return BeilinsonRep(rep.p, rep.n, rep.r, rep.dims, maps)


class TestDecideIsomorphism:
    def test_empty_basis_is_no(self):
        from beilinson.kronecker import e_lambda

        x, y = e_lambda(2, 2, (1, 0)), e_lambda(2, 2, (0, 1))
        assert hom_space(x, y) == []
        assert decide_isomorphism(2, x.dims, x.arrows, y.dims, y.arrows) == "no"

    def test_exhausted_enumeration_certifies_no(self, monkeypatch):
        # S0^2+E(1,0)^2 against S0^3+S1+E(0,1) at p = 2: dim Hom = dim End
        # = 12 and no basis element is invertible, so the first round takes
        # a Fitting split (one _restrict for each side) and the second
        # answers from dim Hom = 6 against dim End = 7 of the kernels
        from beilinson import reps
        from beilinson.kronecker import e_lambda

        rounds, restrict = [], reps._restrict
        monkeypatch.setattr(reps, "_restrict", lambda *a: rounds.append(1) or restrict(*a))
        s0, s1 = simple(2, 2, 2, 0), simple(2, 2, 2, 1)
        e10, e01 = e_lambda(2, 2, (1, 0)), e_lambda(2, 2, (0, 1))
        left = direct_sum(direct_sum(direct_sum(s0, s0), e10), e10)
        right = direct_sum(direct_sum(direct_sum(direct_sum(s0, s0), s0), s1), e01)
        basis = [FpMatrix(2, block_diagonal([f.a for f in phi])) for phi in hom_space(left, right)]
        assert len(basis) == len(hom_space(left, left)) == 12
        assert enumerated_isomorphic(basis) == "no"
        assert decide_isomorphism(2, left.dims, left.arrows, right.dims, right.arrows) == "no"
        assert len(rounds) == 2
        rounds.clear()
        assert rep_isomorphic(left, right) == "no"
        assert len(rounds) == 2

    def test_krull_schmidt_rounds_certify(self, monkeypatch):
        # with no Hom basis element taken as invertible, the verdicts come
        # from Fitting splits and cancellation, over several rounds
        from beilinson import reps
        from beilinson.kronecker import e_lambda

        rounds, restrict = [], reps._restrict
        monkeypatch.setattr(reps, "_restrict", lambda *a: rounds.append(1) or restrict(*a))
        monkeypatch.setattr(reps, "batched_rank", lambda stack, p: np.full(len(stack), -1))
        s0, s1 = simple(3, 2, 2, 0), simple(3, 2, 2, 1)
        e12, e11 = e_lambda(3, 2, (1, 2)), e_lambda(3, 2, (1, 1))
        x = functools.reduce(direct_sum, [s0, e12, s1, e11])
        for blocks, verdict in (([e11, s1, e12, s0], "yes"), ([e12, s1, e12, s0], "no")):
            rounds.clear()
            assert rep_isomorphic(x, functools.reduce(direct_sum, blocks)) == verdict
            assert len(rounds) >= 4  # two _restrict calls per round

    def test_matches_enumeration(self, monkeypatch):
        # sums of 1-3 blocks (simples, E(lambda) bricks, random reps),
        # each against a conjugated permutation of itself and against a
        # conjugate with one summand swapped for one of the same dimension
        # vector, graded and after forget
        from beilinson import reps
        from beilinson.kronecker import e_lambda

        rounds, restrict = [], reps._restrict
        monkeypatch.setattr(reps, "_restrict", lambda *a: rounds.append(1) or restrict(*a))
        rng = np.random.default_rng(5)
        verdicts, compared, multi_round = set(), 0, False
        for p, n in itertools.product((2, 3), (2, 3)):
            pool = [simple(p, n, 2, i) for i in range(n)]
            if n == 2:
                pool += [e_lambda(p, 2, a.coords) for a in proj_points(p, 2)]
            pool += [random_valid_rep(p, n, 2, 2, rng) for _ in range(3)]
            for _ in range(12):
                blocks = [pool[i] for i in rng.integers(0, len(pool), size=rng.integers(1, 4))]
                x = functools.reduce(direct_sum, blocks)
                others = [(k, b) for k, a in enumerate(blocks) for b in pool
                          if b.dims == a.dims and b is not a]
                partners = [[blocks[i] for i in rng.permutation(len(blocks))]]
                if others:
                    k, b = others[rng.integers(len(others))]
                    partners.append(blocks[:k] + [b] + blocks[k + 1:])
                for partner in partners:
                    y = conjugate(functools.reduce(direct_sum, partner), rng)
                    cases = [(x.dims, x.arrows, y.dims, y.arrows,
                              [FpMatrix(p, block_diagonal([f.a for f in phi]))
                               for phi in hom_space(x, y)])]
                    if p >= n:
                        fx, fy = forget(x), forget(y)
                        cases.append((fx.dims, fx.arrows, fy.dims, fy.arrows,
                                      hom_modules(fx, fy)))
                    for xdims, xarrows, ydims, yarrows, basis in cases:
                        if p ** len(basis) > 2**13:
                            continue
                        rounds.clear()
                        verdict = decide_isomorphism(p, xdims, xarrows, ydims, yarrows)
                        assert verdict == enumerated_isomorphic(basis), (p, n, xdims)
                        verdicts.add(verdict)
                        compared += 1
                        multi_round |= bool(rounds)
        assert verdicts == {"yes", "no"} and multi_round and compared >= 100

    def test_certifies_no_where_dimensions_agree(self):
        # S0^4+E(1,0)^4 against S0^6+S1^2+E(0,1)^2 at p = 2: equal dimension
        # vectors and dim Hom = dim End = 48, far too many combinations
        # (2^48) to enumerate
        from beilinson.kronecker import e_lambda

        s0, s1 = simple(2, 2, 2, 0), simple(2, 2, 2, 1)
        e10, e01 = e_lambda(2, 2, (1, 0)), e_lambda(2, 2, (0, 1))
        left = functools.reduce(direct_sum, [s0] * 4 + [e10] * 4)
        right = functools.reduce(direct_sum, [s0] * 6 + [s1] * 2 + [e01] * 2)
        assert left.dims == right.dims == (8, 4)
        assert len(hom_space(left, right)) == len(hom_space(left, left)) == 48
        assert rep_isomorphic(left, right) == "no"

    def test_nil_exit_on_fourfold_sums(self, monkeypatch):
        # dim Hom(x, y) = dim End(x) = 5 and every composite through y is
        # nilpotent, so the fourfold sums get "no" from the nil exit of the
        # first round, without a Fitting split
        from beilinson import reps

        x = BeilinsonRep.from_json(json.dumps({
            "p": 2, "n": 3, "r": 2, "dims": [2, 2, 3],
            "maps": [[[0, 1, 1, 0], [1, 0, 1, 0]], [[0, 1, 1, 1, 0, 1], [0, 1, 0, 0, 0, 1]]]}))
        y = BeilinsonRep.from_json(json.dumps({
            "p": 2, "n": 3, "r": 2, "dims": [2, 2, 3],
            "maps": [[[0, 0, 0, 0], [1, 0, 1, 0]], [[0, 0, 1, 1, 0, 0], [1, 1, 1, 0, 0, 1]]]}))
        assert len(hom_space(x, y)) == len(hom_space(x, x)) == 5
        left, right = (functools.reduce(direct_sum, [rep] * 4) for rep in (x, y))
        assert len(hom_space(left, right)) == len(hom_space(left, left)) == 80
        monkeypatch.setattr(reps, "_restrict", lambda *a: pytest.fail("Fitting split taken"))
        assert rep_isomorphic(left, right) == "no"

    def test_certifies_yes_without_an_invertible_basis_element(self):
        # S0^2+S1^2 plus E(lambda) for each lambda in P^2(F_2), against a
        # conjugate of the sum in another order: dim Hom = 43 and a random
        # element of Hom is rarely invertible over F_2
        from beilinson.kronecker import e_lambda

        rng = np.random.default_rng(0)
        s0, s1 = simple(2, 2, 3, 0), simple(2, 2, 3, 1)
        blocks = [s0, s0, s1, s1] + [e_lambda(2, 3, a.coords) for a in proj_points(2, 3)]
        left = functools.reduce(direct_sum, blocks)
        right = conjugate(functools.reduce(direct_sum, [blocks[i] for i in rng.permutation(11)]),
                          rng)
        basis = [FpMatrix(2, block_diagonal([f.a for f in phi])) for phi in hom_space(left, right)]
        assert left.dims == right.dims == (9, 9) and len(basis) == 43
        assert all(rank(phi) < 18 for phi in basis)
        assert rep_isomorphic(left, right) == "yes"


def kron_hom(p, xdims, ydims, equations):
    """The reference Sylvester system: one np.kron block per equation
    phi_w a = b phi_v, stacked, with the unknowns of each phi_v row-major,
    vertices in order; returns its kernel basis as rows."""
    offs = np.concatenate([[0], np.cumsum([y * x for x, y in zip(xdims, ydims)])])
    blocks = []
    for v, w, a, b in equations:
        row = np.zeros((ydims[w] * xdims[v], offs[-1]), dtype=np.int64)
        row[:, offs[w]:offs[w + 1]] += np.kron(np.eye(ydims[w], dtype=np.int64), a.a.T)
        row[:, offs[v]:offs[v + 1]] -= np.kron(b.a, np.eye(xdims[v], dtype=np.int64))
        blocks.append(row % p)
    system = np.vstack(blocks) if blocks else np.zeros((0, offs[-1]), dtype=np.int64)
    return kernel_basis(FpMatrix(p, system)).a.T


def assert_same_basis(got, reference, xdims, ydims):
    assert len(got) == len(reference)
    for phi, vec in zip(got, reference):
        assert [m.a.shape for m in phi] == list(zip(ydims, xdims))
        assert np.array_equal(np.concatenate([m.a.ravel() for m in phi]), vec)


class TestHomBuilder:
    """hom_space and hom_modules against the np.kron reference: the same
    bases, array for array."""

    def pairs(self):
        fam = [simple(3, 3, 2, 1), projective(3, 3, 2, 0), injective(3, 3, 2, 1),
               m_module(3, 3, 2, 3, 2), w_module(3, 3, 2, 4, 3),
               x_module(3, 3, 2, ProjPoint(3, (1, 2)), 0, 2),
               x_module(3, 3, 2, ProjPoint(3, (0, 1)), 1, 1),
               BeilinsonRep(3, 3, 2, (0, 0, 0), tuple((FpMatrix.zeros(3, 0, 0),) * 2
                                                       for _ in range(2)))]
        yield from itertools.product(fam, fam)
        rng = np.random.default_rng(3)
        for p, n, r in ((2, 2, 2), (3, 3, 2), (5, 3, 3), (7, 2, 3)):
            for _ in range(4):
                yield random_valid_rep(p, n, r, 3, rng), random_valid_rep(p, n, r, 3, rng)

    def test_graded(self):
        for x, y in self.pairs():
            equations = [(v, v + 1, x.maps[v][l], y.maps[v][l])
                         for v in range(x.n - 1) for l in range(x.r)]
            assert_same_basis(hom_space(x, y), kron_hom(x.p, x.dims, y.dims, equations),
                              x.dims, y.dims)

    def test_modules(self):
        rng = np.random.default_rng(4)
        for x, y in self.pairs():
            m, n = forget(x), forget(y)
            if m.dim:
                # a change of basis, so that operator diagonals are not zero
                # and the two terms of an equation meet on nonzero entries
                g = random_invertible(m.p, m.dim, rng)
                m = ErModule(m.p, m.r, m.dim, tuple(g @ op @ invert(g) for op in m.ops))
            equations = [(0, 0, a, b) for a, b in zip(m.ops, n.ops)]
            assert_same_basis([(phi,) for phi in hom_modules(m, n)],
                              kron_hom(m.p, (m.dim,), (n.dim,), equations), (m.dim,), (n.dim,))

    def test_cancelling_collision(self, monkeypatch):
        # y is x with its basis cycled, so each diagonal entry b[i, i] is some
        # a[j, j], and row (i, j) meets a[j, j] - b[i, i] = 0 on column (i, j)
        rng = np.random.default_rng(5)
        m = forget(w_module(3, 3, 2, 4, 3))
        g = random_invertible(m.p, m.dim, rng)
        x = ErModule(m.p, m.r, m.dim, tuple(g @ op @ invert(g) for op in m.ops))
        cycle = FpMatrix(m.p, np.roll(np.eye(m.dim, dtype=np.int64), 1, axis=0))
        y = ErModule(m.p, m.r, m.dim, tuple(cycle @ op @ invert(cycle) for op in x.ops))
        a, b = (np.stack([op.a.diagonal() for op in mod.ops]) for mod in (x, y))
        meet = (a[:, None, :] == b[:, :, None]) & (a[:, None, :] != 0)
        l, i, j = np.nonzero(meet & ~np.eye(m.dim, dtype=bool))
        assert l.size
        systems = []

        def capture(p, shape, r, c, values):
            systems.append((r, c, values))
            return coordinate_kernel(p, shape, r, c, values)

        monkeypatch.setattr(reps, "coordinate_kernel", capture)
        basis = hom_modules(x, y)
        [(r, c, values)] = systems
        # the summed coordinates that cancel never reach the pattern
        assert values.all()
        cancelled = set(zip(((l * m.dim + i) * m.dim + j).tolist(), (i * m.dim + j).tolist()))
        assert cancelled.isdisjoint(zip(r.tolist(), c.tolist()))
        equations = [(0, 0, f, h) for f, h in zip(x.ops, y.ops)]
        assert_same_basis([(phi,) for phi in basis],
                          kron_hom(m.p, (m.dim,), (m.dim,), equations), (m.dim,), (m.dim,))

    def test_end_system_is_never_dense(self):
        # the dense Sylvester system of this End is 4,624 x 1,156 int64
        # (42.8 MB); its coordinates and remainder take a small share of that
        w = forget(w_module(7, 3, 4, 4, 3))
        tracemalloc.start()
        try:
            hom_modules(w, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_wrappers_slice_read_only_stacks(self):
        # the solver's basis is one read-only stack per vertex, and the
        # elements of hom_space and hom_modules are its slices
        for x, y in self.pairs():
            stacks = _intertwiners(x.p, x.dims, x.arrows, y.dims, y.arrows)
            basis = hom_space(x, y)
            assert [s.shape for s in stacks] == [(len(basis), b, a) for a, b in zip(x.dims, y.dims)]
            assert not any(s.flags.writeable for s in stacks)
            assert all(np.array_equal(m.a, s[k])
                       for k, phi in enumerate(basis) for m, s in zip(phi, stacks))
            m, n = forget(x), forget(y)
            (stack,) = _intertwiners(m.p, m.dims, m.arrows, n.dims, n.arrows)
            assert not stack.flags.writeable
            assert [phi.a.tolist() for phi in hom_modules(m, n)] == stack.tolist()


class TestFirstPoint:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_is_first_enumerated(self, p, r):
        assert first_point(p, r) == proj_points(p, r)[0]
        assert [list(first_point(p, r).coords)] == proj_coords(p, r, (0,) * (r - 1)).tolist()
