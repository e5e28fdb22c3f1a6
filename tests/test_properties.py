"""Equal-images, equal-kernels, and constant-rank property checks."""

from helpers import random_valid_rep, refuse_enumeration

import json
from functools import reduce

import numpy as np
import pytest

from beilinson import linalg, properties
from beilinson.kronecker import e_lambda, tau
from beilinson.linalg import FpMatrix, image_basis, kernel_basis, rank
from beilinson.properties import (
    PropertyReport,
    constant_jordan_type,
    constant_rank,
    is_eip_def,
    is_eip_hom,
    is_ekp_def,
    is_ekp_hom,
    no_maps_check,
)
from beilinson.reps import (
    BeilinsonRep,
    ProjPoint,
    alpha_operator,
    direct_sum,
    dualize,
    hom_space,
    image_rep,
    injective,
    m_module,
    point_steps,
    proj_coords,
    proj_points,
    projective,
    simple,
    validate,
    w_module,
    x_module,
)


class TestDefinitionRoute:
    def test_w_is_eip_m_is_ekp(self):
        assert is_eip_def(w_module(5, 3, 3, 3, 2)).verdict
        assert is_ekp_def(m_module(5, 3, 3, 3, 2)).verdict
        assert not is_eip_def(m_module(5, 3, 3, 3, 2)).verdict
        assert not is_ekp_def(w_module(5, 3, 3, 3, 2)).verdict

    def test_witness_populated_on_failure(self):
        report = is_eip_def(m_module(5, 3, 3, 3, 2))
        assert not report.verdict and report.witness is not None

    def test_projectives_are_ekp(self):
        for i in range(2):
            assert is_ekp_def(projective(5, 2, 3, i)).verdict

    def test_injectives_are_eip(self):
        for i in range(2):
            assert is_eip_def(injective(5, 2, 3, i)).verdict

    def test_simple_interior_neither(self):
        # The interior simple has a nonzero middle layer that is neither
        # reached by nor injected into the neighbouring layers, so no step
        # is surjective or injective.
        s = simple(5, 3, 3, 1)
        assert not is_eip_def(s).verdict and not is_ekp_def(s).verdict

    def test_simple_end_vertices(self):
        # The source simple (= the injective I(0)) has all steps surjective
        # onto zero layers; the sink simple (= the projective P(n-1)) has
        # all steps injective from zero layers.
        assert is_eip_def(simple(5, 3, 3, 0)).verdict
        assert is_ekp_def(simple(5, 3, 3, 2)).verdict


class TestTwoRoutesAgree:
    @pytest.mark.parametrize("builder", [
        lambda: m_module(5, 2, 3, 3, 2),
        lambda: w_module(5, 2, 3, 3, 2),
        lambda: m_module(5, 3, 3, 3, 2),
        lambda: x_module(5, 2, 3, ProjPoint(5, (1, 0, 0)), 0, 1),
        lambda: projective(5, 2, 3, 0),
        lambda: injective(5, 2, 3, 1),
    ])
    def test_family_members(self, builder):
        rep = builder()
        assert is_eip_def(rep).verdict == is_eip_hom(rep).verdict
        assert is_ekp_def(rep).verdict == is_ekp_hom(rep).verdict

    def test_random_reps(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            rep = random_valid_rep(3, 2, 2, 3, rng)
            assert is_eip_def(rep).verdict == is_eip_hom(rep).verdict
            assert is_ekp_def(rep).verdict == is_ekp_hom(rep).verdict


class TestDualitySwap:
    @pytest.mark.parametrize("builder", [
        lambda: m_module(5, 3, 3, 3, 2),
        lambda: w_module(5, 3, 3, 4, 2),
        lambda: x_module(5, 2, 3, ProjPoint(5, (1, 2, 0)), 0, 1),
    ])
    def test_eip_of_dual_is_ekp(self, builder):
        rep = builder()
        assert is_eip_def(rep).verdict == is_ekp_def(dualize(rep)).verdict
        assert is_ekp_def(rep).verdict == is_eip_def(dualize(rep)).verdict


class TestClosureProperties:
    def test_eip_closed_under_images(self):
        w = w_module(5, 2, 3, 4, 2)
        target = w_module(5, 2, 3, 3, 2)
        for phi in hom_space(w, target):
            img = image_rep(phi, w, target)
            if sum(img.dims):
                assert is_eip_def(img).verdict

    def test_ekp_closed_under_submodules(self):
        m = m_module(3, 2, 2, 3, 2)
        assert is_ekp_def(m).verdict
        src = m_module(3, 2, 2, 2, 2)
        for phi in hom_space(src, m):
            img = image_rep(phi, src, m)
            if sum(img.dims):
                assert is_ekp_def(img).verdict


class TestNoMaps:
    def test_no_maps_from_eip_to_ekp(self):
        assert no_maps_check(w_module(5, 2, 3, 3, 2), m_module(5, 2, 3, 3, 2))
        assert no_maps_check(w_module(5, 2, 3, 4, 2), m_module(5, 2, 3, 3, 2))


class TestConstantRank:
    def test_cjt_of_m_module(self):
        report = constant_jordan_type(m_module(5, 3, 3, 3, 2))
        assert report.verdict

    def test_direct_sum_with_eip_summand(self):
        # A sum of an equal-images module and a constant-Jordan-type module
        # still has constant Jordan type.
        s = direct_sum(w_module(5, 2, 3, 3, 2), projective(5, 2, 3, 0))
        assert constant_jordan_type(s).verdict

    def test_non_constant_rank_witnessed(self):
        # Arrow matrices [1 0] and [0 0]: rank drops at the point (0,1).
        maps = (
            (FpMatrix(3, [[1]]), FpMatrix(3, [[0]])),
        )
        rep = BeilinsonRep(3, 2, 2, (1, 1), maps)
        report = constant_rank(rep, 1)
        assert not report.verdict and report.witness is not None

    def test_rank_profile_exposed(self):
        report = constant_rank(m_module(5, 2, 3, 3, 2), 1)
        assert report.verdict
        assert report.ranks


class TestReportSerialization:
    def test_report_json_fields(self):
        doc = json.loads(is_eip_def(m_module(5, 3, 3, 3, 2)).to_json())
        assert doc["property"] == "EIP"
        assert doc["verdict"] is False
        assert doc["field"]["p"] == 5
        assert "witness" in doc


# ---------------------------------------------------------------------------
# the batched definition route against a per-point reference loop

def loop_rank(m):
    return image_basis(m).cols


def loop_step_report(prop, rep, needed):
    """The definition route one point and one level at a time."""
    for alpha in proj_points(rep.p, rep.r):
        for i, step in enumerate(alpha_operator(rep, alpha)):
            if loop_rank(step) < needed[i]:
                return PropertyReport(prop, False, rep.p, witness=(alpha, i))
    return PropertyReport(prop, True, rep.p)


def loop_constant_rank(rep, j):
    points = proj_points(rep.p, rep.r)
    ranks = []
    for alpha in points:
        steps = alpha_operator(rep, alpha)
        total = 0
        for i in range(rep.n - j):
            comp = steps[i]
            for t in range(1, j):
                comp = steps[i + t] @ comp
            total += loop_rank(comp)
        ranks.append(total)
    profile = tuple((a.coords, rk) for a, rk in zip(points, ranks))
    for a, rk in zip(points, ranks):
        if rk != ranks[0]:
            return PropertyReport(f"CR{j}", False, rep.p, witness=(a, j), ranks=profile)
    return PropertyReport(f"CR{j}", True, rep.p, ranks=profile)


def loop_constant_jordan_type(rep):
    """False at the first j whose loop constant rank fails, with its witness."""
    for j in range(1, rep.n):
        report = loop_constant_rank(rep, j)
        if not report.verdict:
            return PropertyReport("CJT", False, rep.p, witness=report.witness)
    return PropertyReport("CJT", True, rep.p)


def sketched_inputs():
    """Reps whose full-rank sweep ranks a sketch of a wide level first."""
    e = tau(tau(e_lambda(5, 3, (1, 1, 1))))
    yield "tau^2 E(5,3)(1,1,1)", e  # dims (34, 13)
    yield "D tau^2 E(5,3)(1,1,1)", dualize(e)
    yield "tau^3 X(5,3)(1,2,3)", tau(tau(tau(x_module(5, 2, 3, ProjPoint(5, (1, 2, 3)), 0, 1))))
    # dims (41, 11): the sketch leaves 2 of the 15 points to the full steps
    yield "tau^2 X(2,4)(0,1,0,1)", tau(tau(x_module(2, 2, 4, ProjPoint(2, (0, 1, 0, 1)), 0, 1)))


def sweep_inputs():
    rng = np.random.default_rng(7)
    for p, n, r, max_dim in ((2, 3, 2, 3), (3, 3, 3, 3), (5, 2, 3, 4), (7, 4, 2, 3), (3, 2, 4, 5)):
        for k in range(6):
            yield f"random {p},{n},{r} #{k}", random_valid_rep(p, n, r, max_dim, rng)
    for args in ((5, 3, 3, 3, 2), (5, 2, 3, 3, 2), (7, 3, 3, 4, 3), (3, 3, 2, 3, 3)):
        yield f"M{args}", m_module(*args)
        yield f"W{args}", w_module(*args)
    for alpha in proj_points(5, 3)[::5]:
        yield f"X{alpha.coords}", x_module(5, 3, 3, alpha, 0, 1)
        yield f"X{alpha.coords} j=2", x_module(5, 3, 3, alpha, 0, 2)
    yield from sketched_inputs()


class TestBatchedSweepMatchesPointLoop:
    def test_reports_equal(self):
        verdicts = set()
        for label, rep in sweep_inputs():
            pairs = [
                (is_eip_def(rep), loop_step_report("EIP", rep, rep.dims[1:])),
                (is_ekp_def(rep), loop_step_report("EKP", rep, rep.dims[:-1])),
            ]
            pairs += [(constant_rank(rep, j), loop_constant_rank(rep, j))
                      for j in range(1, rep.n)]
            pairs.append((constant_jordan_type(rep), loop_constant_jordan_type(rep)))
            for got, want in pairs:
                assert got == want, label
                assert got.to_json() == want.to_json(), label
                verdicts.add((got.property, got.verdict))
        # the inputs exercise both verdicts of every check
        assert {v for prop, v in verdicts if prop == "EIP"} == {True, False}
        assert {v for prop, v in verdicts if prop == "EKP"} == {True, False}
        assert {v for prop, v in verdicts if prop == "CR1"} == {True, False}
        assert {v for prop, v in verdicts if prop == "CJT"} == {True, False}

    def test_sweeps_never_build_the_point_tuple(self, monkeypatch):
        # the definition route reads coordinate rows only and builds a
        # ProjPoint at a failing row alone, so its reports, witnesses and
        # rank profiles stay those of the per-point loops with proj_points
        # refused everywhere
        x = x_module(5, 3, 3, ProjPoint(5, (1, 2, 0)), 0, 1)
        cases = [w_module(5, 3, 3, 3, 2), m_module(5, 3, 3, 3, 2), x, dualize(x)]
        checks = [
            ("EIP", is_eip_def, lambda m: loop_step_report("EIP", m, m.dims[1:])),
            ("EKP", is_ekp_def, lambda m: loop_step_report("EKP", m, m.dims[:-1])),
            ("CR1", lambda m: constant_rank(m, 1), lambda m: loop_constant_rank(m, 1)),
            ("CR2", lambda m: constant_rank(m, 2), lambda m: loop_constant_rank(m, 2)),
            ("CJT", constant_jordan_type, loop_constant_jordan_type),
            # the hom route against its own unpatched reports
            ("EIP-hom", is_eip_hom, is_eip_hom),
            ("EKP-hom", is_ekp_hom, is_ekp_hom),
        ]
        expected = [[want(m) for _, _, want in checks] for m in cases]
        refuse_enumeration(monkeypatch, whole_space=False)
        seen = set()
        for m, wants in zip(cases, expected):
            needed = {"EIP": m.dims[1:], "EKP": m.dims[:-1]}
            for (prop, got, _), want in zip(checks, wants):
                assert got(m) == want
                screened = prop in needed and any(
                    d > min(a, b) for d, a, b in zip(needed[prop], m.dims, m.dims[1:]))
                seen.add((prop, want.verdict, screened))
        # a true and a false input for every check, and EIP and EKP each
        # false both screened and on a full sweep
        assert seen >= {(prop, verdict, False)
                        for prop in ("EIP", "EKP", "CR1", "CJT", "EIP-hom", "EKP-hom")
                        for verdict in (True, False)}
        assert {("EIP", False, True), ("EKP", False, True)} <= seen

    def test_runs_of_points_match_one_stack(self, monkeypatch):
        # a level is ranked in runs of points whose stacks hold at most
        # linalg.STACK_ENTRIES entries, or one point where a step is
        # larger; where the runs break must not change a report
        inputs = list(sweep_inputs())
        checks = (is_eip_def, is_ekp_def)
        expected = [[check(rep) for check in checks] for _, rep in inputs]
        shapes = spy_shapes(monkeypatch)
        # at 2 entries a run holds at most two points, so every sweep over
        # P^{r-1}, which has at least three, takes several runs
        for budget, most in ((2, 2), (7 * 11 * 13, None)):
            monkeypatch.setattr(linalg, "STACK_ENTRIES", budget)
            for (label, rep), wants in zip(inputs, expected):
                for check, want in zip(checks, wants):
                    shapes.clear()
                    got = check(rep)
                    assert got == want and got.to_json() == want.to_json(), label
                    assert all(b == 1 or b * rows * cols <= budget for b, rows, cols in shapes)
                    assert most is None or max(b for b, _, _ in shapes) <= most
        # tau^2 X(2,4)(0,1,0,1) sketches its 15 steps of 11 x 41 as 11 x 13
        # and leaves points 7 and 8 to the full steps: at 7 * 11 * 13
        # entries its sketches run 7 points at a time, so a run boundary
        # falls between certified point 6 and re-ranked point 7, and the
        # two re-ranked points share one run of full steps
        rep = dict(inputs)["tau^2 X(2,4)(0,1,0,1)"]
        shapes.clear()
        assert is_eip_def(rep).verdict
        assert shapes == [(7, 11, 13), (7, 11, 13), (1, 11, 13), (2, 11, 41)]

    def test_composite_ranks_exact_at_large_prime(self, monkeypatch):
        # the 2-fold composite of 3x3 steps sums three products near (p-1)^2;
        # its true rank of 1 turns into garbage if that sum overflows int64.
        # P^1(F_p) has 2^31 points here, so the sweep runs over four of them.
        p = 2**31 - 1
        rng = np.random.default_rng(3)
        u, v = p - 1 - rng.integers(0, 9, size=3), rng.integers(1, 9, size=3)
        a = FpMatrix(p, [[int(x) * int(y) % p for y in v] for x in u])
        b = FpMatrix(p, p - 1 - rng.integers(0, 9, size=(3, 3)))
        # arrows l = 1, 2 are l * a and l * b, so the relations hold
        rep = BeilinsonRep(p, 3, 2, (3, 3, 3), ((a, FpMatrix(p, 2 * a.a)), (b, FpMatrix(p, 2 * b.a))))
        assert validate(rep) == []
        points = tuple(ProjPoint(p, c) for c in ((0, 1), (1, 0), (1, (p - 1) // 2), (1, p - 1)))
        monkeypatch.setattr(properties, "proj_coords",
                            lambda p_, r_, prefix=(): np.array([a.coords for a in points]))
        expected = []
        for alpha in points:
            s0, s1 = ([[sum(c * int(x.a[i, j]) for c, x in zip(alpha.coords, level)) % p
                        for j in range(3)] for i in range(3)] for level in rep.maps)
            comp = [[sum(s1[i][k] * s0[k][j] for k in range(3)) % p for j in range(3)]
                    for i in range(3)]
            expected.append((alpha.coords, rank(FpMatrix(p, comp))))
        assert [rk for _, rk in expected] == [1, 1, 0, 1]
        assert constant_rank(rep, 2).ranks == tuple(expected)

    def test_point_stacks_exact_at_large_prime(self):
        # three arrow terms near (p-1)^2 each would overflow int64 if the
        # sum were reduced only at the end
        p = 2**31 - 1
        arrow = FpMatrix(p, [[p - 1, p - 2, 1], [p - 3, 5, p - 1]])
        level = tuple(FpMatrix(p, (k + 1) * arrow.a) for k in range(4))
        rep = BeilinsonRep(p, 2, 4, (3, 2), (level,))
        points = [ProjPoint(p, (1, p - 1, p - 1, p - 1)), ProjPoint(p, (0, 1, p - 1, p - 2)),
                  ProjPoint(p, (1, 0, 0, 0))]
        (stack,) = point_steps(rep, [a.coords for a in points])
        expected = [
            [[sum(c * int(a.a[i, k]) for c, a in zip(alpha.coords, level)) % p
              for k in range(3)] for i in range(2)]
            for alpha in points
        ]
        assert stack.tolist() == expected


# ---------------------------------------------------------------------------
# sketched levels: a full-rank sweep of a wide level ranks a sketch of its
# steps first and re-ranks only the points the sketch does not certify

def spy_shapes(monkeypatch):
    """The shapes of the stacks that properties.batched_rank ranks, in order."""
    shapes, rank_stack = [], properties.batched_rank
    monkeypatch.setattr(properties, "batched_rank",
                        lambda stack, p: shapes.append(stack.shape) or rank_stack(stack, p))
    return shapes


def step_ranks(p, coords, arrows):
    """The rank of sum_l alpha_l * arrows[l] at each coordinate row alpha,
    each entry a sum of Python integers."""
    return [rank(FpMatrix(p, sum(int(c) * a.astype(object) for c, a in zip(alpha, arrows)) % p))
            for alpha in coords]


class TestSketchedLevels:
    def test_fallback_fires_at_small_p(self, monkeypatch):
        shapes = spy_shapes(monkeypatch)
        label, rep = list(sketched_inputs())[-1]
        assert is_eip_def(rep) == loop_step_report("EIP", rep, rep.dims[1:]), label
        assert shapes == [(15, 11, 13), (2, 11, 41)]

    def test_zero_sketch_reranks_every_point(self, monkeypatch):
        # a zero Q certifies nothing, so every point is ranked on its full
        # step, and the reports do not change
        monkeypatch.setattr(properties, "sketch_matrix",
                            lambda p, rows, cols: np.zeros((rows, cols), dtype=np.int64))
        shapes = spy_shapes(monkeypatch)
        for label, rep in sketched_inputs():
            shapes.clear()
            assert is_eip_def(rep) == loop_step_report("EIP", rep, rep.dims[1:]), label
            assert is_ekp_def(rep) == loop_step_report("EKP", rep, rep.dims[:-1]), label
            points = len(proj_points(rep.p, rep.r))
            assert (points, rep.dims[1], rep.dims[0]) in shapes, label

    @pytest.mark.parametrize("shape, sketch", [
        ((0, 10), None), ((10, 0), None),  # k = 0
        ((3, 40), None),  # k below _SKETCH_MIN_RANK
        ((4, 12), None), ((12, 4), None),  # L = 2 (k + 2)
        ((4, 13), (4, 6)), ((13, 4), (6, 4)),
    ])
    def test_size_rule(self, monkeypatch, shape, sketch):
        shapes = spy_shapes(monkeypatch)
        rng = np.random.default_rng(11)
        arrows = [rng.integers(0, 5, size=shape) for _ in range(3)]
        coords = proj_coords(5, 3)
        assert properties._level_ranks(coords, arrows, 5).tolist() == step_ranks(5, coords, arrows)
        assert shapes[0] == (31, *(sketch or shape))
        # one point is never sketched
        shapes.clear()
        assert properties._level_ranks(coords[:1], arrows, 5).tolist() == step_ranks(5, coords[:1], arrows)
        assert shapes == [(1, *shape)]

    @pytest.mark.parametrize("vertex", [0, 1])
    def test_empty_side_keeps_full_steps(self, monkeypatch, vertex):
        # ten copies of a simple: dims (10, 0) or (0, 10), so k = 0
        shapes = spy_shapes(monkeypatch)
        rep = reduce(direct_sum, [simple(5, 2, 3, vertex)] * 10)
        assert is_eip_def(rep) == loop_step_report("EIP", rep, rep.dims[1:])
        assert is_ekp_def(rep) == loop_step_report("EKP", rep, rep.dims[:-1])
        assert {s[1:] for s in shapes} == {(rep.dims[1], rep.dims[0])}

    def test_sketch_exact_at_large_prime(self, monkeypatch):
        # Q has entries near 2^31, so each entry of Q A sums 13 products
        # near 2^62 and overflows int64 unless matmul splits it into limbs.
        # The step at (1, p - 1) is A_1 - A_2 = D of rank 3, below the 4
        # that EIP needs; P^1(F_p) has 2^31 points, so the sweep runs over
        # four of them.
        p = 2**31 - 1
        rng = np.random.default_rng(13)
        a1 = p - 1 - rng.integers(0, 9, size=(4, 13))
        u, v = p - 1 - rng.integers(0, 9, size=(2, 3, 13))
        d = sum(np.outer(u[t, :4].astype(object), v[t].astype(object)) for t in range(3)) % p
        a2 = (a1.astype(object) - d) % p
        rep = BeilinsonRep(p, 2, 2, (13, 4), ((FpMatrix(p, a1), FpMatrix(p, a2.astype(np.int64))),))
        points = tuple(ProjPoint(p, c) for c in ((0, 1), (1, 0), (1, (p - 1) // 2), (1, p - 1)))
        monkeypatch.setattr(properties, "proj_coords",
                            lambda p_, r_, prefix=(): np.array([a.coords for a in points]))
        shapes = spy_shapes(monkeypatch)
        arrows = [arrow.a for arrow in rep.maps[0]]
        assert step_ranks(p, [a.coords for a in points], arrows) == [4, 4, 4, 3]
        report = is_eip_def(rep)
        assert report.witness == (points[3], 0)
        assert shapes == [(4, 4, 6), (1, 4, 13)]


# ---------------------------------------------------------------------------
# the dimension screen: a level needing more rank than min(dims[i], dims[i+1])
# fails everywhere, so only the first point is ranked

def direction_rep(p, dims, blocks, direction):
    """maps[i][l] = direction[l] * blocks[i]: the relations hold for any
    blocks, and the step at alpha is (alpha . direction) * blocks[i], zero
    on the hyperplane alpha . direction = 0."""
    maps = tuple(tuple(FpMatrix(p, c * np.asarray(b, dtype=np.int64)) for c in direction)
                 for b in blocks)
    rep = BeilinsonRep(p, len(dims), len(direction), tuple(dims), maps)
    assert validate(rep) == []
    return rep


# (prop, dims, screened level): the screened level needs more rank than
# either of its dimensions, and every level below it could pass
SCREENED = [
    ("EKP", (2, 2, 1), 1),
    ("EIP", (2, 2, 3), 1),
    ("EKP", (2, 3, 3, 1), 2),
    ("EIP", (3, 2, 2, 3), 2),
]


def needed_ranks(prop, dims):
    return dims[:-1] if prop == "EKP" else dims[1:]


def full_rank_block(rows, cols):
    return [[int(i == j) for j in range(cols)] for i in range(rows)]


class TestDimensionScreen:
    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("prop, dims, screened", SCREENED)
    def test_lower_level_fails_at_first_point(self, p, prop, dims, screened):
        # level 0 is rank-deficient everywhere, so the witness is
        # (first point, 0), below the screened level
        blocks = [full_rank_block(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]
        blocks[0] = [[0] * dims[0] for _ in range(dims[1])]
        rep = direction_rep(p, dims, blocks, (1, 1, 1))
        check = is_ekp_def if prop == "EKP" else is_eip_def
        report = check(rep)
        assert report == loop_step_report(prop, rep, needed_ranks(prop, dims))
        assert report.witness == (proj_points(p, 3)[0], 0)

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("prop, dims, screened", SCREENED)
    def test_lower_level_fails_at_later_point(self, p, prop, dims, screened):
        # every level below the screened one has full rank at the first
        # point and rank 0 on the plane alpha_0 + alpha_1 + alpha_2 = 0,
        # which misses the first point, so the witness is (first point,
        # screened level)
        blocks = [full_rank_block(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]
        rep = direction_rep(p, dims, blocks, (1, 1, 1))
        check = is_ekp_def if prop == "EKP" else is_eip_def
        report = check(rep)
        assert report == loop_step_report(prop, rep, needed_ranks(prop, dims))
        assert report.witness == (proj_points(p, 3)[0], screened)
        later = ProjPoint(p, (0, 1, p - 1))
        assert loop_rank(alpha_operator(rep, later)[0]) < needed_ranks(prop, dims)[0]

    def test_answers_without_enumerating(self, monkeypatch):
        # P^2(F_p) has about 4.6e18 points at p = 2^31 - 1
        refuse_enumeration(monkeypatch)
        p = 2**31 - 1
        rng = np.random.default_rng(5)
        for dims, check in (((2, 1), is_ekp_def), ((1, 2), is_eip_def)):
            level = tuple(FpMatrix(p, rng.integers(0, p, size=(dims[1], dims[0])))
                          for _ in range(3))
            report = check(BeilinsonRep(p, 2, 3, dims, (level,)))
            assert not report.verdict
            assert report.witness == (ProjPoint(p, (0, 0, 1)), 0)
