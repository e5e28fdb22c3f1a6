"""Auslander-Reiten translate and width invariant on the r-Kronecker quiver."""

import json
import re
import tracemalloc

import numpy as np
import pytest

from helpers import random_valid_rep

from beilinson import properties
from beilinson.emod import is_indecomposable
from beilinson.kronecker import (
    Classification,
    ShiftRecord,
    TauOrbitReport,
    classify,
    coxeter_dims,
    e_lambda,
    tau,
    tau_inv,
    tits_form,
    width,
    wmod_shift_check,
)
from beilinson.linalg import FpMatrix, image_basis, kernel_basis, solve_matrix
from beilinson.properties import is_eip_def, is_ekp_def
from beilinson.reps import (
    BeilinsonRep,
    ProjPoint,
    direct_sum,
    dualize,
    injective,
    m_module,
    projective,
    rep_isomorphic,
    simple,
    validate,
    w_module,
    x_module,
)


class TestTauBasics:
    def test_kills_projectives(self):
        for i in range(2):
            assert tau(projective(5, 2, 3, i)).total_dim == 0

    def test_rejects_longer_quivers(self):
        with pytest.raises(ValueError):
            tau(projective(5, 3, 3, 0))

    def test_output_satisfies_relations(self):
        t = tau(w_module(5, 2, 3, 3, 2))
        assert validate(t) == []

    def test_coxeter_law_on_regulars(self):
        for rep in (
            w_module(5, 2, 3, 3, 2),
            e_lambda(5, 3, (1, 1, 1)),
            x_module(5, 2, 3, ProjPoint(5, (1, 0, 0)), 0, 1),
        ):
            assert tau(rep).dims == coxeter_dims(3, rep.dims)

    def test_inverse_coxeter_inverts(self):
        # classify's inverse recursion: the same recursion on reversed dims
        for dims in ((6, 3), (1, 1), (1, 2), (13, 5)):
            assert coxeter_dims(3, coxeter_dims(3, dims)[::-1])[::-1] == dims
        for rep in (w_module(5, 2, 3, 3, 2), e_lambda(5, 3, (1, 1, 1))):
            assert tau_inv(rep).dims == coxeter_dims(3, rep.dims[::-1])[::-1]

    def test_tau_inv_round_trip(self):
        w = w_module(5, 2, 3, 3, 2)
        assert rep_isomorphic(tau_inv(tau(w)), w) == "yes"

    def test_projective_summands_stripped(self):
        # a simple projective summand adds no relations
        w = w_module(5, 2, 3, 3, 2)
        padded = direct_sum(w, projective(5, 2, 3, 1))
        assert tau(padded).to_json() == tau(w).to_json()

    def test_tau_of_x_is_dual_of_x(self):
        for coords in ((1, 0, 0), (0, 1, 0), (1, 1, 1), (1, 2, 3), (1, 4, 2)):
            x = x_module(5, 2, 3, ProjPoint(5, coords), 0, 1)
            assert rep_isomorphic(tau(x), dualize(x)) == "yes"


def loop_tau_maps(m):
    """The translate's arrows with the simple projective summands split
    off first, the relation and slot shuffles written as per-entry loops,
    and the cokernel taken as the left null space of h: the reference for
    tau's relations on the whole rep, its reshapes and its
    quotient_projection."""
    p, r, d0 = m.p, m.r, m.dims[0]
    arrows = FpMatrix.hstack(*m.maps[0])
    # the arrows in coordinates of a basis of their image: the vertex-1
    # complement of that image spans the simple projective summands
    relations = kernel_basis(solve_matrix(image_basis(arrows), arrows))
    s = relations.cols
    h = np.zeros((r * s, d0), dtype=np.int64)
    for j in range(s):
        for l in range(r):
            h[j * r + l, :] = relations.a[l * d0:(l + 1) * d0, j]
    q = kernel_basis(FpMatrix(p, h).transpose()).transpose()
    c = q.rows
    maps = []
    for l in range(r):
        dl = np.zeros((c, s), dtype=np.int64)
        for j in range(s):
            dl[:, j] = q.a[:, j * r + l]
        maps.append(dl.T.tolist())
    return maps


class TestTauMatchesLoop:
    def test_same_arrows(self):
        reps = [w_module(5, 2, 3, 3, 2), m_module(3, 2, 2, 3, 2), e_lambda(5, 3, (1, 2, 0)),
                direct_sum(projective(5, 2, 3, 0), simple(5, 2, 3, 1)),
                x_module(3, 2, 3, ProjPoint(3, (1, 2, 0)), 0, 1)]
        reps.append(tau(reps[0]))
        # the (134, 36) shift of W(7,2,4,3,2), whose translate has dims (1866, 500)
        reps.append(tau(w_module(7, 2, 4, 3, 2)))
        for rep in reps:
            assert [a.a.tolist() for a in tau(rep).maps[0]] == loop_tau_maps(rep)

    def test_arrows_are_views_of_the_quotient(self):
        # the arrows are slices of pi, so the translate of the (134, 36)
        # shift peaks near pi's own 28.5 MiB; copying pi into the arrows
        # takes it above 60 MiB
        rep = tau(w_module(7, 2, 4, 3, 2))
        tracemalloc.start()
        try:
            t = tau(rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.dims == (1866, 500)
        assert peak < 45 * 2**20


def two_loop_width(m, k_max):
    """width with its inverse side walked by tau_inv in a second loop: the
    reference for width's one scan, whose inverse side runs through D."""
    shifts = []

    def record(exponent, rep):
        dead = rep.total_dim == 0
        rec = ShiftRecord(exponent, (rep.dims[0], rep.dims[1]),
                          eip=(not dead) and is_eip_def(rep).verdict,
                          ekp=(not dead) and is_ekp_def(rep).verdict,
                          hit_projective=dead and exponent > 0,
                          hit_injective=dead and exponent < 0)
        shifts.append(rec)
        return rec

    base = record(0, m)
    m0 = 0 if base.eip else None
    m1 = 0 if base.ekp else None
    cur, k = m, 0
    while m0 is None and k < k_max:
        k += 1
        cur = tau(cur)
        rec = record(k, cur)
        if rec.hit_projective:
            break
        if rec.eip:
            m0 = k
    cur, k = m, 0
    while m1 is None and k < k_max:
        k += 1
        cur = tau_inv(cur)
        rec = record(-k, cur)
        if rec.hit_injective:
            break
        if rec.ekp:
            m1 = -k
    w = m0 - m1 - 1 if (m0 is not None and m1 is not None) else None
    shifts.sort(key=lambda s: s.exponent)
    return TauOrbitReport(f"rep dims {m.dims}", m.p, m.r, k_max, tuple(shifts), w)


def two_recursion_classify(m, k_max):
    """The orbit kind by walking the Coxeter recursion and its inverse,
    written out, up to k_max steps each, with no use of the Tits form: the
    reference for classify's certificate and its one recursion on reversed
    dims.  The walk stops at a negative coordinate, the image of a
    (co)projective; the simple dimension vectors (0, 1) and (1, 0) stay
    inside, as tau^-1 P(1) = (3, 8) -> (0, 1) at r = 3 shows."""
    r, q = m.r, tits_form(m.r, m.dims)
    if is_indecomposable(m).verdict == "decomposable":
        return Classification("decomposable", None, None, q)
    steps = (("preprojective", lambda d0, d1: ((r * r - 1) * d0 - r * d1, r * d0 - d1)),
             ("preinjective", lambda d0, d1: (-d0 + r * d1, -r * d0 + (r * r - 1) * d1)))
    for kind, step in steps:
        cur = m.dims
        for k in range(k_max + 1):
            cur = step(*cur)
            if cur[0] < 0 or cur[1] < 0:
                return Classification(kind, k, None, q)
    return Classification("regular", None, None, q)


def hand_json(report):
    """TauOrbitReport.to_json with its keys written out: the reference
    for the dataclass serializer."""
    return json.dumps({
        "base": report.base, "p": report.p, "r": report.r, "k_max": report.k_max,
        "shifts": [{"exponent": s.exponent, "dims": list(s.dims), "eip": s.eip,
                    "ekp": s.ekp, "hit_projective": s.hit_projective,
                    "hit_injective": s.hit_injective} for s in report.shifts],
        "width": report.width,
    })


def orbit_corpus():
    """Projectives, injectives, simples, W, M, E(lambda), X_alpha,
    S(0) + E(lambda) and 20 seeded random reps over four (p, r); the zero
    rep, which both refuse, is in TestWidth.test_zero_rep_refused."""
    rng = np.random.default_rng(14)
    corpus = []
    for p, r in ((5, 3), (3, 2), (7, 4), (2, 3)):
        ones, alpha = (1,) * r, (1,) + (0,) * (r - 1)
        corpus += [family(p, 2, r, i) for family in (projective, injective, simple)
                   for i in range(2)]
        corpus += [w_module(p, 2, r, 3, 2), m_module(p, 2, r, 3, 2), e_lambda(p, r, ones),
                   x_module(p, 2, r, ProjPoint(p, alpha), 0, 1),
                   direct_sum(simple(p, 2, r, 0), e_lambda(p, r, ones))]
        corpus += [random_valid_rep(p, 2, r, 3, rng) for _ in range(5)]
    return corpus


def kronecker_corpus():
    """orbit_corpus() and 40 seeded random reps of dims up to (4, 4) over
    (p, r) = (2, 2), (3, 2), (5, 3), (2, 4): regular, preprojective,
    preinjective and decomposable ones."""
    rng = np.random.default_rng(24)
    return orbit_corpus() + [random_valid_rep(p, 2, r, 4, rng)
                             for p, r in ((2, 2), (3, 2), (5, 3), (2, 4)) for _ in range(10)]


class TestOrbitMatchesReference:
    @pytest.mark.parametrize("k_max", [0, 1, 2, 8])
    def test_same_reports_and_classes(self, k_max):
        # the shifts' equal-images and equal-kernels classes
        for rep in orbit_corpus():
            report, ref = width(rep, k_max), two_loop_width(rep, k_max)
            assert report.to_json() == hand_json(ref)
            assert report.to_dot() == ref.to_dot()


class TestClassifyCertificate:
    """classify decides regularity by the Tits form and walks only real
    roots; the reference walks the recursions up to K steps whatever q is.
    K = 12 lies above every exponent of the corpus."""

    K = 12

    def test_regular_exactly_when_tits_form_nonpositive(self):
        kinds = set()
        for rep in kronecker_corpus():
            ref = two_recursion_classify(rep, self.K)
            got = classify(rep)
            assert (got.kind, got.exponent, got.tits_value) == (
                ref.kind, ref.exponent, ref.tits_value), rep.dims
            assert got.bound is None
            if ref.kind != "decomposable":
                assert (ref.kind == "regular") == (ref.tits_value <= 0), rep.dims
            kinds.add(ref.kind)
        assert kinds == {"preprojective", "preinjective", "regular", "decomposable"}

    @pytest.mark.parametrize("r, i, k_top", [(3, 1, 3), (3, 0, 2), (2, 1, 6), (2, 0, 6)])
    def test_exponent_counts_translates(self, r, i, k_top):
        # tau^-k P(i) and tau^k I(1 - i) have exponent k.  The orbits of the
        # simple projective P(1) and the simple injective I(0) pass through
        # (0, 1) and (1, 0), one step before the negative coordinate.  At
        # r = 3 the orbits of P(0) and I(1) stop at k = 2: tau^-3 P(0) has
        # dims (377, 987), and its End alone costs more than this whole test
        pre, post = projective(2, 2, r, i), injective(2, 2, r, 1 - i)
        for k in range(k_top + 1):
            for kind, rep in (("preprojective", pre), ("preinjective", post)):
                c = classify(rep)
                assert (c.kind, c.exponent) == (kind, k), rep.dims
            if k < k_top:
                pre, post = tau_inv(pre), tau(post)


class TestELambda:
    def test_dims_and_relations(self):
        e = e_lambda(5, 3, (1, 2, 3))
        assert e.dims == (1, 1)
        assert validate(e) == []

    def test_zero_lambda_rejected(self):
        with pytest.raises(ValueError):
            e_lambda(5, 3, (0, 0, 0))

    def test_translate_dims(self):
        assert tau(e_lambda(5, 3, (1, 1, 1))).dims == (5, 2)


class TestTitsForm:
    def test_values(self):
        assert tits_form(3, (1, 1)) == 1 + 1 - 3
        assert tits_form(2, (1, 1)) == 0
        assert tits_form(3, (1, 3)) == 1  # preprojective P(0)


class TestClassify:
    def test_projectives_preprojective(self):
        for i in range(2):
            c = classify(projective(5, 2, 3, i))
            assert c.kind == "preprojective" and c.exponent == 0

    def test_injectives_preinjective(self):
        for i in range(2):
            c = classify(injective(5, 2, 3, i))
            assert c.kind == "preinjective" and c.exponent == 0

    def test_regular_module(self):
        c = classify(w_module(5, 2, 3, 3, 2))
        assert c.kind == "regular" and c.bound is None

    def test_decomposable_flagged(self):
        s = direct_sum(simple(5, 2, 3, 0), simple(5, 2, 3, 0))
        assert classify(s).kind == "decomposable"

    def test_negative_k_max_rejected(self):
        # width bounds a real search, and a negative bound has no verdict;
        # classify takes no bound at all
        with pytest.raises(ValueError, match="k_max"):
            width(projective(5, 2, 3, 0), k_max=-1)
        with pytest.raises(TypeError, match="k_max"):
            classify(projective(5, 2, 3, 0), k_max=8)

    def test_r2_kronecker_regular(self):
        # For the 2-Kronecker the dimension vector (1,1) modules are the
        # homogeneous tubes.
        c = classify(e_lambda(5, 2, (1, 1)))
        assert c.kind == "regular" and c.tits_value == 0


class TestWidth:
    def test_w_module_width_zero(self):
        assert width(w_module(5, 2, 3, 3, 2)).width == 0

    def test_e_lambda_width_one(self):
        assert width(e_lambda(5, 3, (1, 1, 1))).width == 1

    def test_x_module_width_two(self):
        x = x_module(5, 2, 3, ProjPoint(5, (1, 0, 0)), 0, 1)
        assert width(x).width == 2

    def test_zero_rep_refused(self):
        # the zero rep has no translate orbit, and classify finds it neither
        # decomposable nor indecomposable
        for p, r in ((5, 3), (3, 2), (7, 4), (2, 3)):
            zero = BeilinsonRep.from_json(
                json.dumps({"p": p, "n": 2, "r": r, "dims": [0, 0], "maps": [[[]] * r]}))
            for k_max in (0, 8):
                with pytest.raises(ValueError, match="zero representation"):
                    width(zero, k_max)
            with pytest.raises(ValueError, match="zero module"):
                classify(zero)

    def test_square_shift_ranked_once(self, monkeypatch):
        # for n = 2, EIP and EKP of a square shift ask for the same rank of
        # the same (points, d, d) step stack, so it is ranked once
        shapes, rank = [], properties.batched_rank
        monkeypatch.setattr(properties, "batched_rank",
                            lambda stack, p: shapes.append(stack.shape) or rank(stack, p))
        rep = e_lambda(7, 4, (1, 5, 2, 4))
        report = width(rep, 0)
        assert shapes == [(400, 1, 1)]
        assert report.to_json() == hand_json(two_loop_width(rep, 0))

    def test_wide_shift_ranked_as_sketch(self, monkeypatch):
        # the (41, 11) and (11, 41) shifts of X(7,4)(1,2,0,5) sweep 13-line
        # sketches of their steps; only the points a sketch does not
        # certify, and the one point of a screened sweep, are ranked on
        # full 11 x 41 steps
        shapes, rank = [], properties.batched_rank
        monkeypatch.setattr(properties, "batched_rank",
                            lambda stack, p: shapes.append(stack.shape) or rank(stack, p))
        rep = x_module(7, 2, 4, ProjPoint(7, (1, 2, 0, 5)), 0, 1)
        report = width(rep)
        assert (400, 11, 13) in shapes and (400, 13, 11) in shapes
        full = [shape for shape in shapes if 41 in shape]
        assert full and all(shape[0] <= 4 for shape in full)
        assert report.to_json() == hand_json(two_loop_width(rep, 8))

    def test_report_shape(self):
        report = width(e_lambda(5, 3, (1, 1, 1)), base_label="brick")
        exps = [s.exponent for s in report.shifts]
        assert exps == sorted(exps)
        assert report.base == "brick"
        dot = report.to_dot()
        assert dot.startswith("digraph") and "tau^0" in dot

    def test_dot_ids_are_valid(self):
        # DOT IDs: an identifier, a numeral or a double-quoted string; the
        # inverse shifts of X(5,3)(1,0,0) have negative exponents
        dot_id = r'[A-Za-z_][A-Za-z_0-9]*|-?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)|"(?:[^"\\]|\\.)*"'
        node = re.compile(rf"\s*({dot_id}) \[label=.*\];")
        edge = re.compile(rf"\s*({dot_id}) -> ({dot_id}) \[style=dashed\];")
        report = width(x_module(5, 2, 3, ProjPoint(5, (1, 0, 0)), 0, 1), k_max=2)
        assert min(s.exponent for s in report.shifts) < 0
        lines = report.to_dot().splitlines()[2:-1]
        nodes = [node.fullmatch(line) for line in lines if "->" not in line]
        edges = [edge.fullmatch(line) for line in lines if "->" in line]
        assert all(nodes) and all(edges)
        declared = {m.group(1) for m in nodes}
        assert len(declared) == len(report.shifts)
        assert {m.group(k) for m in edges for k in (1, 2)} <= declared
        assert len(edges) == len(report.shifts) - 1

    def test_r2_contrast_translate_lands_in_ekp(self):
        # Over the 2-Kronecker the translate of the length-two slice module
        # is preprojective, hence an equal-kernels module.
        t = tau(m_module(5, 2, 2, 3, 2))
        assert is_ekp_def(t).verdict


class TestWmodShift:
    @pytest.mark.parametrize("m", [3, 4])
    def test_holds_for_rank_three(self, m):
        assert wmod_shift_check(5, 3, m)

    def test_rejects_rank_two(self):
        with pytest.raises(ValueError):
            wmod_shift_check(5, 2, 3)

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            wmod_shift_check(5, 3, 2)


class TestOrbitConsistency:
    def test_translate_preserves_eip(self):
        # The equal-images class is translate-stable.
        w = w_module(5, 2, 3, 3, 2)
        assert is_eip_def(w).verdict
        assert is_eip_def(tau(w)).verdict

    def test_inverse_translate_preserves_ekp(self):
        m = m_module(5, 2, 3, 3, 2)
        assert is_ekp_def(m).verdict
        assert is_ekp_def(tau_inv(m)).verdict
