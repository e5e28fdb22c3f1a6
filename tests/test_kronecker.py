"""Auslander-Reiten translate and width invariant on the r-Kronecker quiver."""

import numpy as np
import pytest

from beilinson.kronecker import (
    classify,
    combined_arrow_matrix,
    coxeter_dims,
    e_lambda,
    inverse_coxeter_dims,
    strip_simple_projective_summands,
    tau,
    tau_detailed,
    tau_inv,
    tits_form,
    width,
    wmod_shift_check,
)
from beilinson.linalg import FpMatrix, cokernel_projection, kernel_basis
from beilinson.properties import is_eip_def, is_ekp_def
from beilinson.reps import (
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
        for dims in ((6, 3), (1, 1), (1, 2), (13, 5)):
            assert inverse_coxeter_dims(3, coxeter_dims(3, dims)) == dims

    def test_tau_inv_round_trip(self):
        w = w_module(5, 2, 3, 3, 2)
        assert rep_isomorphic(tau_inv(tau(w)), w) == "yes"

    def test_projective_summands_stripped(self):
        w = w_module(5, 2, 3, 3, 2)
        padded = direct_sum(w, projective(5, 2, 3, 1))
        detail = tau_detailed(padded)
        assert detail.stripped_simple_projectives == 1
        assert detail.rep.dims == tau(w).dims

    def test_tau_of_x_is_dual_of_x(self):
        for coords in ((1, 0, 0), (0, 1, 0), (1, 1, 1), (1, 2, 3), (1, 4, 2)):
            x = x_module(5, 2, 3, ProjPoint(5, coords), 0, 1)
            assert rep_isomorphic(tau(x), dualize(x)) == "yes"


def loop_tau_maps(m):
    """The translate's arrows with the relation and slot shuffles written
    as per-entry loops: the reference for tau_detailed's reshapes."""
    core, _ = strip_simple_projective_summands(m)
    p, r, d0 = m.p, m.r, core.dims[0]
    relations = kernel_basis(combined_arrow_matrix(core))
    s = relations.cols
    h = np.zeros((r * s, d0), dtype=np.int64)
    for j in range(s):
        for l in range(r):
            h[j * r + l, :] = relations.a[l * d0:(l + 1) * d0, j]
    q, c = cokernel_projection(FpMatrix(p, h))
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
        for rep in reps:
            assert [a.a.tolist() for a in tau(rep).maps[0]] == loop_tau_maps(rep)


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
        assert c.kind == "regular" and c.bound == 8

    def test_decomposable_flagged(self):
        s = direct_sum(simple(5, 2, 3, 0), simple(5, 2, 3, 0))
        assert classify(s).kind == "decomposable"

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

    def test_report_shape(self):
        report = width(e_lambda(5, 3, (1, 1, 1)), base_label="brick")
        exps = [s.exponent for s in report.shifts]
        assert exps == sorted(exps)
        assert report.base == "brick"
        dot = report.to_dot()
        assert dot.startswith("digraph") and "tau^0" in dot

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
