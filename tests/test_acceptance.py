"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test name carries its criterion number; the conftest hook prints a
PASS/FAIL line per criterion at the end of the run.
"""

import time

import numpy as np
import pytest

from helpers import random_invertible, random_valid_rep, subspaces
from beilinson.emod import (
    end_algebra,
    forget,
    group_algebra_radical_power,
    is_isomorphic,
    jordan_type,
    jt_formula,
    twist,
)
from beilinson.kronecker import (
    coxeter_dims,
    e_lambda,
    tau,
    tau_inv,
    width,
    wmod_shift_check,
)
from beilinson.linalg import FpMatrix
from beilinson.properties import (
    is_eip_def,
    is_eip_hom,
    is_ekp_def,
    is_ekp_hom,
)
from beilinson.reps import (
    BeilinsonRep,
    ProjPoint,
    dualize,
    hom_space,
    image_rep,
    injective,
    m_module,
    proj_points,
    projective,
    rep_isomorphic,
    validate,
    w_module,
    x_module,
)


def family_corpus(p=5):
    """All family members used across the suite, with labels."""
    corpus = []
    for n in (2, 3):
        for d in range(2, n + 1):
            for m in range(d, d + 3):
                corpus.append((f"M({n},{m},{d})", m_module(p, n, 3, m, d)))
                corpus.append((f"W({n},{m},{d})", w_module(p, n, 3, m, d)))
    for i in range(2):
        corpus.append((f"P({i})", projective(p, 2, 3, i)))
        corpus.append((f"I({i})", injective(p, 2, 3, i)))
    for coords in ((1, 0, 0), (0, 1, 0), (1, 1, 1), (1, 2, 3)):
        corpus.append(
            (f"X{coords}", x_module(p, 2, 3, ProjPoint(p, coords), 0, 1))
        )
    corpus.append(("E(1,1,1)", e_lambda(p, 3, (1, 1, 1))))
    return corpus


def test_criterion_01_jordan_type_formula():
    """Jordan types of the slice modules and their duals match the closed
    formula at every point of the projective space, for the full grid."""
    start = time.monotonic()
    for r in (2, 3, 4):
        for p in (5, 7):
            points = proj_points(p, r)
            for n in range(2, 5):
                for d in range(2, n + 1):
                    expected = jt_formula(n, d, r).counts
                    for rep in (m_module(p, n, r, n, d),
                                w_module(p, n, r, n, d)):
                        module = forget(rep)
                        for alpha in points:
                            assert jordan_type(module, alpha).counts \
                                == expected, (r, p, n, d, alpha)
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"grid took {elapsed:.1f}s"


def test_criterion_02_width_examples():
    """The three translate-orbit widths over p=5, r=3: 0, 1, and 2."""
    start = time.monotonic()
    assert width(w_module(5, 2, 3, 3, 2)).width == 0
    assert width(e_lambda(5, 3, (1, 1, 1))).width == 1
    assert width(x_module(5, 2, 3, ProjPoint(5, (1, 0, 0)), 0, 1)).width == 2
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"width scans took {elapsed:.1f}s"


def test_criterion_03_two_routes_equivalent():
    """Definition-route and homological-route property checks agree on 200
    seeded random valid representations at (n,r,p)=(3,3,5) plus the family
    corpus, with zero discrepancies."""
    rng = np.random.default_rng(2024)
    discrepancies = []

    def compare(label, rep):
        if is_eip_def(rep).verdict != is_eip_hom(rep).verdict:
            discrepancies.append(("EIP", label))
        if is_ekp_def(rep).verdict != is_ekp_hom(rep).verdict:
            discrepancies.append(("EKP", label))

    for k in range(200):
        compare(f"random#{k}", random_valid_rep(5, 3, 3, 3, rng))
    for label, rep in family_corpus():
        if rep.n == 3:
            compare(label, rep)
    assert discrepancies == []


def test_criterion_04_radical_power_isomorphism():
    """The square slice-dual modules are the radical powers of the group
    algebra, as certified module isomorphisms."""
    start = time.monotonic()
    for p, r, d in ((3, 2, 2), (3, 2, 3), (3, 3, 2), (5, 2, 2)):
        left = forget(w_module(p, d, r, d, d))
        right = group_algebra_radical_power(p, r, r * (p - 1) + 1 - d)
        assert is_isomorphic(left, right) == "yes", (p, r, d)
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"isomorphism certification took {elapsed:.1f}s"


def test_criterion_05_brick_and_local_end():
    """Slice modules are bricks at the listed parameters, and the
    endomorphism ring of the forgotten module is commutative and local."""
    for n, r, m, d in ((2, 3, 3, 2), (2, 3, 4, 2), (3, 3, 4, 3)):
        rep = m_module(5, n, r, m, d)
        assert len(hom_space(rep, rep)) == 1, (n, r, m, d)
    for r in (2, 3):
        _, report = end_algebra(forget(m_module(5, 3, r, 3, 2)))
        assert report.commutative and report.local, r


def test_criterion_06_translate_shift_and_rank_two_contrast():
    """The translate of the length-two slice module is equal-images for
    rank three (both m=3 and m=4), while over the 2-Kronecker the translate
    lands in the equal-kernels class instead."""
    assert wmod_shift_check(5, 3, 3)
    assert wmod_shift_check(5, 3, 4)
    contrast = tau(m_module(5, 2, 2, 3, 2))
    assert is_ekp_def(contrast).verdict
    assert not is_eip_def(contrast).verdict


def test_criterion_07_translate_of_point_module_is_dual():
    """tau X_alpha is isomorphic to the dual of X_alpha for five distinct
    points, and the Coxeter dimension law holds at every translate."""
    coords_list = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3))
    for coords in coords_list:
        x = x_module(5, 2, 3, ProjPoint(5, coords), 0, 1)
        t = tau(x)
        assert t.dims == coxeter_dims(3, x.dims), coords
        assert rep_isomorphic(t, dualize(x)) == "yes", coords
    # Coxeter law on the wider corpus of non-projective indecomposables:
    # the law predicts a positive dimension vector exactly when the module
    # is not projective, so skip the projectives it cannot cover.
    for label, rep in family_corpus():
        if rep.n != 2:
            continue
        predicted = coxeter_dims(3, rep.dims)
        if predicted[0] <= 0 or predicted[1] <= 0:
            assert tau(rep).total_dim == 0, label
            continue
        assert tau(rep).dims == predicted, label


def test_criterion_08_no_maps_and_closures():
    """No nonzero maps from equal-images to equal-kernels members; the
    equal-images class is image-closed and the equal-kernels class is
    closed under submodules; duality swaps the two properties on the full
    corpus."""
    corpus = family_corpus()
    eip_members = [rep for _, rep in corpus if is_eip_def(rep).verdict]
    ekp_members = [rep for _, rep in corpus if is_ekp_def(rep).verdict]
    trivial_like = [
        rep for rep in eip_members
        if any(rep == other for other in ekp_members)
    ]
    rng = np.random.default_rng(77)

    pairs = 0
    while pairs < 50:
        a = eip_members[int(rng.integers(len(eip_members)))]
        b = ekp_members[int(rng.integers(len(ekp_members)))]
        if a.n != b.n:
            continue
        if any(a == t for t in trivial_like) or any(b == t for t in trivial_like):
            continue
        assert hom_space(a, b) == []
        pairs += 1

    def random_image(src, dst):
        basis = hom_space(src, dst)
        if not basis:
            return None
        coeffs = rng.integers(0, src.p, size=len(basis))
        if not any(coeffs):
            coeffs[0] = 1
        phi = tuple(
            sum(
                (FpMatrix(src.p, int(c) * b[v].a) for c, b in zip(coeffs[1:], basis[1:])),
                FpMatrix(src.p, int(coeffs[0]) * basis[0][v].a),
            )
            for v in range(src.n)
        )
        return image_rep(phi, src, dst)

    checked = 0
    while checked < 50:
        src = eip_members[int(rng.integers(len(eip_members)))]
        dst = eip_members[int(rng.integers(len(eip_members)))]
        if src.n != dst.n:
            continue
        img = random_image(src, dst)
        if img is None or sum(img.dims) == 0:
            continue
        assert is_eip_def(img).verdict, "image of equal-images map"
        checked += 1

    checked = 0
    while checked < 50:
        src = ekp_members[int(rng.integers(len(ekp_members)))]
        dst = ekp_members[int(rng.integers(len(ekp_members)))]
        if src.n != dst.n:
            continue
        img = random_image(src, dst)
        if img is None or sum(img.dims) == 0:
            continue
        assert is_ekp_def(img).verdict, "submodule of equal-kernels module"
        checked += 1

    for label, rep in corpus:
        assert is_eip_def(rep).verdict == is_ekp_def(dualize(rep)).verdict, label
        assert is_ekp_def(rep).verdict == is_eip_def(dualize(rep)).verdict, label


def test_criterion_09_twist_stability():
    """Twisting by ten random invertible coordinate changes yields modules
    certified isomorphic to the original, for the slice module and its
    dual at (n,d,r,p) = (3,2,3,5)."""
    rng = np.random.default_rng(11)
    for rep in (m_module(5, 3, 3, 3, 2), w_module(5, 3, 3, 3, 2)):
        module = forget(rep)
        for _ in range(10):
            g = random_invertible(5, 3, rng)
            assert is_isomorphic(module, twist(module, g)) == "yes"


def test_criterion_10_submodule_census():
    """Every proper nonzero subrepresentation of the point module over F_2
    and F_3 is supported at the sink vertex only, i.e. a direct sum of one
    or two copies of the sink simple."""
    for p in (2, 3):
        for alpha in proj_points(p, 3):
            x = x_module(p, 2, 3, alpha, 0, 1)
            assert x.dims == (1, 2)
            found = set()
            for u0 in subspaces(p, 1):
                for u1 in subspaces(p, 2):
                    stable = all(
                        all(
                            # Each arrow image of u0 must lie in span(u1):
                            # check by rank comparison.
                            _contained(a @ u0, u1)
                            for a in x.maps[0]
                        )
                        for _ in (0,)
                    )
                    if not stable:
                        continue
                    dims = (u0.cols, u1.cols)
                    if dims == (0, 0) or dims == x.dims:
                        continue
                    found.add(dims)
                    assert dims[0] == 0 and dims[1] in (1, 2), (p, alpha, dims)
            assert found == {(0, 1), (0, 2)}, (p, alpha)


def _contained(cols, space):
    """True when every column of cols lies in the column span of space."""
    from beilinson.linalg import rank

    if cols.cols == 0:
        return True
    return rank(space.hstack(cols)) == rank(space)
