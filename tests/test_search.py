"""Linear combinations of a hom basis and the invertible-element search."""

import numpy as np

from beilinson.kronecker import e_lambda
from beilinson.linalg import FpMatrix, rank
from beilinson.reps import block_diagonal, direct_sum, hom_space, simple
from beilinson.search import find_invertible, span


class TestSpan:
    def test_combination_matches_python_integers(self):
        p = 2**31 - 1
        entries = [[p - 1, p - 2], [1, p - 1]]
        basis = [FpMatrix(p, np.array(entries) * (k + 1)) for k in range(3)]
        coeffs = (p - 1, p - 1, p - 1)
        expected = [
            [sum(c * int(b.a[i, j]) for c, b in zip(coeffs, basis)) % p for j in range(2)]
            for i in range(2)
        ]
        assert span(p, basis)(coeffs).a.tolist() == expected


class TestFindInvertible:
    def test_empty_basis_is_no(self):
        assert find_invertible(5, 0, span(5, []), lambda phi: True) == "no"

    def test_exhausted_enumeration_certifies_no(self):
        # S0^2+S1^3 against E+S0+S1^2 at p = 2: dim Hom = 11, and neither a
        # single basis element nor a random combination is invertible, so all
        # 2^11 coefficient vectors are enumerated before answering.
        s0, s1 = simple(2, 2, 2, 0), simple(2, 2, 2, 1)
        left = direct_sum(direct_sum(direct_sum(direct_sum(s0, s0), s1), s1), s1)
        right = direct_sum(direct_sum(direct_sum(e_lambda(2, 2, (1, 0)), s0), s1), s1)
        basis = [block_diagonal(phi) for phi in hom_space(left, right)]
        assert len(basis) == 11
        tried = []

        def invertible(phi):
            tried.append(phi)
            return rank(phi) == left.total_dim

        assert find_invertible(2, len(basis), span(2, basis), invertible) == "no"
        assert len(tried) > 2**11

