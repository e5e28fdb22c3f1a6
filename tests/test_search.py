"""Linear combinations of a hom basis and the invertible-element search."""

import numpy as np

from beilinson.linalg import FpMatrix
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

