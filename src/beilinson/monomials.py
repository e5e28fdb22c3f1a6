"""Monomial bases for truncated polynomial rings.

A monomial in r commuting variables is an exponent tuple (e_1, ..., e_r).
Bases of each graded piece are ordered graded-lexicographically (within a
fixed degree, descending lex on the exponent tuple, so x_1^d comes first).
This order is fixed once and for all so every matrix in the library is
bit-reproducible.  Only multiplication by a single variable is built here;
multiplication by a linear form is the matching combination of those
(``reps.alpha_operator``), and its powers are composites of it.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .linalg import FpMatrix


@lru_cache(maxsize=None)
def monomials(r: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of the given total degree, graded-lex ordered."""
    if r < 1:
        raise ValueError(f"need r >= 1 variables, got r={r}")
    if degree < 0:
        return ()
    if r == 1:
        return ((degree,),)

    def gen(rest: int, deg: int):
        if rest == 1:
            yield (deg,)
            return
        for e in range(deg, -1, -1):
            for tail in gen(rest - 1, deg - e):
                yield (e,) + tail

    return tuple(gen(r, degree))


@lru_cache(maxsize=None)
def monomial_index(r: int, degree: int) -> dict[tuple[int, ...], int]:
    return {m: i for i, m in enumerate(monomials(r, degree))}


def dim_degree(r: int, degree: int) -> int:
    """Number of degree-d monomials in r variables: C(r+d-1, d)."""
    if r < 1:
        raise ValueError(f"need r >= 1 variables, got r={r}")
    if degree < 0:
        return 0
    return comb(r + degree - 1, degree)


def multiplication_matrix(p: int, r: int, degree: int, var: int) -> FpMatrix:
    """Matrix of multiplication by x_var from degree d to degree d+1.

    var is 1-based; shape is dim(d+1) x dim(d)."""
    src = monomials(r, degree)
    tgt_index = monomial_index(r, degree + 1)
    a = np.zeros((dim_degree(r, degree + 1), len(src)), dtype=np.int64)
    for j, mono in enumerate(src):
        bumped = tuple(e + (1 if i == var - 1 else 0) for i, e in enumerate(mono))
        a[tgt_index[bumped], j] = 1
    return FpMatrix(p, a)
