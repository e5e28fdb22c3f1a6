"""Linear combinations of a hom basis, and the search for an invertible
element among them.

``span`` builds the combinations behind twists, point operators and the
isomorphism tests.  ``find_invertible`` is the isomorphism search, for
graded representations and kE_r-modules alike; End locality and
indecomposability are certified in ``emod`` without it.  A found
invertible element certifies 'yes'.  'no' is certified only when the full
coefficient space of the hom basis has been enumerated without success;
otherwise the verdict degrades to 'probably_not' after RANDOM_CANDIDATES
random combinations."""

from __future__ import annotations

import itertools

import numpy as np

from .linalg import FpMatrix, combine

# random combinations tried after the single basis elements
RANDOM_CANDIDATES = 200
# enumerate every combination when p^(dim Hom) is at most this
ENUMERATION_LIMIT = 10**6


def span(p: int, basis: list[FpMatrix]):
    """The map from a coefficient sequence to its combination of the basis,
    by ``linalg.combine`` (reduced mod p after every term)."""
    mats = [phi.a for phi in basis]
    return lambda coeffs: FpMatrix._reduced(p, combine(coeffs, mats, p))


def find_invertible(p: int, basis_size: int, combine, invertible, seed: int = 0) -> str:
    """Search the span of a hom basis for an invertible element.

    combine(coeffs) builds the candidate from a coefficient tuple;
    invertible(candidate) decides it.  Returns 'yes', 'no' or
    'probably_not'."""
    if basis_size == 0:
        return "no"
    # cheap first passes: single basis elements, then random combinations
    for idx in range(basis_size):
        coeffs = tuple(1 if t == idx else 0 for t in range(basis_size))
        if invertible(combine(coeffs)):
            return "yes"
    rng = np.random.default_rng(seed)
    for _ in range(RANDOM_CANDIDATES):
        coeffs = tuple(int(c) for c in rng.integers(0, p, size=basis_size))
        if any(coeffs) and invertible(combine(coeffs)):
            return "yes"
    if p**basis_size <= ENUMERATION_LIMIT:
        for coeffs in itertools.product(range(p), repeat=basis_size):
            if any(coeffs) and invertible(combine(coeffs)):
                return "yes"
        return "no"
    return "probably_not"
