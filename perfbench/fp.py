"""The benchmark's own exact linear algebra over F_p.

Input generation and result checking use these routines instead of the
library's, so that inputs depend only on the seed and every expectation is
computed without the code under test.  Entries stay in [0, p) for the small
primes the workloads use, so int64 products cannot overflow.
"""

from __future__ import annotations

import itertools

import numpy as np


def _inverses(p: int) -> np.ndarray:
    return np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int64)


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of a 2-d array mod p, with pivot columns."""
    m = np.array(a, dtype=np.int64) % p
    rows, cols = m.shape
    inv = _inverses(p)
    pivots: list[int] = []
    row = 0
    for col in range(cols):
        if row == rows:
            break
        nz = np.flatnonzero(m[row:, col])
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        m[[row, piv]] = m[[piv, row]]
        m[row] = (m[row] * inv[m[row, col]]) % p
        others = np.flatnonzero(m[:, col])
        others = others[others != row]
        if others.size:
            m[others] = (m[others] - np.outer(m[others, col], m[row])) % p
        pivots.append(col)
        row += 1
    return m, pivots


def rank(a: np.ndarray, p: int) -> int:
    a = np.asarray(a)
    if a.size == 0:
        return 0
    return len(rref(a, p)[1])


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of {x : a x = 0 mod p}, as the columns of the returned array."""
    a = np.asarray(a, dtype=np.int64)
    cols = a.shape[1]
    if a.shape[0] == 0:
        return np.eye(cols, dtype=np.int64)
    r, pivots = rref(a, p)
    free = [c for c in range(cols) if c not in set(pivots)]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for k, f in enumerate(free):
        basis[f, k] = 1
        for t, pc in enumerate(pivots):
            basis[pc, k] = (-r[t, f]) % p
    return basis


def batched_rank(stack: np.ndarray, p: int) -> np.ndarray:
    """Ranks mod p of a (B, rows, cols) stack, eliminating all B at once."""
    m = np.array(stack, dtype=np.int64) % p
    count, rows, cols = m.shape
    ranks = np.zeros(count, dtype=np.int64)
    if count == 0 or rows == 0 or cols == 0:
        return ranks
    inv = _inverses(p)
    row_ids = np.arange(rows)
    for c in range(cols):
        cand = (m[:, :, c] != 0) & (row_ids[None, :] >= ranks[:, None])
        has = cand.any(axis=1)
        if not has.any():
            continue
        sel = np.flatnonzero(has)
        top = ranks[sel]
        piv = cand[sel].argmax(axis=1)
        pivot_rows = m[sel, piv].copy()
        m[sel, piv] = m[sel, top]
        pivot_rows = (pivot_rows * inv[pivot_rows[:, c]][:, None]) % p
        m[sel, top] = pivot_rows
        factors = m[sel, :, c].copy()
        factors[row_ids[None, :] <= top[:, None]] = 0
        m[sel] = (m[sel] - factors[:, :, None] * pivot_rows[:, None, :]) % p
        ranks[sel] += 1
    return ranks


def proj_points(p: int, r: int) -> list[tuple[int, ...]]:
    """P^{r-1}(F_p) as normalized tuples (first nonzero entry 1), sorted."""
    return sorted(
        (0,) * lead + (1,) + tail
        for lead in range(r)
        for tail in itertools.product(range(p), repeat=r - lead - 1)
    )
