"""Seeded random representations, made without the library under test.

A representation is a plain dict in the library's JSON layout
({"p", "n", "r", "dims", "maps"}), so the library receives only generated
inputs.  The first arrow level is free; each later level is drawn from the
kernel of the linear system that expresses the commutativity relations
against the level before it, so every sample is a valid representation.

Dimension vectors come from fixed balanced designs (every value appears
equally often at every vertex) and only their order and the matrix entries
depend on the seed.  Run time and verdicts depend mostly on the dimension
vector, so this keeps the work per run comparable across seeds.
"""

from __future__ import annotations

import numpy as np

import fp


def balanced_dims(n: int, max_dim: int) -> list[tuple[int, ...]]:
    """Dimension vectors with entries in 1..max_dim, each value appearing
    equally often at every vertex.

    n = 2: (a, max_dim + 1 - a).  n = 3: (a, b, (a + b) mod max_dim + 1) for
    b in {a, a mod max_dim + 1}, two rows of a cyclic Latin square."""
    values = range(1, max_dim + 1)
    if n == 2:
        return [(a, max_dim + 1 - a) for a in values]
    if n == 3:
        return [(a, b, (a + b) % max_dim + 1) for a in values for b in (a, a % max_dim + 1)]
    raise ValueError(f"no balanced design for n={n}")


def _relation_system(prev: list[np.ndarray], d_next: int, p: int) -> np.ndarray:
    """Rows expressing B_l A_k = B_k A_l (l < k) in the unknowns B_0..B_{r-1},
    each B_l of shape d_next x d_cur flattened row-major and concatenated."""
    r = len(prev)
    d_cur, d_prev = prev[0].shape
    block = d_next * d_cur
    rows = []
    for l in range(r):
        for k in range(l + 1, r):
            for i in range(d_next):
                for j in range(d_prev):
                    row = np.zeros(r * block, dtype=np.int64)
                    row[l * block + i * d_cur:l * block + (i + 1) * d_cur] += prev[k][:, j]
                    row[k * block + i * d_cur:k * block + (i + 1) * d_cur] -= prev[l][:, j]
                    rows.append(row % p)
    return np.array(rows, dtype=np.int64).reshape(len(rows), r * block)


def random_rep(p: int, r: int, dims: tuple[int, ...], rng: np.random.Generator) -> dict:
    """A random representation with the given dimension vector."""
    n = len(dims)
    levels = [[rng.integers(0, p, size=(dims[1], dims[0]), dtype=np.int64) for _ in range(r)]]
    for v in range(1, n - 1):
        d_cur, d_next = dims[v], dims[v + 1]
        system = _relation_system(levels[-1], d_next, p)
        null = fp.nullspace(system, p)
        flat = (null @ rng.integers(0, p, size=null.shape[1], dtype=np.int64)) % p
        block = d_next * d_cur
        levels.append([flat[l * block:(l + 1) * block].reshape(d_next, d_cur) for l in range(r)])
    for v in range(n - 2):
        for l in range(r):
            for k in range(l + 1, r):
                lhs = levels[v + 1][l] @ levels[v][k] - levels[v + 1][k] @ levels[v][l]
                if (lhs % p).any():
                    raise AssertionError("generated representation breaks a relation")
    return {
        "p": p,
        "n": n,
        "r": r,
        "dims": list(dims),
        "maps": [[m.flatten().tolist() for m in level] for level in levels],
    }


def random_reps(p: int, r: int, n: int, max_dim: int, copies: int,
                rng: np.random.Generator) -> list[dict]:
    """copies passes over the balanced design, shuffled by the seed."""
    shapes = balanced_dims(n, max_dim) * copies
    order = rng.permutation(len(shapes))
    return [random_rep(p, r, shapes[i], rng) for i in order]

