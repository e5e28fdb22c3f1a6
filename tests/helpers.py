"""Shared test utilities."""

import itertools

import numpy as np

from beilinson import emod, properties, reps
from beilinson.emod import _products, _span_stack
from beilinson.linalg import (
    FpMatrix, batched_rank, image_basis, kernel_basis, matmul, power, quotient_projection,
    rank, solve_matrix,
)
from beilinson.monomials import dim_degree, monomial_index, monomials
from beilinson.reps import BeilinsonRep, projective, support, validate


def refuse_enumeration(monkeypatch, *, whole_space=True):
    """Make proj_points raise wherever a module holds it and, with
    whole_space, so does proj_coords for the whole space, so the code under
    test reads P^{r-1}(F_p) only in the blocks it names by a prefix."""
    whole = reps.proj_coords

    def points(p, r):
        raise AssertionError("proj_points enumerated")

    def blocks(p, r, prefix=()):
        if not prefix:
            raise AssertionError("proj_coords enumerated the whole space")
        return whole(p, r, prefix)

    for module in (reps, properties, emod):
        if hasattr(module, "proj_points"):
            monkeypatch.setattr(module, "proj_points", points)
        if whole_space:
            monkeypatch.setattr(module, "proj_coords", blocks)


def random_valid_rep(p, n, r, max_dim, rng):
    """A representation satisfying the commutativity relations: the first
    level is free, later levels are sampled from the kernel of the linear
    system expressing the relations."""
    dims = tuple(int(rng.integers(1, max_dim + 1)) for _ in range(n))
    maps = []
    level0 = tuple(
        FpMatrix(p, rng.integers(0, p, size=(dims[1], dims[0]), dtype=np.int64))
        for _ in range(r)
    )
    maps.append(level0)
    for v in range(1, n - 1):
        rows_blocks = []
        d_prev, d_cur, d_next = dims[v - 1], dims[v], dims[v + 1]
        prev = maps[v - 1]
        # Unknowns: the r matrices B_l of shape d_next x d_cur, flattened
        # row-major and concatenated. Constraints: B_l A_k = B_k A_l.
        cols = r * d_next * d_cur
        rows = []
        for l in range(r):
            for k in range(l + 1, r):
                for i in range(d_next):
                    for j in range(d_prev):
                        row = np.zeros(cols, dtype=np.int64)
                        base_l = l * d_next * d_cur + i * d_cur
                        base_k = k * d_next * d_cur + i * d_cur
                        for t in range(d_cur):
                            row[base_l + t] += int(prev[k].a[t, j])
                            row[base_k + t] -= int(prev[l].a[t, j])
                        rows.append(row % p)
        if rows:
            system = FpMatrix(p, np.array(rows, dtype=np.int64) % p)
            null = kernel_basis(system)
            coeffs = rng.integers(0, p, size=null.cols)
            flat = (null.a @ coeffs) % p
        else:
            flat = rng.integers(0, p, size=cols)
        level = tuple(
            FpMatrix(
                p,
                np.asarray(flat[
                    l * d_next * d_cur:(l + 1) * d_next * d_cur
                ], dtype=np.int64).reshape(d_next, d_cur),
            )
            for l in range(r)
        )
        maps.append(level)
    rep = BeilinsonRep(p, n, r, dims, tuple(maps))
    assert validate(rep) == []
    return rep


def random_invertible(p, n, rng):
    while True:
        g = FpMatrix(p, rng.integers(0, p, size=(n, n), dtype=np.int64))
        if rank(g) == n:
            return g


def subspaces(p, d):
    """All subspaces of F_p^d, each as an FpMatrix of basis columns in RREF.

    Exhaustive enumeration; intended for very small d."""
    for k in range(d + 1):
        for pivots in itertools.combinations(range(d), k):
            free_slots = [
                (i, j)
                for i in range(k)
                for j in range(d)
                if j > pivots[i] and j not in pivots
            ]
            for vals in itertools.product(range(p), repeat=len(free_slots)):
                b = np.zeros((k, d), dtype=np.int64)
                for i in range(k):
                    b[i, pivots[i]] = 1
                for (i, j), v in zip(free_slots, vals):
                    b[i, j] = v
                yield FpMatrix(p, b.T.copy())


def enumerated_isomorphic(basis):
    """Reference isomorphism verdict from a basis of Hom(x, y) as square
    matrices: 'yes' exactly when one of the p^h linear combinations is
    invertible.  Exhaustive enumeration; intended for small p^h."""
    if not basis:
        return "no"
    p, n = basis[0].p, basis[0].rows
    coeffs = np.array(list(itertools.product(range(p), repeat=len(basis))), dtype=np.int64)
    # entries stay below h (p-1)^2, far from overflow at these sizes
    stack = (coeffs @ np.stack([phi.a.ravel() for phi in basis]) % p).reshape(-1, n, n)
    return "yes" if (batched_rank(stack, p) == n).any() else "no"


def first_fitting_split(basis):
    """The reference Fitting split: the End basis elements phi one at a
    time, in order, each powered to phi^dim and ranked alone; the first with
    a nonzero kernel and image gives (dim ker, dim im), and None when none
    has."""
    for phi in basis:
        image = rank(FpMatrix(phi.p, power(phi.a, phi.rows, phi.p)))
        if 0 < image < phi.rows:
            return (phi.rows - image, image)
    return None


def linear_form_power_matrix(p, r, coeffs, power, src_degree):
    """Matrix of multiplication by (sum coeffs[l] x_l)^power from the
    degree-src_degree piece to the degree-(src_degree + power) piece, from
    the polynomial expanded term by term as {exponents: coefficient}; an
    empty matrix when the source degree is negative."""
    rows = dim_degree(r, src_degree + power)
    if src_degree < 0:
        return FpMatrix.zeros(p, rows, 0)
    poly = {(0,) * r: 1}
    for _ in range(power):
        nxt = {}
        for e, c in poly.items():
            for l, a in enumerate(coeffs):
                bumped = tuple(x + (t == l) for t, x in enumerate(e))
                nxt[bumped] = (nxt.get(bumped, 0) + c * a) % p
        poly = {e: c for e, c in nxt.items() if c}
    tgt_index = monomial_index(r, src_degree + power)
    a = np.zeros((rows, dim_degree(r, src_degree)), dtype=np.int64)
    for j, mono in enumerate(monomials(r, src_degree)):
        for e, c in poly.items():
            a[tgt_index[tuple(x + y for x, y in zip(mono, e))], j] = c
    return FpMatrix(p, a)


def reference_x_module(p, n, r, alpha, i, j):
    """x_module with each image built by linear_form_power_matrix and each
    arrow sandwiched between a quotient projection and a section of
    identity columns: the reference for x_module's point-operator images."""
    big = projective(p, n, r, i)
    projections, sections, images = [], [], []
    for v in range(n):
        u = linear_form_power_matrix(p, r, alpha.coords, j, v - i - j)
        pi, complement = quotient_projection(u)
        projections.append(pi)
        sections.append(FpMatrix(p, np.eye(pi.cols, dtype=np.int64)[:, complement]))
        images.append(u)
    maps = tuple(
        tuple(projections[v + 1] @ a @ sections[v] for a in level)
        for v, level in enumerate(big.maps)
    )
    return BeilinsonRep(p, n, r, tuple(s.cols for s in sections), maps)


def fixpoint_local(stack, p):
    """The reference for emod._local, by fixpoint loops: the commutator
    ideal C is grown by products with the basis until it stops growing,
    and C is nilpotent when the chain C, C^2, ... reaches 0 before it
    stalls; a C that is not nilpotent means "not local".  Then, as in
    _local, A/C is local exactly when a -> a^p has a one-dimensional fixed
    space."""
    h = len(stack)
    if h <= 1:
        return True, h == 1
    ideal = stack[:0]
    for i, a in enumerate(stack):
        comm = (matmul(a, stack[i + 1:], p) - matmul(stack[i + 1:], a, p)) % p
        if comm.any():
            ideal = _span_stack(p, np.concatenate([ideal, comm]))
    commutative = not len(ideal)
    while len(ideal):
        grown = _span_stack(p, np.concatenate([ideal, _products(p, stack, ideal),
                                               _products(p, ideal, stack)]))
        if len(grown) == len(ideal):
            break
        ideal = grown
    chain = ideal
    while len(chain):
        shorter = _span_stack(p, _products(p, chain, ideal))
        if len(shorter) == len(chain):
            return commutative, False
        chain = shorter
    n = stack.shape[-1]
    frob = power(stack, p, p)
    coords = solve_matrix(FpMatrix(p, stack.reshape(h, n * n).T),
                          FpMatrix(p, np.concatenate([frob, ideal]).reshape(-1, n * n).T))
    pi, complement = quotient_projection(FpMatrix(p, coords.a[:, h:]))
    moved = pi @ FpMatrix(p, coords.a[:, complement]) - FpMatrix.identity(p, pi.rows)
    return commutative, pi.rows - rank(moved) == 1


def quotient_soc_series(m):
    """The reference for emod.soc_series, by quotients: soc^(i+1) M is the
    preimage of the socle of M / soc^i M, the common kernel of the
    operators followed by the projection onto that quotient."""
    dims = [0]
    basis = FpMatrix.zeros(m.p, m.dim, 0)
    while basis.cols < m.dim:
        pi, _ = quotient_projection(basis)
        basis = kernel_basis(FpMatrix.vstack(*(pi @ op for op in m.ops)))
        dims.append(basis.cols)
    return dims


def span_standardly_graded(rep):
    """The reference for reps.is_standardly_graded: the span of the lowest
    nonzero component is pushed up one level at a time, and must fill each
    vertex up to the highest nonzero one."""
    supp = support(rep)
    if supp is None:
        return True
    lo, hi = supp
    span = FpMatrix.identity(rep.p, rep.dims[lo])
    for v in range(lo, hi):
        span = image_basis(FpMatrix.hstack(*(arrow @ span for arrow in rep.maps[v])))
        if span.cols < rep.dims[v + 1]:
            return False
    return True
