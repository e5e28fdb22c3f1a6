"""Representations of the generalized Beilinson algebra B(n,r).

A representation assigns a vector space to each of the n vertices and r
matrices to each of the n-1 arrow levels, subject to the commutativity
relations between consecutive levels.  The distinguished families here
(projectives, injectives, simples, M- and W-modules, the projective-line
family of arrow cokernels) are all built on the shared graded-lex
monomial bases from :mod:`beilinson.monomials`, so their matrices are
bit-reproducible.

Every Hom space, graded or between kE_r-modules (one-vertex quivers), is
solved by ``_intertwiners`` from ``dims`` and ``arrows`` as one basis
stack per vertex; its Sylvester system is built from the arrows' nonzeros
as coordinates and is never dense.  The certificates read the stacks:
isomorphism (``decide_isomorphism``: Fitting splitting, Krull-Schmidt
cancellation), End locality and indecomposability (``emod``); only
``hom_space`` and ``hom_modules`` cut them into ``FpMatrix`` elements.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .linalg import (
    DimensionMismatch,
    FpMatrix,
    batched_rank,
    check_modulus,
    combine,
    coordinate_kernel,
    image_basis,
    kernel_basis,
    matmul,
    power,
    quotient_projection,
    rank,
    solve_matrix,
)
from .monomials import dim_degree, multiplication_matrix


class ConfigMismatch(ValueError):
    """Operands live over different (p, n, r) configurations."""


@dataclass(frozen=True)
class ProjPoint:
    """A point of P^{r-1}(F_p): r residues, first nonzero coordinate 1."""

    p: int
    coords: tuple[int, ...]

    def __post_init__(self):
        p = self.p
        check_modulus(p)
        c = tuple(int(x) % p for x in self.coords)
        nz = [i for i, x in enumerate(c) if x]
        if not nz:
            raise ValueError("projective point needs a nonzero coordinate")
        inv = pow(c[nz[0]], -1, p)
        object.__setattr__(self, "coords", tuple((x * inv) % p for x in c))

    @property
    def r(self) -> int:
        return len(self.coords)


@lru_cache(maxsize=None)
def proj_points(p: int, r: int) -> tuple[ProjPoint, ...]:
    """All of P^{r-1}(F_p) as ``ProjPoint``s, one per row of
    ``proj_coords(p, r)``, in its order.  The package reads the
    coordinate rows instead, building a point per row where it needs one;
    this tuple is public for callers that want every point at once."""
    return tuple(ProjPoint(p, row) for row in proj_coords(p, r).tolist())


@lru_cache(maxsize=None)
def proj_coords(p: int, r: int, prefix: tuple[int, ...] = ()) -> np.ndarray:
    """The points of P^{r-1}(F_p) whose first len(prefix) coordinates are
    prefix, one int64 row each, as one cached read-only array: the one
    enumeration of P^{r-1}(F_p), whose order fixes every witness.

    The points run in lexicographic order of normalized coordinates: the
    leading 1 moves from the last coordinate to the first, and the
    coordinates after it run through F_p in lexicographic order.  So a
    prefix that holds the leading 1 leaves every tail in F_p^t, t = r -
    len(prefix); an all-zero prefix leaves the points of P^{t-1}, padded
    with zeros; () is the whole space, and (0,) * (r - 1) its first point."""
    check_modulus(p)
    lead = next((x for x in prefix if x), 1)
    if len(prefix) > r or prefix == (0,) * r or lead != 1 or not all(0 <= x < p for x in prefix):
        raise ValueError(f"{prefix} is not the prefix of a normalized point of P^{r - 1}(F_{p})")
    heads = [prefix] if any(prefix) else [(0,) * j + (1,) for j in reversed(range(len(prefix), r))]
    blocks = []
    for head in heads:
        t = r - len(head)
        block = np.empty((p ** t, r), dtype=np.int64)
        block[:, :len(head)] = head
        block[:, len(head):] = np.arange(p ** t)[:, None] // p ** np.arange(t - 1, -1, -1) % p
        blocks.append(block)
    coords = np.concatenate(blocks)
    coords.setflags(write=False)
    return coords


def first_point(p: int, r: int) -> ProjPoint:
    """``proj_points(p, r)[0]``, the point (0, ..., 0, 1): the one row of
    the block of ``proj_coords`` after the prefix (0,) * (r - 1), so P^{r-1}
    is never enumerated."""
    (row,) = proj_coords(p, r, (0,) * (r - 1)).tolist()
    return ProjPoint(p, row)


def _json_int(value, name: str) -> int:
    """value, read from JSON, if it is an integer; a float, bool or string
    raises a ValueError that names the field."""
    if type(value) is not int:
        raise ValueError(f"{name} must hold integers, got {value!r}")
    return value


def _json_matrix(p: int, entries, rows: int, cols: int, name: str) -> FpMatrix:
    """The rows x cols matrix stored row-major in the JSON list entries.

    Integers of any size are reduced mod p exactly, as Python integers
    (``_json_int`` refuses anything else), so no entry overflows int64."""
    check_modulus(p)
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ValueError(f"{name} must list {rows * cols} entries")
    flat = [_json_int(x, name) % p for x in entries]
    return FpMatrix._reduced(p, np.array(flat, dtype=np.int64).reshape(rows, cols))


@dataclass(frozen=True)
class BeilinsonRep:
    """A B(n,r)-representation: per-vertex dims and per-level arrow matrices.

    maps[i][l-1] has shape dims[i+1] x dims[i] and carries the l-th arrow
    from vertex i to vertex i+1."""

    p: int
    n: int
    r: int
    dims: tuple[int, ...]
    maps: tuple[tuple[FpMatrix, ...], ...]

    def __post_init__(self):
        check_modulus(self.p)
        if self.n < 2 or self.r < 2:
            raise ValueError("require n >= 2 and r >= 2")
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != self.n or any(d < 0 for d in dims):
            raise ValueError("dims must list n non-negative vertex dimensions")
        if len(self.maps) != self.n - 1:
            raise ValueError("need one arrow family per level")
        for i, level in enumerate(self.maps):
            if len(level) != self.r:
                raise ValueError(f"level {i} must carry {self.r} arrows")
            for m in level:
                if m.p != self.p:
                    raise ConfigMismatch("arrow matrix over wrong field")
                if (m.rows, m.cols) != (dims[i + 1], dims[i]):
                    raise DimensionMismatch(
                        f"arrow at level {i} has shape {m.rows}x{m.cols}, "
                        f"expected {dims[i + 1]}x{dims[i]}"
                    )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "maps", tuple(tuple(level) for level in self.maps))

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def arrows(self) -> list[tuple[int, int, FpMatrix]]:
        """The arrows as (v, v+1, matrix) triples, level by level."""
        return [(v, v + 1, a) for v, level in enumerate(self.maps) for a in level]

    def same_config(self, other: "BeilinsonRep") -> bool:
        return (self.p, self.n, self.r) == (other.p, other.n, other.r)

    def to_json(self) -> str:
        return json.dumps(
            {
                "p": self.p,
                "n": self.n,
                "r": self.r,
                "dims": list(self.dims),
                "maps": [[m.tolist() for m in level] for level in self.maps],
            }
        )

    @staticmethod
    def from_json(text: str) -> "BeilinsonRep":
        d = json.loads(text)
        p, n, r = d["p"], _json_int(d["n"], "n"), _json_int(d["r"], "r")
        dims = [_json_int(x, "dims") for x in d["dims"]]
        if len(dims) != n or len(d["maps"]) != n - 1:
            raise ValueError(f"need n = {n} dims and n - 1 = {n - 1} levels of maps")
        maps = tuple(
            tuple(_json_matrix(p, arr, dims[i + 1], dims[i], f"maps[{i}][{l}]")
                  for l, arr in enumerate(level))
            for i, level in enumerate(d["maps"])
        )
        rep = BeilinsonRep(p, n, r, tuple(dims), maps)
        violations = validate(rep)
        if violations:
            i, (l, k) = violations[0]
            raise ValueError(f"arrows {l} and {k} break the commutativity "
                             f"relation from vertex {i} to vertex {i + 2}")
        return rep


# ---------------------------------------------------------------------------
# validation

def validate(rep: BeilinsonRep) -> list[tuple[int, tuple[int, int]]]:
    """Commutativity violations as (level, (arrow l, arrow k)); [] when ok."""
    return [(i, (l + 1, k + 1))
            for i in range(rep.n - 2)
            for l, k in _noncommuting(rep.maps[i + 1], rep.maps[i], rep.p)]


def _noncommuting(ahead, behind, p: int) -> list[list[int]]:
    """The pairs [l, k], l < k in order, with ahead[l] behind[k] != ahead[k]
    behind[l], from one stacked product of every ahead[l] with every behind[k]."""
    a, b = (np.stack([m.a for m in mats]) for mats in (ahead, behind))
    prods = matmul(a[:, None], b[None], p)
    broken = (prods != prods.transpose(1, 0, 2, 3)).any(axis=(2, 3))
    return np.argwhere(np.triu(broken, 1)).tolist()


# ---------------------------------------------------------------------------
# distinguished families

def _graded_monomial_rep(p: int, n: int, r: int, degree_of_vertex) -> BeilinsonRep:
    """Rep whose vertex v carries the full degree-degree_of_vertex(v) piece
    of k[x_1..x_r] and whose arrows act as variable multiplication."""
    dims = tuple(dim_degree(r, degree_of_vertex(v)) for v in range(n))
    maps = []
    for i in range(n - 1):
        d = degree_of_vertex(i)
        level = []
        for l in range(1, r + 1):
            if dims[i] == 0 or dims[i + 1] == 0:
                level.append(FpMatrix.zeros(p, dims[i + 1], dims[i]))
            else:
                level.append(multiplication_matrix(p, r, d, l))
        maps.append(tuple(level))
    return BeilinsonRep(p, n, r, dims, tuple(maps))


def projective(p: int, n: int, r: int, i: int) -> BeilinsonRep:
    """The indecomposable projective P(i): monomials of degree v-i at vertex v."""
    if not 0 <= i <= n - 1:
        raise ValueError(f"vertex index {i} out of range for n={n}")
    return _graded_monomial_rep(p, n, r, lambda v: v - i)


def injective(p: int, n: int, r: int, i: int) -> BeilinsonRep:
    """The indecomposable injective I(i) = D(P(n-1-i))."""
    if not 0 <= i <= n - 1:
        raise ValueError(f"vertex index {i} out of range for n={n}")
    return dualize(projective(p, n, r, n - 1 - i))


def simple(p: int, n: int, r: int, i: int) -> BeilinsonRep:
    """The simple S(i), one-dimensional at vertex i."""
    if not 0 <= i <= n - 1:
        raise ValueError(f"vertex index {i} out of range for n={n}")
    return _graded_monomial_rep(p, n, r, lambda v: 0 if v == i else -1)


def m_module(p: int, n: int, r: int, m: int, d: int) -> BeilinsonRep:
    """The Loewy-length-d slice of the polynomial ring with top degree m-1,
    supported on vertices [n-d, n-1]; vertex v carries the degree-(m-n+v)
    monomials and the arrows act by variable multiplication."""
    if not 2 <= d:
        raise ValueError(f"requires d >= 2, got d={d}")
    if not d <= n:
        raise ValueError(f"requires d <= n, got d={d} > n={n}")
    if not n <= p:
        raise ValueError(f"requires n <= p, got n={n} > p={p}")
    if not d <= m:
        raise ValueError(f"requires d <= m, got d={d} > m={m}")
    return _graded_monomial_rep(p, n, r, lambda v: m - n + v if v >= n - d else -1)


def w_module(p: int, n: int, r: int, m: int, d: int) -> BeilinsonRep:
    """Linear dual of the corresponding M-module; supported on [0, d-1]."""
    return dualize(m_module(p, n, r, m, d))


def dualize(rep: BeilinsonRep) -> BeilinsonRep:
    """Vertex-reversing linear dual: dims reversed, arrows transposed."""
    n = rep.n
    dims = tuple(reversed(rep.dims))
    maps = tuple(
        tuple(rep.maps[n - 2 - i][l].transpose() for l in range(rep.r))
        for i in range(n - 1)
    )
    return BeilinsonRep(rep.p, n, rep.r, dims, maps)


def x_module(p: int, n: int, r: int, alpha: ProjPoint, i: int, j: int = 1) -> BeilinsonRep:
    """Cokernel of right multiplication by the j-th power of the linear form
    with coefficients alpha, as a map P(i+j) -> P(i).

    At vertex v that map is the j-fold composite of the point operator of
    P(i) (``alpha_operator``) ending at v, and has no columns below vertex
    i + j.  Quotient bases are the complement of the column-reduced image
    pivots in the graded-lex monomial basis, so the result is deterministic."""
    if not 0 <= i <= n - 2:
        raise ValueError(f"require 0 <= i <= n-2, got i={i}")
    if not 1 <= j <= n - i - 1:
        raise ValueError(f"require 1 <= j <= n-i-1, got j={j}")
    big = projective(p, n, r, i)
    steps = alpha_operator(big, alpha)
    images = [FpMatrix.zeros(p, d, 0) for d in big.dims[:i + j]]
    images += [reduce(lambda u, step: step @ u, steps[v - j:v]) for v in range(i + j, n)]
    # the quotient basis at v is the classes of the non-pivot standard basis
    # vectors that quotient_projection records
    projections = [quotient_projection(u) for u in images]
    maps = []
    for v, level in enumerate(big.maps):
        pi, complement = projections[v + 1][0], projections[v][1]
        # well-definedness: the image subspace must be a subrepresentation
        assert all((pi @ a @ images[v]).is_zero() for a in level), \
            "arrow image left the subrepresentation"
        maps.append(tuple(pi @ FpMatrix._reduced(p, a.a[:, complement]) for a in level))
    dims = tuple(len(complement) for _, complement in projections)
    return BeilinsonRep(p, n, r, dims, tuple(maps))


# ---------------------------------------------------------------------------
# operators and hom spaces

def point_steps(rep: BeilinsonRep, coords) -> list[np.ndarray]:
    """Point-operator steps sum_l alpha_l * maps[i][l] at the points whose
    coordinate rows alpha are the rows of coords (such as ``proj_coords``),
    one (len(coords), dims[i+1], dims[i]) stack per level i."""
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, rep.r)
    return [combine(coords, [arrow.a for arrow in level], rep.p) for level in rep.maps]


def composite_ranks(steps, p: int):
    """For j = 1, 2, ... in turn, the ranks at every point of the j-fold
    step composites, summed over their starting levels, given steps[i],
    one (points, dims[i+1], dims[i]) stack per level i (``point_steps``).
    On a graded operator with these steps as its blocks, that sum is the
    rank of its j-th power.  Each j-fold composite is one stacked product
    of a (j-1)-fold one, formed when the next j is asked for; the table
    ends after j = len(steps), the longest composite."""
    composites = steps
    for j in range(1, len(steps) + 1):
        yield sum(batched_rank(c, p) for c in composites)
        composites = [matmul(s, c, p) for s, c in zip(steps[j:], composites)]


def alpha_operator(rep: BeilinsonRep, alpha: ProjPoint) -> list[FpMatrix]:
    """Step matrices of the nilpotent operator attached to alpha: the i-th
    entry is sum_l alpha_l * maps[i][l], of shape dims[i+1] x dims[i]; the
    one-point case of ``point_steps``."""
    if alpha.p != rep.p or alpha.r != rep.r:
        raise ConfigMismatch("alpha over wrong (p, r)")
    return [FpMatrix._reduced(rep.p, stack[0].copy()) for stack in point_steps(rep, alpha.coords)]


def _intertwiners(p: int, xdims, xarrows, ydims, yarrows) -> list[np.ndarray]:
    """Basis of Hom(x, y), x and y given by vertex dimensions and (v, w, a)
    arrows in matching order: the solutions (phi_v), phi_v of shape
    ydims[v] x xdims[v], of phi_w a = b phi_v for each arrow pair a, b: per
    vertex v, one read-only (dim Hom, ydims[v], xdims[v]) view of the basis.

    The unknowns are each phi_v row-major, vertices in order, and each
    equation adds a block of rows (i, j), row-major.  The system goes to
    ``coordinate_kernel`` as (row, column, value) coordinates, read off the
    nonzeros of the arrow matrices with one ``nonzero`` per stack of
    consecutive arrows that share (v, w), and is never dense.  The two
    terms of an equation meet only when v == w, on the diagonal entry
    a[j, j] - b[i, i] of row (i, j): those are summed in closed form, and
    the ones that cancel are dropped."""
    offs = np.cumsum([0, *(y * x for x, y in zip(xdims, ydims))])
    coords = []
    top = 0
    for (v, w), group in itertools.groupby(zip(xarrows, yarrows), lambda pair: pair[0][:2]):
        group = list(group)
        a = np.array([f.a for (_, _, f), _ in group])
        b = np.array([g.a for _, (_, _, g) in group])
        xv, xw, yv, yw = xdims[v], xdims[w], ydims[v], ydims[w]
        if v == w:
            j, i = np.arange(xv), np.arange(yv)
            diag = (a[:, j, j][:, None, :] - b[:, i, i][:, :, None]) % p
            a[:, j, j] = 0
            b[:, i, i] = 0
            flat = diag.ravel().nonzero()[0]
            coords.append((top + flat, offs[v] + flat % (yv * xv), diag.ravel()[flat]))
        # phi_w a: phi_w[i, k] enters row (i, j) with a[k, j], for every i
        l, k, j = a.nonzero()
        i = np.arange(yw)
        coords.append(((top + l * yw * xv + j)[:, None] + i * xv, (offs[w] + k)[:, None] + i * xw,
                       a[l, k, j].repeat(yw)))
        # -b phi_v: phi_v[t, j] enters row (i, j) with -b[i, t], for every j
        l, i, t = b.nonzero()
        j = np.arange(xv)
        coords.append(((top + (l * yw + i) * xv)[:, None] + j, (offs[v] + t * xv)[:, None] + j,
                       (p - b[l, i, t]).repeat(xv)))
        top += len(group) * yw * xv
    r, c, values = (np.concatenate([part[n].ravel() for part in coords]) for n in range(3))
    vecs = coordinate_kernel(p, (top, offs[-1]), r, c, values)
    vecs.setflags(write=False)
    return [vecs[:, offs[v]:offs[v + 1]].reshape(len(vecs), ydims[v], xdims[v])
            for v in range(len(xdims))]


def hom_space(x: BeilinsonRep, y: BeilinsonRep) -> list[tuple[FpMatrix, ...]]:
    """Basis of the intertwiner space Hom(x, y), each element a tuple of
    per-vertex matrices phi_v with phi_{v+1} x.maps = y.maps phi_v."""
    if not x.same_config(y):
        raise ConfigMismatch("hom_space requires matching (p, n, r)")
    stacks = _intertwiners(x.p, x.dims, x.arrows, y.dims, y.arrows)
    return [tuple(FpMatrix._reduced(x.p, phi) for phi in f) for f in zip(*stacks)]


def direct_sum(x: BeilinsonRep, y: BeilinsonRep) -> BeilinsonRep:
    if not x.same_config(y):
        raise ConfigMismatch("direct_sum requires matching (p, n, r)")
    dims = tuple(a + b for a, b in zip(x.dims, y.dims))
    maps = tuple(
        tuple(FpMatrix._reduced(x.p, block_diagonal((a.a, b.a))) for a, b in zip(x_level, y_level))
        for x_level, y_level in zip(x.maps, y.maps)
    )
    return BeilinsonRep(x.p, x.n, x.r, dims, maps)


def support(rep: BeilinsonRep) -> tuple[int, int] | None:
    """(min, max) vertex with nonzero dimension, or None for the zero rep."""
    nz = [v for v, d in enumerate(rep.dims) if d]
    if not nz:
        return None
    return nz[0], nz[-1]


def is_standardly_graded(rep: BeilinsonRep) -> bool:
    """True iff the rep is generated by its lowest nonzero component lo.

    By induction on v: once vertex v is generated, so is vertex v + 1
    exactly when the arrows out of v jointly map onto it.  So the rep is
    standardly graded exactly when rank [a_1 | ... | a_r] = dims[v+1] at
    every level v in [lo, hi), hi its highest nonzero vertex."""
    lo, hi = support(rep) or (0, 0)
    return all(rank(FpMatrix.hstack(*rep.maps[v])) == rep.dims[v + 1] for v in range(lo, hi))


def is_costandardly_graded(rep: BeilinsonRep) -> bool:
    """True iff the rep is cogenerated by its highest nonzero component."""
    return is_standardly_graded(dualize(rep))


def image_rep(phi: tuple[FpMatrix, ...], x: BeilinsonRep, y: BeilinsonRep) -> BeilinsonRep:
    """The image of an intertwiner phi: x -> y, as a subrepresentation of y."""
    dims, arrows = _restrict(y.arrows, [image_basis(phi_v) for phi_v in phi])
    maps = tuple(tuple(a for _, _, a in arrows[v * y.r:(v + 1) * y.r]) for v in range(y.n - 1))
    return BeilinsonRep(y.p, y.n, y.r, dims, maps)


def _restrict(arrows, bases):
    """Dimensions and (v, w, matrix) arrows of the subspaces spanned
    vertex-wise by the column bases, solved for exactly; the subspaces must
    be arrow-stable, and that is asserted."""
    restricted = []
    for v, w, a in arrows:
        coords = solve_matrix(bases[w], a @ bases[v])
        assert coords is not None, "subspaces are not arrow-stable"
        restricted.append((v, w, coords))
    return tuple(b.cols for b in bases), restricted


# ---------------------------------------------------------------------------
# isomorphism: one decision for graded representations and kE_r-modules

def block_diagonal(blocks) -> np.ndarray:
    """Graded maps as single matrices, their vertex components on the
    diagonal: blocks[v] has shape lead + (rows_v, cols_v) for one leading
    shape lead, so this builds one map (lead = ()) or a whole stack.

    Between reps of equal dimension vectors the blocks are square, so the
    matrix has full rank exactly when every vertex component does."""
    rows = np.cumsum([0, *(b.shape[-2] for b in blocks)])
    cols = np.cumsum([0, *(b.shape[-1] for b in blocks)])
    out = np.zeros(blocks[0].shape[:-2] + (rows[-1], cols[-1]), dtype=np.int64)
    for v, blk in enumerate(blocks):
        out[..., rows[v]:rows[v + 1], cols[v]:cols[v + 1]] = blk
    return out


def decide_isomorphism(p: int, xdims, xarrows, ydims, yarrows) -> str:
    """'yes' | 'no', both certified, for quiver representations x and y
    given as for ``_intertwiners``; different dimension vectors are 'no'.

    Each round, while x != 0: an invertible Hom(x, y) basis element (its
    vertex ranks, one ``batched_rank`` per vertex stack, sum to dim x) is
    'yes', and dim Hom(x, y) != dim End(x) is 'no'.  The composites g f (g
    in Hom(y, x), f in Hom(x, y)) span the ideal of End(x) of maps through
    y; if all are nilpotent it is nil (nilpotents of the matrix blocks of
    End(x)/rad have trace 0), misses id_x, and the answer is 'no'.  Else
    the first non-nilpotent phi = g f (f in basis order, then g) gives
    psi = phi^N, N >= every vertex dimension, and Fitting splits
    x = ker psi + im psi, y = f(im psi) + ker(psi g) (f on im psi is split
    by (phi^(N+1) on im psi)^-1 psi g); by Krull-Schmidt the next round
    compares ker psi with ker(psi g)."""
    if tuple(xdims) != tuple(ydims):
        return "no"
    while sum(xdims):
        hom = _intertwiners(p, xdims, xarrows, ydims, yarrows)
        if (sum(batched_rank(f, p) for f in hom) == sum(xdims)).any():
            return "yes"
        if len(hom[0]) != len(_intertwiners(p, xdims, xarrows, xdims, xarrows)[0]):
            return "no"
        back = _intertwiners(p, ydims, yarrows, xdims, xarrows)
        # the composites of one f with every g are powered as one stack per vertex
        for f in zip(*hom):
            powers = [power(matmul(gv, fv, p), max(xdims), p) for gv, fv in zip(back, f)]
            live = np.flatnonzero(np.any([c.any(axis=(1, 2)) for c in powers], axis=0))
            if live.size:
                break
        else:
            return "no"
        psi = [FpMatrix._reduced(p, c[live[0]].copy()) for c in powers]
        g = [FpMatrix._reduced(p, gv[live[0]]) for gv in back]
        xdims, xarrows = _restrict(xarrows, [kernel_basis(c) for c in psi])
        ydims, yarrows = _restrict(yarrows, [kernel_basis(c @ gv) for c, gv in zip(psi, g)])
    return "yes"


def rep_isomorphic(x: BeilinsonRep, y: BeilinsonRep) -> str:
    """Graded isomorphism verdict, 'yes' | 'no', by ``decide_isomorphism``."""
    if not x.same_config(y):
        raise ConfigMismatch("isomorphism requires matching (p, n, r)")
    return decide_isomorphism(x.p, x.dims, x.arrows, y.dims, y.arrows)
