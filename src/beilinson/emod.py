"""kE_r-modules: r pairwise-commuting nilpotent operators with x_i^p = 0.

Covers the forgetful functor from graded representations, Jordan types
(from step-composite ranks on modules that record a grading),
radical/socle series, the radical powers of the group algebra itself,
twists by invertible coordinate changes, endomorphism algebras with
certified commutativity and locality (one stacked product for the
commutator ideal, one rank for the idempotent count), certified
indecomposability, and certified isomorphism.  As one-vertex quivers
(``dims`` and loop ``arrows``), modules share the Hom solver, its
per-vertex basis stacks and the isomorphism decision with graded
representations (``reps``)."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from math import comb

import numpy as np

from . import linalg
from .linalg import (
    FpMatrix,
    batched_rank,
    check_modulus,
    combine,
    image_basis,
    kernel_basis,
    matmul,
    power,
    rank,
    solve_matrix,
)
from .monomials import monomials
from .reps import (
    BeilinsonRep,
    ConfigMismatch,
    ProjPoint,
    _intertwiners,
    block_diagonal,
    composite_ranks,
    decide_isomorphism,
    first_point,
    proj_coords,
)


@dataclass(frozen=True)
class ErModule:
    """A module over k[x_1..x_r]/(x_1^p..x_r^p): commuting nilpotent ops.

    ``forget``, ``twist`` and ``group_algebra_radical_power`` also record a
    grading in ``_levels``: the dimensions of the degrees, in order, of a
    basis split into consecutive blocks that every operator raises by one
    degree.  ``jordan_type`` reads it; equality, hashing and ``repr`` do
    not, and a module built directly records none."""

    p: int
    r: int
    dim: int
    ops: tuple[FpMatrix, ...]
    # Jordan types by point (normalized coordinates), filled a chunk at a
    # time by jordan_type
    _jordan: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _levels: tuple[int, ...] | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        check_modulus(self.p)
        if self.r < 2:
            raise ValueError("require r >= 2")
        if len(self.ops) != self.r:
            raise ValueError(f"need {self.r} operators")
        for op in self.ops:
            if op.p != self.p or (op.rows, op.cols) != (self.dim, self.dim):
                raise ValueError("operator shape or modulus mismatch")
        object.__setattr__(self, "ops", tuple(self.ops))

    # the module as a one-vertex quiver: its operators are the loops
    @property
    def dims(self) -> tuple[int]:
        return (self.dim,)

    @property
    def arrows(self) -> list[tuple[int, int, FpMatrix]]:
        return [(0, 0, op) for op in self.ops]

    def same_config(self, other: "ErModule") -> bool:
        return (self.p, self.r) == (other.p, other.r)


def _graded(m: ErModule, levels: tuple[int, ...] | None) -> ErModule:
    """m with the grading levels (``ErModule._levels``) recorded."""
    object.__setattr__(m, "_levels", levels)
    return m


@dataclass(frozen=True)
class JordanType:
    """Multiset of Jordan block sizes; counts[i] blocks of size i+1."""

    counts: tuple[int, ...]

    def __post_init__(self):
        c = tuple(int(x) for x in self.counts)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "counts", c)

    @property
    def total(self) -> int:
        return sum((i + 1) * a for i, a in enumerate(self.counts))

    def __str__(self) -> str:
        parts = [
            f"{a}[{i + 1}]"
            for i, a in reversed(list(enumerate(self.counts)))
            if a
        ]
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# the forgetful functor

def forget(rep: BeilinsonRep) -> ErModule:
    """Sum the graded components; each variable acts block-subdiagonally.

    The result records the grading by vertex, rep.dims (``ErModule``)."""
    if rep.p < rep.n:
        raise ValueError(f"forget requires p >= n, got p={rep.p} < n={rep.n}")
    dim = rep.total_dim
    offs = np.concatenate([[0], np.cumsum(rep.dims)])
    ops = []
    for l in range(rep.r):
        a = np.zeros((dim, dim), dtype=np.int64)
        for i in range(rep.n - 1):
            a[offs[i + 1]:offs[i + 2], offs[i]:offs[i + 1]] = rep.maps[i][l].a
        ops.append(FpMatrix._reduced(rep.p, a))
    return _graded(ErModule(rep.p, rep.r, dim, tuple(ops)), rep.dims)


# ---------------------------------------------------------------------------
# Jordan types

def jordan_type(m: ErModule, alpha: ProjPoint) -> JordanType:
    """Block sizes of the nilpotent operator attached to alpha, from the
    rank sequence of its powers: a_i = r_{i-1} - 2 r_i + r_{i+1}.

    On a module with a recorded grading (``ErModule``) the point operator
    is block-subdiagonal, so the rank of its j-th power is the summed rank
    of the j-fold composites of its blocks (``reps.composite_ranks``), and
    no dim x dim power is formed.

    Points are computed in chunks (``_jordan_chunk``) whose Jordan types
    are memoized on m by point.  A chunk is all of P^{r-1} whenever the
    stack budget allows (P^3(F_7) up to dim 18 without a grading), so a
    sweep is one stacked computation; a single query at a large p still
    computes one small chunk and never enumerates the space."""
    if alpha.p != m.p or alpha.r != m.r:
        raise ConfigMismatch("alpha over wrong (p, r)")
    if alpha.coords not in m._jordan:
        m._jordan.update(_jordan_chunk(m, alpha.coords))
    return m._jordan[alpha.coords]


def _jordan_chunk(m: ErModule, coords: tuple[int, ...]) -> dict[tuple[int, ...], JordanType]:
    """Jordan types at the chunk of points that holds coords: every point
    that agrees with coords on its first r - t coordinates, t as large as
    (chunk size) e <= ``linalg.STACK_ENTRIES`` allows, up to t = r.  e
    counts the stacked entries per point: dim^2 for the dense powers, and
    sum d_i^2 over the degree dimensions d_i of a recorded grading, which
    bounds the sum_i d_{i+j} d_i entries of every j-fold composite
    (Cauchy-Schwarz).
    The chunk is the block of ``proj_coords`` after that prefix: p^t
    points if the prefix holds the leading 1, else the (p^t - 1)/(p - 1)
    points of P^{t-1}, so t = r is the whole space.  One batched rank per
    power of the stacked point operators (``_power_ranks``), and one
    JordanType per distinct rank row, shared by its points."""
    p, r, dim = m.p, m.r, m.dim
    levels = m._levels if m._levels is not None else (dim,)
    budget = linalg.STACK_ENTRIES // max(sum(d * d for d in levels), 1)
    lead = coords.index(1)

    def size(t: int) -> int:
        return p ** t if t < r - lead else (p ** t - 1) // (p - 1)

    t = 0
    while t < r and size(t + 1) <= budget:
        t += 1
    at = proj_coords(p, r, coords[:r - t])
    points = list(map(tuple, at.tolist()))
    ranks = [np.full(len(points), dim)]
    for rk in islice(_power_ranks(m, at), p):
        ranks.append(rk)
        if not rk.any():
            break
    ranks.append(np.zeros(len(points), dtype=np.int64))
    seq = np.stack(ranks, axis=1)
    counts = seq[:, :-2] - 2 * seq[:, 1:-1] + seq[:, 2:]
    bad = np.flatnonzero(counts @ np.arange(1, counts.shape[1] + 1) != dim)
    if bad.size:
        raise ValueError(f"the operator at point {points[bad[0]]} is not "
                         f"nilpotent of order <= p: its Jordan blocks do not add up to {dim}")
    rows = [tuple(c) for c in counts.tolist()]
    types = {row: JordanType(row) for row in set(rows)}
    return {point: types[row] for point, row in zip(points, rows)}


def _power_ranks(m: ErModule, coords: np.ndarray):
    """For j = 1, 2, ... in turn, the ranks of the j-th powers of the point
    operators at the coordinate rows coords.  With a recorded grading these
    are the summed ranks of the composites of the operators' level blocks
    (``reps.composite_ranks``), then 0, since the power that passes every
    level is 0; otherwise each power is one stacked product of the
    dim x dim operators."""
    p = m.p
    if m._levels is not None:
        offs = np.cumsum([0, *m._levels])
        yield from composite_ranks(
            [combine(coords, [op.a[offs[i + 1]:offs[i + 2], offs[i]:offs[i + 1]] for op in m.ops], p)
             for i in range(len(m._levels) - 1)], p)
        yield np.zeros(len(coords), dtype=np.int64)
        return
    nil = power = combine(coords, [op.a for op in m.ops], p)
    while True:
        yield batched_rank(power, p)
        power = matmul(power, nil, p)


def jt_formula(n: int, d: int, r: int) -> JordanType:
    """Closed-form Jordan type of the Loewy-length-d slice modules:
    C(r+n-d-1, n-d) blocks of size d plus C(r+n-2-i, n-i) blocks of each
    size i < d."""
    if d > n:
        raise ValueError(f"requires d <= n, got d={d} > n={n}")
    if d < 1:
        raise ValueError("requires d >= 1")
    counts = [0] * d
    counts[d - 1] = comb(r + n - d - 1, n - d)
    for i in range(1, d):
        counts[i - 1] = comb(r + n - 2 - i, n - i)
    return JordanType(tuple(counts))


# ---------------------------------------------------------------------------
# radical and socle

def radical(m: ErModule) -> FpMatrix:
    """Column basis of rad M = sum of the operator images."""
    return image_basis(FpMatrix.hstack(*m.ops))


def socle(m: ErModule) -> FpMatrix:
    """Column basis of soc M = intersection of the operator kernels."""
    return kernel_basis(FpMatrix.vstack(*m.ops))


def rad_series(m: ErModule) -> list[int]:
    """Dimensions of rad^0 M >= rad^1 M >= ... down to 0."""
    dims = [m.dim]
    basis = FpMatrix.identity(m.p, m.dim)
    while basis.cols:
        basis = image_basis(FpMatrix.hstack(*(op @ basis for op in m.ops)))
        dims.append(basis.cols)
    return dims


def soc_series(m: ErModule) -> list[int]:
    """Dimensions of 0 <= soc^1 M <= soc^2 M <= ... up to M, by duality:
    soc^i M is the annihilator of rad^i(D M) under the pairing of M with
    its dual D M, whose operators are the transposes, so its dimension is
    dim M - dim rad^i(D M)."""
    dual = ErModule(m.p, m.r, m.dim, tuple(op.transpose() for op in m.ops))
    return [m.dim - d for d in rad_series(dual)]


def loewy_length(m: ErModule) -> int:
    return len(rad_series(m)) - 1


# ---------------------------------------------------------------------------
# the group algebra and its radical powers

def group_algebra_radical_power(p: int, r: int, s: int) -> ErModule:
    """The s-th radical power of kE_r on its truncated monomial basis.

    Basis: exponent tuples in [0, p-1]^r of total degree >= s, by degree;
    each variable acts by exponent bump, vanishing past exponent p-1.  s
    runs from 0 (the regular module, dimension p^r) to r(p-1)+1 (zero).
    The result records its grading by total degree, the monomial counts of
    degrees s .. r(p-1) (``ErModule``)."""
    check_modulus(p)
    if r < 2:
        raise ValueError("require r >= 2")
    top = r * (p - 1) + 1
    if not 0 <= s <= top:
        raise ValueError(f"require 0 <= s <= {top}, got s={s}")
    by_degree = [[e for e in monomials(r, deg) if all(x <= p - 1 for x in e)]
                 for deg in range(s, top)]
    basis = [e for level in by_degree for e in level]
    index = {e: i for i, e in enumerate(basis)}
    dim = len(basis)
    ops = []
    for l in range(r):
        a = np.zeros((dim, dim), dtype=np.int64)
        for j, e in enumerate(basis):
            if e[l] + 1 <= p - 1:
                bumped = tuple(x + (1 if t == l else 0) for t, x in enumerate(e))
                a[index[bumped], j] = 1
        ops.append(FpMatrix._reduced(p, a))
    return _graded(ErModule(p, r, dim, tuple(ops)), tuple(len(level) for level in by_degree))


# ---------------------------------------------------------------------------
# twists

def twist(m: ErModule, g: FpMatrix) -> ErModule:
    """The coordinate-change twist: new x_l = sum_t (g^{-1})_{tl} x_t.

    A linear change of variables keeps degrees, so the twist records the
    grading of m, if m records one (``ErModule``)."""
    if g.p != m.p or (g.rows, g.cols) != (m.r, m.r):
        raise ValueError("twist needs an r x r matrix over the same field")
    ops = combine(invert(g).a.T, [op.a for op in m.ops], m.p)
    ops.setflags(write=False)
    return _graded(ErModule(m.p, m.r, m.dim, tuple(FpMatrix._reduced(m.p, op) for op in ops)),
                   m._levels)


def invert(g: FpMatrix) -> FpMatrix:
    if g.rows != g.cols:
        raise ValueError("only square matrices invert")
    inv = solve_matrix(g, FpMatrix.identity(g.p, g.rows))
    if inv is None:
        raise ValueError("matrix is singular")
    return inv


# ---------------------------------------------------------------------------
# hom spaces, endomorphism algebras, isomorphism, indecomposability

def hom_modules(m: ErModule, n: ErModule) -> list[FpMatrix]:
    """Basis of the intertwiner space {phi : phi x_l = x_l' phi for all l}."""
    if not m.same_config(n):
        raise ConfigMismatch("hom requires matching (p, r)")
    (stack,) = _intertwiners(m.p, m.dims, m.arrows, n.dims, n.arrows)
    return [FpMatrix._reduced(m.p, phi) for phi in stack]


def is_isomorphic(m: ErModule, n: ErModule) -> str:
    """'yes' | 'no', both certified: rejections by dimension, by Jordan types
    and by radical-series dimensions come first, then
    ``reps.decide_isomorphism`` on m and n as one-vertex quivers.  The
    Jordan types are compared on the points whose types both modules have
    memoized, after each has computed the chunk of the first point
    (``jordan_type``): a screen only returns a certified 'no', so it
    never costs more than one chunk, and the decision settles the rest."""
    if not m.same_config(n):
        raise ConfigMismatch("isomorphism requires matching (p, r)")
    if m.dim != n.dim:
        return "no"
    if m.dim == 0:
        return "yes"
    for x in (m, n):  # each memo then holds the chunk of the first point
        jordan_type(x, first_point(m.p, m.r))
    if any(m._jordan[c] != n._jordan[c] for c in m._jordan.keys() & n._jordan.keys()):
        return "no"
    if rad_series(m) != rad_series(n):
        return "no"
    return decide_isomorphism(m.p, m.dims, m.arrows, n.dims, n.arrows)


@dataclass(frozen=True)
class EndReport:
    """dim End M and whether End M is commutative and local, both certified
    by ``_local``.  End of the zero module is the zero ring: not local."""

    dimension: int
    commutative: bool
    local: bool
    regime: str  # always "deterministic"


def _span_stack(p: int, stack: np.ndarray) -> np.ndarray:
    """A basis, as a (k, n, n) stack, of the span of the (m, n, n) stack."""
    n = stack.shape[-1]
    flat = image_basis(FpMatrix._reduced(p, stack.reshape(len(stack), n * n).T))
    return np.ascontiguousarray(flat.a.T).reshape(flat.cols, n, n)


def _products(p: int, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Every product l @ r, l in left and r in right, as one stack."""
    return matmul(left[:, None], right[None], p).reshape(-1, *left.shape[1:])


def _local(stack: np.ndarray, p: int) -> tuple[bool, bool]:
    """(commutative, local) for the algebra A spanned by the (h, n, n) stack,
    a basis of a subalgebra of n x n matrices over F_p that holds the identity.

    The commutators span a space C.  Since [a, b] c = [a, b c] - b [a, c]
    puts C A inside C + A C, and A holds 1, the two-sided ideal C generates
    is span(A C): one stacked product.  If A is local, A/rad A is a field
    (Wedderburn's little theorem), so that ideal lies in rad A and is
    nilpotent.  An ideal is nilpotent exactly when every element of a
    spanning set is, by the trace argument of ``reps.decide_isomorphism``,
    so a basis element with a nonzero n-th power certifies "not local"
    (an ideal that holds 1 is one such case).  Otherwise A is local exactly
    when the commutative quotient A/I by the ideal I is, and there
    a -> a^p is F_p-linear with a fixed space of dimension the number of
    primitive idempotents (Berlekamp).  That dimension is
    h - rank{a_i^p - a_i, I}, so A is local exactly when it is 1."""
    h = len(stack)
    if h <= 1:
        return True, h == 1  # the zero ring, or F_p
    ideal = stack[:0]
    for i, a in enumerate(stack):
        comm = (matmul(a, stack[i + 1:], p) - matmul(stack[i + 1:], a, p)) % p
        if comm.any():
            ideal = _span_stack(p, np.concatenate([ideal, comm]))
    commutative = not len(ideal)
    n = stack.shape[-1]
    if not commutative:
        ideal = _span_stack(p, _products(p, stack, ideal))
        if power(ideal, n, p).any():
            return False, False
    moved = np.concatenate([(power(stack, p, p) - stack) % p, ideal])
    return commutative, h - rank(FpMatrix._reduced(p, moved.reshape(-1, n * n))) == 1


def end_algebra(m: ErModule) -> tuple[list[FpMatrix], EndReport]:
    """Endomorphism basis with certified commutativity and locality flags."""
    (stack,) = _intertwiners(m.p, m.dims, m.arrows, m.dims, m.arrows)
    basis = [FpMatrix._reduced(m.p, phi) for phi in stack]
    return basis, EndReport(len(basis), *_local(stack, m.p), "deterministic")


@dataclass(frozen=True)
class IndecResult:
    """'yes' or 'decomposable', both certified.  summand_dims are the
    dimensions of a Fitting split of M by the first End basis element that
    has one, or None when no basis element splits M."""

    verdict: str  # "yes" | "decomposable"
    summand_dims: tuple[int, int] | None = None


def is_indecomposable(m) -> IndecResult:
    """'yes' exactly when End is local (``_local``), for a graded
    representation (its graded End, block-diagonal) or a module; otherwise
    'decomposable', with the first split M = ker phi^dim + im phi^dim, both
    nonzero, among the End basis elements phi."""
    if not isinstance(m, (BeilinsonRep, ErModule)):
        raise TypeError("expected a BeilinsonRep or an ErModule")
    dim = sum(m.dims)
    if dim == 0:
        raise ValueError("the zero module is neither decomposable nor indecomposable")
    end = block_diagonal(_intertwiners(m.p, m.dims, m.arrows, m.dims, m.arrows))
    if _local(end, m.p)[1]:
        return IndecResult("yes")
    images = [int(r) for r in batched_rank(power(end, dim, m.p), m.p) if 0 < r < dim]
    return IndecResult("decomposable", (dim - images[0], images[0]) if images else None)
