"""Equal-images / equal-kernels / constant-rank decisions, by two routes.

The definition route inspects the step matrices of the point operators
directly, one batched rank per level over consecutive runs of points,
each run's stack within ``linalg.STACK_ENTRIES`` entries; a level
whose required rank exceeds both of its dimensions fails everywhere, so
then only the first point is ranked, and it carries the witness.
Otherwise each level asks for full rank, and a wide level is first ranked
as a sketch, a fixed compression of its steps along their long side
(``linalg.sketch_matrix``): a sketch of full rank certifies that its
step has full rank, and only the points it does not certify are ranked
exactly on their full steps, so every rank, verdict and witness is
exact.

The homological route computes Hom- and Ext-dimensions against the
projective-line family of arrow-cokernel modules X_alpha(i), sharing
nothing with the definition route beyond the exact linear algebra
substrate and the Sylvester systems of ``reps``.  It builds the family in
closed form, a whole run of points at once (``_x_family``): X_alpha(i)
is the polynomial ring in the r - 1 variables other than alpha's lead,
started at vertex i, so no point module is eliminated, built or cached.
The first three points go one at a time, each Hom system solved
sparsely, as the per-point loop does, so a sweep that fails at one of
them solves what that loop solves.  Then runs of 4, 8, ... points go one
level at a time and stack the systems of their points: one forcing pass
over the whole stack, then one ``batched_rank``.  A run holds at most as
many points as keep B rows cols min(rows, cols) within
``linalg.STACK_ENTRIES`` (``_run_cap``), so where the systems are large,
every point is solved alone.  The levels of a stacked run rank only the
points before the earliest failure found so far, so the witness is the
first (point, level) in enumeration order.
All "for every point" quantifiers run exhaustively over the rational
points of P^{r-1}(F_p); reports carry the field so the gap to an
algebraically closed base field stays visible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, islice

import numpy as np

from . import linalg
from .linalg import batched_rank, combine, coordinate_kernel, matmul, sketch_matrix
from .monomials import dim_degree, multiplication_matrix
from .reps import (
    BeilinsonRep,
    ProjPoint,
    _sylvester,
    composite_ranks,
    hom_space,
    point_steps,
    proj_coords,
)


@dataclass(frozen=True)
class PropertyReport:
    property: str  # "EIP" | "EKP" | "CR1".. | "CJT"
    verdict: bool
    p: int
    witness: tuple[ProjPoint, int] | None = None  # (failing point, level)
    ranks: tuple[tuple[tuple[int, ...], int], ...] | None = None  # (coords, rank)

    def __post_init__(self):
        assert self.verdict or self.witness is not None

    def to_json(self) -> str:
        d = {
            "property": self.property,
            "verdict": self.verdict,
            "field": {"p": self.p, "note": "quantifiers over rational points only"},
        }
        if self.witness is not None:
            point, level = self.witness
            d["witness"] = {"alpha": list(point.coords), "level": level}
        if self.ranks is not None:
            d["ranks"] = [{"alpha": list(c), "rank": rk} for c, rk in self.ranks]
        return json.dumps(d)


def _first_failure(prop: str, p: int, failures, ranks=None) -> PropertyReport:
    """False with the first (point, level) that failures yields, else true."""
    hit = next(failures, None)
    return PropertyReport(prop, hit is None, p, witness=hit, ranks=ranks)


# ---------------------------------------------------------------------------
# definition route

# a sweep over more than one point whose steps have short side k of at
# least _SKETCH_MIN_RANK and long side past 2 (k + _SKETCH_EXTRA) is first
# ranked as a sketch of k + _SKETCH_EXTRA lines; on one point, or at k <= 3,
# the sketch costs more than it saves
_SKETCH_EXTRA = 2
_SKETCH_MIN_RANK = 4


def _ranks_in_runs(coords, mats, p: int) -> np.ndarray:
    """Ranks of the steps sum_l coords[b, l] * mats[l] at every row b,
    stacked in consecutive runs of rows that hold at most
    ``linalg.STACK_ENTRIES`` entries each, or one row where a single step
    is larger, so no sweep stacks every point at once."""
    run = max(linalg.STACK_ENTRIES // max(mats[0].size, 1), 1)
    return np.concatenate([batched_rank(combine(coords[b:b + run], mats, p), p)
                           for b in range(0, len(coords), run)])


def _level_ranks(coords, arrows, p: int) -> np.ndarray:
    """Ranks of the steps sum_l coords[b, l] * arrows[l] at every point b,
    ranked in runs of points (``_ranks_in_runs``).

    Where the size rule above holds, the arrows are first compressed along
    their long side L by the fixed (k + 2) x L ``sketch_matrix`` Q, to
    Q A_l or A_l Q^T, once per level; the combined sketch at a point is Q
    times its step, or its step times Q^T, and has rank at most the
    step's, so a sketch of rank k certifies rank k.  Only the points whose
    sketch ranks below k are ranked on their full steps, again in runs, so
    every rank is exact whatever Q is."""
    rows, cols = arrows[0].shape
    k, long = sorted((rows, cols))
    lines = k + _SKETCH_EXTRA
    if len(coords) == 1 or k < _SKETCH_MIN_RANK or long <= 2 * lines:
        return _ranks_in_runs(coords, arrows, p)
    q = sketch_matrix(p, lines, long)
    sketches = [matmul(q, a, p) if rows > cols else matmul(a, q.T, p) for a in arrows]
    ranks = _ranks_in_runs(coords, sketches, p)
    low = np.flatnonzero(ranks < k)
    if low.size:
        ranks[low] = _ranks_in_runs(coords[low], arrows, p)
    return ranks


def _step_failures(m: BeilinsonRep, needed):
    """(point, level) pairs, in enumeration order, where the step rank of
    the point operator falls below needed[level].  The sweep reads the
    coordinate rows of ``proj_coords``, and a point is built only where a
    step fails.

    A step dims[i] -> dims[i+1] has rank at most min(dims[i], dims[i+1]),
    so a level that needs more fails at every point.  The first failure in
    enumeration order then lies at the first point (the block after the
    prefix (0,) * (r - 1)), at the lowest level failing there: only that
    point is ranked, and its failures, which begin with the witness a full
    sweep would give, are all that is yielded.  Otherwise every level asks
    for that full rank at every point, and a wide level ranks a sketched
    stack first and re-ranks exactly only the points it does not certify
    (``_level_ranks``), so the rank table is the exact one."""
    needed, dims = np.asarray(needed), np.asarray(m.dims)
    screened = (needed > np.minimum(dims[:-1], dims[1:])).any()
    coords = proj_coords(m.p, m.r, (0,) * (m.r - 1)) if screened else proj_coords(m.p, m.r)
    ranks = np.stack([_level_ranks(coords, [a.a for a in level], m.p) for level in m.maps],
                     axis=1)
    for b, i in np.argwhere(ranks < needed):
        yield ProjPoint(m.p, coords[b]), int(i)


def is_eip_def(m: BeilinsonRep) -> PropertyReport:
    """Every step of every point operator surjective."""
    return _first_failure("EIP", m.p, _step_failures(m, m.dims[1:]))


def is_ekp_def(m: BeilinsonRep) -> PropertyReport:
    """Every step of every point operator injective."""
    return _first_failure("EKP", m.p, _step_failures(m, m.dims[:-1]))


# ---------------------------------------------------------------------------
# homological route

@lru_cache(maxsize=None)
def _y_table(p: int, r: int, n: int):
    """What ``_x_family`` reads at (p, r, n): (z, degrees, xdims).

    z is (r, r, F): z[:, j] holds the r arrows of X_alpha(0) at the point
    alpha = e_j, where arrow j is zero and arrow l != j multiplies by the
    variable y_k, k = l - (l > j), of k[y_0..y_{r-2}], each arrow its
    matrices from degree d to d + 1, d = 0 .. n - 2
    (``monomials.multiplication_matrix``), row-major and concatenated by
    degree.  degrees[d + n - 2], for d = 2 - n .. n - 2, is (start, stop,
    rows, cols) of degree d in the last axis of z, empty below degree 0;
    xdims[i] is the dimension vector of X_alpha(i), dim_degree(r - 1, v -
    i) at vertex v."""
    degree = [dim_degree(r - 1, d) for d in range(n)]
    y = np.concatenate([np.stack([multiplication_matrix(p, r - 1, d, k).a.ravel()
                                  for k in range(1, r)])
                        for d in range(n - 1)], axis=1)
    z = np.zeros((r, r, y.shape[1]), dtype=np.int64)
    for j in range(r):
        z[np.arange(r) != j, j] = y
    z.setflags(write=False)
    offs = list(accumulate((degree[d + 1] * degree[d] for d in range(n - 1)), initial=0))
    degrees = [(0, 0, int(d == -1), 0) for d in range(2 - n, 0)]
    degrees += [(offs[d], offs[d + 1], degree[d + 1], degree[d]) for d in range(n - 1)]
    xdims = [tuple(dim_degree(r - 1, v - i) for v in range(n)) for i in range(n - 1)]
    return z, degrees, xdims


def _x_family(p: int, n: int, r: int, coords):
    """X_alpha(i) at every coordinate row alpha of coords (``proj_coords``
    rows), in closed form: for i = 0 .. n - 2 in turn, (dims, arrows), the
    arrows (v, v+1, a) level by level, each a a stack with the point axis
    first.

    With lead j, the first nonzero coordinate, normalized to 1, alpha =
    x_j + sum_{t>j} alpha_t x_t, so X_alpha(i) = P(i) / alpha P(i+1) is
    k[x]/(alpha) started at vertex i, which the substitution x_j =
    -sum_{t>j} alpha_t x_t identifies with k[y], y the r - 1 other
    variables: arrow l != j multiplies by its own variable, as at e_j
    (``_y_table``), and arrow j by -sum_t alpha_t times the arrows at e_j,
    one ``matmul`` for the run.  X_alpha(i) at vertex v is degree v - i."""
    z, degrees, xdims = _y_table(p, r, n)
    lead = (coords != 0).argmax(axis=1)
    arrows = z[:, lead]  # (r, points, F)
    arrows[lead, np.arange(len(coords))] = -matmul(coords[:, None], arrows.transpose(1, 0, 2),
                                                   p)[:, 0] % p
    blocks = [list(arrows[..., lo:hi].reshape(r, len(coords), rows, cols))
              for lo, hi, rows, cols in degrees]
    return ((dims, [(v, v + 1, a) for v in range(n - 1) for a in blocks[v - i + n - 2]])
            for i, dims in enumerate(xdims))


# a run of B points stacks each level's Sylvester systems, rows x cols,
# while B * rows * cols * min(rows, cols), the work of ranking the stack,
# stays within linalg.STACK_ENTRIES at every level of the sweep.  Per
# point, a stack of 3 and of 16 against the sparse solve (ms, best of 3 on
# a 2-core Intel Xeon, Python 3.11, numpy 2.4): 27 x 17 (work 7,803, so 16
# points a run) 0.18 and 0.07 against 0.29 and 0.35; 36 x 31 (34,596, 3
# points) 0.35 against 0.44; 88 x 74 (481,888, one point) 2.1 against 1.3;
# 200 x 155 (4.8 million) 16 against 3.0, since a dense stack loses what
# forcing removes from each sparse system.  The first _STACK_MIN_POINTS
# points go one at a time, and so does every point where fewer would fit
# a run: a stack of two saves little (0.24 against 0.25 ms per point at
# 27 x 17, 0.17 against 0.25 at 9 x 9), and it ranks the second point's
# level 0 even where the first point fails at level 1, which the
# per-point loop never solves
_STACK_MIN_POINTS = 3


def _run_cap(m: BeilinsonRep) -> int:
    """The most points a run of the hom route over m stacks, by the rule
    above at its largest level, and at least one.  At every alpha,
    X_alpha(i) has dimension dim_degree(r - 1, v - i) at vertex v
    (``_y_table``)."""
    work = 1
    for xdims in _y_table(m.p, m.r, m.n)[2]:
        rows = m.r * sum(x * y for x, y in zip(xdims, m.dims[1:]))
        cols = sum(x * y for x, y in zip(xdims, m.dims))
        work = max(work, rows * cols * min(rows, cols))
    return max(linalg.STACK_ENTRIES // work, 1)


def _hom_dims(m: BeilinsonRep, xdims, xarrows) -> list[int]:
    """dim Hom(x, m) at each point of x, given by dims and (v, v+1, stack)
    arrows with the point axis first (``_x_family``).

    One point is solved sparsely (``coordinate_kernel``).  More go as one
    (points, rows, cols) stack of their Sylvester systems
    (``reps._sylvester``): one ``_force`` on the block-diagonal matrix of
    the stack finds every system's forced columns, whose RREF rows are
    unit vectors, so dim Hom is cols minus the forced columns minus the
    ``batched_rank`` of the rest, the stack with the forced columns zeroed."""
    points = len(xarrows[0][2])
    (rows, cols), (r, c, values) = _sylvester(m.p, xdims, xarrows,
                                              m.dims, [(v, w, a.a) for v, w, a in m.arrows])
    if points == 1:
        return [len(coordinate_kernel(m.p, (rows, cols), r, c, values))]
    forced = linalg._force(r, c, points * cols)
    live = ~forced[c]
    stack = np.zeros((points, rows, cols), dtype=np.int64)
    # entry (r, c) of the block-diagonal matrix is entry (r, c % cols) of
    # the stack seen as one (points * rows, cols) array
    stack.reshape(points * rows, cols)[r[live], c[live] % cols] = values[live]
    dims = cols - forced.reshape(points, cols).sum(axis=1)
    rest = np.flatnonzero(stack.any(axis=(1, 2)))
    if rest.size:
        dims[rest] -= batched_rank(stack[rest], m.p)
    return dims.tolist()


def _hom_failures(m: BeilinsonRep, shift):
    """The first (point, level) in enumeration order where shift[level] +
    dim Hom(X_point(level), m) is nonzero, yielded alone, or nothing.

    The sweep reads the coordinate rows of ``proj_coords`` in runs: the
    first ``_STACK_MIN_POINTS`` points one at a time, then runs of 4, 8,
    ... points, at most ``_run_cap`` each, or one point each where that is
    below ``_STACK_MIN_POINTS``.  Each run builds its family once
    (``_x_family``) and goes one level at a time (``_hom_dims``); a level
    ranks only the points before the earliest failure found so far, so
    the run's first failure is the sweep's, and a point is built only
    there.  A sweep that fails at one of its first three points solves
    what the per-point loop solves."""
    coords = proj_coords(m.p, m.r)
    start, run, cap = 0, 1, 1
    while start < len(coords):
        rows = coords[start:start + run]
        ahead = len(rows)  # the points before the earliest failure so far
        for i, (xdims, xarrows) in enumerate(_x_family(m.p, m.n, m.r, rows)):
            if ahead < len(rows):
                xarrows = [(v, w, a[:ahead]) for v, w, a in xarrows]
            bad = next((b for b, d in enumerate(_hom_dims(m, xdims, xarrows)) if d + shift[i]),
                       None)
            if bad is not None:
                ahead, level = bad, i
                if not ahead:
                    break
        if ahead < len(rows):
            yield ProjPoint(m.p, rows[ahead]), level
            return
        start += run
        if start == _STACK_MIN_POINTS:
            cap = _run_cap(m)
        if cap >= _STACK_MIN_POINTS:
            run = min(start + 1, cap)


def is_eip_hom(m: BeilinsonRep) -> PropertyReport:
    """Ext^1 against the whole degree-one family vanishes at every point:
    by the length-one projective resolution of X_alpha(i), dim Ext^1 =
    dims[i+1] - dims[i] + dim Hom(X_alpha(i), m)."""
    return _first_failure("EIP", m.p, _hom_failures(m, [b - a for a, b in zip(m.dims, m.dims[1:])]))


def is_ekp_hom(m: BeilinsonRep) -> PropertyReport:
    """Hom from the whole degree-one family vanishes at every point."""
    return _first_failure("EKP", m.p, _hom_failures(m, [0] * (m.n - 1)))


# ---------------------------------------------------------------------------
# constant rank / constant Jordan type

def _rank_runs(m: BeilinsonRep, coords):
    """(start, table) for consecutive runs of the coordinate rows coords,
    each of at most ``linalg.STACK_ENTRIES`` // sum_i dims[i]^2 points, or
    one: table yields, for j = 1 .. n-1 in turn, the total rank of the
    j-fold step composites at each point of the run that starts at row
    start (``reps.composite_ranks``).  A j-fold composite at level i is
    dims[i+j] x dims[i], and sum_i dims[i+j] dims[i] <= sum_i dims[i]^2 by
    Cauchy-Schwarz, so every stack of a run stays within the budget."""
    run = max(linalg.STACK_ENTRIES // max(sum(d * d for d in m.dims), 1), 1)
    for start in range(0, len(coords), run):
        yield start, composite_ranks(point_steps(m, coords[start:start + run]), m.p)


def _rank_changes(p: int, coords, totals, j: int):
    """(point, j) for each point, in order, whose total differs from the first's."""
    for b in np.flatnonzero(totals != totals[0]):
        yield ProjPoint(p, coords[b]), j


def constant_rank(m: BeilinsonRep, j: int) -> PropertyReport:
    """Rank of the j-fold step composites equal across all points; the
    report carries the total rank at every point, ranked in runs of points
    (``_rank_runs``)."""
    if not 1 <= j <= m.n - 1:
        raise ValueError(f"require 1 <= j <= n-1, got j={j}")
    coords = proj_coords(m.p, m.r)
    totals = np.concatenate([next(islice(table, j - 1, None))
                             for _, table in _rank_runs(m, coords)])
    profile = tuple(zip(map(tuple, coords.tolist()), totals.tolist()))
    return _first_failure(f"CR{j}", m.p, _rank_changes(m.p, coords, totals, j), profile)


def constant_jordan_type(m: BeilinsonRep) -> PropertyReport:
    """Conjunction of constant j-rank over j = 1 .. n-1, from one sweep in
    runs of points (``_rank_runs``).  The witness is the first point whose
    total differs from the first point's at the lowest j where any does:
    the first run ranks every j, and once a run finds a change at j, later
    runs rank only the j' < j, which could still hold a lower one."""
    coords = proj_coords(m.p, m.r)
    first, witness = [], None
    for start, table in _rank_runs(m, coords):
        for j, totals in zip(range(1, witness[1] if witness else m.n), table):
            if not start:
                first.append(totals[0])
            changed = np.flatnonzero(totals != first[j - 1])
            if changed.size:
                witness = ProjPoint(m.p, coords[start + changed[0]]), j
                break
    return PropertyReport("CJT", witness is None, m.p, witness=witness)


def no_maps_check(eip_member: BeilinsonRep, ekp_member: BeilinsonRep) -> bool:
    """No nonzero maps from the equal-images side to the equal-kernels side."""
    return len(hom_space(eip_member, ekp_member)) == 0
