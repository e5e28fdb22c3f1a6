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
materialized projective-line family of arrow-cokernel modules X_alpha(i),
sharing nothing with the definition route beyond the exact linear algebra
substrate and the Sylvester systems of ``reps``.  It sweeps runs of 1, 2,
4, ... points.  A run of one or two points goes one point at a time, each
Hom system solved sparsely (``hom_space``), as the per-point loop does,
so a sweep that fails at one of its first three points solves what that
loop solves.  A longer run goes one level at a time and stacks the
systems of its points: one forcing pass over the whole stack, then one
``batched_rank``.  A run holds at most as many points as keep B rows cols
min(rows, cols) within ``linalg.STACK_ENTRIES`` (``_run_cap``), so where
the systems are large, every point is solved alone.  The levels of a
stacked run rank only the points before the earliest failure found so
far, so the witness is the first (point, level) in enumeration order.
All "for every point" quantifiers run exhaustively over the rational
points of P^{r-1}(F_p); reports carry the field so the gap to an
algebraically closed base field stays visible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from . import linalg
from .linalg import batched_rank, combine, matmul, sketch_matrix
from .monomials import dim_degree
from .reps import (
    BeilinsonRep,
    ProjPoint,
    _sylvester,
    composite_ranks,
    hom_space,
    point_steps,
    proj_coords,
    x_module,
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

# the point modules one sweep builds are at most 400 points of P^3(F_7)
# times 4 levels (n <= 5), so every sweep at p <= 7, r <= 4, hom_route's 62
# modules among them, hits on a second run; an unbounded cache kept all
# 20,606 modules of one sweep at p = 101 and hit none of them
X_CACHE_SIZE = 400 * 4


@lru_cache(maxsize=X_CACHE_SIZE)
def cached_x_module(p: int, n: int, r: int, alpha: ProjPoint, i: int) -> BeilinsonRep:
    """The degree-one point module X_alpha at vertex i, the paper's family."""
    return x_module(p, n, r, alpha, i)


# a run of B points stacks each level's Sylvester systems, rows x cols,
# while B * rows * cols * min(rows, cols), the work of ranking the stack,
# stays within linalg.STACK_ENTRIES at every level of the sweep.  Per
# point, a stack of 3 and of 16 against the sparse solve (ms, best of 3 on
# a 2-core Intel Xeon, Python 3.11, numpy 2.4): 27 x 17 (work 7,803, so 16
# points a run) 0.18 and 0.07 against 0.29 and 0.35; 36 x 31 (34,596, 3
# points) 0.35 against 0.44; 88 x 74 (481,888, one point) 2.1 against 1.3;
# 200 x 155 (4.8 million) 16 against 3.0, since a dense stack loses what
# forcing removes from each sparse system.  Runs of fewer than
# _STACK_MIN_POINTS points go one point at a time: a stack of two saves
# little (0.24 against 0.25 ms per point at 27 x 17, 0.17 against 0.25 at
# 9 x 9), and it ranks the second point's level 0 even where the first
# point fails at level 1, which the per-point loop never solves
_STACK_MIN_POINTS = 3


def _run_cap(m: BeilinsonRep) -> int:
    """The most points a run of the hom route over m stacks, by the rule
    above at its largest level, and at least one.  X_alpha(i) is the
    cokernel of the injective map P(i+1) -> P(i) that alpha gives, so at
    every alpha its dimension at vertex v is dim_degree(r, v - i) -
    dim_degree(r, v - i - 1)."""
    work = 1
    for i in range(m.n - 1):
        xdims = [dim_degree(m.r, v - i) - dim_degree(m.r, v - i - 1) for v in range(m.n)]
        rows = m.r * sum(x * y for x, y in zip(xdims, m.dims[1:]))
        cols = sum(x * y for x, y in zip(xdims, m.dims))
        work = max(work, rows * cols * min(rows, cols))
    return max(linalg.STACK_ENTRIES // work, 1)


def _hom_dims(m: BeilinsonRep, xs) -> list[int]:
    """dim Hom(x, m) for each x of xs, point modules of one dimension vector.

    Fewer than ``_STACK_MIN_POINTS`` modules are solved one by one,
    sparsely, by ``hom_space``.  More go as one (len(xs), rows, cols)
    stack of their Sylvester systems (``reps._sylvester``): one ``_force``
    on the block-diagonal matrix of the stack finds every system's forced
    columns, whose RREF rows are unit vectors, so dim Hom is cols minus the
    forced columns minus the ``batched_rank`` of the rest, the stack with
    the forced columns zeroed."""
    if len(xs) < _STACK_MIN_POINTS:
        return [len(hom_space(x, m)) for x in xs]
    xarrows = [(v, v + 1, np.stack([x.maps[v][l].a for x in xs]))
               for v in range(m.n - 1) for l in range(m.r)]
    (rows, cols), (r, c, values) = _sylvester(m.p, xs[0].dims, xarrows,
                                              m.dims, [(v, w, a.a) for v, w, a in m.arrows])
    forced = linalg._force(r, c, len(xs) * cols)
    live = ~forced[c]
    stack = np.zeros((len(xs), rows, cols), dtype=np.int64)
    # entry (r, c) of the block-diagonal matrix is entry (r, c % cols) of
    # the stack seen as one (len(xs) * rows, cols) array
    stack.reshape(len(xs) * rows, cols)[r[live], c[live] % cols] = values[live]
    dims = cols - forced.reshape(len(xs), cols).sum(axis=1)
    rest = np.flatnonzero(stack.any(axis=(1, 2)))
    if rest.size:
        dims[rest] -= batched_rank(stack[rest], m.p)
    return dims.tolist()


def _hom_failures(m: BeilinsonRep, shift):
    """The first (point, level) in enumeration order where shift[level] +
    dim Hom(X_point(level), m) is nonzero, yielded alone, or nothing.

    The sweep reads the coordinate rows of ``proj_coords`` in runs of 1,
    2, 4, ... points, at most ``_run_cap`` each, and builds a point per row
    of the run.  A run of fewer than ``_STACK_MIN_POINTS`` points goes one
    point at a time, its levels in order, each solved by ``hom_space``: the
    per-point loop, which solves nothing past the first failure, so a sweep
    that fails at one of its first three points solves what the loop
    solves.  A longer run goes one level at a time, each ranked at once
    (``_hom_dims``), and a level ranks only the points before the earliest
    failure found so far, so the run's first failure is the sweep's."""
    coords = proj_coords(m.p, m.r)
    start, run, cap = 0, 1, 1
    while start < len(coords):
        points = [ProjPoint(m.p, row) for row in coords[start:start + run]]
        if len(points) < _STACK_MIN_POINTS:
            for alpha in points:
                for i in range(m.n - 1):
                    if shift[i] + len(hom_space(cached_x_module(m.p, m.n, m.r, alpha, i), m)):
                        yield alpha, i
                        return
        else:
            ahead = len(points)  # the points before the earliest failure so far
            for i in range(m.n - 1):
                xs = [cached_x_module(m.p, m.n, m.r, alpha, i) for alpha in points[:ahead]]
                bad = next((b for b, d in enumerate(_hom_dims(m, xs)) if d + shift[i]), None)
                if bad is not None:
                    ahead, level = bad, i
                    if not ahead:
                        break
            if ahead < len(points):
                yield points[ahead], level
                return
        if not start:
            cap = _run_cap(m)
        start += run
        run = min(2 * run, cap)


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

def _rank_table(m: BeilinsonRep):
    """For j = 1 .. n-1 in turn, the total rank of the j-fold step
    composites at every point of P^{r-1}(F_p) (``reps.composite_ranks``)."""
    return composite_ranks(point_steps(m, proj_coords(m.p, m.r)), m.p)


def _rank_changes(p: int, coords, totals, j: int):
    """(point, j) for each point, in order, whose total differs from the first's."""
    for b in np.flatnonzero(totals != totals[0]):
        yield ProjPoint(p, coords[b]), j


def constant_rank(m: BeilinsonRep, j: int) -> PropertyReport:
    """Rank of the j-fold step composites equal across all points; the
    report carries the total rank at every point."""
    if not 1 <= j <= m.n - 1:
        raise ValueError(f"require 1 <= j <= n-1, got j={j}")
    coords = proj_coords(m.p, m.r)
    totals = next(islice(_rank_table(m), j - 1, None))
    profile = tuple(zip(map(tuple, coords.tolist()), totals.tolist()))
    return _first_failure(f"CR{j}", m.p, _rank_changes(m.p, coords, totals, j), profile)


def constant_jordan_type(m: BeilinsonRep) -> PropertyReport:
    """Conjunction of constant j-rank over j = 1 .. n-1, from one sweep."""
    coords = proj_coords(m.p, m.r)
    failures = (hit for j, totals in enumerate(_rank_table(m), 1)
                for hit in _rank_changes(m.p, coords, totals, j))
    return _first_failure("CJT", m.p, failures)


def no_maps_check(eip_member: BeilinsonRep, ekp_member: BeilinsonRep) -> bool:
    """No nonzero maps from the equal-images side to the equal-kernels side."""
    return len(hom_space(eip_member, ekp_member)) == 0
