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
exact.  The
homological route computes Hom- and Ext-dimensions against the materialized
projective-line family of arrow-cokernel modules via the intertwiner
solver, sharing nothing with the definition route beyond the exact linear
algebra substrate.  All "for every point" quantifiers run
exhaustively over the rational points of P^{r-1}(F_p); reports carry the
field so the gap to an algebraically closed base field stays visible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from . import linalg
from .linalg import batched_rank, combine, matmul, sketch_matrix
from .reps import (
    BeilinsonRep,
    ProjPoint,
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

@lru_cache(maxsize=None)
def cached_x_module(p: int, n: int, r: int, alpha: ProjPoint, i: int) -> BeilinsonRep:
    """The degree-one point module X_alpha at vertex i, the paper's family."""
    return x_module(p, n, r, alpha, i)


def hom_dim_x(m: BeilinsonRep, alpha: ProjPoint, i: int) -> int:
    """dim Hom(X, m) against the materialized arrow-cokernel module."""
    return len(hom_space(cached_x_module(m.p, m.n, m.r, alpha, i), m))


def ext_dim_x(m: BeilinsonRep, alpha: ProjPoint, i: int) -> int:
    """dim Ext^1(X, m) from the length-one projective resolution of X:
    the Euler identity dim Ext = dim m_{i+1} - dim m_i + dim Hom(X, m)."""
    return m.dims[i + 1] - m.dims[i] + hom_dim_x(m, alpha, i)


def _hom_failures(m: BeilinsonRep, dim_x):
    """(point, level) pairs, in enumeration order, where dim_x(m, point,
    level) is nonzero; lazy, so a sweep stops at its first failure.  It
    reads the coordinate rows of ``proj_coords`` one at a time and builds
    each point from its row, so no tuple of points is built."""
    for row in proj_coords(m.p, m.r):
        alpha = ProjPoint(m.p, row)
        for i in range(m.n - 1):
            if dim_x(m, alpha, i):
                yield alpha, i


def is_eip_hom(m: BeilinsonRep) -> PropertyReport:
    """Ext^1 against the whole degree-one family vanishes at every point."""
    return _first_failure("EIP", m.p, _hom_failures(m, ext_dim_x))


def is_ekp_hom(m: BeilinsonRep) -> PropertyReport:
    """Hom from the whole degree-one family vanishes at every point."""
    return _first_failure("EKP", m.p, _hom_failures(m, hom_dim_x))


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
