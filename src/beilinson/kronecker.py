"""Auslander-Reiten translates and component widths for the r-Kronecker.

The translate is computed from an explicit minimal projective presentation
by the transpose-dual: relations are read off the kernel of the projective
cover, transposed into the opposite orientation and dualized back.  One
code path serves both directions, the inverse translate being the dual
conjugate.  Projective direct summands of the input contribute nothing to
the transpose and are reported as stripped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .linalg import FpMatrix, cokernel_projection, image_basis, kernel_basis, rank
from .properties import is_eip_def, is_ekp_def
from .reps import BeilinsonRep, dualize, sub_rep


def _require_kronecker(m: BeilinsonRep):
    if m.n != 2:
        raise ValueError("translates are implemented for two vertices only")


def combined_arrow_matrix(m: BeilinsonRep) -> FpMatrix:
    """Horizontal concatenation [g_1 | ... | g_r] : M_0^r -> M_1."""
    return FpMatrix.hstack(*m.maps[0])


def strip_simple_projective_summands(m: BeilinsonRep) -> tuple[BeilinsonRep, int]:
    """Split off the vertex-1 complement of the arrow image: those vectors
    span a direct sum of copies of the simple projective."""
    _require_kronecker(m)
    gamma = combined_arrow_matrix(m)
    img = image_basis(gamma)
    t = m.dims[1] - img.cols
    if t == 0:
        return m, 0
    bases = [FpMatrix.identity(m.p, m.dims[0]), img]
    return sub_rep(m, bases), t


@dataclass(frozen=True)
class TauResult:
    rep: BeilinsonRep
    stripped_simple_projectives: int
    stripped_big_projectives: int


def tau_detailed(m: BeilinsonRep) -> TauResult:
    """Auslander-Reiten translate with a record of stripped summands."""
    _require_kronecker(m)
    p, r = m.p, m.r
    core, t = strip_simple_projective_summands(m)
    d0, d1 = core.dims
    # kernel of the projective cover at vertex 1: columns indexed (arrow l,
    # generator i) in arrow-major order, matching the hstack above
    gamma = combined_arrow_matrix(core)
    relations = kernel_basis(gamma)  # (r*d0) x s
    s = relations.cols
    # transpose: generators of the opposite-orientation cokernel sit at the
    # relation slots; the i-th original generator attaches the row vector of
    # its relation coefficients across (relation j, arrow l)
    h = relations.a.reshape(r, d0, s).transpose(2, 0, 1).reshape(s * r, d0)
    hmat = FpMatrix._reduced(p, h)
    q, c = cokernel_projection(hmat)
    stripped_p0 = d0 - rank(hmat)
    # opposite arrows send relation j to the class of slot (j, l); dualizing
    # transposes them back into the standard orientation
    slots = q.a.reshape(c, s, r)
    maps = tuple(FpMatrix._reduced(p, slots[:, :, l].T.copy()) for l in range(r))  # s x c
    rep = BeilinsonRep(p, 2, r, (c, s), (maps,))
    return TauResult(rep, t, stripped_p0)


def tau(m: BeilinsonRep) -> BeilinsonRep:
    return tau_detailed(m).rep


def tau_inv(m: BeilinsonRep) -> BeilinsonRep:
    """Inverse translate via the duality conjugate of the translate."""
    return dualize(tau(dualize(m)))


def coxeter_dims(r: int, dims: tuple[int, int]) -> tuple[int, int]:
    """Dimension vector of the translate of a non-projective indecomposable:
    ((r^2-1) d_0 - r d_1, r d_0 - d_1)."""
    d0, d1 = dims
    return ((r * r - 1) * d0 - r * d1, r * d0 - d1)


def e_lambda(p: int, r: int, lam: tuple[int, ...]) -> BeilinsonRep:
    """The dimension-vector (1,1) brick on which the l-th arrow acts by the
    scalar lam[l]; lam must be nonzero."""
    coords = tuple(int(x) % p for x in lam)
    if len(coords) != r or not any(coords):
        raise ValueError("lambda must be a nonzero length-r vector")
    maps = tuple(FpMatrix(p, np.array([[c]], dtype=np.int64)) for c in coords)
    return BeilinsonRep(p, 2, r, (1, 1), (maps,))


def tits_form(r: int, dims: tuple[int, int]) -> int:
    d0, d1 = dims
    return d0 * d0 + d1 * d1 - r * d0 * d1


@dataclass(frozen=True)
class Classification:
    kind: str  # "preprojective" | "preinjective" | "regular" | "decomposable"
    exponent: int | None  # translate power reaching the (co)projective
    bound: int | None  # k_max used when the verdict is regular-within-bound
    tits_value: int


def inverse_coxeter_dims(r: int, dims: tuple[int, int]) -> tuple[int, int]:
    """Dimension vector of the inverse translate of a non-injective
    indecomposable: (-d_0 + r d_1, -r d_0 + (r^2-1) d_1)."""
    d0, d1 = dims
    return (-d0 + r * d1, -r * d0 + (r * r - 1) * d1)


def classify(m: BeilinsonRep, k_max: int = 8) -> Classification:
    """Orbit classification of an indecomposable Kronecker representation.

    Direction detection runs on dimension vectors alone: for an
    indecomposable the translate obeys the Coxeter recursion, and the orbit
    hits a projective (resp. injective) exactly when the recursion leaves
    the positive quadrant.  This keeps the walk cheap even though the
    dimension vectors of regular modules grow geometrically.
    """
    from .emod import is_indecomposable

    _require_kronecker(m)
    q = tits_form(m.r, m.dims)
    indec = is_indecomposable(m)
    if indec.verdict == "decomposable":
        return Classification("decomposable", None, None, q)
    cur = m.dims
    for k in range(k_max + 1):
        cur = coxeter_dims(m.r, cur)
        if cur[0] <= 0 or cur[1] <= 0:
            return Classification("preprojective", k, None, q)
    cur = m.dims
    for k in range(k_max + 1):
        cur = inverse_coxeter_dims(m.r, cur)
        if cur[0] <= 0 or cur[1] <= 0:
            return Classification("preinjective", k, None, q)
    return Classification("regular", None, k_max, q)


@dataclass(frozen=True)
class ShiftRecord:
    exponent: int
    dims: tuple[int, int]
    eip: bool
    ekp: bool
    hit_projective: bool = False
    hit_injective: bool = False


@dataclass(frozen=True)
class TauOrbitReport:
    """Per-shift equal-images / equal-kernels record along a translate orbit
    of a quasi-simple regular representation, with the width of the gap."""

    base: str
    p: int
    r: int
    k_max: int
    shifts: tuple[ShiftRecord, ...]
    width: int | None
    assumptions: tuple[str, ...] = field(default_factory=tuple)

    def to_json(self) -> str:
        return json.dumps(
            {
                "base": self.base,
                "p": self.p,
                "r": self.r,
                "k_max": self.k_max,
                "shifts": [
                    {
                        "exponent": s.exponent,
                        "dims": list(s.dims),
                        "eip": s.eip,
                        "ekp": s.ekp,
                        "hit_projective": s.hit_projective,
                        "hit_injective": s.hit_injective,
                    }
                    for s in self.shifts
                ],
                "width": self.width,
                "assumptions": list(self.assumptions),
            }
        )

    def to_dot(self) -> str:
        lines = ["digraph tau_orbit {", "  rankdir=RL;"]
        for s in self.shifts:
            deco = "&#8711;" if s.eip else ("&#9651;" if s.ekp else "&#9675;")
            label = f"{deco} tau^{s.exponent} {s.dims}"
            lines.append(f'  m{s.exponent} [label="{label}"];')
        exps = sorted(s.exponent for s in self.shifts)
        for a, b in zip(exps, exps[1:]):
            lines.append(f"  m{b} -> m{a} [style=dashed];")
        lines.append("}")
        return "\n".join(lines)


def width(m: BeilinsonRep, k_max: int = 8,
          base_label: str = "", assumptions: tuple[str, ...] = ()) -> TauOrbitReport:
    """Scan the translate orbit of a quasi-simple regular representation.

    quasi-simplicity of the input is an asserted precondition of the
    caller, not verified here.  The width is (least exponent whose shift
    has the equal-images property) - (greatest exponent whose shift has
    the equal-kernels property) - 1 when both boundaries lie within the
    scan bound; otherwise the report is partial and the width absent."""
    _require_kronecker(m)
    shifts: list[ShiftRecord] = []

    def record(exponent: int, rep: BeilinsonRep) -> ShiftRecord:
        dead = rep.total_dim == 0
        rec = ShiftRecord(
            exponent,
            (rep.dims[0], rep.dims[1]),
            eip=(not dead) and is_eip_def(rep).verdict,
            ekp=(not dead) and is_ekp_def(rep).verdict,
            hit_projective=dead and exponent > 0,
            hit_injective=dead and exponent < 0,
        )
        shifts.append(rec)
        return rec

    base = record(0, m)
    m0 = 0 if base.eip else None
    m1 = 0 if base.ekp else None
    cur = m
    k = 0
    while m0 is None and k < k_max:
        k += 1
        cur = tau(cur)
        rec = record(k, cur)
        if rec.hit_projective:
            break
        if rec.eip:
            m0 = k
    cur = m
    k = 0
    while m1 is None and k < k_max:
        k += 1
        cur = tau_inv(cur)
        rec = record(-k, cur)
        if rec.hit_injective:
            break
        if rec.ekp:
            m1 = -k
    w = m0 - m1 - 1 if (m0 is not None and m1 is not None) else None
    shifts.sort(key=lambda s: s.exponent)
    return TauOrbitReport(
        base_label or f"rep dims {m.dims}", m.p, m.r, k_max, tuple(shifts), w,
        tuple(assumptions),
    )


def wmod_shift_check(p: int, r: int, m: int) -> bool:
    """Translate of the depth-m slice module lands in the equal-images class
    and the inverse translate of its dual in the equal-kernels class.

    Holds for r >= 3 only; r = 2 inputs are rejected because there the
    translate of the slice module is an equal-kernels module instead."""
    from .reps import m_module, w_module

    if r < 3:
        raise ValueError("requires r >= 3; the statement fails for r = 2")
    if m <= 2:
        raise ValueError("requires m > 2")
    eip_ok = is_eip_def(tau(m_module(p, 2, r, m, 2))).verdict
    ekp_ok = is_ekp_def(tau_inv(w_module(p, 2, r, m, 2))).verdict
    return eip_ok and ekp_ok
