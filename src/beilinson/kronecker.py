"""Auslander-Reiten translates and component widths for the r-Kronecker.

The translate is computed from an explicit minimal projective presentation
by the transpose-dual: relations are read off the kernel of the projective
cover, transposed into the opposite orientation and dualized back.  The
relations are the kernel of [g_1 | ... | g_r] on the whole representation:
simple projective summands add none.  The inverse side comes from the duality D: the inverse
translate is D tau D, and the inverse half of an orbit scan walks tau^k D m,
recording each shift as its dual D tau^k D m = tau^-k m.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .emod import is_indecomposable
from .linalg import FpMatrix, kernel_basis, quotient_projection
from .properties import is_eip_def, is_ekp_def
from .reps import BeilinsonRep, dualize, m_module, w_module


def _require_kronecker(m: BeilinsonRep):
    if m.n != 2:
        raise ValueError(f"translates are implemented for two vertices only, not {m.n}")


def tau(m: BeilinsonRep) -> BeilinsonRep:
    """Auslander-Reiten translate."""
    _require_kronecker(m)
    p, r, d0 = m.p, m.r, m.dims[0]
    # kernel of the projective cover at vertex 1: columns indexed (arrow l,
    # generator i) in arrow-major order, matching [g_1 | ... | g_r]
    relations = kernel_basis(FpMatrix.hstack(*m.maps[0]))  # (r*d0) x s
    s = relations.cols
    # transpose: generators of the opposite-orientation cokernel sit at the
    # relation slots; the i-th original generator attaches the row vector of
    # its relation coefficients across (relation j, arrow l)
    h = relations.a.reshape(r, d0, s).transpose(2, 0, 1).reshape(s * r, d0)
    q, complement = quotient_projection(FpMatrix._reduced(p, h))
    c = len(complement)
    # opposite arrows send relation j to the class of slot (j, l); dualizing
    # transposes them back into the standard orientation.  q.a.T is
    # C-contiguous (quotient_projection returns a transposed view), so the
    # slots (j, l, class) are a read-only view of it, and each arrow is one
    # view slots[:, l]: no copy of pi is made
    slots = q.a.T.reshape(s, r, c)
    maps = tuple(FpMatrix._reduced(p, slots[:, l]) for l in range(r))  # s x c
    return BeilinsonRep(p, 2, r, (c, s), (maps,))


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
    """Orbit kind, the translate power reaching the (co)projective, and the
    Tits form.  bound is always None, since every kind is certified; it is
    kept because perfbench's classify render reads it."""

    kind: str  # "preprojective" | "preinjective" | "regular" | "decomposable"
    exponent: int | None
    bound: int | None
    tits_value: int


def classify(m: BeilinsonRep) -> Classification:
    """Orbit classification of an indecomposable Kronecker representation.

    The Tits form q certifies the kind.  The positive real roots (q = 1)
    are exactly the preprojective and preinjective dimension vectors (Kac
    1980; Ringel 1978), and over F_p an indecomposable of real-root
    dimension d is absolutely indecomposable: else it would split over the
    closure into k >= 2 conjugates of dimension d/k, with q(d/k) = 1/k^2
    not an integer.  A regular indecomposable has q(d) = k^2 q(d/k) <= 0.
    So q <= 0 is regular with no walk.  For q = 1 the Coxeter recursion
    runs on the dimension vector (the translate) and on its reverse (the
    inverse translate, through D) together, until one side has a negative
    coordinate: the (co)projective's image.  Total dimension rises strictly
    away from the (co)projective, so that takes at most total_dim + 1
    steps.  bound is always None.
    """
    _require_kronecker(m)
    q = tits_form(m.r, m.dims)
    if is_indecomposable(m).verdict == "decomposable":
        return Classification("decomposable", None, None, q)
    if q <= 0:
        return Classification("regular", None, None, q)
    fwd, back = m.dims, m.dims[::-1]
    for k in range(m.total_dim + 1):
        fwd, back = coxeter_dims(m.r, fwd), coxeter_dims(m.r, back)
        for kind, cur in (("preprojective", fwd), ("preinjective", back)):
            if min(cur) < 0:
                return Classification(kind, k, None, q)
    raise AssertionError(f"dims {m.dims}, q = {q}: no side reached a (co)projective")


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

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    def to_dot(self) -> str:
        lines = ["digraph tau_orbit {", "  rankdir=RL;"]
        for s in self.shifts:
            deco = "&#8711;" if s.eip else ("&#9651;" if s.ekp else "&#9675;")
            label = f"{deco} tau^{s.exponent} {s.dims}"
            lines.append(f'  "m{s.exponent}" [label="{label}"];')
        exps = sorted(s.exponent for s in self.shifts)
        for a, b in zip(exps, exps[1:]):
            lines.append(f'  "m{b}" -> "m{a}" [style=dashed];')
        lines.append("}")
        return "\n".join(lines)


def width(m: BeilinsonRep, k_max: int = 8, base_label: str = "") -> TauOrbitReport:
    """Scan the translate orbit of a quasi-simple regular representation.

    quasi-simplicity of the input is an asserted precondition of the
    caller, not verified here.  The width is (least exponent whose shift
    has the equal-images property) - (greatest exponent whose shift has
    the equal-kernels property) - 1 when both boundaries lie within the
    scan bound; otherwise the report is partial and the width absent.  The
    zero representation has no orbit and is refused."""
    _require_kronecker(m)
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    if m.total_dim == 0:
        raise ValueError("the zero representation has no translate orbit")
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

    def scan(sign: int, boundary: str) -> int | None:
        """Least exponent sign * k, k <= k_max, whose shift has the boundary
        property; the inverse side walks tau^k D m and records its duals."""
        if getattr(base, boundary):
            return 0
        cur = m if sign > 0 else dualize(m)
        for k in range(1, k_max + 1):
            cur = tau(cur)
            rec = record(sign * k, cur if sign > 0 else dualize(cur))
            if cur.total_dim == 0:
                return None
            if getattr(rec, boundary):
                return sign * k
        return None

    m0 = scan(1, "eip")
    m1 = scan(-1, "ekp")
    w = m0 - m1 - 1 if (m0 is not None and m1 is not None) else None
    shifts.sort(key=lambda s: s.exponent)
    return TauOrbitReport(
        base_label or f"rep dims {m.dims}", m.p, m.r, k_max, tuple(shifts), w)


def wmod_shift_check(p: int, r: int, m: int) -> bool:
    """Translate of the depth-m slice module lands in the equal-images class
    and the inverse translate of its dual in the equal-kernels class.

    Holds for r >= 3 only; r = 2 inputs are rejected because there the
    translate of the slice module is an equal-kernels module instead."""
    if r < 3:
        raise ValueError("requires r >= 3; the statement fails for r = 2")
    if m <= 2:
        raise ValueError("requires m > 2")
    eip_ok = is_eip_def(tau(m_module(p, 2, r, m, 2))).verdict
    ekp_ok = is_ekp_def(tau_inv(w_module(p, 2, r, m, 2))).verdict
    return eip_ok and ekp_ok
