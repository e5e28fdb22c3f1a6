"""Exact linear algebra over a prime field F_p.

Matrices are dense, row-major numpy int64 arrays with entries reduced
into [0, p); the one exception is the coordinate entry to elimination
(below), which takes a matrix as (row, column, value) coordinates.  Every
value is immutable after construction and every operation is a pure
function, so callers may share them freely.

Construction.  ``FpMatrix(p, a)`` is the public path: it checks that p is
a prime below 2^31 (``check_modulus``), reduces ``a`` mod p into a new
array and makes that read-only, so later writes to the caller's array
never reach the matrix.  The trusted path ``FpMatrix._reduced(p, a)``
skips both checks and wraps ``a`` itself after making it read-only.  It
is for results this package has computed and reduced: ``a`` must be a
2-d int64 array with entries in [0, p), and either fresh (no one else
holds it) or a view of an array that is already read-only.  It never
takes a view of a caller's writable array.

Elimination.  One routine, ``_force``, forces pivots on the nonzero
pattern alone, with no arithmetic (the structured elimination of
LaMacchia and Odlyzko, CRYPTO '90): a row with one nonzero outside the
columns forced so far forces its column, whose RREF row is a unit vector,
round after round until a round forces nothing.  Only the remainder, the
rows left with two or more nonzeros restricted to the unforced columns,
is made dense and eliminated column by column (``_eliminate``).  It has
two entries.  The one dense entry ``_rref`` (behind ``kernel_basis``,
``image_basis``, ``solve_matrix`` and ``quotient_projection``) takes a
reduced array, as every ``FpMatrix.a`` is, forces its ``nonzero()``
pattern and copies the remainder out of it, never writing it.  It returns
the RREF in structured form: the forced pivots, whose unit rows stay
implicit, and the remainder's RREF on the free columns, which every
consumer reads directly, so no full-shape RREF is ever built.  The
coordinate entry ``coordinate_kernel`` takes the Hom systems of ``reps``
as coordinates and scatters only the remainder, so those systems are
never dense.  A kernel basis is read off the eliminated remainder alone,
since a forced pivot's RREF row is zero in every free column.  The End
systems of the W modules have at most two nonzeros per row, and forcing
leaves about 15% of their columns to the column loop.

Exactness bounds.  Every int64 intermediate stays below 2^63 for every
p < 2^31; larger moduli are refused wherever a matrix, point or module is
built.  ``_eliminate`` reduces after each row update, a scaled row a * b
and an update a - b * c, all of reduced entries, so no intermediate
exceeds (p-1)^2 in absolute value.  ``batched_rank`` (behind ``rank``)
reduces only where the int64 bound needs it.  Its step replaces each row
by pv * row - c * top, with the pivot column (c, and pv among it) and the
pivot row top reduced into [0, p) first, so entries of absolute value at
most b before a step are at most (p-1) b + (p-1)^2 after it.  It tracks
that bound from b = p - 1 and reduces the whole stack, as a - (a // p) p
(an int64 division by a scalar needs no hardware divide, so on a stack
this is several times faster than a % p), only before a step that would
take b past 2^63 - 1: never at p = 2, where b grows by 1 a step, after
every 22 steps at p = 7 (29 at p = 5, 8 at p = 101) and every other step
at p = 2^31 - 1, where 2 (p-1)^2 < 2^63.  Every sum of products is
one ``matmul`` (behind ``@``, ``power`` and ``combine``), on float64 BLAS,
which is exact while every partial sum is an integer of at most 2^53.
With inner dimension k, entries of a in [0, p) and of b in [0, 2^s), a
sum is at most k (p-1)(2^s - 1), so ``_limbs`` splits b into base-2^s
limbs, as few as that bound allows: b itself while k (p-1)^2 <= 2^53
(k <= 8 at p = 2^25 - 39, every k up to 2^21 at p = 65521), and at
p = 2^31 - 1 two limbs up to k = 64, three up to k = 2049.  The inner
dimension is cut into chunks only past 2^53 / (p-1) columns (2^22 at
p = 2^31 - 1).  Each limb product is cast to int64, where it is exact,
and reduced there (a float64 ``%`` is about five times slower).  Limbs
are recombined by Horner's rule, reducing after each: with two or more
limbs s <= 16, so part * 2^s + product < 2^47 + 2^53.

Sketches.  ``sketch_matrix(p, rows, cols)`` is a fixed Toeplitz matrix
over F_p, Q[i, j] = t[i - j + cols - 1], read from the Lehmer sequence
t = 16807^t mod 2^61 - 1 reduced mod p: no random generator, the same Q
in every process, cached read-only like ``reps.proj_coords``.  The
sequence is geometric mod its own modulus, where a Toeplitz matrix of it
has rank 1; 2^61 - 1 lies above every allowed p (16807^t mod 2^31 - 1
gives a rank-1 Q at p = 2^31 - 1, which certifies nothing).  Its
entries lie in [0, p), so a product Q S is one ``matmul`` under the bounds
above.  rank(Q S) <= rank(S), so a sketch Q S of rank min(S's sides)
certifies that S has full rank; a sketch of lower rank proves nothing,
and S itself must be ranked.  A poor Q costs time, never an answer.  Such
a fixed Toeplitz preconditioner is the one of Kaltofen and Saunders ("On
Wiedemann's method of solving sparse linear systems", AAECC-9, 1991), used
here only as a certificate with an exact fallback.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


# float64 holds every integer of absolute value up to 2^53 exactly
_FLOAT_EXACT = 2**53


class DimensionMismatch(ValueError):
    """Raised when operand shapes are incompatible."""


@lru_cache
def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_modulus(p: int) -> None:
    """Raise ValueError unless p is a prime integer below 2^31, where int64
    arithmetic is exact (module docstring).  The bound is tested first, so
    a huge modulus never reaches trial division."""
    if not isinstance(p, numbers.Integral):
        raise ValueError(f"modulus {p!r} is not an integer")
    if p >= 2**31:
        raise ValueError(f"modulus {p} is not below 2^31, where exact int64 arithmetic ends")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


@lru_cache
def _limbs(p: int, k: int) -> tuple[int, int, int]:
    """(step, limbs, s) for exact float64 products mod p with inner
    dimension k: inner chunks of step columns, step = k unless k (p-1)
    passes 2^53, and b split into limbs of s bits, with limbs as few as
    step (p-1)(2^s - 1) <= 2^53 allows and s balanced across them."""
    step = max(1, min(k, _FLOAT_EXACT // (p - 1)))
    bits = (p - 1).bit_length()
    limbs = -(-bits // min(bits, (_FLOAT_EXACT // (step * (p - 1)) + 1).bit_length() - 1))
    return step, limbs, -(-bits // limbs)


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for reduced int64 arrays, stacked or not, as a new array.

    Every product runs on float64 BLAS and is exact (module docstring):
    each limb of b (``_limbs``) times a is cast back to int64, and the
    limbs are recombined mod p there by Horner's rule."""
    k = a.shape[-1]
    step, limbs, s = _limbs(p, k)
    chunks = [(a, b)] if k <= step else [
        (a[..., i:i + step], b[..., i:i + step, :]) for i in range(0, k, step)]
    out = None
    for ca, cb in chunks:
        fa, part = ca.astype(np.float64), None
        for j in reversed(range(limbs)):
            limb = cb if limbs == 1 else (cb >> (s * j)) & ((1 << s) - 1)
            prod = (fa @ limb.astype(np.float64)).astype(np.int64)
            part = prod % p if part is None else ((part << s) + prod) % p
        out = part if out is None else (out + part) % p
    return out


@lru_cache(maxsize=None)
def sketch_matrix(p: int, rows: int, cols: int) -> np.ndarray:
    """The fixed rows x cols Toeplitz sketch over F_p (module docstring):
    Q[i, j] = 16807^(i - j + cols - 1) mod (2^61 - 1), reduced mod p, as a
    read-only int64 array."""
    t = np.array([pow(16807, e, 2**61 - 1) % p for e in range(rows + cols - 1)],
                 dtype=np.int64)
    q = t[np.arange(rows)[:, None] - np.arange(cols)[None, :] + cols - 1]
    q.setflags(write=False)
    return q


def combine(coeffs, mats, p: int) -> np.ndarray:
    """sum_l coeffs[..., l] * mats[l] mod p, as a new array of shape
    coeffs.shape[:-1] + mats[0].shape, for coefficients in [0, p).

    One ``matmul`` of the coefficients with the mats flattened to
    (L, rows * cols); the coefficient axis must have length L = len(mats)."""
    coeffs = np.asarray(coeffs, dtype=np.int64)
    mats = np.asarray(mats, dtype=np.int64)
    if coeffs.shape[-1] != len(mats):
        raise DimensionMismatch(f"{coeffs.shape[-1]} coefficients for {len(mats)} matrices")
    # an explicit size, since a step between vertices may have no entries
    flat = mats.reshape(len(mats), math.prod(mats.shape[1:]))
    return matmul(coeffs, flat, p).reshape(coeffs.shape[:-1] + mats.shape[1:])


@dataclass(frozen=True)
class FpMatrix:
    """Immutable dense matrix over F_p."""

    p: int
    a: np.ndarray = field(compare=False)

    def __post_init__(self):
        check_modulus(self.p)
        arr = np.asarray(self.a, dtype=np.int64)
        if arr.ndim != 2:
            raise DimensionMismatch("FpMatrix requires a 2-d array")
        arr = arr % self.p
        arr.setflags(write=False)
        object.__setattr__(self, "a", arr)

    @classmethod
    def _reduced(cls, p: int, a: np.ndarray) -> "FpMatrix":
        """Trusted construction: wraps a reduced, fresh or read-only array
        without the prime check or a second reduction (module docstring)."""
        a.setflags(write=False)
        m = object.__new__(cls)
        object.__setattr__(m, "p", p)
        object.__setattr__(m, "a", a)
        return m

    # -- construction helpers -------------------------------------------
    @staticmethod
    def zeros(p: int, rows: int, cols: int) -> "FpMatrix":
        return FpMatrix(p, np.zeros((rows, cols), dtype=np.int64))

    @staticmethod
    def identity(p: int, n: int) -> "FpMatrix":
        return FpMatrix(p, np.eye(n, dtype=np.int64))

    # -- basic structure -------------------------------------------------
    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def transpose(self) -> "FpMatrix":
        return FpMatrix._reduced(self.p, self.a.T.copy())

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpMatrix):
            return NotImplemented
        return (
            self.p == other.p
            and self.a.shape == other.a.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __hash__(self):
        return hash((self.p, self.a.shape, self.a.tobytes()))

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        if self.p != other.p:
            raise DimensionMismatch("mixed moduli")
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        return FpMatrix._reduced(self.p, matmul(self.a, other.a, self.p))

    def __add__(self, other: "FpMatrix") -> "FpMatrix":
        if self.p != other.p or self.a.shape != other.a.shape:
            raise DimensionMismatch("shape or modulus mismatch in addition")
        return FpMatrix._reduced(self.p, (self.a + other.a) % self.p)

    def __sub__(self, other: "FpMatrix") -> "FpMatrix":
        if self.p != other.p or self.a.shape != other.a.shape:
            raise DimensionMismatch("shape or modulus mismatch in subtraction")
        return FpMatrix._reduced(self.p, (self.a - other.a) % self.p)

    def is_zero(self) -> bool:
        return not self.a.any()

    def hstack(self, *others: "FpMatrix") -> "FpMatrix":
        """[self | others[0] | ...], for any number of operands."""
        if any(o.p != self.p or o.rows != self.rows for o in others):
            raise DimensionMismatch("hstack mismatch")
        return FpMatrix._reduced(self.p, np.hstack([self.a, *(o.a for o in others)]))

    def vstack(self, *others: "FpMatrix") -> "FpMatrix":
        """self on top of others[0] on top of ..., for any number of operands."""
        if any(o.p != self.p or o.cols != self.cols for o in others):
            raise DimensionMismatch("vstack mismatch")
        return FpMatrix._reduced(self.p, np.vstack([self.a, *(o.a for o in others)]))

    def tolist(self):
        return self.a.flatten().tolist()


def power(a: np.ndarray, e: int, p: int) -> np.ndarray:
    """a^e mod p for e >= 1 and a reduced int64 array, stacked or not, by
    repeated squaring with ``matmul``: O(log e) products.  At e = 1 it
    returns a itself."""
    result = None
    while True:
        if e & 1:
            result = a if result is None else matmul(result, a, p)
        e >>= 1
        if not e:
            return result
        a = matmul(a, a, p)


def _eliminate(m: np.ndarray, p: int) -> list[int]:
    """Gauss-Jordan elimination of the reduced array m in place, column by
    column; returns the pivot columns, whose rows end up on top."""
    rows, cols = m.shape
    pivots = []
    row = 0
    for col in range(cols):
        if row >= rows:
            break
        nz = m[row:, col].nonzero()[0]
        if nz.size == 0:
            continue
        piv = row + nz[0]
        if piv != row:
            m[[row, piv]] = m[[piv, row]]
        m[row] = (m[row] * pow(int(m[row, col]), -1, p)) % p
        others = m[:, col].nonzero()[0]
        others = others[others != row]
        if others.size:
            m[others] = (m[others] - np.outer(m[others, col], m[row])) % p
        pivots.append(col)
        row += 1
    return pivots


def _force(r: np.ndarray, c: np.ndarray, cols: int) -> np.ndarray:
    """The columns forced on the nonzero pattern (r, c) of a matrix with
    cols columns, as a mask, with no arithmetic: a row whose only nonzero
    outside the forced columns lies in column j puts e_j in the row space,
    so j is a pivot with RREF row e_j.  Rounds repeat until one forces
    nothing.  An entry leaves the pattern exactly when its column is
    forced, so the entries outside the mask are the remainder, and each of
    their rows keeps two or more of them."""
    forced = np.zeros(cols, dtype=bool)
    while True:
        single = np.bincount(r)[r] == 1
        if not np.count_nonzero(single):
            return forced
        forced[c[single]] = True
        live = ~forced[c]
        r, c = r[live], c[live]


def _rref(a: np.ndarray, p: int):
    """The dense entry to elimination: the RREF mod p of a reduced array,
    which is never written, in structured form (free, m, sub).  free lists
    the unforced columns (``_force`` on a.nonzero()); every other column is
    a forced pivot, whose RREF row is a unit vector and is left implicit.
    m is the RREF of the remainder, the rows with a nonzero among the free
    columns, restricted to them, and sub lists its pivot columns, indices
    into free, so m[:len(sub)] are the other RREF rows on the free columns
    (they are 0 on the forced ones).  With nothing forced, m is the RREF of
    a whole copy of a."""
    r, c = a.nonzero()
    forced = _force(r, c, a.shape[1])
    if not np.count_nonzero(forced):
        free, m = np.arange(a.shape[1]), a.copy()
    else:
        free = np.flatnonzero(~forced)
        m = a[np.flatnonzero(np.bincount(r[~forced[c]]))[:, None], free]
    return free, m, _eliminate(m, p)


def _null_rows(cols: int, free: np.ndarray, m: np.ndarray, sub, p: int, order: str):
    """(basis, kernel_free) of the right null space from an eliminated
    remainder (free, m, sub) of a matrix with cols columns: the basis as
    rows, one per unforced non-pivot column, listed ascending in
    kernel_free, each with a 1 there and 0 in the other such columns.  order
    "C" keeps each basis row contiguous and "F" each column, so that the
    transpose is a contiguous column basis.  A forced pivot's RREF row is
    e_j, zero in every free column, so the basis is 0 on forced columns and
    needs no full-shape RREF."""
    pivot = np.zeros(free.size, dtype=bool)
    pivot[sub] = True
    keep = ~pivot
    kernel_free = free[keep]
    basis = np.zeros((kernel_free.size, cols), dtype=np.int64, order=order)
    basis[np.arange(kernel_free.size), kernel_free] = 1
    basis[:, free[pivot]] = (-m[:len(sub), keep] % p).T
    return basis, kernel_free


def coordinate_kernel(p: int, shape: tuple[int, int], r: np.ndarray, c: np.ndarray,
                      values: np.ndarray) -> np.ndarray:
    """Basis of the right null space, as rows, of the shape-sized matrix
    with entries values at (r, c): distinct coordinates, values in [1, p).

    The coordinate entry to elimination: the pattern is forced as in
    ``_rref``, and only the remainder, the entries outside the forced
    columns, is scattered into a dense array of its rows and the unforced
    columns, so the matrix is never dense.  The basis equals the columns
    of ``kernel_basis`` of the dense matrix."""
    forced = _force(r, c, shape[1])
    live = ~forced[c]
    r, c = r[live], c[live]
    rows = np.zeros(shape[0], dtype=bool)
    rows[r] = True
    free = np.flatnonzero(~forced)
    m = np.zeros((np.count_nonzero(rows), free.size), dtype=np.int64)
    m[np.cumsum(rows)[r] - 1, free.searchsorted(c)] = values[live]
    return _null_rows(shape[1], free, m, _eliminate(m, p), p, "C")[0]


def rank(m: FpMatrix) -> int:
    """F_p-rank, without an RREF: ``batched_rank`` of a one-matrix stack."""
    return int(batched_rank(m.a[None], m.p)[0])


# entries of one int64 stack of matrices built for ``batched_rank``: 1 MiB.
# The one stack budget, read at call time by the Jordan-type chunks of
# ``emod`` and the definition-route sweeps of ``properties``
STACK_ENTRIES = 1 << 17


# the largest int64, which no entry of a ``batched_rank`` stack may pass
_INT64_MAX = 2**63 - 1


def batched_rank(stack: np.ndarray, p: int) -> np.ndarray:
    """F_p-ranks of a (B, rows, cols) stack of reduced matrices, as B ints.

    Rows and columns that are zero in every matrix are dropped, and the
    rest is copied once into a contiguous (rows, cols, B) array, the batch
    axis innermost and the shorter matrix side as cols, so the caller's
    array is never written.  One fraction-free elimination then runs over
    the whole stack at once, column by column.  The column is reduced mod
    p, and each matrix takes its first row with a nonzero entry there as
    pivot, with pivot entry pv and pivot row top, also reduced; every row
    becomes pv * row - c * top, c its entry in the column, written in
    place.  That clears the column, and the pivot row cancels itself to 0
    mod p, so no row is swapped or dropped.  A matrix with no pivot in the
    column has c = 0 in every row and takes pv = 1, so it is left
    unchanged.  A matrix's rank is its number of pivots.  Entries are
    reduced as the module docstring bounds them: the column (rows x B
    entries) as a - (a // p) p, the shorter pivot row by one ``%``, which
    takes fewer calls, and the whole stack only before a step that could
    pass 2^63 - 1."""
    a = np.asarray(stack, dtype=np.int64)
    used = a.any(axis=0)
    rows, cols = np.flatnonzero(used.any(axis=1)), np.flatnonzero(used.any(axis=0))
    t = a.transpose(1, 2, 0)
    if rows.size < cols.size:
        rows, cols, t = cols, rows, t.transpose(1, 0, 2)
    m = t[rows[:, None], cols]  # fancy indexing always copies
    tmp = np.empty_like(m)
    pivots = np.zeros(m.shape[1:], dtype=np.int64)
    each = np.arange(m.shape[2])
    bound = p - 1
    for k in range(m.shape[1]):
        col = m[:, k] - m[:, k] // p * p
        piv = (col != 0).argmax(axis=0)
        pivots[k] = col[piv, each]
        rest, q = m[:, k + 1:], tmp[:, k + 1:]
        if not rest.size:
            break
        if (p - 1) * bound + (p - 1) ** 2 > _INT64_MAX:
            np.floor_divide(rest, p, out=q)
            np.multiply(q, p, out=q)
            np.subtract(rest, q, out=rest)
            bound = p - 1
        row = m[piv, k + 1:, each].T % p
        np.multiply(rest, np.maximum(pivots[k], 1), out=rest)
        np.multiply(col[:, None], row, out=q)
        np.subtract(rest, q, out=rest)
        bound = (p - 1) * bound + (p - 1) ** 2
    return np.count_nonzero(pivots, axis=0)


def _kernel(a: np.ndarray, p: int):
    """(basis, free) for the right null space of the reduced array a: the
    basis columns, one per free (non-pivot) column of a, listed ascending
    in free, each with a 1 there and 0 in the other free columns."""
    basis, free = _null_rows(a.shape[1], *_rref(a, p), p, "F")
    return basis.T, free


def kernel_basis(m: FpMatrix) -> FpMatrix:
    """Basis of the right null space, as columns; cols = cols(m) - rank(m)."""
    return FpMatrix._reduced(m.p, _kernel(m.a, m.p)[0])


def image_basis(m: FpMatrix) -> FpMatrix:
    """Column basis of the column space (original pivot columns): the
    forced columns of ``_rref`` and the remainder's pivots free[sub]."""
    free, _, sub = _rref(m.a, m.p)
    pivots = np.ones(m.cols, dtype=bool)
    pivots[free] = False
    pivots[free[sub]] = True
    return FpMatrix._reduced(m.p, m.a[:, pivots])


def solve_matrix(a: FpMatrix, b: FpMatrix) -> FpMatrix | None:
    """Any solution X of a X = b with matrix right-hand side, or None.

    One ``_rref`` of [a | b]: the system is consistent exactly when no
    column of b is a pivot, so every column of b must be free (a forced
    column's RREF row is a unit vector in b) and no remainder pivot may lie
    in b.  X is 0 on the forced unknowns and the free non-pivots, and row
    free[sub][t] of X is row t of the remainder read at b's columns."""
    if a.p != b.p or a.rows != b.rows:
        raise DimensionMismatch("solve_matrix shape mismatch")
    free, m, sub = _rref(np.hstack([a.a, b.a]), a.p)
    k = int(free.searchsorted(a.cols))  # free[k:] are the free columns of b
    if free.size - k != b.cols or (sub and sub[-1] >= k):
        return None
    x = np.zeros((a.cols, b.cols), dtype=np.int64)
    x[free[sub]] = m[:len(sub), k:]
    return FpMatrix._reduced(a.p, x)


def quotient_projection(basis: FpMatrix):
    """Projection onto the quotient of the ambient space by a column span.

    Given a (possibly non-reduced) spanning set U of a subspace of F_p^N
    as columns, returns (pi, complement) where pi is a (N - rank U) x N
    matrix whose kernel is exactly span(U) and complement lists the
    standard-basis indices whose classes form the quotient basis.  pi is a
    kernel basis of U^T, transposed as a view, and complement is its free
    columns (the non-pivot rows of the column-reduced span)."""
    kernel, complement = _kernel(basis.a.T, basis.p)
    return FpMatrix._reduced(basis.p, kernel.T), complement.tolist()
