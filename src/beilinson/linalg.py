"""Exact dense linear algebra over a prime field F_p.

All matrices are dense, row-major numpy int64 arrays with entries reduced
into [0, p).  Every value is immutable after construction and every
operation is a pure function, so callers may share them freely.

Construction.  ``FpMatrix(p, a)`` is the public path: it checks that p is
a prime below 2^31 (``check_modulus``), reduces ``a`` mod p into a new
array and makes that read-only, so later writes to the caller's array
never reach the matrix.  The trusted path ``FpMatrix._reduced(p, a)``
skips both checks and wraps ``a`` itself after making it read-only.  It
is for results this package has computed and reduced: ``a`` must be a
2-d int64 array with entries in [0, p), and either fresh (no one else
holds it) or a view of an array that is already read-only.  It never
takes a view of a caller's writable array.

Elimination.  ``_rref`` (behind ``rref``, ``kernel_basis``,
``image_basis``, ``solve_matrix`` and ``quotient_projection``) takes a
reduced array, as every ``FpMatrix.a`` is, and never writes it.  It
first forces pivots on the nonzero pattern alone, with no arithmetic (the
structured elimination of LaMacchia and Odlyzko, CRYPTO '90): a row with
one nonzero outside the columns forced so far forces its column, whose
RREF row is a unit vector, round after round until a round forces
nothing.  Only the rows left with two or more nonzeros, restricted to the
unforced columns, are copied and eliminated column by column.  The End
systems of the W modules have at most two nonzeros per row, and this
leaves about 15% of their columns to the column loop.

Exactness bounds.  Every int64 intermediate stays below 2^63 for every
p < 2^31; larger moduli are refused wherever a matrix, point or module is
built.  An elimination step reduces after each row update: a scaled row
a * b and an update a - b * c in ``_rref``, an update a * b - c * d in
``batched_rank`` (behind ``rank``), all of reduced entries, so no
intermediate exceeds (p-1)^2 in absolute value.  Every sum of products is
one ``matmul`` (behind ``@``, ``power`` and ``combine``), which reduces
after every chunk of k = (2^63 - 1 - p) // (p-1)^2 inner columns: k = 2
at p = 2^31 - 1, and one chunk for any small p.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


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


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for reduced int64 arrays, stacked or not, as a new array.

    The inner dimension is summed in chunks of k columns with
    (p-1)^2 * k + p - 1 < 2^63, reducing after each chunk."""
    k = max(1, (2**63 - 1 - p) // (p - 1) ** 2)
    n = a.shape[-1]
    if n <= k:
        return (a @ b) % p
    out = (a[..., :k] @ b[..., :k, :]) % p
    for i in range(k, n, k):
        out += a[..., i:i + k] @ b[..., i:i + k, :]
        out %= p
    return out


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


def json_int(value, name: str) -> int:
    """value, read from JSON, if it is an integer; a float, bool or string
    raises a ValueError that names the field."""
    if type(value) is not int:
        raise ValueError(f"{name} must hold integers, got {value!r}")
    return value


def json_matrix(p: int, entries, rows: int, cols: int, name: str) -> FpMatrix:
    """The rows x cols matrix stored row-major in the JSON list entries.

    Integers of any size are reduced mod p exactly, as Python integers
    (``json_int`` refuses anything else), so no entry overflows int64."""
    check_modulus(p)
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ValueError(f"{name} must list {rows * cols} entries")
    flat = [json_int(x, name) % p for x in entries]
    return FpMatrix._reduced(p, np.array(flat, dtype=np.int64).reshape(rows, cols))


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


def _rref(a: np.ndarray, p: int):
    """Reduced row echelon form mod p of a reduced array, which is never
    written; returns (rref, pivot column list).

    Columns are forced first, on the nonzero pattern alone: a row whose
    only nonzero outside the forced columns lies in column j puts e_j in
    the row space, so j is a pivot with RREF row e_j.  Rounds repeat until
    one forces nothing; ``_eliminate`` then runs on the rows that keep a
    nonzero outside the forced columns, restricted to the unforced ones."""
    r, c = a.nonzero()
    nnz = r.size
    forced = np.zeros(a.shape[1], dtype=bool)
    while True:
        count = np.bincount(r)
        single = count[r] == 1
        if not np.count_nonzero(single):
            break
        forced[c[single]] = True
        live = ~forced[c]
        r, c = r[live], c[live]
    if r.size == nnz:  # nothing forced: the remainder is all of a
        m = a.copy()
        return m, _eliminate(m, p)
    free = np.flatnonzero(~forced)
    m = a[np.flatnonzero(count)[:, None], free]
    sub = free[_eliminate(m, p)]
    forced[sub] = True  # now marks every pivot column
    pivots = np.flatnonzero(forced)
    out = np.zeros(a.shape, dtype=np.int64)
    out[np.arange(pivots.size), pivots] = 1
    out[pivots.searchsorted(sub)[:, None], free] = m[:sub.size]
    return out, pivots.tolist()


def rref(m: FpMatrix):
    """Reduced row echelon form; returns (FpMatrix, pivot columns)."""
    r, pivots = _rref(m.a, m.p)
    return FpMatrix._reduced(m.p, r), pivots


def rank(m: FpMatrix) -> int:
    """F_p-rank, without an RREF: ``batched_rank`` of a one-matrix stack."""
    return int(batched_rank(m.a[None], m.p)[0])


def batched_rank(stack: np.ndarray, p: int) -> np.ndarray:
    """F_p-ranks of a (B, rows, cols) stack of reduced matrices, as B ints.

    One fraction-free elimination runs over the whole stack at once,
    column by column along the shorter matrix side.  Every matrix with a
    nonzero entry in the column takes its first such row as pivot and
    replaces each row by piv * row - row[c] * pivot_row, which clears the
    column.  When every matrix pivots, the pivot rows are swapped to the
    top and dropped with the column, so the stack shrinks (as it always
    does for a single matrix that pivots); otherwise the pivot rows are
    zeroed in place and only the column goes.
    Rows and columns that are zero in every matrix are dropped first.
    Either way the stack is copied, so the caller's array is never written."""
    a = np.asarray(stack, dtype=np.int64)
    used = a.any(axis=0)
    rows, cols = used.any(axis=1), used.any(axis=0)
    a = a.copy() if rows.all() and cols.all() else a[:, rows][:, :, cols]
    if a.shape[2] > a.shape[1]:
        a = a.transpose(0, 2, 1)
    ranks = np.zeros(a.shape[0], dtype=np.int64)
    while a.shape[1] and a.shape[2]:
        nz = a[:, :, 0] != 0
        has = nz.any(axis=1)
        if has.all():
            pivots = np.arange(a.shape[0]), nz.argmax(axis=1)
            top = a[pivots]
            a[pivots] = a[:, 0].copy()
            a = (a[:, 1:, 1:] * top[:, None, :1] - a[:, 1:, :1] * top[:, None, 1:]) % p
        else:
            b = np.flatnonzero(has)
            piv_row = a[b, nz[b].argmax(axis=1)][:, None, :]
            sub = a[b]
            a[b] = (sub * piv_row[:, :, :1] - sub[:, :, :1] * piv_row) % p
            a = a[:, :, 1:]
        ranks += has
    return ranks


def _kernel(a: np.ndarray, p: int):
    """(basis, free) for the right null space of the reduced array a: the
    basis columns, one per free (non-pivot) column of a, listed ascending
    in free, each with a 1 there and 0 in the other free columns."""
    r, pivots = _rref(a, p)
    free = np.ones(a.shape[1], dtype=bool)
    free[pivots] = False
    free = free.nonzero()[0]
    basis = np.zeros((a.shape[1], free.size), dtype=np.int64)
    basis[free, np.arange(free.size)] = 1
    basis[pivots] = -r[:len(pivots), free] % p
    return basis, free


def kernel_basis(m: FpMatrix) -> FpMatrix:
    """Basis of the right null space, as columns; cols = cols(m) - rank(m)."""
    return FpMatrix._reduced(m.p, _kernel(m.a, m.p)[0])


def image_basis(m: FpMatrix) -> FpMatrix:
    """Column basis of the column space (original pivot columns)."""
    _, pivots = _rref(m.a, m.p)
    return FpMatrix._reduced(m.p, m.a[:, pivots])


def solve_matrix(a: FpMatrix, b: FpMatrix) -> FpMatrix | None:
    """Any solution X of a X = b with matrix right-hand side, or None."""
    if a.p != b.p or a.rows != b.rows:
        raise DimensionMismatch("solve_matrix shape mismatch")
    aug = np.hstack([a.a, b.a])
    r, pivots = _rref(aug, a.p)
    if pivots and pivots[-1] >= a.cols:
        return None
    x = np.zeros((a.cols, b.cols), dtype=np.int64)
    x[pivots] = r[:len(pivots), a.cols:]
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
