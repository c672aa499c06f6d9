"""Exact matrices over Q, Z, F_p, or polynomial rings; determinants and kernels.

A matrix is a list of rows throughout.
"""

from __future__ import annotations

from fractions import Fraction

from .unipoly import UniPoly

MAX_DET_DIMENSION = 16


def _square_rows(rows) -> list[list]:
    """A fresh copy of the rows, rejecting a matrix that is not square."""
    a = [list(r) for r in rows]
    if any(len(r) != len(a) for r in a):
        raise ValueError("non-square input")
    return a


def _is_zero(x) -> bool:
    if isinstance(x, UniPoly):
        return x.is_zero()
    return x == 0


def _exact_div(num, den):
    """Exact division in the entry ring (int, Fraction, or UniPoly)."""
    if isinstance(num, UniPoly) or isinstance(den, UniPoly):
        if not isinstance(num, UniPoly):
            num = UniPoly.constant(num)
        if not isinstance(den, UniPoly):
            den = UniPoly.constant(den)
        return num.exact_div(den)
    if isinstance(num, Fraction) or isinstance(den, Fraction):
        return Fraction(num) / Fraction(den)
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("inexact integer division in Bareiss elimination")
    return q


def det_poly_matrix(rows) -> UniPoly | Fraction | int:
    """Fraction-free (Bareiss) determinant of a square list of rows.

    Entries are int, Fraction, or UniPoly.  Dimension is capped at 16.  For
    cross-checking see det_cofactor.
    """
    a = _square_rows(rows)
    n = len(a)
    if n > MAX_DET_DIMENSION:
        raise ValueError(f"dimension {n} exceeds cap {MAX_DET_DIMENSION}")
    if n == 0:
        return 1
    sign = 1
    prev = None
    for k in range(n - 1):
        if _is_zero(a[k][k]):
            pivot = next((i for i in range(k + 1, n) if not _is_zero(a[i][k])), None)
            if pivot is None:
                zero = a[0][0]
                return zero - zero if isinstance(zero, UniPoly) else 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                val = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                if prev is not None:
                    val = _exact_div(val, prev)
                a[i][j] = val
        prev = a[k][k]
    result = a[n - 1][n - 1]
    if sign < 0:
        result = -result
    return result


def det_cofactor(rows):
    """Cofactor-expansion determinant (exponential; cross-check oracle)."""
    rows = _square_rows(rows)

    def rec(r: list[list]):
        n = len(r)
        if n == 1:
            return r[0][0]
        total = None
        for j in range(n):
            if _is_zero(r[0][j]):
                continue
            minor = [row[:j] + row[j + 1 :] for row in r[1:]]
            term = r[0][j] * rec(minor)
            if j % 2:
                term = -term
            total = term if total is None else total + term
        if total is None:
            zero = r[0][0]
            return zero - zero if isinstance(zero, UniPoly) else 0
        return total

    return rec(rows)


# ---------------------------------------------------------------------------
# Linear algebra mod p
# ---------------------------------------------------------------------------


def rref_mod_p(matrix, p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_p and its pivot columns.

    Gauss-Jordan elimination column by column, left to right: each pivot row
    is scaled to a leading 1 and its column is cleared in every other row.
    Zero rows come last.  Elimination stops as soon as every row has a pivot,
    since no later column can then hold one.  Works for every prime,
    including 2; this is the only elimination loop of the package.
    """
    rows = [[int(x) % p for x in r] for r in matrix]
    pivots: list[int] = []
    if not rows:
        return rows, pivots
    nrows = len(rows)
    for c in range(len(rows[0])):
        rank = len(pivots)
        pivot = next((i for i in range(rank, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        lead = rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(nrows):
            f = rows[i][c]
            if f and i != rank:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], lead)]
        pivots.append(c)
        if rank + 1 == nrows:
            break
    return rows, pivots


def rank_mod_p(matrix, p: int) -> int:
    """Rank over F_p of an integer matrix (works for every prime, including 2)."""
    return len(rref_mod_p(matrix, p)[1])


def kernel_mod_p(matrix, p: int) -> list[list[int]]:
    """Row-reduced null-space basis over F_p, deterministic echelon pivot order.

    Rejects p = 2: callers use this on Gram-type matrices, which do not make
    sense in characteristic 2.
    """
    if p == 2:
        raise ValueError("p = 2: kernel_mod_p requires an odd prime")
    rows, pivots = rref_mod_p(matrix, p)
    if not rows:
        return []
    ncols = len(rows[0])
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [0] * ncols
        v[free] = 1
        for row, c in zip(rows, pivots):
            v[c] = -row[free] % p
        basis.append(v)
    return basis


def solve_mod_p(matrix, rhs: list[int], p: int) -> list[int] | None:
    """One solution of A x = rhs over F_p (free variables set to 0), or None."""
    rows = [list(r) for r in matrix]
    if len(rows) != len(rhs):
        raise ValueError("rhs length mismatch")
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = rref_mod_p([r + [b] for r, b in zip(rows, rhs)], p)
    if pivots and pivots[-1] == ncols:
        return None  # a pivot in the right-hand side: 0 = 1
    x = [0] * ncols
    for row, c in zip(reduced, pivots):
        x[c] = row[ncols]
    return x
