"""Exact matrices over Z or F_p: determinants, discriminants and kernels.

A matrix is a list of rows throughout.
"""

from __future__ import annotations

from .unipoly import UniPoly

MAX_DET_DIMENSION = 16


def _square_rows(rows) -> list[list]:
    """A fresh copy of the rows, rejecting a matrix that is not square."""
    a = [list(r) for r in rows]
    if any(len(r) != len(a) for r in a):
        raise ValueError("non-square input")
    return a


def det_poly_matrix(rows) -> int:
    """Fraction-free (Bareiss 1968) determinant of a square integer matrix.

    Entries are ints.  Each step divides exactly by the previous pivot, so
    floor division is exact.  Dimension is capped at 16.  The name is kept
    for the benchmark's tracer, which wraps ``pencil.det_poly_matrix``.
    """
    a = _square_rows(rows)
    n = len(a)
    if n > MAX_DET_DIMENSION:
        raise ValueError(f"dimension {n} exceeds cap {MAX_DET_DIMENSION}")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    result = a[n - 1][n - 1]
    return -result if sign < 0 else result


# ---------------------------------------------------------------------------
# Discriminants via the Sylvester resultant
# ---------------------------------------------------------------------------


def _sylvester_rows(f: UniPoly, g: UniPoly) -> list[list]:
    m, n = f.degree(), g.degree()
    size = m + n
    fl = list(reversed(f.coeffs))  # highest degree first
    gl = list(reversed(g.coeffs))
    rows = []
    for i in range(n):
        rows.append([0] * i + fl + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + gl + [0] * (size - n - 1 - i))
    return rows


def resultant(f: UniPoly, g: UniPoly) -> int:
    """Resultant of two integer polynomials (Sylvester + Bareiss)."""
    if f.is_zero() or g.is_zero():
        return 0
    if f.degree() == 0:
        return f.leading() ** g.degree()
    if g.degree() == 0:
        return g.leading() ** f.degree()
    return det_poly_matrix(_sylvester_rows(f, g))


def poly_discriminant(f: UniPoly) -> int:
    """disc(f) = (-1)^(d(d-1)/2) * Res(f, f') / lc(f), for integer f, deg >= 2."""
    d = f.degree()
    if d < 2:
        raise ValueError("degree < 2")
    res = resultant(f, f.derivative())
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    lead = f.leading()
    value = sign * res
    q, r = divmod(value, lead)
    if r:
        raise ArithmeticError("resultant not divisible by leading coefficient")
    return q


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
        # Left of c the pivot row is 0, so only columns c.. change.
        row = rows[rank]
        inv = pow(row[c], -1, p)
        lead = [x * inv % p for x in row[c:]]
        rows[rank] = row[:c] + lead
        for i in range(nrows):
            row = rows[i]
            f = row[c]
            if f and i != rank:
                rows[i] = row[:c] + [(x - f * y) % p for x, y in zip(row[c:], lead)]
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
