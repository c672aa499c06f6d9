"""Exact arithmetic of the benchmark's own, independent of quadpencil.

The generators and the output checker use these routines instead of the
library's evaluators, so that a defect in the library cannot hide itself
by being checked with itself.  Forms are dicts {(i, j): c} with
0 <= i <= j <= 5 over the variables u, v, w, x, y, z.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations

VARIABLES = "uvwxyz"
MONOMIALS = [(i, j) for i in range(6) for j in range(i, 6)]

# Deterministic Miller-Rabin bases, valid for every n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_below(limit: int) -> list[int]:
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\0\0"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, limit, i)))
    return [i for i in range(limit) if sieve[i]]


# ---------------------------------------------------------------------------
# Forms: text, Gram matrices, evaluation
# ---------------------------------------------------------------------------

def render_form(form: dict) -> str:
    """Text such as '3u^2 - 2uv + x^2' for a nonzero form."""
    pieces = []
    for (i, j) in MONOMIALS:
        c = form.get((i, j), 0)
        if c == 0:
            continue
        mono = VARIABLES[i] + ("^2" if i == j else VARIABLES[j])
        body = mono if abs(c) == 1 else f"{abs(c)}{mono}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(("+ " if c > 0 else "- ") + body)
    return " ".join(pieces)


_TERM = re.compile(r"([+-]?)\s*(\d*)\s*\*?\s*([uvwxyz])(?:\^2|\s*\*?\s*([uvwxyz]))?")


def parse_form(text: str) -> dict:
    """Parse a sum of degree-2 monomials (the subset the input files use)."""
    form: dict = {}
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse form at {text[pos:]!r}")
        sign, digits, a, b = m.groups()
        c = (-1 if sign == "-" else 1) * (int(digits) if digits else 1)
        i = VARIABLES.index(a)
        j = VARIABLES.index(b) if b else i
        key = (min(i, j), max(i, j))
        form[key] = form.get(key, 0) + c
        pos = m.end()
        while pos < len(text) and text[pos] == " ":
            pos += 1
    return {k: c for k, c in form.items() if c}


def parse_forms_file(text: str) -> tuple[dict, dict]:
    forms = {}
    for line in text.splitlines():
        label, _, payload = line.partition(":")
        if label.strip() in ("Q1", "Q2"):
            forms[label.strip()] = parse_form(payload)
    return forms["Q1"], forms["Q2"]


def polar_matrix(form: dict) -> list[list[int]]:
    """Integer P with a^T P b = q(a + b) - q(a) - q(b)."""
    m = [[0] * 6 for _ in range(6)]
    for (i, j), c in form.items():
        if i == j:
            m[i][i] = 2 * c
        else:
            m[i][j] = m[j][i] = c
    return m


def q_eval(form: dict, v) -> int:
    return sum(c * v[i] * v[j] for (i, j), c in form.items())


def mat_vec(m, v) -> list[int]:
    return [sum(row[k] * v[k] for k in range(6)) for row in m]


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

def det(rows) -> Fraction:
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    result = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            result = -result
        result *= a[c][c]
        for r in range(c + 1, n):
            if a[r][c]:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return result


def rank_mod(rows, p: int) -> int:
    a = [[x % p for x in r] for r in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((r for r in range(rank, len(a)) if a[r][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][c], -1, p)
        for r in range(len(a)):
            if r != rank and a[r][c]:
                f = a[r][c] * inv % p
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def inverse(rows) -> list[list[Fraction]]:
    n = len(rows)
    a = [[Fraction(x) for x in r] + [Fraction(int(i == k)) for k in range(n)]
         for i, r in enumerate(rows)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c])
        a[c], a[piv] = a[piv], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [r[n:] for r in a]


# ---------------------------------------------------------------------------
# Univariate polynomials over Q (coefficient lists, lowest degree first)
# ---------------------------------------------------------------------------

def _trim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_eval(f, t):
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * t + c
    return acc


def _poly_rem(a, b):
    a = list(a)
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for k, c in enumerate(b):
            a[shift + k] -= f * c
        a = _trim(a)
        if not a:
            break
    return a


def poly_gcd_degree(a, b) -> int:
    a, b = _trim(map(Fraction, a)), _trim(map(Fraction, b))
    while b:
        a, b = b, _poly_rem(a, b)
    return len(a) - 1


def derivative(f):
    return [k * c for k, c in enumerate(f)][1:]


def int_det(rows) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for c in range(n - 1):
        if a[c][c] == 0:
            piv = next((r for r in range(c + 1, n) if a[r][c]), None)
            if piv is None:
                return 0
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        for r in range(c + 1, n):
            for k in range(c + 1, n):
                a[r][k] = (a[r][k] * a[c][c] - a[r][c] * a[c][k]) // prev
        prev = a[c][c]
    return sign * a[n - 1][n - 1]


def _pencil_det(p1, p2, t: int) -> int:
    """det(P1 - t*P2) for the polar matrices P = 2 * Gram; equals 64 * det(M1 - t*M2)."""
    return int_det([[p1[i][j] - t * p2[i][j] for j in range(6)] for i in range(6)])


def char_form(q1: dict, q2: dict) -> list[Fraction]:
    """f(t) = -det(M1 - t*M2) by exact elimination at t = 0..6 plus
    Lagrange interpolation; coefficients lowest first, trailing zeros cut."""
    p1, p2 = polar_matrix(q1), polar_matrix(q2)
    ts = list(range(7))
    values = [Fraction(-_pencil_det(p1, p2, t), 64) for t in ts]
    coeffs = [Fraction(0)] * 7
    for k, tk in enumerate(ts):
        basis = [Fraction(1)]
        denom = 1
        for m, tm in enumerate(ts):
            if m == k:
                continue
            basis = [Fraction(0)] + basis
            for d in range(len(basis) - 1):
                basis[d] -= tm * basis[d + 1]
            denom *= tk - tm
        for d, c in enumerate(basis):
            coeffs[d] += values[k] * c / denom
    return _trim(coeffs)


def integral_char_form(q1: dict, q2: dict) -> list[int] | None:
    """The characteristic form if its coefficients are integers, else None.

    det(M1) = f(0) must then be integral, which rejects most candidates
    after a single determinant.
    """
    if _pencil_det(polar_matrix(q1), polar_matrix(q2), 0) % 64:
        return None
    f = char_form(q1, q2)
    if any(c.denominator != 1 for c in f):
        return None
    return [int(c) for c in f]


def is_smooth(f) -> bool:
    """X is smooth iff f has degree 6 and is squarefree."""
    return len(f) == 7 and poly_gcd_degree(f, derivative(f)) == 0


def discriminant(f) -> Fraction:
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f) via the Sylvester matrix."""
    g = derivative(f)
    n, m = len(f) - 1, len(g) - 1
    size = n + m
    rows = []
    for k in range(m):
        rows.append([0] * k + list(reversed(f)) + [0] * (size - n - 1 - k))
    for k in range(n):
        rows.append([0] * k + list(reversed(g)) + [0] * (size - m - 1 - k))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * det(rows) / f[-1]


# ---------------------------------------------------------------------------
# Grassmannian charts and the six line equations
# ---------------------------------------------------------------------------

CHARTS = list(combinations(range(6), 2))


def line_rows(chart, coords) -> tuple[list[int], list[int]]:
    """Basis rows of the line at a chart point; chart pivots are 1-based.

    Non-pivot columns, ascending, carry t1, t3, t5, t7 in row A and
    t2, t4, t6, t8 in row B.
    """
    i, j = chart[0] - 1, chart[1] - 1
    a, b = [0] * 6, [0] * 6
    a[i] = b[j] = 1
    for k, col in enumerate(c for c in range(6) if c not in (i, j)):
        a[col] = coords[2 * k]
        b[col] = coords[2 * k + 1]
    return a, b


def line_residuals(q1: dict, q2: dict, chart, coords) -> list[int]:
    """Q(a), polar(a, b), Q(b) for Q1 then Q2, as exact integers."""
    a, b = line_rows(chart, coords)
    out = []
    for q in (q1, q2):
        pb = mat_vec(polar_matrix(q), b)
        out += [q_eval(q, a), sum(x * y for x, y in zip(a, pb)), q_eval(q, b)]
    return out


def line_jacobian(q1: dict, q2: dict, chart, coords) -> list[list[int]]:
    """The 6x8 Jacobian of the line equations in closed form."""
    a, b = line_rows(chart, coords)
    cols = [c for c in range(6) if c not in (chart[0] - 1, chart[1] - 1)]
    rows = []
    for q in (q1, q2):
        pm = polar_matrix(q)
        pa, pb = mat_vec(pm, a), mat_vec(pm, b)
        rr, rs, ss = [0] * 8, [0] * 8, [0] * 8
        for k, c in enumerate(cols):
            rr[2 * k] = pa[c]
            rs[2 * k], rs[2 * k + 1] = pb[c], pa[c]
            ss[2 * k + 1] = pb[c]
        rows += [rr, rs, ss]
    return rows
