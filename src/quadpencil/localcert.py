"""Local point certification: F_p searches on Fano charts, Hensel lifting,
and the real place."""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .exactmath import (
    common_roots_mod_p,
    is_probable_prime,
    isolate_real_roots,
    rank_mod_p,  # unused here, but qpbench/worker.py traces this name
    roots_mod_p,
    rref_mod_p,
    solve_mod_p,  # unused here, but qpbench/worker.py traces this name
)
from .fano import (
    EXHAUSTIVE_PRIME_HARD_CAP,
    FANO_CODIMENSION,
    NUM_PARAMETERS,
    FanoSystem,
    GrassmannChart,
    _CHARTS,
    _chart_coordinates,
    _polar_products,
    all_charts,
    fano_system,  # unused here, but qpbench/worker.py traces this name
    verify_fano_point,  # unused here, but qpbench/worker.py traces this name
)
from .pencil import CurveData, PencilOfQuadrics
from .quadric import NUM_VARIABLES, evaluate_form

# The pipeline searches primes up to this bound: bad primes by the census
# (p^8 points per chart, via the Schubert-cell scan below, which is
# equivalent but far cheaper), sampled good primes by a line through a point.
EXHAUSTIVE_PRIME_BOUND = 5

# Planes that smooth_line_through_point draws before it gives up.
MAX_LINE_PLANES = 50

_MASK64 = (1 << 64) - 1


class LocalPointCertificate(NamedTuple):
    """A local witness at one place with its smoothness/liftability verdict.

    place is a prime for finite places or the string "real".  For finite
    places, liftable is True exactly when the Jacobian rank is 6 (full
    codimension), the hypothesis of the smooth-point form of Hensel's lemma;
    when a Newton lift was performed, lift/lift_modulus carry the executable
    witness.  At the real place liftable may be the string "undetermined",
    because the cited Weierstrass-point criterion is sufficient, not necessary.
    """

    place: object
    chart: GrassmannChart | None
    coordinates: tuple[int, ...] | None
    jacobian_rank: int | None
    liftable: object
    justification: str
    lift: tuple[int, ...] | None = None
    lift_modulus: int | None = None
    isolating_intervals: tuple[tuple[Fraction, Fraction], ...] | None = None


def _half_zeros(states, quads, p: int) -> list:
    """Common zeros in F_p^n of two n-variable quadratics, in lexicographic order.

    Each form is a state (value, n linear coefficients) with quadratic
    coefficients q; fixing x_m adds (lin_m + q_mm x_m) x_m to the value and
    q_mc x_m to each later linear coefficient c.  The last fixed coordinate
    before the leaf keeps only the scalars the leaf reads: each form's value
    and the linear coefficients of the two coordinates x, y left.  For each
    x, y is solved in closed form: with a1, a2 the coefficients of y^2,
    a2 Q1 - a1 Q2 = c y + d, so c != 0 leaves the one candidate -d/c, which
    is a zero iff it is one of Q1 (a1 != 0) or else of Q2; c = 0 and d != 0
    leave none, and c = d = 0 every y, each checked on both forms.
    """
    n = len(states[0][1])
    if n == 0:
        return [] if any(s % p for s, _ in states) else [()]
    if n == 1:  # p candidates, checked directly
        return [(t,) for t in range(p) if not any(
            (s + (lin[0] + q[0][0] * t) * t) % p for (s, lin), q in zip(states, quads))]
    (q1, q2), k, y = quads, n - 2, n - 1
    (s1, lin1), (s2, lin2) = states
    level = [((), s1, lin1, s2, lin2)]  # (prefix, each form's state), lexicographic
    for m in range(k - 1):
        level = [(prefix + (x,),
                  s1 + (l1[m] + q1[m][m] * x) * x, [c + d * x for c, d in zip(l1, q1[m])],
                  s2 + (l2[m] + q2[m][m] * x) * x, [c + d * x for c, d in zip(l2, q2[m])])
                 for prefix, s1, l1, s2, l2 in level for x in range(p)]
    m = k - 1  # the last fixed coordinate: scalars only
    leaves = ((prefix + (x,), s1 + (l1[m] + q1[m][m] * x) * x, l1[k] + q1[m][k] * x,
               l1[y] + q1[m][y] * x, s2 + (l2[m] + q2[m][m] * x) * x, l2[k] + q2[m][k] * x,
               l2[y] + q2[m][y] * x)
              for prefix, s1, l1, s2, l2 in level for x in range(p)) if k else (
        [((), s1, lin1[0], lin1[1], s2, lin2[0], lin2[1])])
    a1, a2 = q1[y][y] % p, q2[y][y] % p
    kk1, ky1, kk2, ky2 = q1[k][k], q1[k][y], q2[k][k], q2[k][y]
    c1, d2 = a2 * ky1 - a1 * ky2, a2 * kk1 - a1 * kk2
    kk, ky, a = (kk1, ky1, a1) if a1 else (kk2, ky2, a2)
    inverse = [0] + [pow(c, -1, p) for c in range(1, p)]
    zeros = []
    for prefix, t1, x1, y1, t2, x2, y2 in leaves:
        c0, d0, d1 = a2 * y1 - a1 * y2, a2 * t1 - a1 * t2, a2 * x1 - a1 * x2
        t, lx, ly = (t1, x1, y1) if a1 else (t2, x2, y2)
        for x in range(p):
            c, d = (c0 + c1 * x) % p, d0 + (d1 + d2 * x) * x
            if c:
                v = -d * inverse[c] % p
                if (t + (lx + kk * x) * x + (ly + ky * x + a * v) * v) % p == 0:
                    zeros.append(prefix + (x, v))
            elif d % p == 0:
                u1, w1 = t1 + (x1 + kk1 * x) * x, y1 + ky1 * x
                u2, w2 = t2 + (x2 + kk2 * x) * x, y2 + ky2 * x
                zeros += [prefix + (x, v) for v in range(p) if (u1 + (w1 + a1 * v) * v) % p == 0
                          and (u2 + (w2 + a2 * v) * v) % p == 0]
    return zeros


# Rows r0 < r1 < r2 of four, and the indices of (r1, r2), (r0, r2) and
# (r0, r1) in combinations(range(4), 2).
_ROW_TRIPLES = (((0, 1, 2), 3, 1, 0), ((0, 1, 3), 4, 2, 0),
                ((0, 2, 3), 5, 2, 1), ((1, 2, 3), 5, 4, 3))


def _rank_is_6(chart: GrassmannChart, pas, pbs, p: int) -> bool:
    """True iff fano.polar_jacobian(chart, pas, pbs) has rank 6 mod p.

    With u_f = P_f a and v_f = P_f b on the chart's non-pivot columns, the
    rows are u.x, v.x + u.y and v.y per form, so a relation between them is
    a pair of kernel vectors of W = [u1 v1 u2 v2] shaped (al1, be1, al2, be2)
    and (be1, ga1, be2, ga2).  Rank 6 holds iff det W != 0, or rank W = 3
    with kernel vector w where w1 w4 != w2 w3.  det W = sum +-s_cd t_c'd'
    (Laplace) for the 2x2 minors s of (u1, v1) and t of (u2, v2); all s or
    all t zero puts w in one pair's columns.  A nonzero row of cofactors
    spans the kernel, and its unsigned 3x3 minors m have m1 m4 - m2 m3 =
    w2 w3 - w1 w4; all cofactors vanish iff rank W <= 2.
    """
    cols, pairs = chart.non_pivots, chart.column_pairs
    (u1, u2), (v1, v2) = pas, pbs
    s = [(u1[c] * v1[d] - u1[d] * v1[c]) % p for c, d in pairs]
    if not any(s):
        return False
    t = [(u2[c] * v2[d] - u2[d] * v2[c]) % p for c, d in pairs]
    if not any(t):
        return False
    if (s[0] * t[5] - s[1] * t[4] + s[2] * t[3] + s[3] * t[2] - s[4] * t[1]
            + s[5] * t[0]) % p:
        return True
    u1, u2, v1, v2 = ([x[c] for c in cols] for x in (u1, u2, v1, v2))
    for (r0, r1, r2), i, j, k in _ROW_TRIPLES:
        m1, m2 = (x[r0] * t[i] - x[r1] * t[j] + x[r2] * t[k] for x in (v1, u1))
        m3, m4 = (s[i] * x[r0] - s[j] * x[r1] + s[k] * x[r2] for x in (v2, u2))
        if (m1 % p, m2 % p, m3 % p, m4 % p) != (0, 0, 0, 0):
            return (m1 * m4 - m2 * m3) % p != 0
    return False


def _cell_lines(pencil: PencilOfQuadrics, cells, p: int) -> list:
    """Each F_p-line (a, b, smooth) of X in the given Schubert cells of Gr(2,6).

    Cell (i, j) holds the lines with echelon basis a (1 at column i, 0 before
    i and at j) and b (1 at j, 0 before j), one cell per line.  The points of
    X with each pivot are found once (each form is a quadratic in the free
    columns after the pivot); row a of cell (i, j) is those with pivot i and
    a_j = 0.  Pairs are kept when (Pb).a = 0 for both polar matrices P.  Each
    point's products P x are computed once: at once for pivots >= 1, whose
    points are all some cell's b, and at its first pair for pivot 0.  A line
    is smooth when fano.polar_jacobian on chart (i, j) has rank 6, decided
    in closed form by _rank_is_6.
    """
    polars = pencil.polars
    # The forms' coefficients: P with its diagonal halved.
    forms = [[[c // (1 + (r == d)) for d, c in enumerate(row)] for r, row in enumerate(P)]
             for P in polars]
    rows, products = {}, {}
    for lead in sorted({c for cell in cells for c in cell}):
        quads = [[row[lead + 1:] for row in F[lead + 1:]] for F in forms]
        states = [(F[lead][lead], F[lead][lead + 1:]) for F in forms]
        rows[lead] = [(0,) * lead + (1,) + half for half in _half_zeros(states, quads, p)]
        products[lead] = ([_polar_products(polars, x, p) for x in rows[lead]] if lead
                          else [None] * len(rows[lead]))
    lines = []
    for i, j in cells:
        chart, pas_of = _CHARTS[i, j], products[i]
        bs = list(zip(rows[j], products[j]))
        for n, a in enumerate(rows[i]):
            if a[j]:
                continue
            for b, pbs in bs:
                u1, u2 = pbs
                if sum(map(mul, u1, a)) % p == 0 and sum(map(mul, u2, a)) % p == 0:
                    pas = pas_of[n] or _polar_products(polars, a, p)
                    pas_of[n] = pas
                    lines.append((a, b, _rank_is_6(chart, pas, pbs, p)))
    return lines


# Each chart's place in pivot order, and per cell (i, j) the charts (k, l)
# that can hold its lines, with their places: k >= i and l >= j, since a
# and b vanish before their pivots.
_PLACES = {pivots: n for n, pivots in enumerate(_CHARTS)}
_CELL_CHARTS = {(i, j): [(k, l, n) for (k, l), n in _PLACES.items() if k >= i and l >= j]
                for i, j in _CHARTS}


class CensusEntry(NamedTuple):
    """Exhaustive per-chart tally of F_p-lines of X, with the smooth ones (a, b)."""

    chart: GrassmannChart
    on_fano_count: int
    smooth_points: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def chart_census(
    pencil: PencilOfQuadrics, prime: int, charts=None
) -> list[CensusEntry]:
    """Exhaustive census over F_p of the given charts (all 15 by default).

    Each F_p-line of X is found once, in its Schubert cell (see _cell_lines);
    a chart (k, l) needs the cells (i, j) with i <= k and j <= l.  The chart
    holds the lines whose Plücker minor a_k b_l - a_l b_k is nonzero mod p:
    it counts them and keeps the smooth ones.  A line's rank is the same on
    every chart: on an overlap the charts' six equations differ by the
    invertible Sym^2 base change of the line's basis, so their Jacobians have
    equal rank at any point of the system.  Deterministic: charts in
    lexicographic pivot order, each chart's lines in cell order.
    Raises ValueError above EXHAUSTIVE_PRIME_HARD_CAP.
    """
    if not is_probable_prime(prime):
        raise ValueError(f"{prime} is not prime")
    if prime > EXHAUSTIVE_PRIME_HARD_CAP:
        raise ValueError(
            f"exhaustive scan infeasible for p > {EXHAUSTIVE_PRIME_HARD_CAP}"
        )
    if charts is None:
        charts, targets = all_charts(), _CELL_CHARTS
    else:
        charts = sorted(charts, key=lambda c: c.pivots)
        wanted = {chart.pivots for chart in charts}
        targets = {cell: [(k, l, n) for k, l, n in ts if (k, l) in wanted]
                   for cell, ts in _CELL_CHARTS.items()}
    counts, kept = [0] * len(_PLACES), [[] for _ in _PLACES]
    for a, b, smooth in _cell_lines(pencil, [cell for cell in _CHARTS if targets[cell]], prime):
        for k, l, n in targets[a.index(1), b.index(1)]:
            if (a[k] * b[l] - a[l] * b[k]) % prime:
                counts[n] += 1
                if smooth:
                    kept[n].append((a, b))
    places = [_PLACES[chart.pivots] for chart in charts]
    return [CensusEntry(chart, counts[n], tuple(kept[n])) for chart, n in zip(charts, places)]


def search_smooth_points(
    pencil: PencilOfQuadrics, prime: int, charts=None
) -> list[tuple[GrassmannChart, tuple[int, ...], int]]:
    """Smooth F_p-points of the Fano system, sorted by (chart pivots, coords).

    The chart points of :func:`chart_census`'s smooth lines, each with its
    Jacobian rank 6, so an empty result proves that none of the charts has one.
    """
    return [
        (entry.chart, pt, FANO_CODIMENSION)
        for entry in chart_census(pencil, prime, charts)
        for pt in sorted(_chart_coordinates(entry.chart, a, b, prime)
                         for a, b in entry.smooth_points)
    ]


def _conic_pair_zeros(A, B, p: int) -> list[tuple[int, int, int]] | None:
    """Common zeros in P^2(F_p) of two ternary quadratic forms, p odd.

    A form is (f00, f01, f02, f11, f12, f22), the coefficients of s_i s_j.
    Each zero is scaled to last nonzero coordinate 1, and the list is sorted.
    None means A and B share a component over the algebraic closure.

    On s2 = 0 the zeros are the common roots of the binary forms f(s0, s1, 0).
    On s2 = 1, the shear s0 = x + c y with c in {0, 1, 2} gives A
    or B a y^2 coefficient f(c, 1, 0) != 0, so they share no line
    x = const.  With A = a2 y^2 + (a10 + a11 x) y + (a00 + a01 x + a02 x^2)
    and B likewise, Res_y(A, B) = u^2 - v w for u = a2 b0 - b2 a0, v = a2 b1
    - b2 a1 and w = a1 b0 - a0 b1, a quartic in x with coefficients
      r0 = u0^2 - v0 w0,             r1 = 2 u0 u1 - v0 w1 - v1 w0,
      r2 = u1^2 + 2 u0 u2 - v0 w2 - v1 w1,
      r3 = 2 u1 u2 - v0 w3 - v1 w2,  r4 = u2^2 - v1 w3,
    where u_k = a2 b0k - b2 a0k, v_k = a2 b1k - b2 a1k, w0 = a10 b00 - a00 b10,
    w1 = a10 b01 + a11 b00 - a00 b11 - a01 b10, w2 = a10 b02 + a11 b01 -
    a01 b11 - a02 b10 and w3 = a11 b02 - a02 b11.  It vanishes identically
    only for a shared component, and at each of its roots x the two
    quadratics have a common root y, the one root of a2 B - b2 A = v y + u
    when v(x) != 0.  Roots come from common_roots_mod_p: over a small field
    it evaluates at every residue, otherwise its cost is polynomial in log p.
    """
    f00, f01, f02, f11, f12, f22 = A
    g00, g01, g02, g11, g12, g22 = B
    if not (f00 % p or f01 % p or f11 % p or g00 % p or g01 % p or g11 % p):
        return None  # both contain the line s2 = 0
    zeros = [(t, 1, 0) for t in common_roots_mod_p(((f11, f01, f00), (g11, g01, g00)), p)]
    if f00 % p == 0 == g00 % p:
        zeros.append((1, 0, 0))
    for c in range(3):
        a2, b2 = (f00 * c * c + f01 * c + f11) % p, (g00 * c * c + g01 * c + g11) % p
        if a2 or b2:
            break
    # f(x + c y, y, 1): the coefficients of y and 1, in x.
    a10, a11, a00, a01, a02 = f12 + f02 * c, f01 + 2 * f00 * c, f22, f02, f00
    b10, b11, b00, b01, b02 = g12 + g02 * c, g01 + 2 * g00 * c, g22, g02, g00
    u0, u1, u2 = a2 * b00 - b2 * a00, a2 * b01 - b2 * a01, a2 * b02 - b2 * a02
    v0, v1 = a2 * b10 - b2 * a10, a2 * b11 - b2 * a11
    w0, w3 = a10 * b00 - a00 * b10, a11 * b02 - a02 * b11
    w1 = a10 * b01 + a11 * b00 - a00 * b11 - a01 * b10
    w2 = a10 * b02 + a11 * b01 - a01 * b11 - a02 * b10
    resultant = [(u0 * u0 - v0 * w0) % p, (2 * u0 * u1 - v0 * w1 - v1 * w0) % p,
                 (u1 * u1 + 2 * u0 * u2 - v0 * w2 - v1 * w1) % p,
                 (2 * u1 * u2 - v0 * w3 - v1 * w2) % p, (u2 * u2 - v1 * w3) % p]
    if not any(resultant):
        return None
    for x in roots_mod_p(resultant, p):
        # v = 0 makes u = 0 too: then a2 B = b2 A, and the common roots are
        # those of the quadratic with a nonzero y^2 coefficient.
        u, v = (u0 + (u1 + u2 * x) * x) % p, (v0 + v1 * x) % p
        ys = [-u * pow(v, -1, p) % p] if v else common_roots_mod_p(
            [[a00 + (a01 + a02 * x) * x, a10 + a11 * x, a2],
             [b00 + (b01 + b02 * x) * x, b10 + b11 * x, b2]], p)
        zeros += [((x + c * y) % p, y, 1) for y in ys]
    return sorted(zeros)


def _splitmix64(state: int) -> tuple[int, int]:
    """One step of SplitMix64 (Steele, Lea and Flood 2014): the next state and its word.

    Integer arithmetic only, so a seed gives the same words on every Python.
    """
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return state, z ^ (z >> 31)


def smooth_line_through_point(
    pencil: PencilOfQuadrics, prime: int
) -> tuple[GrassmannChart, tuple[int, ...]] | None:
    """A smooth F_p-point (chart, coordinates) of the Fano system, or None.

    Q1 and Q2 restricted to a random plane of P^5 are two conics; a common
    zero is a point x of X_p.  If [P1 x; P2 x] has rank 2, the lines of X_p
    through x are <x, y> with y in its 4-dimensional kernel K and
    Q1(y) = Q2(y) = 0: on a complement of x in K two conics again, whose
    common zeros are those lines (Reid 1972: a general point of a smooth X
    lies on 4 lines).  A line's echelon basis names its Schubert cell, whose
    chart expresses it (the pivot minor is 1 there) and where
    fano.polar_jacobian must have rank 6.  Gives up after MAX_LINE_PLANES
    planes.

    Both forms are restricted to a plane <v0, v1, v2> at once, by Kronecker
    packing: with X = 2^w, V_a = v0_a + v1_a X^2 + v2_a X^6 and c_ab =
    c1_ab + c2_ab X for the forms' coefficients (0 for a > b), the sum over
    a, b of c_ab V_a V_b holds the coefficient of s_i s_j in Q_f(s0 v0 +
    s1 v1 + s2 v2) at exponent 2 (S_i + S_j) + f, with S = (0, 1, 3).  The
    sums S_i + S_j differ for each pair i <= j, and every coefficient is
    below 42 p^3 < 2^w, so no two share a slot.

    The planes come from SplitMix64 seeded by the forms' coefficients and p,
    so the result is deterministic.  p must be an odd prime; the cost is
    polynomial in log p.
    """
    if prime == 2 or not is_probable_prime(prime):
        raise ValueError(f"{prime} is not an odd prime")
    p = prime
    polars = [[[c % p for c in row] for row in P] for P in pencil.polars]
    state = p
    for q in (pencil.q1, pencil.q2):
        for (i, j), c in q.monomials():
            state = _splitmix64(state ^ (NUM_VARIABLES * i + j) ^ (c << 8))[1]
    limbs = p.bit_length() // 64 + 1
    w = (42 * p**3).bit_length()
    mask = (1 << w) - 1
    half = (p + 1) // 2  # 1/2 mod p: Q(v) = v.Pv / 2
    # The packed c_ab: P_ab for a < b and P_aa / 2, for both forms.
    rows = [[0] * a + [r1[a] * half % p | r2[a] * half % p << w]
            + [r1[b] | r2[b] << w for b in range(a + 1, NUM_VARIABLES)]
            for a, (r1, r2) in enumerate(zip(*polars))]
    # Where each form's conic (f00, f01, f02, f11, f12, f22) is in the sum.
    shifts = [[w * (e + f) for e in (0, 2, 6, 4, 8, 12)] for f in (0, 1)]

    def draw() -> int:
        nonlocal state
        value = 0
        for _ in range(limbs):
            state, word = _splitmix64(state)
            value = value << 64 | word
        return value % p

    def zeros_on(basis) -> list:
        packed = [x | y << 2 * w | z << 6 * w for x, y, z in zip(*basis)]
        total = sum(map(mul, packed, [sum(map(mul, row, packed)) for row in rows]))
        conics = [[(total >> shift & mask) % p for shift in form] for form in shifts]
        columns = list(zip(*basis))
        return [[sum(map(mul, z, column)) % p for column in columns]
                for z in _conic_pair_zeros(*conics, p) or ()]

    for _ in range(MAX_LINE_PLANES):
        for x in zeros_on([[draw() for _ in range(NUM_VARIABLES)] for _ in range(3)]):
            (r1, r2), pivots = rref_mod_p(_polar_products(polars, x, p), p)
            if len(pivots) != 2:
                continue  # a singular point of X_p, or x = 0
            # The kernel vector at free column f is e_f - r1_f e_i - r2_f e_j,
            # so x has a nonzero coefficient on it iff x_f != 0, and the
            # other three span a complement of x in the kernel.
            i, j = pivots
            free = [f for f in range(NUM_VARIABLES) if f != i and f != j]
            drop = next(f for f in free if x[f])
            complement = []
            for f in free:
                if f != drop:
                    k = [0] * NUM_VARIABLES
                    k[f], k[i], k[j] = 1, -r1[f] % p, -r2[f] % p
                    complement.append(k)
            for y in zeros_on(complement):
                (a, b), pivots = rref_mod_p([x, y], p)
                cell = _CHARTS[tuple(pivots)]
                if _rank_is_6(cell, _polar_products(polars, a, p),
                              _polar_products(polars, b, p), p):
                    return cell, _chart_coordinates(cell, a, b, p)
    return None


def _newton_level(jac_rows, residuals, prime: int, e: int):
    """rref_mod_p of [J | -F(x)/p^e mod p], for F(x) = 0 mod p^e."""
    rhs = [(-(r // prime**e)) % prime for r in residuals]
    return rref_mod_p([r + [b] for r, b in zip(jac_rows, rhs)], prime)


def hensel_certify(
    system: FanoSystem, pt, prime: int, lift_precision: int = 3
) -> LocalPointCertificate:
    """Certify liftability of an on-fano point and Newton-lift it mod p^k.

    The point is checked here, in one pass: ValueError unless prime is prime
    and the six residuals vanish mod prime.  liftable is True iff the
    Jacobian J has rank 6 at the point; in that case (and for lift_precision
    >= 2) the point is lifted to a solution of all six equations modulo
    p^lift_precision as an executable witness.  Newton level e is one
    elimination of [J | -F(x)/p^e mod p].  The first is always made, from
    the on-system check's F: J's rank is the number of its pivots left of
    the last column, so a lift to p^3 takes two eliminations and three
    residual evaluations.  The residue of the lift mod p always equals the
    input point.
    """
    if not is_probable_prime(prime):
        raise ValueError(f"{prime} is not prime")
    coords = tuple(int(c) % prime for c in pt)
    residuals = system.residuals(coords)
    if any(r % prime for r in residuals):
        raise ValueError("point not on the system")
    jac_rows = system.jacobian_mod(coords, prime)
    rows, pivots = _newton_level(jac_rows, residuals, prime, 1)
    rank = sum(c < NUM_PARAMETERS for c in pivots)
    liftable = rank == FANO_CODIMENSION

    lift: tuple[int, ...] | None = None
    lift_modulus: int | None = None
    if liftable and lift_precision >= 2:
        x = list(coords)
        for e in range(1, lift_precision):
            lift_modulus = prime ** (e + 1)
            # Rank 6 = number of rows, so every level solves; free variables
            # are 0, i.e. the step lives on the pivot columns.
            for row, c in zip(rows, pivots):
                x[c] = (x[c] + prime**e * row[NUM_PARAMETERS]) % lift_modulus
            residuals = system.residuals(x)
            if e + 1 < lift_precision:
                rows, pivots = _newton_level(jac_rows, residuals, prime, e + 1)
        if any(r % lift_modulus for r in residuals):
            raise ArithmeticError("Newton lift failed to satisfy the system")
        lift = tuple(x)

    if liftable:
        justification = (
            f"Jacobian rank 6 = codimension at the point mod {prime}; "
            "smooth-point Hensel lifting applies"
        )
        if lift is not None:
            justification += (
                f" (Newton lift verified: all 6 residuals are 0 mod "
                f"{prime}^{lift_precision})"
            )
    else:
        justification = (
            f"Jacobian rank {rank} < 6 at the point mod {prime}: "
            "not certifiably smooth; the Hensel criterion does not apply"
        )
    return LocalPointCertificate(
        place=prime,
        chart=system.chart,
        coordinates=coords,
        jacobian_rank=rank,
        liftable=liftable,
        justification=justification,
        lift=lift,
        lift_modulus=lift_modulus,
    )


def real_place_report(cd: CurveData) -> LocalPointCertificate:
    """Certificate at the real place from real Weierstrass points.

    A real root of f is a real Weierstrass point of z^2 = f(t); by the cited
    real-line criterion (Bhargava-Gross-Wang, Pencils of quadrics, section
    7.2), one real Weierstrass point forces a real point on the line variety.
    The criterion is sufficient only, so zero real roots yields the verdict
    "undetermined" rather than False.
    """
    intervals = tuple(isolate_real_roots(cd.f))
    count = cd.real_weierstrass_count
    if count != len(intervals):
        raise ArithmeticError("Sturm count disagrees with isolated intervals")
    if count >= 1:
        liftable: object = True
        justification = (
            f"f has {count} real root(s), i.e. {count} real Weierstrass point(s) "
            "on z^2 = f(t); by the cited criterion (Bhargava-Gross-Wang 7.2) "
            "the Fano variety has a real point"
        )
    else:
        liftable = "undetermined"
        justification = (
            "f has no real roots; the real-Weierstrass-point criterion is "
            "sufficient only, so real solubility is undetermined"
        )
    return LocalPointCertificate(
        place="real",
        chart=None,
        coordinates=None,
        jacobian_rank=None,
        liftable=liftable,
        justification=justification,
        isolating_intervals=intervals,
    )


def verify_projective_point(pencil: PencilOfQuadrics, v, p: int | None = None) -> bool:
    """True iff both forms vanish at the nonzero 6-vector v (over Q or F_p)."""
    if len(v) != NUM_VARIABLES:
        raise ValueError("expected a 6-vector")
    if p is not None and not is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    coords = [Fraction(c) if p is None else int(c) % p for c in v]
    if not any(coords):
        raise ValueError("zero vector")
    values = (evaluate_form(q, coords) for q in (pencil.q1, pencil.q2))
    return not any(x if p is None else x % p for x in values)
