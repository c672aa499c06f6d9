"""Local point certification: F_p searches on Fano charts, Hensel lifting,
and the real place."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import NamedTuple

from .exactmath import (
    is_probable_prime,
    isolate_real_roots,
    kernel_mod_p,
    rank_mod_p,
    roots_mod_p,
    rref_mod_p,
    solve_mod_p,
)
from .exactmath.unipoly import _pm_gcd
from .fano import (
    EXHAUSTIVE_PRIME_HARD_CAP,
    FANO_CODIMENSION,
    NUM_PARAMETERS,
    FanoSystem,
    GrassmannChart,
    _chart_coordinates,
    _polar_products,
    all_charts,
    fano_system,  # unused here, but qpbench/worker.py traces this name
    polar_jacobian,
    verify_fano_point,
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
    coefficients q; fixing x_k adds (lin_k + q_kk x_k) x_k to the value and
    q_km x_k to each later linear coefficient.  Once two coordinates x, y
    are left, each x updates the value and y's linear coefficient as
    scalars, and y is solved in closed form: with a1, a2 the coefficients of
    y^2, a2 Q1 - a1 Q2 = c y + d, so c != 0 leaves the one candidate -d/c,
    c = 0 and d != 0 none, and c = d = 0 every y.  Each candidate is checked
    on both forms.
    """
    n = len(states[0][1])
    if n == 0:
        return [] if any(s % p for s, _ in states) else [()]
    if n == 1:  # p candidates, checked directly
        return [(t,) for t in range(p) if not any(
            (s + (lin[0] + q[0][0] * t) * t) % p for (s, lin), q in zip(states, quads))]
    (q1, q2), k, y = quads, n - 2, n - 1
    a1, a2 = q1[y][y] % p, q2[y][y] % p
    inverse = [0] + [pow(c, -1, p) for c in range(1, p)]

    def descend(prefix, states) -> list:
        zeros, m = [], len(prefix)
        if m < k:
            for x in range(p):
                fixed = [
                    (s + (lin[m] + q[m][m] * x) * x, [c + d * x for c, d in zip(lin, q[m])])
                    for (s, lin), q in zip(states, quads)
                ]
                zeros += descend(prefix + (x,), fixed)
            return zeros
        (s1, lin1), (s2, lin2) = states
        for x in range(p):
            t1, l1 = s1 + (lin1[k] + q1[k][k] * x) * x, lin1[y] + q1[k][y] * x
            t2, l2 = s2 + (lin2[k] + q2[k][k] * x) * x, lin2[y] + q2[k][y] * x
            c, d = (a2 * l1 - a1 * l2) % p, (a2 * t1 - a1 * t2) % p
            if c:
                t = -d * inverse[c] % p
                if (t1 + (l1 + a1 * t) * t) % p == 0 and (t2 + (l2 + a2 * t) * t) % p == 0:
                    zeros.append(prefix + (x, t))
            elif not d:
                zeros += [prefix + (x, t) for t in range(p) if (t1 + (l1 + a1 * t) * t) % p == 0
                          and (t2 + (l2 + a2 * t) * t) % p == 0]
        return zeros

    return descend((), states)


def _rank_can_be_6(chart: GrassmannChart, pas, pbs, p: int) -> bool:
    """False when the line's Jacobian on chart has rank < 6 for a visible reason.

    Per form, with u = Pa and v = Pb restricted to the chart's non-pivot
    columns, fano.polar_jacobian has the three rows [u,0], [v,u] and [0,v]
    (interleaved).  If u and v are linearly dependent mod p, both lie in the
    span of one w, so the three rows lie in the span of [w,0] and [0,w] and
    have rank <= 2; the six rows then have rank <= 2 + 3 < 6.  So rank 6
    needs u, v independent, i.e. a nonzero 2x2 minor, for both forms.
    """
    cols = chart.non_pivots
    return all(
        any((pa[c] * pb[d] - pa[d] * pb[c]) % p for c, d in combinations(cols, 2))
        for pa, pb in zip(pas, pbs)
    )


def _cell_lines(pencil: PencilOfQuadrics, cells, p: int) -> list:
    """Each F_p-line (a, b, smooth) of X in the given Schubert cells of Gr(2,6).

    Cell (i, j) holds the lines with echelon basis a (1 at column i, 0 before
    i and at j) and b (1 at j, 0 before j), one cell per line.  The points of
    X with each pivot are found once (each form is a quadratic in the free
    columns after the pivot); row a of cell (i, j) is those with pivot i and
    a_j = 0.  Pairs are kept when (Pb).a = 0 for both polar matrices P.  A
    line is smooth when fano.polar_jacobian on chart (i, j) has rank 6; the
    rank is computed only where _rank_can_be_6 allows it.
    """
    polars = pencil.polars

    def points(lead: int) -> list:
        free = range(lead + 1, NUM_VARIABLES)
        quads = [[[P[c][d] // (1 + (c == d)) for d in free] for c in free] for P in polars]
        states = [(P[lead][lead] // 2, [P[lead][c] for c in free]) for P in polars]
        return [(0,) * lead + (1,) + half for half in _half_zeros(states, quads, p)]

    rows = {lead: points(lead) for lead in {c for cell in cells for c in cell}}
    rows_b = {
        j: [(b, _polar_products(polars, b, p)) for b in rows[j]]
        for j in {j for _, j in cells}
    }
    lines = []
    for i, j in cells:
        chart = GrassmannChart((i, j))
        for a in rows[i]:
            if a[j]:
                continue
            pas = None
            for b, pbs in rows_b[j]:
                if sum(map(mul, pbs[0], a)) % p == 0 and sum(map(mul, pbs[1], a)) % p == 0:
                    pas = pas or _polar_products(polars, a, p)
                    lines.append((a, b, _rank_can_be_6(chart, pas, pbs, p) and rank_mod_p(
                        polar_jacobian(chart, pas, pbs), p) == FANO_CODIMENSION))
    return lines


class CensusEntry(NamedTuple):
    """Exhaustive per-chart tally of F_p points of the Fano system."""

    chart: GrassmannChart
    on_fano_count: int
    smooth_points: tuple[tuple[int, ...], ...]


def chart_census(
    pencil: PencilOfQuadrics, prime: int, charts=None
) -> list[CensusEntry]:
    """Exhaustive census over F_p of the given charts (all 15 by default).

    Each F_p-line of X is found once, in its Schubert cell (see _cell_lines);
    a chart (k, l) needs the cells (i, j) with i <= k and j <= l.  The chart
    holds the lines whose Plücker minor a_k b_l - a_l b_k is nonzero mod p:
    it counts them, and reads chart coordinates off the smooth ones only.  A
    line's rank is the same on every chart: on an overlap the charts' six
    equations differ by the invertible Sym^2 base change of the line's basis,
    so their Jacobians have equal rank at any point of the system.
    Deterministic: charts in lexicographic pivot order, points sorted.
    Raises ValueError above EXHAUSTIVE_PRIME_HARD_CAP.
    """
    if not is_probable_prime(prime):
        raise ValueError(f"{prime} is not prime")
    if prime > EXHAUSTIVE_PRIME_HARD_CAP:
        raise ValueError(
            f"exhaustive scan infeasible for p > {EXHAUSTIVE_PRIME_HARD_CAP}"
        )
    charts = sorted(all_charts() if charts is None else charts, key=lambda c: c.pivots)
    cells = [(i, j) for i, j in (cell.pivots for cell in all_charts())
             if any(i <= k and j <= l for k, l in (c.pivots for c in charts))]
    lines = _cell_lines(pencil, cells, prime)
    census = []
    for chart in charts:
        k, l = chart.pivots
        count = sum(1 for a, b, _ in lines if (a[k] * b[l] - a[l] * b[k]) % prime)
        points = sorted(coords for a, b, smooth in lines if smooth and (
            coords := _chart_coordinates(chart, a, b, prime)) is not None)
        census.append(CensusEntry(chart, count, tuple(points)))
    return census


def search_smooth_points(
    pencil: PencilOfQuadrics, prime: int, charts=None
) -> list[tuple[GrassmannChart, tuple[int, ...], int]]:
    """Smooth F_p-points of the Fano system, sorted by (chart pivots, coords).

    The smooth points of :func:`chart_census`, each with its Jacobian rank 6,
    so an empty result proves that none of the charts has one.
    """
    return [
        (entry.chart, pt, FANO_CODIMENSION)
        for entry in chart_census(pencil, prime, charts)
        for pt in entry.smooth_points
    ]


def _product(f, g) -> list[int]:
    """Product of two integer polynomials, coefficients lowest degree first."""
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def _conic_pair_zeros(A, B, p: int) -> list[tuple[int, int, int]] | None:
    """Common zeros in P^2(F_p) of two ternary quadratic forms, p odd.

    A form is (f00, f01, f02, f11, f12, f22), the coefficients of s_i s_j.
    Each zero is scaled to last nonzero coordinate 1, and the list is sorted.
    None means A and B share a component over the algebraic closure.

    On s2 = 0 the zeros are the common roots of the binary forms f(s0, s1, 0),
    one gcd.  On s2 = 1, the shear s0 = x + c y with c in {0, 1, 2} gives A
    or B a y^2 coefficient f(c, 1, 0) != 0, so they share no line
    x = const.  Then Res_y(A, B) = (a2 b0 - b2 a0)^2 - (a2 b1 - b2 a1)(a1 b0 -
    a0 b1), with a_k the coefficient of y^k, is a quartic in x; it vanishes
    identically only for a shared component, and each of its roots gives the
    common roots y by a gcd.  Every step is polynomial in log p, with no loop
    over F_p.
    """
    at_infinity = [(f[3], f[1], f[0]) for f in (A, B)]  # f(t, 1, 0)
    if not any(c % p for pair in at_infinity for c in pair):
        return None  # both contain the line s2 = 0
    zeros = [(t, 1, 0) for t in roots_mod_p(_pm_gcd(*at_infinity, p), p)]
    if A[0] % p == 0 and B[0] % p == 0:
        zeros.append((1, 0, 0))
    c = next(c for c in range(3) if any((f[0] * c * c + f[1] * c + f[3]) % p for f in (A, B)))

    def sheared(f):  # f(x + c y, y, 1): the y^2, y and 1 coefficients, in x
        return ((f[0] * c * c + f[1] * c + f[3]) % p,
                [f[4] + f[2] * c, f[1] + 2 * f[0] * c],
                [f[5], f[2], f[0]])

    (a2, a1, a0), (b2, b1, b0) = sheared(A), sheared(B)
    u = [a2 * t - b2 * s for s, t in zip(a0, b0)]
    v = [a2 * t - b2 * s for s, t in zip(a1, b1)]
    w = [s - t for s, t in zip(_product(a1, b0), _product(a0, b1))]
    resultant = [s - t for s, t in zip(_product(u, u), _product(v, w))]
    if not any(t % p for t in resultant):
        return None
    for x in roots_mod_p(resultant, p):
        powers = (1, x, x * x)
        in_y = [[sum(map(mul, f0, powers)), sum(map(mul, f1, powers)), f2]
                for f2, f1, f0 in ((a2, a1, a0), (b2, b1, b0))]
        zeros += [((x + c * y) % p, y, 1) for y in roots_mod_p(_pm_gcd(*in_y, p), p)]
    return sorted(zeros)


def _splitmix64(seed: int):
    """SplitMix64 (Steele, Lea and Flood 2014): 64-bit words from an integer seed.

    Integer arithmetic only, so a seed gives the same words on every Python.
    """
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
        yield z ^ (z >> 31)


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

    The planes come from SplitMix64 seeded by the forms' coefficients and p,
    so the result is deterministic.  p must be an odd prime; the cost is
    polynomial in log p.
    """
    if prime == 2 or not is_probable_prime(prime):
        raise ValueError(f"{prime} is not an odd prime")
    p, polars = prime, pencil.polars
    seed = p
    for q in (pencil.q1, pencil.q2):
        for (i, j), c in q.monomials():
            seed = next(_splitmix64(seed ^ (NUM_VARIABLES * i + j) ^ (c << 8)))
    words = _splitmix64(seed)
    limbs = p.bit_length() // 64 + 1
    half = (p + 1) // 2  # 1/2 mod p: Q(v) = v.Pv / 2

    def draw() -> int:
        value = 0
        for _ in range(limbs):
            value = value << 64 | next(words)
        return value % p

    def zeros_on(basis) -> list:
        pvs = [_polar_products(polars, v, p) for v in basis]
        conics = [tuple(
            sum(map(mul, basis[i], pvs[j][f])) * (half if i == j else 1) % p
            for i in range(3) for j in range(i, 3)) for f in range(2)]
        zeros = _conic_pair_zeros(*conics, p) or ()
        return [[sum(s * v[c] for s, v in zip(z, basis)) % p for c in range(NUM_VARIABLES)]
                for z in zeros]

    for _ in range(MAX_LINE_PLANES):
        for x in zeros_on([[draw() for _ in range(NUM_VARIABLES)] for _ in range(3)]):
            kernel = kernel_mod_p(_polar_products(polars, x, p), p)
            if len(kernel) != 4:
                continue  # a singular point of X_p, or x = 0
            # Kernel vector k has its last nonzero entry, 1, at its free
            # column, where the others are 0; so x has a nonzero coefficient
            # on k iff x is nonzero there, and the other three span a
            # complement of x in the kernel.
            drop = next(k for k in kernel if x[max(c for c, t in enumerate(k) if t)])
            for y in zeros_on([k for k in kernel if k is not drop]):
                (a, b), pivots = rref_mod_p([x, y], p)
                cell = GrassmannChart(pivots)
                jacobian = polar_jacobian(
                    cell, _polar_products(polars, a, p), _polar_products(polars, b, p)
                )
                if rank_mod_p(jacobian, p) == FANO_CODIMENSION:
                    return cell, _chart_coordinates(cell, a, b, p)
    return None


def hensel_certify(
    system: FanoSystem, pt, prime: int, lift_precision: int = 3
) -> LocalPointCertificate:
    """Certify liftability of an on-fano point and Newton-lift it mod p^k.

    liftable is True iff the Jacobian has rank 6 at the point; in that case
    (and for lift_precision >= 2) the point is lifted to a solution of all six
    equations modulo p^lift_precision as an executable witness.  The residue
    of the lift mod p always equals the input point.
    """
    report = verify_fano_point(system, pt, prime)
    if not report.on_fano:
        raise ValueError("point not on the system")
    coords = tuple(int(c) % prime for c in pt)
    liftable = report.jacobian_rank == FANO_CODIMENSION

    lift: tuple[int, ...] | None = None
    lift_modulus: int | None = None
    if liftable and lift_precision >= 2:
        x = list(coords)
        jac_rows = system.jacobian_mod(coords, prime)
        for e in range(1, lift_precision):
            modulus = prime ** (e + 1)
            residuals = [r % modulus for r in system.residuals(x)]
            rhs = [(-(r // prime**e)) % prime for r in residuals]
            # Rank 6 = number of rows, so the step always solves; free
            # variables are 0, i.e. delta lives on the pivot columns.
            delta = solve_mod_p(jac_rows, rhs, prime)
            if delta is None:
                raise ArithmeticError("Newton step failed on a full-rank system")
            x = [(x[l] + prime**e * delta[l]) % modulus for l in range(NUM_PARAMETERS)]
        final_modulus = prime**lift_precision
        if any(r % final_modulus for r in system.residuals(x)):
            raise ArithmeticError("Newton lift failed to satisfy the system")
        lift = tuple(x)
        lift_modulus = final_modulus

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
            f"Jacobian rank {report.jacobian_rank} < 6 at the point mod {prime}: "
            "not certifiably smooth; the Hensel criterion does not apply"
        )
    return LocalPointCertificate(
        place=prime,
        chart=system.chart,
        coordinates=coords,
        jacobian_rank=report.jacobian_rank,
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
    if p is None:
        coords = [Fraction(c) for c in v]
        if all(c == 0 for c in coords):
            raise ValueError("zero vector")
        return (
            evaluate_form(pencil.q1, coords) == 0
            and evaluate_form(pencil.q2, coords) == 0
        )
    if not is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    coords = [int(c) % p for c in v]
    if all(c == 0 for c in coords):
        raise ValueError("zero vector")
    return (
        evaluate_form(pencil.q1, coords) % p == 0
        and evaluate_form(pencil.q2, coords) % p == 0
    )
