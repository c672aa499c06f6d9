"""Local point certification: F_p searches on Fano charts, Hensel lifting,
and the real place."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .exactmath import is_probable_prime, isolate_real_roots, rank_mod_p, solve_mod_p
from .fano import (
    FANO_CODIMENSION,
    NUM_PARAMETERS,
    FanoSystem,
    GrassmannChart,
    all_charts,
    fano_system,  # unused here, but qpbench/worker.py traces this name
    polar_jacobian,
    verify_fano_point,
)
from .pencil import CurveData, PencilOfQuadrics
from .quadric import NUM_VARIABLES, evaluate_form, polar_matrix

# The pipeline scans primes up to this bound (p^8 points per chart, via the
# Schubert-cell scan below, which is equivalent but far cheaper).
EXHAUSTIVE_PRIME_BOUND = 5

# Scan cap: a census of all 15 charts finds the points of X with pivot 0 in
# about p^4 closed-form steps (p^4 values of four free columns, the fifth
# solved) and tests about p^4 pairs of points.  At p = 31 that is 10^6 pairs,
# and `fano-search` on the example takes 1.6-2.3 s (CPython 3.11, 2 cores),
# the two halves about equal; the cost grows like p^4, so the cap stays here.
EXHAUSTIVE_PRIME_HARD_CAP = 31


@dataclass(frozen=True)
class LocalPointCertificate:
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


def _cell_lines(pencil: PencilOfQuadrics, cells, p: int) -> list:
    """Each F_p-line (a, b) of X in the given Schubert cells of Gr(2,6), with rank.

    Cell (i, j) holds the lines with echelon basis a (1 at column i, 0 before
    i and at j) and b (1 at j, 0 before j), one cell per line.  The points of
    X with each pivot are found once (each form is a quadratic in the free
    columns after the pivot); row a of cell (i, j) is those with pivot i and
    a_j = 0.  Pairs are kept when (Pb).a = 0 for both polar matrices P, and
    fano.polar_jacobian on chart (i, j) gives each line's rank.
    """
    polars = (polar_matrix(pencil.q1), polar_matrix(pencil.q2))

    def points(lead: int) -> list:
        free = range(lead + 1, NUM_VARIABLES)
        quads = [[[P[c][d] // (1 + (c == d)) for d in free] for c in free] for P in polars]
        states = [(P[lead][lead] // 2, [P[lead][c] for c in free]) for P in polars]
        return [(0,) * lead + (1,) + half for half in _half_zeros(states, quads, p)]

    def polar_products(v) -> list:
        return [[sum(map(mul, r, v)) % p for r in P] for P in polars]

    rows = {lead: points(lead) for lead in {c for cell in cells for c in cell}}
    rows_b = {j: [(b, polar_products(b)) for b in rows[j]] for j in {j for _, j in cells}}
    lines = []
    for i, j in cells:
        chart = GrassmannChart((i, j))
        for a in rows[i]:
            if a[j]:
                continue
            pas = None
            for b, pbs in rows_b[j]:
                if sum(map(mul, pbs[0], a)) % p == 0 and sum(map(mul, pbs[1], a)) % p == 0:
                    pas = pas or polar_products(a)
                    lines.append((a, b, rank_mod_p(polar_jacobian(chart, pas, pbs), p)))
    return lines


def _chart_points(pencil: PencilOfQuadrics, p: int, charts) -> list:
    """(chart, sorted (point, rank) pairs) for each chart, in pivot order.

    Scans the cells (i, j) with i <= k and j <= l for a chart (k, l): they hold
    its lines.  Line (a, b) is in chart (k, l) iff m = a_k b_l - a_l b_k != 0,
    with chart rows (b_l a - a_l b) / m and (a_k b - b_k a) / m.  Its rank is
    the same on every chart: on an overlap the charts' six equations differ by
    the invertible Sym^2 base change of the line's basis, so their Jacobians
    have equal rank at any point of the system.
    """
    charts = sorted(charts, key=lambda c: c.pivots)
    cells = [(i, j) for i, j in (cell.pivots for cell in all_charts())
             if any(i <= k and j <= l for k, l in (c.pivots for c in charts))]
    lines = _cell_lines(pencil, cells, p)

    def read_off(chart):
        k, l = chart.pivots
        for a, b, rank in lines:
            if minor := (a[k] * b[l] - a[l] * b[k]) % p:
                s = pow(minor, -1, p)
                yield tuple(t * s % p for c in chart.non_pivots for t in (
                    b[l] * a[c] - a[l] * b[c], a[k] * b[c] - b[k] * a[c])), rank

    return [(chart, sorted(read_off(chart))) for chart in charts]


@dataclass(frozen=True)
class CensusEntry:
    """Exhaustive per-chart tally of F_p points of the Fano system."""

    chart: GrassmannChart
    on_fano_count: int
    smooth_points: tuple[tuple[int, ...], ...]


def chart_census(
    pencil: PencilOfQuadrics, prime: int, charts=None
) -> list[CensusEntry]:
    """Exhaustive census over F_p of the given charts (all 15 by default).

    Each F_p-line of X is found once, in its Schubert cell, and then read off
    in every requested chart that contains it (see _chart_points).
    Deterministic: charts in lexicographic pivot order, points sorted.
    Raises ValueError above EXHAUSTIVE_PRIME_HARD_CAP.
    """
    if not is_probable_prime(prime):
        raise ValueError(f"{prime} is not prime")
    if prime > EXHAUSTIVE_PRIME_HARD_CAP:
        raise ValueError(
            f"exhaustive scan infeasible for p > {EXHAUSTIVE_PRIME_HARD_CAP}"
        )
    census = []
    for chart, points in _chart_points(
        pencil, prime, all_charts() if charts is None else charts
    ):
        smooth = tuple(pt for pt, rank in points if rank == FANO_CODIMENSION)
        census.append(CensusEntry(chart, len(points), smooth))
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
        jac_rows = [
            [entry.evaluate_mod(coords, prime) for entry in row]
            for row in system.jacobian
        ]
        for e in range(1, lift_precision):
            modulus = prime ** (e + 1)
            residuals = [eq.evaluate(x) % modulus for eq in system.equations]
            rhs = [(-(r // prime**e)) % prime for r in residuals]
            # Rank 6 = number of rows, so the step always solves; free
            # variables are 0, i.e. delta lives on the pivot columns.
            delta = solve_mod_p(jac_rows, rhs, prime)
            if delta is None:
                raise ArithmeticError("Newton step failed on a full-rank system")
            x = [(x[l] + prime**e * delta[l]) % modulus for l in range(NUM_PARAMETERS)]
        final_modulus = prime**lift_precision
        if any(eq.evaluate(x) % final_modulus for eq in system.equations):
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
