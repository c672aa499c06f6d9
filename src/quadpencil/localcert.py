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
# split scan below, which is equivalent but far cheaper).
EXHAUSTIVE_PRIME_BOUND = 5

# Scan cap: the split scan enumerates 2 * p^4 half-tuples per chart, which
# stays tractable up to about p = 31 and not much beyond.
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


def _half_zeros(states, quads, p: int, prefix: tuple[int, ...] = ()) -> list:
    """Common zeros in F_p^4 of 4-variable quadratics, by nested partial sums.

    Each form is a state (value, linear coefficients) with quadratic
    coefficients q; fixing x_k adds (lin_k + q_kk x_k) x_k to the value and
    q_km x_k to each later linear coefficient.
    """
    k = len(prefix)
    if k == 3:
        xs = range(p)
        for (s, lin), q in zip(states, quads):
            xs = [x for x in xs if (s + (lin[3] + q[3][3] * x) * x) % p == 0]
        return [prefix + (x,) for x in xs]
    zeros = []
    for x in range(p):
        fixed = [
            (s + (lin[k] + q[k][k] * x) * x, [c + d * x for c, d in zip(lin, q[k])])
            for (s, lin), q in zip(states, quads)
        ]
        zeros += _half_zeros(fixed, quads, p, prefix + (x,))
    return zeros


def _scan_chart(pencil: PencilOfQuadrics, chart: GrassmannChart, p: int) -> list:
    """All on-system points of one chart over F_p with their Jacobian ranks.

    Works from the polar matrices P alone: row A (1 at pivot i, t_2k at
    non-pivot c_k) and row B (1 at pivot j, t_2k+1 at c_k) span the line, and
    its equations are Q(a), a^T P b and Q(b).  Split scan: each form on a row
    is a 4-variable quadratic (constant q_ii, linear q_i,c_k, quadratic
    q_c_k,c_l), whose common zeros on the two p^4 half-grids are paired by the
    polar dots (Pa).b; the Jacobian comes from Pa and Pb (fano.polar_jacobian).
    Returns sorted (point, rank) pairs, the same as the naive p^8 scan.
    """
    polars = (polar_matrix(pencil.q1), polar_matrix(pencil.q2))
    cols = chart.non_pivots
    quads = [[[P[c][d] // (1 + (c == d)) for d in cols] for c in cols] for P in polars]
    rows = []
    for pivot in chart.pivots:
        states = [(P[pivot][pivot] // 2, [P[pivot][c] for c in cols]) for P in polars]
        zeros = []
        for half in _half_zeros(states, quads, p):
            v = list(half)
            for c in chart.pivots:  # ascending, so each lands at its column
                v.insert(c, int(c == pivot))
            products = [[sum(map(mul, r, v)) % p for r in P] for P in polars]
            zeros.append((half, v, products))
        rows.append(zeros)

    found = []
    for half_a, _, pas in rows[0]:
        for half_b, b, pbs in rows[1]:
            if any(sum(map(mul, pa, b)) % p for pa in pas):
                continue
            point = tuple(t for pair in zip(half_a, half_b) for t in pair)
            found.append((point, rank_mod_p(polar_jacobian(chart, pas, pbs), p)))
    found.sort()
    return found


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
    for chart in sorted(all_charts() if charts is None else charts,
                        key=lambda c: c.pivots):
        points = _scan_chart(pencil, chart, prime)
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
