"""Local point certification: F_p searches on Fano charts, Hensel lifting,
and the real place."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .exactmath import is_probable_prime, isolate_real_roots, rank_mod_p, solve_mod_p
from .fano import (
    FANO_CODIMENSION,
    NUM_PARAMETERS,
    FanoSystem,
    GrassmannChart,
    all_charts,
    fano_system,
    verify_fano_point,
)
from .pencil import CurveData, PencilOfQuadrics
from .quadric import NUM_VARIABLES, evaluate_form, polar_matrix

# Default evaluation budget per chart for pseudo-random sampling (p > 5).
DEFAULT_BUDGET = 10**6

# Primes up to this bound are searched exhaustively (p^8 points per chart,
# via the split scan below, which is equivalent but far cheaper).
EXHAUSTIVE_PRIME_BOUND = 5

# Forced-exhaustive cap: the split scan enumerates 2 * p^4 half-tuples per
# chart, which stays tractable up to about p = 31 and not much beyond.
EXHAUSTIVE_PRIME_HARD_CAP = 31

# Fixed PRNG seed recorded in certificates (64-bit golden-ratio constant).
DEFAULT_SEED = 0x9E3779B97F4A7C15


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


def _half_templates(chart: GrassmannChart):
    """Ambient-vector builders for the two chart rows.

    Returns (row_a_slots, row_b_slots): each is a 6-list whose entries are
    either an int constant (pivot columns) or the index 0..3 of the half-tuple
    parameter occupying that ambient column.
    """
    i, j = chart.pivots
    non_pivots = [c for c in range(NUM_VARIABLES) if c not in (i, j)]
    row_a: list[object] = [0] * NUM_VARIABLES
    row_b: list[object] = [0] * NUM_VARIABLES
    row_a[i] = 1
    row_b[j] = 1
    for k, col in enumerate(non_pivots):
        row_a[col] = ("t", k)
        row_b[col] = ("t", k)
    return row_a, row_b


def _fill(template, half: tuple[int, ...]) -> list[int]:
    return [half[s[1]] if isinstance(s, tuple) else s for s in template]


def _scan_chart(
    pencil: PencilOfQuadrics, system: FanoSystem, p: int
) -> list[tuple[tuple[int, ...], int]]:
    """All on-fano points of one chart over F_p with their Jacobian ranks.

    Split scan: equations c_rr(Q1), c_rr(Q2) involve only the first-row
    parameters (t1, t3, t5, t7) and c_ss(Q1), c_ss(Q2) only the second-row
    parameters (t2, t4, t6, t8), so the p^8 grid is enumerated as two p^4
    half-grids filtered by the two bilinear polar equations.  The result set
    is identical to the naive p^8 scan.
    """
    q1, q2 = pencil.q1, pencil.q2
    p1 = polar_matrix(q1)
    p2 = polar_matrix(q2)
    template_a, template_b = _half_templates(system.chart)

    half_range = list(product(range(p), repeat=4))
    a_ok = []
    for half in half_range:
        amb = _fill(template_a, half)
        if evaluate_form(q1, amb) % p == 0 and evaluate_form(q2, amb) % p == 0:
            a_ok.append((half, amb))
    b_ok = []
    for half in half_range:
        amb = _fill(template_b, half)
        if evaluate_form(q1, amb) % p == 0 and evaluate_form(q2, amb) % p == 0:
            b_ok.append((half, amb))

    found = []
    for half_a, amb_a in a_ok:
        u1 = [sum(amb_a[i] * p1[i][j] for i in range(6)) % p for j in range(6)]
        u2 = [sum(amb_a[i] * p2[i][j] for i in range(6)) % p for j in range(6)]
        for half_b, amb_b in b_ok:
            if sum(u1[j] * amb_b[j] for j in range(6)) % p:
                continue
            if sum(u2[j] * amb_b[j] for j in range(6)) % p:
                continue
            point = (
                half_a[0], half_b[0], half_a[1], half_b[1],
                half_a[2], half_b[2], half_a[3], half_b[3],
            )
            jac_rows = [
                [entry.evaluate_mod(point, p) for entry in row]
                for row in system.jacobian
            ]
            found.append((point, rank_mod_p(jac_rows, p)))
    found.sort()
    return found


@dataclass(frozen=True)
class CensusEntry:
    """Exhaustive per-chart tally of F_p points of the Fano system."""

    chart: GrassmannChart
    on_fano_count: int
    smooth_points: tuple[tuple[int, ...], ...]


def chart_census(pencil: PencilOfQuadrics, prime: int) -> list[CensusEntry]:
    """Exhaustive census of all 15 charts over F_p (p small).

    Deterministic: charts in lexicographic pivot order, points sorted.
    """
    if not is_probable_prime(prime):
        raise ValueError(f"{prime} is not prime")
    if prime > EXHAUSTIVE_PRIME_HARD_CAP:
        raise ValueError(
            f"exhaustive census infeasible for p > {EXHAUSTIVE_PRIME_HARD_CAP}"
        )
    census = []
    for chart in all_charts():
        points = _scan_chart(pencil, fano_system(pencil, chart), prime)
        smooth = tuple(pt for pt, rank in points if rank == FANO_CODIMENSION)
        census.append(CensusEntry(chart, len(points), smooth))
    return census


def search_smooth_points(
    pencil: PencilOfQuadrics,
    prime: int,
    budget: int = DEFAULT_BUDGET,
    charts=None,
    exhaustive: bool | None = None,
    seed: int = DEFAULT_SEED,
    stop_after: int | None = None,
) -> list[tuple[GrassmannChart, tuple[int, ...], int]]:
    """Smooth F_p-points of the Fano system, sorted by (chart pivots, coords).

    Exhaustive scan of every chart for p <= 5 (or when exhaustive=True, up to
    the hard cap); deterministic seeded pseudo-random sampling of `budget`
    points per chart otherwise.  A sampling run that finds nothing is not a
    proof of absence; an exhaustive one is.
    """
    if not is_probable_prime(prime):
        raise ValueError(f"{prime} is not prime")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if charts is None:
        charts = all_charts()
    charts = sorted(charts, key=lambda c: c.pivots)
    do_exhaustive = exhaustive if exhaustive is not None else (
        prime <= EXHAUSTIVE_PRIME_BOUND
    )
    if do_exhaustive and prime > EXHAUSTIVE_PRIME_HARD_CAP:
        raise ValueError(
            f"exhaustive scan infeasible for p > {EXHAUSTIVE_PRIME_HARD_CAP}"
        )

    results: list[tuple[GrassmannChart, tuple[int, ...], int]] = []
    if do_exhaustive:
        for chart in charts:
            results.extend(
                (chart, pt, rank)
                for pt, rank in _scan_chart(pencil, fano_system(pencil, chart), prime)
                if rank == FANO_CODIMENSION
            )
            if stop_after is not None and len(results) >= stop_after:
                break
    else:
        for chart in charts:
            system = fano_system(pencil, chart)
            rng = random.Random(seed * 1_000_003 + 53 * chart.pivots[0] + chart.pivots[1])
            seen: set[tuple[int, ...]] = set()
            for _ in range(budget):
                point = tuple(rng.randrange(prime) for _ in range(NUM_PARAMETERS))
                if point in seen:
                    continue
                seen.add(point)
                if any(eq.evaluate_mod(point, prime) for eq in system.equations):
                    continue
                jac_rows = [
                    [entry.evaluate_mod(point, prime) for entry in row]
                    for row in system.jacobian
                ]
                rank = rank_mod_p(jac_rows, prime)
                if rank == FANO_CODIMENSION:
                    results.append((chart, point, rank))
                    if stop_after is not None and len(results) >= stop_after:
                        break
            if stop_after is not None and len(results) >= stop_after:
                break

    results.sort(key=lambda item: (item[0].pivots, item[1]))
    return results


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
