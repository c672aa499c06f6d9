"""Local certificates: census, point search, Newton lifting, the real place."""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction
from operator import mul
from types import SimpleNamespace

import pytest

from quadpencil import (
    NUM_PARAMETERS,
    CensusEntry,
    CurveData,
    GrassmannChart,
    PencilOfQuadrics,
    QuadraticForm,
    all_charts,
    chart_census,
    curve_data,
    fano_system,
    hensel_certify,
    localcert,
    parse_input,
    parse_input_text,
    real_place_report,
    search_smooth_points,
    verify_fano_point,
    verify_projective_point,
)
from quadpencil.exactmath import rank_mod_p, rref_mod_p, sturm_count
from quadpencil.fano import _chart_coordinates, chart_point_rows, polar_jacobian
from quadpencil.localcert import (
    _cell_lines,
    _conic_pair_zeros,
    _half_zeros,
    _rank_is_6,
    _splitmix64,
    smooth_line_through_point,
)
from quadpencil.quadric import NUM_VARIABLES, polar_matrix

from conftest import (
    BIG_PRIME,
    BIG_WITNESS,
    CHART_PIVOTS,
    F2_ON_FANO_COUNTS,
    F2_WITNESS,
    NO_WITNESS_PATH,
    P3_LIFT_MOD_27,
    P3_SMOOTH_POINT,
    RANDOM_PLACES_PATH,
    REAL_ROOTS_PRINTED,
    REPO_ROOT,
    chart_read_off,
    evaluate_form,
    evaluate_poly,
    load_qpbench,
    random_form,
    reference_hensel,
)


exact = load_qpbench("exact")


def _ui(chart: GrassmannChart) -> tuple[int, int]:
    return (chart.pivots[0] + 1, chart.pivots[1] + 1)


def test_f2_census_matches_frozen_counts(example_pencil):
    census = chart_census(example_pencil, 2)
    assert len(census) == 15
    counts = {_ui(entry.chart): entry.on_fano_count for entry in census}
    assert counts == F2_ON_FANO_COUNTS
    # No chart carries a smooth point over F_2.
    assert all(not entry.smooth_points for entry in census)


def test_census_is_deterministic(example_pencil):
    a = chart_census(example_pencil, 2)
    b = chart_census(example_pencil, 2)
    assert a == b


def test_exhaustive_search_at_3_and_5(example_pencil):
    found3 = search_smooth_points(example_pencil, 3)
    assert found3, "expected smooth F_3-points"
    chart_points = [
        point for chart, point, rank in found3 if chart.pivots == CHART_PIVOTS
    ]
    assert P3_SMOOTH_POINT in chart_points
    assert len(chart_points) == 4
    assert all(rank == 6 for _, _, rank in found3)

    found5 = search_smooth_points(example_pencil, 5)
    assert found5, "expected smooth F_5-points"
    # Results arrive sorted by (chart pivots, coordinates), the same each run.
    assert found5 == sorted(found5, key=lambda it: (it[0].pivots, it[1]))
    assert found5 == search_smooth_points(example_pencil, 5)


def test_exhaustive_search_at_a_moderate_prime(example_pencil):
    # p = 7 is above the pipeline's scan bound but well below the cap.
    chart = GrassmannChart(CHART_PIVOTS)
    found = search_smooth_points(example_pencil, 7, charts=[chart])
    assert found == search_smooth_points(example_pencil, 7, charts=[chart])
    assert found, "expected smooth F_7-points on chart (2,3)"
    chart, point, rank = found[0]
    assert rank == 6
    report = hensel_certify(fano_system(example_pencil, chart), point, 7)
    assert report.liftable is True


def _naive_scan(pencil, chart, p):
    """The p^8 grid through the Fano system's residuals."""
    system = fano_system(pencil, chart)
    return [
        (point, verify_fano_point(system, point, p).jacobian_rank)
        for point in itertools.product(range(p), repeat=NUM_PARAMETERS)
        if not any(r % p for r in system.residuals(point))
    ]


def _odd_form(rng) -> QuadraticForm:
    """Every coefficient in [-3, 3], so mixed ones can be odd, unlike
    random_form's, whose polar matrices vanish mod 2."""
    return QuadraticForm({(i, j): c for i in range(6) for j in range(i, 6)
                          if (c := rng.randint(-3, 3))})


def _form_pair(rng) -> SimpleNamespace:
    """Two _odd_form forms and their polar matrices: all that the scans read
    of a pencil, so the pair needs no integral characteristic form."""
    q1, q2 = _odd_form(rng), _odd_form(rng)
    return SimpleNamespace(q1=q1, q2=q2, polars=(polar_matrix(q1), polar_matrix(q2)))


def _pencils(example_pencil):
    """The bundled forms and two _form_pair pairs, which have smooth
    F_2-lines."""
    rng = random.Random(3)
    return [example_pencil] + [_form_pair(rng) for _ in range(2)]


ALL_CELLS = [chart.pivots for chart in all_charts()]


def _read_off(entry: CensusEntry, p: int) -> CensusEntry:
    """The census entry with its smooth lines replaced by their sorted chart
    points."""
    return entry._replace(smooth_points=tuple(sorted(
        _chart_coordinates(entry.chart, a, b, p) for a, b in entry.smooth_points)))


def test_scan_chart_matches_the_naive_scan(example_pencil):
    """Every on-system point of the naive scan is a cell line read off in its
    chart, with smooth flag (naive rank == 6); the census keeps its count, and
    its smooth lines are the naive smooth points."""
    two_charts = [GrassmannChart(CHART_PIVOTS), GrassmannChart((0, 5))]
    points = 0
    smooth = {2: 0, 3: 0}
    for pencil in _pencils(example_pencil):
        for p, charts in ((2, all_charts()), (3, two_charts)):
            lines = _cell_lines(pencil, ALL_CELLS, p)
            census = chart_census(pencil, p, charts)
            for (chart, found), entry in zip(chart_read_off(lines, charts, p), census):
                naive = _naive_scan(pencil, chart, p)
                assert found == [(pt, rank == 6) for pt, rank in naive], (pencil, chart, p)
                assert _read_off(entry, p) == CensusEntry(
                    chart, len(naive), tuple(pt for pt, rank in naive if rank == 6))
                points += len(found)
                smooth[p] += len(entry.smooth_points)
    assert points >= 300 and sum(smooth.values()) >= 10 and smooth[2] > 0


def test_cell_scan_enumerates_each_line_once(example_pencil):
    smooth_at_2 = 0
    for pencil in _pencils(example_pencil):
        for p in (2, 3):
            naive = set()
            for chart in all_charts():
                for point, _ in _naive_scan(pencil, chart, p):
                    echelon, _ = rref_mod_p(chart_point_rows(chart, point), p)
                    naive.add(tuple(map(tuple, echelon)))
            found = _cell_lines(pencil, ALL_CELLS, p)
            lines = [(tuple(a), tuple(b)) for a, b, _ in found]
            assert len(lines) == len(set(lines)) == len(naive), (pencil, p)
            assert set(lines) == naive
            smooth_at_2 += p == 2 and sum(flag for _, _, flag in found)
    assert smooth_at_2 > 0


def _brute_half_zeros(states, quads, p):
    """Common zeros in F_p^n of the forms s + lin.x + sum_{k <= m} q_km x_k x_m."""
    n = len(states[0][1])
    pairs = [(k, m) for k in range(n) for m in range(k, n)]

    def value(state, q, x):
        s, lin = state
        return s + sum(map(mul, lin, x)) + sum(q[k][m] * x[k] * x[m] for k, m in pairs)

    return [x for x in itertools.product(range(p), repeat=n)
            if all(value(st, q, x) % p == 0 for st, q in zip(states, quads))]


def _half_zero_cases(rng, n, p):
    """Seeded pairs of n-variable forms [s, lin, q] as (states, quads).

    Random pairs, then the degenerate tails: both y^2 coefficients 0 mod p;
    Q2 = lam Q1 + mu (x_0^2 - x_0), whose combination a2 Q1 - a1 Q2 vanishes
    identically in y where x_0 is 0 or 1 and is a nonzero constant elsewhere;
    and proportional forms, Q2 = 0 among them.
    """
    def noise():
        return p * rng.randint(-2, 2)

    def form():
        return [rng.randint(-20, 20), [rng.randint(-20, 20) for _ in range(n)],
                [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]]

    def times(lam, f):
        s, lin, q = f
        return [lam * s + noise(), [lam * c + noise() for c in lin],
                [[lam * c + noise() for c in row] for row in q]]

    pairs = [(form(), form()) for _ in range(3)]
    if n:
        f, g = form(), form()
        f[2][-1][-1], g[2][-1][-1] = noise(), noise()
        pairs.append((f, g))
        f, mu = form(), rng.randrange(1, p)
        g = times(rng.randrange(1, p), f)
        g[2][0][0] += mu
        g[1][0] -= mu
        pairs.append((f, g))
    f = form()
    pairs += [(f, times(lam, f)) for lam in (1, p, rng.randrange(2, 2 * p))]
    return [([(f[0], f[1]), (g[0], g[1])], [f[2], g[2]]) for f, g in pairs]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_half_zeros_match_brute_force(p):
    rng = random.Random(p)
    zeros = 0
    for n in range(6):
        for states, quads in _half_zero_cases(rng, n, p):
            found = _half_zeros(states, quads, p)
            assert found == _brute_half_zeros(states, quads, p), (n, states, quads)
            zeros += len(found)
    assert zeros > 0


def _per_cell_half_zeros(states, quads, p, prefix=()):
    """_half_zeros before the closed-form tail: every last coordinate is tried."""
    k, n = len(prefix), len(states[0][1])
    if k == n:
        return [] if any(s % p for s, _ in states) else [prefix]
    if k == n - 1:
        xs = range(p)
        for (s, lin), q in zip(states, quads):
            xs = [x for x in xs if (s + (lin[k] + q[k][k] * x) * x) % p == 0]
        return [prefix + (x,) for x in xs]
    zeros = []
    for x in range(p):
        fixed = [
            (s + (lin[k] + q[k][k] * x) * x, [c + d * x for c, d in zip(lin, q[k])])
            for (s, lin), q in zip(states, quads)
        ]
        zeros += _per_cell_half_zeros(fixed, quads, p, prefix + (x,))
    return zeros


def _per_cell_lines(pencil, cells, p):
    """_cell_lines before the per-pivot point lists: row a is enumerated again
    for every cell, with a_j = 0 built in, and paired by (Pa).b."""
    polars = (polar_matrix(pencil.q1), polar_matrix(pencil.q2))

    def row_zeros(lead, free):
        quads = [[[P[c][d] // (1 + (c == d)) for d in free] for c in free] for P in polars]
        states = [(P[lead][lead] // 2, [P[lead][c] for c in free]) for P in polars]
        for half in _per_cell_half_zeros(states, quads, p):
            entries = {lead: 1, **dict(zip(free, half))}
            v = [entries.get(c, 0) for c in range(NUM_VARIABLES)]
            yield v, [[sum(map(mul, r, v)) % p for r in P] for P in polars]

    rows_b = {j: list(row_zeros(j, range(j + 1, NUM_VARIABLES)))
              for j in {j for _, j in cells}}
    return [
        (a, b, rank_mod_p(polar_jacobian(GrassmannChart((i, j)), pas, pbs), p))
        for i, j in cells
        for a, pas in row_zeros(i, [c for c in range(i + 1, NUM_VARIABLES) if c != j])
        for b, pbs in rows_b[j]
        if not any(sum(map(mul, pa, b)) % p for pa in pas)
    ]


def test_chart_points_match_the_per_cell_scan(example_pencil):
    """chart_census, its smooth lines read off as chart points, equals the
    per-chart read-off of the per-cell scan's lines with their exact ranks;
    the census of some charts, or of each one alone, is the same entries."""
    some_charts = [GrassmannChart(CHART_PIVOTS), GrassmannChart((0, 5)),
                   GrassmannChart((4, 5))]
    points = 0
    for pencil in _pencils(example_pencil):
        for p in (5, 7):
            expected = [
                CensusEntry(chart, len(found), tuple(pt for pt, rank in found if rank == 6))
                for chart, found in chart_read_off(
                    _per_cell_lines(pencil, ALL_CELLS, p), all_charts(), p)
            ]
            census = chart_census(pencil, p)
            assert [_read_off(entry, p) for entry in census] == expected
            assert chart_census(pencil, p, some_charts[::-1]) == [
                entry for entry in census if entry.chart in some_charts]
            for entry in census:
                assert chart_census(pencil, p, [entry.chart]) == [entry]
            points += sum(entry.on_fano_count for entry in expected)
    assert points >= 1000


def _filter_pencils(example_pencil):
    """The bundled forms, 20 random_form pencils, and 10 pairs with odd mixed
    coefficients (_form_pair): random_form's polar matrices vanish mod 2, so
    only the latter have smooth F_2-lines."""
    rng = random.Random(16)
    return [example_pencil, parse_input(NO_WITNESS_PATH).pencil] + [
        PencilOfQuadrics(random_form(rng), random_form(rng)) for _ in range(20)
    ] + [_form_pair(rng) for _ in range(10)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rank_filter_is_sound(example_pencil, p):
    """Every smooth flag is (exact rank == 6) on the line's cell chart, and a
    line where u = Pa and v = Pb are dependent on the chart's non-pivot
    columns for some form, which _rank_is_6 rules out from the minors alone,
    has exact rank < 6."""
    ruled_out = smooth = 0
    for pencil in _filter_pencils(example_pencil):
        polars = (polar_matrix(pencil.q1), polar_matrix(pencil.q2))
        for a, b, flag in _cell_lines(pencil, ALL_CELLS, p):
            chart = GrassmannChart((a.index(1), b.index(1)))
            pas, pbs = ([[sum(map(mul, r, v)) % p for r in P] for P in polars] for v in (a, b))
            rank = rank_mod_p(polar_jacobian(chart, pas, pbs), p)
            assert flag == (rank == 6), (pencil, a, b, p)
            if any(rank_mod_p([[pa[c] for c in chart.non_pivots], [pb[c] for c in chart.non_pivots]],
                              p) < 2 for pa, pb in zip(pas, pbs)):
                assert rank < 6, (pencil, a, b, p)
                ruled_out += 1
            smooth += flag
    assert ruled_out > 0 and smooth > 0


def _rank_blocks(rng, p: int, count: int):
    """Seeded (chart, pas, pbs, kind) cases of _rank_is_6 at p.

    kind names how the 4x4 block W = [u1 v1 u2 v2] on the non-pivot columns
    was built: "random" (entries 0 one time in five), "zero" (one of the
    four vectors 0 there), "u2 in span" (u2 in span(u1, v1)), "v1 = c u1",
    and "rank 3 equal" / "rank 3 unequal", a dependency w from the last
    column, w4 != 0, with w1 w4 = w2 w3 or w1 w4 != w2 w3.  The pivot
    columns carry random entries, which the test must ignore.
    """
    charts = all_charts()
    kinds = ("random", "zero", "u2 in span", "v1 = c u1", "rank 3 equal", "rank 3 unequal")
    for n in range(count):
        kind = kinds[n % len(kinds)]
        chart = rng.choice(charts)
        cols = chart.non_pivots
        u1, v1, u2, v2 = ([rng.randrange(p) if rng.randrange(5) else 0 for _ in range(6)]
                          for _ in range(4))
        if kind == "zero":
            vec = rng.choice((u1, v1, u2, v2))
            for c in cols:
                vec[c] = 0
        elif kind == "u2 in span":
            x, y = rng.randrange(p), rng.randrange(p)
            for c in cols:
                u2[c] = (x * u1[c] + y * v1[c]) % p
        elif kind == "v1 = c u1":
            x = rng.randrange(p)
            for c in cols:
                v1[c] = x * u1[c] % p
        elif kind.startswith("rank 3"):
            w1, w2, w3, w4 = (rng.randrange(p) for _ in range(4))
            w4 = w4 or 1
            if kind == "rank 3 equal":
                w1 = w2 * w3 * pow(w4, -1, p) % p
            elif (w1 * w4 - w2 * w3) % p == 0:
                w1 = (w1 + 1) % p
            inverse = pow(w4, -1, p)
            for c in cols:  # W w = 0
                v2[c] = -(w1 * u1[c] + w2 * v1[c] + w3 * u2[c]) * inverse % p
        yield chart, [u1, u2], [v1, v2], kind


@pytest.mark.parametrize("p", [2, 3, 5, 7, 1000003, 2**61 - 1])
def test_rank_is_6_matches_the_jacobian_rank(p):
    """_rank_is_6 answers rank_mod_p(polar_jacobian(...)) == 6 on seeded
    blocks, including det W = 0 blocks of both rank-3 kinds."""
    rng = random.Random(p)
    answers: dict = {}
    rank_3 = {"rank 3 equal": 0, "rank 3 unequal": 0}
    for chart, pas, pbs, kind in _rank_blocks(rng, p, 1200):
        want = rank_mod_p(polar_jacobian(chart, pas, pbs), p) == 6
        assert _rank_is_6(chart, pas, pbs, p) == want, (chart, pas, pbs, kind)
        answers.setdefault(kind, set()).add(want)
        block = [[vec[c] for vec in (pas[0], pbs[0], pas[1], pbs[1])] for c in chart.non_pivots]
        if kind in rank_3 and rank_mod_p(block, p) == 3:
            rank_3[kind] += 1
    assert all(True in answers[kind] for kind in ("random", "u2 in span", "rank 3 unequal"))
    assert answers["zero"] == answers["v1 = c u1"] == answers["rank 3 equal"] == {False}
    assert min(rank_3.values()) >= 50


def test_single_chart_census_equals_its_entry_in_the_full_census(example_pencil):
    for p in (3, 5):
        full = chart_census(example_pencil, p)
        for entry in full:
            assert chart_census(example_pencil, p, [entry.chart]) == [entry]


# sha256 of the JSON list of every CensusEntry chart_census returns, [pivots,
# on_fano_count, smooth_points in scan order], for the bundled files and 20
# seeded pencils at each of CENSUS_PRIMES, on all charts and on three charts
# passed in reverse pivot order.  The oracle tests above sort what they
# compare; this pins the order too.
CENSUS_PRIMES = (2, 3, 5, 7)
CENSUS_SHA256 = "eaecef94c444e51f84e707a2be144576f20c50ee527fa8209711f4c9526b1d8f"


def test_census_results_are_pinned(example_pencil):
    rng = random.Random(20261020)
    pencils = [example_pencil, parse_input(NO_WITNESS_PATH).pencil]
    pencils += [_form_pair(rng) for _ in range(10)]
    pencils += [SimpleNamespace(polars=(polar_matrix(random_form(rng)),
                                        polar_matrix(random_form(rng)))) for _ in range(10)]
    reverse = [GrassmannChart(pivots) for pivots in ((4, 5), (0, 5), (2, 3))]
    found = []
    for pencil in pencils:
        for p in CENSUS_PRIMES:
            for charts in (None, reverse):
                found += [[list(entry.chart.pivots), entry.on_fano_count,
                           [[list(a), list(b)] for a, b in entry.smooth_points]]
                          for entry in chart_census(pencil, p, charts)]
    assert sum(len(entry[2]) for entry in found) > 1000
    assert hashlib.sha256(json.dumps(found).encode()).hexdigest() == CENSUS_SHA256


def test_exhaustive_search_finds_only_smooth_points(example_pencil):
    for p in (5, 7):
        found = search_smooth_points(example_pencil, p)
        assert found
        for chart, point, rank in found:
            report = verify_fano_point(fano_system(example_pencil, chart), point, p)
            assert report.smooth and report.jacobian_rank == rank == 6


def test_search_rejects_bad_arguments(example_pencil):
    with pytest.raises(ValueError):
        search_smooth_points(example_pencil, 6)
    with pytest.raises(ValueError):
        search_smooth_points(example_pencil, 37)


def _conic_value(f, s) -> int:
    f00, f01, f02, f11, f12, f22 = f
    s0, s1, s2 = s
    return (f00 * s0 * s0 + f01 * s0 * s1 + f02 * s0 * s2
            + f11 * s1 * s1 + f12 * s1 * s2 + f22 * s2 * s2)


def _times(l, m) -> tuple:
    """The product of two ternary linear forms, as a conic."""
    return tuple(l[i] * m[j] + (l[j] * m[i] if i != j else 0)
                 for i in range(3) for j in range(i, 3))


def _share_component(A, B, p, plane, common) -> bool:
    """True iff A and B share a component over the algebraic closure.

    Such a component is defined over F_p (it is the gcd or a Galois-stable
    factor of it), so A and B are linearly dependent mod p or both vanish on
    an F_p-line.  Up to p = 13 every line of the plane is scanned.  Above,
    that scan is too slow; there, by Bezout, conics without a common
    component meet in at most 4 points, while a shared F_p-line holds p + 1.
    """
    if any((a * d - b * c) % p for (a, b), (c, d) in itertools.combinations(zip(A, B), 2)):
        if p > 13:
            return len(common) > 4
        return any(
            all(_conic_value(A, s) % p == 0 == _conic_value(B, s) % p
                for s in plane if sum(map(mul, n, s)) % p == 0)
            for n in plane
        )
    return True


def _conic_pairs(rng, p) -> list:
    """Seeded conic pairs mod p, with the degenerate kinds added on purpose."""
    def form():
        return [rng.randrange(p) for _ in range(6)]

    def linear():
        return [rng.randrange(p) for _ in range(3)]

    pairs = [(form(), form()) for _ in range(60)]
    for _ in range(8):
        line = linear()
        pairs.append((_times(line, linear()), _times(line, linear())))  # shared line
        f = form()
        pairs += [(f, f), (f, [rng.randrange(1, p) * c for c in f])]  # equal conics
        # Common zeros only on s2 = 0: A = (s0 + k s1) s1, B = A + m s2^2.
        k, lam, m = rng.randrange(p), rng.randrange(1, p), rng.randrange(1, p)
        a = [lam * c for c in _times((1, k, 0), (0, 1, 0))]
        pairs.append((a, [c + m * (i == 5) for i, c in enumerate(a)]))
    return pairs


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 23, 31])
def test_conic_pair_zeros_match_brute_force(p):
    rng = random.Random(100 + p)
    plane = sorted({(x, y, 1) for x in range(p) for y in range(p)}
                   | {(x, 1, 0) for x in range(p)} | {(1, 0, 0)})
    assert len(plane) == p * p + p + 1
    kinds = {"finite": 0, "shared": 0, "at infinity only": 0}
    for A, B in _conic_pairs(rng, p):
        zeros = _conic_pair_zeros(A, B, p)
        common = [s for s in plane
                  if _conic_value(A, s) % p == 0 == _conic_value(B, s) % p]
        assert (zeros is None) == _share_component(A, B, p, plane, common), (A, B)
        if zeros is None:
            kinds["shared"] += 1
            continue
        assert zeros == common, (A, B)
        kinds["finite"] += 1
        kinds["at infinity only"] += bool(zeros) and all(s[2] == 0 for s in zeros)
    assert min(kinds.values()) >= 8, kinds


def _good_places(rng, count):
    """Seeded small-coefficient smooth pencils and their good primes 3 and 5.

    A prime is good when it divides neither disc(f) nor the leading
    coefficient of f (the curve discriminant's other factor is 2^12).
    """
    places = []
    while len(places) < count:
        q1, q2 = random_form(rng), random_form(rng)
        f = exact.char_form(q1.coeffs, q2.coeffs)
        if not exact.is_smooth(f):
            continue
        bad = exact.discriminant(f) * f[-1]
        places += [(q1, q2, p) for p in (3, 5) if bad % p]
    return places


def test_lines_through_points_at_good_primes_recheck_independently():
    for q1, q2, p in _good_places(random.Random(20261018), 20):
        pencil = PencilOfQuadrics(q1, q2)
        chart, coords = smooth_line_through_point(pencil, p)
        ui = _ui(chart)
        assert not any(r % p for r in exact.line_residuals(q1.coeffs, q2.coeffs, ui, coords))
        assert exact.rank_mod(exact.line_jacobian(q1.coeffs, q2.coeffs, ui, coords), p) == 6
        cert = hensel_certify(fano_system(pencil, chart), coords, p)
        assert cert.liftable is True and cert.lift_modulus == p**3
        # The line comes in its Schubert cell's chart: its chart rows are
        # its reduced echelon basis.
        a, b = exact.line_rows(ui, coords)
        assert rref_mod_p([a, b], p) == ([[x % p for x in a], [x % p for x in b]],
                                         list(chart.pivots))


def test_line_through_a_point_at_a_large_bad_prime():
    # No loop over F_p: one plane search at the bad prime 149743897, where
    # X_p has one singular point, takes milliseconds.
    pencil = parse_input(NO_WITNESS_PATH).pencil
    chart, coords = smooth_line_through_point(pencil, BIG_PRIME)
    assert smooth_line_through_point(pencil, BIG_PRIME) == (chart, coords)
    cert = hensel_certify(fano_system(pencil, chart), coords, BIG_PRIME)
    assert cert.jacobian_rank == 6 and cert.lift_modulus == BIG_PRIME**3


def test_splitmix64_matches_the_reference_words():
    # The first outputs of Vigna's splitmix64.c from state 0: every plane
    # smooth_line_through_point draws comes from these steps.
    state, words = 0, []
    for _ in range(4):
        state, word = _splitmix64(state)
        words.append(word)
    assert words == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                     0x06C45D188009454F, 0xF88BB8A8724C81EC]


# sha256 of the JSON list of smooth_line_through_point results, [pivots,
# coordinates] or null, for the example and 40 seeded pencils at each of
# LINE_SEARCH_PRIMES: good and bad primes, by evaluation and by gcd.
LINE_SEARCH_PRIMES = (3, 5, 7, 11, 13, 31, 1009, 1000003, BIG_PRIME)
LINE_SEARCH_SHA256 = "c5aec9f06fda07e82f2130ca812e291929c0fb7636ed646df7ed75266bc9abd9"


def test_line_search_results_are_pinned(example_pencil):
    rng = random.Random(20261019)
    pencils = [example_pencil] + [PencilOfQuadrics(random_form(rng), random_form(rng))
                                  for _ in range(40)]
    found = []
    for pencil in pencils:
        for p in LINE_SEARCH_PRIMES:
            line = smooth_line_through_point(pencil, p)
            found.append(None if line is None else [list(line[0].pivots), list(line[1])])
    assert sum(line is None for line in found) == 4
    assert hashlib.sha256(json.dumps(found).encode()).hexdigest() == LINE_SEARCH_SHA256


def _random_pencil_places() -> list:
    """(label, pencil, p) at every bad prime p >= 7 of the pencils in
    RANDOM_PLACES_PATH, then at 149743897 of no_witness_pencil.txt: 296
    places, none of which any method but a line through a point searches."""
    with open(RANDOM_PLACES_PATH) as handle:
        blocks = handle.read().split("\n\n")[1:]
    places = []
    for block in blocks:
        label = block.splitlines()[0].removeprefix("# ")
        pencil = parse_input_text(block).pencil
        places += [(label, pencil, p) for p in curve_data(pencil).bad_primes if p >= 7]
    places.append(("no_witness", parse_input(NO_WITNESS_PATH).pencil, BIG_PRIME))
    return places


# sha256 of the JSON list of smooth_line_through_point results, as for
# LINE_SEARCH_SHA256, at the places of _random_pencil_places in order.
RANDOM_PLACES_SHA256 = "1d197bf2b6ffc38e968119b5d6f854351f5085e94e76fa4aec999f4df8a0edc1"


def test_lines_at_the_bad_primes_of_random_pencils_are_pinned():
    places = _random_pencil_places()
    assert len(places) == 296
    found = []
    for _, pencil, p in places:
        line = smooth_line_through_point(pencil, p)
        found.append(None if line is None else [list(line[0].pivots), list(line[1])])
    # Three have no F_p-line at all; seed 1 #36 has 16 F_7-lines, none smooth.
    assert [(label, p) for (label, _, p), line in zip(places, found) if line is None] == [
        ("seed 1 #34", 11), ("seed 1 #35", 13), ("seed 1 #36", 7), ("seed 3 #24", 11)]
    assert hashlib.sha256(json.dumps(found).encode()).hexdigest() == RANDOM_PLACES_SHA256


def test_line_through_a_point_rejects_bad_primes(example_pencil):
    for p in (2, 9):
        with pytest.raises(ValueError, match="not an odd prime"):
            smooth_line_through_point(example_pencil, p)


def _independent_check(pencil, cert, point) -> list[str]:
    """qpbench's plain-integer re-check of a certificate's point, Jacobian
    rank and lift, from the forms' coefficients alone."""
    chart = [c + 1 for c in cert.chart.pivots]
    return load_qpbench("check").check_point(
        pencil.q1.coeffs, pencil.q2.coeffs, chart, point, cert.place,
        cert.jacobian_rank, cert.lift, cert.lift_modulus,
    )


def test_hensel_lift_at_3_matches_frozen_value(example_pencil):
    system = fano_system(example_pencil, GrassmannChart(CHART_PIVOTS))
    cert = hensel_certify(system, P3_SMOOTH_POINT, 3, lift_precision=3)
    assert cert.liftable is True
    assert cert.lift == P3_LIFT_MOD_27
    assert cert.lift_modulus == 27
    assert _independent_check(example_pencil, cert, P3_SMOOTH_POINT) == []
    # The lift reduces to the original point mod 3.
    assert tuple(c % 3 for c in cert.lift) == P3_SMOOTH_POINT


def test_hensel_lift_of_big_prime_witness(example_pencil):
    system = fano_system(example_pencil, GrassmannChart(CHART_PIVOTS))
    cert = hensel_certify(system, BIG_WITNESS, BIG_PRIME, lift_precision=3)
    assert cert.liftable is True
    assert cert.lift_modulus == BIG_PRIME**3
    assert tuple(c % BIG_PRIME for c in cert.lift) == BIG_WITNESS
    assert _independent_check(example_pencil, cert, BIG_WITNESS) == []


# sha256 of the JSON list [[lift, lift_modulus], ...] that hensel_certify
# gives for verify_lift_claims(7, 10): ten dense pencils, most with odd
# mixed coefficients, each at k = 3 and k = 12, then the bundled witness.
DENSE_LIFTS_SHA256 = "a08d7be5ee361feb209d14e39223dec2374f8c51fe9fff22c9480425f51b0e44"


def test_hensel_lifts_on_dense_forms_are_pinned():
    gen, check = load_qpbench("gen"), load_qpbench("check")
    claims = gen.verify_lift_claims(7, 10, REPO_ROOT)
    assert sorted({claim["precision"] for claim in claims}) == [3, 12]
    lifts = []
    for claim in claims:
        pencil = PencilOfQuadrics(*(QuadraticForm(q) for q in claim["forms"]))
        chart = GrassmannChart(tuple(c - 1 for c in claim["chart"]))
        cert = hensel_certify(fano_system(pencil, chart), claim["coords"], claim["prime"],
                              lift_precision=claim["precision"])
        report = {"on_system": True, "jacobian_rank": cert.jacobian_rank,
                  "smooth": cert.liftable, "lift": list(cert.lift),
                  "lift_modulus": cert.lift_modulus}
        assert check.check_claim(claim, report) == []
        lifts.append([list(cert.lift), cert.lift_modulus])
    assert len(lifts) == 22
    assert hashlib.sha256(json.dumps(lifts).encode()).hexdigest() == DENSE_LIFTS_SHA256


def test_hensel_refuses_rank_deficient_points(example_pencil):
    system = fano_system(example_pencil, GrassmannChart(CHART_PIVOTS))
    cert = hensel_certify(system, F2_WITNESS, 2, lift_precision=3)
    assert cert.liftable is False
    assert cert.lift is None
    assert cert.jacobian_rank == 4


def test_hensel_rejects_points_off_the_system(example_pencil):
    system = fano_system(example_pencil, GrassmannChart(CHART_PIVOTS))
    with pytest.raises(ValueError):
        hensel_certify(system, (1, 0, 0, 0, 0, 0, 0, 1), 3)


def test_hensel_rank_agrees_with_verify_fano_point(example_pencil):
    """hensel_certify checks its point and ranks J itself; its rank and
    verdict must be verify_fano_point's at every census point and dense lift
    claim.  Both bundled files hold the example's pencil."""
    assert parse_input(NO_WITNESS_PATH).pencil.polars == example_pencil.polars
    ranks = {}
    for k, pencil in enumerate(_pencils(example_pencil)):
        for p in (2, 3, 5):
            lines = _cell_lines(pencil, ALL_CELLS, p)
            for chart, found in chart_read_off(lines, all_charts(), p):
                system = fano_system(pencil, chart)
                for point, _ in found:
                    cert = hensel_certify(system, point, p)
                    report = verify_fano_point(system, point, p)
                    assert cert.jacobian_rank == report.jacobian_rank, (k, chart, point, p)
                    assert cert.liftable == report.smooth
                    ranks[k, chart.pivots, point, p] = cert.jacobian_rank
    assert ranks[0, CHART_PIVOTS, F2_WITNESS, 2] == 4
    assert set(ranks.values()) == {0, 2, 4, 5, 6} and len(ranks) > 1500
    claims = load_qpbench("gen").verify_lift_claims(7, 10, REPO_ROOT)
    for claim in claims:
        pencil = PencilOfQuadrics(*(QuadraticForm(q) for q in claim["forms"]))
        system = fano_system(pencil, GrassmannChart(tuple(c - 1 for c in claim["chart"])))
        cert = hensel_certify(system, claim["coords"], claim["prime"], claim["precision"])
        report = verify_fano_point(system, claim["coords"], claim["prime"])
        assert cert.jacobian_rank == report.jacobian_rank == 6
    assert len(claims) == 22


def _hensel_outcome(function, *args):
    try:
        return function(*args)
    except ValueError as error:
        return str(error)


def test_hensel_matches_the_reference(example_pencil):
    """hensel_certify ranks J in its one elimination of [J | I]; its point,
    rank and lift must be the three-elimination reference's at every depth:
    census points of ranks 0, 2, 4, 5 and 6 (the smooth ones at p = 2 and 3
    also at depth 12, where p^e grows slowest), the dense lift claims at
    28-64 bit primes, and a pencil with 1,501-digit coefficients."""
    cases = []
    for pencil in _pencils(example_pencil):
        for p in (2, 3, 5):
            lines = _cell_lines(pencil, ALL_CELLS, p)
            for chart, found in chart_read_off(lines, all_charts(), p):
                for point, smooth in found:
                    deep = smooth and p < 5
                    cases.append((pencil, chart, point, p, (1, 2, 3, 12) if deep else (1, 2, 3)))
    for claim in load_qpbench("gen").verify_lift_claims(7, 10, REPO_ROOT):
        pencil = PencilOfQuadrics(*(QuadraticForm(q) for q in claim["forms"]))
        chart = GrassmannChart(tuple(c - 1 for c in claim["chart"]))
        cases.append((pencil, chart, claim["coords"], claim["prime"], (1, 2, 3, 12)))
    huge = 3 * 10**1500
    pencil = PencilOfQuadrics(
        QuadraticForm({(i, i): huge if i < 4 else 1 for i in range(6)}),
        QuadraticForm({(i, i): i + 1 for i in range(6)}),
    )
    for p in (11, 17, 1000003):
        chart, point = smooth_line_through_point(pencil, p)
        cases.append((pencil, chart, point, p, (1, 2, 3, 12)))
    # Off the system, and a composite modulus.
    cases += [(*cases[0][:2], (1, 0, 0, 0, 0, 0, 0, 1), 3, (3,)),
              (*cases[0][:2], F2_WITNESS, 9, (3,))]
    ranks, lifted = set(), 0
    for pencil, chart, point, p, depths in cases:
        system = fano_system(pencil, chart)
        for k in depths:
            cert = _hensel_outcome(hensel_certify, system, point, p, k)
            expected = _hensel_outcome(reference_hensel, (pencil.q1, pencil.q2), system, point,
                                       p, k)
            if isinstance(expected, str):
                assert cert == expected
                continue
            assert (cert.coordinates, cert.jacobian_rank, cert.lift, cert.lift_modulus) == expected
            assert cert.liftable == (cert.jacobian_rank == 6)
            ranks.add(cert.jacobian_rank)
            lifted += cert.lift is not None
    assert ranks == {0, 2, 4, 5, 6} and lifted > 3000


def test_hensel_rejects_composite_moduli(example_pencil):
    system = fano_system(example_pencil, GrassmannChart(CHART_PIVOTS))
    for n in (4, 9, 15):
        with pytest.raises(ValueError, match="not prime"):
            hensel_certify(system, F2_WITNESS, n)


def test_higher_precision_lifts_are_consistent(example_pencil):
    system = fano_system(example_pencil, GrassmannChart(CHART_PIVOTS))
    k3 = hensel_certify(system, P3_SMOOTH_POINT, 3, lift_precision=3)
    k5 = hensel_certify(system, P3_SMOOTH_POINT, 3, lift_precision=5)
    assert k5.lift_modulus == 3**5
    assert tuple(c % 27 for c in k5.lift) == k3.lift
    assert _independent_check(example_pencil, k5, P3_SMOOTH_POINT) == []


def test_real_place_report_on_example(example_pencil):
    report = real_place_report(curve_data(example_pencil))
    assert report.place == "real"
    assert report.liftable is True
    intervals = report.isolating_intervals
    assert len(intervals) == 2
    for printed, (lo, hi) in zip(REAL_ROOTS_PRINTED, intervals):
        width = hi - lo
        assert width < Fraction(1, 10**6)
        # Genuine isolation: exactly one sign change of f across [lo, hi].
        f = example_pencil.char_form
        assert evaluate_poly(f, lo) * evaluate_poly(f, hi) < 0
        # The midpoint rounds to the printed 5-decimal approximation.
        midpoint = (lo + hi) / 2
        assert abs(midpoint - printed) < Fraction(5, 10**6)


def test_real_place_criterion_tri_state():
    # t^6 - 1: two real roots, the criterion applies.
    f_two = (-1, 0, 0, 0, 0, 0, 1)
    assert sturm_count(f_two) == 2
    cd = CurveData(
        f=f_two, disc=2**12 * 46656, bad_primes=(2, 3), real_weierstrass_count=2
    )
    report = real_place_report(cd)
    assert report.liftable is True
    assert len(report.isolating_intervals) == 2

    # t^6 + 1: no real roots, so the sufficient criterion is inapplicable.
    f_none = (1, 0, 0, 0, 0, 0, 1)
    assert sturm_count(f_none) == 0
    cd = CurveData(
        f=f_none, disc=2**12 * 46656, bad_primes=(2, 3), real_weierstrass_count=0
    )
    report = real_place_report(cd)
    assert report.liftable == "undetermined"
    assert report.isolating_intervals == ()

    # Six real Weierstrass points: still >= 1, so the criterion applies.
    f_six = (720, -1764, 1624, -735, 175, -21, 1)  # (t-1)...(t-6)
    assert sturm_count(f_six) == 6
    cd = CurveData(f=f_six, disc=2**12, bad_primes=(2,), real_weierstrass_count=6)
    assert real_place_report(cd).liftable is True


def test_verify_projective_point(example_pencil):
    assert verify_projective_point(example_pencil, (1, 0, 0, 0, 0, 0)) is True
    assert verify_projective_point(example_pencil, (2, 0, 0, 0, 0, 0)) is True
    assert verify_projective_point(example_pencil, (0, 0, 0, 1, 0, 0)) is False
    assert verify_projective_point(example_pencil, (1, 0, 0, 0, 0, 0), p=7) is True
    assert (
        verify_projective_point(example_pencil, (0, 0, 0, 1, 0, 1), p=2) is True
    )  # x = z = 1: Q1 = 1 - 2 - 1 = -2 = 0 mod 2, Q2 = 2 = 0 mod 2
    with pytest.raises(ValueError):
        verify_projective_point(example_pencil, (0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        verify_projective_point(example_pencil, (0, 0, 0, 0, 0, 2), p=2)


def test_verify_projective_point_matches_the_coefficient_dict_oracle():
    # v.Pv / 2 against q(v) summed over the coefficient dicts, over Q and at
    # p = 2, 3, 5.  Forms have odd squares, and one coordinate v_k = +-1 lets
    # c_kk put v on Q = 0 over Q, or mod p only (q(v) = p*r, r != 0), for
    # both forms or for Q1 alone.  At p = 2 every v.Pv is even, so dropping
    # the halving there passes every point.
    rng = random.Random(32)
    counts = {(p, on): 0 for p in (None, 2, 3, 5) for on in (False, True)}
    odd_squares = 0
    for trial in range(800):
        p = (None, 2, 3, 5)[trial % 4]
        v = [rng.randint(-4, 4) for _ in range(NUM_VARIABLES)]
        k = rng.randrange(NUM_VARIABLES)
        v[k] = rng.choice((-1, 1))
        built = rng.choice((0, 1, 2))  # how many forms are put through v
        forms = []
        for f in range(2):
            coeffs = dict(random_form(rng).coeffs)
            if f < built:
                shift = 0 if p is None else p * rng.choice((-2, -1, 1, 2))
                rest = sum(c * v[i] * v[j] for (i, j), c in coeffs.items() if (i, j) != (k, k))
                coeffs[(k, k)] = shift - rest  # v_k^2 = 1, so now q(v) = shift
            forms.append(QuadraticForm({key: c for key, c in coeffs.items() if c}
                                       or {(k, k): 1}))
        odd_squares += any(c % 2 for q in forms for (i, j), c in q.coeffs.items() if i == j)
        pencil = PencilOfQuadrics(*forms)
        coords = [Fraction(c, 3) for c in v] if p is None and trial % 8 == 0 else v
        on = all((evaluate_form(q, coords) if p is None else evaluate_form(q, v) % p) == 0
                 for q in forms)
        assert verify_projective_point(pencil, coords, p) is on, (forms, v, p)
        counts[p, on] += 1
    assert min(counts.values()) >= 50, counts
    assert odd_squares >= 400


def test_verify_projective_point_floors_no_coordinate(example_pencil):
    # int() would test (1, 0, ...) and Fraction() would read the strings.
    for v, p in [((1.9, 0, 0, 0, 0, 0), 7), ((0.5, 0, 0, 0, 0, 0), 7),
                 ((Fraction(3, 2), 0, 0, 0, 0, 0), 7), (("1", 0, 0, 0, 0, 0), 7),
                 (("1/2", 0, 0, 0, 0, 0), None), ((0.1, 0, 0, 0, 0, 0), None)]:
        with pytest.raises(ValueError, match="must be ints"):
            verify_projective_point(example_pencil, v, p)
    assert verify_projective_point(example_pencil, (Fraction(1, 2), 0, 0, 0, 0, 0)) is True


def test_hensel_certify_floors_no_coordinate(example_pencil):
    system = fano_system(example_pencil, GrassmannChart((0, 2)))
    assert hensel_certify(system, (2, 0, 0, 0, 0, 0, 2, 0), 3).liftable is True
    with pytest.raises(ValueError, match="must be ints"):
        hensel_certify(system, (2.7, 0, 0, 0, 0, 0, 2.2, 0), 3)
    # A float or string modulus is not taken for a prime: the coordinates
    # are ints, so the error must not blame them.
    for bad in (3.0, 7.0, "3"):
        with pytest.raises(ValueError, match="is not an int"):
            hensel_certify(system, (2, 0, 0, 0, 0, 0, 2, 0), bad)
        with pytest.raises(ValueError, match="is not an int"):
            verify_fano_point(system, (2, 0, 0, 0, 0, 0, 2, 0), bad)


def test_hensel_certify_checks_the_lift_precision(example_pencil):
    # Each is refused outright: True would otherwise skip the lift, 0 and -1
    # would pass as no lift, and the rest would raise TypeError.
    system = fano_system(example_pencil, GrassmannChart((0, 2)))
    for bad in (2.5, 3.0, "3", None, True, False, 0, -1):
        with pytest.raises(ValueError, match="lift_precision must be an int >= 1"):
            hensel_certify(system, (2, 0, 0, 0, 0, 0, 2, 0), 3, lift_precision=bad)
    assert hensel_certify(system, (2, 0, 0, 0, 0, 0, 2, 0), 3, lift_precision=1).lift is None


def test_hensel_certify_eliminates_once_at_every_depth(example_pencil, monkeypatch):
    """J mod p is the same at every lift of the point, so one elimination of
    [J | I] serves every Newton level."""
    calls = []

    def counted(matrix, p):
        calls.append(p)
        return rref_mod_p(matrix, p)

    monkeypatch.setattr(localcert, "rref_mod_p", counted)
    claim = load_qpbench("gen").verify_lift_claims(7, 10, REPO_ROOT)[0]
    pencil = PencilOfQuadrics(*(QuadraticForm(q) for q in claim["forms"]))
    dense = fano_system(pencil, GrassmannChart(tuple(c - 1 for c in claim["chart"])))
    witness = fano_system(example_pencil, GrassmannChart(CHART_PIVOTS))
    for system, point, p, rank in [(dense, claim["coords"], claim["prime"], 6),
                                   (witness, F2_WITNESS, 2, 4)]:
        for k in (1, 2, 3, 12):
            calls.clear()
            cert = hensel_certify(system, point, p, k)
            assert cert.jacobian_rank == rank
            assert (cert.lift_modulus == p**k) == (rank == 6 and k > 1)
            assert calls == [p], (rank, k)
