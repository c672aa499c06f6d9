"""Local certificates: census, point search, Newton lifting, the real place."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from quadpencil import (
    NUM_PARAMETERS,
    CurveData,
    GrassmannChart,
    PencilOfQuadrics,
    all_charts,
    chart_census,
    curve_data,
    fano_system,
    hensel_certify,
    real_place_report,
    search_smooth_points,
    verify_fano_point,
    verify_projective_point,
)
from quadpencil.exactmath import UniPoly, rref_mod_p, sturm_count
from quadpencil.fano import chart_point_rows
from quadpencil.localcert import _cell_lines, _chart_points

from conftest import (
    BIG_PRIME,
    BIG_WITNESS,
    CHART_PIVOTS,
    F2_ON_FANO_COUNTS,
    F2_WITNESS,
    P3_LIFT_MOD_27,
    P3_SMOOTH_POINT,
    REAL_ROOTS_PRINTED,
    random_form,
)


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
    """The p^8 grid through the symbolic Fano system."""
    system = fano_system(pencil, chart)
    return [
        (point, verify_fano_point(system, point, p).jacobian_rank)
        for point in itertools.product(range(p), repeat=NUM_PARAMETERS)
        if not any(eq.evaluate_mod(point, p) for eq in system.equations)
    ]


def _pencils(example_pencil):
    rng = random.Random(3)
    return [example_pencil] + [
        PencilOfQuadrics(random_form(rng), random_form(rng)) for _ in range(2)
    ]


def test_scan_chart_matches_the_naive_scan(example_pencil):
    two_charts = [GrassmannChart(CHART_PIVOTS), GrassmannChart((0, 5))]
    points = smooth = 0
    for pencil in _pencils(example_pencil):
        for p, charts in ((2, all_charts()), (3, two_charts)):
            for chart, found in _chart_points(pencil, p, charts):
                assert found == _naive_scan(pencil, chart, p), (pencil, chart, p)
                points += len(found)
                smooth += sum(rank == 6 for _, rank in found)
    assert points >= 300 and smooth >= 10


def test_cell_scan_enumerates_each_line_once(example_pencil):
    cells = [chart.pivots for chart in all_charts()]
    for pencil in _pencils(example_pencil):
        for p in (2, 3):
            naive = set()
            for chart in all_charts():
                for point, _ in _naive_scan(pencil, chart, p):
                    echelon, _ = rref_mod_p(chart_point_rows(chart, point), p)
                    naive.add(tuple(map(tuple, echelon)))
            lines = [(tuple(a), tuple(b)) for a, b, _ in _cell_lines(pencil, cells, p)]
            assert len(lines) == len(set(lines)) == len(naive), (pencil, p)
            assert set(lines) == naive


def test_single_chart_census_equals_its_entry_in_the_full_census(example_pencil):
    for p in (3, 5):
        full = chart_census(example_pencil, p)
        for entry in full:
            assert chart_census(example_pencil, p, [entry.chart]) == [entry]


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


def test_hensel_lift_at_3_matches_frozen_value(example_pencil):
    system = fano_system(example_pencil, GrassmannChart(CHART_PIVOTS))
    cert = hensel_certify(system, P3_SMOOTH_POINT, 3, lift_precision=3)
    assert cert.liftable is True
    assert cert.lift == P3_LIFT_MOD_27
    assert cert.lift_modulus == 27
    for eq in system.equations:
        assert eq.evaluate(cert.lift) % 27 == 0
    # The lift reduces to the original point mod 3.
    assert tuple(c % 3 for c in cert.lift) == P3_SMOOTH_POINT


def test_hensel_lift_of_big_prime_witness(example_pencil):
    system = fano_system(example_pencil, GrassmannChart(CHART_PIVOTS))
    cert = hensel_certify(system, BIG_WITNESS, BIG_PRIME, lift_precision=3)
    assert cert.liftable is True
    assert cert.lift_modulus == BIG_PRIME**3
    assert tuple(c % BIG_PRIME for c in cert.lift) == BIG_WITNESS
    for eq in system.equations:
        assert eq.evaluate(cert.lift) % BIG_PRIME**3 == 0


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


def test_higher_precision_lifts_are_consistent(example_pencil):
    system = fano_system(example_pencil, GrassmannChart(CHART_PIVOTS))
    k3 = hensel_certify(system, P3_SMOOTH_POINT, 3, lift_precision=3)
    k5 = hensel_certify(system, P3_SMOOTH_POINT, 3, lift_precision=5)
    assert k5.lift_modulus == 3**5
    assert tuple(c % 27 for c in k5.lift) == k3.lift
    for eq in system.equations:
        assert eq.evaluate(k5.lift) % 3**5 == 0


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
        assert f.evaluate(lo) * f.evaluate(hi) < 0
        # The midpoint rounds to the printed 5-decimal approximation.
        midpoint = (lo + hi) / 2
        assert abs(midpoint - printed) < Fraction(5, 10**6)


def test_real_place_criterion_tri_state():
    # t^6 - 1: two real roots, the criterion applies.
    f_two = UniPoly((-1, 0, 0, 0, 0, 0, 1))
    assert sturm_count(f_two) == 2
    cd = CurveData(
        f=f_two, disc=2**12 * 46656, bad_primes=(2, 3), real_weierstrass_count=2
    )
    report = real_place_report(cd)
    assert report.liftable is True
    assert len(report.isolating_intervals) == 2

    # t^6 + 1: no real roots, so the sufficient criterion is inapplicable.
    f_none = UniPoly((1, 0, 0, 0, 0, 0, 1))
    assert sturm_count(f_none) == 0
    cd = CurveData(
        f=f_none, disc=2**12 * 46656, bad_primes=(2, 3), real_weierstrass_count=0
    )
    report = real_place_report(cd)
    assert report.liftable == "undetermined"
    assert report.isolating_intervals == ()

    # Six real Weierstrass points: still >= 1, so the criterion applies.
    f_six = UniPoly((720, -1764, 1624, -735, 175, -21, 1))  # (t-1)...(t-6)
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
