"""Grassmannian charts and the Fano system of a pencil."""

from __future__ import annotations

import itertools
import random

import pytest

from quadpencil import (
    FANO_CODIMENSION,
    NUM_PARAMETERS,
    GrassmannChart,
    QuadraticForm,
    PencilOfQuadrics,
    all_charts,
    chart_point_rows,
    chart_rows,
    evaluate_form,
    fano_system,
    verify_fano_point,
)
from quadpencil.exactmath import rank_mod_p
from quadpencil.fano import polar_jacobian
from quadpencil.quadric import polar_matrix

from conftest import BIG_PRIME, BIG_WITNESS, CHART_PIVOTS, F2_WITNESS, random_form


def test_there_are_exactly_15_distinct_charts():
    charts = all_charts()
    assert len(charts) == 15
    assert len({c.pivots for c in charts}) == 15
    for chart in charts:
        i, j = chart.pivots
        assert 0 <= i < j < 6


def test_chart_validation():
    with pytest.raises(ValueError):
        GrassmannChart((2, 2))
    with pytest.raises(ValueError):
        GrassmannChart((3, 1))
    with pytest.raises(ValueError):
        GrassmannChart((0, 6))


def test_chart_is_an_immutable_record():
    chart = GrassmannChart((1, 2))
    assert repr(chart) == "GrassmannChart(pivots=(1, 2))"
    assert chart == ((1, 2),) and hash(chart) == hash(((1, 2),))
    with pytest.raises(AttributeError):
        chart.pivots = (0, 1)
    assert chart.non_pivots == (0, 3, 4, 5)
    assert chart.non_pivots is chart.non_pivots


def test_chart_rows_have_identity_at_pivots():
    for chart in all_charts():
        row_a, row_b = chart_rows(chart)
        i, j = chart.pivots
        point = tuple(range(1, NUM_PARAMETERS + 1))
        a = [entry.evaluate(point) for entry in row_a]
        b = [entry.evaluate(point) for entry in row_b]
        assert a[i] == 1 and a[j] == 0
        assert b[i] == 0 and b[j] == 1
        # The eight parameters appear exactly once each, in column order.
        free = [k for k in range(6) if k not in chart.pivots]
        seen = []
        for k in free:
            seen.extend([a[k], b[k]])
        assert seen == list(range(1, NUM_PARAMETERS + 1))


def test_example_chart_matrix_layout():
    # Pivot columns 2 and 3 (1-based): rows (t1 1 0 t3 t5 t7; t2 0 1 t4 t6 t8).
    chart = GrassmannChart(CHART_PIVOTS)
    point = (1, 2, 3, 4, 5, 6, 7, 8)
    row_a, row_b = chart_point_rows(chart, point)
    assert list(row_a) == [1, 1, 0, 3, 5, 7]
    assert list(row_b) == [2, 0, 1, 4, 6, 8]


def test_fano_system_vanishes_at_the_supplied_witnesses(example_pencil):
    system = fano_system(example_pencil, GrassmannChart(CHART_PIVOTS))
    assert len(system.equations) == FANO_CODIMENSION
    for eq in system.equations:
        assert eq.evaluate_mod(F2_WITNESS, 2) == 0
        assert eq.evaluate_mod(BIG_WITNESS, BIG_PRIME) == 0


def test_fano_jacobian_entries_are_partial_derivatives(example_pencil):
    system = fano_system(example_pencil, GrassmannChart(CHART_PIVOTS))
    jac = system.jacobian
    assert len(jac) == FANO_CODIMENSION
    rng = random.Random(5)
    point = tuple(rng.randint(-4, 4) for _ in range(NUM_PARAMETERS))
    for row, eq in zip(jac, system.equations):
        assert len(row) == NUM_PARAMETERS
        for k in range(NUM_PARAMETERS):
            assert row[k] == eq.derivative(k)
            assert row[k].evaluate(point) == eq.derivative(k).evaluate(point)


def test_polar_jacobian_is_the_fano_jacobian(example_pencil):
    rng = random.Random(6)
    pencils = [example_pencil, PencilOfQuadrics(random_form(rng), random_form(rng))]
    for pencil in pencils:
        polars = [polar_matrix(pencil.q1), polar_matrix(pencil.q2)]
        for chart in all_charts():
            system = fano_system(pencil, chart)
            for _ in range(3):
                point = [rng.randint(-9, 9) for _ in range(NUM_PARAMETERS)]
                a, b = chart_point_rows(chart, point)
                pas = [[sum(x * y for x, y in zip(r, a)) for r in P] for P in polars]
                pbs = [[sum(x * y for x, y in zip(r, b)) for r in P] for P in polars]
                assert polar_jacobian(chart, pas, pbs) == [
                    [entry.evaluate(point) for entry in row] for row in system.jacobian
                ]


def test_verify_fano_point_reports(example_pencil):
    system = fano_system(example_pencil, GrassmannChart(CHART_PIVOTS))

    report2 = verify_fano_point(system, F2_WITNESS, 2)
    assert report2.on_fano is True
    assert report2.jacobian_rank == 4  # rank-deficient over F_2: not smooth
    assert report2.smooth is False

    report_big = verify_fano_point(system, BIG_WITNESS, BIG_PRIME)
    assert report_big.on_fano is True
    assert report_big.jacobian_rank == 6
    assert report_big.smooth is True

    zero = verify_fano_point(system, (0,) * 8, 2)
    assert zero.on_fano is True  # the zero point solves the system mod 2
    assert zero.jacobian_rank == 2
    assert zero.smooth is False


def test_verify_fano_point_validates_input(example_pencil):
    system = fano_system(example_pencil, GrassmannChart(CHART_PIVOTS))
    with pytest.raises(ValueError):
        verify_fano_point(system, F2_WITNESS, 4)
    with pytest.raises(ValueError):
        verify_fano_point(system, (0, 1, 2), 3)


def test_jacobian_rank_is_invariant_under_equation_permutation(example_pencil):
    system = fano_system(example_pencil, GrassmannChart(CHART_PIVOTS))
    rng = random.Random(23)
    for _ in range(10):
        point = tuple(rng.randrange(3) for _ in range(NUM_PARAMETERS))
        rows = [
            [entry.evaluate_mod(point, 3) for entry in row]
            for row in system.jacobian
        ]
        base = rank_mod_p(rows, 3)
        perm = rows[:]
        rng.shuffle(perm)
        assert rank_mod_p(perm, 3) == base


def test_on_fano_points_parametrize_lines_on_both_quadrics(example_pencil):
    # Over F_3, every on-system chart point yields an ambient line killing
    # both forms: three zeros of a binary quadratic force identical vanishing.
    p = 3
    found = 0
    chart = GrassmannChart(CHART_PIVOTS)
    system = fano_system(example_pencil, chart)
    for point in itertools.product(range(p), repeat=NUM_PARAMETERS):
        if any(eq.evaluate_mod(point, p) for eq in system.equations):
            continue
        found += 1
        row_a, row_b = chart_point_rows(chart, point)
        for r, s in ((1, 0), (0, 1), (1, 1)):
            ambient = tuple(r * a + s * b for a, b in zip(row_a, row_b))
            assert evaluate_form(example_pencil.q1, ambient) % p == 0
            assert evaluate_form(example_pencil.q2, ambient) % p == 0
    assert found == 4  # the example chart carries exactly 4 points over F_3


def test_line_parametrization_on_split_quadrics():
    # The pencil (uv, wx): lines inside both quadrics exist, e.g. the span of
    # e_u, e_w lies on {uv = 0} and {wx = 0}.
    pencil = PencilOfQuadrics(
        QuadraticForm({(0, 1): 1}), QuadraticForm({(2, 3): 1})
    )
    chart = GrassmannChart((0, 2))  # pivot columns u and w
    system = fano_system(pencil, chart)
    # Chart point 0: rows are exactly e_u and e_w.
    report = verify_fano_point(system, (0,) * 8, 5)
    assert report.on_fano is True
