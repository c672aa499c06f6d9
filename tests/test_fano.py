"""Grassmannian charts and the Fano system of a pencil."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import prod

import pytest
from sympy import ZZ
from sympy.polys.rings import ring

from quadpencil import (
    FANO_CODIMENSION,
    NUM_PARAMETERS,
    FanoSystem,
    GrassmannChart,
    QuadraticForm,
    PencilOfQuadrics,
    all_charts,
    chart_point_rows,
    fano_system,
    parse_input,
    verify_fano_point,
)
from quadpencil.exactmath import rank_mod_p, rref_mod_p
from quadpencil.fano import _chart_coordinates, polar_jacobian
from quadpencil.quadric import polar_matrix

from conftest import (
    BIG_PRIME,
    BIG_WITNESS,
    CHART_PIVOTS,
    F2_WITNESS,
    NO_WITNESS_PATH,
    REPO_ROOT,
    evaluate_form,
    load_qpbench,
    random_form,
    reference_residuals,
)

# Reference: sympy expands Q(r*rowA + s*rowB) and differentiates the six
# equations, from chart rows built here from the pivots alone.
_LINE_RING, _R, _S, *_T = ring("r,s,t1:9", ZZ)
_CHART_RING, *_ = ring("t1:9", ZZ)


def _sympy_rows(chart) -> tuple[list, list]:
    """Symbolic rows (rowA, rowB) of the chart matrix, in t1..t8."""
    row_a, row_b = [_LINE_RING(0)] * 6, [_LINE_RING(0)] * 6
    row_a[chart.pivots[0]] = row_b[chart.pivots[1]] = _LINE_RING(1)
    free = [c for c in range(6) if c not in chart.pivots]
    for k, col in enumerate(free):
        row_a[col], row_b[col] = _T[2 * k], _T[2 * k + 1]
    return row_a, row_b


def _sympy_equations(pencil, chart) -> list[dict]:
    """Coefficient maps of r^2, rs and s^2 in Q(r*rowA + s*rowB), Q1 then Q2."""
    line = [_R * a + _S * b for a, b in zip(*_sympy_rows(chart))]
    equations = []
    for q in (pencil.q1, pencil.q2):
        expanded = sum((c * line[m] * line[n] for (m, n), c in q.coeffs.items()), _LINE_RING(0))
        for rs in ((2, 0), (1, 1), (0, 2)):
            equations.append({e[2:]: int(c) for e, c in expanded.items() if e[:2] == rs})
    return equations


def _sympy_partials(pencil, chart) -> list[list]:
    """sympy's d/dt_k of each of the six equations."""
    return [
        [_CHART_RING.from_dict(eq).diff(t) for t in _CHART_RING.gens]
        for eq in _sympy_equations(pencil, chart)
    ]


def _value(poly, point) -> int:
    """A coefficient map {exponents: c} evaluated at an integer point."""
    return sum(int(c) * prod(map(pow, point, e)) for e, c in poly.items())


def _at(partials, point) -> list[list[int]]:
    return [[_value(d, point) for d in row] for row in partials]


def _dense_pencils(count: int = 10) -> list:
    """Seeded dense pencils with odd mixed coefficients, from the verify-lift
    workload's generator."""
    pencils = []
    for claim in load_qpbench("gen").verify_lift_claims(7, 20, REPO_ROOT):
        forms = claim["forms"]
        odd = any(c % 2 for q in forms for (i, j), c in q.items() if i != j)
        pencil = PencilOfQuadrics(*(QuadraticForm(q) for q in forms))
        if odd and pencil not in pencils:
            pencils.append(pencil)
    assert len(pencils) >= count
    return pencils[:count]


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


def test_example_chart_matrix_layout():
    # Pivot columns 2 and 3 (1-based): rows (t1 1 0 t3 t5 t7; t2 0 1 t4 t6 t8).
    chart = GrassmannChart(CHART_PIVOTS)
    point = (1, 2, 3, 4, 5, 6, 7, 8)
    row_a, row_b = chart_point_rows(chart, point)
    assert list(row_a) == [1, 1, 0, 3, 5, 7]
    assert list(row_b) == [2, 0, 1, 4, 6, 8]


def test_chart_point_rows_are_the_symbolic_rows_and_invert_chart_coordinates():
    rng = random.Random(14)
    p = 101
    for chart in all_charts():
        row_a, row_b = _sympy_rows(chart)
        i, j = chart.pivots
        free = [k for k in range(6) if k not in chart.pivots]
        for _ in range(5):
            point = [rng.randint(-99, 99) for _ in range(NUM_PARAMETERS)]
            a, b = chart_point_rows(chart, point)
            assert a == [entry(0, 0, *point) for entry in row_a]
            assert b == [entry(0, 0, *point) for entry in row_b]
            # Identity at the pivots; the eight parameters appear exactly
            # once each, in column order.
            assert (a[i], a[j], b[i], b[j]) == (1, 0, 0, 1)
            assert [x for k in free for x in (a[k], b[k])] == point
            assert _chart_coordinates(chart, a, b, p) == tuple(c % p for c in point)
            # Every chart that holds the line reads off coordinates whose
            # rows span the same line mod p.
            line = rref_mod_p([a, b], p)
            for other in all_charts():
                coords = _chart_coordinates(other, a, b, p)
                if coords is not None:
                    assert rref_mod_p(chart_point_rows(other, coords), p) == line


def test_fano_system_vanishes_at_the_supplied_witnesses(example_pencil):
    system = fano_system(example_pencil, GrassmannChart(CHART_PIVOTS))
    at_two, at_big = system.residuals(F2_WITNESS), system.residuals(BIG_WITNESS)
    assert len(at_two) == len(at_big) == FANO_CODIMENSION
    assert all(r % 2 == 0 for r in at_two)
    assert all(r % BIG_PRIME == 0 for r in at_big)


def test_fano_equations_match_the_sympy_expansion(example_pencil):
    # The residuals are sympy's six equations evaluated at seeded integer
    # points, with entries small, negative and above 2^64.
    rng = random.Random(19)
    pencils = [example_pencil, parse_input(NO_WITNESS_PATH).pencil, *_dense_pencils()]
    for pencil in pencils:
        for chart in all_charts():
            system = fano_system(pencil, chart)
            equations = _sympy_equations(pencil, chart)
            for bound in (9, 2**70):
                point = [rng.randint(-bound, bound) for _ in range(NUM_PARAMETERS)]
                assert system.residuals(point) == [_value(eq, point) for eq in equations]


def test_residuals_match_the_coefficient_dict_reference(example_pencil):
    # From the polar products, on every chart: dense forms with odd mixed
    # coefficients, 1,501-digit coefficients and coordinates up to 10^1500.
    rng = random.Random(29)
    forms = [(example_pencil.q1, example_pencil.q2)]
    forms += [(p.q1, p.q2) for p in _dense_pencils()]
    forms += [tuple(QuadraticForm({(i, j): rng.randint(-10**1500, 10**1500)
                                   for i in range(6) for j in range(i, 6)}) for _ in range(2))]
    for pair in forms:
        for chart in all_charts():
            system = FanoSystem(chart, tuple(map(polar_matrix, pair)))
            for bound in (1, 9, 2**64, 10**1500):
                point = [rng.randint(-bound, bound) for _ in range(NUM_PARAMETERS)]
                assert system.residuals(point) == reference_residuals(pair, chart, point)


def test_fano_jacobian_entries_are_partial_derivatives(example_pencil):
    rng = random.Random(5)
    pencils = [example_pencil, PencilOfQuadrics(random_form(rng), random_form(rng)),
               _dense_pencils(1)[0]]
    for pencil in pencils:
        for chart in all_charts():
            system = fano_system(pencil, chart)
            partials = _sympy_partials(pencil, chart)
            for p in (2, 3, 101, BIG_PRIME):
                point = [rng.randrange(p) for _ in range(NUM_PARAMETERS)]
                expected = [[d % p for d in row] for row in _at(partials, point)]
                assert system.jacobian_mod(point, p) == expected


def test_polar_jacobian_is_the_fano_jacobian(example_pencil):
    rng = random.Random(6)
    pencils = [example_pencil, PencilOfQuadrics(random_form(rng), random_form(rng))]
    for pencil in pencils:
        polars = [polar_matrix(pencil.q1), polar_matrix(pencil.q2)]
        for chart in all_charts():
            partials = _sympy_partials(pencil, chart)
            for _ in range(3):
                point = [rng.randint(-9, 9) for _ in range(NUM_PARAMETERS)]
                a, b = chart_point_rows(chart, point)
                pas = [[sum(x * y for x, y in zip(r, a)) for r in P] for P in polars]
                pbs = [[sum(x * y for x, y in zip(r, b)) for r in P] for P in polars]
                assert polar_jacobian(chart, pas, pbs) == _at(partials, point)


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

    # Off the system with a full-rank Jacobian: still not smooth.
    off = verify_fano_point(
        fano_system(example_pencil, GrassmannChart((0, 2))), (1,) + (0,) * 7, 3
    )
    assert off.on_fano is False
    assert off.jacobian_rank == 6
    assert off.smooth is False


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
        rows = system.jacobian_mod(point, 3)
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
        if any(r % p for r in system.residuals(point)):
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


def test_verify_fano_point_floors_no_coordinate(example_pencil):
    system = fano_system(example_pencil, GrassmannChart((0, 2)))
    assert verify_fano_point(system, (2, 0, 0, 0, 0, 0, 2, 0), 3).smooth is True
    for point in [(2.7, 0, 0, 0, 0, 0, 2.2, 0), (Fraction(5, 2),) + (0,) * 7]:
        with pytest.raises(ValueError, match="must be ints"):
            verify_fano_point(system, point, 3)


def test_chart_point_rows_floors_no_coordinate():
    with pytest.raises(ValueError, match="must be ints"):
        chart_point_rows(GrassmannChart((0, 1)), (0.5,) + (0,) * 7)


def test_grassmann_chart_floors_no_pivot():
    for pivots in [(0.9, 2.5), (0, 2.0), ("0", "2")]:
        with pytest.raises(ValueError, match="must be ints"):
            GrassmannChart(pivots)
