"""Quadratic forms: the polar matrix, checked against the coefficient-dict
oracles (Gram matrix, evaluation, polar form, gradient, line restriction)."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from quadpencil import NUM_VARIABLES, QuadraticForm
from quadpencil.quadric import form_coefficients, polar_matrix

from conftest import (
    coefficient,
    evaluate_form,
    gradient_at,
    gram_matrix,
    polar_form,
    restrict_to_line,
)


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _times(rows, v) -> list:
    return [_dot(row, v) for row in rows]


def random_form(rng: random.Random) -> QuadraticForm:
    coeffs = {}
    while not coeffs:
        coeffs = {
            (i, j): rng.randint(-9, 9)
            for i in range(NUM_VARIABLES)
            for j in range(i, NUM_VARIABLES)
            if rng.random() < 0.4
        }
        coeffs = {k: c for k, c in coeffs.items() if c}
    return QuadraticForm(coeffs)


def test_gram_agrees_with_evaluation_on_500_random_vectors():
    rng = random.Random(20240817)
    for trial in range(500):
        q = random_form(rng)
        m = gram_matrix(q)
        v = tuple(rng.randint(-20, 20) for _ in range(NUM_VARIABLES))
        direct = evaluate_form(q, v)
        via_gram = sum(
            Fraction(v[i]) * m[i][j] * v[j]
            for i in range(NUM_VARIABLES)
            for j in range(NUM_VARIABLES)
        )
        assert via_gram == direct, (trial, q.coeffs, v)
        # q(v) = v.Pv / 2, exactly: v.Pv is even.
        twice = _dot(v, _times(polar_matrix(q), v))
        assert twice % 2 == 0 and twice // 2 == direct, (trial, q.coeffs, v)


def test_gram_matrix_is_symmetric_with_half_integer_off_diagonals():
    rng = random.Random(7)
    for _ in range(50):
        q = random_form(rng)
        m = gram_matrix(q)
        for i in range(NUM_VARIABLES):
            for j in range(NUM_VARIABLES):
                assert m[i][j] == m[j][i]
                assert (2 * m[i][j]).denominator == 1


def test_gram_matrix_of_the_example_form(example_q1):
    m = gram_matrix(example_q1)
    assert m[0][1] == Fraction(1, 2)
    assert m[1][2] == -2
    assert m[3][3] == 1
    assert m[5][5] == -1
    assert m[0][0] == 0


def test_evaluate_form_is_homogeneous_of_degree_two():
    rng = random.Random(11)
    for _ in range(100):
        q = random_form(rng)
        v = tuple(rng.randint(-10, 10) for _ in range(NUM_VARIABLES))
        c = rng.randint(-5, 5)
        scaled = tuple(c * x for x in v)
        assert evaluate_form(q, scaled) == c * c * evaluate_form(q, v)


def test_gradient_matches_finite_difference_structure():
    # q(v + e_i) - q(v) - q(e_i) equals the i-th gradient entry minus the
    # diagonal correction; equivalently grad q(v) = 2 M v exactly.
    rng = random.Random(13)
    for _ in range(100):
        q = random_form(rng)
        m = gram_matrix(q)
        v = tuple(rng.randint(-10, 10) for _ in range(NUM_VARIABLES))
        grad = gradient_at(q, v)
        for i in range(NUM_VARIABLES):
            expected = 2 * sum(
                m[i][j] * v[j] for j in range(NUM_VARIABLES)
            )
            assert grad[i] == expected
        assert grad == _times(polar_matrix(q), v)


def test_polar_form_is_bilinear_and_symmetric():
    rng = random.Random(17)
    for _ in range(100):
        q = random_form(rng)
        a = tuple(rng.randint(-8, 8) for _ in range(NUM_VARIABLES))
        b = tuple(rng.randint(-8, 8) for _ in range(NUM_VARIABLES))
        assert polar_form(q, a, b) == polar_form(q, b, a)
        apb = tuple(x + y for x, y in zip(a, b))
        # polarization identity: q(a+b) = q(a) + q(b) + B(a, b)
        assert evaluate_form(q, apb) == (
            evaluate_form(q, a) + evaluate_form(q, b) + polar_form(q, a, b)
        )


def test_polar_matrix_is_twice_the_gram_matrix_and_gives_the_polar_form():
    rng = random.Random(23)
    for _ in range(100):
        q = random_form(rng)
        rows = polar_matrix(q)
        m = gram_matrix(q)
        assert rows == [[2 * x for x in row] for row in m]
        assert all(isinstance(x, int) for row in rows for x in row)
        a = tuple(rng.randint(-8, 8) for _ in range(NUM_VARIABLES))
        b = tuple(rng.randint(-8, 8) for _ in range(NUM_VARIABLES))
        assert sum(
            a[i] * rows[i][j] * b[j]
            for i in range(NUM_VARIABLES)
            for j in range(NUM_VARIABLES)
        ) == polar_form(q, a, b)


def test_restrict_to_line_round_trip():
    # restrict_to_line returns (A, B, C) with q(r*a + s*b) = A r^2 + B rs + C s^2.
    rng = random.Random(19)
    for _ in range(100):
        q = random_form(rng)
        a = tuple(rng.randint(-6, 6) for _ in range(NUM_VARIABLES))
        b = tuple(rng.randint(-6, 6) for _ in range(NUM_VARIABLES))
        coeff_a, coeff_ab, coeff_b = restrict_to_line(q, a, b)
        pa, pb = (_times(polar_matrix(q), x) for x in (a, b))
        assert (coeff_a, coeff_ab, coeff_b) == (
            _dot(a, pa) // 2, _dot(a, pb), _dot(b, pb) // 2
        )
        for r, s in ((1, 0), (0, 1), (1, 1), (2, -3), (-1, 4)):
            point = tuple(r * x + s * y for x, y in zip(a, b))
            assert evaluate_form(q, point) == (
                coeff_a * r * r + coeff_ab * r * s + coeff_b * s * s
            )


def test_restrict_to_line_cross_term_example():
    q = QuadraticForm({(0, 1): 1})
    e1 = (1, 0, 0, 0, 0, 0)
    e2 = (0, 1, 0, 0, 0, 0)
    assert restrict_to_line(q, e1, e2) == (0, 1, 0)


def test_coefficient_lookup_is_order_insensitive():
    q = QuadraticForm({(1, 4): 7, (2, 2): -3})
    assert coefficient(q, 1, 4) == 7
    assert coefficient(q, 4, 1) == 7
    assert coefficient(q, 2, 2) == -3
    assert coefficient(q, 0, 5) == 0
    assert form_coefficients(polar_matrix(q)) == [((1, 4), 7), ((2, 2), -3)]


def test_form_coefficients_read_the_form_back_off_its_polar_matrix():
    # Odd and even squares and mixed terms: P_ii = 2 c_ii, P_ij = c_ij.
    rng = random.Random(29)
    for _ in range(200):
        q = random_form(rng)
        rows = polar_matrix(q)
        assert form_coefficients(rows) == q.monomials()
        assert all(coefficient(q, i, j) == (rows[i][j] // 2 if i == j else rows[i][j])
                   for i in range(NUM_VARIABLES) for j in range(NUM_VARIABLES))


def test_invalid_forms_are_rejected():
    with pytest.raises(ValueError):
        QuadraticForm({})
    with pytest.raises(ValueError):
        QuadraticForm({(0, 1): 0})
    with pytest.raises(ValueError):
        QuadraticForm({(4, 1): 2})  # indices must satisfy i <= j
    with pytest.raises(ValueError):
        QuadraticForm({(0, 6): 1})
    with pytest.raises(ValueError):
        QuadraticForm({(0, 1): Fraction(1, 2)})  # integer coefficients only


def test_quadratic_form_floors_no_index():
    for key in [(0.5, 1.7), (0, 1.0), ("0", "1")]:
        with pytest.raises(ValueError, match="bad monomial index pair"):
            QuadraticForm({key: 3})
