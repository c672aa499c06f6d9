"""Pencils: characteristic form, smoothness verdicts, genus-2 curve data."""

from __future__ import annotations

import random

import pytest
import sympy

import quadpencil.pencil
from quadpencil import (
    NUM_VARIABLES,
    NonIntegralCharacteristicFormError,
    PencilOfQuadrics,
    QuadraticForm,
    curve_data,
    smoothness_check,
)

from conftest import BAD_PRIMES, CHAR_FORM_COEFFS, CURVE_DISC

from test_localcert import exact as qpbench_exact
from test_quadric import random_form


def sympy_char_form(q1: QuadraticForm, q2: QuadraticForm):
    """Independent oracle: -det(M1 - t*M2) via sympy symbolic matrices."""
    t = sympy.Symbol("t")

    def gram(q):
        m = sympy.zeros(NUM_VARIABLES, NUM_VARIABLES)
        for (i, j), c in q.coeffs.items():
            if i == j:
                m[i, i] = c
            else:
                m[i, j] = sympy.Rational(c, 2)
                m[j, i] = sympy.Rational(c, 2)
        return m

    det = (gram(q1) - t * gram(q2)).det()
    return sympy.Poly(-det, t)


def test_characteristic_form_of_example(example_pencil):
    assert example_pencil.char_form == CHAR_FORM_COEFFS


def test_characteristic_form_against_sympy_oracle():
    rng = random.Random(2024)
    checked = 0
    while checked < 25:
        q1, q2 = random_form(rng), random_form(rng)
        try:
            pencil = PencilOfQuadrics(q1, q2)
        except NonIntegralCharacteristicFormError:
            continue  # covered by test_non_integral_characteristic_form_raises
        oracle = sympy_char_form(q1, q2)
        ours = pencil.char_form
        oracle_coeffs = [0] * 7
        if not oracle.is_zero:
            for exp, coeff in zip(oracle.monoms(), oracle.coeffs()):
                oracle_coeffs[exp[0]] = int(coeff)
        assert list(ours) + [0] * (7 - len(ours)) == oracle_coeffs
        checked += 1


def test_swapping_the_forms_reverses_the_coefficients(example_q1, example_q2):
    # -det(M2 - t M1) = t^6 * f(1/t) up to the deg-6 sign: the reversal.
    swapped = PencilOfQuadrics(example_q2, example_q1)
    assert swapped.char_form == tuple(reversed(CHAR_FORM_COEFFS))


def test_characteristic_form_is_unimodular_invariant(example_q1, example_q2):
    # A change of basis v -> Uv with det U = ±1 multiplies det(M1 - t M2)
    # by det(U)^2 = 1, so f is unchanged.
    rng = random.Random(99)
    for _ in range(10):
        u = sympy.eye(NUM_VARIABLES)
        for _ in range(8):  # random elementary operations keep det = ±1
            a, b = rng.sample(range(NUM_VARIABLES), 2)
            if rng.random() < 0.5:
                u[a, :], u[b, :] = u[b, :], u[a, :]
            else:
                u[a, :] = u[a, :] + rng.randint(-2, 2) * u[b, :]
        assert abs(u.det()) == 1

        def transform(q):
            x = sympy.symbols("u v w x y z")
            new = sympy.Matrix(x).T
            subs_vec = sympy.Matrix(u) * sympy.Matrix(x)
            poly = sympy.expand(
                sum(
                    c * subs_vec[i] * subs_vec[j]
                    for (i, j), c in q.coeffs.items()
                )
            )
            coeffs = {}
            p = sympy.Poly(poly, *x)
            for monom, coeff in zip(p.monoms(), p.coeffs()):
                support = [k for k, e in enumerate(monom) if e]
                if len(support) == 1:
                    key = (support[0], support[0])
                else:
                    key = (support[0], support[1])
                coeffs[key] = int(coeff)
            return QuadraticForm(coeffs)

        transformed = PencilOfQuadrics(transform(example_q1), transform(example_q2))
        assert transformed.char_form == CHAR_FORM_COEFFS


def test_smoothness_verdicts():
    smooth = PencilOfQuadrics(
        QuadraticForm({(i, i): 1 for i in range(6)}),
        QuadraticForm({(i, i): i + 1 for i in range(6)}),
    )
    assert smoothness_check(smooth) == "smooth"

    # Repeated eigenvalue ratio -> repeated root of f -> singular.
    singular = PencilOfQuadrics(
        QuadraticForm({(i, i): 1 for i in range(6)}),
        QuadraticForm(
            {(0, 0): 2, (1, 1): 2, (2, 2): 3, (3, 3): 4, (4, 4): 5, (5, 5): 6}
        ),
    )
    assert smoothness_check(singular) == "singular"

    # A variable missing from both forms gives a zero column: f vanishes.
    degenerate = PencilOfQuadrics(
        QuadraticForm({(0, 3): 1}), QuadraticForm({(0, 4): 1})
    )
    assert smoothness_check(degenerate) == "degenerate"

    # Degree drop below 6 (det M2 = 0 kills the leading coefficient) is
    # singular, not smooth: X then meets the singular member at infinity.
    dropped = PencilOfQuadrics(
        QuadraticForm({(i, i): 1 for i in range(6)}),
        QuadraticForm({(i, i): 1 for i in range(5)}),
    )
    assert len(dropped.char_form) < 7
    assert smoothness_check(dropped) == "singular"


def test_non_integral_characteristic_form_raises():
    # Two generic forms with odd cross terms: det picks up a 1/2^k tail.
    q1 = QuadraticForm({(0, 1): 1, (2, 3): 1, (4, 5): 1})
    q2 = QuadraticForm({(0, 2): 1, (1, 3): 1, (4, 4): 1, (5, 5): 1, (0, 0): 1})
    with pytest.raises(NonIntegralCharacteristicFormError):
        PencilOfQuadrics(q1, q2)


def oracle_char_form(q1: QuadraticForm, q2: QuadraticForm):
    """-det(M1 - t*M2) by qpbench/exact.py (Bareiss at t = 0..6, Lagrange
    interpolation over Q), as a coefficient tuple; None when not integral."""
    f = qpbench_exact.integral_char_form(q1.coeffs, q2.coeffs)
    return None if f is None else tuple(f)


def even_mixed_form(rng: random.Random, bound: int) -> QuadraticForm:
    coeffs = {}
    while not coeffs:
        coeffs = {
            (i, j): rng.randint(-bound, bound) * (1 if i == j else 2)
            for i in range(NUM_VARIABLES)
            for j in range(i, NUM_VARIABLES)
            if rng.random() < 0.5
        }
        coeffs = {k: c for k, c in coeffs.items() if c}
    return QuadraticForm(coeffs)


def test_characteristic_form_equals_the_det_poly_matrix_route():
    rng = random.Random(20261021)
    for bound in (1, 9, 10**6):
        for _ in range(15):
            q1, q2 = even_mixed_form(rng, bound), even_mixed_form(rng, bound)
            expected = oracle_char_form(q1, q2)
            assert expected is not None
            assert PencilOfQuadrics(q1, q2).char_form == expected


def test_characteristic_form_takes_seven_determinants(monkeypatch, example_pencil):
    """g(t) = det(P1 - t*P2) at t = 0..6, each through pencil.det_poly_matrix."""
    sizes = []
    det = quadpencil.pencil.det_poly_matrix

    def counted(rows):
        sizes.append(len(rows))
        return det(rows)

    monkeypatch.setattr(quadpencil.pencil, "det_poly_matrix", counted)
    pencil = PencilOfQuadrics(example_pencil.q1, example_pencil.q2)
    assert sizes == [NUM_VARIABLES] * 7
    assert pencil.char_form == CHAR_FORM_COEFFS


def test_one_odd_mixed_coefficient_raises_as_the_det_poly_matrix_route():
    rng = random.Random(20261022)
    raised = 0
    for _ in range(30):
        q1 = even_mixed_form(rng, 9)
        q2 = dict(even_mixed_form(rng, 9).coeffs)
        i, j = sorted(rng.sample(range(NUM_VARIABLES), 2))
        q2[(i, j)] = 2 * rng.randint(-9, 9) + 1
        q2 = QuadraticForm(q2)
        expected = oracle_char_form(q1, q2)
        if expected is None:
            raised += 1
            with pytest.raises(NonIntegralCharacteristicFormError):
                PencilOfQuadrics(q1, q2)
        else:
            assert PencilOfQuadrics(q1, q2).char_form == expected
    assert raised >= 20


def test_curve_data_of_example(example_pencil):
    cd = curve_data(example_pencil)
    assert cd.disc == CURVE_DISC
    assert cd.bad_primes == BAD_PRIMES
    assert cd.real_weierstrass_count == 2
    assert cd.f is example_pencil.char_form


def test_curve_disc_matches_sympy_genus2_normalization(example_pencil):
    t = sympy.Symbol("t")
    f = sum(c * t**k for k, c in enumerate(example_pencil.char_form))
    disc = sympy.discriminant(f, t)
    assert curve_data(example_pencil).disc == 2**12 * int(disc)


def test_curve_data_requires_smooth_pencil():
    singular = PencilOfQuadrics(
        QuadraticForm({(i, i): 1 for i in range(6)}),
        QuadraticForm(
            {(0, 0): 2, (1, 1): 2, (2, 2): 3, (3, 3): 4, (4, 4): 5, (5, 5): 6}
        ),
    )
    with pytest.raises(ValueError):
        curve_data(singular)


def test_diagonal_pencil_bad_primes_match_sympy():
    pencil = PencilOfQuadrics(
        QuadraticForm({(i, i): 1 for i in range(6)}),
        QuadraticForm({(i, i): i + 1 for i in range(6)}),
    )
    cd = curve_data(pencil)
    t = sympy.Symbol("t")
    f = sum(c * t**k for k, c in enumerate(pencil.char_form))
    support = 2**12 * int(sympy.discriminant(f, t)) * pencil.char_form[-1]
    expected = tuple(sorted(int(p) for p in sympy.factorint(abs(support))))
    assert cd.bad_primes == expected


def test_char_form_is_an_int_tuple(example_pencil):
    f = example_pencil.char_form
    assert type(f) is tuple
    assert all(type(c) is int for c in f)
    assert len(f) == 7 and f[-1] != 0


def test_polars_are_the_polar_matrices_of_both_forms(example_pencil):
    """pencil.polars, which Fano systems, scans and loci read, is (P1, P2)."""
    forms = (example_pencil.q1, example_pencil.q2)
    assert example_pencil.polars == tuple(qpbench_exact.polar_matrix(q.coeffs) for q in forms)
