"""Shared fixtures: the worked-example pencil and its frozen expected values."""

from __future__ import annotations

import os
import random
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import pytest

from quadpencil import PencilOfQuadrics, QuadraticForm
from quadpencil.fano import _chart_coordinates

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
EXAMPLE_PATH = os.path.join(DATA_DIR, "example_pencil.txt")
NO_WITNESS_PATH = os.path.join(DATA_DIR, "no_witness_pencil.txt")

Q1_TEXT = "uv + uw - 4vw + 2vz + 2wz + x^2 - 2xz + y^2 - z^2"
Q2_TEXT = "uv - uw + uy - 2v^2 + 2vx - 2wy + 2wz + 2xz"

Q1_COEFFS = {
    (0, 1): 1,
    (0, 2): 1,
    (1, 2): -4,
    (1, 5): 2,
    (2, 5): 2,
    (3, 3): 1,
    (3, 5): -2,
    (4, 4): 1,
    (5, 5): -1,
}
Q2_COEFFS = {
    (0, 1): 1,
    (0, 2): -1,
    (0, 4): 1,
    (1, 1): -2,
    (1, 3): 2,
    (2, 4): -2,
    (2, 5): 2,
    (3, 5): 2,
}

# f(t) = -t^6 - 3t^5 + 2t^4 + 3t^3 - 3t^2 - 3t - 2, lowest degree first.
CHAR_FORM_COEFFS = (-2, -3, -3, 3, 2, -3, -1)

POLY_DISC = 149743897  # disc of f; prime
CURVE_DISC = 613351002112  # 2^12 * disc(f), the genus-2 normalization
BAD_PRIMES = (2, 149743897)
BIG_PRIME = 149743897

# The worked example's chart has pivot columns 2 and 3 (1-based); internal
# pivots are 0-based.
CHART_PIVOTS = (1, 2)
CHART_UI = (2, 3)

# On the chart system mod 2 with Jacobian rank 4 < 6, so not smooth: a smooth
# F_2-point would Hensel-lift to Z_2, but no chart has a point mod 8.
F2_WITNESS = (1, 1, 0, 0, 1, 1, 0, 0)
BIG_WITNESS = (
    10276,
    859210,
    113976451,
    113430900,
    122036333,
    94785567,
    35411179,
    25838500,
)

SINGULAR_POINT_VERBATIM = (10925789, 85737939, 85378598, 93099029, 51694582, 1)
SINGULAR_POINT_CANONICAL = (1, 126743053, 27119006, 94322915, 93333782, 2380571)
REPEATED_ROOT_MOD_BIG = 57903756

# Printed 5-decimal approximations of the two real roots of f.
REAL_ROOTS_PRINTED = (Fraction(-326599, 100000), Fraction(-113643, 100000))

# Exhaustive F_2 census: on-system point count per chart (1-based columns).
# The Jacobian ranks that occur are 0, 2 and 4, so no chart has a smooth
# point; lifting digit by digit leaves the counts below mod 4 and no point on
# any chart mod 8, hence no line over Q_2.
F2_ON_FANO_COUNTS = {
    (1, 2): 8,
    (1, 3): 8,
    (1, 4): 8,
    (1, 5): 0,
    (1, 6): 8,
    (2, 3): 20,
    (2, 4): 22,
    (2, 5): 20,
    (2, 6): 22,
    (3, 4): 22,
    (3, 5): 20,
    (3, 6): 22,
    (4, 5): 20,
    (4, 6): 16,
    (5, 6): 20,
}

# Chart points mod 4 that reduce to the F_2 points above, per chart; the
# charts not listed have none.
LIFT_COUNTS_MOD_4 = {
    chart: 64
    for chart in ((2, 3), (2, 4), (2, 6), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6))
}

# A smooth F_3-point of the example's chart and its Newton lift mod 27.
P3_SMOOTH_POINT = (1, 2, 0, 1, 1, 2, 1, 2)
P3_LIFT_MOD_27 = (22, 26, 3, 16, 1, 5, 1, 2)


def random_form(rng: random.Random) -> QuadraticForm:
    """All 21 monomials: squares in [-3, 3], mixed ones in {-2, 0, 2} (so the
    characteristic form of a pencil of two such forms is integral)."""
    coeffs = {}
    for i in range(6):
        for j in range(i, 6):
            c = rng.randint(-3, 3) if i == j else 2 * rng.randint(-1, 1)
            if c:
                coeffs[(i, j)] = c
    return QuadraticForm(coeffs)


def _form_value(coeffs, x) -> int:
    return sum(c * x[i] * x[j] for (i, j), c in coeffs.items())


def det_cofactor(rows):
    """Cofactor-expansion determinant (exponential; cross-check oracle)."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("non-square input")

    def rec(r: list[list]):
        if len(r) == 1:
            return r[0][0]
        total = 0
        for j, entry in enumerate(r[0]):
            if entry == 0:
                continue
            term = entry * rec([row[:j] + row[j + 1 :] for row in r[1:]])
            total = total - term if j % 2 else total + term
        return total

    return rec([list(row) for row in rows])


def evaluate_poly(f, point):
    """Horner value of the UniPoly f at point; exact for int/Fraction points."""
    acc = 0
    for c in reversed(f.coeffs):
        acc = acc * point + c
    return acc


def clear_row_denominators(rows) -> tuple[list[list[int]], int]:
    """Row i times the lcm d_i of its denominators, and the product of the d_i.

    The determinant of rows is then det(scaled) / (d_1 * ... * d_n).
    """
    scaled, scale = [], 1
    for row in rows:
        d = lcm(*(Fraction(x).denominator for x in row))
        scaled.append([int(x * d) for x in row])
        scale *= d
    return scaled, scale


def chart_read_off(lines, charts, p: int) -> list:
    """(chart, sorted (coordinates, tag) pairs) per chart, in pivot order.

    lines holds (a, b, tag) triples, one per F_p-line; every line is read
    off in every chart that contains it, i.e. where _chart_coordinates is
    not None.  With exact ranks as tags this is the oracle of chart_census,
    which counts lines by Plücker minor instead.
    """
    def read_off(chart):
        for a, b, tag in lines:
            if (coords := _chart_coordinates(chart, a, b, p)) is not None:
                yield coords, tag

    return [(chart, sorted(read_off(chart)))
            for chart in sorted(charts, key=lambda c: c.pivots)]


def lift_census_mod_2k(q1_coeffs, q2_coeffs, levels, charts=None):
    """Chart solutions of the Fano system mod 2, 4, ..., 2^levels, by brute force.

    An independent check of the census that uses only the coefficient dicts
    ({(i, j): c} with i <= j for the monomial x_i x_j).  Each chart (i, j) of
    Gr(2,6), given by 1-based pivot columns and defaulting to all 15, has
    rows a = e_i + t1 e_c1 + t3 e_c2 + t5 e_c3 + t7 e_c4 and
    b = e_j + t2 e_c1 + t4 e_c2 + t6 e_c3 + t8 e_c4 over the non-pivot columns
    c1 < ... < c4, and the line <a, b> lies on Q exactly when Q(a),
    Q(a+b) - Q(a) - Q(b) and Q(b) vanish.  Every survivor mod 2^k is extended
    by all 2^8 digit vectors to the candidates mod 2^(k+1).

    Returns {chart: [solutions mod 2, mod 4, ..., mod 2^levels]}, each a list
    of 8-tuples with entries in [0, 2^k).
    """
    digits = list(product((0, 1), repeat=8))
    census = {}
    for chart in charts or combinations(range(1, 7), 2):
        i, j = chart[0] - 1, chart[1] - 1
        non_pivots = [c for c in range(6) if c not in (i, j)]

        def solves(t, modulus) -> bool:
            a = [0] * 6
            b = [0] * 6
            a[i] = b[j] = 1
            for k, col in enumerate(non_pivots):
                a[col], b[col] = t[2 * k], t[2 * k + 1]
            s = [x + y for x, y in zip(a, b)]
            for coeffs in (q1_coeffs, q2_coeffs):
                qa, qb = _form_value(coeffs, a), _form_value(coeffs, b)
                if qa % modulus or qb % modulus:
                    return False
                if (_form_value(coeffs, s) - qa - qb) % modulus:
                    return False
            return True

        survivors = [(0,) * 8]
        per_level = []
        for k in range(levels):
            candidates = (
                tuple(x + 2**k * d for x, d in zip(t, digit))
                for t in survivors
                for digit in digits
            )
            survivors = [t for t in candidates if solves(t, 2 ** (k + 1))]
            per_level.append(survivors)
        census[tuple(chart)] = per_level
    return census


@pytest.fixture(scope="session")
def example_q1() -> QuadraticForm:
    return QuadraticForm(Q1_COEFFS)


@pytest.fixture(scope="session")
def example_q2() -> QuadraticForm:
    return QuadraticForm(Q2_COEFFS)


@pytest.fixture(scope="session")
def example_pencil(example_q1, example_q2) -> PencilOfQuadrics:
    return PencilOfQuadrics(example_q1, example_q2)


@pytest.fixture(scope="session")
def example_path() -> str:
    return EXAMPLE_PATH


@pytest.fixture(scope="session")
def no_witness_path() -> str:
    return NO_WITNESS_PATH
