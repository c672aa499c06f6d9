"""Integral quadratic forms in six variables u, v, w, x, y, z."""

from __future__ import annotations

from fractions import Fraction

VARIABLES = ("u", "v", "w", "x", "y", "z")
NUM_VARIABLES = 6


class QuadraticForm:
    """An integral quadratic form in six variables.

    Coefficients are stored as a map from index pairs (i, j), 0 <= i <= j <= 5,
    to nonzero integers; variables are ordered (u, v, w, x, y, z).  At least one
    coefficient must be nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        clean: dict[tuple[int, int], int] = {}
        for key, c in dict(coeffs).items():
            i, j = key
            i, j = int(i), int(j)
            if not (0 <= i <= j < NUM_VARIABLES):
                raise ValueError(f"bad monomial index pair {(i, j)}")
            if not isinstance(c, int):
                raise ValueError("coefficients must be integers")
            if c == 0:
                continue
            clean[(i, j)] = clean.get((i, j), 0) + c
        clean = {k: c for k, c in clean.items() if c != 0}
        if not clean:
            raise ValueError("zero form: a quadratic form needs a nonzero coefficient")
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticForm is immutable")

    def coefficient(self, i: int, j: int) -> int:
        """Coefficient of x_i x_j (unordered access)."""
        if i > j:
            i, j = j, i
        return self.coeffs.get((i, j), 0)

    def monomials(self):
        """Sorted ((i, j), coefficient) pairs."""
        return sorted(self.coeffs.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuadraticForm):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        return f"QuadraticForm({dict(self.monomials())!r})"


def gram_matrix(q: QuadraticForm) -> list[list[Fraction]]:
    """Rows of the symmetric rational Gram matrix M with v^T M v = q(v).

    Diagonal entries are the square coefficients; off-diagonal entries are half
    the mixed coefficients (so they may be half-integers).
    """
    rows = [[Fraction(0)] * NUM_VARIABLES for _ in range(NUM_VARIABLES)]
    for (i, j), c in q.coeffs.items():
        if i == j:
            rows[i][i] = Fraction(c)
        else:
            half = Fraction(c, 2)
            rows[i][j] = half
            rows[j][i] = half
    return rows


def polar_matrix(q: QuadraticForm) -> list[list[int]]:
    """Integer rows of P = 2 * gram_matrix(q), so a^T P b = polar_form(q, a, b).

    P is the Hessian of q; unlike the Gram matrix it is integral, so it can be
    reduced mod any prime.
    """
    rows = [[0] * NUM_VARIABLES for _ in range(NUM_VARIABLES)]
    for (i, j), c in q.coeffs.items():
        if i == j:
            rows[i][i] = 2 * c
        else:
            rows[i][j] = c
            rows[j][i] = c
    return rows


def evaluate_form(q: QuadraticForm, v) -> object:
    """q(v) straight from the integer coefficients.

    Works over any commutative ring whose elements support + and * with ints
    (integers, Fractions, residues), so it is valid in characteristic 2 where
    the Gram-matrix route is not.
    """
    if len(v) != NUM_VARIABLES:
        raise ValueError("expected a 6-vector")
    total = 0
    for (i, j), c in q.coeffs.items():
        total = total + c * (v[i] * v[j])
    return total


def polar_form(q: QuadraticForm, a, b) -> object:
    """The integral polar form B(a, b) = q(a + b) - q(a) - q(b).

    B is the coefficient of rs in q(r*a + s*b); like evaluate_form it works
    over integers, Fractions and residues, uses only integer coefficients and
    is valid in every characteristic.
    """
    if len(a) != NUM_VARIABLES or len(b) != NUM_VARIABLES:
        raise ValueError("expected 6-vectors")
    total = 0
    for (i, j), c in q.coeffs.items():
        if i == j:
            total = total + (2 * c) * (a[i] * b[i])
        else:
            total = total + c * (a[i] * b[j] + a[j] * b[i])
    return total


def gradient_at(q: QuadraticForm, v) -> list:
    """The six partial derivatives of q at v, from integer coefficients."""
    if len(v) != NUM_VARIABLES:
        raise ValueError("expected a 6-vector")
    grad = [0] * NUM_VARIABLES
    for (i, j), c in q.coeffs.items():
        if i == j:
            grad[i] = grad[i] + (2 * c) * v[i]
        else:
            grad[i] = grad[i] + c * v[j]
            grad[j] = grad[j] + c * v[i]
    return grad


def restrict_to_line(q: QuadraticForm, row_a, row_b) -> tuple:
    """Coefficients (c_rr, c_rs, c_ss) of q(r*row_a + s*row_b).

    q vanishes identically on the parametrized line iff all three vanish; over
    F_2 this is equivalent to q containing the line's three rational points.
    """
    return (
        evaluate_form(q, row_a),
        polar_form(q, row_a, row_b),
        evaluate_form(q, row_b),
    )
