"""Integral quadratic forms in six variables u, v, w, x, y, z."""

from __future__ import annotations

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
            if not (isinstance(i, int) and isinstance(j, int) and 0 <= i <= j < NUM_VARIABLES):
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


def polar_matrix(q: QuadraticForm) -> list[list[int]]:
    """Integer rows of the polar matrix P = C + C^T of q, for C the upper
    triangular matrix of q's coefficients.

    P is the Hessian of q: q(v) = v.Pv / 2 and q(a + b) - q(a) - q(b) =
    a.Pb.  Its diagonal 2 c_ii is even and its other entries are the c_ij,
    so P is integral, holds q exactly (form_coefficients reads q back) and
    can be reduced mod any prime.
    """
    rows = [[0] * NUM_VARIABLES for _ in range(NUM_VARIABLES)]
    for (i, j), c in q.coeffs.items():
        if i == j:
            rows[i][i] = 2 * c
        else:
            rows[i][j] = c
            rows[j][i] = c
    return rows


def form_coefficients(P) -> list[tuple[tuple[int, int], int]]:
    """The nonzero coefficients ((i, j), c_ij), i <= j, of the form with
    polar matrix P, in sorted order: c_ii = P_ii / 2 and c_ij = P_ij."""
    return [((i, j), P[i][j] // 2 if i == j else P[i][j])
            for i in range(NUM_VARIABLES) for j in range(i, NUM_VARIABLES) if P[i][j]]
