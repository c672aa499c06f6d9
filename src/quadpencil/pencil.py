"""Pencils of quadrics: characteristic form, smoothness, bad primes, curve data."""

from __future__ import annotations

from typing import NamedTuple

from .exactmath import (
    det_poly_matrix,
    factor_with_hints,
    poly_discriminant,
    squarefree_degree6,
    sturm_count,
)
from .quadric import NUM_VARIABLES, QuadraticForm, polar_matrix

# Discriminant normalization exponent for a genus-2 hyperelliptic model
# z^2 = f(t): the model discriminant is 2^(4g+4) * disc(f) with g = 2.
CURVE_DISC_POWER_OF_TWO = 12


class NonIntegralCharacteristicFormError(ArithmeticError):
    """Raised when -det(M1 - t*M2) fails to have integer coefficients.

    Half-integer Gram entries can contribute 2^-6 denominators (example:
    Q1 = Q2 = uv + wx + yz), so this is a genuine input condition, not only an
    internal guard.
    """


class PencilOfQuadrics:
    """The pencil spanned by two integral quadratic forms.

    The polar matrices P = 2M of Q1 and Q2 (``polars``, two row lists) and
    the characteristic form f(t) = -det(M1 - t*M2) of the Gram matrices
    (``char_form``, a tuple of ints, lowest degree first, with a nonzero last
    entry) are computed exactly at construction time; instances are
    immutable.  Every computation reads ``polars`` (and ``char_form``);
    ``q1`` and ``q2`` are kept as the record of the input forms.
    """

    __slots__ = ("q1", "q2", "polars", "char_form")

    def __init__(self, q1: QuadraticForm, q2: QuadraticForm):
        polars = (polar_matrix(q1), polar_matrix(q2))
        object.__setattr__(self, "q1", q1)
        object.__setattr__(self, "q2", q2)
        object.__setattr__(self, "polars", polars)
        object.__setattr__(self, "char_form", _characteristic_form(*polars))

    def __setattr__(self, name, value):
        raise AttributeError("PencilOfQuadrics is immutable")

    def __repr__(self) -> str:
        return f"PencilOfQuadrics({self.q1!r}, {self.q2!r})"


def _characteristic_form(p1: list[list[int]], p2: list[list[int]]) -> tuple[int, ...]:
    """-det(M1 - t*M2) from the polar matrices P = 2M, in integers.

    g(t) = det(P1 - t*P2) = 2^6 det(M1 - t*M2) has integer coefficients and
    degree at most 6, so its values at t = 0..6 fix it.  Newton's divided
    differences of an integer polynomial at consecutive integers are
    integers, so every division by k below is exact.
    """
    n = NUM_VARIABLES
    g = [
        det_poly_matrix([[p1[i][j] - t * p2[i][j] for j in range(n)] for i in range(n)])
        for t in range(n + 1)
    ]
    for k in range(1, n + 1):
        for i in range(n, k - 1, -1):
            g[i] = (g[i] - g[i - 1]) // k
    # Newton form to monomial basis: g = g[0] + t*(g[1] + (t-1)*(g[2] + ...)).
    coeffs = [g[n]]
    for k in range(n - 1, -1, -1):
        coeffs = [g[k] - k * coeffs[0]] + [
            a - k * b for a, b in zip(coeffs, coeffs[1:])
        ] + [coeffs[-1]]
    if any(c % 64 for c in coeffs):
        raise NonIntegralCharacteristicFormError("non-integral characteristic form")
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(-c // 64 for c in coeffs)


def smoothness_check(pencil: PencilOfQuadrics) -> str:
    """Verdict on X = {Q1 = Q2 = 0}: "smooth", "singular", or "degenerate".

    X is a smooth threefold iff f has degree 6 and is squarefree; f identically
    zero means the pencil itself is degenerate.
    """
    f = pencil.char_form
    if not f:
        return "degenerate"
    if squarefree_degree6(f):
        return "smooth"
    return "singular"


class CurveData(NamedTuple):
    """Data of the genus-2 curve z^2 = f(t) attached to a smooth pencil.

    disc is the discriminant of the hyperelliptic model, i.e. 2^12 * disc(f)
    (the conventional genus-2 normalization); bad_primes is the full prime
    support of disc * lc(f).
    """

    f: tuple[int, ...]
    disc: int
    bad_primes: tuple[int, ...]
    real_weierstrass_count: int


def curve_data(pencil: PencilOfQuadrics, factor_hints=()) -> CurveData:
    """Populate CurveData for a smooth pencil.

    Raises ValueError unless smoothness_check(pencil) == "smooth"; propagates
    FactorizationError ("unfactored composite cofactor") when the discriminant
    support cannot be certified.
    """
    if smoothness_check(pencil) != "smooth":
        raise ValueError("curve data requires a smooth pencil")
    f = pencil.char_form
    disc = (2**CURVE_DISC_POWER_OF_TWO) * poly_discriminant(f)
    support = disc * f[-1]
    factors = factor_with_hints(support, tuple(factor_hints))
    bad_primes = tuple(sorted(factors))
    count = sturm_count(f)
    return CurveData(
        f=f, disc=disc, bad_primes=bad_primes, real_weierstrass_count=count
    )
