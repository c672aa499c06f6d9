"""The Fano variety of lines on X = {Q1 = Q2 = 0} in chart coordinates.

Lines in P^5 are parametrized by the 15 standard affine charts of Gr(2,6):
a chart fixes two pivot columns to the 2x2 identity and fills the remaining
eight matrix slots with parameters t_1..t_8.  Restricting both quadrics to the
parametrized line yields 6 equations in the 8 parameters whose common zeros
are exactly the lines contained in X.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import NamedTuple

from .exactmath import MultiPoly, is_probable_prime, rank_mod_p
from .pencil import PencilOfQuadrics
from .quadric import NUM_VARIABLES, restrict_to_line

NUM_PARAMETERS = 8
FANO_CODIMENSION = 6

# Scan cap of localcert's exhaustive F_p search, defined here so that the
# CLI can quote it without importing localcert.  A census of all 15 charts
# finds the points of X with pivot 0 in about p^4 closed-form steps (p^4
# values of four free columns, the fifth solved) and tests about p^4 pairs of
# points.  At p = 31 that is 10^6 pairs, and `fano-search` on the example
# takes 1.6-2.3 s (CPython 3.11, 2 cores), the two halves about equal; the
# cost grows like p^4, so the cap stays here.
EXHAUSTIVE_PRIME_HARD_CAP = 31


class _GrassmannChartFields(NamedTuple):
    pivots: tuple[int, int]


class GrassmannChart(_GrassmannChartFields):
    """One of the 15 standard charts of Gr(2,6), named by its pivot columns.

    pivots are 0-based ambient column indices (i, j) with i < j.  The two rows
    of the chart matrix carry the identity in the pivot columns; the non-pivot
    columns, taken in ascending order c_1 < c_2 < c_3 < c_4, carry t_1, t_3,
    t_5, t_7 in the first row and t_2, t_4, t_6, t_8 in the second, so the
    chart parametrizes the line [r:s] -> r*rowA + s*rowB.
    """

    # No __slots__: the instance dict holds the cached non_pivots.

    def __new__(cls, pivots: tuple[int, int]) -> "GrassmannChart":
        i, j = pivots
        if not (0 <= i < j < NUM_VARIABLES):
            raise ValueError(f"bad pivot pair {pivots}")
        return super().__new__(cls, (int(i), int(j)))

    @cached_property
    def non_pivots(self) -> tuple[int, int, int, int]:
        """The non-pivot columns c_1 < c_2 < c_3 < c_4, computed once per chart."""
        return tuple(c for c in range(NUM_VARIABLES) if c not in self.pivots)


def _chart_ui(chart: GrassmannChart) -> list[int]:
    """1-based column indices, the only chart labelling shown externally."""
    return [chart.pivots[0] + 1, chart.pivots[1] + 1]


def all_charts() -> tuple[GrassmannChart, ...]:
    """The 15 charts in lexicographic pivot order."""
    return tuple(
        GrassmannChart(pair) for pair in combinations(range(NUM_VARIABLES), 2)
    )


def chart_rows(chart: GrassmannChart) -> tuple[tuple, tuple]:
    """Symbolic rows (rowA, rowB) of the chart matrix, as MultiPoly 6-vectors."""
    i, j = chart.pivots
    one = MultiPoly.constant(1, NUM_PARAMETERS)
    zero = MultiPoly.zero(NUM_PARAMETERS)
    row_a = [zero] * NUM_VARIABLES
    row_b = [zero] * NUM_VARIABLES
    row_a[i] = one
    row_b[j] = one
    for k, col in enumerate(chart.non_pivots):
        row_a[col] = MultiPoly.variable(2 * k, NUM_PARAMETERS)
        row_b[col] = MultiPoly.variable(2 * k + 1, NUM_PARAMETERS)
    return tuple(row_a), tuple(row_b)


def polar_jacobian(chart: GrassmannChart, pas, pbs) -> list[list[int]]:
    """FanoSystem.jacobian at a point, from P*rowA and P*rowB of each form.

    Per form, c_rr = Q(a), c_rs = a^T P b and c_ss = Q(b) for its polar
    matrix P, so with row A's t_2k and row B's t_2k+1 (0-based) at non-pivot
    c_k: d c_rr/d t_2k = d c_rs/d t_2k+1 = (Pa)_c_k, d c_rs/d t_2k =
    d c_ss/d t_2k+1 = (Pb)_c_k, and every other entry is 0.
    """
    rows = []
    for pa, pb in zip(pas, pbs):
        rr, rs, ss = ([0] * NUM_PARAMETERS for _ in range(3))
        for k, col in enumerate(chart.non_pivots):
            rr[2 * k] = rs[2 * k + 1] = pa[col]
            rs[2 * k] = ss[2 * k + 1] = pb[col]
        rows += (rr, rs, ss)
    return rows


def chart_point_rows(chart: GrassmannChart, point) -> tuple[list, list]:
    """The two integer basis vectors of the line at a concrete chart point."""
    if len(point) != NUM_PARAMETERS:
        raise ValueError("expected 8 chart coordinates")
    row_a_sym, row_b_sym = chart_rows(chart)
    point = [int(c) for c in point]
    row_a = [entry.evaluate(point) for entry in row_a_sym]
    row_b = [entry.evaluate(point) for entry in row_b_sym]
    return row_a, row_b


class FanoSystem:
    """The 6 chart equations (and their Jacobian) cutting out F1(X)."""

    __slots__ = ("chart", "equations", "jacobian")

    def __init__(self, chart: GrassmannChart, equations):
        equations = tuple(equations)
        if len(equations) != FANO_CODIMENSION:
            raise ValueError("expected 6 equations")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "equations", equations)
        jac = tuple(
            tuple(eq.derivative(k) for k in range(NUM_PARAMETERS))
            for eq in equations
        )
        object.__setattr__(self, "jacobian", jac)

    def __setattr__(self, name, value):
        raise AttributeError("FanoSystem is immutable")

    def __repr__(self) -> str:
        return f"FanoSystem(chart={self.chart.pivots})"


def fano_system(pencil: PencilOfQuadrics, chart: GrassmannChart) -> FanoSystem:
    """Equations of F1(X) on the chart: (c_rr, c_rs, c_ss) for Q1, then Q2."""
    row_a, row_b = chart_rows(chart)
    equations = restrict_to_line(pencil.q1, row_a, row_b) + restrict_to_line(
        pencil.q2, row_a, row_b
    )
    return FanoSystem(chart, equations)


class FanoPointReport(NamedTuple):
    """Verification result for one chart point over F_p."""

    on_fano: bool
    jacobian_rank: int
    smooth: bool


def verify_fano_point(system: FanoSystem, point, p: int) -> FanoPointReport:
    """Check a chart point over F_p: equation vanishing and Jacobian rank.

    The point is smooth on F1(X) iff it is on the system and the Jacobian has
    full rank 6 (the codimension of the Fano surface in A^8); that is exactly
    the hypothesis of the smooth-point form of Hensel's lemma.
    """
    if not is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    if len(point) != NUM_PARAMETERS:
        raise ValueError("expected 8 chart coordinates")
    residues = [int(c) % p for c in point]
    on_fano = all(eq.evaluate_mod(residues, p) == 0 for eq in system.equations)
    jac_rows = [
        [entry.evaluate_mod(residues, p) for entry in row]
        for row in system.jacobian
    ]
    rank = rank_mod_p(jac_rows, p)
    return FanoPointReport(
        on_fano=on_fano,
        jacobian_rank=rank,
        smooth=bool(on_fano and rank == FANO_CODIMENSION),
    )
