"""The Fano variety of lines on X = {Q1 = Q2 = 0} in chart coordinates.

Lines in P^5 are parametrized by the 15 standard affine charts of Gr(2,6):
a chart fixes two pivot columns to the 2x2 identity and fills the remaining
eight matrix slots with parameters t_1..t_8.  A chart point's line lies on X
iff quadric.restrict_to_line gives (c_rr, c_rs, c_ss) = (0, 0, 0) for both
forms, so these six residuals, as functions of the 8 parameters, cut out F1(X)
on the chart.  They are only ever evaluated at integer points, and their
Jacobian is read off the forms' polar matrices (polar_jacobian).
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from operator import mul
from typing import NamedTuple

from .exactmath import is_probable_prime, rank_mod_p
from .pencil import PencilOfQuadrics
from .quadric import NUM_VARIABLES, restrict_to_line

NUM_PARAMETERS = 8
FANO_CODIMENSION = 6

# Scan cap of localcert's exhaustive F_p search, defined here so that the
# CLI can quote it without importing localcert.  A census of all 15 charts
# finds the points of X with pivot 0 in about p^4 closed-form steps (p^4
# values of four free columns, the fifth solved) and tests about p^4 pairs of
# points.  At p = 31 that is 10^6 pairs, and `fano-search` on the example
# (11,327 smooth points) takes 1.2-1.7 s (CPython 3.11, 2 shared cores); the
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

    # No __slots__: the instance dict holds the cached columns.

    def __new__(cls, pivots: tuple[int, int]) -> "GrassmannChart":
        i, j = pivots
        if not (0 <= i < j < NUM_VARIABLES):
            raise ValueError(f"bad pivot pair {pivots}")
        return super().__new__(cls, (int(i), int(j)))

    @cached_property
    def non_pivots(self) -> tuple[int, int, int, int]:
        """The non-pivot columns c_1 < c_2 < c_3 < c_4, computed once per chart."""
        return tuple(c for c in range(NUM_VARIABLES) if c not in self.pivots)

    @cached_property
    def column_pairs(self) -> tuple[tuple[int, int], ...]:
        """The six pairs (c, d) of non-pivot columns, c < d, in combinations order."""
        return tuple(combinations(self.non_pivots, 2))


def _chart_ui(chart: GrassmannChart) -> list[int]:
    """1-based column indices, the only chart labelling shown externally."""
    return [chart.pivots[0] + 1, chart.pivots[1] + 1]


# The 15 charts by pivots, in lexicographic order, built once: the F_p scans
# look their cells up here, so each chart's cached columns are computed once.
_CHARTS = {pair: GrassmannChart(pair) for pair in combinations(range(NUM_VARIABLES), 2)}


def all_charts() -> tuple[GrassmannChart, ...]:
    """The 15 charts in lexicographic pivot order."""
    return tuple(_CHARTS.values())


def _polar_products(polars, v, p: int) -> list:
    """P v mod p for each polar matrix P in polars."""
    return [[sum(map(mul, r, v)) % p for r in P] for P in polars]


def polar_jacobian(chart: GrassmannChart, pas, pbs) -> list[list[int]]:
    """The Fano system's Jacobian at a point, from P*rowA and P*rowB of each form.

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
    row_a = [0] * NUM_VARIABLES
    row_b = [0] * NUM_VARIABLES
    row_a[chart.pivots[0]] = row_b[chart.pivots[1]] = 1
    for k, col in enumerate(chart.non_pivots):
        row_a[col], row_b[col] = int(point[2 * k]), int(point[2 * k + 1])
    return row_a, row_b


def _chart_coordinates(chart: GrassmannChart, a, b, p: int):
    """Chart coordinates of the line <a, b> mod p, or None if the chart misses it.

    The inverse of chart_point_rows mod p.  Line (a, b) is in chart (k, l)
    iff m = a_k b_l - a_l b_k != 0, with chart rows (b_l a - a_l b) / m and
    (a_k b - b_k a) / m.
    """
    k, l = chart.pivots
    minor = (a[k] * b[l] - a[l] * b[k]) % p
    if not minor:
        return None
    s = pow(minor, -1, p)
    return tuple(t * s % p for c in chart.non_pivots for t in (
        b[l] * a[c] - a[l] * b[c], a[k] * b[c] - b[k] * a[c]))


class FanoSystem(NamedTuple):
    """F1(X) on one chart: the two forms and their polar matrices.

    A chart point is on F1(X) iff both forms vanish on its line, i.e. iff
    all six residuals are 0.
    """

    chart: GrassmannChart
    forms: tuple
    polars: tuple

    def residuals(self, point) -> list:
        """c_rr, c_rs, c_ss of Q1, then of Q2, on the line at a chart point."""
        a, b = chart_point_rows(self.chart, point)
        return [c for q in self.forms for c in restrict_to_line(q, a, b)]

    def jacobian_mod(self, point, p: int) -> list[list[int]]:
        """The 6x8 Jacobian of the residuals mod p at a chart point."""
        a, b = chart_point_rows(self.chart, point)
        return polar_jacobian(
            self.chart, _polar_products(self.polars, a, p), _polar_products(self.polars, b, p)
        )


def fano_system(pencil: PencilOfQuadrics, chart: GrassmannChart) -> FanoSystem:
    """The system of F1(X) on the chart, for Q1 then Q2."""
    return FanoSystem(chart, (pencil.q1, pencil.q2), pencil.polars)


class FanoPointReport(NamedTuple):
    """Verification result for one chart point over F_p."""

    on_fano: bool
    jacobian_rank: int
    smooth: bool


def verify_fano_point(system: FanoSystem, point, p: int) -> FanoPointReport:
    """Check a chart point over F_p: residual vanishing and Jacobian rank.

    The point is smooth on F1(X) iff it is on the system and the Jacobian has
    full rank 6 (the codimension of the Fano surface in A^8); that is exactly
    the hypothesis of the smooth-point form of Hensel's lemma.
    """
    if not is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    residues = [int(c) % p for c in point]
    on_fano = not any(r % p for r in system.residuals(residues))
    rank = rank_mod_p(system.jacobian_mod(residues, p), p)
    return FanoPointReport(
        on_fano=on_fano,
        jacobian_rank=rank,
        smooth=bool(on_fano and rank == FANO_CODIMENSION),
    )


def point_document(chart: GrassmannChart, coords, report: FanoPointReport) -> dict:
    """The JSON record of a checked chart point, for `verify-point` and the certificate."""
    return {
        "chart": _chart_ui(chart),
        "coordinates": list(coords),
        "on_system": report.on_fano,
        "jacobian_rank": report.jacobian_rank,
        "smooth": report.smooth,
    }
