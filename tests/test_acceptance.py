"""Acceptance criteria for the worked-example pencil.

Each test prints exactly one PASS/FAIL line (uncaptured) and then asserts the
stated expectation at the stated tolerance, so a failure still leaves a
visible verdict.

Criteria 5, 7 and 8 concern the bad prime 2.  The example has no line over
Q_2: the chart systems of all 15 charts of Gr(2,6) have solutions mod 2 and
mod 4 but none mod 8, and a Q_2-line would be a Z_2-point of one chart,
solving its integral equations mod 8.  Hence no F_2-point of the Fano system
is smooth (it would Hensel-lift), and these criteria assert that the program
says exactly that: the F_2 witness verifies on the system with Jacobian rank
4, Hensel certification refuses it, and the census finds no smooth point.
The mod-8 emptiness is re-derived here by `lift_census_mod_2k`, a brute
force that uses only the coefficient dicts, with a positive control.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from quadpencil import PencilOfQuadrics, QuadraticForm
from quadpencil.exactmath.integers import factor_with_hints
from quadpencil.exactmath.matrix import det_poly_matrix
from quadpencil.exactmath.unipoly import (
    UniPoly,
    isolate_real_roots,
    squarefree_degree6,
    sturm_count,
)
from quadpencil.fano import all_charts, fano_system, verify_fano_point
from quadpencil.localcert import (
    chart_census,
    hensel_certify,
    search_smooth_points,
    verify_projective_point,
)
from quadpencil.pencil import curve_data, smoothness_check
from quadpencil.reduction import (
    cone_check,
    mod2_degeneracy,
    normalize_projective,
    singular_locus,
)

from conftest import (
    BAD_PRIMES,
    BIG_PRIME,
    BIG_WITNESS,
    CHAR_FORM_COEFFS,
    CHART_PIVOTS,
    CHART_UI,
    CURVE_DISC,
    EXAMPLE_PATH,
    F2_ON_FANO_COUNTS,
    F2_WITNESS,
    LIFT_COUNTS_MOD_4,
    P3_LIFT_MOD_27,
    P3_SMOOTH_POINT,
    Q1_COEFFS,
    Q2_COEFFS,
    REAL_ROOTS_PRINTED,
    SINGULAR_POINT_CANONICAL,
    SINGULAR_POINT_VERBATIM,
    clear_row_denominators,
    det_cofactor,
    evaluate_poly,
    exhaustive_locus,
    lift_census_mod_2k,
)
from test_pipeline_cli import run_cli


def _pencil() -> PencilOfQuadrics:
    return PencilOfQuadrics(QuadraticForm(Q1_COEFFS), QuadraticForm(Q2_COEFFS))


def _chart():
    return next(c for c in all_charts() if c.pivots == CHART_PIVOTS)


@pytest.fixture(scope="module")
def example_lifts_mod_8():
    """The example's chart solutions mod 2, 4 and 8, by independent brute force."""
    return lift_census_mod_2k(Q1_COEFFS, Q2_COEFFS, 3)


def _report(capsys, number: int, name: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"criterion {number:02d} ({name}): {'PASS' if ok else 'FAIL'}")


def test_criterion_01_characteristic_form(capsys):
    start = time.perf_counter()
    coeffs = tuple(_pencil().char_form.coeffs)
    elapsed = time.perf_counter() - start
    ok = coeffs == CHAR_FORM_COEFFS and elapsed < 1.0
    _report(capsys, 1, "characteristic form", ok)
    assert ok, f"coefficients lowest-first {coeffs}, elapsed {elapsed:.3f}s"


def test_criterion_02_smoothness(capsys):
    pencil = _pencil()
    squarefree = squarefree_degree6(pencil.char_form)
    verdict = smoothness_check(pencil)
    ok = squarefree is True and verdict == "smooth"
    _report(capsys, 2, "smoothness", ok)
    assert ok, f"squarefree_degree6={squarefree}, verdict={verdict!r}"


def test_criterion_03_bad_primes(capsys):
    start = time.perf_counter()
    cd = curve_data(_pencil())
    support = set(factor_with_hints(cd.disc))
    elapsed = time.perf_counter() - start
    ok = (
        cd.disc == CURVE_DISC
        and support == set(BAD_PRIMES)
        and cd.bad_primes == BAD_PRIMES
        and elapsed < 5.0
    )
    _report(capsys, 3, "bad primes", ok)
    assert ok, f"disc={cd.disc}, support={sorted(support)}, elapsed {elapsed:.3f}s"


def test_criterion_04_real_place(capsys):
    start = time.perf_counter()
    f = _pencil().char_form
    count = sturm_count(f)
    intervals = isolate_real_roots(f)
    elapsed = time.perf_counter() - start
    width_cap = Fraction(1, 10**6)
    proximity = Fraction(5, 10**6)
    located = all(
        any(
            hi - lo < width_cap
            and evaluate_poly(f, lo) * evaluate_poly(f, hi) < 0
            and abs((lo + hi) / 2 - printed) < proximity
            for lo, hi in intervals
        )
        for printed in REAL_ROOTS_PRINTED
    )
    ok = count == 2 and len(intervals) == 2 and located and elapsed < 1.0
    _report(capsys, 4, "real place", ok)
    assert ok, (
        f"sturm_count={count}, intervals={intervals}, elapsed {elapsed:.3f}s"
    )


def test_criterion_05_f2_witness(capsys, example_lifts_mod_8):
    system = fano_system(_pencil(), _chart())
    report = verify_fano_point(system, F2_WITNESS, 2)
    mod_2, _, mod_8 = example_lifts_mod_8[CHART_UI]
    ok = (
        report.on_fano is True
        and report.jacobian_rank == 4
        and report.smooth is False
        and F2_WITNESS in mod_2
        and mod_8 == []
    )
    _report(capsys, 5, "F_2 witness", ok)
    assert ok, (
        "expected on_fano=True, jacobian_rank=4, smooth=False; observed "
        f"on_fano={report.on_fano}, jacobian_rank={report.jacobian_rank}, "
        f"smooth={report.smooth}; independent check: witness on chart "
        f"{CHART_UI} mod 2 {F2_WITNESS in mod_2}, points of that chart mod 8 "
        f"{len(mod_8)} (expected 0, so no smooth F_2-point can exist)"
    )


def test_criterion_06_large_prime_witness(capsys):
    start = time.perf_counter()
    system = fano_system(_pencil(), _chart())
    report = verify_fano_point(system, BIG_WITNESS, BIG_PRIME)
    elapsed = time.perf_counter() - start
    ok = (
        report.on_fano is True
        and report.jacobian_rank == 6
        and report.smooth is True
        and elapsed < 1.0
    )
    _report(capsys, 6, "large-prime witness", ok)
    assert ok, (
        f"on_fano={report.on_fano}, jacobian_rank={report.jacobian_rank}, "
        f"smooth={report.smooth}, elapsed {elapsed:.3f}s"
    )


def test_criterion_07_hensel_lifts(capsys):
    start = time.perf_counter()
    system = fano_system(_pencil(), _chart())

    def lift_mod_cube(point, prime):
        """The verified lift of point mod prime^3, or None."""
        cert = hensel_certify(system, point, prime, lift_precision=3)
        if not (cert.liftable and cert.lift is not None):
            return None
        modulus = prime**3
        if cert.lift_modulus != modulus:
            return None
        if tuple(c % prime for c in cert.lift) != tuple(point):
            return None
        residuals = [eq.evaluate(list(cert.lift)) % modulus for eq in system.equations]
        return cert.lift if all(r == 0 for r in residuals) else None

    ok_big = lift_mod_cube(BIG_WITNESS, BIG_PRIME) is not None
    ok_three = lift_mod_cube(P3_SMOOTH_POINT, 3) == P3_LIFT_MOD_27
    at_two = hensel_certify(system, F2_WITNESS, 2, lift_precision=3)
    refused_two = (
        at_two.liftable is False and at_two.lift is None and at_two.jacobian_rank == 4
    )
    elapsed = time.perf_counter() - start
    ok = ok_big and ok_three and refused_two and elapsed < 1.0
    _report(capsys, 7, "Hensel lifts", ok)
    assert ok, (
        f"lift at {BIG_PRIME} ok={ok_big}, lift at 3 to {P3_LIFT_MOD_27} "
        f"ok={ok_three}, F_2 witness refused at 2 (liftable False, no lift, "
        f"rank 4)={refused_two} [liftable={at_two.liftable}, "
        f"rank={at_two.jacobian_rank}], elapsed {elapsed:.3f}s"
    )


def test_criterion_08_chart_census_at_2(capsys, example_lifts_mod_8):
    start = time.perf_counter()
    census = chart_census(_pencil(), 2)
    elapsed = time.perf_counter() - start
    counts = {
        tuple(p + 1 for p in entry.chart.pivots): entry.on_fano_count
        for entry in census
    }
    charts_with_smooth = [
        tuple(p + 1 for p in entry.chart.pivots)
        for entry in census
        if entry.smooth_points
    ]
    mod_2, mod_4, mod_8 = (
        {chart: len(levels[k]) for chart, levels in example_lifts_mod_8.items()}
        for k in range(3)
    )
    mod_4 = {chart: n for chart, n in mod_4.items() if n}
    ok = (
        counts == F2_ON_FANO_COUNTS
        and counts[(1, 5)] == 0
        and charts_with_smooth == []
        and elapsed < 1.0
        and mod_2 == counts
        and mod_4 == LIFT_COUNTS_MOD_4
        and len(mod_8) == 15
        and not any(mod_8.values())
    )
    _report(capsys, 8, "chart census at 2", ok)
    assert ok, (
        f"census counts {counts} (expected {F2_ON_FANO_COUNTS}); charts with "
        f"smooth F_2 points: {charts_with_smooth} (expected none); elapsed "
        f"{elapsed:.3f}s; independent counts mod 2 {mod_2}, non-zero mod 4 "
        f"{mod_4}, mod 8 {mod_8} (expected 0 on all 15 charts)"
    )


def test_lift_census_positive_control():
    # The example's forms without their u^2, uv and v^2 terms contain the
    # line <e_u, e_v>, the point 0 of chart (1, 2), so that chart must keep
    # solutions, 0 among them, at every level.
    line_terms = ((0, 0), (0, 1), (1, 1))
    q1 = {m: c for m, c in Q1_COEFFS.items() if m not in line_terms}
    q2 = {m: c for m, c in Q2_COEFFS.items() if m not in line_terms}
    levels = lift_census_mod_2k(q1, q2, 3, charts=[(1, 2)])[(1, 2)]
    assert len(levels) == 3
    assert all((0,) * 8 in level for level in levels)


def test_criterion_09_singular_locus(capsys):
    start = time.perf_counter()
    report = singular_locus(_pencil(), BIG_PRIME)
    elapsed = time.perf_counter() - start
    ok = (
        report.points == (SINGULAR_POINT_CANONICAL,)
        and normalize_projective(SINGULAR_POINT_VERBATIM, BIG_PRIME)
        == SINGULAR_POINT_CANONICAL
        and report.ranks == (1,)
        and cone_check(report) is True
        and elapsed < 5.0
    )
    _report(capsys, 9, "singular locus", ok)
    assert ok, (
        f"points={report.points}, ranks={report.ranks}, "
        f"conical={report.conical}, elapsed {elapsed:.3f}s"
    )


def test_criterion_10_good_primes(capsys):
    start = time.perf_counter()
    pencil = _pencil()
    loci_empty = all(exhaustive_locus(pencil, p)[0] == () for p in (3, 5))
    found_smooth = all(
        len(search_smooth_points(pencil, p)) >= 1 for p in (3, 5)
    )
    elapsed = time.perf_counter() - start
    ok = loci_empty and found_smooth and elapsed < 180.0
    _report(capsys, 10, "good primes", ok)
    assert ok, (
        f"loci empty={loci_empty}, smooth point found={found_smooth}, "
        f"elapsed {elapsed:.3f}s"
    )


def test_criterion_11_mod2_degeneracy(capsys):
    evidence = mod2_degeneracy(_pencil())
    q2_factorizations = [
        sorted(entry["factors"])
        for entry in evidence["linear_factorizations"]
        if entry["form"] == "Q2"
    ]
    ok = ["u", "v+w+y"] in q2_factorizations
    _report(capsys, 11, "mod-2 degeneracy", ok)
    assert ok, f"Q2 factorizations mod 2: {q2_factorizations}"


def test_criterion_12_rational_point(capsys):
    on = verify_projective_point(_pencil(), (1, 0, 0, 0, 0, 0), None)
    ok = on is True
    _report(capsys, 12, "Q-point", ok)
    assert ok, f"verify_projective_point returned {on}"


def test_criterion_13_oracle_equivalence(capsys):
    rng = random.Random(13)

    det_mismatches = 0
    for trial in range(200):
        size = rng.choice((2, 3, 4, 5))
        if trial % 4 == 0:
            entries = [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(size)]
                for _ in range(size)
            ]
            # det_poly_matrix takes integer entries.
            scaled, product = clear_row_denominators(entries)
            det = Fraction(det_poly_matrix(scaled), product)
        else:
            entries = [
                [rng.randint(-9, 9) for _ in range(size)] for _ in range(size)
            ]
            det = det_poly_matrix(entries)
        if det != det_cofactor(entries):
            det_mismatches += 1

    unit = QuadraticForm({(i, i): 1 for i in range(6)})
    locus_mismatches = 0
    nonempty_comparisons = 0
    for diagonal in ((0, 1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6), (1, 2, 3, 5, 7, 11)):
        pen = PencilOfQuadrics(
            QuadraticForm({(i, i): a for i, a in enumerate(diagonal) if a}), unit
        )
        for p in (3, 5, 7, 11, 13):
            kernel = singular_locus(pen, p)
            if (kernel.points, kernel.ranks) != exhaustive_locus(pen, p):
                locus_mismatches += 1
            if kernel.points:
                nonempty_comparisons += 1

    sturm_mismatches = 0
    checked = 0
    while checked < 100:
        coeffs = [rng.randint(-9, 9) for _ in range(6)] + [
            rng.choice((-1, 1)) * rng.randint(1, 9)
        ]
        f = UniPoly(coeffs)
        if not squarefree_degree6(f):
            continue
        checked += 1
        if sturm_count(f) != len(isolate_real_roots(f)):
            sturm_mismatches += 1

    ok = (
        det_mismatches == 0
        and locus_mismatches == 0
        and nonempty_comparisons >= 1
        and sturm_mismatches == 0
    )
    _report(capsys, 13, "oracle equivalence", ok)
    assert ok, (
        f"determinant mismatches={det_mismatches}/200, singular-locus "
        f"mismatches={locus_mismatches}/15 ({nonempty_comparisons} non-empty), "
        f"Sturm mismatches={sturm_mismatches}/100"
    )


def test_criterion_14_determinism(capsys):
    first = run_cli(["analyze", str(EXAMPLE_PATH), "--workers", "8"])
    second = run_cli(["analyze", str(EXAMPLE_PATH), "--workers", "8"])
    ok = first == second and first[0] != ""
    _report(capsys, 14, "determinism", ok)
    assert ok, (
        f"exit codes {first[2]}/{second[2]}; stdout byte-identical: "
        f"{first[0] == second[0]}"
    )
