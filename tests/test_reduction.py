"""Mod-p reductions: singular loci, cones, and mod-2 degeneracy evidence."""

from __future__ import annotations

import itertools
import random
from math import comb
from types import SimpleNamespace

import pytest

from quadpencil import (
    DegenerateReductionError,
    PencilOfQuadrics,
    QuadraticForm,
    cone_check,
    mod2_degeneracy,
    normalize_projective,
    singular_locus,
    smoothness_check,
)
from quadpencil.exactmath import (
    derivative,
    kernel_mod_p,
    poly_discriminant,
    rank_mod_p,
    repeated_roots_mod_p,
)
from quadpencil.quadric import polar_matrix
from quadpencil import reduction
from quadpencil.reduction import KernelCandidateCapError, _binary_roots, _linear_factors_mod_p

from conftest import (
    BIG_PRIME,
    REPEATED_ROOT_MOD_BIG,
    SINGULAR_POINT_CANONICAL,
    SINGULAR_POINT_VERBATIM,
    coefficient,
    evaluate_form,
    evaluate_poly,
    exhaustive_locus,
    mod2_degeneracy_oracle,
    polar_form,
    random_form,
    reduce_pencil,
    reference_singular_locus,
)


def test_singular_locus_at_the_big_prime(example_pencil):
    report = singular_locus(example_pencil, BIG_PRIME)
    assert report.method == "kernel-guided"
    assert report.points == (SINGULAR_POINT_CANONICAL,)
    assert report.ranks == (1,)
    assert report.conical is False
    assert cone_check(report) is True
    # The canonical representative is projectively the verbatim point.
    assert (
        normalize_projective(SINGULAR_POINT_VERBATIM, BIG_PRIME)
        == SINGULAR_POINT_CANONICAL
    )


def test_singular_point_lies_on_the_reduction(example_pencil):
    point = SINGULAR_POINT_CANONICAL
    assert evaluate_form(example_pencil.q1, point) % BIG_PRIME == 0
    assert evaluate_form(example_pencil.q2, point) % BIG_PRIME == 0
    # It spans the kernel of M1 - t0*M2 at the repeated root t0 of f mod p.
    f = example_pencil.char_form
    assert evaluate_poly(f, REPEATED_ROOT_MOD_BIG) % BIG_PRIME == 0
    df = derivative(f)
    assert evaluate_poly(df, REPEATED_ROOT_MOD_BIG) % BIG_PRIME == 0


def test_singular_locus_empty_at_good_small_primes(example_pencil):
    for p in (3, 5, 7, 11, 13):
        report = singular_locus(example_pencil, p)
        assert report.method == "kernel-guided"
        assert report.points == ()
        assert cone_check(report) is True


def test_kernel_guided_agrees_with_exhaustive(example_pencil):
    for p in (3, 5, 7, 11, 13):
        guided = singular_locus(example_pencil, p)
        assert (guided.points, guided.ranks) == exhaustive_locus(example_pencil, p)


def _diagonal_pencil(a, b) -> PencilOfQuadrics:
    return PencilOfQuadrics(
        QuadraticForm({(i, i): c for i, c in enumerate(a) if c}),
        QuadraticForm({(i, i): c for i, c in enumerate(b) if c}),
    )


# f = -(3 - 3t)(2 - t)(3 - t)(4 - t)(5 - t)(6 - t) is squarefree, but every
# coefficient is divisible by 3: mod 3 both forms miss u, so e_u is a vertex.
F_ZERO_MOD_3 = ((3, 2, 3, 4, 5, 6), (3, 1, 1, 1, 1, 1))


def _plane_kernels(pencil: PencilOfQuadrics, p: int) -> int:
    """2-dimensional kernels of members B1 - t0*B2 at repeated roots t0 of f
    mod p on which Q2 does not vanish identically (decided by root-finding)."""
    f = pencil.char_form
    if not any(c % p for c in f):
        return 0
    b1, b2 = polar_matrix(pencil.q1), polar_matrix(pencil.q2)
    count = 0
    for t0 in repeated_roots_mod_p(f, p):
        basis = kernel_mod_p(
            [[x - t0 * y for x, y in zip(r1, r2)] for r1, r2 in zip(b1, b2)], p
        )
        if len(basis) == 2:
            a, b = basis
            q = pencil.q2
            g = (evaluate_form(q, a), polar_form(q, a, b), evaluate_form(q, b))
            count += any(c % p for c in g)
    return count


# Smooth over Q, but mod 3, 5 and 7 respectively three, four and five of the
# diagonal entries agree, so the member Q1 - Q2 has a kernel of that dimension.
WIDE_KERNELS = ((1, 4, 7, 2, 5, 6), (1, 6, 11, 16, 2, 3), (1, 8, 15, 22, 29, 2))


def test_kernel_guided_agrees_with_exhaustive_on_random_pencils(monkeypatch):
    rng = random.Random(1)
    ones = (1,) * 6
    pencils = [_diagonal_pencil(*F_ZERO_MOD_3)]
    pencils += [_diagonal_pencil(a, ones) for a in WIDE_KERNELS]
    while len(pencils) < 18:
        pencil = PencilOfQuadrics(random_form(rng), random_form(rng))
        if smoothness_check(pencil) == "smooth":
            pencils.append(pencil)
    dims = set()
    kernel_points = reduction._kernel_points

    def recording_kernel_points(b1, b2, basis, p):
        dims.add(len(basis))
        return kernel_points(b1, b2, basis, p)

    monkeypatch.setattr(reduction, "_kernel_points", recording_kernel_points)
    loci = nonempty = planes = 0
    for pencil in pencils:
        assert smoothness_check(pencil) == "smooth"
        f = pencil.char_form
        support = poly_discriminant(f) * f[-1]
        for p in (3, 5, 7, 11, 13):
            if support % p:
                continue
            try:
                guided = singular_locus(pencil, p)
            except ValueError:
                continue  # degenerate or not a complete intersection mod p
            exhaustive = exhaustive_locus(pencil, p)
            assert (guided.points, guided.ranks) == exhaustive, (pencil, p)
            loci += 1
            nonempty += bool(guided.points)
            planes += _plane_kernels(pencil, p)
    assert loci >= 20
    assert nonempty >= 10
    assert planes >= 1
    assert {3, 4, 5} <= dims


def _locus_outcome(function, pencil, p):
    try:
        return function(pencil, p)
    except ValueError as error:
        return type(error).__name__, str(error)


def test_singular_locus_matches_the_reference():
    # The polar-matrix search against the QuadraticForm one it replaced, on
    # the pencils above, either form = 0 mod 3, 1,501-digit coefficients and
    # seeded pencils (singular ones have loci at every p), at p = 2, the
    # composites 9 and 15, and primes where f may vanish mod p.
    rng = random.Random(29)
    ones = (1,) * 6
    huge = 3 * 10**1500
    loci = 0
    pencils = [_diagonal_pencil(*F_ZERO_MOD_3), _diagonal_pencil((3,) * 6, (1, 2, 3, 4, 5, 6)),
               _diagonal_pencil((1, 1, 1, 1, 1, 2), (3, 3, 3, 3, 3, 6)),
               _diagonal_pencil((huge,) * 4 + (1, 1), (1, 2, 3, 4, 5, 6))]
    pencils += [_diagonal_pencil(a, ones) for a in WIDE_KERNELS]
    # Not complete intersections mod 3: proportional, and sharing 2u.
    base = {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 4): 2, (5, 5): 1}
    pencils.append(PencilOfQuadrics(QuadraticForm(base),
                                    QuadraticForm({**base, (0, 1): 6, (2, 3): 6})))
    pencils.append(PencilOfQuadrics(QuadraticForm({(0, 3): 2, (1, 2): 6, (4, 4): 3, (5, 5): 3}),
                                    QuadraticForm({(0, 4): 2, (1, 1): 3, (2, 2): 3, (3, 3): 3})))
    # Sharing u + v mod 3: u^2 + 4uv = u(u + v) splits only by the halved
    # diagonal of its polar matrix.
    pencils.append(PencilOfQuadrics(
        QuadraticForm({(0, 0): 1, (0, 1): 4, (1, 1): 3, (2, 2): 3, (3, 3): 3, (4, 4): 3, (5, 5): 3}),
        QuadraticForm({(0, 0): 3, (0, 2): 4, (1, 2): 4, (3, 3): 6, (4, 4): 3, (5, 5): 3})))
    pencils += [PencilOfQuadrics(random_form(rng), random_form(rng)) for _ in range(120)]
    seen = set()
    for pencil in pencils:
        for p in (2, 3, 5, 7, 9, 11, 13, 15, 1009):
            got = _locus_outcome(singular_locus, pencil, p)
            assert got == _locus_outcome(reference_singular_locus, pencil, p), (pencil, p)
            loci += hasattr(got, "points") and len(got.points) > 0
            if isinstance(got, tuple) and not hasattr(got, "points"):
                seen.add(got[1].split(":")[0])
            else:
                seen.update(("empty",) if not got.points else set(got.ranks))
            if all(c % p == 0 for c in pencil.char_form):
                seen.add("f = 0")
    assert seen >= {"empty", 0, 1, "f = 0", "9 is not prime", "15 is not prime", "p = 2",
                    "degenerate reduction", "X mod 3 is not a complete intersection"}
    assert loci >= 150


def test_binary_roots_match_brute_force():
    # Every triple at p <= 7.  At p = 1009, seeded triples: ten have two
    # chosen roots, so that roots_mod_p splits a product of two linear
    # factors, and three have alpha = 0 or a double root.
    rng = random.Random(1009)
    seeded = [tuple(rng.randrange(1009) for _ in range(3)) for _ in range(20)]
    for _ in range(10):
        a, r1, r2 = rng.randrange(1, 1009), rng.randrange(1009), rng.randrange(1009)
        seeded.append((a, -a * (r1 + r2), a * r1 * r2))
    seeded += [(0, 5, 7), (0, 0, 3), (4, 0, 0)]
    cases = [(p, g) for p in (3, 5, 7) for g in itertools.product(range(p), repeat=3)]
    cases += [(1009, g) for g in seeded]
    for p, (alpha, gamma, beta) in cases:
        if alpha % p == gamma % p == beta % p == 0:
            continue
        line = [(1, 0)] + [(r, 1) for r in range(p)]
        expected = sorted(
            normalize_projective(pt, p)
            for pt in line
            if (alpha * pt[0] ** 2 + gamma * pt[0] * pt[1] + beta * pt[1] ** 2) % p == 0
        )
        assert _binary_roots(alpha, gamma, beta, p) == expected, (alpha, gamma, beta, p)


def test_linear_factors_are_the_ones_the_form_was_built_from():
    # 2*l*m, 2*l^2 and 2*(l^2 - n*m^2) for n a non-square, plus p*noise, at
    # p = 3, 5, 7: the factors are {l, m}, {l} and none.  At rank 2 the
    # binary form at the pivots takes its square coefficients as P_ii / 2.
    rng = random.Random(31)
    shapes = {"product": 0, "square": 0, "irreducible": 0}
    for _ in range(300):
        p = rng.choice((3, 5, 7))
        l, m = (tuple(rng.randrange(p) for _ in range(6)) for _ in range(2))
        if rank_mod_p([l, m], p) < 2:
            continue
        n = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
        shape = rng.choice(list(shapes))
        if shape == "product":
            coeffs, factors = _times_linear(l, m), {l, m}
        elif shape == "square":
            coeffs, factors = _times_linear(l, l), {l}
        else:
            ll, mm = _times_linear(l, l), _times_linear(m, m)
            coeffs, factors = {k: ll.get(k, 0) - n * mm.get(k, 0) for k in ll | mm}, set()
        q = _plus(coeffs, p, random_form(rng))
        expected = sorted({normalize_projective(f, p) for f in factors})
        assert _linear_factors_mod_p(polar_matrix(q), p) == expected, (q, p, shape)
        shapes[shape] += 1
    assert min(shapes.values()) >= 50


def test_kernel_guided_when_f_vanishes_mod_p():
    pencil = _diagonal_pencil(*F_ZERO_MOD_3)
    assert smoothness_check(pencil) == "smooth"
    assert all(c % 3 == 0 for c in pencil.char_form)
    report = singular_locus(pencil, 3)
    assert (report.points, report.ranks) == exhaustive_locus(pencil, 3)
    assert report.points == ((1, 0, 0, 0, 0, 0),)
    assert report.ranks == (0,)
    assert report.conical is True


def test_kernel_candidate_cap_counts_the_member_kernels():
    # f vanishes mod p: the p + 1 kernel solves exceed the cap before any runs.
    p = 1000003
    pencil = _diagonal_pencil((p, 2, 3, 4, 5, 6), (p, 1, 1, 1, 1, 1))
    assert all(c % p == 0 for c in pencil.char_form)
    with pytest.raises(KernelCandidateCapError, match="1000004 > 1000000"):
        singular_locus(pencil, p)


def test_singular_locus_guards(example_pencil):
    with pytest.raises(ValueError):
        singular_locus(example_pencil, 2)
    with pytest.raises(ValueError):
        singular_locus(example_pencil, 9)


def test_degenerate_reduction_is_flagged():
    # Q1 = 3u^2 + 3v^2 vanishes identically mod 3.
    pencil = PencilOfQuadrics(
        QuadraticForm({(0, 0): 3, (1, 1): 3}),
        QuadraticForm({(i, i): 1 for i in range(6)}),
    )
    with pytest.raises(DegenerateReductionError):
        reduce_pencil(pencil, 3)
    with pytest.raises(DegenerateReductionError):
        singular_locus(pencil, 3)


def test_non_complete_intersection_guards():
    # Proportional reductions mod 3 (Q2 = Q1 + 6uv + 6wx).
    base = {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 4): 2, (5, 5): 1}
    q1 = QuadraticForm(base)
    q2 = QuadraticForm({**base, (0, 1): 6, (2, 3): 6})
    with pytest.raises(ValueError, match="^X mod 3 is not a complete intersection: "
                       "the reduced forms are proportional$"):
        singular_locus(PencilOfQuadrics(q1, q2), 3)

    # A shared F_p-rational linear factor: mod 3 the forms are 2ux and 2uy.
    q1 = QuadraticForm({(0, 3): 2, (1, 2): 6, (4, 4): 3, (5, 5): 3})
    q2 = QuadraticForm({(0, 4): 2, (1, 1): 3, (2, 2): 3, (3, 3): 3})
    with pytest.raises(ValueError, match="^X mod 3 is not a complete intersection: "
                       "the reduced forms share a linear factor$"):
        singular_locus(PencilOfQuadrics(q1, q2), 3)


def _times_linear(a, b) -> dict:
    """The coefficients of 2*l_a*l_b for linear forms a, b (mixed ones even)."""
    out = {}
    for i in range(6):
        for j in range(i, 6):
            c = 2 * (a[i] * b[j] + (a[j] * b[i] if i != j else 0))
            if c:
                out[(i, j)] = c
    return out


def _plus(form: dict, scale: int, noise: QuadraticForm) -> QuadraticForm:
    keys = set(form) | set(noise.coeffs)
    return QuadraticForm({k: form.get(k, 0) + scale * coefficient(noise, *k) for k in keys})


def _counting_complete_intersection_test(monkeypatch) -> list[int]:
    """Patch reduction._assert_complete_intersection to record each prime."""
    calls = []
    test = reduction._assert_complete_intersection

    def counted(P1, P2, p):
        calls.append(p)
        test(P1, P2, p)

    monkeypatch.setattr(reduction, "_assert_complete_intersection", counted)
    return calls


def test_complete_intersection_test_is_skipped_only_where_it_cannot_fail(monkeypatch):
    # Seeded pencils, two in three built to fail mod one of 3, 5, 7, 11:
    # proportional, q2 = lam*q1 + p*noise, or sharing a linear factor,
    # qi = 2*l*mi + p*noise.
    rng = random.Random(22)
    primes = [p for p in range(3, 48, 2) if all(p % q for q in range(3, p, 2))]
    pencils = []
    for k in range(60):
        q1, noise = random_form(rng), random_form(rng)
        p = rng.choice(primes[:4])
        if k % 3 == 0:
            lam = rng.randint(1, p - 1)
            q2 = _plus({key: lam * c for key, c in q1.coeffs.items()}, p, noise)
        elif k % 3 == 1:
            lin = [[rng.randint(-2, 2) for _ in range(6)] for _ in range(3)]
            q1 = _plus(_times_linear(lin[0], lin[1]), p, q1)
            q2 = _plus(_times_linear(lin[0], lin[2]), p, noise)
        else:
            q2 = noise
        pencils.append(PencilOfQuadrics(q1, q2))
    test = reduction._assert_complete_intersection
    calls = _counting_complete_intersection_test(monkeypatch)
    skipped = failed = 0
    for pencil in pencils:
        for p in primes:
            try:
                r1, r2 = reduce_pencil(pencil, p)
            except DegenerateReductionError:
                continue
            try:
                test(polar_matrix(r1), polar_matrix(r2), p)
                fails = False
            except ValueError:
                fails = True
                failed += 1
            calls.clear()
            try:
                singular_locus(pencil, p)
            except KernelCandidateCapError:
                pass
            except ValueError as error:
                assert fails and "not a complete intersection" in str(error)
            assert calls or not fails, (pencil, p)
            skipped += not calls
    assert skipped >= 500
    assert failed >= 20

    # f mod p a sixth power of forms that are not proportional: q2 = 2(uv +
    # wx + yz) + p*noise and q1 = t0*q2 + 2*l^2 + p*noise, with l isotropic
    # for q2's inverse Gram matrix, so M2^-1 (M1 - t0*M2) is nilpotent mod p
    # and f = (t - t0)^6 mod p.  The test runs, and passes.
    def sixth_power(t0):  # (t - t0)^6, lowest degree first
        return [comb(6, k) * (-t0) ** (6 - k) for k in range(7)]

    hyperbolic = {(0, 1): 2, (2, 3): 2, (4, 5): 2}
    sixth_powers = 0
    for _ in range(20):
        p, t0 = rng.choice(primes[:4]), rng.randrange(1, 20)
        lin = [rng.randrange(p) for _ in range(5)] + [0]
        lin[4] = lin[4] or 1
        lin[5] = -(lin[0] * lin[1] + lin[2] * lin[3]) * pow(lin[4], -1, p) % p
        q2 = _plus(hyperbolic, p, random_form(rng))
        q1 = _plus({k: t0 * c for k, c in q2.coeffs.items()}, 1,
                   _plus(_times_linear(lin, lin), p, random_form(rng)))
        pencil = PencilOfQuadrics(q1, q2)
        assert all((c - d) % p == 0 for c, d in zip(pencil.char_form, sixth_power(t0)))
        calls.clear()
        singular_locus(pencil, p)
        assert calls == [p]
        sixth_powers += 1

    # f mod p with a repeated root t0 and not a sixth power: q1 = t0*q2 + n +
    # p*noise, with n in four variables, so the member at t0 has rank <= 4.
    # The test is skipped, and would pass.
    double_roots = 0
    for _ in range(40):
        p, t0 = rng.choice(primes[:4]), rng.randrange(20)
        n = {(i, j): c for (i, j), c in random_form(rng).coeffs.items() if j < 4}
        q2 = random_form(rng)
        q1 = _plus({k: t0 * coefficient(q2, *k) + n.get(k, 0) for k in set(n) | set(q2.coeffs)},
                   p, random_form(rng))
        pencil = PencilOfQuadrics(q1, q2)
        f = list(pencil.char_form) + [0] * (7 - len(pencil.char_form))
        if any(c % p for c in f) and any(
                (c - f[6] * d) % p for c, d in zip(f, sixth_power(t0))):
            assert t0 % p in repeated_roots_mod_p(pencil.char_form, p)
            test(*map(polar_matrix, reduce_pencil(pencil, p)), p)
            calls.clear()
            singular_locus(pencil, p)
            assert calls == []
            double_roots += 1
    assert sixth_powers == 20 and double_roots >= 10


def test_the_example_needs_no_complete_intersection_test(example_pencil, monkeypatch):
    # f mod p is squarefree of degree >= 5 at the good primes, and at
    # 149743897 its repeated root is double, not the 6-fold root that
    # proportional forms give, so no call.
    calls = _counting_complete_intersection_test(monkeypatch)
    for p in (3, 5, 7, 11, 13, BIG_PRIME):
        singular_locus(example_pencil, p)
    assert calls == []


def test_conical_reduction_detected():
    # Mod 3 both forms involve only u, v, w, x; every point of the plane
    # {u = v = w = x = 0} is a vertex, so the reduction is a cone.
    q1 = QuadraticForm({(0, 0): 1, (1, 2): 2, (3, 3): 1, (4, 4): 3})
    q2 = QuadraticForm({(0, 1): 2, (2, 3): 2, (5, 5): 3})
    pencil = PencilOfQuadrics(q1, q2)
    report = singular_locus(pencil, 3)
    assert report.points, "expected a nonempty singular locus"
    assert report.conical is True
    assert cone_check(report) is False
    assert 0 in report.ranks
    # Both forms vanish on the vertex plane, so every point of it is found.
    assert (report.points, report.ranks) == exhaustive_locus(pencil, 3)


def test_kernel_lines_on_the_kernel_quadric():
    # Q1 - Q2 = 2y^2 + 3z^2, so ker(B1 - B2) = <e_u, e_v, e_w, e_x>, on which
    # g = 2uv + 2wx contains lines: on such a line every point is a candidate.
    q2 = QuadraticForm({(0, 1): 2, (2, 3): 2, (4, 4): 1, (5, 5): 1})
    q1 = QuadraticForm({(0, 1): 2, (2, 3): 2, (4, 4): 3, (5, 5): 4})
    pencil = PencilOfQuadrics(q1, q2)
    for p in (3, 5, 7):
        report = singular_locus(pencil, p)
        assert (report.points, report.ranks) == exhaustive_locus(pencil, p)
        # The (p + 1)^2 points of the split quadric g = 0 in P(ker) = {y = z = 0}.
        assert sum(pt[4] == pt[5] == 0 for pt in report.points) == (p + 1) ** 2


def test_normalize_projective_properties():
    p = 7
    assert normalize_projective((0, 0, 3, 5, 0, 1), p) == (0, 0, 1, 4, 0, 5)
    for vector in ((2, 4, 6, 1, 3, 5), (0, 5, 0, 0, 1, 2), (14, 7, 1, 0, 0, 0)):
        once = normalize_projective(vector, p)
        assert normalize_projective(once, p) == once  # idempotent
        lead = next(c for c in once if c)
        assert lead == 1
        # Scaling never changes the representative.
        for scale in range(1, p):
            scaled = tuple(scale * c for c in vector)
            assert normalize_projective(scaled, p) == once
    with pytest.raises(ValueError):
        normalize_projective((0, 0, 0, 0, 0, 0), p)
    with pytest.raises(ValueError):
        normalize_projective((7, 14, 0, 0, 0, 21), 7)


def test_reduce_pencil_residues(example_pencil):
    r1, r2 = reduce_pencil(example_pencil, 2)
    assert dict(r2.monomials()) == {(0, 1): 1, (0, 2): 1, (0, 4): 1}
    assert all(0 <= c < 2 for _, c in r1.monomials())
    r1_5, _ = reduce_pencil(example_pencil, 5)
    assert dict(r1_5.monomials()) == {
        (0, 1): 1,
        (0, 2): 1,
        (1, 2): 1,
        (1, 5): 2,
        (2, 5): 2,
        (3, 3): 1,
        (3, 5): 3,
        (4, 4): 1,
        (5, 5): 4,
    }


def test_mod2_degeneracy_evidence(example_pencil):
    report = mod2_degeneracy(example_pencil)
    q2_entries = [
        entry
        for entry in report["linear_factorizations"]
        if entry["form"] == "Q2"
    ]
    assert len(q2_entries) == 1
    assert sorted(q2_entries[0]["factors"]) == ["u", "v+w+y"]
    assert report["square_forms"] == []
    evidence = report["non_reduced_evidence"]
    assert any(
        item["form"] == "Q1"
        and item["hyperplane"] == "u"
        and item["square_root"] == "x+y+z"
        for item in evidence
    )
    assert "reducib" in report["verdict"]
    assert "non-reduced" in report["verdict"]


def test_mod2_factorization_is_verified_by_evaluation(example_pencil):
    report = mod2_degeneracy(example_pencil)
    entry = next(
        e for e in report["linear_factorizations"] if e["form"] == "Q2"
    )
    l1, l2 = entry["factor_vectors"]
    for point in itertools.product(range(2), repeat=6):
        product = (
            sum(a * c for a, c in zip(l1, point))
            * sum(b * c for b, c in zip(l2, point))
        ) % 2
        assert product == evaluate_form(example_pencil.q2, point) % 2


def test_mod2_square_form_detected():
    # Q1 = (u + v)^2 mod 2 = u^2 + 2uv + v^2 == u^2 + v^2.
    q1 = QuadraticForm({(0, 0): 1, (1, 1): 1})
    q2 = QuadraticForm({(2, 2): 1, (3, 3): 1, (4, 4): 1, (5, 5): 1})
    report = mod2_degeneracy(PencilOfQuadrics(q1, q2))
    squares = report["square_forms"]
    assert any(item["form"] == "Q1" and item["root"] == "u+v" for item in squares)



def _f2_product(a, b) -> frozenset:
    """Monomials (i, j), i <= j, of the product of two linear forms over F_2."""
    return frozenset(
        (i, j)
        for i in range(6)
        for j in range(i, 6)
        if (a[i] * b[j] + (a[j] * b[i] if i != j else 0)) % 2
    )


def test_mod2_factorizations_match_the_pair_scan():
    # The oracle is the scan of all 2016 pairs of the 63 nonzero linear forms.
    forms = [v for v in itertools.product((0, 1), repeat=6) if any(v)]
    pair_scan: dict = {}
    for a, b in itertools.combinations_with_replacement(forms, 2):
        pair_scan.setdefault(_f2_product(a, b), []).append([list(a), list(b)])

    rng = random.Random(2)

    def lift(monomials) -> QuadraticForm:
        """An integral form whose odd coefficients are exactly `monomials`."""
        coeffs = {
            (i, j): ((i, j) in monomials) + 2 * rng.randint(-1, 1)
            for i in range(6)
            for j in range(i, 6)
        }
        return QuadraticForm({key: c for key, c in coeffs.items() if c})

    all_monomials = [(i, j) for i in range(6) for j in range(i, 6)]
    quadrics = []
    for _ in range(100):
        a = rng.choice(forms)
        b = rng.choice([f for f in forms if f != a])
        quadrics.append(lift(_f2_product(a, a)))  # a square
        quadrics.append(lift(_f2_product(a, b)))  # a product of distinct forms
        random_monomials = {m for m in all_monomials if rng.random() < 0.5}
        quadrics.append(lift(random_monomials or {(0, 0)}))
    rng.shuffle(quadrics)

    counts = {"square": 0, "product": 0, "irreducible": 0}
    for q1, q2 in zip(quadrics[::2], quadrics[1::2]):
        # mod2_degeneracy reads only the polar matrices; a random pair need not
        # have an integral characteristic form, which PencilOfQuadrics requires.
        report = mod2_degeneracy(SimpleNamespace(polars=(polar_matrix(q1), polar_matrix(q2))))
        for label, q in (("Q1", q1), ("Q2", q2)):
            expected = pair_scan.get(
                frozenset(key for key, c in q.coeffs.items() if c % 2), []
            )
            got = [
                entry["factor_vectors"]
                for entry in report["linear_factorizations"]
                if entry["form"] == label
            ]
            assert got == expected, (q, label)
            if not expected:
                counts["irreducible"] += 1
            elif expected[0][0] == expected[0][1]:
                counts["square"] += 1
            else:
                counts["product"] += 1
    assert counts["square"] >= 100 and counts["product"] >= 100
    assert counts["irreducible"] >= 50


def test_f2_point_masks_mark_coordinates_and_hyperplanes():
    # Bit x of a mask is the point of F_2^6 whose coordinate i is bit i of x.
    points = [[x >> i & 1 for i in range(6)] for x in range(64)]
    for i, mask in enumerate(reduction._COORDINATE_MASKS):
        assert [mask >> x & 1 for x in range(64)] == [pt[i] for pt in points]
    # A linear form's mask marks where it is 1; the rest is its hyperplane.
    assert list(reduction._LINEAR_MASKS) == [
        v for v in itertools.product((0, 1), repeat=6) if any(v)]
    for vec, mask in reduction._LINEAR_MASKS.items():
        on_plane = [sum(a * b for a, b in zip(vec, pt)) % 2 == 0 for pt in points]
        assert [not mask >> x & 1 for x in range(64)] == on_plane
    # A form's mask marks where it is 1 mod 2.
    rng = random.Random(17)
    for _ in range(50):
        q = random_form(rng) if rng.random() < 0.5 else QuadraticForm(
            {(i, j): rng.randint(1, 3) for i in range(6) for j in range(i, 6)})
        assert [reduction._form_mask(polar_matrix(q)) >> x & 1 for x in range(64)] == [
            evaluate_form(q, pt) % 2 for pt in points]


def test_mod2_mask_divisors_match_the_restriction_scan():
    """The mask report equals the coefficient-dict oracle's, on 2,000 seeded
    pairs of forms and on every product l*m and square l^2 of nonzero linear
    forms (each paired with a random such product)."""
    rng = random.Random(16)
    monomials = [(i, j) for i in range(6) for j in range(i, 6)]
    forms = [v for v in itertools.product((0, 1), repeat=6) if any(v)]
    products = [QuadraticForm(dict.fromkeys(_f2_product(a, b), 1))
                for a, b in itertools.combinations_with_replacement(forms, 2)]

    def random_quadric() -> QuadraticForm:
        if rng.random() < 0.5:
            return rng.choice(products)
        density = rng.random()
        coeffs = {key: rng.choice((-3, -2, -1, 1, 2, 3)) for key in monomials
                  if rng.random() < density}
        return QuadraticForm(coeffs or {(0, 0): 2})

    pairs = [(random_quadric(), random_quadric()) for _ in range(2000)]
    pairs += [(q, rng.choice(products)) for q in products]
    pencils = [SimpleNamespace(q1=q1, q2=q2, polars=(polar_matrix(q1), polar_matrix(q2)))
               for q1, q2 in pairs]
    reports = [mod2_degeneracy(pencil) for pencil in pencils]
    assert reports == [mod2_degeneracy_oracle(pencil) for pencil in pencils]
    assert sum(bool(r["square_forms"]) for r in reports) >= 100
    assert sum(bool(r["non_reduced_evidence"]) for r in reports) >= 100
    assert sum(not r["linear_factorizations"] for r in reports) >= 100
    assert sum("vanishes identically" in r["verdict"] for r in reports) >= 10


def test_normalize_projective_floors_no_coordinate():
    with pytest.raises(ValueError, match="must be ints"):
        normalize_projective((1.5, 2, 0, 0, 0, 0), 7)
