"""Exact arithmetic kernel: primes, mod-p linear algebra, polynomials."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy

from quadpencil.exactmath import (
    FactorizationError,
    UniPoly,
    det_poly_matrix,
    factor_with_hints,
    is_probable_prime,
    isolate_real_roots,
    kernel_mod_p,
    poly_discriminant,
    rank_mod_p,
    repeated_roots_mod_p,
    roots_mod_p,
    rref_mod_p,
    solve_mod_p,
    sturm_count,
)
from quadpencil.exactmath import integers
from quadpencil.exactmath.matrix import resultant
from quadpencil.exactmath.unipoly import _sturm_chain, squarefree_degree6

from test_localcert import exact as qpbench_exact

from conftest import (
    BIG_PRIME,
    CHAR_FORM_COEFFS,
    POLY_DISC,
    REPEATED_ROOT_MOD_BIG,
    clear_row_denominators,
    det_cofactor,
    evaluate_poly,
)

_T = sympy.Symbol("t")

# psi_12: the least strong pseudoprime to the bases 2..37 (Sorenson-Webster
# 2017), = 399165290221 * 798330580441.
PSI_12 = 318665857834031151167461


def _to_sympy(f: UniPoly):
    return sum(int(c) * _T**k for k, c in enumerate(f.coeffs))


def _from_sympy(expr) -> UniPoly:
    """An integer polynomial in t, e.g. a product expanded by sympy."""
    return UniPoly([int(c) for c in reversed(sympy.Poly(expr, _T).all_coeffs())])


def _gcd_degree(f: UniPoly, g: UniPoly) -> int:
    """deg gcd(f, g) over Q, by qpbench/exact.py's Euclid."""
    return qpbench_exact.poly_gcd_degree(f.coeffs, g.coeffs)


def random_unipoly(rng: random.Random, degree: int, monic: bool = False) -> UniPoly:
    coeffs = [rng.randint(-9, 9) for _ in range(degree)]
    coeffs.append(1 if monic else rng.choice([c for c in range(-9, 10) if c]))
    return UniPoly(coeffs)


# ---------------------------------------------------------------------------
# Integers
# ---------------------------------------------------------------------------

def test_is_probable_prime():
    for p in (2, 3, 5, 7, 41, 97, 65537, BIG_PRIME, 2**61 - 1):
        assert is_probable_prime(p), p
    # 3825123056546413051 is a strong pseudoprime to the bases 2..31.
    for n in (-7, 0, 1, 4, 9, 91, 561, 1105, 6601, 2**61 + 1,
              3825123056546413051, PSI_12):
        assert not is_probable_prime(n), n


def test_primality_from_psi_13_on_adds_a_strong_lucas_test():
    # PSI_13 is a strong pseudoprime to all 13 Miller-Rabin bases 2..41.
    assert integers.PSI_13 == 1287836182261 * 2575672364521
    assert not is_probable_prime(integers.PSI_13)
    with pytest.raises(FactorizationError):
        factor_with_hints(integers.PSI_13)
    for k in (89, 107, 127):
        assert is_probable_prime(2**k - 1), k
    rng = random.Random(13)
    odd = [rng.randrange(integers.PSI_13, 2**128) | 1 for _ in range(300)]
    near = [int(sympy.nextprime(rng.randrange(2**41 - 2**36, 2**41 + 2**36)))
            for _ in range(40)]
    semiprimes = [a * b for a, b in zip(near, near[1:])]
    assert min(semiprimes) > integers.PSI_13
    for n in odd + semiprimes + near:
        assert is_probable_prime(n) == sympy.isprime(n), n
    assert sum(map(is_probable_prime, odd)) >= 3


def test_strong_lucas_test_matches_sympy():
    from sympy.ntheory.primetest import is_strong_lucas_prp

    # 5459, 5777, 10877, 16109 and 18971 are strong Lucas pseudoprimes.
    for n in range(43, 20000, 2):
        if all(n % q for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)):
            assert integers._is_strong_lucas_prp(n) == is_strong_lucas_prp(n), n
    assert not integers._is_strong_lucas_prp(10007**2)


def test_factor_with_hints():
    assert factor_with_hints(600) == {2: 3, 3: 1, 5: 2}
    assert factor_with_hints(-600) == {2: 3, 3: 1, 5: 2}
    assert factor_with_hints(2**12 * BIG_PRIME) == {2: 12, BIG_PRIME: 1}
    big_semiprime = (10**9 + 7) * (10**9 + 9)
    assert factor_with_hints(big_semiprime, hints=(10**9 + 7,)) == {
        10**9 + 7: 1,
        10**9 + 9: 1,
    }
    with pytest.raises(FactorizationError):
        factor_with_hints(big_semiprime)
    # Below PSI_13 a composite cofactor is never taken for a prime.
    with pytest.raises(FactorizationError):
        factor_with_hints(PSI_12)
    with pytest.raises(ValueError):
        factor_with_hints(0)
    # Perfect powers of large primes unwrap without hints.
    assert factor_with_hints((10**9 + 7) ** 2) == {10**9 + 7: 2}


def test_trial_division_primes_grow_in_order():
    # 999979 * 999983 sends trial division to the end of the prime list.
    assert factor_with_hints(999979 * 999983) == {999979: 1, 999983: 1}
    assert integers._sieved_to == integers.TRIAL_DIVISION_LIMIT + 1
    limit = integers.TRIAL_DIVISION_LIMIT
    composite = bytearray(limit + 1)
    for i in range(2, int(limit**0.5) + 1):
        if not composite[i]:
            composite[i * i :: i] = b"\x01" * len(range(i * i, limit + 1, i))
    assert integers._sieve_primes == [
        n for n in range(2, limit + 1) if not composite[n]
    ]


def _reference_factor(n, hints=()):
    """The per-prime trial-division loop factor_with_hints ran before the
    block sweep and the early stop, kept as the oracle."""
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    factors = {}
    k = 0
    while k < len(integers._sieve_primes) or integers._extend_primes():
        p = integers._sieve_primes[k]
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        k += 1
    if n == 1:
        return factors
    limit = integers.TRIAL_DIVISION_LIMIT
    if n <= limit * limit and is_probable_prime(n):
        factors[n] = factors.get(n, 0) + 1
        return factors
    for h in hints:
        if h > 1 and is_probable_prime(h):
            while n % h == 0:
                factors[h] = factors.get(h, 0) + 1
                n //= h
    if n == 1:
        return factors
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        power = integers._perfect_power(m)
        if power is not None:
            root, k = power
            stack.extend([root] * k)
            continue
        raise FactorizationError("unfactored composite cofactor")
    return factors


def _outcome(factor, n, hints):
    try:
        return factor(n, hints)
    except (FactorizationError, ValueError) as error:
        return type(error), str(error)


def _assert_factors_like_the_reference(cases):
    for n, hints in cases:
        got = _outcome(factor_with_hints, n, hints)
        assert got == _outcome(_reference_factor, n, hints), (n, hints)
        if isinstance(got, dict) and n:
            assert got == sympy.factorint(abs(n)), n


def _seeded_integers(seed, count, hint_from):
    """(n, hints) with n of 1..40 digits; a quarter of those above 20 digits
    are made divisible by a hint prime."""
    rng = random.Random(seed)
    for _ in range(count):
        digits = rng.randint(1, 40)
        n = rng.randrange(10 ** (digits - 1), 10**digits)
        hints = ()
        if digits > 20 and rng.random() < 0.25:
            h = int(sympy.nextprime(rng.randrange(hint_from, 10 * hint_from)))
            n = n // h * h
            hints = (h,)
        yield rng.choice((n, -n)), hints


def test_factoring_matches_the_per_prime_loop_at_a_small_limit(monkeypatch):
    # The same code with primes to 10^4 in segments of 300 numbers: blocks
    # span segments, most segments complete no block, the last block is
    # short, and most cofactors outlive the sweep.  (Each segment holds a
    # prime, which the reference loop needs.)  At the real limit the
    # reference loop takes about 10 ms per full sweep.
    monkeypatch.setattr(integers, "TRIAL_DIVISION_LIMIT", 10**4)
    monkeypatch.setattr(integers, "_SEGMENT", 300)
    monkeypatch.setattr(integers, "_sieve_primes", [])
    monkeypatch.setattr(integers, "_sieved_to", 0)
    monkeypatch.setattr(integers, "_block_products", [])
    # Below PSI_13 a prime cofactor ends the sweep; above it Miller-Rabin is
    # no proof, so every prime to the limit is tried first.
    p20, p25 = int(sympy.nextprime(10**19)), int(sympy.nextprime(10**25))
    assert factor_with_hints(p20) == {p20: 1}
    assert integers._sieved_to == 0
    assert factor_with_hints(2 * p20) == {2: 1, p20: 1}
    assert integers._sieved_to < 10**4
    assert factor_with_hints(2 * p25) == {2: 1, p25: 1}
    assert integers._sieved_to == 10**4 + 1
    cases = [(0, ()), (1, ()), (-1, ()), (9973 * 9967, ()), (10007**2, ()),
             (10007 * 10009, ()), (10007 * 10009, (10009,))]
    cases += _seeded_integers(20261018, 2000, 10**4)
    _assert_factors_like_the_reference(cases)
    assert integers._sieve_primes == list(sympy.primerange(2, 10**4 + 1))
    assert len(integers._block_products) == -(-1229 // integers._BLOCK)


def test_factoring_matches_the_per_prime_loop_at_the_limit():
    cases = list(_seeded_integers(20261019, 30, 10**9))
    # 2^12 * P for primes P of 13..30 digits: the shape of a discriminant
    # whose cofactor after 2 is a large prime.
    cases += [(2**12 * int(sympy.nextprime(10 ** (d - 1))), ())
              for d in range(13, 31)]
    # Products of primes near 10^6, and a square of a prime above it.
    near = [999953, 999959, 999961, 999979, 999983, 1000003, 1000033]
    cases += [(p * q, ()) for i, p in enumerate(near) for q in near[i:]]
    cases += [((10**6 + 3) ** 2, ()), (2**12 * 3 * (10**6 + 3) ** 2, ())]
    # Composite cofactors above PSI_13: unfactored, unwrapped as a power,
    # and split by a hint.
    p7, p13, p18 = (int(sympy.nextprime(10**d)) for d in (7, 13, 18))
    assert p7 * p18 > integers.PSI_13
    cases += [(2**12 * p7 * p18, ()), (6 * p13**2, ()),
              (2**12 * p7 * p18, (p18,)), (PSI_12, ())]
    _assert_factors_like_the_reference(cases)


def test_factoring_a_prime_cofactor_sieves_one_segment():
    # In a fresh process, 2^12 * 3 * P (P a 20-digit prime) stops once the
    # cofactor P is proven prime, after the first segment of the sieve.
    code = (
        "from quadpencil.exactmath import integers\n"
        "p = 10**19 + 51\n"
        "assert integers.is_probable_prime(p)\n"
        "assert integers.factor_with_hints(2**12 * 3 * p) == {2: 12, 3: 1, p: 1}\n"
        "print(integers._sieved_to)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.dirname(integers.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert int(result.stdout) == 1 << 15


# ---------------------------------------------------------------------------
# Linear algebra mod p
# ---------------------------------------------------------------------------

def test_kernel_vectors_annihilate_the_matrix():
    rng = random.Random(20260401)
    for _ in range(100):
        n = rng.randint(3, 6)
        m = rng.randint(3, 6)
        p = rng.choice((3, 5, 7, 11, 13, 97))
        matrix = [[rng.randint(-20, 20) for _ in range(m)] for _ in range(n)]
        basis = kernel_mod_p(matrix, p)
        assert len(basis) == m - rank_mod_p(matrix, p)
        for v in basis:
            assert all(
                sum(row[j] * v[j] for j in range(m)) % p == 0 for row in matrix
            )
        if basis:
            assert rank_mod_p(basis, p) == len(basis)  # independent
    with pytest.raises(ValueError):
        kernel_mod_p([[1, 0], [0, 1]], 2)


def test_rref_mod_p_is_reduced_echelon_form():
    rng = random.Random(20261018)
    for _ in range(200):
        n = rng.randint(1, 6)
        m = rng.randint(1, 8)
        p = rng.choice((2, 3, 5, 7, 13))
        matrix = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        rows, pivots = rref_mod_p(matrix, p)
        assert len(rows) == n and all(len(row) == m for row in rows)
        assert all(0 <= x < p for row in rows for x in row)
        assert pivots == sorted(set(pivots))  # strictly increasing
        assert len(pivots) == rank_mod_p(matrix, p)
        for i, c in enumerate(pivots):
            assert all(x == 0 for x in rows[i][:c])  # leading 1 at c
            assert [row[c] for row in rows] == [int(k == i) for k in range(n)]
        assert all(not any(row) for row in rows[len(pivots):])  # zero rows last
        # The rows span the row space of the matrix mod p.
        assert rank_mod_p(rows + matrix, p) == len(pivots)


def test_rank_mod_p():
    identity = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    for p in (2, 7):
        assert rank_mod_p(identity, p) == 4
        assert rank_mod_p([[0, 0], [0, 0]], p) == 0
    assert rank_mod_p([[1, 0], [0, 7]], 7) == 1  # rank drops mod 7
    assert rank_mod_p([[1, 0], [0, 2]], 2) == 1  # rank drops mod 2
    assert rank_mod_p([[1, 1], [1, -1]], 2) == 1
    assert rank_mod_p([[1, 1], [1, -1]], 3) == 2


def test_solve_mod_p():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(2, 5)
        m = rng.randint(2, 5)
        p = rng.choice((2, 3, 5, 7, 13))
        matrix = [[rng.randint(0, p - 1) for _ in range(m)] for _ in range(n)]
        x0 = [rng.randint(0, p - 1) for _ in range(m)]
        rhs = [sum(row[j] * x0[j] for j in range(m)) % p for row in matrix]
        x = solve_mod_p(matrix, rhs, p)
        assert x is not None
        assert all(
            sum(row[j] * x[j] for j in range(m)) % p == b
            for row, b in zip(matrix, rhs)
        )
    assert solve_mod_p([[1, 0], [1, 0]], [0, 1], 5) is None
    assert solve_mod_p([[1, 1], [1, -1]], [0, 1], 2) is None


# ---------------------------------------------------------------------------
# Determinants
# ---------------------------------------------------------------------------

def test_fraction_free_det_matches_cofactor_on_integers():
    rng = random.Random(20260402)
    for _ in range(60):
        n = rng.randint(2, 5)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det_poly_matrix(m) == det_cofactor(m)


def test_fraction_free_det_matches_cofactor_on_fractions():
    rng = random.Random(20260403)
    for _ in range(40):
        n = rng.randint(2, 4)
        m = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
            for _ in range(n)
        ]
        scaled, product = clear_row_denominators(m)
        assert det_cofactor(m) == Fraction(det_poly_matrix(scaled), product)


def test_fraction_free_det_matches_the_benchmark_int_det():
    """Integer determinants agree with qpbench/exact.py's own Bareiss loop.

    The sizes are those of the characteristic form (6) and of the Sylvester
    matrix of a sextic and its derivative (11).  Zeros at the top of the
    first column force a row swap at the first pivot; entries in {-1, 0, 1}
    give zero pivots later on and singular matrices.
    """
    rng = random.Random(20261018)
    for n in (6, 11):
        for trial in range(40):
            if trial % 2:
                m = [[rng.choice((-1, 0, 0, 1)) for _ in range(n)] for _ in range(n)]
            else:
                m = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
            for i in range(rng.randint(1, n - 1)):
                m[i][0] = 0
            assert m[0][0] == 0
            assert det_poly_matrix(m) == qpbench_exact.int_det(m)


def test_det_validations():
    with pytest.raises(ValueError, match="non-square"):
        det_poly_matrix([[1, 2]])
    big = [[1 if i == j else 0 for j in range(17)] for i in range(17)]
    with pytest.raises(ValueError, match="exceeds cap"):
        det_poly_matrix(big)


# ---------------------------------------------------------------------------
# Univariate polynomials
# ---------------------------------------------------------------------------

def test_unipoly_ring_operations():
    assert UniPoly((0, 0, 0, 0, 3)).derivative() == UniPoly((0, 0, 0, 12))
    assert evaluate_poly(UniPoly((1, 2, 1)), Fraction(1, 2)) == Fraction(9, 4)
    assert UniPoly(()).degree() == -1
    assert UniPoly((0, 0)).is_zero()
    with pytest.raises(AttributeError):
        UniPoly((1,)).coeffs = (2,)
    assert UniPoly((0, 2, 0)) == UniPoly([0, 2]) != UniPoly((0, 2, 1))
    assert hash(UniPoly((3, 0, 1))) == hash(UniPoly([3, 0, 1, 0]))
    for bad in (Fraction(1, 2), Fraction(4, 2), 1.0, "1"):
        with pytest.raises(ValueError, match="must be ints"):
            UniPoly((1, bad))


def test_poly_gcd_and_squarefree_check():
    char_form = UniPoly(CHAR_FORM_COEFFS)
    assert squarefree_degree6(char_form)
    squared = _from_sympy((_T - 1) ** 2 * (_T**4 + 1))
    assert squared.degree() == 6
    assert not squarefree_degree6(squared)
    assert not squarefree_degree6(UniPoly((1, 0, 0, 0, 0, 1)))  # degree 5


def test_sturm_count():
    x2_minus_2 = UniPoly((-2, 0, 1))
    assert sturm_count(x2_minus_2) == 2
    assert sturm_count(UniPoly((1, 0, 0, 0, 0, 0, 1))) == 0  # t^6 + 1
    assert sturm_count(UniPoly(CHAR_FORM_COEFFS)) == 2
    with pytest.raises(ValueError, match="non-squarefree"):
        sturm_count(UniPoly((1, 2, 1)))  # (x+1)^2


def test_isolation_intervals_bracket_every_real_root():
    rng = random.Random(20260405)
    checked = 0
    while checked < 40:
        f = random_unipoly(rng, 6)
        if _gcd_degree(f, f.derivative()) != 0:
            continue
        checked += 1
        intervals = isolate_real_roots(f)
        assert len(intervals) == sturm_count(f)
        previous_hi = None
        for lo, hi in intervals:
            assert hi - lo < Fraction(1, 10**6)
            assert evaluate_poly(f, lo) * evaluate_poly(f, hi) < 0
            if previous_hi is not None:
                assert previous_hi <= lo
            previous_hi = hi


def test_isolation_handles_rational_roots():
    f = UniPoly((0, -1, 0, 1))  # x^3 - x = x(x-1)(x+1)
    intervals = isolate_real_roots(f)
    assert len(intervals) == 3
    for root, (lo, hi) in zip((-1, 0, 1), intervals):
        assert lo < root < hi


# Reference: the Sturm chain and bisection in rational arithmetic (sympy's
# polynomial remainder over Q, qpbench's Fraction evaluation) that the
# integer versions in unipoly.py replace; they must give equal results.


def _primitive_over_q(p: sympy.Poly) -> sympy.Poly:
    """p divided by its positive rational content, sign kept."""
    return p.clear_denoms(convert=True)[1].primitive()[1].to_field()


def fraction_sturm_chain(f: UniPoly) -> list[tuple[int, ...]]:
    """f, f', then minus each remainder over Q, each made primitive."""
    head = sympy.Poly(_to_sympy(f), _T, domain=sympy.QQ)
    chain = [_primitive_over_q(head), _primitive_over_q(head.diff(_T))]
    while not chain[-1].is_zero and chain[-1].degree() > 0:
        r = chain[-2].rem(chain[-1])
        if r.is_zero:
            break
        chain.append(_primitive_over_q(-r))
    return [
        tuple(int(c) for c in reversed(p.all_coeffs())) for p in chain if not p.is_zero
    ]


def fraction_isolate(f: UniPoly, width=Fraction(1, 10**6)):
    chain = fraction_sturm_chain(f)

    def value(x):
        return qpbench_exact.poly_eval(f.coeffs, x)

    def variations(x):
        values = [qpbench_exact.poly_eval(p, x) for p in chain]
        signs = [(v > 0) - (v < 0) for v in values if v]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    def count(lo, hi):
        return variations(lo) - variations(hi)

    lead = abs(Fraction(f.leading()))
    m = max((abs(Fraction(c)) for c in f.coeffs[:-1]), default=Fraction(0))
    bound = 1 + m / lead
    result = []
    stack = [(-bound, bound, count(-bound, bound))]
    while stack:
        lo, hi, n = stack.pop()
        if n == 0:
            continue
        if n == 1 and hi - lo < width:
            result.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        if value(mid) == 0:
            eps = min(width / 4, (hi - lo) / 4)
            while count(mid - eps, mid + eps) != 1:
                eps /= 2
            result.append((mid - eps, mid + eps))
            left_n = count(lo, mid - eps)
            right_n = count(mid + eps, hi)
            if left_n:
                stack.append((lo, mid - eps, left_n))
            if right_n:
                stack.append((mid + eps, hi, right_n))
            continue
        left_n = count(lo, mid)
        if left_n:
            stack.append((lo, mid, left_n))
        if n - left_n:
            stack.append((mid, hi, n - left_n))
    return sorted(result)


def test_isolation_equals_the_fraction_bisection():
    rng = random.Random(20261018)
    checked = 0
    while checked < 200:
        f = random_unipoly(rng, 6)
        if _gcd_degree(f, f.derivative()) != 0:
            continue
        checked += 1
        assert isolate_real_roots(f) == fraction_isolate(f), f
    # Rational roots: each is the midpoint of some bisection step.
    x3_minus_x = UniPoly((0, -1, 0, 1))
    assert isolate_real_roots(x3_minus_x) == fraction_isolate(x3_minus_x)
    # The root 0 is the first midpoint, and 10^-7 is too close for the first
    # eps around it.
    close = UniPoly((0, -1, 10**7))
    assert isolate_real_roots(close) == fraction_isolate(close)
    # The root 1 is the midpoint of a one-root interval at depth 4.
    f = UniPoly((6, 1, -6, 9, -9, 6, -7))
    assert evaluate_poly(f, 1) == 0
    assert isolate_real_roots(f) == fraction_isolate(f)
    assert isolate_real_roots(f, Fraction(1, 7)) == fraction_isolate(f, Fraction(1, 7))


def test_integer_sturm_chain_equals_the_fraction_chain():
    rng = random.Random(20261019)
    for trial in range(150):
        f = random_unipoly(rng, rng.randint(1, 6))
        if trial % 3 == 0:  # repeated factors
            g = random_unipoly(rng, rng.randint(1, 2))
            f = _from_sympy(_to_sympy(f) * _to_sympy(g) ** 2)
        if trial % 5 == 0:  # a content to divide out
            f = UniPoly([c * rng.randint(2, 9) for c in f.coeffs])
        assert _sturm_chain(f) == fraction_sturm_chain(f), f


def test_squarefree_degree6_agrees_with_poly_gcd():
    rng = random.Random(20261020)
    for trial in range(150):
        if trial % 2:
            g = random_unipoly(rng, rng.randint(1, 3))
            h = random_unipoly(rng, 6 - 2 * g.degree())
            f = _from_sympy(_to_sympy(g) ** 2 * _to_sympy(h))
        else:
            f = random_unipoly(rng, rng.choice((5, 6, 6, 6)))
        expected = f.degree() == 6 and _gcd_degree(f, f.derivative()) == 0
        assert squarefree_degree6(f) == expected, f


def test_poly_discriminant_known_values_and_sympy():
    rng = random.Random(20260406)
    for _ in range(30):
        b, c = rng.randint(-9, 9), rng.randint(-9, 9)
        assert poly_discriminant(UniPoly((c, b, 1))) == b * b - 4 * c
        p_, q_ = rng.randint(-9, 9), rng.randint(-9, 9)
        assert (
            poly_discriminant(UniPoly((q_, p_, 0, 1)))
            == -4 * p_**3 - 27 * q_**2
        )
    assert poly_discriminant(UniPoly(CHAR_FORM_COEFFS)) == POLY_DISC
    for _ in range(30):
        f = random_unipoly(rng, 6)
        expected = sympy.discriminant(_to_sympy(f), _T)
        assert poly_discriminant(f) == int(expected)
    with pytest.raises(ValueError):
        poly_discriminant(UniPoly((1, 1)))


def _sylvester_det_oracle(f: UniPoly, g: UniPoly) -> int:
    """Textbook Sylvester determinant: deg(g) rows of f, deg(f) rows of g."""
    m, n = f.degree(), g.degree()
    size = m + n
    rows = []
    for i in range(n):
        rows.append([0] * i + list(reversed(f.coeffs)) + [0] * (n - 1 - i))
    for i in range(m):
        rows.append([0] * i + list(reversed(g.coeffs)) + [0] * (m - 1 - i))
    assert all(len(r) == size for r in rows)
    return int(sympy.Matrix(rows).det())


def test_resultant_properties():
    # Res(x - 2, g) = g(2) by the product formula.
    assert resultant(UniPoly((-2, 1)), UniPoly((1, 0, 1))) == 5
    rng = random.Random(20260407)
    for _ in range(30):
        f = random_unipoly(rng, rng.randint(1, 4))
        g = random_unipoly(rng, rng.randint(1, 4))
        rfg = resultant(f, g)
        sign = -1 if (f.degree() * g.degree()) % 2 else 1
        assert rfg == sign * resultant(g, f)
        assert rfg == _sylvester_det_oracle(f, g)


# ---------------------------------------------------------------------------
# Repeated roots mod p
# ---------------------------------------------------------------------------

def test_repeated_roots_of_the_example_form_at_the_big_prime():
    f = UniPoly(CHAR_FORM_COEFFS)
    roots = repeated_roots_mod_p(f, BIG_PRIME)
    assert roots == [REPEATED_ROOT_MOD_BIG]


def test_repeated_roots_match_brute_force():
    rng = random.Random(20260408)
    for _ in range(50):
        f = random_unipoly(rng, 6, monic=True)
        p = rng.choice((3, 5, 7, 11, 13, 31, 97))
        coeffs = [int(c) % p for c in f.coeffs]

        def value(poly_coeffs, r):
            acc = 0
            for c in reversed(poly_coeffs):
                acc = (acc * r + c) % p
            return acc

        deriv = [k * c % p for k, c in enumerate(coeffs)][1:]
        expected = {
            r
            for r in range(p)
            if value(coeffs, r) == 0 and value(deriv, r) == 0
        }
        got = set(repeated_roots_mod_p(f, p))
        assert got == expected
        # An F_p-rational repeated root forces p | disc(f) (the converse can
        # fail: the repeated root may live in an extension field).
        if expected:
            assert poly_discriminant(f) % p == 0


def test_repeated_roots_large_prime_ladder():
    # (x - 12345)^2 (x^2 + 1)(x^2 + 2) has exactly one repeated root.
    f = _from_sympy((_T - 12345) ** 2 * (_T**2 + 1) * (_T**2 + 2))
    q = 2**31 - 1
    roots = repeated_roots_mod_p(f, q)
    assert roots == [12345]


def test_repeated_roots_inseparable_branch():
    # f' vanishes mod 3 for x^3 + 1 = (x + 1)^3; every root is repeated.
    roots = repeated_roots_mod_p(UniPoly((1, 0, 0, 1)), 3)
    assert roots == [2]


def test_repeated_roots_guards():
    f = UniPoly(CHAR_FORM_COEFFS)
    with pytest.raises(ValueError, match="not prime"):
        repeated_roots_mod_p(f, 6)
    with pytest.raises(ValueError, match="identically zero"):
        repeated_roots_mod_p(UniPoly((3, 3, 3)), 3)


def _value_mod(coeffs, r: int, p: int) -> int:
    return sum(c * r**k for k, c in enumerate(coeffs)) % p


def test_roots_mod_p_match_evaluation():
    rng = random.Random(20261018)
    for p in (2, 3, 5, 7, 11, 13, 31, 97):
        for _ in range(40):
            if rng.random() < 0.5:
                coeffs = [rng.randint(-20, 20) for _ in range(rng.randint(1, 7))]
            else:  # a product of linear factors, with repeats, times a constant
                coeffs = [rng.randint(1, p - 1) if p > 2 else 1]
                for _ in range(rng.randint(1, 6)):
                    r = rng.randrange(p)
                    coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
            if all(c % p == 0 for c in coeffs):
                continue
            expected = [r for r in range(p) if _value_mod(coeffs, r, p) == 0]
            assert roots_mod_p(coeffs, p) == expected, (coeffs, p)


def test_roots_mod_p_of_zero_and_constant_polynomials():
    for coeffs in ([], [0], [7, 14, 0, 21]):
        with pytest.raises(ValueError, match="identically zero"):
            roots_mod_p(coeffs, 7)
    assert roots_mod_p([5], 7) == []
    assert roots_mod_p([5, 7, 0, 14], 7) == []  # constant mod 7
    assert roots_mod_p([3, 7], 7) == []


def test_roots_mod_p_of_a_split_quartic_at_a_25_digit_prime():
    p = 2456707290572634878240383
    assert is_probable_prime(p)
    roots = [3, 10**20 + 39, p - 5, 1234567890123456789012345]
    coeffs = [1]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    assert roots_mod_p(coeffs, p) == sorted(roots)
    # Times t^2 - n for a non-residue n: the quadratic adds no root.
    n = next(n for n in range(2, 100) if pow(n, (p - 1) // 2, p) == p - 1)
    sextic = [a - n * b for a, b in zip([0, 0] + coeffs, coeffs + [0, 0])]
    assert roots_mod_p(sextic, p) == sorted(roots)
