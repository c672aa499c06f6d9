"""Integer factorization: trial division, hint primes, Miller-Rabin (with a strong
Lucas test from PSI_13 on), perfect powers."""

from __future__ import annotations

from itertools import compress
from math import gcd, isqrt, prod

TRIAL_DIVISION_LIMIT = 10**6

# Miller-Rabin with the first 13 primes as bases is deterministic for every
# n < PSI_13, the least strong pseudoprime to all of them (Sorenson-Webster,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017).  Without 41
# the bound would be psi_12 = 318665857834031151167461, a strong pseudoprime
# to the bases 2..37.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981

# Primes below _sieved_to, in order; grown in place by _extend_primes.
_sieve_primes: list[int] = []
_sieved_to = 0
# Numbers sieved per extension: the first segment reaches past every prime
# that trial division on the bundled inputs needs.
_SEGMENT = 1 << 15
# _block_products[k] is the product of the k-th block of _BLOCK primes of
# _sieve_primes; trial division divides only by the blocks sharing a factor
# with the cofactor.  The last, shorter block is built once the limit is
# sieved.
_BLOCK = 128
_block_products: list[int] = []


class FactorizationError(RuntimeError):
    """Raised when a cofactor cannot be certified prime or split further."""


def _extend_primes() -> bool:
    """Append the primes of the next segment below TRIAL_DIVISION_LIMIT + 1.

    Returns False once the limit is reached.  The first segment is sieved
    outright; later ones are crossed off by the primes already found, which
    reach past the square root of the limit.
    """
    global _sieved_to
    lo = _sieved_to
    hi = min(lo + _SEGMENT, TRIAL_DIVISION_LIMIT + 1)
    if lo >= hi:
        return False
    sieve = bytearray([1]) * (hi - lo)
    if lo == 0:
        sieve[0] = sieve[1] = 0
        for i in range(2, int((hi - 1) ** 0.5) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(range(i * i, hi, i)))
    else:
        for p in _sieve_primes:
            if p * p >= hi:
                break
            start = max(p * p, -(-lo // p) * p)
            sieve[start - lo :: p] = bytearray(len(range(start, hi, p)))
    _sieve_primes.extend(compress(range(lo, hi), sieve))
    _sieved_to = hi
    end = len(_sieve_primes)
    if hi <= TRIAL_DIVISION_LIMIT:
        end -= end % _BLOCK
    for start in range(len(_block_products) * _BLOCK, end, _BLOCK):
        _block_products.append(prod(_sieve_primes[start : start + _BLOCK]))
    return True


def is_probable_prime(n: int) -> bool:
    """Primality by Miller-Rabin on the bases _MR_BASES, exact for n < PSI_13.

    From PSI_13 on, a strong Lucas test follows (together, the Baillie-PSW
    test, which has no known pseudoprime); below it nothing is added.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < PSI_13 or _is_strong_lucas_prp(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _is_strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 41 not divisible by 2..41.

    Parameters by Selfridge's method A: D is the first of 5, -7, 9, -11, ...
    with (D/n) = -1, P = 1 and Q = (1 - D)/4.  Writing n + 1 = d 2^s, n passes
    iff U_d = 0 or V_(d 2^r) = 0 mod n for some 0 <= r < s.  A perfect square
    has no such D, so it is rejected first.
    """
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) == 1:
        D = -D - 2 if D > 0 else -D + 2
    if j == 0:
        return False  # gcd(D, n) > 1, and |D| < n
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x: int) -> int:
        return (x + n if x % 2 else x) // 2 % n

    # U_k, V_k and Q^k mod n, from k = 1 along the bits of d (P = 1).
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _integer_nth_root(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 1."""
    if n < 2:
        return n
    hi = 1 << (n.bit_length() // k + 1)
    lo = 0
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    return lo


def _perfect_power(n: int) -> tuple[int, int] | None:
    """Return (root, k) with root**k == n and k >= 2, or None."""
    for k in range(2, n.bit_length() + 1):
        r = _integer_nth_root(n, k)
        if r < 2:
            break
        if r**k == n:
            return r, k
    return None


def _is_proven_prime(n: int) -> bool:
    """True iff n is a prime below PSI_13, where Miller-Rabin is exact."""
    return 1 < n < PSI_13 and is_probable_prime(n)


def factor_with_hints(n: int, hints: tuple[int, ...] | list[int] = ()) -> dict[int, int]:
    """Complete prime factorization of |n|.

    Trial division to 10^6 stops once the cofactor is proven prime (below
    PSI_13, tested at entry and after each prime divided out) or once p^2
    exceeds it.  The primes go by blocks of _BLOCK: a block is divided
    through only when its product shares a factor with the cofactor.  A
    cofactor that survives the sweep is divided by the hint primes, then
    tested by is_probable_prime (with perfect-power unwrapping).  If a composite
    cofactor remains, raises FactorizationError("unfactored composite
    cofactor").
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    if _is_proven_prime(n):
        return {n: 1}
    factors: dict[int, int] = {}
    k = 0
    while k < len(_block_products) or _extend_primes():
        if k == len(_block_products):
            continue  # the new segment completed no block
        block = _sieve_primes[k * _BLOCK : (k + 1) * _BLOCK]
        if block[0] * block[0] > n:
            break
        common = gcd(_block_products[k], n)
        if common > 1:
            for p in block:
                if common % p:
                    continue
                exponent = 0
                while n % p == 0:
                    n //= p
                    exponent += 1
                factors[p] = exponent
                if _is_proven_prime(n):
                    factors[n] = 1
                    return factors
        k += 1
    if n == 1:
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
        power = _perfect_power(m)
        if power is not None:
            root, k = power
            stack.extend([root] * k)
            continue
        raise FactorizationError("unfactored composite cofactor")
    return factors
