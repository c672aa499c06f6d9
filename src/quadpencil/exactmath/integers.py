"""Integer factorization: trial division, hint primes, Miller-Rabin, perfect powers."""

from __future__ import annotations

from itertools import compress
from math import gcd, prod

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
    """Miller-Rabin, deterministic for n < PSI_13 ~ 3.3e24 (probabilistic beyond)."""
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
    return True


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
    tested by Miller-Rabin (with perfect-power unwrapping).  If a composite
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

def sqrt_mod_p(a: int, p: int) -> int | None:
    """A square root of a modulo the odd prime p, or None for a non-residue.

    Deterministic Tonelli-Shanks: the needed non-residue is found by
    sequential search from 2.  The smaller of the two roots is returned.
    """
    if p == 2 or not is_probable_prime(p):
        raise ValueError("sqrt_mod_p requires an odd prime")
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c = s, pow(z, q, p)
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return min(r, p - r)
