"""Integer factorization: trial division, hint primes, Miller-Rabin, perfect powers."""

from __future__ import annotations

from itertools import compress

TRIAL_DIVISION_LIMIT = 10**6

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Primes below _sieved_to, in order; grown in place by _extend_primes.
_sieve_primes: list[int] = []
_sieved_to = 0
# Numbers sieved per extension: the first segment reaches past every prime
# that trial division on the bundled inputs needs.
_SEGMENT = 1 << 15


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
    return True


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (probabilistic far beyond)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


def factor_with_hints(n: int, hints: tuple[int, ...] | list[int] = ()) -> dict[int, int]:
    """Complete prime factorization of |n|.

    Strategy: trial division to 10^6, then the hint primes, then Miller-Rabin
    on the cofactor (with perfect-power unwrapping).  If a composite cofactor
    survives, raises FactorizationError("unfactored composite cofactor").
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    factors: dict[int, int] = {}
    k = 0
    while k < len(_sieve_primes) or _extend_primes():
        p = _sieve_primes[k]
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        k += 1
    if n == 1:
        return factors
    if n <= TRIAL_DIVISION_LIMIT * TRIAL_DIVISION_LIMIT and is_probable_prime(n):
        # Trial division reached sqrt(n), so a surviving n is prime anyway;
        # record without further work.
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
