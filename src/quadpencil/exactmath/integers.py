"""Integer factorization: trial division, hint primes, Miller-Rabin (with a strong
Lucas test from PSI_13 on), perfect powers."""

from __future__ import annotations

from array import array
from itertools import compress
from math import gcd, isqrt, prod

TRIAL_DIVISION_LIMIT = 10**6

# A cofactor left by trial division and the hints is tested for primality
# and perfect powers only up to this many bits; past it factor_with_hints
# gives up, since Miller-Rabin alone then takes minutes.
FACTOR_BIT_BUDGET = 4096

# Miller-Rabin with the first k primes as bases is deterministic for every
# n < psi_k, the least strong pseudoprime to all of them (OEIS A014233:
# Jaeschke 1993; Sorenson-Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 2017, for psi_12 and PSI_13 = psi_13).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981
_MR_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 341550071728321, 3825123056546413051,
           3825123056546413051, 3825123056546413051, 318665857834031151167461, PSI_13)

# Primes below _sieved_to, in order, as 4-byte unsigned ints; grown in place
# by _extend_primes, one segment of _SEGMENT numbers at a time.
_sieve_primes = array("I")
_sieved_to = 0
# Numbers sieved per extension: the first segment reaches past every prime
# that trial division on the bundled inputs needs.
_SEGMENT = 1 << 15
# _segments[s] = (start, blocks) for the s-th sieved segment: its primes
# begin at _sieve_primes[start], and blocks[j] is the product of their j-th
# run of _BLOCK primes (the last run may be shorter).  No segment-wide
# product is kept: one costs about 1.3 ms of Karatsuba multiplication to
# build, 40 ms for a sieve to the limit.
_BLOCK = 128
_segments: list[tuple[int, list[int]]] = []


class FactorizationError(RuntimeError):
    """Raised when a cofactor cannot be certified prime or split further."""


def require_ints(values, what: str) -> None:
    """ValueError unless every value is an int, so that no float, Fraction
    or string is floored into one."""
    if not all(isinstance(c, int) for c in values):
        raise ValueError(f"{what} must be ints")


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
        for i in range(2, isqrt(hi - 1) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(range(i * i, hi, i)))
    else:
        for p in _sieve_primes:
            if p * p >= hi:
                break
            start = max(p * p, -(-lo // p) * p)
            sieve[start - lo :: p] = bytearray(len(range(start, hi, p)))
    primes = list(compress(range(lo, hi), sieve))
    blocks = [prod(primes[k : k + _BLOCK]) for k in range(0, len(primes), _BLOCK)]
    _segments.append((len(_sieve_primes), blocks))
    _sieve_primes.fromlist(primes)
    _sieved_to = hi
    return True


def is_probable_prime(n: int) -> bool:
    """Primality by Miller-Rabin on the bases _MR_BASES, exact for n < PSI_13.

    The test stops after the first k bases once n < psi_k.  From PSI_13 on,
    a strong Lucas test follows (together, the Baillie-PSW test, which has
    no known pseudoprime); below it nothing is added.  ValueError on a non-int.
    """
    if not isinstance(n, int):
        raise ValueError(f"{n!r} is not an int")
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
    for a, psi in zip(_MR_BASES, _MR_PSI):
        x = pow(a, d, n)
        if x not in (1, n - 1):
            for _ in range(r - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    return _is_strong_lucas_prp(n)


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
    """Return (root, k) with root**k == n and k >= 2 least, or None.

    The least k is prime, since r**(a*b) == (r**b)**a, so only prime
    exponents are tried.
    """
    for k in range(2, n.bit_length() + 1):
        if not is_probable_prime(k):
            continue
        r = _integer_nth_root(n, k)
        if r < 2:
            break
        if r**k == n:
            return r, k
    return None


def _is_proven_prime(n: int) -> bool:
    """True iff n is a prime below PSI_13, where Miller-Rabin is exact."""
    return 1 < n < PSI_13 and is_probable_prime(n)


def _divide_out(n: int, p: int) -> tuple[int, int]:
    """(n / p^e, e) for the exponent e of p > 1 in n != 0.  The exponent of
    p^2 is e // 2, so the recursion takes about 2 log2(e) divisions."""
    if n % p:
        return n, 0
    n, half = _divide_out(n, p * p)
    odd = n % p == 0
    return (n // p if odd else n), 2 * half + odd


def factor_with_hints(n: int, hints: tuple[int, ...] | list[int] = ()) -> dict[int, int]:
    """Complete prime factorization of |n|.

    Trial division to 10^6 stops once the cofactor is proven prime (below
    PSI_13, tested at entry and after each segment that divides it) or is
    1.  It takes one gcd of the cofactor with each sieve segment's product
    (reduced mod the cofactor block by block); only where that exceeds 1
    does it take the gcd with each of the segment's blocks of _BLOCK
    primes, and divide by the primes of the blocks that share a factor
    with it.  The segments are sieved as the sweep reaches them.  A
    cofactor that survives the sweep is divided by the hint primes, then
    tested by is_probable_prime (with perfect-power unwrapping).  If a composite
    cofactor remains, raises FactorizationError("unfactored composite
    cofactor"); a cofactor longer than FACTOR_BIT_BUDGET bits raises
    FactorizationError before any of those tests runs.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    if _is_proven_prime(n):
        return {n: 1}
    factors: dict[int, int] = {}
    # A cofactor n > 1 left here has no prime factor below the primes
    # tried, and is not a prime below PSI_13, so it is at least the square
    # of the next prime: every segment can still divide it.
    s = 0
    while n > 1 and (s < len(_segments) or _extend_primes()):
        start, blocks = _segments[s]
        s += 1
        # The gcd of n with the segment's product, from that product mod n.
        rest = 1
        for block in blocks:
            rest = rest * (block % n) % n
        common = gcd(rest, n)
        if common == 1:
            continue
        for j, block in enumerate(blocks):
            found = gcd(block, common)
            if found == 1:
                continue
            common //= found
            # Every prime of found lies in this block, so the loop ends
            # (found == 1) before it passes the block's end.
            for p in _sieve_primes[start + j * _BLOCK : start + (j + 1) * _BLOCK]:
                if found % p == 0:
                    found //= p
                    n, factors[p] = _divide_out(n, p)
                    if found == 1:
                        break
            if common == 1:
                break
        # One test per segment returns what a test after each prime would:
        # once n is prime, the only prime left to divide it is n.
        if _is_proven_prime(n):
            factors[n] = 1
            return factors
    for h in hints:
        if h > 1 and n % h == 0 and is_probable_prime(h):
            n, factors[h] = _divide_out(n, h)  # trial division left no power of h
    if n == 1:
        return factors
    if n.bit_length() > FACTOR_BIT_BUDGET:
        raise FactorizationError(
            f"cofactor of {n.bit_length()} bits exceeds the "
            f"{FACTOR_BIT_BUDGET}-bit budget"
        )
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
