"""Dense univariate integer polynomials: Sturm machinery and roots mod p."""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, lcm

from .integers import is_probable_prime

ISOLATION_WIDTH = Fraction(1, 10**6)

# Deterministic shift sweep bound for big-prime root splitting.
_SPLIT_SHIFT_CAP = 64

# common_roots_mod_p evaluates at every residue when p is at most this many
# times the longest coefficient list, and takes gcd(f, t^p - t) otherwise.
# Measured on CPython 3.11: evaluation is faster for one poly of 3 to 7
# coefficients up to p = 100..150, but for two random quadratics, whose gcd
# is usually 1, only up to p = 11.  4 stays below both.  It must be >= 1, so
# that p = 2 always evaluates: no shift (t + c)^0 - 1 splits t^2 + t.
EVALUATION_FACTOR = 4


class UniPoly:
    """Immutable dense polynomial with integer coefficients, lowest degree first.

    The zero polynomial has an empty coefficient tuple and degree -1.  The
    Sturm chain is built on first use and kept on the object.
    """

    __slots__ = ("coeffs", "_sturm")

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        if not all(isinstance(c, int) for c in cs):
            raise ValueError("UniPoly coefficients must be ints")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_sturm", None)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("UniPoly is immutable")

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> int:
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r})"

    def derivative(self) -> "UniPoly":
        return UniPoly(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))


def squarefree_degree6(f: UniPoly) -> bool:
    """True iff deg f = 6 and gcd(f, f') is a nonzero constant."""
    return f.degree() == 6 and len(_sturm_chain(f)[-1]) == 1


# ---------------------------------------------------------------------------
# Sturm sequences and real root isolation
#
# Everything here is integer arithmetic.  A chain element is a tuple of ints,
# lowest degree first; a finite point is a pair (x, den) with den > 0 standing
# for x / den.
# ---------------------------------------------------------------------------


def _primitive(coeffs) -> tuple[int, ...]:
    """Integer coefficients divided by their gcd (sign kept)."""
    g = int_gcd(*coeffs)
    if g > 1:
        return tuple(c // g for c in coeffs)
    return tuple(coeffs)


def _positive_prem(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """A positive integer multiple of the remainder of a by b over Q.

    Each step scales by |lc(b)| rather than lc(b), so, unlike the classical
    pseudo-remainder, the result has the sign of the true remainder.
    """
    rem = list(a)
    db = len(b) - 1
    scale = abs(b[-1])
    sign = 1 if b[-1] > 0 else -1
    for k in range(len(rem) - 1 - db, -1, -1):
        q = rem[k + db] * sign
        if q:
            for i in range(k + db):
                rem[i] *= scale
            for i in range(db):
                rem[k + i] -= q * b[i]
    rem = rem[:db]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _sturm_chain(f: UniPoly) -> list[tuple[int, ...]]:
    """Sturm chain of f, deg f >= 1, as primitive integer tuples.

    Element k is a positive multiple of the k-th element of the Euclidean
    Sturm sequence over Q (f, f', then minus each remainder), so it has the
    same sign everywhere.  The last element is gcd(f, f') up to a constant,
    so f is squarefree iff it has degree 0.  Built once per f; callers must
    not change the list.
    """
    if f._sturm is not None:
        return f._sturm
    head = _primitive(f.coeffs)
    chain = [head, _primitive([k * c for k, c in enumerate(head) if k])]
    while len(chain[-1]) > 1:
        r = _positive_prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_primitive([-c for c in r]))
    object.__setattr__(f, "_sturm", chain)
    return chain


def _squarefree_chain(f: UniPoly) -> list[tuple[int, ...]]:
    chain = _sturm_chain(f)
    if len(chain[-1]) != 1:
        raise ValueError("non-squarefree input")
    return chain


def _value(p: tuple[int, ...], dpow: list[int], x: int) -> int:
    """den^deg(p) * p(x / den) by homogeneous Horner; dpow[j] = den^j."""
    acc = 0
    for j, c in enumerate(reversed(p)):
        acc = acc * x + c * dpow[j]
    return acc


def _powers(den: int, n: int) -> list[int]:
    dpow = [1]
    for _ in range(n):
        dpow.append(dpow[-1] * den)
    return dpow


def _changes(values) -> int:
    """Sign changes in a sequence, zeros dropped."""
    changes = 0
    last = 0
    for v in values:
        if v:
            if last and (v > 0) != (last > 0):
                changes += 1
            last = v
    return changes


def _variations(chain: list[tuple[int, ...]], x: int, den: int) -> int:
    dpow = _powers(den, len(chain[0]) - 1)
    return _changes(_value(p, dpow, x) for p in chain)


def sturm_count(f: UniPoly) -> int:
    """Exact number of real roots of squarefree f, V(-infinity) - V(+infinity).

    At +/-infinity each chain element has the sign of its leading term.
    """
    if f.degree() < 1:
        return 0
    chain = _squarefree_chain(f)
    at_neg_inf = _changes(-p[-1] if len(p) % 2 == 0 else p[-1] for p in chain)
    return at_neg_inf - _changes(p[-1] for p in chain)


def _root_bound(f: UniPoly) -> Fraction:
    """Cauchy bound: all real roots lie in (-B, B)."""
    m = max((abs(c) for c in f.coeffs[:-1]), default=0)
    return 1 + Fraction(m, abs(f.leading()))


def _over_common(a: Fraction, b: Fraction) -> tuple[int, int, int]:
    den = lcm(a.denominator, b.denominator)
    return a.numerator * (den // a.denominator), b.numerator * (den // b.denominator), den


def isolate_real_roots(f: UniPoly, width: Fraction = ISOLATION_WIDTH) -> list[tuple[Fraction, Fraction]]:
    """Disjoint rational intervals (lo, hi], one real root each, width < 10^-6.

    Bisection from the Cauchy bound on integer numerators: a stack entry
    (lo, hi, den, V(lo), V(hi)) is the interval (lo/den, hi/den] with the
    Sturm variations at its ends, so the interval holds V(lo) - V(hi) roots.
    An interval with one root goes straight to the cell that bisecting it
    down to the width would end in (:func:`_root_cell`).
    """
    if f.is_zero() or f.degree() < 1:
        return []
    chain = _squarefree_chain(f)
    head = chain[0]
    deg = len(head) - 1
    width = Fraction(width)

    def variations(point: Fraction) -> int:
        return _variations(chain, point.numerator, point.denominator)

    bound = _root_bound(f)
    b, d = bound.numerator, bound.denominator
    found: list[tuple[Fraction, Fraction]] = []
    stack = [(-b, b, d, _variations(chain, -b, d), _variations(chain, b, d))]
    while stack:
        lo, hi, den, vlo, vhi = stack.pop()
        if vlo - vhi == 1:
            found.append(_root_cell(head, lo, hi, den, width))
            continue
        mid, lo, hi, den = lo + hi, 2 * lo, 2 * hi, 2 * den
        if _value(head, _powers(den, deg), mid) == 0:
            # mid is itself a root: emit a tight interval around it and
            # recurse on the two outer pieces.
            left, right, centre = Fraction(lo, den), Fraction(hi, den), Fraction(mid, den)
            eps = min(width / 4, (right - left) / 4)
            while True:
                v_in, v_out = variations(centre - eps), variations(centre + eps)
                if v_in - v_out == 1:
                    break
                eps /= 2
            found.append((centre - eps, centre + eps))
            if vlo - v_in:
                stack.append((*_over_common(left, centre - eps), vlo, v_in))
            if v_out - vhi:
                stack.append((*_over_common(centre + eps, right), v_out, vhi))
            continue
        vmid = _variations(chain, mid, den)
        if vlo - vmid:
            stack.append((lo, mid, den, vlo, vmid))
        if vmid - vhi:
            stack.append((mid, hi, den, vmid, vhi))
    return sorted(found)


def _root_cell(head: tuple[int, ...], lo: int, hi: int, den: int,
               width: Fraction) -> tuple[Fraction, Fraction]:
    """The interval that bisecting (lo/den, hi/den] down to width ends in.

    The interval holds one simple root of head, and head(lo/den) != 0.
    Halving it m times, m the least with cells narrower than width, makes
    the grid x_k = (lo 2^m + k (hi - lo)) / (den 2^m), k = 0..2^m.  The
    root lies in one cell (x_k, x_k+1], the one whose left end has the
    sign of x_0 and whose right end does not, and those two signs certify
    it.  The grid points tested on the way are picked by regula falsi with
    the Anderson-Bjorck step, after three bisection steps (a sextic's
    values at the ends of a wide interval say little about where its root
    is) and after any two falsi steps in a row that do not halve the
    bracket.  On the curves of random pencils that is about 11 tests per
    root, where bisection makes m tests, about 22.

    A root at an inner grid point x_j is where bisection met it as the
    midpoint of (x_j - 2^t cells, x_j + 2^t cells], 2^t the largest power
    of 2 dividing j, and took (x_j - eps, x_j + eps] with eps a quarter of
    the width or of that interval, whichever is less.
    """
    step = hi - lo
    m = (step * width.denominator // (width.numerator * den)).bit_length()
    if m == 0:
        return Fraction(lo, den), Fraction(hi, den)
    scale = den << m
    dpow = _powers(scale, len(head) - 1)
    lo <<= m
    a, b = 0, 1 << m
    # fa and fb steer the falsi estimates only; the side comes from signs.
    fa, fb = _value(head, dpow, lo), _value(head, dpow, lo + b * step)
    left_positive = fa > 0
    tests = slow = 0
    while b - a > 1:
        bisect = tests < 3 or slow >= 2 or fa == fb
        if bisect:
            k = (a + b) >> 1
        else:
            k = min(max(a + (b - a) * fa // (fa - fb), a + 1), b - 1)
        fk = _value(head, dpow, lo + k * step)
        tests += 1
        if fk == 0:
            t = (k & -k).bit_length() - 1
            centre = Fraction(lo + k * step, scale)
            eps = min(width, Fraction(step << (t + 1), scale)) / 4
            return centre - eps, centre + eps
        before = b - a
        # Anderson-Bjorck: the end kept is scaled by 1 - fk / f(end replaced).
        if (fk > 0) == left_positive:
            if not bisect:
                fb = fb * (fa - fk) // fa if (fa - fk) * fa > 0 else fb // 2
            a, fa = k, fk
        else:
            if not bisect:
                fa = fa * (fb - fk) // fb if (fb - fk) * fb > 0 else fa // 2
            b, fb = k, fk
        slow = slow + 1 if 2 * (b - a) > before else 0
    return Fraction(lo + a * step, scale), Fraction(lo + b * step, scale)


# ---------------------------------------------------------------------------
# Roots mod p
# ---------------------------------------------------------------------------


def _pm_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pm_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    rem = [x % p for x in a]
    _pm_trim(rem)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    quo = [0] * max(len(rem) - db, 0)
    for k in range(len(rem) - db - 1, -1, -1):
        q = rem[k + db] * inv % p
        if q:
            quo[k] = q
            for i, c in enumerate(b):
                rem[k + i] = (rem[k + i] - q * c) % p
    return _pm_trim(quo), _pm_trim(rem[:db])


def _pm_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a = _pm_trim([x % p for x in a])
    b = _pm_trim([x % p for x in b])
    while b:
        _, r = _pm_divmod(a, b, p)
        a, b = b, r
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _pm_shift_power(c: int, e: int, h: list[int], p: int) -> list[int]:
    """(t + c)^e mod h over F_p, trimmed; h has degree >= 1 and a unit leading coefficient.

    Left to right over the bits of e, with the residue held Kronecker-packed:
    coefficient i of a polynomial is bits [i w, (i + 1) w) of one integer
    (Kronecker 1882; Harvey 2009).  A step squares that integer with one
    multiply, reduces the 2d - 1 coefficients by the monic h by adding
    coefficient k times the packed t^k mod h for each k >= d = deg h, and for
    a set bit multiplies by t + c as a shift plus c times itself; then each
    coefficient is taken mod p.  Every packed coefficient is nonnegative and
    below (c + 2) d^2 p^3 < 2^w, so no slot carries into the next.
    """
    inv = pow(h[-1], -1, p)
    monic = [x * inv % p for x in h]
    d, c = len(monic) - 1, c % p
    if d == 1:  # t = -monic[0]
        value = pow(c - monic[0], e, p)
        return [value] if value else []
    if e == 0:
        return [1]
    # t^k mod h for k = d .. 2d - 2, each from the one before.
    powers = [[-x % p for x in monic[:-1]]]
    for _ in range(d - 2):
        prev = powers[-1]
        powers.append([(a - prev[-1] * b) % p for a, b in zip([0] + prev[:-1], monic)])
    w = ((c + 2) * d * d * p**3).bit_length()
    mask, low, below = (1 << w) - 1, (1 << d * w) - 1, (1 << (d - 1) * w) - 1
    packed = [sum(x << i * w for i, x in enumerate(r)) for r in powers]
    high = list(zip(range(d * w, (2 * d - 1) * w, w), packed))
    slots, top, t_d = range(0, d * w, w), (d - 1) * w, packed[0]
    x = c | 1 << w
    for bit in bin(e)[3:]:
        square = x * x
        y = square & low
        for shift, r in high:
            y += (square >> shift & mask) * r
        if bit == "1":
            y = ((y & below) << w) + (y >> top) % p * t_d + c * y
        x = 0
        for shift in slots:
            x |= (y >> shift & mask) % p << shift
    return _pm_trim([x >> shift & mask for shift in slots])


def _pm_roots_of_split(h: list[int], p: int) -> list[int]:
    """All roots of h, given that h splits into distinct linear factors mod p.

    Deterministic shift sweep: split with gcd(h, (t+c)^((p-1)/2) - 1) for
    c = 0, 1, 2, ...; every squarefree split product separates within a few
    shifts in practice.  Loud failure beyond the cap.  The power is taken
    by _pm_shift_power, one packed big-integer squaring per bit of p.
    """
    deg = len(h) - 1
    if deg <= 0:
        return []
    if deg == 1:
        return [(-h[0] * pow(h[1], -1, p)) % p]
    half = (p - 1) // 2
    for c in range(_SPLIT_SHIFT_CAP):
        power = _pm_shift_power(c, half, h, p)
        power = _pm_trim([(x - (1 if i == 0 else 0)) % p for i, x in enumerate(power)] or [0])
        g = _pm_gcd(h, power, p)
        if 0 < len(g) - 1 < deg:
            other, rem = _pm_divmod(h, g, p)
            if rem:
                raise ArithmeticError("split factor does not divide")
            return sorted(_pm_roots_of_split(g, p) + _pm_roots_of_split(other, p))
    raise RuntimeError(f"root splitting failed after {_SPLIT_SHIFT_CAP} deterministic shifts")


def common_roots_mod_p(polys, p: int) -> list[int]:
    """The roots in F_p common to integer polynomials, ascending.

    Each poly is a coefficient sequence, lowest degree first, and p is
    prime.  A poly that is 0 mod p imposes nothing; when every one is,
    raises ValueError.  Over a small field (p <= EVALUATION_FACTOR times
    the longest coefficient list) the residues 0..p-1 are filtered by
    Horner evaluation, one poly at a time, written out inline for the
    quartics and below that most callers pass.  Otherwise the roots are those
    of the gcd h of the polys: gcd(h, t^p - t) is the product of t - r over
    them, split by _pm_roots_of_split, so the cost is polynomial in log p.
    t^p mod h is taken by _pm_shift_power, which squares Kronecker-packed
    coefficients with one big-integer multiply per bit of p.
    """
    reduced = []
    for g in polys:
        f = _pm_trim([int(c) % p for c in g])
        if f:
            reduced.append(f)
    if not reduced:
        raise ValueError("f is identically zero mod p")
    if p <= EVALUATION_FACTOR * max(map(len, reduced)):
        roots = range(p)
        for f in reduced:
            if len(f) <= 5:
                c0, c1, c2, c3, c4 = f + [0] * (5 - len(f))
                roots = [t for t in roots if not (c0 + (c1 + (c2 + (c3 + c4 * t) * t) * t) * t) % p]
            else:
                backwards = f[::-1]
                roots = [t for t in roots if not _horner(backwards, t) % p]
        return roots
    h = reduced[0]
    for g in reduced[1:]:
        h = _pm_gcd(h, g, p)
    if len(h) == 1:
        return []
    if len(h) == 2:
        return [-h[0] * pow(h[1], -1, p) % p]
    tp = _pm_shift_power(0, p, h, p) + [0, 0]
    tp[1] -= 1
    return _pm_roots_of_split(_pm_gcd(h, tp, p), p)


def _horner(backwards: list[int], t: int) -> int:
    """The value at t of a polynomial given highest degree first."""
    acc = 0
    for c in backwards:
        acc = acc * t + c
    return acc


def roots_mod_p(coeffs, p: int) -> list[int]:
    """The distinct roots in F_p of an integer polynomial, ascending.

    coeffs are lowest degree first and p is prime; see
    :func:`common_roots_mod_p`.  Raises ValueError when f is identically
    zero mod p.
    """
    return common_roots_mod_p((coeffs,), p)


def repeated_roots_mod_p(f: UniPoly, p: int) -> list[int]:
    """The roots in F_p of gcd(f mod p, f' mod p), ascending."""
    if not is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    # The common roots of f and f'; an f' that vanishes mod p imposes
    # nothing, and then every root of f mod p is repeated.
    return common_roots_mod_p((f.coeffs, [k * c for k, c in enumerate(f.coeffs)][1:]), p)
