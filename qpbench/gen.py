"""Seeded input generators for the random-pencils and verify-lift workloads.

Same seed, same inputs.  The program under test receives only what these
functions produce (input files, or a chart point to verify); the expected
answers stay with the benchmark.
"""

from __future__ import annotations

import random

from exact import (
    CHARTS,
    MONOMIALS,
    discriminant,
    integral_char_form,
    inverse,
    is_prime,
    is_smooth,
    parse_forms_file,
    primes_below,
)

# Mixed monomials that may carry an odd coefficient; every other mixed
# coefficient is even.  Odd mixed coefficients make half-integer Gram
# entries, and the characteristic form is then rarely integral: about 0.6%
# of candidates are integral and smooth (18 of 3000), nearly all of them
# with every mixed coefficient even.
ODD_MIXED = {(0, 1), (2, 3), (4, 5)}

BUNDLED_WITNESS = {
    "file": "tests/data/example_pencil.txt",
    "chart": (2, 3),
    "coords": (10276, 859210, 113976451, 113430900,
               122036333, 94785567, 35411179, 25838500),
    "prime": 149743897,
}

# Cost classes of random pencils and their share of one pool.  Measured
# over 500 pencils from seeds 100-119: plain 52%, unfactorable 28%,
# 11 divides the discriminant (13 does not) 10%, 13 divides it 10%.
POOL_QUOTAS = {"plain": 21, "unfactorable": 11, "11": 4, "13": 4}

# Newton-lift precisions: 3 is the CLI default, 12 is a deep re-check.
LIFT_PRECISIONS = (3, 12)


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _random_form(rng: random.Random, zero=()) -> dict:
    form = {}
    for key in MONOMIALS:
        if key in zero:
            continue
        if key[0] == key[1] or key in ODD_MIXED:
            c = rng.randint(-3, 3)
        else:
            c = rng.choice((-2, 0, 2))
        if c:
            form[key] = c
    return form


def _integral_smooth(q1: dict, q2: dict) -> bool:
    f = integral_char_form(q1, q2)
    return f is not None and is_smooth(f)


def _int_root(n: int, k: int) -> int:
    lo, hi = 0, 1 << (n.bit_length() // k + 1)
    while lo < hi - 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**k <= n else (lo, mid)
    return lo


def _prime_power(n: int) -> bool:
    if is_prime(n):
        return True
    for k in range(2, n.bit_length() + 1):
        r = _int_root(n, k)
        if r < 2:
            return False
        if r**k == n:
            return _prime_power(r)
    return False


def cost_class(q1: dict, q2: dict, small_primes: list[int]) -> str:
    """The input property that sets most of an analyze op's cost.

    "unfactorable": trial division below 10^6 leaves a cofactor that is not
    a prime power, so the pipeline stops at the discriminant (about 20 ms).
    Otherwise the exhaustive singular loci at the bad primes 13 and 11 add
    about 0.8 s and 0.35 s to a "plain" op of about 0.7 s.
    """
    f = integral_char_form(q1, q2)
    n = abs(int(discriminant(f)) * 4096 * f[-1])
    label = "13" if n % 13 == 0 else "11" if n % 11 == 0 else "plain"
    for p in small_primes:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
    if n > 1 and not _prime_power(n):
        return "unfactorable"
    return label


def random_pencils(seed: int) -> list[tuple[dict, dict]]:
    """A pool of random integral smooth pencils, coefficients in [-3, 3].

    Candidates are drawn in seed order and kept while their cost class has
    room in POOL_QUOTAS, so every seed's pool has the population's mix
    (stratified sampling).  Op costs differ by up to 100x between classes;
    without strata the mean op time of a 30-pencil pool moves by about 20%
    from seed to seed.  Nothing else is filtered: unfactorable
    discriminants and singular reductions keep their natural share.  The
    pool is returned interleaved, so that every prefix has about the same
    mix as the whole.
    """
    rng = _rng(seed, "random-pencils")
    small_primes = primes_below(10**6)
    members: dict[str, list] = {name: [] for name in POOL_QUOTAS}
    while any(len(members[c]) < n for c, n in POOL_QUOTAS.items()):
        q1, q2 = _random_form(rng), _random_form(rng)
        if not (q1 and q2 and _integral_smooth(q1, q2)):
            continue
        label = cost_class(q1, q2, small_primes)
        if len(members[label]) < POOL_QUOTAS[label]:
            members[label].append((q1, q2))
    order = sorted(
        ((k + 0.5) / POOL_QUOTAS[c], c, k)
        for c, items in members.items() for k in range(len(items))
    )
    return [members[c][k] for _, c, k in order]


def pick_prime(rng: random.Random, lo_bits: int = 28, hi_bits: int = 64) -> int:
    """A prime with lo_bits..hi_bits bits (the bundled bad prime has 28)."""
    bits = rng.randint(lo_bits, hi_bits)
    n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
    while not is_prime(n):
        n += 2
    return n


def _unimodular(rng: random.Random) -> list[list[int]]:
    """A random 6x6 integer matrix of determinant +-1."""
    perm = list(range(6))
    rng.shuffle(perm)
    u = [[int(perm[i] == k) for k in range(6)] for i in range(6)]
    for _ in range(10):
        i, k = rng.sample(range(6), 2)
        c = rng.choice((-2, -1, 1, 2))
        u[i] = [x + c * y for x, y in zip(u[i], u[k])]
    return u


def _substitute(form: dict, u) -> dict:
    """Coefficients of q(U y) as a form in y."""
    out = {}
    for k, l in MONOMIALS:
        total = 0
        for (i, j), c in form.items():
            if k == l:
                total += c * u[i][k] * u[j][k]
            else:
                total += c * (u[i][k] * u[j][l] + u[i][l] * u[j][k])
        if total:
            out[(k, l)] = total
    return out


def chart_coordinates(a, b, chart, p: int) -> tuple[int, ...] | None:
    """Chart parameters mod p of the line spanned by rows a, b, or None
    when the chart's 2x2 minor is singular mod p."""
    i, j = chart[0] - 1, chart[1] - 1
    d = (a[i] * b[j] - a[j] * b[i]) % p
    if d == 0:
        return None
    inv = pow(d, -1, p)
    # (minor)^-1 = inv * [[b_j, -a_j], [-b_i, a_i]] applied to the rows.
    row_a = [(b[j] * x - a[j] * y) * inv % p for x, y in zip(a, b)]
    row_b = [(a[i] * y - b[i] * x) * inv % p for x, y in zip(a, b)]
    coords = []
    for col in (c for c in range(6) if c not in (i, j)):
        coords += [row_a[col], row_b[col]]
    return tuple(coords)


def verify_lift_claims(seed: int, pencils: int, root: str) -> list[dict]:
    """Claims (forms, chart, coords, p, k) on pencils with a known line.

    Each pencil is built without u^2, uv and v^2 terms, so it contains the
    line <e_u, e_v>, then moved by a random unimodular change of variables.
    The line's chart coordinates are computed here, not by the program.
    The bundled witness at 149743897 is added at both precisions.
    """
    rng = _rng(seed, "verify-lift")
    zero = {(0, 0), (0, 1), (1, 1)}
    claims = []
    while len(claims) < pencils * len(LIFT_PRECISIONS):
        base1, base2 = _random_form(rng, zero), _random_form(rng, zero)
        if not (base1 and base2 and _integral_smooth(base1, base2)):
            continue
        u = _unimodular(rng)
        q1, q2 = _substitute(base1, u), _substitute(base2, u)
        u_inv = inverse(u)
        a = [int(u_inv[r][0]) for r in range(6)]
        b = [int(u_inv[r][1]) for r in range(6)]
        p = pick_prime(rng)
        charts = [(i + 1, j + 1) for i, j in CHARTS]
        rng.shuffle(charts)
        chart, coords = next(
            (c, xs) for c in charts
            if (xs := chart_coordinates(a, b, c, p)) is not None
        )
        for k in LIFT_PRECISIONS:
            claims.append({"forms": (q1, q2), "chart": chart, "coords": coords,
                           "prime": p, "precision": k})
    with open(f"{root}/{BUNDLED_WITNESS['file']}", encoding="utf-8") as handle:
        forms = parse_forms_file(handle.read())
    for k in LIFT_PRECISIONS:
        claims.append({"forms": forms, "chart": BUNDLED_WITNESS["chart"],
                       "coords": BUNDLED_WITNESS["coords"],
                       "prime": BUNDLED_WITNESS["prime"], "precision": k})
    return claims
