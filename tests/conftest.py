"""Shared fixtures: the worked-example pencil and its frozen expected values."""

from __future__ import annotations

import importlib.util
import json
import os
import random
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from math import comb, lcm

import pytest

from quadpencil import PencilOfQuadrics, QuadraticForm, SingularLocusReport, evaluate_form
from quadpencil.exactmath import (
    is_probable_prime,
    kernel_mod_p,
    rank_mod_p,
    roots_mod_p,
    solve_mod_p,
)
from quadpencil.exactmath.unipoly import (
    _over_common,
    _pm_divmod,
    _pm_gcd,
    _pm_trim,
    _powers,
    _root_bound,
    _squarefree_chain,
    _value,
    _variations,
)
from quadpencil.fano import _chart_coordinates, chart_point_rows
from quadpencil.parsing import (
    _VARIABLE_INDEX,
    ParseError,
    _decimal,
    _poly_mul,
    _to_int,
    _tokenize,
)
from quadpencil.quadric import VARIABLES, gradient_at, polar_form, restrict_to_line
from quadpencil.reduction import (
    _assert_complete_intersection,
    _check_candidate_cap,
    _projective_points,
    normalize_projective,
    reduce_pencil,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
EXAMPLE_PATH = os.path.join(DATA_DIR, "example_pencil.txt")
NO_WITNESS_PATH = os.path.join(DATA_DIR, "no_witness_pencil.txt")
# Random-pencils seed 1, pencil 20: trial division to 10^6 leaves a
# composite cofactor that is no perfect power.
UNFACTORABLE_PATH = os.path.join(DATA_DIR, "unfactorable_pencil.txt")
# The pencils of qpbench random_pencils seeds 1-3 with a bad prime >= 7.
RANDOM_PLACES_PATH = os.path.join(DATA_DIR, "random_pencil_places.txt")

Q1_TEXT = "uv + uw - 4vw + 2vz + 2wz + x^2 - 2xz + y^2 - z^2"
Q2_TEXT = "uv - uw + uy - 2v^2 + 2vx - 2wy + 2wz + 2xz"

Q1_COEFFS = {
    (0, 1): 1,
    (0, 2): 1,
    (1, 2): -4,
    (1, 5): 2,
    (2, 5): 2,
    (3, 3): 1,
    (3, 5): -2,
    (4, 4): 1,
    (5, 5): -1,
}
Q2_COEFFS = {
    (0, 1): 1,
    (0, 2): -1,
    (0, 4): 1,
    (1, 1): -2,
    (1, 3): 2,
    (2, 4): -2,
    (2, 5): 2,
    (3, 5): 2,
}

# f(t) = -t^6 - 3t^5 + 2t^4 + 3t^3 - 3t^2 - 3t - 2, lowest degree first.
CHAR_FORM_COEFFS = (-2, -3, -3, 3, 2, -3, -1)

POLY_DISC = 149743897  # disc of f; prime
CURVE_DISC = 613351002112  # 2^12 * disc(f), the genus-2 normalization
BAD_PRIMES = (2, 149743897)
BIG_PRIME = 149743897

# The worked example's chart has pivot columns 2 and 3 (1-based); internal
# pivots are 0-based.
CHART_PIVOTS = (1, 2)
CHART_UI = (2, 3)

# On the chart system mod 2 with Jacobian rank 4 < 6, so not smooth: a smooth
# F_2-point would Hensel-lift to Z_2, but no chart has a point mod 8.
F2_WITNESS = (1, 1, 0, 0, 1, 1, 0, 0)
BIG_WITNESS = (
    10276,
    859210,
    113976451,
    113430900,
    122036333,
    94785567,
    35411179,
    25838500,
)

SINGULAR_POINT_VERBATIM = (10925789, 85737939, 85378598, 93099029, 51694582, 1)
SINGULAR_POINT_CANONICAL = (1, 126743053, 27119006, 94322915, 93333782, 2380571)
REPEATED_ROOT_MOD_BIG = 57903756

# Printed 5-decimal approximations of the two real roots of f.
REAL_ROOTS_PRINTED = (Fraction(-326599, 100000), Fraction(-113643, 100000))

# Exhaustive F_2 census: on-system point count per chart (1-based columns).
# The Jacobian ranks that occur are 0, 2 and 4, so no chart has a smooth
# point; lifting digit by digit leaves the counts below mod 4 and no point on
# any chart mod 8, hence no line over Q_2.
F2_ON_FANO_COUNTS = {
    (1, 2): 8,
    (1, 3): 8,
    (1, 4): 8,
    (1, 5): 0,
    (1, 6): 8,
    (2, 3): 20,
    (2, 4): 22,
    (2, 5): 20,
    (2, 6): 22,
    (3, 4): 22,
    (3, 5): 20,
    (3, 6): 22,
    (4, 5): 20,
    (4, 6): 16,
    (5, 6): 20,
}

# Chart points mod 4 that reduce to the F_2 points above, per chart; the
# charts not listed have none.
LIFT_COUNTS_MOD_4 = {
    chart: 64
    for chart in ((2, 3), (2, 4), (2, 6), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6))
}

# A smooth F_3-point of the example's chart and its Newton lift mod 27.
P3_SMOOTH_POINT = (1, 2, 0, 1, 1, 2, 1, 2)
P3_LIFT_MOD_27 = (22, 26, 3, 16, 1, 5, 1, 2)


@lru_cache(maxsize=None)
def load_qpbench(name: str):
    """qpbench/<name>.py, the benchmark's independent model, imported read-only.

    gen.py and check.py import exact.py by its bare name, so it is
    registered under that name too.
    """
    if name != "exact":
        sys.modules.setdefault("exact", load_qpbench("exact"))
    path = os.path.join(REPO_ROOT, "qpbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"qpbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_form(rng: random.Random) -> QuadraticForm:
    """All 21 monomials: squares in [-3, 3], mixed ones in {-2, 0, 2} (so the
    characteristic form of a pencil of two such forms is integral)."""
    coeffs = {}
    for i in range(6):
        for j in range(i, 6):
            c = rng.randint(-3, 3) if i == j else 2 * rng.randint(-1, 1)
            if c:
                coeffs[(i, j)] = c
    return QuadraticForm(coeffs)


def _form_value(coeffs, x) -> int:
    return sum(c * x[i] * x[j] for (i, j), c in coeffs.items())


def det_cofactor(rows):
    """Cofactor-expansion determinant (exponential; cross-check oracle)."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("non-square input")

    def rec(r: list[list]):
        if len(r) == 1:
            return r[0][0]
        total = 0
        for j, entry in enumerate(r[0]):
            if entry == 0:
                continue
            term = entry * rec([row[:j] + row[j + 1 :] for row in r[1:]])
            total = total - term if j % 2 else total + term
        return total

    return rec([list(row) for row in rows])


def evaluate_poly(f, point):
    """Horner value of the UniPoly f at point; exact for int/Fraction points."""
    acc = 0
    for c in reversed(f.coeffs):
        acc = acc * point + c
    return acc


def clear_row_denominators(rows) -> tuple[list[list[int]], int]:
    """Row i times the lcm d_i of its denominators, and the product of the d_i.

    The determinant of rows is then det(scaled) / (d_1 * ... * d_n).
    """
    scaled, scale = [], 1
    for row in rows:
        d = lcm(*(Fraction(x).denominator for x in row))
        scaled.append([int(x * d) for x in row])
        scale *= d
    return scaled, scale


def chart_read_off(lines, charts, p: int) -> list:
    """(chart, sorted (coordinates, tag) pairs) per chart, in pivot order.

    lines holds (a, b, tag) triples, one per F_p-line; every line is read
    off in every chart that contains it, i.e. where _chart_coordinates is
    not None.  With exact ranks as tags this is the oracle of chart_census,
    which counts lines by Plücker minor instead.
    """
    def read_off(chart):
        for a, b, tag in lines:
            if (coords := _chart_coordinates(chart, a, b, p)) is not None:
                yield coords, tag

    return [(chart, sorted(read_off(chart)))
            for chart in sorted(charts, key=lambda c: c.pivots)]


def _reference_canonical_value(value):
    """Map a certificate value onto the canonical JSON subset."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return _decimal(value)
    if isinstance(value, Fraction):
        return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"
    # Exact types only: records are tuples too, and must not pass as lists.
    if type(value) in (list, tuple):
        return [_reference_canonical_value(item) for item in value]
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"non-string certificate key: {key!r}")
            out[key] = _reference_canonical_value(item)
        return out
    raise TypeError(f"value {value!r} has no canonical JSON encoding")


def reference_canonical_json(document) -> str:
    """The two-pass writer canonical_json replaced, kept as its oracle: the
    document mapped onto strings, lists and dicts, then json.dumps."""
    return json.dumps(
        _reference_canonical_value(document),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
    )


def reference_isolate_real_roots(f, width=Fraction(1, 10**6)):
    """The bisection isolate_real_roots ran before it went straight to each
    root's cell, kept as its oracle: every one-root interval is halved on
    the sign of f until it is narrower than width."""
    if f.is_zero() or f.degree() < 1:
        return []
    chain = _squarefree_chain(f)
    head = chain[0]
    deg = len(head) - 1
    width = Fraction(width)

    def sign(x: int, den: int) -> int:
        v = _value(head, _powers(den, deg), x)
        return (v > 0) - (v < 0)

    def variations(point: Fraction) -> int:
        return _variations(chain, point.numerator, point.denominator)

    bound = _root_bound(f)
    b, d = bound.numerator, bound.denominator
    found = []
    stack = [(-b, b, d, _variations(chain, -b, d), _variations(chain, b, d))]
    while stack:
        lo, hi, den, vlo, vhi = stack.pop()
        s_lo = sign(lo, den) if vlo - vhi == 1 else 0
        while True:
            if vlo - vhi == 1 and (hi - lo) * width.denominator < width.numerator * den:
                found.append((lo, hi, den))
                break
            mid, lo, hi, den = lo + hi, 2 * lo, 2 * hi, 2 * den
            s_mid = sign(mid, den)
            if s_mid == 0:
                left, right, centre = Fraction(lo, den), Fraction(hi, den), Fraction(mid, den)
                eps = min(width / 4, (right - left) / 4)
                while True:
                    v_in, v_out = variations(centre - eps), variations(centre + eps)
                    if v_in - v_out == 1:
                        break
                    eps /= 2
                found.append(_over_common(centre - eps, centre + eps))
                if vlo - v_in:
                    stack.append((*_over_common(left, centre - eps), vlo, v_in))
                if v_out - vhi:
                    stack.append((*_over_common(centre + eps, right), v_out, vhi))
                break
            if s_lo:
                if s_mid == s_lo:
                    lo = mid
                else:
                    hi = mid
                continue
            vmid = _variations(chain, mid, den)
            if vlo - vmid:
                stack.append((lo, mid, den, vlo, vmid))
            if vmid - vhi:
                stack.append((mid, hi, den, vmid, vhi))
            break
    return sorted((Fraction(lo, den), Fraction(hi, den)) for lo, hi, den in found)


def reference_powmod(base, e: int, mod, p: int) -> list[int]:
    """base^e mod (mod, p) by schoolbook products, each reduced by long
    division, right to left over the bits of e: the powmod that roots over
    a large field used before Kronecker-packed squaring, kept as its oracle."""

    def mulmod(a, b):
        if not a or not b:
            return []
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = (out[i + j] + x * y) % p
        return _pm_divmod(out, mod, p)[1]

    result = [1]
    base = _pm_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = mulmod(result, base)
        base = mulmod(base, base)
        e >>= 1
    return result


class _ReferenceFormParser:
    """The recursive-descent form parser that came before the explicit stack,
    kept as its oracle: three Python frames per parenthesis level, and past
    the interpreter's recursion limit the outermost open parenthesis is
    reported, so its deepest nesting depends on the caller's stack."""

    def __init__(self, tokens, line: int, line_length: int) -> None:
        self._tokens = tokens + [None]
        self._pos = 0
        self._line = line
        self._end_column = line_length + 1

    def _peek(self):
        return self._tokens[self._pos]

    def _next(self):
        tok = self._tokens[self._pos]
        if tok is None:
            raise ParseError("unexpected end of expression", self._line, self._end_column)
        self._pos += 1
        return tok

    def parse(self):
        try:
            result = self._parse_sum()
        except RecursionError:
            depth, column = 0, 1
            for kind, _, col in self._tokens[: self._pos]:
                if kind == "(":
                    column = column if depth else col
                    depth += 1
                elif kind == ")":
                    depth -= 1
            raise ParseError("parentheses nested too deeply", self._line, column) from None
        trailing = self._peek()
        if trailing is not None:
            raise ParseError(f"unexpected '{trailing[1]}'", self._line, trailing[2])
        return result

    def _parse_sum(self):
        total, columns = {}, {}
        tok = self._peek()
        while True:
            sign = 1
            if tok is not None and tok[0] in "+-":
                self._next()
                sign = -1 if tok[0] == "-" else 1
            start = self._peek()
            for monomial, coeff in self._parse_term().items():
                columns.setdefault(monomial, start[2])
                new = total.get(monomial, 0) + sign * coeff
                if new:
                    total[monomial] = new
                else:
                    total.pop(monomial, None)
            tok = self._peek()
            if tok is None or tok[0] not in "+-":
                return total, columns

    def _parse_term(self):
        product, tokens = self._parse_factor(), self._tokens
        while True:
            tok = tokens[self._pos]
            if tok is None:
                return product
            if tok[0] == "*":
                self._pos += 1
                tok = tokens[self._pos]
            elif tok[0] not in ("int", "var", "("):
                return product
            column = tok[2] if tok is not None else self._end_column
            product = _poly_mul(product, self._parse_factor(), self._line, column)

    def _parse_factor(self):
        kind, text, column = self._next()
        if kind == "int":
            return {(): _to_int(text, self._line, column)}
        if kind == "var":
            exponent = 1
            nxt = self._tokens[self._pos]
            if nxt is not None and nxt[0] == "^":
                self._pos += 1
                power_kind, power_text, power_column = self._next()
                if power_kind != "int":
                    raise ParseError(
                        "expected an integer exponent after '^'", self._line, power_column
                    )
                exponent = _to_int(power_text, self._line, power_column)
                if exponent > 2:
                    raise ParseError(
                        f"non-quadratic monomial: exponent {exponent} exceeds 2",
                        self._line,
                        power_column,
                    )
            return {(_VARIABLE_INDEX[text],) * exponent: 1}
        if kind == "(":
            inner, _ = self._parse_sum()
            closing = self._next()
            if closing[0] != ")":
                raise ParseError("expected ')'", self._line, closing[2])
            return inner
        raise ParseError(f"unexpected '{text}'", self._line, column)


def reference_parse_form(text: str, line: int = 1) -> dict:
    """parse_form's coefficients by _ReferenceFormParser, with the same checks."""
    tokens = _tokenize(text, line)
    if not tokens:
        raise ParseError("empty polynomial", line, 1)
    poly, columns = _ReferenceFormParser(tokens, line, len(text)).parse()
    coeffs = {}
    for monomial, coeff in poly.items():
        if len(monomial) != 2:
            text = VARIABLES[monomial[0]] if monomial else str(coeff)
            raise ParseError(
                f"non-quadratic monomial: '{text}' has total degree {len(monomial)}",
                line,
                columns[monomial],
            )
        coeffs[monomial] = coeff
    if not coeffs:
        raise ParseError("the polynomial is identically zero", line, 1)
    return coeffs


def reference_singular_locus(pencil, prime: int) -> SingularLocusReport:
    """singular_locus as it was before it worked on the polar matrices, kept
    as its oracle: both forms reduced to QuadraticForms mod p, the repeated
    roots of f as the roots of gcd(f, f') mod p, and every kernel point
    evaluated, paired and differentiated on their coefficient dicts."""
    if prime == 2:
        raise ValueError(
            "p = 2: singular-locus analysis is invalid in characteristic 2; "
            "use mod2_degeneracy"
        )
    p = prime
    r1, r2 = reduce_pencil(pencil, p)
    f = pencil.char_form.coeffs
    degree = max((k for k, c in enumerate(f) if c % p), default=-1)
    members = None
    if degree >= 0:
        fp = _pm_trim([c % p for c in f])
        dfp = _pm_trim([k * c % p for k, c in enumerate(fp) if k > 0])
        members = roots_mod_p(_pm_gcd(fp, dfp, p) if dfp else fp, p)
    if members is None or degree == 6 and any(
        all((c - f[6] * comb(6, k) * (-t0) ** (6 - k)) % p == 0 for k, c in enumerate(f))
        for t0 in members
    ):
        _assert_complete_intersection(r1, r2, p)
    b1, b2 = pencil.polars
    if members is None:
        _check_candidate_cap(p + 1)
        members = range(p)
    kernels = [kernel_mod_p([[(x - t0 * y) % p for x, y in zip(u, v)] for u, v in zip(b1, b2)], p)
               for t0 in members]
    if degree <= 4:
        kernels.append(kernel_mod_p(b2, p))

    def kernel_points(basis):
        *head, w = basis
        pairs = list(combinations_with_replacement(basis, 2))
        g = next((q for q in (r2, r1) if any(polar_form(q, a, b) % p for a, b in pairs)), None)
        _check_candidate_cap((p ** (len(head) + (g is None)) - 1) // (p - 1))
        yield w
        for v in _projective_points(head, p):
            line = restrict_to_line(g, v, w) if g else ()
            roots = roots_mod_p(line, p) if any(c % p for c in line) else range(p)
            for s in roots:
                yield [(x + s * y) % p for x, y in zip(v, w)]

    seen, found = set(), []
    for basis in kernels:
        for v in kernel_points(basis):
            point = normalize_projective(v, p)
            if point in seen:
                continue
            seen.add(point)
            if evaluate_form(r1, point) % p or evaluate_form(r2, point) % p:
                continue
            rank = rank_mod_p([gradient_at(r1, point), gradient_at(r2, point)], p)
            if rank <= 1:
                found.append((point, rank))
    found.sort()
    ranks = tuple(rank for _, rank in found)
    return SingularLocusReport(p, tuple(pt for pt, _ in found), ranks, "kernel-guided",
                               any(rank == 0 for rank in ranks))


def reference_residuals(forms, chart, point) -> list:
    """FanoSystem.residuals by quadric.restrict_to_line on the coefficient
    dicts of the forms (Q1, Q2), as it was computed before the polar
    products, kept as its oracle."""
    a, b = chart_point_rows(chart, point)
    return [c for q in forms for c in restrict_to_line(q, a, b)]


def reference_hensel(forms, system, pt, prime: int, lift_precision: int = 3):
    """(coordinates, Jacobian rank, lift, lift modulus) as hensel_certify
    found them with three eliminations per lift to p^3, kept as its oracle:
    J ranked alone, then each Newton level solved by solve_mod_p on
    residuals of the forms (Q1, Q2) computed afresh."""
    if not is_probable_prime(prime):
        raise ValueError(f"{prime} is not prime")
    coords = tuple(int(c) % prime for c in pt)
    if any(r % prime for r in reference_residuals(forms, system.chart, coords)):
        raise ValueError("point not on the system")
    jac_rows = system.jacobian_mod(coords, prime)
    rank = rank_mod_p(jac_rows, prime)
    if rank < 6 or lift_precision < 2:
        return coords, rank, None, None
    x = list(coords)
    for e in range(1, lift_precision):
        modulus = prime ** (e + 1)
        residuals = [r % modulus for r in reference_residuals(forms, system.chart, x)]
        delta = solve_mod_p(jac_rows, [(-(r // prime**e)) % prime for r in residuals], prime)
        x = [(x[l] + prime**e * delta[l]) % modulus for l in range(8)]
    final_modulus = prime**lift_precision
    if any(r % final_modulus for r in reference_residuals(forms, system.chart, x)):
        raise ArithmeticError("Newton lift failed to satisfy the system")
    return coords, rank, tuple(x), final_modulus


# Largest prime at which exhaustive_locus scans P^5(F_p).
EXHAUSTIVE_LOCUS_PRIME_BOUND = 13


def exhaustive_locus(pencil, p: int) -> tuple[tuple, tuple]:
    """(points, ranks) of the singular locus of X mod p, by scanning P^5(F_p).

    The oracle of singular_locus: every point with first nonzero coordinate
    1 on both forms mod p, kept when the stacked gradients of (Q1, Q2) have
    rank <= 1 there; points sorted, ranks[i] the rank at points[i].
    """
    if p > EXHAUSTIVE_LOCUS_PRIME_BOUND:
        raise ValueError(f"the exhaustive scan needs p <= {EXHAUSTIVE_LOCUS_PRIME_BOUND}")
    q1, q2 = pencil.q1, pencil.q2
    found = []
    for lead in range(6):
        for tail in product(range(p), repeat=5 - lead):
            v = (0,) * lead + (1,) + tail
            if evaluate_form(q1, v) % p or evaluate_form(q2, v) % p:
                continue
            rank = rank_mod_p([gradient_at(q1, v), gradient_at(q2, v)], p)
            if rank <= 1:
                found.append((v, rank))
    found.sort()
    return tuple(v for v, _ in found), tuple(rank for _, rank in found)


_F2_LINEAR_FORMS = [vec for vec in product((0, 1), repeat=6) if any(vec)]


def _f2_str(vec) -> str:
    return "+".join(VARIABLES[i] for i, c in enumerate(vec) if c) or "0"


def _f2_product_coeffs(a, b) -> dict:
    """Coefficients of the product of two linear forms over F_2."""
    out = {(i, i): 1 for i in range(6) if a[i] and b[i]}
    for i, j in combinations(range(6), 2):
        if (a[i] * b[j] + a[j] * b[i]) % 2:
            out[(i, j)] = 1
    return out


def _f2_restrict_to_hyperplane(coeffs, ell) -> dict:
    """Substitute x_k = sum of ell's other variables, k its first, over F_2."""
    k = ell.index(1)
    rest = [i for i in range(6) if i != k and ell[i]]
    out: dict = {}

    def add(i, j):
        key = (min(i, j), max(i, j))
        out[key] = out.get(key, 0) ^ 1

    for (i, j) in coeffs:
        if k not in (i, j):
            add(i, j)
        elif i == j:
            for m in rest:  # x_k^2 = (sum rest)^2 = sum of squares over F_2
                add(m, m)
        else:
            for m in rest:
                add(j if i == k else i, m)
    return {key: c for key, c in out.items() if c}


def _f2_square_root(coeffs):
    """The linear form whose square is the F_2 form, or None."""
    if not coeffs or any(i != j for i, j in coeffs):
        return None
    return tuple(int((i, i) in coeffs) for i in range(6))


@lru_cache(maxsize=None)
def _f2_divisors(monomials: frozenset) -> list:
    return [a for a in _F2_LINEAR_FORMS
            if not _f2_restrict_to_hyperplane(dict.fromkeys(monomials, 1), a)]


def mod2_degeneracy_oracle(pencil) -> dict:
    """mod2_degeneracy by substitution into coefficient dicts: a linear form
    divides a reduced form when the restriction to its hyperplane is empty,
    factor pairs are checked by multiplying out, and the other form is a
    square on a factor hyperplane when its restriction has only squares."""
    reduced = {label: {key: 1 for key, c in q.coeffs.items() if c % 2}
               for label, q in (("Q1", pencil.q1), ("Q2", pencil.q2))}
    factorizations, squares, classes = [], [], {}
    for label, coeffs in reduced.items():
        if not coeffs:
            classes[label] = "vanishes identically mod 2"
            continue
        pairs = [(a, b) for a, b in combinations_with_replacement(
                     _f2_divisors(frozenset(coeffs)), 2)
                 if _f2_product_coeffs(a, b) == coeffs]
        for a, b in pairs:
            factorizations.append({"form": label, "factors": [_f2_str(a), _f2_str(b)],
                                   "factor_vectors": [list(a), list(b)]})
            if a == b:
                squares.append({"form": label, "root": _f2_str(a)})
        if any(a == b for a, b in pairs):
            classes[label] = f"square of a linear form ({squares[-1]['root']})"
        elif pairs:
            classes[label] = (f"product of two linear forms "
                              f"({_f2_str(pairs[0][0])})*({_f2_str(pairs[0][1])})")
        else:
            classes[label] = "irreducible over F_2"
    evidence = []
    for entry in factorizations:
        other = "Q2" if entry["form"] == "Q1" else "Q1"
        for vec in entry["factor_vectors"]:
            root = _f2_square_root(_f2_restrict_to_hyperplane(reduced[other], vec))
            if root is not None:
                evidence.append({"form": other, "hyperplane": _f2_str(vec),
                                 "square_root": _f2_str(root)})
    parts = [f"{label} mod 2: {classes[label]}" for label in ("Q1", "Q2")]
    if factorizations:
        parts.append("a reduced form factors (reducibility evidence)")
    parts += [f"{e['form']} mod 2 restricted to {e['hyperplane']} = 0 is the square "
              f"of {e['square_root']} (non-reducedness evidence)" for e in evidence]
    return {"linear_factorizations": factorizations, "square_forms": squares,
            "non_reduced_evidence": evidence, "verdict": "; ".join(parts)}


def lift_census_mod_2k(q1_coeffs, q2_coeffs, levels, charts=None):
    """Chart solutions of the Fano system mod 2, 4, ..., 2^levels, by brute force.

    An independent check of the census that uses only the coefficient dicts
    ({(i, j): c} with i <= j for the monomial x_i x_j).  Each chart (i, j) of
    Gr(2,6), given by 1-based pivot columns and defaulting to all 15, has
    rows a = e_i + t1 e_c1 + t3 e_c2 + t5 e_c3 + t7 e_c4 and
    b = e_j + t2 e_c1 + t4 e_c2 + t6 e_c3 + t8 e_c4 over the non-pivot columns
    c1 < ... < c4, and the line <a, b> lies on Q exactly when Q(a),
    Q(a+b) - Q(a) - Q(b) and Q(b) vanish.  Every survivor mod 2^k is extended
    by all 2^8 digit vectors to the candidates mod 2^(k+1).

    Returns {chart: [solutions mod 2, mod 4, ..., mod 2^levels]}, each a list
    of 8-tuples with entries in [0, 2^k).
    """
    digits = list(product((0, 1), repeat=8))
    census = {}
    for chart in charts or combinations(range(1, 7), 2):
        i, j = chart[0] - 1, chart[1] - 1
        non_pivots = [c for c in range(6) if c not in (i, j)]

        def solves(t, modulus) -> bool:
            a = [0] * 6
            b = [0] * 6
            a[i] = b[j] = 1
            for k, col in enumerate(non_pivots):
                a[col], b[col] = t[2 * k], t[2 * k + 1]
            s = [x + y for x, y in zip(a, b)]
            for coeffs in (q1_coeffs, q2_coeffs):
                qa, qb = _form_value(coeffs, a), _form_value(coeffs, b)
                if qa % modulus or qb % modulus:
                    return False
                if (_form_value(coeffs, s) - qa - qb) % modulus:
                    return False
            return True

        survivors = [(0,) * 8]
        per_level = []
        for k in range(levels):
            candidates = (
                tuple(x + 2**k * d for x, d in zip(t, digit))
                for t in survivors
                for digit in digits
            )
            survivors = [t for t in candidates if solves(t, 2 ** (k + 1))]
            per_level.append(survivors)
        census[tuple(chart)] = per_level
    return census


@pytest.fixture(scope="session")
def example_q1() -> QuadraticForm:
    return QuadraticForm(Q1_COEFFS)


@pytest.fixture(scope="session")
def example_q2() -> QuadraticForm:
    return QuadraticForm(Q2_COEFFS)


@pytest.fixture(scope="session")
def example_pencil(example_q1, example_q2) -> PencilOfQuadrics:
    return PencilOfQuadrics(example_q1, example_q2)


@pytest.fixture(scope="session")
def example_path() -> str:
    return EXAMPLE_PATH


@pytest.fixture(scope="session")
def no_witness_path() -> str:
    return NO_WITNESS_PATH
