"""Mod-p reductions of X: singular locus, cone check, characteristic-2
degeneracy evidence."""

from __future__ import annotations

from functools import reduce
from itertools import combinations_with_replacement, compress, product
from math import comb
from operator import mul, xor
from typing import NamedTuple

from .exactmath import (
    common_roots_mod_p,
    derivative,
    is_probable_prime,
    kernel_mod_p,
    rank_mod_p,
    repeated_roots_mod_p,  # unused here, but qpbench/worker.py traces this name
    require_ints,
    roots_mod_p,
    rref_mod_p,
)
from .pencil import PencilOfQuadrics
from .quadric import NUM_VARIABLES, VARIABLES, form_coefficients

# Hard cap on the kernel quadratics (or kernel points) that the singular-locus
# search solves, and on its p + 1 kernel solves when f vanishes identically
# mod p.
KERNEL_CANDIDATE_CAP = 10**6


class DegenerateReductionError(ValueError):
    """A form vanishes identically mod p, so X_p is not cut by two quadrics."""


class KernelCandidateCapError(ValueError):
    """The singular-locus search would exceed KERNEL_CANDIDATE_CAP candidates."""


def _check_candidate_cap(count: int) -> None:
    if count > KERNEL_CANDIDATE_CAP:
        raise KernelCandidateCapError(
            f"kernel candidate enumeration exceeds the cap "
            f"({count} > {KERNEL_CANDIDATE_CAP})"
        )


def _check_reduction(P, p: int) -> None:
    """Raise DegenerateReductionError if the form with polar matrix P
    vanishes identically mod the odd prime p, that is, if P does."""
    if not any(c % p for row in P for c in row):
        raise DegenerateReductionError(
            f"degenerate reduction: the form vanishes identically mod {p}"
        )


def _check_pencil_reduction(pencil: PencilOfQuadrics, prime: int) -> None:
    """ValueError unless prime is prime, then DegenerateReductionError if
    Q1, then Q2, vanishes identically mod prime."""
    if not is_probable_prime(prime):
        raise ValueError(f"{prime} is not prime")
    for P in pencil.polars:
        _check_reduction(P, prime)


def normalize_projective(v, p: int) -> tuple[int, ...]:
    """Canonical representative mod p: first nonzero coordinate scaled to 1."""
    require_ints(v, "coordinates")
    coords = [c % p for c in v]
    lead = next((i for i, c in enumerate(coords) if c), None)
    if lead is None:
        raise ValueError("zero vector")
    inv = pow(coords[lead], -1, p)
    return tuple(c * inv % p for c in coords)


def _binary_roots(alpha: int, gamma: int, beta: int, p: int) -> list[tuple[int, int]]:
    """Projective F_p-roots (r : s) of g = alpha*r^2 + gamma*r*s + beta*s^2.

    g is not identically 0 mod p; roots are normalized and sorted.  The
    roots with s = 1 are those of g(t, 1); (1 : 0) is one iff p divides alpha.
    """
    roots = [(t, 1) for t in roots_mod_p([beta, gamma, alpha], p)]
    if alpha % p == 0:
        roots.append((1, 0))
    return sorted(normalize_projective(c, p) for c in roots)


def _linear_factors_mod_p(P, p: int) -> list[tuple[int, ...]]:
    """All F_p-rational linear forms dividing the form with polar matrix P,
    normalized, for odd p.

    A quadratic form has a linear factor only when its polar matrix has rank
    <= 2; rank 1 gives a squared factor, rank 2 a binary quadratic whose
    splitting is decided by its roots mod p.
    """
    rows, pivots = rref_mod_p(P, p)
    if len(pivots) > 2:
        return []
    if len(pivots) == 1:
        return [normalize_projective(rows[0], p)]
    # rank 2: q = g(l1(x), l2(x)) for the two echelon rows l1, l2 and the
    # binary quadratic g = (P_ii / 2, P_ij, P_jj / 2) at the pivots i, j; a
    # root (r : s) of g gives the factor s*l1 - r*l2.
    l1, l2 = rows[0], rows[1]
    i, j = pivots
    half = (p + 1) // 2  # 1/2 mod p
    factors = {
        normalize_projective([(s * a - r * b) % p for a, b in zip(l1, l2)], p)
        for r, s in _binary_roots(P[i][i] * half, P[i][j], P[j][j] * half, p)
    }
    return sorted(factors)


def _assert_complete_intersection(P1, P2, p: int) -> None:
    """Reject reductions that are not a codimension-2 complete intersection.

    P1 and P2 are the polar matrices, p is odd and neither form vanishes mod
    p.  Two failure shapes: the reduced forms are proportional (as their
    polar matrices are, 2 being a unit), or they share an F_p-rational
    linear factor (sharing only conjugate factors over F_p^2 would force
    proportionality, so this check is complete).
    """
    b1, b2 = ([c % p for row in P for c in row] for P in (P1, P2))
    k = next(k for k, c in enumerate(b1) if c)
    lam = b2[k] * pow(b1[k], -1, p) % p
    if all(y == lam * x % p for x, y in zip(b1, b2)):
        raise ValueError(
            f"X mod {p} is not a complete intersection: "
            "the reduced forms are proportional"
        )
    shared = set(_linear_factors_mod_p(P1, p)) & set(_linear_factors_mod_p(P2, p))
    if shared:
        raise ValueError(
            f"X mod {p} is not a complete intersection: the reduced forms "
            "share a linear factor"
        )


class SingularLocusReport(NamedTuple):
    """Singular points of X_p with ambient Jacobian ranks.

    points are canonical projective representatives (first nonzero coordinate
    1), sorted; ranks[i] is the rank of the stacked gradient matrix of
    (Q1, Q2) at points[i]; method is "kernel-guided", the search that found
    them; conical is True iff some rank is 0.
    """

    prime: int
    points: tuple[tuple[int, ...], ...]
    ranks: tuple[int, ...]
    method: str
    conical: bool


def _projective_points(basis, p: int):
    """Each projective point of span(basis) once, as the combination of the
    basis whose first nonzero coefficient is 1."""
    for lead in range(len(basis)):
        for tail in product(range(p), repeat=len(basis) - lead - 1):
            v = basis[lead]
            for c, vec in zip(tail, basis[lead + 1 :]):
                v = [(x + c * y) % p for x, y in zip(v, vec)]
            yield v


def _kernel_points(b1, b2, basis, p: int):
    """Vectors covering every projective point of span(basis) on X_p.

    b1 and b2 are the polar matrices mod p, so 2Q(x) = x.Px and the polar
    form is B(a, b) = a.Pb.  A point of X_p is a zero of g, the restriction
    of Q2 to the kernel, or of Q1 when Q2 restricts to 0 (on ker(B1 - t0*B2)
    Q1 = t0*Q2, and on ker B2 Q2 = 0, so either restriction carries the same
    information).  With w the last basis vector, the kernel's points are w
    and v + s*w, where v has first nonzero coefficient 1 on the other basis
    vectors; on that line 2g(v + s*w) = v.Pv + 2s*v.Pw + s^2*w.Pw, so s is a
    root of that quadratic mod p, or free when the quadratic is 0 mod p.
    KERNEL_CANDIDATE_CAP counts the (p^(dim-1) - 1)/(p - 1) quadratics, about
    p^(dim - 2), or the (p^dim - 1)/(p - 1) points when g is identically 0.
    """
    *head, w = basis
    pairs = list(combinations_with_replacement(range(len(basis)), 2))
    g = None
    for P in (b2, b1):
        pvs = [[sum(map(mul, r, v)) % p for r in P] for v in basis]
        if any(sum(map(mul, basis[i], pvs[j])) % p for i, j in pairs):
            g, pw, ww = P, pvs[-1], sum(map(mul, w, pvs[-1]))
            break
    _check_candidate_cap((p ** (len(head) + (g is None)) - 1) // (p - 1))
    yield w
    for v in _projective_points(head, p):
        line = (sum(map(mul, v, [sum(map(mul, r, v)) for r in g])),
                2 * sum(map(mul, v, pw)), ww) if g else ()
        roots = roots_mod_p(line, p) if any(c % p for c in line) else range(p)
        for s in roots:
            yield [(x + s * y) % p for x, y in zip(v, w)]


def _kernel_guided_locus(
    pencil: PencilOfQuadrics, p: int, members: list[int] | None, degree: int
) -> list[tuple[tuple[int, ...], int]]:
    """Singular points via vertices of the singular pencil members.

    A singular point x of the complete intersection X_p (p odd) has
    proportional gradients, a*B1*x + b*B2*x = 0 with (a, b) != 0, so x lies in
    the kernel of the member B1 - t*B2 (t = -b/a in F_p) or of B2 (a = 0).
    Simple roots of f mod p contribute nothing: if t0 is a simple root and v
    spans the kernel of B1 - t0*B2, then f'(t0) = -c * v^T B2 v with
    c != 0, so Q2(v) != 0 and the vertex is not on Q2, hence not on X_p.
    So only members, the repeated roots of f mod p, are searched, plus the
    member B2 when t = infinity is a repeated root, i.e. degree, the degree
    of f mod p, is <= 4.  When f vanishes identically mod p (members is
    None) every member is singular, and the kernels of all p + 1 members
    are searched; those p + 1 kernel solves count against
    KERNEL_CANDIDATE_CAP like the candidates of each kernel.  A candidate x
    is kept when x.Px = 0 mod p for both polar matrices P and the
    gradients Px have rank <= 1.
    """
    if members is None:
        _check_candidate_cap(p + 1)
        members = range(p)
    elif not members and degree > 4:
        return []  # no singular member: X_p is smooth
    b1, b2 = polars = [[[c % p for c in row] for row in P] for P in pencil.polars]
    kernels = [kernel_mod_p([[x - t0 * y for x, y in zip(r1, r2)] for r1, r2 in zip(b1, b2)], p)
               for t0 in members]
    if degree <= 4:
        kernels.append(kernel_mod_p(b2, p))

    seen: set[tuple[int, ...]] = set()
    found = []
    for basis in kernels:
        for v in _kernel_points(b1, b2, basis, p):
            point = normalize_projective(v, p)
            if point in seen:
                continue
            seen.add(point)
            gradients = [[sum(map(mul, r, point)) % p for r in P] for P in polars]
            if any(sum(map(mul, point, g)) % p for g in gradients):
                continue
            rank = rank_mod_p(gradients, p)
            if rank <= 1:
                found.append((point, rank))
    found.sort()
    return found


def singular_locus(pencil: PencilOfQuadrics, prime: int) -> SingularLocusReport:
    """Singular points of X mod p (p odd), kernel-guided.

    p = 2 is rejected (see mod2_degeneracy); non-complete-intersection
    reductions are rejected.

    The complete-intersection test runs only where it can fail: where f mod
    p is 0 or c*(t - t0)^6.  Up to a unit, f(t) is det(P1 - t*P2) for the
    polar matrices.  Proportional reductions, r2 = lam*r1 with lam != 0
    (neither form vanishes mod p), give f = c*(1 - lam*t)^6.  A shared
    linear factor l makes every member r1 - t*r2 = l*(m1 - t*m2) of rank
    <= 2, so f = 0.  The repeated roots t0 and the degree of f mod p also
    choose the members that the kernel-guided search solves.
    """
    if prime == 2:
        raise ValueError(
            "p = 2: singular-locus analysis is invalid in characteristic 2; "
            "use mod2_degeneracy"
        )
    _check_pencil_reduction(pencil, prime)
    f = pencil.char_form
    degree = max((k for k, c in enumerate(f) if c % prime), default=-1)
    # The repeated roots of f mod p, as the common roots of f and f'.
    members = (common_roots_mod_p((f, derivative(f)), prime)
               if degree >= 0 else None)
    if members is None or degree == 6 and any(
        all((c - f[6] * comb(6, k) * (-t0) ** (6 - k)) % prime == 0 for k, c in enumerate(f))
        for t0 in members
    ):
        _assert_complete_intersection(*pencil.polars, prime)
    found = _kernel_guided_locus(pencil, prime, members, degree)
    points = tuple(pt for pt, _ in found)
    ranks = tuple(rank for _, rank in found)
    return SingularLocusReport(
        prime=prime,
        points=points,
        ranks=ranks,
        method="kernel-guided",
        conical=any(rank == 0 for rank in ranks),
    )


def cone_check(report: SingularLocusReport) -> bool:
    """True (non-conical) iff no singular point has Jacobian rank 0."""
    return not report.conical


def locus_document(locus: SingularLocusReport) -> dict:
    """The JSON record of a singular locus, for `reduction` and the certificate."""
    return {
        "prime": locus.prime,
        "points": [list(pt) for pt in locus.points],
        "ambient_jacobian_ranks": list(locus.ranks),
        "method": locus.method,
        "non_conical": cone_check(locus),
    }


def _linear_str(vec) -> str:
    names = [VARIABLES[i] for i, c in enumerate(vec) if c % 2]
    return "+".join(names) if names else "0"


# Reduced forms mod 2 are handled as 64-bit masks over F_2^6: bit x stands for
# the point whose coordinate i is bit i of x, and a form's mask marks the
# points where it is 1.  Distinct quadratic forms over F_2 are distinct
# functions, so a form is its mask: l*m is the form q iff L(l) & L(m) is q's
# mask, and l divides q iff q is 0 on the hyperplane l = 0, the complement of
# L(l).
_COORDINATE_MASKS = (0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
                     0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000)
_LINEAR_MASKS = {vec: reduce(xor, compress(_COORDINATE_MASKS, vec))
                 for vec in product((0, 1), repeat=NUM_VARIABLES) if any(vec)}


def _form_mask(P) -> int:
    """The points of F_2^6 where the form with polar matrix P is 1 mod 2 (0
    iff it vanishes mod 2)."""
    return reduce(xor, (_COORDINATE_MASKS[i] & _COORDINATE_MASKS[j]
                        for (i, j), c in form_coefficients(P) if c % 2), 0)


def _square_root_on(ones: int, h) -> tuple[int, ...] | None:
    """The nonzero linear form r free of h's first variable whose square is
    the form with mask ones restricted to h = 0, or None.

    Restriction substitutes for that variable, so r is unique: two such forms
    agreeing on h = 0 differ by a multiple of h, which has the variable.
    """
    k = h.index(1)
    plane = ~_LINEAR_MASKS[h]
    return next((r for r, mask in _LINEAR_MASKS.items()
                 if not r[k] and mask & plane == ones & plane), None)


def mod2_degeneracy(pencil: PencilOfQuadrics) -> dict:
    """Evidence for reducibility/non-reducedness of X mod 2.

    Exhaustive search over the 63 nonzero linear forms of F_2^6 (and all
    pairs of those dividing the form; F_2[x] is a UFD, so at most two do):
    for each reduced form, every factorization into two linear forms and
    every square decomposition is reported; whenever one form factors,
    the other form is restricted to each factor hyperplane and tested for
    being a square there (non-reducedness evidence).
    """
    masks = dict(zip(("Q1", "Q2"), map(_form_mask, pencil.polars)))
    linear_factorizations = []
    square_forms = []
    classifications: dict[str, str] = {}
    for label, ones in masks.items():
        if not ones:
            classifications[label] = "vanishes identically mod 2"
            continue
        divisors = [(a, mask) for a, mask in _LINEAR_MASKS.items() if not ones & ~mask]
        factor_pairs = [
            (a, b)
            for (a, ma), (b, mb) in combinations_with_replacement(divisors, 2)
            if ma & mb == ones
        ]
        for a, b in factor_pairs:
            linear_factorizations.append(
                {
                    "form": label,
                    "factors": [_linear_str(a), _linear_str(b)],
                    "factor_vectors": [list(a), list(b)],
                }
            )
            if a == b:
                square_forms.append({"form": label, "root": _linear_str(a)})
        if any(a == b for a, b in factor_pairs):
            classifications[label] = (
                f"square of a linear form ({square_forms[-1]['root']})"
            )
        elif factor_pairs:
            a, b = factor_pairs[0]
            classifications[label] = (
                f"product of two linear forms ({_linear_str(a)})*({_linear_str(b)})"
            )
        else:
            classifications[label] = "irreducible over F_2"

    non_reduced_evidence = []
    for entry in linear_factorizations:
        other_label = "Q2" if entry["form"] == "Q1" else "Q1"
        for vec in entry["factor_vectors"]:
            root = _square_root_on(masks[other_label], tuple(vec))
            if root is not None:
                non_reduced_evidence.append(
                    {
                        "form": other_label,
                        "hyperplane": _linear_str(vec),
                        "square_root": _linear_str(root),
                    }
                )

    parts = [f"{label} mod 2: {classifications[label]}" for label in ("Q1", "Q2")]
    if linear_factorizations:
        parts.append("a reduced form factors (reducibility evidence)")
    for item in non_reduced_evidence:
        parts.append(
            f"{item['form']} mod 2 restricted to {item['hyperplane']} = 0 is the "
            f"square of {item['square_root']} (non-reducedness evidence)"
        )
    return {
        "linear_factorizations": linear_factorizations,
        "square_forms": square_forms,
        "non_reduced_evidence": non_reduced_evidence,
        "verdict": "; ".join(parts),
    }
