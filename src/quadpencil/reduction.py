"""Mod-p reductions of X: singular locus, cone check, characteristic-2
degeneracy evidence."""

from __future__ import annotations

from functools import reduce
from itertools import combinations_with_replacement, compress, product
from math import comb
from operator import xor
from typing import NamedTuple

from .exactmath import (
    is_probable_prime,
    kernel_mod_p,
    rank_mod_p,
    repeated_roots_mod_p,
    roots_mod_p,
    rref_mod_p,
)
from .pencil import PencilOfQuadrics
from .quadric import (
    NUM_VARIABLES,
    VARIABLES,
    QuadraticForm,
    evaluate_form,
    gradient_at,
    polar_form,
    polar_matrix,
    restrict_to_line,
)

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


def reduce_form(q: QuadraticForm, p: int) -> QuadraticForm:
    """Coefficient-wise reduction of a form mod p (coefficients in [0, p))."""
    residues = {key: c % p for key, c in q.coeffs.items() if c % p}
    if not residues:
        raise DegenerateReductionError(
            f"degenerate reduction: the form vanishes identically mod {p}"
        )
    return QuadraticForm(residues)


def reduce_pencil(pencil: PencilOfQuadrics, prime: int) -> tuple[QuadraticForm, QuadraticForm]:
    """Both forms reduced mod p; raises DegenerateReductionError if one dies."""
    if not is_probable_prime(prime):
        raise ValueError(f"{prime} is not prime")
    return reduce_form(pencil.q1, prime), reduce_form(pencil.q2, prime)


def normalize_projective(v, p: int) -> tuple[int, ...]:
    """Canonical representative mod p: first nonzero coordinate scaled to 1."""
    coords = [int(c) % p for c in v]
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


def _linear_factors_mod_p(q: QuadraticForm, p: int) -> list[tuple[int, ...]]:
    """All F_p-rational linear forms dividing q, normalized, for odd p.

    A quadratic form has a linear factor only when its polar matrix has rank
    <= 2; rank 1 gives a squared factor, rank 2 a binary quadratic whose
    splitting is decided by its roots mod p.
    """
    rows, pivots = rref_mod_p(polar_matrix(q), p)
    if len(pivots) > 2:
        return []
    if len(pivots) == 1:
        return [normalize_projective(rows[0], p)]
    # rank 2: q = g(l1(x), l2(x)) for the two echelon rows l1, l2 and the
    # binary quadratic g read off at the pivots; a root (r : s) of g gives
    # the factor s*l1 - r*l2.
    l1, l2 = rows[0], rows[1]
    e1, e2 = ([int(k == c) for k in range(NUM_VARIABLES)] for c in pivots)
    factors = {
        normalize_projective([(s * a - r * b) % p for a, b in zip(l1, l2)], p)
        for r, s in _binary_roots(*restrict_to_line(q, e1, e2), p)
    }
    return sorted(factors)


def _assert_complete_intersection(
    r1: QuadraticForm, r2: QuadraticForm, p: int
) -> None:
    """Reject reductions that are not a codimension-2 complete intersection.

    Two failure shapes: the reduced forms are proportional, or they share an
    F_p-rational linear factor (sharing only conjugate factors over F_p^2
    would force proportionality, so this check is complete).
    """
    key, c = min(r1.coeffs.items())
    lam = r2.coefficient(*key) * pow(c, -1, p) % p
    keys = set(r1.coeffs) | set(r2.coeffs)
    if all(r2.coefficient(*k) % p == lam * r1.coefficient(*k) % p for k in keys):
        raise ValueError(
            f"X mod {p} is not a complete intersection: "
            "the reduced forms are proportional"
        )
    shared = set(_linear_factors_mod_p(r1, p)) & set(_linear_factors_mod_p(r2, p))
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


def _kernel_points(r1: QuadraticForm, r2: QuadraticForm, basis, p: int):
    """Vectors covering every projective point of span(basis) on X_p.

    A point of X_p is a zero of g, the restriction of Q2 to the kernel, or of
    Q1 when Q2 restricts to 0 (on ker(B1 - t0*B2) Q1 = t0*Q2, and on ker B2
    Q2 = 0, so either restriction carries the same information).  With w the
    last basis vector, the kernel's points are w and v + s*w, where v has
    first nonzero coefficient 1 on the other basis vectors; on that line
    g(v + s*w) = g(v) + s*B(v, w) + s^2*g(w), so s is a root of that
    quadratic mod p, or free when the quadratic is 0 mod p.
    KERNEL_CANDIDATE_CAP counts the (p^(dim-1) - 1)/(p - 1) quadratics, about
    p^(dim - 2), or the (p^dim - 1)/(p - 1) points when g is identically 0.
    """
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


def _kernel_guided_locus(
    pencil: PencilOfQuadrics,
    r1: QuadraticForm,
    r2: QuadraticForm,
    p: int,
    members: list[int] | None,
    degree: int,
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
    KERNEL_CANDIDATE_CAP like the candidates of each kernel.
    """
    b1, b2 = pencil.polars
    if members is None:
        _check_candidate_cap(p + 1)
        members = range(p)
    kernels: list[list[list[int]]] = []
    for t0 in members:
        member = [
            [(b1[i][j] - t0 * b2[i][j]) % p for j in range(NUM_VARIABLES)]
            for i in range(NUM_VARIABLES)
        ]
        kernels.append(kernel_mod_p(member, p))
    if degree <= 4:
        kernels.append(kernel_mod_p(b2, p))

    seen: set[tuple[int, ...]] = set()
    found = []
    for basis in kernels:
        for v in _kernel_points(r1, r2, basis, p):
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
    r1, r2 = reduce_pencil(pencil, prime)
    f = pencil.char_form.coeffs
    degree = max((k for k, c in enumerate(f) if c % prime), default=-1)
    members = repeated_roots_mod_p(pencil.char_form, prime) if degree >= 0 else None
    if members is None or degree == 6 and any(
        all((c - f[6] * comb(6, k) * (-t0) ** (6 - k)) % prime == 0 for k, c in enumerate(f))
        for t0 in members
    ):
        _assert_complete_intersection(r1, r2, prime)
    found = _kernel_guided_locus(pencil, r1, r2, prime, members, degree)
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


def _form_mask(q: QuadraticForm) -> int:
    """The points of F_2^6 where q mod 2 is 1 (0 iff q vanishes mod 2)."""
    return reduce(xor, (_COORDINATE_MASKS[i] & _COORDINATE_MASKS[j]
                        for (i, j), c in q.coeffs.items() if c % 2), 0)


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
    masks = {"Q1": _form_mask(pencil.q1), "Q2": _form_mask(pencil.q2)}
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
