"""Mod-p reductions of X: singular locus, cone check, characteristic-2
degeneracy evidence."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product

from .exactmath import (
    is_probable_prime,
    kernel_mod_p,
    rank_mod_p,
    repeated_roots_mod_p,
    rref_mod_p,
    sqrt_mod_p,
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
)

# Largest prime for which the exhaustive P^5(F_p) scan is offered.
EXHAUSTIVE_LOCUS_PRIME_BOUND = 13

# Hard cap on kernel-subspace candidates in the kernel-guided method, and
# on its p + 1 kernel solves when f vanishes identically mod p.
KERNEL_CANDIDATE_CAP = 10**6


class DegenerateReductionError(ValueError):
    """A form vanishes identically mod p, so X_p is not cut by two quadrics."""


class KernelCandidateCapError(ValueError):
    """The kernel-guided method would exceed KERNEL_CANDIDATE_CAP candidates."""


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

    p is odd and g is not identically 0 mod p; roots are normalized and
    sorted.  A square root mod p of the discriminant decides them.
    """
    if alpha % p == 0:
        # g = s * (gamma*r + beta*s)
        candidates = [(1, 0), (beta, -gamma)]
    else:
        root = sqrt_mod_p((gamma * gamma - 4 * alpha * beta) % p, p)
        if root is None:
            return []
        inv2a = pow(2 * alpha, -1, p)
        candidates = [((-gamma + sign * root) * inv2a, 1) for sign in (1, -1)]
    return sorted(
        {normalize_projective(c, p) for c in candidates if c[0] % p or c[1] % p}
    )


def _linear_factors_mod_p(q: QuadraticForm, p: int) -> list[tuple[int, ...]]:
    """All F_p-rational linear forms dividing q, normalized, for odd p.

    A quadratic form has a linear factor only when its polar matrix has rank
    <= 2; rank 1 gives a squared factor, rank 2 a binary quadratic whose
    splitting is decided by a square root mod p.
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
    g = (evaluate_form(q, e1), polar_form(q, e1, e2), evaluate_form(q, e2))
    factors = {
        normalize_projective([(s * a - r * b) % p for a, b in zip(l1, l2)], p)
        for r, s in _binary_roots(*g, p)
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


@dataclass(frozen=True)
class SingularLocusReport:
    """Singular points of X_p with ambient Jacobian ranks.

    points are canonical projective representatives (first nonzero coordinate
    1), sorted; ranks[i] is the rank of the stacked gradient matrix of
    (Q1, Q2) at points[i]; conical is True iff some rank is 0.
    """

    prime: int
    points: tuple[tuple[int, ...], ...]
    ranks: tuple[int, ...]
    method: str
    conical: bool


def _ambient_rank(r1: QuadraticForm, r2: QuadraticForm, v, p: int) -> int:
    rows = [gradient_at(r1, v), gradient_at(r2, v)]
    return rank_mod_p(rows, p)


def _exhaustive_locus(
    r1: QuadraticForm, r2: QuadraticForm, p: int
) -> list[tuple[tuple[int, ...], int]]:
    found = []
    for lead in range(NUM_VARIABLES):
        tail_len = NUM_VARIABLES - lead - 1
        for tail in product(range(p), repeat=tail_len):
            v = (0,) * lead + (1,) + tail
            if evaluate_form(r1, v) % p:
                continue
            if evaluate_form(r2, v) % p:
                continue
            rank = _ambient_rank(r1, r2, v, p)
            if rank <= 1:
                found.append((v, rank))
    found.sort()
    return found


def _kernel_points(r1: QuadraticForm, r2: QuadraticForm, basis, p: int):
    """Vectors covering every projective point of span(basis) on X_p.

    On a 2-dimensional kernel a point of X_p is a root of each form's
    restriction, a binary quadratic, so when one restriction is not
    identically 0 its at most 2 roots are the only candidates.  (On
    ker(B1 - t0*B2) Q1 = t0*Q2, and on ker B2 Q2 = 0, so the two restrictions
    carry the same information.)  Otherwise every projective point of the
    kernel is a candidate, counted against KERNEL_CANDIDATE_CAP.
    """
    dim = len(basis)
    if dim == 2:
        a, b = basis
        for q in (r2, r1):
            g = [evaluate_form(q, a), polar_form(q, a, b), evaluate_form(q, b)]
            if any(c % p for c in g):
                for r, s in _binary_roots(*g, p):
                    yield [(r * x + s * y) % p for x, y in zip(a, b)]
                return
    _check_candidate_cap((p**dim - 1) // (p - 1))
    # Normalized coefficient tuples (first nonzero entry 1) enumerate the
    # projective points of the kernel subspace exactly once.
    for lead in range(dim):
        for tail in product(range(p), repeat=dim - lead - 1):
            coeffs = (0,) * lead + (1,) + tail
            v = [0] * NUM_VARIABLES
            for c, vec in zip(coeffs, basis):
                if c:
                    for k in range(NUM_VARIABLES):
                        v[k] = (v[k] + c * vec[k]) % p
            yield v


def _kernel_guided_locus(
    pencil: PencilOfQuadrics, r1: QuadraticForm, r2: QuadraticForm, p: int
) -> list[tuple[tuple[int, ...], int]]:
    """Singular points via vertices of the singular pencil members.

    A singular point x of the complete intersection X_p (p odd) has
    proportional gradients, a*B1*x + b*B2*x = 0 with (a, b) != 0, so x lies in
    the kernel of the member B1 - t*B2 (t = -b/a in F_p) or of B2 (a = 0).
    Simple roots of f mod p contribute nothing: if t0 is a simple root and v
    spans the kernel of B1 - t0*B2, then f'(t0) = -c * v^T B2 v with
    c != 0, so Q2(v) != 0 and the vertex is not on Q2, hence not on X_p.
    So only repeated roots of f mod p are searched, plus the member B2 when
    t = infinity is a repeated root, i.e. deg(f mod p) <= 4.  When f vanishes
    identically mod p every member is singular, and the kernels of all p + 1
    members are searched; those p + 1 kernel solves count against
    KERNEL_CANDIDATE_CAP like the candidates of each kernel.
    """
    f = pencil.char_form
    b1 = polar_matrix(pencil.q1)
    b2 = polar_matrix(pencil.q2)
    if any(c % p for c in f.coeffs):
        members = [root.residue for root in repeated_roots_mod_p(f, p)]
    else:
        _check_candidate_cap(p + 1)
        members = list(range(p))
    kernels: list[list[list[int]]] = []
    for t0 in members:
        member = [
            [(b1[i][j] - t0 * b2[i][j]) % p for j in range(NUM_VARIABLES)]
            for i in range(NUM_VARIABLES)
        ]
        kernels.append(kernel_mod_p(member, p))
    degree_mod_p = max(
        (k for k, c in enumerate(f.coeffs) if c % p), default=-1
    )
    if degree_mod_p <= 4:
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
            rank = _ambient_rank(r1, r2, point, p)
            if rank <= 1:
                found.append((point, rank))
    found.sort()
    return found


def singular_locus(
    pencil: PencilOfQuadrics, prime: int, method: str | None = None
) -> SingularLocusReport:
    """Singular points of X mod p (p odd), exhaustively or kernel-guided.

    method None picks "exhaustive" for p <= 13 and "kernel-guided" above;
    both can be requested explicitly for cross-validation.  run_pipeline
    always requests "kernel-guided"; the exhaustive scan is the oracle.
    p = 2 is rejected (see mod2_degeneracy); non-complete-intersection
    reductions are rejected.
    """
    if not is_probable_prime(prime):
        raise ValueError(f"{prime} is not prime")
    if prime == 2:
        raise ValueError(
            "p = 2: singular-locus analysis is invalid in characteristic 2; "
            "use mod2_degeneracy"
        )
    r1, r2 = reduce_pencil(pencil, prime)
    _assert_complete_intersection(r1, r2, prime)
    if method is None:
        method = (
            "exhaustive" if prime <= EXHAUSTIVE_LOCUS_PRIME_BOUND else "kernel-guided"
        )
    if method == "exhaustive":
        if prime > EXHAUSTIVE_LOCUS_PRIME_BOUND:
            raise ValueError(
                f"exhaustive method requires p <= {EXHAUSTIVE_LOCUS_PRIME_BOUND}"
            )
        found = _exhaustive_locus(r1, r2, prime)
    elif method == "kernel-guided":
        found = _kernel_guided_locus(pencil, r1, r2, prime)
    else:
        raise ValueError(f"unknown method {method!r}")
    points = tuple(pt for pt, _ in found)
    ranks = tuple(rank for _, rank in found)
    return SingularLocusReport(
        prime=prime,
        points=points,
        ranks=ranks,
        method=method,
        conical=any(rank == 0 for rank in ranks),
    )


def cone_check(report: SingularLocusReport) -> bool:
    """True (non-conical) iff no singular point has Jacobian rank 0."""
    return not report.conical


def _linear_str(vec) -> str:
    names = [VARIABLES[i] for i, c in enumerate(vec) if c % 2]
    return "+".join(names) if names else "0"


def _product_coeffs(a, b) -> dict[tuple[int, int], int]:
    """Coefficients of the product of two linear forms over F_2."""
    out: dict[tuple[int, int], int] = {}
    for i in range(NUM_VARIABLES):
        if a[i] and b[i]:
            out[(i, i)] = 1
    for i in range(NUM_VARIABLES):
        for j in range(i + 1, NUM_VARIABLES):
            c = (a[i] * b[j] + a[j] * b[i]) % 2
            if c:
                out[(i, j)] = c
    return out


def _restrict_to_hyperplane(
    coeffs: dict[tuple[int, int], int], ell
) -> dict[tuple[int, int], int]:
    """Substitute x_k = sum of the other variables of ell, over F_2."""
    k = next(i for i, c in enumerate(ell) if c % 2)
    rest = [i for i in range(NUM_VARIABLES) if i != k and ell[i] % 2]

    out: dict[tuple[int, int], int] = {}

    def add(i: int, j: int, c: int) -> None:
        if i > j:
            i, j = j, i
        out[(i, j)] = (out.get((i, j), 0) + c) % 2

    for (i, j), c in coeffs.items():
        if k not in (i, j):
            add(i, j, c)
        elif i == k and j == k:
            # x_k^2 = (sum rest)^2 = sum of squares over F_2.
            for m in rest:
                add(m, m, c)
        else:
            other = j if i == k else i
            for m in rest:
                add(other, m, c)
    return {key: c for key, c in out.items() if c}


def _square_root_form(coeffs: dict[tuple[int, int], int]):
    """If the F_2 form is a square of a linear form, return that form."""
    if any(i != j for (i, j) in coeffs):
        return None
    vec = [0] * NUM_VARIABLES
    for (i, _), c in coeffs.items():
        vec[i] = c % 2
    if not any(vec):
        return None
    return tuple(vec)


_ALL_LINEAR_FORMS = [
    vec for vec in product((0, 1), repeat=NUM_VARIABLES) if any(vec)
]


def mod2_degeneracy(pencil: PencilOfQuadrics) -> dict:
    """Evidence for reducibility/non-reducedness of X mod 2.

    Exhaustive search over the 63 nonzero linear forms of F_2^6 (and all
    pairs of those dividing the form; F_2[x] is a UFD, so at most two do):
    for each reduced form, every factorization into two linear forms and
    every square decomposition is reported; whenever one form factors,
    the other form is restricted to each factor hyperplane and tested for
    being a square there (non-reducedness evidence).
    """
    reduced: dict[str, dict[tuple[int, int], int]] = {}
    for label, q in (("Q1", pencil.q1), ("Q2", pencil.q2)):
        reduced[label] = {key: c % 2 for key, c in q.coeffs.items() if c % 2}

    linear_factorizations = []
    square_forms = []
    classifications: dict[str, str] = {}
    for label in ("Q1", "Q2"):
        coeffs = reduced[label]
        if not coeffs:
            classifications[label] = "vanishes identically mod 2"
            continue
        # A linear form a divides the form iff the form vanishes on a = 0.
        divisors = [a for a in _ALL_LINEAR_FORMS if not _restrict_to_hyperplane(coeffs, a)]
        factor_pairs = []
        for a, b in combinations_with_replacement(divisors, 2):
            if _product_coeffs(a, b) == coeffs:
                factor_pairs.append((a, b))
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
        label = entry["form"]
        other_label = "Q2" if label == "Q1" else "Q1"
        other = reduced[other_label]
        if not other:
            continue
        for vec in entry["factor_vectors"]:
            restricted = _restrict_to_hyperplane(other, vec)
            root = _square_root_form(restricted)
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
