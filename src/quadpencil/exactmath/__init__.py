"""Exact arithmetic kernel: integers, prime fields, polynomials, matrices."""

from .integers import (
    FactorizationError,
    factor_with_hints,
    is_probable_prime,
)
from .matrix import (
    det_poly_matrix,
    kernel_mod_p,
    poly_discriminant,
    rank_mod_p,
    rref_mod_p,
    solve_mod_p,
)
from .unipoly import (
    UniPoly,
    common_roots_mod_p,
    isolate_real_roots,
    repeated_roots_mod_p,
    roots_mod_p,
    squarefree_degree6,
    sturm_count,
)

__all__ = [
    "FactorizationError",
    "UniPoly",
    "common_roots_mod_p",
    "det_poly_matrix",
    "factor_with_hints",
    "is_probable_prime",
    "isolate_real_roots",
    "kernel_mod_p",
    "poly_discriminant",
    "rank_mod_p",
    "repeated_roots_mod_p",
    "roots_mod_p",
    "rref_mod_p",
    "solve_mod_p",
    "squarefree_degree6",
    "sturm_count",
]
