"""Exact arithmetic kernel: integers, prime fields, polynomials, matrices."""

from .integers import (
    FactorizationError,
    factor_with_hints,
    is_probable_prime,
    sqrt_mod_p,
)
from .matrix import (
    ExactMatrix,
    det_cofactor,
    det_poly_matrix,
    kernel_mod_p,
    rank_mod_p,
    rref_mod_p,
    solve_mod_p,
)
from .multipoly import MultiPoly
from .unipoly import (
    PrimeFieldElement,
    UniPoly,
    isolate_real_roots,
    poly_discriminant,
    repeated_roots_mod_p,
    squarefree_degree6,
    sturm_count,
)

__all__ = [
    "ExactMatrix",
    "FactorizationError",
    "MultiPoly",
    "PrimeFieldElement",
    "UniPoly",
    "det_cofactor",
    "det_poly_matrix",
    "factor_with_hints",
    "is_probable_prime",
    "isolate_real_roots",
    "kernel_mod_p",
    "poly_discriminant",
    "rank_mod_p",
    "repeated_roots_mod_p",
    "rref_mod_p",
    "solve_mod_p",
    "sqrt_mod_p",
    "squarefree_degree6",
    "sturm_count",
]
