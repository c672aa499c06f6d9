"""Sparse multivariate polynomials with integer coefficients."""

from __future__ import annotations


class MultiPoly:
    """Immutable sparse polynomial: exponent tuples (fixed arity) -> int coeff."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms=None):
        clean = {}
        for exps, c in (terms or {}).items():
            if c == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != arity:
                raise ValueError("exponent vector arity mismatch")
            clean[exps] = clean.get(exps, 0) + c
        clean = {e: c for e, c in clean.items() if c != 0}
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, arity: int) -> "MultiPoly":
        return cls(arity, {})

    @classmethod
    def constant(cls, c: int, arity: int) -> "MultiPoly":
        return cls(arity, {(0,) * arity: c})

    @classmethod
    def variable(cls, index: int, arity: int) -> "MultiPoly":
        exps = [0] * arity
        exps[index] = 1
        return cls(arity, {tuple(exps): 1})

    # -- structure ------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.arity, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        items = sorted(self.terms.items())
        return f"MultiPoly({self.arity}, {dict(items)!r})"

    # -- evaluation -------------------------------------------------------
    def evaluate(self, point) -> int:
        """Exact evaluation at an integer (or Fraction) point."""
        if len(point) != self.arity:
            raise ValueError("point arity mismatch")
        total = 0
        for e, c in self.terms.items():
            term = c
            for value, exp in zip(point, e):
                if exp == 0:
                    continue
                if exp == 1:
                    term = term * value
                else:
                    term = term * value**exp
            total = total + term
        return total

    def evaluate_mod(self, point, p: int) -> int:
        return int(self.evaluate([int(v) % p for v in point])) % p
