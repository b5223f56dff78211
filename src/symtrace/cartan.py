"""Reduced traces valued in diagonal Cartan data.

For the diagonal subalgebra of rank n with the symmetric group permuting the
entries, the invariant evaluation against the (q+1)-th power sum turns the
rank-one trace output into a sum over diagonal slots: a product of exactly
q+1 generator letters is placed whole into each slot in turn.  Summing over
all q recovers the symmetrization map r -> sum_i (1, .., r, .., 1).

Two routes are computed and compared: the power-sum evaluation applied after
the combinatorial rank-one trace, and the Cartan-valued slot expansion of
the connection/curvature evaluators with the power-sum contraction folded in.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations
from typing import Dict, Optional, Sequence, Tuple

from .derham import Form, bigrade_split, d
from .gcalg import (
    AlgebraElement,
    IntegrityError,
    InvalidInputError,
    LinComb,
    Monomial,
    koszul_sign,
    monomial_parity,
    monomial_units,
)
from .trace import _assignments, _slot_term, expand_multilinear, trace_simple

SlotKey = Tuple[Monomial, ...]

ONE: Monomial = ()


class DiagonalTraceValue(LinComb):
    """S_n-symmetric element of the n-fold tensor power of the target algebra."""

    __slots__ = ("n",)

    def __init__(self, n: int, terms: Optional[Dict[SlotKey, Fraction]] = None):
        self.n = n
        super().__init__(terms)

    def _new(self, terms: dict) -> "DiagonalTraceValue":
        return DiagonalTraceValue(self.n, terms)

    def iadd(self, other: "DiagonalTraceValue", c=1) -> "DiagonalTraceValue":
        if self.n != other.n:
            raise InvalidInputError("slot counts differ")
        return super().iadd(other, c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiagonalTraceValue):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def permute_slots(self, sigma: Sequence[int]) -> "DiagonalTraceValue":
        """Apply a slot permutation with Koszul signs (slot parities)."""
        out: Dict[SlotKey, Fraction] = {}
        for key, c in self.terms.items():
            sign = koszul_sign(sigma, [monomial_parity(m) for m in key])
            new = [ONE] * self.n
            for j, m in enumerate(key):
                new[sigma[j]] = m
            k2 = tuple(new)
            out[k2] = out.get(k2, Fraction(0)) + sign * c
        return DiagonalTraceValue(self.n, out)

    def is_symmetric(self) -> bool:
        return all(
            self.permute_slots(sigma) == self
            for sigma in permutations(range(self.n))
        )


def _place(element: AlgebraElement, n: int) -> DiagonalTraceValue:
    """sum_i (1, .., element, .., 1) with the element whole in slot i."""
    out: Dict[SlotKey, Fraction] = {}
    for m, c in element.terms.items():
        for i in range(n):
            key = tuple(m if j == i else ONE for j in range(n))
            out[key] = out.get(key, Fraction(0)) + c
    return DiagonalTraceValue(n, out)


def vartheta_power_sum(t: AlgebraElement, n: int, q: int) -> DiagonalTraceValue:
    """Evaluate the (q+1)-th power sum against the diagonal placement of t.

    Only monomials made of exactly q+1 generator letters survive; each goes
    whole into one slot, summed over slots.
    """
    if n < 1 or q < 0:
        raise InvalidInputError("need n >= 1 and q >= 0")
    filtered = AlgebraElement(
        {m: c for m, c in t.terms.items() if monomial_units(m) == q + 1}
    )
    return _place(filtered, n)


def vartheta_symmetrize(t: AlgebraElement, n: int) -> DiagonalTraceValue:
    """The direct sum over all q: the symmetrization map."""
    return _place(t, n)


def _cartan_slot_route(omega: Form, n: int, q: int) -> DiagonalTraceValue:
    """Cartan-valued connection/curvature expansion with power-sum contraction.

    Every theta/Omega output carries a diagonal index; contracting with the
    (q+1)-th power sum keeps exactly the assignments where all indices agree,
    so each surviving slot product lands whole in one diagonal slot.
    """
    out = DiagonalTraceValue.zero(n)
    for w, p, part in bigrade_split(omega):
        if w == 0:
            continue
        r = w - 1
        if q != r:
            continue
        eta = d(part)
        acc: Dict[SlotKey, Fraction] = {}
        for coeff, us, dus in expand_multilinear(eta):
            for theta_block, omega_blocks in _assignments(us, dus, r):
                term = _slot_term(coeff, us, dus, theta_block, omega_blocks)
                if term is None:
                    continue
                c, mono = term
                for i in range(n):
                    key = tuple(mono if j == i else ONE for j in range(n))
                    acc[key] = acc.get(key, Fraction(0)) + c
        out.iadd(DiagonalTraceValue(n, acc), Fraction(1, math.factorial(r + 1)))
    return out


def trace_cartan(omega: Form, n: int, q: int) -> DiagonalTraceValue:
    """Diagonal-Cartan reduced trace; both routes computed and compared."""
    via_factorization = vartheta_power_sum(trace_simple(omega), n, q)
    via_slots = _cartan_slot_route(omega, n, q)
    if via_factorization != via_slots:
        raise IntegrityError("cartan trace routes disagree")
    return via_factorization


def trace_cartan_total(omega: Form, n: int) -> DiagonalTraceValue:
    """Sum of the power-sum traces over all q (the symmetrized trace)."""
    return vartheta_symmetrize(trace_simple(omega), n)
