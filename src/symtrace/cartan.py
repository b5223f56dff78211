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
from .trace import theta_omega_q, trace_simple

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
        """S_n-invariance, checked on the n-1 adjacent transpositions that generate S_n."""
        for i in range(self.n - 1):
            sigma = list(range(self.n))
            sigma[i], sigma[i + 1] = i + 1, i
            if self.permute_slots(sigma) != self:
                return False
        return True


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
    return vartheta_symmetrize(filtered, n)


def vartheta_symmetrize(t: AlgebraElement, n: int) -> DiagonalTraceValue:
    """The direct sum over all q: the symmetrization map.

    sum_i (1, .., t, .., 1), with t whole in slot i.
    """
    out: Dict[SlotKey, Fraction] = {}
    for m, c in t.terms.items():
        for i in range(n):
            key = tuple(m if j == i else ONE for j in range(n))
            out[key] = out.get(key, Fraction(0)) + c
    return DiagonalTraceValue(n, out)


def _cartan_slot_route(omega: Form, n: int, q: int) -> DiagonalTraceValue:
    """Cartan-valued connection/curvature expansion with power-sum contraction.

    Every theta/Omega output carries a diagonal index; contracting with the
    (q+1)-th power sum keeps exactly the assignments where all indices agree,
    so each surviving slot product lands whole in one diagonal slot.
    """
    out = DiagonalTraceValue.zero(n)
    for w, p, part in bigrade_split(omega):
        if w - 1 == q:
            slots = vartheta_symmetrize(theta_omega_q(d(part), q), n)
            out.iadd(slots, Fraction(1, math.factorial(q + 1)))
    return out


def trace_cartan(omega: Form, n: int, q: int) -> DiagonalTraceValue:
    """Diagonal-Cartan reduced trace; both routes computed and compared."""
    via_factorization = vartheta_power_sum(trace_simple(omega), n, q)
    via_slots = _cartan_slot_route(omega, n, q)
    if via_factorization != via_slots:
        raise IntegrityError("cartan trace routes disagree")
    return via_factorization
