"""Reduced traces valued in diagonal Cartan data.

For the diagonal subalgebra of rank n with the symmetric group permuting the
entries, the invariant evaluation against the (q+1)-th power sum turns the
rank-one trace output into a sum over diagonal slots: a product of exactly
q+1 generator letters is placed whole into each slot in turn.  Summing over
all q recovers the symmetrization map r -> sum_i (1, .., r, .., 1).

Two routes are computed and compared: the power-sum part of the
combinatorial rank-one trace, and the connection/curvature slot expansion
of the weight-(q+1) component.  Both are symmetrized into the slots, and
symmetrization is injective for n >= 1, so they are compared before it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .derham import Form, monomial_bidegree
from .gcalg import (
    AlgebraElement,
    IntegrityError,
    InvalidInputError,
    LinComb,
    Monomial,
    charge,
    int_sum,
    koszul_sign,
    monomial_parity,
    monomial_units,
)
from .trace import cs_trace_raw, trace_simple

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
        parts = []
        for key, c in self.terms.items():
            sign = koszul_sign(sigma, [monomial_parity(m) if m else 0 for m in key])
            new = [ONE] * self.n
            for j, m in enumerate(key):
                new[sigma[j]] = m
            parts.append((c, ((tuple(new), sign),)))
        return DiagonalTraceValue.from_clean(int_sum(parts), self.n)

    def is_symmetric(self) -> bool:
        """S_n-invariance, checked on the transposition (0 1) and the n-cycle.

        The two generate S_n, and the signed slot permutation is a group
        action, so invariance under both is invariance under S_n.
        """
        if self.n < 2:
            return True
        swap = [1, 0] + list(range(2, self.n))
        cycle = list(range(1, self.n)) + [0]
        return all(self.permute_slots(sigma) == self for sigma in (swap, cycle))


def vartheta_power_sum(t: AlgebraElement, n: int, q: int) -> DiagonalTraceValue:
    """Evaluate the (q+1)-th power sum against the diagonal placement of t.

    Only monomials made of exactly q+1 generator letters survive; each goes
    whole into one slot, summed over slots.
    """
    if n < 1 or q < 0:
        raise InvalidInputError("need n >= 1 and q >= 0")
    return vartheta_symmetrize(_power_sum_part(t, q), n)


def _power_sum_part(t: AlgebraElement, q: int) -> AlgebraElement:
    """The monomials of t made of exactly q+1 generator letters."""
    return AlgebraElement.from_clean({m: c for m, c in t.terms.items() if monomial_units(m) == q + 1})


def vartheta_symmetrize(t: AlgebraElement, n: int) -> DiagonalTraceValue:
    """The direct sum over all q: the symmetrization map.

    sum_i (1, .., t, .., 1), with t whole in slot i.  The n keys of n slots
    of each monomial are charged to the basis budget before any is built.
    """
    charge(n * n * len(t.terms), f"slot cells for n={n}")
    parts = ((c, [(tuple(m if j == i else ONE for j in range(n)), 1) for i in range(n)])
             for m, c in t.terms.items())
    return DiagonalTraceValue.from_clean(int_sum(parts), n)


def trace_cartan(omega: Form, n: int, q: int) -> DiagonalTraceValue:
    """Diagonal-Cartan reduced trace; both rank-one routes compared, the
    agreed element symmetrized once."""
    if n < 1 or q < 0:
        raise InvalidInputError("need n >= 1 and q >= 0")
    via_factorization = _power_sum_part(trace_simple(omega), q)
    component = {m: c for m, c in omega.body.terms.items() if monomial_bidegree(m)[0] == q + 1}
    if via_factorization != cs_trace_raw(Form(AlgebraElement(component), omega.nvars)):
        raise IntegrityError("cartan trace routes disagree")
    return vartheta_symmetrize(via_factorization, n)
