"""Differential forms on a polynomial algebra in N even variables.

A :class:`Form` is an algebra element in the generators x1..xN, dx1..dxN.
A monomial with polynomial degree w and p dx-factors has bidegree (w, p);
the de Rham differential d sends (w, p) to (w-1, p+1) in coefficient weight
and raises form degree by one.  Contraction with the Euler vector field
sum_i xi d/dxi goes the other way, and together they satisfy
(d iota + iota d) = (w + p) on a homogeneous (w, p) component.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .gcalg import (
    DX_KIND,
    LAM_KIND,
    X_KIND,
    AlgebraElement,
    InvalidInputError,
    Monomial,
    dx_gen,
    echelon,
    echelon_split,
    gen_parity,
    monomial_mul,
    x_gen,
)


@dataclass(frozen=True)
class Form:
    """Element of Sym(W) (x) Lambda(W) together with the ambient variable count."""

    body: AlgebraElement
    nvars: int

    def __post_init__(self):
        for m in self.body.terms:
            for g, _ in m:
                if g[0] == LAM_KIND:
                    raise InvalidInputError("forms may not contain lam generators")
                if g[1] > self.nvars:
                    raise InvalidInputError(
                        f"generator {g} exceeds nvars={self.nvars}"
                    )

    @staticmethod
    def zero(nvars: int) -> "Form":
        return Form(AlgebraElement.zero(), nvars)

    def __add__(self, other: "Form") -> "Form":
        return Form(self.body + other.body, max(self.nvars, other.nvars))

    def __sub__(self, other: "Form") -> "Form":
        return Form(self.body - other.body, max(self.nvars, other.nvars))

    def __neg__(self) -> "Form":
        return Form(-self.body, self.nvars)

    def __mul__(self, other):
        if isinstance(other, Form):
            return Form(self.body * other.body, max(self.nvars, other.nvars))
        return Form(self.body.scale(other), self.nvars)

    def __rmul__(self, c) -> "Form":
        return Form(self.body.scale(c), self.nvars)

    def __eq__(self, other) -> bool:
        return isinstance(other, Form) and self.body == other.body

    def __hash__(self):
        return hash(self.body)

    def is_zero(self) -> bool:
        return self.body.is_zero()


def monomial_bidegree(m: Monomial) -> Tuple[int, int]:
    w = sum(e for g, e in m if g[0] == X_KIND)
    p = sum(e for g, e in m if g[0] == DX_KIND)
    return w, p


def d(omega: Form) -> Form:
    """De Rham differential: x_i goes to dx_i, Leibniz with Koszul signs."""
    out: dict = {}
    for m, c in omega.body.terms.items():
        for pos, (g, e) in enumerate(m):
            if g[0] != X_KIND:
                continue
            if e == 1:
                rest = m[:pos] + m[pos + 1 :]
            else:
                rest = m[:pos] + ((g, e - 1),) + m[pos + 1 :]
            r = monomial_mul(((dx_gen(g[1]), 1),), rest)
            if r is None:
                continue
            s, mm = r
            out[mm] = out.get(mm, Fraction(0)) + s * c * e
    return Form(AlgebraElement(out), omega.nvars)


def euler_contract(omega: Form) -> Form:
    """Contraction with the Euler field: odd derivation dx_i -> x_i, x_i -> 0."""
    out: dict = {}
    for m, c in omega.body.terms.items():
        odd_before = 0
        for pos, (g, e) in enumerate(m):
            if g[0] == DX_KIND:
                rest = m[:pos] + m[pos + 1 :]
                r = monomial_mul(((x_gen(g[1]), 1),), rest)
                if r is not None:
                    s, mm = r
                    sign = -1 if odd_before % 2 else 1
                    out[mm] = out.get(mm, Fraction(0)) + sign * s * c
            odd_before += (gen_parity(g) * e) % 2
    return Form(AlgebraElement(out), omega.nvars)


def bigrade_split(omega: Form) -> List[Tuple[int, int, Form]]:
    """Decompose into homogeneous (weight, form-degree) components."""
    buckets: dict = {}
    for m, c in omega.body.terms.items():
        buckets.setdefault(monomial_bidegree(m), {})[m] = c
    return [
        (w, p, Form(AlgebraElement(terms), omega.nvars))
        for (w, p), terms in sorted(buckets.items())
    ]


def monomial_basis(nvars: int, weight: int) -> List[Monomial]:
    """All polynomial monomials of the given degree, as canonical monomials."""
    result: List[Monomial] = []

    def rec(i: int, remaining: int, acc):
        if i > nvars:
            if remaining == 0:
                result.append(tuple(acc))
            return
        if i == nvars:
            if remaining:
                acc.append((x_gen(i), remaining))
                result.append(tuple(acc))
                acc.pop()
            else:
                result.append(tuple(acc))
            return
        for e in range(remaining + 1):
            if e:
                acc.append((x_gen(i), e))
            rec(i + 1, remaining - e, acc)
            if e:
                acc.pop()

    rec(1, weight, [])
    return result


def form_basis(nvars: int, weight: int, form_degree: int) -> List[Monomial]:
    """Monomial basis of the (weight, form_degree) component of the forms."""
    from itertools import combinations

    out: List[Monomial] = []
    for poly in monomial_basis(nvars, weight):
        for dxs in combinations(range(1, nvars + 1), form_degree):
            m = poly + tuple((dx_gen(i), 1) for i in dxs)
            out.append(m)
    return out


def exactness_witness(omega: Form) -> Optional[Form]:
    """Solve d(eta) = omega on the finite (w+1, p-1) basis; None if not exact.

    The input must be homogeneous in (weight, form-degree).  Any valid witness
    is acceptable; this one is the particular solution supported on the first
    independent images d(m_j) of the source basis.
    """
    if omega.is_zero():
        return Form.zero(omega.nvars)
    parts = bigrade_split(omega)
    if len(parts) != 1:
        raise InvalidInputError("exactness_witness needs a homogeneous form")
    w, p, _ = parts[0]
    if p == 0:
        return None
    source = form_basis(omega.nvars, w + 1, p - 1)
    index: dict = {}
    rows = []
    for m in source:
        img = d(Form(AlgebraElement.from_monomial(m), omega.nvars))
        rows.append({index.setdefault(m2, len(index)): c for m2, c in img.body.terms.items()})
    if any(m not in index for m in omega.body.terms):
        return None
    vec = {index[m]: c for m, c in omega.body.terms.items()}
    ech = echelon(rows)
    coeffs, residual = echelon_split(ech, vec)
    if residual:
        return None
    eta = AlgebraElement.zero()
    for i, c in coeffs.items():
        for j, v in ech.combos[i].items():
            eta.add_term(source[j], c * v)
    return Form(eta, omega.nvars)


def equal_mod_exact(a: Form, b: Form) -> bool:
    """Equality in the quotient by exact forms, decided componentwise."""
    diff = a - b
    if diff.is_zero():
        return True
    return all(exactness_witness(part) is not None for _, _, part in bigrade_split(diff))
