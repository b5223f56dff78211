"""Differential forms on a polynomial algebra in N even variables.

A :class:`Form` is an algebra element in the generators x1..xN, dx1..dxN.
A monomial with polynomial degree w and p dx-factors has bidegree (w, p);
the de Rham differential d sends (w, p) to (w-1, p+1) in coefficient weight
and raises form degree by one.  Contraction with the Euler vector field
sum_i xi d/dxi goes the other way, and together they satisfy
(d iota + iota d) = (w + p) on a homogeneous (w, p) component.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterator, List, Optional, Tuple

from .gcalg import (
    DX_KIND,
    LAM_KIND,
    X_KIND,
    AlgebraElement,
    InvalidInputError,
    Monomial,
    dx_gen,
    int_sum,
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
    """De Rham differential: x_i goes to dx_i, Leibniz with Koszul signs.

    Summed on integers over the lcm of the coefficient denominators, with
    one Fraction per output monomial at the end; each monomial's terms come
    from ``_d_terms``, a cache of 1,024 monomials.
    """
    parts = ((c, _d_terms(m)) for m, c in omega.body.terms.items())
    return Form(AlgebraElement.from_clean(int_sum(parts)), omega.nvars)


@lru_cache(maxsize=1024)
def _d_terms(m: Monomial) -> Tuple[Tuple[Monomial, int], ...]:
    return tuple(_d_walk(m))


def _d_walk(m: Monomial) -> Iterator[Tuple[Monomial, int]]:
    """Integer terms of d on one form monomial, by position of x_i.

    dx_i enters the dx block at its sorted place, past the dx_j with j < i,
    with sign (-1)^#{j in I : j < i}; an x_i whose dx_i is already there
    gives 0.
    """
    nx = next((pos for pos, (g, _) in enumerate(m) if g[0] != X_KIND), len(m))
    block = m[nx:]
    labels = [g[1] for g, _ in block]
    for pos in range(nx):
        g, e = m[pos]
        at = bisect_left(labels, g[1])
        if at < len(labels) and labels[at] == g[1]:
            continue
        xs = m[:pos] + (((g, e - 1),) if e > 1 else ()) + m[pos + 1:nx]
        yield xs + block[:at] + (((DX_KIND, g[1]), 1),) + block[at:], -e if at % 2 else e


def euler_contract(omega: Form) -> Form:
    """Contraction with the Euler field: odd derivation dx_i -> x_i, x_i -> 0."""
    parts = ((c, _euler_terms(m)) for m, c in omega.body.terms.items())
    return Form(AlgebraElement.from_clean(int_sum(parts)), omega.nvars)


def _euler_terms(m: Monomial) -> Iterator[Tuple[Monomial, int]]:
    """Integer terms of the Euler contraction on one form monomial: dx_i at
    place j of the dx block goes to x_i with sign (-1)^j."""
    nx = next((pos for pos, (g, _) in enumerate(m) if g[0] != X_KIND), len(m))
    xs = m[:nx]
    for j in range(len(m) - nx):
        i = m[nx + j][0][1]
        at = bisect_left(xs, ((X_KIND, i), 0))
        if at < nx and xs[at][0][1] == i:
            grown = xs[:at] + (((X_KIND, i), xs[at][1] + 1),) + xs[at + 1:]
        else:
            grown = xs[:at] + (((X_KIND, i), 1),) + xs[at:]
        yield grown + m[nx:nx + j] + m[nx + j + 1:], -1 if j % 2 else 1


def bigrade_split(omega: Form) -> List[Tuple[int, int, Form]]:
    """Decompose into homogeneous (weight, form-degree) components."""
    buckets: dict = {}
    for m, c in omega.body.terms.items():
        buckets.setdefault(monomial_bidegree(m), {})[m] = c
    return [
        (w, p, Form(AlgebraElement.from_clean(terms), omega.nvars))
        for (w, p), terms in sorted(buckets.items())
    ]


def monomial_basis(nvars: int, weight: int) -> List[Monomial]:
    """All polynomial monomials of the given degree, as canonical monomials.

    Stars and bars: the nvars - 1 bar positions among weight + nvars - 1
    places come in the lexicographic order of the exponent vectors.
    """
    if nvars == 0:
        return [()] if weight == 0 else []
    end = weight + nvars - 1
    out: List[Monomial] = []
    for bars in combinations(range(end), nvars - 1):
        exps = [b - a - 1 for a, b in zip((-1,) + bars, bars + (end,))]
        out.append(tuple((x_gen(i), e) for i, e in enumerate(exps, 1) if e))
    return out


def form_basis(nvars: int, weight: int, form_degree: int) -> List[Monomial]:
    """Monomial basis of the (weight, form_degree) component of the forms."""
    out: List[Monomial] = []
    for poly in monomial_basis(nvars, weight):
        for dxs in combinations(range(1, nvars + 1), form_degree):
            m = poly + tuple((dx_gen(i), 1) for i in dxs)
            out.append(m)
    return out


def exactness_witness(omega: Form) -> Optional[Form]:
    """An eta with d(eta) = omega, or None if omega is not exact.

    The input must be homogeneous in (weight, form-degree).  A nonzero
    0-form is never exact.  A (w, p) form with p >= 1 is exact exactly when
    it is closed, and then the Euler homotopy d iota + iota d = (w + p)
    gives eta = iota(omega) / (w + p), with no linear system.
    """
    if omega.is_zero():
        return Form.zero(omega.nvars)
    parts = bigrade_split(omega)
    if len(parts) != 1:
        raise InvalidInputError("exactness_witness needs a homogeneous form")
    w, p, _ = parts[0]
    if p == 0 or not d(omega).is_zero():
        return None
    parts = ((Fraction(c, w + p), _euler_terms(m)) for m, c in omega.body.terms.items())
    return Form(AlgebraElement.from_clean(int_sum(parts)), omega.nvars)


def equal_mod_exact(a: Form, b: Form) -> bool:
    """Equality in the quotient by exact forms, decided componentwise."""
    diff = a - b
    if diff.is_zero():
        return True
    return all(exactness_witness(part) is not None for _, _, part in bigrade_split(diff))
