"""Free graded-commutative algebra over Q with Koszul signs.

Everything in this package is built on exact rational linear combinations of
monomials in three kinds of generators:

  even variables   x1, x2, ...          parity 0, homological degree 0, weight 1
  odd symbols      dx1, dx2, ...        parity 1, homological degree 1, weight 1
  wedge letters    lam[i1,...,ik]       parity (k-1) mod 2, degree k-1, weight k

A ``lam`` letter with a single index is identified with the corresponding even
variable (lam[i] == xi), so it never appears as a stored generator.

Generators are plain tuples so that monomials can be used as dict keys:

  (X_KIND, i)  (DX_KIND, i)  (LAM_KIND, (i1, ..., ik))   with i1 < ... < ik

The tuple ordering gives the canonical generator order x < dx < lam, then by
index (lexicographic on index sets).  A monomial is a sorted tuple of
(generator, exponent) pairs; odd generators always carry exponent 1.
Coefficients are ``fractions.Fraction`` -- no floating point anywhere.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

# generator kinds, in canonical order: even variable < odd dx < lam letter
X_KIND = 0
DX_KIND = 1
LAM_KIND = 2

Generator = Tuple  # (X_KIND, i) | (DX_KIND, i) | (LAM_KIND, (i1, ..., ik))
Monomial = Tuple[Tuple[Generator, int], ...]

ONE_MONOMIAL: Monomial = ()


class InvalidInputError(ValueError):
    """Raised when an operation is called outside its contract."""


class ResourceLimitError(RuntimeError):
    """A materialization exceeded the configured budget or caps."""


class IntegrityError(RuntimeError):
    """An internal consistency assertion failed."""


def max_basis_budget() -> int:
    """Basis-size budget for materialized complexes (SYMTRACE_MAX_BASIS)."""
    raw = os.environ.get("SYMTRACE_MAX_BASIS", "200000")
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise InvalidInputError(f"SYMTRACE_MAX_BASIS must be an integer >= 1, got {raw!r}")
    return budget


def x_gen(i: int) -> Generator:
    if i < 1:
        raise InvalidInputError(f"variable index must be >= 1, got {i}")
    return (X_KIND, i)


def dx_gen(i: int) -> Generator:
    if i < 1:
        raise InvalidInputError(f"variable index must be >= 1, got {i}")
    return (DX_KIND, i)


def lam_gen(indices: Sequence[int]) -> Optional[Generator]:
    """Sorted lam generator from an already strictly increasing index set.

    Returns None for an empty index set.  A singleton collapses to the even
    variable.  Repeated indices are the caller's bug here; use
    :func:`lam_letter` to build a letter from an unsorted argument list with
    the antisymmetry sign.
    """
    idx = tuple(indices)
    if not idx:
        return None
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise InvalidInputError(f"lam indices must be strictly increasing: {idx}")
    if len(idx) == 1:
        return (X_KIND, idx[0])
    return (LAM_KIND, idx)


def lam_letter(indices: Sequence[int]) -> Optional[Tuple[int, Generator]]:
    """(sign, generator) for lam applied to an arbitrary argument list.

    All arguments are treated as odd symbols, so sorting them into increasing
    order contributes the signature of the sorting permutation; a repeated
    index gives the zero element (returns None).
    """
    idx = list(indices)
    if not idx:
        return None
    sign = 1
    # insertion sort, counting inversions
    for a in range(1, len(idx)):
        b = a
        while b > 0 and idx[b - 1] > idx[b]:
            idx[b - 1], idx[b] = idx[b], idx[b - 1]
            sign = -sign
            b -= 1
    if any(p == q for p, q in zip(idx, idx[1:])):
        return None
    return sign, lam_gen(idx)


def gen_parity(g: Generator) -> int:
    kind = g[0]
    if kind == X_KIND:
        return 0
    if kind == DX_KIND:
        return 1
    return (len(g[1]) - 1) % 2


def gen_degree(g: Generator) -> int:
    kind = g[0]
    if kind == X_KIND:
        return 0
    if kind == DX_KIND:
        return 1
    return len(g[1]) - 1


def gen_weight(g: Generator) -> int:
    kind = g[0]
    if kind == LAM_KIND:
        return len(g[1])
    return 1


def monomial_parity(m: Monomial) -> int:
    return sum(gen_parity(g) * e for g, e in m) % 2


def monomial_degree(m: Monomial) -> int:
    return sum(gen_degree(g) * e for g, e in m)


def monomial_weight(m: Monomial) -> int:
    return sum(gen_weight(g) * e for g, e in m)


def monomial_units(m: Monomial) -> int:
    """Number of generator factors counted with multiplicity."""
    return sum(e for _, e in m)


def monomial_from_factors(factors: Iterable[Generator]) -> Optional[Tuple[int, Monomial]]:
    """Canonicalize a factor sequence into (sign, monomial); None if zero."""
    result: Monomial = ONE_MONOMIAL
    sign = 1
    for g in factors:
        m = ((g, 1),)
        step = monomial_mul(result, m)
        if step is None:
            return None
        s, result = step
        sign *= s
    return sign, result


def monomial_mul(m1: Monomial, m2: Monomial) -> Optional[Tuple[int, Monomial]]:
    """Merge two canonical monomials; Koszul sign from sorting.

    Returns None when an odd generator gets squared.
    """
    if not m1:
        return 1, m2
    if not m2:
        return 1, m1
    n1 = len(m1)
    # odd unit counts of m1 suffixes, for crossing signs
    suffix = [0] * (n1 + 1)
    for k in range(n1 - 1, -1, -1):
        g, e = m1[k]
        suffix[k] = suffix[k + 1] + (gen_parity(g) * e) % 2
    out = []
    sign = 1
    i = j = 0
    while i < n1 and j < len(m2):
        g1, e1 = m1[i]
        g2, e2 = m2[j]
        if g1 < g2:
            out.append(m1[i])
            i += 1
        elif g1 == g2:
            if gen_parity(g1):
                return None
            out.append((g1, e1 + e2))
            i += 1
            j += 1
        else:
            if (gen_parity(g2) * e2) % 2 and suffix[i] % 2:
                sign = -sign
            out.append((g2, e2))
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return sign, tuple(out)


def lam_product(arg_lists: Iterable[Sequence[int]]) -> Optional[Tuple[int, Monomial]]:
    """(sign, monomial) of lam(args_1) * ... * lam(args_k); None if zero."""
    sign = 1
    letters = []
    for args in arg_lists:
        r = lam_letter(args)
        if r is None:
            return None
        sign *= r[0]
        letters.append(r[1])
    prod = monomial_from_factors(letters)
    if prod is None:
        return None
    return sign * prod[0], prod[1]


def perm_sign(seq: Sequence) -> int:
    """(-1)^(number of inversions) of a sequence of distinct items."""
    inv = 0
    for a, item in enumerate(seq):
        for later in seq[a + 1 :]:
            if item > later:
                inv += 1
    return -1 if inv % 2 else 1


def koszul_sign(permutation: Sequence[int], degrees: Sequence[int]) -> int:
    """Sign of permuting homogeneous slots: (-1)^(odd-odd inversions).

    ``permutation`` must be a bijection on {0..n-1}; ``degrees[i]`` is the
    degree of the element in source slot i.  An inversion (i < j with
    sigma(i) > sigma(j)) counts only when both degrees are odd.
    """
    n = len(permutation)
    if len(degrees) != n:
        raise InvalidInputError("permutation and degree sequence lengths differ")
    if sorted(permutation) != list(range(n)):
        raise InvalidInputError(f"not a permutation of 0..{n - 1}: {permutation}")
    return perm_sign([permutation[i] for i in range(n) if degrees[i] % 2])


_ZERO = Fraction(0)


class LinComb:
    """Exact-rational linear combination of hashable keys; immutable by contract.

    Entries that cancel to zero are dropped, so ``==`` and ``hash`` compare
    the stored dicts directly.  ``add_term`` and ``iadd`` mutate in place:
    use them only on an accumulator the calling function created itself,
    never on an argument or on an element someone else holds.
    Subclasses carrying ambient data (a slot count, an ambient algebra)
    override ``_new`` so that derived combinations keep it.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        self.terms = {k: c for k, c in (terms or {}).items() if c != 0}

    def _new(self, terms: dict) -> "LinComb":
        return type(self)(terms)

    @classmethod
    def zero(cls, *ambient) -> "LinComb":
        return cls(*ambient)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def add_term(self, key: Hashable, c) -> "LinComb":
        """In place: add c to the coefficient of key."""
        terms = self.terms
        total = terms.get(key, _ZERO) + c
        if total:
            terms[key] = total
        else:
            terms.pop(key, None)
        return self

    def iadd(self, other: "LinComb", c=1) -> "LinComb":
        """In place: self += c * other."""
        if not c:
            return self
        terms = self.terms
        for key, v in other.terms.items():
            total = terms.get(key, _ZERO) + (v if c == 1 else c * v)
            if total:
                terms[key] = total
            else:
                del terms[key]
        return self

    def __add__(self, other: "LinComb") -> "LinComb":
        return self._new(self.terms).iadd(other)

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self._new(self.terms).iadd(other, -1)

    def __neg__(self) -> "LinComb":
        return self._new({k: -c for k, c in self.terms.items()})

    def scale(self, c) -> "LinComb":
        c = Fraction(c)
        return self._new({k: c * v for k, v in self.terms.items()} if c else {})

    def __rmul__(self, c) -> "LinComb":
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented


# -- exact sparse linear algebra ----------------------------------------------

SparseVec = Dict[int, Fraction]


def _sub_multiple(vec: SparseVec, c, other: SparseVec) -> None:
    """In place: vec -= c * other, dropping entries that cancel."""
    c = -c
    for k, v in other.items():
        old = vec.get(k)
        if old is None:
            vec[k] = c * v
        else:
            total = old + c * v
            if total:
                vec[k] = total
            else:
                del vec[k]


class Echelon:
    """Reduced row echelon form of a span of sparse rows, with combinations.

    ``rows[i] == sum_j combos[i][j] * input_rows[j]``.  Each row has entry 1
    at its pivot, its least coordinate, and 0 at every other row's pivot;
    ``pivot_row`` maps a pivot to its row.
    """

    __slots__ = ("rows", "combos", "pivot_row")

    def __init__(self):
        self.rows: List[SparseVec] = []
        self.combos: List[SparseVec] = []
        self.pivot_row: Dict[int, int] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)


def echelon_split(ech: Echelon, vec: SparseVec) -> Tuple[SparseVec, SparseVec]:
    """Split vec = sum_i coeffs[i] * ech.rows[i] + residual.

    Returns (coeffs, residual); the residual is 0 at every pivot.  Only the
    pivots present in vec are visited: subtracting a row leaves vec unchanged
    at every other pivot, so each coefficient is vec's own entry there.
    """
    residual = dict(vec)
    coeffs: SparseVec = {}
    for p, c in vec.items():
        i = ech.pivot_row.get(p)
        if i is not None:
            coeffs[i] = c
            _sub_multiple(residual, c, ech.rows[i])
    return coeffs, residual


def echelon(rows: Iterable[SparseVec]) -> Echelon:
    """The one exact elimination routine: RREF over Q of the given rows.

    Input row j is keyed j in the combinations.  A row dependent on the
    earlier ones adds nothing, so every combination is supported on the
    independent input rows.
    """
    ech = Echelon()
    for j, row in enumerate(rows):
        coeffs, vec = echelon_split(ech, row)
        if not vec:
            continue
        combo: SparseVec = {j: Fraction(1)}
        for i, c in coeffs.items():
            _sub_multiple(combo, c, ech.combos[i])
        p = min(vec)
        if vec[p] != 1:
            inv = 1 / Fraction(vec[p])  # integer rows stay exact
            vec = {k: v * inv for k, v in vec.items()}
            combo = {k: v * inv for k, v in combo.items()}
        # clear the new pivot column from the earlier rows
        for er, ec in zip(ech.rows, ech.combos):
            c = er.get(p)
            if c:
                _sub_multiple(er, c, vec)
                _sub_multiple(ec, c, combo)
        ech.pivot_row[p] = len(ech.rows)
        ech.rows.append(vec)
        ech.combos.append(combo)
    return ech


class AlgebraElement(LinComb):
    """Exact-rational linear combination of monomials; immutable by contract."""

    __slots__ = ()

    # bound in this class body so that the benchmark tracer finds them in vars()
    __add__ = LinComb.__add__
    __sub__ = LinComb.__sub__

    @staticmethod
    def one() -> "AlgebraElement":
        return AlgebraElement({ONE_MONOMIAL: Fraction(1)})

    @staticmethod
    def constant(c) -> "AlgebraElement":
        return AlgebraElement({ONE_MONOMIAL: Fraction(c)})

    @staticmethod
    def from_gen(g: Generator) -> "AlgebraElement":
        return AlgebraElement({((g, 1),): Fraction(1)})

    @staticmethod
    def from_monomial(m: Monomial, c=1) -> "AlgebraElement":
        return AlgebraElement({m: Fraction(c)})

    def __mul__(self, other) -> "AlgebraElement":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                r = monomial_mul(m1, m2)
                if r is None:
                    continue
                s, m = r
                out[m] = out.get(m, Fraction(0)) + s * c1 * c2
        return AlgebraElement(out)

    def __pow__(self, k: int) -> "AlgebraElement":
        if k < 0:
            raise InvalidInputError("negative powers are not defined")
        result = AlgebraElement.one()
        for _ in range(k):
            result = result * self
        return result

    def substitute_zero(self) -> "AlgebraElement":
        """Keep only monomials with no even-variable factor (f -> f(0,...,0))."""
        return AlgebraElement(
            {m: c for m, c in self.terms.items() if all(g[0] != X_KIND for g, _ in m)}
        )

    def differentiate(self, i: int) -> "AlgebraElement":
        """Constant-coefficient derivative d/dxi (even variables only)."""
        g = x_gen(i)
        out: dict = {}
        for m, c in self.terms.items():
            for pos, (gen, e) in enumerate(m):
                if gen == g:
                    if e == 1:
                        mm = m[:pos] + m[pos + 1 :]
                    else:
                        mm = m[:pos] + ((gen, e - 1),) + m[pos + 1 :]
                    out[mm] = out.get(mm, Fraction(0)) + c * e
                    break
        return AlgebraElement(out)

    def __repr__(self):
        return f"AlgebraElement({render(self)!r})"


def render_generator(g: Generator, e: int = 1) -> str:
    kind = g[0]
    if kind == X_KIND:
        s = f"x{g[1]}"
    elif kind == DX_KIND:
        s = f"dx{g[1]}"
    else:
        s = "lam[" + ",".join(str(i) for i in g[1]) + "]"
    return s if e == 1 else f"{s}^{e}"


def render_monomial(m: Monomial) -> str:
    if not m:
        return "1"
    return "*".join(render_generator(g, e) for g, e in m)


def monomial_sort_key(m: Monomial):
    return (monomial_weight(m), monomial_degree(m), m)


def render(a: AlgebraElement) -> str:
    """Canonical text rendering, e.g. ``3/2*x1^2*dx2*lam[1,3]``."""
    if not a.terms:
        return "0"
    parts = []
    for m in sorted(a.terms, key=monomial_sort_key):
        c = a.terms[m]
        mono = render_monomial(m)
        if m == ONE_MONOMIAL:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
