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

import math
import os
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, product
from operator import mul
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

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


def charge(count: Union[int, Iterable[int]], what: str, at_least: bool = False) -> None:
    """The budget gate, one budget read: refuse ``count`` items over SYMTRACE_MAX_BASIS with
    ``<count> <what> (budget N)``.  ``count`` may be running totals, grown only until they
    pass the budget; ``at_least`` marks a count so grown, by the caller or here; a count
    too long for str() reads as a power of ten below it."""
    budget = max_basis_budget()
    if not isinstance(count, int):
        count, at_least = grown(count, budget), True
    if count <= budget:
        return
    try:
        text = ("at least " if at_least else "") + str(count)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        text = f"more than 10^{int((count.bit_length() - 1) * math.log10(2))}"
    raise ResourceLimitError(f"{text} {what} (budget {budget})")


def grown(totals: Iterable[int], budget: int = 0) -> int:
    """The first running total of a growing count over ``budget`` (by default
    SYMTRACE_MAX_BASIS), else the last one (0 for none); no later total is formed."""
    budget, total = budget or max_basis_budget(), 0
    for total in totals:
        if total > budget:
            break
    return total


def comb_totals(n: int, k: int) -> Iterator[int]:
    """comb(n, k) as its partial products comb(n - k + i, i), i = 0..min(k, n - k),
    which only grow (0 alone when k > n)."""
    k = min(k, n - k)
    out = int(k >= 0)
    yield out
    for i in range(1, k + 1):
        out = out * (n - k + i) // i
        yield out


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


def lam_letter(indices: Iterable[int]) -> Optional[Tuple[int, Generator]]:
    """(sign, generator) for lam applied to an arbitrary argument list.

    All arguments are treated as odd symbols, so sorting them into increasing
    order contributes the signature of the sorting permutation; a repeated
    index gives the zero element (returns None).  The trace routes ask for the
    same few argument lists millions of times, so the answer is memoized on
    the argument tuple.
    """
    return _lam_letter(tuple(indices))


@lru_cache(maxsize=4096)
def _lam_letter(idx: Tuple[int, ...]) -> Optional[Tuple[int, Generator]]:
    if not idx or len(set(idx)) < len(idx):
        return None
    return perm_sign(idx), lam_gen(sorted(idx))


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
    """Canonicalize a factor sequence into (sign, monomial); None if zero.

    Sorting moves odd factors only past each other with a sign, so the sign
    is the parity of the odd factors' own order; a repeated odd factor is 0.
    """
    gens = list(factors)
    odd = [g for g in gens if gen_parity(g)]
    if len(set(odd)) < len(odd):
        return None
    out: List[Tuple[Generator, int]] = []
    for g in sorted(gens):
        if out and out[-1][0] == g:
            out[-1] = (g, out[-1][1] + 1)
        else:
            out.append((g, 1))
    return perm_sign(odd), tuple(out)


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


def block_maps(
    p: int,
    k: int,
    onto: Iterable[int] = (),
    allowed: Optional[Sequence[Sequence[int]]] = None,
) -> Iterator[List[List[int]]]:
    """Every map from positions 0..p-1 to k ordered blocks, as k block lists.

    Each block keeps its positions in source order.  Maps that leave a block
    listed in ``onto`` empty are skipped before any block is built.  With
    ``allowed``, position ``pos`` goes only to the blocks in ``allowed[pos]``,
    listed in increasing order: a slot route passes every block except the
    ones whose letter would repeat that position's label, a literal zero.
    The surviving maps come in the same relative order as without it.
    The product of the per-position choices is charged before the first map.
    """
    choices = [k] * p if allowed is None else [len(a) for a in allowed]
    charge(accumulate(choices, mul), f"block maps of {p} dx symbols to {k} slots")
    need = tuple(onto)
    targets = product(range(k), repeat=p) if allowed is None else product(*allowed)
    for f in targets:
        for j in need:
            if j not in f:
                break
        else:
            blocks: List[List[int]] = [[] for _ in range(k)]
            for pos, j in enumerate(f):
                blocks[j].append(pos)
            yield blocks


def block_sign(blocks: Iterable[Sequence[int]]) -> int:
    """(-1)^f: parity of moving odd symbols from source order into the blocks."""
    return perm_sign([pos for block in blocks for pos in block])


def _label_orderings(us: Sequence[int]) -> Tuple[List[Tuple[int, ...]], int]:
    """Distinct orderings of the multiset ``us`` and the weight of each.

    Two permutations of the polynomial factors that differ only by swapping
    equal labels put the same label in every slot, so their slot terms are
    identical.  Each distinct ordering therefore stands for prod(mult!)
    permutations, and the orderings times that weight count all r! of them.
    The cs route and the bridge cocycle place their labels this way.
    """
    weight = math.prod(math.factorial(m) for m in Counter(us).values())
    labels = sorted(us)
    out: List[Tuple[int, ...]] = []
    while True:
        out.append(tuple(labels))
        # the lexicographic next permutation: swap the last ascent with the
        # last label above it, then reverse the tail
        i = next((i for i in reversed(range(len(labels) - 1)) if labels[i] < labels[i + 1]), None)
        if i is None:
            return out, weight
        j = max(j for j in range(i + 1, len(labels)) if labels[j] > labels[i])
        labels[i], labels[j] = labels[j], labels[i]
        labels[i + 1:] = reversed(labels[i + 1:])


def shuffles(n: int, p: int) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...], int]]:
    """(p, n-p)-shuffles of 0..n-1 as (first block, second block, signature)."""
    positions = tuple(range(n))
    for first in combinations(positions, p):
        second = tuple(i for i in positions if i not in first)
        yield first, second, perm_sign(first + second)


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


def add_into(acc: dict, terms: dict, c=1) -> None:
    """In place: acc += c * terms, dropping entries that cancel.

    Every in-place sum of term dicts goes through here: ``LinComb.iadd``, the
    echelon and the integer transfer.  A key new to ``acc`` is stored with no
    addition, and ``c == 1`` multiplies nothing.
    """
    if not c:
        return
    scaled = c != 1
    for key, v in terms.items():
        if scaled:
            v = c * v
        old = acc.get(key)
        if old is None:
            acc[key] = v
        else:
            total = old + v
            if total:
                acc[key] = total
            else:
                del acc[key]


def lift(terms: dict, scale: int = 0) -> Tuple[dict, int]:
    """(scale * terms as integers, scale); scale must clear every denominator
    and defaults to their lcm."""
    scale = scale or math.lcm(*(c.denominator for c in terms.values()))
    return {key: c.numerator * (scale // c.denominator) for key, c in terms.items()}, scale


def over(ints: dict, den: int) -> dict:
    """Integer terms divided by den, one Fraction per nonzero term."""
    return {key: Fraction(v, den) for key, v in ints.items() if v}


def signed_terms(r: Optional[Tuple[int, Hashable]]) -> Tuple[Tuple[Hashable, int], ...]:
    """A (sign, key) result, or None for zero, as integer terms for ``int_sum``."""
    return () if r is None else ((r[1], r[0]),)


def int_sum(parts: Iterable[Tuple[Fraction, Iterable[Tuple[Hashable, int]]]]) -> dict:
    """sum of c * n over the integer terms (key, n) of each part (c, terms).

    The sum runs on integers over the lcm of the parts' denominators, with
    one Fraction per nonzero output key at the end.  Each ``terms`` is read
    once, after every c is known, so it may be a generator.
    """
    parts = list(parts)
    den = math.lcm(*(c.denominator for c, _ in parts))
    acc: dict = {}
    for c, terms in parts:
        c = c.numerator * (den // c.denominator)
        for key, n in terms:
            acc[key] = acc.get(key, 0) + c * n
    return over(acc, den)


class LinComb:
    """Exact-rational linear combination of hashable keys; immutable by contract.

    Entries that cancel to zero are dropped, so ``==`` and ``hash`` compare
    the stored dicts directly.  ``add_term`` and ``iadd`` mutate in place:
    use them only on an accumulator the calling function created itself,
    never on an argument or on an element someone else holds.  Never mutate an
    element passed to a ``MerkulovData``: it finds the lift by the id of ``terms``.
    Subclasses carrying ambient data (a slot count, an ambient algebra)
    override ``_new`` so that derived combinations keep it.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        self.terms = {k: c for k, c in (terms or {}).items() if c != 0}

    @classmethod
    def from_clean(cls, terms: dict, *ambient) -> "LinComb":
        """The element on ``terms`` itself, neither copied nor filtered: only
        for a fresh dict with no zero coefficient, such as ``int_sum`` returns."""
        out = cls(*ambient)
        out.terms = terms
        return out

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
        return self.iadd(LinComb({key: Fraction(c)}))

    def iadd(self, other: "LinComb", c=1) -> "LinComb":
        """In place: self += c * other."""
        add_into(self.terms, other.terms, c)
        return self

    def __add__(self, other: "LinComb") -> "LinComb":
        return self._new(self.terms).iadd(other)

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self._new(self.terms).iadd(other, -1)

    def __neg__(self) -> "LinComb":
        return self._new({k: -c for k, c in self.terms.items()})

    def scale(self, c) -> "LinComb":
        if c == 1 or c == -1:  # a copy or a negation, with no product
            return self._new(self.terms) if c == 1 else -self
        c = Fraction(c)
        return self._new({k: c * v for k, v in self.terms.items()} if c else {})

    def __rmul__(self, c) -> "LinComb":
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented


# -- exact sparse linear algebra ----------------------------------------------

SparseVec = Dict[int, Fraction]


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
            add_into(residual, ech.rows[i], -c)
    return coeffs, residual


def echelon(rows: Iterable[SparseVec]) -> Echelon:
    """The one exact elimination routine: RREF over Q of the given rows.

    Input row j is keyed j in the combinations; a row dependent on the
    earlier ones adds nothing.  The rows split into the connected components
    of a union-find over their columns, which never touch each other's
    pivots; each is eliminated on integers in input order (``_eliminate``),
    and the rows are merged by the input row that created each pivot.  A
    non-integral row gets one ``Fraction`` per entry at the end.  Every dict
    is built by the same additions as one sequential elimination on
    ``Fraction``s, so the result is that one's, dict order included.
    """
    rows = list(rows)
    parent: Dict[int, int] = {}

    def find(k: int) -> int:
        while parent[k] != k:
            parent[k] = k = parent[parent[k]]
        return k

    for row in rows:
        for k in row:
            parent.setdefault(k, k)
            parent[find(k)] = find(next(iter(row)))
    blocks: Dict[int, List[int]] = {}
    for j, row in enumerate(rows):
        if row:
            blocks.setdefault(find(next(iter(row))), []).append(j)
    ech = Echelon()
    for _, p, vec, combo in sorted(m for js in blocks.values() for m in _eliminate(rows, js)):
        ech.pivot_row[p] = len(ech.rows)
        ech.rows.append(_over(vec, vec[p]))
        ech.combos.append(_over(combo, vec[p]))
    return ech


def _eliminate(rows: List[SparseVec], js: List[int]) -> List[tuple]:
    """(j, pivot, entries, combination) per independent input row j of one
    component, integers over one positive scale: the entry at the pivot.  A
    row is first lifted by the lcm of its denominators."""
    made: List[tuple] = []
    at_pivot: Dict[int, tuple] = {}
    for j in js:
        vec, scale = lift(rows[j])
        combo = {j: scale}
        for p in rows[j]:
            if p in at_pivot:
                _cancel(vec, combo, *at_pivot[p], p)
        if vec:
            p = min(vec)
            g = math.gcd(*vec.values(), *combo.values())
            _rescale(vec, combo, 1, -g if vec[p] < 0 else g)
            for _, _, rvec, rcombo in made:  # clear the new pivot column from the earlier rows
                if p in rvec:
                    _cancel(rvec, rcombo, vec, combo, p)
            at_pivot[p] = vec, combo
            made.append((j, p, vec, combo))
    return made


def _cancel(vec: dict, combo: dict, row: dict, row_combo: dict, p: int) -> None:
    """In place, on integers: cross-multiply (vec, combo) against (row,
    row_combo), whose scale is ``row[p] > 0``, so that vec is 0 at p, and
    divide out the gcd; the keys change as ``add_into`` changes them."""
    g = math.gcd(vec[p], row[p])
    a, b = row[p] // g, vec[p] // g
    _rescale(vec, combo, a, 1)
    add_into(vec, row, -b)
    add_into(combo, row_combo, -b)
    if a != 1:
        _rescale(vec, combo, 1, math.gcd(*vec.values(), *combo.values()))


def _rescale(vec: dict, combo: dict, a: int, g: int) -> None:
    """In place: every entry of vec and combo times a, divided by g, which divides it."""
    if a != g:
        for t in (vec, combo):
            for k in t:
                t[k] = t[k] * a // g


def _over(terms: dict, s: int) -> SparseVec:
    """Integer terms over the positive scale s; integers stay at s == 1."""
    return terms if s == 1 else {k: Fraction(v, s) for k, v in terms.items()}


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
        # both sides lifted once: the integer sum int_sum would form, in its order
        (a, sa), (b, sb) = lift(self.terms), lift(other.terms)
        acc: dict = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                r = monomial_mul(m1, m2)
                if r is not None:
                    acc[r[1]] = acc.get(r[1], 0) + r[0] * c1 * c2
        return AlgebraElement.from_clean(over(acc, sa * sb))

    def __pow__(self, k: int) -> "AlgebraElement":
        if k < 0:
            raise InvalidInputError("negative powers are not defined")
        if k and not self.terms:  # 0^k = 0 at once, however large k is; 0^0 = 1
            return AlgebraElement.zero()
        result = AlgebraElement.one()
        for _ in range(k):
            result = result * self
        return result

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
