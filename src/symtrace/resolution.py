"""The minimal resolution of a polynomial algebra as a noncommutative DG algebra.

R is the tensor algebra on letters lam[I] (I a nonempty subset of {1..N}),
where lam[i1,...,ik] has homological degree k-1 and weight k.  Words multiply
by concatenation.  The differential is the derivation acting on a letter by
the signed shuffle sum

  delta lam(v1,...,vn) = sum_{p+q=n, 1<=p<=q} (-1)^p sum_{shuffles}
                         (-1)^sigma [lam(v_sigma(1..p)), lam(v_sigma(p+1..n))]

with the shuffle sign counting the arguments as odd and the p = q case run
over shuffles whose first block contains v1 (each unordered pair of blocks is
counted once).  This normalization reproduces delta lam(v1,v2) = -[v1,v2].

Abelianizing a word multiplies its letters in the graded-commutative algebra
of :mod:`symtrace.gcalg`, with singleton letters becoming even variables.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .derham import Form, bigrade_split
from .gcalg import (
    DX_KIND,
    LAM_KIND,
    X_KIND,
    AlgebraElement,
    InvalidInputError,
    LinComb,
    lam_letter,
    lam_product,
    perm_sign,
)

Letter = Tuple[int, ...]  # strictly increasing variable indices, len >= 1
RWord = Tuple[Letter, ...]

EMPTY_WORD: RWord = ()


def letter_degree(letter: Letter) -> int:
    return len(letter) - 1


def letter_weight(letter: Letter) -> int:
    return len(letter)


def word_degree(word: RWord) -> int:
    return sum(len(l) - 1 for l in word)


def word_weight(word: RWord) -> int:
    return sum(len(l) for l in word)


class RElement(LinComb):
    """Rational linear combination of words in the free algebra R."""

    __slots__ = ()

    # bound in this class body so that the benchmark tracer finds them in vars()
    __add__ = LinComb.__add__
    __sub__ = LinComb.__sub__

    @staticmethod
    def from_word(word: RWord, c=1) -> "RElement":
        return RElement({word: Fraction(c)})

    def __mul__(self, other) -> "RElement":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out: Dict[RWord, Fraction] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                out[w] = out.get(w, Fraction(0)) + c1 * c2
        return RElement(out)

    def degree_components(self) -> Dict[int, "RElement"]:
        buckets: Dict[int, Dict[RWord, Fraction]] = {}
        for w, c in self.terms.items():
            buckets.setdefault(word_degree(w), {})[w] = c
        return {deg: RElement(t) for deg, t in buckets.items()}

    def __repr__(self):
        if not self.terms:
            return "RElement(0)"
        bits = []
        for w in sorted(self.terms):
            c = self.terms[w]
            word = ".".join("(" + ",".join(map(str, l)) + ")" for l in w) or "1"
            bits.append(f"{c}*{word}")
        return "RElement(" + " + ".join(bits) + ")"


def commutator(a: RElement, b: RElement) -> RElement:
    """Graded commutator [a, b] = ab - (-1)^{|a||b|} ba, degreewise."""
    out = RElement.zero()
    for da, ea in a.degree_components().items():
        for db, eb in b.degree_components().items():
            sign = -1 if (da * db) % 2 else 1
            out.iadd(ea * eb)
            out.iadd(eb * ea, -sign)
    return out


def _lam_word(arg_lists: Iterable[Sequence[int]]) -> Optional[Tuple[int, RWord]]:
    """(sign, word) of the letters lam(args_1) ... lam(args_k); None if zero."""
    sign = 1
    word = []
    for args in arg_lists:
        r = lam_letter(args)
        if r is None:
            return None
        sign *= r[0]
        g = r[1]
        word.append(g[1] if g[0] == LAM_KIND else (g[1],))
    return sign, tuple(word)


def lam_element(indices: Sequence[int]) -> RElement:
    """The letter lam(indices) as an element of R (zero on repeats)."""
    r = _lam_word([indices])
    if r is None:
        return RElement.zero()
    return RElement({r[1]: Fraction(r[0])})


def _shuffles(n: int, p: int):
    """(p, n-p)-shuffles as (first block, second block, signature)."""
    positions = tuple(range(n))
    for first in combinations(positions, p):
        second = tuple(i for i in positions if i not in first)
        yield first, second, perm_sign(first + second)


def delta_letter(letter: Letter) -> RElement:
    """The shuffle differential on a single letter."""
    n = len(letter)
    if n <= 1:
        return RElement.zero()
    out = RElement.zero()
    for p in range(1, n // 2 + 1):
        q = n - p
        sign_p = -1 if p % 2 else 1
        for first, second, sign_sh in _shuffles(n, p):
            if p == q and 0 not in first:
                continue
            a = lam_element([letter[i] for i in first])
            b = lam_element([letter[i] for i in second])
            out.iadd(commutator(a, b), sign_p * sign_sh)
    return out


def delta_R(e: RElement) -> RElement:
    """Degree -1 derivation extending the shuffle differential on letters."""
    out: Dict[RWord, Fraction] = {}
    for word, c in e.terms.items():
        prefix_deg = 0
        for pos, letter in enumerate(word):
            dl = delta_letter(letter)
            if not dl.is_zero():
                sign = -1 if prefix_deg % 2 else 1
                for mid, cm in dl.terms.items():
                    w = word[:pos] + mid + word[pos + 1 :]
                    out[w] = out.get(w, Fraction(0)) + sign * c * cm
            prefix_deg += letter_degree(letter)
    return RElement(out)


def abelianize(e: RElement) -> AlgebraElement:
    """Image in the graded-commutative algebra; commutators die."""
    out: Dict = {}
    for word, c in e.terms.items():
        prod = lam_product(word)
        if prod is None:
            continue
        s, mono = prod
        out[mono] = out.get(mono, Fraction(0)) + s * c
    return AlgebraElement(out)


def s_inv(omega: Form) -> AlgebraElement:
    """a dv1...dvk  ->  a lam(v1,...,vk), linearly over form monomials.

    Every term must have form degree >= 1.
    """
    out = AlgebraElement.zero()
    for w, p, part in bigrade_split(omega):
        if p == 0:
            raise InvalidInputError("s_inv needs form degree >= 1 in every term")
        for m, c in part.body.terms.items():
            xs = [[g[1]] for g, e in m if g[0] == X_KIND for _ in range(e)]
            dxs = [g[1] for g, e in m if g[0] == DX_KIND]
            prod = lam_product(xs + [dxs])
            if prod is not None:
                out.add_term(prod[1], prod[0] * c)
    return out


def r_word_basis(nvars: int, weight: int, degree: int) -> List[RWord]:
    """All words of the given weight and homological degree, graded-lex order."""
    letters = []
    for k in range(1, nvars + 1):
        letters.extend(combinations(range(1, nvars + 1), k))
    result: List[RWord] = []

    def rec(acc: List[Letter], w: int, dg: int):
        if w == weight and dg == degree:
            result.append(tuple(acc))
        if w >= weight:
            return
        for letter in letters:
            lw, ld = len(letter), len(letter) - 1
            if w + lw <= weight and dg + ld <= degree:
                acc.append(letter)
                rec(acc, w + lw, dg + ld)
                acc.pop()

    rec([], 0, 0)
    result.sort(key=lambda word: (len(word), word))
    return result
