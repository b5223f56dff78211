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

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .derham import Form, monomial_bidegree
from .gcalg import (
    DX_KIND,
    X_KIND,
    AlgebraElement,
    InvalidInputError,
    LinComb,
    Monomial,
    add_into,
    charge,
    int_sum,
    lam_letters,
    lam_product,
    letter_args,
    over,
    shuffles,
    signed_terms,
)

Letter = Tuple[int, ...]  # strictly increasing variable indices, len >= 1
RWord = Tuple[Letter, ...]
Terms = Dict[RWord, Union[int, Fraction]]  # a plain term dict, integer or rational


def letter_degree(letter: Letter) -> int:
    return len(letter) - 1


def word_degree(word: RWord) -> int:
    return sum(map(len, word)) - len(word)


def word_weight(word: RWord) -> int:
    return sum(map(len, word))


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
        return RElement(word_product(self.terms, other.terms))

    def __repr__(self):
        if not self.terms:
            return "RElement(0)"
        bits = []
        for w in sorted(self.terms):
            c = self.terms[w]
            word = ".".join("(" + ",".join(map(str, l)) + ")" for l in w) or "1"
            bits.append(f"{c}*{word}")
        return "RElement(" + " + ".join(bits) + ")"


def word_product(a: Terms, b: Terms) -> Terms:
    """Concatenation product of two term dicts; integer terms give integer terms."""
    out: Terms = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = w1 + w2
            out[w] = out.get(w, 0) + c1 * c2
    return {w: c for w, c in out.items() if c}


def word_commutator(a: Terms, b: Terms) -> Terms:
    """Graded commutator ab - (-1)^{|a||b|} ba of two term dicts, one pass over
    word pairs; integer terms give integer terms."""
    out: Terms = {}
    right = [(w2, c2, word_degree(w2) % 2) for w2, c2 in b.items()]
    for w1, c1 in a.items():
        odd1 = word_degree(w1) % 2
        for w2, c2, odd2 in right:
            c = c1 * c2
            ab, ba = w1 + w2, w2 + w1
            out[ab] = out.get(ab, 0) + c
            out[ba] = out.get(ba, 0) + (c if odd1 and odd2 else -c)
    return {w: c for w, c in out.items() if c}


def _lam_word(arg_lists: Iterable[Sequence[int]]) -> Optional[Tuple[int, RWord]]:
    """(sign, word) of the letters lam(args_1) ... lam(args_k); None if zero."""
    r = lam_letters(arg_lists)
    return r and (r[0], tuple(map(letter_args, r[1])))


def lam_element(indices: Sequence[int]) -> RElement:
    """The letter lam(indices) as an element of R (zero on repeats)."""
    return RElement.from_clean(over(dict(signed_terms(_lam_word([indices]))), 1))


def delta_letter(letter: Letter) -> RElement:
    """The shuffle differential on a single letter, with Fraction coefficients."""
    return RElement({w: Fraction(c) for w, c in _delta_letter_terms(tuple(letter))})


@lru_cache(maxsize=1024)
def _delta_letter_terms(letter: Letter) -> Tuple[Tuple[RWord, int], ...]:
    """delta of a letter as (word, integer coefficient) pairs, memoized per letter."""
    n = len(letter)
    out: Dict[RWord, int] = {}
    for p in range(1, n // 2 + 1):
        sign_p = -1 if p % 2 else 1
        for first, second, sign_sh in shuffles(n, p):
            if p == n - p and 0 not in first:
                continue
            # both blocks are nonempty subsets of the letter's distinct indices
            a = _lam_word([[letter[i] for i in first]])
            b = _lam_word([[letter[i] for i in second]])
            add_into(out, word_commutator({a[1]: a[0]}, {b[1]: b[0]}), sign_p * sign_sh)
    return tuple(out.items())


def delta_R(e: RElement) -> RElement:
    """Degree -1 derivation extending the shuffle differential on letters:
    the linear extension of ``delta_word``, summed on integers."""
    return RElement.from_clean(int_sum((c, delta_word(word)) for word, c in e.terms.items()))


@lru_cache(maxsize=4096)
def delta_word(word: RWord) -> Tuple[Tuple[RWord, int], ...]:
    """delta of a single word, as (word, integer coefficient) pairs.

    The letter differentials are spliced in at each position with the Koszul
    sign of the letters before it.  The cyclic boundary asks for the same few
    slot words on every chain, so the terms are memoized per word in a
    bounded cache.
    """
    out: Dict[RWord, int] = {}
    prefix_deg = 0
    for pos, letter in enumerate(word):
        sign = -1 if prefix_deg % 2 else 1
        for mid, c in _delta_letter_terms(letter):
            w = word[:pos] + mid + word[pos + 1 :]
            out[w] = out.get(w, 0) + sign * c
        prefix_deg += letter_degree(letter)
    return tuple((w, c) for w, c in out.items() if c)


def abelianize(e: RElement) -> AlgebraElement:
    """Image in the graded-commutative algebra; commutators die.  Each word's
    ``lam_product`` comes from a bounded per-word cache (4,096 entries), and
    the signed monomials are summed on integers."""
    parts = ((c, signed_terms(_abelian_word(word))) for word, c in e.terms.items())
    return AlgebraElement.from_clean(int_sum(parts))


_abelian_word = lru_cache(maxsize=4096)(lam_product)


def s_inv(omega: Form) -> AlgebraElement:
    """a dv1...dvk  ->  a lam(v1,...,vk), linearly over form monomials.

    Every term must have form degree >= 1.
    """
    if any(monomial_bidegree(m)[1] == 0 for m in omega.body.terms):
        raise InvalidInputError("s_inv needs form degree >= 1 in every term")
    parts = ((c, _s_inv_terms(m)) for m, c in omega.body.terms.items())
    return AlgebraElement.from_clean(int_sum(parts))


def _s_inv_terms(m: Monomial) -> Tuple[Tuple[Monomial, int], ...]:
    """The integer term (monomial, sign) of s_inv on one form monomial, if nonzero."""
    xs = [[g[1]] for g, e in m if g[0] == X_KIND for _ in range(e)]
    dxs = [g[1] for g, e in m if g[0] == DX_KIND]
    return signed_terms(lam_product(xs + [dxs]))


def r_word_basis(nvars: int, weight: int, degree: int) -> List[RWord]:
    """All words of the given weight and homological degree, in word order.

    A word has weight - degree letters; for each composition of the weight
    into that many letter sizes in 1..nvars, the words are the products of
    the subsets of those sizes.  The compositions are walked in order on one
    list of sizes, growing the last size that can still grow; every prefix
    can be completed, so a word of W letters costs O(W).
    """
    nletters = weight - degree
    if not 0 < nletters <= weight or weight > nletters * nvars:
        return [()] if weight == degree == 0 else []
    out: List[RWord] = []
    sizes, left = [], weight
    while True:
        while len(sizes) < nletters:  # fill with the least sizes that still fit
            sizes.append(max(1, left - (nletters - len(sizes) - 1) * nvars))
            left -= sizes[-1]
        out.extend(product(*(combinations(range(1, nvars + 1), k) for k in sizes)))
        # drop the last sizes that cannot grow: at nvars, or with only 1s after them
        while sizes and (sizes[-1] == nvars or left == nletters - len(sizes)):
            left += sizes.pop()
        if not sizes:
            out.sort()
            return out
        sizes[-1] += 1
        left -= 1


def _word_count(nvars: int, weight: int, degree: int) -> int:
    """len(r_word_basis(nvars, weight, degree)) unbuilt: the x^weight coefficient
    of ((1 + x)^nvars - 1)^L, L = weight - degree, by inclusion-exclusion; the
    terms with j * nvars < weight are zero and skipped."""
    n = weight - degree
    if not 0 <= n <= weight:
        return 0
    return sum((-1) ** (n - j) * math.comb(n, j) * math.comb(j * nvars, weight)
               for j in range(-(-weight // nvars) if nvars else 0, n + 1))


def check_word_bases(nvars: int, bidegrees: Iterable[Tuple[int, int]]) -> None:
    """Count the word basis of each (degree, weight) against the basis budget, unbuilt, and
    the bidegrees walked, grown until they pass it: on one variable no basis holds two words."""

    def walk() -> Iterator[int]:
        most = 0  # a count at most one already charged passes too
        for walked, (deg, w) in enumerate(bidegrees, 1):
            count = _word_count(nvars, w, deg)
            if count > most:
                most = count
                charge(count, f"words of degree {deg} and weight {w}")
            yield walked

    charge(walk(), "(degree, weight) word bases")
