"""Homotopy transfer on the minimal resolution and binary-tree trace formulas.

Planar binary trees are nested pairs, with ``None`` as the leaf; a tree with
k+1 leaves has k internal vertices.  The transfer data consists of a linear
section f1 of the projection R -> A (sending a monomial to its sorted word)
and a homotopy h with d h0 = id - f1 pi on degree 0 and
d h_n = id - h_{n-1} d_n above, satisfying h h = 0, h f1 = 0, h|_L = 0 for
the reduced-row-echelon complement L of the boundary subspace B.

From these, the higher products are built by the recursion

  mu_2 = multiplication,   mu_i = sum_{s+t=i} (-1)^(s+1) mu_2(h mu_s (x) h mu_t)

with h mu_1 = -id, and the transfer components are
f_{k+1} = -h_{k-1} mu_{k+1} f1^(k+1).

Expanding the recursion writes f_{k+1} as a signed sum over planar binary
trees: the tree evaluation carries f1 on leaves, h mu_2 at the internal
vertices and -h mu_2 at the root, and the matching sign of a tree is

  (-1)^T = (-1)^(1 + sum over internal vertices of left-subtree leaf counts).

Summing trees against leaf labelings gives the trace; replacing each product
by a graded commutator collapses the labeled sum onto equivalence classes of
labeled trees.

The transfer runs on integer terms.  Each ``MerkulovData`` keeps one memo of
h mu on argument ranges and of h on labeled subtrees across calls, keyed on
the numbers it gives the arguments in the order it first lifts them.  The
class sum groups the classes by the left side of their root, a leaf turned to
the left, and forms one commutator [L, sum of sign * R] per group; it applies
h once, at its root.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, permutations
from typing import Dict, List, Optional, Sequence, Tuple

from .derham import monomial_basis
from .gcalg import (
    AlgebraElement,
    Echelon,
    IntegrityError,
    InvalidInputError,
    Monomial,
    ResourceLimitError,
    SparseVec,
    X_KIND,
    add_into,
    charge,
    echelon,
    echelon_split,
    lift,
    over,
    perm_sign,
)
from .resolution import (
    RElement,
    RWord,
    Terms,
    abelianize,
    check_word_bases,
    delta_word,
    r_word_basis,
    word_commutator,
    word_degree,
    word_product,
    word_weight,
)

PlanarTree = Optional[tuple]  # None = leaf, (left, right) = internal vertex

LEAF: PlanarTree = None


@lru_cache(maxsize=1024)
def leaf_count(t: PlanarTree) -> int:
    if t is None:
        return 1
    return leaf_count(t[0]) + leaf_count(t[1])


def enumerate_pbt(k: int) -> List[PlanarTree]:
    """All rooted planar binary trees with k+1 leaves, deterministic order.

    The root split sizes are visited in the order (n-1, 1, 2, ..., n-2) for
    n leaves, recursively; this is the order the sign fixtures are stated in.
    """
    if k < 1:
        raise InvalidInputError("need k >= 1")

    def build(n: int) -> List[PlanarTree]:
        if n == 1:
            return [LEAF]
        out: List[PlanarTree] = []
        for ls in [n - 1] + list(range(1, n - 1)):
            for left in build(ls):
                for right in build(n - ls):
                    out.append((left, right))
        return out

    return build(k + 1)


@lru_cache(maxsize=1024)
def tree_sign(t: PlanarTree) -> int:
    """(-1)^(1 + sum of left-subtree leaf counts over internal vertices)."""
    return -1 if (1 + _left_leaves(t)) % 2 else 1


def _left_leaves(t: PlanarTree) -> int:
    return 0 if t is None else leaf_count(t[0]) + _left_leaves(t[0]) + _left_leaves(t[1])


def _canon(t: PlanarTree, labels: Sequence[int], offset: int = 0) -> str:
    """Canonical string of a labeled tree up to child swaps."""
    if t is None:
        return str(labels[offset])
    nl = leaf_count(t[0])
    a = _canon(t[0], labels, offset)
    b = _canon(t[1], labels, offset + nl)
    if b < a:
        a, b = b, a
    return f"({a},{b})"


def labeled_class_key(sigma: Sequence[int], t: PlanarTree) -> str:
    return _canon(t, list(sigma))


def enumerate_labeled_classes(k: int) -> Tuple[Tuple[Tuple[int, ...], PlanarTree], ...]:
    """One representative (sigma, T) per class of leaf-labeled planar trees.

    Built once per k and shared, as a tuple so that no caller can mutate it.
    """
    return _labeled_classes(k)


@lru_cache(maxsize=8)
def _labeled_classes(k: int) -> Tuple[Tuple[Tuple[int, ...], PlanarTree], ...]:
    # every labeling of every tree is canonicalized: (k+1)! * Catalan(k) =
    # (k+1)(k+2)..(2k) strings, multiplied only until they pass the budget
    charge(accumulate(range(k + 1, 2 * k + 1), operator.mul, initial=1),
           f"labeled trees with {k + 1} leaves")
    seen: Dict[str, Tuple[Tuple[int, ...], PlanarTree]] = {}
    trees = enumerate_pbt(k)
    for sigma in permutations(range(k + 1)):
        for t in trees:
            key = labeled_class_key(sigma, t)
            if key not in seen:
                seen[key] = (sigma, t)
    return tuple(seen.values())


@lru_cache(maxsize=8)
def _class_groups(k: int) -> Tuple[tuple, ...]:
    """The labeled classes grouped by the left side of their root, turned round
    when only its right side is a leaf x, [A, x] = -[x, A]: (left subtree, its
    positions, ((right subtree, its positions, sign), ...)), each sign being
    perm_sign * tree_sign of the class as turned."""
    groups: Dict[tuple, list] = {}
    for sigma, t in _labeled_classes(k):
        nl, sign = leaf_count(t[0]), perm_sign(sigma) * tree_sign(t)
        left, right = (t[0], sigma[:nl]), (t[1], sigma[nl:])
        if t[1] is None and t[0] is not None:
            left, right, sign = right, left, -sign
        groups.setdefault(left, []).append((*right, sign))
    return tuple((sub, pos, tuple(rights)) for (sub, pos), rights in groups.items())


class MerkulovData:
    """Bases, section and homotopy for R within caps."""

    def __init__(self, nvars: int, weight_cap: int, degree_cap: int):
        if weight_cap < 1 or degree_cap < 0:
            raise InvalidInputError("need weight_cap >= 1 and degree_cap >= 0")
        self.nvars = nvars
        self.weight_cap = weight_cap
        self.degree_cap = degree_cap
        self.basis: Dict[Tuple[int, int], List[RWord]] = {}
        self.index: Dict[Tuple[int, int], Dict[RWord, int]] = {}
        # h on each pivot word of B = im(delta), an element one degree up, as
        # integer terms over the one denominator _h_den; h is the linear
        # extension of this table
        self._h_pivot: Dict[RWord, Dict[RWord, int]] = {}
        self._h_den = 1
        # delta of every basis word of positive degree, formed once in _build
        # and read again by the side check
        self._delta: Dict[RWord, Dict[RWord, int]] = {}
        # each argument's lift, keyed on its word map and its terms (first on
        # its term dict's id) and numbered in order, and the memo on those
        # numbers, shared across calls
        self._memo: Dict[tuple, Dict[RWord, int]] = {}
        self._lifts: Dict[tuple, Tuple[int, Dict[RWord, int], int]] = {}
        self._lift_ids: Dict[tuple, tuple] = {}
        self._build()
        self._check_side_conditions()

    def _bidegrees(self):
        for deg in range(self.degree_cap + 1):
            for w in range(self.weight_cap + 1):
                yield deg, w

    def _build(self):
        # every bidegree that holds words (degree < weight) is counted before any is built
        check_word_bases(self.nvars, ((deg, w) for deg, w in self._bidegrees() if deg < w))
        for deg, w in self._bidegrees():
            words = self.basis[(deg, w)] = r_word_basis(self.nvars, w, deg)
            self.index[(deg, w)] = {word: i for i, word in enumerate(words)}
        # per bidegree: echelon of B with the combinations of upper words
        b_ech: Dict[Tuple[int, int], Echelon] = {}
        for deg, w in self._bidegrees():
            if deg < self.degree_cap:
                upper = self.basis[(deg + 1, w)]
                for word in upper:
                    self._delta[word] = dict(delta_word(word))
                b_ech[(deg, w)] = echelon(
                    self._to_vec(self._delta[word], deg, w) for word in upper
                )
        values: Dict[RWord, Dict[RWord, Fraction]] = {}
        for (deg, w), ech in b_ech.items():
            up_ech = b_ech.get((deg + 1, w), Echelon())
            words, upper = self.basis[(deg, w)], self.basis[(deg + 1, w)]
            # preimage of each echelon row from its tracked combination,
            # projected onto the L-complement one degree up
            for p, i in ech.pivot_row.items():
                residual = echelon_split(up_ech, ech.combos[i])[1]
                values[words[p]] = {upper[j]: c for j, c in residual.items()}
            if deg > 0:
                continue
            # w - sorted(w) must lie in B; by linearity this covers every
            # degree-0 input of h
            for word in words:
                part = RElement.from_word(word) - RElement.from_word(tuple(sorted(word)))
                if echelon_split(ech, self._to_vec(part.terms, deg, w))[1]:
                    raise IntegrityError("kernel of pi is not exhausted by boundaries")
        self._h_den = math.lcm(*(lift(v)[1] for v in values.values()))
        self._h_pivot = {p: lift(v, self._h_den)[0] for p, v in values.items()}

    def _to_vec(self, terms: Terms, deg: int, w: int) -> SparseVec:
        idx = self.index[(deg, w)]
        return {idx[word]: c for word, c in terms.items()}

    # -- the resolution maps --------------------------------------------------

    def h(self, e: RElement) -> RElement:
        """The homotopy: a lookup of each word in its values on the pivot words."""
        terms, scale = lift(e.terms)
        return _over(self._h_int(terms), scale * self._h_den)

    def _h_int(self, terms: Dict[RWord, int]) -> Dict[RWord, int]:
        """den * h on integer terms, den being the table's denominator: a pivot
        word of B goes to its value, a degree-0 word w to the image of
        w - sorted(w), so a sorted word to 0, and every other basis word below
        the top degree to 0."""
        table, out = self._h_pivot, {}
        for word, c in terms.items():
            deg = word_degree(word)
            if deg == 0:
                low = tuple(sorted(word))
                if low == word:
                    continue
            w = word_weight(word)
            if deg + 1 > self.degree_cap or w > self.weight_cap:
                raise ResourceLimitError(
                    f"homotopy at degree {deg}, weight {w} is outside the caps "
                    f"(degree_cap={self.degree_cap}, weight_cap={self.weight_cap})"
                )
            value = table.get(word)
            if value is not None:
                add_into(out, value, c)
            elif word not in self.index.get((deg, w), ()):
                raise InvalidInputError(f"{word!r} is not a word of R on {self.nvars} variables")
            if deg == 0 and low in table:
                add_into(out, table[low], -c)
        return out

    # -- construction-time consistency -----------------------------------------

    def _check_side_conditions(self):
        """h h = 0 and delta h + h delta = 1 - f1 pi on every basis word.

        Both sides are formed on integer terms, times the denominator of the
        table that h reads.  delta h(e) is delta of the h(e) that the h h
        check forms too, and h delta(e) is h of delta(e); both read the
        images of the basis words that ``_build`` kept.
        """
        den = self._h_den
        for deg in range(self.degree_cap):
            for w in range(self.weight_cap + 1):
                for word in self.basis[(deg, w)]:
                    e = {word: 1}
                    he = self._h_int(e)
                    if deg + 2 <= self.degree_cap and self._h_int(he):
                        raise IntegrityError("h h != 0")
                    # delta h(e) + h delta(e) - e + f1 pi(e), times den
                    diff: Dict[RWord, int] = {}
                    for u, c in he.items():
                        add_into(diff, self._delta[u], c)
                    add_into(diff, e, -den)
                    if deg == 0:
                        add_into(diff, {tuple(sorted(word)): 1}, den)
                    else:
                        add_into(diff, self._h_int(self._delta[word]), 1)
                    if diff:
                        raise IntegrityError(
                            f"homotopy relation fails at ({deg}, {w})"
                        )

    # -- transfer ----------------------------------------------------------------

    # The maps below run on integer terms: each distinct argument is lifted
    # once to integers over its own denominator, every product, commutator
    # and h is formed on integers, and each output term is one fraction over the
    # product of the argument scales times den^(number of h applications).
    # h mu of a range is memoized across calls on ("mu",) + its argument keys
    # and h of a subtree on (subtree, use_comm, leaf keys), so f_taylor, the
    # product trees and the commutator trees never read each other's entries.

    def _lift_args(self, elements,
                   word=None) -> Tuple[Tuple[int, ...], List[Dict[RWord, int]], int]:
        """Each term dict lifted on its own, its keys mapped by ``word``: the keys
        (positions of the lifts in ``_lifts``), the integer terms and the product
        of the scales.  Each distinct (word, terms) is lifted once and kept in
        ``_lifts``, and found again first by the id of its (immutable) dict,
        which ``_lift_ids`` holds so that no other dict takes that id.  The
        memo, the lifts and the ids start over together once any passes
        _MEMO_ENTRIES."""
        if max(len(self._memo), len(self._lifts), len(self._lift_ids)) > _MEMO_ENTRIES:
            self._memo, self._lifts, self._lift_ids = {}, {}, {}
        lifts, ids, keys, leaves, total = self._lifts, self._lift_ids, [], [], 1
        for terms in elements:
            held = ids.get((id(terms), word))
            if held is None:
                arg = (word, tuple(terms.items()))
                if arg not in lifts:
                    ints, scale = lift({word(u): c for u, c in terms.items()} if word else terms)
                    lifts[arg] = len(lifts), ints, scale
                held = ids[(id(terms), word)] = terms, lifts[arg]
            lifted = held[1]
            keys.append(lifted[0])
            leaves.append(lifted[1])
            total *= lifted[2]
        return tuple(keys), leaves, total

    def mu(self, i: int, args: Sequence[RElement]) -> RElement:
        """Higher products: mu_2 is multiplication, then the h-recursion."""
        if i < 2 or len(args) != i:
            raise InvalidInputError(f"mu_{i} needs exactly {i} arguments")
        keys, leaves, scale = self._lift_args(a.terms for a in args)
        return _over(self._mu_range(keys, leaves, 0, i), scale * self._h_den ** (i - 2))

    def _mu_range(self, keys: Tuple[int, ...], leaves: Sequence[Dict[RWord, int]],
                  lo: int, hi: int) -> Dict[RWord, int]:
        """den^(hi-lo-2) * mu on leaves[lo:hi].

        Every branch of the recursion needs h mu on contiguous ranges of the
        arguments; each range is evaluated once per ``MerkulovData`` and kept
        in the memo, so that a hit is the literal same term.
        """
        if hi - lo == 2:
            return word_product(leaves[lo], leaves[lo + 1])
        out: Dict[RWord, int] = {}
        for s in range(lo + 1, hi):
            sign = 1 if (s - lo + 1) % 2 == 0 else -1
            left = self._h_mu_range(keys, leaves, lo, s)
            add_into(out, word_product(left, self._h_mu_range(keys, leaves, s, hi)), sign)
        return out

    def _h_mu_range(self, keys: Tuple[int, ...], leaves: Sequence[Dict[RWord, int]],
                    lo: int, hi: int) -> Dict[RWord, int]:
        """den^(hi-lo-1) * h mu on leaves[lo:hi], with h mu_1 = -id, memoized
        on ("mu",) + keys[lo:hi]."""
        key = ("mu",) + keys[lo:hi]
        value = self._memo.get(key)
        if value is None:
            if hi - lo == 1:
                value = {word: -c for word, c in leaves[lo].items()}
            else:
                value = self._h_int(self._mu_range(keys, leaves, lo, hi))
            self._memo[key] = value
        return value

    def f_taylor(self, args: Sequence[AlgebraElement]) -> RElement:
        """f_{k+1} = -h mu_{k+1} f1^(k+1) on k+1 polynomial arguments."""
        if len(args) < 2:
            raise InvalidInputError("f_taylor needs at least two arguments")
        keys, leaves, scale = self._lift_args((a.terms for a in args), _f1_word)
        value = self._h_int(self._mu_range(keys, leaves, 0, len(args)))
        return _over(value, -scale * self._h_den ** (len(args) - 1))

    def f_tree(self, t: PlanarTree, args: Sequence[AlgebraElement]) -> RElement:
        """Tree evaluation: f1 on leaves, h mu_2 inside, -h mu_2 at the root."""
        if leaf_count(t) != len(args):
            raise InvalidInputError("argument count must match leaf count")
        keys, leaves, scale = self._lift_args((a.terms for a in args), _f1_word)
        value = self._h_int(self._eval_tree(t, keys, leaves, False))
        return _over(value, -scale * self._h_den ** (len(args) - 1))

    def _eval_tree(self, t: PlanarTree, keys: Tuple[int, ...],
                   leaves: Sequence[Dict[RWord, int]], use_comm: bool) -> Dict[RWord, int]:
        """The product at the root of t on integer terms, leaf i being leaves[i].

        h(eval(subtree)) is evaluated once per ``MerkulovData`` and kept in
        the memo on (subtree, use_comm, its leaf keys), so that a hit is the
        literal same term.
        """
        if t is None:
            raise InvalidInputError("a bare leaf is not a tree evaluation")
        nl = leaf_count(t[0])
        left = self._side(t[0], keys[:nl], leaves[:nl], use_comm)
        right = self._side(t[1], keys[nl:], leaves[nl:], use_comm)
        return word_commutator(left, right) if use_comm else word_product(left, right)

    def _side(self, t: PlanarTree, keys: Tuple[int, ...],
              leaves: Sequence[Dict[RWord, int]], use_comm: bool) -> Dict[RWord, int]:
        """One side of a product: the leaf itself, or h(eval(t)) from the memo."""
        if t is None:
            return leaves[0]
        key = (t, use_comm, keys)
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = self._h_int(self._eval_tree(t, keys, leaves, use_comm))
        return value


# memo entries a MerkulovData keeps before it empties the memo
_MEMO_ENTRIES = 1 << 16


def _f1_word(m: Monomial) -> RWord:
    """f1 of one monomial: its sorted word."""
    if any(g[0] != X_KIND for g, _ in m):
        raise InvalidInputError("f1 takes polynomial elements only")
    return tuple((g[1],) for g, e in m for _ in range(e))


def _over(terms: Dict[RWord, int], divisor: int) -> RElement:
    """The element with integer terms divided by ``divisor``, one fraction each."""
    return RElement.from_clean(over(terms, divisor))


def build_merkulov(nvars: int, weight_cap: int, degree_cap: int) -> MerkulovData:
    return MerkulovData(nvars, weight_cap, degree_cap)


def class_tree_sum(md: MerkulovData, args: Sequence[AlgebraElement]) -> AlgebraElement:
    """The labeled-class commutator sum, one side of the tree-sum identity.

    Each argument is lifted once per call; h of each labeled subtree is
    evaluated once per ``MerkulovData``, and the classes of a group of
    ``_class_groups`` share one root commutator [L, sum of sign * R].  h and
    abelianization are linear, so the root commutators are summed on
    integers, and h runs once on the sum, which is divided once and then
    abelianized.
    """
    k = len(args) - 1
    keys, leaves, scale = md._lift_args((a.terms for a in args), _f1_word)

    def side(t, pos):
        return md._side(t, tuple(keys[j] for j in pos), [leaves[j] for j in pos], True)

    root: Dict[RWord, int] = {}
    for left, pos, rights in _class_groups(k):
        right: Dict[RWord, int] = {}
        for t, rpos, sign in rights:
            add_into(right, side(t, rpos), sign)
        add_into(root, word_commutator(side(left, pos), right))
    # the root's minus sign goes into the divisor
    return abelianize(_over(md._h_int(root), -scale * md._h_den ** k))


def perm_tree_sum(md: MerkulovData, args: Sequence[AlgebraElement]) -> AlgebraElement:
    """Sum over S_{k+1} of the abelianized transfer components on permuted
    arguments, in the shape of ``class_tree_sum``: one lift, the signed mu of
    every permutation summed on integers, then h, division and abelianization."""
    if len(args) < 2:
        raise InvalidInputError("perm_tree_sum needs at least two arguments")
    k = len(args) - 1
    keys, leaves, scale = md._lift_args((a.terms for a in args), _f1_word)
    root: Dict[RWord, int] = {}
    for sigma in permutations(range(k + 1)):
        ks, ls = tuple(keys[j] for j in sigma), [leaves[j] for j in sigma]
        add_into(root, md._mu_range(ks, ls, 0, k + 1), perm_sign(sigma))
    return abelianize(_over(md._h_int(root), -scale * md._h_den ** k))


def monomial_tuples(nvars: int, slots: int, weight_cap: int) -> List[Tuple[AlgebraElement, ...]]:
    """All tuples of nonconstant monomials with total weight within the cap."""
    per_weight = {
        w: [AlgebraElement.from_monomial(m) for m in monomial_basis(nvars, w)]
        for w in range(1, weight_cap + 1)
    }
    out: List[Tuple[AlgebraElement, ...]] = []

    def rec(acc: List[AlgebraElement], remaining: int, slots_left: int):
        if slots_left == 0:
            out.append(tuple(acc))
            return
        for w in range(1, remaining - (slots_left - 1) + 1):
            for a in per_weight[w]:
                acc.append(a)
                rec(acc, remaining - w, slots_left - 1)
                acc.pop()

    rec([], weight_cap, slots)
    return out
