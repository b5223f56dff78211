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
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple

from .derham import Form, bigrade_split, d, monomial_basis
from .gcalg import (
    AlgebraElement,
    DX_KIND,
    Echelon,
    IntegrityError,
    InvalidInputError,
    Monomial,
    ResourceLimitError,
    SparseVec,
    X_KIND,
    echelon,
    echelon_split,
    max_basis_budget,
    perm_sign,
    render,
    x_gen,
)
from .resolution import (
    Letter,
    RElement,
    RWord,
    abelianize,
    commutator,
    delta_R,
    r_word_basis,
    word_degree,
    word_weight,
)
from .trace import cs_trace_raw

PlanarTree = Optional[tuple]  # None = leaf, (left, right) = internal vertex

LEAF: PlanarTree = None


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


def tree_sign(t: PlanarTree) -> int:
    """(-1)^(1 + sum of left-subtree leaf counts over internal vertices)."""
    total = 0

    def walk(node: PlanarTree) -> int:
        nonlocal total
        if node is None:
            return 1
        nl = walk(node[0])
        nr = walk(node[1])
        total += nl
        return nl + nr

    walk(t)
    return -1 if (1 + total) % 2 else 1


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
    seen: Dict[str, Tuple[Tuple[int, ...], PlanarTree]] = {}
    trees = enumerate_pbt(k)
    for sigma in permutations(range(k + 1)):
        for t in trees:
            key = labeled_class_key(sigma, t)
            if key not in seen:
                seen[key] = (sigma, t)
    return tuple(seen.values())


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
        # h on each pivot word of B = im(delta), an element one degree up;
        # h is the linear extension of this table
        self._h_pivot: Dict[RWord, RElement] = {}
        # delta of every basis word of positive degree, formed once in _build
        # and read again by the side check
        self._delta: Dict[RWord, RElement] = {}
        self._build()
        self._check_side_conditions()

    def _bidegrees(self):
        for deg in range(self.degree_cap + 1):
            for w in range(self.weight_cap + 1):
                yield deg, w

    def _build(self):
        budget = max_basis_budget()
        for deg, w in self._bidegrees():
            words = r_word_basis(self.nvars, w, deg)
            if len(words) > budget:
                raise ResourceLimitError(
                    f"basis at degree {deg}, weight {w} has {len(words)} words "
                    f"(budget {budget})"
                )
            self.basis[(deg, w)] = words
            self.index[(deg, w)] = {word: i for i, word in enumerate(words)}
        # per bidegree: echelon of B with the combinations of upper words
        b_ech: Dict[Tuple[int, int], Echelon] = {}
        for deg, w in self._bidegrees():
            if deg < self.degree_cap:
                upper = self.basis[(deg + 1, w)]
                for word in upper:
                    self._delta[word] = delta_R(RElement.from_word(word))
                b_ech[(deg, w)] = echelon(
                    self._to_vec(self._delta[word], deg, w) for word in upper
                )
        for (deg, w), ech in b_ech.items():
            up_ech = b_ech.get((deg + 1, w), Echelon())
            words, upper = self.basis[(deg, w)], self.basis[(deg + 1, w)]
            # preimage of each echelon row from its tracked combination,
            # projected onto the L-complement one degree up
            for p, i in ech.pivot_row.items():
                residual = echelon_split(up_ech, ech.combos[i])[1]
                self._h_pivot[words[p]] = RElement({upper[j]: c for j, c in residual.items()})
            if deg > 0:
                continue
            # w - sorted(w) must lie in B; by linearity this covers every
            # degree-0 input of h
            for word in words:
                part = RElement.from_word(word) - RElement.from_word(tuple(sorted(word)))
                if echelon_split(ech, self._to_vec(part, deg, w))[1]:
                    raise IntegrityError("kernel of pi is not exhausted by boundaries")

    def _to_vec(self, e: RElement, deg: int, w: int) -> SparseVec:
        idx = self.index[(deg, w)]
        return {idx[word]: c for word, c in e.terms.items()}

    # -- the resolution maps --------------------------------------------------

    def f1(self, a: AlgebraElement) -> RElement:
        """Linear section of pi: a monomial becomes its sorted word."""
        out = RElement.zero()
        for m, c in a.terms.items():
            letters: List[Letter] = []
            for g, e in m:
                if g[0] != X_KIND:
                    raise InvalidInputError("f1 takes polynomial elements only")
                letters.extend([(g[1],)] * e)
            out.add_term(tuple(letters), c)
        return out

    def h(self, e: RElement) -> RElement:
        """The homotopy: a lookup of each word in its values on the pivot words."""
        return self._extend(self._h_pivot, e)

    def _extend(self, table: Dict[RWord, RElement], e: RElement) -> RElement:
        """The linear map that is ``table`` on the pivot words of B.

        A degree-0 word w goes to the image of w - sorted(w), so a sorted word
        goes to 0; every other basis word below the top degree goes to 0.
        """
        out = RElement.zero()
        for word, c in e.terms.items():
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
                out.iadd(value, c)
            elif word not in self.index.get((deg, w), ()):
                raise InvalidInputError(f"{word!r} is not a word of R on {self.nvars} variables")
            if deg == 0 and low in table:
                out.iadd(table[low], -c)
        return out

    # -- construction-time consistency -----------------------------------------

    def _check_side_conditions(self):
        """h h = 0 and delta h + h delta = 1 - f1 pi on every basis word.

        delta h is the same extension of delta of each pivot value, formed once
        from the images of the basis words that ``_build`` kept; h delta reads
        those images too.
        """
        delta_table = {}
        for pivot, value in self._h_pivot.items():
            image = RElement.zero()
            for word, c in value.terms.items():
                image.iadd(self._delta[word], c)
            delta_table[pivot] = image
        for deg in range(self.degree_cap):
            for w in range(self.weight_cap + 1):
                for word in self.basis[(deg, w)]:
                    e = RElement.from_word(word)
                    if deg + 2 <= self.degree_cap and not self.h(self.h(e)).is_zero():
                        raise IntegrityError("h h != 0")
                    if deg == 0:
                        rhs = e - RElement.from_word(tuple(sorted(word)))
                    else:
                        rhs = e - self.h(self._delta[word])
                    if not (self._extend(delta_table, e) - rhs).is_zero():
                        raise IntegrityError(
                            f"homotopy relation fails at ({deg}, {w})"
                        )

    # -- transfer ----------------------------------------------------------------

    def mu(self, i: int, args: Sequence[RElement]) -> RElement:
        """Higher products: mu_2 is multiplication, then the h-recursion."""
        if i < 2 or len(args) != i:
            raise InvalidInputError(f"mu_{i} needs exactly {i} arguments")
        if i == 2:
            return args[0] * args[1]
        out = RElement.zero()
        for s in range(1, i):
            t = i - s
            sign = 1 if (s + 1) % 2 == 0 else -1
            out.iadd(self._h_mu(s, args[:s]) * self._h_mu(t, args[s:]), sign)
        return out

    def _h_mu(self, s: int, args: Sequence[RElement]) -> RElement:
        if s == 1:
            return -args[0]
        return self.h(self.mu(s, args))

    def f_taylor(self, args: Sequence[AlgebraElement]) -> RElement:
        """f_{k+1} = -h mu_{k+1} f1^(k+1) on k+1 polynomial arguments."""
        if len(args) < 2:
            raise InvalidInputError("f_taylor needs at least two arguments")
        lifted = [self.f1(a) for a in args]
        return -self.h(self.mu(len(args), lifted))

    def f_tree(self, t: PlanarTree, args: Sequence[AlgebraElement]) -> RElement:
        """Tree evaluation: f1 on leaves, h mu_2 inside, -h mu_2 at the root."""
        return self._f_tree(t, args, use_comm=False)

    def f_tree_commutator(self, t: PlanarTree, args: Sequence[AlgebraElement]) -> RElement:
        """Same as f_tree with every product replaced by a graded commutator."""
        return self._f_tree(t, args, use_comm=True)

    def _f_tree(self, t: PlanarTree, args: Sequence[AlgebraElement], use_comm: bool) -> RElement:
        if leaf_count(t) != len(args):
            raise InvalidInputError("argument count must match leaf count")
        lifted = [self.f1(a) for a in args]
        return -self.h(self._eval_tree(t, lifted, use_comm))

    def _eval_tree(self, t: PlanarTree, lifted: Sequence[RElement], use_comm: bool) -> RElement:
        if t is None:
            raise InvalidInputError("a bare leaf is not a tree evaluation")
        nl = leaf_count(t[0])
        left = (
            lifted[0]
            if t[0] is None
            else self.h(self._eval_tree(t[0], lifted[:nl], use_comm))
        )
        right = (
            lifted[nl]
            if t[1] is None
            else self.h(self._eval_tree(t[1], lifted[nl:], use_comm))
        )
        return commutator(left, right) if use_comm else left * right


def build_merkulov(nvars: int, weight_cap: int, degree_cap: int) -> MerkulovData:
    return MerkulovData(nvars, weight_cap, degree_cap)


def tree_trace_args(md: MerkulovData, args: Sequence[AlgebraElement]) -> AlgebraElement:
    """TTr(a0 da1 ... dak) by both tree sums; raises if they disagree.

    The first sum runs over all of S_{k+1} with the transfer components; the
    second over labeled-tree classes with the commutator tree maps.
    """
    k = len(args) - 1
    total_perm = AlgebraElement.zero()
    for sigma in permutations(range(k + 1)):
        value = md.f_taylor([args[j] for j in sigma])
        total_perm.iadd(abelianize(value), perm_sign(sigma))
    if total_perm != class_tree_sum(md, args):
        raise IntegrityError("permutation and labeled-class tree sums disagree")
    return total_perm


def tree_trace(md: MerkulovData, omega: Form, k: int) -> AlgebraElement:
    """Tree-formula trace of a k-form, decomposed over its monomial basis."""
    out = AlgebraElement.zero()
    for w, p, part in bigrade_split(omega):
        if p != k:
            raise InvalidInputError(f"expected a {k}-form, found form degree {p}")
        for m, c in part.body.terms.items():
            poly: Monomial = tuple((g, e) for g, e in m if g[0] == X_KIND)
            dxs = [g[1] for g, e in m if g[0] == DX_KIND]
            args = [AlgebraElement.from_monomial(poly)] + [
                AlgebraElement.from_gen(x_gen(i)) for i in dxs
            ]
            out.iadd(tree_trace_args(md, args), c)
    return out


def class_tree_sum(md: MerkulovData, args: Sequence[AlgebraElement]) -> AlgebraElement:
    """Just the labeled-class commutator sum (one side of the identity)."""
    k = len(args) - 1
    lifted = [md.f1(a) for a in args]  # once per call; each class permutes them
    total = AlgebraElement.zero()
    for sigma, t in enumerate_labeled_classes(k):
        value = -md.h(md._eval_tree(t, [lifted[j] for j in sigma], True))
        total.iadd(abelianize(value), perm_sign(sigma) * tree_sign(t))
    return total


def verify_cstree(md: MerkulovData, k: int, samples: Sequence[Sequence[AlgebraElement]]):
    """Labeled-class tree sum vs the slot-expansion trace on each sample.

    Returns (failures, cases); a failure records the argument tuple and both
    rendered values.
    """
    failures = []
    cases = 0
    for args in samples:
        cases += 1
        body = args[0]
        for a in args[1:]:
            body = body * d(Form(a, md.nvars)).body
        omega = Form(body, md.nvars)
        lhs = class_tree_sum(md, args)
        rhs = cs_trace_raw(omega)
        if lhs != rhs:
            failures.append((tuple(args), render(lhs), render(rhs)))
    return failures, cases


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
