"""Reduced trace evaluators from differential forms to the abelianized resolution.

Four routes compute the same map on form classes modulo exact forms:

* ``cs_trace_raw`` -- the connection/curvature slot expansion
  sum_q 1/(q+1)! [theta . Omega^q](d omega) on the multilinear expansion of
  d omega.  theta extracts the constant part of a coefficient and turns the
  dx-block into a single lam letter; Omega pairs a linear coefficient with
  its dx-block.  Only the assignments these rules can leave nonzero are
  enumerated: the theta slot gets a nonempty dx block and no polynomial
  factor, each curvature slot exactly one polynomial factor, so on
  coefficients of degree r only q = r is evaluated.
* ``trace_simple`` -- the closed combinatorial formula
  sum_f (-1)^f u_{1 u f^-1(1)} ... u_{n u f^-1(n)} over maps f from the
  dx labels to the polynomial labels.
* ``F_eval`` composed with d -- the same slot count with an extra target 0
  collecting a bare lam letter and an overall 1/(n+1).
* ``trace_diffop`` -- the closed differential operator, in every form degree:
  1/(r+1) sum_I c_I(r) D^(I')(d omega) over the block profiles I.

Sign convention everywhere: dx symbols are odd, polynomial factors even; the
sign of a term is the parity of the permutation rearranging the dx symbols
from their source order into the concatenated target blocks (within a block,
source order is kept), times whatever signs the graded-commutative target
algebra produces when letters are sorted.  Every route draws its blocks from
``gcalg.block_maps`` or ``gcalg.shuffles`` and that parity from
``gcalg.block_sign``.  No route builds a letter in which a dx label meets
its own polynomial label, a repeated index and so a zero: simple and F share
``_map_terms``, which passes ``block_maps`` the blocks each dx label may enter,
and cs, which places repeated polynomial labels once per distinct ordering
(``gcalg._label_orderings``, weighted by the product of the multiplicities'
factorials), drops such an ordering per block map before building letters.

All four routes run through one loop, ``_term_sum(form, kernel)``: it walks
``expand_multilinear(form)`` once, asks a kernel for the integer terms and
the common scale of each term u dx_I by its labels (us, dus), and adds
coeff * scale * n into one integer accumulator over the lcm of the
denominators of coeff * scale, so each output monomial gets one Fraction.
The kernels are ``_cs_terms`` (scale weight / (r+1)!, on d omega),
``_simple_terms`` (scale 1), ``_F_terms`` (scale 1/(n+1)), ``_diffop_terms``
(the splittings of ``D_op`` on d omega, scale 1/lcm) and, for
``hat_D_op``, ``_cs_enumerate`` kept to one block profile (scale
weight / r!).  Every route is natural in the variables: renaming the
labels by a permutation renames its terms, up to the sign of re-sorting
the odd dx symbols.  So the loop hands each kernel only the representative
of the relabelling orbit of (us, dus) and renames its terms back, letter
by letter.  The cs, simple, F and diffop kernels are
memoized per representative, each in its own bounded cache of 1,024
entries: the 1,284 forms of the seed-1 benchmark routes pass on 4
variables hold 603 distinct cs/F terms in 88 orbits and 1,184 simple terms
in 160.  The profile kernel stays uncached so that it never fills the cs
table.  The renaming of one letter under one term's labels, with its sign
and parity, comes from a fifth bounded cache of 1,024 entries
(``_renamed_letter``; that pass meets 542); no renamed copy of a kernel's
terms is kept.  ``D_op`` runs through the same loop, with the uncached
kernel ``_D_kernel`` (scale 1/prod p!), and shares its splitting recursion
on integer states with the diffop kernel.  The term loop and the de Rham
operators all sum through ``gcalg.int_sum``.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .derham import Form, d, monomial_bidegree
from .gcalg import (
    X_KIND,
    AlgebraElement,
    Generator,
    InvalidInputError,
    Monomial,
    _label_orderings,
    block_maps,
    block_sign,
    charge,
    gen_parity,
    lam_letter,
    lam_product,
    letter_args,
    int_sum,
    lift,
    monomial_from_factors,
    monomial_mul,
    perm_sign,
    shuffles,
)


class TraceMethod(enum.Enum):
    CHERN_SIMONS_RAW = "cs"
    CHERN_SIMONS_COLLAPSED = "cs-collapsed"
    SIMPLE_FORMULA = "simple"
    DIFFOP = "diffop"


MultilinearTerm = Tuple[Fraction, Tuple[int, ...], Tuple[int, ...]]
# the integer terms of one route on one multilinear term, as (monomial, count)
IntTerms = Tuple[Tuple[Monomial, int], ...]


def expand_multilinear(omega: Form) -> Iterator[MultilinearTerm]:
    """Yield (coefficient, u-variables, dx-variables) per monomial term.

    The polynomial factors are listed with multiplicity; dx indices come out
    in increasing order, matching the canonical monomial storage.
    """
    for m, c in omega.body.terms.items():
        us: List[int] = []
        dus: List[int] = []
        for g, e in m:
            if g[0] == X_KIND:
                us.extend([g[1]] * e)
            else:
                dus.append(g[1])
        yield c, tuple(us), tuple(dus)


# a block profile: the theta block size and the sorted nonempty curvature block sizes
Profile = Tuple[int, Tuple[int, ...]]
# a route on one multilinear term (us, dus): its integer terms and their common scale
Kernel = Callable[[Tuple[int, ...], Tuple[int, ...]], Tuple[IntTerms, Fraction]]


def _term_sum(form: Form, kernel: Kernel) -> AlgebraElement:
    """sum of coeff * scale * n over the kernel's terms (mono, n) of each term.

    Each route is equivariant under relabelling the variables, so the kernel
    runs on the orbit representative of (us, dus): the labels ranked by
    (multiplicity in us descending, absent from dus, label) and renamed
    1..m.  Its terms come back through the inverse renaming, with the sign of
    re-sorting the odd dx symbols.  The sum runs on integers over the lcm of
    the terms' coeff * scale denominators, with one Fraction per output
    monomial at the end.
    """
    parts = []
    for coeff, us, dus in expand_multilinear(form):
        labels = tuple(sorted(set(us + dus), key=lambda v: (-us.count(v), v not in dus, v)))
        rank = {v: i for i, v in enumerate(labels, 1)}
        moved = [rank[v] for v in dus]
        terms, scale = kernel(tuple(sorted(rank[u] for u in us)), tuple(sorted(moved)))
        # a term whose labels stay put keeps its terms, and its sign is 1
        if any(v != i for i, v in enumerate(labels, 1)):
            terms = _relabel(terms, perm_sign(moved), labels)
        parts.append((coeff * scale, terms))
    return AlgebraElement.from_clean(int_sum(parts))


def _relabel(terms: IntTerms, sign: int, labels: Tuple[int, ...]) -> Iterator[Tuple[Monomial, int]]:
    """Each (mono, sign * n) with label i renamed labels[i - 1]; letters and
    factors re-sorted.

    Renaming is a bijection on letters, so every exponent stays and the only
    Koszul sign is the parity of the odd letters' new order.
    """
    for mono, n in terms:
        n *= sign
        factors, odd = [], []
        for g, e in mono:
            s, letter, parity = _renamed_letter(g, labels)
            n *= s**e
            factors.append((letter, e))
            if parity:
                odd.append(letter)
        factors.sort()
        yield tuple(factors), n * perm_sign(odd)


@lru_cache(maxsize=1024)
def _renamed_letter(g: Generator, labels: Tuple[int, ...]) -> Tuple[int, Generator, int]:
    """(sign, letter, parity) of the letter g with label i renamed labels[i - 1]."""
    s, letter = lam_letter([labels[i - 1] for i in letter_args(g)])
    return s, letter, gen_parity(letter)


@lru_cache(maxsize=1024)
def _cs_terms(us: Tuple[int, ...], dus: Tuple[int, ...]) -> Tuple[IntTerms, Fraction]:
    """``_cs_enumerate`` over every block map, scaled by 1/(r+1), once per orbit.

    d omega holds the same term u dx_I for every basis form x_i u dx_{I - i},
    and many terms share an orbit, so a route over many forms meets most
    representatives several times.
    """
    terms, scale = _cs_enumerate(us, dus)
    return terms, scale / (len(us) + 1)


def _cs_enumerate(
    us: Tuple[int, ...],
    dus: Tuple[int, ...],
    profile: Optional[Profile] = None,
) -> Tuple[IntTerms, Fraction]:
    """Integer terms of [theta . Omega^r] on us * dus, and the scale weight / r!.

    Only assignments that can evaluate to something nonzero are enumerated:
    the theta slot gets no polynomial factor and a nonempty dx block
    ``blocks[0]``, and curvature slot s gets exactly one polynomial factor,
    ``labels[s]``, and the dx block ``blocks[s + 1]``.  The factors are
    placed by the distinct orderings of ``us``, each standing for ``weight``
    permutations; only equal labels are grouped, the curvature slots stay
    distinct.  Each block map is built once, and an ordering that puts a
    label on a curvature slot whose block holds that same dx label (a letter
    with a repeated index) is dropped before any letter is built.  A
    ``profile`` keeps only the block maps of that profile.  Each term
    carries the shuffle sign and all letter sorting signs.
    """
    orderings, weight = _label_orderings(us)
    # the (slot, label) pairs of each ordering, against a map's dx pairs
    placed = [(labels, set(enumerate(labels))) for labels in orderings]
    acc: Dict[Monomial, int] = {}
    for blocks in block_maps(len(dus), len(us) + 1, onto=(0,)):
        if profile is not None and profile != (
            len(blocks[0]), tuple(sorted(len(b) for b in blocks[1:] if b))
        ):
            continue
        sign = block_sign(blocks)
        theta, *curvature = [tuple(dus[p] for p in block) for block in blocks]
        held = {(s, v) for s, block in enumerate(curvature) for v in block}
        for labels, pairs in placed:
            if not held.isdisjoint(pairs):
                continue  # a curvature slot holds its own label: a zero letter
            prod = lam_product(
                [theta] + [(u,) + block for u, block in zip(labels, curvature)]
            )
            if prod is None:
                continue
            s, mono = prod
            acc[mono] = acc.get(mono, 0) + sign * s
    return tuple((mono, v) for mono, v in acc.items() if v), Fraction(weight, math.factorial(len(us)))


def cs_trace_raw(omega: Form) -> AlgebraElement:
    """sum_r 1/(r+1)! [theta . Omega^r](d omega), r the degree of each coefficient.

    d maps the bidegree parts of omega to distinct bidegrees of d omega and
    kills constants, so d is taken once on the whole form; a term of
    d omega with r polynomial factors leaves every assignment to other than
    r + 1 slots zero, so only q = r is evaluated.
    """
    return _term_sum(d(omega), _cs_terms)


def _map_terms(heads: List[List[int]], dus: Tuple[int, ...], onto: tuple = ()) -> IntTerms:
    """Integer terms of prod_j lam(heads[j] + block j) over the signed maps of dus to blocks
    hitting ``onto``; a dx label enters no block whose head holds it (a zero letter)."""
    allowed = [[j for j, head in enumerate(heads) if v not in head] for v in dus]
    acc: Dict[Monomial, int] = {}
    for blocks in block_maps(len(dus), len(heads), onto=onto, allowed=allowed):
        prod = lam_product(head + [dus[pos] for pos in block] for head, block in zip(heads, blocks))
        if prod is None:
            continue
        s, mono = prod
        acc[mono] = acc.get(mono, 0) + block_sign(blocks) * s
    return tuple((mono, v) for mono, v in acc.items() if v)


@lru_cache(maxsize=1024)
def _simple_terms(us: Tuple[int, ...], dus: Tuple[int, ...]) -> Tuple[IntTerms, int]:
    """Integer terms of the closed formula on one term us * dus."""
    return (_map_terms([[u] for u in us], dus) if us else ()), 1


def trace_simple(omega: Form) -> AlgebraElement:
    """Closed formula: sum over maps f from dx labels to polynomial labels."""
    return _term_sum(omega, _simple_terms)


def F_eval(eta: Form) -> AlgebraElement:
    """1/(n+1) sum over maps f from dx labels to {0, 1, .., n}.

    Target 0 collects a bare lam letter; it must be hit at least once (the
    connection slot kills constants).  Satisfies F(d omega) == trace_simple(omega).
    """
    return _term_sum(eta, _F_terms)


@lru_cache(maxsize=1024)
def _F_terms(us: Tuple[int, ...], dus: Tuple[int, ...]) -> Tuple[IntTerms, Fraction]:
    """Integer terms of F's slot count on one term us * dus, and 1/(n+1); block 0 is bare."""
    return _map_terms([[]] + [[u] for u in us], dus, onto=(0,)), Fraction(1, len(us) + 1)


def _validate_tuple(indices: Sequence[int], k: int) -> None:
    m = len(indices)
    if m < 1 or sum(indices) != k + m - 1:
        raise InvalidInputError(
            f"tuple {tuple(indices)} incompatible with form degree {k}"
        )
    if any(i < 2 for i in indices[:-1]) or indices[-1] < 1:
        raise InvalidInputError(
            f"tuple {tuple(indices)} must have leading entries >= 2 and last >= 1"
        )


def D_op(omega: Form, indices: Sequence[int]) -> AlgebraElement:
    """Constant-coefficient splitting operator D^(i1,...,im) on k-forms.

    Built by iterated wedge splittings.  Each splitting peels the rightmost
    wedge factor of the target: a derivative variable u is prepended to the
    left part together with a chosen (p-1)-subset, with the shuffle sign of
    the chosen positions ahead of the rest and prefactor 1/p!,
    and the remaining factors become a lam letter.  The derivative variables
    act on the polynomial coefficient as constant-coefficient derivations.
    Each state carries an integer, and the term loop applies the scale
    1/prod p! of the prefactors.
    """
    return _term_sum(omega, partial(_D_kernel, tuple(indices)))


def _D_kernel(indices: Tuple[int, ...], us: Tuple[int, ...],
              dus: Tuple[int, ...]) -> Tuple[IntTerms, Fraction]:
    """Integer terms of D^(indices) on one term us * dus, and their scale 1/prod p!."""
    _validate_tuple(indices, len(dus))
    levels, prefactor = _splitting(indices, len(dus))
    return tuple(_D_terms(us, dus, levels)), Fraction(1, prefactor)


def _splitting(indices: Tuple[int, ...], k: int) -> Tuple[list, int]:
    """The shuffles of each splitting of D^(indices) on k-forms, rightmost first,
    and the product of the p! of the wedges they leave, each the next one's k."""
    levels, prefactor = [], 1
    for i in reversed(indices[1:]):
        p = k + 1 - i  # a valid tuple keeps p >= 2
        levels.append(list(shuffles(k, p - 1)))
        prefactor *= math.factorial(p)
        k = p
    return levels, prefactor


def _D_terms(us: Tuple[int, ...], dus: Tuple[int, ...],
             levels: list) -> Iterator[Tuple[Monomial, int]]:
    """Integer terms of D's splittings of one term us * dus, before the 1/p!.

    A state is (coefficient monomial, integer, current wedge order, peeled
    letters); ``levels`` holds the shuffles of each splitting.
    """
    states = [(tuple(((X_KIND, u), us.count(u)) for u in sorted(set(us))), 1, list(dus), [])]
    for splits in levels:
        new_states = []
        for poly, n, vs, letters in states:
            # d/dx_i of a monomial: one monomial times its exponent
            for pos, (g, e) in enumerate(poly):
                dpoly = poly[:pos] + (((g, e - 1),) if e > 1 else ()) + poly[pos + 1:]
                for chosen, rest, sign in splits:
                    r = lam_letter([vs[a] for a in rest])
                    if r is None:
                        continue
                    s, letter = r
                    new_states.append((
                        dpoly,
                        n * e * sign * s,
                        [g[1]] + [vs[a] for a in chosen],
                        [letter] + letters,
                    ))
        states = new_states
    for poly, n, vs, letters in states:
        r = lam_letter(vs)
        if r is None:
            continue
        s, g = r
        prod = monomial_from_factors([g] + letters)
        if prod is None:
            continue
        s2, lam_mono = prod
        s3, full = monomial_mul(poly, lam_mono)  # poly is even: never zero
        yield full, n * s * s2 * s3


def hat_D_op(eta: Form, indices: Sequence[int]) -> AlgebraElement:
    """Slot-assignment operator: the (i1..im)-profile part of [theta.Omega^r]/r!.

    The connection block has size im and the nonempty curvature blocks have
    sizes i1-1, .., i_{m-1}-1 (as a multiset); all other curvature slots take
    a bare polynomial factor.
    """
    indices = tuple(indices)
    for k in {monomial_bidegree(m)[1] for m in eta.body.terms}:
        _validate_tuple(indices, k)
    profile = (indices[-1], tuple(sorted(i - 1 for i in indices[:-1])))
    return _term_sum(eta, partial(_cs_enumerate, profile=profile))


def diffop_coefficient(indices: Sequence[int], r: int) -> Fraction:
    """c_I(r) with hat D^(I) == c_I(r) D^(I') on terms with r polynomial
    factors, I' being I without a trailing 1: for J = (j_1..j_m),
    c_J = prod_{l>=2} (-1)^(P_l - 1) P_l! / prod_v mult_v(j_1..j_{m-1})!
    with P_l = 1 + sum_{t<l} (j_t - 1), and c_(J,1)(r) = (r - m + 1) / mult_{j_m}(J) * c_J.
    """
    if len(indices) > 1 and indices[-1] == 1:
        J = indices[:-1]
        return Fraction(r - len(J) + 1, J.count(J[-1])) * diffop_coefficient(J, r)
    lead, c, P = indices[:-1], 1, 1
    for j in lead:
        P += j - 1
        c *= (-1) ** (P - 1) * math.factorial(P)
    return Fraction(c, math.prod(math.factorial(lead.count(v)) for v in set(lead)))


def _leads(n: int, lo: int, room: int) -> Iterator[Tuple[int, ...]]:
    """Non-decreasing n-tuples of j >= lo with sum(j - 1) <= room, in lexicographic order."""
    if not n:
        yield ()
        return
    for j in range(lo, 2 + room // n):
        for tail in _leads(n - 1, j, room - (j - 1)):
            yield (j,) + tail


@lru_cache(maxsize=1024)
def _diffop_terms(us: Tuple[int, ...], dus: Tuple[int, ...]) -> Tuple[IntTerms, Fraction]:
    """Integer terms of 1/(r+1) sum_I c_I(r) D^(I') on one term us * dus, and their scale.

    I is one tuple per block profile of k = |dus| with at most r curvature blocks:
    the sorted curvature sizes plus one, then the theta size t.  A trailing 1
    folds into the D call of I' = lead, whose last entry is its largest."""
    r, k = len(us), len(dus)
    coefficients: Dict[Tuple[int, ...], Fraction] = {}
    for n in range(min(k - 1, r) + 1):
        for lead in _leads(n, 2, k - 1):
            t = k + n - sum(lead)
            key = lead if n and t == 1 else lead + (t,)
            coefficients[key] = coefficients.get(key, 0) + diffop_coefficient(lead + (t,), r)
    # steps certain to run, charged before any shuffle is built: dus has distinct labels, so the
    # first splitting keeps all its states, and each of them walks every shuffle of the second
    charge(accumulate(len(set(us)) * math.comb(k, J[-1])
                      * (1 + (len(J) > 2) * math.comb(k + 1 - J[-1], J[-2]))
                      for J, c in coefficients.items() if c and len(J) > 1),
           f"splitting steps of D on {k}-forms")
    parts = []
    for J, c in coefficients.items():
        if c:
            levels, prefactor = _splitting(J, k)
            parts.append((c / ((r + 1) * prefactor), _D_terms(us, dus, levels)))
    ints, scale = lift(int_sum(parts))
    return tuple(ints.items()), Fraction(1, scale)


def trace_diffop(omega: Form) -> AlgebraElement:
    """1/(r+1) sum_I c_I(r) D^(I')(d omega): the closed operator in every degree."""
    return _term_sum(d(omega), _diffop_terms)


def cs_coefficient(r: int, i: int) -> Fraction:
    """Chern-Simons expansion coefficient A_i for an invariant of degree r+1."""
    if r < 0 or i < 0 or i > r:
        raise InvalidInputError(f"need 0 <= i <= r, got r={r}, i={i}")
    num = (-1) ** i * math.factorial(r + 1) * math.factorial(r)
    den = 2**i * math.factorial(r - i) * math.factorial(r + 1 + i)
    return Fraction(num, den)


def trace(omega: Form, method: TraceMethod = TraceMethod.SIMPLE_FORMULA) -> AlgebraElement:
    """Dispatching entry point for the four trace routes."""
    if method is TraceMethod.CHERN_SIMONS_RAW:
        return cs_trace_raw(omega)
    if method is TraceMethod.CHERN_SIMONS_COLLAPSED:
        return F_eval(d(omega))
    if method is TraceMethod.SIMPLE_FORMULA:
        return trace_simple(omega)
    if method is TraceMethod.DIFFOP:
        return trace_diffop(omega)
    raise InvalidInputError(f"unknown trace method {method!r}")
