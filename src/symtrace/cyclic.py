"""Weight-truncated cyclic complexes, HKR maps, and the closed-cocycle bridge.

Chains live in tensor powers of the polynomial algebra A (slots are
monomials) or of the resolution R (slots are words), taken modulo the signed
cyclic rotation.  Degrees are suspended uniformly: a slot of internal degree
g contributes g + 1, so a chain with m+1 slots of internal degrees g_j has
homological degree m + sum g_j, the rotation sign is the Koszul sign of the
suspended slots, and the boundary is

  b(a_0, .., a_m) = sum_i (-1)^(<a_0>+..+<a_i>) (a_0, .., a_i a_{i+1}, .., a_m)
                  + tau-sign * (-1)^(<a_m>) (a_m a_0, a_1, .., a_{m-1})

with <a> = deg(a) + 1, plus the internal differential of R applied slotwise.
These conventions square to zero, anticommute, and are fixed once by the
executable checks in the test suite.  A materialized complex takes each nonzero
class once, as a necklace of the sorted slots.  Homology ranks one block per S_N orbit of
multidegrees, counted orbit-size times: permuting the variables is a chain isomorphism.

The bridge element attached to u_1 .. u_n du_{n+1} .. du_{n+p} is

  (1/n!) sum_{sigma} sum_{m=0}^{p} sum_f (-1)^f
      u_{sigma(1) u f^-1(1)} ... u_{sigma(n) u f^-1(n)}
      (x) u_{f^-1(bar 1)} (x) ... (x) u_{f^-1(bar m)},

f ranging over maps from the du labels to {1..n, bar 1..bar m} hitting every
barred target.  It is closed under the total differential; its one-slot part
abelianizes to the combinatorial trace formula, and rewriting the one-slot
words as coalgebra tensors and keeping the terms with at most one non-linear
factor recovers the de Rham differential of the input.

The du are odd, so the element is alternating in the du labels: it is 0
when a du label repeats (a map that puts two equal labels in one block
builds a zero letter, and the other maps cancel in pairs), and reordering
the du labels multiplies it by the sign of the reordering.  ``beta_cocycle`` returns the zero chain on a
repeated du label before enumerating anything, and otherwise copies, or negates, the chain
of the sorted labels, memoized with its terms scaled by weight / n! per (sorted u, sorted du)
in a bounded cache (``_beta_terms``, 1,024 entries); a caller always gets a fresh chain.
``boundary`` memoizes a chain's nonzero integer faces per (ambient, integer terms), up to
sign, in a second one (``_boundary_ints``), so a bridge pass walks each chain's keys once.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, permutations
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .derham import Form, d, monomial_basis
from .gcalg import (
    DX_KIND,
    X_KIND,
    AlgebraElement,
    IntegrityError,
    InvalidInputError,
    LinComb,
    Monomial,
    SparseVec,
    _label_orderings,
    block_maps,
    block_sign,
    charge,
    comb_totals,
    dx_gen,
    echelon,
    int_sum,
    lift,
    max_basis_budget,
    monomial_from_factors,
    monomial_mul,
    over,
    perm_sign,
    signed_terms,
    x_gen,
)
from .resolution import (
    RElement,
    RWord,
    _lam_word,
    _word_count,
    delta_word,
    r_word_basis,
    word_degree,
)


# Slots: ambient "A" uses polynomial monomials, ambient "R" uses words.
Slot = Tuple
ChainKey = Tuple[Slot, ...]


def _suspended(ambient: str, key: ChainKey) -> List[int]:  # a polynomial slot has degree 0
    return [word_degree(s) + 1 for s in key] if ambient == "R" else [1] * len(key)


def _slot_mul(ambient: str, a: Slot, b: Slot) -> Tuple[int, Slot]:
    return (1, a + b) if ambient == "R" else _monomial_product(a, b)


@lru_cache(maxsize=1024)
def _monomial_product(a: Monomial, b: Monomial) -> Tuple[int, Monomial]:
    """The product of two polynomial slots (even, so never zero), for builds and ``boundary``."""
    return monomial_mul(a, b)


def chain_degree(ambient: str, key: ChainKey) -> int:
    return sum(_suspended(ambient, key)) - 1


class CyclicChain(LinComb):
    """Linear combination of slot tuples over A or R."""

    __slots__ = ("ambient",)

    def __init__(self, ambient: str, terms: Optional[Dict[ChainKey, Fraction]] = None):
        if ambient not in ("A", "R"):
            raise InvalidInputError("ambient must be 'A' or 'R'")
        self.ambient = ambient
        super().__init__(terms)

    def _new(self, terms: dict) -> "CyclicChain":
        return CyclicChain(self.ambient, terms)

    def canonicalized(self) -> "CyclicChain":
        parts = ((c, signed_terms(cyclic_canonical(self.ambient, key)))
                 for key, c in self.terms.items())
        return CyclicChain.from_clean(int_sum(parts), self.ambient)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclicChain):
            return NotImplemented
        return (
            self.ambient == other.ambient
            and self.canonicalized().terms == other.canonicalized().terms
        )


def cyclic_canonical(ambient: str, key: ChainKey) -> Optional[Tuple[int, ChainKey]]:
    """Least rotation with tracked sign; None when the class is zero."""
    sus = _suspended(ambient, key)
    total = sum(sus)
    best = key
    best_sign = 1
    cur = key
    sign = 1
    zero = False
    for step in range(1, len(key)):
        # rotating the last slot to the front moves it past all the others
        moved = sus[-step]
        sign *= -1 if moved * (total - moved) % 2 else 1
        cur = key[-step:] + key[:-step]
        if cur == key and sign == -1:
            zero = True
        if cur < best:
            best = cur
            best_sign = sign
        elif cur == best and sign != best_sign:
            zero = True
    if zero:
        return None
    return best_sign, best


def boundary(chain: CyclicChain) -> CyclicChain:
    """Cyclic Hochschild boundary plus the slotwise internal differential, over the chain's
    common denominator: ``_boundary_ints`` of its integer terms, the first made positive."""
    ints, den = lift(chain.terms)
    terms = tuple(ints.items())
    if terms and terms[0][1] < 0:  # a chain and its negation share one entry
        terms, den = tuple((key, -v) for key, v in terms), -den
    return CyclicChain.from_clean(over(dict(_boundary_ints(chain.ambient, terms)), den),
                                  chain.ambient)


@lru_cache(maxsize=1024)
def _boundary_ints(ambient: str, terms: Tuple[Tuple[ChainKey, int], ...]) -> tuple:
    """The nonzero integer boundary terms of (key, v) terms, in the order
    ``_add_boundary`` first inserts them."""
    out: Dict[ChainKey, int] = {}
    for key, v in terms:
        _add_boundary(ambient, key, v, out)
    return tuple((key, v) for key, v in out.items() if v)


def _add_boundary(ambient: str, key: ChainKey, v: int, out: Dict[ChainKey, int]) -> None:
    """In place: out += v * (boundary of the slot tuple ``key``), on integers,
    keyed by raw (not canonical) slot tuples; a sum that cancels stays as 0."""
    m = len(key) - 1
    sus = _suspended(ambient, key)
    if m >= 1:
        prefix = 0
        for i in range(m):
            prefix += sus[i]
            s2, merged = _slot_mul(ambient, key[i], key[i + 1])
            k2 = key[:i] + (merged,) + key[i + 2 :]
            out[k2] = out.get(k2, 0) + (-s2 * v if prefix % 2 else s2 * v)
        # a_m moves to the front past the others, (-1)^(s (total - s)) as
        # in cyclic_canonical with s = <a_m> and total - s = prefix, then
        # the wrap term carries (-1)^s
        s2, merged = _slot_mul(ambient, key[m], key[0])
        k2 = (merged,) + key[1:m]
        out[k2] = out.get(k2, 0) + (-s2 * v if sus[m] * (prefix + 1) % 2 else s2 * v)
    if ambient == "R":
        prefix = 0
        for i in range(m + 1):
            sv = -v if prefix % 2 else v
            for word, cw in delta_word(key[i]):
                k2 = key[:i] + (word,) + key[i + 1 :]
                out[k2] = out.get(k2, 0) + sv * cw
            prefix += sus[i]


# -- materialized complexes ----------------------------------------------------


class ChainComplexQ:
    """Bigraded complex with labeled bases and exact sparse boundaries.

    ``columns[(deg, w)][j]`` is the boundary of ``basis[(deg, w)][j]`` as a
    sparse column {row: entry}, rows indexing ``basis[(deg - 1, w)]``.  The
    orbit blocks of ``homology_dims`` are keyed (deg, w, multidegree) alike.
    """

    def __init__(self, basis: Dict[Tuple[int, int], List[ChainKey]],
                 columns: Dict[Tuple[int, int], List[SparseVec]], degree_cap: int):
        self.basis = basis
        self.columns = columns
        self.degree_cap = degree_cap

    @property
    def matrices(self) -> Dict[Tuple[int, int], List[List[Fraction]]]:
        """Dense view of ``columns``, built on each access; only the benchmark tracer
        reads it (``cyclic.matrix_cells/nnz``), until those counters move to the columns."""
        return {
            (deg, w): [[col.get(i, Fraction(0)) for col in cols]
                       for i in range(len(self.basis.get((deg - 1, w), [])))]
            for (deg, w), cols in self.columns.items()
        }


class HomologySummary:
    """dim H = n - rank out - rank in per (degree, weight) below the degree cap."""

    def __init__(self, sizes: Dict[Tuple[int, int], int], ranks: Dict[Tuple[int, int], int],
                 degree_cap: int):
        self.dims: Dict[Tuple[int, int], int] = {}
        for (deg, w), n in sorted(sizes.items()):
            h = n - ranks.get((deg, w), 0) - ranks.get((deg + 1, w), 0)
            if h and deg < degree_cap:
                self.dims[deg, w] = h

    def dim(self, deg: int, w: int) -> int:
        return self.dims.get((deg, w), 0)


def _slot_basis(ambient: str, nvars: int, weight: int, degree_cap: int) -> List[Slot]:
    """The slots of one weight; over R the words of degree <= min(degree_cap, weight - 1),
    since a chain within the cap holds no other word and no word has degree >= its weight."""
    if ambient == "A":
        return monomial_basis(nvars, weight)
    return [word for degc in range(min(degree_cap, weight - 1) + 1)
            for word in r_word_basis(nvars, weight, degc)]


def _necklaces(n: int, weights: Sequence[int], degrees: Sequence[int], weight_cap: int,
               degree_room: int) -> Iterator[Tuple[List[int], int, int]]:
    """Each nonzero class of n letters (slot indices) at its least rotation, as (letters, weight,
    internal degree), of weight 1..weight_cap and internal degree <= degree_room, by iterative
    Fredricksen-Kessler-Maiorana; a periodic one with stabilizer sign -1 is zero and dropped.
    Letter 0, the unit slot, is the one letter of weight 0 and degree 0, so a prefix after which
    it alone fits has no completion that is a least rotation and is not descended from."""
    fitting: Dict[Tuple[int, int], List[int]] = {}  # only the (weight, degree) left met

    def fits(w: int, g: int) -> List[int]:
        if (w, g) not in fitting:
            fitting[w, g] = [i for i, wi in enumerate(weights) if wi <= w and degrees[i] <= g]
        return fitting[w, g]

    a, per, nxt, options = [0] * (n + 1), [1] * (n + 1), [0] * (n + 1), [[]] * (n + 1)
    w_left, g_left = [weight_cap] * (n + 1), [degree_room] * (n + 1)
    options[1], t = fits(weight_cap, degree_room), 1
    while t:
        i = nxt[t]
        if i == len(options[t]):
            t -= 1
            continue
        nxt[t] = i + 1
        s = a[t] = options[t][i]
        p = per[t] if s == a[t - per[t]] else t
        w, g = w_left[t] - weights[s], g_left[t] - degrees[s]
        if t < n:
            if len(opts := fits(w, g)) > 1:  # else only the unit slot is left to fill
                t += 1
                per[t], w_left[t], g_left[t], options[t] = p, w, g, opts
                nxt[t] = bisect_left(options[t], a[t - p])
        elif n % p == 0 and w < weight_cap and (
                p == n or (p + degree_room - g_left[p + 1]) * (n // p - 1) % 2 == 0):
            yield a[1:], weight_cap - w, degree_room - g


def _classes(ambient: str, nvars: int, weight_cap: int, degree_cap: int):
    """The sorted slot alphabet (the unit slot and every slot of weight 1..weight_cap), the
    class count per (degree, weight) so far, and every nonzero class as (letter indices,
    degree, weight): the necklaces of 1..degree_cap + 1 slots (``_necklaces``), each metered
    against the basis budget SYMTRACE_MAX_BASIS, the one-slot pool before it is built."""
    if weight_cap < 0 or degree_cap < 0:
        raise InvalidInputError("caps must be nonnegative")
    max_basis = max_basis_budget()
    # every slot of weight >= 1 is a one-slot class, so the pool is counted
    # before any slot is built, only until it passes the budget: over A every
    # monomial of weight 1..weight_cap, comb(nvars + weight_cap, weight_cap) - 1
    # of them, over R every word of degree <= degree_cap (and < its weight)
    if ambient == "A":
        what = "monomials of weight"
        pool = (c - 1 for c in comb_totals(nvars + weight_cap, weight_cap))
    else:
        what = f"words of degree <= {degree_cap} and weight"
        pool = accumulate(_word_count(nvars, w, degc) for w in range(1, weight_cap + 1)
                          for degc in range(min(degree_cap, w - 1) + 1))
    charge(pool, f"{what} 1..{weight_cap}, each a one-slot class")
    slots = [(s, w) for w in range(1, weight_cap + 1)
             for s in _slot_basis(ambient, nvars, w, degree_cap)]
    letters, weights = zip(*sorted(slots + [((), 0)]))  # the unit slot is letter 0
    degrees = [chain_degree(ambient, (s,)) for s in letters]
    sizes: Dict[Tuple[int, int], int] = {}

    def metered():
        classes = ((a, n - 1 + g, w) for n in range(1, degree_cap + 2)
                   for a, w, g in _necklaces(n, weights, degrees, weight_cap, degree_cap + 1 - n))
        for size, (a, deg, w) in enumerate(classes, 1):
            sizes[deg, w] = sizes.get((deg, w), 0) + 1
            if size > max_basis:
                worst = max(sizes, key=sizes.__getitem__)
                charge(size, f"cyclic classes, {sizes[worst]} of them at (degree, weight) "
                             f"= {worst}", at_least=True)
            yield a, deg, w

    return letters, sizes, metered()


def _complex(ambient: str, basis: dict, degree_cap: int) -> ChainComplexQ:
    """The complex on blocks of keys, keyed (degree, weight, ..), each sorted in place.  A
    column is its key's integer boundary terms (``_add_boundary``), each distinct face
    canonicalized into the block one degree down once per block; d o d is checked."""
    columns: Dict[tuple, List[SparseVec]] = {}
    for block, keys in sorted(basis.items()):
        keys.sort()  # the lower block is sorted before its index is taken
        deg = block[0]
        if deg == 0:
            continue
        index = {k: i for i, k in enumerate(basis.get((deg - 1,) + block[1:], []))}
        # raw face -> (sign, row) or None: a face shared by columns is canonicalized once
        rows: Dict[ChainKey, Optional[Tuple[int, int]]] = {}
        cols: List[SparseVec] = []
        for key in keys:
            raw: Dict[ChainKey, int] = {}
            _add_boundary(ambient, key, 1, raw)
            col: SparseVec = {}
            for face, v in raw.items():
                hit = rows.get(face, False) if v else None
                if hit is False:
                    hit = rows[face] = cyclic_canonical(ambient, face)
                    if hit is not None:
                        if chain_degree(ambient, hit[1]) != deg - 1:
                            raise IntegrityError("boundary is not homogeneous of degree -1")
                        if hit[1] not in index:
                            raise IntegrityError("boundary left the materialized basis")
                        hit = rows[face] = hit[0], index[hit[1]]
                if hit is not None:
                    col[hit[1]] = col.get(hit[1], 0) + hit[0] * v
            cols.append({i: c for i, c in col.items() if c})
        columns[block] = cols
    cpx = ChainComplexQ(basis, columns, degree_cap)
    _check_square_zero(cpx)
    return cpx


def build_connes_complex(
    ambient: str, nvars: int, weight_cap: int, degree_cap: int
) -> ChainComplexQ:
    """Materialize the reduced cyclic complex up to the caps, every block: the least
    rotations of the slot tuples of total weight 1..weight_cap (``_classes``)."""
    letters, _, classes = _classes(ambient, nvars, weight_cap, degree_cap)
    basis: Dict[Tuple[int, int], List[ChainKey]] = {}
    for a, deg, w in classes:
        basis.setdefault((deg, w), []).append(tuple(map(letters.__getitem__, a)))
    return _complex(ambient, basis, degree_cap)


def homology_dims(ambient: str, nvars: int, weight_cap: int, degree_cap: int) -> HomologySummary:
    """``homology(build_connes_complex(..))`` from one block per S_N orbit of multidegrees
    (sums of the slots' exponent vectors): permuting the variables is a chain isomorphism
    between the blocks of an orbit, so each block of non-increasing multidegree is built,
    checked and ranked once and counted N!/prod(mult!) times; n counts every class."""
    letters, sizes, classes = _classes(ambient, nvars, weight_cap, degree_cap)
    # a non-increasing multidegree lives on the first m variables, packed in base-``base``
    # digits without carries; a slot on any later variable packs past them all
    m, base = min(nvars, weight_cap), weight_cap + 1
    exponents = ([(i, 1) for letter in s for i in letter] if ambient == "R" else
                 [(g[1], e) for g, e in s] for s in letters)
    packed = [base ** m if any(i > m for i, _ in ie) else sum(e * base ** (m - i) for i, e in ie)
              for ie in exponents]
    orbit: Dict[int, int] = {}  # packed multidegree -> orbit size, 0 off the representatives
    blocks: Dict[Tuple[int, int, int], List[ChainKey]] = {}
    for a, deg, w in classes:
        md = sum(map(packed.__getitem__, a))
        if md not in orbit:
            orbit[md] = _orbit_size(md, nvars, m, base)
        if orbit[md]:
            blocks.setdefault((deg, w, md), []).append(tuple(map(letters.__getitem__, a)))
    ranks: Dict[Tuple[int, int], int] = {}
    for (deg, w, md), cols in _complex(ambient, blocks, degree_cap).columns.items():
        ranks[deg, w] = ranks.get((deg, w), 0) + orbit[md] * bareiss_rank(cols)
    return HomologySummary(sizes, ranks, degree_cap)


def _orbit_size(md: int, nvars: int, m: int, base: int) -> int:
    """N!/prod(mult!) for a non-increasing packed multidegree, else 0."""
    digits = [md // base ** (m - i) % base for i in range(1, m + 1)]
    if md >= base ** m or digits != sorted(digits, reverse=True):
        return 0
    mult = [digits.count(e) for e in set(digits) if e]  # the other N - sum(mult) entries are 0
    return math.perm(nvars, sum(mult)) // math.prod(map(math.factorial, mult))


def _check_square_zero(cpx: ChainComplexQ):
    """Exact check that every composite of two boundaries vanishes.

    The composite of a column is the combination of the lower columns
    weighted by its entries; every product is formed, none is sampled.
    """
    for block, cols in cpx.columns.items():
        lower = cpx.columns.get((block[0] - 1,) + block[1:])
        if not lower:
            continue
        for col in cols:
            product: SparseVec = {}
            for k, v in col.items():
                for r, c in lower[k].items():
                    product[r] = product.get(r, 0) + c * v
            if any(product.values()):
                raise IntegrityError(f"boundary squared nonzero at {block[:2]}")


def bareiss_rank(rows: Sequence[SparseVec]) -> int:
    """Rank over Q of sparse {index: entry} rows (a boundary's columns), by ``echelon``."""
    return echelon(rows).rank


def homology(cpx: ChainComplexQ) -> HomologySummary:
    """dim H = dim ker - rank of the incoming boundary, per bidegree; each
    boundary is ranked once, as the outgoing and as the incoming one."""
    ranks = {key: bareiss_rank(cols) for key, cols in cpx.columns.items()}
    return HomologySummary({key: len(keys) for key, keys in cpx.basis.items()}, ranks,
                           cpx.degree_cap)


def derham_quotient_dims(nvars: int, weight_cap: int, degree_cap: int) -> Dict[Tuple[int, int], int]:
    """Per (degree, total weight) dimensions of forms modulo exact forms.

    Degree n holds the n-forms; a (w, p) component has total weight w + p,
    and degree 0 excludes constants.  The Euler homotopy d iota + iota d = t
    makes each total weight t >= 1 exact, so the quotient in degree n is the
    rank r_n = dim(n-forms) - r_(n-1) of d out of it: no basis, no echelon.
    """
    ranks: Dict[Tuple[int, int], int] = {}
    for t in range(1, weight_cap + 1):
        r = 0
        for n in range(min(degree_cap, nvars, t) + 1):
            r = math.comb(nvars, n) * math.comb(nvars + t - n - 1, t - n) - r
            ranks[n, t] = r
    return {key: r for key, r in sorted(ranks.items()) if r}


# -- HKR maps -------------------------------------------------------------------


def hkr_eps(omega: Form) -> CyclicChain:
    """Antisymmetrization of a form into a cyclic chain over A."""
    parts = []
    for m, c in omega.body.terms.items():
        poly: Monomial = tuple((g, e) for g, e in m if g[0] == X_KIND)
        dxs = [((x_gen(g[1]), 1),) for g, e in m if g[0] == DX_KIND]
        parts.append((c, [((poly,) + tuple(dxs[j] for j in sigma), perm_sign(sigma))
                          for sigma in permutations(range(len(dxs)))]))
    return CyclicChain.from_clean(int_sum(parts), "A")


def hkr_I(chain: CyclicChain, nvars: int) -> Form:
    """(a_0, .., a_i) -> (1/i!) a_0 da_1 .. da_i, summed over the chain."""
    if chain.ambient != "A":
        raise InvalidInputError("hkr_I expects a chain over A")
    total = AlgebraElement.zero()
    for key, c in chain.terms.items():
        i = len(key) - 1
        part = Form(AlgebraElement.from_monomial(key[0], c * Fraction(1, math.factorial(i))), nvars)
        for slot in key[1:]:
            part = part * d(Form(AlgebraElement.from_monomial(slot), nvars))
        total.iadd(part.body)
    return Form(total, nvars)


# -- the closed bridge cocycle ---------------------------------------------------


def beta_cocycle(u_vars: Sequence[int], n: int, p: int) -> CyclicChain:
    """The closed chain over R attached to u_1..u_n du_{n+1}..du_{n+p}.

    The du are odd, so the chain is alternating in the du labels:

    * A repeated du label gives 0.  Take equal labels at positions a < b.
      A map that sends a and b to one block builds a letter with a repeated
      index, which is 0.  Every other map f pairs with f o (a b), which
      builds the same key with the opposite Koszul sign.
    * Reordering the du labels reorders odd symbols, so the chain picks up
      the sign of that reordering.

    The chain is therefore 0 on a repeated du label, and otherwise
    perm_sign(du) times the chain of the sorted labels, memoized per (sorted
    u, sorted du) by ``_beta_terms`` and copied, or negated, into a fresh
    chain here.
    """
    if len(u_vars) != n + p or n < 0 or p < 0:
        raise InvalidInputError("need n + p variables")
    dx = tuple(u_vars[n:])
    if len(set(dx)) < p:
        return CyclicChain("R")
    terms = _beta_terms(tuple(sorted(u_vars[:n])), tuple(sorted(dx)))
    odd = perm_sign(dx) == -1
    return CyclicChain.from_clean({k: -c for k, c in terms.items()} if odd else dict(terms), "R")


@lru_cache(maxsize=1024)
def _beta_terms(us: Tuple[int, ...], dx: Tuple[int, ...]) -> Dict[ChainKey, Fraction]:
    """The chain on sorted labels, its integer terms scaled by weight / n!; callers copy it.

    The polynomial labels are placed by their distinct orderings, each
    standing for ``weight`` of the n! permutations, and a du label never
    enters the head letter of its own label (that letter is zero).  Signs
    are summed as integers per key.
    """
    n, p = len(us), len(dx)
    orderings, weight = _label_orderings(us)
    acc: Dict[ChainKey, int] = {}
    for labels in orderings:
        heads = [[j for j, u in enumerate(labels) if u != v] for v in dx]
        for m in range(0, p + 1):
            # blocks n..n+m-1 are the barred targets, each hit at least once
            barred = list(range(n, n + m))
            allowed = [h + barred for h in heads]
            for blocks in block_maps(p, n + m, onto=barred, allowed=allowed):
                # no zero letter: dx is distinct, kept out of its own head; barred blocks nonempty
                head = _lam_word(
                    [labels[j]] + [dx[pos] for pos in blocks[j]] for j in range(n)
                )
                tail = _lam_word([dx[pos] for pos in block] for block in blocks[n:])
                key = (head[1],) + tuple((letter,) for letter in tail[1])
                # (-1)^m aligns the column grading with the boundary
                # convention used here; the one-slot part is unaffected
                sign = block_sign(blocks) * head[0] * tail[0]
                acc[key] = acc.get(key, 0) + (-sign if m % 2 else sign)
    scale = Fraction(weight, math.factorial(n))
    return {key: scale * v for key, v in acc.items() if v}


def beta_one_slot_words(beta: CyclicChain) -> RElement:
    """The single-slot component of the chain, as an element of R: each
    one-slot key is its own word, so nothing is summed."""
    return RElement.from_clean({key[0]: c for key, c in beta.terms.items() if len(key) == 1})


def eps_coalgebra(words: RElement, nvars: int) -> Form:
    """Coalgebra-side evaluation of a cyclic word collection.

    For each word, every rotation whose tail letters are all singletons
    contributes the front letter as a dx-block with the tail variables as
    polynomial coefficients.  So a word with two or more non-singleton
    letters contributes nothing, a word with one contributes only the
    rotation that puts that letter in front, and a word of singletons
    contributes every rotation.  The letters a contributing rotation moves
    past the front all have degree 0, so its graded-cyclic sign is +1.
    Each word's integer (monomial, sign) terms come from a bounded cache
    (4,096 words), and all words' terms are summed on integers.
    """
    parts = ((c, _eps_word_terms(word)) for word, c in words.terms.items())
    return Form(AlgebraElement.from_clean(int_sum(parts)), nvars)


@lru_cache(maxsize=4096)
def _eps_word_terms(word: RWord) -> Tuple[Tuple[Monomial, int], ...]:
    """The nonzero integer (monomial, sign) terms of one word, summed per monomial."""
    big = [j for j, letter in enumerate(word) if len(letter) > 1]
    if len(big) > 1:
        return ()
    acc: Dict[Monomial, int] = {}
    for j in big or range(len(word)):
        factors = [(DX_KIND, i) for i in word[j]]
        factors.extend((X_KIND, letter[0]) for i, letter in enumerate(word) if i != j)
        # the odd factors are one letter's increasing indices: nonzero, sign +1
        mono = monomial_from_factors(factors)[1]
        acc[mono] = acc.get(mono, 0) + 1
    return tuple(acc.items())


def form_from_labels(u_vars: Sequence[int], n: int, p: int, nvars: int) -> Form:
    """u_1 .. u_n du_{n+1} .. du_{n+p} as a form."""
    factors = [x_gen(u_vars[j]) for j in range(n)] + [
        dx_gen(u_vars[n + j]) for j in range(p)
    ]
    mono = monomial_from_factors(factors)
    return Form(AlgebraElement.from_clean(over(dict(signed_terms(mono)), 1)), nvars)
