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
executable checks in the test suite.

The bridge element attached to u_1 .. u_n du_{n+1} .. du_{n+p} is

  (1/n!) sum_{sigma} sum_{m=0}^{p} sum_f (-1)^f
      u_{sigma(1) u f^-1(1)} ... u_{sigma(n) u f^-1(n)}
      (x) u_{f^-1(bar 1)} (x) ... (x) u_{f^-1(bar m)},

f ranging over maps from the du labels to {1..n, bar 1..bar m} hitting every
barred target.  It is closed under the total differential; its one-slot part
abelianizes to the combinatorial trace formula, and rewriting the one-slot
words as coalgebra tensors and keeping the terms with at most one non-linear
factor recovers the de Rham differential of the input.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations, product
from typing import Dict, List, Optional, Sequence, Tuple

from .derham import Form, d, monomial_basis
from .gcalg import (
    DX_KIND,
    X_KIND,
    AlgebraElement,
    IntegrityError,
    InvalidInputError,
    LinComb,
    Monomial,
    ResourceLimitError,
    dx_gen,
    max_basis_budget,
    monomial_from_factors,
    monomial_mul,
    monomial_weight,
    perm_sign,
    x_gen,
)
from .resolution import (
    RElement,
    RWord,
    _lam_word,
    abelianize,
    delta_R,
    r_word_basis,
    word_degree,
    word_weight,
)
from .trace import trace_simple


# Slots: ambient "A" uses polynomial monomials, ambient "R" uses words.
Slot = Tuple
ChainKey = Tuple[Slot, ...]


def _slot_degree(ambient: str, slot: Slot) -> int:
    return word_degree(slot) if ambient == "R" else 0


def _slot_weight(ambient: str, slot: Slot) -> int:
    return word_weight(slot) if ambient == "R" else monomial_weight(slot)


def _slot_mul(ambient: str, a: Slot, b: Slot) -> Tuple[int, Slot]:
    if ambient == "R":
        return 1, a + b
    # polynomial slots are even; the product never vanishes
    return monomial_mul(a, b)


def chain_degree(ambient: str, key: ChainKey) -> int:
    return len(key) - 1 + sum(_slot_degree(ambient, s) for s in key)


def chain_weight(ambient: str, key: ChainKey) -> int:
    return sum(_slot_weight(ambient, s) for s in key)


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
        out: Dict[ChainKey, Fraction] = {}
        for key, c in self.terms.items():
            r = cyclic_canonical(self.ambient, key)
            if r is None:
                continue
            sign, canon = r
            out[canon] = out.get(canon, Fraction(0)) + sign * c
        return CyclicChain(self.ambient, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclicChain):
            return NotImplemented
        return (
            self.ambient == other.ambient
            and self.canonicalized().terms == other.canonicalized().terms
        )


def _tau(ambient: str, key: ChainKey) -> Tuple[int, ChainKey]:
    """Rotate the last slot to the front, with the suspended Koszul sign."""
    last = key[-1]
    sd = _slot_degree(ambient, last) + 1
    rest = sum(_slot_degree(ambient, s) + 1 for s in key[:-1])
    sign = -1 if (sd * rest) % 2 else 1
    return sign, (last,) + key[:-1]


def cyclic_canonical(ambient: str, key: ChainKey) -> Optional[Tuple[int, ChainKey]]:
    """Least rotation with tracked sign; None when the class is zero."""
    best = key
    best_sign = 1
    cur = key
    sign = 1
    zero = False
    for _ in range(len(key) - 1):
        s, cur = _tau(ambient, cur)
        sign *= s
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
    """Cyclic Hochschild boundary plus the slotwise internal differential."""
    ambient = chain.ambient
    out: Dict[ChainKey, Fraction] = {}

    def emit(key: ChainKey, c: Fraction):
        if c:
            out[key] = out.get(key, Fraction(0)) + c

    for key, c in chain.terms.items():
        m = len(key) - 1
        sus = [_slot_degree(ambient, s) + 1 for s in key]
        if m >= 1:
            prefix = 0
            for i in range(m):
                prefix += sus[i]
                sign = -1 if prefix % 2 else 1
                s2, merged = _slot_mul(ambient, key[i], key[i + 1])
                emit(key[:i] + (merged,) + key[i + 2 :], sign * s2 * c)
            tau_sign, rotated = _tau(ambient, key)
            wrap_sign = tau_sign * (-1 if sus[-1] % 2 else 1)
            s2, merged = _slot_mul(ambient, rotated[0], rotated[1])
            emit((merged,) + rotated[2:], wrap_sign * s2 * c)
        if ambient == "R":
            prefix = 0
            for i in range(m + 1):
                dslot = delta_R(RElement.from_word(key[i]))
                if not dslot.is_zero():
                    sign = -1 if prefix % 2 else 1
                    for word, cw in dslot.terms.items():
                        emit(key[:i] + (word,) + key[i + 1 :], sign * c * cw)
                prefix += sus[i]
    return CyclicChain(ambient, out)


# -- materialized complexes ----------------------------------------------------


class ChainComplexQ:
    """Bigraded complex with labeled bases and exact boundary matrices."""

    def __init__(self, basis: Dict[Tuple[int, int], List[ChainKey]],
                 matrices: Dict[Tuple[int, int], List[List[Fraction]]],
                 degree_cap: int, weight_cap: int):
        self.basis = basis
        self.matrices = matrices  # (deg, w) -> matrix of partial_deg, rows = deg-1 basis
        self.degree_cap = degree_cap
        self.weight_cap = weight_cap

    def dim(self, deg: int, w: int) -> int:
        return len(self.basis.get((deg, w), []))


class HomologySummary:
    def __init__(self, dims: Dict[Tuple[int, int], int]):
        self.dims = dims

    def dim(self, deg: int, w: int) -> int:
        return self.dims.get((deg, w), 0)

    def table(self) -> Dict[str, int]:
        return {f"deg={d},weight={w}": v for (d, w), v in sorted(self.dims.items())}


def _slot_basis(ambient: str, nvars: int, weight: int) -> List[Slot]:
    if ambient == "A":
        return list(monomial_basis(nvars, weight))
    out: List[Slot] = []
    for degc in range(weight):
        out.extend(r_word_basis(nvars, weight, degc))
    return out


def build_connes_complex(
    ambient: str, nvars: int, weight_cap: int, degree_cap: int,
    max_basis: Optional[int] = None,
) -> ChainComplexQ:
    """Materialize the reduced cyclic complex up to the caps.

    Basis elements are canonical rotations of slot tuples of total weight
    1..weight_cap; the boundary is checked to square to zero.  The basis
    budget defaults to the SYMTRACE_MAX_BASIS environment variable.
    """
    if weight_cap < 0 or degree_cap < 0:
        raise InvalidInputError("caps must be nonnegative")
    if max_basis is None:
        max_basis = max_basis_budget()
    slot_pool: Dict[int, List[Slot]] = {
        w: _slot_basis(ambient, nvars, w) for w in range(1, weight_cap + 1)
    }
    slot_pool[0] = [()]  # the unit slot, shared by both ambients

    basis: Dict[Tuple[int, int], List[ChainKey]] = {}
    seen: Dict[Tuple[int, int], set] = {}

    def consider(key: ChainKey):
        degree = chain_degree(ambient, key)
        w = chain_weight(ambient, key)
        if degree > degree_cap or w > weight_cap or w < 1:
            return
        r = cyclic_canonical(ambient, key)
        if r is None:
            return
        _, canon = r
        bucket = seen.setdefault((degree, w), set())
        if canon not in bucket:
            bucket.add(canon)
            basis.setdefault((degree, w), []).append(canon)

    def tuples(slots_left: int, weight_left: int, acc: List[Slot]):
        if slots_left == 0:
            consider(tuple(acc))
            return
        for w in range(0, weight_left + 1):
            for s in slot_pool.get(w, []):
                if ambient == "R" and _slot_degree(ambient, s) + len(acc) > degree_cap + 1:
                    continue
                acc.append(s)
                tuples(slots_left - 1, weight_left - w, acc)
                acc.pop()

    total = 0
    for nslots in range(1, degree_cap + 2):
        tuples(nslots, weight_cap, [])
        total = sum(len(v) for v in basis.values())
        if total > max_basis:
            worst = max(basis, key=lambda k: len(basis[k]))
            raise ResourceLimitError(
                f"cyclic basis exceeded budget {max_basis}; largest bidegree "
                f"(degree, weight) = {worst} holds {len(basis[worst])} classes"
            )

    for key in basis:
        basis[key].sort()

    matrices: Dict[Tuple[int, int], List[List[Fraction]]] = {}
    for (deg, w), keys in sorted(basis.items()):
        if deg == 0:
            continue
        lower = basis.get((deg - 1, w), [])
        index = {k: i for i, k in enumerate(lower)}
        mat = [[Fraction(0)] * len(keys) for _ in range(len(lower))]
        for col, key in enumerate(keys):
            img = boundary(CyclicChain(ambient, {key: Fraction(1)})).canonicalized()
            for k2, c in img.terms.items():
                if chain_degree(ambient, k2) != deg - 1:
                    raise IntegrityError("boundary is not homogeneous of degree -1")
                if k2 not in index:
                    raise IntegrityError("boundary left the materialized basis")
                mat[index[k2]][col] = c
        matrices[(deg, w)] = mat

    cpx = ChainComplexQ(basis, matrices, degree_cap, weight_cap)
    _check_square_zero(cpx)
    return cpx


def _check_square_zero(cpx: ChainComplexQ):
    for (deg, w), mat in cpx.matrices.items():
        lower = cpx.matrices.get((deg - 1, w))
        if not lower or not mat:
            continue
        cols = len(mat[0]) if mat else 0
        for col in range(cols):
            for row in range(len(lower)):
                v = sum(lower[row][k] * mat[k][col] for k in range(len(mat)))
                if v != 0:
                    raise IntegrityError(f"boundary squared nonzero at ({deg}, {w})")


def bareiss_rank(rows: List[List[int]]) -> int:
    """Fraction-free Gaussian elimination rank of an integer matrix."""
    if not rows or not rows[0]:
        return 0
    m = [row[:] for row in rows]
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(row, n_rows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        for r in range(row + 1, n_rows):
            for c in range(col + 1, n_cols):
                m[r][c] = (m[row][col] * m[r][c] - m[r][col] * m[row][c]) // prev
            m[r][col] = 0
        prev = m[row][col]
        rank += 1
        row += 1
        if row == n_rows:
            break
    return rank


def _rank(mat: List[List[Fraction]]) -> int:
    if not mat or not mat[0]:
        return 0
    int_rows: List[List[int]] = []
    for row in mat:
        denom = 1
        for v in row:
            denom = denom * v.denominator // math.gcd(denom, v.denominator)
        int_rows.append([int(v * denom) for v in row])
    return bareiss_rank(int_rows)


def homology(cpx: ChainComplexQ) -> HomologySummary:
    """dim H = dim ker - rank of the incoming boundary, per bidegree."""
    dims: Dict[Tuple[int, int], int] = {}
    keys = set(cpx.basis)
    for deg, w in sorted(keys):
        if deg >= cpx.degree_cap:
            continue  # the incoming boundary is outside the materialized caps
        n = cpx.dim(deg, w)
        if n == 0:
            continue
        rank_out = _rank(cpx.matrices.get((deg, w), []))
        rank_in = _rank(cpx.matrices.get((deg + 1, w), []))
        h = n - rank_out - rank_in
        if h:
            dims[(deg, w)] = h
    return HomologySummary(dims)


def derham_quotient_dims(nvars: int, weight_cap: int, degree_cap: int) -> Dict[Tuple[int, int], int]:
    """Per (degree, total weight) dimensions of forms modulo exact forms.

    Degree n holds the n-forms; the total weight of a (w, p) component is
    w + p.  The quotient divides out d of the (n-1)-forms of the same total
    weight; degree 0 excludes constants.
    """
    from .derham import form_basis

    dims: Dict[Tuple[int, int], int] = {}
    for n in range(degree_cap + 1):
        for total_w in range(1, weight_cap + 1):
            poly_w = total_w - n
            if poly_w < 0:
                continue
            target = form_basis(nvars, poly_w, n)
            if not target:
                continue
            dim_target = len(target)
            rank_d = 0
            if n >= 1 and poly_w + 1 >= 0:
                source = form_basis(nvars, poly_w + 1, n - 1)
                index = {mki: i for i, mki in enumerate(target)}
                mat: List[List[Fraction]] = [
                    [Fraction(0)] * len(source) for _ in range(len(target))
                ]
                for col, mono in enumerate(source):
                    img = d(Form(AlgebraElement.from_monomial(mono), nvars))
                    for m2, c in img.body.terms.items():
                        mat[index[m2]][col] = c
                rank_d = _rank(mat)
            hdim = dim_target - rank_d
            if n == 0:
                hdim = dim_target  # constants already excluded by weight >= 1
            if hdim:
                dims[(n, total_w)] = hdim
    return dims


# -- HKR maps -------------------------------------------------------------------


def hkr_eps(omega: Form) -> CyclicChain:
    """Antisymmetrization of a form into a cyclic chain over A."""
    out: Dict[ChainKey, Fraction] = {}
    for m, c in omega.body.terms.items():
        poly: Monomial = tuple((g, e) for g, e in m if g[0] == X_KIND)
        dxs = [g[1] for g, e in m if g[0] == DX_KIND]
        i = len(dxs)
        if i == 0:
            key = (poly,)
            out[key] = out.get(key, Fraction(0)) + c
            continue
        for sigma in permutations(range(i)):
            sign = perm_sign(sigma)
            key = (poly,) + tuple(((x_gen(dxs[j]), 1),) for j in sigma)
            out[key] = out.get(key, Fraction(0)) + sign * c
    return CyclicChain("A", out)


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


def _barred_maps(du_labels: Sequence[int], n: int, m: int):
    """Maps f: du labels -> {1..n} u {bar 1..bar m}, onto the barred part.

    Targets 1..n are encoded as 1..n and bar j as -j.
    """
    targets = list(range(1, n + 1)) + [-j for j in range(1, m + 1)]
    for f in product(targets, repeat=len(du_labels)):
        hit = {t for t in f if t < 0}
        if len(hit) == m:
            yield f


def beta_cocycle(u_vars: Sequence[int], n: int, p: int) -> CyclicChain:
    """The closed chain over R attached to u_1..u_n du_{n+1}..du_{n+p}."""
    if len(u_vars) != n + p or n < 0 or p < 0:
        raise InvalidInputError("need n + p variables")
    out: Dict[ChainKey, Fraction] = {}
    du_positions = list(range(p))
    for sigma in permutations(range(n)):
        for m in range(0, p + 1):
            for f in _barred_maps(du_positions, n, m):
                blocks: List[List[int]] = [[] for _ in range(n)]
                barred: List[List[int]] = [[] for _ in range(m)]
                for pos, target in zip(du_positions, f):
                    if target > 0:
                        blocks[target - 1].append(pos)
                    else:
                        barred[-target - 1].append(pos)
                head = _lam_word(
                    [u_vars[sigma[j]]] + [u_vars[n + pos] for pos in blocks[j]]
                    for j in range(n)
                )
                if head is None:
                    continue
                tail = _lam_word([u_vars[n + pos] for pos in block] for block in barred)
                if tail is None:
                    continue
                key = (head[1],) + tuple((letter,) for letter in tail[1])
                sign = perm_sign([pos for block in blocks + barred for pos in block])
                # (-1)^m aligns the column grading with the boundary
                # convention used here; the one-slot part is unaffected
                coeff = Fraction(sign * head[0] * tail[0] * (-1) ** m, math.factorial(n))
                out[key] = out.get(key, Fraction(0)) + coeff
    return CyclicChain("R", out)


def beta_one_slot_words(beta: CyclicChain) -> RElement:
    """The single-slot component of the chain, as an element of R."""
    out: Dict[RWord, Fraction] = {}
    for key, c in beta.terms.items():
        if len(key) == 1:
            out[key[0]] = out.get(key[0], Fraction(0)) + c
    return RElement(out)


def eps_coalgebra(words: RElement, nvars: int) -> Form:
    """Coalgebra-side evaluation of a cyclic word collection.

    For each word, every rotation whose tail letters are all singletons
    contributes the front letter as a dx-block with the tail variables as
    polynomial coefficients; rotations carry the graded-cyclic sign of R.
    Words with two or more non-singleton letters contribute nothing.
    """
    total = AlgebraElement.zero()
    for word, c in words.terms.items():
        s = len(word)
        degs = [len(l) - 1 for l in word]
        for j in range(s):
            if any(len(word[i]) > 1 for i in range(s) if i != j):
                continue
            moved = sum(degs[:j])
            rest = sum(degs[j:])
            sign = -1 if (moved * rest) % 2 else 1
            factors = [dx_gen(i) for i in word[j]]
            for i2 in range(s):
                if i2 != j:
                    factors.append(x_gen(word[i2][0]))
            mono = monomial_from_factors(factors)
            if mono is None:
                continue
            s2, m = mono
            total.add_term(m, sign * s2 * c)
    return Form(total, nvars)


def form_from_labels(u_vars: Sequence[int], n: int, p: int, nvars: int) -> Form:
    """u_1 .. u_n du_{n+1} .. du_{n+p} as a form."""
    factors = [x_gen(u_vars[j]) for j in range(n)] + [
        dx_gen(u_vars[n + j]) for j in range(p)
    ]
    mono = monomial_from_factors(factors)
    if mono is None:
        return Form.zero(nvars)
    s, m = mono
    return Form(AlgebraElement.from_monomial(m, s), nvars)


def verify_conj1(nvars: int, cap: int):
    """Run the three-way route check on all variable tuples with n + p <= cap.

    For each input: the bridge chain is closed; its one-slot abelianization
    equals the combinatorial trace of the corresponding form; its coalgebra
    image equals the de Rham differential of the form.  Returns
    (failures, cases).
    """
    failures = []
    cases = 0
    for total in range(1, cap + 1):
        for n in range(0, total + 1):
            p = total - n
            for u_vars in product(range(1, nvars + 1), repeat=total):
                cases += 1
                beta = beta_cocycle(u_vars, n, p)
                db = boundary(beta).canonicalized()
                if not db.is_zero():
                    failures.append((u_vars, n, p, "not closed"))
                    continue
                alpha = form_from_labels(u_vars, n, p, nvars)
                words = beta_one_slot_words(beta)
                lhs = abelianize(words)
                rhs = trace_simple(alpha)
                if lhs != rhs:
                    failures.append((u_vars, n, p, "one-slot projection != trace"))
                    continue
                co = eps_coalgebra(words, nvars)
                if co != d(alpha):
                    failures.append((u_vars, n, p, "coalgebra image != d(form)"))
    return failures, cases
