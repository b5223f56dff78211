"""Reduced trace evaluators from differential forms to the abelianized resolution.

Four routes compute the same map on form classes modulo exact forms:

* ``cs_trace_raw`` -- the connection/curvature slot expansion
  sum_q 1/(q+1)! [theta . Omega^q](d omega), evaluated on the indexed
  multilinear expansion of d omega.  theta extracts the constant part of a
  coefficient and turns the dx-block into a single lam letter; Omega pairs a
  linear coefficient with its dx-block.
* ``trace_simple`` -- the closed combinatorial formula
  sum_f (-1)^f u_{1 u f^-1(1)} ... u_{n u f^-1(n)} over maps f from the
  dx labels to the polynomial labels.
* ``F_eval`` composed with d -- the same slot count with an extra target 0
  collecting a bare lam letter and an overall 1/(n+1).
* ``trace_diffop`` -- closed differential-operator forms in form degree <= 2,
  built from s^-1 d and the splitting operator D^(2,2).

Sign convention everywhere: dx symbols are odd, polynomial factors even; the
sign of a term is the parity of the permutation rearranging the dx symbols
from their source order into the concatenated target blocks (within a block,
source order is kept), times whatever signs the graded-commutative target
algebra produces when letters are sorted.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .derham import Form, bigrade_split, d
from .gcalg import (
    DX_KIND,
    X_KIND,
    AlgebraElement,
    InvalidInputError,
    Monomial,
    dx_gen,
    lam_letter,
    lam_product,
    monomial_from_factors,
    monomial_mul,
    perm_sign,
    x_gen,
)
from .resolution import s_inv


class UnsupportedDegreeError(InvalidInputError):
    """Raised when trace_diffop is asked for form degree >= 3."""


class TraceMethod(enum.Enum):
    CHERN_SIMONS_RAW = "cs"
    CHERN_SIMONS_COLLAPSED = "cs-collapsed"
    SIMPLE_FORMULA = "simple"
    DIFFOP_LOW_DEGREE = "diffop"


MultilinearTerm = Tuple[Fraction, Tuple[int, ...], Tuple[int, ...]]


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


def theta_eval(term_form) -> AlgebraElement:
    """Connection evaluator: f dx_{i1}..dx_{ip} -> f(0,..,0) lam(i1..ip)."""
    out = AlgebraElement.zero()
    for c, us, dus in expand_multilinear(term_form):
        if us or not dus:
            continue
        r = lam_letter(dus)
        if r is None:
            continue
        sign, g = r
        out.add_term(((g, 1),), sign * c)
    return out


def omega_eval(term_form) -> AlgebraElement:
    """Curvature evaluator: f dx-block -> lam(f, block) for linear f, else 0."""
    out = AlgebraElement.zero()
    for c, us, dus in expand_multilinear(term_form):
        if len(us) != 1:
            continue
        r = lam_letter((us[0],) + dus)
        if r is None:
            continue
        sign, g = r
        out.add_term(((g, 1),), sign * c)
    return out


def _slot_term(
    coeff: Fraction,
    us: Tuple[int, ...],
    dus: Tuple[int, ...],
    theta_block: Sequence[int],
    omega_blocks: Sequence[Tuple[int, Sequence[int]]],
) -> Optional[Tuple[Fraction, Monomial]]:
    """Evaluate one slot assignment.

    ``theta_block`` holds dx positions for the connection slot; each entry of
    ``omega_blocks`` is (u position, dx positions) for a curvature slot.  The
    result already includes the shuffle sign and all letter sorting signs.
    """
    prod = lam_product(
        [[dus[p] for p in theta_block]]
        + [[us[upos]] + [dus[p] for p in block] for upos, block in omega_blocks]
    )
    if prod is None:
        return None
    s, mono = prod
    shuffle = perm_sign(list(theta_block) + [p for _, b in omega_blocks for p in b])
    return coeff * shuffle * s, mono


def _assignments(
    us: Tuple[int, ...], dus: Tuple[int, ...], q: int
) -> Iterator[Tuple[Tuple[int, ...], List[Tuple[int, List[int]]]]]:
    """Surviving slot assignments for [theta . Omega^q] on one term.

    Only assignments that can evaluate to something nonzero are produced:
    the theta slot gets no polynomial factor and a nonempty dx block, and
    every curvature slot gets exactly one polynomial factor.  That forces
    q == len(us).
    """
    r = len(us)
    if q != r or not dus:
        return
    du_positions = list(range(len(dus)))
    for theta_size in range(1, len(dus) + 1):
        for theta_block in combinations(du_positions, theta_size):
            rest = [p for p in du_positions if p not in theta_block]
            for placement in product(range(r), repeat=len(rest)):
                slot_blocks: List[List[int]] = [[] for _ in range(r)]
                for pos, slot in zip(rest, placement):
                    slot_blocks[slot].append(pos)
                for perm in permutations(range(r)):
                    yield theta_block, [(perm[s], slot_blocks[s]) for s in range(r)]


def theta_omega_q(omega: Form, q: int, prune: bool = True) -> AlgebraElement:
    """[theta . Omega^q] evaluated on the multilinear expansion of a form.

    With ``prune`` the enumeration skips assignments whose slot evaluation is
    structurally zero; without it, all set partitions into q+1 slots are
    evaluated through the theta/Omega rules (used to check that q != r sums
    vanish honestly).
    """
    out: Dict[Monomial, Fraction] = {}
    for coeff, us, dus in expand_multilinear(omega):
        if prune:
            for theta_block, omega_blocks in _assignments(us, dus, q):
                r = _slot_term(coeff, us, dus, theta_block, omega_blocks)
                if r is None:
                    continue
                c, mono = r
                out[mono] = out.get(mono, Fraction(0)) + c
        else:
            unpruned = _theta_omega_q_unpruned(coeff, us, dus, q, omega.nvars)
            for mono, c in unpruned.terms.items():
                out[mono] = out.get(mono, Fraction(0)) + c
    return AlgebraElement(out)


def _theta_omega_q_unpruned(
    coeff: Fraction, us: Tuple[int, ...], dus: Tuple[int, ...], q: int, nvars: int
) -> AlgebraElement:
    """Evaluation over all ordered set partitions into q+1 slots.

    Each slot content is rebuilt as a form and fed through theta_eval or
    omega_eval, so vanishing happens inside the evaluators rather than by a
    combinatorial shortcut.
    """
    out = AlgebraElement.zero()
    n_slots = q + 1
    for u_assign in product(range(n_slots), repeat=len(us)):
        for du_assign in product(range(n_slots), repeat=len(dus)):
            du_blocks: List[List[int]] = [[] for _ in range(n_slots)]
            for pos, slot in enumerate(du_assign):
                du_blocks[slot].append(pos)
            sign = perm_sign([pos for block in du_blocks for pos in block])
            value = AlgebraElement.constant(coeff * sign)
            for slot in range(n_slots):
                factors = [x_gen(us[pos]) for pos, s in enumerate(u_assign) if s == slot]
                factors += [dx_gen(dus[pos]) for pos in du_blocks[slot]]
                mono = monomial_from_factors(factors)
                if mono is None:
                    value = AlgebraElement.zero()
                    break
                s, m = mono
                slot_form = Form(AlgebraElement.from_monomial(m, s), nvars)
                evaluated = theta_eval(slot_form) if slot == 0 else omega_eval(slot_form)
                value = value * evaluated
                if value.is_zero():
                    break
            out.iadd(value)
    return out


def cs_trace_raw(omega: Form) -> AlgebraElement:
    """sum_q 1/(q+1)! [theta . Omega^q](d omega), componentwise.

    For a component with coefficients of degree r+1 only q = r contributes;
    the pruned enumerator generates exactly those assignments.
    """
    out = AlgebraElement.zero()
    for w, p, part in bigrade_split(omega):
        if w == 0:
            continue  # constants are killed in the reduced complex
        r = w - 1
        eta = d(part)
        if eta.is_zero():
            continue
        out.iadd(theta_omega_q(eta, r), Fraction(1, math.factorial(r + 1)))
    return out


def trace_simple(omega: Form) -> AlgebraElement:
    """Closed formula: sum over maps f from dx labels to polynomial labels."""
    out: Dict[Monomial, Fraction] = {}
    for coeff, us, dus in expand_multilinear(omega):
        n, p = len(us), len(dus)
        if n == 0:
            continue
        for f in product(range(n), repeat=p):
            blocks: List[List[int]] = [[] for _ in range(n)]
            for pos, j in enumerate(f):
                blocks[j].append(pos)
            prod = lam_product([us[j]] + [dus[pos] for pos in blocks[j]] for j in range(n))
            if prod is None:
                continue
            s, mono = prod
            sign = perm_sign([pos for block in blocks for pos in block])
            out[mono] = out.get(mono, Fraction(0)) + coeff * sign * s
    return AlgebraElement(out)


def F_eval(eta: Form) -> AlgebraElement:
    """1/(n+1) sum over maps f from dx labels to {0, 1, .., n}.

    Target 0 collects a bare lam letter; it must be hit at least once (the
    connection slot kills constants).  Satisfies F(d omega) == trace_simple(omega).
    """
    out = AlgebraElement.zero()
    for w, p, part in bigrade_split(eta):
        acc: Dict[Monomial, Fraction] = {}
        for coeff, us, dus in expand_multilinear(part):
            n = len(us)
            for f in product(range(n + 1), repeat=len(dus)):
                blocks: List[List[int]] = [[] for _ in range(n + 1)]
                for pos, j in enumerate(f):
                    blocks[j].append(pos)
                if not blocks[0]:
                    continue
                prod = lam_product(
                    [[dus[pos] for pos in blocks[0]]]
                    + [[us[j - 1]] + [dus[pos] for pos in blocks[j]] for j in range(1, n + 1)]
                )
                if prod is None:
                    continue
                s, mono = prod
                sign = perm_sign([pos for block in blocks for pos in block])
                acc[mono] = acc.get(mono, Fraction(0)) + coeff * sign * s
        out.iadd(AlgebraElement(acc), Fraction(1, w + 1))
    return out


def _split_sign(positions: Sequence[int], p: int) -> int:
    """(-1)^(sum of 1-based positions - p(p-1)/2) for extracting p-1 slots."""
    e = sum(pos + 1 for pos in positions) - p * (p - 1) // 2
    return -1 if e % 2 else 1


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
    left part together with a chosen (p-1)-subset, with sign
    (-1)^(sum of chosen 1-based positions - p(p-1)/2) and prefactor 1/p!,
    and the remaining factors become a lam letter.  The derivative variables
    act on the polynomial coefficient as constant-coefficient derivations.
    """
    indices = tuple(indices)
    out: Dict[Monomial, Fraction] = {}
    for w, k, part in bigrade_split(omega):
        _validate_tuple(indices, k)
        m = len(indices)
        for mono, c0 in part.body.terms.items():
            poly = AlgebraElement.from_monomial(
                tuple((g, e) for g, e in mono if g[0] == X_KIND)
            )
            wedge = [g[1] for g, e in mono if g[0] == DX_KIND]
            # states: (coefficient poly, current wedge order, peeled letters, scalar)
            states = [(poly.scale(c0), list(wedge), [], Fraction(1))]
            for i_cur in reversed(indices[1:]):
                k_cur = len(states[0][1]) if states else 0
                p_cur = k_cur + 1 - i_cur
                if p_cur < 1:
                    states = []
                    break
                new_states = []
                for coeff_poly, vs, letters, scal in states:
                    for var in range(1, omega.nvars + 1):
                        dpoly = coeff_poly.differentiate(var)
                        if dpoly.is_zero():
                            continue
                        for chosen in combinations(range(len(vs)), p_cur - 1):
                            sign = _split_sign(chosen, p_cur)
                            left = [var] + [vs[a] for a in chosen]
                            right = [vs[a] for a in range(len(vs)) if a not in chosen]
                            r = lam_letter(right)
                            if r is None:
                                continue
                            s, g = r
                            new_states.append(
                                (
                                    dpoly,
                                    left,
                                    [g] + letters,
                                    scal * sign * s / math.factorial(p_cur),
                                )
                            )
                states = new_states
            for coeff_poly, vs, letters, scal in states:
                r = lam_letter(vs)
                if r is None:
                    continue
                s, g = r
                prod = monomial_from_factors([g] + letters)
                if prod is None:
                    continue
                s2, lam_mono = prod
                for pm, pc in coeff_poly.terms.items():
                    rr = monomial_mul(pm, lam_mono)
                    if rr is None:
                        continue
                    s3, full = rr
                    val = pc * scal * s * s2 * s3
                    out[full] = out.get(full, Fraction(0)) + val
    return AlgebraElement(out)


def hat_D_op(eta: Form, indices: Sequence[int]) -> AlgebraElement:
    """Slot-assignment operator: the (i1..im)-profile part of [theta.Omega^r]/r!.

    The connection block has size im and the nonempty curvature blocks have
    sizes i1-1, .., i_{m-1}-1 (as a multiset); all other curvature slots take
    a bare polynomial factor.
    """
    indices = tuple(indices)
    out = AlgebraElement.zero()
    for w, k, part in bigrade_split(eta):
        _validate_tuple(indices, k)
        theta_size = indices[-1]
        needed = sorted(i - 1 for i in indices[:-1])
        for coeff, us, dus in expand_multilinear(part):
            r = len(us)
            acc: Dict[Monomial, Fraction] = {}
            for theta_block, omega_blocks in _assignments(us, dus, r):
                if len(theta_block) != theta_size:
                    continue
                profile = sorted(len(b) for _, b in omega_blocks if b)
                if profile != needed:
                    continue
                term = _slot_term(coeff, us, dus, theta_block, omega_blocks)
                if term is None:
                    continue
                c, mono = term
                acc[mono] = acc.get(mono, Fraction(0)) + c
            out.iadd(AlgebraElement(acc), Fraction(1, math.factorial(r)))
    return out


def trace_diffop(omega: Form) -> AlgebraElement:
    """Closed low-degree forms: identity, s^-1 d, and s^-1 d - D^(2,2) d."""
    out = AlgebraElement.zero()
    for w, p, part in bigrade_split(omega):
        if p == 0:
            if w > 0:
                out.iadd(part.body)
            continue
        if p == 1:
            dpart = d(part)
            if not dpart.is_zero():
                out.iadd(s_inv(dpart))
            continue
        if p == 2:
            dpart = d(part)
            if not dpart.is_zero():
                out.iadd(s_inv(dpart))
                out.iadd(D_op(dpart, (2, 2)), -1)
            continue
        raise UnsupportedDegreeError(
            "trace_diffop handles form degree <= 2; use the cs or simple routes"
        )
    return out


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
    if method is TraceMethod.DIFFOP_LOW_DEGREE:
        return trace_diffop(omega)
    raise InvalidInputError(f"unknown trace method {method!r}")
