"""Graded-commutative kernel: Koszul signs, multiplication, canonicalization."""

from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from symtrace.cartan import DiagonalTraceValue
from symtrace.gcalg import (
    AlgebraElement,
    InvalidInputError,
    dx_gen,
    koszul_sign,
    lam_gen,
    lam_letter,
    lam_product,
    monomial_from_factors,
    monomial_parity,
    perm_sign,
    render,
    x_gen,
)
from symtrace.resolution import RElement


def X(i):
    return AlgebraElement.from_gen(x_gen(i))


def DX(i):
    return AlgebraElement.from_gen(dx_gen(i))


def LAM(*idx):
    return AlgebraElement.from_gen(lam_gen(idx))


class TestKoszulSign:
    def test_identity(self):
        assert koszul_sign([0, 1, 2], [1, 1, 1]) == 1
        assert koszul_sign([0, 1], [0, 0]) == 1

    def test_single_odd_swap(self):
        assert koszul_sign([1, 0], [1, 1]) == -1

    def test_swap_with_even_entry(self):
        assert koszul_sign([1, 0], [0, 1]) == 1

    def test_three_cycle_all_odd(self):
        # two adjacent odd transpositions
        assert koszul_sign([1, 2, 0], [1, 1, 1]) == 1

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            koszul_sign([0, 1], [1])

    def test_not_a_permutation(self):
        with pytest.raises(InvalidInputError):
            koszul_sign([0, 0], [1, 1])

    def test_homomorphism_on_s4(self):
        # composing permutations composes signs, for every parity vector
        for degrees in product([0, 1], repeat=4):
            signs = {
                sigma: koszul_sign(sigma, degrees)
                for sigma in permutations(range(4))
            }
            for sigma in permutations(range(4)):
                for tau in permutations(range(4)):
                    composed = tuple(sigma[tau[i]] for i in range(4))
                    # degrees seen by sigma are those permuted by tau
                    tau_degrees = [degrees[tau.index(j)] for j in range(4)]
                    lhs = signs[composed]
                    rhs = koszul_sign(tau, degrees) * koszul_sign(
                        sigma, tau_degrees
                    )
                    assert lhs == rhs


class TestMultiplication:
    def test_odd_square_is_zero(self):
        assert (DX(1) * DX(1)).is_zero()
        assert (LAM(1, 2) * LAM(1, 2)).is_zero()

    def test_odd_swap(self):
        assert DX(2) * DX(1) == -(DX(1) * DX(2))

    def test_even_power(self):
        assert render(X(1) * X(1)) == "x1^2"

    def test_even_lam_is_commutative_factor(self):
        # lam with 3 indices has even parity
        a = LAM(1, 2, 3)
        assert a * a == a**2
        assert not (a * a).is_zero()

    def test_unit(self):
        one = AlgebraElement.one()
        e = X(1) * DX(2) + 3 * LAM(1, 2)
        assert one * e == e
        assert e * one == e

    def test_add_cancel(self):
        assert (X(1) - X(1)).is_zero()
        assert (X(1) + (-1) * X(1)).terms == {}


def _small_monomials(nvars=3, weight_cap=3):
    """All monomials in x, dx, lam generators of weight <= cap."""
    from symtrace.gcalg import monomial_weight

    gens = [x_gen(i) for i in range(1, nvars + 1)]
    gens += [dx_gen(i) for i in range(1, nvars + 1)]
    gens += [lam_gen((1, 2)), lam_gen((1, 3)), lam_gen((2, 3)), lam_gen((1, 2, 3))]
    out = [()]
    frontier = [()]
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                r = monomial_from_factors([gg for gg, e in m for _ in range(e)] + [g])
                if r is None:
                    continue
                s, mono = r
                if monomial_weight(mono) <= weight_cap and mono not in out:
                    out.append(mono)
                    new.append(mono)
        frontier = new
    return out


MONOMIALS = _small_monomials()


class TestAlgebraLaws:
    def test_associativity_exhaustive(self):
        elems = [AlgebraElement.from_monomial(m) for m in MONOMIALS[:24]]
        for a in elems:
            for b in elems:
                for c in elems:
                    assert (a * b) * c == a * (b * c)

    def test_graded_commutativity_exhaustive(self):
        for m1 in MONOMIALS:
            for m2 in MONOMIALS:
                a = AlgebraElement.from_monomial(m1)
                b = AlgebraElement.from_monomial(m2)
                sign = -1 if monomial_parity(m1) and monomial_parity(m2) else 1
                assert a * b == sign * (b * a)

    @given(st.lists(st.sampled_from(MONOMIALS), min_size=1, max_size=4),
           st.lists(st.fractions(), min_size=1, max_size=4))
    def test_no_zero_coefficients_stored(self, monos, coeffs):
        terms = {}
        for m, c in zip(monos, coeffs):
            terms[m] = terms.get(m, Fraction(0)) + c
        e = AlgebraElement(terms)
        assert all(c != 0 for c in e.terms.values())
        # canonicalization is idempotent
        assert AlgebraElement(e.terms) == e


class TestSubstituteZero:
    def test_keeps_constant_and_pure_dx(self):
        e = AlgebraElement.constant(3) + X(1) + DX(1) * DX(2)
        expected = AlgebraElement.constant(3) + DX(1) * DX(2)
        assert e.substitute_zero() == expected

    def test_kills_mixed(self):
        assert (X(1) * DX(2)).substitute_zero().is_zero()


class TestLamLetter:
    def test_sorting_sign(self):
        sign, g = lam_letter([2, 1])
        assert sign == -1 and g == lam_gen((1, 2))

    def test_repeat_is_zero(self):
        assert lam_letter([1, 1]) is None

    def test_singleton_collapses(self):
        sign, g = lam_letter([3])
        assert sign == 1 and g == x_gen(3)


class TestRendering:
    def test_canonical_text(self):
        e = Fraction(3, 2) * (X(1) ** 2 * DX(2) * LAM(1, 3))
        assert render(e) == "3/2*x1^2*dx2*lam[1,3]"

    def test_zero(self):
        assert render(AlgebraElement.zero()) == "0"

    def test_generator_order(self):
        # dx3 crosses the odd lam[1,2] while sorting
        assert render(LAM(1, 2) * DX(3) * X(2)) == "-x2*dx3*lam[1,2]"
        assert render(X(2) * DX(3) * LAM(1, 2)) == "x2*dx3*lam[1,2]"

    def test_differentiate(self):
        e = X(1) ** 2 * X(2)
        assert e.differentiate(1) == 2 * (X(1) * X(2))
        assert e.differentiate(2) == X(1) ** 2
        assert e.differentiate(3).is_zero()


class TestLinComb:
    def test_sum_and_difference_leave_operands_unchanged(self):
        a = X(1) + 2 * DX(2)
        b = DX(2) - X(3)
        a_terms, b_terms = dict(a.terms), dict(b.terms)
        assert a + b == X(1) + 3 * DX(2) - X(3)
        assert a - b == X(1) + DX(2) + X(3)
        assert a.terms == a_terms and b.terms == b_terms
        r, s = RElement.from_word(((1,),)), RElement.from_word(((1, 2),), 2)
        assert (r + s).terms == {((1,),): 1, ((1, 2),): 2}
        assert (r - s).terms == {((1,),): 1, ((1, 2),): -2}
        assert r.terms == {((1,),): 1} and s.terms == {((1, 2),): 2}

    def test_in_place_sums_drop_cancelled_entries(self):
        fresh = 2 * X(1) + DX(2)
        acc = AlgebraElement.zero()
        acc.iadd(X(1) + X(3), 2)
        acc.add_term(((dx_gen(2), 1),), Fraction(1))
        acc.iadd(X(3), -2)
        assert acc.terms == fresh.terms
        assert acc == fresh and hash(acc) == hash(fresh)
        acc.add_term(((dx_gen(2), 1),), Fraction(-1))
        acc.iadd(X(1), -2)
        assert acc.terms == {} and acc == AlgebraElement.zero()

    def test_diagonal_sum_across_slot_counts_raises(self):
        one, two = DiagonalTraceValue.zero(1), DiagonalTraceValue.zero(2)
        with pytest.raises(InvalidInputError):
            one + two
        with pytest.raises(InvalidInputError):
            one.iadd(two)


def _inversion_parity(seq):
    inv = sum(1 for a in range(len(seq)) for b in range(a + 1, len(seq)) if seq[a] > seq[b])
    return -1 if inv % 2 else 1


class TestPermSign:
    def test_matches_inversion_count(self):
        for n in range(7):
            for sigma in permutations(range(n)):
                assert perm_sign(sigma) == _inversion_parity(sigma)

    def test_items_need_not_be_a_permutation(self):
        assert perm_sign([3, 7, 5]) == -1
        assert perm_sign(()) == 1


class TestLamProduct:
    def test_matches_letters_then_product(self):
        args = [
            blk
            for size in range(0, 4)
            for blk in product(range(1, 4), repeat=size)
        ]
        for nblocks in range(1, 4):
            for blocks in product(args, repeat=nblocks):
                letters = [lam_letter(b) for b in blocks]
                expected = None
                if None not in letters:
                    prod = monomial_from_factors([g for _, g in letters])
                    if prod is not None:
                        sign = prod[0]
                        for s, _ in letters:
                            sign *= s
                        expected = (sign, prod[1])
                assert lam_product(blocks) == expected
