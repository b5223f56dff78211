"""Minimal resolution: shuffle differential, abelianization, s^-1 embedding."""

import time
from fractions import Fraction
from math import comb
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from symtrace.derham import Form
from symtrace.gcalg import (
    AlgebraElement,
    InvalidInputError,
    dx_gen,
    lam_gen,
    shuffles,
    x_gen,
)
from symtrace import resolution
from symtrace.resolution import (
    RElement,
    abelianize,
    delta_letter,
    delta_R,
    lam_element,
    r_word_basis,
    s_inv,
    word_commutator,
    word_degree,
    word_weight,
)


def X(i):
    return AlgebraElement.from_gen(x_gen(i))


def DX(i):
    return AlgebraElement.from_gen(dx_gen(i))


def word(*letters):
    return RElement.from_word(tuple(letters))


def commutator(a, b):
    """[a, b] on elements, by the term-dict commutator that the package runs."""
    return RElement(word_commutator(a.terms, b.terms))


class TestDifferential:
    def test_two_letter(self):
        # delta lam(v1, v2) = -[v1, v2]
        got = delta_R(lam_element((1, 2)))
        expected = -(word((1,), (2,)) - word((2,), (1,)))
        assert got == expected

    def test_three_letter_matches_cyclic_form(self):
        # delta lam(v1,v2,v3) = -[v1, lam(2,3)] - [v2, lam(3,1)] - [v3, lam(1,2)]
        got = delta_R(lam_element((1, 2, 3)))
        expected = RElement.zero()
        for head, pair in [(1, (2, 3)), (2, (3, 1)), (3, (1, 2))]:
            expected = expected - commutator(word((head,)), lam_element(pair))
        assert got == expected

    def test_singleton_closed(self):
        assert delta_R(lam_element((1,))).is_zero()

    def test_square_zero_letters(self):
        for k in range(1, 5):
            for idx in combinations(range(1, 5), k):
                assert delta_R(delta_R(lam_element(idx))).is_zero()

    def test_square_zero_words(self):
        for w in range(1, 5):
            for deg in range(0, w):
                for wd in r_word_basis(3, w, deg):
                    if wd:
                        assert delta_R(delta_R(RElement.from_word(wd))).is_zero()

    def test_weight_preserved_degree_drops(self):
        e = lam_element((1, 2, 3))
        de = delta_R(e)
        for wd in de.terms:
            assert word_weight(wd) == 3
            assert word_degree(wd) == 1


def _degreewise_commutator(a, b):
    """[a, b] summed over pairs of homogeneous components, as products."""
    def components(e):
        parts = {}
        for wd, c in e.terms.items():
            parts.setdefault(word_degree(wd), {})[wd] = c
        return {deg: RElement(t) for deg, t in parts.items()}

    out = RElement.zero()
    for da, ea in components(a).items():
        for db, eb in components(b).items():
            out = out + ea * eb - (-1) ** (da * db) * (eb * ea)
    return out


LETTERS = [l for k in (1, 2, 3) for l in combinations((1, 2, 3), k)]

r_elements = st.dictionaries(
    st.lists(st.sampled_from(LETTERS), max_size=3).map(tuple),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    max_size=5,
).map(RElement)


class TestCommutator:
    def test_odd_odd_is_the_anticommutator(self):
        a, b = lam_element((1, 2)), lam_element((1, 3))
        assert commutator(a, b) == word((1, 2), (1, 3)) + word((1, 3), (1, 2))

    def test_even_odd_is_the_plain_commutator(self):
        a, b = word((1,)), lam_element((1, 2))
        assert commutator(a, b) == word((1,), (1, 2)) - word((1, 2), (1,))

    def test_odd_square_doubles_and_even_square_vanishes(self):
        assert commutator(lam_element((1, 2)), lam_element((1, 2))) == 2 * word((1, 2), (1, 2))
        assert commutator(word((1,), (2,)), word((1,), (2,))).is_zero()

    @settings(deadline=None, max_examples=200)
    @given(r_elements, r_elements)
    def test_matches_the_degreewise_reference(self, a, b):
        assert commutator(a, b) == _degreewise_commutator(a, b)

    @settings(deadline=None)
    @given(r_elements, r_elements)
    def test_graded_antisymmetry(self, a, b):
        # [a, b] = -(-1)^{|a||b|} [b, a] on homogeneous parts
        for wa, ca in a.terms.items():
            for wb, cb in b.terms.items():
                x, y = RElement({wa: ca}), RElement({wb: cb})
                sign = (-1) ** (word_degree(wa) * word_degree(wb))
                assert commutator(x, y) == -sign * commutator(y, x)


class TestAbelianize:
    def test_commutator_dies(self):
        e = word((1,), (2,)) - word((2,), (1,))
        assert abelianize(e).is_zero()

    def test_mixed_word(self):
        e = word((1, 2), (1,))
        assert abelianize(e) == X(1) * AlgebraElement.from_gen(lam_gen((1, 2)))

    def test_delta_lands_in_commutators(self):
        for w in range(1, 6):
            for deg in range(0, w):
                for wd in r_word_basis(3, w, deg):
                    if wd:
                        e = RElement.from_word(wd)
                        assert abelianize(delta_R(e)).is_zero()

    def test_degree_preserved(self):
        from symtrace.gcalg import monomial_degree

        e = word((1, 2), (1, 2, 3))
        ab = abelianize(e)
        for m in ab.terms:
            assert monomial_degree(m) == word_degree(((1, 2), (1, 2, 3)))

    def test_odd_letter_square_vanishes(self):
        assert abelianize(word((1, 2), (1, 2))).is_zero()


class TestSInv:
    def test_basic(self):
        got = s_inv(Form(X(1) * DX(2) * DX(3), 3))
        assert got == X(1) * AlgebraElement.from_gen(lam_gen((2, 3)))

    def test_sorting_sign(self):
        got = s_inv(Form(DX(2) * DX(1), 2))
        assert got == -AlgebraElement.from_gen(lam_gen((1, 2)))

    def test_repeated_dx_is_zero_form(self):
        assert (DX(1) * DX(1)).is_zero()

    def test_degree_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            s_inv(Form(X(1), 2))

    def test_singleton_becomes_variable(self):
        assert s_inv(Form(X(1) * DX(2), 2)) == X(1) * X(2)


class TestWordBasis:
    def test_counts_small(self):
        # N=2, weight 2, degree 0: words (1)(1), (1)(2), (2)(1), (2)(2)
        assert len(r_word_basis(2, 2, 0)) == 4
        # N=2, weight 2, degree 1: the single pair letter
        assert r_word_basis(2, 2, 1) == [((1, 2),)]

    def test_empty_word(self):
        assert r_word_basis(2, 0, 0) == [()]

    def test_equals_the_recursive_reference(self):
        for nvars in range(5):
            for weight in range(8):
                for degree in range(7):
                    expected = _reference_word_basis(nvars, weight, degree)
                    assert r_word_basis(nvars, weight, degree) == expected, (nvars, weight, degree)

    def test_count_equals_the_basis_size(self):
        for nvars in range(5):
            for weight in range(7):
                for degree in range(6):
                    size = len(r_word_basis(nvars, weight, degree))
                    assert resolution._word_count(nvars, weight, degree) == size
        assert resolution._word_count(7, 7, 0) == 7 ** 7
        assert resolution._word_count(3, 2, 3) == resolution._word_count(3, 2, -1) == 0

    def test_equals_the_cut_and_filter_reference(self):
        for nvars in range(5):
            for weight in range(10):
                for degree in range(weight + 1):
                    expected = _cut_and_filter_word_basis(nvars, weight, degree)
                    assert r_word_basis(nvars, weight, degree) == expected, (nvars, weight, degree)

    def test_one_variable_bases_of_weight_100_build_at_once(self):
        # cutting the weight every way would walk 2^99 compositions per degree
        t0 = time.perf_counter()
        bases = [r_word_basis(1, 100, degree) for degree in range(100)]
        assert time.perf_counter() - t0 < 1
        assert bases == [[((1,),) * 100]] + [[]] * 99

    def test_only_the_letter_sizes_a_word_can_hold_are_enumerated(self):
        # 60 variables: the subsets of size 30 alone would number about 10^17
        assert len(r_word_basis(60, 2, 1)) == comb(60, 2)

    def test_long_words_need_no_recursion(self):
        # 1,100 one-variable letters: a recursion one letter deep per call overflows
        assert r_word_basis(1, 1100, 0) == [((1,),) * 1100]
        assert r_word_basis(1, 1100, 1) == []


def _cut_and_filter_word_basis(nvars, weight, degree):
    """The enumeration the composition walk replaced: every way of cutting the
    weight into weight - degree letter sizes, kept when no size exceeds nvars."""
    nletters = weight - degree
    if not 0 < nletters <= weight:
        return [()] if weight == degree == 0 else []
    out = []
    for cuts in combinations(range(1, weight), nletters - 1):
        sizes = [b - a for a, b in zip((0,) + cuts, cuts + (weight,))]
        if max(sizes) <= nvars:
            out.extend(product(*(combinations(range(1, nvars + 1), k) for k in sizes)))
    out.sort()
    return out


def _reference_word_basis(nvars, weight, degree):
    """The recursive enumeration the flat one replaced: letters appended one
    at a time, sorted by (length, word)."""
    letters = [c for k in range(1, nvars + 1) for c in combinations(range(1, nvars + 1), k)]
    result = []

    def rec(acc, w, dg):
        if w == weight and dg == degree:
            result.append(tuple(acc))
        if w >= weight:
            return
        for letter in letters:
            if w + len(letter) <= weight and dg + len(letter) - 1 <= degree:
                acc.append(letter)
                rec(acc, w + len(letter), dg + len(letter) - 1)
                acc.pop()

    rec([], 0, 0)
    result.sort(key=lambda word: (len(word), word))
    return result


class TestDeltaLetterMemo:
    def test_argument_kinds_agree_and_memo_is_bounded(self):
        for letter in [(1, 2), (1, 2, 3), (1, 2, 3, 4), (2,)]:
            expected = delta_letter(letter)
            assert delta_letter(list(letter)) == expected
            assert delta_R(RElement.from_word((letter,))) == expected
            assert RElement(dict(resolution._delta_letter_terms.__wrapped__(letter))) == expected
        maxsize = resolution._delta_letter_terms.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0

    def test_each_call_returns_a_fresh_element(self):
        first = delta_letter((1, 2, 3))
        first.iadd(first)
        assert delta_letter((1, 2, 3)) != first
        assert delta_letter((1, 2, 3)) == delta_letter([1, 2, 3])


def _reference_delta_letter(letter):
    """delta of a letter on the Fraction path it was built by before it ran
    on integers: a fresh element per block, commutators of elements."""
    n = len(letter)
    out = RElement.zero()
    for p in range(1, n // 2 + 1):
        for first, second, sign_sh in shuffles(n, p):
            if p == n - p and 0 not in first:
                continue
            a = lam_element([letter[i] for i in first])
            b = lam_element([letter[i] for i in second])
            out.iadd(commutator(a, b), (-1 if p % 2 else 1) * sign_sh)
    return out


def _reference_delta_R(e):
    """The derivation that splices each reference letter differential in with
    the Koszul sign of the letters before it."""
    out = {}
    for wd, c in e.terms.items():
        prefix_deg = 0
        for pos, letter in enumerate(wd):
            sign = -1 if prefix_deg % 2 else 1
            for mid, cm in _reference_delta_letter(letter).terms.items():
                w = wd[:pos] + mid + wd[pos + 1:]
                out[w] = out.get(w, Fraction(0)) + sign * c * cm
            prefix_deg += len(letter) - 1
    return RElement(out)


class TestIntegerDelta:
    def test_every_small_word_matches_the_fraction_reference(self):
        # every word with N <= 3, weight <= 5, degree <= 4: the same terms in
        # the same order, integer in delta_word and Fraction in delta_R
        checked = nonzero = 0
        for nvars in (1, 2, 3):
            for w in range(6):
                for deg in range(5):
                    for wd in r_word_basis(nvars, w, deg):
                        ref = _reference_delta_R(RElement.from_word(wd))
                        terms = resolution.delta_word(wd)
                        assert terms == tuple(ref.terms.items())
                        assert all(type(c) is int for _, c in terms)
                        got = delta_R(RElement.from_word(wd))
                        assert got == ref
                        assert all(type(c) is Fraction for c in got.terms.values())
                        checked += 1
                        nonzero += bool(terms)
        assert (checked, nonzero) == (1045, 612)

    def test_letters_keep_fraction_coefficients(self):
        for k in range(1, 6):
            for letter in combinations(range(1, 6), k):
                got = delta_letter(letter)
                assert got == _reference_delta_letter(letter)
                assert all(type(c) is Fraction for c in got.terms.values())
                assert all(type(c) is int for _, c in resolution._delta_letter_terms(letter))

    @settings(deadline=None, max_examples=200)
    @given(r_elements)
    def test_delta_R_is_the_linear_extension(self, e):
        assert delta_R(e) == _reference_delta_R(e)
