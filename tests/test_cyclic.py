"""Cyclic complexes, homology fixtures, HKR maps, and the bridge cocycle."""

import random
from fractions import Fraction
from itertools import product

import pytest

from symtrace.cyclic import (
    ChainComplexQ,
    CyclicChain,
    _check_square_zero,
    bareiss_rank,
    beta_cocycle,
    beta_one_slot_words,
    boundary,
    build_connes_complex,
    cyclic_canonical,
    derham_quotient_dims,
    eps_coalgebra,
    form_from_labels,
    hkr_I,
    hkr_eps,
    homology,
    verify_conj1,
)
from symtrace.derham import Form, d, equal_mod_exact
from symtrace.gcalg import AlgebraElement, IntegrityError, dx_gen, x_gen
from symtrace.resolution import abelianize, r_word_basis
from symtrace.trace import trace_simple


def X(i):
    return AlgebraElement.from_gen(x_gen(i))


def DX(i):
    return AlgebraElement.from_gen(dx_gen(i))


def mono(*factors):
    from symtrace.gcalg import monomial_from_factors

    s, m = monomial_from_factors([x_gen(i) for i in factors])
    assert s == 1
    return m


class TestDifferentialStructure:
    def test_square_zero_over_A(self):
        slots = [mono(), mono(1), mono(2), mono(1, 1), mono(1, 2)]
        for key in product(slots, repeat=3):
            ch = CyclicChain("A", {key: Fraction(1)})
            assert boundary(boundary(ch)).canonicalized().is_zero()

    def test_square_zero_over_R(self):
        random.seed(11)
        pool = []
        for w in range(1, 4):
            for deg in range(0, 3):
                pool.extend(r_word_basis(2, w, deg))
        pool = [w for w in pool if w]
        for _ in range(60):
            key = tuple(random.choice(pool) for _ in range(random.randint(1, 3)))
            ch = CyclicChain("R", {key: Fraction(1)})
            assert boundary(boundary(ch)).canonicalized().is_zero()

    def test_commutative_merge_cancels(self):
        # b of a two-slot chain over A pairs a merge against the wraparound
        ch = CyclicChain("A", {(mono(1), mono(2)): Fraction(1)})
        assert boundary(ch).canonicalized().is_zero()

    def test_cyclic_canonical_zero_class(self):
        # odd-degree suspended slots make (a, a) its own negative
        key = (mono(1), mono(1))
        assert cyclic_canonical("A", key) is None


class TestConnesHomology:
    def test_one_variable_fixture(self):
        cpx = build_connes_complex("A", 1, 4, 4)
        hs = homology(cpx)
        for w in range(1, 5):
            assert hs.dim(0, w) == 1
        for degc in range(1, 4):
            for w in range(1, 5):
                assert hs.dim(degc, w) == 0

    def test_matches_derham_quotient_two_vars(self):
        cpx = build_connes_complex("A", 2, 4, 4)
        hs = homology(cpx)
        dr = derham_quotient_dims(2, 4, 3)
        for degc in range(0, 4):
            for w in range(1, 5):
                assert hs.dim(degc, w) == dr.get((degc, w), 0)

    def test_resolution_side_matches_small(self):
        # R resolves the polynomial algebra, so their cyclic homologies agree
        cpx_a = build_connes_complex("A", 2, 3, 3)
        cpx_r = build_connes_complex("R", 2, 3, 3)
        ha, hr = homology(cpx_a), homology(cpx_r)
        for degc in range(0, 3):
            for w in range(1, 4):
                assert ha.dim(degc, w) == hr.dim(degc, w)

    def test_boundary_squares_checked_on_build(self):
        cpx = build_connes_complex("A", 1, 3, 3)
        assert isinstance(cpx, ChainComplexQ)

    @staticmethod
    def _two_step_complex(upper):
        # Q <-(1 1)- Q^2 <-upper- Q^2, all in weight 1
        basis = {(0, 1): [("a",)], (1, 1): [("b",), ("c",)], (2, 1): [("e",), ("f",)]}
        mats = {
            (1, 1): [[Fraction(1), Fraction(1)]],
            (2, 1): [[Fraction(v) for v in row] for row in upper],
        }
        return ChainComplexQ(basis, mats, 3, 1)

    def test_square_zero_check_names_the_bidegree(self):
        # the composite is (0, 1): nonzero only in its last column
        cpx = self._two_step_complex([[1, 1], [-1, 0]])
        with pytest.raises(IntegrityError, match=r"\(2, 1\)"):
            _check_square_zero(cpx)

    def test_built_columns_match_the_matrices(self):
        cpx = build_connes_complex("A", 2, 3, 3)
        read_off = ChainComplexQ(cpx.basis, cpx.matrices, cpx.degree_cap, cpx.weight_cap)
        assert read_off.columns == cpx.columns

    def test_square_zero_check_passes_on_a_complex(self):
        cpx = self._two_step_complex([[1, 0], [-1, 0]])
        _check_square_zero(cpx)
        assert homology(cpx).dims == {(2, 1): 1}


class TestRank:
    def test_simple(self):
        assert bareiss_rank([[1, 0], [0, 1]]) == 2
        assert bareiss_rank([[1, 2], [2, 4]]) == 1
        assert bareiss_rank([[0, 0], [0, 0]]) == 0
        assert bareiss_rank([]) == 0

    def test_two_term_complex(self):
        # Q --1--> Q has vanishing homology
        basis = {(0, 1): [("a",)], (1, 1): [("b",)]}
        mats = {(1, 1): [[Fraction(1)]]}
        cpx = ChainComplexQ(basis, mats, 2, 1)
        hs = homology(cpx)
        assert hs.dim(0, 1) == 0 and hs.dim(1, 1) == 0

    def test_zero_differential(self):
        basis = {(0, 1): [("a",), ("b",), ("c",)]}
        cpx = ChainComplexQ(basis, {}, 2, 1)
        assert homology(cpx).dim(0, 1) == 3


class TestHKR:
    def test_eps_one_form(self):
        ch = hkr_eps(Form(X(1) * DX(2), 2))
        assert ch.terms == {(mono(1), mono(2)): Fraction(1)}

    def test_eps_antisymmetrizes(self):
        ch = hkr_eps(Form(X(3) * DX(1) * DX(2), 3))
        assert ch.terms == {
            (mono(3), mono(1), mono(2)): Fraction(1),
            (mono(3), mono(2), mono(1)): Fraction(-1),
        }

    def test_eps_zero(self):
        assert hkr_eps(Form.zero(2)).is_zero()

    def test_I_basic(self):
        ch = CyclicChain("A", {(mono(1), mono(2)): Fraction(1)})
        assert hkr_I(ch, 2) == Form(X(1) * DX(2), 2)

    def test_I_odd_square(self):
        ch = CyclicChain("A", {(mono(1), mono(2), mono(2)): Fraction(1)})
        assert hkr_I(ch, 2).is_zero()

    def test_composite_identity(self):
        for body in (X(1) * DX(2), X(1) * DX(2) * DX(3), X(1) ** 2 * X(2) * DX(3)):
            omega = Form(body, 3)
            assert hkr_I(hkr_eps(omega), 3) == omega

    def test_composite_identity_mod_exact(self):
        omega = Form(X(1) * DX(2) * DX(3), 3)
        assert equal_mod_exact(hkr_I(hkr_eps(omega), 3), omega)


class TestBetaCocycle:
    def test_trivial_zero_form(self):
        beta = beta_cocycle((1,), 1, 0)
        word_x1 = ((1,),)
        assert beta.terms == {(word_x1,): Fraction(1)}

    def test_pure_du_single(self):
        beta = beta_cocycle((1,), 0, 1)
        # only the one-barred-column survives: unit slot, then the letter,
        # with the column sign
        assert beta.terms == {((), ((1,),)): Fraction(-1)}

    def test_closed_small(self):
        for n, p in [(1, 1), (2, 1), (1, 2), (0, 2), (2, 2)]:
            for u in product((1, 2), repeat=n + p):
                beta = beta_cocycle(u, n, p)
                assert boundary(beta).canonicalized().is_zero()

    def test_one_slot_projection_is_trace(self):
        for n, p in [(1, 1), (2, 1), (1, 2), (2, 2)]:
            for u in product((1, 2, 3), repeat=n + p):
                beta = beta_cocycle(u, n, p)
                alpha = form_from_labels(u, n, p, 3)
                assert abelianize(beta_one_slot_words(beta)) == trace_simple(alpha)

    def test_coalgebra_image_is_d(self):
        for n, p in [(1, 0), (2, 0), (1, 1), (2, 1), (1, 2)]:
            for u in product((1, 2), repeat=n + p):
                beta = beta_cocycle(u, n, p)
                alpha = form_from_labels(u, n, p, 2)
                assert eps_coalgebra(beta_one_slot_words(beta), 2) == d(alpha)

    def test_runner(self):
        fails, cases = verify_conj1(2, 3)
        assert cases == 48 and not fails
