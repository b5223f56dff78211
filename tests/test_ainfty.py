"""Trees, signs, labeled classes, homotopy transfer, and tree traces."""

from itertools import permutations, product

import pytest

from symtrace import ainfty
from symtrace.ainfty import (
    LEAF,
    MerkulovData,
    build_merkulov,
    class_tree_sum,
    enumerate_labeled_classes,
    enumerate_pbt,
    labeled_class_key,
    leaf_count,
    monomial_tuples,
    tree_sign,
    tree_trace,
    tree_trace_args,
    verify_cstree,
)
from symtrace.derham import Form, d
from symtrace.gcalg import AlgebraElement, IntegrityError, lam_gen, x_gen
from symtrace.resolution import RElement, abelianize
from symtrace.trace import trace_simple


def X(i):
    return AlgebraElement.from_gen(x_gen(i))


def LAM(*idx):
    return AlgebraElement.from_gen(lam_gen(idx))


RIGHT_COMB3 = (LEAF, (LEAF, LEAF))
LEFT_COMB3 = ((LEAF, LEAF), LEAF)
BALANCED4 = ((LEAF, LEAF), (LEAF, LEAF))
RIGHT_COMB4 = (LEAF, (LEAF, (LEAF, LEAF)))


class TestTrees:
    def test_catalan_counts(self):
        assert [len(enumerate_pbt(k)) for k in (1, 2, 3, 4)] == [1, 2, 5, 14]

    def test_leaf_counts(self):
        for k in (1, 2, 3, 4):
            assert all(leaf_count(t) == k + 1 for t in enumerate_pbt(k))

    def test_signs_k2(self):
        assert [tree_sign(t) for t in enumerate_pbt(2)] == [1, -1]

    def test_signs_k3(self):
        assert [tree_sign(t) for t in enumerate_pbt(3)] == [-1, 1, -1, 1, -1]

    def test_specific_shapes(self):
        assert tree_sign(RIGHT_COMB4) == 1
        assert tree_sign(BALANCED4) == -1

    def test_deterministic(self):
        assert enumerate_pbt(3) == enumerate_pbt(3)


class TestLabeledClasses:
    def test_counts(self):
        assert len(enumerate_labeled_classes(1)) == 1
        assert len(enumerate_labeled_classes(2)) == 3
        assert len(enumerate_labeled_classes(3)) == 15

    def test_k3_structure(self):
        # 3 classes on the balanced shape with the stated labelings, and
        # 12 comb classes with the last two labels increasing
        classes = {
            labeled_class_key(sigma, t) for sigma, t in enumerate_labeled_classes(3)
        }
        expected = set()
        for sigma in [(0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)]:
            expected.add(labeled_class_key(sigma, BALANCED4))
        for sigma in permutations(range(4)):
            if sigma[2] < sigma[3]:
                expected.add(labeled_class_key(sigma, RIGHT_COMB4))
        assert len(expected) == 15
        assert classes == expected

    def test_swap_invariance(self):
        assert labeled_class_key((0, 1, 2), LEFT_COMB3) == labeled_class_key(
            (2, 0, 1), RIGHT_COMB3
        )


@pytest.fixture(scope="module")
def md2():
    return build_merkulov(2, 4, 3)


@pytest.fixture(scope="module")
def md3():
    return build_merkulov(3, 4, 3)


class TestMerkulov:
    def test_build_runs_side_conditions(self, md2):
        assert isinstance(md2, MerkulovData)

    def test_h0_of_commutator(self, md2):
        w12 = RElement.from_word(((1,), (2,)))
        w21 = RElement.from_word(((2,), (1,)))
        got = md2.h(w12 - w21)
        assert got == RElement.from_word(((1, 2),), -1)

    def test_h0_kills_section(self, md2):
        assert md2.h(md2.f1(X(1) ** 2)).is_zero()

    def test_h_squared_zero(self, md2):
        from symtrace.resolution import r_word_basis

        for w in range(1, 5):
            for degc in (0, 1):
                for word in r_word_basis(2, w, degc):
                    assert md2.h(md2.h(RElement.from_word(word))).is_zero()

    def test_f2_antisymmetrization(self, md2):
        diff = md2.f_taylor([X(1), X(2)]) - md2.f_taylor([X(2), X(1)])
        assert diff == RElement.from_word(((1, 2),))
        assert abelianize(diff) == LAM(1, 2)

    def test_f2_symmetric_vanishes(self, md2):
        assert md2.f_taylor([X(1), X(1)]).is_zero()

    def test_one_variable_transfer_trivial(self):
        md1 = build_merkulov(1, 4, 2)
        assert md1.f_taylor([X(1), X(1)]).is_zero()
        assert md1.h(md1.f1(X(1) * X(1))).is_zero()

    def test_section_after_projection_sorts_degree_zero_words(self, md2):
        # the projection R -> A is the abelianization on degree-0 words
        from symtrace.resolution import r_word_basis

        for w in range(5):
            for degc in range(3):
                for word in r_word_basis(3, w, degc):
                    e = RElement.from_word(word, 3)
                    expected = md2.f1(abelianize(e)) if degc == 0 else RElement.zero()
                    assert MerkulovData._f1_pi(e) == expected, word

    @pytest.mark.parametrize("key", [(0, 2), (0, 4), (1, 3), (1, 4)])
    def test_side_conditions_catch_a_wrong_homotopy_row(self, key):
        md = build_merkulov(3, 4, 3)
        rows = md._h_rows[key]
        md._check_side_conditions()
        rows[-1] = rows[-1].scale(2)
        with pytest.raises(IntegrityError):
            md._check_side_conditions()

    def test_mu2_is_concatenation(self, md2):
        a = md2.f1(X(1))
        b = md2.f1(X(2))
        assert md2.mu(2, [a, b]) == RElement.from_word(((1,), (2,)))

    def test_unit_normalization(self, md2):
        # the section sends the unit to the empty word, so mu_2 against a
        # lifted unit is invisible
        one = md2.f1(AlgebraElement.one())
        assert one == RElement.from_word(())
        lifted = md2.f1(X(1) * X(2))
        assert md2.mu(2, [one, lifted]) == lifted


class TestTreeExpansion:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fk_equals_signed_tree_sum(self, md2, k):
        trees = enumerate_pbt(k)
        for args in monomial_tuples(2, k + 1, 4):
            lhs = md2.f_taylor(list(args))
            rhs = RElement.zero()
            for t in trees:
                rhs = rhs + tree_sign(t) * md2.f_tree(t, list(args))
            assert (lhs - rhs).is_zero()

    def test_tree_shapes_match_recursion_displays(self, md2):
        # right comb: -h1(a0~ . h0(a1~ a2~)); left comb: -h1(h0(a0~ a1~) . a2~)
        args = [X(1), X(1), X(2)]
        lifted = [md2.f1(a) for a in args]
        rc = -md2.h(lifted[0] * md2.h(lifted[1] * lifted[2]))
        lc = -md2.h(md2.h(lifted[0] * lifted[1]) * lifted[2])
        assert md2.f_tree(RIGHT_COMB3, args) == rc
        assert md2.f_tree(LEFT_COMB3, args) == lc


class TestTreeTrace:
    def test_one_form(self, md2):
        omega = Form(X(1) * d(Form(X(2), 2)).body, 2)
        assert tree_trace(md2, omega, 1) == LAM(1, 2)

    def test_repeated_variable(self, md2):
        omega = Form(X(1) * d(Form(X(1), 2)).body, 2)
        assert tree_trace(md2, omega, 1).is_zero()

    def test_matches_simple_trace(self, md2):
        for args in monomial_tuples(2, 2, 3):
            body = args[0] * d(Form(args[1], 2)).body
            omega = Form(body, 2)
            assert tree_trace_args(md2, list(args)) == trace_simple(omega)

    def test_internal_sums_agree_k3(self, md3):
        for args in [(X(1), X(2), X(3), X(1)), (X(2), X(1), X(3), X(3))]:
            tree_trace_args(md3, list(args))  # raises IntegrityError on mismatch

    def test_class_summand_representative_invariance(self, md2):
        # equivalent labeled trees contribute identical signed summands
        from symtrace.ainfty import perm_sign

        args = [X(1), X(2), X(1) * X(2)]
        for sigma1, t1, sigma2, t2 in [
            ((0, 1, 2), LEFT_COMB3, (2, 0, 1), RIGHT_COMB3),
            ((1, 0, 2), LEFT_COMB3, (2, 1, 0), RIGHT_COMB3),
        ]:
            assert labeled_class_key(sigma1, t1) == labeled_class_key(sigma2, t2)
            v1 = perm_sign(sigma1) * tree_sign(t1) * abelianize(
                md2.f_tree_commutator(t1, [args[j] for j in sigma1])
            )
            v2 = perm_sign(sigma2) * tree_sign(t2) * abelianize(
                md2.f_tree_commutator(t2, [args[j] for j in sigma2])
            )
            assert v1 == v2


class TestClassTreeSum:
    def test_labeled_classes_are_built_once_and_immutable(self):
        first = enumerate_labeled_classes(3)
        assert isinstance(first, tuple) and first is enumerate_labeled_classes(3)
        assert first == tuple(ainfty._labeled_classes.__wrapped__(3))
        maxsize = ainfty._labeled_classes.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0

    def test_matches_the_commutator_tree_maps(self, md2):
        from symtrace.ainfty import perm_sign

        for args in [(X(1), X(2), X(1) * X(2)), (X(2), X(1) ** 2, X(1)), (X(1), X(2))]:
            expected = AlgebraElement.zero()
            for sigma, t in enumerate_labeled_classes(len(args) - 1):
                value = md2.f_tree_commutator(t, [args[j] for j in sigma])
                expected = expected + perm_sign(sigma) * tree_sign(t) * abelianize(value)
            assert class_tree_sum(md2, list(args)) == expected

    def test_lifts_each_argument_once(self, md3, monkeypatch):
        # every class evaluates the same lifted objects; the list keeps them alive
        seen = []
        original = md3._eval_tree

        def recording(t, lifted, use_comm):
            seen.extend(lifted)
            return original(t, lifted, use_comm)

        monkeypatch.setattr(md3, "_eval_tree", recording)
        args = [X(1), X(2), X(3)]
        assert not class_tree_sum(md3, args).is_zero()
        assert len({id(e) for e in seen}) == len(args)
        assert {e for e in seen} == {md3.f1(a) for a in args}


class TestCsTree:
    def test_k2_exhaustive_two_vars(self, md2):
        samples = monomial_tuples(2, 3, 4)
        fails, cases = verify_cstree(md2, 2, samples)
        assert cases == len(samples) and not fails

    def test_k3_variables_three_vars(self, md3):
        samples = [tuple(X(i) for i in combo) for combo in product((1, 2, 3), repeat=4)]
        fails, cases = verify_cstree(md3, 3, samples)
        assert cases == 81 and not fails

    def test_failure_reporting_shape(self, md2):
        fails, cases = verify_cstree(md2, 1, [(X(1), X(2))])
        assert cases == 1 and not fails


class TestMonomialTuples:
    def test_total_weight_bound(self):
        for args in monomial_tuples(2, 3, 4):
            total = 0
            for a in args:
                (m, c), = a.terms.items()
                from symtrace.gcalg import monomial_weight

                total += monomial_weight(m)
            assert total <= 4

    def test_counts(self):
        # 2 vars, 2 slots, cap 2: both slots are single variables
        assert len(monomial_tuples(2, 2, 2)) == 4
