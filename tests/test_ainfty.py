"""Trees, signs, labeled classes, homotopy transfer, and tree traces."""

import copy
import hashlib
import random
import re
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

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
)
from symtrace.cli import cstree_form, perm_tree_sum
from symtrace.derham import Form, d
from symtrace.gcalg import (
    AlgebraElement,
    Echelon,
    IntegrityError,
    InvalidInputError,
    ResourceLimitError,
    X_KIND,
    add_into,
    dx_gen,
    echelon,
    echelon_split,
    lam_gen,
    lift,
    perm_sign,
    render,
    x_gen,
)
from symtrace.resolution import (
    RElement,
    abelianize,
    delta_R,
    word_commutator,
    word_degree,
    word_weight,
)
from symtrace.trace import cs_trace_raw, trace_simple


def X(i):
    return AlgebraElement.from_gen(x_gen(i))


def LAM(*idx):
    return AlgebraElement.from_gen(lam_gen(idx))


def f1(a):
    """The section of pi on polynomial elements: a monomial becomes its sorted word."""
    assert all(g[0] == X_KIND for m in a.terms for g, _ in m)
    return RElement({tuple((g[1],) for g, e in m for _ in range(e)): c
                     for m, c in a.terms.items()})


RIGHT_COMB3 = (LEAF, (LEAF, LEAF))
LEFT_COMB3 = ((LEAF, LEAF), LEAF)
BALANCED4 = ((LEAF, LEAF), (LEAF, LEAF))
RIGHT_COMB4 = (LEAF, (LEAF, (LEAF, LEAF)))


def cstree_failures(md, samples):
    """The samples whose class tree sum differs from the slot-expansion
    trace of a0 da1 .. dak."""
    return [args for args in samples
            if class_tree_sum(md, args) != cs_trace_raw(cstree_form(args, md.nvars))]


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

    def test_cached_signs_equal_the_recursion(self):
        for k in range(1, 7):
            for t in enumerate_pbt(k):
                assert tree_sign(t) == tree_sign.__wrapped__(t)
        assert tree_sign.cache_info().maxsize == 1024

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


class ReferenceHomotopy:
    """h solved per call against the echelon of B: the reference for the lookup.

    The echelons of B = im(delta) are rebuilt from ``md.basis``.  A call
    buckets its input by bidegree, subtracts the sorted word at degree 0,
    splits each bucket against the echelon of B and combines the preimages
    of the echelon rows.
    """

    def __init__(self, md):
        self.md = md
        self.ech, self.rows = {}, {}
        for deg, w in md.basis:
            if deg < md.degree_cap:
                self.ech[(deg, w)] = echelon(
                    self.vec(delta_R(RElement.from_word(u)), deg, w)
                    for u in md.basis[(deg + 1, w)]
                )
        for (deg, w), ech in self.ech.items():
            up = self.ech.get((deg + 1, w), Echelon())
            upper = md.basis[(deg + 1, w)]
            self.rows[(deg, w)] = [
                RElement({upper[j]: c for j, c in echelon_split(up, combo)[1].items()})
                for combo in ech.combos
            ]

    def vec(self, e, deg, w):
        words = self.md.basis[(deg, w)]
        return {words.index(word): c for word, c in e.terms.items()}

    def __call__(self, e):
        md = self.md
        buckets = {}
        for word, c in e.terms.items():
            buckets.setdefault((word_degree(word), word_weight(word)), {})[word] = c
        out = RElement.zero()
        for (deg, w), terms in buckets.items():
            part = RElement(terms)
            if deg == 0:
                for word, c in terms.items():
                    part.add_term(tuple(sorted(word)), -c)
                if part.is_zero():
                    continue
            if deg + 1 > md.degree_cap or w > md.weight_cap:
                raise ResourceLimitError(f"outside the caps at ({deg}, {w})")
            coeffs, residual = echelon_split(self.ech[(deg, w)], self.vec(part, deg, w))
            assert not (deg == 0 and residual)
            for i, c in coeffs.items():
                out.iadd(self.rows[(deg, w)][i], c)
        return out


def words_below_top(md):
    return [
        word
        for (deg, w), words in sorted(md.basis.items())
        if deg < md.degree_cap
        for word in words
    ]


@pytest.fixture(scope="module")
def ref2(md2):
    return ReferenceHomotopy(md2)


@pytest.fixture(scope="module")
def ref3(md3):
    return ReferenceHomotopy(md3)


class TestMerkulov:
    def test_build_runs_side_conditions(self, md2):
        assert isinstance(md2, MerkulovData)

    def test_h0_of_commutator(self, md2):
        w12 = RElement.from_word(((1,), (2,)))
        w21 = RElement.from_word(((2,), (1,)))
        got = md2.h(w12 - w21)
        assert got == RElement.from_word(((1, 2),), -1)

    def test_h0_kills_section(self, md2):
        assert md2.h(f1(X(1) ** 2)).is_zero()

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
        assert md1.h(f1(X(1) * X(1))).is_zero()

    def test_section_after_projection_sorts_degree_zero_words(self, md3, ref3):
        # the projection R -> A is the abelianization on degree-0 words, so
        # h f1 pi = 0, and h of a degree-0 word is h of it minus its sorted word
        words = [word for w in range(5) for word in md3.basis[(0, w)]]
        assert len(words) == 121
        for word in words:
            e = RElement.from_word(word, 3)
            assert md3.h(f1(abelianize(e))).is_zero(), word
            assert md3.h(e) == ref3(e), word

    @pytest.mark.parametrize("key", [(0, 2), (0, 4), (1, 3), (1, 4)])
    def test_side_conditions_catch_a_wrong_homotopy_row(self, key):
        md = build_merkulov(3, 4, 3)
        pivots = [
            word for word in md._h_pivot if (word_degree(word), word_weight(word)) == key
        ]
        assert pivots
        md._check_side_conditions()
        md._h_pivot[pivots[-1]] = {u: 2 * c for u, c in md._h_pivot[pivots[-1]].items()}
        with pytest.raises(IntegrityError, match=re.escape(f"homotopy relation fails at {key}")):
            md._check_side_conditions()

    def test_side_conditions_catch_a_homotopy_that_does_not_square_to_zero(self):
        md = build_merkulov(3, 4, 3)

        def pivots(key):
            return [w for w in md._h_pivot if (word_degree(w), word_weight(w)) == key]

        # a pivot word one degree up is not killed by h, so h h(p) != 0
        p, q = pivots((0, 3))[-1], pivots((1, 3))[0]
        value = dict(md._h_pivot[p])
        value[q] = value.get(q, 0) + md._h_den
        md._h_pivot[p] = value
        with pytest.raises(IntegrityError, match="h h != 0"):
            md._check_side_conditions()

    def test_side_conditions_read_the_table_over_its_denominator(self, md3):
        # the same homotopy written over the denominator 3 passes, and h is unchanged;
        # the values alone over 3 are h/3, which fails
        md = copy.copy(md3)
        md._h_pivot = {p: {u: 3 * c for u, c in v.items()} for p, v in md3._h_pivot.items()}
        md._h_den = 3 * md3._h_den
        md._check_side_conditions()
        for word in words_below_top(md3):
            e = RElement.from_word(word, Fraction(2, 5))
            assert md.h(e) == md3.h(e)
        md._h_pivot = md3._h_pivot
        with pytest.raises(IntegrityError):
            md._check_side_conditions()

    def test_build_checks_that_boundaries_exhaust_the_kernel_of_pi(self, monkeypatch):
        # without the word lam(1,2) nothing bounds x1 x2 - x2 x1
        full = ainfty.r_word_basis
        monkeypatch.setattr(
            ainfty, "r_word_basis",
            lambda n, w, deg: [u for u in full(n, w, deg) if u != ((1, 2),)],
        )
        with pytest.raises(IntegrityError, match="kernel of pi is not exhausted"):
            build_merkulov(2, 4, 3)

    def test_every_bidegree_is_counted_before_any_is_built(self, monkeypatch):
        # the largest bidegree of build_merkulov(2, 4, 3) is (0, 4), 2^4 = 16
        # words, the fifth in build order; one word over the budget builds none
        monkeypatch.setenv("SYMTRACE_MAX_BASIS", "16")
        md = build_merkulov(2, 4, 3)
        assert max(map(len, md.basis.values())) == len(md.basis[(0, 4)]) == 16
        built = []
        monkeypatch.setattr(ainfty, "r_word_basis",
                            lambda n, w, deg: built.append((deg, w)) or [])
        monkeypatch.setenv("SYMTRACE_MAX_BASIS", "15")
        with pytest.raises(ResourceLimitError,
                           match=r"^16 words of degree 0 and weight 4 \(budget 15\)$"):
            build_merkulov(2, 4, 3)
        assert built == []

    @pytest.mark.parametrize("caps", [(4, -1), (0, 3), (-1, 3)])
    def test_caps_must_admit_a_basis(self, caps):
        with pytest.raises(InvalidInputError):
            build_merkulov(2, *caps)

    @pytest.mark.parametrize("other", [LAM(1, 2), AlgebraElement.from_gen(dx_gen(1))])
    def test_the_section_takes_polynomial_arguments_only(self, md2, other):
        args = [X(1), X(2) + other]
        for call in (md2.f_taylor, lambda a: md2.f_tree(RIGHT_COMB3[1], a),
                     lambda a: class_tree_sum(md2, a)):
            with pytest.raises(InvalidInputError, match="f1 takes polynomial elements only"):
                call(args)

    def test_mu2_is_concatenation(self, md2):
        a = f1(X(1))
        b = f1(X(2))
        assert md2.mu(2, [a, b]) == RElement.from_word(((1,), (2,)))

    def test_unit_normalization(self, md2):
        # the section sends the unit to the empty word, so mu_2 against a
        # lifted unit is invisible
        one = f1(AlgebraElement.one())
        assert one == RElement.from_word(())
        lifted = f1(X(1) * X(2))
        assert md2.mu(2, [one, lifted]) == lifted


class TestHomotopyTable:
    """h, a lookup in its values on the pivot words, against the solve."""

    def test_table_and_denominator_are_pinned(self):
        # the first 16 hex digits of sha256 over the denominator and the table
        # in its dict order, as built by the sequential Fraction elimination
        md = build_merkulov(3, 5, 3)
        text = repr((md._h_den, list(md._h_pivot.items())))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "60c7ba23c1647e6d"

    @pytest.mark.parametrize("name", ["md2", "md3"])
    def test_every_basis_word_below_the_top_degree(self, name, request):
        md = request.getfixturevalue(name)
        ref = request.getfixturevalue(name.replace("md", "ref"))
        words = words_below_top(md)
        assert (len(words), len(md._h_pivot)) == {"md2": (49, 17), "md3": (239, 102)}[name]
        for word in words:
            e = RElement.from_word(word)
            assert md.h(e) == ref(e), word

    @pytest.mark.parametrize("name", ["md2", "md3"])
    def test_combinations_of_basis_words(self, name, request):
        md = request.getfixturevalue(name)
        ref = request.getfixturevalue(name.replace("md", "ref"))
        words = words_below_top(md)

        @settings(deadline=None, max_examples=150)
        @given(st.lists(st.tuples(st.sampled_from(words), st.integers(-3, 3)), max_size=8))
        def check(terms):
            e = RElement.zero()
            for word, c in terms:
                e.add_term(word, c)
            assert md.h(e) == ref(e)

        check()

    @pytest.mark.parametrize("caps, word", [
        ((3, 4, 2), ((1, 2, 3),)),
        ((3, 4, 2), ((1, 2), (3,), (3,), (1,))),
        ((2, 4, 3), ((2,), (1,), (1,), (1,), (2,))),
    ])
    def test_words_outside_the_caps_are_refused(self, caps, word):
        md = build_merkulov(*caps)
        deg, w = word_degree(word), word_weight(word)
        message = (
            f"homotopy at degree {deg}, weight {w} is outside the caps "
            f"(degree_cap={caps[2]}, weight_cap={caps[1]})"
        )
        with pytest.raises(ResourceLimitError) as exc:
            md.h(RElement.from_word(word))
        assert str(exc.value) == message

    @pytest.mark.parametrize("word", [(), ((1,), (1,), (1,), (2,), (2,))])
    def test_sorted_words_go_to_zero_at_every_weight(self, md2, word):
        assert md2.h(RElement.from_word(word)).is_zero()

    def test_a_word_on_too_many_variables_is_refused(self, md2):
        with pytest.raises(InvalidInputError, match="not a word of R on 2 variables"):
            md2.h(RElement.from_word(((3,), (1,))))


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
        lifted = [f1(a) for a in args]
        rc = -md2.h(lifted[0] * md2.h(lifted[1] * lifted[2]))
        lc = -md2.h(md2.h(lifted[0] * lifted[1]) * lifted[2])
        assert md2.f_tree(RIGHT_COMB3, args) == rc
        assert md2.f_tree(LEFT_COMB3, args) == lc


def reference_perm_tree_sum(md, args):
    """The permutation sum as one abelianized transfer component per permutation."""
    total = AlgebraElement.zero()
    for sigma in permutations(range(len(args))):
        total.iadd(abelianize(md.f_taylor([args[j] for j in sigma])), perm_sign(sigma))
    return total


class TestTreeTrace:
    def test_one_form(self, md2):
        # x1 dx2
        assert perm_tree_sum(md2, [X(1), X(2)]) == LAM(1, 2)
        assert class_tree_sum(md2, [X(1), X(2)]) == LAM(1, 2)

    def test_repeated_variable(self, md2):
        # x1 dx1
        assert perm_tree_sum(md2, [X(1), X(1)]).is_zero()
        assert class_tree_sum(md2, [X(1), X(1)]).is_zero()

    def test_matches_simple_trace(self, md2):
        for args in monomial_tuples(2, 2, 3):
            body = args[0] * d(Form(args[1], 2)).body
            omega = Form(body, 2)
            assert perm_tree_sum(md2, list(args)) == trace_simple(omega)
            assert class_tree_sum(md2, list(args)) == trace_simple(omega)

    def test_perm_sum_equals_the_per_permutation_reference(self, md3):
        # every k = 3 sum on three variables is 0, so k = 3 also runs on four
        md4 = build_merkulov(4, 4, 3)
        for md, k in [(md3, 1), (md3, 2), (md3, 3), (md4, 3)]:
            nonzero = 0
            for args in monomial_tuples(md.nvars, k + 1, 4):
                got = perm_tree_sum(md, list(args))
                assert got == reference_perm_tree_sum(md, list(args))
                nonzero += not got.is_zero()
            assert nonzero or md is md3 and k == 3

    def test_perm_sum_needs_two_arguments(self, md3):
        with pytest.raises(InvalidInputError, match="^perm_tree_sum needs at least two arguments"):
            perm_tree_sum(md3, [X(1)])

    def test_internal_sums_agree_k3(self, md3):
        for args in [(X(1), X(2), X(3), X(1)), (X(2), X(1), X(3), X(3))]:
            assert perm_tree_sum(md3, list(args)) == class_tree_sum(md3, list(args))

    def test_class_summand_representative_invariance(self, md2):
        # equivalent labeled trees contribute identical signed summands
        ref = FractionTransfer(md2)
        args = [X(1), X(2), X(1) * X(2)]
        for sigma1, t1, sigma2, t2 in [
            ((0, 1, 2), LEFT_COMB3, (2, 0, 1), RIGHT_COMB3),
            ((1, 0, 2), LEFT_COMB3, (2, 1, 0), RIGHT_COMB3),
        ]:
            assert labeled_class_key(sigma1, t1) == labeled_class_key(sigma2, t2)
            v1 = perm_sign(sigma1) * tree_sign(t1) * abelianize(
                ref.f_tree(t1, [args[j] for j in sigma1], use_comm=True)
            )
            v2 = perm_sign(sigma2) * tree_sign(t2) * abelianize(
                ref.f_tree(t2, [args[j] for j in sigma2], use_comm=True)
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

        ref = FractionTransfer(md2)
        for args in [(X(1), X(2), X(1) * X(2)), (X(2), X(1) ** 2, X(1)), (X(1), X(2))]:
            expected = AlgebraElement.zero()
            for sigma, t in enumerate_labeled_classes(len(args) - 1):
                value = ref.f_tree(t, [args[j] for j in sigma], use_comm=True)
                expected = expected + perm_sign(sigma) * tree_sign(t) * abelianize(value)
            assert class_tree_sum(md2, list(args)) == expected

    def test_lifts_each_argument_once(self, monkeypatch):
        # every class evaluates the same lifted objects; the list keeps them
        # alive.  A fresh instance, so that no subtree is a memo hit
        md = build_merkulov(3, 4, 3)
        seen = []
        original = md._eval_tree

        def recording(t, keys, leaves, use_comm):
            seen.extend(leaves)
            return original(t, keys, leaves, use_comm)

        monkeypatch.setattr(md, "_eval_tree", recording)
        args = [X(1), X(2), X(3)]
        assert not class_tree_sum(md, args).is_zero()
        distinct = list({id(e): e for e in seen}.values())
        assert len(distinct) == len(args)
        expected = [lift(f1(a).terms)[0] for a in args]
        assert sorted(distinct, key=repr) == sorted(expected, key=repr)

    @pytest.mark.parametrize("scale", [1, 3])
    def test_root_sum_equals_the_per_class_sum(self, md443, scale):
        # h and abelianization are linear, so class_tree_sum applies them once
        # to the signed sum of the class roots; here each class is divided and
        # abelianized on its own, on the same integer path
        md = md443 if scale == 1 else thirds(md443)
        ref = FractionTransfer(md)
        nonzero = 0
        for args in mixed_tuples(md, 3, 8, seed=3):
            per_class = AlgebraElement.zero()
            for sigma, t in enumerate_labeled_classes(3):
                value = f_tree_commutator(md, t, [args[j] for j in sigma])
                per_class.iadd(abelianize(value), perm_sign(sigma) * tree_sign(t))
            assert class_tree_sum(md, args) == per_class == ref.class_tree_sum(args)
            nonzero += not per_class.is_zero()
        assert nonzero


    def test_class_groups_split_the_classes_by_root_side(self):
        # one group per left side of a root, a leaf turned to the left: one
        # commutator each instead of one per class
        for k, count in zip((1, 2, 3, 4), (1, 3, 7, 27)):
            groups = ainfty._class_groups(k)
            assert len(groups) == count
            keys = []
            for left, lpos, rights in groups:
                for t, pos, sign in rights:
                    assert sorted(lpos + pos) == list(range(k + 1))
                    # no subtree stands left of a leaf, and each member carries
                    # the sign of its own representative
                    assert t is not None or left is None
                    assert sign == perm_sign(lpos + pos) * tree_sign((left, t))
                    keys.append(labeled_class_key(lpos + pos, (left, t)))
            classes = enumerate_labeled_classes(k)
            assert len(keys) == len(set(keys)) == len(classes)
            assert set(keys) == {labeled_class_key(sigma, t) for sigma, t in classes}

    @pytest.mark.parametrize("name, k", [("md443", 1), ("md443", 2), ("md443", 3),
                                         ("md554", 4)])
    def test_grouped_sum_equals_the_per_class_loop(self, name, k, request):
        # rational, repeated and cancelling arguments; the per-class loop
        # meets the classes in the order of their root's left side, so the
        # grouped sum has its terms, dict order included.  A repeated or
        # cancelling argument gives a sum of nonzero class roots that cancels
        md = request.getfixturevalue(name)
        ref = FractionTransfer(md)
        rng = random.Random(k)
        tuples = mixed_tuples(md, k, 8, seed=k)
        for args in mixed_tuples(md, k, 4, seed=10 + k):
            args[0] = args[-1]  # repeated
            tuples.append(args)
        for args in mixed_tuples(md, k, 4, seed=20 + k):
            args[0] = -args[rng.randrange(1, k + 1)]  # cancelling
            tuples.append(args)
        tuples += [[X(1)] * (k + 1), [X(1) + X(2), X(1) - X(2)] + [X(3)] * (k - 1)]
        terms = zero = 0
        for args in tuples:
            got = class_tree_sum(md, args)
            assert list(got.terms.items()) == list(per_class_root_sum(md, args).terms.items())
            assert got == ref.class_tree_sum(args)
            terms = max(terms, len(got.terms))
            zero += got.is_zero()
        assert terms >= (4 if k < 3 else 1) and zero >= 9


def per_class_root_sum(md, args):
    """The class sum with one root commutator per labeled class: the classes run
    in the order of first appearance of their root's left side, a root with a
    leaf on its right alone turned round, [A, x] = -[x, A]."""
    k = len(args) - 1
    keys, leaves, scale = md._lift_args((a.terms for a in args), ainfty._f1_word)

    def side(t, pos):
        if t is None:
            return leaves[pos[0]]
        return md._h_int(md._eval_tree(t, tuple(keys[j] for j in pos),
                                       [leaves[j] for j in pos], True))

    by_left = {}
    for sigma, t in enumerate_labeled_classes(k):
        nl, sign = leaf_count(t[0]), perm_sign(sigma) * tree_sign(t)
        left, right = (t[0], sigma[:nl]), (t[1], sigma[nl:])
        if t[1] is None and t[0] is not None:
            left, right, sign = right, left, -sign
        by_left.setdefault(left, []).append((right, sign))
    root = {}
    for left, rights in by_left.items():
        for right, sign in rights:
            add_into(root, word_commutator(side(*left), side(*right)), sign)
    divisor = -scale * md._h_den ** k
    return abelianize(RElement({w: Fraction(c, divisor) for w, c in md._h_int(root).items()}))


def labeled_subtrees(t, pos):
    """Every internal vertex of t with the argument positions of its leaves."""
    if t is None:
        return
    yield t, pos
    nl = leaf_count(t[0])
    yield from labeled_subtrees(t[0], pos[:nl])
    yield from labeled_subtrees(t[1], pos[nl:])


class FractionTransfer:
    """The evaluator on ``Fraction`` coefficients: the reference for the integer path.

    h is the linear extension of the table with each pivot value divided by
    the table's denominator, applied to ``RElement``s; mu, the tree maps and
    the class sum are formed with ``RElement`` products and commutators, with
    no memo, and ``class_tree_sum`` abelianizes each class on its own.
    """

    def __init__(self, md):
        self.md = md
        self.table = {
            p: RElement({u: Fraction(c, md._h_den) for u, c in value.items()})
            for p, value in md._h_pivot.items()
        }

    def h(self, e):
        md, out = self.md, RElement.zero()
        for word, c in e.terms.items():
            deg, w = word_degree(word), word_weight(word)
            low = tuple(sorted(word))
            if deg == 0 and low == word:
                continue
            if deg + 1 > md.degree_cap or w > md.weight_cap:
                raise ResourceLimitError(f"outside the caps at ({deg}, {w})")
            if word in self.table:
                out.iadd(self.table[word], c)
            elif word not in md.index.get((deg, w), ()):
                raise InvalidInputError(f"{word!r} is not a word of R")
            if deg == 0 and low in self.table:
                out.iadd(self.table[low], -c)
        return out

    def mu(self, i, args):
        if i == 2:
            return args[0] * args[1]
        out = RElement.zero()
        for s in range(1, i):
            left = -args[0] if s == 1 else self.h(self.mu(s, args[:s]))
            right = -args[s] if i - s == 1 else self.h(self.mu(i - s, args[s:]))
            out.iadd(left * right, 1 if (s + 1) % 2 == 0 else -1)
        return out

    def f_taylor(self, args):
        return -self.h(self.mu(len(args), [f1(a) for a in args]))

    def f_tree(self, t, args, use_comm=False):
        return -self.h(self._eval_tree(t, [f1(a) for a in args], use_comm))

    def _eval_tree(self, t, lifted, use_comm):
        nl = leaf_count(t[0])
        left = lifted[0] if t[0] is None else self.h(self._eval_tree(t[0], lifted[:nl], use_comm))
        right = lifted[nl] if t[1] is None else self.h(self._eval_tree(t[1], lifted[nl:], use_comm))
        if use_comm:
            return RElement(word_commutator(left.terms, right.terms))
        return left * right

    def class_tree_sum(self, args):
        from symtrace.ainfty import perm_sign

        total = AlgebraElement.zero()
        for sigma, t in enumerate_labeled_classes(len(args) - 1):
            value = self.f_tree(t, [args[j] for j in sigma], use_comm=True)
            total.iadd(abelianize(value), perm_sign(sigma) * tree_sign(t))
        return total


@pytest.fixture(scope="module")
def md353():
    return build_merkulov(3, 5, 3)


@pytest.fixture(scope="module")
def md354():
    return build_merkulov(3, 5, 4)


@pytest.fixture(scope="module")
def md364():
    return build_merkulov(3, 6, 4)


@pytest.fixture(scope="module")
def md443():
    return build_merkulov(4, 4, 3)


@pytest.fixture(scope="module")
def md554():
    return build_merkulov(5, 5, 4)


def thirds(md):
    """A copy of md whose table values are all scaled by 1/3."""
    scaled = copy.copy(md)
    scaled._h_den = 3 * md._h_den
    return scaled


def mixed_tuples(md, k, count, seed):
    """Argument tuples with mixed fraction coefficients, e.g. 3/2*x1 - 1/3*x2;
    the first argument has weight 2 when the weight cap leaves room."""
    rng = random.Random(seed)
    heavy = k + 2 <= md.weight_cap
    out = []
    for _ in range(count):
        args = []
        for slot in range(k + 1):
            i, j = rng.sample(range(1, md.nvars + 1), 2)
            a = Fraction(rng.choice((1, 3, -5)), rng.choice((1, 2, 4)))
            b = Fraction(rng.choice((-1, 2, 7)), rng.choice((1, 3, 9)))
            if slot == 0 and heavy:
                args.append(a * X(i) * X(j) + b * X(j) ** 2)
            else:
                args.append(a * X(i) + b * X(j))
        out.append(args)
    return out


def f_tree_commutator(md, t, args):
    """The commutator tree map on the integer path that ``class_tree_sum`` runs:
    f1 on leaves, h of graded commutators inside, -h at the root."""
    keys, leaves, scale = md._lift_args((a.terms for a in args), ainfty._f1_word)
    value = md._h_int(md._eval_tree(t, keys, leaves, True))
    divisor = -scale * md._h_den ** (len(args) - 1)
    return RElement({word: Fraction(c, divisor) for word, c in value.items()})


def k4_weight6_tuples(stride):
    """A stride of the weight-6 monomial tuples of five arguments on three
    variables, and the three of them on which f_5 is nonzero."""
    return [list(args) for args in monomial_tuples(3, 5, 6)[::stride]] + [
        [X(1), X(2), X(1), X(3) ** 2, X(2)],
        [X(1), X(2), X(1) * X(3), X(3), X(2)],
        [X(1), X(2) * X(3), X(1), X(3), X(2)],
    ]


def assert_transfer_matches(md, ref, args, trees):
    assert md.f_taylor(args) == ref.f_taylor(args)
    for t in trees:
        assert md.f_tree(t, args) == ref.f_tree(t, args)
        assert f_tree_commutator(md, t, args) == ref.f_tree(t, args, use_comm=True)
    assert class_tree_sum(md, args) == ref.class_tree_sum(args)


class TestIntegerTransfer:
    """The transfer on integer terms against the evaluator on fractions."""

    def test_every_table_value_is_integral_over_one_denominator(self, md353, md354):
        for md in (md353, md354):
            assert md._h_den == 1
            assert all(
                isinstance(c, int) for value in md._h_pivot.values() for c in value.values()
            )
        assert sum(len(v) for v in md353._h_pivot.values()) == 1241

    @pytest.mark.parametrize("scale", [1, 3])
    def test_h_and_mu_on_fraction_coefficients(self, md353, scale):
        md = md353 if scale == 1 else thirds(md353)
        ref = FractionTransfer(md)
        rng = random.Random(7)
        words = words_below_top(md)
        low = [w for w in words if word_degree(w) == 0 and word_weight(w) == 1]
        for _ in range(300):
            e = RElement({
                rng.choice(words): Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                for _ in range(5)
            })
            assert md.h(e) == ref.h(e)
        for i in (2, 3, 4):
            for _ in range(40):
                args = [
                    RElement({u: Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                              for u in rng.sample(low, 2)})
                    for _ in range(i)
                ]
                assert md.mu(i, args) == ref.mu(i, args)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_tuple_up_to_k3(self, md353, k):
        ref = FractionTransfer(md353)
        trees = enumerate_pbt(k)
        tuples = monomial_tuples(3, k + 1, 5)
        assert len(tuples) == {1: 351, 2: 783, 3: 729}[k]
        for args in tuples:
            assert_transfer_matches(md353, ref, list(args), trees)

    def test_k4_weight5_tuples(self, md354):
        ref = FractionTransfer(md354)
        trees = enumerate_pbt(4)
        tuples = monomial_tuples(3, 5, 5)
        assert len(tuples) == 243
        for args in tuples:
            assert class_tree_sum(md354, list(args)) == ref.class_tree_sum(list(args))
        for args in tuples[::12]:
            assert_transfer_matches(md354, ref, list(args), trees)

    def test_k4_weight6_tuples(self, md364):
        # f_5 of weight-1 arguments lies in degree 4, weight 5, which on three
        # variables holds no nonzero word, so the comparisons above are all 0
        ref = FractionTransfer(md364)
        trees = enumerate_pbt(4)
        nonzero = 0
        for args in k4_weight6_tuples(60):
            assert_transfer_matches(md364, ref, args, trees)
            nonzero += not md364.f_taylor(args).is_zero()
        assert nonzero == 3

    @pytest.mark.parametrize("scale", [1, 3])
    @pytest.mark.parametrize("name, k", [("md353", 1), ("md353", 2), ("md443", 3)])
    def test_mixed_fraction_arguments(self, name, k, scale, request):
        # on three variables every class sum with k = 3 is 0, so k = 3 runs on four
        md = request.getfixturevalue(name)
        md = md if scale == 1 else thirds(md)
        ref = FractionTransfer(md)
        trees = enumerate_pbt(k)
        nonzero = set()
        for args in mixed_tuples(md, k, 8, seed=k):
            assert_transfer_matches(md, ref, args, trees)
            if not md.f_taylor(args).is_zero():
                nonzero.add("f_taylor")
            if not class_tree_sum(md, args).is_zero():
                nonzero.add("class_tree_sum")
        assert nonzero == {"f_taylor", "class_tree_sum"}

    def test_scaled_table_on_monomial_tuples(self, md353, md354, md364):
        for md, k in ((md353, 2), (md353, 3), (md354, 4)):
            scaled = thirds(md)
            ref = FractionTransfer(scaled)
            trees = enumerate_pbt(k)
            for args in monomial_tuples(3, k + 1, 5)[::25]:
                assert_transfer_matches(scaled, ref, list(args), trees)
                assert scaled.f_taylor(list(args)) == md.f_taylor(list(args)).scale(
                    Fraction(1, 3 ** k)
                )
        # at k = 4 f_5 is 0 on every tuple of weight 5; at weight 6 it is not
        scaled = thirds(md364)
        ref = FractionTransfer(scaled)
        trees = enumerate_pbt(4)
        nonzero = 0
        for args in k4_weight6_tuples(250):
            assert_transfer_matches(scaled, ref, args, trees)
            value = md364.f_taylor(args)
            assert scaled.f_taylor(args) == value.scale(Fraction(1, 3 ** 4))
            nonzero += not value.is_zero()
        assert nonzero == 3


    def test_each_labeled_subtree_is_evaluated_once_per_call(self, monkeypatch):
        # one commutator per group of class roots sharing a left side and per
        # evaluated proper subtree; the memo keys on the subtree and the
        # contents of its leaves, so on distinct arguments the count is the
        # number of distinct (subtree, positions) pairs, and repeated
        # arguments share subtrees.  Each call runs on a fresh instance, whose
        # memo is empty
        classes = enumerate_labeled_classes(4)
        every = [pair for sigma, t in classes for pair in labeled_subtrees(t, sigma)]
        distinct = set(every)
        assert (len(every), len(distinct)) == (420, 220)
        calls = []
        original = ainfty.word_commutator

        def counting(a, b):
            calls.append(1)
            return original(a, b)

        monkeypatch.setattr(ainfty, "word_commutator", counting)
        roots = {(t, sigma) for sigma, t in classes}
        for args in ([X(1), X(2), X(3), X(1) + X(2), X(2) - X(3)],
                     [X(1), X(2), X(3), X(1), X(2)]):
            md = build_merkulov(3, 5, 4)
            labels = [render(a) for a in args]
            proper = {(sub, tuple(labels[j] for j in pos)) for sub, pos in distinct - roots}
            calls.clear()
            assert class_tree_sum(md, args) == FractionTransfer(md).class_tree_sum(args)
            assert len(calls) == len(ainfty._class_groups(4)) + len(proper)
            assert len(calls) == (27 + 115 if len(set(labels)) == 5 else 27 + 94)

    def test_each_mu_range_is_evaluated_once_per_call(self, monkeypatch):
        # at k = 4 the recursion meets 10 contiguous ranges of length >= 2:
        # the whole one and 2 + 3 + 4 proper ones; without the memo it makes
        # 27 mu evaluations, as the reference below does.  f_5 needs weight 6
        # on three variables: 3 of the 2,673 monomial tuples have f_5 != 0
        md = build_merkulov(3, 6, 4)
        ref = FractionTransfer(md)
        ref_calls = []
        ref_mu = ref.mu

        def counting_ref(i, args):
            ref_calls.append(i)
            return ref_mu(i, args)

        ref.mu = counting_ref
        calls = []
        original = MerkulovData._mu_range

        def counting(self, keys, leaves, lo, hi):
            calls.append((lo, hi))
            return original(self, keys, leaves, lo, hi)

        monkeypatch.setattr(MerkulovData, "_mu_range", counting)
        args = [X(1), X(2), X(1), X(3) ** 2, X(2)]
        value = md.f_taylor(args)
        assert not value.is_zero()
        assert value == ref.f_taylor(args)
        assert len(calls) == len(set(calls)) == 10
        assert len(ref_calls) == 27

    def test_a_second_call_evaluates_only_its_new_ranges(self, monkeypatch):
        # the memo keys a range on the contents of its arguments, so after
        # (a, b, c, d) the rotation (b, c, d, a) meets only d a, c d a and
        # b c d a anew; the instance is fresh, so its memo starts empty
        md = build_merkulov(4, 5, 3)
        ref = FractionTransfer(md)
        calls = []
        original = MerkulovData._mu_range

        def counting(self, keys, leaves, lo, hi):
            calls.append((lo, hi))
            return original(self, keys, leaves, lo, hi)

        monkeypatch.setattr(MerkulovData, "_mu_range", counting)
        # f_4 first appears at weight 5 on four variables
        first = [X(1), X(2), X(3) * X(4), X(3)]
        for args, new in ((first, 6), (first[1:] + first[:1], 3)):
            calls.clear()
            value = md.f_taylor(args)
            assert not value.is_zero()
            assert value == ref.f_taylor(args)
            assert len(calls) == new
        assert sorted(calls) == [(0, 4), (1, 4), (2, 4)]

    def test_a_memo_that_starts_over_keeps_every_value(self, monkeypatch):
        # past _MEMO_ENTRIES the next call empties the memo and its content
        # keys; every value stays equal to the reference across such restarts
        monkeypatch.setattr(ainfty, "_MEMO_ENTRIES", 8)
        md = build_merkulov(4, 4, 3)
        ref = FractionTransfer(md)
        sizes = []
        for k in (2, 3):
            trees = enumerate_pbt(k)
            for args in mixed_tuples(md, k, 4, seed=k) + [
                list(a) for a in monomial_tuples(4, k + 1, 4)[::40]
            ]:
                assert_transfer_matches(md, ref, args, trees)
                sizes.append(len(md._memo))
        assert max(sizes) > 8
        assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))


class TestLiftMemo:
    """Each argument is lifted once per MerkulovData, memoized on its word map
    and its terms and keyed by the lift's number."""

    def test_equal_contents_share_one_key(self):
        md = build_merkulov(3, 4, 3)
        a = Fraction(3, 2) * X(1) - Fraction(1, 3) * X(2) * X(3)
        same = AlgebraElement(dict(a.terms))
        reordered = AlgebraElement(dict(reversed(list(a.terms.items()))))
        assert same is not a and list(reordered.terms) != list(a.terms)
        lifted = [md._lift_args([e.terms], ainfty._f1_word) for e in (a, same, reordered)]
        assert lifted[0][0] == lifted[1][0] == (0,) and lifted[2][0] == (1,)
        assert lifted[0][1] == lifted[2][1] == [{((1,),): 9, ((2,), (3,)): -2}]
        assert {scale for _, _, scale in lifted} == {6}
        # the equal-order copy reads the first lift; the other order is lifted
        # once more, under its own key, to equal values
        assert lifted[1][1][0] is lifted[0][1][0]
        assert len(md._lifts) == 2

    def test_word_maps_never_share_an_entry(self):
        md = build_merkulov(3, 4, 3)
        ref = FractionTransfer(md)
        terms = (X(1) + Fraction(1, 2) * X(2)).terms
        plain = md._lift_args([terms])
        mapped = md._lift_args([terms], ainfty._f1_word)
        assert plain[0] != mapped[0] and plain[1] != mapped[1]
        assert mapped[1] == [{((1,),): 2, ((2,),): 1}]
        assert len(md._lifts) == 2
        # mu on the f1 images and f_taylor on the polynomials, in both orders
        args = [X(2) + Fraction(1, 2) * X(3), Fraction(-2, 3) * X(1)]
        words = [f1(a) for a in args] + [f1(X(1))]
        for _ in range(2):
            assert md.mu(3, words) == ref.mu(3, words)
            assert md.f_taylor(args) == ref.f_taylor(args)
            assert md.mu(3, words) == ref.mu(3, words)
        assert not md.f_taylor(args).is_zero() and not md.mu(3, words).is_zero()

    def test_a_reset_memo_gives_the_same_results(self, monkeypatch):
        monkeypatch.setattr(ainfty, "_MEMO_ENTRIES", 4)
        md = build_merkulov(3, 4, 3)
        ref = FractionTransfer(md)
        tuples = mixed_tuples(md, 2, 6, seed=5)
        sizes = []
        for args in tuples + tuples:
            words = [f1(a) for a in args]
            assert md.f_taylor(args) == ref.f_taylor(args)
            sizes.append(len(md._lifts))
            assert md.mu(2, words[:2]) == ref.mu(2, words[:2])
            sizes.append(len(md._lifts))
        assert max(sizes) <= 4 + 3
        assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))

    def test_one_object_is_lifted_once_across_the_maps(self, monkeypatch):
        # the lift of each argument object is found by its id in every later
        # call; an equal copy is found by its content and lifted no more
        md = build_merkulov(4, 5, 3)
        ref = FractionTransfer(md)
        calls = []
        original = ainfty.lift

        def counting(terms, scale=0):
            calls.append(1)
            return original(terms, scale)

        monkeypatch.setattr(ainfty, "lift", counting)
        args = [X(1), Fraction(3, 2) * X(2), X(3) * X(4), X(3) - Fraction(1, 3) * X(4)]
        values = []
        for run in (args, [AlgebraElement(dict(a.terms)) for a in args]):
            values.append(md.f_taylor(run))
            values.extend(md.f_tree(t, run) for t in enumerate_pbt(3))
            values.append(class_tree_sum(md, run))
            assert len(calls) == len(args)
        assert values[:7] == values[7:] and not values[0].is_zero()
        assert values[0] == ref.f_taylor(args) and values[6] == ref.class_tree_sum(args)
        assert not values[6].is_zero()
        assert len(md._lifts) == len(args) and len(md._lift_ids) == 2 * len(args)
        # the entry holds its dict, so that no other object can take its id
        for a in args:
            assert md._lift_ids[(id(a.terms), ainfty._f1_word)][0] is a.terms
        copies = md._lift_args([dict(a.terms) for a in args], ainfty._f1_word)
        assert copies[0] == md._lift_args([a.terms for a in args], ainfty._f1_word)[0]

    def test_the_ids_start_over_with_the_memo_and_the_lifts(self, monkeypatch):
        # equal copies add ids and no lift, so the ids alone can trip the
        # reset; the three maps are replaced together, never one alone
        monkeypatch.setattr(ainfty, "_MEMO_ENTRIES", 6)
        md = build_merkulov(3, 4, 3)
        ref = FractionTransfer(md)
        args = [X(1) + Fraction(1, 2) * X(2), X(2), Fraction(-2, 3) * X(3)]
        held, starts = (md._memo, md._lifts, md._lift_ids), 0
        for _ in range(8):
            run = [AlgebraElement(dict(a.terms)) for a in args]
            assert class_tree_sum(md, run) == ref.class_tree_sum(run)
            now = (md._memo, md._lifts, md._lift_ids)
            same = [a is b for a, b in zip(held, now)]
            assert same in ([True] * 3, [False] * 3)
            starts += not same[0]
            held = now
            assert len(md._lifts) == 3 and len(md._lift_ids) <= 6 + 3
        assert starts >= 2

    def test_lifts_alone_start_the_memos_over(self, monkeypatch):
        # mu_2 adds no memo entry, so only the lift memo can trip the reset
        monkeypatch.setattr(ainfty, "_MEMO_ENTRIES", 4)
        md = build_merkulov(3, 4, 3)
        for c in range(1, 13):
            pair = [f1(X(1)), f1(Fraction(c, 7) * X(2))]
            assert md.mu(2, pair) == RElement.from_word(((1,), (2,)), Fraction(c, 7))
            assert not md._memo
            assert len(md._lifts) <= 4 + 2


class TestCsTree:
    def test_k2_exhaustive_two_vars(self, md2):
        samples = monomial_tuples(2, 3, 4)
        assert len(samples) == 44
        assert cstree_failures(md2, samples) == []

    def test_k3_variables_three_vars(self, md3):
        samples = [tuple(X(i) for i in combo) for combo in product((1, 2, 3), repeat=4)]
        assert len(samples) == 81
        assert cstree_failures(md3, samples) == []

    def test_failure_reporting_shape(self, md2):
        assert cstree_failures(md2, [(X(1), X(2))]) == []
        assert render(class_tree_sum(md2, (X(1), X(2)))) == "lam[1,2]"


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
