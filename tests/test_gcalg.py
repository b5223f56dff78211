"""Graded-commutative kernel: Koszul signs, multiplication, canonicalization."""

import random
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from symtrace import gcalg
from symtrace.cartan import DiagonalTraceValue
from symtrace.gcalg import (
    AlgebraElement,
    Echelon,
    InvalidInputError,
    _label_orderings,
    add_into,
    block_maps,
    block_sign,
    comb_totals,
    dx_gen,
    echelon,
    echelon_split,
    grown,
    koszul_sign,
    lam_gen,
    lam_letter,
    lam_product,
    monomial_from_factors,
    monomial_mul,
    monomial_parity,
    perm_sign,
    render,
    shuffles,
    x_gen,
)
from symtrace.resolution import RElement


def X(i):
    return AlgebraElement.from_gen(x_gen(i))


def DX(i):
    return AlgebraElement.from_gen(dx_gen(i))


def LAM(*idx):
    return AlgebraElement.from_gen(lam_gen(idx))


def differentiate(a, i):
    """The constant-coefficient derivative d/dxi of a, term by term."""
    g = x_gen(i)
    out = AlgebraElement.zero()
    for m, c in a.terms.items():
        e = dict(m).get(g, 0)
        if e:
            out.add_term(tuple((h, k - (h == g)) for h, k in m if h != g or k > 1), c * e)
    return out


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

    def test_zero_to_any_positive_power_is_zero_at_once(self):
        zero = AlgebraElement.zero()
        assert (zero ** 10**30).is_zero()  # a loop of 10**30 products would never end
        assert (DX(1) ** 2) ** 10**30 == zero
        assert zero ** 0 == AlgebraElement.one()

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

    def test_product_equals_the_fraction_sum_in_its_order(self):
        # each pair's signed product summed on Fractions, pair by pair; the
        # integer product keeps the same values in the same key order
        rng = random.Random(11)
        pool = _small_monomials(2, 2)  # few monomials, so that products meet and cancel

        def reference(a, b):
            out = {}
            for m1, c1 in a.terms.items():
                for m2, c2 in b.terms.items():
                    r = monomial_mul(m1, m2)
                    if r is not None:
                        out[r[1]] = out.get(r[1], 0) + r[0] * c1 * c2
            return out

        def draw():
            return AlgebraElement({
                rng.choice(pool): Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3)))
                for _ in range(rng.randint(0, 5))
            })

        pairs = [(X(1) + X(2), X(1) - X(2)), (Fraction(1, 2) * X(1) - DX(2), 3 * DX(2) + X(1))]
        pairs += [(draw(), draw()) for _ in range(400)]
        cancelled = 0
        for a, b in pairs:
            got, ref = a * b, reference(a, b)
            assert list(got.terms.items()) == [(m, c) for m, c in ref.items() if c]
            assert all(type(c) is Fraction for c in got.terms.values())
            cancelled += 0 in ref.values()
        assert cancelled > 1


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


class TestLamLetter:
    def test_sorting_sign(self):
        sign, g = lam_letter([2, 1])
        assert sign == -1 and g == lam_gen((1, 2))

    def test_repeat_is_zero(self):
        assert lam_letter([1, 1]) is None

    def test_singleton_collapses(self):
        sign, g = lam_letter([3])
        assert sign == 1 and g == x_gen(3)


class TestLamLetterMemo:
    def test_list_tuple_and_generator_agree(self):
        for args in ([3, 1, 2], [2, 4], [1, 3, 1], [4]):
            expected = lam_letter(list(args))
            assert lam_letter(tuple(args)) == expected
            assert lam_letter(a for a in args) == expected

    def test_mutating_the_argument_changes_no_later_answer(self):
        args = [2, 1]
        first = lam_letter(args)
        args.reverse()
        assert lam_letter(args) == (1, lam_gen((1, 2)))
        args[0] = 2
        assert lam_letter(args) is None
        assert lam_letter([2, 1]) == first == (-1, lam_gen((1, 2)))

    def test_memo_is_bounded(self):
        maxsize = gcalg._lam_letter.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0

    @given(st.lists(st.integers(1, 6), max_size=6))
    def test_matches_a_direct_sort(self, args):
        got = lam_letter(args)
        if not args or len(set(args)) < len(args):
            assert got is None
        else:
            inversions = sum(a > b for i, a in enumerate(args) for b in args[i + 1 :])
            assert got == ((-1) ** inversions, lam_gen(tuple(sorted(args))))


GENERATORS = [x_gen(1), x_gen(2), dx_gen(1), dx_gen(2), dx_gen(3), lam_gen((1, 2)), lam_gen((1, 2, 3))]


@given(st.lists(st.sampled_from(GENERATORS), max_size=6))
def test_monomial_from_factors_is_the_fold_of_monomial_mul(factors):
    expected = (1, ())
    for g in factors:
        step = monomial_mul(expected[1], ((g, 1),))
        if step is None:
            expected = None
            break
        expected = (expected[0] * step[0], step[1])
    assert monomial_from_factors(factors) == expected
    assert monomial_from_factors(iter(factors)) == expected


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
        assert differentiate(e, 1) == 2 * (X(1) * X(2))
        assert differentiate(e, 2) == X(1) ** 2
        assert differentiate(e, 3).is_zero()


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

    def test_public_constructors_drop_zeros(self):
        m = ((x_gen(1), 1),)
        assert AlgebraElement({m: Fraction(0)}).terms == {}
        assert AlgebraElement({m: Fraction(0), (): Fraction(1, 2)}).terms == {(): Fraction(1, 2)}
        assert RElement({((1,),): Fraction(0)}).terms == {}
        assert RElement({((1,),): 0, ((2,),): Fraction(-1, 3)}).terms == {((2,),): Fraction(-1, 3)}

    def test_from_clean_adopts_its_dict(self):
        terms = {((x_gen(1), 1),): Fraction(2, 3)}
        e = AlgebraElement.from_clean(terms)
        assert type(e) is AlgebraElement and e.terms is terms
        assert e == AlgebraElement(dict(terms))
        words = {((1, 2),): Fraction(1, 2)}
        r = RElement.from_clean(words)
        assert type(r) is RElement and r.terms is words
        # an ambient argument goes to the subclass's constructor
        slots = {((), ()): Fraction(1, 2)}
        diag = DiagonalTraceValue.from_clean(slots, 2)
        assert diag.n == 2 and diag.terms is slots
        with pytest.raises(InvalidInputError):
            diag + DiagonalTraceValue.zero(1)

    def test_scale_by_one_or_minus_one_copies(self):
        a = Fraction(3, 2) * X(1) - DX(2) + LAM(1, 2)
        for c, expected in ((1, [Fraction(3, 2), -1, 1]), (Fraction(-1), [Fraction(-3, 2), 1, -1]),
                            (-1, [Fraction(-3, 2), 1, -1]), (Fraction(2, 3), [1, Fraction(-2, 3),
                                                                           Fraction(2, 3)])):
            got = a.scale(c)
            assert type(got) is AlgebraElement and got.terms is not a.terms
            assert list(got.terms) == list(a.terms) and list(got.terms.values()) == expected
            assert all(type(v) is Fraction for v in got.terms.values())
        assert a.scale(0).terms == {}
        assert list(a.terms.values()) == [Fraction(3, 2), -1, 1]
        diag = DiagonalTraceValue.from_clean({((), ()): Fraction(1, 2)}, 2)
        assert [diag.scale(c).n for c in (1, -1, 3)] == [2, 2, 2]

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


class TestBlockMaps:
    @pytest.mark.parametrize("p, k", [(0, 1), (1, 3), (3, 2), (4, 3)])
    def test_every_map_once_in_source_order(self, p, k):
        maps = list(block_maps(p, k))
        assert len(maps) == k**p
        seen = set()
        for blocks in maps:
            assert len(blocks) == k
            assert sorted(pos for b in blocks for pos in b) == list(range(p))
            assert all(b == sorted(b) for b in blocks)
            seen.add(tuple(next(j for j, b in enumerate(blocks) if pos in b) for pos in range(p)))
        assert seen == set(product(range(k), repeat=p))

    @pytest.mark.parametrize("p, k, onto", [(3, 3, (0,)), (4, 4, (2, 3)), (2, 3, (0, 1, 2)), (0, 2, (0,))])
    def test_onto_drops_exactly_the_maps_missing_a_block(self, p, k, onto):
        expected = [b for b in block_maps(p, k) if all(b[j] for j in onto)]
        assert list(block_maps(p, k, onto=onto)) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_allowed_keeps_the_filtered_maps_in_order(self, data):
        p = data.draw(st.integers(0, 4))
        k = data.draw(st.integers(1, 4))
        onto = data.draw(st.lists(st.integers(0, k - 1), max_size=2, unique=True))
        allowed = [
            sorted(data.draw(st.sets(st.integers(0, k - 1), max_size=k))) for _ in range(p)
        ]
        expected = [
            b for b in block_maps(p, k, onto=onto)
            if all(j in allowed[pos] for j in range(k) for pos in b[j])
        ]
        assert list(block_maps(p, k, onto=onto, allowed=allowed)) == expected

    def test_allowed_drops_a_label_from_its_own_block(self):
        # dx labels (1, 3) against slot labels (1, 2): position 0 stays out of block 0
        allowed = [[j for j, u in enumerate((1, 2)) if u != v] for v in (1, 3)]
        got = list(block_maps(2, 2, allowed=allowed))
        assert got == [[[1], [0]], [[], [0, 1]]]
        assert got == [b for b in block_maps(2, 2) if 0 not in b[0]]

    def test_no_positions_is_one_empty_map(self):
        assert list(block_maps(0, 3)) == [[[], [], []]]
        assert list(block_maps(0, 0)) == [[]]

    def test_sign_is_the_parity_of_the_concatenation(self):
        assert block_sign([[1], [0, 2]]) == -1
        assert block_sign([[0, 2], [], [1, 3]]) == -1
        assert block_sign([[], []]) == 1
        for blocks in block_maps(4, 3):
            assert block_sign(blocks) == _inversion_parity([pos for b in blocks for pos in b])

    @pytest.mark.parametrize("n", range(7))
    def test_shuffle_signs_match_the_closed_formula(self, n):
        for k in range(n + 1):
            got = list(shuffles(n, k))
            assert len(got) == comb(n, k)
            for first, second, sign in got:
                assert sorted(first + second) == list(range(n))
                e = sum(first) - k * (k - 1) // 2
                assert sign == (-1 if e % 2 else 1)


def _reference_label_orderings(us):
    """The recursive enumeration the next-permutation one replaced: at each
    position every remaining label, in increasing order."""
    counts = {u: us.count(u) for u in us}
    out = []

    def extend(prefix):
        if len(prefix) == len(us):
            out.append(prefix)
            return
        for u in sorted(counts):
            if counts[u]:
                counts[u] -= 1
                extend(prefix + (u,))
                counts[u] += 1

    extend(())
    return out


class TestLabelOrderings:
    def test_equals_the_recursive_reference(self):
        for length in range(7):
            for us in product((1, 2, 3), repeat=length):
                orderings, weight = _label_orderings(us)
                assert orderings == _reference_label_orderings(us), us
                assert weight * len(orderings) == factorial(length)

    def test_long_label_runs_need_no_recursion(self):
        assert _label_orderings((1,) * 1200) == ([(1,) * 1200], factorial(1200))
        assert _label_orderings((2,) * 600 + (1,))[0][-1] == (2,) * 600 + (1,)


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


# integer matrices of at most 6 x 6 with entries in -3..3
MATRICES = st.integers(1, 6).flatmap(
    lambda cols: st.lists(
        st.lists(st.integers(-3, 3), min_size=cols, max_size=cols), min_size=1, max_size=6
    )
)


def _sparse(mat):
    return [{j: Fraction(v) for j, v in enumerate(row) if v} for row in mat]


def _combine(coeffs, rows):
    out = {}
    for i, c in coeffs.items():
        for k, v in rows[i].items():
            out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


class TestEchelon:
    @settings(deadline=None)  # the first call imports sympy
    @given(MATRICES)
    def test_rank_matches_sympy(self, mat):
        sympy = pytest.importorskip("sympy")
        assert echelon(_sparse(mat)).rank == sympy.Matrix(mat).rank()

    @given(MATRICES)
    def test_rank_of_transpose(self, mat):
        transpose = [list(col) for col in zip(*mat)]
        assert echelon(_sparse(mat)).rank == echelon(_sparse(transpose)).rank

    @given(MATRICES)
    def test_rows_are_their_combinations(self, mat):
        rows = _sparse(mat)
        ech = echelon(rows)
        assert sorted(ech.pivot_row.values()) == list(range(ech.rank))
        for p, i in ech.pivot_row.items():
            row = ech.rows[i]
            assert row == _combine(ech.combos[i], rows)
            assert min(row) == p and row[p] == 1
            assert all(q == p or q not in row for q in ech.pivot_row)

    @given(MATRICES, st.lists(st.integers(-3, 3), min_size=6, max_size=6))
    def test_split(self, mat, entries):
        ech = echelon(_sparse(mat))
        vec = {j: Fraction(v) for j, v in enumerate(entries) if v}
        coeffs, residual = echelon_split(ech, vec)
        total = _combine(coeffs, ech.rows)
        for k, v in residual.items():
            total[k] = total.get(k, 0) + v
        assert {k: v for k, v in total.items() if v} == vec
        assert not any(p in residual for p in ech.pivot_row)

    def test_dependent_rows_add_nothing(self):
        ech = echelon(_sparse([[0, 2, 4], [0, 1, 2], [1, 0, 1]]))
        assert ech.rank == 2
        assert ech.rows == [{1: 1, 2: 2}, {0: 1, 2: 1}]
        assert ech.combos == [{0: Fraction(1, 2)}, {2: 1}]

    def test_integer_rows_stay_exact(self):
        ech = echelon([{0: 3, 1: 1}])
        assert ech.rows == [{0: 1, 1: Fraction(1, 3)}]
        assert all(isinstance(v, Fraction) for v in ech.rows[0].values())


def reference_echelon(rows):
    """The sequential elimination on Fractions, one row at a time over the
    whole matrix: the reference the blocked integer ``echelon`` must equal,
    dict order included."""
    ech = Echelon()
    for j, row in enumerate(rows):
        coeffs, vec = echelon_split(ech, row)
        if not vec:
            continue
        combo = {j: Fraction(1)}
        for i, c in coeffs.items():
            add_into(combo, ech.combos[i], -c)
        p = min(vec)
        if vec[p] != 1:
            inv = 1 / Fraction(vec[p])
            vec = {k: v * inv for k, v in vec.items()}
            combo = {k: v * inv for k, v in combo.items()}
        for er, ec in zip(ech.rows, ech.combos):
            c = er.get(p)
            if c:
                add_into(er, vec, -c)
                add_into(ec, combo, -c)
        ech.pivot_row[p] = len(ech.rows)
        ech.rows.append(vec)
        ech.combos.append(combo)
    return ech


ENTRIES = st.sampled_from(
    [Fraction(v) for v in (-3, -2, -1, 1, 2, 3)] + [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]
)


@st.composite
def blocked_rows(draw):
    """Sparse rows over columns owned by planted blocks, in interleaved order:
    fresh rows, rows dependent on earlier rows of their block, and empty rows."""
    ncols = draw(st.integers(1, 14))
    nblocks = draw(st.integers(1, 4))
    owner = draw(st.lists(st.integers(0, nblocks - 1), min_size=ncols, max_size=ncols))
    rows, earlier = [], {}
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["fresh", "fresh", "dependent", "empty"]))
        b = draw(st.integers(0, nblocks - 1))
        mine = [c for c in range(ncols) if owner[c] == b]
        if kind == "empty" or not mine:
            rows.append({})
            continue
        if kind == "dependent" and earlier.get(b):
            row = {}
            for _ in range(2):
                add_into(row, draw(st.sampled_from(earlier[b])), draw(ENTRIES))
        else:
            cols = draw(st.lists(st.sampled_from(mine), min_size=1, unique=True))
            row = {c: draw(ENTRIES) for c in cols}
        earlier.setdefault(b, []).append(row)
        rows.append(row)
    return rows


def echelon_items(ech):
    return ([list(r.items()) for r in ech.rows], [list(c.items()) for c in ech.combos],
            list(ech.pivot_row.items()))


class TestBlockedEchelon:
    @settings(max_examples=300)
    @given(blocked_rows())
    def test_equals_the_sequential_fraction_elimination(self, rows):
        got = echelon(rows)
        assert echelon_items(got) == echelon_items(reference_echelon(rows))
        assert all(type(v) in (int, Fraction) for t in got.rows + got.combos for v in t.values())

    def test_one_block(self):
        # every row shares a column with the next, so the rows form one component
        rows = [{(3 * j + k) % 7: Fraction((j + 1) * (k - 2) or 1, k + 1) for k in range(3)}
                for j in range(9)]
        got = echelon(rows)
        assert got.rank == 7
        assert echelon_items(got) == echelon_items(reference_echelon(rows))

    def test_rows_are_ordered_by_the_row_that_made_the_pivot(self):
        rows = [{5: 2, 6: 1}, {0: 3}, {}, {6: 4, 5: 1}, {1: 1, 0: 1}]
        got = echelon(rows)
        assert list(got.pivot_row.items()) == [(5, 0), (0, 1), (6, 2), (1, 3)]
        assert [sorted(c) for c in got.combos] == [[0, 3], [1], [0, 3], [1, 4]]


class TestGrown:
    def test_stops_at_the_first_total_over_the_budget(self, monkeypatch):
        monkeypatch.setenv("SYMTRACE_MAX_BASIS", "10")

        def totals():
            yield from (3, 10, 11)
            raise AssertionError("a total after the first one over the budget was formed")

        assert grown(totals()) == 11

    def test_a_count_within_the_budget_is_its_last_total(self, monkeypatch):
        monkeypatch.setenv("SYMTRACE_MAX_BASIS", "10")
        assert grown(iter([1, 4, 10])) == 10
        assert grown(iter([])) == 0

    def test_a_gate_reads_the_budget_once(self, monkeypatch):
        reads = []

        def budget():
            reads.append(1)
            return 10

        monkeypatch.setattr(gcalg, "max_basis_budget", budget)
        assert len(list(gcalg.block_maps(3, 2))) == 8
        assert len(reads) == 1
        # running totals are grown only until they pass the budget, and read "at least"
        with pytest.raises(gcalg.ResourceLimitError, match=r"^at least 11 items \(budget 10\)$"):
            gcalg.charge(iter([3, 10, 11, 50]), "items")
        assert len(reads) == 2

    def test_comb_totals_grow_to_comb(self):
        for n in range(10):
            for k in range(n + 3):
                totals = list(comb_totals(n, k))
                assert totals[-1] == comb(n, k)
                assert totals == sorted(totals)
