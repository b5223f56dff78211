"""Diagonal Cartan traces: power sums, symmetrization, route agreement."""

import random
from fractions import Fraction
from itertools import permutations

from symtrace.cartan import (
    DiagonalTraceValue,
    trace_cartan,
    vartheta_power_sum,
    vartheta_symmetrize,
)
from symtrace.derham import Form, form_basis
from symtrace.gcalg import AlgebraElement, dx_gen, lam_gen, x_gen
from symtrace.trace import trace_simple


def X(i):
    return AlgebraElement.from_gen(x_gen(i))


def DX(i):
    return AlgebraElement.from_gen(dx_gen(i))


def LAM(*idx):
    return AlgebraElement.from_gen(lam_gen(idx))


def trace_cartan_total(omega, n):
    """The symmetrized trace: the sum of the power-sum traces over all q."""
    return vartheta_symmetrize(trace_simple(omega), n)


ONE = ()


class TestVartheta:
    def test_rank_one_is_identity(self):
        t = X(1) * LAM(1, 2)
        got = vartheta_power_sum(t, 1, 1)  # two letters -> q + 1 = 2
        (key, c), = got.terms.items()
        assert len(key) == 1 and c == 1

    def test_letter_count_filter(self):
        t = X(1) * LAM(1, 2)  # two generator letters
        assert vartheta_power_sum(t, 2, 0).is_zero()
        assert not vartheta_power_sum(t, 2, 1).is_zero()

    def test_symmetrization_example(self):
        t = LAM(1, 2)
        got = vartheta_symmetrize(t, 2)
        lam_mono = next(iter(LAM(1, 2).terms))
        assert got.terms == {
            (lam_mono, ONE): Fraction(1),
            (ONE, lam_mono): Fraction(1),
        }

    def test_power_sums_add_up_to_symmetrization(self):
        t = X(1) * LAM(1, 2) + 3 * X(2)
        total = DiagonalTraceValue.zero(3)
        for q in range(0, 6):
            total = total + vartheta_power_sum(t, 3, q)
        assert total == vartheta_symmetrize(t, 3)

    def test_zero(self):
        assert vartheta_power_sum(AlgebraElement.zero(), 2, 1).is_zero()


class TestTraceCartan:
    def test_rank_one_reduces_to_simple(self):
        omega = Form(X(1) * DX(2), 2)
        got = trace_cartan(omega, 1, 0)
        lam_mono = next(iter(LAM(1, 2).terms))
        assert got.terms == {(lam_mono,): Fraction(1)}

    def test_two_slot_example(self):
        omega = Form(X(1) * DX(2), 2)
        got = trace_cartan_total(omega, 2)
        lam_mono = next(iter(LAM(1, 2).terms))
        assert got.terms == {
            (lam_mono, ONE): Fraction(1),
            (ONE, lam_mono): Fraction(1),
        }

    def test_routes_agree_exhaustive(self):
        for w in range(0, 4):
            for p in range(0, 3):
                for m in form_basis(2, w, p):
                    omega = Form(AlgebraElement.from_monomial(m), 2)
                    for n in (1, 2, 3):
                        for q in (0, 1, 2):
                            value = trace_cartan(omega, n, q)
                            assert value.is_symmetric()

    def test_q_selects_weight(self):
        omega = Form(X(1) ** 2 * DX(2), 2)  # weight 2 coefficient: q = 1
        assert trace_cartan(omega, 2, 0).is_zero()
        assert not trace_cartan(omega, 2, 1).is_zero()

    def test_total_equals_sum_over_q(self):
        omega = Form(X(1) * DX(2) + X(2) ** 2 * DX(1), 2)
        total = trace_cartan_total(omega, 2)
        by_q = DiagonalTraceValue.zero(2)
        for q in range(0, 5):
            by_q = by_q + trace_cartan(omega, 2, q)
        assert total == by_q


class TestSlotPermutation:
    def test_koszul_sign_on_odd_slots(self):
        lam_mono = next(iter(LAM(1, 2).terms))
        v = DiagonalTraceValue(2, {(lam_mono, ONE): Fraction(1)})
        swapped = v.permute_slots((1, 0))
        assert swapped.terms == {(ONE, lam_mono): Fraction(1)}

    def test_symmetry_detector(self):
        lam_mono = next(iter(LAM(1, 2).terms))
        sym = DiagonalTraceValue(
            2, {(lam_mono, ONE): Fraction(1), (ONE, lam_mono): Fraction(1)}
        )
        asym = DiagonalTraceValue(2, {(lam_mono, ONE): Fraction(1)})
        assert sym.is_symmetric()
        assert not asym.is_symmetric()

    def test_symmetric_under_one_transposition_only_is_rejected(self):
        a, b = next(iter(X(1).terms)), next(iter(X(2).terms))
        v = DiagonalTraceValue(3, {(a, b, ONE): Fraction(1), (b, a, ONE): Fraction(1)})
        assert v.permute_slots((1, 0, 2)) == v
        assert v.permute_slots((0, 2, 1)) != v
        assert not v.is_symmetric()

    def test_checks_only_the_adjacent_transpositions(self, monkeypatch):
        lam_mono = next(iter(LAM(1, 2).terms))
        v = vartheta_symmetrize(AlgebraElement.from_monomial(lam_mono), 5)
        calls = []
        original = DiagonalTraceValue.permute_slots

        def counting(self, sigma):
            calls.append(tuple(sigma))
            return original(self, sigma)

        monkeypatch.setattr(DiagonalTraceValue, "permute_slots", counting)
        assert v.is_symmetric()
        # the transposition (0 1) and the 5-cycle, which generate S_5
        assert calls == [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]

    def test_agrees_with_every_permutation(self):
        rng = random.Random(3)
        slots = [ONE, next(iter(X(1).terms)), next(iter(LAM(1, 2).terms)),
                 next(iter(LAM(1, 3).terms))]
        for _ in range(200):
            keys = [tuple(rng.choice(slots) for _ in range(3)) for _ in range(rng.randint(1, 3))]
            v = DiagonalTraceValue(3, {k: Fraction(rng.choice((-1, 1))) for k in keys})
            if rng.random() < 0.5:
                total = DiagonalTraceValue.zero(3)
                for sigma in permutations(range(3)):
                    total.iadd(v.permute_slots(sigma))
                v = total
            expected = all(v.permute_slots(s) == v for s in permutations(range(3)))
            assert v.is_symmetric() == expected
