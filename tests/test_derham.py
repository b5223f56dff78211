"""De Rham operations: differential, Euler contraction, exactness."""

import pytest
from hypothesis import given, strategies as st

from symtrace.derham import (
    Form,
    bigrade_split,
    d,
    euler_contract,
    exactness_witness,
    equal_mod_exact,
    form_basis,
)
from symtrace.gcalg import AlgebraElement, InvalidInputError, dx_gen, x_gen


def X(i):
    return AlgebraElement.from_gen(x_gen(i))


def DX(i):
    return AlgebraElement.from_gen(dx_gen(i))


def F(body, nvars=3):
    return Form(body, nvars)


def all_basis_forms(nvars, weight_cap, degree_cap):
    for w in range(weight_cap + 1):
        for p in range(min(nvars, degree_cap) + 1):
            for m in form_basis(nvars, w, p):
                yield w, p, Form(AlgebraElement.from_monomial(m), nvars)


class TestDifferential:
    def test_on_generator(self):
        assert d(F(X(1))) == F(DX(1))

    def test_leibniz(self):
        assert d(F(X(1) * X(2))) == F(X(2) * DX(1) + X(1) * DX(2))

    def test_on_mixed_term(self):
        assert d(F(X(1) * DX(2))) == F(DX(1) * DX(2))

    def test_square_zero_exhaustive(self):
        for _, _, form in all_basis_forms(3, 4, 3):
            assert d(d(form)).is_zero()

    def test_bidegree_shift(self):
        parts = bigrade_split(d(F(X(1) ** 2 * DX(2))))
        assert [(w, p) for w, p, _ in parts] == [(1, 2)]


class TestEulerContraction:
    def test_on_dx(self):
        assert euler_contract(F(DX(1))) == F(X(1))

    def test_odd_leibniz(self):
        got = euler_contract(F(DX(1) * DX(2)))
        assert got == F(X(1) * DX(2) - X(2) * DX(1))

    def test_coefficient_passthrough(self):
        assert euler_contract(F(X(2) * DX(1))) == F(X(1) * X(2))

    def test_cartan_euler_identity(self):
        for w, p, form in all_basis_forms(3, 4, 3):
            lhs = d(euler_contract(form)) + euler_contract(d(form))
            assert lhs == (w + p) * form


class TestBigradeSplit:
    def test_mixed(self):
        parts = bigrade_split(F(X(1) + DX(1)))
        assert [(w, p) for w, p, _ in parts] == [(0, 1), (1, 0)]
        total = Form.zero(3)
        for _, _, part in parts:
            total = total + part
        assert total == F(X(1) + DX(1))

    def test_single(self):
        parts = bigrade_split(F(X(1) ** 2 * DX(2)))
        assert [(w, p) for w, p, _ in parts] == [(2, 1)]

    def test_zero(self):
        assert bigrade_split(Form.zero(2)) == []


class TestExactnessWitness:
    def test_dx(self):
        eta = exactness_witness(F(DX(1)))
        assert eta == F(X(1))

    def test_antiderivative(self):
        eta = exactness_witness(F(X(1) * DX(1)))
        assert d(eta) == F(X(1) * DX(1))

    def test_two_form(self):
        omega = F(DX(1) * DX(2))
        eta = exactness_witness(omega)
        assert eta is not None and d(eta) == omega

    def test_non_exact(self):
        # x1 dx2 is not exact: d(x1 x2) hits both dx1 and dx2 terms
        assert exactness_witness(F(X(1) * DX(2))) is None

    def test_non_homogeneous_rejected(self):
        with pytest.raises(InvalidInputError):
            exactness_witness(F(X(1) + DX(1)))

    def test_witness_on_images_exhaustive(self):
        for _, _, form in all_basis_forms(2, 3, 2):
            img = d(form)
            if img.is_zero():
                continue
            eta = exactness_witness(img)
            assert eta is not None
            assert d(eta) == img

    def test_equal_mod_exact(self):
        omega = F(X(1) * DX(2))
        shifted = omega + d(F(X(1) ** 2 * X(2)))
        assert equal_mod_exact(omega, shifted)
        assert not equal_mod_exact(omega, F(X(2) * DX(1)))

    @pytest.mark.parametrize("omega, nvars, eta", [
        (DX(1) * DX(2), 2, -X(2) * DX(1)),
        (X(1) ** 2 * DX(1) * DX(2), 2, -(X(1) ** 2) * X(2) * DX(1)),
        (DX(1) * DX(2) * DX(3), 3, X(3) * DX(1) * DX(2)),
    ])
    def test_pinned_witnesses(self, omega, nvars, eta):
        # the particular solution supported on the first independent images
        assert exactness_witness(F(omega, nvars)) == F(eta, nvars)

    @given(st.data())
    def test_adding_an_exact_form_is_invisible(self, data):
        nvars = data.draw(st.integers(1, 3))
        forms = []
        for _ in range(2):
            w = data.draw(st.integers(0, 3))
            p = data.draw(st.integers(0, nvars))
            basis = form_basis(nvars, w, p)
            coeffs = data.draw(st.lists(st.fractions(-3, 3, max_denominator=3),
                                        min_size=len(basis), max_size=len(basis)))
            forms.append(F(AlgebraElement(dict(zip(basis, coeffs))), nvars))
        eta, omega = forms
        assert equal_mod_exact(omega + d(eta), omega)
        witness = exactness_witness(d(eta))
        assert witness is not None and d(witness) == d(eta)
