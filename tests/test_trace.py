"""Trace evaluators: the four routes, operators, and coefficients."""

from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest

from symtrace.derham import Form, d, form_basis
from symtrace.gcalg import (
    AlgebraElement,
    InvalidInputError,
    dx_gen,
    lam_gen,
    render,
    x_gen,
)
from symtrace.trace import (
    D_op,
    F_eval,
    TraceMethod,
    UnsupportedDegreeError,
    cs_coefficient,
    cs_trace_raw,
    hat_D_op,
    omega_eval,
    theta_eval,
    theta_omega_q,
    trace,
    trace_diffop,
    trace_simple,
)


def X(i):
    return AlgebraElement.from_gen(x_gen(i))


def DX(i):
    return AlgebraElement.from_gen(dx_gen(i))


def LAM(*idx):
    return AlgebraElement.from_gen(lam_gen(idx))


def F(body, nvars=3):
    return Form(body, nvars)


def basis_forms(nvars, weight_cap, degree_cap):
    for w in range(weight_cap + 1):
        for p in range(min(nvars, degree_cap) + 1):
            for m in form_basis(nvars, w, p):
                yield w, p, Form(AlgebraElement.from_monomial(m), nvars)


class TestEvaluators:
    def test_theta_constant_block(self):
        assert theta_eval(F(DX(1) * DX(2))) == LAM(1, 2)

    def test_theta_kills_positive_weight(self):
        assert theta_eval(F(X(1) * DX(2))).is_zero()

    def test_theta_kills_constants(self):
        assert theta_eval(F(AlgebraElement.constant(5))).is_zero()

    def test_omega_linear(self):
        assert omega_eval(F(X(1) * DX(2))) == LAM(1, 2)

    def test_omega_kills_quadratic(self):
        assert omega_eval(F(X(1) ** 2 * DX(2))).is_zero()

    def test_omega_antisymmetry(self):
        assert omega_eval(F(X(2) * DX(1))) == -LAM(1, 2)


class TestChernSimonsRoute:
    def test_zero_form_is_identity(self):
        f = X(1) ** 2 * X(2)
        assert cs_trace_raw(F(f)) == f

    def test_one_form(self):
        assert cs_trace_raw(F(X(1) * DX(2))) == LAM(1, 2)

    def test_weight_two_coefficient(self):
        assert cs_trace_raw(F(X(1) ** 2 * DX(2))) == 2 * (X(1) * LAM(1, 2))

    def test_only_leading_q_contributes(self):
        # honest, unpruned evaluation of the slot sums away from q = r
        omega = F(X(1) * X(2) * DX(3), 3)
        eta = d(omega)
        r = 1  # d omega has linear coefficients
        for q in range(0, 4):
            value = theta_omega_q(eta, q, prune=False)
            if q == r:
                assert value == theta_omega_q(eta, r)
                assert not value.is_zero() or cs_trace_raw(omega).is_zero()
            else:
                assert value.is_zero()

    def test_quotient_well_defined(self):
        omega = F(X(1) * X(2) * DX(3))
        eta = F(X(1) * X(2) * X(3))
        assert cs_trace_raw(omega + d(eta)) == cs_trace_raw(omega)


class TestSimpleFormula:
    def test_single_map(self):
        assert trace_simple(F(X(1) * DX(2))) == LAM(1, 2)

    def test_two_maps(self):
        got = trace_simple(F(X(1) * X(2) * DX(3)))
        assert got == X(2) * LAM(1, 3) + X(1) * LAM(2, 3)

    def test_constant_coefficient_form_is_zero(self):
        assert trace_simple(F(DX(1) * DX(2))).is_zero()

    def test_repeated_variable(self):
        assert trace_simple(F(X(1) * DX(1))).is_zero()


class TestFEvaluator:
    def test_exact_one_du(self):
        assert F_eval(F(DX(1))) == X(1)

    def test_exact_two_du(self):
        assert F_eval(d(F(X(1) * DX(2)))) == LAM(1, 2)

    def test_compatibility_with_simple(self):
        for _, _, form in basis_forms(2, 3, 2):
            assert F_eval(d(form)) == trace_simple(form)

    def test_intermediate_value(self):
        # the standalone value of F keeps only terms whose constant slot
        # received a dx-block
        assert F_eval(F(X(1) * DX(2))) == Fraction(1, 2) * (X(1) * X(2))


class TestRouteAgreement:
    def test_exhaustive_small(self):
        for _, p, form in basis_forms(2, 3, 2):
            a = cs_trace_raw(form)
            b = trace_simple(form)
            c = F_eval(d(form))
            assert a == b == c
            if p <= 2:
                assert a == trace_diffop(form)

    def test_permutation_equivariance(self):
        # swapping x1 <-> x2 commutes with every route
        def swap_form(form):
            from symtrace.gcalg import X_KIND, monomial_from_factors

            out = AlgebraElement.zero()
            sw = {1: 2, 2: 1, 3: 3}
            for m, c in form.body.terms.items():
                factors = []
                for g, e in m:
                    idx = sw[g[1]]
                    factors.extend(
                        [x_gen(idx) if g[0] == X_KIND else dx_gen(idx)] * e
                    )
                r = monomial_from_factors(factors)
                s, mono = r
                out = out + AlgebraElement.from_monomial(mono, s * c)
            return Form(out, form.nvars)

        def swap_target(a):
            from symtrace.gcalg import LAM_KIND, lam_letter, monomial_from_factors

            sw = {1: 2, 2: 1, 3: 3}
            out = AlgebraElement.zero()
            for m, c in a.terms.items():
                sign = 1
                factors = []
                for g, e in m:
                    if g[0] == LAM_KIND:
                        r = lam_letter([sw[i] for i in g[1]])
                        s, gg = r
                        sign *= s**e
                        factors.extend([gg] * e)
                    else:
                        factors.extend([x_gen(sw[g[1]])] * e)
                r = monomial_from_factors(factors)
                s, mono = r
                out = out + AlgebraElement.from_monomial(mono, sign * s * c)
            return out

        for _, _, form in basis_forms(2, 3, 2):
            for route in (cs_trace_raw, trace_simple):
                assert route(swap_form(form)) == swap_target(route(form))


class TestDOperators:
    def test_d22_display(self):
        # the explicit splitting on u dv1 dv2 dv3
        omega = F(X(1) * DX(1) * DX(2) * DX(3))
        assert D_op(omega, (2, 2)) == -(LAM(1, 2) * LAM(1, 3))

    def test_d22_general_expansion(self):
        omega = F(X(1) * X(2) * DX(1) * DX(2) * DX(3))

        # the displayed first-order splitting formula, written out directly
        def d22_display(us, dus):
            out = AlgebraElement.zero()
            for i, u in enumerate(us):
                rest = AlgebraElement.one()
                for j, v in enumerate(us):
                    if j != i:
                        rest = rest * X(v)
                def lam2(a, b):
                    from symtrace.gcalg import lam_letter

                    r = lam_letter([a, b])
                    if r is None:
                        return AlgebraElement.zero()
                    s, g = r
                    return s * AlgebraElement.from_gen(g)

                v1, v2, v3 = dus
                bracket = (
                    lam2(u, v1) * lam2(v2, v3)
                    - lam2(u, v2) * lam2(v1, v3)
                    + lam2(u, v3) * lam2(v1, v2)
                )
                out = out + Fraction(1, 2) * (rest * bracket)
            return out

        assert D_op(omega, (2, 2)) == d22_display([1, 2], [1, 2, 3])

    def test_p_equals_one_split_is_identity_shape(self):
        # tuple (1,) on a 0-wedge... the m=1 tuple is s^-1 itself
        from symtrace.resolution import s_inv

        omega = F(X(1) * X(2) * DX(2) * DX(3))
        assert D_op(omega, (2,)) == s_inv(omega)

    def test_tuple_validation(self):
        omega = F(X(1) * DX(1) * DX(2) * DX(3))
        with pytest.raises(InvalidInputError):
            D_op(omega, (2, 3))  # wrong sum
        with pytest.raises(InvalidInputError):
            D_op(omega, (1, 3))  # leading entry < 2

    def test_hat_scaling_on_three_forms(self):
        # hat D^(2,2) = -2 D^(2,2) on every 3-form monomial
        for w in range(1, 4):
            for m in form_basis(3, w, 3):
                eta = Form(AlgebraElement.from_monomial(m), 3)
                assert hat_D_op(eta, (2, 2)) == -2 * D_op(eta, (2, 2))

    def test_hat_tail_identity(self):
        # hat D^(k,1) = s^-1 (d iota - k) on k-forms
        from symtrace.derham import euler_contract
        from symtrace.resolution import s_inv

        for w in range(1, 4):
            for k in (2, 3):
                for m in form_basis(3, w, k):
                    eta = Form(AlgebraElement.from_monomial(m), 3)
                    got = hat_D_op(eta, (k, 1))
                    inner = d(euler_contract(eta)) - k * eta
                    expected = s_inv(inner) if not inner.is_zero() else AlgebraElement.zero()
                    assert got == expected

    def test_operator_identity_on_exact_two_forms(self):
        # hat D^(2,2,1) d = -(r-1) D^(2,2) d on 2-forms of coefficient
        # degree r+1
        for r in range(0, 3):
            for m in form_basis(3, r + 1, 2):
                omega = Form(AlgebraElement.from_monomial(m), 3)
                eta = d(omega)
                if eta.is_zero():
                    continue
                assert hat_D_op(eta, (2, 2, 1)) == -(r - 1) * D_op(eta, (2, 2))


class TestDiffOpRoute:
    def test_zero_and_one_forms(self):
        assert trace_diffop(F(X(1) ** 2 * X(2))) == X(1) ** 2 * X(2)
        from symtrace.resolution import s_inv

        omega = F(X(1) ** 2 * DX(2))
        assert trace_diffop(omega) == s_inv(d(omega))

    def test_degree_cap(self):
        with pytest.raises(UnsupportedDegreeError):
            trace_diffop(F(X(1) * DX(1) * DX(2) * DX(3)))

    def test_two_form_agrees_with_simple(self):
        for w in range(1, 4):
            for m in form_basis(3, w, 2):
                omega = Form(AlgebraElement.from_monomial(m), 3)
                assert trace_diffop(omega) == trace_simple(omega)


class TestCsCoefficient:
    def test_leading_is_one(self):
        for r in range(0, 7):
            assert cs_coefficient(r, 0) == 1

    def test_classical_normalization(self):
        assert cs_coefficient(1, 1) == Fraction(-1, 6)

    def test_against_exact_integration(self):
        # A_i = (r+1) C(r,i) (-1/2)^i Beta(r+1, i+1), Beta exact via factorials
        for r in range(0, 7):
            for i in range(0, r + 1):
                beta = Fraction(factorial(r) * factorial(i), factorial(r + i + 1))
                expected = (
                    (r + 1) * comb(r, i) * Fraction((-1) ** i, 2**i) * beta
                )
                assert cs_coefficient(r, i) == expected

    def test_range_validation(self):
        with pytest.raises(InvalidInputError):
            cs_coefficient(2, 3)
        with pytest.raises(InvalidInputError):
            cs_coefficient(-1, 0)


class TestDispatcher:
    def test_methods_agree(self):
        omega = F(X(1) * X(2) * DX(3))
        values = {
            method: trace(omega, method)
            for method in TraceMethod
        }
        assert len({render(v) for v in values.values()}) == 1

    def test_inhomogeneous_input(self):
        omega = F(X(1) ** 3 + X(1) * DX(2))
        assert trace(omega) == X(1) ** 3 + LAM(1, 2)
