"""De Rham operations: differential, Euler contraction, exactness."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from symtrace import derham
from symtrace.derham import (
    Form,
    bigrade_split,
    d,
    euler_contract,
    exact_image,
    exactness_witness,
    equal_mod_exact,
    form_basis,
    monomial_basis,
)
from symtrace.gcalg import (
    DX_KIND,
    X_KIND,
    AlgebraElement,
    InvalidInputError,
    ResourceLimitError,
    dx_gen,
    echelon,
    monomial_mul,
    render,
    x_gen,
)


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


def reference_d(omega):
    """d on Fractions, each term through ``monomial_mul``: the reference the
    integer ``d`` must equal."""
    out = {}
    for m, c in omega.body.terms.items():
        for pos, (g, e) in enumerate(m):
            if g[0] != X_KIND:
                continue
            rest = m[:pos] + (((g, e - 1),) if e > 1 else ()) + m[pos + 1:]
            r = monomial_mul(((dx_gen(g[1]), 1),), rest)
            if r is None:
                continue
            s, mm = r
            out[mm] = out.get(mm, Fraction(0)) + s * c * e
    return Form(AlgebraElement(out), omega.nvars)


def reference_euler_contract(omega):
    """The Euler contraction on Fractions, each term through ``monomial_mul``."""
    out = {}
    for m, c in omega.body.terms.items():
        odd_before = 0
        for pos, (g, e) in enumerate(m):
            if g[0] == DX_KIND:
                s, mm = monomial_mul(((x_gen(g[1]), 1),), m[:pos] + m[pos + 1:])
                sign = -1 if odd_before % 2 else 1
                out[mm] = out.get(mm, Fraction(0)) + sign * s * c
                odd_before += 1
    return Form(AlgebraElement(out), omega.nvars)


def assert_same(got, ref):
    assert got == ref
    assert render(got.body) == render(ref.body)
    # every coefficient is exact: a Fraction, never a float
    assert all(type(c) is Fraction for c in got.body.terms.values())


@st.composite
def rational_forms(draw):
    """Sums of basis forms on 3 variables of mixed bidegrees, weight <= 4 and
    degree <= 3, with coefficients of denominator 1 to 6."""
    body = AlgebraElement.zero()
    for _ in range(draw(st.integers(1, 6))):
        m = draw(st.sampled_from(form_basis(3, draw(st.integers(0, 4)), draw(st.integers(0, 3)))))
        num = draw(st.integers(-6, 6).filter(bool))
        body.add_term(m, Fraction(num, draw(st.integers(1, 6))))
    return Form(body, 3)


class TestIntegerSums:
    """d and the Euler contraction sum integer terms per monomial over one
    denominator; they equal the term-by-term Fraction versions."""

    def test_every_basis_form(self):
        for _, _, form in all_basis_forms(3, 4, 3):
            assert_same(d(form), reference_d(form))
            assert_same(euler_contract(form), reference_euler_contract(form))

    @given(rational_forms())
    def test_rational_sums(self, form):
        assert_same(d(form), reference_d(form))
        assert_same(euler_contract(form), reference_euler_contract(form))

    def test_exact_image_rows_are_d(self):
        for nvars in (1, 2, 3):
            for w in range(4):
                for p in range(1, nvars + 1):
                    source, index, ech = exact_image(nvars, w, p)
                    rows = [
                        {index[m2]: c for m2, c in
                         reference_d(Form(AlgebraElement.from_monomial(m), nvars)).body.terms.items()}
                        for m in source
                    ]
                    ref = echelon(rows)
                    assert (ech.rows, ech.combos, ech.pivot_row) == (ref.rows, ref.combos, ref.pivot_row)


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


def _reference_monomial_basis(nvars, weight):
    """The recursive enumeration the stars-and-bars one replaced: one
    exponent per variable, in increasing order, the last variable taking the
    remainder."""
    result = []

    def rec(i, remaining, acc):
        if i > nvars:
            if remaining == 0:
                result.append(tuple(acc))
            return
        if i == nvars:
            result.append(tuple(acc) + (((x_gen(i), remaining),) if remaining else ()))
            return
        for e in range(remaining + 1):
            rec(i + 1, remaining - e, acc + ([(x_gen(i), e)] if e else []))

    rec(1, weight, [])
    return result


class TestMonomialBasis:
    def test_equals_the_recursive_reference(self):
        for nvars in range(7):
            for weight in range(9):
                assert monomial_basis(nvars, weight) == _reference_monomial_basis(nvars, weight)

    def test_no_variables(self):
        assert monomial_basis(0, 0) == [()]
        assert monomial_basis(0, 3) == []

    def test_many_variables_need_no_recursion(self):
        # one level per variable overflows the interpreter's stack at 1,500;
        # exponent vectors come in increasing order, so x1500 comes first
        basis = monomial_basis(1500, 1)
        assert basis == [((x_gen(i), 1),) for i in range(1500, 0, -1)]


class TestExactImageBudget:
    def test_the_budget_admits_exactly_the_larger_basis(self, monkeypatch):
        # the counted sizes equal the built ones: a budget of the larger size
        # passes and one less is refused
        try:
            for nvars in range(1, 5):
                for w in range(4):
                    for p in range(1, nvars + 1):
                        size = max(len(form_basis(nvars, w + 1, p - 1)),
                                   len(form_basis(nvars, w, p)))
                        if size < 2:
                            continue  # the least budget is 1
                        exact_image.cache_clear()
                        monkeypatch.setenv("SYMTRACE_MAX_BASIS", str(size))
                        exact_image(nvars, w, p)
                        exact_image.cache_clear()
                        monkeypatch.setenv("SYMTRACE_MAX_BASIS", str(size - 1))
                        with pytest.raises(ResourceLimitError):
                            exact_image(nvars, w, p)
        finally:
            exact_image.cache_clear()

    def test_sizes_are_counted_before_either_basis_is_built(self, monkeypatch):
        # d into (2, 2) on three variables maps the 10 * 3 = 30 forms of
        # bidegree (3, 1) onto the 6 * 3 = 18 forms of bidegree (2, 2)
        exact_image.cache_clear()
        try:
            source, index, _ = exact_image(3, 2, 2)
            assert (len(source), len(index)) == (30, 18)
            exact_image.cache_clear()
            built = []
            monkeypatch.setattr(derham, "form_basis", lambda *a: built.append(a) or [])
            monkeypatch.setenv("SYMTRACE_MAX_BASIS", "29")
            with pytest.raises(ResourceLimitError, match=(
                    r"^30 basis forms of weight 3 and form degree 1 \(budget 29\)$")):
                exact_image(3, 2, 2)
            assert built == []
        finally:
            exact_image.cache_clear()
