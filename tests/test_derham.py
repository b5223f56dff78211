"""De Rham operations: differential, Euler contraction, exactness."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from symtrace import derham
from symtrace.cyclic import derham_quotient_dims
from symtrace.derham import (
    Form,
    bigrade_split,
    d,
    euler_contract,
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

    def test_cached_terms_equal_the_walk(self):
        for _, _, form in all_basis_forms(4, 4, 4):
            (m,) = form.body.terms
            walked = tuple(derham._d_walk(m))
            assert derham._d_terms(m) == walked
            assert derham._d_terms(m) is derham._d_terms(m)
        maxsize = derham._d_terms.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0


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
        (DX(1) * DX(2), 2, (X(1) * DX(2) - X(2) * DX(1)).scale(Fraction(1, 2))),
        (X(1) ** 2 * DX(1) * DX(2), 2,
         (X(1) ** 3 * DX(2) - X(1) ** 2 * X(2) * DX(1)).scale(Fraction(1, 4))),
        (DX(1) * DX(2) * DX(3), 3,
         (X(1) * DX(2) * DX(3) - X(2) * DX(1) * DX(3) + X(3) * DX(1) * DX(2)).scale(Fraction(1, 3))),
    ])
    def test_pinned_witnesses(self, omega, nvars, eta):
        # the Euler homotopy: iota(omega) / (w + p)
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


@st.composite
def homogeneous_forms(draw):
    """(w, p, omega): a nonzero form of one bidegree on 1 to 4 variables, half
    of the draws d of a random form, so that closed forms are common."""
    nvars = draw(st.integers(1, 4))
    exact = draw(st.booleans())
    w = draw(st.integers(0, 3))
    p = draw(st.integers(1 if exact else 0, nvars))
    basis = form_basis(nvars, w + exact, p - exact)
    picked = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=4, unique=True))
    coeffs = st.fractions(-4, 4, max_denominator=4).filter(bool)
    omega = F(AlgebraElement({m: draw(coeffs) for m in picked}), nvars)
    if exact:
        omega = d(omega)
    assume(not omega.is_zero())
    return w, p, omega


class TestEulerWitness:
    @given(homogeneous_forms())
    def test_witness_exactly_on_closed_forms_of_positive_degree(self, drawn):
        w, p, omega = drawn
        eta = exactness_witness(omega)
        if p == 0 or not d(omega).is_zero():
            assert eta is None
        else:
            assert eta is not None and d(eta) == omega
            assert [(a, b) for a, b, _ in bigrade_split(eta)] == [(w + 1, p - 1)]


def reference_quotient_dims(nvars, weight_cap, degree_cap, rank_cache):
    """The solver ``derham_quotient_dims`` replaced: the n-forms of each total
    weight t minus the echelon rank of d's rows into them, each rank computed
    once per (nvars, n, t) in ``rank_cache``."""
    dims = {}
    for n in range(degree_cap + 1):
        for t in range(1, weight_cap + 1):
            if t < n:
                continue
            target = form_basis(nvars, t - n, n)
            if not target:
                continue
            if (nvars, n, t) not in rank_cache:
                index = {m: i for i, m in enumerate(target)}
                source = form_basis(nvars, t - n + 1, n - 1) if n else []
                images = (d(F(AlgebraElement.from_monomial(m), nvars)) for m in source)
                rows = [{index[m2]: c for m2, c in img.body.terms.items()} for img in images]
                rank_cache[nvars, n, t] = echelon(rows).rank
            dim = len(target) - rank_cache[nvars, n, t]
            if dim:
                dims[n, t] = dim
    return dims


class TestQuotientDims:
    def test_equal_the_echelon_reference_in_order(self):
        ranks = {}
        for nvars in range(6):
            for weight_cap in range(8):
                for degree_cap in range(7):
                    got = derham_quotient_dims(nvars, weight_cap, degree_cap)
                    ref = reference_quotient_dims(nvars, weight_cap, degree_cap, ranks)
                    assert list(got.items()) == list(ref.items())
        assert len(ranks) > 100


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
