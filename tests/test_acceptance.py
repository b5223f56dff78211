"""Acceptance suite: one test per criterion, exact equality over Q.

Each test prints a single PASS line with its wall time (visible with -s);
a failed assertion marks the criterion failed.  Stated runtime budgets are
asserted where the criterion carries one.
"""

import time
from fractions import Fraction
from itertools import product
from math import comb, factorial

from symtrace.ainfty import (
    build_merkulov,
    class_tree_sum,
    enumerate_labeled_classes,
    enumerate_pbt,
    labeled_class_key,
    monomial_tuples,
    tree_sign,
    LEAF,
)
from symtrace.cartan import (
    DiagonalTraceValue,
    trace_cartan,
    vartheta_power_sum,
    vartheta_symmetrize,
)
from symtrace.cyclic import (
    build_connes_complex,
    derham_quotient_dims,
    homology,
)
from symtrace.cli import cstree_form, perm_tree_sum, suite_conj1, suite_cstree
from symtrace.derham import Form, d, form_basis, monomial_basis
from symtrace.gcalg import AlgebraElement, dx_gen, lam_gen, x_gen
from symtrace.resolution import s_inv
from symtrace.trace import (
    D_op,
    F_eval,
    cs_coefficient,
    cs_trace_raw,
    hat_D_op,
    trace_diffop,
    trace_simple,
)


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


def _report(name, t0, budget=None):
    elapsed = time.time() - t0
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"{name} exceeded its {budget}s budget"


ALL_METHODS = (cs_trace_raw, trace_simple, lambda f: F_eval(d(f)), trace_diffop)


def test_criterion_01_two_variable_law():
    """deg <= 3 coefficients: every method gives (Qx - Py) lam[1,2]."""
    t0 = time.time()
    monos = [m for w in range(4) for m in monomial_basis(2, w)]
    lam12 = LAM(1, 2)
    for m in monos:
        coeff = AlgebraElement.from_monomial(m)
        for P, Q in ((coeff, AlgebraElement.zero()), (AlgebraElement.zero(), coeff)):
            omega = Form(P * DX(1) + Q * DX(2), 2)
            expected = (differentiate(Q, 1) - differentiate(P, 2)) * lam12
            for method in ALL_METHODS:
                assert method(omega) == expected
    _report("01 two-variable law", t0, budget=10)


def _one_form_law_3vars(P, Q, R):
    lam12, lam13, lam23 = LAM(1, 2), LAM(1, 3), LAM(2, 3)
    return (
        (differentiate(Q, 1) - differentiate(P, 2)) * lam12
        + (differentiate(R, 2) - differentiate(Q, 3)) * lam23
        + (differentiate(R, 1) - differentiate(P, 3)) * lam13
    )


def _two_form_law_3vars(P, Q, R):
    # coefficients on dx1dx2, dx2dx3, dx3dx1
    S = differentiate(P, 3) + differentiate(Q, 1) + differentiate(R, 2)
    return (
        S * LAM(1, 2, 3)
        + differentiate(S, 1) * (LAM(1, 2) * LAM(1, 3))
        + differentiate(S, 2) * (LAM(1, 2) * LAM(2, 3))
        + differentiate(S, 3) * (LAM(1, 3) * LAM(2, 3))
    )


def test_criterion_02_three_variable_laws():
    """The 1-form and 2-form closed laws in three variables, deg <= 3."""
    t0 = time.time()
    monos = [AlgebraElement.from_monomial(m) for w in range(4) for m in monomial_basis(3, w)]
    zero = AlgebraElement.zero()
    slots = [(0, "P"), (1, "Q"), (2, "R")]
    for coeff in monos:
        for pos, _ in slots:
            pqr = [zero, zero, zero]
            pqr[pos] = coeff
            P, Q, R = pqr
            omega1 = Form(P * DX(1) + Q * DX(2) + R * DX(3), 3)
            expected1 = _one_form_law_3vars(P, Q, R)
            assert trace_simple(omega1) == expected1
            assert trace_diffop(omega1) == expected1
            omega2 = Form(
                P * DX(1) * DX(2) + Q * DX(2) * DX(3) + R * DX(3) * DX(1), 3
            )
            expected2 = _two_form_law_3vars(P, Q, R)
            assert trace_simple(omega2) == expected2
            assert trace_diffop(omega2) == expected2
    # one mixed combination against all routes
    P, Q, R = monos[4], monos[7], monos[2]
    omega2 = Form(P * DX(1) * DX(2) + Q * DX(2) * DX(3) + R * DX(3) * DX(1), 3)
    for method in ALL_METHODS:
        assert method(omega2) == _two_form_law_3vars(P, Q, R)
    _report("02 three-variable laws", t0, budget=60)


def test_criterion_03_low_degree_closed_forms():
    """identity / s^-1 d / s^-1 d - D22 d, exhaustively for N <= 3, w <= 4."""
    t0 = time.time()
    for nvars in (1, 2, 3):
        for w in range(0, 5):
            for m in monomial_basis(nvars, w):
                f = Form(AlgebraElement.from_monomial(m), nvars)
                assert trace_simple(f) == (f.body if w > 0 else AlgebraElement.zero())
            for p in (1, 2):
                if p > nvars:
                    continue
                for m in form_basis(nvars, w, p):
                    omega = Form(AlgebraElement.from_monomial(m), nvars)
                    eta = d(omega)
                    closed = AlgebraElement.zero() if eta.is_zero() else s_inv(eta)
                    if p == 2 and not eta.is_zero():
                        closed = closed - D_op(eta, (2, 2))
                    assert trace_simple(omega) == closed
    _report("03 low-degree closed forms", t0)


def test_criterion_04_route_agreement():
    """cs == simple == F(d .) == diffop on all forms N <= 4, w <= 4, p <= 4.

    Every 3-form on 3 variables is closed, so its comparisons read 0 against
    0; the 4-variable forms of degree >= 3 must give nonzero traces."""
    t0 = time.time()
    nonzero_high = 0
    for nvars in (1, 2, 3, 4):
        for w in range(0, 5):
            for p in range(0, nvars + 1):
                for m in form_basis(nvars, w, p):
                    omega = Form(AlgebraElement.from_monomial(m), nvars)
                    a = cs_trace_raw(omega)
                    b = trace_simple(omega)
                    c = F_eval(d(omega))
                    assert a == b == c == trace_diffop(omega)
                    nonzero_high += p >= 3 and not a.is_zero()
    assert nonzero_high > 0
    _report("04 route agreement", t0, budget=300)


def test_criterion_05_operator_identity():
    """hat D^(2,2,1) d = -(r-1) D^(2,2) d on 2-forms; hat D^(2,2) = -2 D^(2,2)."""
    t0 = time.time()
    for r in range(0, 4):
        for m in form_basis(3, r + 1, 2):
            omega = Form(AlgebraElement.from_monomial(m), 3)
            eta = d(omega)
            if eta.is_zero():
                continue
            assert hat_D_op(eta, (2, 2, 1)) == -(r - 1) * D_op(eta, (2, 2))
    for w in range(0, 4):
        for m in form_basis(3, w, 3):
            eta = Form(AlgebraElement.from_monomial(m), 3)
            assert hat_D_op(eta, (2, 2)) == -2 * D_op(eta, (2, 2))
    _report("05 operator identity", t0)


def test_criterion_06_cstree():
    """Labeled-class tree sums equal the slot-expansion trace, k <= 3."""
    t0 = time.time()
    total_cases = 0
    for nvars in (1, 2, 3):
        # k = 1, 2, 3 on every tuple of monomial_tuples(nvars, k + 1, 4),
        # over build_merkulov(nvars, 4, 3)
        report = suite_cstree(nvars, 3, 4)
        assert not report.failures, report.failures[:3]
        total_cases += report.cases
    assert total_cases > 300
    _report("06 tree formula vs slot expansion", t0, budget=300)


def test_criterion_06_cstree_k3_four_variables():
    """k = 3 on four variables, where class sums are not all 0: every tuple of
    four linear monomials, the class tree sum against the slot expansion."""
    t0 = time.time()
    md = build_merkulov(4, 4, 3)
    samples = monomial_tuples(4, 4, 4)
    assert len(samples) == 256
    failures = nonzero = 0
    for args in samples:
        lhs = class_tree_sum(md, list(args))
        failures += lhs != cs_trace_raw(cstree_form(args, 4))
        nonzero += not lhs.is_zero()
    assert failures == 0
    assert nonzero == 24
    _report("06 tree formula vs slot expansion, k = 3 on 4 variables", t0, budget=300)


def test_criterion_06_cstree_k4_five_variables():
    """k = 4 on five variables: every tuple of five linear monomials, the
    class tree sum against the slot expansion."""
    t0 = time.time()
    md = build_merkulov(5, 5, 4)
    samples = monomial_tuples(5, 5, 5)
    assert len(samples) == 3125
    failures = nonzero = 0
    for args in samples:
        lhs = class_tree_sum(md, list(args))
        failures += lhs != cs_trace_raw(cstree_form(args, 5))
        nonzero += not lhs.is_zero()
    assert failures == 0
    assert nonzero == 120
    _report("06 tree formula vs slot expansion, k = 4 on 5 variables", t0, budget=300)


def test_criterion_07_merkulov_consistency():
    """Side conditions; the signed tree expansion of the transfer
    components for k <= 3; internal agreement of the two trace sums."""
    t0 = time.time()
    md = build_merkulov(2, 4, 3)  # side conditions checked during build
    from symtrace.resolution import RElement

    for k in (1, 2, 3):
        trees = enumerate_pbt(k)
        for args in monomial_tuples(2, k + 1, 4):
            lhs = md.f_taylor(list(args))
            rhs = RElement.zero()
            for t in trees:
                rhs = rhs + tree_sign(t) * md.f_tree(t, list(args))
            assert (lhs - rhs).is_zero()
    md3 = build_merkulov(3, 4, 3)
    for args in monomial_tuples(3, 2, 3) + [
        (X(1), X(2), X(3)),
        (X(3), X(1), X(2), X(1)),
    ]:
        # the sum over S_{k+1} with the transfer components against the sum
        # over labeled-tree classes with the commutator tree maps
        assert perm_tree_sum(md3, list(args)) == class_tree_sum(md3, list(args))
    _report("07 transfer consistency", t0)


def test_criterion_08_bridge_cocycle():
    """Closedness for n + p <= 4 and both projections of the bridge chain."""
    t0 = time.time()
    for nvars in (2, 3):
        report = suite_conj1(nvars, 4)
        assert not report.failures, report.failures[:3]
        assert report.cases == sum(
            (t + 1) * nvars**t for t in range(1, 5)
        )
    _report("08 bridge cocycle routes", t0)


def test_criterion_09_homology_cross_check():
    """Cyclic homology dims equal de Rham quotient dims, N <= 2, w <= 4."""
    t0 = time.time()
    for nvars in (1, 2):
        cpx = build_connes_complex("A", nvars, 4, 4)
        hs = homology(cpx)
        dr = derham_quotient_dims(nvars, 4, 3)
        for degc in range(0, 4):
            for w in range(1, 5):
                assert hs.dim(degc, w) == dr.get((degc, w), 0)
    cpx1 = build_connes_complex("A", 1, 4, 4)
    hs1 = homology(cpx1)
    for w in range(1, 5):
        assert hs1.dim(0, w) == 1
    assert all(
        hs1.dim(degc, w) == 0 for degc in range(1, 4) for w in range(1, 5)
    )
    _report("09 homology cross-check", t0)


def test_criterion_10_combinatorial_fixtures():
    """Tree counts, the k=3 sign sequence, and the 15-class structure."""
    t0 = time.time()
    assert [len(enumerate_pbt(k)) for k in (2, 3, 4)] == [2, 5, 14]
    assert [tree_sign(t) for t in enumerate_pbt(3)] == [-1, 1, -1, 1, -1]
    classes = enumerate_labeled_classes(3)
    assert len(classes) == 15
    balanced = ((LEAF, LEAF), (LEAF, LEAF))
    right_comb = (LEAF, (LEAF, (LEAF, LEAF)))
    expected = {
        labeled_class_key(sigma, balanced)
        for sigma in [(0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)]
    }
    comb_classes = {
        labeled_class_key(sigma, right_comb)
        for sigma in product(*[range(4)] * 4)
        if sorted(sigma) == [0, 1, 2, 3] and sigma[2] < sigma[3]
    }
    assert len(expected) == 3 and len(comb_classes) == 12
    assert {labeled_class_key(s, t) for s, t in classes} == expected | comb_classes
    _report("10 combinatorial fixtures", t0)


def test_criterion_11_cartan_factorization():
    """Both Cartan routes agree (N <= 2, w <= 3, n <= 3, q <= 2); the
    power-sum total is the symmetrization map on generators."""
    t0 = time.time()
    for nvars in (1, 2):
        for w in range(0, 4):
            for p in range(0, min(nvars, 2) + 1):
                for m in form_basis(nvars, w, p):
                    omega = Form(AlgebraElement.from_monomial(m), nvars)
                    for n in (1, 2, 3):
                        for q in (0, 1, 2):
                            value = trace_cartan(omega, n, q)  # asserts internally
                            assert value.is_symmetric()
    for sample in (LAM(1, 2), X(1) * LAM(1, 2), X(1) ** 2, LAM(1, 2) * LAM(1, 3)):
        for n in (1, 2, 3):
            total = DiagonalTraceValue.zero(n)
            for q in range(0, 8):
                total = total + vartheta_power_sum(sample, n, q)
            assert total == vartheta_symmetrize(sample, n)
    _report("11 cartan factorization", t0)


def test_criterion_12_cs_coefficients():
    """Closed-form coefficients: A_0 = 1 (r <= 6), A_1(1) = -1/6, and the
    direct evaluation at (r, i) = (2, 2), cross-checked against the exact
    integral expansion A_i = (r+1) C(r,i) (-1/2)^i B(r+1, i+1)."""
    t0 = time.time()

    def integral_oracle(r, i):
        beta = Fraction(factorial(r) * factorial(i), factorial(r + i + 1))
        return (r + 1) * comb(r, i) * Fraction((-1) ** i, 2**i) * beta

    for r in range(0, 7):
        assert cs_coefficient(r, 0) == 1
        for i in range(0, r + 1):
            assert cs_coefficient(r, i) == integral_oracle(r, i)
    assert cs_coefficient(1, 1) == Fraction(-1, 6)
    assert cs_coefficient(2, 2) == integral_oracle(2, 2) == Fraction(1, 40)
    _report("12 chern-simons coefficients", t0)
