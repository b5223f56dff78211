"""Trace evaluators: the four routes, operators, and coefficients."""

import importlib
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from symtrace.derham import Form, bigrade_split, d, form_basis
from symtrace.gcalg import (
    DX_KIND,
    LAM_KIND,
    X_KIND,
    AlgebraElement,
    InvalidInputError,
    block_maps,
    block_sign,
    dx_gen,
    gen_parity,
    lam_gen,
    lam_letter,
    lam_product,
    monomial_from_factors,
    monomial_mul,
    perm_sign,
    render,
    shuffles,
    x_gen,
)
from symtrace.trace import (
    D_op,
    F_eval,
    TraceMethod,
    cs_coefficient,
    _cs_enumerate,
    _label_orderings,
    cs_trace_raw,
    diffop_coefficient,
    expand_multilinear,
    hat_D_op,
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


def theta_eval(term_form):
    """Connection evaluator: f dx_{i1}..dx_{ip} -> f(0,..,0) lam(i1..ip)."""
    out = AlgebraElement.zero()
    for c, us, dus in expand_multilinear(term_form):
        if us or not dus:
            continue
        r = lam_letter(dus)
        if r is None:
            continue
        sign, g = r
        out.add_term(((g, 1),), sign * c)
    return out


def omega_eval(term_form):
    """Curvature evaluator: f dx-block -> lam(f, block) for linear f, else 0."""
    out = AlgebraElement.zero()
    for c, us, dus in expand_multilinear(term_form):
        if len(us) != 1:
            continue
        r = lam_letter((us[0],) + dus)
        if r is None:
            continue
        sign, g = r
        out.add_term(((g, 1),), sign * c)
    return out


def theta_omega_q_unpruned(omega, q):
    """[theta . Omega^q] over all ordered set partitions into q+1 slots.

    The reference for the cs slot expansion: each slot content is rebuilt as a
    form and fed through ``theta_eval`` or ``omega_eval``, so vanishing
    happens inside the evaluators rather than by a combinatorial shortcut.
    """
    out = AlgebraElement.zero()
    n_slots = q + 1
    for coeff, us, dus in expand_multilinear(omega):
        for u_assign in product(range(n_slots), repeat=len(us)):
            for du_assign in product(range(n_slots), repeat=len(dus)):
                du_blocks = [[] for _ in range(n_slots)]
                for pos, slot in enumerate(du_assign):
                    du_blocks[slot].append(pos)
                sign = perm_sign([pos for block in du_blocks for pos in block])
                value = AlgebraElement.constant(coeff * sign)
                for slot in range(n_slots):
                    factors = [x_gen(us[pos]) for pos, s in enumerate(u_assign) if s == slot]
                    factors += [dx_gen(dus[pos]) for pos in du_blocks[slot]]
                    mono = monomial_from_factors(factors)
                    if mono is None:
                        value = AlgebraElement.zero()
                        break
                    s, m = mono
                    slot_form = Form(AlgebraElement.from_monomial(m, s), omega.nvars)
                    evaluated = theta_eval(slot_form) if slot == 0 else omega_eval(slot_form)
                    value = value * evaluated
                    if value.is_zero():
                        break
                out.iadd(value)
    return out


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
            value = theta_omega_q_unpruned(eta, q)
            if q == r:
                assert not value.is_zero()
                assert cs_trace_raw(omega) == value.scale(Fraction(1, factorial(r + 1)))
            else:
                assert value.is_zero()

    def test_mixed_bidegrees_sum_their_parts(self):
        # d is taken once on the whole form; the old per-part definition,
        # sum over parts of [theta . Omega^(w-1)](d part) / w!, is the reference
        omega = F(Fraction(2, 3) * X(1) * X(2) * DX(3) - Fraction(5, 2) * X(1) ** 2 * X(3) * DX(2)
                  + Fraction(1, 7) * X(2) * DX(1) * DX(3) + Fraction(3, 4) * X(3) ** 3
                  + Fraction(7, 5) * DX(1) - 4 * AlgebraElement.one())
        parts = bigrade_split(omega)
        assert len({w for w, _, _ in parts}) == 4 and len({p for _, p, _ in parts}) == 3
        expected = AlgebraElement.zero()
        for w, _, part in parts:
            if w:
                expected.iadd(theta_omega_q_unpruned(d(part), w - 1), Fraction(1, factorial(w)))
        assert not expected.is_zero()
        assert any(c.denominator > 1 for c in expected.terms.values())
        assert cs_trace_raw(omega) == expected

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
        for _, _, form in basis_forms(2, 3, 2):
            a = cs_trace_raw(form)
            b = trace_simple(form)
            c = F_eval(d(form))
            assert a == b == c == trace_diffop(form)

    def test_every_route_keeps_fraction_coefficients(self):
        # the routes sum integer signs; a coefficient of 1 must not let them through
        for _, _, form in basis_forms(3, 3, 3):
            for value in (cs_trace_raw(form), trace_simple(form), F_eval(d(form)),
                          F_eval(form)):
                assert all(type(c) is Fraction for c in value.terms.values())

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

    @settings(deadline=None)
    @given(st.data())
    def test_random_non_homogeneous_forms(self, data):
        nvars = data.draw(st.integers(1, 3))
        body = AlgebraElement.zero()
        for _ in range(data.draw(st.integers(1, 3))):
            w = data.draw(st.integers(0, 3))
            p = data.draw(st.integers(0, nvars))
            m = data.draw(st.sampled_from(form_basis(nvars, w, p)))
            c = data.draw(st.fractions(-3, 3, max_denominator=3).filter(bool))
            body.add_term(m, c)
        form = Form(body, nvars)
        assert cs_trace_raw(form) == trace_simple(form) == F_eval(d(form)) == trace_diffop(form)


def slot_sum_every_permutation(eta, keep=lambda blocks: True):
    """Reference for the grouped cs enumeration: [theta . Omega^r] / r! over
    every one of the r! placements of the polynomial factors, with no
    grouping of equal labels."""
    out = AlgebraElement.zero()
    for coeff, us, dus in expand_multilinear(eta):
        r = len(us)
        for blocks in block_maps(len(dus), r + 1, onto=(0,)):
            if not keep(blocks):
                continue
            for perm in permutations(range(r)):
                prod = lam_product(
                    [[dus[p] for p in blocks[0]]]
                    + [[us[perm[s]]] + [dus[p] for p in blocks[s + 1]] for s in range(r)]
                )
                if prod is not None:
                    sign, mono = prod
                    out.add_term(mono, coeff * block_sign(blocks) * sign / factorial(r))
    return out


def valid_tuples(k):
    """Every (i1, .., im) with leading entries >= 2, last >= 1, sum k + m - 1."""
    for m in range(1, k + 1):
        for t in product(range(1, k + 1), repeat=m):
            if sum(t) == k + m - 1 and all(i >= 2 for i in t[:-1]):
                yield t


REPEATED_FACTOR_FORMS = [
    X(1) ** 3 * X(2) * DX(3),
    X(2) ** 2 * X(3) * DX(1) * DX(3),
    X(1) ** 2 * X(2) ** 2 * DX(1),
    X(3) ** 4 * DX(1) * DX(2),
]


class TestGroupedEnumeration:
    """cs places polynomial factors by distinct orderings of equal labels."""

    @pytest.mark.parametrize("body", REPEATED_FACTOR_FORMS[:2])
    def test_pruned_equals_unpruned_on_repeated_factors(self, body):
        eta = d(F(body))
        r = max(len(us) for _, us, _ in expand_multilinear(eta))
        value = theta_omega_q_unpruned(eta, r)
        assert not value.is_zero()
        assert cs_trace_raw(F(body)) == value.scale(Fraction(1, factorial(r + 1)))

    @pytest.mark.parametrize("body", REPEATED_FACTOR_FORMS)
    def test_slot_sum_matches_every_permutation(self, body):
        eta = d(F(body))
        r = max(len(us) for _, us, _ in expand_multilinear(eta))
        expected = slot_sum_every_permutation(eta)
        assert not expected.is_zero()
        assert cs_trace_raw(F(body)) == expected.scale(Fraction(1, r + 1))

    @pytest.mark.parametrize("body", REPEATED_FACTOR_FORMS)
    def test_hat_D_matches_every_permutation(self, body):
        eta = d(F(body))
        k = max(p for _, p, _ in bigrade_split(eta))
        nonzero = 0
        for indices in valid_tuples(k):
            theta_size, needed = indices[-1], sorted(i - 1 for i in indices[:-1])

            def keep(blocks):
                profile = sorted(len(b) for b in blocks[1:] if b)
                return len(blocks[0]) == theta_size and profile == needed

            got = hat_D_op(eta, indices)
            assert got == slot_sum_every_permutation(eta, keep)
            nonzero += not got.is_zero()
        assert nonzero

    def test_every_distinct_ordering_is_evaluated(self, monkeypatch):
        # the curvature slots stay distinct: only equal labels are grouped,
        # so each block map is evaluated once per distinct ordering of us;
        # a map putting a dx label into the curvature slot of the same label
        # is a literal zero and is never evaluated
        trace_module = importlib.import_module("symtrace.trace")
        calls = []

        def counting(arg_lists):
            calls.append(1)
            return lam_product(arg_lists)

        monkeypatch.setattr(trace_module, "lam_product", counting)
        us, dus = (1, 1, 2), (1, 3)  # the term x1^2 x2 dx1 dx3
        _cs_enumerate(us, dus)
        r, p = len(us), len(dus)
        live = 0
        for labels in set(permutations(us)):
            for f in product(range(r + 1), repeat=p):
                if 0 in f and all(j == 0 or labels[j - 1] != v for j, v in zip(f, dus)):
                    live += 1
        assert 0 < live < ((r + 1) ** p - r**p) * 3
        assert len(calls) == live

    @pytest.mark.parametrize(
        "us", [(), (1,), (1, 1), (1, 1, 1, 2), (1, 2, 2, 3), (2, 2, 3, 3, 3), (1, 2, 3, 4)]
    )
    def test_multiplicities_sum_to_r_factorial(self, us):
        orderings, weight = _label_orderings(us)
        assert len(set(orderings)) == len(orderings)
        assert set(orderings) == set(permutations(us))
        assert len(orderings) * weight == factorial(len(us))


class TestLiveBlockMaps:
    """simple and F never build a letter holding a dx label and its own label."""

    def _count_lam_products(self, monkeypatch, route, form):
        trace_module = importlib.import_module("symtrace.trace")
        calls = []

        def counting(arg_lists):
            calls.append(1)
            return lam_product(arg_lists)

        monkeypatch.setattr(trace_module, "lam_product", counting)
        route(form)
        return len(calls)

    def test_simple_evaluates_only_live_maps(self, monkeypatch):
        us, dus = (1, 1, 2, 3), (1, 2, 4)
        omega = F(X(1) ** 2 * X(2) * X(3) * DX(1) * DX(2) * DX(4), 4)
        live = sum(
            all(us[j] != v for j, v in zip(f, dus))
            for f in product(range(len(us)), repeat=len(dus))
        )
        assert 0 < live < len(us) ** len(dus)
        assert self._count_lam_products(monkeypatch, trace_simple, omega) == live

    def test_F_evaluates_only_live_maps(self, monkeypatch):
        us, dus = (1, 2, 2), (1, 2, 3)
        eta = F(X(1) * X(2) ** 2 * DX(1) * DX(2) * DX(3))
        live = sum(
            0 in f and all(j == 0 or us[j - 1] != v for j, v in zip(f, dus))
            for f in product(range(len(us) + 1), repeat=len(dus))
        )
        assert 0 < live < (len(us) + 1) ** len(dus) - len(us) ** len(dus)
        assert self._count_lam_products(monkeypatch, F_eval, eta) == live


class TestTermMemo:
    """cs, F and simple keep their integer terms per orbit representative of
    (us, dus), each in its own table; the renaming of each letter back from
    the representative has a fourth."""

    FORM = F(X(1) ** 2 * X(2) * DX(1) * DX(3))
    ROUTES = [(cs_trace_raw, FORM), (F_eval, d(FORM)), (trace_simple, FORM)]
    TABLES = ["_cs_terms", "_F_terms", "_simple_terms"]

    def _count_lam_products(self, monkeypatch, route, form):
        trace_module = importlib.import_module("symtrace.trace")
        calls = []

        def counting(arg_lists):
            calls.append(1)
            return lam_product(arg_lists)

        monkeypatch.setattr(trace_module, "lam_product", counting)
        value = route(form)
        return value, len(calls)

    @pytest.mark.parametrize("route,form", ROUTES, ids=["cs", "F", "simple"])
    def test_a_second_evaluation_builds_no_letter(self, monkeypatch, route, form):
        first, cold = self._count_lam_products(monkeypatch, route, form)
        second, warm = self._count_lam_products(monkeypatch, route, form)
        assert cold > 0 and not first.is_zero()
        assert warm == 0
        assert second == first

    @pytest.mark.parametrize("route,form", ROUTES, ids=["cs", "F", "simple"])
    def test_a_returned_element_does_not_alias_the_memo(self, route, form):
        first = route(form)
        expected = AlgebraElement(dict(first.terms))
        for mono in first.terms:
            first.terms[mono] *= 3
        first.iadd(LAM(1, 2), 7)
        assert route(form) == expected

    def test_every_table_starts_cold(self):
        trace_module = importlib.import_module("symtrace.trace")
        tables = {
            name: value for name, value in vars(trace_module).items()
            if hasattr(value, "cache_clear")
        }
        assert set(self.TABLES + ["_renamed_letter"]) <= set(tables)
        assert all(table.cache_info().currsize == 0 for table in tables.values())

    def test_a_warm_pass_builds_and_renames_no_letter(self, monkeypatch):
        # the kernels' terms come from their tables, and each letter's renaming
        # from the rename table
        trace_module = importlib.import_module("symtrace.trace")
        calls = Counter()
        for name, real in (("lam_product", lam_product), ("lam_letter", lam_letter)):
            def counting(arg, name=name, real=real):
                calls[name] += 1
                return real(arg)

            monkeypatch.setattr(trace_module, name, counting)
        forms = [form for _, _, form in basis_forms(4, 4, 4)]
        routes = [cs_trace_raw, trace_simple, lambda form: F_eval(d(form)), trace_diffop]
        cold = [[route(form) for route in routes] for form in forms]
        assert calls["lam_product"] > 0 and calls["lam_letter"] > 0
        calls.clear()
        assert [[route(form) for route in routes] for form in forms] == cold
        assert calls == Counter()

    def test_the_routes_keep_separate_tables(self):
        trace_module = importlib.import_module("symtrace.trace")
        tables = [getattr(trace_module, name) for name in self.TABLES]
        assert len({id(table) for table in tables}) == 3
        for (route, form), own in zip(self.ROUTES, tables):
            route(form)
            for table in tables:
                assert (table.cache_info().currsize > 0) == (table is own)
            own.cache_clear()

    def test_hat_D_does_not_fill_the_cs_table(self):
        trace_module = importlib.import_module("symtrace.trace")
        eta = d(self.FORM)
        assert any(not hat_D_op(eta, indices).is_zero() for indices in valid_tuples(3))
        for name in self.TABLES:
            assert getattr(trace_module, name).cache_info().currsize == 0

    def test_routes_agree_on_warm_tables(self):
        trace_module = importlib.import_module("symtrace.trace")
        forms = [form for _, _, form in basis_forms(3, 3, 3)]
        cold = [cs_trace_raw(form) for form in forms]
        for form, value in zip(forms, cold):
            assert value == trace_simple(form) == F_eval(d(form))
        for name in self.TABLES:
            assert getattr(trace_module, name).cache_info().hits > 0
        for form, value in zip(forms, cold):
            assert cs_trace_raw(form) == value == trace_simple(form) == F_eval(d(form))


def term_form(us, dus, nvars=4):
    """The form u dx_I with coefficient 1 (dus increasing, so no sign)."""
    sign, mono = monomial_from_factors([x_gen(u) for u in us] + [dx_gen(v) for v in dus])
    assert sign == 1
    return Form(AlgebraElement.from_monomial(mono), nvars)


def orbit_of(us, dus):
    """The relabelling orbit of (us, dus): the multiplicities of each label."""
    return tuple(sorted((us.count(v), dus.count(v)) for v in set(us + dus)))


class TestOrbits:
    """Each kernel runs once per relabelling orbit of (us, dus)."""

    # every term on 4 variables with r <= 4 factors, p <= 4 dx and r + p <= 7
    KEYS = [
        (us, dus)
        for r in range(5)
        for us in combinations_with_replacement(range(1, 5), r)
        for p in range(min(4, 7 - r) + 1)
        for dus in combinations(range(1, 5), p)
    ]

    def test_orbit_path_equals_the_direct_kernel(self):
        trace_module = importlib.import_module("symtrace.trace")
        kernels = [trace_module._cs_terms, trace_module._F_terms, trace_module._simple_terms,
                   trace_module._diffop_terms]
        assert len(self.KEYS) == 1085
        assert len({orbit_of(*key) for key in self.KEYS}) < len(self.KEYS) // 4
        nonzero = 0
        for us, dus in self.KEYS:
            form = term_form(us, dus)
            for kernel in kernels:
                terms, scale = kernel.__wrapped__(us, dus)
                direct = {mono: scale * n for mono, n in terms if n}
                assert trace_module._term_sum(form, kernel).terms == direct, (us, dus)
                nonzero += bool(direct)
        assert nonzero > len(self.KEYS)

    @pytest.mark.parametrize(
        "name,route,on_d",
        [
            ("_cs_terms", cs_trace_raw, True),
            ("_F_terms", lambda form: F_eval(d(form)), True),
            ("_simple_terms", trace_simple, False),
            ("_diffop_terms", trace_diffop, True),
        ],
        ids=["cs", "F", "simple", "diffop"],
    )
    def test_a_cold_pass_enumerates_each_orbit_once(self, name, route, on_d):
        table = getattr(importlib.import_module("symtrace.trace"), name)
        keys = set()
        for _, _, form in basis_forms(4, 4, 4):
            route(form)
            keys |= {(us, dus) for _, us, dus in expand_multilinear(d(form) if on_d else form)}
        orbits = {orbit_of(us, dus) for us, dus in keys}
        assert len(orbits) < len(keys) // 3
        assert table.cache_info().misses == len(orbits)


def reference_term_sum(form, kernel):
    """The term loop on Fractions: each kernel term renamed back letter by
    letter through ``lam_letter`` and added as coeff * scale * n, one term at
    a time.  The reference the integer ``_term_sum`` must equal."""
    acc = {}
    for coeff, us, dus in expand_multilinear(form):
        labels = sorted(set(us + dus), key=lambda v: (-us.count(v), v not in dus, v))
        rank = {v: i for i, v in enumerate(labels, 1)}
        moved = [rank[v] for v in dus]
        terms, scale = kernel(tuple(sorted(rank[u] for u in us)), tuple(sorted(moved)))
        for mono, n in terms:
            n *= perm_sign(moved)
            factors = []
            for g, e in mono:
                args = g[1] if g[0] == LAM_KIND else (g[1],)
                s, letter = lam_letter([labels[i - 1] for i in args])
                n *= s**e
                factors.append((letter, e))
            n *= perm_sign([g for g, _ in factors if gen_parity(g)])
            mono = tuple(sorted(factors))
            acc[mono] = acc.get(mono, Fraction(0)) + coeff * scale * n
    return AlgebraElement(acc)


def reference_D_op(omega, indices):
    """D^(indices) with Fraction states: the coefficient polynomial
    differentiated, and 1/p! applied, at every splitting."""

    def differentiate(poly, i):
        out = AlgebraElement.zero()
        for m, c in poly.terms.items():
            e = dict(m).get(x_gen(i), 0)
            if e:
                out.add_term(tuple((h, k - (h == x_gen(i))) for h, k in m
                                   if h != x_gen(i) or k > 1), c * e)
        return out

    out = {}
    for _, _, part in bigrade_split(omega):
        for mono, c0 in part.body.terms.items():
            poly = AlgebraElement.from_monomial(tuple((g, e) for g, e in mono if g[0] == X_KIND))
            wedge = [g[1] for g, e in mono if g[0] == DX_KIND]
            states = [(poly.scale(c0), wedge, [], Fraction(1))]
            for i_cur in reversed(indices[1:]):
                p_cur = len(states[0][1]) + 1 - i_cur if states else 0
                new_states = []
                for coeff_poly, vs, letters, scal in states:
                    for var in range(1, omega.nvars + 1):
                        dpoly = differentiate(coeff_poly, var)
                        if dpoly.is_zero():
                            continue
                        for chosen, rest, sign in shuffles(len(vs), p_cur - 1):
                            r = lam_letter([vs[a] for a in rest])
                            if r is None:
                                continue
                            s, g = r
                            new_states.append((dpoly, [var] + [vs[a] for a in chosen], [g] + letters,
                                               scal * sign * s / factorial(p_cur)))
                states = new_states
            for coeff_poly, vs, letters, scal in states:
                r = lam_letter(vs)
                prod = r and monomial_from_factors([r[1]] + letters)
                if prod is None:
                    continue
                for pm, pc in coeff_poly.terms.items():
                    s3, full = monomial_mul(pm, prod[1])
                    out[full] = out.get(full, Fraction(0)) + pc * scal * r[0] * prod[0] * s3
    return AlgebraElement(out)


def assert_same(got, ref):
    assert got == ref
    assert render(got) == render(ref)
    # every coefficient is exact: a Fraction, never a float
    assert all(type(c) is Fraction for c in got.terms.values())


@st.composite
def rational_forms(draw, degree=None):
    """Sums of basis forms on 3 variables of mixed weights <= 4 and degrees
    <= 3 (or the one given), with coefficients of denominator 1 to 6."""
    body = AlgebraElement.zero()
    for _ in range(draw(st.integers(1, 6))):
        p = draw(st.integers(0, 3)) if degree is None else degree
        m = draw(st.sampled_from(form_basis(3, draw(st.integers(0, 4)), p)))
        body.add_term(m, Fraction(draw(st.integers(-6, 6).filter(bool)), draw(st.integers(1, 6))))
    return Form(body, 3)


class TestIntegerSums:
    """The term loop and D sum integers over one denominator; they equal the
    Fraction versions term for term."""

    def kernels(self, form):
        trace_module = importlib.import_module("symtrace.trace")
        yield from (trace_module._cs_terms, trace_module._F_terms, trace_module._simple_terms,
                    trace_module._diffop_terms)
        for k in {p for _, p, _ in bigrade_split(form)}:
            for indices in valid_tuples(k):
                yield partial(_cs_enumerate, profile=(indices[-1], tuple(sorted(i - 1 for i in indices[:-1]))))

    def check_term_sum(self, form):
        trace_module = importlib.import_module("symtrace.trace")
        for eta in (form, d(form)):
            for kernel in self.kernels(eta):
                assert_same(trace_module._term_sum(eta, kernel), reference_term_sum(eta, kernel))

    def check_D_op(self, form):
        """Compare D on every valid tuple of length <= 3; return the nonzero tuples."""
        ks = {p for _, p, _ in bigrade_split(form)}
        nonzero = set()
        if len(ks) == 1:
            for indices in valid_tuples(ks.pop()):
                if len(indices) <= 3:
                    got = D_op(form, indices)
                    assert_same(got, reference_D_op(form, indices))
                    nonzero |= {indices} if got.terms else set()
        return nonzero

    def test_term_sum_on_every_basis_form(self):
        for _, _, form in basis_forms(3, 4, 3):
            self.check_term_sum(form)

    @settings(deadline=None)
    @given(rational_forms())
    def test_term_sum_on_rational_sums(self, form):
        self.check_term_sum(form)

    def test_D_op_on_every_valid_tuple(self):
        nonzero = set()
        for _, _, form in basis_forms(3, 4, 3):
            for eta in (form, d(form)):
                nonzero |= self.check_D_op(eta)
        # every tuple of length <= 3 on 1- to 3-forms gives something nonzero,
        # the trailing-1 tuples too
        assert nonzero == {t for k in (1, 2, 3) for t in valid_tuples(k) if len(t) <= 3}

    @settings(deadline=None)
    @given(st.integers(1, 3).flatmap(lambda k: rational_forms(degree=k)))
    def test_D_op_on_rational_sums(self, form):
        self.check_D_op(form)
        self.check_D_op(d(form))


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


def low_degree_trace_diffop(omega):
    """The closed forms in form degree <= 2, the reference for the operator:
    the identity on functions, s^-1 d on 1-forms and s^-1 d - D^(2,2) d on
    2-forms."""
    from symtrace.resolution import s_inv

    out = AlgebraElement.zero()
    for w, p, part in bigrade_split(omega):
        assert p in (0, 1, 2)
        if p == 0:
            if w > 0:
                out.iadd(part.body)
            continue
        dpart = d(part)
        if not dpart.is_zero():
            out.iadd(s_inv(dpart))
            if p == 2:
                out.iadd(D_op(dpart, (2, 2)), -1)
    return out


class TestDiffOpRoute:
    def test_zero_and_one_forms(self):
        assert trace_diffop(F(X(1) ** 2 * X(2))) == X(1) ** 2 * X(2)
        from symtrace.resolution import s_inv

        omega = F(X(1) ** 2 * DX(2))
        assert trace_diffop(omega) == s_inv(d(omega))

    def test_degree_cap(self):
        # form degree 3 and 4 give values: 0 on the closed 3-form on 3
        # variables, and cs's value on 4 and 5 variables
        assert trace_diffop(F(X(1) * DX(1) * DX(2) * DX(3))).is_zero()
        assert trace_diffop(F(X(1) * DX(2) * DX(3) * DX(4), 4)) == LAM(1, 2, 3, 4)
        omega = F(X(1) ** 2 * X(2) * DX(1) * DX(3) * DX(4), 4)
        assert not trace_diffop(omega).is_zero()
        assert trace_diffop(omega) == cs_trace_raw(omega)
        eta = F(X(1) ** 2 * X(3) * DX(1) * DX(2) * DX(4) * DX(5), 5)
        assert not trace_diffop(eta).is_zero()
        assert trace_diffop(eta) == cs_trace_raw(eta)

    def test_two_form_agrees_with_simple(self):
        for w in range(1, 4):
            for m in form_basis(3, w, 2):
                omega = Form(AlgebraElement.from_monomial(m), 3)
                assert trace_diffop(omega) == trace_simple(omega)

    def test_low_degree_reference(self):
        # the closed operator equals the old degree <= 2 forms on every basis form
        count = 0
        for nvars in range(1, 5):
            for _, _, form in basis_forms(nvars, 4, 2):
                value = trace_diffop(form)
                assert value == low_degree_trace_diffop(form)
                assert render(value) == render(low_degree_trace_diffop(form))
                count += not value.is_zero()
        assert count > 300

    @pytest.mark.parametrize("nvars,weight", [(3, 5), (4, 5), (5, 5)])
    def test_equals_cs_in_every_degree(self, nvars, weight):
        counts = Counter()
        for _, p, form in basis_forms(nvars, weight, nvars):
            value = trace_diffop(form)
            assert value == cs_trace_raw(form)
            counts[p] += not value.is_zero()
        assert sum(counts.values()) > 0
        # on N variables the N-forms are closed; every other degree >= 1 gives values
        assert all(counts[p] > 0 for p in range(nvars))

    def test_per_tuple_identity(self):
        # hat D^(I) d omega == c_I(r) D^(I') d omega for every ordering of every
        # valid tuple, I' being I without a trailing 1
        checks = nonzero = 0
        for k in range(2, 6):
            tuples = list(valid_tuples(k))
            for w in range(1, 4):
                for m in form_basis(k, w, k - 1):
                    eta = d(Form(AlgebraElement.from_monomial(m), k))
                    if eta.is_zero():
                        continue
                    for indices in tuples:
                        short = indices[:-1] if indices[-1] == 1 else indices
                        got = hat_D_op(eta, indices)
                        assert got == diffop_coefficient(indices, w - 1) * D_op(eta, short)
                        checks += 1
                        nonzero += not got.is_zero()
        assert (checks, nonzero) == (2304, 1427)

    def test_the_charged_splitting_steps_are_all_walked(self, monkeypatch):
        # every splitting step asks lam_letter for the letter it peels, and every
        # final state for its wedge, so the kernel's calls bound the steps it walks
        trace_module = importlib.import_module("symtrace.trace")
        charged, asked = [], []

        def recording(totals, what):
            charged.append(max(totals, default=0))

        def counting(indices):
            asked[-1] += 1
            return lam_letter(indices)

        monkeypatch.setattr(trace_module, "charge", recording)
        monkeypatch.setattr(trace_module, "lam_letter", counting)
        for k in range(1, 7):
            for r in range(5):
                for us in combinations_with_replacement(range(1, 4), r):
                    asked.append(0)
                    trace_module._diffop_terms.__wrapped__(us, tuple(range(1, k + 1)))
                    assert charged[-1] <= asked[-1], (us, k)
        assert len(charged) == len(asked) == 210
        # the count is a lower bound, about a tenth of the calls here
        assert sum(asked) // 20 < sum(charged)

    def test_leads_are_the_fitting_tuples_in_order(self):
        # the kernel's index tuples: the non-decreasing ones over 2..k whose
        # sum(j - 1) fits in k - 1, met in lexicographic order
        trace_module = importlib.import_module("symtrace.trace")
        met = 0
        for k in range(1, 11):
            for n in range(11):
                fitting = [c for c in combinations_with_replacement(range(2, k + 1), n)
                           if sum(c) - n <= k - 1]
                assert list(trace_module._leads(n, 2, k - 1)) == fitting, (k, n)
                met += len(fitting)
        assert met == 284


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
