"""Cyclic complexes, homology fixtures, HKR maps, and the bridge cocycle."""

import json
import random
import sys
import time
from fractions import Fraction
from itertools import permutations, product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from symtrace import ainfty, cli, cyclic, resolution
from symtrace.cartan import DiagonalTraceValue, vartheta_symmetrize
from symtrace.cyclic import (
    ChainComplexQ,
    CyclicChain,
    _check_square_zero,
    bareiss_rank,
    beta_cocycle,
    beta_one_slot_words,
    boundary,
    build_connes_complex,
    chain_degree,
    cyclic_canonical,
    derham_quotient_dims,
    eps_coalgebra,
    form_from_labels,
    hkr_I,
    hkr_eps,
    homology,
)
from symtrace.derham import Form, d, equal_mod_exact, form_basis, monomial_basis
from symtrace.gcalg import (
    DX_KIND, X_KIND, AlgebraElement, IntegrityError, ResourceLimitError, add_into, block_maps,
    block_sign, dx_gen, koszul_sign, lam_gen, lam_product, monomial_from_factors, monomial_mul,
    lift, monomial_parity, monomial_weight, over, perm_sign, x_gen,
)
from symtrace.resolution import (
    RElement, _lam_word, abelianize, delta_R, delta_word, r_word_basis, word_degree,
    word_weight,
)
from symtrace.trace import trace_simple


def X(i):
    return AlgebraElement.from_gen(x_gen(i))


def DX(i):
    return AlgebraElement.from_gen(dx_gen(i))


def mono(*factors):
    from symtrace.gcalg import monomial_from_factors

    s, m = monomial_from_factors([x_gen(i) for i in factors])
    assert s == 1
    return m


class TestDifferentialStructure:
    def test_square_zero_over_A(self):
        slots = [mono(), mono(1), mono(2), mono(1, 1), mono(1, 2)]
        for key in product(slots, repeat=3):
            ch = CyclicChain("A", {key: Fraction(1)})
            assert boundary(boundary(ch)).canonicalized().is_zero()

    def test_square_zero_over_R(self):
        random.seed(11)
        pool = []
        for w in range(1, 4):
            for deg in range(0, 3):
                pool.extend(r_word_basis(2, w, deg))
        pool = [w for w in pool if w]
        for _ in range(60):
            key = tuple(random.choice(pool) for _ in range(random.randint(1, 3)))
            ch = CyclicChain("R", {key: Fraction(1)})
            assert boundary(boundary(ch)).canonicalized().is_zero()

    def test_commutative_merge_cancels(self):
        # b of a two-slot chain over A pairs a merge against the wraparound
        ch = CyclicChain("A", {(mono(1), mono(2)): Fraction(1)})
        assert boundary(ch).canonicalized().is_zero()

    def test_cyclic_canonical_zero_class(self):
        # odd-degree suspended slots make (a, a) its own negative
        key = (mono(1), mono(1))
        assert cyclic_canonical("A", key) is None


class TestConnesHomology:
    def test_one_variable_fixture(self):
        cpx = build_connes_complex("A", 1, 4, 4)
        hs = homology(cpx)
        for w in range(1, 5):
            assert hs.dim(0, w) == 1
        for degc in range(1, 4):
            for w in range(1, 5):
                assert hs.dim(degc, w) == 0

    def test_matches_derham_quotient_two_vars(self):
        cpx = build_connes_complex("A", 2, 4, 4)
        hs = homology(cpx)
        dr = derham_quotient_dims(2, 4, 3)
        for degc in range(0, 4):
            for w in range(1, 5):
                assert hs.dim(degc, w) == dr.get((degc, w), 0)

    def test_resolution_side_matches_small(self):
        # R resolves the polynomial algebra, so their cyclic homologies agree
        cpx_a = build_connes_complex("A", 2, 3, 3)
        cpx_r = build_connes_complex("R", 2, 3, 3)
        ha, hr = homology(cpx_a), homology(cpx_r)
        for degc in range(0, 3):
            for w in range(1, 4):
                assert ha.dim(degc, w) == hr.dim(degc, w)

    def test_boundary_squares_checked_on_build(self):
        cpx = build_connes_complex("A", 1, 3, 3)
        assert isinstance(cpx, ChainComplexQ)

    def test_each_slot_pair_over_A_is_multiplied_once(self, monkeypatch):
        # the cache reads monomial_mul through the module, so a counter sees every miss
        calls = []
        full = cyclic.monomial_mul

        def counting(a, b):
            calls.append((a, b))
            return full(a, b)

        cyclic._monomial_product.cache_clear()
        monkeypatch.setattr(cyclic, "monomial_mul", counting)
        cpx = build_connes_complex("A", 2, 6, 4)
        pairs = {(key[i], key[(i + 1) % len(key)])
                 for keys in cpx.basis.values() for key in keys if len(key) > 1
                 for i in range(len(key))}
        assert 0 < len(pairs) < cyclic._monomial_product.cache_info().maxsize
        assert sorted(calls) == sorted(pairs)
        calls.clear()
        assert build_connes_complex("A", 2, 6, 4).columns == cpx.columns
        assert calls == []

    @staticmethod
    def _two_step_complex(upper):
        # Q <-(1 1)- Q^2 <-upper- Q^2, all in weight 1; upper is its two columns
        basis = {(0, 1): [("a",)], (1, 1): [("b",), ("c",)], (2, 1): [("e",), ("f",)]}
        columns = {
            (1, 1): [{0: Fraction(1)}, {0: Fraction(1)}],
            (2, 1): [{i: Fraction(v) for i, v in col.items()} for col in upper],
        }
        return ChainComplexQ(basis, columns, 3)

    def test_square_zero_check_names_the_bidegree(self):
        # the composite is (0, 1): nonzero only in its last column
        cpx = self._two_step_complex([{0: 1, 1: -1}, {0: 1}])
        with pytest.raises(IntegrityError, match=r"\(2, 1\)"):
            _check_square_zero(cpx)

    @pytest.mark.parametrize("ambient", ["A", "R"])
    def test_each_column_is_the_canonical_boundary_of_its_key(self, ambient):
        cpx = build_connes_complex(ambient, 2, 3, 3)
        bidegrees = [bideg for bideg in cpx.basis if bideg[0] > 0]
        assert sorted(cpx.columns) == sorted(bidegrees)
        for (deg, w), keys in cpx.basis.items():
            if deg == 0:
                continue
            lower = cpx.basis.get((deg - 1, w), [])
            cols = cpx.columns[(deg, w)]
            assert len(cols) == len(keys)
            for key, col in zip(keys, cols):
                img = boundary(CyclicChain(ambient, {key: Fraction(1)})).canonicalized()
                assert {lower[i]: c for i, c in col.items()} == img.terms
                assert len(col) == len(img.terms) and all(col.values())

    @pytest.mark.parametrize("ambient, caps", [("A", (3, 4, 3)), ("R", (2, 4, 3))])
    def test_columns_are_integer_canonical_boundaries(self, ambient, caps):
        cpx = build_connes_complex(ambient, *caps)
        entries = 0
        for (deg, w), cols in cpx.columns.items():
            lower = cpx.basis.get((deg - 1, w), [])
            for key, col in zip(cpx.basis[(deg, w)], cols):
                assert all(type(c) is int and c for c in col.values())
                img = boundary(CyclicChain(ambient, {key: Fraction(1)})).canonicalized()
                assert [(lower[i], c) for i, c in col.items()] == list(img.terms.items())
                entries += len(col)
        assert entries

    def test_the_builder_forms_no_chain_per_key(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a CyclicChain was built")

        monkeypatch.setattr(cyclic, "CyclicChain", refuse)
        monkeypatch.setattr(cyclic, "boundary", refuse)
        assert build_connes_complex("R", 2, 3, 3).columns

    # (rows, columns) per bidegree and the nonzero count, pinned: the benchmark
    # counters cyclic.matrix_cells and cyclic.matrix_nnz are read off this view
    DENSE_SHAPES = {
        "A": ({(1, 1): (2, 2), (1, 2): (3, 4), (1, 3): (4, 10), (2, 1): (2, 2), (2, 2): (4, 7),
               (2, 3): (10, 20), (3, 1): (2, 2), (3, 2): (7, 10), (3, 3): (20, 30)}, 79),
        "R": ({(1, 1): (2, 2), (1, 2): (4, 6), (1, 3): (8, 20), (2, 1): (2, 2), (2, 2): (6, 9),
               (2, 3): (20, 34), (3, 1): (2, 2), (3, 2): (9, 12), (3, 3): (34, 48)}, 167),
    }

    @pytest.mark.parametrize("ambient", ["A", "R"])
    def test_dense_view_has_the_stored_shape_and_entries(self, ambient):
        cpx = build_connes_complex(ambient, 2, 3, 3)
        shapes, nnz = self.DENSE_SHAPES[ambient]
        mats = cpx.matrices
        assert {k: (len(m), len(m[0])) for k, m in mats.items()} == shapes
        assert sum(1 for m in mats.values() for row in m for v in row if v) == nnz
        for bideg, m in mats.items():
            assert [{i: row[j] for i, row in enumerate(m) if row[j]}
                    for j in range(len(m[0]))] == cpx.columns[bideg]

    def test_square_zero_check_passes_on_a_complex(self):
        cpx = self._two_step_complex([{0: 1, 1: -1}, {}])
        _check_square_zero(cpx)
        assert homology(cpx).dims == {(2, 1): 1}


def _all_slots(ambient, nvars, w):
    """Every slot of weight w: the monomials over A, the words of every degree over R."""
    if ambient == "A":
        return monomial_basis(nvars, w)
    return [word for degc in range(w) for word in r_word_basis(nvars, w, degc)]


def _slot_degree(ambient, slot):
    """The internal degree of a slot: a word's degree over R, 0 for a monomial over A."""
    return word_degree(slot) if ambient == "R" else 0


def chain_weight(ambient, key):
    weight = word_weight if ambient == "R" else monomial_weight
    return sum(weight(s) for s in key)


def _tau(ambient, key):
    """Rotate the last slot to the front, with the suspended Koszul sign."""
    last = key[-1]
    sd = _slot_degree(ambient, last) + 1
    rest = sum(_slot_degree(ambient, s) + 1 for s in key[:-1])
    sign = -1 if (sd * rest) % 2 else 1
    return sign, (last,) + key[:-1]


def _reference_basis(ambient, nvars, weight_cap, degree_cap):
    """Every slot tuple within the caps, canonicalized and deduplicated."""
    pool = {w: _all_slots(ambient, nvars, w) for w in range(1, weight_cap + 1)}
    pool[0] = [()]
    basis = {}

    def grow(key, weight_left, slots_left):
        if slots_left == 0:
            degree, w = chain_degree(ambient, key), chain_weight(ambient, key)
            r = cyclic_canonical(ambient, key)
            if degree <= degree_cap and w >= 1 and r is not None:
                basis.setdefault((degree, w), set()).add(r[1])
            return
        for w in range(weight_left + 1):
            for s in pool[w]:
                grow(key + (s,), weight_left - w, slots_left - 1)

    for nslots in range(1, degree_cap + 2):
        grow((), weight_cap, nslots)
    return {bideg: sorted(keys) for bideg, keys in basis.items()}


def _periodic_necklaces(ambient, nvars, weight_cap, degree_cap):
    """{key: sign} over every periodic slot tuple within the caps that is its own
    least rotation; the sign is that of its stabilizer rotation by the period."""
    found = {}
    for key in _every_tuple(ambient, nvars, weight_cap, degree_cap):
        n = len(key)
        if chain_degree(ambient, key) > degree_cap or chain_weight(ambient, key) < 1:
            continue
        if key != min(key[i:] + key[:i] for i in range(n)):
            continue
        period = next(p for p in range(1, n + 1) if key[-p:] + key[:-p] == key)
        if period < n:
            sign, rotated = 1, key
            for _ in range(period):
                s, rotated = _tau(ambient, rotated)
                sign *= s
            found[key] = sign
    return found


def _reference_columns(cpx, ambient):
    """The columns by the loop that canonicalizes every raw boundary term of every key."""
    columns = {}
    for (deg, w), keys in sorted(cpx.basis.items()):
        if deg == 0:
            continue
        index = {k: i for i, k in enumerate(cpx.basis.get((deg - 1, w), []))}
        cols = []
        for key in keys:
            raw = {}
            cyclic._add_boundary(ambient, key, 1, raw)
            col = {}
            for k2, v in raw.items():
                r = cyclic_canonical(ambient, k2) if v else None
                if r is None:
                    continue
                assert chain_degree(ambient, r[1]) == deg - 1
                i = index[r[1]]
                col[i] = col.get(i, 0) + r[0] * v
            cols.append({i: c for i, c in col.items() if c})
        columns[(deg, w)] = cols
    return columns


class TestLeastRotationBasis:
    # A(1, 6, 5) and R(2, 4, 3) hold periodic necklaces whose stabilizer rotation
    # has sign -1 (dropped) and +1 (kept), the latter over R also with odd-degree words
    CAPS = [("A", 2, 4, 3), ("A", 3, 3, 3), ("A", 2, 3, 4), ("A", 1, 5, 4), ("A", 1, 6, 5),
            ("R", 2, 3, 3), ("R", 2, 4, 2), ("R", 2, 4, 3)]

    @pytest.mark.parametrize("ambient,nvars,weight_cap,degree_cap", CAPS)
    def test_basis_equals_the_canonicalized_enumeration(self, ambient, nvars, weight_cap, degree_cap):
        cpx = build_connes_complex(ambient, nvars, weight_cap, degree_cap)
        expected = _reference_basis(ambient, nvars, weight_cap, degree_cap)
        assert sorted(cpx.basis) == sorted(expected)
        for bideg, keys in expected.items():
            assert cpx.basis[bideg] == keys, bideg
        for keys in cpx.basis.values():
            assert len(set(keys)) == len(keys)
            for key in keys:
                assert cyclic_canonical(ambient, key) == (1, key)

    @pytest.mark.parametrize("ambient,nvars,weight_cap,degree_cap", [("A", 2, 4, 3), ("R", 2, 3, 3)])
    def test_the_budget_bounds_the_whole_basis(self, ambient, nvars, weight_cap, degree_cap,
                                               monkeypatch):
        # the budget is checked on each class added, one-slot and longer alike
        cpx = build_connes_complex(ambient, nvars, weight_cap, degree_cap)
        size = sum(map(len, cpx.basis.values()))
        one_slot = sum(len(key) == 1 for keys in cpx.basis.values() for key in keys)
        assert one_slot < size - 1
        monkeypatch.setenv("SYMTRACE_MAX_BASIS", str(size))
        assert build_connes_complex(ambient, nvars, weight_cap, degree_cap).basis == cpx.basis
        for budget in (size - 1, one_slot - 1):
            monkeypatch.setenv("SYMTRACE_MAX_BASIS", str(budget))
            with pytest.raises(ResourceLimitError, match=rf" \(budget {budget}\)$"):
                build_connes_complex(ambient, nvars, weight_cap, degree_cap)

    def test_the_pool_over_A_is_checked_before_it_is_built(self, monkeypatch):
        # at degree 0 the basis is the one-slot classes: comb(3 + 4, 4) - 1 = 34
        # monomials of weight 1..4; one class over the budget builds no slot
        cpx = build_connes_complex("A", 3, 4, 0)
        assert sum(map(len, cpx.basis.values())) == 34
        monkeypatch.setenv("SYMTRACE_MAX_BASIS", "34")
        assert build_connes_complex("A", 3, 4, 0).basis == cpx.basis
        built = []
        monkeypatch.setattr(cyclic, "monomial_basis",
                            lambda nvars, w: built.append(w) or [])
        monkeypatch.setenv("SYMTRACE_MAX_BASIS", "33")
        with pytest.raises(ResourceLimitError, match=(
                r"^at least 34 monomials of weight 1..4, each a one-slot class \(budget 33\)$")):
            build_connes_complex("A", 3, 4, 0)
        assert built == []

    def test_the_pool_over_R_is_checked_before_it_is_built(self, monkeypatch):
        # at degree cap 0 the basis is the one-slot classes: the 2 + 4 + 8 = 14
        # degree-0 words of weight 1..3 on two variables
        cpx = build_connes_complex("R", 2, 3, 0)
        assert sum(map(len, cpx.basis.values())) == 14
        monkeypatch.setenv("SYMTRACE_MAX_BASIS", "14")
        assert build_connes_complex("R", 2, 3, 0).basis == cpx.basis
        built = []
        monkeypatch.setattr(cyclic, "r_word_basis", lambda *a: built.append(a) or [])
        monkeypatch.setenv("SYMTRACE_MAX_BASIS", "13")
        with pytest.raises(ResourceLimitError, match=(
            r"^at least 14 words of degree <= 0 and weight 1..3, each a one-slot class "
            r"\(budget 13\)$"
        )):
            build_connes_complex("R", 2, 3, 0)
        assert built == []

    @pytest.mark.parametrize("nvars,weight_cap,degree_cap", [(2, 4, 3), (3, 3, 2), (1, 5, 4)])
    def test_the_pool_count_over_R_is_exact(self, nvars, weight_cap, degree_cap, monkeypatch):
        # every word of degree <= degree_cap is a one-slot class
        cpx = build_connes_complex("R", nvars, weight_cap, degree_cap)
        pool = sum(len(key) == 1 for keys in cpx.basis.values() for key in keys)
        monkeypatch.setenv("SYMTRACE_MAX_BASIS", str(pool - 1))
        with pytest.raises(ResourceLimitError, match=f"^at least {pool} words of degree"):
            build_connes_complex("R", nvars, weight_cap, degree_cap)

    def test_classes_with_a_repeated_least_slot_are_kept(self):
        # (x1, x1, x2) is its own least rotation; a non-strict prune drops it
        key = (mono(1), mono(1), mono(2))
        assert key in build_connes_complex("A", 2, 4, 3).basis[(2, 3)]

    @pytest.mark.parametrize("ambient,nvars,weight_cap,degree_cap", [("A", 1, 6, 5), ("R", 2, 4, 3)])
    def test_periodic_necklaces_are_kept_by_their_stabilizer_sign(self, ambient, nvars,
                                                                 weight_cap, degree_cap):
        cpx = build_connes_complex(ambient, nvars, weight_cap, degree_cap)
        kept = {key for keys in cpx.basis.values() for key in keys}
        found = _periodic_necklaces(ambient, nvars, weight_cap, degree_cap)
        for key, sign in found.items():
            assert (key in kept) == (sign == 1), key
        assert set(found.values()) == {1, -1}
        if ambient == "R":
            # a block with an odd-degree word moves past itself with sign +1
            assert any(sign == 1 and len(key) % 2 == 0 and key[: len(key) // 2] * 2 == key
                       and any(_slot_degree("R", s) % 2 for s in key)
                       for key, sign in found.items())

    @pytest.mark.parametrize("ambient,nvars,weight_cap,degree_cap", CAPS)
    def test_columns_equal_the_loop_over_every_raw_term(self, ambient, nvars, weight_cap,
                                                        degree_cap):
        cpx = build_connes_complex(ambient, nvars, weight_cap, degree_cap)
        expected = _reference_columns(cpx, ambient)
        assert list(cpx.columns) == list(expected)
        for bideg, cols in expected.items():
            assert [list(col.items()) for col in cpx.columns[bideg]] == \
                [list(col.items()) for col in cols], bideg

    @pytest.mark.parametrize("face, message", [
        (lambda key: key, "not homogeneous of degree -1"),
        (lambda key: tuple(((x_gen(1), 100 + j),) for j in range(len(key) - 1)),
         "left the materialized basis"),
    ], ids=["wrong-degree", "outside-the-basis"])
    def test_an_injected_face_is_refused(self, face, message, monkeypatch):
        # each distinct face is checked once per bidegree, the first time it is met
        add_boundary = cyclic._add_boundary

        def injecting(ambient, key, v, out, *products):
            add_boundary(ambient, key, v, out, *products)
            out[face(key)] = v

        monkeypatch.setattr(cyclic, "_add_boundary", injecting)
        with pytest.raises(IntegrityError, match=message):
            build_connes_complex("A", 2, 3, 3)

    def test_the_generator_runs_past_the_recursion_limit(self):
        # one variable, weight cap 1: letter 0 is the unit slot and letter 1 is x1,
        # so the one class of n slots is n - 1 unit slots followed by x1
        n = sys.getrecursionlimit() + 1
        classes = list(cyclic._necklaces(n, [0, 1], [0, 0], 1, 0))
        assert classes == [([0] * (n - 1) + [1], 1, 0)]

    def test_prefixes_only_the_unit_slot_can_complete_are_not_descended(self):
        # weight cap 2 over one variable: letter 0 the unit slot, 1 is x1, 2 is x1^2; the
        # classes of 1,001 slots are 0^1000 1, 0^1000 2 and the 500 words 0^i 1 0^(999 - i) 1
        # with i >= 500, and the walk no longer extends every unit run slot by slot
        t0 = time.perf_counter()
        classes = list(cyclic._necklaces(1001, [0, 1, 2], [0, 0, 0], 2, 0))
        assert time.perf_counter() - t0 < 2
        assert len(classes) == 502
        assert ([0] * 1000 + [2], 2, 0) in classes and ([0] * 1000 + [1], 1, 0) in classes
        assert ([0] * 500 + [1] + [0] * 499 + [1], 2, 0) in classes

    def test_one_slot_classes_are_the_letters_of_weight_at_least_one(self):
        weights, degrees = [0, 1, 1, 2, 3], [0, 0, 1, 0, 2]
        assert list(cyclic._necklaces(1, weights, degrees, 3, 1)) == [
            ([1], 1, 0), ([2], 1, 1), ([3], 2, 0)]

    def test_the_r_slot_basis_stops_below_the_weight(self, monkeypatch):
        # no word of weight 5 has degree 5 or more, whatever the degree cap
        walked = []
        word_basis = cyclic.r_word_basis
        monkeypatch.setattr(cyclic, "r_word_basis",
                            lambda nvars, w, degc: walked.append(degc) or word_basis(nvars, w, degc))
        slots = cyclic._slot_basis("R", 2, 5, 10**8)
        assert walked == [0, 1, 2, 3, 4]
        assert slots == cyclic._slot_basis("R", 2, 5, 4) and slots

    def test_the_one_variable_r_slot_pool_is_linear_in_each_word(self):
        # each weight holds one word, of w letters, so the pool of weights <= 1100
        # is O(W^2) when a word costs O(W); a walk that copied its sizes at every
        # letter made it O(W^3), about 2 s
        t0 = time.perf_counter()
        pool = [cyclic._slot_basis("R", 1, w, 1) for w in range(1, 1101)]
        assert time.perf_counter() - t0 < 2
        assert pool == [[((1,),) * w] for w in range(1, 1101)]

    def test_homology_matches_derham_at_three_vars(self):
        hs = homology(build_connes_complex("A", 3, 4, 3))
        dr = derham_quotient_dims(3, 4, 2)
        for degc in range(0, 3):
            for w in range(1, 5):
                assert hs.dim(degc, w) == dr.get((degc, w), 0)


def _multidegree(ambient, key, nvars):
    """The summed exponent vector of a class: monomial exponents over A, the
    variable counts of the letters over R."""
    out = [0] * nvars
    for slot in key:
        pairs = ((i, 1) for letter in slot for i in letter) if ambient == "R" else (
            (g[1], e) for g, e in slot)
        for i, e in pairs:
            out[i - 1] += e
    return tuple(out)


class TestOrbitBlocks:
    # nvars 1..4 over both ambients; the orbits at three variables have sizes 1, 3
    # and 6, two variables add size 2 and four variables sizes 4, 12 and 24
    GRID = [("A", 1, 5, 4), ("A", 2, 4, 3), ("A", 3, 3, 3), ("A", 3, 4, 2), ("A", 4, 3, 3),
            ("R", 1, 4, 3), ("R", 2, 3, 4), ("R", 3, 3, 3), ("R", 4, 3, 2)]

    @pytest.mark.parametrize("ambient,nvars,weight_cap,degree_cap", GRID)
    def test_orbit_ranks_equal_every_block(self, ambient, nvars, weight_cap, degree_cap,
                                           monkeypatch, capsys):
        full = build_connes_complex(ambient, nvars, weight_cap, degree_cap)
        expected = homology(full).dims
        built, orbits = [], []
        complex_, orbit_size = cyclic._complex, cyclic._orbit_size
        monkeypatch.setattr(cyclic, "_complex", lambda *a: built.append(complex_(*a)) or built[-1])
        monkeypatch.setattr(cyclic, "_orbit_size",
                            lambda *a: orbits.append(orbit_size(*a)) or orbits[-1])
        assert cyclic.homology_dims(ambient, nvars, weight_cap, degree_cap).dims == expected
        assert expected
        assert len(built) == 1
        orbit_columns = sum(map(len, built[0].columns.values()))
        full_columns = sum(map(len, full.columns.values()))
        assert orbit_columns < full_columns if nvars >= 2 else orbit_columns == full_columns
        if (nvars, weight_cap) == (3, 3):
            assert {1, 3, 6} <= set(orbits)
        if nvars == 2:
            assert 2 in orbits
        # the CLI prints the same table as the every-block reference
        assert cli.main(["homology", "--ambient", ambient, "--vars", str(nvars), "--weight",
                         str(weight_cap), "--deg", str(degree_cap - 1), "--json"]) == 0
        dims = [{"degree": deg, "weight": w, "dim": v} for (deg, w), v in sorted(expected.items())
                if deg < degree_cap]
        assert capsys.readouterr().out == json.dumps(
            {"ambient": ambient, "vars": nvars, "dims": dims}) + "\n"

    @pytest.mark.parametrize("ambient", ["A", "R"])
    def test_blocks_of_one_orbit_have_equal_size_and_rank(self, ambient):
        # the full complex splits by multidegree, and permuting the variables maps
        # each block of an orbit onto the others
        cpx = build_connes_complex(ambient, 3, 3, 3)
        sizes, ranks = {}, {}
        for (deg, w), keys in cpx.basis.items():
            mds = [_multidegree(ambient, key, 3) for key in keys]
            for md in mds:
                sizes[deg, w, md] = sizes.get((deg, w, md), 0) + 1
            if deg == 0:
                continue
            lower = [_multidegree(ambient, key, 3) for key in cpx.basis.get((deg - 1, w), [])]
            blocks = {}
            for md, col in zip(mds, cpx.columns[deg, w]):
                assert all(lower[i] == md for i in col)
                blocks.setdefault(md, []).append(col)
            for md, cols in blocks.items():
                ranks[deg, w, md] = bareiss_rank(cols)
        orbits = {}
        for (deg, w, md), n in sizes.items():
            orbit = orbits.setdefault((deg, w, tuple(sorted(md, reverse=True))), set())
            orbit.add((n, ranks.get((deg, w, md), 0)))
        assert all(len(pairs) == 1 for pairs in orbits.values())
        assert any(rank for pairs in orbits.values() for _, rank in pairs)
        # orbits of sizes 1, 3 and 6 are all present, so the check compares blocks
        assert {len(set(md)) for _, _, md in orbits} == {1, 2, 3}

    def test_a_face_moved_to_another_multidegree_is_refused(self, monkeypatch):
        # renaming x1 -> x2 -> x3 -> x1 commutes with the boundary, so the full
        # complex still squares to zero; the orbit blocks index only their own rows
        add_boundary = cyclic._add_boundary

        def renamed(slot):
            return tuple(sorted((x_gen(i % 3 + 1), e) for (_, i), e in slot))

        def moving(ambient, key, v, out, *products):
            raw = {}
            add_boundary(ambient, key, v, raw, *products)
            for face, c in raw.items():
                moved = tuple(map(renamed, face))
                out[moved] = out.get(moved, 0) + c

        monkeypatch.setattr(cyclic, "_add_boundary", moving)
        assert homology(build_connes_complex("A", 3, 3, 3)).dims
        with pytest.raises(IntegrityError, match="left the materialized basis"):
            cyclic.homology_dims("A", 3, 3, 3)


def _reference_canonical(ambient, key):
    """Least rotation by repeated ``_tau``, each step summing the other slots."""
    best, best_sign, cur, sign, zero = key, 1, key, 1, False
    for _ in range(len(key) - 1):
        s, cur = _tau(ambient, cur)
        sign *= s
        if cur == key and sign == -1:
            zero = True
        if cur < best:
            best, best_sign = cur, sign
        elif cur == best and sign != best_sign:
            zero = True
    return None if zero else (best_sign, best)


def _every_tuple(ambient, nvars, weight_cap, degree_cap):
    """Every slot tuple of total weight <= weight_cap and at most degree_cap + 1 slots."""
    pool = [s for w in range(1, weight_cap + 1) for s in _all_slots(ambient, nvars, w)]
    pool.append(())

    def grow(key, weight_left):
        yield key
        if len(key) == degree_cap + 1:
            return
        for s in pool:
            w = chain_weight(ambient, (s,))
            if w <= weight_left:
                yield from grow(key + (s,), weight_left - w)

    return [key for key in grow((), weight_cap) if key]


class TestCyclicCanonical:
    @pytest.mark.parametrize("ambient,nvars,weight_cap,degree_cap", [("A", 2, 4, 3), ("R", 2, 3, 4)])
    def test_equals_the_tau_loop_on_every_key(self, ambient, nvars, weight_cap, degree_cap):
        keys = _every_tuple(ambient, nvars, weight_cap, degree_cap)
        results = [cyclic_canonical(ambient, key) for key in keys]
        assert results == [_reference_canonical(ambient, key) for key in keys]
        assert None in results and any(r is not None and r[0] == -1 for r in results)

    def test_equals_the_tau_loop_on_random_r_tuples(self):
        rng = random.Random(3)
        pool = [w for wt in range(1, 4) for deg in range(3) for w in r_word_basis(3, wt, deg)]
        odd = [w for w in pool if _slot_degree("R", w) % 2]
        zeros = odd_slots = 0
        for _ in range(600):
            block = tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
            key = block * rng.randint(1, 3)  # repeated blocks give sign-zero classes
            if rng.random() < 0.5:
                key += (rng.choice(odd),)
            expected = _reference_canonical("R", key)
            assert cyclic_canonical("R", key) == expected, key
            zeros += expected is None
            odd_slots += any(_slot_degree("R", s) % 2 for s in key)
        assert zeros > 50 and odd_slots > 300


class TestRank:
    def test_simple(self):
        assert bareiss_rank([{0: 1}, {1: 1}]) == 2
        assert bareiss_rank([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 1
        assert bareiss_rank([{}, {}]) == 0
        assert bareiss_rank([]) == 0

    def test_two_term_complex(self):
        # Q --1--> Q has vanishing homology
        basis = {(0, 1): [("a",)], (1, 1): [("b",)]}
        columns = {(1, 1): [{0: Fraction(1)}]}
        cpx = ChainComplexQ(basis, columns, 2)
        hs = homology(cpx)
        assert hs.dim(0, 1) == 0 and hs.dim(1, 1) == 0

    def test_zero_differential(self):
        basis = {(0, 1): [("a",), ("b",), ("c",)]}
        cpx = ChainComplexQ(basis, {}, 2)
        assert homology(cpx).dim(0, 1) == 3


class TestHKR:
    def test_eps_one_form(self):
        ch = hkr_eps(Form(X(1) * DX(2), 2))
        assert ch.terms == {(mono(1), mono(2)): Fraction(1)}

    def test_eps_antisymmetrizes(self):
        ch = hkr_eps(Form(X(3) * DX(1) * DX(2), 3))
        assert ch.terms == {
            (mono(3), mono(1), mono(2)): Fraction(1),
            (mono(3), mono(2), mono(1)): Fraction(-1),
        }

    def test_eps_zero(self):
        assert hkr_eps(Form.zero(2)).is_zero()

    def test_I_basic(self):
        ch = CyclicChain("A", {(mono(1), mono(2)): Fraction(1)})
        assert hkr_I(ch, 2) == Form(X(1) * DX(2), 2)

    def test_I_odd_square(self):
        ch = CyclicChain("A", {(mono(1), mono(2), mono(2)): Fraction(1)})
        assert hkr_I(ch, 2).is_zero()

    def test_composite_identity(self):
        for body in (X(1) * DX(2), X(1) * DX(2) * DX(3), X(1) ** 2 * X(2) * DX(3)):
            omega = Form(body, 3)
            assert hkr_I(hkr_eps(omega), 3) == omega

    def test_composite_identity_mod_exact(self):
        omega = Form(X(1) * DX(2) * DX(3), 3)
        assert equal_mod_exact(hkr_I(hkr_eps(omega), 3), omega)


class TestBetaCocycle:
    def test_trivial_zero_form(self):
        beta = beta_cocycle((1,), 1, 0)
        word_x1 = ((1,),)
        assert beta.terms == {(word_x1,): Fraction(1)}

    def test_pure_du_single(self):
        beta = beta_cocycle((1,), 0, 1)
        # only the one-barred-column survives: unit slot, then the letter,
        # with the column sign
        assert beta.terms == {((), ((1,),)): Fraction(-1)}

    def test_closed_small(self):
        nonzero = 0
        for n, p in [(1, 1), (2, 1), (1, 2), (0, 2), (2, 2)]:
            for u in product((1, 2), repeat=n + p):
                beta = beta_cocycle(u, n, p)
                assert boundary(beta).canonicalized().is_zero()
                nonzero += not beta.is_zero()
        # the 14 of 40 tuples with a repeated du label have the zero chain
        assert nonzero == 26

    @settings(deadline=None)
    @given(st.data())
    def test_closed_on_random_labels(self, data):
        n = data.draw(st.integers(0, 4))
        p = data.draw(st.integers(0, 4 - n))
        u = data.draw(st.lists(st.integers(1, 4), min_size=n + p, max_size=n + p))
        assert boundary(beta_cocycle(u, n, p)).canonicalized().is_zero()
        # distinct du labels: a nonzero chain, so closedness is not 0 == 0
        us = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        dus = data.draw(st.lists(st.integers(1, 4), min_size=p, max_size=p, unique=True))
        beta = beta_cocycle(us + dus, n, p)
        assert not beta.is_zero()
        assert boundary(beta).canonicalized().is_zero()

    def test_one_slot_projection_is_trace(self):
        nonzero = 0
        for n, p in [(1, 1), (2, 1), (1, 2), (2, 2)]:
            for u in product((1, 2, 3), repeat=n + p):
                beta = beta_cocycle(u, n, p)
                alpha = form_from_labels(u, n, p, 3)
                assert abelianize(beta_one_slot_words(beta)) == trace_simple(alpha)
                nonzero += not beta.is_zero()
        assert nonzero == 108

    def test_coalgebra_image_is_d(self):
        nonzero = 0
        for n, p in [(1, 0), (2, 0), (1, 1), (2, 1), (1, 2)]:
            for u in product((1, 2), repeat=n + p):
                beta = beta_cocycle(u, n, p)
                alpha = form_from_labels(u, n, p, 2)
                assert eps_coalgebra(beta_one_slot_words(beta), 2) == d(alpha)
                nonzero += not beta.is_zero()
        assert nonzero == 22

    def test_runner(self):
        # the conj1 suite of the command line runs the three checks on each tuple
        report = cli.suite_conj1(2, 3)
        assert report.cases == 48 and not report.failures
        # the runner's tuples, n + p <= 3 on two variables: 14 repeat a du label
        shapes = [(n, total - n) for total in range(1, 4) for n in range(total + 1)]
        nonzero = sum(
            not beta_cocycle(u, n, p).is_zero()
            for n, p in shapes
            for u in product((1, 2), repeat=n + p)
        )
        assert nonzero == 34


def _reference_beta(u_vars, n, p):
    """The bridge cocycle as the sum over all n! permutations, a Fraction per map."""
    out = {}
    for sigma in permutations(range(n)):
        for m in range(p + 1):
            for blocks in block_maps(p, n + m, onto=range(n, n + m)):
                head = _lam_word(
                    [u_vars[sigma[j]]] + [u_vars[n + pos] for pos in blocks[j]]
                    for j in range(n)
                )
                if head is None:
                    continue
                tail = _lam_word([u_vars[n + pos] for pos in block] for block in blocks[n:])
                if tail is None:
                    continue
                key = (head[1],) + tuple((letter,) for letter in tail[1])
                sign = block_sign(blocks) * head[0] * tail[0] * (-1) ** m
                out[key] = out.get(key, Fraction(0)) + Fraction(sign, factorial(n))
    return {key: c for key, c in out.items() if c}


def _reference_boundary(chain):
    """The Fraction boundary: every term scaled and summed as a Fraction."""
    ambient = chain.ambient
    out = {}
    for key, c in chain.terms.items():
        m = len(key) - 1
        sus = [_slot_degree(ambient, s) + 1 for s in key]
        if m >= 1:
            prefix = 0
            for i in range(m):
                prefix += sus[i]
                s2, merged = cyclic._slot_mul(ambient, key[i], key[i + 1])
                k2 = key[:i] + (merged,) + key[i + 2:]
                out[k2] = out.get(k2, Fraction(0)) + (-1) ** prefix * s2 * c
            tau_sign, rotated = _tau(ambient, key)
            s2, merged = cyclic._slot_mul(ambient, rotated[0], rotated[1])
            k2 = (merged,) + rotated[2:]
            out[k2] = out.get(k2, Fraction(0)) + tau_sign * (-1) ** sus[-1] * s2 * c
        if ambient == "R":
            prefix = 0
            for i in range(m + 1):
                for word, cw in delta_R(RElement.from_word(key[i])).terms.items():
                    k2 = key[:i] + (word,) + key[i + 1:]
                    out[k2] = out.get(k2, Fraction(0)) + (-1) ** prefix * c * cw
                prefix += sus[i]
    return {key: c for key, c in out.items() if c}


def _relabeling_classes(nvars, length):
    """One tuple per class under renaming the variables: first uses come in order."""
    for u in product(range(1, nvars + 1), repeat=length):
        firsts = [v for i, v in enumerate(u) if v not in u[:i]]
        if firsts == list(range(1, len(firsts) + 1)):
            yield u


def _reference_eps(words, nvars):
    """eps_coalgebra rotation by rotation, with the graded-cyclic sign of each."""
    from symtrace.gcalg import monomial_from_factors

    total = AlgebraElement.zero()
    for word, c in words.terms.items():
        s = len(word)
        degs = [len(letter) - 1 for letter in word]
        for j in range(s):
            if any(len(word[i]) > 1 for i in range(s) if i != j):
                continue
            sign = -1 if (sum(degs[:j]) * sum(degs[j:])) % 2 else 1
            factors = [dx_gen(i) for i in word[j]]
            factors += [x_gen(word[i][0]) for i in range(s) if i != j]
            mono = monomial_from_factors(factors)
            if mono is not None:
                total.add_term(mono[1], sign * mono[0] * c)
    return Form(total, nvars)


MIXED = [Fraction(1, 2), Fraction(1, 3), Fraction(-5, 6), Fraction(3, 4), Fraction(-2), Fraction(1)]
A_SLOTS = [(), mono(1), mono(2), mono(1, 1), mono(1, 2), mono(2, 2, 3)]
R_SLOTS = [()] + [w for wt in range(1, 4) for deg in range(3) for w in r_word_basis(3, wt, deg)]


class TestGroupedBridge:
    def test_beta_equals_the_permutation_sum_up_to_four_labels(self):
        for total in range(1, 5):
            for n in range(total + 1):
                for u in product((1, 2, 3), repeat=total):
                    assert beta_cocycle(u, n, total - n).terms == _reference_beta(u, n, total - n), (u, n)

    def test_beta_equals_the_permutation_sum_on_five_labels(self):
        cases = 0
        for u in _relabeling_classes(3, 5):
            for n in range(6):
                assert beta_cocycle(u, n, 5 - n).terms == _reference_beta(u, n, 5 - n), (u, n)
                cases += 1
        # every stratum (n, label multiplicities) of the five-label tuples
        assert cases == 41 * 6

    def test_repeated_labels_are_weighted(self):
        # x1 x1 dx2: the two permutations are one ordering of weight 2, over
        # 2!; without the weight the term would be 1/2, without the 1/2! it would be 2
        beta = beta_cocycle((1, 1, 2), 2, 1)
        assert beta.terms == _reference_beta((1, 1, 2), 2, 1)
        assert beta.terms[(((1,), (1, 2)),)] == 1
        assert beta_cocycle((1, 2, 3), 2, 1).terms[(((1,), (2, 3)),)] == Fraction(1, 2)

    def test_beta_walks_only_live_maps(self, monkeypatch):
        # per distinct ordering and column count m, the maps that hit every
        # barred column and put no du label into its own label's head letter
        u, n, p = (1, 2, 1, 1, 2), 3, 2
        full = cyclic.block_maps
        walked = []

        def counting(*args, **kwargs):
            for blocks in full(*args, **kwargs):
                walked.append(1)
                yield blocks

        monkeypatch.setattr(cyclic, "block_maps", counting)
        beta = beta_cocycle(u, n, p)
        live = 0
        for labels in set(permutations(u[:n])):
            for m in range(p + 1):
                for f in product(range(n + m), repeat=p):
                    hit = all(j in f for j in range(n, n + m))
                    if hit and all(j >= n or labels[j] != v for j, v in zip(f, u[n:])):
                        live += 1
        assert 0 < live and len(walked) == live
        assert beta.terms == _reference_beta(u, n, p)

    @settings(deadline=None, max_examples=80)
    @given(st.data())
    def test_integer_boundary_equals_the_fraction_boundary(self, data):
        ambient = data.draw(st.sampled_from(["A", "R"]))
        slots = A_SLOTS if ambient == "A" else R_SLOTS
        keys = st.lists(st.sampled_from(slots), min_size=1, max_size=3).map(tuple)
        terms = data.draw(st.dictionaries(keys, st.sampled_from(MIXED), min_size=1, max_size=5))
        chain = CyclicChain(ambient, terms)
        got = boundary(chain)
        assert got.terms == _reference_boundary(chain)
        assert all(isinstance(c, Fraction) for c in got.terms.values())

    def test_integer_boundary_on_chains_that_cancel(self):
        # a two-slot chain over A: the merge and the wraparound cancel exactly
        chain = CyclicChain("A", {(mono(1), mono(2)): Fraction(1, 2),
                                  (mono(1, 1), mono(2)): Fraction(-5, 6)})
        assert _reference_boundary(chain) == {}
        assert boundary(chain).is_zero()
        # scaled bridge cocycles over mixed denominators: their terms cancel
        chain = CyclicChain("R", {})
        for c, (u, n, p) in zip(MIXED, [((1, 2, 3), 1, 2), ((2, 2, 1), 2, 1), ((1, 3, 1, 2), 2, 2)]):
            chain.iadd(beta_cocycle(u, n, p), c)
        assert {c.denominator for c in chain.terms.values()} == {2, 3, 12}
        assert _reference_boundary(chain) == {}
        assert boundary(chain).is_zero()
        # plus one chain that is not closed: the common denominator is 12
        chain.add_term((((1, 2),), ((1,), (3,))), Fraction(1, 3))
        chain.add_term((((2, 3), (1,)),), Fraction(-1, 4))
        got = boundary(chain)
        assert got.terms == _reference_boundary(chain)
        assert {c.denominator for c in got.terms.values()} == {3, 4}

    def test_coalgebra_evaluation_equals_the_rotation_sum(self):
        # every word of R on three variables up to weight 5, alone and in
        # mixed combinations; words with 0, 1 and 2+ non-singleton letters
        words = [w for wt in range(6) for deg in range(4) for w in r_word_basis(3, wt, deg)]
        big = {sum(len(letter) > 1 for letter in w) for w in words}
        assert {0, 1, 2} <= big
        nonzero = 0
        for w in words:
            e = RElement.from_word(w, Fraction(-2, 3))
            assert eps_coalgebra(e, 3) == _reference_eps(e, 3), w
            nonzero += not eps_coalgebra(e, 3).body.is_zero()
        assert nonzero
        rng = random.Random(3)
        for _ in range(200):
            e = RElement({rng.choice(words): rng.choice(MIXED) for _ in range(6)})
            assert eps_coalgebra(e, 3) == _reference_eps(e, 3)

    def test_coalgebra_evaluation_keeps_fraction_coefficients(self):
        # a word with coefficient 1 must not pass its integer sign sums through
        words = [w for wt in range(1, 5) for deg in range(3) for w in r_word_basis(3, wt, deg)]
        values = [eps_coalgebra(RElement.from_word(w), 3).body for w in words]
        assert any(not v.is_zero() for v in values)
        assert all(type(c) is Fraction for v in values for c in v.terms.values())

    def test_word_differential_memo(self):
        words = [w for wt in range(1, 5) for deg in range(4) for w in r_word_basis(3, wt, deg)]
        for w in words:
            terms = delta_word(w)
            assert list(terms) == list(delta_R(RElement.from_word(w)).terms.items())
            assert all(type(c) is int for _, c in terms)
        maxsize = resolution.delta_word.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0


def _label_tuples(nvars, cap):
    """(u, n, p) for every label tuple with 1 <= n + p <= cap on nvars labels."""
    for total in range(1, cap + 1):
        for n in range(total + 1):
            for u in product(range(1, nvars + 1), repeat=total):
                yield u, n, total - n


class TestBridgeAlternation:
    def test_zero_on_a_repeated_du_label(self):
        cases = 0
        for u, n, p in _label_tuples(3, 5):
            if len(set(u[n:])) < p:
                assert _reference_beta(u, n, p) == {}, (u, n)
                assert beta_cocycle(u, n, p).terms == {}, (u, n)
                cases += 1
        assert cases == 960

    def test_permuting_the_du_labels_multiplies_by_the_sign(self):
        cases = 0
        for u, n, p in _label_tuples(3, 5):
            if len(set(u[n:])) < p:
                continue
            ref = _reference_beta(u, n, p)
            assert ref and beta_cocycle(u, n, p).terms == ref, (u, n)
            for sigma in permutations(range(p)):
                moved = u[:n] + tuple(u[n + i] for i in sigma)
                sign = perm_sign(sigma)
                assert beta_cocycle(moved, n, p).terms == {k: sign * c for k, c in ref.items()}
                cases += 1
        # the 1,044 tuples with distinct du labels, each with its p! reorderings
        assert cases == 1674

    def test_a_warm_call_walks_no_block_map(self, monkeypatch):
        full = cyclic.block_maps
        walked = []

        def counting(*args, **kwargs):
            for blocks in full(*args, **kwargs):
                walked.append(1)
                yield blocks

        monkeypatch.setattr(cyclic, "block_maps", counting)
        cold = beta_cocycle((1, 2, 1, 2, 3), 2, 3)
        assert walked
        walked.clear()
        # the same label sets in another order; (2, 1, 3) is an odd reordering
        warm = beta_cocycle((2, 1, 2, 1, 3), 2, 3)
        assert not walked
        assert warm.terms == {k: -c for k, c in cold.terms.items()}
        assert warm.terms == _reference_beta((2, 1, 2, 1, 3), 2, 3)

    def test_a_returned_chain_is_the_callers_own(self):
        for u in [(1, 2, 3), (1, 3, 2)]:
            expected = _reference_beta(u, 1, 2)
            chain = beta_cocycle(u, 1, 2)
            order = list(chain.terms.items())
            chain.add_term(next(iter(chain.terms)), Fraction(5, 2))
            chain.add_term(((), ((1,),)), 1)
            chain.iadd(chain, 2)
            again = beta_cocycle(u, 1, 2)
            assert again.terms == expected and list(again.terms.items()) == order

    def test_no_zero_letter_is_built(self, monkeypatch):
        full = cyclic._lam_word
        letters = []

        def recording(arg_lists):
            r = full(arg_lists)
            letters.append(r)
            return r

        monkeypatch.setattr(cyclic, "_lam_word", recording)
        for u, n, p in _label_tuples(4, 4):
            beta_cocycle(u, n, p)
        assert letters and all(r is not None for r in letters)


def _direct_boundary(chain):
    """The boundary as it was summed before the memo: ``_add_boundary`` on every lifted
    term into one dict, divided back with ``over``."""
    ints, den = lift(chain.terms)
    out = {}
    for key, v in ints.items():
        cyclic._add_boundary(chain.ambient, key, v, out)
    return over(out, den)


def _bridge_chains(nvars, cap):
    """The distinct nonzero bridge chains with n + p <= cap, as term dicts."""
    seen = {}
    for u, n, p in _label_tuples(nvars, cap):
        terms = beta_cocycle(u, n, p).terms
        if terms:
            seen.setdefault(frozenset(terms.items()), terms)
    return list(seen.values())


class TestBoundaryMemo:
    def _assert_direct(self, chain):
        got = boundary(chain)
        assert list(got.terms.items()) == list(_direct_boundary(chain).items())
        assert all(type(c) is Fraction and c for c in got.terms.values())
        return got

    def test_equals_the_direct_sum_on_bridge_chains(self):
        cyclic._boundary_ints.cache_clear()
        chains = _bridge_chains(3, 4)
        nonzero = 0
        for terms in chains:
            # a bridge chain is closed; without its first term it is not
            opened = dict(list(terms.items())[1:])
            for c in (1, -1, Fraction(2, 3), Fraction(-5, 4)):
                self._assert_direct(CyclicChain("R", {k: c * v for k, v in terms.items()}))
                nonzero += not self._assert_direct(
                    CyclicChain("R", {k: c * v for k, v in opened.items()})).is_zero()
        assert len(chains) == 162 and nonzero == 464

    def test_equals_the_direct_sum_on_chains_over_A(self):
        rng = random.Random(5)
        nonzero = 0
        for _ in range(40):
            terms = {tuple(rng.choice(A_SLOTS) for _ in range(rng.randint(1, 3))): rng.choice(MIXED)
                     for _ in range(rng.randint(1, 5))}
            chain = CyclicChain("A", terms)
            nonzero += not self._assert_direct(chain).is_zero()
            self._assert_direct(-chain)
            self._assert_direct(chain.scale(Fraction(7, 3)))
        assert nonzero > 20

    def test_a_second_call_returns_a_fresh_equal_chain(self):
        for ambient, terms in [
            ("R", {(((1, 2),), ((1,), (3,))): Fraction(1, 3), (((2, 3), (1,)),): Fraction(-1, 4)}),
            ("A", {(mono(1), mono(2), mono(2, 2)): Fraction(3, 2), (mono(1, 2),): Fraction(-1)}),
        ]:
            chain = CyclicChain(ambient, terms)
            first = boundary(chain)
            expected = dict(first.terms)
            assert expected
            second = boundary(CyclicChain(ambient, dict(terms)))
            assert second == first and second.terms == expected
            assert second is not first and second.terms is not first.terms
            first.iadd(first, 2)
            first.add_term(next(iter(expected)), 1)
            assert boundary(chain).terms == expected
            # a chain and its negation share one entry
            misses = cyclic._boundary_ints.cache_info().misses
            assert list(boundary(-chain).terms.items()) == [(k, -c) for k, c in expected.items()]
            assert cyclic._boundary_ints.cache_info().misses == misses

    def test_the_bridge_suite_walks_each_chain_once(self, monkeypatch):
        # suite_conj1(3, 4) checks 546 label tuples; the 342 nonzero chains are 162 distinct
        walked = []
        full = cyclic._add_boundary

        def counting(ambient, key, v, out):
            walked.append((key, v))
            full(ambient, key, v, out)

        cyclic._boundary_ints.cache_clear()
        monkeypatch.setattr(cyclic, "_add_boundary", counting)
        report = cli.suite_conj1(3, 4)
        assert report.cases == 546 and not report.failures
        chains = [t for u, n, p in _label_tuples(3, 4) for t in [beta_cocycle(u, n, p).terms] if t]
        signed = {frozenset(t.items()): len(t) for t in chains}
        # up to sign: each chain scaled so that its first term is positive
        unsigned = {frozenset((k, c / abs(c) * v) for k, v in t.items()): len(t)
                    for t in chains for c in [next(iter(t.values()))]}
        assert len(unsigned) < len(signed) < len(chains)
        assert len(signed) < cyclic._boundary_ints.cache_info().maxsize
        # each distinct chain is walked once, whichever sign comes first
        assert len(walked) == sum(unsigned.values())


# The bridge projections as they summed before they ran on integers: one
# Fraction product and sum per term.  They are the references below.

def _fraction_one_slot(beta):
    out = {}
    for key, c in beta.terms.items():
        if len(key) == 1:
            out[key[0]] = out.get(key[0], Fraction(0)) + c
    return RElement(out)


def _fraction_abelianize(e):
    out = {}
    for wd, c in e.terms.items():
        prod = lam_product(wd)
        if prod is None:
            continue
        s, m = prod
        out[m] = out.get(m, Fraction(0)) + s * c
    return AlgebraElement(out)


def _fraction_eps(words, nvars):
    out = {}
    for wd, c in words.terms.items():
        for m, v in cyclic._eps_word_terms(wd):
            out[m] = out.get(m, 0) + c * v
    return Form(AlgebraElement(out), nvars)


def _fraction_delta_R(e):
    out = {}
    for wd, c in e.terms.items():
        for w, cw in delta_word(wd):
            out[w] = out.get(w, 0) + c * cw
    return RElement(out)


# The sums that ran on Fractions before they went through gcalg.int_sum, as
# they were written then: the references for the integer path below.

def _fraction_mul(a, b):
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            r = monomial_mul(m1, m2)
            if r is None:
                continue
            s, m = r
            out[m] = out.get(m, Fraction(0)) + s * c1 * c2
    return AlgebraElement(out)


def _fraction_canonicalized(chain):
    out = {}
    for key, c in chain.terms.items():
        r = cyclic_canonical(chain.ambient, key)
        if r is None:
            continue
        sign, canon = r
        out[canon] = out.get(canon, Fraction(0)) + sign * c
    return CyclicChain(chain.ambient, out)


def _fraction_hkr_eps(omega):
    out = {}
    for m, c in omega.body.terms.items():
        poly = tuple((g, e) for g, e in m if g[0] == X_KIND)
        dxs = [g[1] for g, e in m if g[0] == DX_KIND]
        i = len(dxs)
        if i == 0:
            key = (poly,)
            out[key] = out.get(key, Fraction(0)) + c
            continue
        for sigma in permutations(range(i)):
            sign = perm_sign(sigma)
            key = (poly,) + tuple(((x_gen(dxs[j]), 1),) for j in sigma)
            out[key] = out.get(key, Fraction(0)) + sign * c
    return CyclicChain("A", out)


def _fraction_class_tree_sum(md, args):
    k = len(args) - 1
    keys, leaves, scale = md._lift_args((a.terms for a in args), ainfty._f1_word)
    root = {}
    for sigma, t in ainfty.enumerate_labeled_classes(k):
        ks, ls = tuple(keys[j] for j in sigma), [leaves[j] for j in sigma]
        add_into(root, md._eval_tree(t, ks, ls, True), perm_sign(sigma) * ainfty.tree_sign(t))
    acc = {}
    for wd, c in md._h_int(root).items():
        prod = lam_product(wd)
        if prod is not None:
            acc[prod[1]] = acc.get(prod[1], 0) + prod[0] * c
    divisor = -scale * md._h_den ** k
    return AlgebraElement.from_clean({m: Fraction(v, divisor) for m, v in acc.items() if v})


def _fraction_permute_slots(value, sigma):
    out = {}
    for key, c in value.terms.items():
        sign = koszul_sign(sigma, [monomial_parity(m) if m else 0 for m in key])
        new = [()] * value.n
        for j, m in enumerate(key):
            new[sigma[j]] = m
        k2 = tuple(new)
        out[k2] = out.get(k2, Fraction(0)) + sign * c
    return DiagonalTraceValue(value.n, out)


def _fraction_vartheta_symmetrize(t, n):
    out = {}
    for m, c in t.terms.items():
        for i in range(n):
            key = tuple(m if j == i else () for j in range(n))
            out[key] = out.get(key, Fraction(0)) + c
    return DiagonalTraceValue(n, out)


def _assert_clean_and_equal(got, ref):
    """The same term dict in the same order, every coefficient a nonzero Fraction."""
    assert got.terms == ref.terms
    assert list(got.terms) == list(ref.terms)
    assert all(type(c) is Fraction and c != 0 for c in got.terms.values())


PROJECTION_WORDS = [w for wt in range(1, 5) for deg in range(4) for w in r_word_basis(3, wt, deg)]
# even and odd monomials: x, dx and lam factors, so that some products vanish
SUM_MONOMIALS = [monomial_from_factors(fs)[1] for fs in (
    [], [x_gen(1)], [x_gen(2), x_gen(2)], [dx_gen(1)], [dx_gen(2)], [x_gen(1), dx_gen(3)],
    [lam_gen((1, 2))], [lam_gen((1, 2, 3))], [x_gen(3), lam_gen((2, 3))], [dx_gen(1), dx_gen(2)])]


def _rotated(wd):
    return wd[1:] + wd[:1]


class TestIntegerProjections:
    """The bridge projections summed on integers against their Fraction loops,
    on rational coefficients and on sums that cancel."""

    def _mixed_elements(self, count, seed):
        rng = random.Random(seed)
        return [RElement({rng.choice(PROJECTION_WORDS): rng.choice(MIXED)
                          for _ in range(rng.randint(1, 6))}) for _ in range(count)]

    def test_abelianize_equals_the_fraction_sum(self):
        nonzero = 0
        for e in self._mixed_elements(300, seed=11):
            got = abelianize(e)
            _assert_clean_and_equal(got, _fraction_abelianize(e))
            nonzero += not got.is_zero()
        assert nonzero > 100

    def test_abelianize_of_cancelling_sums(self):
        # a commutator of degree-0 words, and delta of anything, abelianize to 0;
        # the letter lam[1,2] is left
        c = Fraction(-5, 6)
        e = RElement({((1,), (2,)): c, ((2,), (1,)): -c, ((1, 2),): Fraction(1, 3)})
        _assert_clean_and_equal(abelianize(e), _fraction_abelianize(e))
        assert abelianize(e).terms == {((lam_gen((1, 2)), 1),): Fraction(1, 3)}
        for x in self._mixed_elements(60, seed=12):
            bound = delta_R(x).scale(Fraction(-3, 4))
            assert _fraction_abelianize(bound).terms == {}
            assert abelianize(bound).terms == {}

    def test_eps_coalgebra_equals_the_fraction_sum(self):
        nonzero = 0
        for e in self._mixed_elements(300, seed=13):
            got = eps_coalgebra(e, 3)
            _assert_clean_and_equal(got.body, _fraction_eps(e, 3).body)
            nonzero += not got.is_zero()
        assert nonzero > 100

    def test_eps_coalgebra_of_cancelling_sums(self):
        # every word and its rotation have the same image, so w - rot(w) is 0
        rng = random.Random(14)
        for _ in range(60):
            e = RElement.zero()
            for wd in rng.sample(PROJECTION_WORDS, 3):
                c = rng.choice(MIXED)
                e.add_term(wd, c)
                e.add_term(_rotated(wd), -c)
            assert _fraction_eps(e, 3).body.terms == {}
            assert eps_coalgebra(e, 3).body.terms == {}

    def test_delta_R_equals_the_fraction_sum(self):
        nonzero = 0
        for e in self._mixed_elements(300, seed=15):
            got = delta_R(e)
            _assert_clean_and_equal(got, _fraction_delta_R(e))
            nonzero += not got.is_zero()
        assert nonzero > 100

    def test_delta_R_of_cancelling_sums(self):
        # delta squares to 0: delta of a boundary cancels term by term
        for x in self._mixed_elements(60, seed=16):
            e = delta_R(x).scale(Fraction(2, 3))
            _assert_clean_and_equal(delta_R(e), _fraction_delta_R(e))
            assert delta_R(e).terms == {}

    def test_one_slot_words_equal_the_fraction_sum(self):
        rng = random.Random(17)
        cases = [(u, n, p) for u, n, p in _label_tuples(3, 4) if len(set(u[n:])) == p]
        nonzero = 0
        for _ in range(80):
            chain = CyclicChain("R")
            for u, n, p in rng.sample(cases, 3):
                chain.iadd(beta_cocycle(u, n, p), rng.choice(MIXED))
            got = beta_one_slot_words(chain)
            _assert_clean_and_equal(got, _fraction_one_slot(chain))
            nonzero += not got.is_zero()
        assert nonzero > 40

    def test_one_slot_words_of_cancelling_sums(self):
        # swapping two du labels negates the chain, so the sum is 0
        c = Fraction(3, 4)
        chain = CyclicChain("R")
        chain.iadd(beta_cocycle((1, 2, 3), 1, 2), c)
        chain.iadd(beta_cocycle((1, 3, 2), 1, 2), c)
        assert chain.is_zero()
        assert beta_one_slot_words(chain).terms == _fraction_one_slot(chain).terms == {}
        # a chain of two-slot keys only has no one-slot part
        chain = CyclicChain("R", {(((1,),), ((2, 3),)): Fraction(1, 2)})
        assert beta_one_slot_words(chain).terms == _fraction_one_slot(chain).terms == {}

    def _mixed_algebra(self, rng, pool=SUM_MONOMIALS):
        return AlgebraElement({rng.choice(pool): rng.choice(MIXED) for _ in range(rng.randint(1, 4))})

    def test_products_equal_the_fraction_sum(self):
        rng = random.Random(18)
        nonzero = 0
        for _ in range(300):
            a, b = self._mixed_algebra(rng), self._mixed_algebra(rng)
            _assert_clean_and_equal(a * b, _fraction_mul(a, b))
            nonzero += not (a * b).is_zero()
        assert nonzero > 100

    def test_products_that_cancel(self):
        # an odd element squares to 0: u v + v u = 0 for odd u, v
        odd = [m for m in SUM_MONOMIALS if monomial_parity(m)]
        assert len(odd) >= 4
        rng = random.Random(19)
        for _ in range(60):
            a = self._mixed_algebra(rng, odd)
            assert _fraction_mul(a, a).terms == (a * a).terms == {}

    def _mixed_chain(self, rng, ambient):
        slots = A_SLOTS if ambient == "A" else R_SLOTS
        return CyclicChain(ambient, {tuple(rng.choice(slots) for _ in range(rng.randint(1, 3))):
                                     rng.choice(MIXED) for _ in range(rng.randint(1, 6))})

    @pytest.mark.parametrize("ambient", ["A", "R"])
    def test_canonicalized_equals_the_fraction_sum(self, ambient):
        rng = random.Random(20)
        nonzero = 0
        for _ in range(300):
            chain = self._mixed_chain(rng, ambient)
            got = chain.canonicalized()
            _assert_clean_and_equal(got, _fraction_canonicalized(chain))
            nonzero += not got.is_zero()
        assert nonzero > 100

    @pytest.mark.parametrize("ambient", ["A", "R"])
    def test_canonicalized_rotations_that_cancel(self, ambient):
        # c * key minus c * (the rotation's sign) * its rotation is 0 modulo rotation
        rng = random.Random(21)
        cancelled = 0
        for _ in range(100):
            key = next(iter(self._mixed_chain(rng, ambient).terms))
            rot, c = key[1:] + key[:1], rng.choice(MIXED)
            r1, r2 = cyclic_canonical(ambient, key), cyclic_canonical(ambient, rot)
            if r1 is None or len(key) < 2 or rot == key:
                continue
            chain = CyclicChain(ambient, {key: c, rot: -c * r1[0] * r2[0]})
            _assert_clean_and_equal(chain.canonicalized(), _fraction_canonicalized(chain))
            assert chain.canonicalized().terms == {}
            cancelled += 1
        assert cancelled > 20

    def test_hkr_eps_equals_the_fraction_sum(self):
        rng = random.Random(22)
        pool = [m for w in range(3) for p in range(4) for m in form_basis(3, w, p)]
        assert any(not any(g[0] == DX_KIND for g, _ in m) for m in pool)  # the degree-0 branch
        for _ in range(200):
            omega = Form(self._mixed_algebra(rng, pool), 3)
            _assert_clean_and_equal(hkr_eps(omega), _fraction_hkr_eps(omega))
        omega = Form(AlgebraElement({(): Fraction(-3, 4), mono(1, 2): Fraction(1, 6)}), 3)
        _assert_clean_and_equal(hkr_eps(omega), _fraction_hkr_eps(omega))
        assert hkr_eps(omega).terms == {((),): Fraction(-3, 4), (mono(1, 2),): Fraction(1, 6)}

    def test_class_tree_sum_equals_the_fraction_sum(self):
        md = ainfty.build_merkulov(3, 4, 3)
        polys = [AlgebraElement.from_monomial(m) for w in (1, 2) for m in monomial_basis(3, w)]
        rng = random.Random(23)
        nonzero = zero = 0
        for _ in range(60):
            k = rng.choice((1, 2))
            args = []
            for j in range(k + 1):
                a = AlgebraElement.zero()
                for _ in range(rng.randint(1, 2)):
                    a.iadd(rng.choice(polys[:3] if k == 2 else polys), rng.choice(MIXED))
                args.append(a)
            got = ainfty.class_tree_sum(md, args)
            _assert_clean_and_equal(got, _fraction_class_tree_sum(md, args))
            nonzero += not got.is_zero()
            zero += got.is_zero()
        assert nonzero > 20 and zero > 0

    def _mixed_value(self, rng, n):
        return DiagonalTraceValue(n, {tuple(rng.choice(SUM_MONOMIALS) for _ in range(n)):
                                      rng.choice(MIXED) for _ in range(rng.randint(1, 5))})

    def test_permute_slots_equals_the_fraction_sum(self):
        rng = random.Random(24)
        for _ in range(200):
            n = rng.randint(1, 4)
            value, sigma = self._mixed_value(rng, n), rng.sample(range(n), n)
            _assert_clean_and_equal(value.permute_slots(sigma), _fraction_permute_slots(value, sigma))

    def test_vartheta_symmetrize_equals_the_fraction_sum(self):
        rng = random.Random(25)
        for _ in range(200):
            t, n = self._mixed_algebra(rng), rng.randint(1, 4)
            _assert_clean_and_equal(vartheta_symmetrize(t, n), _fraction_vartheta_symmetrize(t, n))
        # the constant lands in the same key in every slot; a sum that cancels is 0
        t = AlgebraElement({(): Fraction(2, 3), SUM_MONOMIALS[1]: Fraction(-1, 2)})
        assert vartheta_symmetrize(t, 3).terms[((), (), ())] == 2
        zero = t - t
        assert vartheta_symmetrize(zero, 3).terms == _fraction_vartheta_symmetrize(zero, 3).terms == {}
