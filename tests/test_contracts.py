"""Contract edges: every guarded misuse raises InvalidInputError with its message,
and the operator branches of the combination classes behave as their peers."""

import re
from fractions import Fraction

import pytest

from symtrace.ainfty import build_merkulov, enumerate_pbt
from symtrace.cartan import trace_cartan, vartheta_power_sum
from symtrace.cyclic import CyclicChain, beta_cocycle, build_connes_complex, hkr_I
from symtrace.derham import Form
from symtrace.gcalg import AlgebraElement, InvalidInputError, dx_gen, lam_gen, x_gen
from symtrace.resolution import RElement
from symtrace.trace import trace


def X(i):
    return AlgebraElement.from_gen(x_gen(i))


def DX(i):
    return AlgebraElement.from_gen(dx_gen(i))


@pytest.fixture(scope="module")
def md():
    return build_merkulov(2, 2, 1)


FORM = Form(X(1) * DX(2), 2)

MISUSES = [
    ("enumerate_pbt(0)", lambda md: enumerate_pbt(0), "need k >= 1"),
    ("mu arity", lambda md: md.mu(2, [RElement.from_word(((1,),))]),
     "mu_2 needs exactly 2 arguments"),
    ("f_taylor one argument", lambda md: md.f_taylor([X(1)]),
     "f_taylor needs at least two arguments"),
    ("f_tree leaf count", lambda md: md.f_tree(enumerate_pbt(1)[0], [X(1)]),
     "argument count must match leaf count"),
    ("f_tree bare leaf", lambda md: md.f_tree(None, [X(1)]),
     "a bare leaf is not a tree evaluation"),
    ("vartheta_power_sum n=0", lambda md: vartheta_power_sum(X(1), 0, 0),
     "need n >= 1 and q >= 0"),
    ("trace_cartan q=-1", lambda md: trace_cartan(FORM, 2, -1), "need n >= 1 and q >= 0"),
    ("chain ambient", lambda md: CyclicChain("B"), "ambient must be 'A' or 'R'"),
    ("negative caps", lambda md: build_connes_complex("A", 2, -1, 2),
     "caps must be nonnegative"),
    ("hkr_I over R", lambda md: hkr_I(CyclicChain("R"), 2), "hkr_I expects a chain over A"),
    ("beta_cocycle label count", lambda md: beta_cocycle((1, 2, 3), 1, 1),
     "need n + p variables"),
    ("form with a lam letter", lambda md: Form(AlgebraElement.from_gen(lam_gen((1, 2))), 3),
     "forms may not contain lam generators"),
    ("form above nvars", lambda md: Form(X(4), 3), "generator (0, 4) exceeds nvars=3"),
    ("x_gen(0)", lambda md: x_gen(0), "variable index must be >= 1, got 0"),
    ("dx_gen(0)", lambda md: dx_gen(0), "variable index must be >= 1, got 0"),
    ("lam_gen unsorted", lambda md: lam_gen((2, 1)),
     "lam indices must be strictly increasing: (2, 1)"),
    ("negative power", lambda md: X(1) ** -1, "negative powers are not defined"),
    ("trace method string", lambda md: trace(FORM, "cs"), "unknown trace method 'cs'"),
]


@pytest.mark.parametrize("call, message", [m[1:] for m in MISUSES], ids=[m[0] for m in MISUSES])
def test_each_misuse_raises_its_message(md, call, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        call(md)


class TestOperatorBranches:
    def test_an_integer_scales_from_either_side(self):
        a = X(1) * DX(2) + Fraction(1, 3) * X(2)
        r = RElement.from_word(((1, 2),), Fraction(3, 2)) + RElement.from_word(((1,), (2,)))
        for e in (a, r):
            assert e * 2 == 2 * e == e + e
            assert (e * 2).terms == {k: 2 * c for k, c in e.terms.items()}

    def test_a_form_negates_and_scales(self):
        body = X(1) * DX(2) - DX(1)
        assert (-FORM).body == -(X(1) * DX(2))
        assert -(-FORM) == FORM and (-FORM).nvars == 2
        assert (Form(body, 2) * 2).body == body * 2
        assert (Form(body, 2) * 2).nvars == 2

    def test_equal_forms_hash_equal(self):
        f = Form(X(1) * DX(2) + DX(1), 2)
        g = Form(DX(1) + X(1) * DX(2), 3)
        assert f == g and hash(f) == hash(g)
        assert len({f, g}) == 1

    def test_adding_zero_times_an_element_keeps_zeros_out(self):
        x = X(1) + DX(2)
        y = X(2) - DX(2)
        before = dict(x.terms)
        assert x.iadd(y, 0) is x
        assert x.terms == before
        assert all(c != 0 for c in x.terms.values())
