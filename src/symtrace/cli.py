"""Command-line surface: expression parser, trace/verify/homology/trees commands.

Grammar for form expressions (whitespace insignificant)::

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := primary ('^' posint)*
    primary:= rational | var | dvar | '(' expr ')'
    var    := 'x' int          dvar := 'dx' int

Exit codes: 0 success, 1 verification failures (including a failed internal
integrity check, reported as ``error: integrity check failed: ...``), 2 usage,
parse or resource errors.  The environment variable SYMTRACE_MAX_BASIS bounds
both materialized bases and the cases a verify suite enumerates; each is
counted before it is built, a growing count only until it passes the budget
(``gcalg.grown``), and refused by the one gate ``gcalg.charge`` as
``error: <count> <what> (budget N)``.  The parser turns every malformed,
oversized or too deeply nested text into a ``ParseError``, before doing the
work: a single ``*`` or ``^`` may cost at most ``MAX_EXPANSION`` monomial
products, no coefficient may need more than ``MAX_COEFFICIENT_BITS`` bits in
numerator or denominator, and parentheses nest at most ``MAX_NESTING`` deep;
the ``--cartan`` integers are bounded in digits the same way.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, combinations, product
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import ainfty, cartan, cyclic
from .ainfty import perm_tree_sum
from .derham import (
    Form,
    d,
    euler_contract,
    exactness_witness,
    form_basis,
)
from .gcalg import (
    AlgebraElement,
    IntegrityError,
    InvalidInputError,
    ResourceLimitError,
    charge,
    comb_totals,
    dx_gen,
    grown,
    lam_gen,
    lift,
    monomial_sort_key,
    render,
    render_monomial,
    x_gen,
)
from .resolution import RElement, abelianize, check_word_bases, delta_R, lam_element, r_word_basis
from .trace import (
    TraceMethod,
    cs_trace_raw,
    F_eval,
    trace,
    trace_diffop,
    trace_simple,
)


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(
    r"(?P<dvar>dx\d+)|(?P<var>x\d+)|(?P<num>\d+)|(?P<op>[-+*^()/])|(?P<bad>\S)", re.ASCII
)

MAX_EXPANSION = 200_000
MAX_COEFFICIENT_BITS = 4096
MAX_NESTING = 50


def _mass(a: AlgebraElement) -> Tuple[int, int]:
    """(mass, den): the sum of |numerator| over the common denominator den of a's coefficients."""
    ints, den = lift(a.terms)
    return sum(map(abs, ints.values())), den


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    """(kind, text, position) of every token, then an ("end", "", len(text)) sentinel;
    trailing whitespace, ASCII or not, is dropped."""
    tokens = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN_RE.finditer(text.rstrip())]
    for kind, val, pos in tokens:
        if kind == "bad":
            raise ParseError(f"unexpected character {val!r}", pos)
    return tokens + [("end", "", len(text))]


class _Parser:
    def __init__(self, text: str, nvars: int):
        self.nvars = nvars
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def next(self) -> Tuple[str, str, int]:
        tok = self.tokens[self.i]
        if tok[0] == "end":
            raise ParseError("unexpected end of input", tok[2])
        self.i += 1
        return tok

    def accept(self, ops: str) -> Optional[Tuple[str, str, int]]:
        """Consume and return the next token if it is one of the operators in ``ops``."""
        tok = self.tokens[self.i]
        if tok[0] == "op" and tok[1] in ops:
            self.i += 1
            return tok
        return None

    def parse(self) -> Form:
        value = self.expr()
        kind, text, pos = self.tokens[self.i]
        if kind != "end":
            raise ParseError(f"trailing input {text!r}", pos)
        return Form(value, self.nvars)

    def expr(self) -> AlgebraElement:
        value = AlgebraElement.zero()
        sign = -1 if self.accept("-") else 1
        while True:
            value.iadd(self.term(), sign)
            tok = self.accept("+-")
            if tok is None:
                return value
            sign = 1 if tok[1] == "+" else -1

    def term(self) -> AlgebraElement:
        value = self.factor()
        while tok := self.accept("*"):
            rhs = self.factor()
            (m1, d1), (m2, d2) = _mass(value), _mass(rhs)
            bits = max(m1 * m2, d1 * d2).bit_length()
            if len(value.terms) * len(rhs.terms) > MAX_EXPANSION or bits > MAX_COEFFICIENT_BITS:
                raise ParseError("product expands too far", tok[2])
            value = value * rhs
        return value

    def factor(self) -> AlgebraElement:
        value = self.primary()
        while self.accept("^"):
            kind, digits, pos = self.next()
            if kind != "num":
                raise ParseError("expected a positive integer exponent", pos)
            k, t = self._int(digits, pos), len(value.terms)
            # t terms to the k: at most comb(t+k-1, k) terms, each of k multiplications costing
            # t products per term, and coefficients at most max(mass, den)^k, top and bottom
            bits = k * (max(_mass(value)) - 1).bit_length() + 1
            if bits > MAX_COEFFICIENT_BITS or (t and k * t * math.comb(t + k - 1, k) > MAX_EXPANSION):
                raise ParseError("power expands too far", pos)
            value = value ** k
        return value

    @staticmethod
    def _int(digits: str, pos: int) -> int:
        if 3 * len(digits) > MAX_COEFFICIENT_BITS:  # a decimal digit is > 3 bits
            raise ParseError("number too long", pos)
        return int(digits)

    def primary(self) -> AlgebraElement:
        kind, text, pos = self.next()
        if kind == "num":
            num = self._int(text, pos)
            if not self.accept("/"):
                return AlgebraElement.constant(num)
            kind, text, pos = self.next()
            if kind != "num":
                raise ParseError("expected a denominator", pos)
            den = self._int(text, pos)
            if den == 0:
                raise ParseError("zero denominator", pos)
            return AlgebraElement.constant(Fraction(num, den))
        if kind in ("var", "dvar"):
            idx = self._int(text.lstrip("dx"), pos)
            if idx < 1 or idx > self.nvars:
                raise ParseError(f"variable index {idx} out of range 1..{self.nvars}", pos)
            return AlgebraElement.from_gen((dx_gen if kind == "dvar" else x_gen)(idx))
        if kind == "op" and text == "(":
            if self.depth >= MAX_NESTING:
                raise ParseError("parentheses nested too deeply", pos)
            self.depth += 1
            value = self.expr()
            if not self.accept(")"):
                raise ParseError("expected ')'", self.next()[2])
            self.depth -= 1
            return value
        raise ParseError(f"unexpected token {text!r}", pos)


def parse_form(text: str, nvars: int) -> Form:
    """Parse the expression grammar into a canonical form."""
    return _Parser(text, nvars).parse()


def element_to_json(a: AlgebraElement) -> dict:
    terms = []
    for m in sorted(a.terms, key=monomial_sort_key):
        mono = [] if not m else render_monomial(m).split("*")
        terms.append({"coeff": str(a.terms[m]), "monomial": mono})
    return {"terms": terms}


@dataclass
class VerificationReport:
    suite: str
    cases: int = 0
    failures: List[dict] = field(default_factory=list)
    wall_time: float = 0.0
    # per k with cases, how many compare a nonzero value (suites that can compare 0 with 0)
    nonzero: Dict[int, int] = field(default_factory=dict)

    def record(self, ok: bool, details: Optional[Callable[[], dict]] = None, **info):
        """Count one case; a failure keeps ``info`` followed by ``details()``,
        which is called only then, so a passing case renders nothing."""
        self.cases += 1
        if not ok:
            self.failures.append({**info, **details()} if details else info)

    def compare(self, k: int, lhs, rhs, details: Callable[[], dict]):
        """Record lhs == rhs at k; the case is nonzero when either side is."""
        self.nonzero[k] = self.nonzero.get(k, 0) + (not (lhs.is_zero() and rhs.is_zero()))
        self.record(lhs == rhs, details, k=k)

    def to_json(self) -> dict:
        payload = {
            "suite": self.suite,
            "cases": self.cases,
            "failures": len(self.failures),
            "failure_details": self.failures[:20],
        }
        if self.nonzero:
            payload["nonzero_by_k"] = {str(k): n for k, n in sorted(self.nonzero.items())}
        payload["wall_time_s"] = round(self.wall_time, 3)
        return payload

    def to_text(self) -> str:
        status = "ok" if not self.failures else "FAILED"
        lines = [
            f"suite {self.suite}: {self.cases} cases, "
            f"{len(self.failures)} failures, {self.wall_time:.2f}s [{status}]"
        ]
        if self.nonzero:
            lines.append("  nonzero cases: " + ", ".join(
                f"k={k} {n}" for k, n in sorted(self.nonzero.items())))
        lines += [f"  fail: {f}" for f in self.failures[:10]]
        return "\n".join(lines)


# -- verification suites ---------------------------------------------------------


def _basis_forms(nvars: int, weight_cap: int, degree_cap: int, per_form: int = 1):
    """Every basis form of weight <= weight_cap and form degree <= degree_cap,
    with per_form cases on each charged first: comb(nvars + weight_cap,
    weight_cap) monomials times sum_p comb(nvars, p) dx blocks, each factor
    grown only until it passes the budget, times per_form."""
    degrees = range(min(degree_cap, nvars) + 1)
    blocks = grown(accumulate(math.comb(nvars, p) for p in degrees))
    charge(blocks * grown(comb_totals(nvars + weight_cap, weight_cap)) * per_form,
           f"cases on the basis forms of weight <= {weight_cap} and form degree <= {degree_cap}",
           at_least=True)
    return ((w, p, Form(AlgebraElement.from_monomial(m), nvars))
            for w in range(weight_cap + 1) for p in degrees for m in form_basis(nvars, w, p))


def suite_routes(nvars: int, weight_cap: int, degree_cap: int) -> VerificationReport:
    """Route agreement: slot expansion == combinatorial formula == F(d .)
    == the differential operator."""
    report = VerificationReport("routes")
    for w, p, form in _basis_forms(nvars, weight_cap, degree_cap):
        a, b = cs_trace_raw(form), trace_simple(form)
        ok = a == b == F_eval(d(form)) == trace_diffop(form)
        report.record(ok, lambda: dict(form=render(form.body), cs=render(a), simple=render(b)),
                      weight=w, degree=p)
    return report


def suite_derham(nvars: int, weight_cap: int, degree_cap: int) -> VerificationReport:
    """d d = 0, the Euler contraction identity, and exactness witnesses."""
    report = VerificationReport("derham")
    for w, p, form in _basis_forms(nvars, weight_cap, degree_cap):
        df = d(form)
        ok = d(df).is_zero() and euler_contract(df) + d(euler_contract(form)) == (w + p) * form
        if not df.is_zero():
            eta = exactness_witness(df)
            ok = ok and eta is not None and d(eta) == df
        report.record(ok, lambda: dict(form=render(form.body)), weight=w, degree=p)
    return report


def suite_resolution(nvars: int, weight_cap: int) -> VerificationReport:
    """delta^2 = 0 on letters, and the abelianized differential vanishes.
    Every word basis and the letters, one-letter words, are counted first."""
    if weight_cap < 0:
        raise InvalidInputError(f"weight must be >= 0, got {weight_cap}")
    check_word_bases(nvars, [(k - 1, k) for k in range(1, min(nvars, 4) + 1)])
    check_word_bases(nvars, ((deg, w) for w in range(1, weight_cap + 1) for deg in range(w)))
    report = VerificationReport("resolution")
    for k in range(1, min(nvars, 4) + 1):
        for idx in combinations(range(1, nvars + 1), k):
            e = lam_element(idx)
            report.record(
                delta_R(delta_R(e)).is_zero(), letter=idx, check="delta^2"
            )
    for w in range(1, weight_cap + 1):
        for deg in range(0, w):
            for word in r_word_basis(nvars, w, deg):
                e = RElement.from_word(word)
                report.record(
                    abelianize(delta_R(e)).is_zero(), word=word, check="ab(delta)"
                )
    return report


def cstree_form(args: Sequence[AlgebraElement], nvars: int) -> Form:
    """The form a0 da1 .. dak of the monomials a0, .., ak."""
    return Form(math.prod((d(Form(a, nvars)).body for a in args[1:]), start=args[0]), nvars)


def suite_cstree(nvars: int, k_max: int, weight_cap: int) -> VerificationReport:
    """Labeled-class tree sums of a0 da1 .. dak against the slot-expansion
    trace, counting per k the cases where either side is nonzero."""
    report = VerificationReport("cstree")
    ainfty.enumerate_labeled_classes(max(1, k_max))  # budget-checked before the build
    md = ainfty.build_merkulov(nvars, weight_cap, max(3, k_max))
    for k in range(1, k_max + 1):
        for args in ainfty.monomial_tuples(nvars, k + 1, weight_cap):
            lhs = ainfty.class_tree_sum(md, args)
            rhs = cs_trace_raw(cstree_form(args, nvars))
            report.compare(k, lhs, rhs, lambda: dict(
                args=[render(a) for a in args], tree=render(lhs), cs=render(rhs)))
    return report


def _bridge_fault(u: Tuple[int, ...], n: int, p: int, nvars: int) -> Optional[str]:
    """Why the bridge chain of u_1..u_n du_{n+1}..du_{n+p} fails, or None."""
    beta = cyclic.beta_cocycle(u, n, p)
    if not cyclic.boundary(beta).canonicalized().is_zero():
        return "not closed"
    alpha = cyclic.form_from_labels(u, n, p, nvars)
    words = cyclic.beta_one_slot_words(beta)
    if abelianize(words) != trace_simple(alpha):
        return "one-slot projection != trace"
    if cyclic.eps_coalgebra(words, nvars) != d(alpha):
        return "coalgebra image != d(form)"
    return None


def suite_conj1(nvars: int, cap: int) -> VerificationReport:
    """On every label tuple with n + p <= cap: the bridge chain is closed, its
    one-slot part abelianizes to the combinatorial trace of the form, and its
    coalgebra image is d of the form.  The (t + 1) nvars^t cases of each
    total t are charged first, summed only until they pass the budget."""
    charge(accumulate((total + 1) * nvars ** total for total in range(1, cap + 1)),
           f"label cases with n + p <= {cap} and labels 1..{nvars}")
    report = VerificationReport("conj1")
    for total in range(1, cap + 1):
        for n in range(0, total + 1):
            for u in product(range(1, nvars + 1), repeat=total):
                reason = _bridge_fault(u, n, total - n, nvars)
                report.record(reason is None, u=list(u), n=n, p=total - n, reason=reason)
    return report


def suite_cartan(nvars: int, weight_cap: int, n_max: int, q_max: int) -> VerificationReport:
    """Both Cartan routes agree, outputs are symmetric, and the q-sum
    symmetrizes."""
    if q_max < 0:
        raise InvalidInputError(f"q must be >= 0, got {q_max}")
    if weight_cap < 0:
        raise InvalidInputError(f"weight must be >= 0, got {weight_cap}")
    report = VerificationReport("cartan")
    for w, p, form in _basis_forms(nvars, weight_cap, min(nvars, 2), n_max * (q_max + 1)):
        for n in range(1, n_max + 1):
            for q in range(0, q_max + 1):
                try:
                    value = cartan.trace_cartan(form, n, q)
                    ok = value.is_symmetric()
                except IntegrityError:
                    ok = False
                report.record(ok, lambda: dict(form=render(form.body)),
                              weight=w, degree=p, n=n, q=q)
    for n in range(1, n_max + 1):
        sample = AlgebraElement.from_gen(x_gen(1)) * AlgebraElement.from_gen(
            lam_gen((1, 2)) if nvars >= 2 else x_gen(1)
        )
        total = cartan.vartheta_symmetrize(sample, n)
        by_q = cartan.DiagonalTraceValue.zero(n)
        for q in range(0, 8):
            by_q.iadd(cartan.vartheta_power_sum(sample, n, q))
        report.record(total == by_q, n=n, check="power-sum total = symmetrization")
    return report


def suite_merkulov(nvars: int, weight_cap: int, k_max: int) -> VerificationReport:
    """Side conditions, the tree expansion of the transfer components, and
    the agreement of the two trace sums on the same tuples, counting per k
    the cases where either sum is nonzero."""
    report = VerificationReport("merkulov")
    ainfty.enumerate_labeled_classes(max(1, k_max))  # budget-checked before the build
    try:
        md = ainfty.build_merkulov(nvars, weight_cap, max(3, k_max))
    except IntegrityError as exc:
        report.record(False, check="build", error=str(exc))
        return report
    for k in range(1, k_max + 1):
        trees = ainfty.enumerate_pbt(k)
        for args in ainfty.monomial_tuples(nvars, k + 1, weight_cap):
            lhs = md.f_taylor(list(args))
            rhs = RElement.zero()
            for t in trees:
                rhs.iadd(md.f_tree(t, list(args)), ainfty.tree_sign(t))
            report.record((lhs - rhs).is_zero(), lambda: dict(
                args=[render(a) for a in args], check="tree expansion"), k=k)
            # the sum over all of S_{k+1} with the transfer components against
            # the sum over labeled-tree classes with the commutator tree maps
            report.compare(k, perm_tree_sum(md, args), ainfty.class_tree_sum(md, args),
                           lambda: dict(args=[render(a) for a in args], check="trace sums agree"))
    return report


SUITES = {
    "routes": lambda a: suite_routes(a.vars, a.weight, a.deg),
    "cstree": lambda a: suite_cstree(a.vars, a.k, a.weight),
    "conj1": lambda a: suite_conj1(a.vars, a.cap),
    "cartan": lambda a: suite_cartan(a.vars, a.weight, a.n, a.q),
    "derham": lambda a: suite_derham(a.vars, a.weight, a.deg),
    "resolution": lambda a: suite_resolution(a.vars, a.weight),
    "merkulov": lambda a: suite_merkulov(a.vars, a.weight, a.k),
}


# -- commands ---------------------------------------------------------------------


def cmd_trace(args) -> int:
    if args.cartan and args.method:
        raise InvalidInputError("--method does not apply to --cartan")
    form = parse_form(args.expr, args.vars)
    if args.cartan:
        params = _parse_cartan(args.cartan)
        value = cartan.trace_cartan(form, params["n"], params["q"])
        if args.json:
            payload = {
                "slots": [
                    {
                        "coeff": str(c),
                        "monomials": [render_monomial(m) for m in key],
                    }
                    for key, c in sorted(value.terms.items())
                ]
            }
            print(json.dumps(payload))
        else:
            if value.is_zero():
                print("0")
            for key, c in sorted(value.terms.items()):
                slots = " (x) ".join(render_monomial(m) for m in key)
                print(f"{c} * [{slots}]")
        return 0
    value = trace(form, TraceMethod(args.method or "simple"))
    if args.json:
        print(json.dumps(element_to_json(value)))
    else:
        print(render(value))
    return 0


def _parse_cartan(tokens: Sequence[str]) -> Dict[str, int]:
    params = {}
    for tok in tokens:
        k, _, v = tok.partition("=")
        if k not in ("n", "q") or not v.isdecimal():
            raise InvalidInputError(f"--cartan expects n=INT q=INT, got {tok!r}")
        if 3 * len(v) > MAX_COEFFICIENT_BITS:  # a decimal digit is > 3 bits
            raise InvalidInputError(f"--cartan {k}= has too many digits")
        params[k] = int(v)
    if "n" not in params or "q" not in params:
        raise InvalidInputError("--cartan needs both n= and q=")
    return params


def cmd_verify(args) -> int:
    if args.vars is None:  # a k-check needs k + 1 variables for a nonzero class sum
        args.vars = max(args.k, 0) + 1 if args.suite in ("cstree", "merkulov") else 3
    t0 = time.perf_counter()
    report = SUITES[args.suite](args)
    report.wall_time = time.perf_counter() - t0
    if report.cases == 0:
        raise InvalidInputError(f"suite {args.suite} ran 0 cases; widen its caps")
    vacuous = [k for k, n in sorted(report.nonzero.items()) if not n]
    if vacuous and not report.failures:  # failures are reported first
        raise InvalidInputError(
            f"suite {args.suite}: every case at k = {', '.join(map(str, vacuous))} "
            f"compares 0 with 0; use --vars >= {vacuous[-1] + 1}"
        )
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        print(report.to_text())
    return 0 if not report.failures else 1


def cmd_homology(args) -> int:
    summary = cyclic.homology_dims(args.ambient, args.vars, args.weight, args.deg + 1)
    if args.json:  # dims holds exactly the nonzero entries of degree <= --deg
        dims = [{"degree": deg, "weight": w, "dim": v} for (deg, w), v in sorted(summary.dims.items())]
        print(json.dumps({"ambient": args.ambient, "vars": args.vars, "dims": dims}))
    else:
        weights = range(1, args.weight + 1)
        print(f"homology dims, ambient {args.ambient}, {args.vars} variable(s)")
        print("degree\\weight " + " ".join(f"{w:>3}" for w in weights))
        for deg in range(args.deg + 1):
            print(f"{deg:>13} " + " ".join(f"{summary.dim(deg, w):>3}" for w in weights))
    return 0


def _tree_text(t) -> str:
    if t is None:
        return "o"
    return "(" + _tree_text(t[0]) + _tree_text(t[1]) + ")"


def _class_term_text(sigma, t) -> str:
    """One summand of the labeled-class trace formula, e.g.
    ``- h2[a0,h1[a1,h0[a2,a3]]]``."""

    def rec(node, offset):
        if node is None:
            return f"a{sigma[offset]}", 1
        left, nl = rec(node[0], offset)
        right, nr = rec(node[1], offset + nl)
        label = nl + nr - 1  # internal vertices below and including here
        return f"h{label - 1}[{left},{right}]", nl + nr

    body, _ = rec(t, 0)
    # the root homotopy carries a global minus sign
    total = -ainfty.perm_sign(sigma) * ainfty.tree_sign(t)
    return ("+ " if total > 0 else "- ") + body


def cmd_trees(args) -> int:
    k = args.k
    classes = ainfty.enumerate_labeled_classes(k)  # budget-checked before the trees
    trees = ainfty.enumerate_pbt(k)
    if args.json:
        payload = {
            "k": k,
            "count": len(trees),
            "trees": [
                {"shape": _tree_text(t), "sign": ainfty.tree_sign(t)} for t in trees
            ],
            "labeled_classes": len(classes),
            "class_representatives": [
                {"labels": list(sigma), "shape": _tree_text(t)}
                for sigma, t in classes
            ],
            "trace_formula": [_class_term_text(sigma, t) for sigma, t in classes],
        }
        print(json.dumps(payload))
        return 0
    print(f"planar binary trees with {k + 1} leaves: {len(trees)}")
    for i, t in enumerate(trees, 1):
        sign = "+1" if ainfty.tree_sign(t) > 0 else "-1"
        print(f"  T{i}: {_tree_text(t)}  sign {sign}")
    print(f"labeled classes: {len(classes)}")
    for sigma, t in classes:
        print(f"  labels {''.join(map(str, sigma))} on {_tree_text(t)}")
    print(f"trace of a0 da1 .. da{k} as the class sum:")
    for sigma, t in classes:
        print(f"  {_class_term_text(sigma, t)}")
    return 0


def _int_at_least(least: int):
    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < least:
            raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text!r}")
        return int(text)
    return parse


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="symtrace",
        description="exact reduced-trace computations for polynomial algebras",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_trace = sub.add_parser("trace", help="evaluate a trace of a form expression")
    p_trace.add_argument("--method", choices=[m.value for m in TraceMethod],
                         help="default simple; not with --cartan")
    p_trace.add_argument("--vars", type=_int_at_least(1), default=3)
    p_trace.add_argument("--cartan", nargs=2, metavar=("n=N", "q=Q"), default=None)
    p_trace.add_argument("--json", action="store_true")
    p_trace.add_argument("expr", help="the form; put -- before a form that starts with '-'")
    p_trace.set_defaults(func=cmd_trace)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    p_verify.add_argument("--vars", type=_int_at_least(1), help="default 3; cstree, merkulov: k + 1")
    p_verify.add_argument("--weight", type=int, default=4)
    p_verify.add_argument("--deg", type=int, default=3)
    p_verify.add_argument("--k", type=int, default=3)
    p_verify.add_argument("--cap", type=int, default=4)
    p_verify.add_argument("--n", type=int, default=3)
    p_verify.add_argument("--q", type=int, default=2)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_hom = sub.add_parser("homology", help="cyclic homology dimension table")
    p_hom.add_argument("--ambient", choices=["A", "R"], default="A")
    p_hom.add_argument("--vars", type=_int_at_least(1), default=1)
    p_hom.add_argument("--weight", type=_int_at_least(1), default=4)
    p_hom.add_argument("--deg", type=_int_at_least(0), default=3)
    p_hom.add_argument("--json", action="store_true")
    p_hom.set_defaults(func=cmd_homology)

    p_trees = sub.add_parser("trees", help="list planar trees, signs, classes")
    p_trees.add_argument("--k", type=int, required=True)
    p_trees.add_argument("--json", action="store_true")
    p_trees.set_defaults(func=cmd_trees)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInputError, ParseError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrityError as exc:
        print(f"error: integrity check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
