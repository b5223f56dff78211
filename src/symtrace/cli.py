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
materialized bases.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import ainfty, cartan, cyclic
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
    dx_gen,
    lam_gen,
    monomial_sort_key,
    render,
    render_monomial,
    x_gen,
)
from .resolution import abelianize, delta_R, lam_element, r_word_basis, RElement
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
    r"\s*(?:(?P<dvar>dx\d+)|(?P<var>x\d+)|(?P<num>\d+)|(?P<op>[-+*^()/]))"
)


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos:pos + 1]!r}", pos)
        for kind in ("dvar", "var", "num", "op"):
            val = m.group(kind)
            if val is not None:
                tokens.append((kind, val, m.start(kind)))
                break
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, nvars: int):
        self.text = text
        self.nvars = nvars
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> Optional[Tuple[str, str, int]]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> Tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def expect_op(self, op: str):
        tok = self.next()
        if tok[0] != "op" or tok[1] != op:
            raise ParseError(f"expected {op!r}", tok[2])

    def parse(self) -> Form:
        value = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return Form(value, self.nvars)

    def expr(self) -> AlgebraElement:
        value = AlgebraElement.zero()
        sign = 1
        tok = self.peek()
        if tok is not None and tok[0] == "op" and tok[1] == "-":
            self.next()
            sign = -1
        while True:
            value.iadd(self.term(), sign)
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                return value
            self.next()
            sign = 1 if tok[1] == "+" else -1

    def term(self) -> AlgebraElement:
        value = self.factor()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] != "*":
                return value
            self.next()
            value = value * self.factor()

    def factor(self) -> AlgebraElement:
        value = self.primary()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] != "^":
                return value
            self.next()
            tok = self.next()
            if tok[0] != "num":
                raise ParseError("expected a positive integer exponent", tok[2])
            value = value ** int(tok[1])

    def primary(self) -> AlgebraElement:
        tok = self.next()
        kind, text, pos = tok
        if kind == "num":
            num = int(text)
            nxt = self.peek()
            if nxt is not None and nxt[0] == "op" and nxt[1] == "/":
                self.next()
                den_tok = self.next()
                if den_tok[0] != "num":
                    raise ParseError("expected a denominator", den_tok[2])
                if int(den_tok[1]) == 0:
                    raise ParseError("zero denominator", den_tok[2])
                return AlgebraElement.constant(Fraction(num, int(den_tok[1])))
            return AlgebraElement.constant(num)
        if kind == "var":
            idx = int(text[1:])
            self._check_index(idx, pos)
            return AlgebraElement.from_gen(x_gen(idx))
        if kind == "dvar":
            idx = int(text[2:])
            self._check_index(idx, pos)
            return AlgebraElement.from_gen(dx_gen(idx))
        if kind == "op" and text == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        raise ParseError(f"unexpected token {text!r}", pos)

    def _check_index(self, idx: int, pos: int):
        if idx < 1 or idx > self.nvars:
            raise ParseError(
                f"variable index {idx} out of range 1..{self.nvars}", pos
            )


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

    def record(self, ok: bool, **info):
        self.cases += 1
        if not ok:
            self.failures.append(info)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "failures": len(self.failures),
            "failure_details": self.failures[:20],
            "wall_time_s": round(self.wall_time, 3),
        }

    def to_text(self) -> str:
        status = "ok" if not self.failures else "FAILED"
        lines = [
            f"suite {self.suite}: {self.cases} cases, "
            f"{len(self.failures)} failures, {self.wall_time:.2f}s [{status}]"
        ]
        for f in self.failures[:10]:
            lines.append(f"  fail: {f}")
        return "\n".join(lines)


# -- verification suites ---------------------------------------------------------


def _basis_forms(nvars: int, weight_cap: int, degree_cap: int):
    for w in range(0, weight_cap + 1):
        for p in range(0, min(degree_cap, nvars) + 1):
            for m in form_basis(nvars, w, p):
                yield w, p, Form(AlgebraElement.from_monomial(m), nvars)


def suite_routes(nvars: int, weight_cap: int, degree_cap: int) -> VerificationReport:
    """Route agreement: slot expansion == combinatorial formula == F(d .)
    == low-degree operators where defined."""
    report = VerificationReport("routes")
    for w, p, form in _basis_forms(nvars, weight_cap, degree_cap):
        a = cs_trace_raw(form)
        b = trace_simple(form)
        c = F_eval(d(form))
        ok = a == b == c
        if ok and p <= 2:
            ok = a == trace_diffop(form)
        report.record(
            ok, weight=w, degree=p, form=render(form.body),
            cs=render(a), simple=render(b),
        )
    return report


def suite_derham(nvars: int, weight_cap: int, degree_cap: int) -> VerificationReport:
    """d d = 0, the Euler contraction identity, and exactness witnesses."""
    report = VerificationReport("derham")
    for w, p, form in _basis_forms(nvars, weight_cap, degree_cap):
        ok = d(d(form)).is_zero()
        lhs = euler_contract(d(form)) + d(euler_contract(form))
        ok = ok and lhs == (w + p) * form
        df = d(form)
        if not df.is_zero():
            eta = exactness_witness(df)
            ok = ok and eta is not None and d(eta) == df
        report.record(ok, weight=w, degree=p, form=render(form.body))
    return report


def suite_resolution(nvars: int, weight_cap: int) -> VerificationReport:
    """delta^2 = 0 on letters, and the abelianized differential vanishes."""
    from itertools import combinations

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
                if not word:
                    continue
                e = RElement.from_word(word)
                report.record(
                    abelianize(delta_R(e)).is_zero(), word=word, check="ab(delta)"
                )
    return report


def suite_cstree(nvars: int, k_max: int, weight_cap: int) -> VerificationReport:
    """Labeled-class tree sums against the slot-expansion trace."""
    report = VerificationReport("cstree")
    md = ainfty.build_merkulov(nvars, weight_cap, max(3, k_max))
    for k in range(1, k_max + 1):
        samples = ainfty.monomial_tuples(nvars, k + 1, weight_cap)
        fails, cases = ainfty.verify_cstree(md, k, samples)
        report.cases += cases
        for args, lhs, rhs in fails:
            report.failures.append(
                {"k": k, "args": [render(a) for a in args], "tree": lhs, "cs": rhs}
            )
    return report


def suite_conj1(nvars: int, cap: int) -> VerificationReport:
    """Closedness of the bridge cocycle and its two projections."""
    report = VerificationReport("conj1")
    fails, cases = cyclic.verify_conj1(nvars, cap)
    report.cases = cases
    report.failures = [
        {"u": list(u), "n": n, "p": p, "reason": reason} for (u, n, p, reason) in fails
    ]
    return report


def suite_cartan(nvars: int, weight_cap: int, n_max: int, q_max: int) -> VerificationReport:
    """Both Cartan routes agree, outputs are symmetric, and the q-sum
    symmetrizes."""
    report = VerificationReport("cartan")
    for w, p, form in _basis_forms(nvars, weight_cap, min(nvars, 2)):
        for n in range(1, n_max + 1):
            for q in range(0, q_max + 1):
                try:
                    value = cartan.trace_cartan(form, n, q)
                    ok = value.is_symmetric()
                except IntegrityError:
                    ok = False
                report.record(ok, weight=w, degree=p, n=n, q=q, form=render(form.body))
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
    the internal agreement of the two trace sums."""
    report = VerificationReport("merkulov")
    try:
        md = ainfty.build_merkulov(nvars, weight_cap, max(3, k_max))
    except IntegrityError as exc:
        report.record(False, check="build", error=str(exc))
        return report
    report.record(True, check="side conditions at build")
    for k in range(1, k_max + 1):
        trees = ainfty.enumerate_pbt(k)
        for args in ainfty.monomial_tuples(nvars, k + 1, weight_cap):
            lhs = md.f_taylor(list(args))
            rhs = RElement.zero()
            for t in trees:
                rhs.iadd(md.f_tree(t, list(args)), ainfty.tree_sign(t))
            report.record(
                (lhs - rhs).is_zero(),
                k=k, args=[render(a) for a in args], check="tree expansion",
            )
    for args in ainfty.monomial_tuples(nvars, 2, min(weight_cap, 3)):
        try:
            ainfty.tree_trace_args(md, list(args))
            report.record(True, check="trace sums agree")
        except IntegrityError as exc:
            report.record(False, check="trace sums agree", error=str(exc))
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
    value = trace(form, TraceMethod(args.method))
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
        params[k] = int(v)
    if "n" not in params or "q" not in params:
        raise InvalidInputError("--cartan needs both n= and q=")
    return params


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    report = SUITES[args.suite](args)
    report.wall_time = time.perf_counter() - t0
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        print(report.to_text())
    return 0 if not report.failures else 1


def cmd_homology(args) -> int:
    cpx = cyclic.build_connes_complex(args.ambient, args.vars, args.weight, args.deg + 1)
    summary = cyclic.homology(cpx)
    rows = {
        (deg, w): summary.dim(deg, w)
        for deg in range(args.deg + 1)
        for w in range(1, args.weight + 1)
    }
    if args.json:
        payload = {
            "ambient": args.ambient,
            "vars": args.vars,
            "dims": [
                {"degree": deg, "weight": w, "dim": v}
                for (deg, w), v in sorted(rows.items())
                if v
            ],
        }
        print(json.dumps(payload))
    else:
        print(f"homology dims, ambient {args.ambient}, {args.vars} variable(s)")
        print("degree\\weight " + " ".join(f"{w:>3}" for w in range(1, args.weight + 1)))
        for deg in range(args.deg + 1):
            row = " ".join(f"{rows[(deg, w)]:>3}" for w in range(1, args.weight + 1))
            print(f"{deg:>13} {row}")
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
    trees = ainfty.enumerate_pbt(k)
    classes = ainfty.enumerate_labeled_classes(k)
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


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="symtrace",
        description="exact reduced-trace computations for polynomial algebras",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_trace = sub.add_parser("trace", help="evaluate a trace of a form expression")
    p_trace.add_argument("--method", default="simple",
                         choices=[m.value for m in TraceMethod])
    p_trace.add_argument("--vars", type=_positive_int, default=3)
    p_trace.add_argument("--cartan", nargs=2, metavar=("n=N", "q=Q"), default=None)
    p_trace.add_argument("--json", action="store_true")
    p_trace.add_argument("expr")
    p_trace.set_defaults(func=cmd_trace)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    p_verify.add_argument("--vars", type=_positive_int, default=3)
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
    p_hom.add_argument("--vars", type=_positive_int, default=1)
    p_hom.add_argument("--weight", type=int, default=4)
    p_hom.add_argument("--deg", type=int, default=3)
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
