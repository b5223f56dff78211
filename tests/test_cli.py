"""Parser round-trips, command output, exit codes, JSON consistency."""

import io
import json
import string
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from symtrace.cli import ParseError, element_to_json, main, parse_form
from symtrace.gcalg import AlgebraElement, dx_gen, render, x_gen
from symtrace.derham import Form, form_basis


def X(i):
    return AlgebraElement.from_gen(x_gen(i))


def DX(i):
    return AlgebraElement.from_gen(dx_gen(i))


class TestParser:
    def test_basic(self):
        f = parse_form("x1^2*dx2 + (3/2)*dx1*dx3", 3)
        expected = X(1) ** 2 * DX(2) + AlgebraElement.constant("3/2") * DX(1) * DX(3)
        assert f == Form(expected, 3)

    def test_reordering_sign(self):
        assert parse_form("dx2*dx1", 2) == Form(-(DX(1) * DX(2)), 2)

    def test_index_out_of_range(self):
        with pytest.raises(ParseError) as err:
            parse_form("x4", 3)
        assert "out of range" in str(err.value)

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_form("x1 + * x2", 2)
        assert "position" in str(err.value)

    def test_a_bad_character_after_whitespace_is_named(self):
        # the error names the offending character, not the space before it
        with pytest.raises(ParseError, match=r"unexpected character 'd' \(at position 5\)") as err:
            parse_form("x1 + d", 2)
        assert err.value.position == 5

    def test_only_ascii_whitespace_separates_tokens(self):
        # other whitespace is an unexpected character, except at the end of the text
        assert parse_form("x1 + x2\u00a0\u3000\x1c", 2) == Form(X(1) + X(2), 2)
        with pytest.raises(ParseError, match=r"unexpected character '\\xa0' \(at position 3\)"):
            parse_form("x1 \u00a0+ x2", 2)

    def test_unary_minus(self):
        assert parse_form("-x1 + x2", 2) == Form(X(2) - X(1), 2)

    def test_power_binding(self):
        assert parse_form("2*x1^3", 1) == Form(2 * X(1) ** 3, 1)

    def test_parens(self):
        assert parse_form("(x1 + x2)^2", 2) == Form((X(1) + X(2)) ** 2, 2)

    ROUND_TRIP_CORPUS = [
        "x1",
        "-x1",
        "3/2*x1^2*dx2",
        "x1*dx2 + x2*dx1",
        "dx1*dx2*dx3",
        "(1/3)*x1^4 - x2*dx3",
        "5",
        "0",
        "x1*x2*x3*dx1",
    ]

    @pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
    def test_round_trip_fixed_point(self, text):
        once = render(parse_form(text, 3).body)
        twice = render(parse_form(once, 3).body)
        assert once == twice


@st.composite
def small_forms(draw, nvars=3):
    body = AlgebraElement.zero()
    for _ in range(draw(st.integers(0, 4))):
        w = draw(st.integers(0, 3))
        p = draw(st.integers(0, nvars))
        m = draw(st.sampled_from(form_basis(nvars, w, p)))
        body.add_term(m, draw(st.fractions(-5, 5, max_denominator=4).filter(bool)))
    return Form(body, nvars)


# text drawn mostly from the grammar's own characters, and some of anything
FORM_TEXT = st.one_of(
    st.text(alphabet="xd0123456789+-*^/() ", max_size=40),
    st.text(max_size=40),
)


class TestParserFuzz:
    @given(small_forms())
    def test_parse_inverts_render(self, form):
        assert parse_form(render(form.body), 3) == form

    @settings(deadline=None)
    @given(FORM_TEXT)
    def test_text_parses_or_raises_parse_error(self, text):
        try:
            form = parse_form(text, 3)
        except ParseError:
            return
        assert isinstance(form, Form)

    @settings(deadline=None)
    @given(FORM_TEXT)
    def test_bad_text_exits_two_without_traceback(self, text):
        try:
            parse_form(text, 3)
        except ParseError:
            pass
        else:
            assume(False)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["trace", "--vars", "3", "--", text])
        assert code == 2
        assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()
        assert out.getvalue() == ""

    @settings(deadline=None)
    @given(FORM_TEXT)
    def test_error_positions_are_a_character_or_the_end(self, text):
        # whitespace is skipped, so an error never points at it
        try:
            parse_form(text, 3)
        except ParseError as err:
            assert err.position == len(text) or text[err.position] not in string.whitespace

    @pytest.mark.parametrize(
        "text",
        [
            "(" * 2000 + "x1" + ")" * 2000,  # recursion depth
            "1" * 5000,  # beyond the integer-string limit
            "x" + "1" * 5000,
            "x1^99999999999",  # would multiply for ever
            "(x1+x2)^1000",
            "((x1+x2+x3)^20)^3",
            "(x1+x2+x3)^40*(x1+x2+x3)^40",
            "\u0663*x1",  # a non-ASCII digit
            "x\u0661",
        ],
    )
    def test_oversized_and_odd_text_is_a_parse_error(self, text):
        with pytest.raises(ParseError):
            parse_form(text, 3)

    @pytest.mark.parametrize(
        "text,coefficient",
        [
            ("x1^2049", 1),
            ("x1^5000*dx1", 1),
            ("2^2000", 2**2000),
            ("2^4095", 2**4095),
            ("(3/2)^2000", Fraction(3, 2) ** 2000),
            ("2^4096", None),  # 4,097 bits
            ("2^4095*2", None),
        ],
        ids=["x1^2049", "x1^5000*dx1", "2^2000", "2^4095", "(3/2)^2000", "2^4096", "2^4095*2"],
    )
    def test_a_coefficient_within_the_bit_bound_parses(self, text, coefficient):
        if coefficient is None:
            with pytest.raises(ParseError, match="expands too far"):
                parse_form(text, 2)
        else:
            assert list(parse_form(text, 2).body.terms.values()) == [coefficient]

    def test_a_product_counts_the_denominators_that_meet(self):
        # every pair lands on x1^299, whose denominator is the product of all 600
        # primes: 6,245 bits, though no factor's coefficient needs more than 13
        ps = [p for p in range(2, 4500) if all(p % q for q in range(2, int(p**0.5) + 1))][:600]
        a = "+".join(f"(1/{ps[i]})*x1^{i}" for i in range(300))
        b = "+".join(f"(1/{ps[300 + i]})*x1^{299 - i}" for i in range(300))
        with pytest.raises(ParseError, match="product expands too far"):
            parse_form(f"({a})*({b})", 1)


class TestCommands:
    @pytest.mark.parametrize("text", ["0^96813637", "(x1-x1)^99999999"])
    def test_a_zero_base_to_a_huge_power_is_zero_at_once(self, text, capsys):
        t0 = time.perf_counter()
        assert main(["trace", "--vars", "3", text]) == 0
        assert time.perf_counter() - t0 < 1
        assert capsys.readouterr().out == "0\n"

    def test_trace_simple(self, capsys):
        assert main(["trace", "--method", "simple", "--vars", "2", "x1*dx2"]) == 0
        assert capsys.readouterr().out.strip() == "lam[1,2]"

    def test_trace_diffop_three_vars(self, capsys):
        assert main(["trace", "--method", "diffop", "--vars", "3", "x1*dx2*dx3"]) == 0
        assert capsys.readouterr().out.strip() == "lam[1,2,3]"

    def test_trace_cs_zero_form(self, capsys):
        assert main(["trace", "--method", "cs", "--vars", "2", "x1^3"]) == 0
        assert capsys.readouterr().out.strip() == "x1^3"

    def test_trace_cartan_json_lists_the_slots(self, capsys):
        argv = ["trace", "--vars", "2", "--cartan", "n=2", "q=0", "--json", "x1*dx2"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            '{"slots": [{"coeff": "1", "monomials": ["1", "lam[1,2]"]}, '
            '{"coeff": "1", "monomials": ["lam[1,2]", "1"]}]}\n'
        )

    def test_trace_cartan_text(self, capsys):
        assert main(["trace", "--vars", "2", "--cartan", "n=2", "q=1", "x1*dx2"]) == 0
        assert capsys.readouterr().out == "0\n"
        assert main(["trace", "--vars", "2", "--cartan", "n=2", "q=0", "x1*dx2"]) == 0
        assert capsys.readouterr().out == "1 * [1 (x) lam[1,2]]\n1 * [lam[1,2] (x) 1]\n"

    def test_trace_json(self, capsys):
        assert main(["trace", "--json", "--vars", "2", "x1^2*dx2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "terms": [{"coeff": "2", "monomial": ["x1", "lam[1,2]"]}]
        }

    def test_trace_diffop_degree_error(self, capsys):
        # form degree 3 gives a value, equal to cs's
        assert main(["trace", "--method", "diffop", "--vars", "4", "x1*dx2*dx3*dx4"]) == 0
        assert capsys.readouterr().out == "lam[1,2,3,4]\n"
        expr = "x1^2*x2*dx3*dx4*dx1"
        assert main(["trace", "--method", "cs", "--vars", "4", expr]) == 0
        cs = capsys.readouterr().out
        assert main(["trace", "--method", "diffop", "--vars", "4", expr]) == 0
        assert capsys.readouterr().out == cs != "0\n"
        assert main(["trace", "--method", "diffop", "--vars", "3", "x1*dx1*dx2*dx3"]) == 0
        assert capsys.readouterr().out == "0\n"

    def test_trace_parse_error(self, capsys):
        assert main(["trace", "--vars", "2", "x9"]) == 2

    def test_trace_cartan(self, capsys):
        rc = main(["trace", "--vars", "2", "--cartan", "n=2", "q=0", "x1*dx2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("lam[1,2]") == 2

    def test_trees_k2(self, capsys):
        assert main(["trees", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "3 leaves: 2" in out
        assert "sign +1" in out and "sign -1" in out
        assert "labeled classes: 3" in out

    def test_trees_k3_json(self, capsys):
        assert main(["trees", "--k", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 5
        assert [t["sign"] for t in payload["trees"]] == [-1, 1, -1, 1, -1]
        assert payload["labeled_classes"] == 15
        formula = payload["trace_formula"]
        assert len(formula) == 15
        assert "+ h2[h0[a0,a1],h0[a2,a3]]" in formula
        assert "- h2[h0[a0,a2],h0[a1,a3]]" in formula
        assert "+ h2[h0[a0,a3],h0[a1,a2]]" in formula
        assert "- h2[a0,h1[a1,h0[a2,a3]]]" in formula

    def test_trees_formula_text(self, capsys):
        assert main(["trees", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "trace of a0 da1 .. da2 as the class sum:" in out
        assert out.count("h1[") >= 3

    def test_trees_beyond_the_budget_are_refused_at_once(self, monkeypatch, capsys):
        # (k+1)! * Catalan(k) = 8 * 9 * .. * 14 labeled trees at k = 7, multiplied
        # only until they pass the budget
        import time

        monkeypatch.delenv("SYMTRACE_MAX_BASIS", raising=False)
        start = time.perf_counter()
        assert main(["trees", "--k", "7"]) == 2
        assert time.perf_counter() - start < 1.0
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            "error: at least 1235520 labeled trees with 8 leaves (budget 200000)\n"
        )

    @pytest.mark.parametrize("argv, digest", [
        (["trees", "--k", "5"],
         "9c382046d75fbda252ab8181f1a52163744bc0925610451b62d8de7e4a579fe0"),
        (["trees", "--k", "5", "--json"],
         "b63d72018251feb1f1ea55f9458e44df385f2a1a63fe14bb173d5500573fba42"),
    ])
    def test_trees_within_the_budget_print_the_same_output(self, argv, digest, monkeypatch,
                                                           capsys):
        import hashlib

        monkeypatch.delenv("SYMTRACE_MAX_BASIS", raising=False)
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_labeled_class_budget_is_checked_before_enumerating(self, monkeypatch):
        from symtrace import ainfty
        from symtrace.gcalg import ResourceLimitError

        ainfty.enumerate_labeled_classes.cache_clear()  # a cached k is not rebuilt
        try:
            monkeypatch.setenv("SYMTRACE_MAX_BASIS", "30239")
            with pytest.raises(ResourceLimitError, match="30240 labeled trees with 6 leaves"):
                ainfty.enumerate_labeled_classes(5)
            monkeypatch.setenv("SYMTRACE_MAX_BASIS", "30240")
            assert len(ainfty.enumerate_labeled_classes(5)) == 945
        finally:
            ainfty.enumerate_labeled_classes.cache_clear()

    def test_homology_table(self, capsys):
        rc = main(["homology", "--ambient", "A", "--vars", "1", "--weight", "4",
                   "--deg", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1   1   1   1" in out

    def test_homology_json(self, capsys):
        rc = main(["homology", "--ambient", "A", "--vars", "1", "--weight", "3",
                   "--deg", "1", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dims"] == [
            {"degree": 0, "weight": 1, "dim": 1},
            {"degree": 0, "weight": 2, "dim": 1},
            {"degree": 0, "weight": 3, "dim": 1},
        ]

    def test_verify_exit_code_and_json_counts(self, capsys):
        rc = main(["verify", "derham", "--vars", "2", "--weight", "3", "--deg", "2",
                   "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failures"] == 0
        rc = main(["verify", "derham", "--vars", "2", "--weight", "3", "--deg", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"{payload['cases']} cases" in out

    def test_verify_small_suites(self):
        assert main(["verify", "resolution", "--vars", "2", "--weight", "3"]) == 0
        assert main(["verify", "conj1", "--vars", "2", "--cap", "2"]) == 0
        assert main(["verify", "routes", "--vars", "2", "--weight", "2",
                     "--deg", "2"]) == 0


class TestVerifyChecks:
    """The verify suites own their check loops: each case is recorded with the
    details that name it, and a route that disagrees makes the suite fail."""

    def test_cstree_on_three_variables_compares_zero_with_zero(self, capsys):
        assert main(["verify", "cstree", "--vars", "3", "--k", "3", "--weight", "4"]) == 2
        out = capsys.readouterr()
        assert out.err == ("error: suite cstree: every case at k = 3 compares 0 with 0; "
                           "use --vars >= 4\n")
        assert out.out == ""

    def test_cstree_defaults_to_k_plus_one_variables(self, capsys):
        assert main(["verify", "cstree", "--k", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cases"] == 1156 and payload["failures"] == 0
        assert payload["nonzero_by_k"] == {"1": 326, "2": 276, "3": 24}
        assert main(["verify", "cstree", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "suite cstree: 1156 cases, 0 failures" in out
        assert "  nonzero cases: k=1 326, k=2 276, k=3 24" in out

    def test_other_suites_default_to_three_variables(self, capsys):
        argv = ["verify", "derham", "--weight", "2", "--deg", "1", "--json"]
        assert main(argv) == 0
        default = json.loads(capsys.readouterr().out)
        assert main(argv + ["--vars", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["cases"] == default["cases"] == 40
        assert "nonzero_by_k" not in default

    def test_conj1_reports_a_trace_that_disagrees(self, monkeypatch, capsys):
        from symtrace import cli

        original = cli.trace_simple
        monkeypatch.setattr(cli, "trace_simple", lambda form: original(form) + X(1))
        assert main(["verify", "conj1", "--vars", "2", "--cap", "1", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["cases"] == payload["failures"] == 4
        assert payload["failure_details"][0] == {
            "u": [1], "n": 0, "p": 1, "reason": "one-slot projection != trace",
        }

    def test_conj1_reports_a_chain_that_is_not_closed(self, monkeypatch, capsys):
        from symtrace import cli

        monkeypatch.setattr(cli.cyclic, "boundary", lambda chain: chain)
        assert main(["verify", "conj1", "--vars", "2", "--cap", "1", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["cases"] == payload["failures"] == 4
        assert payload["failure_details"][0] == {"u": [1], "n": 0, "p": 1, "reason": "not closed"}

    def test_conj1_reports_a_coalgebra_image_that_disagrees(self, monkeypatch, capsys):
        from symtrace import cli

        monkeypatch.setattr(cli.cyclic, "eps_coalgebra", lambda words, nvars: Form.zero(nvars))
        assert main(["verify", "conj1", "--vars", "2", "--cap", "1", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        # d(du) = 0 agrees with the zero image; d(u) = du does not
        assert payload["cases"] == 4 and payload["failures"] == 2
        assert payload["failure_details"] == [
            {"u": [u], "n": 1, "p": 0, "reason": "coalgebra image != d(form)"} for u in (1, 2)
        ]

    def test_cartan_counts_an_integrity_failure_as_failed_cases(self, monkeypatch, capsys):
        from symtrace import cli

        def disagree(form, n, q):
            raise cli.IntegrityError("cartan trace routes disagree")

        monkeypatch.setattr(cli.cartan, "trace_cartan", disagree)
        argv = ["verify", "cartan", "--vars", "2", "--weight", "1", "--n", "1", "--q", "0"]
        assert main(argv + ["--json"]) == 1
        out = capsys.readouterr()
        payload = json.loads(out.out)
        # 12 basis forms fail; the power-sum check on the sample still passes
        assert payload["cases"] == 13 and payload["failures"] == 12
        assert payload["failure_details"][-1] == {
            "weight": 1, "degree": 2, "n": 1, "q": 0, "form": "x1*dx1*dx2",
        }
        assert "Traceback" not in out.err

    def test_merkulov_reports_a_failed_build(self, monkeypatch, capsys):
        from symtrace import cli

        def fail(*caps):
            raise cli.IntegrityError("homotopy side condition fails")

        monkeypatch.setattr(cli.ainfty, "build_merkulov", fail)
        argv = ["verify", "merkulov", "--vars", "2", "--weight", "2", "--k", "1"]
        assert main(argv + ["--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["cases"] == payload["failures"] == 1
        assert payload["failure_details"] == [
            {"check": "build", "error": "homotopy side condition fails"},
        ]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "suite merkulov: 1 cases, 1 failures" in out and "[FAILED]" in out
        assert "  fail: {'check': 'build', 'error': 'homotopy side condition fails'}" in out

    def test_cstree_reports_a_slot_expansion_that_disagrees(self, monkeypatch, capsys):
        from symtrace import cli

        monkeypatch.setattr(cli, "cs_trace_raw", lambda omega: AlgebraElement.zero())
        assert main(["verify", "cstree", "--vars", "2", "--k", "1", "--weight", "2",
                     "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["cases"] == 4 and payload["nonzero_by_k"] == {"1": 2}
        assert payload["failure_details"] == [
            {"k": 1, "args": ["x2", "x1"], "tree": "-lam[1,2]", "cs": "0"},
            {"k": 1, "args": ["x1", "x2"], "tree": "lam[1,2]", "cs": "0"},
        ]

    def test_cstree_reports_a_class_sum_that_reads_zero(self, monkeypatch, capsys):
        # a class sum that regresses to 0 fails against the slot expansion; it
        # is not taken for a k whose cases all compare 0 with 0
        from symtrace import cli

        monkeypatch.setattr(cli.ainfty, "class_tree_sum", lambda md, args: AlgebraElement.zero())
        argv = ["verify", "cstree", "--vars", "2", "--k", "1", "--weight", "2"]
        assert main(argv + ["--json"]) == 1
        out = capsys.readouterr()
        assert out.err == ""
        payload = json.loads(out.out)
        assert payload["cases"] == 4 and payload["nonzero_by_k"] == {"1": 2}
        assert payload["failure_details"] == [
            {"k": 1, "args": ["x2", "x1"], "tree": "0", "cs": "-lam[1,2]"},
            {"k": 1, "args": ["x1", "x2"], "tree": "0", "cs": "lam[1,2]"},
        ]
        assert main(argv) == 1
        assert "2 failures" in capsys.readouterr().out

    def test_merkulov_reports_trace_sums_that_disagree(self, monkeypatch, capsys):
        from symtrace import cli

        original = cli.ainfty.class_tree_sum

        def off_at_x1_x2(md, args):
            value = original(md, args)
            return AlgebraElement.zero() if [render(a) for a in args] == ["x1", "x2"] else value

        monkeypatch.setattr(cli.ainfty, "class_tree_sum", off_at_x1_x2)
        assert main(["verify", "merkulov", "--vars", "2", "--weight", "2", "--k", "1"]) == 1
        out = capsys.readouterr().out
        assert "failures" in out and "[FAILED]" in out
        assert main(["verify", "merkulov", "--vars", "2", "--weight", "2", "--k", "1",
                     "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["failures"] == 1
        assert payload["failure_details"] == [
            {"k": 1, "args": ["x1", "x2"], "check": "trace sums agree"},
        ]

    def test_merkulov_renders_only_the_failing_tree_expansion(self, monkeypatch, capsys):
        # a passing case renders nothing; the one failing case renders its
        # arguments into the same details as before, in JSON and in text
        from symtrace import cli
        from symtrace.resolution import RElement

        rendered = []

        def counting_render(a):
            rendered.append(a)
            return render(a)

        monkeypatch.setattr(cli, "render", counting_render)
        argv = ["verify", "merkulov", "--vars", "2", "--weight", "2", "--k", "1"]
        assert main(argv) == 0
        assert "0 failures" in capsys.readouterr().out
        assert rendered == []
        original = cli.ainfty.MerkulovData.f_tree

        def off_at_x2_x1(md, t, args):
            value = original(md, t, args)
            return RElement.zero() if [render(a) for a in args] == ["x2", "x1"] else value

        monkeypatch.setattr(cli.ainfty.MerkulovData, "f_tree", off_at_x2_x1)
        assert main(argv + ["--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["cases"] == 8 and payload["failures"] == 1
        assert payload["failure_details"] == [
            {"k": 1, "args": ["x2", "x1"], "check": "tree expansion"},
        ]
        assert len(rendered) == 2
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("suite merkulov: 8 cases, 1 failures, ")
        assert lines[0].endswith("s [FAILED]")
        assert lines[2:] == ["  fail: {'k': 1, 'args': ['x2', 'x1'], 'check': 'tree expansion'}"]

    def test_merkulov_checks_the_trace_sums_at_every_k(self, capsys):
        assert main(["verify", "merkulov", "--k", "3", "--weight", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # each tuple is one tree-expansion case and one trace-sum case
        assert payload["cases"] == 2 * (356 + 544 + 256) and payload["failures"] == 0
        assert payload["nonzero_by_k"] == {"1": 326, "2": 276, "3": 24}

    def test_merkulov_on_three_variables_compares_zero_with_zero(self, capsys):
        argv = ["verify", "merkulov", "--vars", "3", "--k", "3", "--weight", "4"]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.err == ("error: suite merkulov: every case at k = 3 compares 0 with 0; "
                           "use --vars >= 4\n")
        assert out.out == ""


class TestExitContract:
    def test_zero_denominator_is_a_parse_error(self, capsys):
        with pytest.raises(ParseError):
            parse_form("1/0*x1", 1)
        assert main(["trace", "1/0*x1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("params", [("n=2", "q=x"), ("n=2", "n=3"), ("m=2", "q=0"), ("n2", "q=0")])
    def test_bad_cartan_parameters(self, params, capsys):
        assert main(["trace", "--cartan", *params, "x1*dx2"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["verify", "routes", "--vars", "0"],
        ["trace", "--vars", "-1", "x1"],
        ["homology", "--vars", "0"],
        ["homology", "--weight", "0"],
        ["homology", "--deg", "-1"],
    ])
    def test_vars_must_be_positive(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["routes", "--weight", "-1"],
        ["cstree", "--k", "0"],
        ["cstree", "--k", "-2"],
        ["merkulov", "--k", "0"],
        ["merkulov", "--k", "1", "--weight", "1"],
        ["conj1", "--cap", "0"],
        ["cartan", "--n", "0"],
        ["derham", "--deg", "-1"],
    ])
    def test_empty_suite_is_a_usage_error(self, argv, capsys):
        assert main(["verify", *argv]) == 2
        out = capsys.readouterr()
        assert out.err.startswith(f"error: suite {argv[0]} ran 0 cases")
        assert "[ok]" not in out.out

    @pytest.mark.parametrize("argv", [
        ["merkulov", "--weight", "0"],
        ["merkulov", "--weight", "-1"],
        ["cartan", "--q", "-1"],
        ["cartan", "--weight", "-1"],
        ["resolution", "--weight", "-3"],
    ])
    def test_caps_that_check_nothing_are_usage_errors(self, argv, capsys):
        assert main(["verify", *argv]) == 2
        out = capsys.readouterr()
        assert out.err.startswith("error: ")
        assert "Traceback" not in out.err
        assert "[ok]" not in out.out

    def test_exact_image_honours_the_basis_budget(self, monkeypatch, capsys):
        # the suite's 496 forms fit the budget; the witnesses of their images
        # come from the Euler homotopy and build no basis
        monkeypatch.setenv("SYMTRACE_MAX_BASIS", "500")
        assert main(["verify", "derham", "--vars", "30", "--weight", "2", "--deg", "0"]) == 0
        out = capsys.readouterr()
        assert "496 cases, 0 failures" in out.out
        assert out.err == ""

    @pytest.mark.parametrize("method", ["diffop", "simple"])
    def test_method_with_cartan_is_a_usage_error(self, method, capsys):
        # the Cartan slots have one route: an explicit --method was ignored
        assert main(["trace", "--method", method, "--cartan", "n=2", "q=1", "x1*dx2"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: --method does not apply to --cartan\n"

    @pytest.mark.parametrize("budget, argv, message", [
        (None, ["routes", "--vars", "2", "--weight", "100000", "--deg", "1"],
         "at least 15000450003 cases on the basis forms of weight <= 100000 and form "
         "degree <= 1"),
        (None, ["derham", "--vars", "2", "--weight", "100000", "--deg", "1"],
         "at least 15000450003 cases on the basis forms of weight <= 100000 and form "
         "degree <= 1"),
        (None, ["cartan", "--vars", "2", "--weight", "100000"],
         "at least 180005400036 cases on the basis forms of weight <= 100000 and form "
         "degree <= 2"),
        # each factor stops growing once over the budget: the exact count has 90,000 digits
        (None, ["routes", "--vars", "100000", "--weight", "100000", "--deg", "100000"],
         "at least 25001000017500200001 cases on the basis forms of weight <= 100000 and form "
         "degree <= 100000"),
        ("447", ["derham", "--vars", "3", "--weight", "5", "--deg", "3"],
         "at least 448 cases on the basis forms of weight <= 5 and form degree <= 3"),
    ])
    def test_basis_forms_are_counted_before_they_are_built(self, budget, argv, message,
                                                            monkeypatch, capsys):
        # the count comes before any form is built, so weight 100000 is refused at once
        import time

        if budget is None:
            monkeypatch.delenv("SYMTRACE_MAX_BASIS", raising=False)
        else:
            monkeypatch.setenv("SYMTRACE_MAX_BASIS", budget)
        start = time.perf_counter()
        assert main(["verify", *argv]) == 2
        assert time.perf_counter() - start < 1.0
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {message} (budget {budget or 200000})\n"

    def test_basis_forms_at_the_budget_run(self, monkeypatch, capsys):
        monkeypatch.setenv("SYMTRACE_MAX_BASIS", "448")
        assert main(["verify", "derham", "--vars", "3", "--weight", "5", "--deg", "3"]) == 0
        assert "448 cases, 0 failures" in capsys.readouterr().out

    def test_oversized_slot_pool_is_refused_early(self, monkeypatch, capsys):
        # the weight <= 10 monomials in 16 variables alone are 5.3 M one-slot classes
        import time

        monkeypatch.delenv("SYMTRACE_MAX_BASIS", raising=False)
        start = time.perf_counter()
        assert main(["homology", "--ambient", "A", "--vars", "16", "--weight", "10",
                     "--deg", "0"]) == 2
        assert time.perf_counter() - start < 2.0
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: at least 245156 monomials of weight 1..10")

    def test_oversized_slot_pool_is_refused_before_it_is_built(self, monkeypatch, capsys):
        # over A the pool size comb(16 + 10, 10) - 1 is known before any monomial
        import time

        monkeypatch.delenv("SYMTRACE_MAX_BASIS", raising=False)
        start = time.perf_counter()
        assert main(["homology", "--ambient", "A", "--vars", "16", "--weight", "10",
                     "--deg", "0"]) == 2
        assert time.perf_counter() - start < 0.5
        out = capsys.readouterr()
        assert out.out == ""
        assert "Traceback" not in out.err
        assert out.err == (
            "error: at least 245156 monomials of weight 1..10, each a one-slot class "
            "(budget 200000)\n"
        )

    def test_slot_pool_over_a_is_cut_one_past_the_budget(self, monkeypatch, capsys):
        # the pool is comb(7, 5) - 1: its running binomial 6 is budget + 1, so a
        # cut on the binomial instead of the pool would let 5 monomials through
        monkeypatch.setenv("SYMTRACE_MAX_BASIS", "5")
        assert main(["homology", "--ambient", "A", "--vars", "2", "--weight", "5",
                     "--deg", "0"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("error: at least 20 monomials of weight 1..5, each a one-slot class "
                           "(budget 5)\n")

    @pytest.mark.parametrize("argv, message", [
        (["verify", "merkulov", "--vars", "7", "--weight", "7", "--k", "1"],
         "error: 823543 words of degree 0 and weight 7 (budget 200000)\n"),
        (["homology", "--ambient", "R", "--vars", "7", "--weight", "7", "--deg", "0"],
         "error: at least 421575 words of degree <= 1 and weight 1..7, each a one-slot class "
         "(budget 200000)\n"),
    ])
    def test_oversized_word_bases_are_refused_before_they_are_built(self, argv, message,
                                                                   monkeypatch, capsys):
        import time

        monkeypatch.delenv("SYMTRACE_MAX_BASIS", raising=False)
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 0.5
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == message

    @pytest.mark.parametrize("budget, argv, message", [
        ("10", ["trace", "--cartan", "n=3000", "q=0", "--vars", "1", "x1"],
         "error: 9000000 slot cells for n=3000 (budget 10)\n"),
        (None, ["trace", "--cartan", "n=40000", "q=0", "--vars", "1", "x1"],
         "error: 1600000000 slot cells for n=40000 (budget 200000)\n"),
        ("10", ["verify", "resolution", "--vars", "3", "--weight", "4"],
         "error: 27 words of degree 0 and weight 3 (budget 10)\n"),
        # the letters on three of 200 variables come before the words of weight 3
        (None, ["verify", "resolution", "--vars", "200", "--weight", "4"],
         "error: 1313400 words of degree 2 and weight 3 (budget 200000)\n"),
        # on one variable no bidegree holds two words, so the bidegrees walked are counted
        (None, ["verify", "resolution", "--vars", "1", "--weight", "3000"],
         "error: at least 200001 (degree, weight) word bases (budget 200000)\n"),
        (None, ["verify", "resolution", "--vars", "1", "--weight", "20000"],
         "error: at least 200001 (degree, weight) word bases (budget 200000)\n"),
        (None, ["verify", "merkulov", "--vars", "1", "--weight", "1000000", "--k", "1"],
         "error: at least 200001 (degree, weight) word bases (budget 200000)\n"),
        (None, ["verify", "cstree", "--vars", "1", "--weight", "1000000", "--k", "1"],
         "error: at least 200001 (degree, weight) word bases (budget 200000)\n"),
        # the slot pool stops below the weight, whatever the degree cap
        ("5000", ["homology", "--ambient", "R", "--vars", "2", "--weight", "5",
                  "--deg", "100000000"],
         "error: at least 5001 cyclic classes, 1108 of them at (degree, weight) = (4, 5) "
         "(budget 5000)\n"),
    ])
    def test_slot_cells_and_resolution_words_are_counted_before_they_are_built(
            self, budget, argv, message, monkeypatch, capsys):
        # each slot cell and word was built before it was counted: n = 4000 took 138 MiB
        import time

        if budget is None:
            monkeypatch.delenv("SYMTRACE_MAX_BASIS", raising=False)
        else:
            monkeypatch.setenv("SYMTRACE_MAX_BASIS", budget)
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == message

    @pytest.mark.parametrize("argv, message", [
        # sum_{t <= cap} (t + 1) 10^t label cases, summed only until they pass the budget
        (["verify", "conj1", "--vars", "10", "--cap", "9"],
         "at least 654320 label cases with n + p <= 9 and labels 1..10 (budget 200000)"),
        # 24 forms times n (q + 1) = 400 * 401 cases
        (["verify", "cartan", "--vars", "2", "--weight", "2", "--n", "400", "--q", "400"],
         "at least 3849600 cases on the basis forms of weight <= 2 and form degree <= 2 "
         "(budget 200000)"),
        # the labeled trees of k = 6 are counted before the Merkulov build
        (["verify", "merkulov", "--vars", "3", "--weight", "7", "--k", "6"],
         "at least 665280 labeled trees with 7 leaves (budget 200000)"),
        (["verify", "cstree", "--vars", "3", "--weight", "7", "--k", "6"],
         "at least 665280 labeled trees with 7 leaves (budget 200000)"),
        (["trees", "--k", "10000000"],
         "at least 10000001 labeled trees with 10000001 leaves (budget 200000)"),
        # (k+1)! Catalan(k) has 18,000 digits at k = 3000
        (["trees", "--k", "3000"],
         "at least 9009002 labeled trees with 3001 leaves (budget 200000)"),
        # the word count stops at weight 2
        (["homology", "--ambient", "R", "--vars", "20000", "--weight", "20000", "--deg", "0"],
         "at least 400020000 words of degree <= 1 and weight 1..20000, each a one-slot class "
         "(budget 200000)"),
        # one word per weight on one variable: each count skips its zero terms
        (["homology", "--ambient", "R", "--vars", "1", "--weight", "300000", "--deg", "0"],
         "at least 200001 words of degree <= 1 and weight 1..300000, each a one-slot class "
         "(budget 200000)"),
        # the monomial count stops at its second factor; comb(40000, 20000) has 12,000 digits
        (["homology", "--ambient", "A", "--vars", "20000", "--weight", "20000", "--deg", "0"],
         "at least 200030000 monomials of weight 1..20000, each a one-slot class "
         "(budget 200000)"),
        (["trace", "--cartan", "n=" + "9" * 5000, "q=1", "x1*dx2"],
         "--cartan n= has too many digits"),
        # blocks and monomials each stop at about 10^4000: a count of 8,000 digits
        (["verify", "routes", "--vars", "9" * 4000, "--weight", "1", "--deg", "2"],
         "more than 10^7999 cases on the basis forms of weight <= 1 and form degree <= 2 "
         "(budget 200000)"),
        # 6^9 block maps: the running product stops at 6^7
        (["trace", "--method", "simple", "--vars", "10",
          "x1^6*dx2*dx3*dx4*dx5*dx6*dx7*dx8*dx9*dx10"],
         "at least 279936 block maps of 9 dx symbols to 6 slots (budget 200000)"),
        (["trace", "--method", "cs", "--vars", "10", "x1^6*dx2*dx3*dx4*dx5*dx6*dx7*dx8*dx9*dx10"],
         "at least 279936 block maps of 10 dx symbols to 6 slots (budget 200000)"),
        # the steps of the first two splittings of each D call, summed over the index tuples
        (["trace", "--method", "diffop", "--vars", "10",
          "x1^6*dx2*dx3*dx4*dx5*dx6*dx7*dx8*dx9*dx10"],
         "at least 204031 splitting steps of D on 10-forms (budget 200000)"),
        # 22,838 index tuples fit k = 30 and r = 20, out of about 10^13 candidates
        (["trace", "--method", "diffop", "--vars", "30",
          "x1^21*" + "*".join(f"dx{i}" for i in range(2, 31))],
         "at least 768211 splitting steps of D on 30-forms (budget 200000)"),
    ])
    def test_oversized_commands_exit_two_at_once(self, argv, message, monkeypatch, capsys):
        # each ran past a timeout or ended in a ValueError traceback on a long int
        import time

        monkeypatch.delenv("SYMTRACE_MAX_BASIS", raising=False)
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {message}\n"

    def test_cartan_and_resolution_suites_pass_at_their_defaults(self, monkeypatch, capsys):
        monkeypatch.delenv("SYMTRACE_MAX_BASIS", raising=False)
        assert main(["verify", "cartan"]) == 0
        assert main(["verify", "resolution"]) == 0

    @pytest.mark.parametrize("argv, expected", [
        (["trace", "--method", "cs", "--vars", "1", "x1^1200"], "x1^1200\n"),
        (["homology", "--ambient", "A", "--vars", "1200", "--weight", "1", "--deg", "0"],
         "            0 1200\n"),
        (["verify", "derham", "--vars", "1500", "--weight", "1", "--deg", "0"],
         "suite derham: 1501 cases, 0 failures"),
    ])
    def test_inputs_deeper_than_the_stack_run(self, argv, expected, capsys):
        # each enumerator used to recurse once per variable, letter or label
        assert main(argv) == 0
        out = capsys.readouterr()
        assert expected in out.out
        assert out.err == ""

    def test_a_form_that_starts_with_a_minus_follows_a_double_dash(self, capsys):
        # argparse reads "-x1*dx2" as an option, so the form is missing
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--vars", "3", "-x1*dx2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "the following arguments are required: expr" in err
        assert "Traceback" not in err
        assert main(["trace", "--vars", "3", "--", "-x1*dx2"]) == 0
        assert capsys.readouterr().out == "-lam[1,2]\n"

    @pytest.mark.parametrize("value", ["abc", "-5", "0", "1.5"])
    def test_malformed_basis_budget(self, value, monkeypatch, capsys):
        monkeypatch.setenv("SYMTRACE_MAX_BASIS", value)
        assert main(["homology", "--vars", "1", "--weight", "2", "--deg", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: SYMTRACE_MAX_BASIS must be an integer >= 1")
        assert "Traceback" not in err

    def test_integrity_failure_exits_one(self, monkeypatch, capsys):
        from symtrace import cartan

        monkeypatch.setattr(cartan, "cs_trace_raw", lambda omega: cartan.AlgebraElement.zero())
        assert main(["trace", "--cartan", "n=2", "q=0", "x1*dx2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: integrity check failed: ")
        assert "Traceback" not in err

    def test_one_error_hierarchy(self):
        from symtrace import ainfty, cartan, cli, cyclic, gcalg

        assert cyclic.IntegrityError is ainfty.IntegrityError is cartan.IntegrityError
        assert cartan.IntegrityError is gcalg.IntegrityError
        # the class the CLI catches is the one the budget gate raises
        assert cli.ResourceLimitError is ainfty.ResourceLimitError is gcalg.ResourceLimitError


class TestJsonRendering:
    def test_element_to_json_rational(self):
        from fractions import Fraction

        e = Fraction(3, 2) * (X(1) ** 2 * DX(2))
        assert element_to_json(e) == {
            "terms": [{"coeff": "3/2", "monomial": ["x1^2", "dx2"]}]
        }

    def test_zero(self):
        assert element_to_json(AlgebraElement.zero()) == {"terms": []}
