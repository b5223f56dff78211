"""Parser round-trips, command output, exit codes, JSON consistency."""

import json

import pytest

from symtrace.cli import ParseError, element_to_json, main, parse_form
from symtrace.gcalg import AlgebraElement, dx_gen, render, x_gen
from symtrace.derham import Form


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


class TestCommands:
    def test_trace_simple(self, capsys):
        assert main(["trace", "--method", "simple", "--vars", "2", "x1*dx2"]) == 0
        assert capsys.readouterr().out.strip() == "lam[1,2]"

    def test_trace_diffop_three_vars(self, capsys):
        assert main(["trace", "--method", "diffop", "--vars", "3", "x1*dx2*dx3"]) == 0
        assert capsys.readouterr().out.strip() == "lam[1,2,3]"

    def test_trace_cs_zero_form(self, capsys):
        assert main(["trace", "--method", "cs", "--vars", "2", "x1^3"]) == 0
        assert capsys.readouterr().out.strip() == "x1^3"

    def test_trace_json(self, capsys):
        assert main(["trace", "--json", "--vars", "2", "x1^2*dx2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "terms": [{"coeff": "2", "monomial": ["x1", "lam[1,2]"]}]
        }

    def test_trace_diffop_degree_error(self, capsys):
        rc = main(["trace", "--method", "diffop", "--vars", "3", "x1*dx1*dx2*dx3"])
        assert rc == 2

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
    ])
    def test_vars_must_be_positive(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "-5", "0", "1.5"])
    def test_malformed_basis_budget(self, value, monkeypatch, capsys):
        monkeypatch.setenv("SYMTRACE_MAX_BASIS", value)
        assert main(["homology", "--vars", "1", "--weight", "2", "--deg", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: SYMTRACE_MAX_BASIS must be an integer >= 1")
        assert "Traceback" not in err

    def test_integrity_failure_exits_one(self, monkeypatch, capsys):
        from symtrace import cartan

        monkeypatch.setattr(
            cartan, "_cartan_slot_route", lambda omega, n, q: cartan.DiagonalTraceValue.zero(n)
        )
        assert main(["trace", "--cartan", "n=2", "q=0", "x1*dx2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: integrity check failed: ")
        assert "Traceback" not in err

    def test_one_error_hierarchy(self):
        from symtrace import ainfty, cartan, cyclic, gcalg

        assert cyclic.IntegrityError is ainfty.IntegrityError is cartan.IntegrityError
        assert cartan.IntegrityError is gcalg.IntegrityError
        assert cyclic.ResourceLimitError is ainfty.ResourceLimitError is gcalg.ResourceLimitError


class TestJsonRendering:
    def test_element_to_json_rational(self):
        from fractions import Fraction

        e = Fraction(3, 2) * (X(1) ** 2 * DX(2))
        assert element_to_json(e) == {
            "terms": [{"coeff": "3/2", "monomial": ["x1^2", "dx2"]}]
        }

    def test_zero(self):
        assert element_to_json(AlgebraElement.zero()) == {"terms": []}
