"""CLI behavior: subcommands, exit codes, JSON determinism."""

import json
import pathlib

import pytest

from puiseux.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNRESOLVED,
    EXIT_VERIFY,
    main,
)
from puiseux.liouville import Tower, parse_sexpr

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAlgebraic:
    def test_basic(self, capsys):
        code, out, _ = run(
            capsys, "algebraic", "--bound", "9/2", "y^2 - y + x = 0"
        )
        assert code == EXIT_OK
        assert "x + x^2 + 2*x^3 + 5*x^4" in out
        assert "1 - x - x^2 - 2*x^3 - 5*x^4" in out

    def test_unresolved_exit_code(self, capsys):
        code, out, _ = run(capsys, "algebraic", "y^2 - 2*x = 0")
        assert code == EXIT_UNRESOLVED
        assert "unresolved" in out

    def test_unresolved_exponent_prints_as_the_grammar_reads_it(self, capsys):
        # x^1/3 would read back as x/3
        code, out, _ = run(capsys, "algebraic", "--bound", "2", "y^3 + x*y - x = 0")
        assert code == EXIT_UNRESOLVED
        assert "  unresolved at x^(1/3): vertex polynomial ['1', '1', '1'] (prefix 0)" in out

    def test_algebraic_root_mode(self, capsys):
        code, out, _ = run(
            capsys, "algebraic", "--roots", "algebraic", "y^2 - 2*x = 0"
        )
        assert code == EXIT_OK

    def test_cube_root_with_large_coefficient(self, capsys):
        n = 10**20 + 2
        code, out, _ = run(
            capsys, "algebraic", "--bound", "2", f"y^3 - {n**3}*x = 0"
        )
        # the two complex cube roots stay unresolved in rational mode
        assert code == EXIT_UNRESOLVED
        assert f"y = {n}*x^(1/3)   [mult 1" in out

    def test_rational_number_field_coefficient_prints_as_a_rational(self, capsys):
        # x + x^3 +- sqrt(2)*x^(3/2): the x^3 term is a field element
        code, out, _ = run(capsys, "algebraic", "--roots", "algebraic", "--bound", "5",
                           "y^2 - 2*x*y - 2*x^3*y + x^2 - 2*x^3 + 2*x^4 + x^6 = 0")
        assert code == EXIT_OK
        assert out.count("*x^(3/2) + x^3   [mult 1") == 2 and "1*x^3" not in out

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "algebraic", "y^^2 = 0")
        assert code == EXIT_PARSE
        assert "parse error" in err

    def test_equation_without_y_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "algebraic", "x = 0")
        assert code == EXIT_PARSE
        assert out == ""
        assert "parse error: the equation does not involve y" in err


class TestOde:
    def test_free_constant_visible(self, capsys):
        code, out, _ = run(capsys, "ode", "--bound", "4", "dy/dx = y/x + x")
        assert code == EXIT_OK
        assert "C1*x + x^2" in out

    def test_json_deterministic(self, capsys):
        args = ("ode", "--json", "--bound", "3", "dy/dx = x^(-2)*y^2 - x^(-1)")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["schema"] == "1"
        assert len(payload["branches"]) == 2
        for b in payload["branches"]:
            assert b["verified"] is True

    def test_resonance_values(self, capsys):
        code, out, _ = run(
            capsys,
            "ode", "--bound", "4", "--resonance", "values=5",
            "dy/dx = x^(-2)*y^2",
        )
        assert code == EXIT_OK
        assert "x + 5*x^2 + 25*x^3" in out

    def test_value_without_rational_root_is_unresolved(self, capsys):
        # (-2)^(3/2) and 3^(3/2) have no rational branch: those instances
        # are reported unresolved, and every other branch is kept
        for values, vertex in (
            ("values=-2,3", [["2", "0", "1"], ["-3", "0", "1"]]),
            ("values=4,3", [["-3", "0", "1"]]),
        ):
            code, out, _ = run(
                capsys, "ode", "--bound", "3", "--resonance", values, "--json",
                "dy/dx = 1 - 2*x*y^(3/2)",
            )
            assert code == EXIT_UNRESOLVED, values
            payload = json.loads(out)
            series = [b["series"] for b in payload["branches"]]
            assert "4*x^(-4) + 1/7*x + O(x^6)" in series, values
            assert [u["vertex_poly"] for u in payload["unresolved"]] == vertex
            assert {u["at_exponent"] for u in payload["unresolved"]} == {"0"}

    def test_root_is_decided_before_the_walk_reaches_it(self, capsys):
        # at bound 1/2 no level of the instance y = 2 + ... needs 2^(1/2),
        # yet the instance is unresolved, not cut short or a failure
        code, out, _ = run(
            capsys, "ode", "--bound", "1/2", "--resonance", "values=2",
            "dy/dx = x*y^(1/2)",
        )
        assert code == EXIT_UNRESOLVED
        assert "y = 1/16*x^4   [proper/unique" in out
        assert (
            "unresolved initial term at x^0: vertex polynomial ['-2', '0', '1']"
            in out
        )

    def test_formal_constant_over_an_algebraic_start_cuts_the_family(self, capsys):
        # y = +-sqrt(1/2)*x + C*x^3 + ...: a formal C mixes with no sqrt(2),
        # so each family stops where C enters and claims residual order 2
        code, out, _ = run(
            capsys, "ode", "--roots", "algebraic", "--bound", "6", "--json",
            "dy/dx = 2*x^(-3)*y^3",
        )
        assert code == EXIT_OK
        families = [b for b in json.loads(out)["branches"] if b["mu0"] == "1"]
        assert len(families) == 2
        for b in families:
            assert b["series"].endswith("*x + O(x^3)")
            assert (b["status"], b["mu_r"], b["residual_guarantee"]) == (
                "resonant-free", "3", "2",
            )
            assert b["verified"] is True

    def test_unresolved_human_output_shows_vertex_polynomial(self, capsys):
        code, out, _ = run(
            capsys, "ode", "--bound", "3", "--resonance", "values=-2,3",
            "dy/dx = 1 - 2*x*y^(3/2)",
        )
        assert code == EXIT_UNRESOLVED
        unresolved = [ln.strip() for ln in out.splitlines() if "unresolved" in ln]
        assert unresolved == [
            "unresolved initial term at x^0: vertex polynomial ['2', '0', '1']",
            "unresolved initial term at x^0: vertex polynomial ['-3', '0', '1']",
        ]

    def test_unresolved_exponent_prints_as_the_grammar_reads_it(self, capsys):
        code, out, _ = run(capsys, "ode", "--bound", "2", "dy/dx = y^(-2)")
        assert code == EXIT_UNRESOLVED
        assert (
            "  unresolved initial term at x^(1/3): vertex polynomial ['1', '0', '0', '-1/3']"
            in out
        )

    def test_conjugate_branches_report_their_root(self, capsys):
        # t = 1 and t = -1 both give c0 = t^2 = 1 and the same printed
        # series; the chosen root tells the two branches apart
        argv = ("ode", "--bound", "3", "--resonance", "values=1,4",
                "dy/dx = 1 - 2*x*y^(3/2)")
        code, out, _ = run(capsys, *argv, "--json")
        assert code == EXIT_OK
        branches = json.loads(out)["branches"]
        twins = [b for b in branches if b["series"] == "x + O(x^(7/2))"]
        assert sorted(b["branch_root"] for b in twins) == ["-1", "1"]
        assert {b["c0"] for b in twins} == {"1"}
        free = [b for b in branches if b["c0"] == "FREE"]
        assert free and all("branch_root" not in b for b in free)
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        lines = [ln for ln in out.splitlines() if "x + O(x^(7/2))" in ln]
        assert sorted("t=-1," in ln for ln in lines) == [False, True]
        assert sorted("t=1," in ln for ln in lines) == [False, True]

    def test_zero_instance_is_not_continued(self, capsys):
        # y = x^2 does not start a solution of y' = y^(1/2) + 2x (y' - rhs
        # = -x), and y^(-1) has no expansion about y = 0: the instance
        # c = 0 of the free family is reported, not continued or fatal
        for rhs in ("y^(1/2) + 2*x", "y^(-1) + 2*x"):
            code, out, _ = run(
                capsys, "ode", "--bound", "4", "--resonance", "values=0",
                "--json", f"dy/dx = {rhs}",
            )
            assert code == EXIT_UNRESOLVED, rhs
            (branch,) = json.loads(out)["branches"]
            assert branch["series"] == "O(x^0)"
            assert branch["status"] == "no-continuation"
            assert "c = 0 leaves the lattice analysis" in branch["note"]

    def test_zero_instance_is_y_zero_when_every_sigma_is_positive(self, capsys):
        # every sigma > 0: y = 0 solves the equation exactly
        for values, rhs in (("values=0,1", "x^2*y^(1/2)"), ("values=0", "-y^(3/2)")):
            code, out, _ = run(
                capsys, "ode", "--bound", "3", "--resonance", values,
                f"dy/dx = {rhs}",
            )
            assert code == EXIT_OK, rhs
            (line,) = [ln for ln in out.splitlines() if ln.startswith("  y = 0 ")]
            assert "[zero/unique" in line, rhs
            assert line.endswith("residual >= inf, verified=True]"), rhs

    def test_branch_claiming_nothing_is_not_substituted(self, capsys):
        # O(x^0) claims no residual order, so y^(-1) of it is never formed
        code, out, _ = run(
            capsys, "ode", "--bound", "4", "--resonance", "values=0", "--json",
            "dy/dx = y^(-1) + 2*x",
        )
        assert code == EXIT_UNRESOLVED
        (branch,) = json.loads(out)["branches"]
        assert branch["residual_guarantee"] is None
        assert branch["verified"] is True
        assert "not verified" not in branch["note"]

    def test_zero_instance_with_integer_powers(self, capsys):
        code, out, _ = run(
            capsys, "ode", "--bound", "4", "--resonance", "values=0,1",
            "dy/dx = y + 2*x",
        )
        assert code == EXIT_OK
        assert "y = 1 + x + 3/2*x^2 + 1/2*x^3 + 1/8*x^4 + O(x^5)" in out
        assert out.count("y = x^2 + 1/3*x^3 + 1/12*x^4 + O(x^5)") == 2

    def test_rational_rhs(self, capsys):
        code, out, _ = run(capsys, "ode", "--bound", "3", "dy/dx = (y)/(1+y)")
        assert code == EXIT_OK
        assert "y = 0" in out
        assert "validity window" not in out

    def test_unverifiable_branch_does_not_fail_report(self, capsys):
        code, out, _ = run(
            capsys, "ode", "--json", "--bound", "3", "dy/dx = x*y^(-1) + y"
        )
        assert code == EXIT_OK
        branches = {b["series"]: b for b in json.loads(out)["branches"]}
        free = branches["O(x^0)"]
        assert free["c0"] == "FREE" and free["verified"] is False
        assert "not verified: negative power" in free["note"]
        for series in ("-x - 1/3*x^2 - 1/9*x^3 + O(x^4)",
                       "x + 1/3*x^2 + 1/9*x^3 + O(x^4)"):
            assert branches[series]["verified"] is True

    def test_rational_rhs_finds_every_start(self, capsys):
        # (x^2 + y)*y' = x + y^2 has y = x exactly and a second branch
        code, out, _ = run(
            capsys, "ode", "--json", "--bound", "4", "dy/dx = (x+y^2)/(x^2+y)"
        )
        assert code == EXIT_OK
        series = {b["series"]: b for b in json.loads(out)["branches"]}
        assert series["x + O(x^5)"]["c0"] == "1"
        assert series["-x - 2/3*x^2 - 4/9*x^3 - 32/135*x^4 + O(x^5)"]["c0"] == "-1"
        assert all(b["verified"] for b in series.values())

    def test_rational_family_instance(self, capsys):
        code, out, _ = run(
            capsys, "ode", "--bound", "3", "--resonance", "values=1,-1",
            "dy/dx = 1/(1+y)",
        )
        assert code == EXIT_OK
        assert "y = 1 + 1/2*x - 1/16*x^2 + 1/64*x^3 + O(x^4)" in out
        assert "verified=False" not in out
        # the instance c = -1 is a root of Q: named, with its center
        assert "the start y = -1 + ... is not continued" in out
        assert "--center -1" in out

    def test_singular_branches_at_a_root_of_q(self, capsys):
        code, out, _ = run(
            capsys, "ode", "--bound", "3", "--center", "-1", "--roots",
            "algebraic", "dy/dx = 1/(1+y)",
        )
        assert code == EXIT_OK
        assert "y = (-sqrt(2))*x^(1/2)   [proper/unique" in out
        assert "y = sqrt(2)*x^(1/2)   [proper/unique" in out

    def test_y_order_option_is_gone(self, capsys):
        # 1/Q is no longer expanded, so there is no expansion order to set
        with pytest.raises(SystemExit) as exc:
            main(["ode", "--y-order", "3", "dy/dx = (y)/(1+y)"])
        assert exc.value.code == EXIT_PARSE

    def test_center_reaches_constant_branches(self, capsys):
        code, out, _ = run(
            capsys, "ode", "--bound", "3", "--center", "1",
            "dy/dx = (y)/(1+y)",
        )
        assert code == EXIT_OK
        assert "1/2*x + 1/16*x^2" in out

    def test_center_translates_a_polynomial_right_hand_side(self, capsys):
        # y' = y about y = 1 is y' = 1 + y, translated by hand
        _, shifted, _ = run(
            capsys, "ode", "--bound", "3", "--json", "--center", "1", "dy/dx = y"
        )
        _, by_hand, _ = run(capsys, "ode", "--bound", "3", "--json", "dy/dx = 1 + y")
        shifted, by_hand = json.loads(shifted), json.loads(by_hand)
        assert shifted.pop("equation") == "dy/dx = y"
        assert by_hand.pop("equation") == "dy/dx = 1 + y"
        assert shifted == by_hand

    @pytest.mark.parametrize("rhs", ["y^(1/2)", "x*y^(-1)"])
    def test_center_needs_a_polynomial_in_y(self, capsys, rhs):
        code, out, err = run(capsys, "ode", "--center", "1", f"dy/dx = {rhs}")
        assert code == EXIT_PARSE
        assert out == ""
        assert "polynomial in y" in err

    @pytest.mark.parametrize("argv", [
        ["ode", "dy/dx = 0"],
        ["ode", "dy/dx = (y-y)/(1+y)"],
        ["verify", "--ode", "dy/dx = 0", "--alpha", "1", "--roots", "0; x", "--k", "1,1"],
    ])
    def test_zero_right_hand_side_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_PARSE
        assert out == ""
        assert "every constant solves it" in err

    def test_fractional_sigma(self, capsys):
        code, out, _ = run(capsys, "ode", "--bound", "4", "dy/dx = y^(1/2)")
        assert code == EXIT_OK
        assert "1/4*x^2" in out

    def test_json_deterministic_across_processes(self):
        import subprocess
        import sys

        cmd = [
            sys.executable, "-m", "puiseux.cli",
            "ode", "--json", "--bound", "3", "dy/dx = x^(-2)*y^2 - x^(-1)",
        ]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout

    def test_json_schema_fields(self, capsys):
        code, out, _ = run(
            capsys, "ode", "--json", "--bound", "3", "dy/dx = y/x + x"
        )
        payload = json.loads(out)
        for b in payload["branches"]:
            for key in ("mu0", "c0", "case", "mu_r", "status", "series",
                        "residual_guarantee"):
                assert key in b


class TestWfactor:
    def test_case_a_witness(self, capsys):
        code, out, _ = run(capsys, "wfactor", "--levels", "3", "P=y^2; Q=1")
        assert code == EXIT_OK
        assert "case A" in out
        assert "(1)*y^-1 + (x)" in out

    def test_case_b_witness(self, capsys):
        code, out, _ = run(capsys, "wfactor", "--levels", "2", "P=1; Q=y")
        assert code == EXIT_OK
        assert "case B" in out
        assert "1/2" in out

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "wfactor", "--json", "--levels", "2", "P=y^2; Q=1"
        )
        payload = json.loads(out)
        assert payload["case"] == "A"
        assert payload["verified_levels"] == [True, True, True]

    def test_printed_coefficients_reparse(self, capsys):
        # every printed coefficient, (exp (int c)) of a constant c among
        # them, parses into a fresh tower, and its re-print parses to an
        # equal element
        texts = []
        for name in ("wfactor-case-a", "wfactor-case-a-deep", "wfactor-case-b"):
            golden = GOLDEN / f"{name}.json"
            texts += json.loads(golden.read_text(encoding="utf-8"))["coefficients"]
        for levels in range(2, 6):
            code, out, _ = run(capsys, "wfactor", "--json", "--levels", str(levels),
                               "P=y; Q=1+y")
            assert code == EXIT_OK
            texts += json.loads(out)["coefficients"]
        assert "(exp (int 1))" in texts
        for text in texts:
            tower = Tower()
            element = parse_sexpr(text, tower)
            assert parse_sexpr(element.to_sexpr(), tower) == element, text

    @pytest.mark.parametrize("problem, message", [
        ("P=0; Q=1", "P must be nonzero: every constant solves dy/dx = 0"),
        ("P=y; Q=0", "Q must be nonzero"),
        ("P=y; Q=2", "Q must be normalized with leading coefficient 1, not 2"),
    ], ids=["zero-p", "zero-q", "q-not-normalized"])
    def test_malformed_problem_is_a_usage_error(self, capsys, problem, message):
        code, out, err = run(capsys, "wfactor", problem)
        assert code == EXIT_PARSE
        assert out == ""
        assert err == f"parse error: {message}\n"

    def test_a_seed_in_case_a_is_a_usage_error(self, capsys):
        # only case B takes a caller seed w_0; case A solves for its own
        code, out, err = run(capsys, "wfactor", "--levels", "2", "--w0", "x^5", "P=y^2; Q=1")
        assert code == EXIT_PARSE
        assert out == ""
        assert err == "parse error: a --w0 seed applies only to case B; P=y^2; Q=1 is case A\n"

    def test_negative_levels_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["wfactor", "--levels", "-2", "--json", "P=2*y^2 + x*y; Q=1"])
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_PARSE
        assert captured.out == ""
        assert "--levels" in captured.err


class TestVerify:
    def test_accepting(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--ode", "dy/dx = x^(-2)*y^2",
            "--alpha", "1/(1-x)", "--roots", "x; x/(1-x)", "--k", "1,-1",
        )
        assert code == EXIT_OK
        assert "constant" in out

    def test_printed_exp_of_a_constant_integral_is_an_operand(self, capsys):
        # (int -1) folds to -x before exp sees it; exp(-x)*y is constant
        # along dy/dx = y
        code, out, _ = run(
            capsys, "verify", "--ode", "dy/dx = y", "--alpha", "(exp (int -1))",
            "--roots", "0", "--k", "1",
        )
        assert code == EXIT_OK
        assert "verdict: constant" in out

    def test_infix_operand_opening_with_a_parenthesis(self, capsys):
        # "(1+x)" is infix, not the s-expression operator "1+x"; the alpha
        # is 1/(1-x) with the common factor 1+x, as in test_accepting
        code, out, _ = run(
            capsys,
            "verify", "--ode", "dy/dx = x^(-2)*y^2",
            "--alpha", "(1+x)/(1-x^2)", "--roots", "x; x/(1-x)", "--k", "1,-1",
        )
        assert code == EXIT_OK
        assert "verdict: constant" in out

    @pytest.mark.parametrize("argv, message", [
        (["--alpha", "1/x", "--roots", "x; 0", "--k", "1,0"], "exponents must be nonzero"),
        (["--alpha", "1", "--roots", "x; x", "--k", "1,-1"], "roots must be pairwise distinct"),
        (["--alpha", "1", "--roots", "x", "--k", "1,-1"], "one exponent per root"),
        (["--alpha", "0", "--roots", "x; 0", "--k", "1,-1"], "alpha must be nonzero"),
        (["--alpha", "1", "--roots", "x", "--k", "1", "--ghosts"],
         "ghost analysis needs at least two distinct roots"),
    ], ids=["zero-exponent", "equal-roots", "exponent-count", "zero-alpha", "one-root-ghosts"])
    def test_malformed_candidate_is_a_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, "verify", "--ode", "dy/dx = x^(-2)*y^2", *argv)
        assert code == EXIT_PARSE
        assert out == ""
        assert err == f"parse error: {message}\n"

    def test_rejecting_exit_code(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--ode", "dy/dx = x^(-2)*y^2",
            "--alpha", "1/(1-x)", "--roots", "x; x/(1-x)", "--k=-1,1",
        )
        assert code == EXIT_VERIFY
        assert "not-constant" in out

    def test_ghosts_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--ode", "dy/dx = x^(-2)*y^2",
            "--alpha", "1", "--roots", "0; x", "--k", "1,1", "--ghosts",
        )
        assert code == EXIT_VERIFY
        assert "1/2*x" in out and "ghost" in out

    @staticmethod
    def ghosts(capsys, equation, roots):
        code, out, _ = run(
            capsys, "verify", "--json", "--ode", equation, "--alpha", "1",
            "--roots", roots, "--k", "1,1", "--ghosts",
        )
        assert code == EXIT_VERIFY
        return json.loads(out)["ghosts"]

    def test_rational_ghosts_are_checked(self, capsys):
        # y' = (1+y)/(2+2*y) is y' = 1/2, so y = x/2 is a solution of both
        rational = self.ghosts(capsys, "dy/dx = (1+y)/(2+2*y)", "0; x")
        assert rational == self.ghosts(capsys, "dy/dx = 1/2", "0; x")
        assert rational == [
            {"root": "1/2*x", "is_ghost": False, "residual_valuation": "inf"}
        ]

    def test_root_where_q_vanishes_is_a_ghost(self, capsys):
        # the level-set root y = -1 of y' = 1/(1+y) makes Q vanish
        assert self.ghosts(capsys, "dy/dx = 1/(1+y)", "0; -2") == [
            {"root": "-1", "is_ghost": True, "residual_valuation": "-inf"}
        ]


@pytest.mark.parametrize("argv, flag", [
    (["algebraic", "--bound", "1/0", "y = x"], "--bound"),
    (["ode", "--center", "1/0", "dy/dx = y"], "--center"),
    (["ode", "--resonance", "values=a", "dy/dx = y"], "--resonance"),
    (["ode", "--resonance", "values=1/0", "dy/dx = y"], "--resonance"),
    (["ode", "--resonance", "values=", "dy/dx = y"], "--resonance"),
    (["verify", "--ode", "dy/dx = y", "--alpha", "1", "--roots", "0",
      "--k", "1,a"], "--k"),
    (["verify", "--ode", "dy/dx = y", "--alpha", "1", "--roots", "0",
      "--k", "1", "--bound", "1/0"], "--bound"),
], ids=["algebraic-bound", "ode-center", "resonance-letter", "resonance-zero-den",
        "resonance-empty", "verify-k", "verify-bound"])
def test_malformed_flag_value_is_a_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_PARSE
    assert captured.out == ""
    assert f"argument {flag}:" in captured.err


_VERIFY = ["verify", "--ode", "dy/dx = y", "--roots", "0", "--k", "1", "--alpha"]
_ZERO_DENOMINATOR = "zero denominator in an exponent"


@pytest.mark.parametrize("argv, message", [
    (["algebraic", "y - x^(1/0) = 0"], _ZERO_DENOMINATOR),
    (["ode", "dy/dx = x^(1/0)"], _ZERO_DENOMINATOR),
    (["wfactor", "P=y^(1/0); Q=1"], _ZERO_DENOMINATOR),
    (["wfactor", "--w0", "x^(1/0)", "P=1; Q=y"], _ZERO_DENOMINATOR),
    ([*_VERIFY, "x^(1/0)"], _ZERO_DENOMINATOR),
    ([*_VERIFY, "(* 1/0 x)"], "unknown atom '1/0'"),
    ([*_VERIFY, "(+ x"], "unbalanced parentheses"),
    ([*_VERIFY, "(^ x 1/2)"], "(^ a n) needs an integer power"),
    ([*_VERIFY, "(exp x)"], "exp only applies to (int f) forms"),
], ids=["algebraic", "ode", "wfactor", "w0", "alpha-infix", "alpha-atom",
        "alpha-unbalanced", "alpha-power", "alpha-exp"])
def test_malformed_number_or_operand_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith(f"parse error: {message}") and err.count("\n") == 1
