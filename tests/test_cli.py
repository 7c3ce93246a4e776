"""End-to-end tests for the command-line interface.

Each test drives ``cli.main`` directly with an argv list and captures
stdout/stderr, so the full dispatch path (parsing, field construction,
command logic, serialization, exit codes) is exercised in-process.  A few
tests start a fresh interpreter instead, where the state of the process is
the point: the module entry point, and which modules a command loads.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diffspectrum import cli, solver, spectrum
from diffspectrum.cli import (
    EXIT_BAD_INPUT,
    EXIT_BAD_MODULUS,
    EXIT_FIELD_TOO_LARGE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    main,
)

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_python(*args):
    """Run the interpreter in a new process with the checkout's src/ first
    on the path, so nothing this test session imported carries over."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


class TestExitCodeConstants:
    def test_values(self):
        assert (
            EXIT_OK,
            EXIT_VERIFY_FAILED,
            EXIT_BAD_INPUT,
            EXIT_BAD_MODULUS,
            EXIT_INTERNAL,
            EXIT_FIELD_TOO_LARGE,
        ) == (0, 1, 2, 3, 4, 5)


class TestClassify:
    def test_b_equals_one(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "1", "--b", "0x1")
        assert code == EXIT_OK
        assert out == "case=B_EQUALS_ONE count=4\n"

    def test_b_equals_zero(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "1", "--b", "0x0")
        assert code == EXIT_OK
        assert out == "case=NO_SOLUTION count=0\n"

    def test_two_solution_member_reports_bit(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "1", "--b", "0x9")
        assert code == EXIT_OK
        assert out == "case=GENERIC_TWO count=2 s2=1\n"

    def test_chain_fault_exits_internal(self, capsys, monkeypatch):
        # t + 1/t = T always has unit-subgroup roots on the chain, so a
        # solver that finds none is a library fault, not "0 solutions"
        monkeypatch.setattr(solver, "solve_t_from_T", lambda field, T: [])
        code, out, err = run(capsys, "classify", "--n", "1", "--b", "0x9")
        assert code == EXIT_INTERNAL
        assert out == ""
        assert err.startswith("error: internal verification failed: ")
        assert err.count("\n") == 1

    def test_nonmember_outside_subfield_reports_bit(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "1", "--b", "0x2")
        assert code == EXIT_OK
        assert out == "case=NO_SOLUTION count=0 s2=0\n"

    def test_subfield_member_has_no_bit(self, capsys):
        # 0x6 generates mu_{q+1} at n=1 and lies inside GF(q^2).
        code, out, _ = run(capsys, "classify", "--n", "1", "--b", "0x6")
        assert code == EXIT_OK
        assert out == "case=MU_CASE count=2\n"

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--n", "1", "--b", "0x9", "--format", "json"
        )
        assert code == EXIT_OK
        assert json.loads(out) == {"case": "GENERIC_TWO", "count": 2, "s2": 1}

    def test_json_format_subfield(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--n", "1", "--b", "0x1", "--format", "json"
        )
        assert code == EXIT_OK
        assert json.loads(out) == {"case": "B_EQUALS_ONE", "count": 4}

    def test_csv_rejected(self, capsys):
        code, _, err = run(
            capsys, "classify", "--n", "1", "--b", "0x1", "--format", "csv"
        )
        assert code == EXIT_BAD_INPUT
        assert "csv" in err

    def test_out_of_range_b(self, capsys):
        code, _, err = run(capsys, "classify", "--n", "2", "--b", "0x10000")
        assert code == EXIT_BAD_INPUT
        assert err.startswith("error:")

    def test_malformed_b(self, capsys):
        for bad in ("zz", "10", "0x", ""):
            code, _, _ = run(capsys, "classify", "--n", "1", "--b", bad)
            assert code == EXIT_BAD_INPUT


class TestSolve:
    def test_b_equals_one_summary(self, capsys):
        code, out, _ = run(capsys, "solve", "--n", "1", "--b", "0x1")
        assert code == EXIT_OK
        assert out == "count=4 (all of GF(4))\n"

    def test_b_equals_one_enumerated(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--n", "1", "--b", "0x1", "--enumerate-subfield"
        )
        assert code == EXIT_OK
        assert out == "count=4\n0x0\n0x1\n0x6\n0x7\n"

    def test_no_solution(self, capsys):
        code, out, _ = run(capsys, "solve", "--n", "1", "--b", "0x0")
        assert code == EXIT_OK
        assert out == "count=0\n"

    def test_two_solution_member(self, capsys):
        code, out, _ = run(capsys, "solve", "--n", "1", "--b", "0x9")
        assert code == EXIT_OK
        assert out == "count=2\n0xe\n0xf\n"

    def test_mu_case(self, capsys):
        code, out, _ = run(capsys, "solve", "--n", "1", "--b", "0x6")
        assert code == EXIT_OK
        assert out == "count=2\n0x2\n0x3\n"

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--n", "1", "--b", "0x9", "--format", "json"
        )
        assert code == EXIT_OK
        assert json.loads(out) == {"count": 2, "solutions": ["0xe", "0xf"]}

    def test_json_subfield_summary(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--n", "1", "--b", "0x1", "--format", "json"
        )
        assert code == EXIT_OK
        assert json.loads(out) == {"count": 4, "solutions": "all of GF(4)"}

    def test_csv_rejected(self, capsys):
        code, _, _ = run(capsys, "solve", "--n", "1", "--b", "0x1", "--format", "csv")
        assert code == EXIT_BAD_INPUT

    def test_solutions_sorted_ascending(self, capsys):
        code, out, _ = run(capsys, "solve", "--n", "2", "--b", "0x1", "--enumerate-subfield")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "count=16"
        values = [int(line, 16) for line in lines[1:]]
        assert values == sorted(values) and len(values) == 16


class TestSpectrum:
    def test_formula_text_n1(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--n", "1", "--method", "formula")
        assert code == EXIT_OK
        assert out == "{4:1,2:6,0:9}\n"

    def test_bruteforce_text_n2(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--n", "2", "--method", "bruteforce")
        assert code == EXIT_OK
        assert out == "{16:1,12:4,2:96,0:155}\n"

    def test_methods_agree(self, capsys):
        _, formula_out, _ = run(capsys, "spectrum", "--n", "3", "--method", "formula")
        _, brute_out, _ = run(capsys, "spectrum", "--n", "3", "--method", "bruteforce")
        assert formula_out == brute_out == "{64:1,56:8,2:1792,0:2295}\n"

    def test_bruteforce_capped(self, capsys):
        code, _, err = run(capsys, "spectrum", "--n", "7", "--method", "bruteforce")
        assert code == EXIT_FIELD_TOO_LARGE
        assert err.startswith("error:")

    def test_formula_has_no_cap(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--n", "7", "--method", "formula")
        assert code == EXIT_OK
        assert out.startswith("{16384:1,16256:128,2:")

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--n", "1", "--method", "formula", "--format", "csv"
        )
        assert code == EXIT_OK
        assert out == "count,multiplicity\n4,1\n2,6\n0,9\n"

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--n", "2", "--method", "bruteforce", "--format", "json"
        )
        assert code == EXIT_OK
        assert json.loads(out) == {
            "n": 2,
            "method": "bruteforce",
            "entries": {"16": 1, "12": 4, "2": 96, "0": 155},
        }

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "histogram.csv"
        code, out, _ = run(
            capsys,
            "spectrum", "--n", "1", "--method", "formula",
            "--format", "csv", "--out", str(target),
        )
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text() == "count,multiplicity\n4,1\n2,6\n0,9\n"


class TestVerify:
    def test_n1_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "1")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["pass"] is True
        assert list(payload)[0] == "pass"
        assert payload["formula_histogram"]["entries"] == {"4": 1, "2": 6, "0": 9}
        assert payload["mismatches"] == {}

    def test_n3_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3")
        assert code == EXIT_OK
        assert json.loads(out)["pass"] is True

    def test_capped(self, capsys):
        code, _, _ = run(capsys, "verify", "--n", "8")
        assert code == EXIT_FIELD_TOO_LARGE

    def test_alternate_modulus(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2", "--modulus", "0x11d")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["modulus"] == "0x11d"

    def test_no_timings_in_output(self, capsys):
        _, out, _ = run(capsys, "verify", "--n", "1")
        assert "elapsed" not in out

    def test_format_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "1", "--format", "json")
        assert code == EXIT_BAD_INPUT
        assert "--format" in err


class TestModulusHandling:
    def test_reducible_rejected(self, capsys):
        code, _, err = run(
            capsys, "classify", "--n", "1", "--b", "0x1", "--modulus", "0x12"
        )
        assert code == EXIT_BAD_MODULUS
        assert err.startswith("error:")

    def test_non_hex_rejected(self, capsys):
        code, _, _ = run(
            capsys, "classify", "--n", "1", "--b", "0x1", "--modulus", "zz"
        )
        assert code == EXIT_BAD_MODULUS

    def test_wrong_degree_rejected(self, capsys):
        code, _, _ = run(
            capsys, "classify", "--n", "1", "--b", "0x1", "--modulus", "0x11b"
        )
        assert code == EXIT_BAD_MODULUS

    # int(s, 16) takes every one of these; --b rejects them too
    @pytest.mark.parametrize(
        "modulus", ["0x1_f", "1_f", " 0x1f", "0x1f ", "0x1f\n", "+0x1f", "0x+1f", "0x"]
    )
    def test_loose_hex_spellings_rejected(self, capsys, modulus):
        code, out, err = run(
            capsys, "classify", "--n", "1", "--b", "0x1", f"--modulus={modulus}"
        )
        assert code == EXIT_BAD_MODULUS
        assert out == "" and err.startswith("error: --modulus is not valid hex")

    @pytest.mark.parametrize("modulus", ["1f", "0X1F", "0x1F"])
    def test_prefix_optional_and_case_free(self, capsys, modulus):
        code, out, _ = run(
            capsys, "classify", "--n", "1", "--b", "0x1", "--modulus", modulus
        )
        assert code == EXIT_OK
        assert out == "case=B_EQUALS_ONE count=4\n"

    @pytest.mark.parametrize("modulus", ["--modulus=-0x13", "--modulus=0"])
    def test_nonpositive_rejected(self, capsys, modulus):
        code, _, err = run(capsys, "classify", "--n", "1", "--b", "0x1", modulus)
        assert code == EXIT_BAD_MODULUS
        assert err.startswith("error:")

    def test_alternate_irreducible_accepted(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--n", "1", "--b", "0x1", "--modulus", "0x1f"
        )
        assert code == EXIT_OK
        assert out == "case=B_EQUALS_ONE count=4\n"

    def test_solution_counts_are_basis_independent(self, capsys):
        _, default_out, _ = run(capsys, "spectrum", "--n", "1", "--method", "bruteforce")
        _, alt_out, _ = run(
            capsys,
            "spectrum", "--n", "1", "--method", "bruteforce", "--modulus", "0x1f",
        )
        assert default_out == alt_out


class TestArgumentValidation:
    def test_n_zero_rejected(self, capsys):
        code, _, _ = run(capsys, "classify", "--n", "0", "--b", "0x1")
        assert code == EXIT_BAD_INPUT

    def test_n_above_cap_rejected(self, capsys):
        code, _, _ = run(capsys, "classify", "--n", "99", "--b", "0x1")
        assert code == EXIT_BAD_INPUT

    def test_missing_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == EXIT_BAD_INPUT

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == EXIT_BAD_INPUT

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == EXIT_OK
        assert "classify" in out and "verify" in out

    def test_missing_b_rejected(self, capsys):
        code, _, _ = run(capsys, "solve", "--n", "1")
        assert code == EXIT_BAD_INPUT

    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", "--n", "1", "--b", "0x1"),
            ("solve", "--n", "1", "--b", "0x1"),
            ("spectrum", "--n", "1"),
            ("verify", "--n", "1"),
        ],
        ids=["classify", "solve", "spectrum", "verify"],
    )
    def test_workers_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--workers", "1")
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert "--workers" in err


class TestOutput:
    @pytest.mark.parametrize(
        "argv",
        [("solve", "--n", "1", "--b", "0x9"), ("verify", "--n", "1")],
        ids=["solve", "verify"],
    )
    def test_unwritable_out_is_bad_input(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "x"
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert not target.exists()

    def test_module_entry_point(self):
        result = fresh_python("-m", "diffspectrum.cli", "classify", "--n", "1", "--b", "0x9")
        assert result.returncode == EXIT_OK, result.stderr
        assert result.stdout == "case=GENERIC_TWO count=2 s2=1\n"

    def test_classify_and_solve_never_import_numpy(self):
        # A text classify or solve loads neither numpy nor spectrum, nor the
        # dataclasses and json that spectrum imports, beyond what a bare
        # interpreter holds.  Per n: a two-solution b, a zero b, b = 1 and a
        # mu_(q+1) b.  Solving the mu_(q+1) b at n = 15 would list
        # q^2 - q ~ 2^30 roots, so it is only classified there.
        queries = {
            1: ["0x9", "0x0", "0x1", "0x6"],
            4: ["0x2", "0x0", "0x1", "0x409a"],
            15: ["0x105e94add63c197", "0x0", "0x1", "0x7ef4157045fc9e"],
        }
        argvs = [
            [command, "--n", str(n), "--b", b]
            for n, values in queries.items()
            for command in ("classify", "solve")
            for b in values
            if not (command == "solve" and n == 15 and b == values[3])
        ]
        prelude = "import io, sys, contextlib\n"
        script = (
            prelude
            + "import diffspectrum\n"
            "from diffspectrum import cli\n"
            "cases, codes = [], []\n"
            f"for argv in {argvs!r}:\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        codes.append(cli.main(argv))\n"
            "    if argv[0] == 'classify':\n"
            "        cases.append(out.getvalue().split()[0])\n"
            "print(repr([codes, cases, sorted(sys.modules)]))\n"
        )
        bare = fresh_python("-c", prelude + "print(repr(sorted(sys.modules)))")
        result = fresh_python("-c", script)
        assert (bare.returncode, result.returncode) == (0, 0), result.stderr
        codes, cases, modules = ast.literal_eval(result.stdout)
        assert codes == [EXIT_OK] * len(argvs)
        assert cases == [
            "case=GENERIC_TWO", "case=NO_SOLUTION", "case=B_EQUALS_ONE", "case=MU_CASE",
        ] * len(queries)
        deferred = {"numpy", "diffspectrum.spectrum", "dataclasses", "json"}
        assert not deferred & set(ast.literal_eval(bare.stdout))
        assert not deferred & set(modules)
        assert "diffspectrum.solver" in modules

    @pytest.mark.parametrize(
        "argv",
        [("spectrum", "--n", "2", "--method", "bruteforce"), ("verify", "--n", "1")],
        ids=["spectrum", "verify"],
    )
    def test_numpy_commands_in_fresh_process(self, capsys, argv):
        """Commands that sweep arrays import numpy on first use and print
        what they print in a process that already holds it."""
        result = fresh_python("-m", "diffspectrum.cli", *argv)
        code, out, _ = run(capsys, *argv)
        assert (result.returncode, code) == (EXIT_OK, EXIT_OK), result.stderr
        assert result.stdout == out


def test_method_choices_are_spectrum_methods():
    # the CLI spells the methods out so that its parser does not import
    # spectrum; they must stay spectrum's
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    method = next(a for a in commands.choices["spectrum"]._actions if a.dest == "method")
    assert method.choices == [spectrum.METHOD_FORMULA, spectrum.METHOD_BRUTEFORCE]
    assert method.default == spectrum.METHOD_FORMULA
