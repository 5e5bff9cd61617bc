import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import cliffinv
from cliffinv import (
    MAX_GENERATORS,
    DimensionOutOfRange,
    InvolutionChain,
    LengthDeltaMap,
    Multivector,
    Signature,
    discriminant,
    tokenize,
)
from cliffinv.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInv:
    def test_invertible(self, capsys):
        code, out, _ = run(capsys, "inv", "-p", "0", "-q", "1", "2+e1")
        assert code == 0
        assert "D = 3" in out
        assert "inverse = 2/3 - 1/3*e1" in out

    def test_not_invertible_exits_two(self, capsys):
        code, out, _ = run(capsys, "inv", "-p", "0", "-q", "1", "1+e1")
        assert code == 2
        assert "not invertible, D = 0" in out

    def test_scalar_field(self, capsys):
        code, out, _ = run(capsys, "inv", "-p", "0", "-q", "0", "5")
        assert code == 0
        assert "inverse = 1/5" in out

    def test_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "inv", "--json", "-p", "1", "-q", "2", "1+2*e1+e23")
        assert code == 0
        payload = json.loads(out)
        sig = Signature(1, 2)
        a = Multivector(sig, {0: 1, 0b001: 2, 0b110: 1})
        inv = Multivector.from_json_dict(payload["inverse"])
        assert a * inv == Multivector.unit(sig)
        assert payload["D"] == str(discriminant(a))
        for factor_json in payload["factors"]:
            Multivector.from_json_dict(factor_json)

    def test_parse_error_exits_one(self, capsys):
        code, _, err = run(capsys, "inv", "-p", "0", "-q", "1", "2 +")
        assert code == 1
        assert "offset" in err

    def test_lex_error_reports_offset(self, capsys):
        code, _, err = run(capsys, "inv", "-p", "0", "-q", "1", "e21")
        assert code == 1
        assert "offset" in err

    def test_bad_signature_exits_one(self, capsys):
        code, _, err = run(capsys, "inv", "-p", "4", "-q", "4", "1")
        assert code == 1

    def test_missing_expression_exits_one(self, capsys):
        code, _, err = run(capsys, "inv", "-p", "0", "-q", "1")
        assert code == 1

    def test_file_input(self, capsys, tmp_path):
        sig = Signature(0, 2)
        a = Multivector(sig, {0: 3, 0b11: 1})
        path = tmp_path / "mv.json"
        path.write_text(json.dumps(a.to_json_dict()))
        code, out, _ = run(capsys, "inv", "--file", str(path))
        assert code == 0
        assert "D =" in out

    @pytest.mark.parametrize("command", [["inv"], ["disc"], ["map", "rev"]], ids=lambda c: c[0])
    def test_file_and_expression_together_exit_one(self, capsys, tmp_path, command):
        path = tmp_path / "mv.json"
        path.write_text(json.dumps({"p": 0, "q": 1, "coeffs": {"1": "2", "e1": "1"}}))
        code, out, err = run(capsys, *command, "--file", str(path), "3+e1")
        assert code == 1
        assert out == ""
        assert err == "cliffinv: give an expression or --file, not both\n"

    def test_file_signature_conflict_exits_one(self, capsys, tmp_path):
        path = tmp_path / "mv.json"
        path.write_text(json.dumps({"p": 0, "q": 2, "coeffs": {"1": "3"}}))
        code, _, err = run(capsys, "inv", "-p", "1", "-q", "1", "--file", str(path))
        assert code == 1

    @pytest.mark.parametrize(
        "coeffs",
        [
            *map(json.dumps, [[1, 2], "1+e1", 3, {"1": True}, {"1": None}, {"e1": [1]}, {"1": "1/0"}]),
            # Raw JSON text: json.load reads 1e999999999 as inf, and NaN and Infinity as floats.
            '{"1": 1e999999999}', '{"1": Infinity}', '{"1": -Infinity}', '{"e2": NaN}', '{"e1": "abc"}',
        ],
        ids=[
            "list", "string", "number", "true", "null", "nested", "zero-denominator",
            "float-overflow", "infinity", "minus-infinity", "nan", "not-a-rational",
        ],
    )
    def test_malformed_file_coeffs_exit_one(self, capsys, tmp_path, coeffs):
        path = tmp_path / "mv.json"
        path.write_text(f'{{"p": 0, "q": 2, "coeffs": {coeffs}}}')
        code, out, err = run(capsys, "inv", "--file", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("cliffinv: malformed multivector JSON")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "p", [True, 1.9, "2", None, -1], ids=["true", "float", "string", "null", "negative"]
    )
    def test_malformed_file_signature_exit_one(self, capsys, tmp_path, p):
        path = tmp_path / "mv.json"
        path.write_text(json.dumps({"p": p, "q": 1, "coeffs": {"1": 2}}))
        code, out, err = run(capsys, "inv", "--file", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("cliffinv: malformed multivector JSON: p must be a nonnegative integer")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("value", ["1e999999999", "1e-999999999"], ids=["positive", "negative"])
    def test_file_exponent_over_budget_exits_one(self, tmp_path, value):
        # A fresh process with a timeout: expanding 10^999999999 would not end.
        path = tmp_path / "mv.json"
        path.write_text(json.dumps({"p": 1, "q": 0, "coeffs": {"1": value}}))
        src = str(Path(cliffinv.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "cliffinv.cli", "inv", "--file", str(path)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == "cliffinv: coefficient of 1 too large: its exponent is over the 50000-bit budget\n"

    @pytest.mark.parametrize(
        "expr, deep_json",
        [
            ("(" * 300 + "1" + ")" * 300, None),
            ("-" * 5000 + "1", None),
            (None, "[" * 100000 + "]" * 100000),
        ],
        ids=["parentheses", "unary-minus", "deep-json"],
    )
    def test_input_past_the_nesting_limit_exits_one(self, capsys, tmp_path, expr, deep_json):
        if deep_json is None:
            argv = ["-p", "0", "-q", "1", expr]
        else:
            path = tmp_path / "deep.json"
            path.write_text(deep_json)
            argv = ["--file", str(path)]
        code, out, err = run(capsys, "inv", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("cliffinv: ") and "nested too deeply" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "expr, lines",
        [
            ("+".join(["1"] * 3001), ["D = 9006001", "factor 1 = 3001", "inverse = 1/3001"]),
            ("*".join(["e1"] * 3001), ["D = -1", "factor 1 = -e1", "inverse = e1"]),
        ],
        ids=["sum", "product"],
    )
    def test_flat_sum_and_product_of_many_terms_exit_zero(self, capsys, expr, lines):
        # Each term is one level of a left-deep tree, past the recursion limit.
        code, out, err = run(capsys, "inv", "-p", "0", "-q", "1", expr)
        assert (code, err) == (0, "")
        assert out.splitlines() == lines

    def test_chain_of_many_powers_exits_zero(self, capsys):
        # Evaluation runs on a stack, so a chain of powers is not nesting.
        code, out, err = run(capsys, "inv", "-p", "0", "-q", "1", "e1" + "^1" * 3000)
        assert (code, err) == (0, "")
        assert out.splitlines() == ["D = -1", "factor 1 = -e1", "inverse = e1"]

    @pytest.mark.parametrize(
        "expr, message",
        [
            ("2²", "unknown character '²' (offset 1)"),
            ("e١ + ٣", "blade symbol needs at least one generator index (offset 0)"),
        ],
        ids=["superscript", "arabic-indic"],
    )
    def test_only_ascii_digits(self, capsys, expr, message):
        code, out, err = run(capsys, "inv", "-p", "1", "-q", "0", expr)
        assert (code, out, err) == (1, "", f"cliffinv: {message}\n")

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["inv", "-p", "١", "-q", "٠", "2+e1"], "-p", "١"),
            (["inv", "-p", "1", "-q", "٠", "2+e1"], "-q", "٠"),
            (["inv", "-p", "x", "-q", "0", "2+e1"], "-p", "x"),
            (["delta-search", "-n", "٣", "-I", "0,1"], "-n", "٣"),
            (["verify", "-p", "0", "-q", "1", "--samples", "٢"], "--samples", "٢"),
            (["verify", "-p", "0", "-q", "1", "--seed", "١"], "--seed", "١"),
            (["bench", "-p", "0", "-q", "1", "--bound", "٣"], "--bound", "٣"),
        ],
        ids=["p", "q", "ascii-letter", "n", "samples", "seed", "bound"],
    )
    def test_integer_flags_only_ascii_digits(self, capsys, argv, flag, value):
        # int() reads other scripts' digits ('١' is 1); the flags refuse them as argparse refuses 'x'.
        code, out, err = run(capsys, *argv)
        lines = err.splitlines()
        assert (code, out) == (1, "")
        # The usage, which wraps for verify and bench, then the error.
        assert lines[0].startswith(f"usage: cliffinv {argv[0]} ")
        assert lines[-1] == f"cliffinv {argv[0]}: error: argument {flag}: invalid int value: {value!r}"

    def test_integer_flags_read_ascii_as_int_does(self, capsys):
        assert run(capsys, "inv", "-p", " 1", "-q", "+0", "2+e1") == run(capsys, "inv", "-p", "1", "-q", "0", "2+e1")

    @pytest.mark.parametrize("key", ["e١", "e²"])
    def test_file_blade_key_only_ascii_digits(self, capsys, tmp_path, key):
        path = tmp_path / "mv.json"
        path.write_text(json.dumps({"p": 1, "q": 0, "coeffs": {key: 2}}))
        code, out, err = run(capsys, "inv", "--file", str(path))
        assert (code, out) == (1, "")
        assert err == f"cliffinv: invalid blade symbol {key!r}\n"

    @pytest.mark.parametrize("text", ["١", "٣/٤"])
    def test_file_coefficient_only_ascii_digits(self, capsys, tmp_path, text):
        # Fraction reads these as 1 and 3/4.
        path = tmp_path / "mv.json"
        path.write_text(json.dumps({"p": 1, "q": 0, "coeffs": {"1": text, "e1": "1"}}))
        code, out, err = run(capsys, "inv", "--file", str(path))
        assert (code, out) == (1, "")
        assert err == f"cliffinv: malformed multivector JSON: coefficient of 1 is not a finite rational: {text!r}\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_result_beyond_int_str_limit_prints(self, capsys, fmt):
        # 10^5000 has 5001 digits, past Python's default 4300-digit limit on
        # int-to-str conversion; the limit is lifted for output only.
        limit = sys.get_int_max_str_digits()
        big = "1" + "0" * 5000
        flags = ["--json"] if fmt == "json" else []
        code, out, err = run(capsys, "inv", "-p", "0", "-q", "0", *flags, "10^5000")
        assert (code, err) == (0, "")
        if fmt == "json":
            assert json.loads(out) == {
                "D": big,
                "factors": [],
                "inverse": {"p": 0, "q": 0, "coeffs": {"1": f"1/{big}"}},
            }
        else:
            assert out == f"D = {big}\ninverse = 1/{big}\n"
        assert sys.get_int_max_str_digits() == limit

    def test_prints_on_an_interpreter_without_the_digit_limit(self, capsys, monkeypatch):
        # Python 3.10.0-3.10.6 have no sys.get_int_max_str_digits: output is then printed with no limit to lift.
        def refuse(limit):
            raise AssertionError("set_int_max_str_digits called")

        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)
        code, out, err = run(capsys, "inv", "-p", "0", "-q", "1", "2+e1")
        assert (code, out, err) == (0, "D = 3\nfactor 1 = 2 - e1\ninverse = 2/3 - 1/3*e1\n", "")

    def test_literal_beyond_int_str_limit_exits_one(self, capsys):
        code, out, err = run(capsys, "inv", "-p", "0", "-q", "0", "1" * 5000)
        assert (code, out) == (1, "")
        assert "limit" in err and err.count("\n") == 1

    @pytest.mark.parametrize("expr", ["(1+e1)^100000000000000000000", "(10^5000)^5000"])
    def test_power_over_budget_exits_one(self, capsys, expr):
        code, out, err = run(capsys, "inv", "-p", "0", "-q", "1", expr)
        assert (code, out) == (1, "")
        assert err.startswith("cliffinv: power too large") and err.count("\n") == 1

    def test_unknown_command_exits_one(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1


class TestDisc:
    def test_two_generator_example(self, capsys):
        # x=1, y=2, z=0, w=3 in Cl(0,2): 1 - 4 + 9 = 6
        code, out, _ = run(capsys, "disc", "-p", "0", "-q", "2", "1 + 2*e1 + 3*e12")
        assert code == 0
        assert "D = 6" in out

    def test_closed_form_match(self, capsys):
        code, out, _ = run(
            capsys, "disc", "--closed-form", "-p", "2", "-q", "2", "1+e1-3*e24+e1234"
        )
        assert code == 0
        assert "match" in out
        assert "MISMATCH" not in out

    def test_closed_form_mismatch_exits_three(self, capsys, monkeypatch):
        import cliffinv.cli as cli_mod

        real = cli_mod.discriminant_closed_form
        monkeypatch.setattr(cli_mod, "discriminant_closed_form", lambda a: real(a) + 1)
        argv = ("disc", "--closed-form", "-p", "0", "-q", "1", "2+e1")
        assert run(capsys, *argv) == (3, "D = 3\nclosed form = 4\nMISMATCH\n", "")
        code, out, _ = run(capsys, *argv, "--json")
        assert (code, json.loads(out)) == (3, {"D": "3", "closed_form": "4", "match": False})

    def test_closed_form_unavailable_at_five_generators(self, capsys):
        code, _, err = run(capsys, "disc", "--closed-form", "-p", "2", "-q", "3", "1+e1")
        assert code == 1

    def test_json(self, capsys):
        code, out, _ = run(capsys, "disc", "--json", "-p", "0", "-q", "1", "2+e1")
        assert json.loads(out) == {"D": "3"}

    def test_result_beyond_int_str_limit_prints(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "disc", "-p", "0", "-q", "0", "10^5000")
        assert (code, out, err) == (0, "D = 1" + "0" * 5000 + "\n", "")
        assert sys.get_int_max_str_digits() == limit


class TestMap:
    @pytest.mark.parametrize(
        "name,expr,expected",
        [
            ("rev", "e1*e2", "-e12"),
            ("conj", "e123", "e123"),
            ("psi", "1", "1"),
            ("main", "e1", "-e1"),
        ],
    )
    def test_named_maps(self, capsys, name, expr, expected):
        code, out, _ = run(capsys, "map", name, "-p", "0", "-q", "3", expr)
        assert code == 0
        assert out.strip() == expected

    def test_unknown_map_exits_one(self, capsys):
        assert run(capsys, "map", "frob", "-p", "0", "-q", "1", "1")[0] == 1


class TestDeltaSearch:
    def test_grades_014(self, capsys):
        code, out, _ = run(capsys, "delta-search", "-n", "4", "-I", "0,1,4")
        assert code == 0
        assert "(psi)" in out
        assert "4 solution(s)" in out

    def test_unconstrained_set(self, capsys):
        code, out, _ = run(capsys, "delta-search", "-n", "3", "-I", "0,3")
        assert code == 0
        assert "8 solution(s)" in out

    def test_single_generator(self, capsys):
        code, out, _ = run(capsys, "delta-search", "-n", "1", "-I", "0,1")
        assert code == 0
        assert "2 solution(s)" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "delta-search", "--json", "-n", "4", "-I", "0,1,4")
        payload = json.loads(out)
        assert payload["n"] == 4
        assert len(payload["solutions"]) == 4
        assert any("psi" in s["names"] for s in payload["solutions"])

    def test_bad_grades_exit_one(self, capsys):
        assert run(capsys, "delta-search", "-n", "3", "-I", "0,x")[0] == 1
        assert run(capsys, "delta-search", "-n", "3", "-I", "0,7")[0] == 1

    def test_grade_set_only_ascii_digits(self, capsys):
        code, out, err = run(capsys, "delta-search", "-n", "3", "-I", "٠,١")
        assert (code, out, err) == (1, "", "cliffinv: bad grade set '٠,١'\n")


class TestGeneratorLimit:
    """Each refusal one generator past blades.MAX_GENERATORS, with its exact message."""

    @pytest.mark.parametrize(
        "refuse, error, message",
        [
            (lambda n: tokenize("1", n), ValueError, "at most 5 generators are supported"),
            (lambda n: LengthDeltaMap([1] * (n + 1)), ValueError, "delta tables cover grades 0..5 at most"),
            (lambda n: InvolutionChain(n, ()), DimensionOutOfRange, "chains exist for 0..5 generators, got 6"),
            (lambda n: main(["delta-search", "-n", str(n), "-I", "0,1"]), None, "-n must be in 0..5, got 6"),
        ],
        ids=["tokenize", "delta-table", "chain", "cli-delta-search"],
    )
    def test_refusal_one_past_the_limit(self, capsys, refuse, error, message):
        if error is None:  # the CLI prints the refusal and exits 1
            assert refuse(MAX_GENERATORS + 1) == 1
            out, err = capsys.readouterr()
            assert (out, err) == ("", f"cliffinv: {message}\n")
        else:
            with pytest.raises(error) as info:
                refuse(MAX_GENERATORS + 1)
            assert str(info.value) == message


class TestVerify:
    def test_single_signature_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "-p", "1", "-q", "2", "--samples", "4")
        assert code == 0
        assert "all checks passed" in out

    def test_json_shape(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--json", "-p", "0", "-q", "2", "--samples", "3"
        )
        payload = json.loads(out)
        assert payload["passed"] is True
        assert {c["name"] for c in payload["checks"]} == {
            "round-trip",
            "oracle-equivalence",
            "closed-form",
        }

    def test_tampered_build_fails_verification(self, capsys, monkeypatch):
        # fault injection: a sign error in the closed form must be caught
        import cliffinv.verify as verify_mod

        real = verify_mod.discriminant_closed_form
        monkeypatch.setattr(
            verify_mod, "discriminant_closed_form", lambda a: -real(a) - 1
        )
        code, out, _ = run(capsys, "verify", "-p", "0", "-q", "2", "--samples", "3")
        assert code == 3
        assert "FAILED" in out

    def test_zero_samples_exit_one(self, capsys):
        assert run(capsys, "verify", "-p", "0", "-q", "1", "--samples", "0")[0] == 1

    def test_no_signature_runs_all_21(self, capsys):
        code, out, err = run(capsys, "verify", "--samples", "1")
        assert (code, err) == (0, "")
        *checks, last = out.splitlines()
        assert len(checks) == 65 and all(line.endswith(": ok") for line in checks)
        assert last == "all checks passed"
        code, out, err = run(capsys, "verify", "--samples", "1", "--json")
        assert (code, err) == (0, "")
        assert '"passed": true' in out
        assert len(json.loads(out)["checks"]) == 65


class TestLazyImports:
    def test_inv_loads_neither_bench_nor_verify(self):
        # A fresh interpreter: this test process has imported both already.
        script = (
            "import contextlib, io, sys\n"
            "from cliffinv.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['inv', '-p', '0', '-q', '1', '2+e1']) == 0\n"
            "print(sorted(m for m in ('cliffinv.bench', 'cliffinv.verify') if m in sys.modules))\n"
        )
        src = str(Path(cliffinv.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")

    def test_inv_imports_neither_dataclasses_nor_the_oracle(self):
        # A fresh interpreter; the oracle's names still load on first access.
        script = (
            "import contextlib, io, sys\n"
            "before = set(sys.modules)\n"
            "import cliffinv.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cliffinv.cli.main(['inv', '-p', '2', '-q', '3', '1+e12']) == 0\n"
            "heavy = {'dataclasses', 'inspect', 'cliffinv.oracle', 'cliffinv.verify', 'cliffinv.bench'}\n"
            "print(sorted(heavy & (set(sys.modules) - before)))\n"
            "import cliffinv\n"
            "print('oracle_inverse' in dir(cliffinv), 'cliffinv.oracle' in sys.modules)\n"
            "from cliffinv import RegularMatrix\n"
            "print(cliffinv.oracle_inverse is sys.modules['cliffinv.oracle'].oracle_inverse, RegularMatrix.__name__)\n"
            "try:\n"
            "    cliffinv.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(cliffinv.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.splitlines() == [
            "[]",
            "True False",
            "True RegularMatrix",
            "module 'cliffinv' has no attribute 'no_such_name'",
        ]

    def test_dir_lists_the_lazy_oracle_names_sorted_without_importing_the_oracle(self):
        # A fresh interpreter, in which nothing has loaded the oracle yet.
        script = (
            "import sys\n"
            "import cliffinv\n"
            "names = dir(cliffinv)\n"
            "lazy = ('RegularMatrix', 'oracle_inverse', 'oracle_is_invertible', 'regular_matrix')\n"
            "print(names == sorted(names), [n for n in lazy if n not in names], 'cliffinv.oracle' in sys.modules)\n"
        )
        src = str(Path(cliffinv.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "True [] False\n", "")


class TestBench:
    def test_each_lane_runs_once_untimed_before_its_timed_calls(self, monkeypatch):
        from cliffinv import bench

        calls = []
        monkeypatch.setattr(bench, "compose_inverse", lambda a, chain: calls.append(("formula", a)))
        monkeypatch.setattr(bench, "oracle_inverse", lambda a: calls.append(("matrix", a)))
        report = bench.run_bench(Signature(2, 3), samples=3, seed=0)
        batch = [Multivector.random(Signature(2, 3), i, 10) for i in range(3)]
        # One set-up call per lane on the first element, then one timed call per element.
        assert calls == [("formula", batch[0]), ("matrix", batch[0])] + [
            (lane, a) for lane in ("formula", "matrix") for a in batch
        ]
        assert [len(lane.seconds) for lane in report.lanes] == [3, 3]

    def test_reports_both_lanes(self, capsys):
        code, out, _ = run(capsys, "bench", "-p", "1", "-q", "1", "--samples", "5")
        assert code == 0
        assert "formula" in out and "matrix" in out and "speedup" in out

    def test_deterministic_batches(self, capsys):
        code1, out1, _ = run(
            capsys, "bench", "--json", "-p", "0", "-q", "2", "--samples", "4", "--seed", "9"
        )
        code2, out2, _ = run(
            capsys, "bench", "--json", "-p", "0", "-q", "2", "--samples", "4", "--seed", "9"
        )
        assert code1 == code2 == 0
        p1, p2 = json.loads(out1), json.loads(out2)
        # timings differ run to run but the configuration must not
        assert p1["signature"] == p2["signature"]
        assert p1["samples"] == p2["samples"]
        assert set(p1["lanes"]) == set(p2["lanes"]) == {"formula", "matrix"}

    def test_zero_samples_exit_one(self, capsys):
        code, out, err = run(capsys, "bench", "-p", "0", "-q", "1", "--samples", "0")
        assert (code, out, err) == (1, "", "cliffinv: samples must be >= 1\n")

    def test_float_lane_is_gone(self, capsys):
        code, out, err = run(
            capsys, "bench", "--json", "-p", "0", "-q", "2", "--samples", "4", "--float"
        )
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --float" in err


GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_cli.json").read_text())["cases"]


class TestGoldenCorpus:
    """inv, inv --json and disc on 40 fixed inputs over all 21 signatures,
    then disc --closed-form (text and --json) on integer, rational and
    zero-divisor inputs over every signature with 1 <= n <= 4, then verify
    --samples 20 (text and --json) on each of the 21 signatures.

    The first 120 cases were recorded before the chain was compiled into
    integer plans, the closed-form cases before the closed form ran on
    integers, the verify cases before its checks became one pass over the
    samples; any change to them must be deliberate.
    """

    @pytest.mark.parametrize(
        "case", GOLDEN, ids=[f"{i:03d}-{c['argv'][0]}" for i, c in enumerate(GOLDEN)]
    )
    def test_byte_identical(self, capsys, case):
        code, out, _ = run(capsys, *case["argv"])
        assert (code, out) == (case["exit"], case["stdout"])

    def test_covers_every_signature(self):
        sigs = {(c["argv"][2], c["argv"][4]) for c in GOLDEN}
        assert len(sigs) == 21


README = (Path(__file__).parent.parent / "README.md").read_text()


def _readme_block(heading: str, lang: str) -> list[str]:
    """The lines of the first ```lang block under a README heading."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("\n```", 1)[0].splitlines()


def _readme_cli_examples() -> list[tuple[list[str], int, str]]:
    """Each `$ cliffinv ...` example of the README's CLI section that shows output:
    its argv, its exit code (0 unless its comment names one) and its output."""
    examples: list[tuple[str, list[str]]] = []
    for line in _readme_block("## CLI", "text"):
        if line.startswith("$ cliffinv "):
            examples.append((line, []))
        elif line:
            examples[-1][1].append(line)
    cases = []
    for line, output in examples:
        command, _, comment = line.partition("  #")
        code = re.search(r"exit code (\d)", comment)
        if output:
            cases.append((shlex.split(command)[2:], int(code[1]) if code else 0, "\n".join(output) + "\n"))
    return cases


README_CLI = _readme_cli_examples()


class TestReadme:
    """The README's examples, run as written: CI runs two of them, and only on an installed package."""

    def test_cli_examples_are_the_five_shown(self):
        assert [argv[0] for argv, _, _ in README_CLI] == ["inv", "inv", "disc", "map", "delta-search"]

    @pytest.mark.parametrize("argv, code, out", README_CLI, ids=[" ".join(c[0]) for c in README_CLI])
    def test_cli_example(self, capsys, argv, code, out):
        assert run(capsys, *argv)[:2] == (code, out)

    def test_library_snippet(self, capsys):
        lines = _readme_block("## Library", "python")
        printed = [line.split("# ", 1)[1].strip() for line in lines if line.startswith("print(")]
        assert len(printed) == 2 and sum(line.startswith("assert ") for line in lines) == 1
        exec(compile("\n".join(lines), "README.md", "exec"), {})
        assert capsys.readouterr().out.splitlines() == printed
