import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources
from unittest import mock

import mpmath
import pytest

from conftest import horner, modulus_27_poly
from zetapoly.cli import EXIT_CHECK_FAILED, EXIT_INPUT, EXIT_OK, main
from zetapoly.delta import golden_r_minus, golden_z_minus
from zetapoly.exactnum import DensePoly
from zetapoly.lvalues import delta_newform, required_nmax
from zetapoly.polyspace import PolyX, wspace_basis
from zetapoly.rv import ZetaPoly, rv_forward
from zetapoly import zeta


def _data(name):
    return resources.files("zetapoly.data").joinpath(name)


@pytest.fixture()
def r_minus_file(tmp_path):
    path = tmp_path / "r_minus.json"
    path.write_text(json.dumps(golden_r_minus().to_dict()))
    return str(path)


@pytest.fixture()
def w2_const_file(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"w": 2, "coeffs": [["1", "0"], ["0", "0"], ["0", "0"]]}))
    return str(path)


def _seeded_w100(seed, es1=False):
    """Dense w = 100 coefficients with real and imaginary parts
    randint(-9, 9) / randint(1, 6); with ``es1``, made to satisfy
    r|(1+S) = 0, i.e. a_(100-j) = -(-1)^j a_j and a_50 = 0."""
    rng = random.Random(seed)
    coeffs = [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(2)] for _ in range(101)
    ]
    if es1:
        for j in range(50):
            coeffs[100 - j] = [-((-1) ** j) * x for x in coeffs[j]]
        coeffs[50] = [Fraction(0), Fraction(0)]
    return coeffs


def _write_poly(path, coeffs):
    pairs = [[f"{x.numerator}/{x.denominator}" for x in c] for c in coeffs]
    path.write_text(json.dumps({"w": len(coeffs) - 1, "variable": "X", "coeffs": pairs}))
    return str(path)


def _either_side(side, flags, argv):
    """``argv`` with ``flags`` before the subcommand or after its arguments."""
    return flags + argv if side == "before" else argv + flags


@pytest.mark.parametrize("side", ["before", "after"])
class TestGlobalFlags:
    """The global flags are read on either side of the subcommand, an
    invalid value is an input error, and each default equals the value
    spelled out (and differs from a neighbouring one, so it is read)."""

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--prec", "32", "error: --prec must be at least 64 bits, got 32\n"),
            ("--prec", "63", "error: --prec must be at least 64 bits, got 63\n"),
            ("--tol", "0", "error: tolerance must be positive, got '0'\n"),
            ("--tol", "abc", "error: cannot parse tolerance 'abc'\n"),
            ("--kmax", "0", "error: --kmax must be positive, got 0\n"),
        ],
        ids=["prec32", "prec63", "tol0", "tolabc", "kmax0"],
    )
    def test_invalid_value_exits_2(self, side, flag, value, message, w2_const_file, capsys):
        for argv in (["thm2", w2_const_file], ["wspace", "4"]):
            assert main(_either_side(side, [flag, value], argv)) == EXIT_INPUT
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", message)

    @pytest.mark.parametrize("spelling", ["two tokens", "joined"])
    def test_negative_tolerance_is_an_input_error(self, side, spelling, w2_const_file, capsys):
        flags = ["--tol", "-1e-10"] if spelling == "two tokens" else ["--tol=-1e-10"]
        for argv in (["thm2", w2_const_file], ["wspace", "4"]):
            assert main(_either_side(side, flags, argv)) == EXIT_INPUT
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", "error: tolerance must be positive, got '-1e-10'\n")

    @pytest.mark.parametrize("value", ["-1/3", "-1e-10", "-.5"])
    def test_a_negative_tolerance_reads_as_its_joined_form(self, side, value, w2_const_file, capsys):
        """``--tol -1/3`` is the value -1/3, as ``--tol=-1/3`` is, not a missing value."""
        outcomes = []
        for flags in (["--tol", value], [f"--tol={value}"]):
            try:
                code = main(_either_side(side, flags, ["thm2", w2_const_file]))
            except SystemExit as exc:
                code = exc.code
            outcomes.append((code, capsys.readouterr().err))
        assert outcomes[0] == outcomes[1] == (EXIT_INPUT, f"error: tolerance must be positive, got {value!r}\n")

    def test_format_outside_choices_is_a_usage_error(self, side, capsys):
        with pytest.raises(SystemExit) as exc:
            main(_either_side(side, ["--format", "xml"], ["wspace", "4"]))
        assert exc.value.code == EXIT_INPUT
        assert "invalid choice: 'xml'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,flag,default,other",
        [
            (["delta"], "--prec", "128", "192"),
            (["thm2", str(_data("r_delta_minus.json")), "--n", "1", "--format", "json"], "--tol", "1e-10", "1e-9"),
            (["thm2", str(_data("r_delta_minus.json")), "--n", "1", "--tol", "1e-40"], "--kmax", "400", "399"),
            (["wspace", "10"], "--format", "text", "json"),
        ],
        ids=["prec", "tol", "kmax", "format"],
    )
    def test_default_equals_spelled_out(self, side, argv, flag, default, other, capsys):
        outputs = []
        for flags in ([], [flag, default], [flag, other]):
            code = main(_either_side(side, flags, argv))
            outputs.append((code, capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert outputs[0] != outputs[2]

    def test_out_default_is_stdout(self, side, tmp_path, capsys):
        path = tmp_path / "w.txt"
        assert main(["wspace", "10"]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert main(_either_side(side, ["--out", str(path)], ["wspace", "10"])) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert path.read_text() == stdout


class TestTransformCommands:
    def test_forward_matches_golden(self, r_minus_file, tmp_path):
        out = tmp_path / "z.json"
        assert main(["rv-forward", r_minus_file, "--out", str(out)]) == EXIT_OK
        assert ZetaPoly.from_dict(json.loads(out.read_text())) == golden_z_minus()

    def test_roundtrip_byte_identical_coefficients(self, r_minus_file, tmp_path):
        z = tmp_path / "z.json"
        back = tmp_path / "r.json"
        assert main(["rv-forward", r_minus_file, "--out", str(z)]) == EXIT_OK
        assert main(["rv-inverse", str(z), "--out", str(back)]) == EXIT_OK
        a = json.loads(open(r_minus_file).read())["coeffs"]
        b = json.loads(back.read_text())["coeffs"]
        assert a == b

    def test_forward_constant_series(self, w2_const_file, tmp_path, capsys):
        assert main(["rv-forward", w2_const_file]) == EXIT_OK
        Z = ZetaPoly.from_dict(json.loads(capsys.readouterr().out))
        assert [horner(Z.coeffs, -n).re for n in range(3)] == [1, 3, 6]

    def test_global_flags_before_subcommand(self, r_minus_file, tmp_path):
        out = tmp_path / "z.json"
        assert main(["--out", str(out), "rv-forward", r_minus_file]) == EXIT_OK
        assert out.exists()

    def test_malformed_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["rv-forward", str(bad)]) == EXIT_INPUT
        missing = tmp_path / "missing.json"
        assert main(["rv-forward", str(missing)]) == EXIT_INPUT

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b'\xff\xfe{"w": 2}')
        assert main(["thm2", str(bad)]) == EXIT_INPUT
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith(f"error: {bad} is not valid JSON: ")

    def test_json_integer_past_the_digit_cap_exits_2(self, tmp_path, capsys):
        big = tmp_path / "big.json"
        big.write_text('{"w": ' + "1" * 5000 + ', "coeffs": []}')
        assert main(["rv-forward", str(big)]) == EXIT_INPUT
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith(f"error: {big} is not valid JSON: ")
        assert len(out.err.encode()) < 300

    def test_wrong_shape_exits_2(self, tmp_path):
        bad = tmp_path / "short.json"
        bad.write_text(json.dumps({"w": 4, "coeffs": [["1", "0"]]}))
        assert main(["rv-forward", str(bad)]) == EXIT_INPUT

    @pytest.mark.parametrize("data, message", [
        ({"w": -2, "coeffs": []}, "w must be an even integer >= 2, got -2"),
        ({"w": True, "coeffs": [["0", "0"], ["1", "0"]]}, "'w' must be an integer, got True"),
    ], ids=["negative", "bool"])
    def test_w_is_checked_before_the_coefficient_count(self, data, message, tmp_path, capsys):
        bad = tmp_path / "bad_w.json"
        bad.write_text(json.dumps(data))
        assert main(["rv-forward", str(bad)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [["check", "es1"], ["rv-forward"]], ids=" ".join)
    @pytest.mark.parametrize("data, key", [
        ({"coeffs": [["1", "0"]]}, "w"),
        ({"w": 2}, "coeffs"),
    ], ids=["no-w", "no-coeffs"])
    def test_missing_key_exits_2(self, argv, data, key, tmp_path, capsys):
        bad = tmp_path / "missing_key.json"
        bad.write_text(json.dumps(data))
        assert main(argv + [str(bad)]) == EXIT_INPUT
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: polynomial payload missing key '{key}'\n"


@pytest.mark.parametrize(
    "argv",
    [["thm2"], ["roots"], ["roots", "--mode", "critical_line"], ["check", "es1"], ["lvalues"]],
)
def test_top_level_json_array_exits_2(argv, tmp_path, capsys):
    path = tmp_path / "array.json"
    path.write_text("[1, 2]")
    assert main(argv + [str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == f"error: {path} must hold a JSON object, not a list\n"


class TestCheckCommand:
    def test_fricke_holds(self, r_minus_file):
        assert main(["check", "fricke", r_minus_file, "--eps", "1"]) == EXIT_OK

    def test_fricke_requires_eps(self, r_minus_file):
        assert main(["check", "fricke", r_minus_file]) == EXIT_INPUT

    @pytest.mark.parametrize("relation", ["res1", "res2", "es1", "es2"])
    def test_eps_belongs_to_fricke_alone(self, relation, r_minus_file, capsys):
        # res1 is the Fricke relation with eps = +1, so "res1 --eps -1"
        # would report that the odd part satisfies the eps = -1 relation
        assert main(["check", relation, r_minus_file, "--eps", "-1"]) == EXIT_INPUT
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"error: --eps applies only to relation 'fricke', not {relation!r}\n")

    def test_res1_failure_reports_residual(self, w2_const_file, capsys):
        assert main(["--format", "json", "check", "res1", w2_const_file]) == EXIT_CHECK_FAILED
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds"] is False
        assert payload["residual"] == [["1/1", "0/1"], ["0/1", "0/1"], ["-1/1", "0/1"]]

    def test_es_relations_on_wspace_basis(self, tmp_path):
        basis, _, _ = wspace_basis(10)
        for idx, b in enumerate(basis):
            path = tmp_path / f"b{idx}.json"
            path.write_text(json.dumps(b.to_dict()))
            assert main(["check", "es1", str(path)]) == EXIT_OK
            assert main(["check", "es2", str(path)]) == EXIT_OK


class TestOnlyTheWrittenFormIsBuilt:
    """A report is built in the form --format asks for, not in both: text
    output never serializes the JSON pairs, JSON output never prints a
    coefficient as text."""

    @pytest.mark.parametrize(
        "argv", [["check", "es1"], ["check", "fricke", "--eps", "1"], ["wspace", "10"]]
    )
    def test_text_builds_no_payload(self, argv, r_minus_file, capsys):
        if argv[0] == "check":
            argv = argv[:2] + [r_minus_file] + argv[2:]
        with mock.patch.object(DensePoly, "to_str_pairs", side_effect=AssertionError):
            assert main(argv) == EXIT_OK
        assert capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["check", "es1"], ["wspace", "10"]])
    def test_json_prints_no_text(self, argv, r_minus_file, capsys):
        if argv[0] == "check":
            argv = argv + [r_minus_file]
        with mock.patch.object(DensePoly, "to_text", side_effect=AssertionError):
            assert main(["--format", "json"] + argv) == EXIT_OK
        assert json.loads(capsys.readouterr().out)


class TestThm2Command:
    def test_delta_minus_passes(self, r_minus_file):
        assert main(["thm2", r_minus_file, "--n", "1,2"]) == EXIT_OK

    def test_accepts_zeta_input(self, tmp_path):
        z = tmp_path / "z.json"
        z.write_text(json.dumps(rv_forward(golden_r_minus()).to_dict()))
        assert main(["thm2", str(z), "--n", "1"]) == EXIT_OK

    def test_violating_input_fails(self, w2_const_file):
        assert main(["thm2", w2_const_file, "--n", "1"]) == EXIT_CHECK_FAILED

    def test_nonconvergence_fails(self, r_minus_file):
        assert main(["thm2", r_minus_file, "--n", "1", "--kmax", "30"]) == EXIT_CHECK_FAILED

    def test_zero_first_terms_fail(self, tmp_path, capsys):
        # R = X^42 in V_42: the terms are 0 up to k = 40, then rise
        path = tmp_path / "x42.json"
        path.write_text(json.dumps(PolyX.make(42, [0] * 42 + [1]).to_dict()))
        assert main(["thm2", str(path), "--n", "1"]) == EXIT_CHECK_FAILED
        assert capsys.readouterr().out.endswith("converged=False residual_bound=+inf [FAIL]\noverall: FAIL\n")

    @pytest.mark.parametrize("name", ["r_delta_minus.json", "r_delta_plus.json"])
    def test_series_built_once_for_every_n(self, name):
        zeta._thm2_series.cache_clear()
        with mock.patch.object(zeta, "rv_inverse", wraps=zeta.rv_inverse) as inverse, \
                mock.patch.object(zeta, "laurent_coeffs", wraps=zeta.laurent_coeffs) as laurent, \
                mock.patch.object(zeta, "series_coeffs", wraps=zeta.series_coeffs) as series:
            assert main(["thm2", str(_data(name)), "--n", "1,2,3,4,5"]) == EXIT_OK
        assert inverse.call_count == 1
        assert [c.args[1] for c in laurent.call_args_list] == [1, 2, 3, 4, 5]
        assert [c.args[1] for c in series.call_args_list] == [2, 3, 4, 5, 6]

    def test_bad_n_list(self, r_minus_file):
        assert main(["thm2", r_minus_file, "--n", "0"]) == EXIT_INPUT
        assert main(["thm2", r_minus_file, "--n", "a,b"]) == EXIT_INPUT

    def test_json_report(self, r_minus_file, capsys):
        assert main(["--format", "json", "thm2", r_minus_file, "--n", "1"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["reports"][0]["n"] == 1
        assert payload["reports"][0]["converged"] is True


class TestWspaceCommand:
    def test_w10_dimensions(self, capsys):
        assert main(["--format", "json", "wspace", "10"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert (payload["dim_plus"], payload["dim_minus"]) == (2, 1)
        assert payload["dim"] == 3

    def test_odd_w_rejected(self):
        assert main(["wspace", "7"]) == EXIT_INPUT


class TestLvaluesCommand:
    def test_builtin_form(self, capsys):
        assert main(["--format", "json", "--prec", "64", "lvalues"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["weight"] == 12
        assert len(payload["values"]) == 11

    def test_newform_file(self, tmp_path, capsys):
        nf = delta_newform(64)
        path = tmp_path / "nf.json"
        an = [str(a) for a in nf.an]
        path.write_text(json.dumps(
            {"level": 1, "weight": 12, "fricke": 1, "an": an, "label": nf.label}
        ))
        assert main(["--format", "json", "--prec", "64", "lvalues", str(path)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["label"] == nf.label

    def test_bad_newform_file(self, tmp_path):
        path = tmp_path / "nf.json"
        path.write_text(json.dumps({"level": 1}))
        assert main(["lvalues", str(path)]) == EXIT_INPUT

    def test_coefficients_above_the_tail_bound_exit_2(self, tmp_path, capsys):
        # a_2..a_19 = 0 and a_n = 10^40 beyond: the truncation at nmax = 19
        # would print values far off the stated error bound
        an = [1] + [0] * 18 + [10**40] * 40
        path = tmp_path / "nf.json"
        path.write_text(json.dumps({"level": 1, "weight": 12, "fricke": 1, "an": an}))
        assert main(["lvalues", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: a_20 = ")

    @pytest.mark.parametrize("field,value", [("level", 1.9), ("weight", 12.5), ("fricke", True)])
    def test_non_integer_fields_exit_2(self, field, value, tmp_path, capsys):
        # int() would truncate these to the weight-12 level-1 form's values
        data = {"level": 1, "weight": 12, "fricke": 1, "an": [str(a) for a in delta_newform(64).an]}
        data[field] = value
        path = tmp_path / "nf.json"
        path.write_text(json.dumps(data))
        assert main(["--prec", "64", "lvalues", str(path)]) == EXIT_INPUT
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: bad newform payload: invalid literal")

    def test_coefficients_not_a_list_exit_2(self, tmp_path, capsys):
        path = tmp_path / "nf.json"
        path.write_text(json.dumps({"level": 1, "weight": 12, "fricke": 1, "an": "12"}))
        assert main(["lvalues", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: 'an' must be a JSON list")

    @pytest.mark.parametrize(
        "level, need",
        [(10**20, 472919070768), (10**34, 6688908728295615999),
         *(pytest.param(10**e, None, id=f"1e{e}") for e in (400, 700, 4000))],
    )
    def test_huge_level_needs_coefficients_at_once(self, level, need, tmp_path, capsys):
        # required_nmax finds a_1..a_M in O(log M) steps, so a huge level fails
        # its coefficient count without a scan that grows like sqrt(N); at
        # 10^34 the ratio of consecutive term bounds rounds to 1, and past
        # the double range (10^308) the level is scaled down by 4^s
        need = need or required_nmax(level, 12, 128)
        path = tmp_path / "huge_level.json"
        path.write_text(json.dumps({"level": level, "weight": 12, "fricke": 1, "an": ["1"]}))
        start = time.perf_counter()
        assert main(["lvalues", str(path)]) == EXIT_CHECK_FAILED
        assert time.perf_counter() - start < 1.0
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"precision error: need Fourier coefficients a_1..a_{need} for 128-bit work, got only 1\n"


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.mark.parametrize("flag", ["n", "tol", "format", "out", "prec", "kmax"])
def test_a_dropped_value_after_equals_is_a_usage_error(flag, capsys):
    """argparse drops the "--" of "--opt=--", leaving [] where a value
    belongs; that is a usage error (exit 2, no traceback), as a missing
    value is."""
    with pytest.raises(SystemExit) as exc:
        main(["thm2", str(_data("r_delta_plus.json")), f"--{flag}=--"])
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err.startswith("usage: zetapoly ")
    assert captured.err.endswith(f"zetapoly: error: argument --{flag}: expected one argument\n")


@pytest.mark.parametrize("argv", [
    ["check", "fricke", str(_data("r_delta_plus.json")), "--eps=--"],
    ["roots", str(_data("r_delta_plus.json")), "--mode=--"],
], ids=["eps", "mode"])
def test_a_dropped_command_option_value_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT
    flag = argv[-1].partition("=")[0]
    assert capsys.readouterr().err.endswith(f"zetapoly: error: argument {flag}: expected one argument\n")


def _main_in_fresh_interpreter(argv) -> tuple:
    """(exit code, seconds spent in cli.main, stderr) of ``argv`` run in a
    fresh interpreter, which is killed after 30 s so that a regression
    fails instead of hanging the suite."""
    code = (
        "import sys, time\n"
        "from zetapoly.cli import main\n"
        "start = time.perf_counter()\n"
        f"code = main({argv!r})\n"
        "print(time.perf_counter() - start)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    return proc.returncode, float(proc.stdout), proc.stderr


class TestHugeExponents:
    """Fraction would build 10^999999999 from these literals; they are
    refused as input errors before any digit is built."""

    def test_tolerance(self):
        code, seconds, err = _main_in_fresh_interpreter(["--tol", "1e-999999999", "wspace", "4"])
        assert (code, err) == (EXIT_INPUT, "error: the exponent of '1e-999999999' exceeds 4300 in magnitude\n")
        assert seconds < 1

    def test_coefficient(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"w": 2, "coeffs": [["1e999999999", "0"], ["1", "0"], ["1", "0"]]}))
        code, seconds, err = _main_in_fresh_interpreter(["roots", str(path)])
        assert (code, err) == (EXIT_INPUT, "error: the exponent of '1e999999999' exceeds 4300 in magnitude\n")
        assert seconds < 1

    @pytest.mark.parametrize("tol", ["1e-4300", "1E-4_300", "1e-10", "0.25", "3/7"])
    def test_exponents_up_to_the_cap_still_parse(self, tol, capsys):
        assert main(["--tol", tol, "wspace", "4"]) == EXIT_OK
        assert capsys.readouterr().err == ""


# Python's message for an int string past its 4300-digit cap, as the error quotes it
BEYOND_THE_CAP = "Exceeds the limit (4300 digits) for integer string conversion: value has 5000 di... (140 characters)"


class TestLongIntegers:
    """Exact output may hold integers past Python's 4300-digit cap on
    int-to-str conversion: printing lifts the cap, parsing keeps it."""

    def test_rv_forward_prints_them_and_rv_inverse_refuses_them(self, tmp_path, capsys):
        dens, q = [], 10**50 + 1
        while len(dens) < 101:  # distinct 51-digit (probable) primes
            if math.gcd(q, 30030) == 1 and pow(2, q - 1, q) == 1:
                dens.append(q)
            q += 2
        R = PolyX.make(100, [Fraction(1, q) for q in dens])
        Z = rv_forward(R)
        cap = sys.get_int_max_str_digits()
        assert max(c.re.denominator for c in Z.coeffs).bit_length() > cap * math.log2(10)
        r, z = tmp_path / "r.json", tmp_path / "z.json"
        r.write_text(json.dumps(R.to_dict()))
        assert main(["rv-forward", str(r), "--out", str(z)]) == EXIT_OK
        assert sys.get_int_max_str_digits() == cap
        sys.set_int_max_str_digits(0)
        try:
            assert ZetaPoly.from_dict(json.loads(z.read_text())) == Z
        finally:
            sys.set_int_max_str_digits(cap)
        assert main(["rv-inverse", str(z)]) == EXIT_INPUT
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: bad coefficient entry")
        assert len(out.err.encode()) < 300

    @pytest.mark.parametrize("entry", [
        ["1" * 5000 + "/3", "0/1"],  # past the 4300-digit parsing cap
        ["x" * 5000, "0/1"],  # not a fraction: the parser's message quotes it
        ["1e" + "9" * 5000, "0/1"],  # a decimal exponent past the cap
        "x" * 5000,  # not a pair
    ])
    def test_bad_entries_are_quoted_in_short(self, entry, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"w": 2, "coeffs": [entry, ["0/1", "0/1"], ["1/1", "0/1"]]}))
        assert main(["rv-forward", str(path)]) == EXIT_INPUT
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ") and len(out.err.encode()) < 300

    @pytest.mark.parametrize("entry,err", [
        (["1" * 5000 + "/3", "0/1"], f"bad coefficient entry ['{'1' * 78}... (5013 characters): "
         f"{BEYOND_THE_CAP}"),
        (["x" * 5000, "0/1"], f"bad coefficient entry ['{'x' * 78}... (5011 characters): "
         f"Invalid literal for Fraction: '{'x' * 49}... (5032 characters)"),
        (["1e" + "9" * 5000, "0/1"], f"bad coefficient entry ['1e{'9' * 76}... (5013 characters): "
         f"{BEYOND_THE_CAP}"),
        ("x" * 5000, f"coefficient entries must be [re, im] pairs, got '{'x' * 79}... (5002 characters)"),
        (["1/0", "0/1"], "bad coefficient entry ['1/0', '0/1']: Fraction(1, 0)"),
        (["0/1", "1/0"], "bad coefficient entry ['0/1', '1/0']: Fraction(1, 0)"),
        (["1"], "coefficient entries must be [re, im] pairs, got ['1']"),
    ], ids=["long-int", "not-a-fraction", "long-exponent", "not-a-pair", "zero-den", "zero-den-im", "one-element"])
    def test_bad_entry_messages(self, entry, err, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"w": 2, "coeffs": [entry, ["0/1", "0/1"], ["1/1", "0/1"]]}))
        assert main(["rv-forward", str(path)]) == EXIT_INPUT
        assert capsys.readouterr() == ("", f"error: {err}\n")


class TestRootsCommand:
    def test_plain_roots(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(PolyX.make(2, [-1, 0, 1]).to_dict()))
        assert main(["--format", "json", "roots", str(path)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["roots"]) == 2

    def test_mode_pass_and_fail(self, tmp_path, r_minus_file):
        zpath = tmp_path / "zq.json"
        zpath.write_text(
            json.dumps(ZetaPoly.make(2, ["1/2", "-1", "1"]).to_dict())
        )
        assert main(["roots", str(zpath), "--mode", "critical_line"]) == EXIT_OK
        # the odd period part has a root at the origin
        assert main(["roots", r_minus_file, "--mode", "unit_circle"]) == EXIT_CHECK_FAILED

    def test_precision_error_exits_one(self, tmp_path, capsys):
        # a root of modulus 27 cannot meet the residual certificate at 64
        # bits; the message names the target, 2^-32 max(||P||, 1)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(modulus_27_poly().to_dict()))
        for fmt in ("text", "json"):
            assert main(["--prec", "64", "--format", fmt, "roots", str(path)]) == EXIT_CHECK_FAILED
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err == "precision error: root iteration failed to certify residuals below 225.68\n"


class TestDeltaCommand:
    def test_passes_and_is_deterministic(self, capsys):
        assert main(["--format", "json", "delta"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["--format", "json", "delta"]) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["passed"] is True

    def test_low_precision_rejected(self):
        assert main(["--prec", "32", "delta"]) == EXIT_INPUT


# Exact basis of W_10 in the order wspace emits it.
WSPACE10_BASIS = (
    (0, 0, 1, 0, -3, 0, 3, 0, -1, 0, 0),
    (0, 4, 0, -25, 0, 42, 0, -25, 0, 4, 0),
    (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1),
)


# `zetapoly --format json thm2 r_delta_minus.json --n 1,2`, pinned byte for byte.
THM2_ODD_N12 = {
    "passed": True,
    "reports": [
        {
            "w": 10,
            "n": 1,
            "k_stop": 200,
            "converged": True,
            "abs_total": "1.88088656692e-11",
            "residual_bound": "9.58515967862e-11",
            "total": [
                "-378735488024939202869/20282409603651670423947251286016",
                "45753437254207496069/20282409603651670423947251286016",
            ],
            "tol": "1/10000000000",
        },
        {
            "w": 10,
            "n": 2,
            "k_stop": 215,
            "converged": True,
            "abs_total": "1.84992431175e-11",
            "residual_bound": "9.41120002765e-11",
            "total": [
                "-12524455867797678352893/5192296858534827628530496329220096",
                "-95233527517955955038217/5192296858534827628530496329220096",
            ],
            "tol": "1/10000000000",
        },
    ],
}


# `zetapoly --format json thm2 r_delta_plus.json --n 1,2,3,4,5`, pinned byte for byte.
THM2_EVEN_N1_5 = {
    "passed": True,
    "reports": [
        {
            "w": 10,
            "n": 1,
            "k_stop": 192,
            "converged": True,
            "abs_total": "1.5643578011e-11",
            "residual_bound": "7.91855543881e-11",
            "total": [
                "-13608757296140772825109/875946564757706516434221914914816",
                "50119448893522874133/27373330148678328638569434841088",
            ],
            "tol": "1/10000000000",
        },
        {
            "w": 10,
            "n": 2,
            "k_stop": 207,
            "converged": True,
            "abs_total": "1.53248072102e-11",
            "residual_bound": "7.74737623724e-11",
            "total": [
                "-220107206916747399292603/112121160288986434103580405109096448",
                "-852039450645896418456271/56060580144493217051790202554548224",
            ],
            "tol": "1/10000000000",
        },
        {
            "w": 10,
            "n": 3,
            "k_stop": 220,
            "converged": True,
            "abs_total": "1.92794524283e-11",
            "residual_bound": "9.72064232936e-11",
            "total": [
                "37922295452184177905820037/14351508516990263565258291853964345344",
                "34259767571866217085295037/1793938564623782945657286481745543168",
            ],
            "tol": "1/10000000000",
        },
        {
            "w": 10,
            "n": 4,
            "k_stop": 233,
            "converged": True,
            "abs_total": "1.95246845047e-11",
            "residual_bound": "9.82077579339e-11",
            "total": [
                "-2599507827432032089378519483/918496545087376868176530678653718102016",
                "-35487901599809912895868079817/1836993090174753736353061357307436204032",
            ],
            "tol": "1/10000000000",
        },
        {
            "w": 10,
            "n": 5,
            "k_stop": 246,
            "converged": True,
            "abs_total": "1.69027936078e-11",
            "residual_bound": "8.48369084445e-11",
            "total": [
                "603985141746474916862072092209/235135115542368478253191853735351834116096",
                "1964139625193004820818667225573/117567557771184239126595926867675917058048",
            ],
            "tol": "1/10000000000",
        },
    ],
}

# `zetapoly --format json thm2 r_delta_minus.json --n 1 --kmax 30`, which
# stops before converging, pinned byte for byte.
THM2_ODD_KMAX30 = {
    "passed": False,
    "reports": [
        {
            "w": 10,
            "n": 1,
            "k_stop": 30,
            "converged": False,
            "abs_total": "948374.536063",
            "residual_bound": "+inf",
            "total": ["74075398969/262144", "-237318588881/262144"],
            "tol": "1/10000000000",
        }
    ],
}


# Lambda(1..6) as `zetapoly --prec P --format json delta` prints them;
# lambda_values holds these and their mirror images Lambda(12 - s) = Lambda(s).
DELTA_LAMBDAS = {
    128: (
        "0.0059589649895782378538355644158109773246506",
        "0.0037077104649480652945032138729501143623918",
        "0.002541756054196643430247145068719373661317",
        "0.0019310992004937840075537572254948512304124",
        "0.0016339860348406993480160218298910259251324",
        "0.0015448793603950272060430057803958809843299",
    ),
    1024: (
        (
            "0.00595896498957823785383556441581097732465061776437579914068697"
            "2050076125225496911979754813271755905066708701344013588902173578"
            "1779259038818036697033507892117581917555933443232051113956891605"
            "2309476138785477221786888809918534562658854393095519666709795322"
            "92920741586820847370504173074111425647889806629226277055346"
        ),
        (
            "0.00370771046494806529450321387295011436239182332682367775816059"
            "6232040451701657745442168026269400468439390776366786906935581649"
            "2860242248844790355308623865394166066522702019958558693567535022"
            "5159492705633443094587374825561642901499334141236903266707254872"
            "99867069890814920337917430654459267511302218172724498442349"
        ),
        (
            "0.00254175605419664343024714506871937366131702276245906000383623"
            "3139878149710381707517290478994310697778454143597971228352717248"
            "4697202466557569973858119724353857472241450623008239086261859320"
            "5028301241914052321144901338057844063455103941746298820800289239"
            "59511254590427904650011347897661108100427071839997134225459"
        ),
        (
            "0.00193109920049378400755375722549485123041240798272066549904197"
            "7204187735261280075751129180348646077312182696024368180695615442"
            "3364709504606661643389908263226128159647240635395082652899757824"
            "2270569117517418278430924388313355677864236531894220451410028579"
            "6868076556813277100933199513253086849546990529829400960539"
        ),
        (
            "0.00163398603484069934801602182989102592513237177586653857389472"
            "1304207381956673954832543879353485448571863378027267218226746802"
            "5876773014215580697480219822798908375012361114791010841168338134"
            "6089622226944747920736008003037185469363995391122620670514471654"
            "02542949379560795846435866505639283778845974754283872002081"
        ),
        (
            "0.00154487936039502720604300578039588098432992638617653239923358"
            "1763350188209024060600903344278916861849746156819494544556492353"
            "8691767603685329314711926610580902527717792508316066122319806259"
            "3816455294013934622744739510650684542291389225515376361128022863"
            "74944612454506216807465596106024694796375924238635207684312"
        ),
    ),
}

# (power, reference, computed) of z_coeffs, the same at 128 and 1024 bits.
DELTA_Z_COEFFS = (
    (10, "5.11e-7", "5.10879002901e-7"),
    (9, "-2.554e-6", "-2.5543950145e-6"),
    (8, "6.01e-5", "6.01122133612e-5"),
    (7, "-2.25e-4", "-0.000225122483358"),
    (6, "0.00180", "0.00180207477335"),
    (5, "-0.00463", "-0.00462902408736"),
    (4, "0.0155", "0.0154988296987"),
    (3, "-0.0235", "-0.0235401533589"),
    (2, "0.0310", "0.0309718497083"),
    (1, "-0.0199", "-0.019936522948"),
    (0, "0.00596", "0.00595896498958"),
)


# `zetapoly --prec P delta` as the text form prints it, with its
# rounding-noise fields masked (``_mask_delta_noise``).
DELTA_TEXT = """precision: {prec} bits
completed-L symmetry max deviation: 0.0
even scale factor: 0.114379022439 (reference 0.114379, ok=True)
odd scale factor:  0.00926927616237 (reference 0.00926927, ok=True)
coefficient pattern max relative deviation: <noise>
zeta-polynomial coefficients vs reference:
{z_coeffs}
exact transform matches golden zeta data: True
golden polynomials satisfy all relations: True
zeta roots on critical line: True (max dev <noise>)
period roots on unit circle: True (max dev <noise>)
odd part fails unit circle with deviation: 1.0
overall: pass
"""
# sha256 of `zetapoly --prec P --format json delta`, noise masked.
DELTA_JSON_DIGEST = {
    64: "0441d7336da5d4f6dedd75330a75907c7fc2be142aa09da7415caebbba6b614f",
    128: "5eb574ad8afc27082baa60f119412792bc4645e6e91b22097070f87b538f7354",
    1024: "4da9889685b1ce3bea5ecff15b71db9af9fd9f1893fdfc6ce4a5266550b22f85",
    4096: "b145caefcf222be7e6485e1e2679241e0a0e068f85a064e39280880596ff4936",
}


def _level11_newform_file(path) -> str:
    """A level-11 weight-4 newform file, Fricke sign -1, with seeded
    a_n in [-n^(3/2), n^(3/2)] (enough of them for 1024-bit work); data
    for the series, not a modular form."""
    rng = random.Random(11)
    nmax = required_nmax(11, 4, 1024)
    an = [1] + [rng.randint(-math.isqrt(n**3), math.isqrt(n**3)) for n in range(2, nmax + 1)]
    path.write_text(json.dumps(
        {"level": 11, "weight": 4, "fricke": -1, "an": [str(a) for a in an], "label": "11.4 seeded"}
    ))
    return str(path)


# `zetapoly --prec 64 lvalues`, byte for byte.
LVALUES_64_TEXT = """newform 1.12.a.a, level 1, weight 12
  s=1: Lambda=0.005958964989578237853836 L=0.03744128126851554173877
  s=2: Lambda=0.003707710464948065294503 L=0.146374542091265989413
  s=3: Lambda=0.002541756054196643430247 L=0.3152415658809930842869
  s=4: Lambda=0.001931099200493784007554 L=0.5016176475109022151687
  s=5: Lambda=0.001633986034840699348016 L=0.6667091884340036438261
  s=6: Lambda=0.001544879360395027206043 L=0.7921228386460305693559
  s=7: Lambda=0.001633986034840699348016 L=0.8773541253886609164532
  s=8: Lambda=0.001931099200493784007554 L=0.9307070302981260942029
  s=9: Lambda=0.002541756054196643430247 L=0.9621264596944258632663
  s=10: Lambda=0.003707710464948065294503 L=0.9798090882512205158576
  s=11: Lambda=0.005958964989578237853836 L=0.9894329131003375995554
"""
# sha256 of `zetapoly --prec P --format F lvalues [FILE]`, for the
# built-in form and the level-11 file.
LVALUES_DIGEST = {
    ("builtin", 64, "text"): "6f7b899cbceb4d51c6af3c22e07ec497556174f33a2482e2482c6814eb378cf4",
    ("builtin", 64, "json"): "007798fc1554f49e46ef9c3fb28db0b062a47f28fa62fe95983a83c02867994a",
    ("builtin", 128, "text"): "cbaadde08c87dad83e13b947b69b20a35899691beca47354e51865a6b3a522df",
    ("builtin", 128, "json"): "5184a070fabd9f7c496d8fb268be911ad5868b7f766b04254b9679fdbeab624b",
    ("builtin", 1024, "text"): "319e9842e3c8982260c81fb7da73cea93f0ca1fb9f78a56f533196e3964f87f2",
    ("builtin", 1024, "json"): "626c45680093ae3b7a15c1d51a910b2a0a503ee209ca8cdd31c7f4dc211a864a",
    ("builtin", 4096, "text"): "453bad93d88417244a1ff6077893302cf2cdd1d47fb0b47876e94fcdeede1f4f",
    ("builtin", 4096, "json"): "04cfac20a1421638166def8b8683f2699fb80c2c713f02f031c7398abfa2872c",
    ("level11", 64, "text"): "127d237d50ba3c4c05e1c2cfd869c0618708b4ec5855e89b8622c6db896c1801",
    ("level11", 64, "json"): "dbaf446900fd68207a9f7bebe7fbfe58a1fdc95a428189073ea0d15dd3d25d3b",
    ("level11", 128, "text"): "aee7f522be473324b23cad72b1c7f5ce448fca8d4020f988a98f826f2cb6cf40",
    ("level11", 128, "json"): "89960977507d3c525f0d3b7650db7d79a019fd346239b67c908851621803939f",
    ("level11", 1024, "text"): "36eb000cadf7fea912827259c83e14b5c8c8a34a67904f9a6dae36a75856814c",
    ("level11", 1024, "json"): "fe5d283c694ea1cfe55984082a58d9fe5f2786703faf0b6e9785bb8a6bcf56a9",
}


def _mask_delta_noise(out: str, fmt: str, prec: int) -> str:
    """``delta`` output with its rounding-noise fields replaced by
    "<noise>": the coefficient pattern's max relative deviation (checked
    to be below 2^-prec), the max deviations of the two numeric root
    checks and, in JSON, their root components below 2^(16 - prec) in
    size (each checked to be below 2^(16 - prec))."""
    limit = mpmath.mpf(2) ** (16 - prec)

    def noise(value: str, bound=limit) -> str:
        assert abs(mpmath.mpf(value)) < bound
        return "<noise>"

    pattern_bound = mpmath.mpf(2) ** -prec
    if fmt == "text":
        out = re.sub(
            r"(?m)^(coefficient pattern max relative deviation: )(.*)$",
            lambda m: m.group(1) + noise(m.group(2), pattern_bound),
            out,
        )
        return re.sub(r"\(max dev ([^)]*)\)", lambda m: f"(max dev {noise(m.group(1))})", out)
    payload = json.loads(out)
    assert json.dumps(payload, indent=2) + "\n" == out  # the bytes follow from the payload
    payload["pattern_max_rel_dev"] = noise(payload["pattern_max_rel_dev"], pattern_bound)
    for key in ("z_roots_critical_line", "r_roots_unit_circle"):
        report = payload[key]
        report["max_deviation"] = noise(report["max_deviation"])
        report["roots"] = [
            [noise(x) if abs(mpmath.mpf(x)) < limit else x for x in z] for z in report["roots"]
        ]
    return json.dumps(payload, indent=2) + "\n"


# (exit code, sha256 of stdout) of `check RELATION` in each format on the
# seeded w = 100 file of test_check_seeded_w100 and on its perturbed copy
CHECK_W100 = {
    ("es1", "text"): (
        (EXIT_OK, "2ad497ea3f557b5325eccfd5f1b2a4978f9cade806efe91c62b61b59ede20946"),
        (EXIT_CHECK_FAILED, "a37e71aeae459b4f14b4e67e85e133fac8c9b62c3bca9fe4ba59fbe4fdefc7dc"),
    ),
    ("es1", "json"): (
        (EXIT_OK, "a0a89f4af1c03b23073de44d8a89fdffaf878dfeeb2becb133f8d8f8c37024ce"),
        (EXIT_CHECK_FAILED, "2882187b15b3f54ff092cda4baa39e4b6cf6211477abe54e8664dc3362f03b21"),
    ),
    ("fricke", "text"): (
        (EXIT_CHECK_FAILED, "bd54eef1e73452df78fbb3955c7300e7d981b02384339596ffd78a9e3c159078"),
        (EXIT_CHECK_FAILED, "affd0717604e8f8e4a25ff3f8718882b2d24209c2c6b4970cda467801d2a8cc7"),
    ),
    ("fricke", "json"): (
        (EXIT_CHECK_FAILED, "8ce850ec4989dabb85b369064abc9058f0bff05ba0f46bec47737101c31e47cb"),
        (EXIT_CHECK_FAILED, "c960b89a0eb0ee20b8d04e5669848f77a5b755d343d517204f6b3bbb56ea428d"),
    ),
    ("es2", "text"): (
        (EXIT_CHECK_FAILED, "95dbd7f7a7ec7fe72ecacc8fc0d7bb7c2bb595f9bb0cd5c0489288f270956e2e"),
        (EXIT_CHECK_FAILED, "13ddaa7c1e911efeddbfa943fc08e7307e6158849015ea6ed306846832f5a836"),
    ),
    ("es2", "json"): (
        (EXIT_CHECK_FAILED, "bd99d68ac0165c7ac412a0dc7638c822130047fbf06a3e76e3e39dc033cbc4b1"),
        (EXIT_CHECK_FAILED, "194a10cedb79cf5a58e012a95f867d481063aa9b009b5b8b8fc3cacdea11232a"),
    ),
    ("res2", "text"): (
        (EXIT_CHECK_FAILED, "7aaf0a3c6e7a7cedae53b91bb3152244d7cd1e1e6d7d5df7cf24b8db6b1a04ec"),
        (EXIT_CHECK_FAILED, "84280e036b593d70ac87562225394beb5ea152df6202b993cf96ffa352d0cd5d"),
    ),
    ("res2", "json"): (
        (EXIT_CHECK_FAILED, "ceeb3f28709403aa756f4f1d55e5524bd970789b3e27b1f43bd7ada2b47efd8d"),
        (EXIT_CHECK_FAILED, "4a1858476620e86e393d1a8b99a08a6cdc1442550dc841ae9fdd5c4e6d50c06e"),
    ),
}


# (exit code, sha256 of stdout) of `roots FILE [--mode MODE]` on each golden
# file, the same at 64, 128 and 1024 bits: roots print to 20 digits and the
# deviation to 8
ROOTS_DIGEST = {
    ("r_delta_minus", "text", None): (
        EXIT_OK, "fc842f6bca60be0998c424dcd007647f7064039ccb0e69ae0b0a8977003b2bf6"
    ),
    ("r_delta_minus", "text", "critical_line"): (
        EXIT_CHECK_FAILED, "b4854c4f69227f565c24df8a6389456f0fe95d361f2c86f4186644307b0e9247"
    ),
    ("r_delta_minus", "text", "unit_circle"): (
        EXIT_CHECK_FAILED, "6e15de70a3982ec6399ff62e46870f905656515b142150dddd40909747dc2c17"
    ),
    ("r_delta_minus", "json", None): (
        EXIT_OK, "a6e62a3331d8d2497c6ad0eaba63e83ef3209b6de9fc6baec3cbdd2b655569e1"
    ),
    ("r_delta_minus", "json", "critical_line"): (
        EXIT_CHECK_FAILED, "0e46cb2ea1add697a4c2b1d0914d535a41080086a22b953c5942e4dd39cad899"
    ),
    ("r_delta_minus", "json", "unit_circle"): (
        EXIT_CHECK_FAILED, "055f6b43a9bede61f0d63d10fabcdc93e3ada69fc7a22964a30965fd726681e5"
    ),
    ("r_delta_plus", "text", None): (
        EXIT_OK, "e715b8a8bf28167a2006aef361d940a95e17daf24304adf298a411a00b958ff5"
    ),
    ("r_delta_plus", "text", "critical_line"): (
        EXIT_CHECK_FAILED, "2f9dd771e6dfc040191d7df1896f034859e706f1be68376c0d3b60fc584d1bda"
    ),
    ("r_delta_plus", "text", "unit_circle"): (
        EXIT_CHECK_FAILED, "1276a7292be086273d82e3394be7a91f5ac42c607a771170983ff42d8b382af7"
    ),
    ("r_delta_plus", "json", None): (
        EXIT_OK, "82dd89a91b79cbb94ba740348dc0e7af6d3701213044571fcbae8ac3dde30936"
    ),
    ("r_delta_plus", "json", "critical_line"): (
        EXIT_CHECK_FAILED, "904cac181aca7236439db3426385126cdd55167459530dd5fe9cf99ea5d755d2"
    ),
    ("r_delta_plus", "json", "unit_circle"): (
        EXIT_CHECK_FAILED, "758f88fea3d1bc4cf2fc001212b4615e6c13c2e50e883c2b1eca68cb919beabf"
    ),
    ("z_delta_minus", "text", None): (
        EXIT_OK, "4d542facf1bccf6f4bad2ab0bb0b121618c0c22df12a6161b2a0f99a1f028d58"
    ),
    ("z_delta_minus", "text", "critical_line"): (
        EXIT_CHECK_FAILED, "bb0ebed2e1f28ce6c458f4c48049e1ee43a64824ac3771c5ad0b69938d4c8c84"
    ),
    ("z_delta_minus", "text", "unit_circle"): (
        EXIT_CHECK_FAILED, "7fcd10060b91d0668ee98aa2e4d57bfd29b990fc608a3e5b7add4403598deb08"
    ),
    ("z_delta_minus", "json", None): (
        EXIT_OK, "66009a4c26afee5c24a67536b52be170967fa67b99fc0d407f9f73d280075269"
    ),
    ("z_delta_minus", "json", "critical_line"): (
        EXIT_CHECK_FAILED, "595b14926762b73984721a64421485d42a97678dcc9a110e46d5eff5478d49ff"
    ),
    ("z_delta_minus", "json", "unit_circle"): (
        EXIT_CHECK_FAILED, "332bf8d6568aa0fa84f5f433dc32cc1c359aefc9d5169a0b6fc0f4044d85dc8c"
    ),
}


# sha256 of `zetapoly --format json wspace W` for every even W from 2 to 120.
WSPACE_JSON_DIGEST = {
    2: "db566912aa048f8ee7180ffdb3b7a7ec0a1af28e54253bbe5a96c00eb4296e0f",
    4: "6df6a6dcc14c7873dea0fe253548942882c89b9c7d7736011faa0e99d0c5f038",
    6: "c2865c7c9bd0518495308f4a863c293004432c663cb10ce6f34caf4529d8b809",
    8: "3d4756028a9afa52eefc402e4f2e4606426cf76b51ad1a02e4f517656939c102",
    10: "43667b4192c31dc691e39c46f1bd2740857382eb51b8b63022397f058b553e7e",
    12: "e3b7f733a8285b68e319cfb810cd1dfc19996f5d2b38d40b9055846209ac865c",
    14: "7daf9d1a06c76e63edc42e182b23b1008c12a14529b836acbf95425461462dfe",
    16: "976fc0abe398a8d8869d939cec621ce6536f84903ed495d80de70caf7ab2ef72",
    18: "ff4608abb14fd4b70f7d082581a1ddfe8b45cf63ef4e072169a050aed3a3f3d5",
    20: "f8b2443306f01f47acb432e712ee1914a2293d9afce72eb334c971900bf33344",
    22: "c25434ee78f49cfd5c3e8c64eaef8682d692dd1db5a21e1f9590c0d003d33c09",
    24: "989183e3a9f863c2d9154aa39261201ff29d262d15777936cab7663de012ef9b",
    26: "29d23f079e555024b877d2bda2d581c3464f678d62cb87cee750d7c731420ac8",
    28: "717948fb01a02e5a6031c137072a8617755ea18e357aa1e058611cedbcc25bd0",
    30: "5eed28958f92c50e06222c5a9a8230d0e55c242c91bac58aedd49d5f2e2778e3",
    32: "b2ea7fc84242ef7673e15bbb9cadce68fa0fee6e6cc48cfa5fdf8aa0c4dd2545",
    34: "ccd3ef4914b9933c50409a19bd0fe56b3f0e5cbea3ec7b755d8179edacfd52a6",
    36: "3d9be26f1eda40ab7f9dfbc6f0eea9434158e493fbe06ab66db33cc16e5f874a",
    38: "50ed9def7fec3d255341c8f5d0045349aabb1a0a776cdc2a664fc19205a9e695",
    40: "9b7447841d67f8db126c4ee295bd60cc518efc7668342252d0772a646dc7d860",
    42: "894280aee9c2def7b0f5214fe59e5c8396986deab8157b059eae5bdc524f6deb",
    44: "b49a058ef9af57b2cdd12d05d7d35e331b7c8e57a44f1e6e2ffe85fb4e4cbd28",
    46: "4312e0ac72c2dfdbd2f6aff6922da834ee2107430ca3a6418a2106aa9eeb457f",
    48: "e9c637de0b318f86ff4fcfca8ed7046a5f3f9e5020fa1449e03858f9751ced49",
    50: "19784e22b2e280b0ff119670fa028366192fc95f74ea45eb7aa0178b6fabdcc0",
    52: "477c4efab051dff3106fd83bb2123336e0cca79eab17e04f15e7b891d7ff2c44",
    54: "3b0722630a6abb3a57608748083452520972cec2c1889e5f3193b40d1c77751d",
    56: "f69351b94b5ed0901c809561ce5a0fee67d01fef7befbf22daca019e466f1dd6",
    58: "d26f785a38db52a55a628d77c32efa70e890aec0916cd87fee28956e11b84c1a",
    60: "7ae59e01cfd1e89882bf0ec70ef4f76d19ad82acc2430c00dbc864b2a1c4c9dc",
    62: "3b602f23f6e9e5819b91d9ef5a1560d4123066287256d53bae2f13d86d481b04",
    64: "c74350c0e28c9caad38604e8b96c9b7b09818db1273c0b19608531c26ff8e594",
    66: "a5605a0ce2f80e61308fe241f014e65bd94e6474bdb52d10fd6512fb7c8e6e79",
    68: "bc4677ca5b4546e7717315ddc0db227ed35831a8a51adfab1cb61d133dc4d85d",
    70: "6dfb44365020fe68d515b13881c686be689f92e9c6e2e9a7d659bdd9a66feb14",
    72: "6704d0dca3fcfe72901b380c362a1e7ea746f20fecdf70911b25922cbef47c57",
    74: "0165708094fe480ce1d3059ea98fc5d857b79d839632442fec5771da9df2cab3",
    76: "65c7f5fd029a41f71315534aeff2af8bf08a00d0f5a40791a9aee882423187d4",
    78: "236213a628d739e4c485c8b9da8d8d418c1856532545d908aa492446a56d8f41",
    80: "248d86acbf03f58559e5ca2522b3813d63d0fd9807fa89964f768e0f111387d5",
    82: "dacfe1f2d17d2249c97229a388b2505839be79e9f1b592353494eb6f8134f3c7",
    84: "3b39a07264a0aced6da664000843f980bc48f742121c3592a8591e8cc17dece7",
    86: "211efe07315c781dee3076a4deac7c10802164b4023f4f3399f31f9fe2ed9075",
    88: "bc008f6a68fe098bbd7b7d3755cd9ad36c1bc2ea4755586b3722547432265d6a",
    90: "cef847382d882cc04961d2516f4dbd1c8d4383befc773c57d23ef620317a9fdc",
    92: "3818fc7688028d608ab6f5edff7c3a6c9144053fd28c5ead8511e673ede06f3e",
    94: "15f799d155d33d791fa2d97baa0180363edc1a72eec6c8ab666b28ae268addd9",
    96: "8ab497523c2afddc5ee07dca7fced77058ae1bfe61e904fbea6b8654237caa82",
    98: "422e72a4ff1864d98f301d6a3182db2b633df4db577a47fc449f5627f7d4e273",
    100: "8bfeb33f3488184bddad7e4be22b6e15c85ebcf0fa86f500cc5607e840686dc6",
    102: "a7fca3e38876473bbb8995303c64c3e6b38c36c621746162b9ab647c79dcebd6",
    104: "88c9bb9fab73fb7605c1f93a817d18dd598679ba7b96778e9f7694fe0b788c00",
    106: "c906852b36c17a7506f5cb10c04031da230a882ea41dcc6111670f6505153545",
    108: "4f951dedb2a9429ccfa0f341101f6b52476402b21b5cf54a231d6543d578e64b",
    110: "566cb2192ff7e820781554c61ebb3524bacd0fc3cc04ce27ece74bdffbf56638",
    112: "5857d730469bd7e49afc8883930b5379a780a708aa8c78c90cbb01fe9664d01a",
    114: "87352e2485d746d23b9e451c337279190f30b6a781fc5f1ff1bcc8a5aa79cf5c",
    116: "913c13ea0b140a8e0090bb2e65153732d3d7da80fa69cb118c00c7ea9239d970",
    118: "26ee7204fd09a04c45acb151fc6e8b170e933b1c8fd594266f21292d9657bfda",
    120: "b9ef661da0689e37c8f3ff3f3be36c3a2d82d51dd9639ea37925f11eed93ece4",
}


class TestOutputBytes:
    """The exact bytes written, not just their parsed content."""

    def test_rv_forward_writes_the_golden_zeta_file(self, tmp_path, capsys):
        golden = json.loads(_data("z_delta_minus.json").read_text())
        del golden["source"]
        expected = json.dumps(golden, indent=1) + "\n"
        r_minus = str(_data("r_delta_minus.json"))
        assert main(["rv-forward", r_minus]) == EXIT_OK
        assert capsys.readouterr().out == expected
        out = tmp_path / "z.json"
        assert main(["rv-forward", r_minus, "--out", str(out)]) == EXIT_OK
        assert out.read_text() == expected

    def test_rv_forward_seeded_w100_digest(self, tmp_path, capsys):
        path = _write_poly(tmp_path / "r.json", _seeded_w100(1411))
        digest = "21b430551ec579906a4f702676c0b48b16dd9cfe6e3f516fe58584612f414ea8"
        assert main(["rv-forward", path]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
        out = tmp_path / "z.json"
        assert main(["rv-forward", path, "--out", str(out)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_rv_inverse_seeded_w100_digest(self, tmp_path, capsys):
        z = tmp_path / "z.json"
        r = _write_poly(tmp_path / "r.json", _seeded_w100(1411))
        assert main(["rv-forward", r, "--out", str(z)]) == EXIT_OK
        digest = "a16946f3a08b3732a1ac7b64a77784de14dccbaf50816ffefb5d3912d5d9f832"
        assert main(["rv-inverse", str(z)]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
        out = tmp_path / "r_back.json"
        assert main(["rv-inverse", str(z), "--out", str(out)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("relation", ["es1", "fricke", "es2", "res2"])
    def test_check_seeded_w100(self, relation, fmt, tmp_path, capsys):
        """A dense w = 100 file satisfying r|(1+S) = 0, then the same with
        a_3 moved by 5/2 (the es1 residual is then 5/2 at X^3 and -5/2 at
        X^97, and 0 elsewhere)."""
        coeffs = _seeded_w100(1412, es1=True)
        ok = _write_poly(tmp_path / "ok.json", coeffs)
        coeffs[3] = [coeffs[3][0] + Fraction(5, 2), coeffs[3][1]]
        bad = _write_poly(tmp_path / "bad.json", coeffs)
        eps = ["--eps", "1"] if relation == "fricke" else []
        for path, (code, digest) in zip((ok, bad), CHECK_W100[relation, fmt]):
            assert main(["--format", fmt, "check", relation, path] + eps) == code
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_wspace_text(self, capsys):
        assert main(["wspace", "10"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "w=10: dim W = 3, dim W+ = 2, dim W- = 1\n"
            "  basis: 0 0 1 0 -3 0 3 0 -1 0 0\n"
            "  basis: 0 4 0 -25 0 42 0 -25 0 4 0\n"
            "  basis: 1 0 0 0 0 0 0 0 0 0 -1\n"
        )

    def test_wspace_json(self, capsys):
        assert main(["--format", "json", "wspace", "10"]) == EXIT_OK
        payload = {
            "w": 10,
            "dim": 3,
            "dim_plus": 2,
            "dim_minus": 1,
            "basis": [[[f"{v}/1", "0/1"] for v in vec] for vec in WSPACE10_BASIS],
        }
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize(
        "w,fmt,digest",
        [
            (30, "text", "61a23c8bf07ddbe4041cf87ce0536858d240fc8f45c75349be01e67c4ddbae9a"),
            (60, "text", "88222ac3ab4f6c8395a09e79dc55e134971d0fff15a85b9b9ad7163f93e74900"),
            *((w, "json", digest) for w, digest in WSPACE_JSON_DIGEST.items()),
        ],
    )
    def test_wspace_digest(self, w, fmt, digest, capsys):
        assert main(["--format", fmt, "wspace", str(w)]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_check_es2_on_odd_part_text(self, capsys):
        r_minus = str(_data("r_delta_minus.json"))
        assert main(["check", "es2", r_minus]) == EXIT_CHECK_FAILED
        assert capsys.readouterr().out == (
            "relation es2: FAILS\n"
            "residual: 100 -500 1200 -1800 2100 -2100 2100 -1800 1200 -500 100\n"
        )

    def test_thm2_on_odd_part(self, capsys):
        r_minus = str(_data("r_delta_minus.json"))
        assert main(["thm2", r_minus, "--n", "1,2"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "n=1: |total|=1.88089e-11 k_stop=200 converged=True residual_bound=9.58516e-11 [ok]\n"
            "n=2: |total|=1.84992e-11 k_stop=215 converged=True residual_bound=9.4112e-11 [ok]\n"
            "overall: pass\n"
        )
        assert main(["--format", "json", "thm2", r_minus, "--n", "1,2"]) == EXIT_OK
        assert capsys.readouterr().out == json.dumps(THM2_ODD_N12, indent=2) + "\n"

    def test_thm2_failure_on_odd_part(self, capsys):
        """The non-converged run: |total| is large and residual_bound is +inf."""
        r_minus = str(_data("r_delta_minus.json"))
        argv = ["thm2", r_minus, "--n", "1", "--kmax", "30"]
        assert main(argv) == EXIT_CHECK_FAILED
        assert capsys.readouterr().out == (
            "n=1: |total|=948375.0 k_stop=30 converged=False residual_bound=+inf [FAIL]\n"
            "overall: FAIL\n"
        )
        assert main(["--format", "json", *argv]) == EXIT_CHECK_FAILED
        assert capsys.readouterr().out == json.dumps(THM2_ODD_KMAX30, indent=2) + "\n"

    def test_thm2_on_even_part(self, capsys):
        r_plus = str(_data("r_delta_plus.json"))
        assert main(["thm2", r_plus, "--n", "1,2,3,4,5"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "n=1: |total|=1.56436e-11 k_stop=192 converged=True residual_bound=7.91856e-11 [ok]\n"
            "n=2: |total|=1.53248e-11 k_stop=207 converged=True residual_bound=7.74738e-11 [ok]\n"
            "n=3: |total|=1.92795e-11 k_stop=220 converged=True residual_bound=9.72064e-11 [ok]\n"
            "n=4: |total|=1.95247e-11 k_stop=233 converged=True residual_bound=9.82078e-11 [ok]\n"
            "n=5: |total|=1.69028e-11 k_stop=246 converged=True residual_bound=8.48369e-11 [ok]\n"
            "overall: pass\n"
        )
        assert main(["--format", "json", "thm2", r_plus, "--n", "1,2,3,4,5"]) == EXIT_OK
        assert capsys.readouterr().out == json.dumps(THM2_EVEN_N1_5, indent=2) + "\n"

    def test_thm2_unsorted_n_with_a_repeat(self, capsys):
        """Reports follow the --n list as given, n = 1 twice: a memo shared
        across calls must not change a later report."""
        argv = ["thm2", str(_data("r_delta_minus.json")), "--n", "5,1,3,1"]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == (
            "n=5: |total|=1.56055e-11 k_stop=255 converged=True residual_bound=7.88093e-11 [ok]\n"
            "n=1: |total|=1.88089e-11 k_stop=200 converged=True residual_bound=9.58516e-11 [ok]\n"
            "n=3: |total|=1.75397e-11 k_stop=229 converged=True residual_bound=8.9031e-11 [ok]\n"
            "n=1: |total|=1.88089e-11 k_stop=200 converged=True residual_bound=9.58516e-11 [ok]\n"
            "overall: pass\n"
        )
        assert main(["--format", "json", *argv]) == EXIT_OK
        digest = "a4bedf85ddfe77df478a2e36c65d2702b83a4d41e1e5af3d2af694226d7c1aa3"
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("prec", [64, 128, 1024, 4096])
    def test_delta_bytes_up_to_rounding_noise(self, prec, capsys):
        assert main(["--prec", str(prec), "delta"]) == EXIT_OK
        z_coeffs = "\n".join(
            f"  s^{p}: computed {val} reference {ref} ok=True" for p, ref, val in DELTA_Z_COEFFS
        )
        assert _mask_delta_noise(capsys.readouterr().out, "text", prec) == DELTA_TEXT.format(
            prec=prec, z_coeffs=z_coeffs
        )
        assert main(["--prec", str(prec), "--format", "json", "delta"]) == EXIT_OK
        masked = _mask_delta_noise(capsys.readouterr().out, "json", prec)
        assert hashlib.sha256(masked.encode()).hexdigest() == DELTA_JSON_DIGEST[prec]

    @pytest.mark.parametrize("form,prec,fmt", sorted(LVALUES_DIGEST))
    def test_lvalues(self, form, prec, fmt, tmp_path, capsys):
        src = [] if form == "builtin" else [_level11_newform_file(tmp_path / "nf.json")]
        assert main(["--prec", str(prec), "--format", fmt, "lvalues", *src]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        if (form, prec, fmt) == ("builtin", 64, "text"):
            assert captured.out == LVALUES_64_TEXT
        assert hashlib.sha256(captured.out.encode()).hexdigest() == LVALUES_DIGEST[form, prec, fmt]

    @pytest.mark.parametrize("prec", [64, 128, 1024])
    @pytest.mark.parametrize("name", ["r_delta_minus", "r_delta_plus", "z_delta_minus"])
    def test_roots_on_golden_files(self, name, prec, capsys):
        path = str(_data(f"{name}.json"))
        for fmt in ("text", "json"):
            for mode in (None, "critical_line", "unit_circle"):
                argv = ["--prec", str(prec), "--format", fmt, "roots", path]
                code = main(argv + (["--mode", mode] if mode else []))
                digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
                assert (code, digest) == ROOTS_DIGEST[name, fmt, mode]

    @pytest.mark.parametrize("prec", [128, 1024])
    def test_delta_lambda_values_and_z_coeffs(self, prec, capsys):
        assert main(["--prec", str(prec), "--format", "json", "delta"]) == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        lambdas = DELTA_LAMBDAS[prec]
        assert d["lambda_values"] == {
            str(s): lambdas[min(s, 12 - s) - 1] for s in range(1, 12)
        }
        assert [(c["power"], c["reference"], c["computed"]) for c in d["z_coeffs"]] == list(
            DELTA_Z_COEFFS
        )
        assert all(c["ok"] for c in d["z_coeffs"])
