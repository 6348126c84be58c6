"""Command-line surface: rendering, exit codes, JSON contracts."""

import json
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from carleman import CoefficientTable, parse_rational, refinement_factor, report_from_json
from carleman.cli import MAX_DIGITS, MAX_TABLE_N, build_parser, main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeffs_csv_exact(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--max-n", "3", "--mode", "exact",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["1,1/2,1/2", "2,1/24,1/6", "3,1/48,1/12"]


def test_coeffs_csv_decimal(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--max-n", "1", "--mode", "decimal",
                           "--digits", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["1,0.5000,0.5000"]


def test_coeffs_exact_strings_parse_back(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--max-n", "12", "--format", "csv")
    assert code == 0
    table = CoefficientTable.from_recurrence(12)
    for line in out.splitlines():
        n, value, _bound = line.split(",")
        assert parse_rational(value) == table.value(int(n))


def test_coeffs_json(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--max-n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"][1] == {"n": 2, "value": "1/24", "bound": "1/6"}


def test_coeffs_table_format(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--max-n", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["n", "value", "bound"]
    assert lines[1].split() == ["1", "1/2", "1/2"]


def test_coeffs_rejects_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--max-n", "0"])
    assert exc.value.code == 2


def test_verify_small_run_round_trips(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "30", "--quad-max", "10")
    assert code == 0
    report = report_from_json(out)
    assert report.all_passed
    assert report.summary["reported"] == 1


def test_verify_fault_injection(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "30", "--quad-max", "10",
                           "--inject-fault", "20")
    assert code == 1
    report = report_from_json(out)
    assert not report.all_passed
    failed = {c.name: c for c in report.checks if c.status == "fail"}
    assert "coefficient-decrease" in failed
    assert failed["coefficient-decrease"].claim_ref == "Eq. (3.3)"


def test_verify_usage_errors(capsys):
    for argv in (
        ["verify", "--max-n", "10", "--quad-max", "20"],
        ["verify", "--tol", "-1"],
        ["verify", "--max-n", "3"],
        ["verify", "--max-n", "30", "--inject-fault", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_factor_table_output(capsys):
    code, out, _ = run_cli(capsys, "factor", "--x", "1", "--terms", "6")
    assert code == 0
    assert "(1 + 1/x)**x      = 2.0" in out
    assert "exact 136711531/185794560" in out


def test_factor_json(capsys):
    code, out, _ = run_cli(capsys, "factor", "--x", "1", "--terms", "1",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["weight_exact"] == "3/4"
    assert payload["weight"] == 0.75
    assert payload["power"] == 2.0
    assert payload["scaled_weight"] > 2.0
    assert 0.0 < payload["gap"] < payload["tail_bound"]


def test_factor_float_point(capsys):
    code, out, _ = run_cli(capsys, "factor", "--x", "2.5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["weight_exact"] is None
    assert payload["x"] == 2.5


def test_factor_rational_point(capsys):
    code, out, _ = run_cli(capsys, "factor", "--x", "1/2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["x"] == "1/2"
    assert payload["weight_exact"] is not None


def test_factor_at_large_x(capsys):
    """Above x ~ 1e17 the float weight rounds to 1.0; the exact one stays below 1."""
    for x in ("100000000000000000000", "1e300"):
        code, out, _ = run_cli(capsys, "factor", "--x", x, "--format", "json")
        assert code == 0, x
        payload = json.loads(out)
        assert payload["weight"] == 1.0
        if payload["weight_exact"] is not None:
            assert parse_rational(payload["weight_exact"]) < 1


def test_factor_prints_exact_weight_past_int_digit_limit(capsys):
    code, out, _ = run_cli(capsys, "factor", "--x", "100000000000000000000", "--terms", "200")
    assert code == 0
    num, den = re.search(r"\(exact (-?\d+)/(\d+)\)", out).groups()
    exact = refinement_factor(10**20, 200, CoefficientTable.from_recurrence(200)).exact_value
    assert len(den) > 4300
    assert (Decimal(num), Decimal(den)) == (exact.numerator, exact.denominator)


def test_factor_at_subnormal_x(capsys):
    code, out, _ = run_cli(capsys, "factor", "--x", "1e-320", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["power"] == 1.0
    assert 0.0 < payload["gap"] < payload["tail_bound"]


def test_factor_rejects_nonpositive(capsys):
    for bad in ("0", "-1", "0/5", "abc"):
        with pytest.raises(SystemExit) as exc:
            main(["factor", "--x", bad])
        assert exc.value.code == 2, bad


def test_factor_rejects_exact_x_above_float_range(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["factor", "--x", "1" + "0" * 400])
    assert exc.value.code == 2
    assert "error: argument --x: outside the floating-point range" in capsys.readouterr().err


def test_factor_rejects_exact_x_below_float_range(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["factor", "--x", "1/1" + "0" * 400])
    assert exc.value.code == 2
    assert "error: argument --x: outside the floating-point range" in capsys.readouterr().err


@pytest.mark.parametrize("x", ["1" + "0" * 5000, "1/1" + "0" * 5000])
def test_factor_rejects_x_past_int_digit_limit(capsys, x):
    # more digits than int() reads by default: still a number, out of range
    with pytest.raises(SystemExit) as exc:
        main(["factor", "--x", x])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --x: outside the floating-point range" in err
    assert "0" * 400 not in err


def test_table_length_ceiling(capsys):
    for argv in (["coeffs", "--max-n"], ["verify", "--max-n"],
                 ["factor", "--x", "1", "--terms"]):
        assert build_parser().parse_args(argv + [str(MAX_TABLE_N)])
        with pytest.raises(SystemExit) as exc:
            main(argv + [str(MAX_TABLE_N + 1)])
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert f"error: argument {argv[-1]}: must be at most {MAX_TABLE_N}" in err


@pytest.mark.parametrize("argv, code, golden", [
    (["verify"], 0, "verify.json"),
    (["verify", "--max-n", "30", "--quad-max", "10", "--inject-fault", "7"], 1,
     "verify_max30_fault7.json"),
    (["coeffs", "--max-n", "30", "--format", "json"], 0, "coeffs_max30.json"),
    (["factor", "--x", "1", "--terms", "6"], 0, "factor_x1_terms6.txt"),
    (["factor", "--x", "3/2", "--terms", "20", "--format", "json"], 0,
     "factor_x3over2_terms20.json"),
    (["factor", "--x", "2.5", "--format", "json"], 0, "factor_x2.5.json"),
    (["factor", "--x", "100000000000000000000", "--format", "json"], 0, "factor_x1e20.json"),
    (["demo", "--seq", str(GOLDEN / "demo_seq.csv"), "--terms", "20", "--format", "json"], 0,
     "demo_seq_terms20.json"),
    (["integrals"], 0, "integrals.json"),
    (["limit", "--n", "50", "--format", "json"], 0, "limit_n50.json"),
])
def test_output_matches_golden(capsys, argv, code, golden):
    """Stdout is byte-identical to the committed output of the Fraction-based engine."""
    assert run_cli(capsys, *argv)[:2] == (code, (GOLDEN / golden).read_bytes().decode())


def test_demo_runs(tmp_path, capsys):
    path = tmp_path / "seq.csv"
    path.write_text("1\n0\n0\n")
    code, out, _ = run_cli(capsys, "demo", "--seq", str(path), "--terms", "6",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lhs"] == 1.0
    assert payload["rhs"] == pytest.approx(2.000168737223067, abs=1e-10)
    assert payload["holds"] is True
    assert "demonstration" in payload["note"]


def test_demo_near_top_of_double_range(tmp_path, capsys):
    path = tmp_path / "big.csv"
    path.write_text("1e308\n1e308\n1e308\n")
    code, out, _ = run_cli(capsys, "demo", "--seq", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is True
    assert 0.0 < payload["ratio"] < 1.0


def test_demo_missing_file(capsys):
    code = main(["demo", "--seq", "/nonexistent/sequence.csv"])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err


def test_demo_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n")
    code = main(["demo", "--seq", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "single column" in captured.err


def test_limit_json(capsys):
    code, out, _ = run_cli(capsys, "limit", "--n", "50", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["L"] == pytest.approx(-0.8402296922881743, abs=1e-8)
    assert payload["converged"] is True


def test_limit_exits_1_when_not_converged(capsys):
    code, out, _ = run_cli(capsys, "limit", "--n", "100000000000000000")
    assert code == 1
    assert out.endswith("converged False\n")
    assert run_cli(capsys, "limit", "--n", "50")[0] == 0


def test_limit_rejects_order_past_float_range(capsys):
    # 2e308 overflows float(n); 1e308 does not and runs (not converged)
    with pytest.raises(SystemExit) as exc:
        main(["limit", "--n", "2" + "0" * 308])
    assert exc.value.code == 2
    assert "error: argument --n: outside the floating-point range" in capsys.readouterr().err
    assert run_cli(capsys, "limit", "--n", "1" + "0" * 308)[0] == 1


def test_decimal_digits_ceiling(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--max-n", "2", "--mode", "decimal",
                           "--digits", str(MAX_DIGITS))
    assert code == 0
    assert out.splitlines()[1].split()[1] == "0." + "5" + "0" * (MAX_DIGITS - 1)
    for digits in (MAX_DIGITS + 1, 10**30):
        with pytest.raises(SystemExit) as exc:
            main(["coeffs", "--mode", "decimal", "--digits", str(digits)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument --digits: must be at most {MAX_DIGITS}" in err
    with pytest.raises(SystemExit):
        main(["coeffs", "--help"])
    assert f"at most {MAX_DIGITS}" in capsys.readouterr().out


def test_integrals_report(capsys):
    code, out, _ = run_cli(capsys, "integrals")
    assert code == 0
    report = report_from_json(out)
    assert report.all_passed
    assert {c.name for c in report.checks} == {
        "density-integral",
        "density-first-moment",
        "density-over-s",
        "density-over-1-minus-s",
    }


def test_console_script_installed():
    out = subprocess.run(
        ["carleman", "coeffs", "--max-n", "1", "--format", "csv"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "1,1/2,1/2"


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "carleman.cli", "coeffs", "--max-n", "1",
         "--format", "csv"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "1,1/2,1/2"
