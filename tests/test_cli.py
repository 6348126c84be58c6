"""Command-line surface: rendering, exit codes, JSON contracts."""

import json
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from carleman import CoefficientTable, as_rational, refinement_factor, report_from_json
from carleman import cli
from carleman.cli import MAX_DIGITS, MAX_TABLE_N, MAX_WEIGHT_BITS, build_parser, main
from carleman.rational import MAX_QUOTED

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
        assert as_rational(value) == table.value(int(n))


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


def test_coeffs_table_aligns_values_shorter_than_the_header(capsys):
    """The header is one more row of the table, so `value` widens its column."""
    code, out, _ = run_cli(capsys, "coeffs", "--max-n", "3")
    assert code == 0
    assert out.splitlines() == [
        "     n  value  bound",
        "     1  1/2    1/2",
        "     2  1/24   1/6",
        "     3  1/48   1/12",
    ]


def test_coeffs_rejects_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--max-n", "0"])
    assert exc.value.code == 2
    error = capsys.readouterr().err.splitlines()[-1]
    assert error == "carleman coeffs: error: argument --max-n: must be a positive integer"


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
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--max-n", "3", "--quad-max", "3"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == "carleman: error: --max-n must be at least 4"


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
            assert as_rational(payload["weight_exact"]) < 1


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
    for bad, message in [
        ("0", "must be positive"),
        ("-1", "must be positive"),
        ("0/5", "must be positive"),
        ("abc", "not a number: 'abc'"),
        ("nan", "not a number: 'nan'"),
        ("1/0", "not a number: '1/0'"),
        ("inf", "outside the floating-point range"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(["factor", "--x", bad])
        assert exc.value.code == 2, bad
        error = capsys.readouterr().err.splitlines()[-1]
        assert error == f"carleman factor: error: argument --x: {message}"


@pytest.mark.parametrize("argv, sign", [
    (["factor", "--x"], "must be positive"),
    (["verify", "--tol"], "must be a positive finite number"),
    (["limit", "--n", "1", "--tol"], "must be a positive finite number"),
    (["integrals", "--tol"], "must be a positive finite number"),
], ids=["factor-x", "verify-tol", "limit-tol", "integrals-tol"])
def test_a_positive_decimal_that_rounds_to_zero_is_out_of_range(capsys, argv, sign):
    """1e-400 is positive but its float view is 0.0; -1e-400 is not positive."""
    for text, message in [("1e-400", "outside the floating-point range"), ("-1e-400", sign),
                          ("0." + "0" * 400 + "1", "outside the floating-point range")]:
        with pytest.raises(SystemExit) as exc:
            main(argv[:-1] + [f"{argv[-1]}={text}"])  # argparse reads -1e-400 as an option
        assert exc.value.code == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert error == f"carleman {argv[0]}: error: argument {argv[-1]}: {message}"


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


@pytest.mark.parametrize("argv, message", [
    (["limit", "--n"], "outside the floating-point range"),
    (["coeffs", "--max-n"], f"must be at most {MAX_TABLE_N}"),
    (["coeffs", "--digits"], f"must be at most {MAX_DIGITS}"),
    (["verify", "--max-n"], f"must be at most {MAX_TABLE_N}"),
    (["verify", "--quad-max"], "outside the floating-point range"),
    (["verify", "--inject-fault"], "outside the floating-point range"),
    (["factor", "--x", "1", "--terms"], f"must be at most {MAX_TABLE_N}"),
])
def test_integer_options_past_int_digit_limit(capsys, argv, message):
    """A 5000-digit integer is read in full and refused by its value, not echoed."""
    with pytest.raises(SystemExit) as exc:
        main(argv + ["1" + "0" * 5000])
    assert exc.value.code == 2
    error = capsys.readouterr().err.splitlines()[-1]
    assert error == f"carleman {argv[0]}: error: argument {argv[-1]}: {message}"
    assert len(error.encode()) < 300


@pytest.mark.parametrize("argv, message", [
    (["coeffs", "--max-n"], "not an integer: "),
    (["coeffs", "--digits"], "not an integer: "),
    (["verify", "--max-n"], "not an integer: "),
    (["verify", "--quad-max"], "not an integer: "),
    (["verify", "--tol"], "not a number: "),
    (["verify", "--inject-fault"], "not an integer: "),
    (["factor", "--x"], "not a number: "),
    (["factor", "--x", "1", "--terms"], "not an integer: "),
    (["demo", "--seq", "seq.csv", "--terms"], "not an integer: "),
    (["limit", "--n"], "not an integer: "),
    (["limit", "--tol"], "not a number: "),
    (["integrals", "--tol"], "not a number: "),
], ids=["coeffs-max-n", "coeffs-digits", "verify-max-n", "verify-quad-max", "verify-tol",
        "verify-inject-fault", "factor-x", "factor-terms", "demo-terms", "limit-n", "limit-tol",
        "integrals-tol"])
def test_number_options_quote_a_long_non_number_by_its_ends(capsys, argv, message):
    """Up to MAX_QUOTED characters are quoted in full, a longer value by its ends and length."""
    prefix = f"carleman {argv[0]}: error: argument {argv[-1]}: {message}"
    for text, quoted in [
        ("x" * MAX_QUOTED, repr("x" * MAX_QUOTED)),
        ("1" * 5000 + "x", f"'{'1' * 30}'...'{'1' * 29}x' (5001 characters)"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv + [text])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == prefix + quoted


def test_integer_options_read_only_integers(capsys):
    for text in ("6/1", "1.5", "1e3"):
        with pytest.raises(SystemExit):
            main(["coeffs", "--max-n", text])
        assert f"not an integer: '{text}'" in capsys.readouterr().err
    assert build_parser().parse_args(["coeffs", "--max-n", " +1_0 "]).max_n == 10


def test_factor_exact_weight_cap(capsys):
    """A 100-digit p/q at --terms 2000 is refused before any table is built."""
    x = f"{10**99 + 7}/{10**99}"
    with pytest.raises(SystemExit) as exc:
        main(["factor", "--x", x, "--terms", str(MAX_TABLE_N)])
    assert exc.value.code == 2
    error = capsys.readouterr().err.splitlines()[-1]
    assert error.startswith("carleman: error: --x: ")
    assert error.endswith("give x as a decimal, such as 1.0")
    assert len(error.encode()) < 300
    with pytest.raises(SystemExit):
        main(["factor", "--help"])
    assert f"at most {MAX_WEIGHT_BITS}" in capsys.readouterr().out


def test_factor_exact_weight_cap_boundary(capsys, monkeypatch):
    # 3/2 has p + q = 5, of bit length 3
    monkeypatch.setattr(cli, "MAX_WEIGHT_BITS", 12)
    assert run_cli(capsys, "factor", "--x", "3/2", "--terms", "4")[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["factor", "--x", "3/2", "--terms", "5"])
    assert exc.value.code == 2
    assert "such as 1.5" in capsys.readouterr().err
    assert run_cli(capsys, "factor", "--x", "1.5", "--terms", "5")[0] == 0


def test_tolerance_option_reaches_the_checks(capsys):
    code, out, _ = run_cli(capsys, "integrals", "--tol", "1e-8")
    assert code == 0
    limits = {c.name: c.values["tolerance"] for c in report_from_json(out).checks}
    assert limits["density-integral"] == 1e-8
    assert limits["density-over-s"] == pytest.approx(1e-7)


@pytest.mark.parametrize("argv", [["verify"], ["integrals"], ["limit", "--n", "1"]],
                         ids=["verify", "integrals", "limit"])
def test_tolerance_past_a_tenth_of_float_max_is_refused(capsys, argv):
    """Checks compare at 10 * tol, which must stay finite: JSON has no Infinity."""
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tol", "1e308"])
    assert exc.value.code == 2
    error = capsys.readouterr().err.splitlines()[-1]
    assert error == f"carleman {argv[0]}: error: argument --tol: outside the floating-point range"


TOL_TOP = repr(sys.float_info.max / 10)


@pytest.mark.parametrize("argv", [
    ["verify", "--max-n", "20", "--tol", TOL_TOP],
    ["verify", "--max-n", "20", "--tol", TOL_TOP, "--inject-fault", "3"],
    ["verify", "--max-n", "20", "--tol", "5e-324"],
    ["integrals", "--tol", TOL_TOP],
    ["integrals", "--tol", "5e-324"],
    ["limit", "--n", "1" + "0" * 308, "--format", "json"],
    ["limit", "--n", "1", "--tol", TOL_TOP, "--format", "json"],
    ["factor", "--x", "1.7e308", "--format", "json"],
    ["factor", "--x", "5e-324", "--terms", "200", "--format", "json"],
    ["coeffs", "--max-n", "3", "--mode", "decimal", "--digits", "1", "--format", "json"],
    ["demo", "--seq", "big.csv", "--format", "json"],
], ids=["verify-top", "verify-top-fault", "verify-subnormal", "integrals-top",
        "integrals-subnormal", "limit-n-top", "limit-tol-top", "factor-top", "factor-subnormal",
        "coeffs-one-digit", "demo-overflow"])
def test_json_at_the_edges_of_the_domain_is_strict_json(capsys, tmp_path, monkeypatch, argv):
    """RFC 8259 has no Infinity or NaN, so strict parsers refuse them."""
    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.csv").write_text("1e308\n1e308\n1e308\n")
    code, out, _ = run_cli(capsys, *argv)
    assert code in (0, 1)
    json.loads(out, parse_constant=refuse)


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
    (["demo", "--seq", str(GOLDEN / "demo_seq.csv")], 0, "demo_seq.txt"),
    (["coeffs", "--max-n", "12"], 0, "coeffs_max12.txt"),
    (["coeffs", "--max-n", "12", "--mode", "decimal", "--digits", "20"], 0,
     "coeffs_max12_decimal20.txt"),
    (["coeffs", "--max-n", "12", "--mode", "decimal", "--digits", "20", "--format", "csv"], 0,
     "coeffs_max12_decimal20.csv"),
    (["factor", "--x", "2.5"], 0, "factor_x2.5.txt"),
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
    assert payload["lhs"] is None and payload["rhs"] is None  # overflowed sums
    code, out, _ = run_cli(capsys, "demo", "--seq", str(path))
    assert code == 0
    assert "sum of geo means  = inf\nweighted rhs      = inf\n" in out


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


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_demo_reads_utf8_byte_order_mark(tmp_path, capsys, fmt):
    """A "CSV UTF-8" export starts with the mark U+FEFF; the demo reads past it."""
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(b"1.5\n2\n0.25\n")
    marked.write_bytes(b"\xef\xbb\xbf1.5\n2\n0.25\n")
    expected = run_cli(capsys, "demo", "--seq", str(plain), "--format", fmt)
    assert expected[0] == 0
    assert run_cli(capsys, "demo", "--seq", str(marked), "--format", fmt) == expected


@pytest.mark.parametrize("name, content, prefix", [
    ("a" * 5000 + "/seq.csv", None, "error: [Errno"),
    ("/".join(["d" * 240] * 15) + "/empty.csv", b"", "error: no data in"),
    ("long-line.csv", b"1" * 200_000 + b"\n", "error: line"),
    ("long-non-number.csv", b"x" * 100_000 + b"\n", "error: line"),
    ("nul.csv", b"1\n2\x003\n", "error: line"),
    ("latin-1.csv", b"1\n\xe92\n", "error: line 2: 'utf-8' codec can't decode byte 0xe9"),
    ("latin-1-deep.csv", b"1\n" * 5000 + b"\xe9\n", "error: line 5001: "),
    ("zeros.csv", b"0\n0\n", "error: sequence must not be all zero"),
], ids=["long-path", "long-path-empty", "long-line", "long-non-number", "nul",
        "bad-byte-line-2", "bad-byte-line-5001", "all-zero"])
def test_demo_error_line_is_short(tmp_path, capsys, name, content, prefix):
    """An unreadable file, an empty file 3.6 kB deep in directories, a
    200 000-digit line, a long non-number, a NUL byte, a byte that is not
    UTF-8, named by its line rather than by an offset in the decoder's buffer,
    and a sequence of zeros only."""
    path = tmp_path / name
    if content is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(content)
    code = main(["demo", "--seq", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix)
    assert len(lines[0].encode()) < 300


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
    # 1000 digits is within int()'s default digit cap, not within the
    # smallest one that PYTHONINTMAXSTRDIGITS can set (640)
    for digits in (str(MAX_DIGITS + 1), str(10**30), "1" + "0" * 999):
        with pytest.raises(SystemExit) as exc:
            main(["coeffs", "--mode", "decimal", "--digits", digits])
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
