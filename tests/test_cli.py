"""End-to-end command-line behavior with golden outputs and exit codes."""

import math
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import valgb.cli
from valgb import GREVLEX, WeightedOrder, gb_mod_pm
from valgb.cardinality import sample_pair
from valgb.cli import main
from valgb.polynomials import poly_to_str

SRC = Path(__file__).resolve().parent.parent / "src"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


QT_FAMILY = (
    "field Qt\n"
    "vars x,y,z\n"
    "order grevlex\n"
    "weight 1,5,10\n"
    "ideal: x+z, x^2+(1+t^5)*x*z+x*y\n"
)

DIVISION = (
    "field Qp(2)\n"
    "vars x,y,z\n"
    "order lex z>y>x\n"
    "weight 3,2,1\n"
    "ideal: y+16z\n"
    "target: x^2+y^2+z^2\n"
)


def test_gb_golden(tmp_path, capsys):
    path = write(tmp_path, "family.vgb", QT_FAMILY)
    assert main(["gb", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["x+z", "y*z+t^5*z^2"]


def test_gb_verify_flag(tmp_path, capsys):
    path = write(tmp_path, "family.vgb", QT_FAMILY)
    assert main(["gb", path, "--verify"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "verified: true"


def test_gb_verify_honours_max_coeff_bits(tmp_path, capsys, monkeypatch):
    seen = []
    real = valgb.cli.is_basis_of

    def recorder(*args, **kwargs):
        seen.append(kwargs.get("max_coeff_bits"))
        return real(*args, **kwargs)

    monkeypatch.setattr(valgb.cli, "is_basis_of", recorder)
    path = write(tmp_path, "family.vgb", QT_FAMILY)
    assert main(["gb", path, "--verify", "--max-coeff-bits", "4096"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "verified: true"
    assert seen == [4096]


def test_gb_no_criteria_same_output(tmp_path, capsys):
    path = write(tmp_path, "family.vgb", QT_FAMILY)
    assert main(["gb", path, "--no-criteria"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["x+z", "y*z+t^5*z^2"]


def test_gb_modpm(tmp_path, capsys):
    path = write(
        tmp_path,
        "pair.vgb",
        "field Qp(2)\nvars x,y\nideal: x+2y, y+2x\n",
    )
    assert main(["gb", path, "--modpm", "8"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["x", "y"]


def test_gb_modpm_fallback_reports_once(tmp_path, capsys):
    path = write(
        tmp_path,
        "fallback.vgb",
        "field Qp(2)\nvars x,y,z\n"
        "ideal: x^2+2*y*z+4*z^2, x*y-y^2+2*z^2, x*z+y*z+8*z^2\n",
    )
    assert main(["gb", path]) == 0
    direct = capsys.readouterr().out
    assert main(["gb", path, "--modpm", "1", "--retry-budget", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.out == direct
    assert len(captured.err.splitlines()) == 1


# ROADMAP W1: one of its normal forms takes 85 steps over Qp(2)
W1 = (
    "field Qp(2)\nvars x,y,z\norder grevlex\nweight -1,0,-2\n"
    "ideal: -8x^2*y-4x*y*z-y^2*z, -3y^3+6x^2*z-6x*y*z+2z^3, 5x*y-6x*z-8y*z+3z^2\n"
)


def test_gb_modpm_honours_max_coeff_bits(tmp_path, capsys):
    path = write(tmp_path, "w1.vgb", W1)
    assert main(["gb", path, "--max-coeff-bits", "50"]) == 2
    direct = capsys.readouterr()
    assert "leading coefficient exceeded 50 bits after 6 steps" in direct.err
    # the certified modular path divides nothing over Qp, so the breaker
    # does not reach it
    assert main(["gb", path, "--modpm", "16", "--max-coeff-bits", "50"]) == 0
    certified = capsys.readouterr()
    assert len(certified.out.splitlines()) == 6 and certified.err == ""
    # the lift fails at m = 4, so the budget reaches the direct fallback
    assert main(["gb", path, "--modpm", "4", "--retry-budget", "0",
                 "--max-coeff-bits", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == direct.err
    # without the option the fallback runs unbounded and finishes
    assert main(["gb", path, "--modpm", "4", "--retry-budget", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.out == certified.out
    assert captured.err == ("warning: mod-2^m pipeline failed in the lift stage at "
                            "m = 4, after 0 retries; direct rational computation used\n")


def test_gb_modpm_negative_retry_budget_is_input_error(tmp_path, capsys):
    path = write(
        tmp_path,
        "pair.vgb",
        "field Qp(2)\nvars x,y\nideal: x+2y, y+2x\n",
    )
    assert main(["gb", path, "--modpm", "8", "--retry-budget", "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "failed verification" not in captured.err


@pytest.mark.parametrize("options", [
    ["--modpm", "16", "--progress"],
    ["--retry-budget", "3"],
])
def test_gb_rejects_options_that_do_not_apply(tmp_path, capsys, options):
    path = write(
        tmp_path,
        "pair.vgb",
        "field Qp(2)\nvars x,y,z\nideal: x^2+2*y*z+4*z^2, x*y-y^2+2*z^2\n",
    )
    assert main(["gb", path] + options) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def cardinality_pair_file(tmp_path):
    names = ["x1", "x2", "x3"]
    pair = sample_pair(3, random.Random("cardinality-3-0-0"))
    path = write(
        tmp_path,
        "pair.vgb",
        "field Qp(2)\nvars x1,x2,x3\nideal: "
        + ", ".join(poly_to_str(f, names) for f in pair) + "\n",
    )
    return path, names, list(pair)


@pytest.mark.parametrize("options", [[], ["--max-coeff-bits", "4096"]])
def test_gb_on_cardinality_pair_ends_quickly(tmp_path, options):
    # tail reduction by division ran for minutes on this pair; a subprocess
    # with a timeout turns a regression into a failure, not a hang; "within
    # 1 s" is read as child process time, which a busy machine does not inflate
    path, names, pair = cardinality_pair_file(tmp_path)
    expected = [poly_to_str(g, names)
                for g in gb_mod_pm(pair, WeightedOrder((0, 0, 0), GREVLEX)).elements]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(
        [sys.executable, "-m", "valgb", "gb", path] + options,
        capture_output=True, text=True, env=env, timeout=10,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == expected
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    assert cpu < 1.0


def test_initial_and_tropical_member_honour_max_coeff_bits(tmp_path, capsys):
    # the seeded Qp(2) quadric family's n = 4 seed 2 (ROADMAP), which the
    # weak normal forms of the loop do not rescue
    path = write(
        tmp_path,
        "blowup.vgb",
        "field Qp(2)\nvars x1,x2,x3,x4\nweight -2,2,2,-1\n"
        "ideal: -28*x1^2+9*x1*x2-32*x2*x3-4*x3^2+35*x3*x4-23*x4^2, "
        "-32*x1^2-34*x2^2-33*x1*x3-8*x3^2+11*x2*x4-6*x4^2, "
        "-49*x1^2+16*x2^2-11*x1*x3-9*x2*x3-26*x2*x4+40*x4^2\n",
    )
    for command in ("initial", "tropical-member"):
        t0 = time.perf_counter()
        assert main([command, path, "--max-coeff-bits", "4096"]) == 2
        assert time.perf_counter() - t0 < 5.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "leading coefficient exceeded 4096 bits after 13 steps" in captured.err


def test_initial_and_tropical_member_on_cardinality_pair(tmp_path, capsys):
    # the valued tail reduction of this pair ran for minutes; the initial
    # ideal comes from the initial forms, reduced over GF(2)
    path, _, _ = cardinality_pair_file(tmp_path)
    expected = {
        "initial": ["x1^6", "x2^3*x3^3"],
        "tropical-member": ["member: false", "initial: x1^6", "initial: x2^3*x3^3"],
    }
    for command, lines in expected.items():
        t0 = time.process_time()
        assert main([command, path, "--max-coeff-bits", "4096"]) == 0
        assert time.process_time() - t0 < 1.0
        assert capsys.readouterr().out.splitlines() == lines


def test_nf_golden(tmp_path, capsys):
    path = write(tmp_path, "division.vgb", DIVISION)
    assert main(["nf", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "h1 = y-16*z"
    assert out[1] == "r = x^2+257*z^2"
    assert out[2] == "steps = 6"


def test_nf_trace(tmp_path, capsys):
    path = write(tmp_path, "division.vgb", DIVISION)
    assert main(["nf", path, "--trace"]) == 0
    out = capsys.readouterr().out.splitlines()
    trace_lines = [l for l in out if l.startswith("trace:")]
    assert len(trace_lines) == 6
    assert "j=0" in trace_lines[0] and "lm=" in trace_lines[0]


def test_nf_target_flag(tmp_path, capsys):
    path = write(tmp_path, "division.vgb", DIVISION.replace("target: x^2+y^2+z^2\n", ""))
    assert main(["nf", path, "--target", "x^2+y^2+z^2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "r = x^2+257*z^2"


def test_nf_missing_target(tmp_path, capsys):
    path = write(tmp_path, "division.vgb", DIVISION.replace("target: x^2+y^2+z^2\n", ""))
    assert main(["nf", path]) == 1
    assert capsys.readouterr().err == (
        "error: nf needs a target polynomial ('target:' line or --target)\n"
    )


def test_initial_command(tmp_path, capsys):
    path = write(
        tmp_path,
        "p3.vgb",
        "field Qp(3)\nvars x,y\nweight 2,0\nideal: 3x^2+x*y+18y^2\n",
    )
    assert main(["initial", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["x*y+2*y^2"]


def test_initial_forms_only_allows_inhomogeneous(tmp_path, capsys):
    path = write(
        tmp_path,
        "inh.vgb",
        "field Qp(2)\nvars x\nideal: x+2x^2\n",
    )
    assert main(["initial", path, "--forms-only"]) == 0
    assert capsys.readouterr().out.splitlines() == ["x"]
    # but the default initial-ideal route rejects it
    assert main(["initial", path]) == 1
    assert capsys.readouterr().err == "error: generator 1 is not homogeneous\n"


def test_tropical_member_command(tmp_path, capsys):
    member = write(
        tmp_path, "line0.vgb", "field Q\nvars x,y,z\nideal: x+y+z\n"
    )
    assert main(["tropical-member", member]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "member: true"
    non = write(
        tmp_path,
        "line1.vgb",
        "field Q\nvars x,y,z\nweight -1,0,0\nideal: x+y+z\n",
    )
    assert main(["tropical-member", non]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "member: false"
    assert any("initial:" in line for line in out[1:])


def test_bounds_command(tmp_path, capsys):
    path = write(
        tmp_path,
        "bounds.vgb",
        "field Qp(2)\nvars x,y,z\nideal: x^2+y^2+z^2, x*y\n",
    )
    assert main(["bounds", path, "--degree-cap", "8"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "n = 3" in out
    assert "d = 2" in out
    assert "D = 32" in out
    assert any(line.startswith("valuation_bound = ") for line in out)
    assert "truncated = true" in out


@pytest.mark.parametrize(
    "text, cap, expected",
    [
        # the benchmark's quadric pair at the default cap (Dube bound 32)
        ("field Qp(2)\nvars x,y,z\nideal: x^2+2*y*z+4*z^2, x*y-y^2+2*z^2\n",
         None, ["evaluated_degree = 32", "A = 557", "truncated = false"]),
        # a ternary cubic pair, capped below its Dube bound of 113
        ("field Qp(3)\nvars x,y,z\nideal: x^3+3*y^2*z-9*z^3, x*y*z-y^3+3*x^2*z\n",
         64, ["evaluated_degree = 64", "A = 2136", "truncated = true"]),
    ],
)
def test_bounds_at_high_degree_is_fast(tmp_path, capsys, text, cap, expected):
    # two plane curves of degrees a, b without a common factor meet in a*b
    # points, so dim I_d = C(d+2, 2) - a*b: 561 - 4 at d = 32, 2145 - 9 at 64
    path = write(tmp_path, "bounds.vgb", text)
    argv = ["bounds", path] + ([] if cap is None else ["--degree-cap", str(cap)])
    t0 = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - t0 < 1.0
    out = capsys.readouterr().out.splitlines()
    assert all(line in out for line in expected), out


VARS15 = "vars " + ",".join(f"x{i}" for i in range(1, 16)) + "\n"


@pytest.mark.parametrize("text, expected", [
    ("field Q\n" + VARS15 + "ideal: x1^2+x2*x3, x4*x5\n",
     ["d = 2", "D = 2*4^8192", "valuation_bound = n/a (needs a Qp(p) field)"]),
    # dim I_64 = 2*C(76, 62) - C(74, 60) for a complete intersection of two
    # quadrics in 15 variables
    ("field Qp(2)\n" + VARS15 + "ideal: x1^2+2*x2*x3, x4*x5\n",
     ["d = 2", "D = 2*4^8192", "evaluated_degree = 64",
      f"A = {2 * math.comb(76, 62) - math.comb(74, 60)}", "truncated = true"]),
    ("field Q\n" + VARS15 + "ideal: x1^3+x2*x3^2, x4*x5\n",
     ["d = 3", "D = ceil(2*(15/2)^8192)"]),
])
def test_bounds_on_fifteen_variables(tmp_path, capsys, text, expected):
    # D = 2*4^8192 has 4,933 digits, past what Python prints: it is shown in
    # closed form, and A is counted from the leading ideal's generators
    path = write(tmp_path, "bounds.vgb", text)
    t0 = time.perf_counter()
    assert main(["bounds", path]) == 0
    assert time.perf_counter() - t0 < 5.0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "n = 15"
    assert all(line in out for line in expected), out


def test_bounds_on_thirty_variables(tmp_path, capsys):
    # Dube's D has 2^29 + 1 bits here; deciding the cap from its exponent
    # and printing it in closed form never builds it
    names = ",".join(f"x{i}" for i in range(1, 31))
    path = write(tmp_path, "bounds.vgb",
                 f"field Qp(2)\nvars {names}\nideal: x1^2+2*x2*x3, x4*x5\n")
    t0 = time.perf_counter()
    assert main(["bounds", path, "--degree-cap", "8"]) == 0
    assert time.perf_counter() - t0 < 1.0
    out = capsys.readouterr().out.splitlines()
    assert out == ["n = 30", "d = 2", "D = 2*4^268435456", "C = 2", "evaluated_degree = 8",
                   "A = 3205400", "valuation_bound = 38464800", "truncated = true"]


def test_compare_cardinality_csv(capsys):
    assert main(["compare-cardinality", "--e", "1", "--seeds", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "e,d,seed,padic_size,order,standard_size,bound"
    rows = [line.split(",") for line in out[1:]]
    assert len(rows) == 4  # four orders at e = 1
    for row in rows:
        assert row[0] == "1" and row[1] == "2"
        assert row[3] == "2"
        assert int(row[5]) >= int(row[6])


def test_exit_codes(tmp_path, capsys):
    bad = write(tmp_path, "bad.vgb", "field Q\nvars x\nideal: x+$\n")
    assert main(["gb", bad]) == 1
    assert main(["gb", str(tmp_path / "missing.vgb")]) == 1
    inh = write(tmp_path, "inh.vgb", "field Q\nvars x\nideal: x+x^2\n")
    assert main(["gb", inh]) == 1
    rational = write(tmp_path, "rational.vgb", "field Q\nvars x,y\nideal: x+y\n")
    capsys.readouterr()
    assert main(["gb", rational, "--modpm", "8"]) == 1
    assert capsys.readouterr().err == "error: --modpm requires a Qp(p) field\n"
    # budget exhaustion reports exit code 2
    loopy = write(
        tmp_path,
        "loopy.vgb",
        "field Qp(2)\nvars x,y,z\nideal: x-2y, y-2z, z-2x\ntarget: x\n",
    )
    assert main(["nf", loopy, "--max-steps", "2"]) == 2


def test_usage_errors_are_input_errors(tmp_path, capsys):
    path = write(tmp_path, "bounds.vgb", "field Q\nvars x,y\nideal: x*y\n")
    assert main(["gb"]) == 1
    assert main(["bounds", path, "--degree-cap", "x"]) == 1
    # bounds reads no budget, so it offers none
    assert main(["bounds", path, "--max-steps", "5"]) == 1
    assert "usage:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("argv", [
    ["gb", "{file}", "--max-steps", "-1"],
    ["gb", "{file}", "--max-coeff-bits", "-5"],
    ["bounds", "{file}", "--degree-cap", "-2"],
    ["compare-cardinality", "--e", "1", "--seeds", "0"],
    ["compare-cardinality", "--e", "0", "--seeds", "1"],
], ids=["max-steps", "max-coeff-bits", "degree-cap", "seeds", "e"])
def test_bad_numeric_options_are_input_errors(tmp_path, capsys, argv):
    path = write(tmp_path, "pair.vgb", "field Q\nvars x,y\nideal: x*y\n")
    assert main([a.replace("{file}", path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines


def test_parser_built_once_behaves_like_fresh_parsers(tmp_path, capsys):
    gb_file = write(tmp_path, "family.vgb", QT_FAMILY)
    nf_file = write(tmp_path, "division.vgb", DIVISION)
    runs = [["gb", "--no-such-option"], ["--help"], ["gb", gb_file], ["nf", nf_file]]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    first = valgb.cli._parser()
    reused = [run(argv) for argv in runs]
    assert valgb.cli._parser() is first
    fresh = []
    for argv in runs:
        valgb.cli._parser.cache_clear()
        fresh.append(run(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [1, 0, 0, 0]


def test_gb_progress_flag(tmp_path, capsys):
    path = write(tmp_path, "family.vgb", QT_FAMILY)
    assert main(["gb", path, "--progress"]) == 0
    err = capsys.readouterr().err
    assert "pairs processed:" in err


def test_gb_progress_reports_skipped_pairs(tmp_path, capsys):
    # the one pair is skipped by B1 and never divided, yet it is reported
    path = write(tmp_path, "coprime.vgb", "field Q\nvars x,y\nideal: x^2, y^2\n")
    assert main(["gb", path, "--progress"]) == 0
    assert capsys.readouterr().err.splitlines() == ["pairs processed: 1, remaining: 0"]


def test_initial_over_qt_prints_rationals(tmp_path, capsys):
    path = write(tmp_path, "family.vgb", QT_FAMILY)
    assert main(["initial", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["x", "y*z"]


def test_round_trip_through_cli(tmp_path, capsys):
    # gb output parses back and is already reduced
    path = write(tmp_path, "family.vgb", QT_FAMILY)
    main(["gb", path])
    printed = capsys.readouterr().out.strip().splitlines()
    body = QT_FAMILY.replace(
        "ideal: x+z, x^2+(1+t^5)*x*z+x*y", "ideal: " + ", ".join(printed)
    )
    path2 = write(tmp_path, "family2.vgb", body)
    assert main(["gb", path2]) == 0
    assert capsys.readouterr().out.strip().splitlines() == printed
