"""End-to-end command-line behavior with golden outputs and exit codes."""

from valgb.cli import main


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
    # budget exhaustion reports exit code 2
    loopy = write(
        tmp_path,
        "loopy.vgb",
        "field Qp(2)\nvars x,y,z\nideal: x-2y, y-2z, z-2x\ntarget: x\n",
    )
    assert main(["nf", loopy, "--max-steps", "2"]) == 2


def test_gb_progress_flag(tmp_path, capsys):
    path = write(tmp_path, "family.vgb", QT_FAMILY)
    assert main(["gb", path, "--progress"]) == 0
    err = capsys.readouterr().err
    assert "pairs processed:" in err


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
