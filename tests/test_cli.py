"""CLI surface: subcommands, formats, exit codes, determinism."""

import json
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from divisor_series.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeffs_csv(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--repr", "DIVISOR", "--order", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,coefficient"
    assert lines[1:] == ["0,0", "1,1", "2,2", "3,2", "4,3", "5,2", "6,4"]


def test_coeffs_json(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--repr", "LAMBERT", "--order", "4",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == ["0", "1", "2", "2", "3"]
    assert doc["schema_version"] == 1


def test_identity_check(capsys):
    code, out, _ = run_cli(capsys, "identity-check", "--order", "50")
    assert code == 0
    doc = json.loads(out)
    assert all(entry["match"] for entry in doc["results"].values())
    assert len(doc["results"]) == 6


def test_verify_lemma_29_cell_count(capsys):
    code, out, _ = run_cli(capsys, "verify", "--lemma", "2.9")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["cells_checked"] == 900
    assert doc["grid"]["segments"] == [{"start": "91/100", "step": "1/10000", "count": 900}]


def test_eval_fast_and_certified(capsys):
    code, out, _ = run_cli(capsys, "eval", "--fn", "T", "--q", "0.5")
    assert code == 0
    fast = json.loads(out)
    assert fast["mode"] == "fast"
    code, out, _ = run_cli(capsys, "eval", "--fn", "T", "--q", "0.5",
                           "--mode", "certified", "--eps", "1e-10")
    certified = json.loads(out)
    assert certified["mode"] == "certified"
    assert certified["hi"] - certified["lo"] <= 2e-10
    assert fast["lo"] <= certified["hi"] and certified["lo"] <= fast["hi"]
    assert {"lo", "hi", "terms", "tail_bound"} <= set(certified)


def test_eval_domain_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "eval", "--fn", "F", "--q", "1.5")
    assert code == 2
    assert "q must lie in (0, 1)" in err


def test_eval_q_whose_double_is_one_exit_2(capsys):
    code, _, err = run_cli(capsys, "eval", "--fn", "psi", "--q", "0.99999999999999999")
    assert code == 2
    assert "inside (0, 1)" in err


@pytest.mark.parametrize("fn, mode", [
    ("psi", "fast"), ("H", "fast"), ("F", "fast"), ("F", "certified"),
])
def test_eval_q_below_smallest_double_exit_2(capsys, fn, mode):
    code, out, err = run_cli(capsys, "eval", "--fn", fn, "--q", "1e-400", "--mode", mode)
    assert code == 2
    assert out == ""
    assert "underflows" in err


def test_eval_certified_f_where_twice_its_scale_overflows(capsys):
    # (1-q)/q fits in a double at q = 1e-308, twice it does not
    code, _, err = run_cli(capsys, "eval", "--fn", "F", "--q", "1e-308", "--mode", "certified")
    assert code in (0, 1)
    assert "eps must be positive" not in err


@pytest.mark.parametrize("x", ["1", "1/3"])
def test_eval_psi_certified_q_below_smallest_double(capsys, x):
    code, out, _ = run_cli(capsys, "eval", "--fn", "psi", "--q", "1e-400", "--x", x,
                           "--mode", "certified")
    assert code == 0
    doc = json.loads(out)
    frac = Fraction(x)
    with mpmath.workdps(60):
        q = mpmath.mpf(10) ** -400
        qx = q ** (mpmath.mpf(frac.numerator) / frac.denominator)
        # the terms k >= 3 of the sum are below 10^-400 times the first
        true = -mpmath.log(1 - q) + mpmath.log(q) * (qx / (1 - q) + qx ** 2 / (1 - q ** 2))
    assert doc["lo"] <= float(true) <= doc["hi"]
    assert doc["hi"] - doc["lo"] <= 1e-12


@pytest.mark.parametrize("fn", ["T", "H"])
def test_eval_certified_t_and_h_q_below_smallest_double(capsys, fn):
    code, out, _ = run_cli(capsys, "eval", "--fn", fn, "--q", "1e-400", "--mode", "certified")
    assert code == 0
    doc = json.loads(out)
    # T(q) = q + O(q^2) and H(q) = T(q) - log(1-q)/log(q) are both about 1e-400
    assert doc["lo"] <= 0.0 <= doc["hi"] and doc["hi"] - doc["lo"] <= 1e-12


def test_unknown_subcommand_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_unknown_flag_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--order", "5", "--bogus"])
    assert exc.value.code == 2


def test_lemma_fn(capsys):
    code, out, _ = run_cli(capsys, "lemma-fn", "--name", "phi", "--q", "0.5", "--x", "2")
    assert code == 0
    assert abs(json.loads(out)["value"] - 1 / 9) < 1e-12
    code, out, _ = run_cli(capsys, "lemma-fn", "--name", "Delta", "--q", "0.91",
                           "--mode", "certified")
    doc = json.loads(out)
    assert doc["lo"] <= 1.7670552059568436 <= doc["hi"]


def test_bounds_scan_csv(capsys):
    code, out, _ = run_cli(capsys, "bounds-scan", "--theorem", "T4_1",
                           "--grid-start", "0.25", "--grid-end", "0.75",
                           "--grid-step", "0.25")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q,lhs_lo,lhs_hi,mid_lo,mid_hi,rhs_lo,rhs_hi,status"
    assert len(lines) == 4
    assert all(line.endswith("PASS") for line in lines[1:])


def _sandwich_cells(err: str) -> dict:
    lines = [line for line in err.splitlines() if line.startswith("sandwich_cells: ")]
    assert len(lines) == 1
    return json.loads(lines[0].split(": ", 1)[1])


def test_verify_and_report_write_sandwich_cells_to_stderr(capsys):
    code, out, err = run_cli(capsys, "verify", "--lemma", "2.9")
    assert code == 0
    assert _sandwich_cells(err) == {
        "2.9": {"doubles": 898, "working_precision": 2, "min_margin_rechecks": 1,
                "runs": 789, "evaluations": 1588}}
    assert "sandwich_cells" not in out and "settled" not in out
    _, _, err = run_cli(capsys, "verify", "--lemma", "2.5")
    assert _sandwich_cells(err) == {}
    _, _, err = run_cli(capsys, "report", "--order", "10", "--skip", "verify",
                        "--skip", "bounds")
    assert _sandwich_cells(err) == {}


def test_verify_lemma_24i_reports_its_witness_points(capsys):
    """The V' witness grid of 2.4i is proved by runs of its 9572 points; the
    certificate on stdout is the golden one."""
    code, out, err = run_cli(capsys, "verify", "--lemma", "2.4i")
    assert code == 0
    assert _sandwich_cells(err) == {
        "2.4i": {"doubles": 9572, "working_precision": 0, "min_margin_rechecks": 1,
                 "runs": 1, "evaluations": 29}}
    golden = Path(__file__).parent / "data" / "certificates" / "2.4i.json"
    assert out == golden.read_text(encoding="utf-8")


def test_report_without_verify_matches_its_golden_stdout(capsys):
    """The certified bounds grid of every theorem and the identity check:
    stdout is byte-identical to the golden document."""
    code, out, _ = run_cli(capsys, "report", "--skip", "verify")
    assert code == 0
    golden = Path(__file__).parent / "data" / "report-skip-verify.json"
    assert out == golden.read_text(encoding="utf-8")


def test_verify_has_no_fast_mode(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--lemma", "2.5", "--mode", "fast"])
    assert exc.value.code == 2
    assert "--mode" in capsys.readouterr().err


def _usage_error(capsys, argv) -> str:
    """Run main on argv; it must exit 2 with one `error:` line on stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    return err


@pytest.mark.parametrize("command", [["verify", "--lemma", "2.5"], ["report", "--order", "10"]],
                         ids=["verify", "report"])
def test_jobs_is_a_usage_error(capsys, command):
    """Verification runs in one process; --jobs is not an option."""
    assert "unrecognized arguments: --jobs 2" in _usage_error(capsys, [*command, "--jobs", "2"])


@pytest.mark.parametrize("command", [["verify", "--lemma", "2.5"], ["report", "--order", "10"]])
@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_jobs_below_one_is_a_usage_error(capsys, command, jobs):
    """Values once rejected by --jobs stay usage errors now that it is gone."""
    err = _usage_error(capsys, [*command, "--jobs", jobs])
    assert f"unrecognized arguments: --jobs {jobs}" in err


@pytest.mark.parametrize("argv, message", [
    (["--grid-step", "0"], "grid step must be positive, got 0"),
    (["--grid-step", "-0.01"], "grid step must be positive, got -1/100"),
    (["--grid-start", "0.9", "--grid-end", "0.1"], "T4_1 has nothing to check on 0 grid"),
    (["--theorem", "C3_3", "--grid-start", "0.5", "--grid-end", "0.5"],
     "C3_3 has nothing to check on 1 grid"),
], ids=["zero-step", "negative-step", "start-above-end", "C3_3-one-point"])
def test_bounds_scan_that_checks_nothing_is_a_usage_error(capsys, argv, message):
    """A step that never reaches the end, or a grid with no point (one point
    for the pairs of C3_3), is rejected before the scan starts."""
    err = _usage_error(capsys, ["bounds-scan", "--theorem", "T4_1", *argv])
    assert f"error: {message}" in err


def test_bounds_scan_over_the_point_cap_is_a_usage_error(capsys):
    """A tiny step is rejected from its exact point count, before any point
    is built."""
    start = time.perf_counter()
    err = _usage_error(capsys, ["bounds-scan", "--theorem", "T4_1", "--grid-step", "1e-12"])
    assert time.perf_counter() - start < 0.5
    assert ("error: grid from 1/100 to 99/100 in steps of 1/1000000000000 has 980000000001"
            " points; bounds-scan checks at most 100000") in err


@pytest.mark.parametrize("argv, option", [
    (["eval", "--fn", "T", "--q", "abc"], "--q"),
    (["eval", "--fn", "psi", "--q", "0.5", "--x", "abc"], "--x"),
    (["lemma-fn", "--name", "phi", "--q", "0.5", "--x", "abc"], "--x"),
    (["lemma-fn", "--name", "V", "--y", "abc"], "--y"),
    (["bounds-scan", "--theorem", "T4_1", "--grid-step", "abc"], "--grid-step"),
], ids=["eval-q", "eval-x", "lemma-fn-x", "lemma-fn-y", "bounds-scan-grid-step"])
def test_malformed_number_is_a_usage_error(capsys, argv, option):
    err = _usage_error(capsys, argv)
    assert f"argument {option}: expected a rational number, got 'abc'" in err


def test_number_options_keep_the_string_as_typed(capsys):
    code, out, _ = run_cli(capsys, "eval", "--fn", "T", "--q", "0.50")
    assert code == 0 and json.loads(out)["q"] == "0.50"


@pytest.mark.parametrize("argv", [
    ["--fn", "psi", "--q", "0.3"],
    ["--fn", "T", "--q", "0.3", "--mode", "certified"],
], ids=["fast-psi", "certified-T"])
def test_nan_eps_is_a_usage_error(capsys, argv):
    assert "error: eps must be positive" in _usage_error(capsys, ["eval", *argv, "--eps", "nan"])


def test_verify_lemma_25_and_out_file(tmp_path, capsys):
    out_file = tmp_path / "cert.json"
    code, out, _ = run_cli(capsys, "verify", "--lemma", "2.5", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["mode"] == "certified"
    assert out_file.read_text() == out


def test_verify_deterministic_bytes(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--lemma", "2.5")
    _, out2, _ = run_cli(capsys, "verify", "--lemma", "2.5")
    assert out1.encode() == out2.encode()


def test_report_skip_everything_but_identities(capsys):
    argv = ("report", "--order", "30", "--skip", "verify", "--skip", "bounds")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert set(doc["sections"]) == {"identities"}
    _, out_again, _ = run_cli(capsys, *argv)
    assert out.encode() == out_again.encode()
    assert "identities" in err
