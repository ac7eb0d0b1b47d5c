"""CLI surface: subcommands, formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import divisor_series
from divisor_series import cli, verifier
from divisor_series.cli import EXIT_BROKEN_PIPE, MAX_LEMMA_N, MAX_ORDER, main
from divisor_series.polynomials import Polynomial
from oracles import divisor_pairs_without_squares, pentagonal_flipped_at


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


def test_identity_check(capsys):
    code, out, _ = run_cli(capsys, "identity-check", "--order", "50")
    assert code == 0
    doc = json.loads(out)
    assert all(entry["match"] for entry in doc["results"].values())
    assert len(doc["results"]) == 6


def test_identity_check_fails_each_series_on_a_wrong_reference(capsys, monkeypatch):
    """With a wrong d table, identity-check exits 1 and every series but
    DIVISOR reports its mismatch and its first wrong index."""
    monkeypatch.setattr(divisor_series.power_series, "divisor_sieve",
                        divisor_pairs_without_squares)
    code, out, _ = run_cli(capsys, "identity-check", "--order", "50")
    assert code == 1
    results = json.loads(out)["results"]
    assert results.pop("DIVISOR") == {"match": True, "first_mismatch_index": None}
    assert len(results) == 5
    for rep, row in results.items():
        assert row == {"match": False, "first_mismatch_index": 1}, rep


def test_identity_check_exits_1_where_the_pentagonal_table_is_wrong(capsys, monkeypatch):
    """A sign flipped at exponent 40 of MERCA_ALT's (q;q)_inf fails that row
    alone, one past 40, and identity-check exits 1."""
    monkeypatch.setattr(divisor_series.power_series, "_euler_pentagonal",
                        pentagonal_flipped_at(40))
    code, out, _ = run_cli(capsys, "identity-check", "--order", "200")
    assert code == 1
    results = json.loads(out)["results"]
    assert results.pop("MERCA_ALT") == {"match": False, "first_mismatch_index": 41}
    assert all(row["match"] for row in results.values())


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


def _f_near_zero(capsys, q: str, *argv) -> None:
    """F at a tiny q meets criterion 4a's window 1 - 1/L < F < 1 - 1/L + O(q),
    L = log(1/q): the double nearest 1 - 1/L lies between F's ends."""
    code, out, _ = run_cli(capsys, "eval", "--fn", "F", "--q", q, *argv)
    assert code == 0
    doc = json.loads(out)
    with mpmath.workprec(200):
        window = float(1 - 1 / mpmath.log(1 / mpmath.mpf(q)))
    assert doc["lo"] <= window <= doc["hi"] and doc["hi"] - doc["lo"] <= 2e-15


@pytest.mark.parametrize("mode", ["fast", "certified"])
def test_eval_f_q_below_smallest_double_exit_0(capsys, mode):
    """The width eps q/(2(1-q)) that F asks of T is below the doubles, in
    either mode; T takes it as an exact rational."""
    _f_near_zero(capsys, "1e-400", "--mode", mode)


def test_eval_f_where_the_width_of_t_underflows_exit_0(capsys):
    """At q = 1e-300 and eps = 1e-30, F's width for T, eps q/(2(1-q)), is
    below the doubles; certified F still meets the window."""
    _f_near_zero(capsys, "1e-300", "--eps", "1e-30", "--mode", "certified")


@pytest.mark.parametrize("mode", ["fast", "certified"])
def test_eval_f_where_its_scale_passes_the_largest_double(capsys, mode):
    """(1-q)/q is 1e310 at q = 1e-310, past the largest double, but the width
    5e-323 it leaves for T is a double: F is 1 - 1/log(1/q) to within O(q)."""
    code, out, _ = run_cli(capsys, "eval", "--fn", "F", "--q", "1e-310", "--mode", mode)
    assert code == 0
    doc = json.loads(out)
    assert (doc["lo"] + doc["hi"]) / 2 == pytest.approx(1 - 1 / (310 * math.log(10)), abs=1e-10)


def _fast_meets_certified(capsys, *argv):
    code, out, _ = run_cli(capsys, "eval", *argv)
    assert code == 0
    fast = json.loads(out)
    code, out, _ = run_cli(capsys, "eval", *argv, "--mode", "certified")
    certified = json.loads(out)
    assert fast["mode"] == "fast"
    assert fast["lo"] <= certified["hi"] and certified["lo"] <= fast["hi"]


@pytest.mark.parametrize("fn", ["psi", "H"])
def test_eval_fast_q_below_smallest_double_exit_0(capsys, fn):
    _fast_meets_certified(capsys, "--fn", fn, "--q", "1e-400")


def test_eval_fast_psi_at_a_subnormal_q_exit_0(capsys):
    _fast_meets_certified(capsys, "--fn", "psi", "--q", "3e-320")


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


def _lemma_fn_ends(capsys, argv):
    """The ends of certified lemma-fn."""
    code, out, err = run_cli(capsys, "lemma-fn", *argv, "--mode", "certified")
    assert code == 0, err
    doc = json.loads(out)
    return doc["lo"], doc["hi"]


def _fast_lemma_fn_inside(capsys, monkeypatch, argv):
    """FAST lemma-fn exits 0 with a value inside its enclosure at 53 bits
    (certified mode at DIVISOR_SERIES_PREC=53 runs the same formula at the
    same precision), and that enclosure meets the certified one [lo, hi].
    Returns the value, lo and hi."""
    code, out, err = run_cli(capsys, "lemma-fn", *argv)
    assert code == 0, err
    value = json.loads(out)["value"]
    lo, hi = _lemma_fn_ends(capsys, argv)
    with monkeypatch.context() as env:
        env.setenv("DIVISOR_SERIES_PREC", "53")
        lo53, hi53 = _lemma_fn_ends(capsys, argv)
    assert lo53 <= value <= hi53
    assert lo53 <= hi and lo <= hi53
    return value, lo, hi


def _lemma_fn_refused(capsys, argv, message):
    code, out, err = run_cli(capsys, "lemma-fn", *argv)
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [("--name", "phi", "--q", "0.5", "--x", "1e400"),
                                  ("--name", "V", "--y", "1e400")])
def test_lemma_fn_argument_beyond_the_doubles(capsys, monkeypatch, argv):
    """Both modes lift the argument exactly, past the largest double:
    phi_q(x) -> 0 and V(y) -> 1 as x and y grow."""
    value, lo, hi = _fast_lemma_fn_inside(capsys, monkeypatch, argv)
    expected = 1.0 if argv[1] == "V" else 0.0
    assert value == pytest.approx(expected, abs=1e-15)
    assert lo <= expected <= hi


@pytest.mark.parametrize("argv", [("--name", "V", "--y", "-800"),
                                  ("--name", "V_prime", "--y", "-800"),
                                  ("--name", "phi", "--q", "0.5", "--x", "-2000"),
                                  ("--name", "K", "--q", "0.5", "--x", "-2000")])
def test_lemma_fn_where_a_fast_formula_overflows(capsys, monkeypatch, argv):
    """q^x = 2^2000 passes the doubles inside phi and K, whose values stay
    finite: FAST answers.  V(-800) and V'(-800), about -e^2400, lie beyond
    the doubles themselves: FAST exits 2 naming that, with no traceback.
    Certified mode takes every argument."""
    if argv[1].startswith("V"):
        _lemma_fn_refused(capsys, argv, f"FAST {argv[1]} lies beyond the doubles")
        _lemma_fn_ends(capsys, argv)
    else:
        _fast_lemma_fn_inside(capsys, monkeypatch, argv)


def test_lemma_fn_certified_end_beyond_the_doubles_rounds_outward(capsys):
    """V(-800), about -e^2400, is finite but below the doubles: its upper
    end is the most negative double, never -inf."""
    code, out, _ = run_cli(capsys, "lemma-fn", "--name", "V", "--y", "-800",
                           "--mode", "certified")
    assert code == 0
    assert '"hi": -1.7976931348623157e+308' in out


@pytest.mark.parametrize("argv", [("--name", "K", "--q", "0.5", "--x", "0"),
                                  ("--name", "phi", "--q", "0.5", "--x", "1e-20"),
                                  ("--name", "Phi", "--q", "0.5", "--x", "1e-20")])
def test_lemma_fn_where_q_to_the_x_rounds_to_one(capsys, argv):
    """1 - q^x encloses 0 at 53 bits: FAST exits 2 naming the unbounded
    enclosure, with no traceback.  At x = 1e-20 certified mode separates
    q^x from 1; at x = 0 it divides by 0 as well (see the test below)."""
    _lemma_fn_refused(capsys, argv, f"{argv[1]} has no bounded enclosure in fast mode")
    if argv[-1] != "0":
        _lemma_fn_ends(capsys, argv)


@pytest.mark.parametrize("argv", [("--name", "U", "--q", "1e-400"),
                                  ("--name", "h1", "--q", "1e-400"),
                                  ("--name", "A", "--q", "1e-400"),
                                  ("--name", "Theta", "--q", "1e-400", "--x", "2")])
def test_lemma_fn_where_q_underflows_a_double(capsys, monkeypatch, argv):
    """q = 1e-400 is below the smallest double, but both modes lift it
    exactly: FAST prints the 53-bit midpoint, a signed zero here."""
    assert _fast_lemma_fn_inside(capsys, monkeypatch, argv)[0] == 0.0


def test_lemma_fn_outside_the_domain_of_a_fast_formula(capsys):
    """log(1 - q^x) of a negative number: exit 2 with the cause, no traceback."""
    _lemma_fn_refused(capsys, ("--name", "Phi", "--q", "0.5", "--x", "-1"),
                      "Phi has no value at these arguments: logarithm of a negative number")


@pytest.mark.parametrize("argv, message", [
    (("--name", "Phi", "--q", "0.5", "--x", "-1"), "Phi has no value at these arguments"),
    (("--name", "K", "--q", "0.5", "--x", "0"), "K has no bounded enclosure in certified mode"),
], ids=["Phi-log-of-a-negative", "K-divides-by-0"])
def test_lemma_fn_certified_refusals(capsys, argv, message):
    """Certified mode follows the rule of FAST: exit 2, no traceback, where
    the formula raises or an end of its enclosure is infinite."""
    _lemma_fn_refused(capsys, (*argv, "--mode", "certified"), message)


@pytest.mark.parametrize("mode", ["fast", "certified"])
def test_eval_psi_at_x_beyond_the_doubles(capsys, mode):
    """q^(kx) vanishes for x = 1e400, leaving psi_q(x) = -log(1-q) = log 2."""
    code, out, _ = run_cli(capsys, "eval", "--fn", "psi", "--q", "0.5", "--x", "1e400",
                           "--mode", mode)
    assert code == 0
    doc = json.loads(out)
    with mpmath.workdps(30):
        assert doc["lo"] <= mpmath.log(2) <= doc["hi"]
    assert doc["hi"] - doc["lo"] <= 1e-12


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


@pytest.mark.parametrize("theorem", ["T4_1", "T4_2", "T4_3", "T4_4", "C3_3"])
def test_bounds_scan_matches_golden(capsys, theorem):
    """The default grid (0.01 .. 0.99, step 0.01): stdout is byte-identical
    to the golden CSV."""
    code, out, _ = run_cli(capsys, "bounds-scan", "--theorem", theorem)
    assert code == 0
    golden = Path(__file__).parent / "data" / "bounds-scan" / f"{theorem}.csv"
    assert out == golden.read_text(encoding="utf-8")


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
    code, _, err = run_cli(capsys, "verify", "--lemma", "2.4ii")
    assert code == 0
    assert _sandwich_cells(err) == {
        "2.4ii": {"doubles": 7018, "working_precision": 0, "min_margin_rechecks": 1,
                  "runs": 517, "evaluations": 1064}}
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


def test_bounds_scan_has_no_fast_mode(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds-scan", "--theorem", "T4_1", "--mode", "fast"])
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


def test_report_order_sizes_the_identities_only(capsys):
    """--order is read by report's identities section alone: with that
    section skipped it is refused before any work, else it sets the order."""
    start = time.perf_counter()
    err = _usage_error(capsys, ["report", "--skip", "identities", "--order", "5"])
    assert time.perf_counter() - start < 0.5
    assert err == "error: --order applies to the identities section only\n"
    code, out, _ = run_cli(capsys, "report", "--order", "10", "--skip", "verify",
                           "--skip", "bounds")
    assert code == 0
    assert json.loads(out)["sections"] == {"identities": {
        "order": 10, "all_match": True, "results": {r: True for r in (
            "DIVISOR", "LAMBERT", "CLAUSEN", "UCHIMURA", "MERCA_ALT", "MERCA_PARTITION")}}}


@pytest.mark.parametrize("argv, message", [
    (["coeffs", "--order", "5", "--format", "json"], "unrecognized arguments: --format json"),
    (["verify", "--lemma", "2.5", "--out", "x"], "unrecognized arguments: --out x"),
    (["eval", "--fn", "psi", "--q", "0.5", "--repr", "LAMBERT"], "--repr applies to --fn T only"),
    (["eval", "--fn", "H", "--q", "0.5", "--repr", "CLAUSEN"], "--repr applies to --fn T only"),
    (["eval", "--fn", "T", "--q", "0.5", "--x", "2"], "--x applies to --fn psi only"),
    (["eval", "--fn", "F", "--q", "0.5", "--x", "1"], "--x applies to --fn psi only"),
    (["lemma-fn", "--name", "A", "--q", "0.5", "--x", "2"], "A takes no --x"),
    (["lemma-fn", "--name", "V", "--y", "1", "--q", "0.5"], "V takes no --q"),
    (["lemma-fn", "--name", "C", "--n", "3", "--q", "0.5", "--y", "1"], "C takes no --y"),
], ids=["coeffs-format", "verify-out", "psi-repr", "H-repr", "T-x", "F-x", "A-x", "V-q", "C-y"])
def test_a_flag_that_does_nothing_is_a_usage_error(capsys, argv, message):
    """A flag the command or function does not read is refused by name, not
    ignored."""
    assert message in _usage_error(capsys, argv)


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


@pytest.mark.parametrize("theorem", ["T4_2", "SALEM_1_3", "T4_4"])
def test_bounds_scan_where_the_width_of_t_underflows_passes(capsys, theorem):
    """(1-q)/q exceeds the largest double at q = 1e-400, so the width asked
    of T is below the doubles (for T4_4, whose scale is 1e-400, above them);
    T takes it as an exact rational and the point passes."""
    code, out, _ = run_cli(capsys, "bounds-scan", "--theorem", theorem,
                           "--grid-start", "1e-400", "--grid-end", "1e-400")
    assert code == 0 and out.endswith(",PASS\n")


def test_bounds_scan_c33_below_the_square_root_of_the_smallest_double(capsys):
    """H(s)^2 underflows a double at s = 2e-200; the pair still passes."""
    code, out, _ = run_cli(capsys, "bounds-scan", "--theorem", "C3_3", "--grid-start",
                           "1e-200", "--grid-end", "2e-200", "--grid-step", "1e-200")
    assert code == 0 and out.endswith(",PASS\n")


def test_bounds_scan_c33_at_a_subnormal_s_passes(capsys):
    """H(s) is a subnormal double at s = 2e-320; the pair still passes."""
    code, out, _ = run_cli(capsys, "bounds-scan", "--theorem", "C3_3", "--grid-start",
                           "1e-320", "--grid-end", "2e-320", "--grid-step", "1e-320")
    assert code == 0 and out.endswith(",PASS\n")


def test_bounds_scan_c33_where_h_of_s_rounds_to_zero_exits_2(capsys):
    err = _usage_error(capsys, ["bounds-scan", "--theorem", "C3_3", "--grid-start",
                                "1e-330", "--grid-end", "2e-330", "--grid-step", "1e-330"])
    assert "estimate of H(s) rounds to 0" in err and "eps must be positive" not in err


def test_bounds_scan_over_the_point_cap_is_a_usage_error(capsys):
    """A tiny step is rejected from its exact point count, before any point
    is built."""
    start = time.perf_counter()
    err = _usage_error(capsys, ["bounds-scan", "--theorem", "T4_1", "--grid-step", "1e-12"])
    assert time.perf_counter() - start < 0.5
    assert ("error: grid from 1/100 to 99/100 in steps of 1/1000000000000 has 980000000001"
            " points; bounds-scan checks at most 100000") in err


@pytest.mark.parametrize("argv", [
    ["coeffs", "--order", str(MAX_ORDER + 1)],
    ["coeffs", "--repr", "MERCA_PARTITION", "--order", "100000"],
    ["identity-check", "--order", str(MAX_ORDER + 1)],
    ["report", "--order", str(MAX_ORDER + 1)],
    ["lemma-fn", "--name", "C", "--q", "0.5", "--n", str(MAX_LEMMA_N + 1)],
    ["lemma-fn", "--name", "D", "--q", "0.95", "--mode", "certified", "--n", "100000000"],
], ids=["coeffs", "coeffs-merca-partition", "identity-check", "report", "lemma-fn-C",
        "lemma-fn-D"])
def test_a_size_over_its_cap_is_a_usage_error(capsys, argv):
    """An --order or --n past its cap is refused before any work, where it
    would run for minutes."""
    start = time.perf_counter()
    err = _usage_error(capsys, argv)
    assert time.perf_counter() - start < 0.5
    flag, value = argv[-2:]
    cap = MAX_ORDER if flag == "--order" else MAX_LEMMA_N
    assert f"error: {flag} {value} exceeds the cap of {cap}\n" in err


def test_a_size_at_its_cap_is_accepted(capsys, monkeypatch):
    """The caps are inclusive, and the order cap admits CI's
    identity-check --order 1000."""
    assert MAX_ORDER >= 1000
    code, out, _ = run_cli(capsys, "coeffs", "--order", str(MAX_ORDER))
    assert code == 0 and out.count("\n") == MAX_ORDER + 2  # the header, then indices 0..cap
    seen = []
    monkeypatch.setattr(cli, "evaluate_named", lambda name, **kw: seen.append(kw["n"]) or 0.5)
    code, _, _ = run_cli(capsys, "lemma-fn", "--name", "D", "--q", "0.95", "--n", str(MAX_LEMMA_N))
    assert code == 0 and seen == [MAX_LEMMA_N]


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


@pytest.mark.parametrize("argv", [
    ["verify", "--lemma", "2.5"],
    ["verify", "--lemma", "2.9"],
    ["eval", "--fn", "T", "--q", "0.5", "--mode", "certified"],
    ["lemma-fn", "--name", "phi", "--q", "0.5", "--x", "2", "--mode", "certified"],
    ["bounds-scan", "--theorem", "T4_1", "--grid-start", "0.5", "--grid-end", "0.5"],
    ["identity-check", "--order", "10"],
], ids=["verify-2.5", "verify-2.9", "eval", "lemma-fn", "bounds-scan", "identity-check"])
def test_a_precision_that_is_no_integer_is_a_usage_error(capsys, monkeypatch, argv):
    """Every command reads DIVISOR_SERIES_PREC before it starts, including
    2.5, whose proof is exact."""
    monkeypatch.setenv("DIVISOR_SERIES_PREC", "abc")
    err = _usage_error(capsys, argv)
    assert err == "error: DIVISOR_SERIES_PREC must be an integer, got 'abc'\n"


def test_number_options_keep_the_string_as_typed(capsys):
    code, out, _ = run_cli(capsys, "eval", "--fn", "T", "--q", "0.50")
    assert code == 0 and json.loads(out)["q"] == "0.50"


@pytest.mark.parametrize("argv", [
    ["--fn", "psi", "--q", "0.3"],
    ["--fn", "T", "--q", "0.3", "--mode", "certified"],
    ["--fn", "H", "--q", "0.3"],
    ["--fn", "H", "--q", "0.3", "--mode", "certified"],
    ["--fn", "F", "--q", "0.3"],
    ["--fn", "F", "--q", "0.3", "--mode", "certified"],
], ids=["fast-psi", "certified-T", "fast-H", "certified-H", "fast-F", "certified-F"])
def test_nan_eps_is_a_usage_error(capsys, argv):
    """nan, 0 and -1 are usage errors; an infinite eps asks for no width."""
    for eps in ("nan", "0", "-1"):
        err = _usage_error(capsys, ["eval", *argv, "--eps", eps])
        assert "error: eps must be positive" in err
    code, out, _ = run_cli(capsys, "eval", *argv, "--eps", "inf")
    assert code == 0 and json.loads(out)["lo"] <= json.loads(out)["hi"]


@pytest.mark.parametrize("argv, want", [
    (["eval", "--fn", "T", "--q", "0.5"], 0),
    (["eval", "--fn", "T", "--q", "0.5", "--mode", "certified"], 1),
    (["bounds-scan", "--theorem", "T4_1", "--grid-start", "0.5", "--grid-end", "0.5"], 1),
], ids=["eval-fast", "eval-certified", "bounds-scan-T4_1"])
def test_eps_below_the_doubles_is_not_read_as_0(capsys, argv, want):
    """--eps 1e-400 rounds to 0 as a double and is taken as its exact value:
    FAST answers, certified cannot reach the width; -1e-400 stays an error."""
    code, _, err = run_cli(capsys, *argv, "--eps", "1e-400")
    assert code == want and "eps must be positive" not in err
    assert "eps must be positive" in _usage_error(capsys, [*argv, "--eps=-1e-400"])


def test_precision_error_prints_a_short_width(capsys):
    """F's width at eps 1e-310 is an exact Fraction; the error prints it as a
    short decimal on one line."""
    code, _, err = run_cli(capsys, "eval", "--fn", "F", "--q", "0.5", "--eps", "1e-310",
                           "--mode", "certified")
    assert code == 1 and err.startswith("error: cannot reach width ")
    assert len(err.splitlines()) == 1 and len(err) < 80


@pytest.mark.parametrize("argv", [
    ["eval", "--fn", "F", "--q", "0.5", "--mode", "certified"],
    ["eval", "--fn", "H", "--q", "0.5", "--mode", "certified"],
    ["bounds-scan", "--theorem", "T4_1", "--grid-start", "0.5", "--grid-end", "0.5"],
    ["bounds-scan", "--theorem", "T4_3", "--grid-start", "0.5", "--grid-end", "0.5"],
    ["bounds-scan", "--theorem", "C3_3", "--grid-start", "0.5", "--grid-end", "0.51",
     "--grid-step", "0.01"],
], ids=["F", "H", "T4_1", "T4_3", "C3_3"])
def test_precision_error_names_the_eps_given(capsys, argv):
    """F, H, T4_1 and T4_3 ask T for eps/2 or eps/4, C3_3 asks H for about
    eps H(s)/4; the error names --eps."""
    code, _, err = run_cli(capsys, *argv, "--eps", "1e-400")
    assert code == 1 and err == "error: cannot reach width 1.0e-400 within 1024 bits\n"


def test_bounds_scan_indeterminate_exits_1(capsys):
    """At eps = 1 T4_2's middle term overlaps its left bound at q = 0.99."""
    code, out, _ = run_cli(capsys, "bounds-scan", "--theorem", "T4_2", "--grid-start", "0.99",
                           "--grid-end", "0.99", "--eps", "1")
    assert code == 1 and out.splitlines()[1].endswith(",INDETERMINATE")


@pytest.mark.parametrize("theorem", ["T4_1", "C3_3"])
def test_bounds_scan_bad_eps_is_a_usage_error(capsys, theorem):
    for eps in ("nan", "0", "-1"):
        err = _usage_error(capsys, ["bounds-scan", "--theorem", theorem, "--grid-start", "0.5",
                                    "--grid-end", "0.6", "--grid-step", "0.1", "--eps", eps])
        assert "error: eps must be positive" in err


def test_verify_lemma_25(capsys):
    code, out, _ = run_cli(capsys, "verify", "--lemma", "2.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["mode"] == "certified"


def test_verify_lemma_25_exits_1_where_a_fact_fails(capsys, monkeypatch):
    """G0(0.91) > 0 breaks one exact fact of 2.5: passed is false, exit 1."""
    g0 = verifier.g0_polynomial() + Polynomial([Fraction(1, 2), Fraction(-1, 2)])
    monkeypatch.setattr(verifier, "g0_polynomial", lambda: g0)
    code, out, _ = run_cli(capsys, "verify", "--lemma", "2.5")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False and doc["failures"] == [] and doc["details"]["g0_at_0.91"] > 0


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


def test_report_verify_section_matches_the_certificates(capsys):
    """The verify section lists the five lemmas and thm3.2 as passed, with
    the golden certificates' min_margin, and writes the sandwich_cells line
    of verify --lemma thm3.2."""
    code, out, err = run_cli(capsys, "report", "--skip", "identities", "--skip", "bounds")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and set(doc["sections"]) == {"verify"}
    section = doc["sections"]["verify"]
    lemmas = ["2.4i", "2.4ii", "2.5", "2.8", "2.9"]
    assert section["lemmas"] == dict.fromkeys(lemmas, True) and section["thm3.2"] is True
    golden = Path(__file__).parent / "data" / "certificates"
    assert section["min_margins"] == {
        lemma: json.loads((golden / f"{lemma}.json").read_text(encoding="utf-8"))["min_margin"]
        for lemma in lemmas}
    _, _, verify_err = run_cli(capsys, "verify", "--lemma", "thm3.2")
    cells = [line for line in err.splitlines() if line.startswith("sandwich_cells: ")]
    assert cells == [line for line in verify_err.splitlines()
                     if line.startswith("sandwich_cells: ")]
    assert len(cells) == 1


def test_report_prints_json_only(capsys):
    """report has no --format: its one document is JSON."""
    assert "--format" in _usage_error(capsys, ["report", "--format", "csv"])


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_closed_stdout_ends_without_a_traceback(unbuffered):
    """A reader that has closed the pipe before the CLI writes (grep -q past
    its match): the CLI exits EXIT_BROKEN_PIPE with nothing on stderr, with
    stdout buffered or not."""
    src = str(Path(divisor_series.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "divisor_series.cli", "lemma-fn", "--name", "A", "--q", "1e-30"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == (EXIT_BROKEN_PIPE, "")
