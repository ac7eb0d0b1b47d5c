"""CLI surface: subcommands, formats, exit codes, determinism."""

import json

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
    code, out, _ = run_cli(capsys, "verify", "--lemma", "2.9", "--mode", "certified")
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


def test_verify_lemma_24ii_jobs_2_matches_jobs_1(capsys):
    """The sandwich evaluators reach the worker processes pickled."""
    code1, out1, _ = run_cli(capsys, "verify", "--lemma", "2.4ii", "--jobs", "1")
    code2, out2, _ = run_cli(capsys, "verify", "--lemma", "2.4ii", "--jobs", "2")
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()


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
