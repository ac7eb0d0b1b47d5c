"""Tests of the benchmark itself, at tiny sizes.

Run from the root of the repository with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

import references
import run
import speed
import tracing
import workloads

LIB = run.load_library()
REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload: the proof's grids, one request per pointwise
    cell, and small identity orders.  Results go to a temporary directory."""
    ver = LIB.verifier
    monkeypatch.setattr(ver, "lemma_2_4_ii_grid", lambda: ver.GridSpec(
        (ver.GridSegment(Fraction(117, 1000), Fraction(1, 1000), 8),)))
    monkeypatch.setattr(ver, "lemma_2_9_grid", lambda: ver.GridSpec(
        (ver.GridSegment(Fraction(91, 100), Fraction(1, 10000), 8),)))
    monkeypatch.setattr(ver, "lemma_2_4_i_v_prime_grid", lambda: ver.GridSpec(
        (ver.GridSegment(Fraction(2145, 1000), Fraction(5, 1000), 20),)))
    monkeypatch.setitem(workloads.WORKLOADS, "pointwise", workloads.Workload(
        lambda rng: workloads.pointwise_inputs(rng, scale=6), workloads.run_pointwise))
    monkeypatch.setitem(workloads.WORKLOADS, "identities", workloads.Workload(
        lambda rng: workloads.identities_inputs(rng, orders=(12, 20)),
        workloads.run_identities))
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def _result(capsys, workload: str, trace: int) -> dict:
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(tiny, capsys, workload):
    result = _result(capsys, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(tiny, capsys, workload):
    result = _result(capsys, workload, 1)
    assert result["correct"] is True
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.PER_LAYER
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert values["verifier.cells"] == 16  # 8 cells each for 2.4ii and 2.9
    assert all(values[f"{layer}.self_s"] > 0 for layer in tracing.LAYERS)
    assert (tiny / f"spans-{workload}-seed3.jsonl.gz").is_file()


def test_corrupted_reference_is_a_failure(monkeypatch):
    def corrupted(req):
        value, radius = references.reference(
            {"eval_psi_q": "psi", "eval_H": "H", "eval_F": "F"}.get(req.cls, "T"),
            req.q, req.eps, req.x)
        return value + Fraction(1, 10**6), radius

    monkeypatch.setattr(workloads, "request_reference", corrupted)
    requests = workloads.pointwise_inputs(random.Random(5), scale=6)
    out = workloads.Outcome()
    workloads.run_pointwise(LIB, requests, tracing.NullTracer(), out)
    checked = sum(1 for r in requests if r.cls != "check_bounds")
    assert out.attempted == len(requests)
    assert out.failed == checked


def test_forced_wrong_verdicts_are_failures(monkeypatch):
    real_verify = LIB.verify_lemma

    def wrong_2_5(lemma, mode, jobs=1):
        cert = real_verify(lemma, mode, jobs=jobs)
        if lemma == "2.5":
            cert.passed = False
        return cert

    monkeypatch.setattr(LIB, "verify_lemma", wrong_2_5)
    out = workloads.Outcome()
    workloads.run_proof(LIB, ("2.5", "2.8"), tracing.NullTracer(), out)
    # lemma 2.5 fails, and the roll-up fails for want of three certificates
    assert (out.attempted, out.failed) == (3, 2)

    report = LIB.identity_report(10)
    report[LIB.RepresentationId.UCHIMURA] = LIB.IdentityMatch(False, 4)
    monkeypatch.setattr(LIB, "identity_report", lambda order: report)
    out = workloads.Outcome()
    workloads.run_identities(LIB, (10,), tracing.NullTracer(), out)
    assert (out.attempted, out.failed) == (6, 1)

    req = workloads.Request("check_bounds", Fraction(1, 2), 1e-8, theorem="T4_1")
    verdict = LIB.check_bounds(LIB.TheoremId.T4_1, req.q, eps=req.eps)
    assert workloads.check_request(req, verdict, None) is None
    forced = LIB.BoundsCheck(verdict.theorem, verdict.argument, verdict.lhs, verdict.mid,
                             verdict.rhs, LIB.BoundsStatus.INDETERMINATE, False, verdict.mode)
    assert workloads.check_request(req, forced, None) is not None


def test_exception_is_a_failure(monkeypatch):
    def broken(*args, **kwargs):
        raise ArithmeticError("broken")

    monkeypatch.setattr(LIB, "eval_H", broken)
    requests = [workloads.Request("eval_H", Fraction(1, 2), 1e-8)]
    out = workloads.Outcome()
    workloads.run_pointwise(LIB, requests, tracing.NullTracer(), out)
    assert (out.attempted, out.failed) == (1, 1)


def test_speed_probe_scales_and_leaves_out_its_own_time():
    probe = speed.SpeedProbe()
    slow = 2 * speed.REFERENCE_LOOP_S  # a spell at half the reference speed
    probe.samples = [(t, t + slow, slow) for t in (0.0, 0.5, 1.0, 1.5, 2.0)]
    probe._starts = [t for t, _, _ in probe.samples]
    assert probe.scale(0.6, 1.4) == pytest.approx(0.5)
    # [0.6, 1.4] holds the whole sample at 1.0 and none of the others
    assert probe.adjust(0.6, 1.4) == pytest.approx((0.8 - slow) * 0.5)
    with speed.SpeedProbe() as live:
        speed.time.sleep(3 * speed.INTERVAL_S)
    assert live.samples and all(cpu > 0 for _, _, cpu in live.samples)


def test_reference_routes_agree():
    for q in (Fraction(1, 1000), Fraction(1, 2), Fraction(9, 10)):
        for x in workloads.PSI_X:
            with mp.workprec(200):
                qm = mp.mpf(q.numerator) / q.denominator
                qx = mp.power(qm, mp.mpf(x.numerator) / x.denominator)
                direct = mp.nsum(lambda k: qx**k / (1 - qm**k), [1, mp.inf])
            clausen = references.clausen_sum(q, x, 200)
            assert abs(clausen - direct) < 1e-50 * clausen
    f_value, _ = references.reference("F", Fraction(1, 1000), 1e-12)
    assert abs(float(f_value) - 0.8563075802) < 1e-10


def test_pointwise_inputs_follow_the_seed():
    a = workloads.pointwise_inputs(random.Random(7))
    assert a == workloads.pointwise_inputs(random.Random(7))
    assert a != workloads.pointwise_inputs(random.Random(8))
    assert all(0 < r.q < 1 for r in a)
    near_one = [r.q for r in a if r.cls in ("eval_T_slowrepr", "eval_psi_q")]
    assert max(near_one) <= Fraction(99, 100)


def test_tracer_restores_the_library():
    original = LIB.special_eval.eval_T
    tracer = tracing.Tracer()
    tracer.install(run.package_modules(LIB))
    try:
        assert LIB.special_eval.eval_T is not original
        with tracer.request("pointwise:eval_H", 0):
            LIB.eval_H(Fraction(1, 2), 1e-8)
    finally:
        tracer.uninstall()
    assert LIB.special_eval.eval_T is original
    names = [span[0] for span in tracer.spans]
    assert names[:3] == ["pointwise:eval_H", "special_eval.eval_H", "special_eval.eval_T"]
    assert tracer.spans[2][3] == 1 and tracer.spans[2][4] == 0
    assert tracer.self_seconds()["special_eval"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pointwise", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
