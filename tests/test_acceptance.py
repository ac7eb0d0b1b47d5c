"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every criterion passes.  Criterion 4a checks the
q -> 0 end of F against an analytic window (derived in its docstring): F
approaches its limit 1 only at a 1/log(q) rate, so F(0.001) = 0.85630758...
and the window (0.99, 1.0) is reached only for q < e^-100.
"""

import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import iv
from scipy.integrate import quad

from divisor_series.cli import main
from divisor_series.intervals import Enclosure, Mode, gamma_enclosure, interval_precision
from divisor_series.lemma_functions import (
    delta_polynomial,
    g0_polynomial,
    evaluate_named,
    phi_antiderivative,
)
from divisor_series.polynomials import sturm_root_count
from divisor_series.power_series import (
    RepresentationId,
    build_representation,
    identity_report,
)
from divisor_series.special_eval import (
    QPoint,
    TheoremId,
    check_bounds,
    eval_F,
    eval_H,
    landau_constant_from_t,
    landau_fibonacci,
)
from divisor_series.verifier import (
    combine_theorem_3_2,
    verify_lemma,
)
from oracles import overlaps, series_product, span

GRID = [Fraction(k, 100) for k in range(1, 100)]  # 0.01 .. 0.99


def _record(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"[ACCEPTANCE] {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed{suffix}"


@pytest.fixture(scope="module")
def certificates():
    """All five lemma certificates, computed once; wall times recorded."""
    certs, times = {}, {}
    for lemma in ("2.4i", "2.4ii", "2.5", "2.8", "2.9"):
        t0 = time.perf_counter()
        certs[lemma] = verify_lemma(lemma, Mode.CERTIFIED)
        times[lemma] = time.perf_counter() - t0
    return certs, times


def test_criterion_1_coefficient_identities():
    t0 = time.perf_counter()
    report = identity_report(200)
    all_match = all(r.match for r in report.values())

    from divisor_series.divisor_core import distinct_partition_stats
    n = 60
    s_odd, s_even = distinct_partition_stats(n)
    euler = (1,) + (0,) * n  # (q;q)_inf, one factor 1 - q^j at a time
    for j in range(1, n + 1):
        euler = series_product(euler, [1] + [-1 if k == j else 0 for k in range(1, n + 1)])
    lhs = series_product(euler, build_representation(RepresentationId.DIVISOR, n).coeffs)
    rhs = tuple(
        [Fraction(0)] + [Fraction(s_odd[k] - s_even[k]) for k in range(1, n + 1)]
    )
    merca_ok = lhs == rhs
    elapsed = time.perf_counter() - t0
    _record(
        "criterion 1 (identities, N=200 exact; Merca partition N=60)",
        all_match and merca_ok and elapsed < 30.0,
        f"all_match={all_match}, merca={merca_ok}, {elapsed:.1f}s",
    )


def test_criterion_2_landau_constant():
    t0 = time.perf_counter()
    window_lo = Fraction("1.53537") - Fraction(5, 10**6)
    window_hi = Fraction("1.53537") + Fraction(5, 10**6)
    direct = landau_constant_from_t(1e-7)
    fib = landau_fibonacci(30)
    elapsed = time.perf_counter() - t0
    ok = (
        direct.contained_in(window_lo, window_hi)
        and fib.contained_in(window_lo, window_hi)
        and overlaps(direct, fib)
        and elapsed < 1.0
    )
    _record(
        "criterion 2 (Landau constant, both routes in 1.53537 +/- 5e-6)",
        ok,
        f"direct={direct.to_floats()}, {elapsed:.2f}s",
    )


def test_criterion_3_sharp_bounds_grid():
    t0 = time.perf_counter()
    failures = []
    for theorem in (TheoremId.SALEM_1_3, TheoremId.T4_1, TheoremId.T4_2,
                    TheoremId.T4_3, TheoremId.T4_4):
        for q in GRID:
            result = check_bounds(theorem, q=QPoint(q))
            if not result.strict_ok:
                failures.append((theorem.value, float(q)))
    for r, s in zip(GRID, GRID[1:]):
        result = check_bounds(TheoremId.C3_3, pair=(QPoint(r), QPoint(s)))
        if not result.strict_ok:
            failures.append(("C3_3", float(r)))
    rng = random.Random(20260810)
    for _ in range(50):
        r = Fraction(rng.randint(100, 9800), 10000)
        s = r + Fraction(rng.randint(1, 9899 - int(r * 10000)), 10000)
        result = check_bounds(TheoremId.C3_3, pair=(QPoint(r), QPoint(s)))
        if not result.strict_ok:
            failures.append(("C3_3-random", float(r)))
    elapsed = time.perf_counter() - t0
    _record(
        "criterion 3 (Salem + sharp bounds, certified strict on grid)",
        not failures and elapsed < 120.0,
        f"{len(GRID) * 5 + len(GRID) - 1 + 50} checks, failures={failures[:3]}, {elapsed:.1f}s",
    )


def _f_window_near_zero(q: Fraction) -> tuple[Enclosure, Enclosure]:
    """Enclosures of the analytic bounds 1 - 1/L and 1 - 1/L + a+ + b+/L on
    F(q), L = log(1/q), from exact rationals and mpmath.iv alone (no
    evaluator of T, H or F is involved)."""
    a_plus = q + 1 / (1 - q) ** 2 - 1 - 2 * q - 3 * q**2
    b_plus = q / 2 + q**2 / (6 * (1 - q))
    with interval_precision(128):
        log_inv_q = iv.log(iv.mpf(q.denominator) / q.numerator)
        lower = 1 - 1 / log_inv_q
        upper = (lower + iv.mpf(a_plus.numerator) / a_plus.denominator
                 + iv.mpf(b_plus.numerator) / b_plus.denominator / log_inv_q)
    return Enclosure(lower), Enclosure(upper)


def test_criterion_4a_f_window_near_zero():
    """The q -> 0 end of F: F(0+) = 1, approached from below.

    With L = log(1/q), a = (1-q)T(q)/q - 1 = sum_{k>=1} (d(k+1)-d(k)) q^k and
    b = 1 - (1-q)(-log(1-q))/q = sum_{k>=1} q^k/(k(k+1)),

        F(q) = 1 - 1/L + a + b/L.

    a > 0 since T(q) > q/(1-q), and b > 0.  From d(2)-d(1) = 1,
    d(3)-d(2) = 0 and d(k+1) <= k+1,
    a < a+ = q + 1/(1-q)^2 - 1 - 2q - 3q^2; also b < b+ = q/2 + q^2/(6(1-q)).
    Hence, for every q in (0, 1),

        1 - 1/L < F(q) < 1 - 1/L + a+ + b+/L.

    F(q) > 0.99 needs L > 100, i.e. q < e^-100: F(0.001) = 0.8563075802...
    lies nowhere near (0.99, 1.0).  The test checks (i) the certified F(0.001)
    lies strictly inside the window above; (ii) along q = 10^-3 ... 10^-100
    the certified values strictly increase as q decreases and stay strictly
    below 1; (iii) at q = 10^-50, which the lower bound alone places below
    e^-100, F lies in (0.99, 1.0).
    """
    ladder = [Fraction(1, 10**e) for e in (3, 6, 12, 25, 50, 100)]
    f_vals = [eval_F(q, 1e-10).value for q in ladder]

    lower, upper = _f_window_near_zero(ladder[0])
    f0 = f_vals[0]
    in_window = lower.strictly_below(f0) and f0.strictly_below(upper)

    increasing = all(a.strictly_below(b) for a, b in zip(f_vals, f_vals[1:]))
    below_one = all(f.strictly_below(1) for f in f_vals)

    q_far = Fraction(1, 10**50)
    lower_far, _ = _f_window_near_zero(q_far)
    f_far = f_vals[ladder.index(q_far)]
    window_far = (
        Enclosure(Fraction(99, 100)).strictly_below(lower_far)
        and Enclosure(Fraction(99, 100)).strictly_below(f_far)
        and f_far.strictly_below(1)
    )

    lo, hi = f0.to_floats()
    _record(
        "criterion 4a (F near 0: inside the analytic window at 0.001, "
        "increasing to 1 from below, in (0.99, 1.0) at 1e-50)",
        in_window and increasing and below_one and window_far,
        f"F(0.001) = [{lo:.12f}, {hi:.12f}], window "
        f"({lower.to_floats()[0]:.10f}, {upper.to_floats()[1]:.10f}); "
        f"F(1e-50) = {f_far.to_floats()}; increasing={increasing}, below_one={below_one}",
    )


def test_certified_f_at_1e_300_meets_the_window(capsys):
    """-log(1-q) is summed from its series for q <= 2^-64, so certified F
    keeps its digits where iv.log(1 - q), good only to 2^-prec absolutely,
    left H with none (and F exited 1).  At q = 1e-300 the window of
    criterion 4a is about 1e-300 wide, far below one unit in the last place
    of a double, so the printed enclosure cannot lie strictly inside it:
    the check is that it holds the whole window and is at most two units in
    the last place wide."""
    code = main(["eval", "--fn", "F", "--q", "1e-300", "--mode", "certified"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    lower, upper = _f_window_near_zero(Fraction(1, 10**300))
    f = span(Fraction(doc["lo"]), Fraction(doc["hi"]))
    assert f.lo <= lower.lo and upper.hi <= f.hi
    assert doc["hi"] - doc["lo"] <= 2 * math.ulp(doc["hi"])


def test_criterion_4b_f_limit_near_one():
    gamma = gamma_enclosure()
    f = eval_F("0.9999", 1e-7)
    ok = gamma.strictly_below(f.value) and f.value.to_floats()[1] < gamma.to_floats()[0] + 0.01
    _record(
        "criterion 4b (F(0.9999) in (gamma, gamma + 0.01))",
        ok,
        f"F={f.value.to_floats()}",
    )


def test_criterion_4c_monotonicity_witnesses():
    t0 = time.perf_counter()
    h_vals = [eval_H(QPoint(q), 1e-8).value for q in GRID]
    f_vals = [eval_F(QPoint(q), 1e-8).value for q in GRID]
    h_increasing = all(a.strictly_below(b) for a, b in zip(h_vals, h_vals[1:]))
    f_decreasing = all(b.strictly_below(a) for a, b in zip(f_vals, f_vals[1:]))
    gamma = gamma_enclosure()
    f_window = all(gamma.strictly_below(f) and f.strictly_below(Enclosure(1)) for f in f_vals)
    elapsed = time.perf_counter() - t0
    _record(
        "criterion 4c (H strictly increasing, F strictly decreasing, gamma < F < 1 on grid)",
        h_increasing and f_decreasing and f_window,
        f"{len(GRID)} points, {elapsed:.1f}s",
    )


def test_criterion_5_grid_certificates(certificates):
    certs, times = certificates
    c24 = certs["2.4ii"]
    c29 = certs["2.9"]
    combined_time = times["2.4ii"] + times["2.9"]
    ok = (
        c24.passed and c24.cells_checked == 7018 and c24.min_margin > 0
        and c29.passed and c29.cells_checked == 900 and c29.min_margin > 0
        and c29.details["j2_limit"] == "208609/55440"
        and combined_time < 300.0
    )
    _record(
        "criterion 5 (sandwich certificates: 7018 + 900 cells, certified)",
        ok,
        f"margins: 2.4ii={c24.min_margin:.3e}, 2.9={c29.min_margin:.3e}, "
        f"{combined_time:.1f}s combined",
    )


def test_criterion_6_sturm_counts():
    t0 = time.perf_counter()
    delta = delta_polynomial()
    g0 = g0_polynomial()
    a, b = Fraction(91, 100), Fraction(1)
    counts_ok = sturm_root_count(delta, a, b) == 1 and sturm_root_count(g0, a, b) == 1
    delta_val = delta(a)
    g0_val = g0(a)
    values_ok = (
        abs(float(delta_val) - 1.76) < 0.01
        and abs(float(g0_val) - (-0.0028)) < 5e-4
        and delta(b) == 0
        and g0(b) == 0
    )
    elapsed = time.perf_counter() - t0
    _record(
        "criterion 6 (Sturm: one root each in [0.91, 1]; exact endpoints)",
        counts_ok and values_ok and elapsed < 10.0,
        f"Delta(0.91)={float(delta_val):.6f}, G0(0.91)={float(g0_val):.6f}, {elapsed:.1f}s",
    )


def test_criterion_7_analytic_spot_checks(certificates):
    certs, _ = certificates
    c_i = certs["2.4i"]
    c_8 = certs["2.8"]
    v_enc = c_i.details["v_at_minus_log_0.117"]
    v_ok = abs(v_enc[0] - 0.0022) < 5e-4 and abs(v_enc[1] - 0.0022) < 5e-4
    vp_ok = c_i.details["min_v_prime_on_grid"] > 0
    sqrt3_ok = Fraction(2145, 1000) ** 2 > 3  # grid start is past sqrt(3), exactly
    env = c_8.details["envelope_(h2+h3)/14_at_0.91"]
    env_ok = abs(env[1] - 0.034) < 1e-3 and env[1] < 0.035
    phi_prime_ok = c_8.details["min_phi_prime_margin_on_grid"] >= 0
    _record(
        "criterion 7 (V endpoint + V' grid; h-envelope and phi' >= -0.035)",
        c_i.passed and c_8.passed and v_ok and vp_ok and sqrt3_ok and env_ok and phi_prime_ok,
        f"V={v_enc}, envelope_hi={env[1]:.6f}, min_phi'+0.035={c_8.details['min_phi_prime_margin_on_grid']:.4f}",
    )


def test_criterion_8_theorem_rollup(certificates):
    """Exact rational arithmetic on the stated constants gives
    36/1000 - 35/2000 - 35/8000 = 113/8000 = 0.014125 (the published display
    is "0.014...").  The figure 227/16000 = 0.0141875 floating around for this
    margin does not survive the exact-arithmetic oracle; see the notes."""
    certs, _ = certificates
    rollup = combine_theorem_3_2(certs)
    exact = Fraction(36, 1000) - Fraction(35, 2000) - Fraction(35, 8000)
    margin_ok = (
        exact == Fraction(113, 8000)
        and rollup.details["margin_exact"] == "113/8000"
        and rollup.min_margin == 0.014125
        and exact > 0
    )
    # fault injection: a failed ingredient must break the roll-up
    import dataclasses
    broken = dict(certs)
    broken["2.9"] = dataclasses.replace(certs["2.9"], passed=False)
    fault_ok = not combine_theorem_3_2(broken).passed
    _record(
        "criterion 8 (roll-up margin exact 113/8000 = 0.014125, all ingredients)",
        rollup.passed and margin_ok and fault_ok,
        f"margin={rollup.min_margin}",
    )


_GOLDEN_CERTIFICATES = Path(__file__).parent / "data" / "certificates"


def test_certificates_match_golden_bytes(certificates):
    """The JSON of the five lemma certificates and the roll-up is the one
    committed under tests/data/certificates.  A change that alters a
    certificate must regenerate these files and say why."""
    certs, _ = certificates
    docs = {lid: cert.to_json() for lid, cert in certs.items()}
    docs["thm3.2"] = combine_theorem_3_2(certs).to_json()
    changed = sorted(lid for lid, text in docs.items()
                     if (_GOLDEN_CERTIFICATES / f"{lid}.json").read_bytes() != text.encode())
    _record("golden certificates (byte-identical JSON)", not changed, f"changed: {changed}")


def test_criterion_9_oracle_equivalences():
    t0 = time.perf_counter()
    # (a) finite differences vs closed forms on a 10x10 grid
    from test_lemma_functions import phi_fd_oracle
    fd_ok = True
    for i in range(10):
        q = 0.05 + 0.1 * i
        for j in range(10):
            x = 1.2 + 1.1 * j
            d1 = evaluate_named("phi_prime", q=q, x=x)
            d2 = evaluate_named("phi_second", q=q, x=x)
            fd1, fd2 = phi_fd_oracle(q, x)
            if abs(fd1 - d1) > 1e-5 * max(abs(d1), 1e-12):
                fd_ok = False
            if abs(fd2 - d2) > 1e-5 * max(abs(d2), 1e-12):
                fd_ok = False

    # (b) quadrature vs antiderivative differences on 20 intervals
    rng = random.Random(42)
    quad_ok = True
    for _ in range(20):
        q = rng.uniform(0.05, 0.95)
        a = rng.uniform(1.0, 20.0)
        b = a + rng.uniform(0.5, 10.0)
        integral, _ = quad(lambda x: evaluate_named("phi", q=q, x=x), a, b,
                           epsabs=1e-12, epsrel=1e-12)
        closed = phi_antiderivative(q, b) - phi_antiderivative(q, a)
        if abs(integral - closed) >= 1e-8:
            quad_ok = False

    # (c) Sturm vs sampling oracle on 20 random rational-rooted polynomials
    from test_polynomials import poly_from_roots, sampling_root_count
    sturm_ok = True
    rng = random.Random(7)
    for _ in range(20):
        degree = rng.randint(2, 10)
        roots = set()
        while len(roots) < degree:
            roots.add(Fraction(rng.randint(-12, 12), rng.randint(1, 6)))
        p = poly_from_roots(sorted(roots))
        a, b = Fraction(-15), Fraction(15)
        if sturm_root_count(p, a, b) != sampling_root_count(p, a, b):
            sturm_ok = False
    elapsed = time.perf_counter() - t0
    _record(
        "criterion 9 (oracle equivalences: FD, quadrature, Sturm sampling)",
        fd_ok and quad_ok and sturm_ok,
        f"fd={fd_ok}, quad={quad_ok}, sturm={sturm_ok}, {elapsed:.1f}s",
    )
