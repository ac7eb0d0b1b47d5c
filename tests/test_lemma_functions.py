"""Auxiliary-function formulas against finite-difference / quadrature
oracles and the pinned spot values."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import iv, mp
from scipy.integrate import quad

from divisor_series import lemma_functions, verifier
from divisor_series.intervals import (
    DomainError,
    DoubleInterval,
    Enclosure,
    Mode,
    interval_precision,
    mpf_to_fraction,
    to_ivmpf,
)
from divisor_series.lemma_functions import (
    _on_intervals,
    correction_sums,
    delta_polynomial,
    g0_polynomial,
    h1_raw,
    h2_denominator_polynomial,
    h2_raw,
    h3_numerator_polynomial,
    h3_raw,
    phi_antiderivative,
    phi_raw,
    theta_raw,
    v_prime_raw,
    v_prime_run_raw,
    v_raw,
    evaluate_named,
    j1_raw,
    j2_raw,
    w1_raw,
    w2_raw,
)
from divisor_series.polynomials import Polynomial


# -- closed forms vs finite differences ---------------------------------------


def test_phi_vanishes_at_one():
    for q in (0.1, 0.5, 0.9, 0.999):
        lo, hi = evaluate_named("phi", q=q, x=1, mode=Mode.CERTIFIED).to_floats()
        assert -1e-14 <= lo <= 0 <= hi <= 1e-14
    assert evaluate_named("phi", q=0.37, x=1, mode=Mode.CERTIFIED).contains(0)


def test_phi_hand_value():
    # q=0.5, x=2: 0.25 * 0.25 / 0.75^2 = 1/9
    assert evaluate_named("phi", q=0.5, x=2.0) == pytest.approx(1.0 / 9.0, rel=1e-14)


def test_phi_prime_finite_difference_spot():
    q, x, h = 0.7, 3.0, 1e-6
    fd = (evaluate_named("phi", q=q, x=x + h) - evaluate_named("phi", q=q, x=x - h)) / (2 * h)
    closed = evaluate_named("phi_prime", q=q, x=x)
    assert abs(fd - closed) / abs(closed) < 1e-6


def phi_fd_oracle(q: float, x: float):
    """Central finite differences of an independently transcribed phi, in
    high-precision arithmetic so the oracle noise stays below the tolerance
    even where phi'' crosses zero (near the inflection point)."""
    from mpmath import mp

    with mp.workprec(250):
        qm, xm, h = mp.mpf(q), mp.mpf(x), mp.mpf(10) ** -12

        def phi_mp(xx):
            qx = mp.power(qm, xx)
            return qx * (qx - qm * xx + xx - 1) / (1 - qx) ** 2

        d1 = (phi_mp(xm + h) - phi_mp(xm - h)) / (2 * h)
        d2 = (phi_mp(xm + h) - 2 * phi_mp(xm) + phi_mp(xm - h)) / h**2
        return float(d1), float(d2)


def test_derivatives_finite_difference_grid():
    """phi' and phi'' vs central differences, 10x10 grid, rel err < 1e-5."""
    qs = [0.05 + 0.1 * i for i in range(10)]
    xs = [1.2 + 1.1 * j for j in range(10)]
    for q in qs:
        for x in xs:
            fd1, fd2 = phi_fd_oracle(q, x)
            d1 = evaluate_named("phi_prime", q=q, x=x)
            d2 = evaluate_named("phi_second", q=q, x=x)
            assert abs(fd1 - d1) <= 1e-5 * max(abs(d1), 1e-12)
            assert abs(fd2 - d2) <= 1e-5 * max(abs(d2), 1e-12)


def test_a_second_derivative_matches_b():
    """a''_q(x) = 4 q^x log^2(q) (1-q) b_q(x), FD oracle in high precision."""
    from mpmath import mp

    for q, x in ((0.3, 2.0), (0.6, 5.0), (0.95, 10.0)):
        with mp.workprec(250):
            qm, xm, h = mp.mpf(q), mp.mpf(x), mp.mpf(10) ** -12

            def a_mp(xx):
                qx = mp.power(qm, xx)
                lq = mp.log(qm)
                return (1 - qm) * (
                    -xx * (1 + 4 * qx + qx * qx) * lq
                    - 2 * (1 - qx * qx)
                    + (1 - qx * qx) * lq / (1 - qm)
                )

            fd = float((a_mp(xm + h) - 2 * a_mp(xm) + a_mp(xm - h)) / h**2)
        closed = 4 * q**x * math.log(q) ** 2 * (1 - q) * evaluate_named("b", q=q, x=x)
        assert abs(fd - closed) <= 1e-5 * abs(closed)


def test_v_prime_finite_difference():
    for y in (2.2, 3.0, 10.0):
        h = 1e-6
        fd = (evaluate_named("V", y=y + h) - evaluate_named("V", y=y - h)) / (2 * h)
        assert abs(fd - evaluate_named("V_prime", y=y)) < 1e-9


def test_v_prime_run_bound_is_below_v_prime_on_its_span():
    """For 2.145 <= a <= y <= b <= 50 the double enclosure of the run bound
    L(a, b) starts below the working-precision V'(y)."""
    rng = random.Random(20261018)
    for _ in range(200):
        a, y, b = sorted(Fraction(rng.randrange(2145, 50001), 1000) for _ in range(3))
        bound = v_prime_run_raw(DoubleInterval.lift(a), DoubleInterval.lift(b))
        value = Enclosure(_on_intervals(Mode.CERTIFIED, v_prime_raw, y))
        assert Fraction(bound.lo) <= mpf_to_fraction(value.hi)


@pytest.mark.parametrize("y", [Fraction(2145, 1000), Fraction(7, 2), Fraction(50)])
def test_v_prime_run_bound_at_one_point_is_v_prime(y):
    """v_prime_run_raw(y, y) is V'(y) bit for bit at working precision."""
    run = Enclosure(_on_intervals(Mode.CERTIFIED, v_prime_run_raw, y, y))
    value = Enclosure(_on_intervals(Mode.CERTIFIED, v_prime_raw, y))
    assert (run.lo, run.hi) == (value.lo, value.hi)


# -- antiderivative ------------------------------------------------------------


def _recorded_sandwich_doubles() -> list[dict]:
    path = Path(__file__).parent / "data" / "sandwich-doubles.json"
    points = json.loads(path.read_text(encoding="utf-8"))["points"]
    assert len(points) == 43
    return points


def test_sandwich_bounds_in_doubles_match_the_recorded_endpoints_bit_for_bit():
    """W1, W2, J1 and J2 on DoubleInterval.lift(q) give exactly the doubles
    recorded in tests/data/sandwich-doubles.json: 40 seeded q in
    [0.117, 0.9999] and 117/1000, 91/100, 9999/10000.  The same doubles
    give the same run splits and byte-identical sandwich certificates."""
    for row in _recorded_sandwich_doubles():
        x = DoubleInterval.lift(Fraction(row["q"]))
        for name, fn in (("W1", w1_raw), ("W2", w2_raw), ("J1", j1_raw), ("J2", j2_raw)):
            got = fn(x)
            assert [got.lo.hex(), got.hi.hex()] == row[name], (row["q"], name)


def test_positive_form_sums_enclose_the_closed_form_and_are_no_wider():
    """At every recorded q, the W2 and J2 doubles of the positive form
    contain the 256-bit enclosure of the closed-form sum of phi_raw(q, k), and
    are no wider than the recorded doubles of that closed form summed in
    DoubleInterval (the W2_closed_form and J2_closed_form columns)."""
    for row in _recorded_sandwich_doubles():
        q = Fraction(row["q"])
        with interval_precision(256):
            q_iv = to_ivmpf(q)
            phis = [phi_raw(q_iv, k) for k in range(1, 41)]
            closed = {"W2": Enclosure(sum(phis[1:], phis[0])),
                      "J2": Enclosure(sum(phis[1:10], phis[0]) + phis[10] / 2)}
        for name, fn in (("W2", w2_raw), ("J2", j2_raw)):
            got = fn(DoubleInterval.lift(q))
            assert closed[name].contained_in(Fraction(got.lo), Fraction(got.hi)), (q, name)
            old_lo, old_hi = (float.fromhex(h) for h in row[f"{name}_closed_form"])
            assert Fraction(got.hi) - Fraction(got.lo) <= Fraction(old_hi) - Fraction(old_lo), (
                q, name)


@pytest.mark.parametrize("half_last", [False, True])
@pytest.mark.parametrize("k_max", [11, 40])
def test_phi_integer_sum_meets_the_closed_form_terms_at_256_bits(k_max, half_last):
    """The positive form q^k N_k / S_k^2 overlaps the sum of the closed-form
    phi_raw(q, k) at 20 seeded q in (0, 1), and stays narrower than 1e-60."""
    rng = random.Random(17)
    with interval_precision(256):
        for _ in range(20):
            q = to_ivmpf(Fraction(rng.randrange(1, 10**6), 10**6))
            terms = [phi_raw(q, k) for k in range(1, k_max + 1)]
            if half_last:
                terms[-1] = terms[-1] / 2
            closed = Enclosure(sum(terms[1:], terms[0]))
            positive = Enclosure(lemma_functions.phi_integer_sum_raw(q, k_max, half_last))
            assert positive.intersects(closed), (q, k_max)
            assert positive.width_upper() < 1e-60, (q, k_max)


def _hex(x: DoubleInterval) -> tuple[str, str]:
    return x.lo.hex(), x.hi.hex()


def _float_loop_points() -> list[DoubleInterval]:
    """Seeded q inside the float loop's guard [2^-24, 1]: lifted rationals in
    (0, 1) and near the threshold, exact dyadic points, 1 and the threshold."""
    rng = random.Random(20261019)
    lifted = [Fraction(rng.randrange(1, 10**6), 10**6) for _ in range(150)]
    lifted += [Fraction(rng.randrange(60, 1000), 10**9) for _ in range(20)]
    dyadic = [rng.randrange(1, 2**30) / 2**30 for _ in range(50)]
    return ([DoubleInterval.lift(f) for f in lifted] + [DoubleInterval(x, x) for x in dyadic]
            + [DoubleInterval.lift(1), DoubleInterval(2.0**-24, 2.0**-24),
               DoubleInterval(2.0**-24, 1.0)])


@pytest.mark.parametrize("half_last", [False, True])
@pytest.mark.parametrize("k_max", [11, 40])
def test_phi_sum_float_loop_is_the_generic_body_bit_for_bit(k_max, half_last):
    """_phi_integer_sum_doubles replays the generic body on DoubleInterval:
    both ends carry the same doubles (float.hex) at every guarded q."""
    for q in _float_loop_points():
        loop = lemma_functions._phi_integer_sum_doubles(q, k_max, half_last)
        body = lemma_functions._phi_integer_sum_generic(q, k_max, half_last)
        assert _hex(loop) == _hex(body), (q, k_max, half_last)


def test_phi_sum_takes_the_float_loop_only_inside_its_guard(monkeypatch):
    """A DoubleInterval q in [2^-24, 1] with k_max <= 40 runs the float loop;
    a q reaching 0, below 2^-24 or above 1, a larger k_max, floats and ivmpf
    run the generic body.  At q.lo = 0 the loop's lower end is not the body's."""
    loop, calls = lemma_functions._phi_integer_sum_doubles, []
    monkeypatch.setattr(lemma_functions, "_phi_integer_sum_doubles",
                        lambda *args: calls.append(args) or loop(*args))
    sum_ = lemma_functions.phi_integer_sum_raw
    for q in (DoubleInterval.lift(Fraction(9, 10)), DoubleInterval.lift(1),
              DoubleInterval(2.0**-24, 1.0)):
        assert _hex(sum_(q, 40)) == _hex(lemma_functions._phi_integer_sum_generic(q, 40, False))
    assert len(calls) == 3
    outside = [(DoubleInterval(0.0, 0.5), 40), (DoubleInterval(2.0**-25, 0.5), 11),
               (DoubleInterval(0.5, math.nextafter(1.0, 2.0)), 40),
               (DoubleInterval.lift(Fraction(9, 10)), 41)]
    for q, k_max in outside:
        for half_last in (False, True):
            body = lemma_functions._phi_integer_sum_generic(q, k_max, half_last)
            assert _hex(sum_(q, k_max, half_last)) == _hex(body), (q, k_max)
    assert sum_(0.9, 40) == lemma_functions._phi_integer_sum_generic(0.9, 40, False)
    with interval_precision(53):
        q_iv = to_ivmpf(Fraction(9, 10))
        body = lemma_functions._phi_integer_sum_generic(q_iv, 11, True)
        assert sum_(q_iv, 11, True)._mpi_ == body._mpi_
    assert len(calls) == 3
    zero = DoubleInterval(0.0, 0.5)
    assert loop(zero, 40, False).lo != lemma_functions._phi_integer_sum_generic(zero, 40, False).lo


# -- phi_q(x) increases in q: the premise of the 2.4ii and 2.9 sandwiches ----


def _int_poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _int_poly_add(a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def _int_poly_derivative(a: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:] or [0]


def test_phi_increases_in_q_by_the_tanh_lemma():
    """With s = q^x, t = -log q and g = s - 1 + x(1-q), at 512 bits and 240
    seeded (q, x) with q up to 1 - 1e-12 and x in (1, 320]: the closed form
    d/dq log phi = (x/q)(1+q)(1+s)(x tanh(t/2) - tanh(xt/2))/((1-s) g) agrees
    with a centred difference of log phi, and the identity
    x(1-q)(1+s) - (1+q)(1-s) = (1+q)(1+s)(x tanh(t/2) - tanh(xt/2)) holds
    with both sides positive."""
    from mpmath import mp
    rng = random.Random(20261021)
    points = [(1 - mp.mpf(10) ** -12, 320), (1 - mp.mpf(10) ** -12, 1 + 2.0**-20), (0.5, 320)]
    while len(points) < 240:
        q = (rng.uniform(1e-3, 0.999) if len(points) % 2
             else 1 - mp.mpf(10) ** -rng.uniform(3, 12))
        x = 1 + 319 * rng.uniform(1e-6, 1) if len(points) % 3 else 1 + 10 ** -rng.uniform(0, 6)
        points.append((q, x))
    with mp.workprec(512):
        def log_phi(q, x):
            s = q ** x
            return mp.log(s) + mp.log(s - 1 + x * (1 - q)) - 2 * mp.log(1 - s)

        for q, x in points:
            q, x = mp.mpf(q), mp.mpf(x)
            s, t = q ** x, -mp.log(q)
            g = s - 1 + x * (1 - q)
            tanh_gap = x * mp.tanh(t / 2) - mp.tanh(x * t / 2)
            closed = (x / q) * (1 + q) * (1 + s) * tanh_gap / ((1 - s) * g)
            h = min(q, 1 - q) * mp.mpf(10) ** -40
            centred = (log_phi(q + h, x) - log_phi(q - h, x)) / (2 * h)
            assert g > 0 and closed > 0, (q, x)
            assert abs(centred - closed) <= mp.mpf(10) ** -60 * closed, (q, x)
            lhs = x * (1 - q) * (1 + s) - (1 + q) * (1 - s)
            rhs = (1 + q) * (1 + s) * tanh_gap
            assert lhs > 0 and rhs > 0, (q, x)
            assert abs(lhs - rhs) <= mp.mpf(10) ** -100 * rhs, (q, x)


def test_phi_integer_terms_increase_in_q_by_their_coefficients():
    """phi_q(k) = q^k N_k / S_k^2 has d/dq = q^(k-1) D_k / S_k^3 with
    D_k = k N_k S_k + q (N_k' S_k - 2 N_k S_k'); for k = 2..40 every integer
    coefficient of D_k is >= 0 and D_k(0) = k(k-1), so each term, W2 and J2
    increase in q on (0, 1)."""
    for k in range(2, 41):
        s_k = [1] * k
        n_k = [0]
        for j in range(1, k):
            n_k = _int_poly_add(n_k, [1] * j)
        inner = _int_poly_add(_int_poly_mul(_int_poly_derivative(n_k), s_k),
                              [-2 * c for c in _int_poly_mul(n_k, _int_poly_derivative(s_k))])
        d_k = _int_poly_add([k * c for c in _int_poly_mul(n_k, s_k)], [0] + inner)
        assert all(type(c) is int and c >= 0 for c in d_k), k
        assert d_k[0] == k * (k - 1), k


def _monotone_pair_points() -> list[Fraction]:
    """The 400 points of the seeded monotonicity pairs that 2.4ii and 2.9
    once drew: for each span, 100 pairs a < b at least 1/100 apart from a
    fresh RNG seeded 20260810, listed a, b."""
    points, gap = [], Fraction(1, 100)
    for lo, hi in ((Fraction(117, 1000), Fraction(91, 100)),
                   (Fraction(91, 100), Fraction(9999, 10000))):
        rng = random.Random(20260810)
        for _ in range(100):
            a = lo + (hi - lo - gap) * Fraction(rng.randrange(10**6), 10**6)
            b = a + gap + (hi - a - gap) * Fraction(rng.randrange(10**6), 10**6)
            points += [a, b]
    return points


def _phi_integral_kernel_points() -> list[DoubleInterval]:
    """DoubleInterval q inside the kernel's guard: 150 seeded lifted rationals
    in [0.117, 0.9999], the left endpoints of the 2.9 grid, the 400 seeded
    monotonicity pair points and 50 exact dyadic points in [2^-24, 1)."""
    rng = random.Random(20261020)
    qs = [Fraction(rng.randrange(117000, 999901), 10**6) for _ in range(150)]
    grid = verifier.lemma_2_9_grid()
    qs += [grid.point(k) for k in range(grid.total_cells)]
    pairs = _monotone_pair_points()
    assert len(pairs) == 400
    qs += pairs
    dyadic = [rng.randrange(2**6, 2**30) / 2**30 for _ in range(48)]
    return ([DoubleInterval.lift(q) for q in qs] + [DoubleInterval(x, x) for x in dyadic]
            + [DoubleInterval(2.0**-24, 2.0**-24), DoubleInterval(2.0**-24, 1 - 2.0**-53)])


def test_w1_and_j1_kernel_is_the_generic_body_bit_for_bit():
    """_phi_integral_doubles replays the generic antiderivative difference on
    DoubleInterval: both ends of W1 (x = 40) and J1 (x = 11) carry the same
    doubles (float.hex) at every guarded q, and w1_raw and j1_raw return them."""
    shift = DoubleInterval.lift(Fraction(36, 1000))
    for q in _phi_integral_kernel_points():
        for x, raw in ((40, w1_raw), (11, j1_raw)):
            kernel = lemma_functions._phi_integral_doubles(q, x)
            body = lemma_functions._phi_integral_generic(q, x)
            assert _hex(kernel) == _hex(body), (q, x)
            expected = kernel if x == 40 else kernel - shift
            assert _hex(raw(q)) == _hex(expected), (q, x)


def test_w1_and_j1_take_the_kernel_only_inside_its_guard(monkeypatch):
    """A DoubleInterval q with 2^-24 <= q.lo and q.hi < 1 runs the kernel; a q
    reaching 1 or starting below 2^-24, and ivmpf, run the generic body."""
    kernel, calls = lemma_functions._phi_integral_doubles, []
    monkeypatch.setattr(lemma_functions, "_phi_integral_doubles",
                        lambda *args: calls.append(args) or kernel(*args))
    inside = (DoubleInterval.lift(Fraction(9, 10)), DoubleInterval(2.0**-24, 0.5))
    for q in inside:
        assert _hex(w1_raw(q)) == _hex(lemma_functions._phi_integral_generic(q, 40))
    assert len(calls) == 2
    outside = (DoubleInterval.lift(1), DoubleInterval(0.5, 1.0),
               DoubleInterval(2.0**-25, 0.5), DoubleInterval(math.nextafter(2.0**-24, 0), 0.5))
    for q in outside:
        for x, raw in ((40, w1_raw), (11, j1_raw)):
            body = lemma_functions._phi_integral_generic(q, x)
            if x == 11:
                body = body - DoubleInterval.lift(Fraction(36, 1000))
            assert _hex(raw(q)) == _hex(body), (q, x)
    with interval_precision(53):
        q_iv = to_ivmpf(Fraction(9, 10))
        assert j1_raw(q_iv)._mpi_ == (lemma_functions._phi_integral_generic(q_iv, 11)
                                      - to_ivmpf(Fraction(36, 1000)))._mpi_
    assert len(calls) == 2


def test_antiderivative_vs_quadrature_spot():
    q = 0.6
    integral, err = quad(lambda x: evaluate_named("phi", q=q, x=x), 2.0, 5.0,
                         epsabs=1e-12, epsrel=1e-12)
    closed = phi_antiderivative(q, 5.0) - phi_antiderivative(q, 2.0)
    assert abs(integral - closed) < 1e-8


def test_antiderivative_vs_quadrature_random_intervals():
    rng = random.Random(42)
    for _ in range(20):
        q = rng.uniform(0.05, 0.95)
        a = rng.uniform(1.0, 20.0)
        b = a + rng.uniform(0.5, 10.0)
        integral, _ = quad(lambda x: evaluate_named("phi", q=q, x=x), a, b,
                           epsabs=1e-12, epsrel=1e-12)
        closed = phi_antiderivative(q, b) - phi_antiderivative(q, a)
        assert abs(integral - closed) < 1e-8


def test_antiderivative_boundary_values(monkeypatch):
    # Phi_q(1) = -A_q
    for q in (0.3, 0.7):
        assert phi_antiderivative(q, 1.0) == pytest.approx(-evaluate_named("A", q=q), rel=1e-12)
    # decay at infinity, certified; the enclosure width floors at one ulp of
    # the working precision, so certifying < 1e-100 needs > 333 bits
    monkeypatch.setenv("DIVISOR_SERIES_PREC", "512")
    value = phi_antiderivative("0.5", 10**6, mode=Mode.CERTIFIED)
    assert isinstance(value, Enclosure)
    lo, hi = value.to_floats()
    assert max(abs(lo), abs(hi)) < 1e-100


def test_antiderivative_domain():
    with pytest.raises(DomainError):
        phi_antiderivative(0.5, 0.5)


def _a_and_phi_at_300_bits(q: Fraction, x) -> "mp.mpf":
    """A_q (x None) or Phi_q(x) from the closed forms at 300 bits, log(1-z)
    taken as log1p(-z)."""
    with mp.workprec(300):
        q = mp.mpf(q.numerator) / q.denominator
        lq = mp.log(q)
        if x is None:
            return -((1 - q + lq) * mp.log1p(-q) + q * lq) / lq ** 2
        qx = q ** x
        num = (q * qx - (1 + lq) * qx + 1 - q + lq) * mp.log1p(-qx) + x * qx * (1 - q) * lq
        return num / ((1 - qx) * lq ** 2)


@pytest.mark.parametrize("name, q, x", [
    ("A", Fraction(1, 10**30), None),
    ("A", Fraction(1, 10**400), None),
    ("Phi", Fraction(1, 2), 200),
])
def test_certified_a_and_phi_keep_relative_accuracy_where_log_1_minus_q_is_tiny(name, q, x):
    """log(1 - z) at z = q or q^x below 2^-64 comes from its series: certified
    A and Phi keep about 25 digits where log(1 - z) taken directly kept none."""
    value = evaluate_named(name, q=q, x=x, mode=Mode.CERTIFIED)
    reference = mpf_to_fraction(_a_and_phi_at_300_bits(q, x))
    lo, hi = mpf_to_fraction(value.lo), mpf_to_fraction(value.hi)
    slack = abs(reference) * Fraction(1, 10**60)  # the 300-bit rounding, with room
    assert lo - slack <= reference <= hi + slack
    assert hi - lo <= abs(reference) * Fraction(1, 10**25)
    if name == "A":
        assert lo > 0


@pytest.mark.parametrize("name, q, x", [
    ("A", Fraction(1, 10**30), None),
    ("U", Fraction(1, 10**30), None),
    ("Phi", Fraction(1, 2), 200),
])
def test_fast_log_1_minus_z_keeps_relative_accuracy_where_z_is_tiny(name, q, x):
    """A float z takes log(1 - z) as log1p(-z): FAST A, U and Phi agree with
    the certified midpoint to 1e-12 relative where log(1 - z) is 0 in doubles."""
    fast = evaluate_named(name, q=q, x=x, mode=Mode.FAST)
    certified = evaluate_named(name, q=q, x=x, mode=Mode.CERTIFIED).midpoint()
    assert fast == pytest.approx(certified, rel=1e-12, abs=0)


# -- correction sums -----------------------------------------------------------


def test_c1_positive_small_q():
    sums = correction_sums("0.1", 1, mode=Mode.CERTIFIED)
    assert sums.c_n.is_positive()


def test_c1_matches_u_closed_form():
    q = 0.1
    c1 = correction_sums(q, 1).c_n
    closed = evaluate_named("U", q=q) / ((q + 1) ** 2 * math.log(q) ** 2)
    assert c1 == pytest.approx(closed, rel=1e-10)


def test_certified_u_is_positive_below_the_smallest_double():
    """U(q) = q + O(q^2 log^2 q) > 0; at q = 1e-400, where iv.log(1 + q) is
    [0, 2^-128], the certified enclosure of U is still positive."""
    u = evaluate_named("U", q="1e-400", mode=Mode.CERTIFIED)
    assert u.lo > 0


def test_certified_u_keeps_relative_accuracy_at_tiny_q():
    """At q = 1e-30 the certified U encloses a 300-bit value within 1e-25
    relative."""
    q = Fraction(1, 10**30)
    u = evaluate_named("U", q=q, mode=Mode.CERTIFIED)
    with mp.workprec(300):
        qm = mp.mpf(1) / 10**30
        lq = mp.log(qm)
        reference = -(1 - qm * qm + qm * lq) * qm * lq - (qm + 1) ** 2 * (qm - 1 - lq) * mp.log1p(qm)
        assert u.contains(mpf_to_fraction(reference))
    assert u.lo > 0 and u.width_upper() <= 1e-25 * u.lo


def test_c_minus_d_is_half_phi_difference():
    """C_q(n) - D_q(n) = (phi_q(1) - phi_q(n+1)) / 2 by definition."""
    q, n = 0.5, 5
    sums = correction_sums(q, n)
    expected = (evaluate_named("phi", q=q, x=1) - evaluate_named("phi", q=q, x=n + 1)) / 2
    assert sums.c_n - sums.d_n == pytest.approx(expected, abs=1e-12)


def test_d10_bound_near_one():
    sums = correction_sums("0.95", 10, mode=Mode.CERTIFIED)
    assert sums.d_n.strictly_above(Fraction(36, 1000))


def _seeded_q(name: str) -> list[Fraction]:
    """Seeded q in the 2.4ii span [0.117, 0.91] and the 2.9 span [0.91, 1)."""
    rng = random.Random(name)
    return [Fraction(rng.uniform(lo, hi)).limit_denominator(10**12)
            for lo, hi in ((0.117, 0.91), (0.91, 1.0)) for _ in range(6)]


def test_c_and_d_are_the_sandwich_differences_bit_for_bit():
    """C_q(39) is w1_raw - w2_raw and D_q(10) is phi_integral_raw(q, 11) -
    j2_raw at working precision, end for end: the same terms and Phi
    differences in the same order."""
    raw = lemma_functions._correction_sums_raw
    for q in _seeded_q("c-and-d"):
        with interval_precision(128):
            q_iv = to_ivmpf(q)
            assert raw(q_iv, 39)[2]._mpi_ == (w1_raw(q_iv) - w2_raw(q_iv))._mpi_, q
            d_10 = lemma_functions.phi_integral_raw(q_iv, 11) - j2_raw(q_iv)
            assert raw(q_iv, 10)[3]._mpi_ == d_10._mpi_, q


def test_c_and_d_call_no_closed_form_phi(monkeypatch):
    """The terms of C and D are the positive-form terms of the phi sums."""
    monkeypatch.setattr(lemma_functions, "phi_raw", None)
    sums = correction_sums("0.95", 10, mode=Mode.CERTIFIED)
    assert sums.d_n.strictly_above(Fraction(36, 1000))


def test_fast_d_near_one_is_narrow_at_53_bits():
    """The 53-bit enclosure of D_q(3) at q = 0.9999 is at most 0.015 wide
    and holds the certified value."""
    q = Fraction(9999, 10000)
    with interval_precision(53):
        d_3 = Enclosure(lemma_functions._correction_sums_raw(to_ivmpf(q), 3)[3])
    assert d_3.width_upper() <= 0.015
    assert d_3.intersects(correction_sums(q, 3, mode=Mode.CERTIFIED).d_n)


def test_correction_sums_domain():
    with pytest.raises(DomainError):
        correction_sums(0.5, 0)


@pytest.mark.parametrize("call, name", [
    (lambda q: phi_antiderivative(q, 40), "Phi"),
    (lambda q: correction_sums(q, 3), "sigma"),
], ids=["phi_antiderivative", "correction_sums"])
def test_fast_wrappers_refuse_what_lemma_fn_refuses(call, name):
    """At q = 1 - 10^-17 the 53-bit enclosures are unbounded: the library
    wrappers raise lemma-fn's DomainError naming the function, not nan."""
    with pytest.raises(DomainError, match=f"^{name} has no bounded enclosure in fast mode$"):
        call(1 - Fraction(1, 10**17))


def _outcome(call):
    """The ends of the value (a float in FAST), or the refusal."""
    try:
        value = call()
    except DomainError as exc:
        return str(exc)
    return (value.lo, value.hi) if isinstance(value, Enclosure) else value


@pytest.mark.parametrize("mode", list(Mode))
def test_wrappers_are_evaluate_named_bit_for_bit(mode):
    """phi_antiderivative is evaluate_named of Phi, value or refusal, at
    seeded (q, x) and at q = 1e-400, 0.9999 and 1 - 10^-17."""
    rng = random.Random(f"wrappers-{mode.value}")
    qs = [Fraction(1, 10**400), Fraction(9999, 10000), 1 - Fraction(1, 10**17),
          *(Fraction(rng.random()) for _ in range(6))]
    for q in qs:
        x = Fraction(rng.uniform(1.0, 60.0))
        wrapper = _outcome(lambda: phi_antiderivative(q, x, mode))
        assert wrapper == _outcome(lambda: evaluate_named("Phi", q=q, x=x, mode=mode)), q


# -- the maximizer M_q and the inflection point N_q ----------------------------

#: q -> (M bracket, N bracket): phi'_q changes sign from + to - across the
#: first, a_q (the sign of phi''_q) from - to + across the second.
_CRITICAL_BRACKETS = {
    Fraction(1, 5): ((Fraction(161, 100), Fraction(1611, 1000)),
                     (Fraction(2247, 1000), Fraction(281, 125))),
    Fraction(1, 2): ((Fraction(2239, 1000), Fraction(56, 25)),
                     (Fraction(369, 100), Fraction(3691, 1000))),
    Fraction(91, 100): ((Fraction(5697, 1000), Fraction(2849, 500)),
                        (Fraction(14537, 1000), Fraction(7269, 500))),
    Fraction(99, 100): ((Fraction(3459, 200), Fraction(2162, 125)),
                        (Fraction(37493, 500), Fraction(74987, 1000))),
}


def _certified(name: str, q: Fraction, x: Fraction) -> Enclosure:
    return evaluate_named(name, q=q, x=x, mode=Mode.CERTIFIED)


@pytest.mark.parametrize("q", list(_CRITICAL_BRACKETS), ids=str)
def test_phi_prime_changes_sign_across_pinned_brackets(q):
    (m_lo, m_hi), _ = _CRITICAL_BRACKETS[q]
    assert _certified("phi_prime", q, m_lo).is_positive()
    assert _certified("phi_prime", q, m_hi).strictly_below(0)


@pytest.mark.parametrize("q", list(_CRITICAL_BRACKETS), ids=str)
def test_a_changes_sign_across_pinned_brackets(q):
    _, (n_lo, n_hi) = _CRITICAL_BRACKETS[q]
    assert _certified("a", q, n_lo).strictly_below(0)
    assert _certified("a", q, n_hi).is_positive()


@pytest.mark.parametrize("q", list(_CRITICAL_BRACKETS), ids=str)
def test_maximizer_lies_below_inflection_point(q):
    """1 < M_q < N_q: each M bracket lies below its N bracket, and between
    them phi is decreasing and concave, phi' < 0 and a_q < 0 at both ends."""
    (_, m_hi), (n_lo, _) = _CRITICAL_BRACKETS[q]
    assert 1 < m_hi < n_lo
    for x in (m_hi, n_lo):
        assert _certified("phi_prime", q, x).strictly_below(0)
        assert _certified("a", q, x).strictly_below(0)


def test_inflection_point_bound_near_one():
    """N_{0.91} > 14: a_q(14) < 0 at q = 91/100, certified."""
    a_14 = _certified("a", Fraction(91, 100), Fraction(14))
    assert a_14.contained_in(Fraction(-5119, 10**7), Fraction(-5117, 10**7))


# -- pinned spot values (recomputed tighter, within the stated windows) ----------


def test_v_at_minus_log_0117():
    value = evaluate_named("V", y=-math.log(0.117))
    assert abs(value - 0.0022898677918644553) < 1e-12
    assert abs(value - 0.0022) < 5e-4


def test_v_prime_positive_past_sqrt3():
    for y in (2.145, 3.0, 10.0, 50.0):
        assert evaluate_named("V_prime", y=y) > 0


def test_delta_and_g0_values():
    delta, g0 = evaluate_named("Delta", q=0.91), evaluate_named("G0", q=0.91)
    assert abs(delta - 1.7670552059568436) < 1e-12
    assert abs(delta - 1.76) < 0.01
    assert abs(g0 - (-0.0028527540246422855)) < 1e-12
    assert abs(g0 - (-0.0028)) < 5e-4
    assert delta_polynomial()(1) == 0
    assert g0_polynomial()(1) == 0


def test_polynomials_match_formulas():
    for q in (Fraction(91, 100), Fraction(19, 20), Fraction(999, 1000)):
        assert delta_polynomial()(q) == pytest.approx(evaluate_named("Delta", q=float(q)),
                                                      rel=1e-10)
        assert g0_polynomial()(q) == pytest.approx(evaluate_named("G0", q=float(q)), rel=1e-9)


def test_h_envelope_value():
    value = (h2_raw(0.91) + h3_raw(0.91)) / 14
    assert abs(value - 0.03489998036002748) < 1e-12
    assert abs(value - 0.034) < 1e-3


def test_h2_h3_polynomial_forms_lie_in_certified_enclosures():
    """h2 = 1/S and h3 = P/S^2, exactly, inside the certified enclosures of
    the closed forms at 30 seeded rationals in (0, 1)."""
    rng = random.Random(20261018)
    qs = [Fraction(91, 100), Fraction(9999, 10000)]
    qs += [Fraction(rng.randrange(1, 10**4), 10**4) for _ in range(28)]
    s, p = h2_denominator_polynomial(), h3_numerator_polynomial()
    for q in qs:
        assert Enclosure(_on_intervals(Mode.CERTIFIED, h2_raw, q)).contains(1 / s(q)), q
        assert Enclosure(_on_intervals(Mode.CERTIFIED, h3_raw, q)).contains(p(q) / s(q) ** 2), q


def test_h3_numerator_is_an_exact_quotient(monkeypatch):
    assert h3_numerator_polynomial() == Polynomial(range(13, -14, -2))
    # with one term of S missing, 1 - q no longer divides the numerator
    monkeypatch.setattr(lemma_functions, "h2_denominator_polynomial",
                        lambda: Polynomial([1] * 13))
    with pytest.raises(ArithmeticError):
        h3_numerator_polynomial()


def test_envelope_slack_is_its_closed_form():
    """h1 (h2+h3) + Theta_q(14) = -q^14 log q/(1-q^14)^2 (-q - (1-q)/log q) > 0
    at seeded q in [0.91, 0.9999], at 512 bits.  The arguments are ivmpf:
    mp.mpf ones would reach math.log through the generic ln."""
    rng = random.Random(20261018)
    qs = [Fraction(91, 100), Fraction(9999, 10000)]
    qs += [Fraction(rng.randrange(9100, 9999), 10**4) for _ in range(10)]
    with interval_precision(512):
        for q in map(to_ivmpf, qs):
            lq, q14 = iv.log(q), q ** 14
            closed = -q14 * lq / (1 - q14) ** 2 * (-q - (1 - q) / lq)
            diff = Enclosure(h1_raw(q) * (h2_raw(q) + h3_raw(q)) + theta_raw(q, 14) - closed)
            assert diff.contains(0) and diff.width_upper() < 1e-100
            assert Enclosure(closed).is_positive()


def test_g_equals_a_at_14():
    for q in (0.91, 0.93, 0.99):
        assert evaluate_named("G", q=q) == pytest.approx(evaluate_named("a", q=q, x=14.0),
                                                         rel=1e-10)


# -- monotonicity witnesses --------------------------------------------------------


def test_phi_increasing_in_q():
    # at x = 1 the map is constant (phi_q(1) = 0); strictly increasing beyond
    for x in (1.5, 2.5, 7.0, 40.0):
        values = [evaluate_named("phi", q=q, x=x) for q in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)]
        assert all(a < b for a, b in zip(values, values[1:]))
    assert all(abs(evaluate_named("phi", q=q, x=1.0)) < 1e-14 for q in (0.1, 0.5, 0.9))


def test_k_decreasing_in_x():
    for q in (0.2, 0.5, 0.9):
        values = [evaluate_named("K", q=q, x=x) for x in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_theta_increasing_in_x_near_one():
    for q in (0.91, 0.95, 0.99):
        values = [evaluate_named("Theta", q=q, x=x) for x in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0)]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_phi_prime_lower_bound_sampled():
    for q in (0.91, 0.95, 0.99, 0.999):
        for x in (1.0, 2.0, 5.0, 14.0, 50.0, 200.0):
            assert evaluate_named("phi_prime", q=q, x=x) >= -0.035


def test_phi_limit_formula():
    q = 1 - 1e-6
    for x in (2, 5, 11):
        limit = (x - 1) / (2 * x)
        assert abs(evaluate_named("phi", q=q, x=x) - limit) < 1e-4


def test_h1_limit():
    assert evaluate_named("h1", q=1 - 1e-10) == pytest.approx(1 / 14, rel=1e-6)
    assert evaluate_named("h1", q=0.91) < 1 / 14


def _named_arguments(name: str, q: Fraction, rng: random.Random) -> dict:
    draw = {"q": lambda: q, "x": lambda: Fraction(rng.uniform(1.0, 60.0)),
            "y": lambda: Fraction(rng.uniform(0.5, 40.0)), "n": lambda: rng.randint(1, 12)}
    return {letter: draw[letter]() for letter in lemma_functions.NAMED_FUNCTIONS[name][1]}


@pytest.mark.parametrize("name", lemma_functions.NAMED_FUNCTIONS)
def test_fast_lemma_values_lie_in_their_53_bit_enclosures(monkeypatch, name):
    """FAST runs the certified formula once at 53 bits: each FAST value lies
    between the double ends of that enclosure (certified mode at
    DIVISOR_SERIES_PREC=53), and the enclosure meets the certified one."""
    rng = random.Random(f"fast-lemma-{name}")
    qs = [Fraction(1, 10**400), Fraction(1, 10**30), Fraction(1, 1000),
          *(Fraction(rng.uniform(0.01, 0.99)) for _ in range(4)),
          Fraction(99, 100), Fraction(9999, 10000)]
    for q in qs:
        args = _named_arguments(name, q, rng)
        fast = evaluate_named(name, **args)
        certified = evaluate_named(name, mode=Mode.CERTIFIED, **args)
        with monkeypatch.context() as env:
            env.setenv("DIVISOR_SERIES_PREC", "53")
            at_53 = evaluate_named(name, mode=Mode.CERTIFIED, **args)
        lo, hi = at_53.to_floats()
        assert lo <= fast <= hi, (q, args)
        assert at_53.intersects(certified), (q, args)


# -- named evaluator dispatch -------------------------------------------------------


def test_evaluate_named_dispatch():
    assert evaluate_named("phi", q="0.5", x=2) == pytest.approx(1 / 9)
    v = v_raw(DoubleInterval.lift(Fraction(5, 2)))
    assert evaluate_named("V", y="2.5") == pytest.approx((v.lo + v.hi) / 2)
    enc = evaluate_named("Delta", q="0.91", mode=Mode.CERTIFIED)
    assert enc.contains(delta_polynomial()(Fraction(91, 100)))
    c = evaluate_named("C", q="0.1", n=1)
    assert c == pytest.approx(correction_sums(0.1, 1).c_n)
    with pytest.raises(DomainError):
        evaluate_named("nosuch", q="0.5")
    with pytest.raises(DomainError):
        evaluate_named("phi", q="0.5")  # missing x


@pytest.mark.parametrize("name, extra", [("A", {"x": 2}), ("V", {"q": "0.5"}),
                                         ("phi", {"n": 3}), ("C", {"y": 1})])
def test_evaluate_named_refuses_an_argument_the_function_does_not_take(name, extra):
    args = {**_named_arguments(name, Fraction(1, 2), random.Random(name)), **extra}
    with pytest.raises(DomainError, match=f"^{name} takes no --{next(iter(extra))}$"):
        evaluate_named(name, **args)
