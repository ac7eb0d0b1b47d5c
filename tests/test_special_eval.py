"""Certified evaluators: cross-representation consistency, the q-digamma
identity, limit behavior, sharp-bound checks and Landau's constant."""

import math
import random
from fractions import Fraction
from functools import partial

import pytest
from mpmath import iv, mp

from divisor_series.divisor_core import divisor_sieve
from divisor_series.intervals import (
    DomainError,
    Enclosure,
    FixedInterval,
    Mode,
    TermBudgetError,
    fixed_shift,
    gamma_enclosure,
    interval_precision,
    mpf_to_fraction,
    to_ivmpf,
)
from divisor_series.power_series import RepresentationId
from divisor_series.special_eval import (
    BoundsStatus,
    QPoint,
    TheoremId,
    check_bounds,
    eval_F,
    eval_H,
    eval_T,
    eval_psi_q,
    fibonacci_partial_sum,
    landau_constant_from_t,
    landau_fibonacci,
    _minus_log1m,
    _psi_partial_sum,
    _psi_tail,
    _t_partial_sum,
)

NUMERIC_REPS = (RepresentationId.DIVISOR, RepresentationId.LAMBERT, RepresentationId.CLAUSEN)


# -- QPoint ----------------------------------------------------------------------


def test_qpoint_domain():
    with pytest.raises(DomainError):
        QPoint.coerce(0)
    with pytest.raises(DomainError):
        QPoint.coerce(1)
    with pytest.raises(DomainError):
        QPoint.coerce(1.5)
    assert QPoint.coerce("0.117").value == Fraction(117, 1000)


# -- T ---------------------------------------------------------------------------


def test_t_cross_representation_at_half():
    reports = [eval_T(0.5, 1e-12, rep) for rep in NUMERIC_REPS]
    for r in reports:
        assert float(r.value.width_upper()) <= 1e-12
        assert r.mode is Mode.CERTIFIED
    for a in reports:
        for b in reports:
            assert a.value.intersects(b.value)


def test_t_cross_representation_random_grid():
    rng = random.Random(11)
    for _ in range(50):
        q = Fraction(rng.randint(101, 9499), 10000)  # (0.01, 0.95)
        reports = [eval_T(QPoint(q), 1e-10, rep) for rep in NUMERIC_REPS]
        for a in reports:
            for b in reports:
                assert a.value.intersects(b.value)


def test_t_leading_coefficient_limit():
    q = Fraction(1, 10**6)
    r = eval_T(QPoint(q), 1e-22)
    assert r.value.contained_in(q * (1 - Fraction(1, 10**4)), q * (1 + Fraction(1, 10**4)))


def test_t_fast_mode_contains_certified():
    certified = eval_T(0.7, 1e-13)
    fast = eval_T(0.7, 1e-13, mode=Mode.FAST)
    assert fast.mode is Mode.FAST
    assert fast.value.intersects(certified.value)


def test_t_rejects_bad_inputs():
    with pytest.raises(DomainError):
        eval_T(0.5, -1e-3)
    with pytest.raises(DomainError):
        eval_T(0.5, 1e-10, RepresentationId.UCHIMURA)
    with pytest.raises(DomainError):
        eval_T(1.2)


@pytest.mark.parametrize("mode", [Mode.FAST, Mode.CERTIFIED])
@pytest.mark.parametrize("evaluate", [eval_T, eval_psi_q, eval_H, eval_F])
def test_q_whose_double_is_one_is_a_domain_error(evaluate, mode):
    """q = 1 - 10^-17 lies in (0, 1), but its double is 1.0, where no tail
    bound is finite: every evaluator rejects it instead of dividing by 0."""
    q = Fraction(1) - Fraction(1, 10**17)
    args = (q, 1) if evaluate is eval_psi_q else (q,)
    with pytest.raises(DomainError):
        evaluate(*args, mode=mode)


def test_t_term_budget_error():
    with pytest.raises(TermBudgetError):
        eval_T(QPoint(Fraction(10**9 - 1, 10**9)), 1e-12, RepresentationId.LAMBERT)


def test_t_tail_bound_is_sound():
    """Summing twice as many terms stays inside the reported enclosure."""
    for rep in NUMERIC_REPS:
        r = eval_T(0.9, 1e-8, rep)
        refined = eval_T(0.9, 1e-14, rep)
        assert r.value.intersects(refined.value)
        assert refined.value.lo >= r.value.lo - r.value.width_upper()


# -- q-digamma --------------------------------------------------------------------


# -- partial sums on fixed-point intervals ------------------------------------------

_FIXED_QS = [Fraction(1, 10**400), Fraction(1, 10**300), Fraction(1, 7), Fraction(1, 2),
             Fraction(99, 100)]
_FIXED_TERMS = 6


def _exact_t_partial_sum(q: Fraction, rep: RepresentationId, terms: int) -> Fraction:
    """T's partial sum in exact rationals, with d(k) counted by trial division."""
    ks = range(1, terms + 1)
    if rep is RepresentationId.LAMBERT:
        return sum(q**k / (1 - q**k) for k in ks)
    if rep is RepresentationId.DIVISOR:
        return sum(sum(k % j == 0 for j in ks) * q**k for k in ks)
    return sum((1 + q**k) / (1 - q**k) * q**(k * k) for k in ks)


@pytest.mark.parametrize("q", _FIXED_QS, ids=str)
@pytest.mark.parametrize("rep", NUMERIC_REPS, ids=lambda r: r.value)
def test_certified_t_partial_sum_on_fixed_intervals_encloses_exact(rep, q):
    """q lifted from its 128-bit enclosure at fixed_shift, as the certified
    evaluator lifts it: the sum encloses the exact partial sum and keeps 100
    significant bits of it, at q = 1e-400 too."""
    with interval_precision(128):
        q_iv = to_ivmpf(q)
        q_fx = FixedInterval.from_ivmpf(q_iv, fixed_shift(q_iv))
        table = divisor_sieve(_FIXED_TERMS) if rep is RepresentationId.DIVISOR else None
        got = Enclosure(_t_partial_sum(q_fx, rep, _FIXED_TERMS, table).to_ivmpf())
    exact = _exact_t_partial_sum(q, rep, _FIXED_TERMS)
    assert got.contains(exact)
    assert mpf_to_fraction(got.width_upper()) <= exact / 2**100


def _exact_psi_partial_sum(q: Fraction, a: Fraction, terms: int) -> Fraction:
    return sum(a**k * q**(k * k) * (1 / (1 - q**k) + a * q**k / (1 - a * q**k))
               for k in range(1, terms + 1))


@pytest.mark.parametrize("q", _FIXED_QS, ids=str)
@pytest.mark.parametrize("x", [Fraction(1, 5), Fraction(1), Fraction(3, 2), Fraction(7, 3)],
                         ids=str)
def test_certified_psi_partial_sum_on_fixed_intervals_encloses_exact(q, x):
    """Every term of the sum grows with a = q^(x-1) > 0, so the exact
    rational sums at the endpoints of a's 128-bit enclosure lie on either
    side of the true partial sum; the fixed-point sum encloses both.  Its
    scale follows q, so it keeps 100 significant bits of the sum or of q,
    whichever is larger: for x > 1 at tiny q the sum is far below q, and
    psi_q = -log(1-q) + log(q) * sum is dominated by -log(1-q) ~ q."""
    with interval_precision(128):
        q_iv = to_ivmpf(q)
        a = iv.exp(to_ivmpf(x - 1) * iv.log(q_iv))
        shift = fixed_shift(q_iv)
        got = Enclosure(_psi_partial_sum(FixedInterval.from_ivmpf(q_iv, shift),
                                         FixedInterval.from_ivmpf(a, shift),
                                         _FIXED_TERMS).to_ivmpf())
    a_enc = Enclosure(a)
    low = _exact_psi_partial_sum(q, mpf_to_fraction(a_enc.lo), _FIXED_TERMS)
    high = _exact_psi_partial_sum(q, mpf_to_fraction(a_enc.hi), _FIXED_TERMS)
    assert got.contains(low) and got.contains(high)
    assert mpf_to_fraction(got.width_upper()) <= max(low, q) / 2**100


@pytest.mark.parametrize("rep", NUMERIC_REPS, ids=lambda r: r.value)
def test_certified_t_at_1e_minus_400_keeps_relative_width(rep):
    """T(q) = q + O(q^2): the fixed-point scale follows q's exponent, so the
    enclosure is relatively as tight as the working precision, not 2^-128
    wide in absolute terms."""
    q = Fraction(1, 10**400)
    value = eval_T(q, representation=rep).value
    assert value.contains(_exact_t_partial_sum(q, rep, 2))
    assert mpf_to_fraction(value.width_upper()) <= q / 2**100


@pytest.mark.parametrize("x", [Fraction(1, 5), Fraction(1), Fraction(7, 3)], ids=str)
def test_certified_psi_at_1e_minus_400_keeps_relative_width(x):
    """psi_q(x) at q = 1e-400 is -log(1/q) q^x for x < 1, (1 - log(1/q)) q at
    x = 1 and q for x > 1, to leading order: the fixed-point sum keeps 100
    significant bits of it."""
    value = eval_psi_q(Fraction(1, 10**400), x).value
    lo, hi = mpf_to_fraction(value.lo), mpf_to_fraction(value.hi)
    assert lo * hi > 0
    assert mpf_to_fraction(value.width_upper()) <= min(abs(lo), abs(hi)) / 2**100


def test_psi_identity_with_t_at_03():
    psi = eval_psi_q("0.3", 1, 1e-14)
    t = eval_T("0.3", 1e-14)
    with interval_precision(128):
        q = QPoint.coerce("0.3").to_ivmpf()
        lhs = (psi.value + Enclosure(iv.log(1 - q))) / Enclosure(iv.log(q))
    assert lhs.intersects(t.value)


def test_psi_identity_random_points():
    rng = random.Random(5)
    for _ in range(20):
        qf = Fraction(rng.randint(5, 95), 100)
        psi = eval_psi_q(QPoint(qf), 1, 1e-12)
        t = eval_T(QPoint(qf), 1e-12)
        with interval_precision(128):
            q = QPoint(qf).to_ivmpf()
            lhs = (psi.value + Enclosure(iv.log(1 - q))) / Enclosure(iv.log(q))
        assert lhs.intersects(t.value)


def test_psi_rearrangement_at_half():
    """psi_q(1) = T(q) log(q) - log(1-q), rearranged from the identity."""
    psi = eval_psi_q(0.5, 1, 1e-13)
    t = eval_T(0.5, 1e-13)
    with interval_precision(128):
        q = QPoint.coerce(0.5).to_ivmpf()
        rhs = t.value * Enclosure(iv.log(q)) - Enclosure(iv.log(1 - q))
    assert psi.value.intersects(rhs)


def test_psi_near_one_approaches_minus_gamma():
    psi = eval_psi_q("0.9999", 1, 5e-3)
    gamma = gamma_enclosure()
    lo, hi = psi.value.to_floats()
    glo, ghi = gamma.to_floats()
    assert lo > -glo - 0.01 and hi < -glo + 0.01


def _direct_psi_oracle(q: Fraction, x: Fraction, eps: float) -> Enclosure:
    """psi_q(x) from the direct sum S = sum_{k<=K} q^{kx}/(1-q^k) and its
    tail bound q^{(K+1)x}/((1-q^x)(1-q^{K+1})), summed in 224-bit floats.

    This is the textbook form, independent of the library's Clausen split.
    Rounding is covered by a relative 2^-160 of each part, far above what
    K <= 2^20 operations can lose at 1 - q >= 2^-7; the tail is summed until
    it is below eps/64 in psi."""
    prec = 224
    with mp.workprec(prec):
        qm = mp.mpf(q.numerator) / q.denominator
        qx = mp.power(qm, mp.mpf(x.numerator) / x.denominator)
        log_q = mp.log(qm)
        s, qk, qkx, k = mp.mpf(0), qm, qx, 0
        while True:
            k += 1
            s += qkx / (1 - qk)
            qk, qkx = qk * qm, qkx * qx
            tail = qkx / ((1 - qx) * (1 - qk))
            if -log_q * tail < eps / 64:
                break
        log1m = -mp.log1p(-qm)
        value = log1m + log_q * s
        radius = -log_q * tail + mp.ldexp(1, 64 - prec) * (log1m - 2 * log_q * s)
        lo, hi = value - radius, value + radius
    return Enclosure.from_fraction_pair(mpf_to_fraction(lo), mpf_to_fraction(hi))


_ORACLE_XS = [Fraction(1, 5), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2),
              Fraction(7, 3)]


@pytest.mark.parametrize("q", ["1e-400", "0.3", "0.9", "0.99"])
@pytest.mark.parametrize("x", _ORACLE_XS, ids=str)
def test_psi_meets_direct_sum_oracle(q, x):
    """Certified psi_q(x), summed in Clausen's form, meets the direct sum and
    is no wider than eps."""
    oracle = _direct_psi_oracle(Fraction(q), x, 1e-30)
    for eps in (1e-8, 1e-30):
        r = eval_psi_q(q, x, eps)
        assert r.value.intersects(oracle)
        assert r.value.width_upper() <= eps


def _clausen_psi_term(q_iv, a, k: int):
    """a^k q^{k^2} (1/(1-q^k) + a q^k/(1-a q^k)), from powers, not running
    products."""
    qk = q_iv ** k
    return a ** k * q_iv ** (k * k) * (1 / (1 - qk) + a * qk / (1 - a * qk))


def test_psi_tail_bounds_the_next_terms():
    """At random exact (q, x, K), the certified tail bound past K terms is at
    least the next 200 terms at 512 bits plus their own geometric bound, the
    term after them over 1 - a q^(2K+403)."""
    rng = random.Random(17)
    with interval_precision(512):
        for _ in range(8):
            q = Fraction(rng.randint(100, 999), 1000)
            x = Fraction(rng.randint(1, 300), 100)
            k_max = rng.randint(1, 20)
            q_iv = to_ivmpf(q)
            a = iv.exp(to_ivmpf(x - 1) * iv.log(q_iv))
            head = sum(_clausen_psi_term(q_iv, a, k) for k in range(k_max + 1, k_max + 201))
            rest = _clausen_psi_term(q_iv, a, k_max + 201) / (1 - a * q_iv ** (2 * k_max + 403))
            assert Enclosure(_psi_tail(q_iv, a, k_max)).lo >= (head + rest).b, (q, x, k_max)


@pytest.mark.parametrize("q, eps", [("0.999", 1e-40), ("0.9999", 1e-12)])
def test_psi_term_count_grows_like_a_square_root(q, eps):
    """Clausen's form needs about sqrt(log(1/eps)/(-log q)) terms, where the
    direct sum needs log(1/eps)/(-log q)."""
    r = eval_psi_q(q, 1, eps)
    assert r.terms_used <= 2 * math.sqrt(math.log(1 / eps) / -math.log(float(q))) + 2


@pytest.mark.parametrize("q", ["1e-300", "1e-6", "0.3", "0.9", "0.99", "0.999"])
@pytest.mark.parametrize("x", [Fraction(1, 5), Fraction(1, 2), Fraction(3, 2), Fraction(2),
                               Fraction(7, 3)], ids=str)
def test_fast_psi_contains_certified_midpoint(q, x):
    """FAST psi_q(x) pads for rounding q, x - 1 and every operation: at
    q = 1e-300, rounding 1/5 - 1 to a double moves q^(x-1) by 3e-14."""
    fast = eval_psi_q(q, x, 1e-12, Mode.FAST)
    certified = eval_psi_q(q, x, 1e-12)
    assert fast.value.contains(certified.value.midpoint())


def test_psi_where_q_to_the_x_minus_1_overflows_a_double():
    """At q = 5e-324, q^(x-1) exceeds the largest double for x = 1/100: FAST
    refuses, certified still picks its term count and returns an enclosure."""
    with pytest.raises(DomainError):
        eval_psi_q("5e-324", Fraction(1, 100), mode=Mode.FAST)
    assert eval_psi_q("5e-324", Fraction(1, 100)).value.width_upper() <= 1e-12


def test_psi_at_x_near_zero_climbs_the_precision_ladder():
    """At x = 1e-50, a q = 2^-x lies within 1e-50 of 1, so 1 - a q contains 0
    at 128 bits: the fixed-point division refuses, and the evaluator retries
    at higher precision, as it does for any enclosure wider than eps.
    psi_q(x) = -1/x + O(1) near 0."""
    x = Fraction(1, 10**50)
    r = eval_psi_q(Fraction(1, 2), x, 1e-12)
    assert r.value.width_upper() <= 1e-12
    assert r.value.contained_in(-(1 + Fraction(1, 10**6)) / x, -(1 - Fraction(1, 10**6)) / x)


def test_psi_domain():
    with pytest.raises(DomainError):
        eval_psi_q(0.5, 0)
    with pytest.raises(DomainError):
        eval_psi_q(0.5, -1)


# -- H and F -----------------------------------------------------------------------


def test_h_positive_spot():
    for q in ("0.1", "0.5", "0.9"):
        r = eval_H(q, 1e-10)
        assert r.value.is_positive()


def test_h_matches_float_composition():
    r = eval_H(0.5, 1e-12)
    t = eval_T(0.5, 1e-13, mode=Mode.FAST)
    expected = t.value.midpoint() - math.log(0.5) / math.log(0.5)
    assert r.value.midpoint() == pytest.approx(expected, rel=1e-9)


def test_f_limit_near_one():
    gamma = gamma_enclosure()
    f = eval_F("0.9999", 1e-7)
    assert gamma.strictly_below(f.value)
    assert f.value.to_floats()[1] < gamma.to_floats()[0] + 0.01


def test_f_value_near_zero():
    """F(0.001) = 0.8563075802... (the 1/log(q) correction decays slowly)."""
    f = eval_F("0.001", 1e-10)
    assert f.value.contained_in(Fraction("0.85630"), Fraction("0.85631"))


def test_f_fast_mode():
    fast = eval_F(0.37, 1e-10, mode=Mode.FAST)
    certified = eval_F(0.37, 1e-10)
    assert fast.value.intersects(certified.value)


@pytest.mark.parametrize("q", ["1e-6", "1e-12", "1e-25", "1e-100"])
def test_fast_meets_certified_near_zero(q):
    """FAST log(1-q) must not cancel near q = 0 (log1p), or FAST F and
    psi_q miss the certified values."""
    for evaluate in (partial(eval_F, q, 1e-12), partial(eval_psi_q, q, 1, 1e-12)):
        assert evaluate(mode=Mode.FAST).value.intersects(evaluate(mode=Mode.CERTIFIED).value)


# -- bounds -------------------------------------------------------------------------


def test_t41_strict_at_half():
    res = check_bounds(TheoremId.T4_1, q=0.5)
    assert res.status is BoundsStatus.PASS and res.strict_ok


def test_t41_alpha_cannot_be_0999_near_zero():
    """With the lower factor pushed to 0.999 the left bound crosses T."""
    qp = QPoint.coerce("0.001")
    t = eval_T(qp, 1e-16)
    with interval_precision(128):
        q_iv = qp.to_ivmpf()
        lhs = Enclosure(iv.mpf(999) / iv.mpf(1000)) * Enclosure(
            iv.mpf(1) / iv.mpf(999)
        ) + Enclosure(iv.log(1 - q_iv) / iv.log(q_iv))
    # q/(1-q) = 1/999 at q = 1/1000
    assert t.value.strictly_below(lhs)


def test_salem_bounds_spot():
    for q in ("0.05", "0.5", "0.95"):
        res = check_bounds(TheoremId.SALEM_1_3, q=q)
        assert res.strict_ok


def test_c33_example():
    res = check_bounds(TheoremId.C3_3, pair=("0.2", "0.8"))
    assert res.strict_ok
    assert res.lhs.contains(Fraction(1, 16))  # 0.2*0.2/(0.8*0.8)


def test_c33_requires_ordered_pair():
    with pytest.raises(DomainError):
        check_bounds(TheoremId.C3_3, pair=(0.8, 0.2))
    with pytest.raises(DomainError):
        check_bounds(TheoremId.C3_3)


def test_indeterminate_on_huge_eps():
    """A hopeless width request must not produce a false pass."""
    res = check_bounds(TheoremId.T4_1, q="0.99", eps=10.0)
    assert res.status in (BoundsStatus.INDETERMINATE, BoundsStatus.PASS)
    if res.status is BoundsStatus.INDETERMINATE:
        assert not res.strict_ok


# -- Landau's constant ----------------------------------------------------------------


def test_fibonacci_partial_sums_exact():
    p1, _ = fibonacci_partial_sum(1)
    assert p1 == 1  # first term 1/F(2) = 1/1
    p5, _ = fibonacci_partial_sum(5)
    # 1 + 1/3 + 1/8 + 1/21 + 1/55, exact rational arithmetic
    assert p5 == 1 + Fraction(1, 3) + Fraction(1, 8) + Fraction(1, 21) + Fraction(1, 55)
    assert p5 == Fraction(14083, 9240)


def test_fibonacci_tail_bound_halves():
    p10, tail10 = fibonacci_partial_sum(10)
    p11, _ = fibonacci_partial_sum(11)
    assert p11 - p10 <= tail10  # next term is inside the tail bound
    assert landau_fibonacci(11).contained_in(p10, p10 + tail10)


def test_landau_constant_both_routes():
    window_lo = Fraction("1.53537") - Fraction(5, 10**6)
    window_hi = Fraction("1.53537") + Fraction(5, 10**6)
    fib = landau_fibonacci(30)
    direct = landau_constant_from_t(1e-7)
    assert fib.contained_in(window_lo, window_hi)
    assert direct.contained_in(window_lo, window_hi)
    assert fib.intersects(direct)
    assert float(fib.width_upper()) < 1e-5


def test_landau_constant_from_t_on_an_interval_argument_is_tight():
    """landau_constant_from_t sums T over the interval enclosures of c and
    c^2; at eps = 1e-20 it still meets the Fibonacci route, whose width is
    below 1e-24 at 128 bits."""
    with interval_precision(128):
        fib = landau_fibonacci(60)
    direct = landau_constant_from_t(1e-20)
    assert float(fib.width_upper()) < 1e-24
    assert direct.intersects(fib)
    assert float(direct.width_upper()) < 1e-20


@pytest.mark.parametrize("q", [Fraction(1, 2**64), Fraction(1, 10**300), Fraction(1, 10**400)])
@pytest.mark.parametrize("bits", [128, 1024])
def test_certified_minus_log1m_keeps_relative_accuracy(q, bits):
    """For q <= 2^-64, -log(1-q) is the series sum q^k/k with a tail bound:
    it encloses a 2000-bit value and is tight relative to q."""
    with interval_precision(bits):
        enc = Enclosure(_minus_log1m(QPoint(q)))
    with mp.workprec(2000):
        reference = mpf_to_fraction(-mp.log1p(-mp.mpf(q.numerator) / q.denominator))
    assert enc.contains(reference)
    assert mpf_to_fraction(enc.width_upper()) <= q * Fraction(1, 2 ** (bits - 8))


def test_certified_h_at_tiny_q_has_correct_digits():
    """H(q) = q (1 - 1/L) + O(q^2), L = log(1/q); at q = 1e-300 certified H
    was [-4.3e-42, 1e-300] while iv.log(1 - q) carried the log."""
    q = Fraction(1, 10**300)
    h = eval_H(q, 1e-310).value
    with mp.workprec(200):
        L = mp.log(mp.mpf(10) ** 300)
        approx = 1e-300 * (1 - 1 / L)
    lo, hi = h.to_floats()
    assert lo <= float(approx) <= hi
    assert hi - lo <= 1e-312
