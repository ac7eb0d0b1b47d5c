"""Certified evaluators: cross-representation consistency, the q-digamma
identity, limit behavior, sharp-bound checks and Landau's constant."""

import math
import random
from fractions import Fraction
from functools import partial

import pytest
from mpmath import iv, mp

from divisor_series.intervals import (
    DomainError,
    Enclosure,
    Mode,
    TermBudgetError,
    gamma_enclosure,
    interval_precision,
    mpf_to_fraction,
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
