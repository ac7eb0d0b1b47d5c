"""Certified evaluators: cross-representation consistency, the q-digamma
identity, limit behavior, sharp-bound checks and Landau's constant."""

import inspect
import math
import random
from fractions import Fraction
from functools import partial

import pytest
from mpmath import iv, libmp, mp

from divisor_series import special_eval
from divisor_series.divisor_core import divisor_sieve
from divisor_series.intervals import (
    DomainError,
    Enclosure,
    Mode,
    PrecisionError,
    TermBudgetError,
    gamma_enclosure,
    interval_precision,
    log1m,
    mpf_to_fraction,
    to_ivmpf,
    working_precision,
)
from divisor_series.power_series import RepresentationId
from divisor_series.special_eval import (
    FAST_PRECISION,
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
    t_enclosure_for_interval,
    _fixed_point_sum,
    _psi_sum_end,
    _t_sum_end,
)
from oracles import (
    FixedArithmetic,
    psi_partial_sum_generic,
    psi_tail,
    t_partial_sum_generic,
    t_tail,
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


@pytest.mark.parametrize("rep", NUMERIC_REPS)
@pytest.mark.parametrize("q", ["1e-200", "3e-320", "1e-400"])
def test_fast_t_tail_bound_stays_positive_where_q_powers_underflow(q, rep):
    """q^(K+1) underflows a double here; the FAST tail bound is formed on the
    kernel's integers at a scale that keeps q's 53 bits, with every power
    rounded up, so it stays above the true tail (> 0)."""
    fast = eval_T(q, 1e-12, rep, Mode.FAST)
    assert fast.tail_bound > 0
    assert fast.value.intersects(eval_T(q, 1e-12, rep).value)


_NEAR_ONE = [(rep, k) for rep in NUMERIC_REPS
             for k in range(1, 9 if rep is RepresentationId.CLAUSEN else 4)]


@pytest.mark.parametrize("rep, k", _NEAR_ONE, ids=lambda v: getattr(v, "value", v))
def test_fast_t_contains_certified_t_near_one(rep, k):
    """At q = 1 - m 10^-k the ends of FAST T, as exact rationals, contain
    the certified T, also at CLAUSEN k = 7 and 8, where 1 - q^k cancels in
    the leading terms."""
    for m in (1, 3, 7):
        q = 1 - Fraction(m, 10**k)
        fast = eval_T(q, 1e-12, rep, Mode.FAST).value
        certified = eval_T(q, 1e-12, rep).value
        assert certified.contained_in(mpf_to_fraction(fast.lo), mpf_to_fraction(fast.hi)), (rep, q)


_BODY_POINTS = ([(q, rep) for q in ("1e-400", "1/7", "0.99") for rep in NUMERIC_REPS]
                + [("0.9999999", RepresentationId.CLAUSEN)])


@pytest.mark.parametrize("q, rep", _BODY_POINTS, ids=lambda v: getattr(v, "value", v))
def test_fast_t_is_the_certified_body_at_fast_precision(q, rep):
    """FAST T is t_enclosure_for_interval run once at FAST_PRECISION bits:
    the same ends bit for bit and the same term count, tagged FAST."""
    fast = eval_T(q, 1e-12, rep, Mode.FAST)
    with interval_precision(FAST_PRECISION):
        body = t_enclosure_for_interval(QPoint.coerce(q).to_ivmpf(), 1e-12, rep)
    assert fast.mode is Mode.FAST and body.mode is Mode.CERTIFIED
    assert (fast.value.lo, fast.value.hi, fast.terms_used, fast.tail_bound) == (
        body.value.lo, body.value.hi, body.terms_used, body.tail_bound)


_EPS_RULE = [partial(eval_T, mode=Mode.FAST), eval_T,
             partial(eval_psi_q, x=1, mode=Mode.FAST), partial(eval_psi_q, x=1),
             partial(eval_H, mode=Mode.FAST), eval_H,
             partial(eval_F, mode=Mode.FAST), eval_F,
             lambda q, eps: landau_constant_from_t(eps),
             partial(check_bounds, TheoremId.T4_1)]


@pytest.mark.parametrize("evaluate", _EPS_RULE)
def test_one_eps_rule(evaluate):
    """eps of 0, -1 or NaN is a DomainError from every evaluator, in either
    mode, and from the bound checks, whether it is a float, an int or a
    Fraction; an infinite eps asks for no width."""
    for eps in (0, -1, math.nan, Fraction(0), Fraction(-1)):
        with pytest.raises(DomainError, match="^eps must be positive$"):
            evaluate(q="0.3", eps=eps)
    evaluate(q="0.3", eps=math.inf)


def test_the_ladder_restores_the_interval_precision():
    """_climb sets iv.prec for each rung and restores it on every exit: a
    report from a rung above working precision, a width out of reach, and an
    error raised inside a rung."""
    before = iv.prec

    def raising_rung():
        raise ZeroDivisionError

    eval_T("0.5", 1e-40)
    assert iv.prec == before
    with pytest.raises(PrecisionError):
        eval_T("0.5", Fraction(1, 10**400))
    assert iv.prec == before
    with pytest.raises(ZeroDivisionError):
        special_eval._climb(1e-12, Mode.CERTIFIED, raising_rung)
    assert iv.prec == before


@pytest.mark.parametrize("mode", [Mode.FAST, Mode.CERTIFIED])
def test_f_where_the_width_of_t_underflows(mode):
    """At q = 1e-400 F's scale (1-q)/q is 1e400, so the width eps q/(2(1-q))
    asked of T is below the doubles; T takes it as an exact rational and F
    meets criterion 4a's window 1 - 1/L < F < 1 - 1/L + a+ + b+/L,
    L = log(1/q), which is about 1e-400 wide there."""
    q = Fraction(1, 10**400)
    a_plus = q + 1 / (1 - q) ** 2 - 1 - 2 * q - 3 * q**2
    b_plus = q / 2 + q**2 / (6 * (1 - q))
    with interval_precision(128):
        log_inv_q = iv.log(to_ivmpf(1 / q))
        window = Enclosure((1 - 1 / log_inv_q).a, (1 - 1 / log_inv_q + to_ivmpf(a_plus)
                                                   + to_ivmpf(b_plus) / log_inv_q).b)
    f = eval_F(q, 1e-12, mode=mode)
    assert f.value.intersects(window)
    assert float(f.value.width_upper()) <= (1e-12 if mode is Mode.CERTIFIED else 1e-14)


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
    bound is finite: every evaluator rejects it instead of dividing by 0.
    At q = 1 - 10^-400 the width eps q/(2(1-q)) that F asks of T passes the
    largest double; F still names the domain, not an overflow."""
    for q in (1 - Fraction(1, 10**17), 1 - Fraction(1, 10**400)):
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


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("q", ["1e-100", "0.5", "0.999"])
@pytest.mark.parametrize("evaluate", [eval_T, partial(eval_psi_q, x=1), eval_H, eval_F],
                         ids=["T", "psi", "H", "F"])
def test_tail_bound_is_the_truncation_in_the_value(evaluate, q, mode):
    """The reported tail bound is the truncation as it enters the value
    returned, scaled by log(q) for psi and by (1-q)/q for F: no more than
    the width of the printed ends, up to one rounding."""
    report = evaluate(q, eps=1e-12, mode=mode)
    lo, hi = report.value.to_floats()
    assert Fraction(report.tail_bound) <= (Fraction(hi) - Fraction(lo)) * (1 + Fraction(1, 2**52))


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
    """q's 128-bit enclosure through the fixed-point step, as the certified
    evaluator sums it: the kernel's two ends enclose both the exact partial
    sum and that sum plus the exact tail bound at q, and exceed that span by
    no more than 2^-100 of the sum, at q = 1e-400 too."""
    d = divisor_sieve(_FIXED_TERMS) if rep is RepresentationId.DIVISOR else None
    with interval_precision(128):
        got, _ = _fixed_point_sum(partial(_t_sum_end, rep, _FIXED_TERMS, d), to_ivmpf(q))
    got = Enclosure(got)
    exact = _exact_t_partial_sum(q, rep, _FIXED_TERMS)
    tail = t_tail(q, rep, _FIXED_TERMS)
    assert got.contains(exact) and got.contains(exact + tail)
    assert mpf_to_fraction(got.hi) - mpf_to_fraction(got.lo) - tail <= exact / 2**100


def _exact_psi_partial_sum(q: Fraction, a: Fraction, terms: int) -> Fraction:
    return sum(a**k * q**(k * k) * (1 / (1 - q**k) + a * q**k / (1 - a * q**k))
               for k in range(1, terms + 1))


@pytest.mark.parametrize("q", _FIXED_QS, ids=str)
@pytest.mark.parametrize("x", [Fraction(1, 5), Fraction(1), Fraction(3, 2), Fraction(7, 3)],
                         ids=str)
def test_certified_psi_partial_sum_on_fixed_intervals_encloses_exact(q, x):
    """Every term of the sum grows with a = q^(x-1) > 0, so the exact
    rational sums at the endpoints of a's 128-bit enclosure lie on either
    side of the true partial sum; the fixed-point sum encloses both, and its
    upper end also the exact tail bound at a's upper end.  Its scale follows
    q, so past that span it keeps 100 significant bits of the sum or of q,
    whichever is larger: for x > 1 at tiny q the sum is far below q, and
    psi_q = -log(1-q) + log(q) * sum is dominated by -log(1-q) ~ q.  The sum
    is the kernel's through the fixed-point step, one end from (q.lo, a.lo),
    the other from (q.hi, a.hi)."""
    with interval_precision(128):
        q_iv = to_ivmpf(q)
        a = iv.exp(to_ivmpf(x - 1) * iv.log(q_iv))
        got, _ = _fixed_point_sum(partial(_psi_sum_end, _FIXED_TERMS), q_iv, a)
    got = Enclosure(got)
    a_enc = Enclosure(a)
    low = _exact_psi_partial_sum(q, mpf_to_fraction(a_enc.lo), _FIXED_TERMS)
    high = _exact_psi_partial_sum(q, mpf_to_fraction(a_enc.hi), _FIXED_TERMS)
    tail = psi_tail(q, mpf_to_fraction(a_enc.hi), _FIXED_TERMS)
    assert got.contains(low) and got.contains(high + tail)
    assert mpf_to_fraction(got.hi) - mpf_to_fraction(got.lo) - tail <= max(low, q) / 2**100


@pytest.mark.parametrize("bits", [53, 128, 1024])
def test_fixed_point_step_rounds_outward(bits):
    """The step floors and ceils q's ends at its scale, and returns the sums
    rounded outward to the working precision (here the ends themselves, from
    a kernel that returns its end); at that scale q keeps the working
    precision's significant bits, however small it is."""
    rng = random.Random(8)
    values = [Fraction(1, 7), Fraction(99, 100), Fraction(1, 10**300), Fraction(1, 10**400),
              Fraction(10**40, 3)]
    values += [Fraction(rng.randrange(1, 10**30), rng.randrange(1, 10**30)) *
               Fraction(10) ** rng.randrange(-400, 40) for _ in range(30)]
    with interval_precision(bits):
        for value in values:
            enc = to_ivmpf(value)
            lo = mpf_to_fraction(mp.make_mpf(enc._mpi_[0]))
            hi = mpf_to_fraction(mp.make_mpf(enc._mpi_[1]))
            [x] = FixedArithmetic.lift(enc)
            assert (x.lo, x.hi) == (math.floor(lo * 2 ** x.shift), math.ceil(hi * 2 ** x.shift))
            if 0 < value < 1:
                assert 2 ** (bits - 1) <= x.lo < 2 ** bits
            back, tail = _fixed_point_sum(lambda s, up, end: (end, 0), enc)
            back = Enclosure(back)
            assert mpf_to_fraction(back.lo) <= Fraction(x.lo, 2 ** x.shift)
            assert Fraction(x.hi, 2 ** x.shift) <= mpf_to_fraction(back.hi)
            # outward by less than one unit in the last of `bits` places
            assert back.contained_in(lo - abs(lo) / 2 ** (bits - 2), hi + abs(hi) / 2 ** (bits - 2))
            assert back.contains(value) and tail == libmp.fzero


def test_fixed_point_step_refuses_an_unbounded_end():
    """An unbounded end of q or of psi's a has no fixed-point enclosure."""
    with interval_precision(128):
        for ivs in ([iv.mpf([0, "inf"])], [iv.mpf(["-inf", 0])],
                    [to_ivmpf(Fraction(1, 2)), iv.mpf([1, "inf"])]):
            with pytest.raises(DomainError, match="unbounded"):
                FixedArithmetic.lift(*ivs)


def test_fixed_point_scale_follows_the_exponent_of_q():
    """The scale is 2^-(iv.prec + the leading zero bits of q's lower end),
    whatever psi's a is; a q whose lower end is below 0 is refused."""
    def shift(*ivs):
        return FixedArithmetic.lift(*ivs)[0].shift

    with interval_precision(128):
        assert shift(to_ivmpf(Fraction(3, 4))) == 128
        assert shift(to_ivmpf(7)) == 128
        assert shift(to_ivmpf(Fraction(1, 8))) == 130
        assert shift(to_ivmpf(Fraction(1, 2**1000))) == 128 + 999
        assert shift(iv.mpf([0, 1])) == 128
        assert shift(to_ivmpf(Fraction(1, 8)), to_ivmpf(Fraction(1, 2**1000))) == 130
        with pytest.raises(DomainError):
            shift(iv.mpf([-1, 1]))


_KERNEL_QS = _FIXED_QS + [1 - Fraction(1, 10**k) for k in range(1, 7)]


def _lifted(q, x: Fraction | None = None):
    """q, and a = q^(x-1) when x is given, from their enclosures at the
    current precision, as the fixed-point step lifts them for the certified
    evaluators (q alone for T); None where the step refuses (a q reaches 1).
    q may be an ivmpf."""
    q_iv = to_ivmpf(q)
    if x is None:
        return FixedArithmetic.lift(q_iv)[0]
    return FixedArithmetic.lift(q_iv, iv.exp(to_ivmpf(x - 1) * iv.log(q_iv)))


@pytest.mark.parametrize("prec", [53, 128, 512])
@pytest.mark.parametrize("rep", NUMERIC_REPS, ids=lambda r: r.value)
def test_t_sum_kernel_is_the_generic_body_bit_for_bit(rep, prec):
    """_t_sum_end replays t_partial_sum_generic on FixedArithmetic: its lower
    end from q.lo and its upper end from q.hi, tail bound included, are the
    generic body's ends, as ints, for 1, 6 and 300 terms, up to
    q = 1 - 1e-6."""
    for terms in (1, _FIXED_TERMS, 300):
        d = divisor_sieve(terms) if rep is RepresentationId.DIVISOR else None
        for q in _KERNEL_QS:
            with interval_precision(prec):
                q_fx = _lifted(q)
            body = t_partial_sum_generic(q_fx, rep, terms, d)
            lo, _ = _t_sum_end(rep, terms, d, q_fx.shift, 0, q_fx.lo)
            hi, _ = _t_sum_end(rep, terms, d, q_fx.shift, 1, q_fx.hi)
            assert (lo, hi) == (body.lo, body.hi), (q, terms)


@pytest.mark.parametrize("prec", [53, 128, 512])
@pytest.mark.parametrize("x", [Fraction(1, 100), Fraction(1, 5), Fraction(1), Fraction(3, 2),
                               Fraction(7, 3)], ids=str)
def test_psi_sum_kernel_is_the_generic_body_bit_for_bit(x, prec):
    """_psi_sum_end replays psi_partial_sum_generic on FixedArithmetic q and a
    wherever the fixed-point step's guard holds, as ints, tail bound
    included; a case whose a q reaches 1 is refused by the step and left to
    the guard test below."""
    kernel_cases = 0
    for terms in (1, _FIXED_TERMS, 300):
        for q in _KERNEL_QS:
            with interval_precision(prec):
                lifted = _lifted(q, x)
            if lifted is None:
                continue  # a q reaches 1: outside the guard
            kernel_cases += 1
            q_fx, a_fx = lifted
            s = q_fx.shift
            body = psi_partial_sum_generic(q_fx, a_fx, terms)
            lo, _ = _psi_sum_end(terms, s, 0, q_fx.lo, a_fx.lo)
            hi, _ = _psi_sum_end(terms, s, 1, q_fx.hi, a_fx.hi)
            assert (lo, hi) == (body.lo, body.hi), (q, terms)
    assert kernel_cases >= 3 * len(_FIXED_QS)


def _count_calls(monkeypatch, name: str) -> list:
    kernel, calls = getattr(special_eval, name), []
    monkeypatch.setattr(special_eval, name, lambda *args: calls.append(args) or kernel(*args))
    return calls


_RUNG_POINTS = ([(q, rep) for q in (Fraction(1, 10**400), Fraction(1, 7)) for rep in NUMERIC_REPS]
                + [(1 - Fraction(1, 10**6), RepresentationId.CLAUSEN)])


@pytest.mark.parametrize("q, rep", _RUNG_POINTS, ids=lambda v: getattr(v, "value", str(v)))
def test_certified_t_rung_runs_the_kernel_once_per_end(monkeypatch, q, rep):
    """One certified T rung sums q's lower end rounded down and its upper end
    rounded up, each by one kernel call on the lifted q, and nothing else."""
    calls = _count_calls(monkeypatch, "_t_sum_end")
    with interval_precision(128):
        q_iv = to_ivmpf(q)
        q_fx = _lifted(q)
        report = t_enclosure_for_interval(q_iv, 1e-12, rep)
    assert [c[3:] for c in calls] == [(q_fx.shift, 0, q_fx.lo), (q_fx.shift, 1, q_fx.hi)]
    assert all(c[1] == report.terms_used for c in calls)


def test_certified_t_refuses_a_q_reaching_one_before_the_kernel(monkeypatch):
    """A q whose double upper bound is 1 has no finite tail bound: the term
    count raises before any kernel call, so the kernel never sees q.hi = 2^s."""
    calls = _count_calls(monkeypatch, "_t_sum_end")
    q = 1 - Fraction(1, 2**60)
    for rep in NUMERIC_REPS:
        with interval_precision(128), pytest.raises(DomainError):
            t_enclosure_for_interval(to_ivmpf(q), 1e-12, rep)
        with pytest.raises(DomainError):
            eval_T(q, 1e-12, rep)
    assert calls == []


def test_certified_t_refuses_an_interval_below_zero_before_the_kernel(monkeypatch):
    """An interval q reaching below 0 breaks the kernels' premise
    0 <= q.lo: it is refused before any kernel call."""
    calls = _count_calls(monkeypatch, "_t_sum_end")
    for rep in NUMERIC_REPS:
        with interval_precision(128), pytest.raises(DomainError):
            t_enclosure_for_interval(iv.mpf(["-0.25", "0.5"]), 1e-12, rep)
    assert calls == []


def test_psi_rung_guard_returns_none_without_a_kernel_call(monkeypatch):
    """At x = 1e-50 and q = 1/2, a q = 2^(-1e-50) rounds up to 1 at 128 bits:
    psi's rung returns None, to be tried higher, without calling the kernel.
    At 256 bits a q < 1 and the rung calls it once per end, for an enclosure
    the ladder then narrows further.  An a with a q = 1 exactly, where the
    kernel would divide by 1 - a q = 0, is refused too."""
    calls = _count_calls(monkeypatch, "_psi_sum_end")
    monkeypatch.setattr(special_eval, "_climb", lambda eps, mode, rung: rung)
    rung = eval_psi_q(Fraction(1, 2), Fraction(1, 10**50), 1e-12)
    with interval_precision(128):
        assert rung() is None
    assert calls == []
    with interval_precision(256):
        assert rung() is not None
    assert [c[2] for c in calls] == [0, 1]
    monkeypatch.setattr(special_eval, "powr", lambda q, exponent: iv.mpf(2))
    with interval_precision(128):
        assert eval_psi_q(Fraction(1, 2), Fraction(1, 2), 1e-12)() is None
    assert len(calls) == 2


#: The functions of special_eval that sum a series: the two integer kernels,
#: the fixed-point step that runs them, and Landau's exact rational partial
#: sum.
_SUMS = {"_t_sum_end", "_psi_sum_end", "_fixed_point_sum", "fibonacci_partial_sum"}


@pytest.mark.parametrize("mode", [Mode.FAST, Mode.CERTIFIED])
@pytest.mark.parametrize("q, pair", [("1e-400", ("1e-20", "2e-20")), ("1/2", ("1/4", "1/2")),
                                     ("99/100", ("49/50", "99/100"))], ids=lambda v: str(v))
def test_evaluators_never_run_the_generic_bodies(monkeypatch, q, pair, mode):
    """special_eval defines no generic partial sum, and the fixed-point step
    hands the kernels plain ints, on which no generic body could run: the
    integer kernels are the only partial sums the evaluators run.  T (three
    series), psi_q (four x), H, F and, certified only, Landau's constant and
    one bound check of each theorem evaluate, and call both kernels.  C3_3
    takes its pair near q (at 1e-20 near 0, where H is still a normal
    double)."""
    functions = {name for name, value in vars(special_eval).items()
                 if inspect.isfunction(value) and value.__module__ == special_eval.__name__}
    assert {name for name in functions if "sum" in name} == _SUMS
    t_calls = _count_calls(monkeypatch, "_t_sum_end")
    psi_calls = _count_calls(monkeypatch, "_psi_sum_end")
    for rep in NUMERIC_REPS:
        eval_T(q, 1e-12, rep, mode)
    for x in (Fraction(1, 100), Fraction(1, 5), Fraction(1), Fraction(3, 2)):
        eval_psi_q(q, x, 1e-12, mode)
    eval_H(q, 1e-12, mode=mode)
    eval_F(q, 1e-12, mode=mode)
    if mode is Mode.CERTIFIED:
        landau_constant_from_t(1e-12)
        for theorem in TheoremId:
            if theorem is TheoremId.C3_3:
                check_bounds(theorem, pair=pair)
            else:
                check_bounds(theorem, q=q)
    assert t_calls and psi_calls
    assert all(type(v) is int for c in t_calls for v in (c[1], *c[3:]))
    assert all(type(v) is int for c in psi_calls for v in c)


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
            assert Enclosure(psi_tail(q_iv, a, k_max)).lo >= (head + rest).b, (q, x, k_max)


#: q for the kernels' tails; None stands for Landau's interval
#: c = ((sqrt(5)-1)/2)^2 of landau_constant_from_t.
_TAIL_QS = [Fraction(1, 10**400), Fraction(1, 7), Fraction(99, 100), Fraction(9999999, 10**7), None]


def _next_terms_bound(series, q, a, k_max: int):
    """The 200 terms of T's series (series a representation) or of psi's sum
    in Clausen's form (series = x) past k_max, at interval q (and a), by
    running products, plus a bound on the rest: the term after them over one
    less the largest ratio of later terms, q for LAMBERT and (a) q^(2m+3),
    m = k_max + 200, in Clausen's form; for DIVISOR, d(k) <= k and
    sum_{k>m} k q^k in closed form."""
    m = k_max + 200
    qk, total = q ** (k_max + 1), 0
    if series is RepresentationId.LAMBERT:
        for _ in range(200):
            total, qk = total + qk / (1 - qk), qk * q
        return total + qk / (1 - qk) / (1 - q)
    if series is RepresentationId.DIVISOR:
        d = divisor_sieve(m)
        for k in range(k_max + 1, m + 1):
            total, qk = total + d[k] * qk, qk * q
        return total + qk * ((m + 1) - m * q) / (1 - q) ** 2
    if series is RepresentationId.CLAUSEN:
        qk2 = q ** ((k_max + 1) ** 2)  # q^{k^2}
        for _ in range(201):
            term = (1 + qk) / (1 - qk) * qk2
            total, qk2, qk = total + term, qk2 * qk * qk * q, qk * q
        return total + term * (1 / (1 - q ** (2 * m + 3)) - 1)
    aqk = a * qk
    c = aqk ** (k_max + 1)  # a^k q^{k^2}
    for _ in range(201):
        term = c * (1 / (1 - qk) + aqk / (1 - aqk))
        total, qk = total + term, qk * q
        c, aqk = c * aqk * qk, aqk * q
    return total + term * (1 / (1 - a * q ** (2 * m + 3)) - 1)


@pytest.mark.parametrize("prec", [53, 128, 512])
@pytest.mark.parametrize("series", NUMERIC_REPS + (Fraction(1, 5), Fraction(1), Fraction(2)),
                         ids=lambda v: getattr(v, "value", f"psi-{v}"))
def test_kernel_tail_bounds_the_next_terms_and_the_ivmpf_tail(series, prec):
    """The tail bound that a kernel's upper pass adds, with q (and a = q^(x-1)
    for psi at x = series) lifted at prec bits as the evaluators lift them,
    is at least the next 200 terms at q.hi (and a.hi), summed at 512 bits,
    plus a bound on the rest; and at least the oracle's ivmpf tail bound at
    q.hi (and a.hi).  At q = 1e-400, 1/7, 0.99, 0.9999999 and Landau's
    interval c, past 1, 6 and 300 terms."""
    is_t = isinstance(series, RepresentationId)
    for q in _TAIL_QS:
        for terms in (1, _FIXED_TERMS, 300):
            with interval_precision(prec):
                q_iv = ((iv.sqrt(iv.mpf(5)) - 1) / 2) ** 2 if q is None else to_ivmpf(q)
                if is_t:
                    d = divisor_sieve(terms) if series is RepresentationId.DIVISOR else None
                    ivs, kernel = (q_iv,), partial(_t_sum_end, series, terms, d)
                else:
                    ivs = (q_iv, iv.exp(to_ivmpf(series - 1) * iv.log(q_iv)))
                    kernel = partial(_psi_sum_end, terms)
                tail = mp.make_mpf(_fixed_point_sum(kernel, *ivs)[1])
                ends = FixedArithmetic.lift(*ivs)
            with interval_precision(512):
                q_hi, *a_hi = [to_ivmpf(Fraction(x.hi, 2 ** x.shift)) for x in ends]
                a_hi = a_hi[0] if a_hi else None
                oracle = t_tail(q_hi, series, terms) if is_t else psi_tail(q_hi, a_hi, terms)
                assert tail >= Enclosure(oracle).lo, (q, terms)
                assert tail >= Enclosure(_next_terms_bound(series, q_hi, a_hi, terms)).hi, (
                    q, terms)


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
    """FAST psi_q(x) runs the certified body at 53 bits, which lifts q and
    x - 1 exactly: at q = 1e-300, rounding 1/5 - 1 to a double would move
    q^(x-1) by 3e-14."""
    fast = eval_psi_q(q, x, 1e-12, Mode.FAST)
    certified = eval_psi_q(q, x, 1e-12)
    assert fast.value.contains(certified.value.midpoint())


def test_psi_where_q_to_the_x_minus_1_overflows_a_double():
    """At q = 5e-324, q^(x-1) exceeds the largest double for x = 1/100: both
    modes still pick a term count and return an enclosure, and FAST meets
    the certified one."""
    certified = eval_psi_q("5e-324", Fraction(1, 100))
    assert certified.value.width_upper() <= 1e-12
    fast = eval_psi_q("5e-324", Fraction(1, 100), mode=Mode.FAST)
    assert fast.mode is Mode.FAST and fast.value.intersects(certified.value)


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


@pytest.mark.parametrize("q, eps", [("0.9999", 1e-30), ("0.99999", 1e-35),
                                    ("0.999997", 1e-40), ("0.999999", 1e-60)])
def test_certified_h_and_f_climb_the_precision_ladder_near_one(q, eps):
    """Near q = 1, b = log(1-q)/log(q) cancels and its enclosure at the first
    rung is wider than eps, so H and F climb the ladder as T does.  Each
    enclosure meets H = psi_q(1)/log(q) (Salem's identity
    psi_q(1) = -log(1-q) + log(q) T(q)) or F = (1-q)/q H, with psi_q(1) taken
    to width eps^2, at about twice the bits."""
    qp = QPoint.coerce(q)
    h, f = eval_H(qp, eps), eval_F(qp, eps)
    psi = eval_psi_q(qp, 1, eps * eps)
    with interval_precision(1024):
        h_ref = psi.value / Enclosure(iv.log(qp.to_ivmpf()))
        f_ref = h_ref * ((1 - qp.value) / qp.value)
    for value, reference in ((h.value, h_ref), (f.value, f_ref)):
        assert float(value.width_upper()) <= eps
        assert value.intersects(reference)


@pytest.mark.parametrize("q", ["1e-6", "1e-12", "1e-25", "1e-100"])
def test_fast_meets_certified_near_zero(q):
    """FAST log(1-q) must not cancel near q = 0 (log1p), or FAST F and
    psi_q miss the certified values."""
    for evaluate in (partial(eval_F, q, 1e-12), partial(eval_psi_q, q, 1, 1e-12)):
        assert evaluate(mode=Mode.FAST).value.intersects(evaluate(mode=Mode.CERTIFIED).value)


@pytest.mark.parametrize("evaluate", [partial(eval_psi_q, x=Fraction(1, 2)), eval_H])
def test_fast_meets_certified_at_a_subnormal_q(evaluate):
    """A q below the smallest normal double keeps few significant bits as a
    double (3e-320 is off by about 1e-5 relatively); FAST psi and H lift the
    exact q into 53-bit intervals, whose exponent does not underflow."""
    fast = evaluate("3e-320", eps=1e-12, mode=Mode.FAST)
    assert fast.value.intersects(evaluate("3e-320", eps=1e-12, mode=Mode.CERTIFIED).value)


def test_fast_meets_certified_from_subnormal_q_to_near_one():
    """On seeded q from 1e-320 to 0.999, and at 1e-400, FAST psi_q (five x),
    H and F meet the certified enclosures, also where the width
    eps q/(2(1-q)) that F asks of T underflows a double.  Where a certified
    evaluator refuses, FAST refuses too."""
    rng = random.Random(23)
    qs = [Fraction(1, 10**400), Fraction(1, 10**320), Fraction(999, 1000)]
    qs += [Fraction(rng.randint(1, 999), 1000) / 10**rng.randint(0, 317) for _ in range(40)]
    evaluators = [eval_H, eval_F] + [partial(eval_psi_q, x=x) for x in (
        Fraction(1, 100), Fraction(1, 5), Fraction(1), Fraction(3, 2), Fraction(7, 3))]
    for q in qs:
        for evaluate in evaluators:
            try:
                certified = evaluate(q, eps=1e-12)
            except DomainError:
                with pytest.raises(DomainError):
                    evaluate(q, eps=1e-12, mode=Mode.FAST)
                continue
            fast = evaluate(q, eps=1e-12, mode=Mode.FAST)
            assert fast.value.intersects(certified.value), (q, evaluate)


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


def test_salem_meets_the_psi_route():
    """check_bounds takes Salem's middle term from T; psi_q(1), computed here
    on the default bounds-scan grid and at 0.9999, is an independent witness
    of 1 - (1-q)/(q log q) psi_q(1)."""
    for q in [Fraction(k, 100) for k in range(1, 100)] + [Fraction(9999, 10000)]:
        res = check_bounds(TheoremId.SALEM_1_3, q=q)
        assert res.status is BoundsStatus.PASS, q
        psi = eval_psi_q(q, 1, 1e-20)
        with interval_precision(128):
            factor = Enclosure((1 - q) / q) / Enclosure(iv.log(to_ivmpf(q)))
            oracle = 1 - factor * psi.value
        assert res.mid.intersects(oracle), q


@pytest.mark.parametrize("theorem", [t for t in TheoremId if t is not TheoremId.C3_3])
@pytest.mark.parametrize("q", ["1e-20", "1e-100"])
def test_one_point_theorems_where_log_of_one_minus_q_rounds_to_zero(theorem, q):
    """-log(1-q) is below a double's resolution around 1 here; the checks
    take it from its interval enclosure and still separate."""
    assert check_bounds(theorem, q=q).status is BoundsStatus.PASS


def test_t44_where_its_scale_underflows_a_double():
    """T4_4's scale -log(1-q) is about 1e-400, below the smallest double."""
    assert check_bounds(TheoremId.T4_4, q="1e-400").status is BoundsStatus.PASS


@pytest.mark.parametrize("theorem", [TheoremId.T4_2, TheoremId.SALEM_1_3])
def test_one_point_theorems_where_the_width_of_t_underflows(theorem):
    """Their scale (1-q)/q exceeds the largest double at q = 1e-400, so
    eps/(2|scale|) underflows one; T takes that width as an exact rational
    and both checks pass."""
    assert check_bounds(theorem, q="1e-400").status is BoundsStatus.PASS


def test_t42_at_a_tiny_q_sums_t_at_working_precision(monkeypatch):
    """T's fixed-point sum keeps relative precision: at q = 1e-300, where
    T4_2's scale is about 1e300, working precision already narrows mid to
    the width asked, so the check sums T once, at working precision, not at
    the 1024 bits that the absolute width asked of T would take."""
    body, precisions = special_eval.t_enclosure_for_interval, []
    monkeypatch.setattr(special_eval, "t_enclosure_for_interval",
                        lambda *args: precisions.append(iv.prec) or body(*args))
    res = check_bounds(TheoremId.T4_2, q="1e-300")
    assert res.status is BoundsStatus.PASS and res.mid.width_upper() <= 1e-8
    assert precisions == [working_precision()]


def test_f_at_a_tiny_q_sums_t_at_working_precision(monkeypatch):
    """At q = 1e-300 F asks T for width about 5e-313, absolute; T's ladder
    starts from the relative width, against T(q) <= q/(1-q)^2, so certified
    F sums T once, at working precision, not at 1024 bits."""
    body, precisions = special_eval.t_enclosure_for_interval, []
    monkeypatch.setattr(special_eval, "t_enclosure_for_interval",
                        lambda *args: precisions.append(iv.prec) or body(*args))
    f = eval_F("1e-300", 1e-12)
    assert f.value.width_upper() <= 1e-12
    assert precisions == [working_precision()]


@pytest.mark.parametrize("lo, hi, series", [
    (Fraction(1, 2**64) - Fraction(1, 2**170), Fraction(1, 2**64), True),
    (Fraction(1, 2**64), Fraction(1, 2**64) + Fraction(1, 2**170), False),
    (-Fraction(1, 2**64), Fraction(1, 2**170) - Fraction(1, 2**64), True),
    (-Fraction(1, 2**64) - Fraction(1, 2**170), -Fraction(1, 2**64), False)])
def test_log1m_takes_its_series_up_to_two_to_the_minus_64(lo, hi, series):
    """|x| <= 2^-64, compared on the raw ends, takes the series, as tight
    as x is wide (2^-170); an x past it takes iv.log(1 - x), where 1 - x
    rounds at 128 bits and the width is at least 2^-128."""
    with interval_precision(128):
        x = Enclosure(lo, hi)._iv
        got = log1m(x)
        if not series:
            assert got._mpi_ == iv.log(1 - x)._mpi_
    assert (mpf_to_fraction(Enclosure(got).width_upper()) <= Fraction(1, 2**160)) == series


def test_c33_example():
    res = check_bounds(TheoremId.C3_3, pair=("0.2", "0.8"))
    assert res.strict_ok
    assert res.lhs.contains(Fraction(1, 16))  # 0.2*0.2/(0.8*0.8)


@pytest.mark.parametrize("s", ["1e-160", "1e-200", "1e-300", "1e-305"])
def test_c33_where_the_square_of_h_underflows(s):
    """H(s)^2 underflows a double below s = 1.5e-162; the width asked of H(s)
    is taken as e H(s) (H(s)/H(r)) / 4, which does not."""
    r = Fraction(s) / 2
    assert check_bounds(TheoremId.C3_3, pair=(r, Fraction(s))).status is BoundsStatus.PASS


def test_c33_where_h_of_r_underflows():
    """H(r) rounds to 0.0 at r = 1e-330; the pair still separates."""
    assert check_bounds(TheoremId.C3_3, pair=("1e-330", "0.5")).status is BoundsStatus.PASS


def test_c33_at_a_subnormal_s():
    """H(s) ~ 2e-320 is a subnormal double here, and e H(s)/4 lies below the
    doubles; the widths are exact rationals and the pair passes."""
    res = check_bounds(TheoremId.C3_3, pair=("1e-320", "2e-320"))
    assert res.status is BoundsStatus.PASS and res.mid.contained_in(Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**6))


def test_c33_refuses_an_s_whose_h_has_no_double():
    """H(s) ~ 2e-330 rounds to 0.0 as a double, which leaves no width to ask
    of H: the check names that refusal."""
    with pytest.raises(DomainError, match="estimate of H\\(s\\) rounds to 0"):
        check_bounds(TheoremId.C3_3, pair=("1e-330", "2e-330"))


def test_c33_requires_ordered_pair():
    with pytest.raises(DomainError):
        check_bounds(TheoremId.C3_3, pair=(0.8, 0.2))
    with pytest.raises(DomainError):
        check_bounds(TheoremId.C3_3)


def test_c33_refuses_a_point_q():
    """C3_3 reads only its pair, so a q next to it would go unchecked."""
    with pytest.raises(DomainError, match="no point q"):
        check_bounds(TheoremId.C3_3, q=0.9, pair=(0.1, 0.2))


def test_one_point_theorem_refuses_a_pair():
    """T4_1 reads only q; the pair (0.9, 0.1), whose r > s C3_3 would refuse,
    must not pass unread."""
    with pytest.raises(DomainError, match="no pair"):
        check_bounds(TheoremId.T4_1, q=0.5, pair=(0.9, 0.1))


def test_indeterminate_on_huge_eps():
    """A hopeless width request must not produce a false pass."""
    res = check_bounds(TheoremId.T4_1, q="0.99", eps=10.0)
    assert res.status in (BoundsStatus.INDETERMINATE, BoundsStatus.PASS)
    if res.status is BoundsStatus.INDETERMINATE:
        assert not res.strict_ok


@pytest.mark.parametrize("lhs, mid, rhs, want", [
    ((0, 1), (2, 3), (4, 5), BoundsStatus.PASS),
    ((2, 3), (1, 2), (4, 5), BoundsStatus.FAIL),
    ((0, 1), (4, 5), (3, 4), BoundsStatus.FAIL),
    ((0, 2), (1, 3), (4, 5), BoundsStatus.INDETERMINATE),
    ((0, 1), (2, 4), (3, 5), BoundsStatus.INDETERMINATE),
], ids=["pass", "fail-left", "fail-right", "overlap-left", "overlap-right"])
def test_decide_on_constructed_enclosures(lhs, mid, rhs, want):
    """FAIL needs a certified violation of either side, touching ends
    included; overlapping enclosures are INDETERMINATE."""
    assert special_eval._decide(*(Enclosure(*e) for e in (lhs, mid, rhs))) is want


def test_bounds_check_indeterminate_at_a_wide_eps():
    """T4_2 at q = 0.99 with eps = 1: mid [4.2013, 4.3081] overlaps
    lhs 4.20561, and the check does not pass."""
    res = check_bounds(TheoremId.T4_2, q="0.99", eps=1.0)
    assert res.status is BoundsStatus.INDETERMINATE and not res.strict_ok
    assert res.mid.lo < res.lhs.hi < res.mid.hi


def test_bounds_check_without_eps_narrows_after_indeterminate(monkeypatch):
    """With eps unset an INDETERMINATE answer sends the check to the next
    width, which passes."""
    decide, widths = special_eval._decide, []
    answers = iter([BoundsStatus.INDETERMINATE])
    monkeypatch.setattr(special_eval, "_decide",
                        lambda *e: next(answers, None) or decide(*e))
    triple = special_eval._bounds_triple
    monkeypatch.setattr(special_eval, "_bounds_triple",
                        lambda th, qp, e: widths.append(e) or triple(th, qp, e))
    res = check_bounds(TheoremId.T4_1, q="0.5")
    assert widths == [1e-8, 1e-12] and res.status is BoundsStatus.PASS and res.strict_ok


@pytest.mark.parametrize("call", [
    partial(eval_F, "0.5"), partial(eval_H, "0.5"),
    lambda eps: check_bounds(TheoremId.T4_1, q="0.5", eps=eps),
    lambda eps: check_bounds(TheoremId.T4_3, q="0.5", eps=eps),
], ids=["F", "H", "T4_1", "T4_3"])
def test_precision_error_names_the_callers_eps(call):
    """F, H and the bound checks ask T for a narrower width; the error names
    the eps their caller gave."""
    with pytest.raises(PrecisionError, match=r"^cannot reach width 1\.0e-400 within 1024 bits$"):
        call(Fraction(1, 10**400))


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


def test_landau_fibonacci_is_tight_at_the_default_precision():
    """The exact partial sum is rounded at no less than the working
    precision, not at the 53 bits a caller has left set: the width is the
    1.9e-25 tail bound, not a double's rounding."""
    with interval_precision(53):
        fib = landau_fibonacci(60)
    assert float(fib.width_upper()) < 1e-24


@pytest.mark.parametrize("eps", [1e-40, 1e-60])
def test_landau_constant_from_t_climbs_the_precision_ladder(eps):
    """Below the width the working precision reaches (2.5e-37 at 128 bits),
    landau_constant_from_t doubles the precision until it meets eps."""
    with interval_precision(1024):
        fib = landau_fibonacci(200)
    direct = landau_constant_from_t(eps)
    assert float(direct.width_upper()) <= eps
    assert direct.intersects(fib)


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
        enc = Enclosure(-log1m(to_ivmpf(q)))
    with mp.workprec(2000):
        reference = mpf_to_fraction(-mp.log1p(-mp.mpf(q.numerator) / q.denominator))
    assert enc.contains(reference)
    assert mpf_to_fraction(enc.width_upper()) <= q * Fraction(1, 2 ** (bits - 8))


@pytest.mark.parametrize("q", [Fraction(1, 2**64), Fraction(1, 10**30), Fraction(1, 10**400)])
@pytest.mark.parametrize("bits", [53, 128, 1024])
def test_minus_log1m_at_a_negative_argument_is_log1p(q, bits):
    """At z = -q the series gives -log(1+q), with a two-sided tail: it
    encloses a 2000-bit value and is tight relative to q."""
    with interval_precision(bits):
        enc = Enclosure(-log1m(-to_ivmpf(q)))
    with mp.workprec(2000):
        reference = mpf_to_fraction(-mp.log1p(mp.mpf(q.numerator) / q.denominator))
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
