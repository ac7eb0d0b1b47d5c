"""Outward rounding and ordering semantics of the Enclosure,
DoubleInterval and FixedInterval types."""

import math
import random
from fractions import Fraction

import pytest
from mpmath import iv, mp

from divisor_series.intervals import (
    DomainError,
    DoubleInterval,
    Enclosure,
    FixedInterval,
    GAMMA_DIGITS,
    const,
    exp_,
    fixed_shift,
    gamma_enclosure,
    interval_precision,
    ln,
    mpf_to_fraction,
    to_ivmpf,
    working_precision,
)


def test_third_times_three_contains_one():
    with interval_precision(64):
        third = Enclosure(1) / 3
        product = third * 3
    assert product.contains(1)
    assert third.lo < third.hi  # genuinely outward


def test_fraction_conversion_outward():
    with interval_precision(128):
        enc = Enclosure(Fraction(117, 1000))
    assert enc.contains(Fraction(117, 1000))
    assert enc.lo < enc.hi or mpf_to_fraction(enc.lo) == Fraction(117, 1000)


def test_dyadic_conversion_exact():
    enc = Enclosure(0.25)
    assert mpf_to_fraction(enc.lo) == Fraction(1, 4) == mpf_to_fraction(enc.hi)


def test_log_exp_containment():
    with interval_precision(64):
        x = Enclosure(2)
        roundtrip = x.log().exp()
    assert roundtrip.contains(2)


def test_sqrt_containment():
    with interval_precision(64):
        s = Enclosure(2).sqrt()
        sq = s * s
    assert sq.contains(2)


def test_strict_ordering_and_overlap():
    a = Enclosure(1, 2)
    b = Enclosure(3, 4)
    c = Enclosure(Fraction(3, 2), Fraction(7, 2))
    assert a.strictly_below(b)
    assert not a.strictly_below(c)
    assert a.intersects(c) and c.intersects(b)
    assert not a.intersects(b)


def test_contained_in_is_exact():
    enc = Enclosure(Fraction(1, 3), Fraction(2, 3))
    assert enc.contained_in(Fraction(1, 4), Fraction(3, 4))
    assert not enc.contained_in(Fraction(1, 3) + Fraction(1, 10**40), 1)


def test_to_floats_round_outward():
    with interval_precision(256):
        enc = Enclosure(1) / 3
    lo, hi = enc.to_floats()
    assert Fraction(lo) <= mpf_to_fraction(enc.lo)
    assert Fraction(hi) >= mpf_to_fraction(enc.hi)


def test_endpoints_out_of_order_rejected():
    with pytest.raises(ValueError):
        Enclosure(2, 1)


def test_gamma_digits_cross_check():
    """The stored digits bracket an independently computed Euler constant."""
    with mp.workprec(300):
        independent = +mp.euler
    gamma = gamma_enclosure()
    value = mpf_to_fraction(independent)
    assert mpf_to_fraction(gamma.lo) < value < mpf_to_fraction(gamma.hi)
    assert len(GAMMA_DIGITS.split(".")[1]) >= 50


def test_width_upper_bounds_true_width():
    with interval_precision(64):
        enc = Enclosure(1) / 7
    assert enc.width_upper() >= enc.hi - enc.lo


def test_working_precision_env(monkeypatch):
    monkeypatch.setenv("DIVISOR_SERIES_PREC", "256")
    assert working_precision() == 256
    monkeypatch.setenv("DIVISOR_SERIES_PREC", "10")
    assert working_precision() == 53  # floored
    monkeypatch.delenv("DIVISOR_SERIES_PREC")
    assert working_precision() == 128


# -- DoubleInterval: outward-rounded doubles --------------------------------


def _encloses(di: DoubleInterval, exact: Fraction) -> bool:
    """lo <= exact <= hi, with infinite endpoints as unbounded."""
    below = di.lo == -math.inf or (math.isfinite(di.lo) and Fraction(di.lo) <= exact)
    above = di.hi == math.inf or (math.isfinite(di.hi) and exact <= Fraction(di.hi))
    return below and above


def _seeded_rationals(seed: int, count: int) -> list[Fraction]:
    """Rationals of both signs from 1e-320 to 1e300: short and long
    numerators and denominators, so that most are not doubles."""
    rng = random.Random(seed)
    out = [Fraction(0), Fraction(1), Fraction(-1, 3), Fraction(117, 1000)]
    while len(out) < count:
        num = rng.randrange(1, 10 ** rng.choice((1, 5, 17, 40)))
        den = rng.randrange(1, 10 ** rng.choice((1, 5, 17, 40)))
        scale = Fraction(10) ** rng.randrange(-300, 281)
        out.append(rng.choice((1, -1)) * Fraction(num, den) * scale)
    out.append(Fraction(1, 10**320))  # subnormal
    return out


def test_double_interval_lift_is_tightest():
    for value in _seeded_rationals(1, 200):
        di = DoubleInterval.lift(value)
        assert _encloses(di, value)
        assert const(value, DoubleInterval.lift(1)).lo == di.lo
        assert di.hi == di.lo or math.nextafter(di.lo, math.inf) == di.hi
        if Fraction(di.lo) == value:
            assert di.lo == di.hi


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_double_interval_arithmetic_encloses_exact(op):
    """Point and two-point operands; every endpoint combination of the
    exact operands must land inside the result (the exact range of + - * /
    over a box is spanned by its corners)."""
    values = _seeded_rationals(2, 60)
    rng = random.Random(3)
    fn = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
          "*": lambda a, b: a * b, "/": lambda a, b: a / b}[op]
    for a in values:
        for b in rng.sample(values, 20):
            if op == "/" and b == 0:
                continue
            b2 = b * Fraction(1001, 1000) + Fraction(1, 10**6)
            if op == "/" and (b <= 0 <= b2 or b2 <= 0 <= b):
                continue
            x = DoubleInterval.lift(a)
            y = DoubleInterval(min(DoubleInterval.lift(b).lo, DoubleInterval.lift(b2).lo),
                               max(DoubleInterval.lift(b).hi, DoubleInterval.lift(b2).hi))
            result = fn(x, y)
            assert _encloses(result, fn(a, b)), (op, a, b, result)
            assert _encloses(result, fn(a, b2)), (op, a, b2, result)
            # mixed scalar operands on either side
            assert _encloses(fn(x, b), fn(a, b))
            assert _encloses(fn(a, DoubleInterval.lift(b)), fn(a, b))


def test_double_interval_integer_powers_enclose_exact():
    for a in _seeded_rationals(4, 80):
        x = DoubleInterval.lift(a)
        for n in (0, 1, 2, 3, 7, 14, 40):
            assert _encloses(x ** n, a ** n), (a, n)
        if a != 0:
            assert _encloses(x ** -3, a ** -3), a


def test_double_interval_log_exp_enclose_256_bit_values():
    rng = random.Random(5)
    logs = [rng.uniform(1e-3, 10.0) for _ in range(40)]
    logs += [10.0 ** rng.uniform(-320, 308) for _ in range(40)] + [1.0, 5e-324]
    exps = [rng.uniform(-750.0, 709.0) for _ in range(60)] + [0.0, -745.1, 709.7]
    exps += [rng.uniform(-745.0, -708.0) for _ in range(40)]  # subnormal results
    with mp.workprec(256):
        for x in logs:
            got = DoubleInterval.lift(x).log()
            assert got.lo <= got.hi
            assert _encloses(got, mpf_to_fraction(mp.log(mp.mpf(x))))
        for x in exps:
            got = DoubleInterval.lift(x).exp()
            assert _encloses(got, mpf_to_fraction(mp.exp(mp.mpf(x))))
    # the generic helpers dispatch to the same enclosures
    assert ln(DoubleInterval.lift(2.0)).hi == DoubleInterval.lift(2.0).log().hi
    assert exp_(DoubleInterval.lift(2.0)).lo == DoubleInterval.lift(2.0).exp().lo


def test_double_interval_unbounded_results_are_never_positive():
    """A divisor containing 0, an overflow and a NaN give no positive lower
    endpoint where the true value is not positive."""
    big = DoubleInterval.lift(Fraction(10) ** 308)
    zero, one = DoubleInterval.lift(0), DoubleInterval.lift(1)
    straddle = DoubleInterval(-1e-300, 1e-300)
    assert not (one / zero).lo > 0
    assert not (one / straddle).lo > 0
    assert not (one / DoubleInterval(0.0, 2.0)).lo > 0
    over = big * 10  # overflows: [largest double, inf]
    assert over.hi == math.inf and _encloses(over, Fraction(10) ** 309)
    assert not (over - over).lo > 0
    assert not (over - big * 11).lo > 0
    assert not (-over).lo > 0
    assert not (over * zero).lo > 0  # inf * 0 is NaN in IEEE arithmetic
    nan = DoubleInterval.lift(math.nan)
    assert not (nan + one).lo > 0 and not (nan * one).lo > 0
    assert not (one - one * DoubleInterval(math.nan, math.nan)).lo > 0
    assert not DoubleInterval(-1.0, 0.0).log().lo > 0


def test_double_interval_lifts_huge_and_tiny_rationals():
    huge = Fraction(10) ** 400
    assert DoubleInterval.lift(huge).hi == math.inf
    assert DoubleInterval.lift(-huge).lo == -math.inf
    tiny = DoubleInterval.lift(Fraction(1, 10**400))
    assert tiny.lo == 0.0 and tiny.hi == 5e-324


# -- FixedInterval: outward-rounded integers over one power-of-two scale --------


def _fixed_operands(seed: int, shift: int, count: int) -> list[FixedInterval]:
    """Points and intervals of both signs, some crossing 0, with endpoints
    from 1 ulp to 2^40 units of 1."""
    rng = random.Random(seed)
    out = [FixedInterval(0, 0, shift), FixedInterval(-1, 1, shift),
           FixedInterval(1 << shift, 1 << shift, shift)]
    while len(out) < count:
        lo = rng.choice((1, -1)) * rng.randrange(1, 1 << rng.choice((1, 20, shift, shift + 40)))
        hi = lo if rng.random() < 0.3 else lo + rng.randrange(0, 1 << rng.choice((1, 30, shift + 41)))
        out.append(FixedInterval(lo, hi, shift))
    return out


def _corners(x: FixedInterval) -> list[Fraction]:
    return [Fraction(x.lo, 2 ** x.shift), Fraction(x.hi, 2 ** x.shift)]


def _contains_zero(x: FixedInterval) -> bool:
    return x.lo <= 0 <= x.hi


_OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
        "*": lambda a, b: a * b, "/": lambda a, b: a / b}


@pytest.mark.parametrize("shift", [64, 165])
@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_fixed_interval_arithmetic_is_the_tightest_enclosure(op, shift):
    """The exact range of + - * / over a box is spanned by its corners; the
    result's endpoints are that range's floor and ceiling at the scale, so it
    encloses every corner and is the tightest enclosure.  Int operands on
    either side enter exactly."""
    fn = _OPS[op]
    values = _fixed_operands(6, shift, 50)
    rng = random.Random(7)
    unit = 2 ** shift
    for x in values:
        for y in rng.sample(values, 15):
            if op == "/" and _contains_zero(y):
                continue
            exact = [fn(a, b) for a in _corners(x) for b in _corners(y)]
            got = fn(x, y)
            assert got.shift == shift and got.lo <= got.hi
            assert got.lo == math.floor(min(exact) * unit), (op, x, y)
            assert got.hi == math.ceil(max(exact) * unit), (op, x, y)
        for n in (-3, -1, 0, 1, 7, 10**30):
            if not (op == "/" and n == 0):
                exact = [fn(a, n) for a in _corners(x)]
                got = fn(x, n)
                assert (got.lo, got.hi) == (math.floor(min(exact) * unit),
                                            math.ceil(max(exact) * unit)), (op, x, n)
            if not (op == "/" and _contains_zero(x)):
                exact = [fn(n, a) for a in _corners(x)]
                got = fn(n, x)
                assert (got.lo, got.hi) == (math.floor(min(exact) * unit),
                                            math.ceil(max(exact) * unit)), (op, n, x)
    x = values[5]
    assert ((-x).lo, (-x).hi) == (-x.hi, -x.lo)


def test_fixed_interval_division_by_an_interval_containing_zero_raises():
    one = FixedInterval(1 << 64, 1 << 64, 64)
    for divisor in (FixedInterval(0, 0, 64), FixedInterval(-1, 1, 64),
                    FixedInterval(0, 5, 64), FixedInterval(-5, 0, 64)):
        with pytest.raises(DomainError):
            one / divisor
        with pytest.raises(DomainError):
            1 / divisor
    with pytest.raises(DomainError):
        one / 0


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_fixed_interval_mixed_scales_raise(op):
    fn = _OPS[op]
    x, y = FixedInterval(3 << 64, 5 << 64, 64), FixedInterval(3 << 65, 5 << 65, 65)
    with pytest.raises(DomainError):
        fn(x, y)
    with pytest.raises(DomainError):
        fn(y, x)


def test_fixed_interval_takes_no_inexact_operand():
    x = FixedInterval(3, 5, 64)
    for other in (0.5, Fraction(1, 3)):
        with pytest.raises(TypeError):
            x + other
        with pytest.raises(TypeError):
            x * other


@pytest.mark.parametrize("bits", [53, 128, 1024])
def test_fixed_interval_round_trip_through_ivmpf_rounds_outward(bits):
    """from_ivmpf floors and ceils the endpoints at the scale, to_ivmpf rounds
    them outward to the working precision; at fixed_shift a value keeps the
    working precision's significant bits, however small it is."""
    rng = random.Random(8)
    values = [Fraction(1, 7), Fraction(99, 100), Fraction(-5, 3), Fraction(1, 10**300),
              Fraction(1, 10**400), Fraction(10**40, 3)]
    values += [Fraction(rng.randrange(1, 10**30), rng.randrange(1, 10**30)) *
               Fraction(10) ** rng.randrange(-400, 40) for _ in range(30)]
    with interval_precision(bits):
        for value in values:
            enc = to_ivmpf(value)
            lo = mpf_to_fraction(mp.make_mpf(enc._mpi_[0]))
            hi = mpf_to_fraction(mp.make_mpf(enc._mpi_[1]))
            shift = fixed_shift(enc)
            x = FixedInterval.from_ivmpf(enc, shift)
            assert (x.lo, x.hi) == (math.floor(lo * 2 ** shift), math.ceil(hi * 2 ** shift))
            if 0 < value < 1:
                assert 2 ** (bits - 1) <= x.lo < 2 ** bits
            back = Enclosure(x.to_ivmpf())
            assert mpf_to_fraction(back.lo) <= Fraction(x.lo, 2 ** shift)
            assert Fraction(x.hi, 2 ** shift) <= mpf_to_fraction(back.hi)
            # outward by less than one unit in the last of `bits` places
            assert back.contained_in(lo - abs(lo) / 2 ** (bits - 2), hi + abs(hi) / 2 ** (bits - 2))
            assert back.contains(value)
            # a coarser scale still encloses, with fewer bits
            coarse = FixedInterval.from_ivmpf(enc, 64)
            assert Fraction(coarse.lo, 2**64) <= value <= Fraction(coarse.hi, 2**64)


def test_fixed_interval_refuses_an_unbounded_ivmpf():
    with pytest.raises(DomainError):
        FixedInterval.from_ivmpf(iv.mpf([0, "inf"]), 64)
    with pytest.raises(DomainError):
        FixedInterval.from_ivmpf(iv.mpf(["-inf", 0]), 64)


def test_fixed_shift_follows_the_exponent_of_the_lower_endpoint():
    with interval_precision(128):
        assert fixed_shift(to_ivmpf(Fraction(3, 4))) == 128
        assert fixed_shift(to_ivmpf(7)) == 128
        assert fixed_shift(to_ivmpf(Fraction(1, 8))) == 130
        assert fixed_shift(to_ivmpf(Fraction(1, 2**1000))) == 128 + 999
        assert fixed_shift(iv.mpf([0, 1])) == 128
        assert fixed_shift(iv.mpf([-1, 1])) == 128
