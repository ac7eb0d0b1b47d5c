"""Outward rounding and ordering semantics of the Enclosure and
DoubleInterval types, and of the tests' fixed-point arithmetic
FixedArithmetic."""

import math
import random
import sys
from fractions import Fraction

import pytest
from mpmath import iv, libmp, mp

from divisor_series.intervals import (
    DomainError,
    DoubleInterval,
    Enclosure,
    _ceil_float,
    _floor_float,
    _gamma_at,
    const,
    exp_,
    gamma_enclosure,
    interval_precision,
    ln,
    mpf_to_fraction,
    to_ivmpf,
    working_precision,
)
from oracles import FixedArithmetic


def test_third_times_three_contains_one():
    with interval_precision(64):
        third = Enclosure(1) / 3
        product = third * 3
    assert product.contains(1)
    assert third.lo < third.hi  # genuinely outward


@pytest.mark.parametrize("value", [
    Fraction(117, 1000), Fraction(-5, 7), 1 - Fraction(1, 10**17),
    Fraction(1, 3**40), Fraction(1, 10**300), 3**200])
@pytest.mark.parametrize("bits", [53, 128, 1024])
def test_fraction_conversion_outward(value, bits):
    """A rational or int lifts to libmp's floor and ceiling of its exact
    value: mpmath's quotient of the lifted numerator and denominator where
    both fit in the precision, and no wider where either does not."""
    num, den = Fraction(value).as_integer_ratio()
    with interval_precision(bits):
        lifted = to_ivmpf(value)
        quotient = iv.mpf(num) / iv.mpf(den)
    assert lifted._mpi_ == (libmp.from_rational(num, den, bits, libmp.round_floor),
                            libmp.from_rational(num, den, bits, libmp.round_ceiling))
    assert Enclosure(lifted).contains(Fraction(value))
    if max(abs(num).bit_length(), den.bit_length()) <= bits:
        assert lifted._mpi_ == quotient._mpi_
    else:
        lifted, quotient = Enclosure(lifted), Enclosure(quotient)
        assert (mpf_to_fraction(lifted.hi) - mpf_to_fraction(lifted.lo)
                <= mpf_to_fraction(quotient.hi) - mpf_to_fraction(quotient.lo))


def test_dyadic_conversion_exact():
    enc = Enclosure(0.25)
    assert mpf_to_fraction(enc.lo) == Fraction(1, 4) == mpf_to_fraction(enc.hi)


def test_log_containment():
    with interval_precision(64):
        lg = Enclosure(2).log()
    with mp.workprec(200):
        assert lg.lo <= mp.log(2) <= lg.hi


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


@pytest.mark.parametrize("value", [Fraction(2) ** 2000, -Fraction(2) ** 2000,
                                   Fraction(2) ** -1100, -Fraction(2) ** -1100])
def test_to_floats_enclose_values_beyond_the_doubles(value):
    """An end past the largest double or below the smallest subnormal still
    rounds outward: 2^2000 gets the largest double as its lower end, never
    +inf, and 2^-1100 the smallest subnormal as its upper end."""
    lo, hi = Enclosure(value).to_floats()
    assert not math.isnan(lo) and not math.isnan(hi)
    assert lo != math.inf and hi != -math.inf
    assert lo == -math.inf or Fraction(lo) <= value
    assert hi == math.inf or value <= Fraction(hi)


@pytest.mark.parametrize("lo, hi", [(1e308, 1.5e308), (-1.7e308, -1.6e308),
                                     (-1.7e308, 1.7e308), (5e-324, 5e-324),
                                     (1.5e-323, 1.5e-323), (0.25, 0.75)])
def test_midpoint_lies_between_the_ends(lo, hi):
    """Halving each end first keeps the sum of ends near the largest double
    finite; a subnormal end that halving rounds is clamped back."""
    mid = Enclosure(lo, hi).midpoint()
    assert lo <= mid <= hi
    assert mid == pytest.approx(lo / 2 + hi / 2, rel=1e-15, abs=5e-324)


def test_endpoints_out_of_order_rejected():
    with pytest.raises(ValueError):
        Enclosure(2, 1)


#: Euler's constant, first 60 decimal digits (truncated, not rounded): the
#: standard published expansion, so gamma lies in [d, d + 1] 10^-60.
GAMMA_DIGITS = "0.577215664901532860606512090082402431042159335939923598805767"


def test_gamma_digits_cross_check():
    """The enclosure of gamma and the bracket [d, d + 1] 10^-60 of the
    published digits agree, the narrower inside the wider: the enclosure
    is 1.1e-16 wide at 53 bits, 2.9e-39 at 128 and 5.6e-309 at 1024, where
    it lies inside the bracket."""
    digits = GAMMA_DIGITS.split(".")[1]
    d, scale = int(digits), 10 ** len(digits)
    lo, hi = Fraction(d, scale), Fraction(d + 1, scale)
    for bits in (53, 128, 1024):
        gamma = _gamma_at(bits)
        g_lo, g_hi = mpf_to_fraction(gamma.lo), mpf_to_fraction(gamma.hi)
        if bits == 1024:
            assert lo < g_lo and g_hi < hi, bits
        else:
            assert g_lo < lo and hi < g_hi, bits


def test_gamma_enclosure_is_tight_at_the_default_precision():
    """A 53-bit caller still gets gamma at the working precision, far inside
    1e-37; at 53 bits the enclosure would be 1.1e-16 wide."""
    with interval_precision(53):
        gamma = gamma_enclosure()
    assert float(gamma.width_upper()) < 1e-37


@pytest.mark.parametrize("bits", [128, 1024])
def test_gamma_enclosure_is_built_once_per_precision(bits):
    """The cached enclosure has the endpoints of mpmath's iv.euler at the
    same precision, as narrow as that precision allows."""
    with interval_precision(bits):
        cached = gamma_enclosure()
        fresh = +iv.euler
        assert gamma_enclosure() is cached
    assert cached._iv._mpi_ == fresh._mpi_
    assert cached.width_upper() <= 2.0 ** (1 - bits)


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


def _bits(x: DoubleInterval) -> tuple[str, str]:
    return x.lo.hex(), x.hi.hex()


def test_double_interval_int_operands_give_the_lifted_doubles():
    """An int operand, exact or lifted, gives the same endpoints as its
    DoubleInterval.lift on every side of + - * /; x ** 2 is x * x."""
    rng = random.Random(15)
    inf = math.inf
    xs = [DoubleInterval(-inf, inf), DoubleInterval(0.0, 0.0), DoubleInterval(-0.0, 0.0),
          DoubleInterval(0.0, inf), DoubleInterval(-inf, 0.0), DoubleInterval(-1.5, 2.5),
          DoubleInterval(-inf, -3.0), DoubleInterval(2.0, inf), DoubleInterval(-1e-300, 1e-300),
          DoubleInterval(1e308, inf), DoubleInterval(5e-324, 1e-323)]
    while len(xs) < 80:
        a, b = sorted(rng.choice((1, -1)) * rng.uniform(0.5, 2.0) * 10.0 ** rng.randrange(-320, 308)
                      for _ in range(2))
        xs.append(DoubleInterval(a, a if rng.random() < 0.3 else b))
    ks = [0, 1, -1, 7, -7, 2**53, -2**53, 2**53 + 1, -2**53 - 1, 10**400, True]
    for x in xs:
        assert _bits(x ** 2) == _bits(x * x), x
        for k in ks:
            y = DoubleInterval.lift(k)
            assert _bits(x + k) == _bits(x + y) == _bits(k + x), (x, k)
            assert _bits(x - k) == _bits(x - y), (x, k)
            assert _bits(k - x) == _bits(y - x), (x, k)
            assert _bits(x * k) == _bits(x * y) == _bits(k * x), (x, k)
            assert _bits(x / k) == _bits(x / y), (x, k)
            assert _bits(k / x) == _bits(y / x), (x, k)


def test_double_interval_lifts_huge_and_tiny_rationals():
    huge = Fraction(10) ** 400
    assert DoubleInterval.lift(huge).hi == math.inf
    assert DoubleInterval.lift(-huge).lo == -math.inf
    tiny = DoubleInterval.lift(Fraction(1, 10**400))
    assert tiny.lo == 0.0 and tiny.hi == 5e-324


def _lift_by_fraction(frac: Fraction) -> tuple[float, float]:
    """DoubleInterval.lift of a rational by building Fraction(f) of the
    nearest double f: the oracle for the cross-multiplied comparison."""
    try:
        f = frac.numerator / frac.denominator
    except OverflowError:
        big = sys.float_info.max
        return (big, math.inf) if frac > 0 else (-math.inf, -big)
    if Fraction(f) < frac:
        return f, math.nextafter(f, math.inf)
    if Fraction(f) > frac:
        return math.nextafter(f, -math.inf), f
    return f, f


def test_double_interval_lift_matches_the_fraction_comparison():
    """Seeded rationals of both signs: exact dyadics, values one unit off a
    dyadic, subnormal and below-subnormal magnitudes, near-overflow and
    overflowing ones, with the lifted ends bit for bit equal to the oracle."""
    rng = random.Random(23)
    values = _seeded_rationals(24, 100)
    for _ in range(300):
        sign = rng.choice((1, -1))
        man = rng.randrange(1, 2**53)
        exp = rng.choice((rng.randrange(-1130, -1020), rng.randrange(-60, 60),
                          rng.randrange(960, 1030)))
        dyadic = sign * Fraction(man) * Fraction(2) ** exp
        off = Fraction(1, rng.randrange(2, 10**20)) * Fraction(2) ** exp
        values += [dyadic, dyadic + off, dyadic - off]
    values += [Fraction(sys.float_info.max), -Fraction(sys.float_info.max) - 1,
               Fraction(5e-324), Fraction(5e-324) / 3, -Fraction(5e-324) / 2]
    for value in values:
        assert _bits(DoubleInterval.lift(value)) == tuple(
            f.hex() for f in _lift_by_fraction(value)), value


def _rounded_float(m, rnd) -> float:
    """The double nearest the raw mpf m in the direction rnd, by rounding
    and comparing back: the oracle for the exact fast path."""
    f = libmp.to_float(m, rnd=rnd)
    if rnd == libmp.round_floor:
        return math.nextafter(f, -math.inf) if libmp.mpf_gt(libmp.from_float(f), m) else f
    return math.nextafter(f, math.inf) if libmp.mpf_lt(libmp.from_float(f), m) else f


def test_floor_and_ceil_floats_match_rounding_and_comparing_back():
    """mpf_log and mpf_exp outputs at 53 bits, as DoubleInterval takes them,
    and at 80 bits, whose mantissas are too long to be doubles; exp(-740) is
    subnormal and exp(710) overflows; zero and the special values."""
    rng = random.Random(29)
    raws = [libmp.fzero, libmp.finf, libmp.fninf, libmp.fnan]
    for prec in (53, 80):
        for rnd in (libmp.round_floor, libmp.round_ceiling):
            for _ in range(60):
                x = libmp.from_float(10.0 ** rng.uniform(-320, 308))
                y = libmp.from_float(rng.uniform(-750.0, 712.0))
                raws += [libmp.mpf_log(x, prec, rnd), libmp.mpf_exp(y, prec, rnd)]
            raws += [libmp.mpf_exp(libmp.from_int(-740), prec, rnd),
                     libmp.mpf_exp(libmp.from_int(710), prec, rnd),
                     libmp.mpf_log(libmp.from_int(1), prec, rnd)]
    for m in raws:
        assert _floor_float(m).hex() == _rounded_float(m, libmp.round_floor).hex(), m
        assert _ceil_float(m).hex() == _rounded_float(m, libmp.round_ceiling).hex(), m


# -- FixedArithmetic: outward-rounded integers over one power-of-two scale -----


def _fixed_operands(seed: int, shift: int, count: int) -> list[FixedArithmetic]:
    """Points and intervals of both signs, some crossing 0, with endpoints
    from 1 ulp to 2^40 units of 1."""
    rng = random.Random(seed)
    out = [FixedArithmetic(0, 0, shift), FixedArithmetic(-1, 1, shift),
           FixedArithmetic(1 << shift, 1 << shift, shift)]
    while len(out) < count:
        lo = rng.choice((1, -1)) * rng.randrange(1, 1 << rng.choice((1, 20, shift, shift + 40)))
        hi = lo if rng.random() < 0.3 else lo + rng.randrange(0, 1 << rng.choice((1, 30, shift + 41)))
        out.append(FixedArithmetic(lo, hi, shift))
    return out


def _corners(x: FixedArithmetic) -> list[Fraction]:
    return [Fraction(x.lo, 2 ** x.shift), Fraction(x.hi, 2 ** x.shift)]


def _contains_zero(x: FixedArithmetic) -> bool:
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
    one = FixedArithmetic(1 << 64, 1 << 64, 64)
    for divisor in (FixedArithmetic(0, 0, 64), FixedArithmetic(-1, 1, 64),
                    FixedArithmetic(0, 5, 64), FixedArithmetic(-5, 0, 64)):
        with pytest.raises(DomainError):
            one / divisor
        with pytest.raises(DomainError):
            1 / divisor
    with pytest.raises(DomainError):
        one / 0


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_fixed_interval_mixed_scales_raise(op):
    fn = _OPS[op]
    x, y = FixedArithmetic(3 << 64, 5 << 64, 64), FixedArithmetic(3 << 65, 5 << 65, 65)
    with pytest.raises(DomainError):
        fn(x, y)
    with pytest.raises(DomainError):
        fn(y, x)


def test_fixed_interval_takes_no_inexact_operand():
    x = FixedArithmetic(3, 5, 64)
    for other in (0.5, Fraction(1, 3)):
        with pytest.raises(TypeError):
            x + other
        with pytest.raises(TypeError):
            x * other
