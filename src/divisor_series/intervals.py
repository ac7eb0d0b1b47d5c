"""Outward-rounded interval arithmetic for certified evaluation.

An :class:`Enclosure` is a closed interval [lo, hi] guaranteed to contain the
exact real value of the quantity it stands for.  All arithmetic and the
elementary functions round lo down and hi up, so soundness is preserved
through arbitrary compositions.  The heavy lifting is delegated to mpmath's
interval context (``mpmath.iv``), which implements directed rounding at a
configurable binary precision.

Certified computations run at :data:`DEFAULT_PRECISION` bits (overridable via
the ``DIVISOR_SERIES_PREC`` environment variable) and may be retried at doubled
precision up to :data:`MAX_PRECISION` when a requested output width cannot be
met.

A :class:`DoubleInterval` is the same guarantee on a pair of doubles: much
cheaper per operation and much wider, it settles the certified sandwich
cells that do not need working precision.  A :class:`QPoint` holds an
argument q in (0, 1) as an exact rational.
"""

from __future__ import annotations

import enum
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import inf, nextafter
from typing import Union

from mpmath import iv, libmp, mp
from mpmath.ctx_iv import ivmpf

DEFAULT_PRECISION = 128
MAX_PRECISION = 1024
PRECISION_ENV_VAR = "DIVISOR_SERIES_PREC"

class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class PrecisionError(ArithmeticError):
    """The requested enclosure width is unachievable within the precision cap."""


class TermBudgetError(ArithmeticError):
    """A series evaluation would need more terms than the configured budget."""


class Mode(enum.Enum):
    """Arithmetic mode of the evaluators and lemma functions.  CERTIFIED
    carries proofs and meets the requested width: every evaluator doubles its
    precision up to 1024 bits until it does.  FAST promises no width and
    issues no certificate or verdict: every evaluator and lemma function runs
    its certified body once at 53 bits.  Lemma verification and the bound
    checks are certified only."""

    FAST = "fast"
    CERTIFIED = "certified"


#: Interval precision of every FAST evaluator: one pass, no width gate.
FAST_PRECISION = 53


@dataclass(frozen=True)
class QPoint:
    """A point q strictly inside (0, 1), held as an exact rational."""

    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))
        if not (0 < self.value < 1):
            raise DomainError(f"q must lie in (0, 1), got {self.value}")

    @classmethod
    def coerce(cls, q: "QPoint | float | Fraction | str") -> "QPoint":
        return q if isinstance(q, QPoint) else cls(Fraction(q))

    def to_ivmpf(self) -> ivmpf:
        return to_ivmpf(self.value)

    def __float__(self) -> float:
        return float(self.value)


Scalar = Union[int, float, Fraction, str]


def working_precision() -> int:
    """Default certified precision in bits (env override, floor 53)."""
    raw = os.environ.get(PRECISION_ENV_VAR)
    if raw is None:
        return DEFAULT_PRECISION
    try:
        bits = int(raw)
    except ValueError as exc:
        raise ValueError(f"{PRECISION_ENV_VAR} must be an integer, got {raw!r}") from exc
    return max(53, min(bits, MAX_PRECISION))


class interval_precision:
    """Temporarily set the precision of the global mpmath interval context.

    A plain class, not a generator-based context manager: the certified
    ladder enters one per rung, and this costs about a third less a use."""

    __slots__ = ("bits", "old")

    def __init__(self, bits: int):
        self.bits = bits

    def __enter__(self) -> None:
        self.old = iv.prec
        iv.prec = self.bits

    def __exit__(self, *exc) -> None:
        iv.prec = self.old


def to_ivmpf(value: Scalar | ivmpf) -> ivmpf:
    """Lift a scalar to an interval at the current working precision.

    A Fraction or int lifts in one step to the tightest outward-rounded
    interval: libmp's conversion of its exact value (``from_rational``,
    ``from_int``) at iv.prec, rounded down and up.  A float (exact at 53 bits
    and up) and a decimal string go through mpmath's own conversion.
    """
    if isinstance(value, ivmpf):
        return value
    prec = iv.prec
    if isinstance(value, int):
        return iv.make_mpf((libmp.from_int(value, prec, libmp.round_floor),
                            libmp.from_int(value, prec, libmp.round_ceiling)))
    if isinstance(value, Fraction):
        num, den = value.numerator, value.denominator
        return iv.make_mpf((libmp.from_rational(num, den, prec, libmp.round_floor),
                            libmp.from_rational(num, den, prec, libmp.round_ceiling)))
    return iv.mpf(value)


def mpf_to_fraction(x) -> Fraction:
    """Exact rational value of an mpmath float (which is a dyadic rational)."""
    sign, man, exp, _ = x._mpf_
    if man == 0:
        if exp == 0:
            return Fraction(0)
        raise ValueError(f"non-finite value {x!r} has no rational value")
    value = Fraction(man) * Fraction(2) ** exp
    return -value if sign else value


class Enclosure:
    """A closed interval certified to contain the exact real value.

    Thin wrapper around an ``mpmath.iv`` interval.  Endpoints are exact binary
    floats of whatever precision the interval was computed at; extracting them
    never rounds.
    """

    __slots__ = ("_iv",)

    def __init__(self, value: Scalar | ivmpf | "Enclosure", hi: Scalar | None = None):
        if hi is not None:
            lo_iv = to_ivmpf(value)
            hi_iv = to_ivmpf(hi)
            a = mp.make_mpf(lo_iv._mpi_[0])
            b = mp.make_mpf(hi_iv._mpi_[1])
            if a > b:
                raise ValueError(f"enclosure endpoints out of order: {a} > {b}")
            self._iv = iv.mpf([a, b])
        elif isinstance(value, Enclosure):
            self._iv = value._iv
        else:
            self._iv = to_ivmpf(value)

    @classmethod
    def from_fraction_pair(cls, lo: Fraction, hi: Fraction) -> "Enclosure":
        """[lo, hi] rounded outward at no less than the working precision,
        whatever precision the caller has set."""
        with interval_precision(max(iv.prec, working_precision())):
            return cls(lo, hi)

    @property
    def lo(self):
        """Lower endpoint as an exact mpmath float."""
        return mp.make_mpf(self._iv._mpi_[0])

    @property
    def hi(self):
        """Upper endpoint as an exact mpmath float."""
        return mp.make_mpf(self._iv._mpi_[1])

    def width_upper(self):
        """An upper bound on hi - lo (outward-rounded subtraction)."""
        return mp.make_mpf(self._iv.delta._mpi_[1])

    def is_bounded(self) -> bool:
        return mp.isfinite(self.lo) and mp.isfinite(self.hi)

    def midpoint(self) -> float:
        """A double between the ends of to_floats(), halved before the sum
        (which may overflow) and clamped (halving may round a subnormal)."""
        lo, hi = self.to_floats()
        return min(max(lo / 2 + hi / 2, lo), hi)

    def to_floats(self) -> tuple[float, float]:
        """Endpoints as doubles, rounded outward so containment survives."""
        lo, hi = self._iv._mpi_
        return _floor_float(lo), _ceil_float(hi)

    # -- order queries ------------------------------------------------------

    def strictly_below(self, other: "Enclosure | Scalar") -> bool:
        """True when every value here is < every value of `other` (certified)."""
        other = other if isinstance(other, Enclosure) else Enclosure(other)
        return self.hi < other.lo

    def strictly_above(self, other: "Enclosure | Scalar") -> bool:
        other = other if isinstance(other, Enclosure) else Enclosure(other)
        return self.lo > other.hi

    def is_positive(self) -> bool:
        return self.lo > 0

    def intersects(self, other: "Enclosure") -> bool:
        return not (self.hi < other.lo or other.hi < self.lo)

    def contains(self, value: Scalar) -> bool:
        """Exact containment test for a rational (or dyadic float) value."""
        v = Fraction(value) if not isinstance(value, Fraction) else value
        return mpf_to_fraction(self.lo) <= v <= mpf_to_fraction(self.hi)

    def contained_in(self, lo: Scalar, hi: Scalar) -> bool:
        """True when [self.lo, self.hi] is inside the exact rational [lo, hi]."""
        lo_f = Fraction(lo) if not isinstance(lo, Fraction) else lo
        hi_f = Fraction(hi) if not isinstance(hi, Fraction) else hi
        return lo_f <= mpf_to_fraction(self.lo) and mpf_to_fraction(self.hi) <= hi_f

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> ivmpf:
        if isinstance(other, Enclosure):
            return other._iv
        return to_ivmpf(other)

    def __add__(self, other):
        return Enclosure(self._iv + self._coerce(other))

    def __radd__(self, other):
        return Enclosure(self._coerce(other) + self._iv)

    def __sub__(self, other):
        return Enclosure(self._iv - self._coerce(other))

    def __rsub__(self, other):
        return Enclosure(self._coerce(other) - self._iv)

    def __mul__(self, other):
        return Enclosure(self._iv * self._coerce(other))

    def __rmul__(self, other):
        return Enclosure(self._coerce(other) * self._iv)

    def __truediv__(self, other):
        return Enclosure(self._iv / self._coerce(other))

    def __rtruediv__(self, other):
        return Enclosure(self._coerce(other) / self._iv)

    def __neg__(self):
        return Enclosure(-self._iv)

    def log(self) -> "Enclosure":
        return Enclosure(iv.log(self._iv))

    def __repr__(self) -> str:
        lo, hi = self.to_floats()
        return f"Enclosure({lo!r}, {hi!r})"


def _exact_float(m) -> float | None:
    """The raw mpf m as a double when that is exact: a nonzero mantissa of at
    most 53 bits whose leading bit lies in the normal range 2^-1022..2^1023.
    None for zero, the special values and subnormal or overflowing results."""
    sign, man, exp, bc = m
    if man and bc <= 53 and -1021 <= exp + bc <= 1024:
        f = math.ldexp(man, exp)
        return -f if sign else f
    return None


def _floor_float(m) -> float:
    """The largest double <= the raw mpf m."""
    f = _exact_float(m)
    if f is not None:
        return f
    f = libmp.to_float(m, rnd=libmp.round_floor)
    return math.nextafter(f, -math.inf) if libmp.mpf_gt(libmp.from_float(f), m) else f


def _ceil_float(m) -> float:
    """The smallest double >= the raw mpf m."""
    f = _exact_float(m)
    if f is not None:
        return f
    f = libmp.to_float(m, rnd=libmp.round_ceiling)
    return math.nextafter(f, math.inf) if libmp.mpf_lt(libmp.from_float(f), m) else f


def product_ends(a: float, b: float, c: float, d: float) -> tuple[float, float]:
    """The round-to-nearest ends of [a, b] * [c, d], from the sign table."""
    if a >= 0:
        if c >= 0:
            return a * c, b * d
        if d <= 0:
            return b * c, a * d
        return b * c, b * d
    if b <= 0:
        if c >= 0:
            return a * d, b * c
        if d <= 0:
            return b * d, a * c
        return a * d, a * c
    if c >= 0:
        return a * d, b * d
    if d <= 0:
        return b * c, a * c
    return min(a * d, b * c), max(a * c, b * d)


class DoubleInterval:
    """A closed interval [lo, hi] of doubles certified to contain a real value.

    The cheap first pass of certified sandwich checks (Rump, "Verification
    methods", Acta Numerica 19, 2010).  IEEE ``+ - * /`` round to nearest,
    off by at most half a unit in the last place, so each operation takes
    its ends from a sign table and moves each one double outward
    (``math.nextafter``) in one step.  A scalar operand is first lifted to
    its tightest pair of doubles; ints of magnitude <= 2^53 lift exactly.
    Integer powers are repeated products.  ``log`` and ``exp`` take mpmath's
    directed rounding at 53 bits, since libm promises no rounding direction.

    Endpoints satisfy lo <= hi, lo < +inf and hi > -inf and are never NaN.
    An operation without a bounded result (a divisor containing 0, inf * 0,
    the log of a non-positive number) returns the whole line, which no
    positivity check accepts.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        self.lo = lo
        self.hi = hi

    @classmethod
    def lift(cls, value) -> "DoubleInterval":
        """The tightest pair of doubles around an exact scalar."""
        if isinstance(value, float):
            return cls(value, value) if math.isfinite(value) else cls(-math.inf, math.inf)
        if isinstance(value, int) and -2**53 <= value <= 2**53:
            return cls(float(value), float(value))
        frac = value if isinstance(value, Fraction) else Fraction(value)
        num, den = frac.numerator, frac.denominator
        try:
            f = num / den  # correctly rounded
        except OverflowError:
            big = sys.float_info.max
            return cls(big, math.inf) if num > 0 else cls(-math.inf, -big)
        # f = f_num/f_den against num/den by cross-multiplying: den, f_den > 0
        f_num, f_den = f.as_integer_ratio()
        f_cross, frac_cross = f_num * den, num * f_den
        if f_cross < frac_cross:
            return cls(f, math.nextafter(f, math.inf))
        if f_cross > frac_cross:
            return cls(math.nextafter(f, -math.inf), f)
        return cls(f, f)

    def __add__(self, other):
        if other.__class__ is not DoubleInterval:
            return self + DoubleInterval.lift(other)
        lo, hi = self.lo + other.lo, self.hi + other.hi
        lo, hi = nextafter(lo, -inf), nextafter(hi, inf)
        return DoubleInterval(lo, hi) if lo <= hi else DoubleInterval(-inf, inf)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not DoubleInterval:
            return self - DoubleInterval.lift(other)
        lo, hi = self.lo - other.hi, self.hi - other.lo
        lo, hi = nextafter(lo, -inf), nextafter(hi, inf)
        return DoubleInterval(lo, hi) if lo <= hi else DoubleInterval(-inf, inf)

    def __rsub__(self, other):
        return DoubleInterval.lift(other) - self

    def __mul__(self, other):
        if other.__class__ is not DoubleInterval:
            return self * DoubleInterval.lift(other)
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        lo, hi = product_ends(a, b, c, d)
        lo, hi = nextafter(lo, -inf), nextafter(hi, inf)
        return DoubleInterval(lo, hi) if lo <= hi else DoubleInterval(-inf, inf)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not DoubleInterval:
            return self / DoubleInterval.lift(other)
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        if c > 0:
            if a >= 0:
                lo, hi = a / d, b / c
            elif b <= 0:
                lo, hi = a / c, b / d
            else:
                lo, hi = a / c, b / c
        elif d < 0:
            if a >= 0:
                lo, hi = b / d, a / c
            elif b <= 0:
                lo, hi = b / c, a / d
            else:
                lo, hi = b / d, a / d
        else:
            return DoubleInterval(-inf, inf)
        lo, hi = nextafter(lo, -inf), nextafter(hi, inf)
        return DoubleInterval(lo, hi) if lo <= hi else DoubleInterval(-inf, inf)

    def __rtruediv__(self, other):
        return DoubleInterval.lift(other) / self

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return 1 / self ** -exponent
        result, base = None, self
        while exponent:  # binary powering: about 2 log2(exponent) products
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return DoubleInterval(1.0, 1.0) if result is None else result

    def __neg__(self):
        return DoubleInterval(-self.hi, -self.lo)

    def log(self) -> "DoubleInterval":
        if not self.hi > 0:
            return DoubleInterval(-math.inf, math.inf)
        lo = -math.inf if self.lo <= 0 else _floor_float(
            libmp.mpf_log(libmp.from_float(self.lo), 53, libmp.round_floor))
        hi = _ceil_float(libmp.mpf_log(libmp.from_float(self.hi), 53, libmp.round_ceiling))
        return DoubleInterval(lo, hi)

    def exp(self) -> "DoubleInterval":
        lo = _floor_float(libmp.mpf_exp(libmp.from_float(self.lo), 53, libmp.round_floor))
        hi = _ceil_float(libmp.mpf_exp(libmp.from_float(self.hi), 53, libmp.round_ceiling))
        return DoubleInterval(lo, hi)

    def __repr__(self) -> str:
        return f"DoubleInterval({self.lo!r}, {self.hi!r})"


def gamma_enclosure() -> Enclosure:
    """Enclosure of Euler's constant at no less than the working precision,
    from mpmath's directed rounding of ``iv.euler``; built once per
    precision."""
    return _gamma_at(max(iv.prec, working_precision()))


@lru_cache(maxsize=None)
def _gamma_at(bits: int) -> Enclosure:
    with interval_precision(bits):
        return Enclosure(+iv.euler)  # unary + fixes the constant at `bits`


# -- generic elementary functions ------------------------------------------
#
# Formula code in lemma_functions/special_eval is written once against these
# helpers: ivmpf gives the certified enclosures and, once at 53 bits, the FAST
# values; DoubleInterval runs the same formulas as the first pass of certified
# checks.  The term counts of the series come from special_eval's own double
# tail bounds (_t_tail, _psi_tail), not from these helpers.


def ln(x):
    return iv.log(x) if isinstance(x, ivmpf) else x.log()


def exp_(x):
    return iv.exp(x) if isinstance(x, ivmpf) else x.exp()


#: At and below this |x|, log(1-x) of an interval is summed from its series
#: (2^-64 as a raw mpf).
_LOG1M_SERIES_MAX = libmp.from_man_exp(1, -64)


def log1m(x):
    """log(1-x) for x < 1.

    On an interval, iv.log(1 - x) is accurate to about 2^-prec absolutely,
    which leaves no correct digit once x is that small.  For |x| <= 2^-64 the
    enclosure is -(sum_{k<=n} x^k/k) less the geometric bound
    t = |x|^(n+1)/((n+1)(1-|x|)) on the remaining terms, [0, t] for x >= 0
    and [-t, t] otherwise, with n = prec // 64 + 1: relative to x the tail
    is below 2^(-64n), under the rounding error of the sum.  Every other
    argument takes ln(1 - x).  On an interval |x| is compared with the
    threshold on raw ends, and 1 - x is formed from the exact iv.one.
    """
    if isinstance(x, ivmpf):
        if libmp.mpf_le(libmp.mpi_abs(x._mpi_)[1], _LOG1M_SERIES_MAX):
            size = abs(x)
            n = iv.prec // 64 + 1
            total = sum((x ** k / k for k in range(2, n + 1)), x)
            tail = size ** (n + 1) / ((n + 1) * (1 - size))
            return -(total + iv.mpf([0 if x.a >= 0 else -tail.b, tail.b]))
        return iv.log(iv.one - x)
    return ln(1 - x)


def const(value: Scalar, like):
    """A rational constant of a formula, lifted into the arithmetic of the
    formula's argument `like`."""
    return to_ivmpf(value) if isinstance(like, ivmpf) else DoubleInterval.lift(value)


def powr(base, exponent):
    """base ** exponent for positive base; exact integer exponents stay exact."""
    if isinstance(exponent, int):
        return base ** exponent
    if isinstance(base, ivmpf) or isinstance(exponent, ivmpf):
        return iv.exp(to_ivmpf(exponent) * iv.log(to_ivmpf(base)))
    return (base.log() * exponent).exp()
