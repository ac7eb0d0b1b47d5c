"""Reference bodies and brute-force oracles that only the tests run.

* :class:`FixedArithmetic` -- outward-rounded ``+ - * /`` on ints over one
  power-of-two scale, lifted by special_eval's fixed-point step
  ``_fixed_point_sum``;
* :func:`t_partial_sum_generic` and :func:`psi_partial_sum_generic` -- the
  partial sums of T and psi_q and their tail bounds written once on that
  arithmetic, the bit-for-bit references of special_eval's integer kernels
  ``_t_sum_end`` and ``_psi_sum_end``;
* :func:`t_tail` and :func:`psi_tail` -- the same tail bounds on ``ivmpf``
  intervals (or exact rationals), the reference for the kernels' tails;
* :func:`per_cell_sandwich` -- verifier.sandwich_verify's certificate with
  every cell evaluated at working precision, the reference of its runs;
* :func:`double_interval_log` -- ``DoubleInterval.log`` through mpmath's
  ``mpf_log`` at 53 bits, the bit-for-bit reference of its fixed-point step;
* :func:`divisor_count_trial`, :func:`floor_sum` and
  :func:`distinct_partition_stats_enumerated` -- independent oracles for
  divisor_core and for the representations of T;
* :func:`divisor_pairs_without_squares` -- a deliberately wrong d table, to
  show that every row of the identity checks can fail;
* :func:`sturm_chain` -- the integer Sturm chain of polynomials as a list of
  Polynomials;
* :func:`series_product` and :func:`series_reciprocal` -- truncated power
  series arithmetic on coefficient tuples, for the identities of T that the
  tests check beyond power_series' builders;
* the three companion series of power_series' sharp-bound closed forms.

Pytest puts this directory on ``sys.path``, so the tests import it as
``oracles``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import libmp

from divisor_series.divisor_core import divisor_partial_sums, divisor_sieve
from divisor_series.intervals import (
    DomainError,
    DoubleInterval,
    Enclosure,
    _ceil_float,
    _floor_float,
    interval_precision,
    to_ivmpf,
    working_precision,
)
from divisor_series.polynomials import (
    Polynomial,
    _integer_coefficients,
    _integer_sturm_chain,
)
from divisor_series.power_series import RepresentationId
from divisor_series.special_eval import _fixed_point_sum
from divisor_series.verifier import Certificate, GridSpec


# -- fixed-point arithmetic and the kernels' reference bodies --------------------


class FixedArithmetic:
    """[lo, hi] * 2^-shift, lo <= hi ints, with outward-rounded arithmetic
    (Brent and Zimmermann, *Modern Computer Arithmetic*, CUP 2010, sections
    3-4): ``+`` and ``-`` are exact; ``*`` and ``/`` take the extreme corner
    products or quotients, then round lo down (``>>``, ``//``) and hi up
    (``-((-x) >> s)``).  An int operand enters exactly.  Each rounding costs
    at most 2^-shift absolutely.  Dividing by an interval that contains 0 and
    mixing two scales raise DomainError."""

    __slots__ = ("lo", "hi", "shift")

    def __init__(self, lo: int, hi: int, shift: int):
        self.lo, self.hi, self.shift = lo, hi, shift

    @classmethod
    def lift(cls, *ivs):
        """q (and psi's a) as special_eval's fixed-point step lifts them at
        the current precision, one FixedArithmetic each; None where the step
        refuses them (a q reaches 1)."""
        ends = []
        if _fixed_point_sum(lambda s, up, *xs: ends.append((s, xs)) or (0, 0), *ivs) is None:
            return None
        (shift, lo), (_, hi) = ends
        return [cls(x, y, shift) for x, y in zip(lo, hi)]

    def __repr__(self) -> str:
        return f"FixedArithmetic({self.lo!r}, {self.hi!r}, shift={self.shift})"

    def _operand(self, other):
        """other at this scale, an int exactly; None for any other type."""
        s = self.shift
        if isinstance(other, int):
            return FixedArithmetic(other << s, other << s, s)
        if other.__class__ is not FixedArithmetic:
            return None
        if other.shift != s:
            raise DomainError(f"fixed-point scales 2^-{s} and 2^-{other.shift} differ")
        return other

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return FixedArithmetic(self.lo + other.lo, self.hi + other.hi, self.shift)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return FixedArithmetic(-self.hi, -self.lo, self.shift)

    def __mul__(self, other):
        other, s = self._operand(other), self.shift
        if other is None:
            return NotImplemented
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        corners = (a * c, a * d, b * c, b * d)
        return FixedArithmetic(min(corners) >> s, -(-max(corners) >> s), s)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other, s = self._operand(other), self.shift
        if other is None:
            return NotImplemented
        # (x 2^-s) / (y 2^-s) = ((x << s) / y) 2^-s
        a, b, c, d = self.lo << s, self.hi << s, other.lo, other.hi
        if c <= 0 <= d:
            raise DomainError("fixed-point division by an interval containing 0")
        corners = [(x, y) for x in (a, b) for y in (c, d)]
        return FixedArithmetic(min(x // y for x, y in corners),
                               max(-(-x // y) for x, y in corners), s)

    def __rtruediv__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else other / self


def t_partial_sum_generic(q, rep: RepresentationId, terms: int, d=None):
    """T's partial sum on FixedArithmetic q with the tail bound of
    special_eval's module docstring added to its upper end, the tail formed
    from the final powers of q: the bit-for-bit reference of
    special_eval._t_sum_end."""
    s = 0 * q
    if rep is RepresentationId.LAMBERT:
        qk = q
        for _ in range(terms):
            s = s + qk / (1 - qk)
            qk = qk * q
        tail = qk / (1 - q) / (1 - qk)
    elif rep is RepresentationId.DIVISOR:
        qk = q
        for k in range(1, terms + 1):
            s = s + d[k] * qk
            qk = qk * q
        head = qk / (1 - q)
        tail = head / (1 - q) + terms * head
    elif rep is RepresentationId.CLAUSEN:
        qk = q
        qk2 = q  # q^{k^2}
        for _ in range(terms):
            s = s + (1 + qk) / (1 - qk) * qk2
            qk2 = qk2 * qk * qk * q
            qk = qk * q
        tail = (1 + q) / (1 - q) * qk2 / (1 - qk * qk * q)
    else:
        raise ValueError(f"{rep!r} has no numeric summation")
    return s + FixedArithmetic(0, tail.hi, q.shift)


def psi_partial_sum_generic(q, a, terms: int):
    """sum_{k<=terms} a^k q^{k^2} (1/(1-q^k) + a q^k/(1-a q^k)), a = q^(x-1),
    on FixedArithmetic q and a, with the tail bound, the next term over
    1 - a q^(2 terms + 3), added to its upper end: the bit-for-bit
    reference of special_eval._psi_sum_end."""
    s = 0 * q
    qk = q
    aqk = a * q  # a q^k
    c = aqk  # a^k q^{k^2}
    for _ in range(terms):
        s = s + c * (1 / (1 - qk) + aqk / (1 - aqk))
        qk = qk * q
        c = c * aqk * qk
        aqk = aqk * q
    tail = c * (1 / (1 - qk) + aqk / (1 - aqk)) / (1 - aqk * qk * q)
    return s + FixedArithmetic(0, tail.hi, q.shift)


def t_tail(q, rep: RepresentationId, terms: int):
    """Tail bound of T's series past `terms` terms (special_eval's module
    docstring) for 0 <= q < 1, on ivmpf intervals or exact rationals."""
    if rep is RepresentationId.LAMBERT:
        p = q ** (terms + 1)
        return p / ((1 - q) * (1 - p))
    if rep is RepresentationId.DIVISOR:
        p = q ** (terms + 1)
        return p * ((terms + 1) - terms * q) / (1 - q) ** 2
    if rep is RepresentationId.CLAUSEN:
        p = q ** ((terms + 1) ** 2)
        return (1 + q) / (1 - q) * p / (1 - q ** (2 * terms + 3))
    raise ValueError(f"no tail bound for {rep!r}")


def psi_tail(q, a, terms: int):
    """Tail bound of the q-digamma sum in Clausen's form past `terms` terms,
    a = q^(x-1), for 0 <= q < 1 and a q < 1, on ivmpf intervals or exact
    rationals."""
    p = q ** (terms + 1)
    ap = a * p
    return ap ** (terms + 1) * (1 / (1 - p) + ap / (1 - ap)) / (1 - ap * p * q)


# -- the per-cell sandwich -------------------------------------------------------


def per_cell_sandwich(lower, upper, grid: GridSpec) -> Certificate:
    """The certificate of sandwich_verify(lower, upper, grid) from every cell
    at working precision: lower(left) - upper(right) on the tightest ivmpf
    around each exact endpoint.  The runs in doubles must give the same JSON;
    `settled` counts every cell at working precision."""
    with interval_precision(working_precision()):
        margins = [Enclosure(lower(to_ivmpf(grid.point(k))) - upper(to_ivmpf(grid.point(k + 1))))
                   for k in range(grid.total_cells)]
    min_margin = min(margin.to_floats()[0] for margin in margins)
    failures = tuple(k for k, margin in enumerate(margins) if not margin.is_positive())
    return Certificate(
        target="sandwich", grid=grid, cells_checked=grid.total_cells,
        min_margin=min_margin, passed=not failures and min_margin > 0, failures=failures,
        settled={"doubles": 0, "working_precision": grid.total_cells,
                 "min_margin_rechecks": 0, "runs": 0, "evaluations": 0})


# -- the log of a DoubleInterval ------------------------------------------------


def double_interval_log(x: DoubleInterval) -> DoubleInterval:
    """DoubleInterval.log by mpmath: each end is libmp.mpf_log of the double
    at 53 bits, rounded down (lower end) or up (upper end), then taken to the
    floor or ceiling double; the same guards for ends <= 0 and at +inf."""
    if not x.hi > 0:
        return DoubleInterval(-math.inf, math.inf)
    lo = -math.inf if x.lo <= 0 else _floor_float(
        libmp.mpf_log(libmp.from_float(x.lo), 53, libmp.round_floor))
    hi = _ceil_float(libmp.mpf_log(libmp.from_float(x.hi), 53, libmp.round_ceiling))
    return DoubleInterval(lo, hi)


# -- divisor_core oracles --------------------------------------------------------


def divisor_count_trial(n: int) -> int:
    """d(n) by trial division over 1..n."""
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def divisor_pairs_without_squares(n_max: int) -> tuple[int, ...]:
    """A wrong d table for fault injection: the divisor-pair count (2 at
    i^2 + i, i^2 + 2i, ...) with its square term dropped, so d(1) reads 0
    and every square reads one short."""
    d = [0] * (n_max + 1)
    for i in range(1, math.isqrt(n_max) + 1):
        for m in range(i * (i + 1), n_max + 1, i):
            d[m] += 2
    return tuple(d)


def floor_sum(n: int) -> int:
    """sum_{k=1}^{n} floor(n/k) -- independent oracle for the partial sums."""
    return sum(n // k for k in range(1, n + 1))


def distinct_partition_stats_enumerated(n_max: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """divisor_core.distinct_partition_stats by exhaustive enumeration of
    distinct partitions.  Exponential in n_max; an independent cross-check
    for small orders."""
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    s_odd = [0] * (n_max + 1)
    s_even = [0] * (n_max + 1)

    def extend(remaining: int, min_part: int, parts: int, total: int):
        # `total` is the full partition size once `remaining` reaches 0
        if remaining == 0:
            if parts % 2:
                s_odd[total] += parts
            else:
                s_even[total] += parts
            return
        for p in range(min_part, remaining + 1):
            extend(remaining - p, p + 1, parts + 1, total)

    for n in range(1, n_max + 1):
        extend(n, 1, 0, n)
    return tuple(s_odd), tuple(s_even)


# -- polynomials -----------------------------------------------------------------


def sturm_chain(p: Polynomial) -> list[Polynomial]:
    """p, p', then negated Euclidean remainders, each reduced to primitive
    part; stops at the last nonzero element.  The chain sturm_root_count
    runs on integers."""
    return [Polynomial(cs) for cs in _integer_sturm_chain(_integer_coefficients(p))]


# -- truncated series on coefficient tuples ----------------------------------------


def series_product(a, b) -> tuple:
    """The Cauchy product of two coefficient sequences, truncated to the
    smaller order, so retained coefficients depend only on retained ones."""
    n = min(len(a), len(b)) - 1
    # iterate the sparser factor on the outside
    nz_a = [(i, c) for i, c in enumerate(a[: n + 1]) if c]
    nz_b = [(i, c) for i, c in enumerate(b[: n + 1]) if c]
    if len(nz_b) < len(nz_a):
        nz_a, b = nz_b, a
    out = [0] * (n + 1)
    for i, c in nz_a:
        for j in range(n + 1 - i):
            d = b[j]
            if d:
                out[i + j] += c * d
    return tuple(out)


def series_reciprocal(a) -> tuple:
    """b with a * b = 1 up to a's order, by the recurrence
    b[k] = -(sum_{j=1..k} a[j] b[k-j]) / a[0].  A constant term of 1 or -1 is
    its own inverse, so integer series stay integer; any other nonzero one
    gives Fraction coefficients."""
    if a[0] == 0:
        raise DomainError("series_reciprocal needs a nonzero constant term")
    inv0 = a[0] if a[0] in (1, -1) else 1 / Fraction(a[0])
    support = [(j, c) for j, c in enumerate(a) if j > 0 and c]
    b = [inv0]
    for k in range(1, len(a)):
        acc = 0
        for j, c in support:
            if j > k:
                break
            acc += c * b[k - j]
        b.append(-acc * inv0)
    return tuple(b)


# -- companion coefficient sequences ---------------------------------------------
#
# Direct constructions of the three series whose closed forms
# ((1/q - 1) T(q) - 1,  T(q)/(1-q),  -log(1-q) T(q)) back the sharp-bound
# checks; the closed-form equalities are tested coefficient by coefficient
# against these.


def divisor_difference_series(order: int) -> tuple:
    """sum_{k>=1} (d(k+1) - d(k)) q^k."""
    if order < 1:
        raise DomainError("order must be >= 1")
    d = divisor_sieve(order + 1)
    return (0, *(d[k + 1] - d[k] for k in range(1, order + 1)))


def divisor_partial_sum_series(order: int) -> tuple:
    """sum_{k>=1} (sum_{j<=k} d(j)) q^k."""
    if order < 1:
        raise DomainError("order must be >= 1")
    return divisor_partial_sums(divisor_sieve(order))


def divisor_log_convolution_series(order: int) -> tuple:
    """sum_{k>=2} (sum_{j<k} d(j)/(k-j)) q^k."""
    if order < 1:
        raise DomainError("order must be >= 1")
    d = divisor_sieve(order)
    coeffs = [Fraction(0), Fraction(0)]
    for k in range(2, order + 1):
        coeffs.append(sum(Fraction(d[j], k - j) for j in range(1, k)))
    return tuple(coeffs)
