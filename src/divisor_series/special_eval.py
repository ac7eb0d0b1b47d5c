"""Floating evaluation of T, the q-digamma function, and the derived
functions H and F, with certified enclosures and explicit tail bounds.

Tail bounds used to truncate the series (K = number of retained terms,
0 < q < 1):

* Lambert        sum_{k>K} q^k/(1-q^k)        <= q^{K+1} / ((1-q)(1-q^{K+1}))
* divisor        sum_{k>K} d(k) q^k           <= q^{K+1}((K+1) - Kq)/(1-q)^2
                 (uses d(k) <= k)
* Clausen        sum_{k>K} (1+q^k)/(1-q^k) q^{k^2}
                 <= ((1+q)/(1-q)) q^{(K+1)^2} / (1 - q^{2K+3})
                 (k^2 >= (K+1)^2 + (k-K-1)(2K+3) for k > K)
* q-digamma      sum_{k>=1} q^{kx}/(1-q^k) = sum_{k>=1} a^k q^{k^2} (1/(1-q^k) + a q^k/(1-a q^k))
                 with a = q^{x-1} (the double sum of a^k q^{kj} split at j = k, as
                 Clausen's series splits T); with p = q^{K+1},
                 sum_{k>K} ...  <= (a p)^{K+1} (1/(1-p) + a p/(1-a p)) / (1 - a p^2 q)
                 (from k to k+1, both halves of the term shrink by a factor
                 <= a q^{2k+1}, which is <= a p^2 q < 1 for k > K)

The partial sums run on outward-rounded fixed-point integers: q, and a for
psi_q, are lifted from their ``ivmpf`` enclosures at a scale that keeps the
working precision's significant bits of q, however small; one integer kernel
per series (_t_sum_end, _psi_sum_end) sums each end on plain ints, and the
sum returns to ``ivmpf`` rounded outward.  The generic bodies on
``FixedInterval`` are the kernels' bit-for-bit reference; no evaluator calls
them.  The tail bound is certified by ``ivmpf`` evaluation, so the enclosure
accounts for both rounding and truncation.  Every evaluator climbs one
precision ladder (``_climb``, which also rejects a bad eps) to width eps; H
and F are one body, scale * (T - log(1-q)/log(q)).  FAST runs the same T,
psi_q, H and F bodies once at ``FAST_PRECISION`` bits, with no promise on the
width; it issues no certificates, and the bound checks below are certified
only.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from typing import Optional, Union

from mpmath import iv, libmp, mp
from mpmath.ctx_iv import ivmpf

from .divisor_core import divisor_sieve
from .intervals import (
    DomainError,
    DoubleInterval,
    Enclosure,
    FAST_PRECISION,
    FixedInterval,
    MAX_PRECISION,
    Mode,
    PrecisionError,
    QPoint,
    TermBudgetError,
    fixed_shift,
    gamma_enclosure,
    interval_precision,
    log1m,
    mpf_to_fraction,
    powr,
    precision_ladder,
    working_precision,
    _ceil_float,
)
from .power_series import RepresentationId

TERM_BUDGET = 10**7

#: Representation tag for values computed from the q-digamma series.
PSI_FORMULA = "PSI_FORMULA"

_NUMERIC_REPRESENTATIONS = (
    RepresentationId.DIVISOR,
    RepresentationId.LAMBERT,
    RepresentationId.CLAUSEN,
)

@dataclass(frozen=True)
class EvalReport:
    value: Enclosure
    representation: Union[RepresentationId, str]
    terms_used: int
    tail_bound: float
    mode: Mode


# -- tail bounds (generic over float / ivmpf) and term-count selection -------


def _check_below_one(*values) -> None:
    """Reject series arguments (doubles or intervals) outside [0, 1): a q
    whose double rounds to 1.0 has no finite tail bound.  0 itself is kept,
    where a power q^x underflows."""
    for v in values:
        if not (0 <= v and v < 1):
            raise DomainError("series argument must lie inside (0, 1) at working precision")


def _t_tail(q, rep: RepresentationId, terms: int):
    """Tail bound of T's series past `terms` terms (module docstring); a
    double upper bound on q picks the term count, an interval certifies."""
    _check_below_one(q)
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


def _psi_tail(q, a, terms: int):
    """Tail bound of the q-digamma sum in Clausen's form past `terms` terms,
    a = q^(x-1) (module docstring); doubles pick the term count, intervals
    certify.  The head is (a p)^(K+1): a alone overflows a double when x < 1
    and q is tiny, while a p = q^(x+K) < 1."""
    p = q ** (terms + 1)
    ap = a * p
    _check_below_one(q, ap)
    return ap ** (terms + 1) * (1 / (1 - p) + ap / (1 - ap)) / (1 - ap * p * q)


def _choose_terms(tail_at, target: float) -> int:
    """Smallest power-of-two-refined K with tail_at(K) <= target."""
    k = 1
    while tail_at(k) > target:
        if k >= TERM_BUDGET:
            raise TermBudgetError(
                f"series needs more than {TERM_BUDGET} terms to reach the requested width"
            )
        k = min(2 * k, TERM_BUDGET)
    lo, hi = k // 2 + 1, k
    while lo < hi:
        mid = (lo + hi) // 2
        if tail_at(mid) <= target:
            hi = mid
        else:
            lo = mid + 1
    return hi


# -- series summation (generic over float / ivmpf) ---------------------------


def _t_partial_sum_generic(q, rep: RepresentationId, terms: int, table=None):
    """T's partial sum, the kernels' bit-for-bit reference on FixedInterval;
    only the tests call it."""
    s = 0 * q
    if rep is RepresentationId.LAMBERT:
        qk = q
        for _ in range(terms):
            s = s + qk / (1 - qk)
            qk = qk * q
        return s
    if rep is RepresentationId.DIVISOR:
        qk = q
        for k in range(1, terms + 1):
            s = s + table.d[k] * qk
            qk = qk * q
        return s
    if rep is RepresentationId.CLAUSEN:
        qk = q
        qk2 = q  # q^{k^2}
        for _ in range(terms):
            s = s + (1 + qk) / (1 - qk) * qk2
            qk2 = qk2 * qk * qk * q
            qk = qk * q
        return s
    raise ValueError(f"{rep!r} has no numeric summation")


def _t_sum_end(x: int, s: int, rep: RepresentationId, terms: int, table, up: int) -> int:
    """One end of _t_partial_sum_generic on a FixedInterval q at scale 2^-s,
    bit for bit: x is q.lo with up = 0 (the lower end) or q.hi with up = 1.
    With 0 <= q.lo and q.hi < 2^s every operand is non-negative and every
    power of q stays below 1, so FixedInterval's corner rules pick lo = a*c,
    hi = b*d for a product and lo = a/d, hi = b/c for a quotient, and
    1 +- q^k is exact: each end depends on its own end of q alone.  up = 0
    rounds down, (x*y) >> s and n // y; up = 1 rounds up,
    (x*y + 2^s - 1) >> s and (n + y - 1) // y."""
    one = 1 << s
    r = up * (one - 1)
    total = 0
    if rep is RepresentationId.LAMBERT:
        qk = x
        for _ in range(terms):
            den = one - qk
            total += ((qk << s) + up * (den - 1)) // den
            qk = (qk * x + r) >> s
        return total
    if rep is RepresentationId.DIVISOR:
        qk, d = x, table.d
        for k in range(1, terms + 1):
            total += d[k] * qk
            qk = (qk * x + r) >> s
        return total
    if rep is RepresentationId.CLAUSEN:
        qk = qk2 = x  # q^k, q^{k^2}
        for _ in range(terms):
            den = one - qk
            ratio = (((one + qk) << s) + up * (den - 1)) // den
            total += (ratio * qk2 + r) >> s
            qk2 = (((((qk2 * qk + r) >> s) * qk + r) >> s) * x + r) >> s
            qk = (qk * x + r) >> s
        return total
    raise ValueError(f"{rep!r} has no numeric summation")


def _psi_partial_sum_generic(q, a, terms: int):
    """sum_{k<=terms} a^k q^{k^2} (1/(1-q^k) + a q^k/(1-a q^k)), a = q^(x-1),
    the kernel's bit-for-bit reference on FixedInterval; only the tests call it."""
    s = 0 * q
    qk = q
    aqk = a * q  # a q^k
    c = aqk  # a^k q^{k^2}
    for _ in range(terms):
        s = s + c * (1 / (1 - qk) + aqk / (1 - aqk))
        qk = qk * q
        c = c * aqk * qk
        aqk = aqk * q
    return s


def _psi_sum_end(x: int, y: int, s: int, terms: int, up: int) -> int:
    """One end of _psi_partial_sum_generic on FixedInterval q and a at scale
    2^-s, bit for bit, as _t_sum_end: (x, y) is (q.lo, a.lo) with up = 0 or
    (q.hi, a.hi) with up = 1."""
    one = 1 << s
    r = up * (one - 1)
    unit = one << s  # 1 at scale 2^-2s, the dividend of 1 / (1 - q^k)
    total = 0
    qk = x
    aqk = c = (y * x + r) >> s
    for _ in range(terms):
        den, den_a = one - qk, one - aqk
        inv = (unit + up * (den - 1)) // den
        part = ((aqk << s) + up * (den_a - 1)) // den_a
        total += (c * (inv + part) + r) >> s
        qk = (qk * x + r) >> s
        c = (((c * aqk + r) >> s) * qk + r) >> s
        aqk = (aqk * x + r) >> s
    return total


def t_enclosure_for_interval(
    q_iv: ivmpf, eps: float, representation: RepresentationId = RepresentationId.CLAUSEN
) -> EvalReport:
    """Certified enclosure of T over an interval argument already in scope, at
    the current interval precision; eps may be a Fraction past the doubles.
    The tail bound covers every q in the interval.  The term count refuses a q
    whose double upper bound reaches 1, the tail bound one below 0."""
    q_hi = _ceil_float(q_iv._mpi_[1])
    target = max(float(min(eps, 1e300)) / 4, 5e-323)
    terms = _choose_terms(lambda k: _t_tail(q_hi, representation, k), target)
    tail_hi = Enclosure(_t_tail(q_iv, representation, terms)).hi
    table = divisor_sieve(terms) if representation is RepresentationId.DIVISOR else None
    s = fixed_shift(q_iv)
    q_fx = FixedInterval.from_ivmpf(q_iv, s)
    total = FixedInterval(_t_sum_end(q_fx.lo, s, representation, terms, table, 0),
                          _t_sum_end(q_fx.hi, s, representation, terms, table, 1), s)
    value = Enclosure(total.to_ivmpf()) + Enclosure(0, tail_hi)
    return EvalReport(value, representation, terms, _ceil_float(tail_hi._mpf_), Mode.CERTIFIED)


# -- public evaluators --------------------------------------------------------


def _bits_for_eps(eps: float | Fraction) -> int:
    wanted = working_precision()
    if eps < 1e-30:
        e = Fraction(eps)  # log2 of each part: a Fraction eps may be below the doubles
        wanted = max(wanted, int(math.log2(e.denominator) - math.log2(e.numerator)) + 32)
    return min(wanted, MAX_PRECISION)


def _precision_error(eps: float | Fraction) -> PrecisionError:
    """The one error of a width out of reach, naming eps as the caller gave it."""
    return PrecisionError(f"cannot reach width {mp.nstr(mp.mpf(str(eps)), 6)} "
                          f"within {MAX_PRECISION} bits")


def _climb(eps: float | Fraction, mode: Mode, rung) -> EvalReport:
    """The one precision ladder of the evaluators, which also rejects a bad eps.
    rung() evaluates at the current interval precision, None to be tried
    higher; FAST takes the first report from FAST_PRECISION up, CERTIFIED the
    first from _bits_for_eps(eps) up no wider than a 64-bit lower bound on eps."""
    if not eps > 0:
        raise DomainError("eps must be positive")
    fast = mode is Mode.FAST
    bound = mp.make_mpf(libmp.from_float(eps) if isinstance(eps, float) else
                        libmp.from_rational(eps.numerator, eps.denominator, 64, libmp.round_floor))
    for prec in precision_ladder(FAST_PRECISION if fast else _bits_for_eps(eps)):
        with interval_precision(prec):
            report = rung()
        if report is not None and (fast or report.value.width_upper() <= bound):
            return report
    raise _precision_error(eps)


def eval_T(
    q,
    eps: float = 1e-12,
    representation: RepresentationId = RepresentationId.CLAUSEN,
    mode: Mode = Mode.CERTIFIED,
) -> EvalReport:
    """Enclosure of T(q) with width <= eps (CERTIFIED) from the chosen series.

    Only the DIVISOR, LAMBERT and CLAUSEN forms converge term by term for a
    fixed numeric q; the q-factorial forms live in the power-series layer.
    """
    qp = QPoint.coerce(q)
    if representation not in _NUMERIC_REPRESENTATIONS:
        raise DomainError(f"{representation} is not evaluable numerically; "
                          "use DIVISOR, LAMBERT or CLAUSEN")
    return _climb(eps, mode, lambda: replace(
        t_enclosure_for_interval(qp.to_ivmpf(), eps, representation), mode=mode))


#: Term counts for psi_q are chosen at q >= 2^-512, where q^(x-1) <= 2^512.
_PSI_Q_FLOOR = 2.0 ** -512


def eval_psi_q(q, x, eps: float = 1e-12, mode: Mode = Mode.CERTIFIED) -> EvalReport:
    """Enclosure of the q-digamma value
    psi_q(x) = -log(1-q) + log(q) * sum_{k>=1} q^{kx}/(1-q^k)."""
    qp = QPoint.coerce(q)
    if x <= 0:
        raise DomainError("x must be positive")
    x_frac = Fraction(x) if not isinstance(x, Fraction) else x
    # The tail grows with q, so a double q_hi >= q picks enough terms; the
    # floor keeps a = q^(x-1) finite in doubles, and since q_hi <= 1, cutting
    # an exponent beyond the doubles down to 2^1000 only raises a_hi.
    q_hi = max(DoubleInterval.lift(qp.value).hi, _PSI_Q_FLOOR)
    a_hi = q_hi ** float(min(x_frac - 1, 2 ** 1000))
    # eps budget for the bare sum: the sum is scaled by log(q) afterwards.  The
    # log is taken of the exact rational, so a q below the smallest double works.
    log_scale = max(math.log(qp.value.denominator) - math.log(qp.value.numerator), 1e-300)

    def rung():
        # the term count refuses a q whose double reaches 1, so q.hi < 2^s below
        terms = _choose_terms(lambda k: _psi_tail(q_hi, a_hi, k),
                              max(eps / (4.0 * log_scale), 5e-323))
        q_iv = qp.to_ivmpf()
        a = powr(q_iv, int(x_frac - 1) if x_frac.denominator == 1 else x_frac - 1)
        s = fixed_shift(q_iv)
        q_fx, a_fx = FixedInterval.from_ivmpf(q_iv, s), FixedInterval.from_ivmpf(a, s)
        # a q^k shrinks as k grows, so a q < 1 keeps every 1 - a q^k positive
        if (a_fx.hi * q_fx.hi + (1 << s) - 1) >> s >= 1 << s:
            return None  # a q reaches 1 at this precision (x near 0)
        total = FixedInterval(_psi_sum_end(q_fx.lo, a_fx.lo, s, terms, 0),
                              _psi_sum_end(q_fx.hi, a_fx.hi, s, terms, 1), s)
        tail_hi = Enclosure(_psi_tail(q_iv, a, terms)).hi
        sum_enc = Enclosure(total.to_ivmpf()) + Enclosure(0, tail_hi)
        value = Enclosure(-log1m(q_iv)) + Enclosure(iv.log(q_iv)) * sum_enc
        return EvalReport(value, PSI_FORMULA, terms, _ceil_float(tail_hi._mpf_), mode)

    return _climb(eps, mode, rung)


def _log_ratio_enclosure(qp: QPoint) -> Enclosure:
    """log(1-q)/log(q) at the current interval precision."""
    q_iv = qp.to_ivmpf()
    return Enclosure(log1m(q_iv) / iv.log(q_iv))


def _scaled_h(qp: QPoint, scale: Fraction, eps: float, representation: RepresentationId,
              mode: Mode) -> EvalReport:
    """scale * (T(q) - b) with b = log(1-q)/log(q): H at scale 1, F at (1-q)/q.
    T is taken once to width eps/(2 scale), exact, since F's scale passes the
    doubles below q = 5.6e-309; the ladder then narrows b, which cancels near
    q = 1.  eps is checked first, as Fraction(nan) raises ValueError."""
    if not eps > 0:
        raise DomainError("eps must be positive")
    t_eps = Fraction(eps) / (2 * scale) if eps < math.inf else eps
    try:
        t = eval_T(qp, t_eps, representation, mode)
    except PrecisionError:
        raise _precision_error(eps) from None
    return _climb(eps, mode, lambda: EvalReport(
        (t.value - _log_ratio_enclosure(qp)) * scale,
        representation, t.terms_used, t.tail_bound, mode))


def eval_H(
    q,
    eps: float = 1e-12,
    representation: RepresentationId = RepresentationId.CLAUSEN,
    mode: Mode = Mode.CERTIFIED,
) -> EvalReport:
    """H(q) = T(q) - log(1-q)/log(q)."""
    return _scaled_h(QPoint.coerce(q), Fraction(1), eps, representation, mode)


def eval_F(
    q,
    eps: float = 1e-12,
    representation: RepresentationId = RepresentationId.CLAUSEN,
    mode: Mode = Mode.CERTIFIED,
) -> EvalReport:
    """F(q) = ((1-q)/q) * H(q)."""
    qp = QPoint.coerce(q)
    return _scaled_h(qp, (1 - qp.value) / qp.value, eps, representation, mode)


# -- double-inequality checkers ----------------------------------------------


class TheoremId(enum.Enum):
    SALEM_1_3 = "SALEM_1_3"
    T4_1 = "T4_1"
    T4_2 = "T4_2"
    T4_3 = "T4_3"
    T4_4 = "T4_4"
    C3_3 = "C3_3"


class BoundsStatus(enum.Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    INDETERMINATE = "INDETERMINATE"


@dataclass(frozen=True)
class BoundsCheck:
    theorem: TheoremId
    argument: tuple[float, ...]
    lhs: Enclosure
    mid: Enclosure
    rhs: Enclosure
    status: BoundsStatus
    strict_ok: bool
    mode: Mode = Mode.CERTIFIED  # the checks are certified only


def _decide(lhs: Enclosure, mid: Enclosure, rhs: Enclosure) -> BoundsStatus:
    if lhs.strictly_below(mid) and mid.strictly_below(rhs):
        return BoundsStatus.PASS
    # certified violation of either strict inequality
    if mid.hi <= lhs.lo or rhs.hi <= mid.lo:
        return BoundsStatus.FAIL
    return BoundsStatus.INDETERMINATE


#: The one-point theorems as affine images of T, from the point q and
#: b = log(1-q)/log(q): each checks scale*T(q) + shift.  Theorems 4.2-4.4
#: are Theorem 4.1's gamma r + b < T < r + b, r = q/(1-q), mapped by the same
#: (scale, shift); Salem's 1.3 is 0 < 1 - (1-q)/(q log q) psi_q(1) < 1/2 with
#: psi_q(1) = -log(1-q) + log(q) T(q).
_AFFINE_IN_T = {
    TheoremId.T4_1: lambda qp, b: (1, 0),
    TheoremId.T4_2: lambda qp, b: ((1 - qp.value) / qp.value, -1),
    TheoremId.T4_3: lambda qp, b: (1 / (1 - qp.value), 0),
    TheoremId.T4_4: lambda qp, b: (-log1m(qp.to_ivmpf()), 0),
    TheoremId.SALEM_1_3: lambda qp, b: (-(1 - qp.value) / qp.value,
                                        b * ((1 - qp.value) / qp.value) + 1),
}


def _bounds_triple(theorem: TheoremId, qp: QPoint, eps: float):
    with interval_precision(_bits_for_eps(eps)):
        b = _log_ratio_enclosure(qp)
        scale, shift = (Enclosure(v) for v in _AFFINE_IN_T[theorem](qp, b))
        width = Fraction(eps) / (2 * mpf_to_fraction(abs(scale.hi))) if eps < math.inf else eps
        t = eval_T(qp, width)
        mid = t.value * scale + shift
        if theorem is TheoremId.SALEM_1_3:
            return Enclosure(0), mid, Enclosure(Fraction(1, 2))
        r = Enclosure(Fraction(qp.value, 1 - qp.value))
        return (gamma_enclosure() * r + b) * scale + shift, mid, (b + r) * scale + shift


def check_bounds(
    theorem: TheoremId,
    q=None,
    pair: Optional[tuple] = None,
    eps: Optional[float] = None,
) -> BoundsCheck:
    """Evaluate the three expressions of the chosen double inequality.

    strict_ok is True only when the enclosures separate strictly
    (lhs.hi < mid.lo and mid.hi < rhs.lo).  Overlapping enclosures yield
    INDETERMINATE, never a pass; with eps unset the check retries at
    decreasing widths before giving up.
    """
    if eps is not None and not eps > 0:
        raise DomainError("eps must be positive")
    if theorem is TheoremId.C3_3:
        if pair is None:
            raise DomainError("C3_3 takes a pair (r, s) with r < s")
        rp, sp = QPoint.coerce(pair[0]), QPoint.coerce(pair[1])
        if not rp.value < sp.value:
            raise DomainError("C3_3 requires r < s")
        argument = (float(rp), float(sp))
        lhs_exact = Fraction(rp.value * (1 - sp.value), sp.value * (1 - rp.value))
        h_r_est = float(eval_H(rp, 1e-6, mode=Mode.FAST).value.midpoint())
        h_s_est = float(eval_H(sp, 1e-6, mode=Mode.FAST).value.midpoint())

        def triple(e):
            w_r = e * h_s_est / 4.0
            w_s = w_r * (h_s_est / max(h_r_est, 5e-324))  # inf where H(r) underflows
            if not w_s > 0:  # 0 or NaN where w_r is 0
                raise DomainError("s underflows in double precision: e H(s)/4 rounds to 0")
            h_r = eval_H(rp, w_r)
            h_s = eval_H(sp, w_s)
            with interval_precision(_bits_for_eps(e)):
                mid = h_r.value / h_s.value
            return Enclosure(lhs_exact), mid, Enclosure(1)
    else:
        if q is None:
            raise DomainError(f"{theorem} takes a point q")
        qp = QPoint.coerce(q)
        argument = (float(qp),)
        triple = partial(_bounds_triple, theorem, qp)

    for e in [eps] if eps is not None else [1e-8, 1e-12, 1e-16, 1e-20]:
        try:
            lhs, mid, rhs = triple(e)
        except PrecisionError:
            raise _precision_error(e) from None
        status = _decide(lhs, mid, rhs)
        if status is not BoundsStatus.INDETERMINATE:
            break
    return BoundsCheck(theorem, argument, lhs, mid, rhs, status, status is BoundsStatus.PASS)


# -- Landau's Fibonacci series ------------------------------------------------


def fibonacci_partial_sum(k_max: int) -> tuple[Fraction, Fraction]:
    """(sum_{k=1}^{k_max} 1/F(2k), tail bound), exact rationals.

    Fibonacci indexing follows the classical convention F(1) = F(2) = 1, so
    the first summand is 1/F(2) = 1 and the series value is Landau's constant
    1.53537...  (With the alternative seed F(0) = F(1) = 1 the even-index sum
    would instead start 1/2 + 1/5 + ... = 0.785..., which is not this series;
    see the design notes.)  Tail bound: F(n+2) >= 2 F(n), so the terms past
    k_max are dominated by the geometric series 1/F(2 k_max) * sum 2^{-j}.
    """
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    total = Fraction(0)
    f_prev, f_curr = 1, 1  # (F(2k-1), F(2k)) starting at k = 1
    for _ in range(k_max):
        total += Fraction(1, f_curr)
        f_prev, f_curr = f_prev + f_curr, f_prev + 2 * f_curr
    # loop leaves (F(2k_max+1), F(2k_max+2)); tail <= 1/F(2 k_max)
    tail = Fraction(1, f_curr - f_prev)
    return total, tail


def landau_fibonacci(k_max: int) -> Enclosure:
    """Enclosure of sum_{k>=1} 1/F(2k) from the exact partial sum."""
    partial, tail = fibonacci_partial_sum(k_max)
    return Enclosure.from_fraction_pair(partial, partial + tail)


def landau_constant_from_t(eps: float = 1e-7) -> Enclosure:
    """sqrt(5) * (T(c) - T(c^2)) with c = ((sqrt(5)-1)/2)^2, certified to width eps."""

    def rung():
        sqrt5 = iv.sqrt(iv.mpf(5))
        c = ((sqrt5 - 1) / 2) ** 2
        t_c = t_enclosure_for_interval(c, eps / 8.0)
        t_c2 = t_enclosure_for_interval(c ** 2, eps / 8.0)
        return replace(t_c, value=Enclosure(sqrt5) * (t_c.value - t_c2.value))

    return _climb(eps, Mode.CERTIFIED, rung).value
