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

In CERTIFIED mode the partial sum runs on outward-rounded fixed-point
integer intervals (``FixedInterval``): q, and a for psi_q, are lifted from
their ``ivmpf`` enclosures at a scale that keeps the working precision's
significant bits of q, however small, and the sum returns to ``ivmpf``
rounded outward.  The tail bound is certified by ``ivmpf`` evaluation, so
the reported enclosure accounts for both rounding and truncation.  FAST mode
sums native doubles and pads the result with the tail bound plus a heuristic
10 ulp per operation; it issues no certificates.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from mpmath import iv
from mpmath.ctx_iv import ivmpf

from .divisor_core import divisor_sieve
from .intervals import (
    DomainError,
    Enclosure,
    FixedInterval,
    MAX_PRECISION,
    Mode,
    PrecisionError,
    TermBudgetError,
    fixed_shift,
    gamma_enclosure,
    interval_precision,
    precision_ladder,
    to_ivmpf,
    working_precision,
    _float_up,
    float_ulp,
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

# rough operation counts per series term, for the FAST-mode ulp heuristic
_OPS_PER_TERM = {
    RepresentationId.DIVISOR: 3,
    RepresentationId.LAMBERT: 4,
    RepresentationId.CLAUSEN: 7,
    PSI_FORMULA: 11,
}


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
        if isinstance(q, QPoint):
            return q
        if isinstance(q, str):
            return cls(Fraction(q))
        return cls(Fraction(q))

    def to_ivmpf(self) -> ivmpf:
        return to_ivmpf(self.value)

    def float_up(self) -> float:
        """Double upper bound on q, for term-count heuristics."""
        f = float(self.value)
        return f if Fraction(f) >= self.value else math.nextafter(f, 1.0)

    def __float__(self) -> float:
        return float(self.value)

    def fast_float(self) -> float:
        """q as a double for FAST formulas that take log(q); a q below the
        smallest positive double rounds to 0.0, which has no logarithm."""
        f = float(self.value)
        if f == 0.0:
            raise DomainError("q underflows to 0.0 in double precision; "
                              "use certified mode")
        return f


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
        if not 0 <= v < 1:
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
    if not target > 0:
        raise DomainError("eps must be positive")
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


def _t_partial_sum(q, rep: RepresentationId, terms: int, table=None):
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


def _psi_partial_sum(q, a, terms: int):
    """sum_{k<=terms} a^k q^{k^2} (1/(1-q^k) + a q^k/(1-a q^k)), a = q^(x-1);
    at x = 1 this is Clausen's series for T."""
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


def t_enclosure_for_interval(
    q_iv: ivmpf, eps: float, representation: RepresentationId = RepresentationId.CLAUSEN
) -> tuple[Enclosure, int, float]:
    """Certified enclosure of T over an interval argument already in scope.

    Assumes the current mpmath interval precision is the one to compute at;
    returns (enclosure, terms_used, tail_bound).  The tail bound is evaluated
    on the interval argument, so it covers every q in it.
    """
    q_hi = _float_up(Enclosure(q_iv).hi)
    table = None
    terms = _choose_terms(
        lambda k: _t_tail(q_hi, representation, k), max(eps / 4.0, 5e-323)
    )
    if representation is RepresentationId.DIVISOR:
        table = divisor_sieve(terms)
    q_fx = FixedInterval.from_ivmpf(q_iv, fixed_shift(q_iv))
    s = _t_partial_sum(q_fx, representation, terms, table).to_ivmpf()
    tail_hi = Enclosure(_t_tail(q_iv, representation, terms)).hi
    value = Enclosure(s) + Enclosure(0, tail_hi)
    return value, terms, _float_up(tail_hi)


# -- public evaluators --------------------------------------------------------


def _bits_for_eps(eps: float) -> int:
    wanted = working_precision()
    if eps < 1e-30:
        wanted = max(wanted, int(-math.log2(eps)) + 32)
    return min(wanted, MAX_PRECISION)


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
    if not eps > 0:
        raise DomainError("eps must be positive")

    if mode is Mode.FAST:
        return _eval_t_fast(qp, eps, representation)

    for prec in precision_ladder(_bits_for_eps(eps)):
        with interval_precision(prec):
            value, terms, tail = t_enclosure_for_interval(qp.to_ivmpf(), eps, representation)
        if float(value.width_upper()) <= eps:
            return EvalReport(value, representation, terms, tail, Mode.CERTIFIED)
    raise PrecisionError(
        f"cannot reach width {eps} for T({float(qp)}) within {MAX_PRECISION} bits"
    )


def _eval_t_fast(qp: QPoint, eps: float, representation: RepresentationId) -> EvalReport:
    q = float(qp)
    terms = _choose_terms(
        lambda k: _t_tail(qp.float_up(), representation, k), max(eps / 2.0, 5e-323)
    )
    table = divisor_sieve(terms) if representation is RepresentationId.DIVISOR else None
    s = _t_partial_sum(q, representation, terms, table)
    tail = _t_tail(qp.float_up(), representation, terms)
    err = tail + 10.0 * _OPS_PER_TERM[representation] * terms * float_ulp(s)
    return EvalReport(
        Enclosure(s - err, s + err), representation, terms, tail, Mode.FAST
    )


#: Term counts for psi_q are chosen at q >= 2^-512, where q^(x-1) <= 2^512.
_PSI_Q_FLOOR = 2.0 ** -512


def eval_psi_q(q, x, eps: float = 1e-12, mode: Mode = Mode.CERTIFIED) -> EvalReport:
    """Enclosure of the q-digamma value
    psi_q(x) = -log(1-q) + log(q) * sum_{k>=1} q^{kx}/(1-q^k)."""
    qp = QPoint.coerce(q)
    if x <= 0:
        raise DomainError("x must be positive")
    if not eps > 0:
        raise DomainError("eps must be positive")
    x_frac = Fraction(x) if not isinstance(x, Fraction) else x
    # The tail grows with q, so a double q_hi >= q picks enough terms; the
    # floor keeps a = q^(x-1) finite in doubles.
    q_hi = max(qp.float_up(), _PSI_Q_FLOOR)
    a_hi = q_hi ** float(x_frac - 1)
    # eps budget for the bare sum: the sum is scaled by log(q) afterwards.  The
    # log is taken of the exact rational, so a q below the smallest double works.
    log_scale = max(math.log(qp.value.denominator) - math.log(qp.value.numerator), 1e-300)
    sum_target = max(eps / (4.0 * log_scale), 5e-323)
    terms = _choose_terms(lambda k: _psi_tail(q_hi, a_hi, k), sum_target)

    if mode is Mode.FAST:
        qf = qp.fast_float()
        exponent = float(x_frac - 1)
        try:
            a = qf ** exponent
        except OverflowError:
            raise DomainError("q^(x-1) overflows in double precision; "
                              "use certified mode") from None
        s = _psi_partial_sum(qf, a, terms)
        tail = _psi_tail(q_hi, a_hi, terms)
        value = -math.log1p(-qf) + math.log(qf) * s
        # Rounding x-1 to a double moves a by log(1/q) times that error
        # relatively, and a^k by k times as much: large where q is tiny.
        a_err = terms * log_scale * abs(float(x_frac - 1 - Fraction(exponent)))
        # 10 ulp of the value cover rounding q to qf and the last two steps,
        # which dominate where the sum is far below -log(1-q) (q near 0, x > 1)
        err = (log_scale * (tail + a_err * abs(s)
                            + 10.0 * _OPS_PER_TERM[PSI_FORMULA] * terms * float_ulp(s))
               + 10.0 * float_ulp(value))
        return EvalReport(
            Enclosure(value - err, value + err), PSI_FORMULA, terms, tail, Mode.FAST
        )

    for prec in precision_ladder(_bits_for_eps(eps)):
        with interval_precision(prec):
            q_iv = qp.to_ivmpf()
            if x_frac.denominator == 1:
                a = q_iv ** int(x_frac - 1)
            else:
                a = iv.exp(to_ivmpf(x_frac - 1) * iv.log(q_iv))
            shift = fixed_shift(q_iv)
            try:
                s = _psi_partial_sum(FixedInterval.from_ivmpf(q_iv, shift),
                                     FixedInterval.from_ivmpf(a, shift), terms).to_ivmpf()
            except DomainError:  # 1 - a q^k contains 0 at this precision (x near 0)
                continue
            tail_hi = Enclosure(_psi_tail(q_iv, a, terms)).hi
            sum_enc = Enclosure(s) + Enclosure(0, tail_hi)
            value = Enclosure(_minus_log1m(qp)) + Enclosure(iv.log(q_iv)) * sum_enc
        if float(value.width_upper()) <= eps:
            return EvalReport(value, PSI_FORMULA, terms, _float_up(tail_hi), Mode.CERTIFIED)
    raise PrecisionError(f"cannot reach width {eps} for psi_q at q={float(qp)}")


#: At and below this q, -log(1-q) is summed from its power series.
_LOG1M_SERIES_MAX_Q = Fraction(1, 2**64)


def _minus_log1m(qp: QPoint) -> ivmpf:
    """-log(1-q) at the current interval precision.

    iv.log(1 - q) is accurate to about 2^-prec absolutely, which leaves no
    correct digit once q is that small.  For q <= 2^-64 the enclosure is
    sum_{k<=n} q^k/k plus [0, q^(n+1)/((n+1)(1-q))], the geometric bound on
    the remaining terms, with n = prec // 64 + 1: relative to q the tail is
    below 2^(-64n), under the rounding error of the sum.
    """
    q_iv = qp.to_ivmpf()
    if qp.value > _LOG1M_SERIES_MAX_Q:
        return -iv.log(1 - q_iv)
    n = iv.prec // 64 + 1
    total = sum((q_iv ** k / k for k in range(2, n + 1)), q_iv)
    tail = q_iv ** (n + 1) / ((n + 1) * (1 - q_iv))
    return total + iv.mpf([0, tail.b])


def _log_ratio_enclosure(qp: QPoint) -> Enclosure:
    """log(1-q)/log(q) at the current interval precision."""
    return Enclosure(-_minus_log1m(qp) / iv.log(qp.to_ivmpf()))


def eval_H(
    q,
    eps: float = 1e-12,
    representation: RepresentationId = RepresentationId.CLAUSEN,
    mode: Mode = Mode.CERTIFIED,
) -> EvalReport:
    """H(q) = T(q) - log(1-q)/log(q)."""
    qp = QPoint.coerce(q)
    if mode is Mode.FAST:
        t = eval_T(qp, eps, representation, Mode.FAST)
        qf = qp.fast_float()
        base = math.log1p(-qf) / math.log(qf)
        lo, hi = t.value.to_floats()
        pad = 40.0 * float_ulp(base)
        return EvalReport(
            Enclosure(lo - base - pad, hi - base + pad),
            representation, t.terms_used, t.tail_bound, Mode.FAST,
        )
    t = eval_T(qp, eps / 2.0, representation, Mode.CERTIFIED)
    with interval_precision(_bits_for_eps(eps)):
        value = t.value - _log_ratio_enclosure(qp)
    if float(value.width_upper()) > eps:
        raise PrecisionError(f"H enclosure wider than eps={eps}")
    return EvalReport(value, representation, t.terms_used, t.tail_bound, Mode.CERTIFIED)


def eval_F(
    q,
    eps: float = 1e-12,
    representation: RepresentationId = RepresentationId.CLAUSEN,
    mode: Mode = Mode.CERTIFIED,
) -> EvalReport:
    """F(q) = ((1-q)/q) * H(q)."""
    qp = QPoint.coerce(q)
    scale = (1 - qp.value) / qp.value
    if scale > sys.float_info.max:
        raise DomainError("q underflows in double precision: (1-q)/q exceeds the "
                          "largest double")
    # halve eps before dividing: 2 * scale overflows for q just above the guard
    eps_h = eps / 2.0 / float(scale) if mode is Mode.CERTIFIED else eps
    h = eval_H(qp, eps_h, representation, mode)
    if mode is Mode.FAST:
        lo, hi = h.value.to_floats()
        s = float(scale)
        return EvalReport(
            Enclosure(min(lo * s, hi * s), max(lo * s, hi * s)),
            representation, h.terms_used, h.tail_bound, Mode.FAST,
        )
    with interval_precision(_bits_for_eps(eps)):
        value = h.value * to_ivmpf(scale)
    if float(value.width_upper()) > eps:
        raise PrecisionError(f"F enclosure wider than eps={eps}")
    return EvalReport(value, representation, h.terms_used, h.tail_bound, Mode.CERTIFIED)


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
    mode: Mode


def _decide(lhs: Enclosure, mid: Enclosure, rhs: Enclosure) -> BoundsStatus:
    if lhs.strictly_below(mid) and mid.strictly_below(rhs):
        return BoundsStatus.PASS
    # certified violation of either strict inequality
    if mid.hi <= lhs.lo or rhs.hi <= mid.lo:
        return BoundsStatus.FAIL
    return BoundsStatus.INDETERMINATE


def _bounds_triple(theorem: TheoremId, qp: QPoint, eps: float, mode: Mode):
    q = qp.value
    gamma = gamma_enclosure()
    with interval_precision(_bits_for_eps(eps)):
        q_iv = qp.to_ivmpf()
        log_q = Enclosure(iv.log(q_iv))
        log_1mq = Enclosure(-_minus_log1m(qp))

        if theorem is TheoremId.SALEM_1_3:
            factor = Enclosure(to_ivmpf((1 - q) / q)) / log_q
            eps_psi = eps / (2.0 * abs(float((1 - q) / q) / math.log(float(q))))
            psi = eval_psi_q(qp, 1, eps_psi, mode)
            mid = 1 - factor * psi.value
            return Enclosure(0), mid, Enclosure(Fraction(1, 2))

        if theorem is TheoremId.T4_1:
            base = log_1mq / log_q
            ratio = Fraction(q, 1 - q)
            t = eval_T(qp, eps / 2.0, RepresentationId.CLAUSEN, mode)
            lhs = gamma * to_ivmpf(ratio) + base
            rhs = Enclosure(to_ivmpf(ratio)) + base
            return lhs, t.value, rhs

        if theorem is TheoremId.T4_2:
            base = Enclosure(to_ivmpf((1 - q) / q)) * log_1mq / log_q
            scale = Fraction(1 - q, q)
            t = eval_T(qp, eps * float(q / (1 - q)) / 2.0, RepresentationId.CLAUSEN, mode)
            mid = t.value * to_ivmpf(scale) - 1
            return (gamma - 1) + base, mid, base

        if theorem is TheoremId.T4_3:
            base = log_1mq / (Enclosure(to_ivmpf(Fraction(1 - q))) * log_q)
            ratio = Fraction(q, (1 - q) ** 2)
            t = eval_T(qp, eps * float(1 - q) / 2.0, RepresentationId.CLAUSEN, mode)
            mid = t.value / to_ivmpf(Fraction(1 - q))
            lhs = gamma * to_ivmpf(ratio) + base
            rhs = Enclosure(to_ivmpf(ratio)) + base
            return lhs, mid, rhs

        if theorem is TheoremId.T4_4:
            term = Enclosure(to_ivmpf(Fraction(q, 1 - q))) * log_1mq  # negative
            base = -(log_1mq * log_1mq) / log_q
            eps_t = eps / (2.0 * abs(math.log(1 - float(q))))
            t = eval_T(qp, eps_t, RepresentationId.CLAUSEN, mode)
            mid = -log_1mq * t.value
            lhs = -gamma * term + base
            rhs = -term + base
            return lhs, mid, rhs

    raise ValueError(f"{theorem} requires a pair argument")


def check_bounds(
    theorem: TheoremId,
    q=None,
    pair: Optional[tuple] = None,
    mode: Mode = Mode.CERTIFIED,
    eps: Optional[float] = None,
) -> BoundsCheck:
    """Evaluate the three expressions of the chosen double inequality.

    strict_ok is True only when the enclosures separate strictly
    (lhs.hi < mid.lo and mid.hi < rhs.lo).  Overlapping enclosures yield
    INDETERMINATE, never a pass; with eps unset the check retries at
    decreasing widths before giving up.
    """
    eps_schedule = [eps] if eps is not None else [1e-8, 1e-12, 1e-16, 1e-20]

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
        for e in eps_schedule:
            w_r = e * h_s_est / 4.0
            w_s = e * h_s_est**2 / max(h_r_est, 1e-300) / 4.0
            h_r = eval_H(rp, w_r, mode=mode)
            h_s = eval_H(sp, w_s, mode=mode)
            with interval_precision(_bits_for_eps(e)):
                mid = h_r.value / h_s.value
            lhs, rhs = Enclosure(lhs_exact), Enclosure(1)
            status = _decide(lhs, mid, rhs)
            if status is not BoundsStatus.INDETERMINATE:
                break
        return BoundsCheck(theorem, argument, lhs, mid, rhs,
                           status, status is BoundsStatus.PASS, mode)

    if q is None:
        raise DomainError(f"{theorem} takes a point q")
    qp = QPoint.coerce(q)
    for e in eps_schedule:
        lhs, mid, rhs = _bounds_triple(theorem, qp, e, mode)
        status = _decide(lhs, mid, rhs)
        if status is not BoundsStatus.INDETERMINATE:
            break
    return BoundsCheck(theorem, (float(qp),), lhs, mid, rhs,
                       status, status is BoundsStatus.PASS, mode)


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
    """sqrt(5) * (T(c) - T(c^2)) with c = ((sqrt(5)-1)/2)^2, certified."""
    if not eps > 0:
        raise DomainError("eps must be positive")
    with interval_precision(working_precision()):
        sqrt5 = iv.sqrt(iv.mpf(5))
        c = ((sqrt5 - 1) / 2) ** 2
        t_c, _, _ = t_enclosure_for_interval(c, eps / 8.0)
        t_c2, _, _ = t_enclosure_for_interval(c ** 2, eps / 8.0)
        value = Enclosure(sqrt5) * (t_c - t_c2)
    return value
