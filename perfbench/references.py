"""Reference values for the pointwise checks, computed without divisor_series.

Each reference is an mpmath float at twice the working precision the request
calls for, from a different formula than the library's default:

* T(q) from Clausen's series sum_k q^{k^2} (1+q^k)/(1-q^k), so LAMBERT and
  DIVISOR requests are checked against another series;
* psi_q(x) from the same Clausen-type rearrangement of the library's sum
  sum_{k>=1} q^{kx}/(1-q^k) (see :func:`clausen_sum`), which converges like
  q^{k^2} instead of q^k;
* H and F from T by their definitions.

:func:`reference` returns the value with an error radius that dominates the
reference's own rounding and truncation error, both as exact rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import mp


def request_bits(eps: float) -> int:
    """Working precision a request at width eps calls for."""
    return max(128, math.ceil(-math.log2(eps)) + 32)


def to_fraction(x) -> Fraction:
    """Exact value of a finite mpmath float."""
    sign, man, exp, _ = x._mpf_
    value = Fraction(man) * Fraction(2) ** exp
    return -value if sign else value


def clausen_sum(q: Fraction, x: Fraction, prec: int):
    """S = sum_{k>=1} q^{kx}/(1-q^k) for x >= 1 in Clausen's form.

    Expanding 1/(1-q^k) gives S = sum_{k,j>=1} a^k q^{kj} with a = q^(x-1);
    splitting the pairs at j = k gives
    S = sum_k a^k q^{k^2}/(1-q^k) + (a q^k)^{k+1}/(1-a q^k), which is
    Clausen's series for T when x = 1.  Both parts shrink by at most q^{2k+1}
    from k to k+1, so once that ratio is at most 1/2 the tail is below the
    last term; the sum stops when that term is below 2^-prec of the total.
    """
    with mp.workprec(prec):
        qm = mp.mpf(q.numerator) / q.denominator
        a = mp.power(qm, mp.mpf(x.numerator) / x.denominator - 1)
        total = mp.mpf(0)
        k = 1
        while True:
            qk = qm**k
            aqk = a * qk
            term = a**k * qm ** (k * k) / (1 - qk) + aqk ** (k + 1) / (1 - aqk)
            total += term
            if term < total * mp.ldexp(1, -prec) and qm ** (2 * k + 1) <= 0.5:
                return +total
            k += 1


def reference(fn: str, q: Fraction, eps: float, x: Fraction = Fraction(1)):
    """(value, radius) of T, psi, H or F at q as exact rationals; the true
    value lies within radius of value."""
    bits = request_bits(eps)
    prec = 2 * bits
    with mp.workprec(prec):
        qm = mp.mpf(q.numerator) / q.denominator
        if fn == "psi":
            value = -mp.log(1 - qm) + mp.log(qm) * clausen_sum(q, x, prec)
        else:
            value = clausen_sum(q, Fraction(1), prec)
            if fn in ("H", "F"):
                value -= mp.log(1 - qm) / mp.log(qm)
            if fn == "F":
                value *= (1 - qm) / qm
        value = to_fraction(value)
    radius = Fraction(1, 2 ** (3 * bits // 2)) * max(1, abs(value))
    return value, radius
