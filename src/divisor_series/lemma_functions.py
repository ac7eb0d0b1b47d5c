"""The auxiliary functions behind the monotonicity analysis of F.

phi_q(x) = q^x (q^x - qx + x - 1) / (1 - q^x)^2 is the summand/integrand
whose rectangle- and trapezoid-rule errors (sigma, rho, and their partial
sums C, D) decide the sign of F'.  This module provides:

* phi and its first two derivatives in closed form, plus the factor a_q(x)
  carrying the sign of phi'' and the convexity witness b_q(x);
* the closed-form antiderivative Phi_q (so every integral of phi is an exact
  difference, no quadrature) and the constant A_q = integral of phi over
  [1, inf);
* the monotone-sandwich bounds W1, W2 (Lemma 2.4ii) and J1, J2 (Lemma 2.9),
  and on their bodies sigma_q(j), rho_q(j), C_q(n) and D_q(n): C_q(39) is
  W1 - W2 and D_q(10) is J1 - J2 + 0.036;
* the bound functions U, V, V', Theta_q, K_q, h1..h3, Delta, G, G0 used by
  the grid/Sturm verifications, with Delta, G0 and the pieces S, P of
  h2 = 1/S, h3 = P/S^2 also available as exact rational polynomials.

Formulas are written once against generic arithmetic: mpmath intervals give
the CERTIFIED enclosures and, run once at 53 bits, the FAST values (their
midpoints); DoubleInterval gives the cheap first pass of certified sandwich
checks.  NAMED_FUNCTIONS names each lemma-fn function with its arguments;
evaluate_named and its wrappers refuse by one rule, _checked.  On a
DoubleInterval q inside their guards two float-pair kernels replay a generic
body bit for bit on local pairs of doubles: _phi_integer_sum_doubles the phi
sum of W2 and J2, and _phi_integral_doubles the antiderivative difference of
W1 and J1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import inf, isfinite, nextafter
from typing import Callable

from .intervals import (
    DomainError,
    DoubleInterval,
    Enclosure,
    FAST_PRECISION,
    Mode,
    QPoint,
    const,
    exp_,
    interval_precision,
    ln,
    log1m,
    powr,
    product_ends,
    to_ivmpf,
    working_precision,
)
from .polynomials import Polynomial


# -- raw formulas (generic arithmetic) ----------------------------------------


def phi_raw(q, x):
    qx = powr(q, x)
    return qx * (qx - q * x + x - 1) / (1 - qx) ** 2


def _phi_prime_form(q, x, c):
    """-q^x log(q)/(1-q^x)^2 (-x(1-q)(1+q^x)/(1-q^x) + c - (1-q)/log q):
    phi'_q(x) at c = 1, Theta_q(x) at c = q."""
    qx = powr(q, x)
    lq = ln(q)
    inner = -x * (1 - q) * (1 + qx) / (1 - qx) + c - (1 - q) / lq
    return -qx * lq / (1 - qx) ** 2 * inner


def phi_prime_raw(q, x):
    return _phi_prime_form(q, x, 1)


def a_raw(q, x):
    """Sign carrier of phi'': phi''_q(x) = -q^x log(q) a_q(x) / (1-q^x)^4."""
    qx = powr(q, x)
    lq = ln(q)
    q2x = qx * qx
    return (1 - q) * (-x * (1 + 4 * qx + q2x) * lq - 2 * (1 - q2x) + (1 - q2x) * lq / (1 - q))


def phi_second_raw(q, x):
    qx = powr(q, x)
    lq = ln(q)
    return -qx * lq / (1 - qx) ** 4 * a_raw(q, x)


def b_raw(q, x):
    """Convexity witness of a_q: a''_q(x) = 4 q^x log^2(q) (1-q) b_q(x) > 0."""
    qx = powr(q, x)
    lq = ln(q)
    return -lq / (1 - q) * (x * (1 - q) * (1 + qx) + qx) + qx - 2


def phi_antiderivative_raw(q, x, lq=None):
    """Phi_q with Phi' = phi, Phi_q(1) = -A_q, Phi_q(x) -> 0 as x -> inf.
    A difference of antiderivatives passes lq = ln(q), taken once."""
    qx = powr(q, x)
    lq = ln(q) if lq is None else lq
    num = (q * qx - (1 + lq) * qx + 1 - q + lq) * log1m(qx) + x * qx * (1 - q) * lq
    return num / ((1 - qx) * lq ** 2)


def a_constant_raw(q):
    """A_q = integral_1^inf phi_q(x) dx in closed form."""
    lq = ln(q)
    return -((1 - q + lq) * log1m(q) + q * lq) / lq ** 2


def u_raw(q):
    """U(q) = C_q(1) * (q+1)^2 log^2(q)."""
    lq = ln(q)
    return -(1 - q * q + q * lq) * q * lq - (q + 1) ** 2 * (q - 1 - lq) * log1m(-q)


def v_raw(y):
    return 1 + (1 - 2 * y - y * y) * exp_(-y) - (1 + 2 * y) * exp_(-2 * y) - exp_(-3 * y)


def v_prime_run_raw(a, b):
    """V'(y) = v_prime_run_raw(y, y).  For sqrt(3) <= a <= y <= b it is a lower
    bound of V'(y): each term is a nonnegative factor increasing in y times a
    positive factor decreasing in y."""
    return (a * a - 3) * exp_(-b) + 4 * a * exp_(-2 * b) + 3 * exp_(-3 * b)


def v_prime_raw(y):
    return v_prime_run_raw(y, y)


def theta_raw(q, x):
    """Lower envelope of phi' past the inflection point; increasing in x."""
    return _phi_prime_form(q, x, q)


def k_raw(q, x):
    """K_q(x) = x q^x / (1-q^x)^2, strictly decreasing on (0, inf)."""
    qx = powr(q, x)
    return x * qx / (1 - qx) ** 2


def h1_raw(q):
    q14 = q ** 14
    return -q14 * ln(q) / (1 - q14)


def h2_raw(q):
    return (1 - q) / (1 - q ** 14)


def h3_raw(q):
    q14 = q ** 14
    return (14 * (1 - q) * (1 + q14) / (1 - q14) - q - 1) / (1 - q14)


def delta_raw(q):
    return 13 - 14 * q + 56 * q ** 14 - 56 * q ** 15 + 15 * q ** 28 - 14 * q ** 29


def g_raw(q):
    """G(q) = -log(q) Delta(q) + 2(1-q)(q^28 - 1); equals a_q(14) identically."""
    return -ln(q) * delta_raw(q) + 2 * (1 - q) * (q ** 28 - 1)


def g0_raw(q):
    """G0(q) = (1 + (11/20)(1-q)) Delta(q) + 2(q^28 - 1), an upper bound for
    G/(1-q) wherever Delta > 0 (via -log q <= (1-q) + (11/20)(1-q)^2)."""
    lin = 1 + const(Fraction(11, 20), q) * (1 - q)
    return lin * delta_raw(q) + 2 * (q ** 28 - 1)


def phi_integer_sum_raw(q, k_max: int, half_last: bool = False):
    """sum_{k=1}^{k_max} phi_q(k), the last term halved when half_last.

    Each term is taken in the positive form phi_q(k) = q^k N_k / S_k^2, with
    S_k = 1 + q + ... + q^(k-1) and N_k = S_1 + ... + S_(k-1): the numerator
    q^k - qk + k - 1 is (1-q)^2 N_k and the denominator (1-q^k)^2 is
    (1-q)^2 S_k^2.  q^k, S_k and N_k are running sums and products, so a term
    costs seven operations, and nothing cancels as q -> 1, where the term is
    (k-1)/(2k).  N_1 = 0 makes phi_q(1) vanish, so the sum starts at k = 2."""
    if q.__class__ is DoubleInterval and 2.0 ** -24 <= q.lo and q.hi <= 1 and k_max <= 40:
        return _phi_integer_sum_doubles(q, k_max, half_last)
    return _phi_integer_sum_generic(q, k_max, half_last)


def _phi_integer_sum_generic(q, k_max: int, half_last: bool):
    return _rule_sum(_phi_terms(q, k_max), half_last)


def _phi_terms(q, k_max: int) -> list:
    """[0 q, phi_q(2), ..., phi_q(k_max)], the terms of phi_integer_sum_raw."""
    terms, qk, s, n = [0 * q], q * q, 1 + q, 1
    for _ in range(2, k_max + 1):
        terms.append(qk * n / (s * s))
        n, s, qk = n + s, s + qk, qk * q
    return terms


def _rule_sum(terms: list, half_last: bool):
    """The terms left to right, the last of two or more halved when half_last."""
    total, last = terms[0], len(terms) - 1
    for k in range(1, last + 1):
        total = total + (terms[k] / 2 if half_last and k == last else terms[k])
    return total


def _phi_integer_sum_doubles(q: DoubleInterval, k_max: int, half_last: bool) -> DoubleInterval:
    """_phi_integer_sum_generic on DoubleInterval, bit for bit: round to nearest,
    then one nextafter outward.  2^-24 <= q.lo, q.hi <= 1 and k_max <= 40 keep
    every lower end above q.lo^41 / 42^2 > 2^-1000, a normal double, so the
    sign tables take lo = a*c, hi = b*d and lo = a/d, hi = b/c, and no end
    overflows.  0 * q is [-5e-324, 5e-324]; the int operands 1 and 2 are exact."""
    ql, qh, down, up = q.lo, q.hi, -inf, inf
    tl, th, nl, nh = -5e-324, 5e-324, 1.0, 1.0
    kl, kh = nextafter(ql * ql, down), nextafter(qh * qh, up)
    sl, sh = nextafter(ql + 1, down), nextafter(qh + 1, up)
    for k in range(2, k_max + 1):
        ml, mh = nextafter(kl * nl, down), nextafter(kh * nh, up)
        ssl, ssh = nextafter(sl * sl, down), nextafter(sh * sh, up)
        ul, uh = nextafter(ml / ssh, down), nextafter(mh / ssl, up)
        if half_last and k == k_max:
            ul, uh = nextafter(ul / 2, down), nextafter(uh / 2, up)
        tl, th = nextafter(tl + ul, down), nextafter(th + uh, up)
        nl, nh = nextafter(nl + sl, down), nextafter(nh + sh, up)
        sl, sh = nextafter(sl + kl, down), nextafter(sh + kh, up)
        kl, kh = nextafter(kl * ql, down), nextafter(kh * qh, up)
    return DoubleInterval(tl, th)


def phi_integral_raw(q, x: int):
    """integral of phi_q over [1, x], x a positive int, as the antiderivative
    difference Phi_q(x) - Phi_q(1) with one log(q)."""
    if q.__class__ is DoubleInterval and 2.0 ** -24 <= q.lo and q.hi < 1:
        return _phi_integral_doubles(q, x)
    return _phi_integral_generic(q, x)


def _phi_integral_generic(q, x: int):
    lq = ln(q)
    return phi_antiderivative_raw(q, x, lq) - phi_antiderivative_raw(q, 1, lq)


def _phi_integral_doubles(q: DoubleInterval, x: int) -> DoubleInterval:
    """_phi_integral_generic on DoubleInterval, bit for bit: each operation of
    phi_antiderivative_raw rounds to nearest, then moves one nextafter
    outward, with the sign-table corners of DoubleInterval; the three logs
    run DoubleInterval.log, each end one fixed-point step.  2^-24 <= q.lo and q.hi < 1 fix most corners:
    a product of ends in (0, 1) rounds strictly below the larger one, so
    every power q^k lies in (2^-1000, q.hi], 1 - q^k in [2^-54, 1 + 2^-52]
    and log(q) in [-17, -1e-16].  Then no end is infinite or NaN, every
    denominator is positive, and only (1 + log q) q^x, the product with
    log(1 - q^x) (both on product_ends) and the quotient take their corners
    by sign; the numerator of the quotient has a negative lower end, since
    Phi_q < 0 and every enclosure holds its value."""
    lq = q.log()
    ll, lh = lq.lo, lq.hi
    hl, hh = _phi_antiderivative_doubles(q, x, ll, lh)
    gl, gh = _phi_antiderivative_doubles(q, 1, ll, lh)
    return DoubleInterval(nextafter(hl - gh, -inf), nextafter(hh - gl, inf))


def _phi_antiderivative_doubles(q: DoubleInterval, x: int, ll: float, lh: float):
    """The ends of phi_antiderivative_raw(q, x, DoubleInterval(ll, lh)), for
    _phi_integral_doubles."""
    ql, qh, down, up = q.lo, q.hi, -inf, inf
    xl = xh = None  # qx = q**x by the binary powering of DoubleInterval.__pow__
    bl, bh, e = ql, qh, x
    while e:
        if e & 1:
            if xl is None:
                xl, xh = bl, bh
            else:
                xl, xh = nextafter(xl * bl, down), nextafter(xh * bh, up)
        e >>= 1
        if e:
            bl, bh = nextafter(bl * bl, down), nextafter(bh * bh, up)
    # p = q*qx - (1 + lq)*qx + 1 - q + lq, left to right
    al, ah = nextafter(ql * xl, down), nextafter(qh * xh, up)
    cl, ch = product_ends(nextafter(ll + 1, down), nextafter(lh + 1, up), xl, xh)
    cl, ch = nextafter(cl, down), nextafter(ch, up)
    pl, ph = nextafter(al - ch, down), nextafter(ah - cl, up)
    pl, ph = nextafter(pl + 1, down), nextafter(ph + 1, up)
    pl, ph = nextafter(pl - qh, down), nextafter(ph - ql, up)
    pl, ph = nextafter(pl + ll, down), nextafter(ph + lh, up)
    # m = p * log(1 - qx)
    ol, oh = nextafter(1 - xh, down), nextafter(1 - xl, up)
    log_o = DoubleInterval(ol, oh).log()
    ml, mh = product_ends(pl, ph, log_o.lo, log_o.hi)
    ml, mh = nextafter(ml, down), nextafter(mh, up)
    # num = m + x*qx*(1 - q)*lq, where x*qx*(1 - q) > 0 > lq
    tl, th = nextafter(xl * x, down), nextafter(xh * x, up)
    tl, th = nextafter(tl * nextafter(1 - qh, down), down), nextafter(th * nextafter(1 - ql, up), up)
    tl, th = nextafter(th * ll, down), nextafter(tl * lh, up)
    nl, nh = nextafter(ml + tl, down), nextafter(mh + th, up)
    # num / ((1 - qx) * lq**2): Phi_q < 0, so num encloses a negative value
    sl, sh = nextafter(lh * lh, down), nextafter(ll * ll, up)
    dl, dh = nextafter(ol * sl, down), nextafter(oh * sh, up)
    return nextafter(nl / dl, down), nextafter(nh / (dh if nh <= 0 else dl), up)


def w1_raw(q):
    """W1(q) = integral of phi over [1, 40] as an antiderivative difference."""
    return phi_integral_raw(q, 40)


def w2_raw(q):
    """W2(q) = sum_{k=1}^{40} phi_q(k).

    The k = 1 term vanishes (phi_q(1) = 0 identically), so this sum equals
    the rectangle-rule value sum_{k=2}^{40} phi_q(k) that pairs with W1 in
    the error sum C_q(39); phi_integer_sum_raw sums exactly those terms.
    """
    return phi_integer_sum_raw(q, 40)


#: The constant J1 subtracts: Lemma 2.9 bounds D_q(10) below by 0.036.
_J1_OFFSET = Fraction(36, 1000)


def j1_raw(q):
    """J1(q) = integral of phi over [1, 11] minus 0.036."""
    return phi_integral_raw(q, 11) - const(_J1_OFFSET, q)


def j2_raw(q):
    """J2(q) = sum_{k=1}^{10} phi_q(k) + phi_q(11)/2, for q < 1; at an exact
    q = 1 the positive form gives the limit 208609/55440."""
    return phi_integer_sum_raw(q, 11, half_last=True)


def delta_polynomial() -> Polynomial:
    coeffs = [0] * 30
    for k, c in ((0, 13), (1, -14), (14, 56), (15, -56), (28, 15), (29, -14)):
        coeffs[k] = c
    return Polynomial(coeffs)


def g0_polynomial() -> Polynomial:
    lin = Polynomial([Fraction(31, 20), Fraction(-11, 20)])  # 1 + (11/20)(1-q)
    shift = Polynomial([Fraction(-2)] + [Fraction(0)] * 27 + [Fraction(2)])  # 2(q^28-1)
    return lin * delta_polynomial() + shift


def h2_denominator_polynomial() -> Polynomial:
    """S = 1 + q + ... + q^13 = (1 - q^14)/(1 - q), so h2 = 1/S."""
    return Polynomial([1] * 14)


def h3_numerator_polynomial() -> Polynomial:
    """P = sum_{k=0}^{13} (13 - 2k) q^k = (14(1 + q^14) - (1 + q) S)/(1 - q),
    so h3 = P/S^2; the closed form is checked by comparing (1 - q) P with
    that numerator coefficient by coefficient."""
    s = h2_denominator_polynomial()
    p = Polynomial([13 - 2 * k for k in range(14)])
    numerator = Polynomial([14] + [0] * 13 + [14]) - Polynomial([1, 1]) * s
    if (Polynomial([1, -1]) * p).coeffs != numerator.coeffs:
        raise ArithmeticError("(1 - q) P is not the numerator of h3")
    return p


# -- one table and one entry for the named functions ---------------------------


def _on_intervals(mode: Mode, fn: Callable, *args):
    """A raw formula on its exact arguments, each lifted by to_ivmpf in one
    step to the tightest interval around it, at FAST_PRECISION bits (FAST) or
    the working precision (CERTIFIED)."""
    with interval_precision(FAST_PRECISION if mode is Mode.FAST else working_precision()):
        return fn(*[to_ivmpf(a) for a in args])


def _checked(name: str, mode: Mode, interval):
    """The one failure rule: an Enclosure with finite ends, or its midpoint in
    FAST mode, which must be a finite double; else a DomainError naming name."""
    value = Enclosure(interval)
    if not value.is_bounded():
        raise DomainError(f"{name} has no bounded enclosure in {mode.value} mode")
    if mode is Mode.FAST:
        value = value.midpoint()
        if not isfinite(value):
            raise DomainError(f"FAST {name} lies beyond the doubles; certified mode takes it")
    return value


def _correction_sums_raw(q, n: int):
    """sigma_q(j), rho_q(j) for j = 1..n, and C_q(n), D_q(n): the integral of
    phi over [1, n+1] less its rectangle and its trapezoid sum, in the order
    of w1_raw - w2_raw and phi_integral_raw(q, 11) - j2_raw."""
    if n < 1:
        raise DomainError("n must be >= 1")
    phis = _phi_terms(q, n + 1)
    lq = ln(q)
    caps = [phi_antiderivative_raw(q, j, lq) for j in range(1, n + 2)]
    steps = [(caps[j] - caps[j - 1], phis[j - 1], phis[j]) for j in range(1, n + 1)]
    sigma = [step - b for step, a, b in steps]
    rho = [step - (a + b) / 2 for step, a, b in steps]
    integral = caps[n] - caps[0]
    return sigma, rho, integral - _rule_sum(phis, False), integral - _rule_sum(phis, True)


#: Name -> (raw formula, its argument letters in order), for evaluate_named
#: and lemma-fn: q a point of (0, 1), x and y rationals, n an int.
NAMED_FUNCTIONS: dict[str, tuple[Callable, str]] = {
    "phi": (phi_raw, "qx"), "phi_prime": (phi_prime_raw, "qx"),
    "phi_second": (phi_second_raw, "qx"), "a": (a_raw, "qx"), "b": (b_raw, "qx"),
    "Phi": (phi_antiderivative_raw, "qx"), "A": (a_constant_raw, "q"), "U": (u_raw, "q"),
    "V": (v_raw, "y"), "V_prime": (v_prime_raw, "y"), "Theta": (theta_raw, "qx"),
    "K": (k_raw, "qx"), "h1": (h1_raw, "q"), "h2": (h2_raw, "q"), "h3": (h3_raw, "q"),
    "Delta": (delta_raw, "q"), "G": (g_raw, "q"), "G0": (g0_raw, "q"),
    "C": (lambda n, q: _correction_sums_raw(q, n)[2], "nq"),
    "D": (lambda n, q: _correction_sums_raw(q, n)[3], "nq"),
}


def evaluate_named(name: str, *, q=None, x=None, y=None, n=None, mode: Mode = Mode.FAST):
    """One named function as a float (FAST) or an Enclosure.  A DomainError
    naming it is raised where an argument is missing or one it does not take
    is given, where the formula raises, and by the failure rule of _checked."""
    if name not in NAMED_FUNCTIONS:
        raise DomainError(f"unknown function {name!r}")
    fn, letters = NAMED_FUNCTIONS[name]
    given, args = {"q": q, "x": x, "y": y, "n": n}, []
    for letter, value in given.items():
        if value is not None and letter not in letters:
            raise DomainError(f"{name} takes no --{letter}")
    for letter in letters:
        value = given[letter]
        if value is None:
            raise DomainError(f"{name} needs --{letter}")
        if letter == "n":
            fn = partial(fn, int(value))
        else:
            args.append(QPoint.coerce(value).value if letter == "q" else Fraction(value))
    try:
        interval = _on_intervals(mode, fn, *args)
    except (ArithmeticError, ValueError) as exc:
        raise DomainError(f"{name} has no value at these arguments: {exc}") from None
    return _checked(name, mode, interval)


def phi_antiderivative(q, x, mode: Mode = Mode.FAST):
    qp = QPoint.coerce(q)
    if x < 1:
        raise DomainError("x must be >= 1")
    return evaluate_named("Phi", q=qp, x=x, mode=mode)


@dataclass(frozen=True)
class CorrectionSums:
    """Rectangle (sigma) and trapezoid (rho) errors of integral phi over
    [j, j+1], and their partial sums C_q(n), D_q(n)."""

    sigma: tuple
    rho: tuple
    c_n: object
    d_n: object


def correction_sums(q, n: int, mode: Mode = Mode.FAST) -> CorrectionSums:
    """Enclosures of sigma, rho, C_q(n) and D_q(n), or their midpoints (FAST),
    under the failure rule of _checked."""
    qv = QPoint.coerce(q).value
    sigma, rho, c_n, d_n = _on_intervals(mode, partial(_correction_sums_raw, n=n), qv)
    return CorrectionSums(tuple(_checked("sigma", mode, v) for v in sigma),
                          tuple(_checked("rho", mode, v) for v in rho),
                          _checked("C", mode, c_n), _checked("D", mode, d_n))
