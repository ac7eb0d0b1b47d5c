"""The auxiliary functions behind the monotonicity analysis of F.

phi_q(x) = q^x (q^x - qx + x - 1) / (1 - q^x)^2 is the summand/integrand
whose rectangle- and trapezoid-rule errors (sigma, rho, and their partial
sums C, D) decide the sign of F'.  This module provides:

* phi and its first two derivatives in closed form, plus the factor a_q(x)
  carrying the sign of phi'' and the convexity witness b_q(x);
* the closed-form antiderivative Phi_q (so the integrals in sigma/rho are
  exact differences, no quadrature in the verified path) and the constant
  A_q = integral of phi over [1, inf);
* the correction sums sigma_q(j), rho_q(j), C_q(n), D_q(n);
* the monotone-sandwich bounds W1, W2 (Lemma 2.4ii) and J1, J2 (Lemma 2.9);
* the critical points M_q (maximizer) and N_q (inflection) by bracketed
  bisection;
* the bound functions U, V, V', Theta_q, K_q, h1..h3, Delta, G, G0 used by
  the grid/Sturm verifications, with Delta and G0 also available as exact
  rational polynomials.

Formulas are written once against generic arithmetic: feed floats for FAST
results, mpmath intervals for CERTIFIED enclosures.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .intervals import (
    BracketSearchError,
    DomainError,
    Enclosure,
    Mode,
    const,
    exp_,
    interval_precision,
    lift,
    ln,
    powr,
    working_precision,
)
from .polynomials import Polynomial
from .special_eval import QPoint


# -- raw formulas (generic arithmetic) ----------------------------------------


def phi_raw(q, x):
    qx = powr(q, x)
    return qx * (qx - q * x + x - 1) / (1 - qx) ** 2


def phi_prime_raw(q, x):
    qx = powr(q, x)
    lq = ln(q)
    inner = -x * (1 - q) * (1 + qx) / (1 - qx) + 1 - (1 - q) / lq
    return -qx * lq / (1 - qx) ** 2 * inner


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


def phi_antiderivative_raw(q, x):
    """Phi_q with Phi' = phi, Phi_q(1) = -A_q, Phi_q(x) -> 0 as x -> inf."""
    qx = powr(q, x)
    lq = ln(q)
    num = (q * qx - (1 + lq) * qx + 1 - q + lq) * ln(1 - qx) + x * qx * (1 - q) * lq
    return num / ((1 - qx) * lq ** 2)


def a_constant_raw(q):
    """A_q = integral_1^inf phi_q(x) dx in closed form."""
    lq = ln(q)
    return -((1 - q + lq) * ln(1 - q) + q * lq) / lq ** 2


def u_raw(q):
    """U(q) = C_q(1) * (q+1)^2 log^2(q)."""
    lq = ln(q)
    return -(1 - q * q + q * lq) * q * lq - (q + 1) ** 2 * (q - 1 - lq) * ln(1 + q)


def v_raw(y):
    return 1 + (1 - 2 * y - y * y) * exp_(-y) - (1 + 2 * y) * exp_(-2 * y) - exp_(-3 * y)


def v_prime_raw(y):
    return (y * y - 3) * exp_(-y) + 4 * y * exp_(-2 * y) + 3 * exp_(-3 * y)


def theta_raw(q, x):
    """Lower envelope of phi' past the inflection point; increasing in x."""
    qx = powr(q, x)
    lq = ln(q)
    inner = -x * (1 - q) * (1 + qx) / (1 - qx) + q - (1 - q) / lq
    return -qx * lq / (1 - qx) ** 2 * inner


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

    q^k comes from one running product rather than a power per term; this
    sum dominates the cost of the Lemma 2.4ii grid.
    """
    total = 0 * q
    qk = q
    for k in range(1, k_max + 1):
        term = qk * (qk - q * k + (k - 1)) / (1 - qk) ** 2
        if half_last and k == k_max:
            term = term / 2
        total = total + term
        qk = qk * q
    return total


def w1_raw(q):
    """W1(q) = integral of phi over [1, 40] as an antiderivative difference."""
    return phi_antiderivative_raw(q, 40) - phi_antiderivative_raw(q, 1)


def w2_raw(q):
    """W2(q) = sum_{k=1}^{40} phi_q(k).

    The k = 1 term vanishes (phi_q(1) = 0 identically), so this sum equals
    the rectangle-rule value sum_{k=2}^{40} phi_q(k) that pairs with W1 in
    the error sum C_q(39); starting at k = 1 keeps the loop uniform.
    """
    return phi_integer_sum_raw(q, 40)


def j1_raw(q):
    """J1(q) = integral of phi over [1, 11] minus 0.036."""
    integral = phi_antiderivative_raw(q, 11) - phi_antiderivative_raw(q, 1)
    return integral - const(Fraction(36, 1000), q)


def j2_raw(q):
    """J2(q) = sum_{k=1}^{10} phi_q(k) + phi_q(11)/2, for q < 1."""
    return phi_integer_sum_raw(q, 11, half_last=True)


def phi_limit_at_one(x: Fraction) -> Fraction:
    """lim_{q->1-} phi_q(x) = (x-1)/(2x), exact."""
    x = Fraction(x)
    return (x - 1) / (2 * x)


def delta_polynomial() -> Polynomial:
    coeffs = [Fraction(0)] * 30
    coeffs[0] = Fraction(13)
    coeffs[1] = Fraction(-14)
    coeffs[14] = Fraction(56)
    coeffs[15] = Fraction(-56)
    coeffs[28] = Fraction(15)
    coeffs[29] = Fraction(-14)
    return Polynomial(coeffs)


def g0_polynomial() -> Polynomial:
    lin = Polynomial([Fraction(31, 20), Fraction(-11, 20)])  # 1 + (11/20)(1-q)
    shift = Polynomial([Fraction(-2)] + [Fraction(0)] * 27 + [Fraction(2)])  # 2(q^28-1)
    return lin * delta_polynomial() + shift


# -- mode-dispatching wrappers -------------------------------------------------


def _in_mode(mode: Mode, fn: Callable, *args):
    """Run a raw formula on floats (FAST) or as a certified Enclosure."""
    if mode is Mode.FAST:
        return fn(*[lift(a, mode) for a in args])
    with interval_precision(working_precision()):
        return Enclosure(fn(*[lift(a, mode) for a in args]))


@dataclass(frozen=True)
class PhiBundle:
    """phi, phi', a_q and phi'' at one (q, x); floats or Enclosures by mode."""

    phi: object
    phi_prime: object
    a_value: object
    phi_second: object


def phi_bundle(q, x, mode: Mode = Mode.FAST) -> PhiBundle:
    qp = QPoint.coerce(q)
    if x < 1:
        raise DomainError("x must be >= 1")
    return PhiBundle(
        phi=_in_mode(mode, phi_raw, qp.value, x),
        phi_prime=_in_mode(mode, phi_prime_raw, qp.value, x),
        a_value=_in_mode(mode, a_raw, qp.value, x),
        phi_second=_in_mode(mode, phi_second_raw, qp.value, x),
    )


def phi_antiderivative(q, x, mode: Mode = Mode.FAST):
    qp = QPoint.coerce(q)
    if x < 1:
        raise DomainError("x must be >= 1")
    return _in_mode(mode, phi_antiderivative_raw, qp.value, x)


@dataclass(frozen=True)
class CorrectionSums:
    """Rectangle (sigma) and trapezoid (rho) errors of integral phi over
    [j, j+1], and their partial sums C_q(n), D_q(n)."""

    sigma: tuple
    rho: tuple
    c_n: object
    d_n: object


def correction_sums(q, n: int, mode: Mode = Mode.FAST) -> CorrectionSums:
    """sigma_q(j), rho_q(j) for j = 1..n via exact antiderivative differences."""
    qp = QPoint.coerce(q)
    if n < 1:
        raise DomainError("n must be >= 1")

    def compute(qv):
        phis = [phi_raw(qv, j) for j in range(1, n + 2)]
        caps = [phi_antiderivative_raw(qv, j) for j in range(1, n + 2)]
        sigma, rho = [], []
        for j in range(1, n + 1):
            integral = caps[j] - caps[j - 1]
            sigma.append(integral - phis[j])
            rho.append(integral - (phis[j - 1] + phis[j]) / 2)
        return sigma, rho

    if mode is Mode.FAST:
        sigma, rho = compute(float(qp))
        return CorrectionSums(tuple(sigma), tuple(rho), sum(sigma), sum(rho))
    with interval_precision(working_precision()):
        sigma, rho = compute(qp.to_ivmpf())
        sigma_enc = tuple(Enclosure(s) for s in sigma)
        rho_enc = tuple(Enclosure(r) for r in rho)
        c_n = Enclosure(sum(sigma[1:], sigma[0]))
        d_n = Enclosure(sum(rho[1:], rho[0]))
    return CorrectionSums(sigma_enc, rho_enc, c_n, d_n)


# -- critical points -----------------------------------------------------------


@dataclass(frozen=True)
class CriticalPoints:
    """m_q < n_q: maximizer of phi and inflection point, with 1 < m_q < n_q."""

    m_q: float
    n_q: float
    bracket_width: float


_BISECTION_WIDTH = 1e-10
_BRACKET_START = 64.0
_BRACKET_LIMIT = 2.0 ** 20


def _bracket_and_bisect(f: Callable[[float], float], label: str) -> float:
    """Bisect to the sign change of f, expanding the bracket [1, X] by
    doubling X until f changes sign (X capped at 2^20)."""
    left = 1.0
    f_left = f(left)
    right = _BRACKET_START
    while True:
        f_right = f(right)
        if f_left * f_right < 0:
            break
        if right >= _BRACKET_LIMIT:
            raise BracketSearchError(f"no sign change of {label} on [1, {right}]")
        right *= 2.0
    while right - left > _BISECTION_WIDTH:
        mid = 0.5 * (left + right)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if f_left * f_mid < 0:
            right = mid
        else:
            left, f_left = mid, f_mid
    return 0.5 * (left + right)


def critical_points(q) -> CriticalPoints:
    """Locate M_q (phi' sign change) and N_q (a_q sign change) by bisection.

    Diagnostic-grade: plain float arithmetic, bracket verified post hoc by a
    sign check on each side of the returned point.
    """
    qp = QPoint.coerce(q)
    qf = float(qp)
    m_q = _bracket_and_bisect(lambda x: phi_prime_raw(qf, x), "phi'")
    n_q = _bracket_and_bisect(lambda x: a_raw(qf, x), "a_q")
    if not (1.0 < m_q < n_q):
        raise ArithmeticError(f"critical points out of order: m={m_q}, n={n_q}")
    return CriticalPoints(m_q=m_q, n_q=n_q, bracket_width=_BISECTION_WIDTH)


# -- named evaluator table (CLI surface) ---------------------------------------


def aux_bound_functions() -> dict[str, Callable]:
    """Name -> raw formula for the scalar bound functions.

    Single-argument entries take q (or y for V, V'); two-argument entries
    take (q, x).
    """
    return {
        "phi": phi_raw,
        "phi_prime": phi_prime_raw,
        "phi_second": phi_second_raw,
        "a": a_raw,
        "b": b_raw,
        "Phi": phi_antiderivative_raw,
        "A": a_constant_raw,
        "U": u_raw,
        "V": v_raw,
        "V_prime": v_prime_raw,
        "Theta": theta_raw,
        "K": k_raw,
        "h1": h1_raw,
        "h2": h2_raw,
        "h3": h3_raw,
        "Delta": delta_raw,
        "G": g_raw,
        "G0": g0_raw,
    }


_TWO_ARG = {"phi", "phi_prime", "phi_second", "a", "b", "Phi", "Theta", "K"}
_Y_ARG = {"V", "V_prime"}


def evaluate_named(name: str, *, q=None, x=None, y=None, n=None, mode: Mode = Mode.FAST):
    """Evaluate one named function; float in FAST mode, Enclosure otherwise."""
    if name in ("C", "D"):
        if q is None or n is None:
            raise DomainError(f"{name} needs --q and --n")
        sums = correction_sums(q, int(n), mode)
        return sums.c_n if name == "C" else sums.d_n
    table = aux_bound_functions()
    if name not in table:
        raise DomainError(f"unknown function {name!r}")
    fn = table[name]
    if name in _Y_ARG:
        if y is None:
            raise DomainError(f"{name} needs --y")
        return _in_mode(mode, fn, Fraction(y) if not isinstance(y, Fraction) else y)
    qp = QPoint.coerce(q) if q is not None else None
    if qp is None:
        raise DomainError(f"{name} needs --q")
    if name in _TWO_ARG:
        if x is None:
            raise DomainError(f"{name} needs --x")
        return _in_mode(mode, fn, qp.value, Fraction(x) if not isinstance(x, Fraction) else x)
    return _in_mode(mode, fn, qp.value)
