"""Dense univariate polynomials over the rationals and Sturm root counting.

Sturm chains run on integers (Brown and Traub, "On Euclid's algorithm and the
theory of subresultants", JACM 18, 1971): the denominators are cleared once,
each remainder is a pseudo-remainder with the positive multiplier
|lc|^(m-n+1), so its signs are those of the Euclidean remainder, and is
reduced to its primitive part by integer gcd, which stops the coefficient
blow-up of degree-29 chains.  Signs at a rational n/d come from homogeneous
integer Horner, d^deg p(n/d).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence, Union

from .intervals import DomainError

Rational = Union[int, Fraction]


class Polynomial:
    """Exact-rational polynomial, coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Rational]):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [Fraction(0)]
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def __call__(self, x: Rational) -> Fraction:
        x = x if isinstance(x, Fraction) else Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return Polynomial([x + y for x, y in zip(a, b)])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1)

    def scale(self, factor: Rational) -> "Polynomial":
        f = Fraction(factor)
        return Polynomial([f * c for c in self.coeffs])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            for j, d in enumerate(other.coeffs):
                if d:
                    out[i + j] += c * d
        return Polynomial(out)

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial([Fraction(0)])
        return Polynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def divmod(self, divisor: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dcs = divisor.coeffs
        dd = divisor.degree
        lead = dcs[-1]
        quot = [Fraction(0)] * max(len(rem) - dd, 1)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if not c:
                continue
            f = c / lead
            quot[k - dd] = f
            for j in range(dd + 1):
                rem[k - dd + j] -= f * dcs[j]
        return Polynomial(quot), Polynomial(rem[:dd] if dd else [Fraction(0)])

    def __repr__(self) -> str:
        return f"Polynomial(degree={self.degree}, {list(self.coeffs)})"


def _integer_primitive(cs: Sequence[int]) -> list[int]:
    """Integer coefficients divided by their gcd; signs and roots kept."""
    g = 0
    for c in cs:
        g = gcd(g, c)
    return [c // g for c in cs] if g > 1 else list(cs)


def _integer_coefficients(p: Polynomial) -> list[int]:
    """The primitive integer multiple of p: denominators cleared by their lcm."""
    den = 1
    for c in p.coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    return _integer_primitive([c.numerator * (den // c.denominator) for c in p.coeffs])


def _negated_pseudo_remainder(f: list[int], g: list[int]) -> list[int]:
    """-|lc(g)|^(deg f - deg g + 1) (f mod g) on integers, trailing zeros
    dropped: a positive multiple of the negated Euclidean remainder."""
    r, n, lc = list(f), len(g) - 1, g[-1]
    mult, sign = abs(lc), 1 if lc > 0 else -1
    for k in range(len(r) - 1, n - 1, -1):
        c = sign * r.pop()
        r = [mult * v for v in r]
        for j in range(n):
            r[k - n + j] -= c * g[j]
    while r and not r[-1]:
        r.pop()
    return [-v for v in r]


def _integer_sturm_chain(cs: list[int]) -> list[list[int]]:
    """The Sturm chain of a primitive integer polynomial (coefficients lowest
    degree first), each element a primitive integer polynomial."""
    chain = [cs]
    d = _integer_primitive([k * c for k, c in enumerate(cs)][1:])
    if any(d):
        chain.append(d)
    while len(chain[-1]) > 1:
        rem = _negated_pseudo_remainder(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(_integer_primitive(rem))
    return chain


def _sign_at(cs: Sequence[int], num: int, den: int) -> int:
    """The sign of the integer polynomial cs at num/den, den > 0, by
    homogeneous Horner: den^deg * p(num/den) on integers."""
    acc, scale = 0, 1
    for c in reversed(cs):
        acc = acc * num + c * scale
        scale *= den
    return (acc > 0) - (acc < 0)


def _deflate(cs: list[int], num: int, den: int) -> list[int]:
    """cs divided by den*x - num, a factor of cs: the quotient has integer
    coefficients (Gauss's lemma, gcd(num, den) = 1)."""
    quot, carry = [0] * (len(cs) - 1), 0
    for i in range(len(cs) - 1, 0, -1):
        carry = (cs[i] + carry) // den
        quot[i - 1] = carry
        carry *= num
    return quot


def _variations(chain: Sequence[Sequence[int]], num: int, den: int) -> int:
    signs = [s for s in (_sign_at(cs, num, den) for cs in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_root_count(p: Polynomial, a: Rational, b: Rational) -> int:
    """Number of distinct real roots of p in the half-open interval (a, b].

    Endpoint roots are handled exactly: roots at b are counted by deflating
    the factor (x - b) and adding one; roots at a are deflated away (they lie
    outside (a, b]).  With both endpoint values nonzero this is the classic
    sign-variation count V(a) - V(b).
    """
    if p.is_zero:
        raise DomainError("the zero polynomial has no root count")
    a = Fraction(a)
    b = Fraction(b)
    if not a < b:
        raise DomainError("need a < b")
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
    cs = _integer_coefficients(p)
    count = 0
    if _sign_at(cs, bn, bd) == 0:
        count += 1
        while len(cs) > 1 and _sign_at(cs, bn, bd) == 0:
            cs = _deflate(cs, bn, bd)
    while len(cs) > 1 and _sign_at(cs, an, ad) == 0:
        cs = _deflate(cs, an, ad)
    if len(cs) == 1:
        return count
    chain = _integer_sturm_chain(_integer_primitive(cs))
    return count + _variations(chain, an, ad) - _variations(chain, bn, bd)
