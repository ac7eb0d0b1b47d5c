"""Sturm root counting against a sampling-plus-bisection oracle."""

import random
from fractions import Fraction
from math import gcd

import pytest

from divisor_series.intervals import DomainError
from divisor_series.lemma_functions import (
    delta_polynomial,
    g0_polynomial,
    h2_denominator_polynomial,
    h3_numerator_polynomial,
)
from divisor_series.polynomials import Polynomial, sturm_root_count
from oracles import poly_divmod, sturm_chain


def poly_from_roots(roots) -> Polynomial:
    p = Polynomial([Fraction(1)])
    for r in roots:
        p = p * Polynomial([-Fraction(r), Fraction(1)])
    return p


def sampling_root_count(p: Polynomial, a: Fraction, b: Fraction, samples: int = 2000) -> int:
    """Oracle: sign changes of p on a fine rational grid over (a, b], each
    refined by bisection to confirm a genuine crossing; exact zeros at sample
    points are counted once.  Exact for squarefree p once the grid separates
    the roots."""
    a, b = Fraction(a), Fraction(b)
    step = (b - a) / samples
    count = 0
    prev_x, prev_v = a, p(a)
    for k in range(1, samples + 1):
        x = a + k * step
        v = p(x)
        if v == 0:
            count += 1  # root exactly at a sample point of (a, b]
        elif prev_v != 0 and (prev_v < 0) != (v < 0):
            lo, hi = prev_x, x
            for _ in range(60):  # bisection refinement
                mid = (lo + hi) / 2
                vm = p(mid)
                if vm == 0:
                    break
                if (p(lo) < 0) != (vm < 0):
                    hi = mid
                else:
                    lo = mid
            assert hi - lo <= step
            count += 1
        prev_x, prev_v = x, v
    return count


def test_basic_roots():
    p = Polynomial([-2, 0, 1])  # x^2 - 2
    assert sturm_root_count(p, 0, 2) == 1
    assert sturm_root_count(p, -2, 2) == 2
    assert sturm_root_count(p, 2, 3) == 0


def test_endpoint_root_conventions():
    p = poly_from_roots([1, 2])
    # (a, b] convention: root at b counts, root at a does not
    assert sturm_root_count(p, Fraction(1), Fraction(2)) == 1
    assert sturm_root_count(p, Fraction(0), Fraction(2)) == 2
    assert sturm_root_count(p, Fraction(0), Fraction(1)) == 1
    assert sturm_root_count(p, Fraction(3, 2), Fraction(7, 4)) == 0


def test_multiple_roots_counted_once():
    p = poly_from_roots([1, 1, 2])  # (x-1)^2 (x-2): distinct roots {1, 2}
    assert sturm_root_count(p, 0, 3) == 2


def test_zero_polynomial_rejected():
    with pytest.raises(DomainError):
        sturm_root_count(Polynomial([0]), 0, 1)


def test_chain_reduces_to_primitive_parts():
    p = poly_from_roots([Fraction(1, 3), Fraction(5, 7), 2])
    for element in sturm_chain(p):
        denominators = [c.denominator for c in element.coeffs if c]
        numerators = [abs(c.numerator) for c in element.coeffs if c]
        from math import gcd
        g = 0
        for n in numerators:
            g = gcd(g, n)
        assert g == 1 and all(d == 1 for d in denominators)


def test_random_polynomials_against_sampling_oracle():
    rng = random.Random(20260810)
    for _ in range(20):
        degree = rng.randint(2, 10)
        roots = set()
        while len(roots) < degree:
            roots.add(Fraction(rng.randint(-12, 12), rng.randint(1, 6)))
        roots = sorted(roots)
        p = poly_from_roots(roots)
        a = Fraction(rng.randint(-15, -13))
        b = Fraction(rng.randint(13, 15))
        expected = sum(1 for r in roots if a < r <= b)
        assert sturm_root_count(p, a, b) == expected
        assert sampling_root_count(p, a, b) == expected


def test_division_and_evaluation():
    p = poly_from_roots([1, 2, 3])
    q, r = poly_divmod(p, Polynomial([-1, 1]))
    assert r.is_zero
    assert q.coeffs == poly_from_roots([2, 3]).coeffs
    assert p(Fraction(5, 2)) == Fraction(3, 2) * Fraction(1, 2) * Fraction(-1, 2)


# -- the integer chain against a Fraction-chain reference ------------------------


def _fraction_primitive(p: Polynomial) -> Polynomial:
    num, den = 0, 1
    for c in p.coeffs:
        num = gcd(num, c.numerator)
        den = den * c.denominator // gcd(den, c.denominator)
    return p.scale(Fraction(den, num)) if num else p


def fraction_sturm_chain(p: Polynomial) -> list[Polynomial]:
    """Reference: the Sturm chain by Fraction Euclidean remainders, each
    negated and reduced to its primitive part."""
    chain = [_fraction_primitive(p)]
    d = p.derivative()
    if not d.is_zero:
        chain.append(_fraction_primitive(d))
    while chain[-1].degree > 0:
        _, rem = poly_divmod(chain[-2], chain[-1])
        if rem.is_zero:
            break
        chain.append(_fraction_primitive(rem.scale(-1)))
    return chain


def fraction_root_count(p: Polynomial, a: Fraction, b: Fraction) -> int:
    """Reference count of the roots in (a, b]: deflate the endpoint roots in
    Fractions, then V(a) - V(b) over the Fraction chain."""
    count = 0
    if p(b) == 0:
        count += 1
        while p(b) == 0 and p.degree > 0:
            p, _ = poly_divmod(p, Polynomial([-b, 1]))
    while p(a) == 0 and p.degree > 0:
        p, _ = poly_divmod(p, Polynomial([-a, 1]))
    if p.degree == 0:
        return count

    def variations(x):
        signs = [v > 0 for v in (e(x) for e in chain) if v]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    chain = fraction_sturm_chain(p)
    return count + variations(a) - variations(b)


def _sparse_polynomial(rng: random.Random) -> Polynomial:
    """A seeded rational polynomial of degree 3..14 with few nonzero terms,
    so that its remainder sequence skips degrees, and a leading coefficient
    of either sign."""
    degree = rng.randint(3, 14)
    coeffs = [Fraction(0)] * (degree + 1)
    for k in rng.sample(range(degree), rng.randint(1, 3)):
        coeffs[k] = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
    coeffs[degree] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 5))
    return Polynomial(coeffs)


def test_integer_chain_is_the_fraction_chain_on_sparse_polynomials():
    """The integer pseudo-remainder chain equals the Fraction chain element by
    element, and the counts agree, on seeded sparse polynomials with negative
    leading coefficients and degree gaps of 2 or more."""
    rng = random.Random(20261020)
    negative_leads = gaps = 0
    for _ in range(80):
        p = _sparse_polynomial(rng)
        reference = fraction_sturm_chain(p)
        assert [c.coeffs for c in sturm_chain(p)] == [c.coeffs for c in reference], p
        degrees = [e.degree for e in reference]
        gaps += any(s - t >= 2 for s, t in zip(degrees, degrees[1:]))
        negative_leads += any(e.coeffs[-1] < 0 for e in reference[1:-1])
        a = Fraction(rng.randint(-40, 10), rng.randint(1, 7))
        b = a + Fraction(rng.randint(1, 60), rng.randint(1, 7))
        assert sturm_root_count(p, a, b) == fraction_root_count(p, a, b), (p, a, b)
    assert gaps >= 20 and negative_leads >= 20


def test_integer_chain_counts_roots_at_the_endpoints():
    """Seeded polynomials with known rational roots, times a negative constant
    and x^2 + 1, counted on (a, b] with a and b at roots: the integer count,
    the Fraction-chain reference and the sampling oracle agree."""
    rng = random.Random(20261021)
    for _ in range(8):
        roots = sorted({Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(5)})
        p = poly_from_roots(roots) * Polynomial([1, 0, 1]) * Polynomial([Fraction(-3, 2)])
        assert p.coeffs[-1] < 0
        a, b = roots[0], roots[-1]
        expected = len(roots) - 1
        assert sturm_root_count(p, a, b) == expected
        assert fraction_root_count(p, a, b) == expected
        assert sampling_root_count(p, a, b, samples=600) == expected
        assert sturm_root_count(p * p, a, b) == expected  # repeated endpoint roots


def _d3() -> Polynomial:
    s, p = h2_denominator_polynomial(), h3_numerator_polynomial()
    return p.derivative() * s - (p * s.derivative()).scale(2)


@pytest.mark.parametrize("poly, a, b, count", [
    (delta_polynomial, Fraction(91, 100), 1, 1),
    (g0_polynomial, Fraction(91, 100), 1, 1),
    (_d3, 0, 1, 0),
])
def test_lemma_polynomials_count_as_the_fraction_chain(poly, a, b, count):
    """Delta and G0 on (0.91, 1] (2.5) and D3 on (0, 1] (2.8): the integer chain
    gives the Fraction chain's elements and count."""
    p = poly()
    assert [c.coeffs for c in sturm_chain(p)] == [c.coeffs for c in fraction_sturm_chain(p)]
    assert sturm_root_count(p, a, b) == fraction_root_count(p, Fraction(a), Fraction(b)) == count
