"""Exact series arithmetic and the coefficient-level identities for T."""

import random
from fractions import Fraction

import pytest

from divisor_series.divisor_core import divisor_sieve
from divisor_series.intervals import DomainError
from divisor_series.power_series import (
    RepresentationId,
    TruncatedSeries,
    build_representation,
    first_mismatch,
    identity_report,
    q_pochhammer,
)
from oracles import (
    divisor_difference_series,
    divisor_log_convolution_series,
    divisor_partial_sum_series,
)


def partition_count_oracle(n_max: int) -> list[int]:
    """Unrestricted partition numbers by the classic coin-DP (independent of
    the package's distinct-parts code)."""
    p = [0] * (n_max + 1)
    p[0] = 1
    for part in range(1, n_max + 1):
        for n in range(part, n_max + 1):
            p[n] += p[n - part]
    return p


def random_series(rng: random.Random, order: int, nonzero_constant=False) -> TruncatedSeries:
    coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(order + 1)]
    if nonzero_constant and coeffs[0] == 0:
        coeffs[0] = Fraction(1)
    return TruncatedSeries(coeffs)


# -- arithmetic ----------------------------------------------------------------


def test_multiply_basic():
    one_plus = TruncatedSeries([1, 1, 0])
    one_minus = TruncatedSeries([1, -1, 0])
    assert (one_plus * one_minus).coeffs == (1, 0, -1)


def test_multiply_identity_element():
    rng = random.Random(1)
    a = random_series(rng, 12)
    assert a * TruncatedSeries.one(12) == a


def test_geometric_telescopes():
    n = 10
    geometric = TruncatedSeries([1] * (n + 1))
    one_minus_q = TruncatedSeries.one(n) - TruncatedSeries.monomial(1, 1, n)
    assert geometric * one_minus_q == TruncatedSeries.one(n)


def test_multiply_commutative_associative():
    rng = random.Random(7)
    for _ in range(20):
        a, b, c = (random_series(rng, 8) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_reciprocal_of_one_minus_q():
    n = 4
    s = TruncatedSeries.one(n) - TruncatedSeries.monomial(1, 1, n)
    assert s.reciprocal().coeffs == (1, 1, 1, 1, 1)


def test_reciprocal_involution():
    rng = random.Random(3)
    for _ in range(10):
        a = random_series(rng, 9, nonzero_constant=True)
        assert a.reciprocal().reciprocal() == a


def test_reciprocal_rejects_zero_constant():
    with pytest.raises(DomainError):
        TruncatedSeries([0, 1, 2]).reciprocal()


def test_reciprocal_of_integer_series_stays_exact():
    recip = TruncatedSeries([2, 1, 0]).reciprocal()
    assert recip.coeffs == (Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8))
    assert all(isinstance(c, Fraction) for c in recip.coeffs)
    partitions = q_pochhammer(None, 30).reciprocal()
    assert not any(isinstance(c, float) for c in partitions.coeffs)


def test_reciprocal_with_unit_constant_term_keeps_int_coefficients():
    """1/(1 + q) = 1 - q + q^2 and 1/(-1 + 2q + 3q^2) = -1 - 2q - 7q^2 stay in
    int arithmetic, not Fraction."""
    for series, expected in [(TruncatedSeries([1, 1, 0]), (1, -1, 1)),
                             (TruncatedSeries([-1, 2, 3]), (-1, -2, -7))]:
        recip = series.reciprocal()
        assert recip.coeffs == expected
        assert all(type(c) is int for c in recip.coeffs)


def test_reciprocal_euler_function_gives_partition_numbers():
    n = 20
    recip = q_pochhammer(None, n).reciprocal()
    oracle = partition_count_oracle(n)
    assert [int(c) for c in recip.coeffs] == oracle
    assert oracle[:12] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56]


# -- q-Pochhammer ----------------------------------------------------------------


def test_pochhammer_empty_product():
    assert q_pochhammer(0, 6) == TruncatedSeries.one(6)


def test_pochhammer_k2():
    # (1-q)(1-q^2) = 1 - q - q^2 + q^3
    assert q_pochhammer(2, 4).coeffs == (1, -1, -1, 1, 0)


def test_pochhammer_has_integer_coefficients():
    for k in (None, 0, 3, 40):
        assert all(type(c) is int for c in q_pochhammer(k, 40).coeffs)


def test_pochhammer_infinite_pentagonal():
    # generalized pentagonal exponents 0,1,2,5,7,12,15 with signs +,-,-,+,+,-,-
    coeffs = [int(c) for c in q_pochhammer(None, 15).coeffs]
    assert coeffs == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, 0, 0, -1]


# -- representations of T ---------------------------------------------------------


def test_divisor_representation_small():
    series = build_representation(RepresentationId.DIVISOR, 6)
    assert [int(c) for c in series.coeffs] == [0, 1, 2, 2, 3, 2, 4]


def test_clausen_order_one():
    series = build_representation(RepresentationId.CLAUSEN, 1)
    assert series.coeffs == (Fraction(0), Fraction(1))


def test_identity_report_n50():
    report = identity_report(50)
    for rep, res in report.items():
        assert res.match, f"{rep} mismatched at {res.first_mismatch_index}"


def test_identity_report_n500():
    report = identity_report(500)
    assert set(report) == set(RepresentationId)
    for rep, res in report.items():
        assert res.match, f"{rep} mismatched at {res.first_mismatch_index}"


@pytest.mark.parametrize("order", [1, 2, 37, 120])
@pytest.mark.parametrize("rep", list(RepresentationId), ids=lambda r: r.name)
def test_representations_have_integer_coefficients(rep, order):
    series = build_representation(rep, order)
    assert len(series.coeffs) == order + 1
    assert all(type(c) is int for c in series.coeffs)


def test_builders_use_neither_reciprocal_nor_product(monkeypatch):
    def forbidden(*args):
        raise AssertionError("generic series arithmetic on the build path")

    monkeypatch.setattr(TruncatedSeries, "reciprocal", forbidden)
    monkeypatch.setattr(TruncatedSeries, "__mul__", forbidden)
    for rep in RepresentationId:
        build_representation(rep, 60)
    q_pochhammer(None, 60)


def test_companion_series_coefficient_types():
    assert all(type(c) is int for c in divisor_difference_series(30).coeffs)
    assert all(type(c) is int for c in divisor_partial_sum_series(30).coeffs)
    assert any(isinstance(c, Fraction) and c.denominator > 1
               for c in divisor_log_convolution_series(30).coeffs)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 8, 9, 10, 15, 16, 17])
def test_identity_report_small_orders(order):
    """The stride expansions' edges: the smallest orders, and orders one
    below, at and one above Clausen's squares 4, 9 and 16."""
    report = identity_report(order)
    assert all(r.match for r in report.values())
    assert build_representation(RepresentationId.DIVISOR, order).coeffs[:2] == (0, 1)


def test_fault_injection_detected():
    n = 10
    lambert = build_representation(RepresentationId.LAMBERT, n)
    corrupted = list(lambert.coeffs)
    corrupted[3] += 1
    idx = first_mismatch(TruncatedSeries(corrupted),
                         build_representation(RepresentationId.DIVISOR, n))
    assert idx == 3


def test_rejects_order_zero():
    with pytest.raises(DomainError):
        build_representation(RepresentationId.LAMBERT, 0)
    with pytest.raises(DomainError):
        identity_report(0)


def test_merca_partition_product_identity_n60():
    """(q;q)_inf * T has the part-count difference coefficients, exactly."""
    from divisor_series.divisor_core import distinct_partition_stats

    n = 60
    t = build_representation(RepresentationId.DIVISOR, n)
    s_odd, s_even = distinct_partition_stats(n)
    lhs = q_pochhammer(None, n) * t
    rhs = TruncatedSeries(
        [Fraction(0)] + [Fraction(s_odd[k] - s_even[k]) for k in range(1, n + 1)]
    )
    assert lhs == rhs


def test_partition_part_count_sum_product_identity_n300():
    """s_odd + s_even counts the parts of every partition into distinct
    parts; its generating function is P'(1) for P(z) = prod_p (1 + z q^p),
    that is prod_p (1 + q^p) * sum_p q^p / (1 + q^p)."""
    from divisor_series.divisor_core import distinct_partition_stats

    n = 300
    product = TruncatedSeries.one(n)
    weights = TruncatedSeries.zero(n)
    for p in range(1, n + 1):
        factor = TruncatedSeries.one(n) + TruncatedSeries.monomial(1, p, n)
        product = product * factor
        weights = weights + TruncatedSeries.monomial(1, p, n) * factor.reciprocal()
    s_odd, s_even = distinct_partition_stats(n)
    total = [odd + even for odd, even in zip(s_odd, s_even)]
    assert (product * weights).coeffs == tuple(total)


def test_uchimura_inner_sum_identity_n100():
    """sum k q^k/(q;q)_k equals T/(q;q)_inf coefficientwise up to 100."""
    n = 100
    total = TruncatedSeries.zero(n)
    recip = TruncatedSeries.one(n)
    for k in range(1, n + 1):
        binomial = TruncatedSeries.one(n) - TruncatedSeries.monomial(1, k, n)
        recip = recip * binomial.reciprocal()
        total = total + recip * TruncatedSeries.monomial(k, k, n)
    rhs = build_representation(RepresentationId.DIVISOR, n) * q_pochhammer(None, n).reciprocal()
    assert total == rhs


# -- companion series and their closed forms --------------------------------------


def test_difference_series_closed_form():
    """1 + sum (d(k+1)-d(k)) q^k == (1/q - 1) T(q), checked via a shift."""
    n = 40
    t = TruncatedSeries(divisor_sieve(n + 1)[: n + 2])  # T up to order n+1
    one_minus_q = TruncatedSeries.one(n + 1) - TruncatedSeries.monomial(1, 1, n + 1)
    product = one_minus_q * t  # (1-q) T, divisible by q
    assert product.coeffs[0] == 0
    shifted = TruncatedSeries(product.coeffs[1:])  # (1-q) T / q
    direct = TruncatedSeries.one(n) + divisor_difference_series(n)
    assert shifted == direct


def test_partial_sum_series_closed_form():
    """sum_k (sum_{j<=k} d(j)) q^k == T(q) / (1-q)."""
    n = 60
    t = build_representation(RepresentationId.DIVISOR, n)
    geometric = (TruncatedSeries.one(n) - TruncatedSeries.monomial(1, 1, n)).reciprocal()
    assert t * geometric == divisor_partial_sum_series(n)


def test_log_convolution_series_closed_form():
    """sum_{k>=2} (sum_{j<k} d(j)/(k-j)) q^k == -log(1-q) * T(q)."""
    n = 60
    t = build_representation(RepresentationId.DIVISOR, n)
    log_series = TruncatedSeries([Fraction(0)] + [Fraction(1, k) for k in range(1, n + 1)])
    assert t * log_series == divisor_log_convolution_series(n)
