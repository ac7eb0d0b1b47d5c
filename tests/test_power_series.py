"""The representations of T and the coefficient-level identities for T,
checked with the tuple series arithmetic of the oracles."""

import math
import random
from fractions import Fraction

import pytest

from divisor_series import divisor_core, power_series
from divisor_series.divisor_core import divisor_sieve, product_rule_rows
from divisor_series.intervals import DomainError
from divisor_series.power_series import (
    IdentityMatch,
    RepresentationId,
    TruncatedSeries,
    build_representation,
    first_mismatch,
    identity_report,
)
from oracles import (
    divisor_count_trial,
    divisor_difference_series,
    divisor_log_convolution_series,
    divisor_pairs_without_squares,
    divisor_partial_sum_series,
    pentagonal_flipped_at,
    series_product,
    series_reciprocal,
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


def monomial(coeff, degree: int, order: int) -> tuple:
    c = [0] * (order + 1)
    c[degree] = coeff
    return tuple(c)


def add(a, b) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def one_minus(degree: int, order: int) -> tuple:
    """1 - q^degree, truncated at the order."""
    return add(monomial(1, 0, order), monomial(-1, degree, order))


def pochhammer(k, order: int) -> tuple:
    """(q;q)_k = prod_{j=1..k} (1 - q^j), or (q;q)_inf for k None; factors
    with j > order cannot touch retained coefficients."""
    result = monomial(1, 0, order)
    for j in range(1, min(order if k is None else k, order) + 1):
        result = series_product(result, one_minus(j, order))
    return result


def euler_function(order: int) -> tuple:
    """(q;q)_inf."""
    return pochhammer(None, order)


def random_series(rng: random.Random, order: int, nonzero_constant=False) -> tuple:
    coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(order + 1)]
    if nonzero_constant and coeffs[0] == 0:
        coeffs[0] = Fraction(1)
    return tuple(coeffs)


# -- the oracle arithmetic the identity tests below rely on -----------------------


def test_multiply_basic():
    assert series_product((1, 1, 0), (1, -1, 0)) == (1, 0, -1)


def test_multiply_identity_element():
    rng = random.Random(1)
    a = random_series(rng, 12)
    assert series_product(a, monomial(1, 0, 12)) == a


def test_geometric_telescopes():
    n = 10
    assert series_product((1,) * (n + 1), one_minus(1, n)) == monomial(1, 0, n)


def test_multiply_commutative_associative():
    rng = random.Random(7)
    for _ in range(20):
        a, b, c = (random_series(rng, 8) for _ in range(3))
        assert series_product(a, b) == series_product(b, a)
        assert series_product(series_product(a, b), c) == series_product(a, series_product(b, c))


def test_reciprocal_of_one_minus_q():
    assert series_reciprocal(one_minus(1, 4)) == (1, 1, 1, 1, 1)


def test_reciprocal_involution():
    rng = random.Random(3)
    for _ in range(10):
        a = random_series(rng, 9, nonzero_constant=True)
        assert series_reciprocal(series_reciprocal(a)) == a


def test_reciprocal_rejects_zero_constant():
    with pytest.raises(DomainError):
        series_reciprocal((0, 1, 2))


def test_reciprocal_of_integer_series_stays_exact():
    recip = series_reciprocal((2, 1, 0))
    assert recip == (Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8))
    assert all(isinstance(c, Fraction) for c in recip)
    partitions = series_reciprocal(euler_function(30))
    assert not any(isinstance(c, float) for c in partitions)


def test_reciprocal_with_unit_constant_term_keeps_int_coefficients():
    """1/(1 + q) = 1 - q + q^2 and 1/(-1 + 2q + 3q^2) = -1 - 2q - 7q^2 stay in
    int arithmetic, not Fraction."""
    for series, expected in [((1, 1, 0), (1, -1, 1)), ((-1, 2, 3), (-1, -2, -7))]:
        recip = series_reciprocal(series)
        assert recip == expected
        assert all(type(c) is int for c in recip)


def test_reciprocal_euler_function_gives_partition_numbers():
    n = 20
    recip = series_reciprocal(euler_function(n))
    oracle = partition_count_oracle(n)
    assert [int(c) for c in recip] == oracle
    assert oracle[:12] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56]


# -- q-Pochhammer ------------------------------------------------------------------


def test_pochhammer_empty_product():
    assert pochhammer(0, 6) == monomial(1, 0, 6)


def test_pochhammer_k2():
    # (1-q)(1-q^2) = 1 - q - q^2 + q^3
    assert pochhammer(2, 4) == (1, -1, -1, 1, 0)


def test_pochhammer_has_integer_coefficients():
    for k in (None, 0, 3, 40):
        assert all(type(c) is int for c in pochhammer(k, 40))


def test_pochhammer_infinite_pentagonal():
    # generalized pentagonal exponents 0,1,2,5,7,12,15 with signs +,-,-,+,+,-,-
    coeffs = [int(c) for c in euler_function(15)]
    assert coeffs == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, 0, 0, -1]


# -- representations of T ---------------------------------------------------------


def test_divisor_representation_small():
    series = build_representation(RepresentationId.DIVISOR, 6)
    assert [int(c) for c in series.coeffs] == [0, 1, 2, 2, 3, 2, 4]


def test_clausen_order_one():
    series = build_representation(RepresentationId.CLAUSEN, 1)
    assert series.coeffs == (Fraction(0), Fraction(1))


@pytest.mark.parametrize("order", [1, 4, 9, 16, 17, 200])
def test_clausen_series_and_the_sieve_meet_trial_division(order):
    """build_representation(CLAUSEN) counts divisor pairs (1 at k^2, 2 at
    k^2 + k, k^2 + 2k, ...) and divisor_sieve counts d multiplicatively, so
    identity_report's CLAUSEN row compares two loops that share no code;
    trial division checks both, at Clausen's squares 4, 9 and 16, one past
    16, and order 200."""
    want = (0, *(divisor_count_trial(k) for k in range(1, order + 1)))
    assert build_representation(RepresentationId.CLAUSEN, order).coeffs == want
    assert divisor_sieve(order) == want


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


def test_builders_use_neither_reciprocal_nor_product():
    """The builders step through int lists: the record they return carries no
    series arithmetic, and the package has no q_pochhammer."""
    import divisor_series
    from divisor_series import power_series

    for name in ("__add__", "__sub__", "__mul__", "reciprocal", "zero", "one", "monomial"):
        assert not hasattr(TruncatedSeries, name)
    assert not hasattr(power_series, "q_pochhammer")
    assert not hasattr(divisor_series, "q_pochhammer")


def test_companion_series_coefficient_types():
    assert all(type(c) is int for c in divisor_difference_series(30))
    assert all(type(c) is int for c in divisor_partial_sum_series(30))
    assert any(isinstance(c, Fraction) and c.denominator > 1
               for c in divisor_log_convolution_series(30))


@pytest.mark.parametrize("order", [1, 2, 3, 4, 8, 9, 10, 15, 16, 17])
def test_identity_report_small_orders(order):
    """The stride expansions' edges: the smallest orders, and orders one
    below, at and one above Clausen's squares 4, 9 and 16."""
    report = identity_report(order)
    assert all(r.match for r in report.values())
    assert build_representation(RepresentationId.DIVISOR, order).coeffs[:2] == (0, 1)


def test_identity_report_builds_each_series_once(monkeypatch):
    """DIVISOR's own build is the reference: six builds, not seven."""
    built = []
    build = power_series.build_representation
    monkeypatch.setattr(power_series, "build_representation",
                        lambda rep, order: built.append(rep) or build(rep, order))
    assert all(r.match for r in identity_report(40).values())
    assert len(built) == 6 and set(built) == set(RepresentationId)


def test_identity_report_blames_every_series_for_a_wrong_reference(monkeypatch):
    """No series shares the sieve's loop, so a wrong d table fails each of
    the five other rows at its first wrong index, d(1)."""
    monkeypatch.setattr(power_series, "divisor_sieve", divisor_pairs_without_squares)
    report = identity_report(60)
    assert report.pop(RepresentationId.DIVISOR) == IdentityMatch(True, None)
    assert len(report) == 5
    for rep, res in report.items():
        assert res == IdentityMatch(False, 1), rep


@pytest.mark.parametrize("g", [1, 40, 187])
def test_identity_report_blames_merca_alt_alone_for_a_wrong_pentagonal_table(monkeypatch, g):
    """MERCA_ALT alone reads the pentagonal (q;q)_inf.  Flipping its sign at
    the exponent g divides T (q;q)_inf by e' = e - 2 e[g] q^g, which gives
    T + 2 e[g] q^(g+1) + ...: the row fails one past g, since T starts at q^1."""
    assert power_series._euler_pentagonal(200)[g] != 0
    monkeypatch.setattr(power_series, "_euler_pentagonal", pentagonal_flipped_at(g))
    report = identity_report(200)
    assert report.pop(RepresentationId.MERCA_ALT) == IdentityMatch(False, g + 1)
    assert all(res == IdentityMatch(True, None) for res in report.values())


@pytest.mark.parametrize("index", [1, 77, 200])
def test_identity_report_blames_merca_partition_alone_for_a_wrong_weight_row(monkeypatch, index):
    """MERCA_PARTITION alone reads the P'(-1) row; dividing by (q;q)_inf,
    whose constant term is 1, keeps a wrong weight's index."""
    rows = power_series.product_rule_rows

    def perturbed(n, z):
        p, dp = rows(n, z)
        return p, dp[:index] + (dp[index] + 1,) + dp[index + 1:]

    monkeypatch.setattr(power_series, "product_rule_rows", perturbed)
    report = identity_report(200)
    assert report.pop(RepresentationId.MERCA_PARTITION) == IdentityMatch(False, index)
    assert all(res == IdentityMatch(True, None) for res in report.values())


def test_merca_partition_runs_the_product_rule_once_at_minus_one(monkeypatch):
    """The z = -1 rows alone: no P(1), P'(1) pass and no part-count split."""
    calls = []
    rows = power_series.product_rule_rows
    monkeypatch.setattr(power_series, "product_rule_rows",
                        lambda n, z: calls.append((n, z)) or rows(n, z))

    def refuse(n_max):
        raise AssertionError("distinct_partition_stats was called")

    monkeypatch.setattr(divisor_core, "distinct_partition_stats", refuse)
    monkeypatch.setattr(power_series, "distinct_partition_stats", refuse, raising=False)
    series = build_representation(RepresentationId.MERCA_PARTITION, 150)
    assert calls == [(150, -1)]
    assert series.coeffs == divisor_sieve(150)


@pytest.mark.parametrize("order", [1, 2, 3, 150, 1000])
def test_merca_alt_divides_by_one_minus_q_k_only_in_its_horner_steps(monkeypatch, order):
    """One (1 - q^k) division per Horner step, k = isqrt(2n) down to 1; the
    division by (q;q)_inf is one pass over the pentagonal table, not n more
    stride passes."""
    strides = []
    divide = power_series._divide_one_minus
    monkeypatch.setattr(power_series, "_divide_one_minus",
                        lambda c, k: strides.append(k) or divide(c, k))
    series = build_representation(RepresentationId.MERCA_ALT, order)
    assert strides == list(range(math.isqrt(2 * order), 0, -1))
    assert series.coeffs == divisor_sieve(order)


def test_both_sources_of_the_euler_function_agree():
    """(q;q)_inf as the P(-1) row of the product rule, as the pentagonal
    table and as the literal product prod_j (1 - q^j), truncated at every
    order to 300; the first two also at 4000."""
    literal = euler_function(300)
    for n in range(1, 301):
        pentagonal = tuple(power_series._euler_pentagonal(n))
        assert product_rule_rows(n, -1)[0] == pentagonal == literal[: n + 1], n
    assert product_rule_rows(4000, -1)[0] == tuple(power_series._euler_pentagonal(4000))


@pytest.mark.parametrize("n", [1, 2, 60])
def test_divide_is_exact(n):
    """c / e times e is c, for a dense e and the pentagonal one, both with
    e[0] = 1; dividing by 1 leaves c as it is."""
    rng = random.Random(n)
    c = [rng.randint(-50, 50) for _ in range(n + 1)]
    dense = [1] + [rng.randint(-5, 5) for _ in range(n)]
    for e in (dense, power_series._euler_pentagonal(n)):
        quotient = list(c)
        power_series._divide(quotient, e)
        assert all(type(x) is int for x in quotient)
        assert series_product(quotient, e) == tuple(c)
    for one in ((1,), (1,) + (0,) * n):
        quotient = list(c)
        power_series._divide(quotient, one)
        assert quotient == c


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
    lhs = series_product(euler_function(n), t.coeffs)
    rhs = tuple(
        [Fraction(0)] + [Fraction(s_odd[k] - s_even[k]) for k in range(1, n + 1)]
    )
    assert lhs == rhs


def test_partition_part_count_sum_product_identity_n300():
    """s_odd + s_even counts the parts of every partition into distinct
    parts; its generating function is P'(1) for P(z) = prod_p (1 + z q^p),
    that is prod_p (1 + q^p) * sum_p q^p / (1 + q^p)."""
    from divisor_series.divisor_core import distinct_partition_stats

    n = 300
    product = monomial(1, 0, n)
    weights = (0,) * (n + 1)
    for p in range(1, n + 1):
        factor = add(monomial(1, 0, n), monomial(1, p, n))
        product = series_product(product, factor)
        weights = add(weights, series_product(monomial(1, p, n), series_reciprocal(factor)))
    s_odd, s_even = distinct_partition_stats(n)
    total = [odd + even for odd, even in zip(s_odd, s_even)]
    assert series_product(product, weights) == tuple(total)


def test_uchimura_inner_sum_identity_n100():
    """sum k q^k/(q;q)_k equals T/(q;q)_inf coefficientwise up to 100."""
    n = 100
    total = (0,) * (n + 1)
    recip = monomial(1, 0, n)
    for k in range(1, n + 1):
        recip = series_product(recip, series_reciprocal(one_minus(k, n)))
        total = add(total, series_product(recip, monomial(k, k, n)))
    t = build_representation(RepresentationId.DIVISOR, n)
    rhs = series_product(t.coeffs, series_reciprocal(euler_function(n)))
    assert total == rhs


# -- companion series and their closed forms --------------------------------------


def test_difference_series_closed_form():
    """1 + sum (d(k+1)-d(k)) q^k == (1/q - 1) T(q), checked via a shift."""
    n = 40
    t = divisor_sieve(n + 1)[: n + 2]  # T up to order n+1
    product = series_product(one_minus(1, n + 1), t)  # (1-q) T, divisible by q
    assert product[0] == 0
    shifted = product[1:]  # (1-q) T / q
    direct = add(monomial(1, 0, n), divisor_difference_series(n))
    assert shifted == direct


def test_partial_sum_series_closed_form():
    """sum_k (sum_{j<=k} d(j)) q^k == T(q) / (1-q)."""
    n = 60
    t = build_representation(RepresentationId.DIVISOR, n)
    geometric = series_reciprocal(one_minus(1, n))
    assert series_product(t.coeffs, geometric) == divisor_partial_sum_series(n)


def test_log_convolution_series_closed_form():
    """sum_{k>=2} (sum_{j<k} d(j)/(k-j)) q^k == -log(1-q) * T(q)."""
    n = 60
    t = build_representation(RepresentationId.DIVISOR, n)
    log_series = (Fraction(0), *(Fraction(1, k) for k in range(1, n + 1)))
    assert series_product(t.coeffs, log_series) == divisor_log_convolution_series(n)
