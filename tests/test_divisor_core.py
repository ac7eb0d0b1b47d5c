"""Divisor table, partial sums and partition statistics against brute-force
oracles."""

import itertools

import pytest

from divisor_series.divisor_core import (
    distinct_partition_stats,
    divisor_partial_sums,
    divisor_sieve,
)
from divisor_series.intervals import DomainError
from oracles import distinct_partition_stats_enumerated, divisor_count_trial, floor_sum


def is_square(n: int) -> bool:
    r = int(n**0.5)
    return r * r == n or (r + 1) * (r + 1) == n


def test_sieve_small_values():
    assert divisor_sieve(1) == (0, 1)
    assert divisor_sieve(12)[12] == 6  # divisors 1,2,3,4,6,12


def test_sieve_d100_against_trial_division():
    d = divisor_sieve(100)
    assert divisor_count_trial(100) == 9
    assert d[100] == 9


def test_sieve_matches_trial_division_up_to_200():
    d = divisor_sieve(200)
    for k in range(1, 201):
        assert d[k] == divisor_count_trial(k)


def divisor_counts_by_multiples(n: int) -> list[int]:
    """Oracle: each k adds 1 to every multiple of k up to n."""
    d = [0] * (n + 1)
    for k in range(1, n + 1):
        for m in range(k, n + 1, k):
            d[m] += 1
    return d


def test_sieve_matches_the_multiples_loop_up_to_2000():
    """Every table size from 1 to 2000, so each edge of the smallest-prime
    table is a table's last entry: the primes, the prime powers, and the
    squares p^2 where a prime's slice of the table starts, with the sizes
    one below and one above."""
    reference = divisor_counts_by_multiples(2000)
    for n in range(1, 2001):
        assert divisor_sieve(n) == tuple(reference[: n + 1]), n


def test_sieve_is_multiplicative_on_known_factorisations():
    """d(2^a 3^b 5^c 7^e) = (a + 1)(b + 1)(c + 1)(e + 1) for every such
    k <= 2^17, from the exponents themselves, not from a factorisation."""
    n = 2**17
    d = divisor_sieve(n)
    for a, b, c, e in itertools.product(range(18), range(11), range(8), range(7)):
        k = 2**a * 3**b * 5**c * 7**e
        if k <= n:
            assert d[k] == (a + 1) * (b + 1) * (c + 1) * (e + 1), (a, b, c, e)
    assert d[n] == 18 and d[2**16 - 1] == divisor_count_trial(2**16 - 1)


def test_sieve_invariants():
    d = divisor_sieve(150)
    assert d[1] == 1
    for p in (2, 3, 5, 7, 11, 13, 101, 149):
        assert d[p] == 2
    for k in range(2, 151):
        assert d[k] >= 2
        assert d[k] <= k
        assert (d[k] % 2 == 1) == is_square(k)


def test_sieve_rejects_zero():
    with pytest.raises(DomainError):
        divisor_sieve(0)


def test_partial_sums_small():
    sums = divisor_partial_sums(divisor_sieve(3))
    assert sums[1] == 1
    assert sums[3] == 5  # 1 + 2 + 2


def test_partial_sums_floor_identity():
    sums = divisor_partial_sums(divisor_sieve(100))
    assert sums[100] == floor_sum(100)
    for n in range(1, 101):
        assert sums[n] == floor_sum(n)


def test_partition_stats_examples():
    s_odd, s_even = distinct_partition_stats(6)
    # k=1: {1}
    assert s_odd[1] == 1 and s_even[1] == 0
    # k=3: {3}, {2,1}
    assert s_odd[3] == 1 and s_even[3] == 2
    # k=6: {6}, {5,1}, {4,2}, {3,2,1}
    assert s_odd[6] == 4 and s_even[6] == 4


def test_partition_stats_invariants():
    s_odd, s_even = distinct_partition_stats(50)
    assert s_even[1] == 0 and s_even[2] == 0
    for k in range(1, 51):
        assert s_odd[k] >= 1  # the singleton partition {k}


def test_partition_dp_agrees_with_enumeration():
    dp_odd, dp_even = distinct_partition_stats(40)
    brute_odd, brute_even = distinct_partition_stats_enumerated(40)
    assert dp_odd == brute_odd
    assert dp_even == brute_even


def test_partition_stats_rejects_zero():
    with pytest.raises(DomainError):
        distinct_partition_stats(0)
    with pytest.raises(DomainError):
        distinct_partition_stats_enumerated(0)
