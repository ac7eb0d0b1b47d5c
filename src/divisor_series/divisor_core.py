"""Integer ground truth: divisor counts, their partial sums, and the
part-count statistics of partitions into distinct parts, with the
product-rule rows they come from.

:func:`divisor_sieve` is the one source of d(k): the DIVISOR series, the
identity checks' reference and the DIVISOR kernel of pointwise evaluation.

Everything here is exact integer arithmetic (Python integers are unbounded,
so there is no silent wraparound to guard against).
"""

from __future__ import annotations

from itertools import accumulate
from math import isqrt

from .intervals import DomainError


def divisor_sieve(n_max: int) -> tuple[int, ...]:
    """d[k] = number of positive divisors of k, for 1 <= k <= n_max.

    Index 0 is a sentinel with d[0] = 0, which is also the convention the
    power-series layer uses for the constant coefficient of T.  Counted
    multiplicatively, d(p1^e1 ... pr^er) = (e1 + 1) ... (er + 1), so no
    series of T shares its loop: k = p m with p the smallest prime of k and
    e its exponent gives d(k) = d(m) (e + 1)/e."""
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    # smallest prime factor of a composite k, else 0; the smallest p writes last
    spf = [0] * (n_max + 1)
    for p in range(isqrt(n_max), 1, -1):
        spf[p * p :: p] = [p] * ((n_max - p * p) // p + 1)
    d, e = [0, 1] + [2] * (n_max - 1), bytearray([1]) * (n_max + 1)
    for k, p in enumerate(spf):
        if p:
            m = k // p
            if m % p:
                d[k] = 2 * d[m]
            else:
                e[k] = x = e[m] + 1
                d[k] = d[m] * (x + 1) // x
    return tuple(d)


def divisor_partial_sums(d: tuple[int, ...]) -> tuple[int, ...]:
    """out[n] = sum_{k<=n} d(k) for a table d from :func:`divisor_sieve`;
    out[0] = 0.

    By counting lattice points under the hyperbola xy <= n both ways, the
    result also equals sum_{k<=n} floor(n/k) for every n.
    """
    return tuple(accumulate(d))


def product_rule_rows(n_max: int, z: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The rows (P(z), P'(z)) to order n_max for P(z) = prod_p (1 + z q^p)
    and P' = dP/dz, at an integer z; the package takes z = 1 and z = -1.

    The coefficient of z^m q^n in P counts partitions of n into m distinct
    parts, so P' weights each one by m z^(m-1).  Adding part p is one
    descending pass with stride p, P' <- P'(1 + z q^p) + P q^p (with the old
    P) and P <- P(1 + z q^p): O(n^2) integer additions.  P(-1) is
    (q;q)_inf itself.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    p, dp = [1] + [0] * n_max, [0] * (n_max + 1)
    for part in range(1, n_max + 1):
        for n in range(n_max, part - 1, -1):
            m = n - part
            dp[n] += z * dp[m] + p[m]
            p[n] += z * p[m]
    return tuple(p), tuple(dp)


def distinct_partition_stats(n_max: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Part counts over partitions into distinct parts, split by parity, as
    the pair (s_odd, s_even).

    s_odd[k] sums the number of parts over all partitions of k into an odd
    number of distinct parts; s_even[k] does the same for an even number of
    parts.  Index 0 is an unused sentinel.  Both come from the P' rows of
    :func:`product_rule_rows`, one call each at z = 1 and z = -1: P'(1) sums
    the part counts, and P'(-1) gives the partitions with an odd number of
    parts sign + and the even ones sign -.
    """
    d_plus = product_rule_rows(n_max, 1)[1]
    d_minus = product_rule_rows(n_max, -1)[1]
    # P'(1) + P'(-1) = 2 s_odd and P'(1) - P'(-1) = 2 s_even: exact halving
    s_odd = tuple((a + b) // 2 for a, b in zip(d_plus, d_minus))
    s_even = tuple((a - b) // 2 for a, b in zip(d_plus, d_minus))
    return s_odd, s_even
