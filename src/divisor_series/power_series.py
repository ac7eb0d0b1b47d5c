"""The five classical series representations of T(q) = sum d(k) q^k as exact
integer coefficient sequences, truncated at an order N.

Every representation is built on integer lists: DIVISOR's is the
multiplicative count of :func:`divisor_sieve`, and Lambert's and Clausen's
geometric series add 1 or 2 at every k-th exponent.  Uchimura's and both of
Merca's forms are built from one exact step, the factor (1 - q^k) or its
inverse, plus adding terms.

All arithmetic is exact, and truncation points are chosen so that omitted
terms of each representation have degree beyond the retained order.  A match
reported by :func:`identity_report` is therefore an exact statement about the
first N+1 coefficients, not a floating-point approximation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .divisor_core import distinct_partition_stats, divisor_sieve
from .intervals import DomainError


class RepresentationId(enum.Enum):
    """The interchangeable constructions of T; identity checks iterate all."""

    DIVISOR = "DIVISOR"
    LAMBERT = "LAMBERT"
    CLAUSEN = "CLAUSEN"
    UCHIMURA = "UCHIMURA"
    MERCA_ALT = "MERCA_ALT"
    MERCA_PARTITION = "MERCA_PARTITION"


class TruncatedSeries:
    """sum c[k] q^k + O(q^{N+1}) with exact integer coefficients: the record
    that :func:`build_representation` returns."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int]):
        if not coeffs:
            raise ValueError("a truncated series needs at least the constant term")
        self.coeffs = tuple(coeffs)


def _times_one_minus(c: list, k: int) -> None:
    """c <- c * (1 - q^k): a descending difference with stride k."""
    for i in range(len(c) - 1, k - 1, -1):
        c[i] -= c[i - k]


def _divide_one_minus(c: list, k: int) -> None:
    """c <- c / (1 - q^k): an ascending prefix sum with stride k."""
    for i in range(k, len(c)):
        c[i] += c[i - k]


def build_representation(rep: RepresentationId, order: int) -> TruncatedSeries:
    """Truncation of the chosen right-hand side for T.

    Internal sums run exactly far enough that every omitted term has degree
    beyond `order`: Lambert/Uchimura terms start at degree k, the alternating
    factorial series at k(k+1)/2, Clausen's at k^2.
    """
    if order < 1:
        raise DomainError("order must be >= 1")
    n = order

    if rep is RepresentationId.DIVISOR:
        return TruncatedSeries(divisor_sieve(n))
    total = [0] * (n + 1)

    if rep is RepresentationId.LAMBERT:
        # sum_{k>=1} q^k / (1 - q^k) = sum_k (q^k + q^2k + ...): 1 at every
        # multiple of k
        for k in range(1, n + 1):
            for m in range(k, n + 1, k):
                total[m] += 1
        return TruncatedSeries(total)

    if rep is RepresentationId.CLAUSEN:
        # sum_{k>=1} q^{k^2} (1 + q^k) / (1 - q^k) = sum_k (q^{k^2} + 2 q^{k^2+k}
        # + 2 q^{k^2+2k} + ...)
        for k in range(1, math.isqrt(n) + 1):
            total[k * k] += 1
            for m in range(k * k + k, n + 1, k):
                total[m] += 2
        return TruncatedSeries(total)

    if rep is RepresentationId.UCHIMURA:
        # (q;q)_inf * sum_{k>=1} k q^k / (q;q)_k = sum_k k q^k prod_{j>k} (1 - q^j),
        # by Horner's rule: multiply by (1 - q^k), then add k q^k
        for k in range(1, n + 1):
            _times_one_minus(total, k)
            total[k] += k
        return TruncatedSeries(total)

    if rep is RepresentationId.MERCA_ALT:
        # (1/(q;q)_inf) * sum_{k>=1} (-1)^{k-1} k q^{k(k+1)/2} / (q;q)_k by Horner's
        # rule from the top: add the k-th term, then divide by (1 - q^k).  Only
        # k <= sqrt(2n) can have k(k+1)/2 <= n.
        for k in range(math.isqrt(2 * n), 0, -1):
            if k * (k + 1) // 2 <= n:
                total[k * (k + 1) // 2] += k if k % 2 else -k
            _divide_one_minus(total, k)
    elif rep is RepresentationId.MERCA_PARTITION:
        # (1/(q;q)_inf) * sum_{k>=1} (s_odd(k) - s_even(k)) q^k; the weights
        # are the derivative at z = -1 of prod_p (1 + z q^p)
        s_odd, s_even = distinct_partition_stats(n)
        total = [odd - even for odd, even in zip(s_odd, s_even)]
    else:
        raise ValueError(f"unknown representation {rep!r}")
    # both Merca forms end by dividing by (q;q)_inf, one factor at a time
    for j in range(1, n + 1):
        _divide_one_minus(total, j)
    return TruncatedSeries(total)


def first_mismatch(a: TruncatedSeries, b: TruncatedSeries) -> Optional[int]:
    """Smallest index where the coefficients differ, or None if equal."""
    pairs = enumerate(zip(a.coeffs, b.coeffs))
    return next((k for k, (x, y) in pairs if x != y), None)


@dataclass(frozen=True)
class IdentityMatch:
    match: bool
    first_mismatch_index: Optional[int]


def identity_report(order: int) -> dict[RepresentationId, IdentityMatch]:
    """Compare every representation's coefficients against DIVISOR, exactly.

    Each series is built once.  DIVISOR, the multiplicative count of d(k), is
    the reference, so its own row always matches."""
    built = {rep: build_representation(rep, order) for rep in RepresentationId}
    reference = built[RepresentationId.DIVISOR]
    indices = {rep: first_mismatch(series, reference) for rep, series in built.items()}
    return {rep: IdentityMatch(idx is None, idx) for rep, idx in indices.items()}
