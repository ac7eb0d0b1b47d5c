"""Monotone-sandwich grid verification, Sturm root counts and other exact
polynomial facts, and certificate emission.

The sandwich scheme: to certify lower(q) > upper(q) on a span where both
functions are increasing in q, it is enough to check
lower(cell_left) - upper(cell_right) > 0 on every cell of a grid tiling the
span.  Cell endpoints are exact rationals; every evaluation is an
outward-rounded enclosure, and a cell passes only when the enclosure of its
margin is strictly positive: first in outward-rounded doubles, and at
working precision where those do not separate.  Certificates record the
grid, the smallest verified margin, the monotonicity premises taken as
input, and pass/fail, which build_certificate decides by one rule for all.

One run engine, _prove_by_runs, makes every such check (the grids of 2.4ii
and 2.9, the V' witness of 2.4i and the phi' witness of 2.8), and it alone
picks the items evaluated again at working precision.  CONCLUSIONS declares
each lemma's claim, constant, exact span of q and check once, for all readers.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import accumulate
from typing import Callable, NamedTuple, Optional, Sequence

from .intervals import (
    DomainError,
    DoubleInterval,
    Enclosure,
    Mode,
    interval_precision,
    ln,
    to_ivmpf,
    working_precision,
)
from .lemma_functions import (
    _J1_OFFSET,
    _on_intervals,
    delta_polynomial,
    g0_polynomial,
    h2_denominator_polynomial,
    h3_numerator_polynomial,
    j1_raw,
    j2_raw,
    phi_prime_raw,
    v_raw,
    v_prime_run_raw,
    w1_raw,
    w2_raw,
)
from .polynomials import sturm_root_count

SCHEMA_VERSION = 1


# -- grids ---------------------------------------------------------------------


@dataclass(frozen=True)
class GridSegment:
    start: Fraction
    step: Fraction
    count: int

    def __post_init__(self):
        if self.step <= 0 or self.count < 1:
            raise DomainError("grid segments need positive step and count")

    @property
    def end(self) -> Fraction:
        return self.start + self.count * self.step


@dataclass(frozen=True)
class GridSpec:
    segments: tuple[GridSegment, ...]

    def __post_init__(self):
        if not self.segments:
            raise DomainError("a grid needs at least one segment")
        for a, b in zip(self.segments, self.segments[1:]):
            if a.end != b.start:
                raise DomainError(f"grid segments leave a gap: {a.end} != {b.start}")

    @property
    def total_cells(self) -> int:
        return sum(s.count for s in self.segments)

    def point(self, k: int) -> Fraction:
        """Endpoint k of the total_cells + 1 cell endpoints, exact: cell idx
        spans point(idx) to point(idx + 1)."""
        rest = k
        if rest >= 0:
            for seg in self.segments:
                if rest < seg.count:
                    return seg.start + rest * seg.step
                rest -= seg.count
            if rest == 0:
                return self.segments[-1].end
        raise IndexError(f"endpoint {k} is outside a grid of {self.total_cells} cells")

    def to_json_dict(self) -> dict:
        return {
            "segments": [
                {"start": str(s.start), "step": str(s.step), "count": s.count}
                for s in self.segments
            ]
        }


def _spanning(lemma_id: str, segments: tuple[GridSegment, ...]) -> GridSpec:
    """The grid of segments, checked to start and end at lemma_id's span."""
    span, lo, hi = CONCLUSIONS[lemma_id], segments[0].start, segments[-1].end
    if (lo, hi) != (span.lo, span.hi):
        raise ArithmeticError(f"{lemma_id} grid [{lo}, {hi}] != its span [{span.lo}, {span.hi}]")
    return GridSpec(segments)


def lemma_2_4_ii_grid() -> GridSpec:
    """[0.117, 0.91]: coarse to 0.835, finer to 0.9, finest to 0.91."""
    return _spanning("2.4ii", (
        GridSegment(CONCLUSIONS["2.4ii"].lo, Fraction(1, 1000), 718),
        GridSegment(Fraction(835, 1000), Fraction(1, 20000), 1300),
        GridSegment(Fraction(9, 10), Fraction(1, 500000), 5000),
    ))


def lemma_2_9_grid() -> GridSpec:
    """[0.91, 1.0] in 900 cells of width 1e-4."""
    return _spanning("2.9", (GridSegment(CONCLUSIONS["2.9"].lo, Fraction(1, 10000), 900),))


def lemma_2_4_i_v_prime_grid() -> GridSpec:
    """y-grid [2.145, 50] in steps of 0.005."""
    return GridSpec((GridSegment(Fraction(2145, 1000), Fraction(5, 1000), 9571),))


# -- certificates ----------------------------------------------------------------


@dataclass
class Certificate:
    """Machine-checkable record of one certified verification run, built by
    build_certificate: passed is True only when the exact facts hold, no cell
    fails and the minimum margin is strictly positive.
    """

    target: str
    grid: Optional[GridSpec]
    cells_checked: int
    min_margin: float
    passed: bool
    failures: tuple[int, ...] = ()
    premises: tuple[str, ...] = ()
    details: dict = field(default_factory=dict)
    #: how a certified sandwich settled its cells, or 2.4i and 2.8 their
    #: witness points: counts of cells (points) settled in "doubles" and at
    #: "working_precision", and "min_margin_rechecks" of those settled in
    #: doubles and re-evaluated for the minimum; "runs", the runs proved in
    #: doubles that are not pieces of a split proved run, and "evaluations",
    #: the double evaluations of a run bound (either sandwich side).
    #: A diagnostic, not part of the JSON document.
    settled: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "target": self.target,
            "grid": self.grid.to_json_dict() if self.grid is not None else None,
            "cells_checked": self.cells_checked,
            "min_margin": self.min_margin,
            "mode": "certified",
            "passed": self.passed,
            "failures": list(self.failures),
            "premises": list(self.premises),
            "details": self.details,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def build_certificate(target: str, premises: Sequence[str], min_margin, *, facts: bool = True,
                      failures: Sequence[int] = (), grid: Optional[GridSpec] = None,
                      cells: int = 0, details: Optional[dict] = None,
                      settled: Optional[dict] = None) -> Certificate:
    """The one pass rule of every certificate: passed when the exact facts
    hold, no cell fails and min_margin, as the double recorded, is > 0.
    cells_checked is the grid's cell count when there is a grid, else cells."""
    min_margin = float(min_margin)
    return Certificate(
        target=target,
        grid=grid,
        cells_checked=grid.total_cells if grid is not None else cells,
        min_margin=min_margin,
        passed=facts and not failures and min_margin > 0,
        failures=tuple(failures),
        premises=tuple(premises),
        details=details or {},
        settled=settled or {},
    )


# -- sandwich engine --------------------------------------------------------------


class _Settled(NamedTuple):
    """Item idx, its margin in [lo, hi]: in doubles or at working precision."""

    lo: float
    idx: int
    hi: float
    in_doubles: bool
    passes: bool


class _Margins:
    """Margins of items k = 0, 1, ... of one check.  bound(at, i, j) bounds
    the margin of every item i..j from below, from formula values at(raw,
    key): raw at the exact inputs(key), Fractions lifted and ints (phi's x)
    as they are.  of_run(start, stop) takes it on items start..stop-1 in
    doubles, memoised by formula and key, so evaluations, the memo's size,
    counts double evaluations; each key's inputs are built and lifted once,
    for every formula.  working(k), (passes, lower end, upper end), takes it
    on the one item k at working precision."""

    def __init__(self, bound: Callable, inputs: Callable):
        self.bound, self.inputs, self._memos, self._lifted = bound, inputs, {}, {}

    @property
    def evaluations(self) -> int:
        return sum(map(len, self._memos.values()))

    def _in_doubles(self, raw: Callable, key):
        memo = self._memos.setdefault(raw, {})
        if key not in memo:
            if key not in self._lifted:
                self._lifted[key] = [DoubleInterval.lift(v) if isinstance(v, Fraction) else v
                                     for v in self.inputs(key)]
            memo[key] = raw(*self._lifted[key])
        return memo[key]

    def _at_working(self, raw: Callable, key):
        return raw(*[to_ivmpf(v) if isinstance(v, Fraction) else v for v in self.inputs(key)])

    def of_run(self, start: int, stop: int) -> DoubleInterval:
        return self.bound(self._in_doubles, start, stop - 1)

    def working(self, k: int) -> tuple[bool, float, float]:
        with interval_precision(working_precision()):
            value = Enclosure(self.bound(self._at_working, k, k))
        return value.is_positive(), *value.to_floats()


def _prove_by_runs(margins, roots: Sequence[tuple[int, int]]) -> tuple[float, tuple, dict]:
    """(min_margin, failing indices, settled counts) of the items of roots,
    ranges [start, stop) of the item indices of margins, a _Margins, proved
    by the loop described at sandwich_verify.  Heap entries are (key, start,
    stop, piece); piece marks the runs cut from a proved run, which "runs"
    does not count."""
    heap = [(-math.inf, start, stop, False) for start, stop in roots]
    heapq.heapify(heap)
    cells, runs, ceiling = [], 0, math.inf
    while heap and heap[0][0] <= ceiling:
        key, i, j, piece = heapq.heappop(heap)
        margin = margins.of_run(i, j) if key == -math.inf else None
        if margin is not None and margin.lo > 0:
            runs += not piece
            if j - i > 1:
                heapq.heappush(heap, (margin.lo, i, j, piece))
                continue
            cell = _Settled(margin.lo, i, margin.hi, True, True)
        elif j - i == 1:
            passes, lo, hi = margins.working(i)
            cell = _Settled(lo, i, hi, False, passes)
        else:  # a proved run, or an unproved one that does not separate
            mid, piece = (i + j) // 2, piece or key > -math.inf
            heapq.heappush(heap, (-math.inf, i, mid, piece))
            heapq.heappush(heap, (-math.inf, mid, j, piece))
            continue
        cells.append(cell)
        ceiling = min(ceiling, cell.hi)
    # a cell whose lower endpoint exceeds the ceiling cannot hold the minimum;
    # the others settled in doubles are re-evaluated at working precision
    candidates = [cell for cell in cells if cell.lo <= ceiling]
    min_margin = min((margins.working(cell.idx)[1] if cell.in_doubles else cell.lo
                      for cell in candidates), default=math.inf)
    failures = tuple(sorted(cell.idx for cell in cells if not cell.passes))
    working = sum(not cell.in_doubles for cell in cells)
    return min_margin, failures, {
        "doubles": sum(stop - start for start, stop in roots) - working,
        "working_precision": working,
        "min_margin_rechecks": sum(cell.in_doubles for cell in candidates),
        "runs": runs, "evaluations": margins.evaluations}


def sandwich_verify(
    lower: Callable,
    upper: Callable,
    grid: GridSpec,
    target: str = "sandwich",
    premises: Sequence[str] = (),
    details: Optional[dict] = None,
) -> Certificate:
    """Check lower(cell_left) - upper(cell_right) > 0 on every grid cell, for
    raw formulas lower and upper of lemma_functions, regular at every grid
    endpoint (J2's positive phi sum is, at q = 1).

    The caller asserts (and should document via `premises`) that both
    functions are increasing on the grid span; under that premise a passing
    certificate proves lower > upper on the whole span.  Refining the grid
    can only grow cell margins, so min_margin of a 2x-refined run is never
    below ~0.99 of the coarse run's (up to outward-rounding slack).

    Every evaluation is an outward-rounded enclosure, and a cell passes only
    when its margin enclosure is strictly positive.  The cells are proved by
    runs, in one best-first loop over a heap of runs of cells [i, j), which
    starts with the cells of each grid segment:

    * A run is proved when the DoubleInterval margin
      lower(left_i) - upper(right_{j-1}) is strictly positive: under the
      premise, every cell k of the run has lower(left_k) >= lower(left_i)
      and upper(right_k) <= upper(right_{j-1}), so its margin is at least
      the run's.  An unproved run has key -inf and pops first.  When it
      does not separate it is split at its midpoint; a single cell that
      does not separate is evaluated at working precision.
    * A proved run goes back on the heap under its double lower endpoint.
      The loop pops while the smallest key is at most the ceiling, the
      smallest upper endpoint of any single cell's margin, and splits a
      proved run into two unproved halves; the cells of the runs left on
      the heap have margins above the ceiling.  A single cell settled in
      doubles whose lower endpoint is at most the ceiling is re-evaluated
      at working precision for min_margin.  Those are the cells a per-cell
      check re-evaluates, unless two cell margins agree to within the width
      of their double enclosures, so the certificate is the same.

    Each side is memoised by grid endpoint, so no side is evaluated twice at
    one cell endpoint and a segment of n cells costs at most 2n double
    evaluations.  _prove_by_runs runs this loop for every check of this
    module: here on the grids of 2.4ii and 2.9, and on the witness points of
    2.4i (V', by runs of points) and 2.8 (phi', one point a root).
    """
    margins = _Margins(lambda at, i, j: at(lower, i) - at(upper, j + 1),
                       lambda k: (grid.point(k),))
    bounds = list(accumulate((seg.count for seg in grid.segments), initial=0))
    min_margin, failures, settled = _prove_by_runs(margins, list(zip(bounds, bounds[1:])))
    return build_certificate(target, premises, min_margin, failures=failures, grid=grid,
                             details=details, settled=settled)


# -- lemma-specific evaluators ---------------------------------------------------


#: The limit of J2 as q -> 1-, sum_{k<=10} (k-1)/(2k) + 5/22 from
#: lim phi_q(k) = (k-1)/(2k), pinned here.  The positive form of j2_raw gives
#: it exactly at q = 1, the last endpoint the 2.9 sandwich evaluates.
J2_LIMIT = Fraction(208609, 55440)


def _certified(raw: Callable, q: Fraction) -> Enclosure:
    return Enclosure(_on_intervals(Mode.CERTIFIED, raw, q))


#: W1, W2 (Lemma 2.4ii) and J1, J2 (Lemma 2.9), the sandwich sides of
#: lemma_functions.w1_raw .. j2_raw, as certified Enclosures at working
#: precision of an exact q.  At q = 1, J2 encloses its limit J2_LIMIT.
w1_lower, w2_upper, j1_lower, j2_upper = (
    partial(_certified, raw) for raw in (w1_raw, w2_raw, j1_raw, j2_raw))


# -- lemma pipelines ---------------------------------------------------------------


def verify_lemma_2_4_i() -> Certificate:
    """C_q(1) > 0 on (0, 0.117]: the endpoint value V(-log 0.117) > 0, V' > 0
    past sqrt(3) with a grid witness, and the analytic chain
    C_q(1) = U/((q+1)^2 log^2 q), U >= q V(-log q)."""
    grid = lemma_2_4_i_v_prime_grid()
    premises = (
        "every term of V'(y) = (y^2-3)e^-y + 4y e^-2y + 3e^-3y is nonnegative for y >= sqrt(3)",
        "grid start 2.145 satisfies 2.145^2 = 4.601025 > 3 exactly, so the analytic"
        " positivity covers [2.145, inf); the grid evaluation witnesses it on [2.145, 50]",
        "C_q(1) = U(q)/((q+1)^2 log^2 q) and U(q) >= q V(-log q), by log(1+q) <= q and"
        " q - 1 - log(q) > 0; V increases past -log(0.117) > sqrt(3), so C_q(1) > 0"
        " for q <= 0.117",
    )
    v0 = _certified(lambda q: v_raw(-ln(q)), CONCLUSIONS["2.4i"].hi)
    details: dict = {"v_at_minus_log_0.117": v0.to_floats()}

    # V' > 0 at every grid point y_k, proved by runs of points: on a run,
    # v_prime_run_raw(y_i, y_j) bounds V' on [y_i, y_j] from below, since
    # y_0^2 > 3 (checked exactly here); at i = j it is V'(y_i)
    start = grid.point(0)
    if not start * start > 3:
        raise ArithmeticError(f"V' run bounds need start^2 > 3, got start {start}")
    min_vp, failures, settled = _prove_by_runs(_Margins(
        lambda at, i, j: at(v_prime_run_raw, (i, j)),
        lambda key: tuple(map(grid.point, key))), [(0, grid.total_cells + 1)])
    details["min_v_prime_on_grid"] = min_vp
    return build_certificate(
        "2.4i", premises, min_vp, failures=failures, grid=grid, details=details, settled=settled,
        facts=v0.contained_in(Fraction(17, 10000), Fraction(27, 10000)))


#: Why both sides of the sandwiches of 2.4ii and 2.9 increase in q.
_PHI_INCREASES_IN_Q = (
    "with s = q^x, t = -log q and g = s - 1 + x(1-q), phi_q(x) = s g/(1-s)^2, and g > 0"
    " for 0 < q < 1 < x: x -> q^x is convex and g vanishes at x = 0 and x = 1",
    "d/dq log phi_q(x) = (x/q)(1+q)(1+s)(x tanh(t/2) - tanh(xt/2))/((1-s) g) > 0 for"
    " x > 1, since tanh is strictly concave on [0, inf) and tanh 0 = 0",
    "so q -> phi_q(x) increases for every x > 1, and phi_q(1) = 0 for every q",
)


def verify_lemma_2_4_ii() -> Certificate:
    """C_q(39) > 0 on (0.117, 0.91] by the W1/W2 monotone sandwich."""
    premises = _PHI_INCREASES_IN_Q + (
        "W1(q) = Phi_q(40) - Phi_q(1) integrates phi over [1, 40] and"
        " W2(q) = sum_{k=1}^{40} phi_q(k) sums it, so both increase in q",
    )
    return sandwich_verify(w1_raw, w2_raw, lemma_2_4_ii_grid(), target="2.4ii",
                           premises=premises)


def verify_lemma_2_9() -> Certificate:
    """D_q(10) > 0.036 on [0.91, 1) by the J1/J2 monotone sandwich; at the
    last cell's right endpoint q = 1, J2 encloses its exact limit 208609/55440."""
    premises = _PHI_INCREASES_IN_Q + (
        "J1 = integral of phi over [1, 11] minus 0.036 and J2 = sum_{k=1}^{10} phi_q(k)"
        " + phi_q(11)/2 weigh phi positively, so both increase in q on [0.91, 1)",
        "J2 extends to q = 1 by its exact rational limit 208609/55440,"
        " re-derived from lim phi_q(k) = (k-1)/(2k); an increasing J2 stays below it",
    )
    if j2_raw(Fraction(1)) != J2_LIMIT:
        raise ArithmeticError("J2 at q = 1 does not match the pinned limit")
    return sandwich_verify(j1_raw, j2_raw, lemma_2_9_grid(), target="2.9",
                           premises=premises, details={"j2_limit": str(J2_LIMIT)})


def verify_lemma_2_5() -> Certificate:
    """N_q >= 14 on [0.91, 1): Delta and G0 each have exactly one root in
    [0.91, 1] (Sturm), and the endpoint values pin their signs."""
    delta, g0 = delta_polynomial(), g0_polynomial()
    a, b = CONCLUSIONS["2.5"].lo, CONCLUSIONS["2.5"].hi
    roots_delta, roots_g0 = sturm_root_count(delta, a, b), sturm_root_count(g0, a, b)
    delta_at_a, g0_at_a, delta_at_1, g0_at_1 = delta(a), g0(a), delta(b), g0(b)
    checks_ok = (roots_delta == 1 and roots_g0 == 1 and delta_at_a > 0 and g0_at_a < 0
                 and delta_at_1 == 0 and g0_at_1 == 0)
    details = {
        "delta_roots_in_0.91_1": roots_delta,
        "g0_roots_in_0.91_1": roots_g0,
        "delta_at_0.91": float(delta_at_a),
        "g0_at_0.91": float(g0_at_a),
        "delta_at_1_is_zero": delta_at_1 == 0,
        "g0_at_1_is_zero": g0_at_1 == 0,
    }
    premises = (
        "Delta > 0 on [0.91, 1) follows from one root in [0.91, 1], Delta(0.91) > 0,"
        " Delta(1) = 0; likewise G0 < 0 from G0(0.91) < 0, G0(1) = 0",
        "-log(q) <= (1-q) + (11/20)(1-q)^2 bridges G/(1-q) <= G0 wherever Delta > 0",
        "G(q) = a_q(14), so G < 0 places the inflection point N_q beyond 14",
    )
    return build_certificate("2.5", premises, min(delta_at_a, -g0_at_a), facts=checks_ok,
                             cells=2, details=details)


def verify_lemma_2_8() -> Certificate:
    """phi'_q(x) >= -0.035 for q in [0.91, 1), x >= 1, via the h1/h2/h3
    envelope of -Theta_q(14): the directions of h2 = 1/S and h3 = P/S^2 from
    exact polynomial facts, and the envelope at 0.91 as an exact rational."""
    premises = (
        "h1 = -s log(s)/(14(1-s)) with s = q^14 has dh1/ds = (s-1-log s)/(14(1-s)^2) > 0,"
        " so 0 < h1 < lim_{q->1} h1 = 1/14 on (0, 1)",
        "h2 = 1/S with S = 1 + q + ... + q^13 decreases: every coefficient of S is positive",
        "h3 = P/S^2 with P = (14(1+q^14) - (1+q)S)/(1-q) decreases to P(1)/S(1)^2 = 0:"
        " D3 = P'S - 2PS' has no root in (0, 1] (Sturm) and D3(1) < 0",
        "so h1 (h2+h3) <= (h2(0.91)+h3(0.91))/14 on [0.91, 1), a rational computed exactly",
        "h1 (h2+h3) + Theta_q(14) = -q^14 log(q)/(1-q^14)^2 (-q - (1-q)/log q) >= 0,"
        " since 1 - q + q log(q) >= 0 (it vanishes at 1 and has derivative log q < 0)",
        "phi' >= Theta at and beyond the inflection point, and Theta_q is increasing,"
        " so phi'_q(x) >= Theta_q(14) >= -(h2(0.91)+h3(0.91))/14 for x >= 1",
    )
    s, p = h2_denominator_polynomial(), h3_numerator_polynomial()
    d3 = p.derivative() * s - (p * s.derivative()).scale(2)
    d3_roots = sturm_root_count(d3, 0, 1)
    floor, q0 = CONCLUSIONS["2.8"].constant, CONCLUSIONS["2.8"].lo
    envelope = (1 / s(q0) + p(q0) / s(q0) ** 2) / 14
    margin = -floor - envelope
    envelope_doubles = DoubleInterval.lift(envelope)
    details: dict = {
        "envelope_(h2+h3)/14_at_0.91": (envelope_doubles.lo, envelope_doubles.hi),
        "h3_prime_roots_in_0_1": d3_roots,
    }
    exact_ok = (all(c > 0 for c in s.coeffs) and d3_roots == 0 and d3(1) < 0
                and p(1) == 0 and margin > 0)

    # witness grid: phi' > -0.035 at sampled (q, x), proved point by point
    qs = [q0 + k * Fraction(1, 100) for k in range(9)]
    qs += [Fraction(999, 1000), Fraction(9999, 10000)]
    xs = [1, 2, 3, 5, 8, 11, 14, 17, 20, 35, 50, 100, 200]
    points = [(q, x) for q in qs for x in xs]

    def phi_prime_margin(q, x, threshold):
        return phi_prime_raw(q, x) - threshold

    min_pp, failures, settled = _prove_by_runs(_Margins(
        lambda at, k, _: at(phi_prime_margin, k),
        lambda k: (*points[k], floor)), [(k, k + 1) for k in range(len(points))])
    details["min_phi_prime_margin_on_grid"] = min_pp
    details["grid_points"] = len(points)

    return build_certificate("2.8", premises, DoubleInterval.lift(margin).lo,
                             facts=exact_ok and min_pp > 0, failures=failures,
                             cells=len(points), details=details, settled=settled)


class Conclusion(NamedTuple):
    """What one lemma gives Theorem 3.2: its claim, the constant the claim
    compares with, the exact span [lo, hi] of q it covers, and its check."""

    claim: str
    constant: Fraction
    lo: Fraction
    hi: Fraction
    check: Callable[[], Certificate]


#: The cut points of Theorem 3.2's case split, and its lemmas ordered by q:
#: combine_theorem_3_2 refuses spans that do not tile (0, 1).  2.9's constant
#: is the one j1_raw subtracts.
_CUT_LOW, _CUT_HIGH = Fraction(117, 1000), Fraction(91, 100)
CONCLUSIONS: dict[str, Conclusion] = {
    "2.4i": Conclusion("C_q(1) > 0", Fraction(0), Fraction(0), _CUT_LOW, verify_lemma_2_4_i),
    "2.4ii": Conclusion("C_q(39) > 0", Fraction(0), _CUT_LOW, _CUT_HIGH, verify_lemma_2_4_ii),
    "2.5": Conclusion("N_q > 14", Fraction(14), _CUT_HIGH, Fraction(1), verify_lemma_2_5),
    "2.8": Conclusion("phi'_q(x) >= -0.035 for x >= 1", Fraction(-35, 1000), _CUT_HIGH,
                      Fraction(1), verify_lemma_2_8),
    "2.9": Conclusion("D_q(10) > 0.036", _J1_OFFSET, _CUT_HIGH, Fraction(1), verify_lemma_2_9),
}


def verify_lemma(lemma_id: str, mode: Mode = Mode.CERTIFIED, jobs: int = 1) -> Certificate:
    """Run the check of one lemma of CONCLUSIONS, by its id.
    Verification is certified only and runs in one process; any other mode,
    or jobs other than 1, is a DomainError."""
    if mode is not Mode.CERTIFIED:
        raise DomainError(f"lemma verification is certified only, got mode {mode!r}")
    if jobs != 1:
        raise DomainError(f"lemma verification runs in one process, got jobs={jobs!r}")
    if lemma_id not in CONCLUSIONS:
        raise DomainError(f"unknown lemma id {lemma_id!r}; choose from {list(CONCLUSIONS)}")
    return CONCLUSIONS[lemma_id].check()


#: Exact roll-up margin 0.036 - 0.035/2 - 0.035/8 = 113/8000 = 0.014125, from
#: Lemma 2.9's constant and Lemma 2.8's floor.
THEOREM_3_2_MARGIN = (CONCLUSIONS["2.9"].constant + CONCLUSIONS["2.8"].constant / 2
                      + CONCLUSIONS["2.8"].constant / 8)


def combine_theorem_3_2(certificates: dict[str, Certificate]) -> Certificate:
    """Roll up the five ingredient certificates into the F-monotonicity
    verdict: sum of trapezoid errors > 0.036 - 0.035/2 - 0.035/8 > 0.  The
    distinct spans of CONCLUSIONS must tile (0, 1), each from the last's end."""
    required = list(CONCLUSIONS)
    missing = [k for k in required if k not in certificates]
    if missing:
        raise DomainError(f"missing ingredient certificates: {missing}")
    margin = THEOREM_3_2_MARGIN
    if margin <= 0:
        raise ArithmeticError("roll-up margin arithmetic is broken")
    spans = list(dict.fromkeys((c.lo, c.hi) for c in CONCLUSIONS.values()))
    if [lo for lo, _ in spans] + [1] != [0] + [hi for _, hi in spans]:
        raise ArithmeticError("the lemma spans " + ", ".join(f"[{lo}, {hi}]" for lo, hi in spans)
                              + " do not tile (0, 1)")
    details = {
        "margin_exact": str(margin),
        "margin_decimal": float(margin),
        "ingredients": {k: certificates[k].passed for k in required},
    }
    return build_certificate(
        "thm3.2", ("case q <= 0.91 from 2.4i/2.4ii; case q > 0.91 from 2.5/2.8/2.9",), margin,
        failures=[i for i, k in enumerate(required) if not certificates[k].passed],
        cells=len(required), details=details)
