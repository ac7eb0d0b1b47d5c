"""Monotone-sandwich grid verification, Sturm root counts, analytic spot
checks, and certificate emission.

The sandwich scheme: to certify lower(q) > upper(q) on a span where both
functions are increasing in q, it is enough to check
lower(cell_left) - upper(cell_right) > 0 on every cell of a grid tiling the
span.  Cell endpoints are exact rationals; every evaluation is an
outward-rounded enclosure, and a cell passes only when the enclosure of its
margin is strictly positive: first in outward-rounded doubles, and at
working precision where those do not separate.  Certificates record the
grid, the smallest verified margin, the monotonicity premises taken as
input, and pass/fail.
"""

from __future__ import annotations

import json
import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Optional, Sequence

from mpmath import iv

from .intervals import (
    DomainError,
    DoubleInterval,
    Enclosure,
    Mode,
    interval_precision,
    mpf_to_fraction,
    to_ivmpf,
    working_precision,
    _float_down,
    _float_up,
)
from .lemma_functions import (
    _in_mode,
    delta_polynomial,
    g0_polynomial,
    h1_raw,
    h2_raw,
    h3_raw,
    j1_raw,
    j2_raw,
    phi_limit_at_one,
    phi_prime_raw,
    theta_raw,
    u_raw,
    v_raw,
    v_prime_raw,
    w1_raw,
    w2_raw,
)
from .polynomials import Polynomial, sturm_root_count

SCHEMA_VERSION = 1

_SPOT_CHECK_SEED = 20260810
_SPOT_CHECK_PAIRS = 100


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
    def span(self) -> tuple[Fraction, Fraction]:
        return self.segments[0].start, self.segments[-1].end

    @property
    def total_cells(self) -> int:
        return sum(s.count for s in self.segments)

    def cells(self):
        """Yield (index, left, right) with exact rational endpoints."""
        idx = 0
        for seg in self.segments:
            for k in range(seg.count):
                yield idx, seg.start + k * seg.step, seg.start + (k + 1) * seg.step
                idx += 1

    def to_json_dict(self) -> dict:
        return {
            "segments": [
                {"start": str(s.start), "step": str(s.step), "count": s.count}
                for s in self.segments
            ]
        }


def lemma_2_4_ii_grid() -> GridSpec:
    """[0.117, 0.91]: coarse to 0.835, finer to 0.9, finest to 0.91."""
    return GridSpec((
        GridSegment(Fraction(117, 1000), Fraction(1, 1000), 718),
        GridSegment(Fraction(835, 1000), Fraction(1, 20000), 1300),
        GridSegment(Fraction(9, 10), Fraction(1, 500000), 5000),
    ))


def lemma_2_9_grid() -> GridSpec:
    """[0.91, 1.0] in 900 cells of width 1e-4."""
    return GridSpec((GridSegment(Fraction(91, 100), Fraction(1, 10000), 900),))


def lemma_2_4_i_v_prime_grid() -> GridSpec:
    """y-grid [2.145, 50] in steps of 0.005."""
    return GridSpec((GridSegment(Fraction(2145, 1000), Fraction(5, 1000), 9571),))


# -- certificates ----------------------------------------------------------------


@dataclass
class Certificate:
    """Machine-checkable record of one verification run.

    passed is True only for CERTIFIED runs with no failing cells and a
    strictly positive minimum margin.
    """

    target: str
    grid: Optional[GridSpec]
    cells_checked: int
    min_margin: float
    mode: Mode
    passed: bool
    failures: tuple[int, ...] = ()
    premises: tuple[str, ...] = ()
    details: dict = field(default_factory=dict)
    #: how a certified sandwich settled its cells: counts "doubles" and
    #: "working_precision", and "min_margin_rechecks" of cells settled in
    #: doubles and re-evaluated for min_margin.  A diagnostic, not part of
    #: the JSON document.
    settled: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "target": self.target,
            "grid": self.grid.to_json_dict() if self.grid is not None else None,
            "cells_checked": self.cells_checked,
            "min_margin": self.min_margin,
            "mode": self.mode.value,
            "passed": self.passed,
            "failures": list(self.failures),
            "premises": list(self.premises),
            "details": self.details,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


# -- sandwich engine --------------------------------------------------------------


class SandwichBound:
    """One side of a monotone sandwich: a raw formula of lemma_functions at an
    exact cell endpoint q, with an optional exact value at q = 1, where the
    formula is singular.

    Calling it gives a certified Enclosure, or a float in FAST mode.
    `doubles` gives a DoubleInterval: certified sandwich checks try that
    cheap enclosure first and go to working precision only where it does not
    separate.
    """

    def __init__(self, raw: Callable, value_at_one: Optional[Fraction] = None):
        self.raw = raw
        self.value_at_one = value_at_one

    def _formula(self, q: Fraction):
        if q == 1 and self.value_at_one is not None:
            return _constant, self.value_at_one
        return self.raw, q

    def __call__(self, q: Fraction, mode: Mode = Mode.CERTIFIED):
        return _in_mode(mode, *self._formula(q))

    def doubles(self, q: Fraction) -> DoubleInterval:
        fn, arg = self._formula(q)
        return fn(DoubleInterval.lift(arg))


def _constant(value):
    return value


def _working_margin(lower, upper, left, right) -> tuple[bool, float, float]:
    """(passes, lower endpoint, upper endpoint) of the certified margin
    lower(left) - upper(right) at working precision."""
    margin = lower(left) - upper(right)
    return margin.lo > 0, float(_float_down(margin.lo)), _float_up(margin.hi)


def _cell_margin(args) -> tuple[bool, float, float, bool]:
    """(passes, margin lower endpoint, margin upper endpoint, settled in
    doubles) of one cell.  A certified cell between two SandwichBounds is
    settled in doubles when that margin is strictly positive."""
    lower, upper, left, right, certified = args
    if not certified:
        margin = lower(left) - upper(right)
        return margin > 0.0, margin, margin, False
    if isinstance(lower, SandwichBound) and isinstance(upper, SandwichBound):
        margin = lower.doubles(left) - upper.doubles(right)
        if margin.lo > 0:
            return True, margin.lo, margin.hi, True
    return (*_working_margin(lower, upper, left, right), False)


def _tally(results) -> tuple[tuple[int, ...], list, list[bool], float]:
    """(failing cells, margin lower endpoints, settled-in-doubles flags,
    smallest margin upper endpoint) from _cell_margin results in cell order,
    in one pass so that the cells of long grids are never held in memory."""
    failures, margins, in_doubles, ceiling = [], [], [], math.inf
    for idx, (ok, lo, hi, doubled) in enumerate(results):
        if not ok:
            failures.append(idx)
        margins.append(lo)
        in_doubles.append(doubled)
        ceiling = min(ceiling, hi)
    return tuple(failures), margins, in_doubles, ceiling


def sandwich_verify(
    lower: Callable[[Fraction], object],
    upper: Callable[[Fraction], object],
    grid: GridSpec,
    mode: Mode = Mode.CERTIFIED,
    target: str = "sandwich",
    premises: Sequence[str] = (),
    jobs: int = 1,
    details: Optional[dict] = None,
) -> Certificate:
    """Check lower(cell_left) - upper(cell_right) > 0 on every grid cell.

    The caller asserts (and should document via `premises`) that both
    functions are increasing on the grid span; under that premise a passing
    certificate proves lower > upper on the whole span.  Refining the grid
    can only grow cell margins, so min_margin of a 2x-refined run is never
    below ~0.99 of the coarse run's (up to outward-rounding slack).

    In CERTIFIED mode the callables must return Enclosure and a cell passes
    only when the margin enclosure is strictly positive; FAST margins are
    informational and the certificate never passes.  When both callables are
    SandwichBounds, a cell whose DoubleInterval margin is strictly positive
    passes on it; only the others are evaluated at working precision.
    min_margin is the working-precision value all the same: a cell settled
    in doubles is re-evaluated when its lower endpoint does not exceed the
    smallest upper endpoint of any cell's margin.  That includes the cell
    holding the minimum, and every other double lower endpoint lies above it.
    """
    certified = mode is Mode.CERTIFIED
    tasks = ((lower, upper, left, right, certified) for _, left, right in grid.cells())
    if jobs > 1:
        chunk = max(1, grid.total_cells // (jobs * 8))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            failures, margins, in_doubles, ceiling = _tally(
                pool.map(_cell_margin, tasks, chunksize=chunk))
    else:
        failures, margins, in_doubles, ceiling = _tally(map(_cell_margin, tasks))
    settled = {}
    if certified:
        rechecks = {idx for idx, lo in enumerate(margins) if in_doubles[idx] and lo <= ceiling}
        for idx, left, right in grid.cells():
            if idx in rechecks:
                margins[idx] = _working_margin(lower, upper, left, right)[1]
        doubles = sum(in_doubles)
        settled = {"doubles": doubles, "working_precision": len(margins) - doubles,
                   "min_margin_rechecks": len(rechecks)}
    min_margin = min(margins)
    passed = certified and not failures and min_margin > 0
    return Certificate(
        target=target,
        grid=grid,
        cells_checked=len(margins),
        min_margin=float(min_margin),
        mode=mode,
        passed=passed,
        failures=failures,
        premises=tuple(premises),
        details=details or {},
        settled=settled,
    )


# -- lemma-specific evaluators (module level so --jobs can pickle them) ---------


def j2_limit_exact() -> Fraction:
    """Limit of J2 at q -> 1-, from lim phi_q(k) = (k-1)/(2k), exactly."""
    total = sum(phi_limit_at_one(Fraction(k)) for k in range(1, 11))
    return total + phi_limit_at_one(Fraction(11)) / 2


#: Exact value of the J2 limit; reproduced by j2_limit_exact() and pinned here.
J2_LIMIT = Fraction(208609, 55440)

#: W1, W2 (Lemma 2.4ii) and J1, J2 (Lemma 2.9) as sandwich sides: see
#: lemma_functions.w1_raw .. j2_raw.  J2 takes its exact limit at q = 1.
w1_lower = SandwichBound(w1_raw)
w2_upper = SandwichBound(w2_raw)
j1_lower = SandwichBound(j1_raw)
j2_upper = SandwichBound(j2_raw, J2_LIMIT)


# -- monotonicity spot checks -----------------------------------------------------


def _spot_check_monotone(
    fn: Callable[[Fraction], Enclosure],
    lo: Fraction,
    hi: Fraction,
    increasing: bool,
    pairs: int = _SPOT_CHECK_PAIRS,
    min_gap: Fraction = Fraction(1, 100),
) -> bool:
    """Certified ordering of fn at `pairs` random point pairs (seeded RNG)."""
    rng = random.Random(_SPOT_CHECK_SEED)
    span = hi - lo - min_gap
    for _ in range(pairs):
        a = lo + span * Fraction(rng.randrange(10**6), 10**6)
        b = a + min_gap + (hi - a - min_gap) * Fraction(rng.randrange(10**6), 10**6)
        if not (_certified_below(fn, a, b) if increasing else _certified_below(fn, b, a)):
            return False
    return True


def _certified_below(fn: Callable[[Fraction], Enclosure], a: Fraction, b: Fraction) -> bool:
    """fn(a) < fn(b), certified; a SandwichBound is tried in doubles first."""
    if isinstance(fn, SandwichBound) and fn.doubles(a).hi < fn.doubles(b).lo:
        return True
    return fn(a).strictly_below(fn(b))


# -- lemma pipelines ---------------------------------------------------------------


def _all_and_min(
    values: Iterable[Enclosure], ok: Callable[[Enclosure], bool]
) -> tuple[bool, float]:
    """(every value passes ok, the smallest lower endpoint as a double), in
    one pass so that long grids are never held in memory."""
    all_ok, min_lo = True, math.inf
    for v in values:
        all_ok = all_ok and ok(v)
        min_lo = min(min_lo, v.to_floats()[0])
    return all_ok, min_lo


def verify_lemma_2_4_i(mode: Mode = Mode.CERTIFIED) -> Certificate:
    """C_q(1) > 0 on (0, 0.117]: endpoint value of V, positivity of V' on a
    grid, and the closed-form chain C_q(1) = U/((q+1)^2 log^2 q),
    U >= q V(-log q), sampled over the span."""
    grid = lemma_2_4_i_v_prime_grid()
    premises = (
        "every term of V'(y) = (y^2-3)e^-y + 4y e^-2y + 3e^-3y is nonnegative for y >= sqrt(3)",
        "grid start 2.145 satisfies 2.145^2 = 4.601025 > 3 exactly, so the analytic"
        " positivity covers [2.145, inf); the grid evaluation witnesses it on [2.145, 50]",
        "U(q) >= q V(-log q) uses log(1+q) <= q and q - 1 - log(q) > 0",
    )
    details: dict = {}
    wp = working_precision()
    with interval_precision(wp):
        y0 = -iv.log(to_ivmpf(Fraction(117, 1000)))
        v0 = Enclosure(v_raw(y0))
    details["v_at_minus_log_0.117"] = v0.to_floats()
    v0_ok = v0.contained_in(Fraction(17, 10000), Fraction(27, 10000)) and v0.is_positive()

    # V' > 0 at every grid boundary point
    seg = grid.segments[0]
    with interval_precision(wp):
        vp_ok, min_vp = _all_and_min(
            (Enclosure(v_prime_raw(to_ivmpf(seg.start + k * seg.step)))
             for k in range(seg.count + 1)),
            Enclosure.is_positive,
        )
    details["min_v_prime_on_grid"] = min_vp

    # chain samples over q in (0, 0.117]
    samples = []
    with interval_precision(wp):
        for k in range(1, 118):
            q_iv = to_ivmpf(Fraction(k, 1000))
            u_enc = Enclosure(u_raw(q_iv))
            c1 = u_enc / Enclosure((1 + q_iv) ** 2 * iv.log(q_iv) ** 2)
            gap = u_enc - Enclosure(q_iv * v_raw(-iv.log(q_iv)))
            samples.append((u_enc, c1, gap))
    us, c1s, gaps = zip(*samples)
    u_ok, details["min_U_on_samples"] = _all_and_min(us, Enclosure.is_positive)
    c1_ok, min_c1 = _all_and_min(c1s, Enclosure.is_positive)
    gap_ok, details["min_U_minus_qV_on_samples"] = _all_and_min(gaps, lambda g: g.lo >= 0)
    details["min_C1_on_samples"] = min_c1
    details["chain_samples"] = 117

    checks_ok = v0_ok and vp_ok and u_ok and c1_ok and gap_ok
    passed = mode is Mode.CERTIFIED and checks_ok and (min_vp or 0) > 0
    return Certificate(
        target="2.4i",
        grid=grid,
        cells_checked=grid.total_cells,
        min_margin=min(min_vp, min_c1),
        mode=mode,
        passed=passed,
        failures=(),
        premises=premises,
        details=details,
    )


def _verify_sandwich_lemma(
    target: str,
    lower: Callable,
    upper: Callable,
    grid: GridSpec,
    spot_span: tuple[Fraction, Fraction],
    premises: Sequence[str],
    mode: Mode,
    jobs: int,
    details: dict,
) -> Certificate:
    """Sandwich-verify lower > upper (two SandwichBounds) on the grid.  In
    CERTIFIED mode both are also spot-checked for increase on spot_span, and
    a failed spot check fails the certificate; FAST mode records None."""
    spot_ok = None
    if mode is Mode.CERTIFIED:
        spot_ok = all(_spot_check_monotone(fn, *spot_span, True) for fn in (lower, upper))
    else:
        lower, upper = partial(lower, mode=mode), partial(upper, mode=mode)
    details["monotonicity_spot_checks"] = spot_ok
    cert = sandwich_verify(
        lower, upper, grid, mode=mode, target=target,
        premises=premises, jobs=jobs, details=details,
    )
    if spot_ok is False:
        cert.passed = False
    return cert


def verify_lemma_2_4_ii(mode: Mode = Mode.CERTIFIED, jobs: int = 1) -> Certificate:
    """C_q(39) > 0 on (0.117, 0.91] by the W1/W2 monotone sandwich."""
    premises = (
        "W1(q) = Phi_q(40) - Phi_q(1) and W2(q) = sum_{k=1}^{40} phi_q(k) are"
        " increasing in q (q -> phi_q(x) is increasing for each x >= 1)",
        "monotonicity spot-checked on 100 seeded random pairs",
    )
    return _verify_sandwich_lemma(
        "2.4ii", w1_lower, w2_upper, lemma_2_4_ii_grid(),
        (Fraction(117, 1000), Fraction(91, 100)), premises, mode, jobs, {},
    )


def verify_lemma_2_9(mode: Mode = Mode.CERTIFIED, jobs: int = 1) -> Certificate:
    """D_q(10) > 0.036 on [0.91, 1) by the J1/J2 monotone sandwich; the last
    cell's right endpoint q = 1 uses the exact limit J2(1) = 208609/55440."""
    premises = (
        "J1 and J2 are increasing in q on [0.91, 1) (q -> phi_q(x) increasing)",
        "J2 extends to q = 1 by its exact rational limit 208609/55440,"
        " re-derived from lim phi_q(k) = (k-1)/(2k)",
        "monotonicity spot-checked on 100 seeded random pairs",
    )
    if j2_limit_exact() != J2_LIMIT:
        raise ArithmeticError("exact J2 limit does not match the pinned fixture")
    return _verify_sandwich_lemma(
        "2.9", j1_lower, j2_upper, lemma_2_9_grid(),
        (Fraction(91, 100), Fraction(9999, 10000)), premises, mode, jobs,
        {"j2_limit": str(J2_LIMIT)},
    )


def verify_lemma_2_5(mode: Mode = Mode.CERTIFIED) -> Certificate:
    """N_q >= 14 on [0.91, 1): Delta and G0 each have exactly one root in
    [0.91, 1] (Sturm), and the endpoint values pin their signs."""
    delta = delta_polynomial()
    g0 = g0_polynomial()
    a, b = Fraction(91, 100), Fraction(1)
    roots_delta = sturm_root_count(delta, a, b)
    roots_g0 = sturm_root_count(g0, a, b)
    delta_at_a = delta(a)
    g0_at_a = g0(a)
    delta_at_1 = delta(b)
    g0_at_1 = g0(b)
    checks_ok = (
        roots_delta == 1
        and roots_g0 == 1
        and delta_at_a > 0
        and g0_at_a < 0
        and delta_at_1 == 0
        and g0_at_1 == 0
    )
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
    return Certificate(
        target="2.5",
        grid=None,
        cells_checked=2,
        min_margin=float(min(delta_at_a, -g0_at_a)),
        mode=mode,
        passed=mode is Mode.CERTIFIED and checks_ok,
        failures=(),
        premises=premises,
        details=details,
    )


def verify_lemma_2_8(mode: Mode = Mode.CERTIFIED) -> Certificate:
    """phi'_q(x) >= -0.035 for q in [0.91, 1), x >= 1, via the h1/h2/h3
    envelope of -Theta_q(14) and monotonicity endpoints."""
    premises = (
        "h1 is increasing, h2 and h3 decreasing on (0,1) (integral representations);"
        " spot-checked on 100 seeded random pairs",
        "h1 < lim_{q->1} h1 = 1/14, so h1 (h2+h3) <= (h2(0.91)+h3(0.91))/14 on [0.91, 1)",
        "phi' >= Theta at and beyond the inflection point, and Theta_q is increasing,"
        " so phi'_q(x) >= Theta_q(14) >= -(h2(0.91)+h3(0.91))/14 for x >= 1",
    )
    details: dict = {}
    h1, h2, h3 = (partial(_in_mode, Mode.CERTIFIED, fn) for fn in (h1_raw, h2_raw, h3_raw))
    lo, hi = Fraction(91, 100), Fraction(1) - Fraction(1, 10**6)
    ok_h1 = _spot_check_monotone(h1, lo, hi, True)
    ok_h2 = _spot_check_monotone(h2, lo, hi, False)
    ok_h3 = _spot_check_monotone(h3, lo, hi, False)
    details["h_monotonicity_spot_checks"] = bool(ok_h1 and ok_h2 and ok_h3)

    h1_near_one = h1(Fraction(1) - Fraction(1, 10**9))
    details["h1_near_1"] = h1_near_one.to_floats()
    h1_ok = h1_near_one.strictly_below(Fraction(1, 14))

    with interval_precision(working_precision()):
        q91 = to_ivmpf(Fraction(91, 100))
        envelope = Enclosure((h2_raw(q91) + h3_raw(q91)) / 14)
    details["envelope_(h2+h3)/14_at_0.91"] = envelope.to_floats()
    envelope_ok = (envelope.contained_in(Fraction(33, 1000), Fraction(35, 1000))
                   and mpf_to_fraction(envelope.hi) < Fraction(35, 1000))

    # -Theta_q(14) <= h1 (h2 + h3) on sampled q (inequality (1-q)/log q <= -q)
    slack = partial(_in_mode, Mode.CERTIFIED,
                    lambda q: h1_raw(q) * (h2_raw(q) + h3_raw(q)) + theta_raw(q, 14))
    slack_ok, details["min_envelope_slack"] = _all_and_min(
        (slack(Fraction(91, 100) + k * Fraction(9, 1000)) for k in range(10)),
        lambda gap: gap.lo >= 0,
    )

    # direct spot grid: phi' >= -0.035 on sampled (q, x)
    threshold = Fraction(-35, 1000)
    qs = [Fraction(91, 100) + k * Fraction(1, 100) for k in range(9)]
    qs += [Fraction(999, 1000), Fraction(9999, 10000)]
    xs = [1, 2, 3, 5, 8, 11, 14, 17, 20, 35, 50, 100, 200]
    with interval_precision(working_precision()):
        grid_ok, details["min_phi_prime_on_grid"] = _all_and_min(
            (Enclosure(phi_prime_raw(q_iv, x)) for q_iv in map(to_ivmpf, qs) for x in xs),
            lambda val: val.strictly_above(threshold),
        )
    details["grid_points"] = len(qs) * len(xs)

    checks_ok = (ok_h1 and ok_h2 and ok_h3 and h1_ok and envelope_ok
                 and slack_ok and grid_ok)
    return Certificate(
        target="2.8",
        grid=None,
        cells_checked=len(qs) * len(xs),
        min_margin=float(Fraction(35, 1000)) - envelope.to_floats()[1],
        mode=mode,
        passed=mode is Mode.CERTIFIED and bool(checks_ok),
        failures=(),
        premises=premises,
        details=details,
    )


LEMMA_VERIFIERS = {
    "2.4i": verify_lemma_2_4_i,
    "2.4ii": verify_lemma_2_4_ii,
    "2.5": verify_lemma_2_5,
    "2.8": verify_lemma_2_8,
    "2.9": verify_lemma_2_9,
}


def verify_lemma(lemma_id: str, mode: Mode = Mode.CERTIFIED, jobs: int = 1) -> Certificate:
    """Run one lemma pipeline by id ('2.4i', '2.4ii', '2.5', '2.8', '2.9')."""
    if lemma_id not in LEMMA_VERIFIERS:
        raise DomainError(f"unknown lemma id {lemma_id!r}; "
                          f"choose from {sorted(LEMMA_VERIFIERS)}")
    fn = LEMMA_VERIFIERS[lemma_id]
    if lemma_id in ("2.4ii", "2.9"):
        return fn(mode=mode, jobs=jobs)
    return fn(mode=mode)


#: Exact roll-up margin 36/1000 - 35/2000 - 35/8000 = 113/8000 = 0.014125.
THEOREM_3_2_MARGIN = Fraction(36, 1000) - Fraction(35, 2000) - Fraction(35, 8000)


def combine_theorem_3_2(certificates: dict[str, Certificate]) -> Certificate:
    """Roll up the five ingredient certificates into the F-monotonicity
    verdict: sum of trapezoid errors > 0.036 - 0.035/2 - 0.035/8 > 0."""
    required = ("2.4i", "2.4ii", "2.5", "2.8", "2.9")
    missing = [k for k in required if k not in certificates]
    if missing:
        raise DomainError(f"missing ingredient certificates: {missing}")
    all_passed = all(certificates[k].passed for k in required)
    margin = THEOREM_3_2_MARGIN
    if margin != Fraction(113, 8000) or margin <= 0:
        raise ArithmeticError("roll-up margin arithmetic is broken")
    details = {
        "margin_exact": str(margin),
        "margin_decimal": float(margin),
        "ingredients": {k: certificates[k].passed for k in required},
    }
    return Certificate(
        target="thm3.2",
        grid=None,
        cells_checked=len(required),
        min_margin=float(margin),
        mode=Mode.CERTIFIED,
        passed=all_passed,
        failures=tuple(i for i, k in enumerate(required) if not certificates[k].passed),
        premises=("case q <= 0.91 from 2.4i/2.4ii; case q > 0.91 from 2.5/2.8/2.9",),
        details=details,
    )
