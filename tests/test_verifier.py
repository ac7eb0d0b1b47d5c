"""Sandwich engine, grids, certificates and the lemma pipelines (on reduced
grids here; the full production grids run in the acceptance suite)."""

import ast
import json
import math
import os
import heapq
import random
import subprocess
import sys
from fractions import Fraction
from functools import partial
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

import pytest

import divisor_series
from divisor_series import verifier
from divisor_series.intervals import (
    DomainError,
    DoubleInterval,
    Enclosure,
    Mode,
    interval_precision,
    mpf_to_fraction,
    to_ivmpf,
    working_precision,
)
from divisor_series.lemma_functions import (
    h2_denominator_polynomial,
    h3_numerator_polynomial,
    j1_raw,
    j2_raw,
    phi_prime_raw,
    v_prime_run_raw,
    w1_raw,
    w2_raw,
)
from divisor_series.polynomials import Polynomial
from divisor_series.verifier import (
    _Margins,
    _prove_by_runs,
    CONCLUSIONS,
    Certificate,
    GridSegment,
    GridSpec,
    J2_LIMIT,
    THEOREM_3_2_MARGIN,
    combine_theorem_3_2,
    j1_lower,
    j2_upper,
    lemma_2_4_i_v_prime_grid,
    lemma_2_4_ii_grid,
    lemma_2_9_grid,
    sandwich_verify,
    verify_lemma,
    verify_lemma_2_4_i,
    verify_lemma_2_5,
    w1_lower,
    w2_upper,
)
from oracles import per_cell_sandwich


# -- grids -------------------------------------------------------------------


def test_lemma_grids_tile_exactly():
    grid = lemma_2_4_ii_grid()
    s1, s2, s3 = grid.segments
    assert s1.start + s1.count * s1.step == Fraction(835, 1000)
    assert s2.start + s2.count * s2.step == Fraction(9, 10)
    assert s3.start + s3.count * s3.step == Fraction(91, 100)
    assert (grid.point(0), grid.point(grid.total_cells)) == (Fraction(117, 1000), Fraction(91, 100))
    assert grid.total_cells == 7018
    grid = lemma_2_9_grid()
    assert (grid.point(0), grid.point(grid.total_cells)) == (Fraction(91, 100), Fraction(1))
    assert grid.total_cells == 900
    for grid_fn, lemma_id in ((lemma_2_4_ii_grid, "2.4ii"), (lemma_2_9_grid, "2.9")):
        grid, span = grid_fn(), CONCLUSIONS[lemma_id]
        assert (grid.point(0), grid.point(grid.total_cells)) == (span.lo, span.hi)


@pytest.mark.parametrize("grid_fn, lemma_id, change, error, message", [
    (lemma_2_4_ii_grid, "2.4ii", {"hi": Fraction(92, 100)}, ArithmeticError,
     r"^2\.4ii grid \[117/1000, 91/100\] != its span \[117/1000, 23/25\]$"),
    (lemma_2_4_ii_grid, "2.4ii", {"lo": Fraction(118, 1000)}, DomainError,
     "grid segments leave a gap: 209/250 != 167/200"),
    (lemma_2_9_grid, "2.9", {"lo": Fraction(92, 100)}, ArithmeticError,
     r"^2\.9 grid \[23/25, 101/100\] != its span \[23/25, 1\]$"),
    (lemma_2_9_grid, "2.9", {"hi": Fraction(99, 100)}, ArithmeticError,
     r"^2\.9 grid \[91/100, 1\] != its span \[91/100, 99/100\]$"),
], ids=["2.4ii-end", "2.4ii-start", "2.9-start", "2.9-end"])
def test_lemma_grid_refuses_a_span_it_does_not_cover(monkeypatch, grid_fn, lemma_id, change,
                                                     error, message):
    """Each grid starts at its lemma's span and is checked to end there: a
    moved start leaves the fixed segments short or disjoint, a moved end
    leaves the grid's end behind."""
    monkeypatch.setitem(CONCLUSIONS, lemma_id, CONCLUSIONS[lemma_id]._replace(**change))
    with pytest.raises(error, match=message):
        grid_fn()


def test_grid_rejects_gaps():
    with pytest.raises(DomainError):
        GridSpec((
            GridSegment(Fraction(0), Fraction(1, 10), 5),
            GridSegment(Fraction(6, 10), Fraction(1, 10), 4),
        ))


@pytest.mark.parametrize("grid_fn", [lemma_2_4_ii_grid, lemma_2_9_grid,
                                     lemma_2_4_i_v_prime_grid])
def test_grid_cell_matches_enumeration(grid_fn):
    """point(k) from segment offsets against the segment-by-segment walk."""
    grid = grid_fn()
    walk = [(seg.start + k * seg.step, seg.start + (k + 1) * seg.step)
            for seg in grid.segments for k in range(seg.count)]
    assert len(walk) == grid.total_cells
    for idx, (left, right) in enumerate(walk):
        assert grid.point(idx) == left and grid.point(idx + 1) == right
    for outside in (-1, grid.total_cells + 1):
        with pytest.raises(IndexError):
            grid.point(outside)


# -- sandwich engine -----------------------------------------------------------


def test_degenerate_sandwich():
    grid = GridSpec((GridSegment(Fraction(0), Fraction(1), 1),))
    cert = sandwich_verify(lambda q: q * 0 + 1, lambda q: q * 0, grid)
    assert cert.passed and cert.min_margin == 1.0 and cert.cells_checked == 1


def test_sandwich_failure_lists_cells():
    grid = GridSpec((GridSegment(Fraction(0), Fraction(1), 2),))
    cert = sandwich_verify(lambda q: q * 0, lambda q: q * 0 + 1, grid)
    assert not cert.passed
    assert cert.failures == (0, 1)


def _j_subgrid(start: Fraction, step: Fraction, count: int) -> GridSpec:
    return GridSpec((GridSegment(start, step, count),))


def test_sandwich_refinement_keeps_margin():
    """Halving the cell width never shrinks the verified margin below ~0.99x
    of the coarse one (monotone sandwich: refined cells are sub-cells)."""
    coarse = sandwich_verify(
        j1_raw, j2_raw, _j_subgrid(Fraction(92, 100), Fraction(1, 10000), 10)
    )
    refined = sandwich_verify(
        j1_raw, j2_raw, _j_subgrid(Fraction(92, 100), Fraction(1, 20000), 20)
    )
    assert coarse.passed and refined.passed
    assert refined.min_margin >= 0.99 * coarse.min_margin


def test_sandwich_matches_per_cell_working_precision():
    grid = _j_subgrid(Fraction(92, 100), Fraction(1, 1000), 8)
    cert = sandwich_verify(j1_raw, j2_raw, grid)
    reference = per_cell_sandwich(j1_raw, j2_raw, grid)
    assert cert.to_json() == reference.to_json()


def test_certificates_deterministic():
    grid = _j_subgrid(Fraction(95, 100), Fraction(1, 1000), 5)
    a = sandwich_verify(j1_raw, j2_raw, grid, target="det-check")
    b = sandwich_verify(j1_raw, j2_raw, grid, target="det-check")
    assert a.to_json().encode() == b.to_json().encode()


_GOLDEN_CERTIFICATES = Path(__file__).parent / "data" / "certificates"


@pytest.mark.parametrize("lemma_id, passed, min_margin, cells_checked, grid", [
    ("2.4ii", True, 0.00034299469112613045, 7018, {"segments": [
        {"start": "117/1000", "step": "1/1000", "count": 718},
        {"start": "167/200", "step": "1/20000", "count": 1300},
        {"start": "9/10", "step": "1/500000", "count": 5000}]}),
    ("2.9", True, 1.069841298949963e-05, 900, {"segments": [
        {"start": "91/100", "step": "1/10000", "count": 900}]}),
])
def test_sandwich_goldens_keep_their_verdicts(lemma_id, passed, min_margin, cells_checked, grid):
    """Stating the monotonicity lemma as a premise rewrote the premises of
    2.4ii and 2.9; their verdict, margin, cell count and grid stay pinned."""
    doc = json.loads((_GOLDEN_CERTIFICATES / f"{lemma_id}.json").read_text())
    assert (doc["passed"], doc["min_margin"], doc["cells_checked"], doc["grid"]) == (
        passed, min_margin, cells_checked, grid)
    assert "monotonicity_spot_checks" not in doc["details"]


def test_no_module_samples_with_random():
    """No premise is sampled: no module of the package imports random."""
    src = Path(divisor_series.__file__).parent
    importers = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "random" for name in names):
                importers.append(path.name)
    assert importers == []


# -- double-first certified sandwich ------------------------------------------------


class _NotSeparatingAt:
    """W1, or another raw formula, whose DoubleInterval is the whole line at
    the chosen points: no run or cell that starts at one of them separates
    in doubles."""

    def __init__(self, points, raw=w1_raw):
        self.raw, self.points = raw, {(p.lo, p.hi) for p in map(DoubleInterval.lift, points)}

    def __call__(self, q):
        if isinstance(q, DoubleInterval) and (q.lo, q.hi) in self.points:
            return DoubleInterval(-math.inf, math.inf)
        return self.raw(q)


def test_forced_fallback_cells_match_working_precision_certificate():
    grid = GridSpec((GridSegment(Fraction(835, 1000), Fraction(1, 20000), 12),))
    forced = (0, 5, 6, 11)
    cert = sandwich_verify(_NotSeparatingAt(grid.point(i) for i in forced), w2_raw, grid)
    reference = per_cell_sandwich(w1_raw, w2_raw, grid)
    assert cert.passed and reference.passed
    assert cert.to_json() == reference.to_json()
    assert cert.settled["doubles"] == 12 - len(forced)
    assert cert.settled["working_precision"] == len(forced)
    assert reference.settled == {"doubles": 0, "working_precision": 12,
                                 "min_margin_rechecks": 0, "runs": 0, "evaluations": 0}


def test_lemma_2_9_last_cells_pass_by_fallback():
    """Cells 898 and 899 of the 2.9 grid (q >= 0.9998) do not separate in
    doubles, where the closed form of J1 cancels; they pass at working
    precision, the last one against the exact limit J2(1)."""
    grid = _j_subgrid(Fraction(9997, 10000), Fraction(1, 10000), 3)  # cells 897..899
    for k in (1, 2):
        left, right = DoubleInterval.lift(grid.point(k)), DoubleInterval.lift(grid.point(k + 1))
        assert not (j1_raw(left) - j2_raw(right)).lo > 0
    cert = sandwich_verify(j1_raw, j2_raw, grid)
    assert cert.passed and cert.failures == ()
    assert cert.settled["doubles"] == 1 and cert.settled["working_precision"] == 2
    reference = per_cell_sandwich(j1_raw, j2_raw, grid)
    assert cert.to_json() == reference.to_json()


def test_truly_negative_cell_is_the_only_failure():
    """margin(l) = l^2 - (4(l+1) - 15/2) = l^2 - 4l + 7/2 on cells [l, l+1],
    l = 0..4: 7/2, 1/2, -1/2, 1/2, 7/2, so only cell 2 fails."""
    lower = lambda q: q * q
    upper = lambda q: (8 * q - 15) / 2
    grid = GridSpec((GridSegment(Fraction(0), Fraction(1), 5),))
    cert = sandwich_verify(lower, upper, grid)
    assert not cert.passed
    assert cert.failures == (2,)
    assert cert.min_margin == -0.5
    assert cert.settled["doubles"] == 4 and cert.settled["working_precision"] == 1


def test_double_first_sandwich_fallback_matches_per_cell_working_precision():
    """The last ten cells of the 2.9 grid: two fall back to working precision."""
    grid = _j_subgrid(Fraction(9990, 10000), Fraction(1, 10000), 10)
    cert = sandwich_verify(j1_raw, j2_raw, grid)
    reference = per_cell_sandwich(j1_raw, j2_raw, grid)
    assert cert.passed and cert.settled["working_precision"] == 2
    assert cert.to_json() == reference.to_json()


# -- runs of cells -------------------------------------------------------------------


def _cubic(a, b, q):
    return (a * q**3 + b) / 7


def _line(c, d, q):
    return (c * q + d) / 7


class _Counted:
    """A raw formula that records the points of its calls on DoubleIntervals."""

    def __init__(self, raw):
        self.raw, self.points = raw, []

    def __call__(self, q):
        if isinstance(q, DoubleInterval):
            self.points.append((q.lo, q.hi))
        return self.raw(q)


def _random_sandwiches():
    """Seeded grids of 1-3 segments in [0, 3.4], increasing cubic over
    increasing line, margins of both signs, and points where doubles do not
    separate: 30 triples (lower, upper, grid)."""
    rng = random.Random(20261018)
    for _ in range(30):
        start = Fraction(rng.randrange(0, 100), 100)
        segments = []
        for _ in range(rng.randrange(1, 4)):
            seg = GridSegment(start, Fraction(1, rng.randrange(50, 400)), rng.randrange(1, 40))
            segments.append(seg)
            start = seg.end
        grid = GridSpec(tuple(segments))
        forced = {grid.point(rng.randrange(grid.total_cells)) for _ in range(3)}
        lower = _NotSeparatingAt(forced, partial(_cubic, rng.randrange(1, 20), rng.randrange(40)))
        upper = partial(_line, rng.randrange(1, 30), rng.randrange(-10, 10))
        yield lower, upper, grid


def test_runs_match_per_cell_working_precision_on_random_grids():
    """On the seeded random sandwiches the certificate equals the per-cell
    working-precision one."""
    signs = set()
    for lower, upper, grid in _random_sandwiches():
        cert = sandwich_verify(lower, upper, grid)
        reference = per_cell_sandwich(lower, upper, grid)
        assert cert.to_json() == reference.to_json()
        assert cert.settled["evaluations"] <= 2 * grid.total_cells
        signs.add(cert.passed)
    assert signs == {True, False}


def test_phase_two_descends_into_a_settled_run():
    """margin(l) = l^3 + 10 - 3(l + 1/32) on 64 cells of [0, 2]: one run
    settles the whole grid (10 - 6 > 0), and the smallest cell margin,
    8 - 3/32 at l = 1, lies strictly inside it."""
    lower = lambda q: q**3 + 10
    upper = lambda q: 3 * q
    grid = GridSpec((GridSegment(Fraction(0), Fraction(1, 32), 64),))
    cert = sandwich_verify(lower, upper, grid)
    assert cert.passed and cert.min_margin == 8 - 3 / 32
    assert cert.settled["runs"] == 1 and cert.settled["min_margin_rechecks"] == 1
    assert cert.settled["evaluations"] < 64
    assert cert.to_json() == per_cell_sandwich(lower, upper, grid).to_json()


@pytest.mark.parametrize("lower, upper, grid_fn, most", [
    (w1_raw, w2_raw, lemma_2_4_ii_grid, 1200),  # 14036 one cell at a time
    (j1_raw, j2_raw, lemma_2_9_grid, 1800),
])
def test_lemma_grids_take_few_double_evaluations(lower, upper, grid_fn, most):
    """Both phases share one memo: no side is evaluated twice at one point."""
    lower, upper = _Counted(lower), _Counted(upper)
    cert = sandwich_verify(lower, upper, grid_fn())
    assert cert.passed
    assert len(lower.points) + len(upper.points) == cert.settled["evaluations"] <= most
    for side in (lower, upper):
        assert len(set(side.points)) == len(side.points)


@pytest.mark.parametrize("lemma, evaluations", [("2.4ii", 1064), ("2.9", 1588)])
def test_lemma_grids_build_and_lift_each_endpoint_once(monkeypatch, lemma, evaluations):
    """The two sides share the doubles of each grid endpoint: outside the
    working-precision re-evaluations, GridSpec.point builds each endpoint
    once, and DoubleInterval.lift lifts each point it built once."""
    built, lifts, in_working = {}, [], [False]
    point, lift, working = GridSpec.point, DoubleInterval.lift.__func__, _Margins.working

    def counted_point(self, k):
        value = point(self, k)
        if not in_working[0]:
            built.setdefault(k, []).append(value)
        return value

    def counted_lift(cls, value):
        lifts.append(value)
        return lift(cls, value)

    def flagged_working(self, k):
        in_working[0] = True
        try:
            return working(self, k)
        finally:
            in_working[0] = False

    monkeypatch.setattr(GridSpec, "point", counted_point)
    monkeypatch.setattr(DoubleInterval, "lift", classmethod(counted_lift))
    monkeypatch.setattr(_Margins, "working", flagged_working)
    cert = verify_lemma(lemma)
    assert cert.passed and cert.settled["evaluations"] == evaluations
    assert all(len(values) == 1 for values in built.values())
    points = {id(value): value for (value,) in built.values()}
    lifted = [value for value in lifts if points.get(id(value)) is value]
    assert len(lifted) == len(built) < evaluations


def test_runs_match_per_cell_working_precision_across_segments():
    """Two segments, fallback cells and the exact limit at q = 1."""
    grid = GridSpec((GridSegment(Fraction(9980, 10000), Fraction(1, 10000), 10),
                     GridSegment(Fraction(9990, 10000), Fraction(1, 20000), 20)))
    cert = sandwich_verify(j1_raw, j2_raw, grid)
    reference = per_cell_sandwich(j1_raw, j2_raw, grid)
    assert cert.passed and cert.settled["working_precision"] >= 2
    assert cert.to_json() == reference.to_json()


def _sandwich_margins(lower, upper, grid) -> _Margins:
    """The margins sandwich_verify(lower, upper, grid) builds, caught where it
    hands them to the run engine, before any evaluation."""
    caught = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verifier, "_prove_by_runs",
                      lambda margins, roots: caught.append(margins) or (1.0, (), {}))
        sandwich_verify(lower, upper, grid)
    (margins,) = caught
    return margins


def test_run_margins_subtract_at_working_precision(monkeypatch):
    """At 1024 bits the margin of 2.9's cell 899 is about as narrow as its
    sides, which are below 1e-290 wide: the difference is taken at working
    precision, not at mpmath's ambient 53 bits (2.2e-19 wide)."""
    monkeypatch.setenv("DIVISOR_SERIES_PREC", "1024")
    differences = []

    class Recorded(Enclosure):
        __slots__ = ()

        def __sub__(self, other):
            differences.append(super().__sub__(other))
            return differences[-1]

    margins = _sandwich_margins(lambda q: Recorded(j1_raw(q)), j2_raw, lemma_2_9_grid())
    passes, lo, hi = margins.working(899)
    (margin,) = differences
    assert passes and 0 < lo <= hi
    assert margin.width_upper() <= 1e-250


# -- the one loop against a two-phase reference ------------------------------------


class _ReferenceSettled(NamedTuple):
    lo: float
    start: int
    stop: int
    hi: float
    in_doubles: bool
    passes: bool


def _reference_settle(margins, start, stop):
    """Phase 1: bisect [start, stop) on a stack into runs whose double margin
    is positive; a single item that doubles do not separate is evaluated at
    working precision."""
    settled, todo = [], [(start, stop)]
    while todo:
        i, j = todo.pop()
        margin = margins.of_run(i, j)
        if margin is not None and margin.lo > 0:
            settled.append(_ReferenceSettled(margin.lo, i, j, margin.hi, True, True))
        elif j - i == 1:
            passes, lo, hi = margins.working(i)
            settled.append(_ReferenceSettled(lo, i, j, hi, False, passes))
        else:
            mid = (i + j) // 2
            todo += [(mid, j), (i, mid)]
    return settled


def _reference_prove_by_runs(margins, roots):
    """The stack bisection and the best-first heap that calls it again, as two
    phases: the engine that _prove_by_runs folds into one loop."""
    settled = [piece for start, stop in roots for piece in _reference_settle(margins, start, stop)]
    runs = sum(piece.in_doubles for piece in settled)
    cells = [piece for piece in settled if piece.stop - piece.start == 1]
    heap = [piece for piece in settled if piece.stop - piece.start > 1]
    heapq.heapify(heap)
    ceiling = min((cell.hi for cell in cells), default=math.inf)
    while heap and heap[0].lo <= ceiling:
        run = heapq.heappop(heap)
        mid = (run.start + run.stop) // 2
        for piece in (_reference_settle(margins, run.start, mid)
                      + _reference_settle(margins, mid, run.stop)):
            if piece.stop - piece.start > 1:
                heapq.heappush(heap, piece)
            else:
                cells.append(piece)
                ceiling = min(ceiling, piece.hi)
    candidates = [cell for cell in cells if cell.lo <= ceiling]
    min_margin = min((margins.working(cell.start)[1] if cell.in_doubles else cell.lo
                      for cell in candidates), default=math.inf)
    failures = tuple(sorted(cell.start for cell in cells if not cell.passes))
    working = sum(not cell.in_doubles for cell in cells)
    return min_margin, failures, {
        "doubles": sum(stop - start for start, stop in roots) - working,
        "working_precision": working,
        "min_margin_rechecks": sum(cell.in_doubles for cell in candidates),
        "runs": runs, "evaluations": margins.evaluations}


def _logged(margins):
    """margins, recording each of_run and working call in margins.calls."""
    margins.calls = []
    of_run, working = margins.of_run, margins.working
    margins.of_run = lambda i, j: margins.calls.append((i, j)) or of_run(i, j)
    margins.working = lambda k: margins.calls.append(k) or working(k)
    return margins


def _assert_one_loop_matches_reference(make_margins, roots) -> tuple:
    """Both engines on fresh margins: the same result and the same calls, in
    the same order.  Returns the result."""
    ours, reference = _logged(make_margins()), _logged(make_margins())
    result = _prove_by_runs(ours, roots)
    assert result == _reference_prove_by_runs(reference, roots)
    assert ours.calls == reference.calls
    return result


def test_one_loop_matches_the_two_phase_reference_on_random_grids():
    """The seeded random sandwiches, some failing and some with cells that
    doubles do not separate, by runs of cells over their grid segments."""
    results = []
    for lower, upper, grid in _random_sandwiches():
        bounds = list(accumulate((seg.count for seg in grid.segments), initial=0))
        results.append(_assert_one_loop_matches_reference(
            partial(_sandwich_margins, lower, upper, grid), list(zip(bounds, bounds[1:]))))
    assert any(failures for _, failures, _ in results)
    assert any(not failures and min_margin > 0 for min_margin, failures, _ in results)
    assert any(settled["working_precision"] for _, _, settled in results)
    assert any(settled["runs"] < settled["doubles"] for _, _, settled in results)


def _whole_line_where(raw):
    """raw with one more argument, forced: where it is true, the formula is
    the whole line on DoubleIntervals, so no run holding a forced item
    separates in doubles."""

    def formula(*args):
        *args, forced = args
        if forced and isinstance(args[0], DoubleInterval):
            return DoubleInterval(-math.inf, math.inf)
        return raw(*args)

    return formula


class _SeededPoints(_Margins):
    """Items with exact margins values[k]: the run bound of i..j is their
    minimum, and the whole line on any run holding a forced item."""

    def __init__(self, values, forced):
        formula = _whole_line_where(lambda value: value)
        super().__init__(lambda at, i, j: at(formula, (i, j)), lambda key: (
            min(values[key[0]:key[1] + 1]), any(key[0] <= k <= key[1] for k in forced)))


def test_one_loop_matches_the_two_phase_reference_on_seeded_points():
    """Seeded point margins with ties, negative items and forced items, as
    one run, as random consecutive runs and as one point per root."""
    rng = random.Random(20261019)
    results = []
    for _ in range(40):
        n = rng.randrange(1, 60)
        values = [Fraction(rng.randrange(-3, 40), rng.choice((1, 7, 10))) for _ in range(n)]
        forced = {rng.randrange(n) for _ in range(rng.randrange(4))}
        cuts = sorted({0, n, *(rng.randrange(1, n + 1) for _ in range(rng.randrange(4)))})
        for roots in ([(0, n)], list(zip(cuts, cuts[1:])), [(k, k + 1) for k in range(n)]):
            results.append(_assert_one_loop_matches_reference(
                partial(_SeededPoints, values, forced), roots))
    assert any(failures for _, failures, _ in results)
    assert any(not failures and min_margin > 0 for min_margin, failures, _ in results)
    assert any(settled["working_precision"] for _, _, settled in results)
    assert any(settled["runs"] < settled["doubles"] for _, _, settled in results)


# -- the 2.4i V' witness grid ------------------------------------------------------


def test_lemma_2_4_i_proves_its_grid_by_runs(monkeypatch):
    """The 9572 points of the V' grid take a few dozen double evaluations of
    the run bound, not one per point."""
    calls = []

    def counted(a, b):
        calls.append(isinstance(a, DoubleInterval))
        return v_prime_run_raw(a, b)

    monkeypatch.setattr(verifier, "v_prime_run_raw", counted)
    cert = verify_lemma_2_4_i()
    assert cert.passed and cert.details["min_v_prime_on_grid"] == 4.816088370365902e-19
    assert sum(calls) == cert.settled["evaluations"] <= 100
    assert cert.settled["doubles"] + cert.settled["working_precision"] == 9572


class _WholeLineAt(_Margins):
    """V' run bounds, v_prime_run_raw(y_i, y_j) at the points y_k of a
    segment as 2.4i takes them, that are the whole line on any run holding
    one of the forced points, so each of those points is settled at working
    precision."""

    def __init__(self, segment, forced):
        formula = _whole_line_where(v_prime_run_raw)
        super().__init__(lambda at, i, j: at(formula, (i, j)), lambda key: (
            *(segment.start + k * segment.step for k in key),
            any(key[0] <= k <= key[1] for k in forced)))


def test_v_prime_forced_fallback_points_match_working_precision():
    """21 points on [49.9, 50], three without doubles: the minimum (at
    y = 50, settled in doubles) equals the per-point working-precision one."""
    segment = GridSegment(Fraction(499, 10), Fraction(5, 1000), 20)
    forced = (2, 9, 15)
    margins = _WholeLineAt(segment, forced)
    min_vp, failures, settled = _prove_by_runs(margins, [(0, 21)])
    assert failures == ()
    assert settled["working_precision"] == len(forced) and settled["doubles"] == 21 - len(forced)
    assert min_vp == min(margins.working(k)[1] for k in range(21))
    assert min_vp == margins.working(20)[1]


def test_v_prime_run_bounds_need_a_start_past_sqrt_3(monkeypatch):
    monkeypatch.setattr(verifier, "lemma_2_4_i_v_prime_grid", lambda: GridSpec(
        (GridSegment(Fraction(173, 100), Fraction(1, 100), 10),)))
    with pytest.raises(ArithmeticError, match=r"start\^2 > 3"):
        verify_lemma_2_4_i()


def test_lemma_2_4_i_records_the_points_where_v_prime_fails(monkeypatch):
    """V' lowered by 1 on any span holding y_100 = 2.645 or y_5000 = 27.145
    fails the witness at exactly those two points, and the certificate says so."""
    raw, grid = verifier.v_prime_run_raw, lemma_2_4_i_v_prime_grid()
    forced = [float(grid.point(k)) for k in (100, 5000)]

    def lowered(a, b):
        lo, hi = (a.lo, b.hi) if isinstance(a, DoubleInterval) else (float(a.a), float(b.b))
        return raw(a, b) - 1 if any(lo - 1e-9 <= y <= hi + 1e-9 for y in forced) else raw(a, b)

    monkeypatch.setattr(verifier, "v_prime_run_raw", lowered)
    cert = verify_lemma_2_4_i()
    assert cert.passed is False
    assert cert.failures == (100, 5000)
    assert cert.to_json_dict()["failures"] == [100, 5000]
    assert cert.details["min_v_prime_on_grid"] < -0.9


def test_sandwich_bound_doubles_enclose_certified_values():
    for raw, bound, q in ((w1_raw, w1_lower, Fraction(117, 1000)),
                          (w2_raw, w2_upper, Fraction(91, 100)),
                          (j1_raw, j1_lower, Fraction(95, 100)),
                          (j2_raw, j2_upper, Fraction(99, 100)),
                          (j2_raw, j2_upper, Fraction(1))):
        d, enc = raw(DoubleInterval.lift(q)), bound(q)
        assert Fraction(d.lo) <= mpf_to_fraction(enc.lo)
        assert mpf_to_fraction(enc.hi) <= Fraction(d.hi)


# -- monotone-function evaluators -------------------------------------------------


def test_w_functions_first_cells():
    """First cell of each grid segment has a certified positive margin."""
    for left, right in (
        (Fraction(117, 1000), Fraction(118, 1000)),
        (Fraction(835, 1000), Fraction(835, 1000) + Fraction(1, 20000)),
        (Fraction(9, 10), Fraction(9, 10) + Fraction(1, 500000)),
    ):
        margin = w1_lower(left) - w2_upper(right)
        assert margin.is_positive()


_SIDES = {"w1_lower": (w1_raw, w1_lower), "w2_upper": (w2_raw, w2_upper),
          "j1_lower": (j1_raw, j1_lower), "j2_upper": (j2_raw, j2_upper)}


@pytest.mark.parametrize("side, q", [
    *((name, q) for name in ("w1_lower", "w2_upper") for q in (
        Fraction(117, 1000), Fraction(1, 2), Fraction(835, 1000), Fraction(9, 10),
        Fraction(91, 100))),
    *((name, q) for name in ("j1_lower", "j2_upper") for q in (
        Fraction(91, 100), Fraction(95, 100), Fraction(99, 100))),
    ("j2_upper", Fraction(1)),
])
def test_fast_sandwich_evaluators_match_certified(side, q):
    """The fast evaluator of each sandwich bound, its raw formula on a
    DoubleInterval, lies within 1e-8 relative of the certified enclosure on
    cells of the 2.4ii and 2.9 grids, so those cells settle in doubles.  The
    closed form of Phi_q cancels in doubles as q -> 1: J1 at 0.99 is the
    widest, 2.7e-9."""
    raw, evaluate = _SIDES[side]
    fast = raw(DoubleInterval.lift(q))
    lo, hi = evaluate(q).to_floats()
    assert lo - 1e-8 * abs(lo) <= fast.lo and fast.hi <= hi + 1e-8 * abs(hi)


def test_j2_limit_rederived():
    """J2's positive phi sum is regular at q = 1: on an exact 1 it is the
    pinned limit, and its certified enclosure and its DoubleInterval there
    both contain it, as exact rationals."""
    assert j2_raw(Fraction(1)) == J2_LIMIT == Fraction(208609, 55440)
    limit_enc = j2_upper(Fraction(1))
    assert limit_enc.contains(Fraction(208609, 55440))
    limit_doubles = j2_raw(DoubleInterval.lift(Fraction(1)))
    assert Fraction(limit_doubles.lo) <= J2_LIMIT <= Fraction(limit_doubles.hi)


def test_j_last_cell_uses_exact_limit():
    margin = j1_lower(Fraction(9999, 10000)) - j2_upper(Fraction(1))
    assert margin.is_positive()


# -- lemma pipelines (cheap ones; grid lemmas run fully in acceptance) -------------


def test_lemma_2_5_certificate():
    cert = verify_lemma_2_5()
    assert cert.passed
    assert cert.details["delta_roots_in_0.91_1"] == 1
    assert cert.details["g0_roots_in_0.91_1"] == 1
    assert abs(cert.details["delta_at_0.91"] - 1.76) < 0.01
    assert abs(cert.details["g0_at_0.91"] - (-0.0028)) < 5e-4
    assert cert.details["delta_at_1_is_zero"] and cert.details["g0_at_1_is_zero"]


def test_lemma_2_8_certificate():
    cert = verify_lemma("2.8")
    assert cert.passed
    env = cert.details["envelope_(h2+h3)/14_at_0.91"]
    assert abs(env[1] - 0.034) < 1e-3
    assert cert.details["min_phi_prime_margin_on_grid"] >= 0
    assert cert.failures == () and cert.to_json_dict()["failures"] == []


def test_lemma_2_8_fails_on_a_denominator_with_a_negative_coefficient(monkeypatch):
    """S + (1001/1000)(q^12 - q^13) has the q^13 coefficient -1/1000, and
    every other fact of 2.8 holds for it: the coefficient check fails it."""
    s = h2_denominator_polynomial() + Polynomial(
        [0] * 12 + [Fraction(1001, 1000), Fraction(-1001, 1000)])
    monkeypatch.setattr(verifier, "h2_denominator_polynomial", lambda: s)
    cert = verify_lemma("2.8")
    assert cert.details["h3_prime_roots_in_0_1"] == 0 and cert.min_margin > 0
    assert not cert.passed


def test_lemma_2_8_fails_where_h3_turns(monkeypatch):
    """P - 5(1-q)^2 still vanishes at 1 and keeps the envelope below 0.035,
    but its D3 changes sign in (0, 1)."""
    p = h3_numerator_polynomial() - Polynomial([5, -10, 5])
    monkeypatch.setattr(verifier, "h3_numerator_polynomial", lambda: p)
    cert = verify_lemma("2.8")
    assert cert.details["h3_prime_roots_in_0_1"] == 1 and cert.min_margin > 0
    assert not cert.passed


def _phi_prime_margins_at_working_precision(points, threshold) -> tuple[bool, float]:
    """Reference for 2.8's witness: phi' - threshold at every point at
    working precision."""
    with interval_precision(working_precision()):
        values = [Enclosure(phi_prime_raw(to_ivmpf(q), x) - to_ivmpf(threshold))
                  for q, x in points]
    return all(v.is_positive() for v in values), min(v.to_floats()[0] for v in values)


def _phi_prime_margins(points, threshold) -> _Margins:
    """2.8's witness margins on other points: phi'_q(x) - threshold at the
    exact points (q, x), one item each."""

    def phi_prime_margin(q, x, threshold):
        return verifier.phi_prime_raw(q, x) - threshold

    return _Margins(lambda at, k, _: at(phi_prime_margin, k), lambda k: (*points[k], threshold))


def _count_working_precision_points(monkeypatch) -> list:
    """Patch verifier.phi_prime_raw to record the (q, x) it takes as ivmpf."""
    raw, seen = verifier.phi_prime_raw, []
    monkeypatch.setattr(verifier, "phi_prime_raw", lambda q, x: (
        seen.append((q, x)) if not isinstance(q, DoubleInterval) else None) or raw(q, x))
    return seen


@pytest.mark.parametrize("bits", ["53", "128", "1024"])
def test_lemma_2_8_witness_in_doubles_first_is_the_working_precision_grid(monkeypatch, bits):
    """The run engine proves 2.8's phi' witness with the passed,
    min_phi_prime_margin_on_grid and grid_points of evaluating all 143
    points at working precision, from 143 double evaluations and one
    point evaluated again at working precision."""
    monkeypatch.setenv("DIVISOR_SERIES_PREC", bits)
    engine, calls = verifier._prove_by_runs, []
    monkeypatch.setattr(verifier, "_prove_by_runs",
                        lambda margins, roots: calls.append(margins) or engine(margins, roots))
    rechecked = _count_working_precision_points(monkeypatch)
    cert = verify_lemma("2.8")
    (margins,) = calls
    inputs = [margins.inputs(k) for k in range(cert.details["grid_points"])]
    with pytest.raises(IndexError):
        margins.inputs(len(inputs))
    points = [(q, x) for q, x, _ in inputs]
    (threshold,) = {threshold for _, _, threshold in inputs}
    assert threshold == Fraction(-35, 1000) and len(rechecked) == 1
    passed, min_lo = _phi_prime_margins_at_working_precision(points, threshold)
    assert cert.passed is passed is True
    assert cert.details["min_phi_prime_margin_on_grid"] == min_lo
    assert cert.details["grid_points"] == len(points) == 143
    assert cert.settled["evaluations"] == 143 and cert.settled["min_margin_rechecks"] == 1


def test_phi_prime_witness_rechecks_a_point_that_doubles_do_not_clear(monkeypatch):
    """With the threshold at the double lower end of a point above the ceiling,
    doubles cannot settle that point: it goes to working precision, while a
    point that clears the threshold above the ceiling does not."""
    low, mid, high = (Fraction(91, 100), 14), (Fraction(91, 100), 3), (Fraction(95, 100), 1)
    values = {p: phi_prime_raw(DoubleInterval.lift(p[0]), p[1]) for p in (low, mid, high)}
    assert values[low].hi < values[mid].lo and values[mid].hi < values[high].lo
    points, roots = [low, mid, high], [(0, 1), (1, 2), (2, 3)]
    rechecked = _count_working_precision_points(monkeypatch)
    min_margin, failures, settled = _prove_by_runs(
        _phi_prime_margins(points, Fraction(-35, 1000)), roots)
    assert failures == () and len(rechecked) == 1 and settled["working_precision"] == 0
    rechecked.clear()
    threshold = Fraction(values[mid].lo)
    min_margin, failures, settled = _prove_by_runs(_phi_prime_margins(points, threshold), roots)
    assert failures and failures[0] == 0 and [x for _, x in rechecked] == [14, 3]
    assert settled["working_precision"] == 2 and settled["doubles"] == 1
    assert min_margin == _phi_prime_margins_at_working_precision([low], threshold)[1]


def test_lemma_2_8_fails_where_phi_prime_really_fails(monkeypatch):
    """phi' lowered by 1 at (0.95, 17), far from the minimum, fails the
    witness and the certificate at that point, item 4 * 13 + 7 of the grid."""
    raw = verifier.phi_prime_raw

    def lowered(q, x):
        at = q.lo if isinstance(q, DoubleInterval) else float(q.a)
        return raw(q, x) - 1 if x == 17 and abs(at - 0.95) < 1e-9 else raw(q, x)

    monkeypatch.setattr(verifier, "phi_prime_raw", lowered)
    cert = verify_lemma("2.8")
    assert cert.passed is False
    assert cert.failures == (59,)
    assert -0.985 < cert.details["min_phi_prime_margin_on_grid"] < -0.965


@pytest.mark.parametrize("bits", ["53", "128", "1024"])
def test_lemmas_2_4_i_and_2_8_pass_at_every_precision(monkeypatch, bits):
    """Neither lemma samples a premise, so neither verdict nor min_margin
    moves with the working precision; 2.8's is its exact margin
    35/1000 - (h2(0.91) + h3(0.91))/14 rounded down."""
    monkeypatch.setenv("DIVISOR_SERIES_PREC", bits)
    cert_i, cert_8 = verify_lemma("2.4i"), verify_lemma("2.8")
    assert cert_i.passed and cert_i.min_margin == 4.816088370365902e-19
    assert cert_8.passed and cert_8.min_margin == 1.0001963997251833e-4


def test_unknown_lemma_rejected():
    with pytest.raises(DomainError, match=r"^unknown lemma id '9\.9'; choose from "
                       r"\['2\.4i', '2\.4ii', '2\.5', '2\.8', '2\.9'\]$"):
        verify_lemma("9.9")


def test_lemma_verification_is_certified_only():
    with pytest.raises(DomainError):
        verify_lemma("2.5", Mode.FAST)
    with pytest.raises(DomainError):
        verify_lemma("2.5", Mode.CERTIFIED, jobs=2)
    cert = verify_lemma("2.5", Mode.CERTIFIED, jobs=1)
    assert cert.passed and cert.to_json_dict()["mode"] == "certified"
    assert cert.to_json() == verify_lemma_2_5().to_json()


def test_import_loads_no_process_pool():
    """Verification runs in one process, so importing the package loads
    neither multiprocessing nor concurrent.futures."""
    src = str(Path(divisor_series.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = ("import sys, divisor_series; "
             "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout == "[]\n"


# -- roll-up -------------------------------------------------------------------------


def _stub_cert(target: str, passed: bool) -> Certificate:
    return Certificate(
        target=target, grid=None, cells_checked=1, min_margin=1.0 if passed else -1.0,
        passed=passed,
    )


def test_rollup_margin_exact():
    """Exact rational arithmetic oracle: 36/1000 - 35/2000 - 35/8000 over the
    common denominator 8000 is (288 - 140 - 35)/8000 = 113/8000 = 0.014125."""
    certs = {k: _stub_cert(k, True) for k in ("2.4i", "2.4ii", "2.5", "2.8", "2.9")}
    rollup = combine_theorem_3_2(certs)
    assert rollup.passed
    assert rollup.details["margin_exact"] == "113/8000"
    assert rollup.min_margin == 0.014125
    assert Fraction(36, 1000) - Fraction(35, 2000) - Fraction(35, 8000) == Fraction(113, 8000)


def test_conclusions_tile_zero_one_in_order_of_q():
    """Literal oracles: the case split (0, 0.117], [0.117, 0.91], [0.91, 1)
    and the constants 0, 0, 14, -0.035 and 0.036 give the margin 113/8000."""
    assert list(CONCLUSIONS) == ["2.4i", "2.4ii", "2.5", "2.8", "2.9"]
    assert [(c.lo, c.hi) for c in CONCLUSIONS.values()] == [
        (0, Fraction(117, 1000)), (Fraction(117, 1000), Fraction(91, 100))] + [
        (Fraction(91, 100), 1)] * 3
    assert [c.constant for c in CONCLUSIONS.values()] == [
        0, 0, 14, Fraction(-35, 1000), Fraction(36, 1000)]
    assert THEOREM_3_2_MARGIN == Fraction(113, 8000)
    assert [c.check for c in CONCLUSIONS.values()] == [
        verify_lemma_2_4_i, verifier.verify_lemma_2_4_ii, verify_lemma_2_5,
        verifier.verify_lemma_2_8, verifier.verify_lemma_2_9]


@pytest.mark.parametrize("lemma_id, change, spans", [
    ("2.9", {"hi": Fraction(99, 100)}, "[91/100, 1], [91/100, 99/100]"),
    ("2.4i", {"lo": Fraction(1, 1000)}, "[1/1000, 117/1000]"),
    ("2.4ii", {"hi": Fraction(9, 10)}, "[117/1000, 9/10], [91/100, 1]"),
    ("2.5", {"lo": Fraction(9, 10)}, "[117/1000, 91/100], [9/10, 1], [91/100, 1]"),
], ids=["moved-end", "moved-start", "gap", "overlap"])
def test_rollup_refuses_spans_that_do_not_tile(monkeypatch, lemma_id, change, spans):
    """A table whose distinct spans leave a gap, overlap, or do not start at
    0 and end at 1 is refused, however the certificates read."""
    monkeypatch.setitem(CONCLUSIONS, lemma_id, CONCLUSIONS[lemma_id]._replace(**change))
    certs = {k: _stub_cert(k, True) for k in ("2.4i", "2.4ii", "2.5", "2.8", "2.9")}
    with pytest.raises(ArithmeticError, match="do not tile") as raised:
        combine_theorem_3_2(certs)
    assert spans in str(raised.value)


def test_rollup_fails_on_bad_ingredient():
    certs = {k: _stub_cert(k, k != "2.9") for k in ("2.4i", "2.4ii", "2.5", "2.8", "2.9")}
    rollup = combine_theorem_3_2(certs)
    assert not rollup.passed


def test_rollup_requires_all_ingredients():
    with pytest.raises(DomainError):
        combine_theorem_3_2({"2.5": _stub_cert("2.5", True)})
