"""Sandwich engine, grids, certificates and the lemma pipelines (on reduced
grids here; the full production grids run in the acceptance suite)."""

import math
from fractions import Fraction
from functools import partial

import pytest

from divisor_series.intervals import (
    DomainError,
    DoubleInterval,
    Enclosure,
    Mode,
    mpf_to_fraction,
)
from divisor_series.lemma_functions import w1_raw
from divisor_series.verifier import (
    Certificate,
    GridSegment,
    GridSpec,
    J2_LIMIT,
    SandwichBound,
    combine_theorem_3_2,
    j1_lower,
    j2_limit_exact,
    j2_upper,
    lemma_2_4_ii_grid,
    lemma_2_9_grid,
    sandwich_verify,
    verify_lemma,
    verify_lemma_2_5,
    w1_lower,
    w2_upper,
)


# -- grids -------------------------------------------------------------------


def test_lemma_grids_tile_exactly():
    grid = lemma_2_4_ii_grid()
    s1, s2, s3 = grid.segments
    assert s1.start + s1.count * s1.step == Fraction(835, 1000)
    assert s2.start + s2.count * s2.step == Fraction(9, 10)
    assert s3.start + s3.count * s3.step == Fraction(91, 100)
    assert grid.span == (Fraction(117, 1000), Fraction(91, 100))
    assert grid.total_cells == 7018
    assert lemma_2_9_grid().span == (Fraction(91, 100), Fraction(1))
    assert lemma_2_9_grid().total_cells == 900


def test_grid_rejects_gaps():
    with pytest.raises(DomainError):
        GridSpec((
            GridSegment(Fraction(0), Fraction(1, 10), 5),
            GridSegment(Fraction(6, 10), Fraction(1, 10), 4),
        ))


def test_grid_cells_are_exact():
    grid = GridSpec((GridSegment(Fraction(117, 1000), Fraction(1, 1000), 3),))
    cells = list(grid.cells())
    assert cells[0] == (0, Fraction(117, 1000), Fraction(118, 1000))
    assert cells[2] == (2, Fraction(119, 1000), Fraction(120, 1000))


# -- sandwich engine -----------------------------------------------------------


def test_degenerate_sandwich():
    grid = GridSpec((GridSegment(Fraction(0), Fraction(1), 1),))
    cert = sandwich_verify(lambda q: Enclosure(1), lambda q: Enclosure(0), grid)
    assert cert.passed and cert.min_margin == 1.0 and cert.cells_checked == 1


def test_sandwich_failure_lists_cells():
    grid = GridSpec((GridSegment(Fraction(0), Fraction(1), 2),))
    cert = sandwich_verify(lambda q: Enclosure(0), lambda q: Enclosure(1), grid)
    assert not cert.passed
    assert cert.failures == (0, 1)


def test_fast_mode_never_passes():
    grid = GridSpec((GridSegment(Fraction(0), Fraction(1), 1),))
    cert = sandwich_verify(lambda q: 1.0, lambda q: 0.0, grid, mode=Mode.FAST)
    assert not cert.passed
    assert cert.min_margin == 1.0


def _j_subgrid(start: Fraction, step: Fraction, count: int) -> GridSpec:
    return GridSpec((GridSegment(start, step, count),))


def test_sandwich_refinement_keeps_margin():
    """Halving the cell width never shrinks the verified margin below ~0.99x
    of the coarse one (monotone sandwich: refined cells are sub-cells)."""
    coarse = sandwich_verify(
        j1_lower, j2_upper, _j_subgrid(Fraction(92, 100), Fraction(1, 10000), 10)
    )
    refined = sandwich_verify(
        j1_lower, j2_upper, _j_subgrid(Fraction(92, 100), Fraction(1, 20000), 20)
    )
    assert coarse.passed and refined.passed
    assert refined.min_margin >= 0.99 * coarse.min_margin


def test_sandwich_parallel_matches_serial():
    grid = _j_subgrid(Fraction(92, 100), Fraction(1, 1000), 8)
    serial = sandwich_verify(j1_lower, j2_upper, grid, jobs=1)
    parallel = sandwich_verify(j1_lower, j2_upper, grid, jobs=2)
    assert serial.to_json() == parallel.to_json()


def test_certificates_deterministic():
    grid = _j_subgrid(Fraction(95, 100), Fraction(1, 1000), 5)
    a = sandwich_verify(j1_lower, j2_upper, grid, target="det-check")
    b = sandwich_verify(j1_lower, j2_upper, grid, target="det-check")
    assert a.to_json().encode() == b.to_json().encode()


# -- double-first certified sandwich ------------------------------------------------


class _NotSeparatingAt(SandwichBound):
    """W1 whose DoubleInterval is the whole line at the chosen points, so the
    cells that use them must be settled at working precision."""

    def __init__(self, points):
        super().__init__(w1_raw)
        self.points = set(points)

    def doubles(self, q):
        if q in self.points:
            return DoubleInterval(-math.inf, math.inf)
        return super().doubles(q)


def test_forced_fallback_cells_match_working_precision_certificate():
    grid = GridSpec((GridSegment(Fraction(835, 1000), Fraction(1, 20000), 12),))
    cells = {idx: left for idx, left, _ in grid.cells()}
    forced = (0, 5, 6, 11)
    cert = sandwich_verify(_NotSeparatingAt(cells[i] for i in forced), w2_upper, grid)
    # plain callables returning Enclosure: every cell at working precision
    reference = sandwich_verify(partial(w1_lower, mode=Mode.CERTIFIED),
                                partial(w2_upper, mode=Mode.CERTIFIED), grid)
    assert cert.passed and reference.passed
    assert cert.to_json() == reference.to_json()
    assert cert.settled["doubles"] == 12 - len(forced)
    assert cert.settled["working_precision"] == len(forced)
    assert reference.settled == {"doubles": 0, "working_precision": 12,
                                 "min_margin_rechecks": 0}


def test_lemma_2_9_last_cells_pass_by_fallback():
    """Cells 898 and 899 of the 2.9 grid (q >= 0.9998) do not separate in
    doubles, where the closed form of J1 cancels; they pass at working
    precision, the last one against the exact limit J2(1)."""
    grid = _j_subgrid(Fraction(9997, 10000), Fraction(1, 10000), 3)  # cells 897..899
    for _, left, right in list(grid.cells())[1:]:
        assert not (j1_lower.doubles(left) - j2_upper.doubles(right)).lo > 0
    cert = sandwich_verify(j1_lower, j2_upper, grid)
    assert cert.passed and cert.failures == ()
    assert cert.settled["doubles"] == 1 and cert.settled["working_precision"] == 2
    reference = sandwich_verify(partial(j1_lower, mode=Mode.CERTIFIED),
                                partial(j2_upper, mode=Mode.CERTIFIED), grid)
    assert cert.to_json() == reference.to_json()


def test_truly_negative_cell_is_the_only_failure():
    """margin(l) = l^2 - (4(l+1) - 15/2) = l^2 - 4l + 7/2 on cells [l, l+1],
    l = 0..4: 7/2, 1/2, -1/2, 1/2, 7/2, so only cell 2 fails."""
    lower = SandwichBound(lambda q: q * q)
    upper = SandwichBound(lambda q: (8 * q - 15) / 2)
    grid = GridSpec((GridSegment(Fraction(0), Fraction(1), 5),))
    cert = sandwich_verify(lower, upper, grid)
    assert not cert.passed
    assert cert.failures == (2,)
    assert cert.min_margin == -0.5
    assert cert.settled["doubles"] == 4 and cert.settled["working_precision"] == 1


def test_double_first_sandwich_parallel_matches_serial():
    """Workers receive the SandwichBounds pickled; fallback cells included."""
    grid = _j_subgrid(Fraction(9990, 10000), Fraction(1, 10000), 10)
    serial = sandwich_verify(j1_lower, j2_upper, grid, jobs=1)
    parallel = sandwich_verify(j1_lower, j2_upper, grid, jobs=2)
    assert serial.passed and serial.settled["working_precision"] == 2
    assert serial.to_json() == parallel.to_json()
    assert serial.settled == parallel.settled


def test_sandwich_bound_doubles_enclose_certified_values():
    for bound, q in ((w1_lower, Fraction(117, 1000)), (w2_upper, Fraction(91, 100)),
                     (j1_lower, Fraction(95, 100)), (j2_upper, Fraction(99, 100)),
                     (j2_upper, Fraction(1))):
        d, enc = bound.doubles(q), bound(q)
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


_BOUND_NAMES = {id(w1_lower): "w1_lower", id(w2_upper): "w2_upper",
                id(j1_lower): "j1_lower", id(j2_upper): "j2_upper"}


@pytest.mark.parametrize("evaluate, q", [
    *((fn, q) for fn in (w1_lower, w2_upper) for q in (
        Fraction(117, 1000), Fraction(1, 2), Fraction(835, 1000), Fraction(9, 10),
        Fraction(91, 100))),
    *((fn, q) for fn in (j1_lower, j2_upper) for q in (
        Fraction(91, 100), Fraction(95, 100), Fraction(99, 100))),
    (j2_upper, Fraction(1)),
], ids=lambda value: _BOUND_NAMES.get(id(value)))  # SandwichBounds have no __name__
def test_fast_sandwich_evaluators_match_certified(evaluate, q):
    """FAST W1/W2/J1/J2 are the certified formulas run on doubles: within
    1e-9 relative of the enclosure on cells of the 2.4ii and 2.9 grids.
    Past q = 0.99 the closed form of Phi_q cancels in doubles (FAST J1 is
    off by ~1e-7 relative at 0.999), so the 2.9 cells stop there."""
    fast = evaluate(q, mode=Mode.FAST)
    lo, hi = evaluate(q).to_floats()
    assert lo - 1e-9 * abs(lo) <= fast <= hi + 1e-9 * abs(hi)


def test_j2_limit_rederived():
    assert j2_limit_exact() == J2_LIMIT == Fraction(208609, 55440)
    limit_enc = j2_upper(Fraction(1))
    assert limit_enc.contains(Fraction(208609, 55440))


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
    assert cert.details["min_phi_prime_on_grid"] >= -0.035


def test_unknown_lemma_rejected():
    with pytest.raises(DomainError):
        verify_lemma("9.9")


# -- roll-up -------------------------------------------------------------------------


def _stub_cert(target: str, passed: bool) -> Certificate:
    return Certificate(
        target=target, grid=None, cells_checked=1, min_margin=1.0 if passed else -1.0,
        mode=Mode.CERTIFIED, passed=passed,
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


def test_rollup_fails_on_bad_ingredient():
    certs = {k: _stub_cert(k, k != "2.9") for k in ("2.4i", "2.4ii", "2.5", "2.8", "2.9")}
    rollup = combine_theorem_3_2(certs)
    assert not rollup.passed


def test_rollup_requires_all_ingredients():
    with pytest.raises(DomainError):
        combine_theorem_3_2({"2.5": _stub_cert("2.5", True)})
