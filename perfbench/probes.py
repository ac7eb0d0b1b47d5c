"""Per-call costs of single layer functions, timed with tracing off.

Each probe calls one public function at seeded sample points and returns the
median time per call.  They back the per-layer metrics that no workload span
measures directly: the sandwich evaluators, the certified antiderivative,
the Sturm counts, the interval kernels at 128 and 512 bits, and the sieves.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction


def _median_call(fn, args_list, repeat: int = 1) -> float:
    """Median seconds per call of fn(*args) over args_list, each timed as a
    batch of `repeat` calls."""
    times = []
    for args in args_list:
        start = time.perf_counter()
        for _ in range(repeat):
            fn(*args)
        times.append((time.perf_counter() - start) / repeat)
    return statistics.median(times)


def _grid_sample(rng: random.Random, start: Fraction, step: Fraction, count: int, k: int):
    return [(start + rng.randrange(count) * step,) for _ in range(k)]


def run_probes(lib, rng: random.Random, samples: int = 15) -> dict[str, float]:
    ver, lf, ivs = lib.verifier, lib.lemma_functions, lib.intervals
    cert = lib.Mode.CERTIFIED
    metrics = {}

    # sandwich evaluators on cells of the 2.4ii and 2.9 grids
    q24 = _grid_sample(rng, Fraction(117, 1000), Fraction(1, 1000), 793, samples)
    q29 = _grid_sample(rng, Fraction(91, 100), Fraction(1, 10000), 900, samples)
    metrics["verifier.w1_lower_us"] = _median_call(ver.w1_lower, q24) * 1e6
    metrics["verifier.w2_upper_us"] = _median_call(ver.w2_upper, q24) * 1e6
    metrics["verifier.j1_lower_us"] = _median_call(ver.j1_lower, q29) * 1e6
    metrics["verifier.j2_upper_us"] = _median_call(ver.j2_upper, q29) * 1e6

    metrics["lemma_functions.phi_antiderivative_us"] = _median_call(
        lambda q: lf.phi_antiderivative(q, 40, cert), q24) * 1e6
    metrics["lemma_functions.correction_sums_ms"] = _median_call(
        lambda q: lf.correction_sums(q, 10, cert), q29[:5]) * 1e3

    delta, g0 = lf.delta_polynomial(), lf.g0_polynomial()
    a, b = Fraction(91, 100), Fraction(1)
    metrics["polynomials.sturm_root_count_ms"] = _median_call(
        lambda: (lib.polynomials.sturm_root_count(delta, a, b),
                 lib.polynomials.sturm_root_count(g0, a, b)), [()] * 3) * 1e3

    # interval kernels: batches of calls at 128 and 512 bits
    points = [q for (q,) in q24[:5]]
    for bits in (128, 512):
        with ivs.interval_precision(bits):
            encs = [(ivs.Enclosure(q),) for q in points]
            pairs = [(e, e) for (e,) in encs]
            suffix = "" if bits == 128 else "_512"
            metrics[f"intervals.to_ivmpf{suffix}_us"] = _median_call(
                ivs.to_ivmpf, [(q,) for q in points], repeat=200) * 1e6
            metrics[f"intervals.mul_{bits}_us"] = _median_call(
                lambda x, y: x * y, pairs, repeat=200) * 1e6
            metrics[f"intervals.log_{bits}_us"] = _median_call(
                lambda x: x.log(), encs, repeat=200) * 1e6

    metrics["divisor_core.divisor_sieve_ms"] = _median_call(
        lib.divisor_core.divisor_sieve, [(10_000,)] * 3) * 1e3
    metrics["divisor_core.distinct_partition_stats_ms"] = _median_call(
        lib.divisor_core.distinct_partition_stats, [(300,)] * 3) * 1e3
    return metrics
