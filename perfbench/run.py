"""Benchmark of divisor_series: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload proof|pointwise|identities \
        --seed N --seconds S --trace 0|1

With ``--trace 0`` it repeats the workload's unit of work, cycling through
a seeded pool of inputs, until S seconds are measured, and reports the
end-to-end metrics, scaled to a reference machine speed (see speed.py).  With ``--trace 1`` it runs one
unit untraced and one traced (the difference is the tracing overhead), one
traced unit of each other workload, and the layer probes, and reports the
per-layer metrics.  The last line of stdout is the JSON result; the line
before it holds the machine facts, error rate and sample counts.  The same
document and, for traced runs, the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import probes
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 6
MIN_UNITS = 1
#: distinct unit inputs per run: enough that the run's median unit does not
#: hang on one draw, few enough that each pointwise reference is computed once
#: and reused
INPUT_POOL = 16

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "eval_p50_ms": "ms",
    "eval_p90_ms": "ms",
}

REPRESENTATIONS = ("DIVISOR", "LAMBERT", "CLAUSEN", "UCHIMURA", "MERCA_ALT", "MERCA_PARTITION")
SPECIAL_EVAL_CLASSES = tuple(workloads.PLAN)


def per_layer_units() -> dict[str, str]:
    units = {f"verifier.lemma_{lemma}_s": "s" for lemma in workloads.PROOF_LEMMAS}
    units.update({
        "verifier.cells": "count",
        "verifier.cells_per_s": "1/s",
        "verifier.w1_lower_us": "us",
        "verifier.w2_upper_us": "us",
        "verifier.j1_lower_us": "us",
        "verifier.j2_upper_us": "us",
        "lemma_functions.phi_antiderivative_us": "us",
        "lemma_functions.correction_sums_ms": "ms",
        "polynomials.sturm_root_count_ms": "ms",
        "intervals.to_ivmpf_us": "us",
        "intervals.to_ivmpf_512_us": "us",
        "intervals.mul_128_us": "us",
        "intervals.log_128_us": "us",
        "intervals.mul_512_us": "us",
        "intervals.log_512_us": "us",
    })
    units.update({f"special_eval.{cls}_ms": "ms" for cls in SPECIAL_EVAL_CLASSES})
    units["special_eval.terms_used"] = "count"
    units.update({f"power_series.build_{rep}_s": "s" for rep in REPRESENTATIONS})
    units["power_series.coefficients"] = "count"
    units["divisor_core.divisor_sieve_ms"] = "ms"
    units["divisor_core.distinct_partition_stats_ms"] = "ms"
    units.update({f"{layer}.self_s": "s" for layer in tracing.LAYERS})
    units["trace.overhead_s"] = "s"
    return units


PER_LAYER = per_layer_units()


# -- the program under test ------------------------------------------------------------


def load_library():
    """Import divisor_series from this checkout's src/, or exit with code 1."""
    if not (SRC / "divisor_series" / "__init__.py").is_file():
        sys.exit(f"perfbench: no divisor_series sources under {SRC}")
    sys.path.insert(0, str(SRC))
    lib = importlib.import_module("divisor_series")
    if Path(lib.__file__).resolve().parent != SRC / "divisor_series":
        sys.exit(f"perfbench: imported divisor_series from {lib.__file__}, not {SRC}")
    for name in tracing.LAYERS + ("cli",):
        importlib.import_module(f"divisor_series.{name}")
    return lib


def package_modules(lib) -> dict:
    mods = {name: sys.modules[f"divisor_series.{name}"] for name in tracing.LAYERS + ("cli",)}
    mods["__init__"] = lib
    return mods


def measure_setup(warm_up: bool) -> list[tuple[float, float]]:
    """(start, end) of fresh interpreters importing divisor_series; the
    untimed warm-up import leaves the bytecode cache warm."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import divisor_series"]
    times = []
    for i in range(SETUP_REPEATS + warm_up):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        if i or not warm_up:
            times.append((start, time.perf_counter()))
    return times


def machine_facts(lib) -> dict:
    import mpmath

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = done.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": version("numpy"),
        "DIVISOR_SERIES_PREC": os.environ.get(lib.intervals.PRECISION_ENV_VAR),
        "git_commit": commit,
        "src_lines": src_lines,
    }


# -- runs ------------------------------------------------------------------------------


def percentile(values: list[float], pct: int) -> float:
    """Inclusive-method percentile (linear interpolation between ranks)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_untraced(lib, name: str, seed: int, seconds: float):
    """Units of `name` until `seconds` are measured.  Every time is scaled to
    the reference speed by a probe running alongside (see speed.py)."""
    work = workloads.WORKLOADS[name]
    rng = random.Random(seed)
    pool = [work.inputs(rng) for _ in range(INPUT_POOL)]
    out = workloads.Outcome()
    units = []  # (first, end) index of each unit's requests
    with speed.SpeedProbe() as probe:
        # half the set-up samples before the workload and half after, so one
        # period of contention on the machine does not move them all
        setup = measure_setup(warm_up=True)
        measured = 0.0
        while measured < seconds or len(units) < MIN_UNITS:
            first = len(out.requests)
            measured += work.run(lib, pool[len(units) % INPUT_POOL], tracing.NullTracer(), out)
            units.append((first, len(out.requests)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup += measure_setup(warm_up=False)
    # the probe does not hold up the child interpreters, so set-up is only scaled
    setup_s = [(end - start) * probe.scale(start, end) for start, end in setup]
    latencies_s = [probe.adjust(start, end) for start, end in out.requests]
    unit_walls = [sum(latencies_s[first:end]) for first, end in units]
    latencies_ms = [s * 1e3 for s in latencies_s]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(unit_walls),
        "peak_rss_mb": peak_rss_mb,
        "eval_p50_ms": percentile(latencies_ms, 50),
        "eval_p90_ms": percentile(latencies_ms, 90),
    }
    raw_walls = [sum(b - a for a, b in out.requests[first:end]) for first, end in units]
    extra = {
        "units": len(units),
        "latency_samples": len(latencies_ms),
        "setup_samples": len(setup_s),
        "speed_samples": len(probe.samples),
        "loop_ms_median": statistics.median(cpu for _, _, cpu in probe.samples) * 1e3,
        "unscaled_wall_s": statistics.median(raw_walls),
        "unscaled_setup_s": statistics.median(end - start for start, end in setup),
    }
    return metrics, out, extra


def layer_metrics(tracer: tracing.Tracer, pointwise: workloads.Outcome) -> dict[str, float]:
    metrics = {}
    for lemma in workloads.PROOF_LEMMAS:
        metrics[f"verifier.lemma_{lemma}_s"] = sum(tracer.durations(f"proof:{lemma}"))
    sandwich_s, cells = tracer.total("verifier.sandwich_verify")
    metrics["verifier.cells"] = cells
    metrics["verifier.cells_per_s"] = cells / sandwich_s
    for cls in SPECIAL_EVAL_CLASSES:
        metrics[f"special_eval.{cls}_ms"] = statistics.median(
            tracer.durations(f"pointwise:{cls}")) * 1e3
    metrics["special_eval.terms_used"] = pointwise.terms_used
    coefficients = 0
    for rep in REPRESENTATIONS:
        seconds, count = tracer.total(f"power_series.build_representation[{rep}]")
        metrics[f"power_series.build_{rep}_s"] = seconds
        coefficients += count
    metrics["power_series.coefficients"] = coefficients
    return metrics


def run_traced(lib, name: str, seed: int):
    """One untraced and one traced unit of `name` on the same inputs, then one
    traced unit of each other workload, then the probes."""
    rng = random.Random(seed)
    work = workloads.WORKLOADS[name]
    inputs = work.inputs(rng)
    untraced = workloads.Outcome()
    untraced_wall = work.run(lib, inputs, tracing.NullTracer(), untraced)

    tracer = tracing.Tracer()
    outcomes = {w: workloads.Outcome() for w in workloads.WORKLOADS}
    tracer.install(package_modules(lib))
    try:
        traced_wall = work.run(lib, inputs, tracer, outcomes[name])
        own_spans = len(tracer.spans)
        for other, unit in workloads.WORKLOADS.items():
            if other != name:
                unit.run(lib, unit.inputs(rng), tracer, outcomes[other])
    finally:
        tracer.uninstall()

    metrics = layer_metrics(tracer, outcomes["pointwise"])
    metrics.update(probes.run_probes(lib, rng))
    for layer, seconds in tracer.self_seconds().items():
        metrics[f"{layer}.self_s"] = seconds
    metrics["trace.overhead_s"] = traced_wall - untraced_wall

    total = workloads.Outcome()
    for out in [untraced, *outcomes.values()]:
        total.attempted += out.attempted
        total.failed += out.failed
        total.failures += out.failures
    extra = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "workload_self_s": tracer.self_seconds(0, own_spans),
        "spans": len(tracer.spans),
    }
    tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl.gz")
    return metrics, total, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lib = load_library()
    if args.trace:
        metrics, out, extra = run_traced(lib, args.workload, args.seed)
        units = PER_LAYER
    else:
        metrics, out, extra = run_untraced(lib, args.workload, args.seed, args.seconds)
        units = END_TO_END
    for failure in out.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_facts(lib),
        "error_rate": out.failed / out.attempted,
        "attempted": out.attempted,
        "failed": out.failed,
        **extra,
    }
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    doc = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    doc.write_text(json.dumps({"context": context, "result": result}, indent=2) + "\n")
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
