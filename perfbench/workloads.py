"""The three workloads: seeded inputs, one timed unit of work, and the
correctness checks that feed ``failed``.

A unit is the workload's fixed piece of work; a run draws a pool of unit
inputs from the seed and repeats units, cycling through the pool, until the
measured time reaches ``--seconds``.  Every library call is made through the
module object ``lib`` at call time, so the tracer's wrappers see it.
Correctness is checked after the timed section, never from the program's
printed output.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import references

# -- results -------------------------------------------------------------------


@dataclass
class Outcome:
    """What the runs of one workload accumulate."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    requests: list = field(default_factory=list)  # (start, end) of each request
    terms_used: int = 0

    def record(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {problem}")

    def timed_request(self, start: float, end: float) -> float:
        self.requests.append((start, end))
        return end - start


def _timed(call):
    """(result or exception, start, end); an exception is a failed operation."""
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # counted as a failure by the caller's check
        result = exc
    return result, start, time.perf_counter()


# -- proof: the certified Theorem 3.2 roll-up ------------------------------------------

PROOF_LEMMAS = ("2.4i", "2.4ii", "2.5", "2.8", "2.9")
ROLLUP_MARGIN = Fraction(113, 8000)


def proof_inputs(rng: random.Random) -> tuple[str, ...]:
    """The proof's input is fixed; the seed does not apply."""
    return PROOF_LEMMAS


def check_certificate(cert) -> str | None:
    if isinstance(cert, Exception):
        return f"raised {cert!r}"
    return None if cert.passed is True else "certificate did not pass"


def check_rollup(cert) -> str | None:
    problem = check_certificate(cert)
    if problem is None and Fraction(cert.details["margin_exact"]) != ROLLUP_MARGIN:
        problem = f"roll-up margin {cert.details['margin_exact']} != {ROLLUP_MARGIN}"
    return problem


def run_proof(lib, lemmas, tracer, out: Outcome) -> float:
    """One request: the whole roll-up, the proof's user-level task.  Per-lemma
    times are per-layer metrics of the traced run."""
    certs = {}
    start = time.perf_counter()
    for lemma in lemmas:
        with tracer.request(f"proof:{lemma}", lemma):
            certs[lemma], _, _ = _timed(
                lambda: lib.verify_lemma(lemma, lib.Mode.CERTIFIED, jobs=1))
    with tracer.request("proof:thm3.2", "thm3.2"):
        rollup, _, _ = _timed(lambda: lib.combine_theorem_3_2(certs))
    wall = out.timed_request(start, time.perf_counter())
    for lemma in lemmas:
        out.record(f"lemma {lemma}", check_certificate(certs[lemma]))
    out.record("thm3.2", check_rollup(rollup))
    return wall


# -- pointwise: single certified evaluations in a closed loop ---------------------------

EPS = (1e-8, 1e-12, 1e-40)
PSI_X = (Fraction(1), Fraction(3, 2), Fraction(2))
FAST_REPS = ("CLAUSEN", "LAMBERT", "DIVISOR")
SLOW_REPS = ("LAMBERT", "DIVISOR")
THEOREMS = ("SALEM_1_3", "T4_1", "T4_2", "T4_3", "T4_4", "C3_3")

#: class -> (requests near 0, mid-range, near 1; largest q near 1).  Long
#: LAMBERT/DIVISOR/psi sums stop at 0.99: at 0.999 one call takes seconds.
PLAN = {
    "eval_T_certified": ((6, 6, 6), Fraction(999, 1000)),
    "eval_T_fast": ((6, 6, 6), Fraction(99, 100)),
    "eval_T_slowrepr": ((2, 2, 4), Fraction(99, 100)),
    "eval_psi_q": ((2, 2, 4), Fraction(99, 100)),
    "eval_H": ((6, 6, 6), Fraction(999, 1000)),
    "eval_F": ((6, 6, 6), Fraction(999, 1000)),
    "check_bounds": ((6, 6, 6), Fraction(99, 100)),
}

#: F(0.001) against its true value 0.8563075802..., in every round.
F_NEAR_ZERO = Fraction(1, 1000)


@dataclass(frozen=True)
class Request:
    cls: str
    q: Fraction
    eps: float
    rep: str = "CLAUSEN"
    x: Fraction = Fraction(1)
    theorem: str = ""
    r: Fraction = Fraction(0)  # lower point of the C3_3 pair (r, q)


def _micro(value: float) -> Fraction:
    return Fraction(round(value * 10**6), 10**6)


def _stratified_q(rng: random.Random, regime: int, i: int, n: int, cap: Fraction) -> Fraction:
    """q in stratum i of n: log-spaced in q on [0.001, 0.05], linear on
    [0.05, 0.9], log-spaced in 1-q on [1-cap, 0.1]."""
    u = (i + rng.random()) / n
    if regime == 0:
        return max(_micro(0.001 * 50**u), Fraction(1, 1000))
    if regime == 1:
        return _micro(0.05 + 0.85 * u)
    low = float(1 - cap)
    return 1 - max(_micro(0.1 * (low / 0.1) ** u), 1 - cap)


def pointwise_inputs(rng: random.Random, scale: int = 1) -> list[Request]:
    """One round: fixed counts per class, regime and eps; seeded q, order."""
    requests = [Request("eval_F", F_NEAR_ZERO, 1e-12)]
    for cls, (counts, cap) in PLAN.items():
        for regime, count in enumerate(counts):
            n = max(1, count // scale)
            for i in range(n):
                q = _stratified_q(rng, regime, i, n, cap)
                eps = EPS[(i + regime) % len(EPS)]
                if cls == "eval_T_fast":
                    requests.append(Request(cls, q, eps, rep=FAST_REPS[i % 3]))
                elif cls == "eval_T_slowrepr":
                    requests.append(Request(cls, q, eps, rep=SLOW_REPS[i % 2]))
                elif cls == "eval_psi_q":
                    requests.append(Request(cls, q, eps, x=PSI_X[i % 3]))
                elif cls == "check_bounds":
                    theorem = THEOREMS[(i + 2 * regime) % len(THEOREMS)]
                    r = max(_micro(float(q) * (0.3 + 0.6 * rng.random())), Fraction(1, 10**6))
                    requests.append(Request(cls, q, eps, theorem=theorem, r=r))
                else:
                    requests.append(Request(cls, q, eps))
    rng.shuffle(requests)
    return requests


def call(lib, req: Request):
    if req.cls == "check_bounds":
        theorem = lib.TheoremId[req.theorem]
        if req.theorem == "C3_3":
            return lib.check_bounds(theorem, pair=(req.r, req.q), eps=req.eps)
        return lib.check_bounds(theorem, req.q, eps=req.eps)
    if req.cls == "eval_psi_q":
        return lib.eval_psi_q(req.q, req.x, req.eps)
    if req.cls == "eval_H":
        return lib.eval_H(req.q, req.eps)
    if req.cls == "eval_F":
        return lib.eval_F(req.q, req.eps)
    mode = lib.Mode.FAST if req.cls == "eval_T_fast" else lib.Mode.CERTIFIED
    return lib.eval_T(req.q, req.eps, lib.RepresentationId[req.rep], mode)


@functools.cache  # a run repeats its requests; each reference is computed once
def request_reference(req: Request):
    fn = {"eval_psi_q": "psi", "eval_H": "H", "eval_F": "F"}.get(req.cls, "T")
    return references.reference(fn, req.q, req.eps, req.x)


def check_request(req: Request, result, ref) -> str | None:
    """Verdict for one response; `ref` is (value, radius) or None for check_bounds."""
    if isinstance(result, Exception):
        return f"raised {result!r}"
    if req.cls == "check_bounds":
        ok = result.status.value == "PASS" and result.strict_ok
        return None if ok else f"status {result.status.value}"
    enc = result.value
    if req.cls != "eval_T_fast" and float(enc.width_upper()) > req.eps:
        return f"width {float(enc.width_upper())} > eps {req.eps}"
    value, radius = ref
    lo, hi = references.to_fraction(enc.lo), references.to_fraction(enc.hi)
    if not (lo - radius <= value <= hi + radius):
        return f"reference {float(value)!r} outside [{float(lo)!r}, {float(hi)!r}]"
    return None


def _label(req: Request) -> str:
    return f"{req.cls}({req.theorem or req.rep}, q={req.q}, eps={req.eps})"


def run_pointwise(lib, requests, tracer, out: Outcome) -> float:
    results = []
    wall = 0.0
    for rid, req in enumerate(requests):
        with tracer.request(f"pointwise:{req.cls}", rid):
            result, start, end = _timed(lambda: call(lib, req))
        wall += out.timed_request(start, end)
        results.append(result)
    for req, result in zip(requests, results):
        ref = None if req.cls == "check_bounds" else request_reference(req)
        out.record(_label(req), check_request(req, result, ref))
        out.terms_used += getattr(result, "terms_used", 0)
    return wall


# -- identities: exact comparison of the six representations ----------------------------

IDENTITY_ORDERS = (100, 125, 150)
ORDER_JITTER = 2


def identities_inputs(rng: random.Random, orders=IDENTITY_ORDERS) -> tuple[int, ...]:
    return tuple(max(1, n + rng.randint(-ORDER_JITTER, ORDER_JITTER)) for n in orders)


def check_identity_report(lib, report) -> list[tuple[str, str | None]]:
    """(representation, problem) for every representation."""
    if isinstance(report, Exception):
        return [(rep.name, f"raised {report!r}") for rep in lib.RepresentationId]
    out = []
    for rep in lib.RepresentationId:
        match = report.get(rep)
        ok = match is not None and match.match is True
        out.append((rep.name, None if ok else f"mismatch {match}"))
    return out


def run_identities(lib, orders, tracer, out: Outcome) -> float:
    reports = []
    wall = 0.0
    for order in orders:
        with tracer.request(f"identities:{order}", order):
            report, start, end = _timed(lambda: lib.identity_report(order))
        wall += out.timed_request(start, end)
        reports.append(report)
    for order, report in zip(orders, reports):
        for rep, problem in check_identity_report(lib, report):
            out.record(f"identity {rep} order {order}", problem)
    return wall


@dataclass(frozen=True)
class Workload:
    inputs: object  # (rng) -> unit inputs
    run: object     # (lib, inputs, tracer, outcome) -> measured seconds


WORKLOADS = {
    "proof": Workload(proof_inputs, run_proof),
    "pointwise": Workload(pointwise_inputs, run_pointwise),
    "identities": Workload(identities_inputs, run_identities),
}
