"""Command-line entry point.

Exit codes: 0 on success or a passing verification, 1 when a verification
fails or stays indeterminate, 2 on usage or domain errors, 141 when the
reader of stdout has closed it.  Numeric output is locale-independent
JSON/CSV with a schema_version field on structured documents; each stdout
document is one write.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from itertools import pairwise

from .intervals import (
    DomainError,
    Enclosure,
    Mode,
    PrecisionError,
    TermBudgetError,
    working_precision,
)
from .lemma_functions import evaluate_named
from .power_series import RepresentationId, build_representation, identity_report
from .special_eval import (
    BoundsStatus,
    TheoremId,
    check_bounds,
    eval_F,
    eval_H,
    eval_T,
    eval_psi_q,
)
from .verifier import (
    CONCLUSIONS,
    SCHEMA_VERSION,
    combine_theorem_3_2,
    verify_lemma,
)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141  # as a shell reports a command that SIGPIPE ended

#: Most grid points a bounds-scan checks.  The count is computed exactly
#: before any point is built, and a larger grid is a usage error.
MAX_SCAN_POINTS = 100_000

#: Largest --order of coeffs, identity-check and report, and --n of lemma-fn.
#: On a 2-core x86-64 machine under Python 3.11, identity-check (quadratic)
#: takes 4.2 s at 4000 and 6.6 s at 5000; lemma-fn --name D --q 0.95 (linear)
#: takes 2.0 s at --n 10 000.
MAX_ORDER, MAX_LEMMA_N = 4000, 10_000


def _mode_arg(value: str) -> Mode:
    try:
        return Mode(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"mode must be fast or certified, got {value!r}")


def _number_arg(value: str) -> str:
    """A rational number as typed (0.5, 1/3, 1e-9), kept as the string."""
    try:
        Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational number, got {value!r}")
    return value


def _eps_arg(value: str) -> float | Fraction:
    """A width as a double, or as its exact Fraction where the double rounds
    to 0 (1e-400), so that no positive width reads as 0."""
    try:
        return float(value) or Fraction(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {value!r}")


def _repr_arg(value: str) -> RepresentationId:
    try:
        return RepresentationId(value.upper())
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown representation {value!r}")


def _capped(value, flag: str, cap: int):
    """value, unless it exceeds cap: a usage error, raised before any work."""
    if value is not None and value > cap:
        raise DomainError(f"--{flag} {value} exceeds the cap of {cap}")
    return value


def _print_json(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _print_sandwich_cells(certs: dict) -> None:
    """One stderr line: per sandwich lemma, how many cells were settled in
    doubles and how many at working precision, how many runs of cells proved
    them, and how many double evaluations that took; for 2.4i and 2.8 the
    same counts of their witness points."""
    counts = {lid: cert.settled for lid, cert in certs.items() if cert.settled}
    print(f"sandwich_cells: {json.dumps(counts, sort_keys=True)}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divisor-series",
        description="Evaluate the divisor-function series T(q), its derived "
                    "functions, and run the certified verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="dump coefficients of one representation of T")
    p.add_argument("--repr", type=_repr_arg, default=RepresentationId.DIVISOR)
    p.add_argument("--order", type=int, required=True)

    p = sub.add_parser("identity-check", help="compare all representations against DIVISOR")
    p.add_argument("--order", type=int, required=True)

    p = sub.add_parser("eval", help="evaluate T, psi, H or F at a point")
    p.add_argument("--fn", choices=("T", "psi", "H", "F"), required=True)
    p.add_argument("--q", type=_number_arg, required=True)
    p.add_argument("--x", type=_number_arg, help="argument of psi (default 1)")
    p.add_argument("--eps", type=_eps_arg, default=1e-12)
    p.add_argument("--mode", type=_mode_arg, default=Mode.FAST)
    p.add_argument("--repr", type=_repr_arg, help="series of T (default CLAUSEN)")

    p = sub.add_parser("lemma-fn", help="evaluate one named auxiliary function")
    p.add_argument("--name", required=True)
    p.add_argument("--q", type=_number_arg)
    p.add_argument("--x", type=_number_arg)
    p.add_argument("--y", type=_number_arg)
    p.add_argument("--n", type=int)
    p.add_argument("--mode", type=_mode_arg, default=Mode.FAST)

    p = sub.add_parser("bounds-scan", help="scan a double inequality over a q grid")
    p.add_argument("--theorem", required=True,
                   choices=[t.value for t in TheoremId])
    p.add_argument("--grid-start", type=_number_arg, default="0.01")
    p.add_argument("--grid-end", type=_number_arg, default="0.99")
    p.add_argument("--grid-step", type=_number_arg, default="0.01")
    p.add_argument("--eps", type=_eps_arg, default=None)

    p = sub.add_parser("verify", help="run a lemma verification and emit a certificate")
    p.add_argument("--lemma", required=True,
                   choices=[*CONCLUSIONS, "thm3.2"])

    p = sub.add_parser("report", help="run the full verification suite")
    p.add_argument("--order", type=int, help="order of the identities (default 200)")
    p.add_argument("--skip", action="append", default=[],
                   choices=("identities", "verify", "bounds"))

    return parser


def _cmd_coeffs(args) -> int:
    series = build_representation(args.repr, _capped(args.order, "order", MAX_ORDER))
    sys.stdout.write("index,coefficient\n"
                     + "".join(f"{k},{c}\n" for k, c in enumerate(series.coeffs)))
    return EXIT_OK


def _cmd_identity_check(args) -> int:
    report = identity_report(_capped(args.order, "order", MAX_ORDER))
    doc = {
        "schema_version": SCHEMA_VERSION,
        "order": args.order,
        "reference": RepresentationId.DIVISOR.value,
        "results": {
            rep.value: {
                "match": res.match,
                "first_mismatch_index": res.first_mismatch_index,
            }
            for rep, res in report.items()
        },
    }
    _print_json(doc)
    return EXIT_OK if all(r.match for r in report.values()) else EXIT_VERIFICATION_FAILED


def _cmd_eval(args) -> int:
    for flag, fn in (("repr", "T"), ("x", "psi")):
        if getattr(args, flag) is not None and args.fn != fn:
            raise DomainError(f"--{flag} applies to --fn {fn} only")
    if args.fn == "T":
        rep = eval_T(args.q, args.eps, args.repr or RepresentationId.CLAUSEN, args.mode)
    elif args.fn == "psi":
        rep = eval_psi_q(args.q, Fraction(args.x or 1), args.eps, args.mode)
    elif args.fn == "H":
        rep = eval_H(args.q, args.eps, args.mode)
    else:
        rep = eval_F(args.q, args.eps, args.mode)
    lo, hi = rep.value.to_floats()
    _print_json({
        "schema_version": SCHEMA_VERSION,
        "fn": args.fn,
        "q": args.q,
        "lo": lo,
        "hi": hi,
        "terms": rep.terms_used,
        "tail_bound": rep.tail_bound,
        "mode": rep.mode.value,
        "representation": rep.representation.value
        if isinstance(rep.representation, RepresentationId) else rep.representation,
    })
    return EXIT_OK


def _cmd_lemma_fn(args) -> int:
    value = evaluate_named(args.name, q=args.q, x=args.x, y=args.y,
                           n=_capped(args.n, "n", MAX_LEMMA_N), mode=args.mode)
    if isinstance(value, Enclosure):
        lo, hi = value.to_floats()
        _print_json({"schema_version": SCHEMA_VERSION, "name": args.name,
                     "lo": lo, "hi": hi, "mode": args.mode.value})
    else:
        _print_json({"schema_version": SCHEMA_VERSION, "name": args.name,
                     "value": value, "mode": args.mode.value})
    return EXIT_OK


def _scan_rows(theorem: TheoremId, start: Fraction, end: Fraction, step: Fraction, eps):
    """One row per grid point start, start + step, ... <= end; C3_3 checks
    each pair of neighbouring points and has a row per pair."""
    if step <= 0:
        raise DomainError(f"grid step must be positive, got {step}")
    count = max((end - start) // step + 1, 0)
    if count > MAX_SCAN_POINTS:
        raise DomainError(f"grid from {start} to {end} in steps of {step} has {count} "
                          f"points; bounds-scan checks at most {MAX_SCAN_POINTS}")
    if count < (2 if theorem is TheoremId.C3_3 else 1):
        raise DomainError(f"{theorem.value} has nothing to check on {count} grid "
                          f"point(s) from {start} to {end}")
    points = (start + k * step for k in range(count))
    if theorem is TheoremId.C3_3:
        checks = ((pair[0], {"pair": pair}) for pair in pairwise(points))
    else:
        checks = ((q, {"q": q}) for q in points)
    rows = []
    for q, check in checks:
        result = check_bounds(theorem, eps=eps, **check)
        lhs, mid, rhs = result.lhs.to_floats(), result.mid.to_floats(), result.rhs.to_floats()
        rows.append((float(q), *lhs, *mid, *rhs, result.status.value))
    return rows


def _cmd_bounds_scan(args) -> int:
    theorem = TheoremId(args.theorem)
    rows = _scan_rows(theorem, Fraction(args.grid_start), Fraction(args.grid_end),
                      Fraction(args.grid_step), args.eps)
    sys.stdout.write("q,lhs_lo,lhs_hi,mid_lo,mid_hi,rhs_lo,rhs_hi,status\n" + "".join(
        ",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n" for row in rows))
    all_pass = all(row[-1] == BoundsStatus.PASS.value for row in rows)
    return EXIT_OK if all_pass else EXIT_VERIFICATION_FAILED


def _cmd_verify(args) -> int:
    if args.lemma == "thm3.2":
        certs = {lid: verify_lemma(lid) for lid in CONCLUSIONS}
        cert = combine_theorem_3_2(certs)
    else:
        cert = verify_lemma(args.lemma)
        certs = {args.lemma: cert}
    _print_sandwich_cells(certs)
    sys.stdout.write(cert.to_json())
    return EXIT_OK if cert.passed else EXIT_VERIFICATION_FAILED


def _cmd_report(args) -> int:
    if args.order is not None and "identities" in args.skip:
        raise DomainError("--order applies to the identities section only")
    doc = {"schema_version": SCHEMA_VERSION, "sections": {}}
    timings = {}
    certs = {}
    overall_ok = True

    if "identities" not in args.skip:
        t0 = time.perf_counter()
        order = 200 if args.order is None else _capped(args.order, "order", MAX_ORDER)
        rep = identity_report(order)
        ok = all(r.match for r in rep.values())
        doc["sections"]["identities"] = {
            "order": order,
            "all_match": ok,
            "results": {r.value: m.match for r, m in rep.items()},
        }
        timings["identities"] = round(time.perf_counter() - t0, 3)
        overall_ok &= ok

    if "verify" not in args.skip:
        t0 = time.perf_counter()
        certs = {lid: verify_lemma(lid) for lid in CONCLUSIONS}
        rollup = combine_theorem_3_2(certs)
        doc["sections"]["verify"] = {
            "lemmas": {lid: c.passed for lid, c in certs.items()},
            "thm3.2": rollup.passed,
            "min_margins": {lid: c.min_margin for lid, c in certs.items()},
        }
        timings["verify"] = round(time.perf_counter() - t0, 3)
        overall_ok &= rollup.passed

    if "bounds" not in args.skip:
        t0 = time.perf_counter()
        bounds_section = {}
        for theorem in TheoremId:
            rows = _scan_rows(theorem, Fraction(1, 100), Fraction(99, 100),
                              Fraction(1, 100), None)
            ok = all(row[-1] == BoundsStatus.PASS.value for row in rows)
            bounds_section[theorem.value] = {"points": len(rows), "all_strict": ok}
            overall_ok &= ok
        doc["sections"]["bounds"] = bounds_section
        timings["bounds"] = round(time.perf_counter() - t0, 3)

    doc["passed"] = overall_ok
    _print_json(doc)
    # wall times vary from run to run, so they stay out of the stdout document
    print(f"timings_s: {json.dumps(timings, sort_keys=True)}", file=sys.stderr)
    _print_sandwich_cells(certs)
    return EXIT_OK if overall_ok else EXIT_VERIFICATION_FAILED


_HANDLERS = {
    "coeffs": _cmd_coeffs,
    "identity-check": _cmd_identity_check,
    "eval": _cmd_eval,
    "lemma-fn": _cmd_lemma_fn,
    "bounds-scan": _cmd_bounds_scan,
    "verify": _cmd_verify,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        working_precision()  # a malformed DIVISOR_SERIES_PREC is a usage error everywhere
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # as Python's signal docs do: no second error at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (DomainError, TermBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PrecisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED


if __name__ == "__main__":
    sys.exit(main())
