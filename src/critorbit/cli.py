"""Command-line front end.

Every subcommand prints a single JSON document to stdout:

    {"status": "ok" | "verification-failed" | "invalid-input" | "exhausted"
               | "internal-error",
     "payload": {...}}

with exit codes 0/1/2/3/4 respectively.  "internal-error" means a self-check
that must always hold failed (``InternalConsistencyError``): a bug, reported
with its message instead of a traceback.  Usage errors (a missing or
unparsable flag, an unknown subcommand) are "invalid-input" documents on
stdout too, with nothing on stderr; only ``--help`` prints plain text.  Big
integers are decimal strings throughout the payload.  Output is byte-stable
for fixed inputs; ``--meta`` adds a sibling "meta" object (timestamp,
version) without touching the payload.  ``--csv`` switches the density scan
to per-prime CSV rows.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# each layer loads on its first use, inside the handler that calls it
from . import __version__, arith, bounds, constructor, density, gleason, lifting, orbit, pcf
from .errors import (
    HenselHypothesisError,
    InternalConsistencyError,
    SearchExhaustedError,
)

OK = "ok"
VERIFICATION_FAILED = "verification-failed"
INVALID_INPUT = "invalid-input"
EXHAUSTED = "exhausted"
INTERNAL_ERROR = "internal-error"

_EXIT_CODES = {
    OK: 0, VERIFICATION_FAILED: 1, INVALID_INPUT: 2, EXHAUSTED: 3, INTERNAL_ERROR: 4,
}


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ValueError(f"malformed integer {text!r}") from exc


def _cmd_orbit(args) -> tuple[str, dict]:
    c = arith.Residue.reduce(_parse_int(args.c), args.p, args.t)
    ptype, entry = orbit.period_type_mod(args.d, c)
    return OK, {
        "d": args.d,
        "p": str(args.p),
        "t": args.t,
        "c": str(c.value),
        "period_type": {"m": ptype.tail, "n": ptype.period},
        "cycle_entry": str(entry),
    }


def _cmd_valuation(args) -> tuple[str, dict]:
    c = orbit.RationalParam.from_string(args.c)
    nu = orbit.iterate_valuation(args.d, c, args.n, args.p, cap=args.cap)
    return OK, {
        "d": args.d,
        "n": args.n,
        "p": str(args.p),
        "c": str(c),
        "valuation": nu.value,
        "exact": nu.exact,
    }


def _cmd_primitive(args) -> tuple[str, dict]:
    c = orbit.RationalParam.from_string(args.c)
    primitive, valuation = orbit.is_primitive_divisor(args.d, c, args.n, args.p)
    return OK, {
        "d": args.d,
        "n": args.n,
        "p": str(args.p),
        "c": str(c),
        "primitive": primitive,
        "valuation": valuation,
    }


def _cmd_gleason(args) -> tuple[str, dict]:
    poly = gleason.gleason_poly(args.d, args.n)
    return OK, {
        "d": args.d,
        "n": args.n,
        "coefficients": poly.to_decimal_strings(),
        "degree": poly.degree,
    }


def _cmd_disc(args) -> tuple[str, dict]:
    poly = gleason.gleason_poly(args.d, args.n)
    return OK, {
        "d": args.d,
        "n": args.n,
        "discriminant": str(gleason.discriminant(poly)),
    }


def _cmd_roots(args) -> tuple[str, dict]:
    poly = gleason.gleason_poly(args.d, args.n)
    roots = gleason.roots_mod_p(poly, args.p)
    return OK, {
        "d": args.d,
        "n": args.n,
        "p": str(args.p),
        "roots": [{"root": str(r), "multiplicity": m} for r, m in roots],
    }


def _cmd_lift(args) -> tuple[str, dict]:
    result = lifting.hensel_lift(args.d, args.n, args.p, _parse_int(args.c0), args.precision)
    return OK, result.to_json_dict()


def _cmd_adjust(args) -> tuple[str, dict]:
    precision = args.r + 2 if args.precision is None else args.precision
    lift = lifting.hensel_lift(args.d, args.n, args.p, _parse_int(args.c0), precision)
    c_r = lifting.adjust_power(lift, args.r)
    return OK, {
        "d": args.d,
        "n": args.n,
        "p": str(args.p),
        "r": args.r,
        "c": str(c_r),
        "lift": lift.to_json_dict(),
    }


def _read_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _cmd_construct(args) -> tuple[str, dict]:
    spec = constructor.DivisibilitySpec.from_json_dict(_read_json(args.spec))
    report = constructor.build_parameter(spec)
    status = OK if report.all_verified else VERIFICATION_FAILED
    return status, report.to_json_dict()


def _cmd_verify(args) -> tuple[str, dict]:
    spec = constructor.DivisibilitySpec.from_json_dict(_read_json(args.spec))
    checks = constructor.verify_spec(args.d, _parse_int(args.c), spec)
    payload = {
        "d": args.d,
        "c": args.c,
        "checks": [check.to_json_dict() for check in checks],
        "all_ok": all(check.ok for check in checks),
    }
    return (OK if payload["all_ok"] else VERIFICATION_FAILED), payload


def _cmd_pcf(args) -> tuple[str, dict]:
    census = pcf.enumerate_pcf(args.d, args.p)
    doc = census.to_json_dict()
    doc["condition_star_star"] = pcf.check_condition_star_star(args.d, args.p)
    return OK, doc


def _cmd_condition(args) -> tuple[str, dict]:
    if args.n is not None:
        ok, witnesses = pcf.check_condition_star(args.d, args.p, args.n)
        return OK, {
            "d": args.d,
            "p": str(args.p),
            "n": args.n,
            "condition_star": ok,
            "failures": [str(w) for w in witnesses],
        }
    failures = pcf.condition_star_star_failures(args.d, args.p, max_period=args.max_period)
    return OK, {
        "d": args.d,
        "p": str(args.p),
        "max_period": args.max_period,
        "condition_star_star": not failures,
        "failures": [{"c": str(c), "period": n} for c, n in failures],
    }


def _cmd_correspond(args) -> tuple[str, dict]:
    report = pcf.correspondence_report(args.d, args.p, args.precision)
    return OK, report.to_json_dict()


def _cmd_density(args) -> tuple[str, dict | str]:
    if args.threads < 1:
        raise ValueError("need jobs >= 1 worker processes")
    if args.csv:
        rows = density.density_scan_rows(args.d, args.n, args.limit)
        return OK, "p,has_root\n" + "".join(f"{p},{int(flag)}\n" for p, flag in rows)
    report = density.density_report(args.d, args.n, args.limit, jobs=args.threads)
    return OK, report.to_json_dict()


def _cmd_bound(args) -> tuple[str, dict]:
    c = orbit.RationalParam.from_string(args.c)
    value = bounds.rho_upper_bound(args.d, args.n, c)
    return OK, {"d": args.d, "n": args.n, "c": str(c), "upper_bound": value}


def _cmd_rho(args) -> tuple[str, dict]:
    c = orbit.RationalParam.from_string(args.c)
    count, complete = bounds.count_primitive_primes(
        args.d, c, args.n, rho_iterations=args.budget
    )
    return OK, {
        "d": args.d,
        "n": args.n,
        "c": str(c),
        "count": count,
        "complete": complete,
    }


def _cmd_certify(args) -> tuple[str, dict]:
    if args.check:
        cert = bounds.MaximalityCertificate.from_json_dict(_read_json(args.check))
        ok = bounds.verify_certificate(cert)
        return (OK if ok else VERIFICATION_FAILED), {
            "checked": cert.to_json_dict(),
            "reproduced": ok,
        }
    if args.d is None or args.c is None or args.m is None:
        raise ValueError("certify needs --d, --c and --m (or --check FILE)")
    witnesses = None
    if args.witnesses:
        try:
            witnesses = {int(n): int(p) for n, p in _read_json(args.witnesses).items()}
        except (AttributeError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed witnesses file: {exc}") from exc
    cert = bounds.maximality_certificate(
        args.d, _parse_int(args.c), args.m, witnesses=witnesses,
        scan_budget=args.budget,
    )
    return (OK if cert.complete else VERIFICATION_FAILED), cert.to_json_dict()


def _cmd_factor(args) -> tuple[str, dict]:
    fact = arith.factorize(_parse_int(args.x), rho_iterations=args.budget)
    return OK, {
        "x": args.x,
        "factors": [{"p": str(p), "e": e} for p, e in fact.factors],
        "cofactor": str(fact.cofactor),
        "complete": fact.complete,
    }


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so they reach the JSON channel as invalid input."""

    def error(self, message):
        raise ValueError(message)


# every required flag, defined once for all the subcommands that take it; the
# handlers parse the text flags
_REQUIRED_FLAGS = {
    **{flag: {"type": int} for flag in ("d", "n", "p", "precision", "r", "limit")},
    "c": {"help": "integer, or a/b where a rational parameter is allowed"},
    "c0": {},
    "spec": {"help": "JSON spec file"},
    "x": {},
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="critorbit",
        description="Critical-orbit arithmetic for x^d + c over residue rings",
    )
    parser.add_argument("--seed", type=int, default=None, help="reseed randomized internals")
    parser.add_argument("--meta", action="store_true", help="attach run metadata")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, flags, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(handler=handler)
        for flag in flags.split():
            cmd.add_argument(f"--{flag}", required=True, **_REQUIRED_FLAGS[flag])
        return cmd

    cmd = add("orbit", _cmd_orbit, "d p c", "period type of the critical orbit in Z/p^t")
    cmd.add_argument("--t", type=int, default=1)
    cmd = add("valuation", _cmd_valuation, "d c n p", "nu_p of the n-th orbit numerator")
    cmd.add_argument("--cap", type=int, default=arith._DEFAULT_VALUATION_CAP)
    add("primitive", _cmd_primitive, "d c n p", "primitive-divisor test with valuation")
    add("gleason", _cmd_gleason, "d n", "period-n Gleason polynomial coefficients")
    add("disc", _cmd_disc, "d n", "discriminant of the period-n Gleason polynomial")
    add("roots", _cmd_roots, "d n p", "its F_p roots with multiplicities")
    add("lift", _cmd_lift, "d n p c0 precision", "Newton-lift a base parameter to Z/p^N")
    cmd = add("adjust", _cmd_adjust, "d n p c0 r",
              "lift then force nu_p(f^n(0)) = r exactly")
    cmd.add_argument("--precision", type=int, default=None)
    add("construct", _cmd_construct, "spec", "build c realizing a divisibility spec")
    add("verify", _cmd_verify, "d c spec", "verify a claimed (c, spec) pair")
    add("pcf", _cmd_pcf, "d p", "census of critically finite parameters over F_p")
    cmd = add("condition", _cmd_condition, "d p", "simple-root condition checks")
    cmd.add_argument("--n", type=int, default=None)
    cmd.add_argument("--max-period", type=int, default=None)
    add("correspond", _cmd_correspond, "d p precision", "lifted census in Z/p^N")
    cmd = add("density", _cmd_density, "d n limit",
              "prime-density formulas and empirical scan")
    cmd.add_argument("--json", action="store_true", help="JSON report (the default)")
    cmd.add_argument("--csv", action="store_true")
    cmd.add_argument("--threads", type=int, default=1)
    add("bound", _cmd_bound, "d n c", "upper bound on the primitive-prime count")
    cmd = add("rho", _cmd_rho, "d c n", "count primitive primes by factoring a_n")
    cmd.add_argument("--budget", type=int, default=arith._DEFAULT_RHO_BUDGET)

    cmd = add("certify", _cmd_certify, "", "Galois-maximality witness certificate")
    cmd.add_argument("--d", type=int, default=None)
    cmd.add_argument("--c", default=None)
    cmd.add_argument("--m", type=int, default=None)
    cmd.add_argument("--witnesses", default=None, help="JSON map iterate -> prime")
    cmd.add_argument("--budget", type=int, default=arith._DEFAULT_PRIME_SCAN_BUDGET)
    cmd.add_argument("--check", default=None, help="re-verify a certificate JSON file")

    cmd = add("factor", _cmd_factor, "x", "bounded integer factorization")
    cmd.add_argument("--budget", type=int, default=arith._DEFAULT_RHO_BUDGET)
    return parser


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # print and read integers of any length
        sys.set_int_max_str_digits(0)
    args = None
    try:
        args = build_parser().parse_args(argv)
        arith.set_random_seed(args.seed)  # no --seed: the default, whatever ran before
        outcome = args.handler(args)
    except HenselHypothesisError as exc:
        outcome = (
            INVALID_INPUT,
            {
                "error": str(exc),
                "nu_value": exc.nu_value,
                "nu_derivative": exc.nu_derivative,
            },
        )
    except SearchExhaustedError as exc:
        outcome = (EXHAUSTED, {"error": str(exc), "bound": exc.bound})
    except InternalConsistencyError as exc:
        outcome = (INTERNAL_ERROR, {"error": str(exc)})
    except (ValueError, OSError) as exc:  # usage errors and malformed input
        outcome = (INVALID_INPUT, {"error": str(exc)})
    status, payload = outcome
    doc = {"status": status, "payload": payload}
    if getattr(args, "meta", False):
        import datetime  # only here: no other run pays its import

        doc["meta"] = {
            "version": __version__,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }
    if isinstance(payload, str):  # CSV rows, printed as they are
        text = payload
    else:
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (`| head`); point stdout at devnull
        # so the interpreter's exit flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return _EXIT_CODES[status]


if __name__ == "__main__":
    sys.exit(main())
