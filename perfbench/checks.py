"""Answer checks: stored payload hashes and benchmark-local spot checks.

Every job's answer is checked here after the timed loop.  A job whose input
has a stored answer (``answers.json``, recorded from the seed commit for the
default and the held-out seed) must reproduce its exit status and the SHA-256
of its canonical payload.  Every job, stored or not, also passes a spot check
that recomputes part of the answer independently: small orbit walkers and
sympy, never ``critorbit``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from fractions import Fraction

import sympy

from workloads import Job, canonical_json, gleason_discriminant

SAMPLE = 24  # parameters re-walked per census-type answer

# The checks parse the answers' integers in this process.  The CLI's own
# int-to-str limit is the known defect the benchmark keeps visible; its
# checks must not share it, or a fixed CLI's large lifts would read as
# malformed.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)


class CheckError(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def payload_hash(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def load_answers(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _arg(job: Job, flag: str, cast=int):
    argv = list(job.argv)
    return cast(argv[argv.index(flag) + 1])


# ---------------------------------------------------------------------------
# walkers


def _walk(d: int, c: int, modulus: int, steps: int) -> list[int]:
    """[f^0(0), ..., f^steps(0)] mod modulus."""
    xs = [0]
    x = 0
    for _ in range(steps):
        x = (pow(x, d, modulus) + c) % modulus
        xs.append(x)
    return xs


def _period_type(d: int, c: int, p: int) -> tuple[int, int]:
    """(tail, period) of 0 under x^d + c mod p, by a dictionary walk."""
    seen = {}
    x = i = 0
    while x not in seen:
        seen[x] = i
        x = (pow(x, d, p) + c) % p
        i += 1
    return seen[x], i - seen[x]


def _derivative(d: int, c: int, n: int, modulus: int) -> int:
    v = w = 0
    for _ in range(n):
        w = (d * pow(v, d - 1, modulus) * w + 1) % modulus
        v = (pow(v, d, modulus) + c) % modulus
    return w


def _val(x: int, p: int, cap: int) -> int:
    """min(nu_p(x), cap) with nu_p(0) = cap."""
    v = 0
    while v < cap and x % p == 0:
        x //= p
        v += 1
    return v


def _numerators(d: int, a: int, b: int, n: int, modulus: int) -> list[int]:
    """a_1..a_n of the critical orbit of c = a/b, mod modulus."""
    x = a % modulus
    out = [x]
    exponent = d
    for _ in range(n - 1):
        x = (pow(x, d, modulus) + a * pow(b, exponent - 1, modulus)) % modulus
        out.append(x)
        exponent *= d
    return out


def _check_primitive_power(d: int, c, n: int, p: int, primitive: bool, nu: int) -> None:
    """p is (not) primitive for a_n and nu_p(a_n) = nu, recomputed directly."""
    frac = Fraction(c)
    values = _numerators(d, frac.numerator, frac.denominator, n, p ** (nu + 1))
    require(_val(values[-1], p, nu + 1) == nu, f"nu_{p}(a_{n}) != {nu}")
    require(primitive == (nu > 0 and all(v % p for v in values[:-1])),
            "primitive flag is wrong")


def _check_lift(lift: dict, d: int, n: int, p: int, c0: int, precision: int) -> None:
    modulus = p**precision
    require(int(lift["modulus"]) == modulus, "lift modulus != p^precision")
    value = int(lift["value"])
    if c0 == 0:  # f^n(0) vanishes exactly, so c0 is already the p-adic root
        require(value == 0 and lift["shift_valuation"] == precision, "c0 = 0 must lift to 0")
        return
    require(0 <= value < modulus and value % p == c0 % p, "lift is not above c0")
    require(_walk(d, value, modulus, n)[-1] == 0, "f^n(0) != 0 mod p^N at the lift")
    nu_f, nu_df = lift["nu_value"], lift["nu_derivative"]
    require(_val(_walk(d, c0, p ** (nu_f + 1), n)[-1], p, nu_f + 1) == nu_f, "nu(F) is wrong")
    require(_val(_derivative(d, c0, n, p ** (nu_df + 1)), p, nu_df + 1) == nu_df,
            "nu(F') is wrong")
    require(lift["shift_valuation"] == nu_f - nu_df, "shift != nu(F) - nu(F')")
    if (value - c0) % modulus:
        require(_val(value - c0, p, precision) == nu_f - nu_df, "nu(lift - c0) is wrong")


# ---------------------------------------------------------------------------
# spot checks by subcommand; each returns the expected exit status


def _census_sample(p: int, rng: random.Random) -> list[int]:
    return rng.sample(range(p), min(SAMPLE, p))


def check_pcf(job, payload, rng):
    d, p = _arg(job, "--d"), _arg(job, "--p")
    periodic, pre = payload["periodic"], payload["preperiodic"]
    require(len(periodic) + len(pre) == p and not set(periodic) & set(pre),
            "census does not cover F_p")
    for c in _census_sample(p, rng):
        tail, period = _period_type(d, c, p)
        entry = (periodic if tail == 0 else pre).get(str(c))
        require(entry == {"m": tail, "n": period}, f"period type of c = {c} is wrong")
        if tail == 0 and _derivative(d, c, period, p) == 0:
            require(payload["condition_star_star"] is False, "missed a multiple root")
    return 0


def check_condition(job, payload, rng):
    d, p = _arg(job, "--d"), _arg(job, "--p")
    n = _arg(job, "--n") if "--n" in job.argv else None
    if n is None:
        failures = {int(f["c"]): f["period"] for f in payload["failures"]}
        require(payload["condition_star_star"] == (not failures), "flag contradicts failures")
    else:
        failures = {int(c): n for c in payload["failures"]}
        require(payload["condition_star"] == (not failures), "flag contradicts failures")
    for c, period in failures.items():
        require(_period_type(d, c, p) == (0, period), f"failure {c} has the wrong period")
        require(_derivative(d, c, period, p) == 0, f"failure {c} is a simple root")
    for c in _census_sample(p, rng):
        tail, period = _period_type(d, c, p)
        if tail == 0 and (n is None or period == n) and _derivative(d, c, period, p) == 0:
            require(c in failures, f"missed the multiple root c = {c}")
    return 0


def check_correspond(job, payload, rng):
    d, p, precision = _arg(job, "--d"), _arg(job, "--p"), _arg(job, "--precision")
    entries = {int(e["base_c"]): e for e in payload["entries"]}
    require(sum(payload["counts_by_period"].values()) == len(entries), "counts disagree")
    for c in _census_sample(p, rng):
        tail, period = _period_type(d, c, p)
        require((tail == 0) == (c in entries), f"c = {c} is listed wrongly")
        if tail:
            continue
        entry = entries[c]
        require(entry["period"] == period, f"period of c = {c} is wrong")
        if entry["lift"] is None:
            require(_derivative(d, c, period, p) == 0, f"simple root c = {c} was not lifted")
        else:
            _check_lift(entry["lift"], d, period, p, c, precision)
    return 0


def check_density(job, payload, rng):
    emp = payload["empirical"]
    limit = _arg(job, "--limit")
    require(emp["limit"] == limit, "limit echoed wrongly")
    require(emp["total"] + len(emp["skipped_primes"]) == sympy.primepi(limit),
            "total + skipped != pi(limit)")
    require(0 <= emp["hits"] <= emp["total"], "hits out of range")
    require(Fraction(emp["fraction"]) == Fraction(emp["hits"], emp["total"]), "fraction wrong")
    return 0


def check_roots(job, payload, rng):
    d, n, p = _arg(job, "--d"), _arg(job, "--n"), _arg(job, "--p")
    roots = [int(r["root"]) for r in payload["roots"]]
    require(roots == sorted(set(roots)), "roots not sorted and distinct")
    for r in payload["roots"]:
        require(r["multiplicity"] >= 1, "multiplicity < 1")
        require(_walk(d, int(r["root"]), p, n)[-1] == 0, f"{r['root']} is not a root")
    return 0


def check_disc(job, payload, rng):
    d, n = _arg(job, "--d"), _arg(job, "--n")
    require(int(payload["discriminant"]) == gleason_discriminant(d, n), "discriminant differs")
    return 0


def check_lift(job, payload, rng):
    d, n, p, c0 = (_arg(job, f) for f in ("--d", "--n", "--p", "--c0"))
    _check_lift(payload, d, n, p, c0, _arg(job, "--precision"))
    return 0


def check_adjust(job, payload, rng):
    d, n, p, c0, r = (_arg(job, f) for f in ("--d", "--n", "--p", "--c0", "--r"))
    _check_lift(payload["lift"], d, n, p, c0, r + 2)
    _check_primitive_power(d, int(payload["c"]), n, p, True, r)
    return 0


def check_construct(job, payload, rng):
    spec, d, c = job.spec, job.spec["d"], int(payload["c"])
    wanted = [(e["n"], pk.get("p"), pk["k"]) for e in spec["constraints"] for pk in e["primes"]]
    records = payload["records"]
    require(len(records) == len(wanted), "one record per constraint")
    primes = [int(r["p"]) for r in records]
    require(len(set(primes)) == len(primes), "primes repeat")
    for rec, (n, p, k) in zip(records, wanted):
        require((rec["n"], rec["k"]) == (n, k), "records out of order")
        q = int(rec["p"])
        require(p is None or q == int(p), "pinned prime not used")
        require(sympy.isprime(q) and (p is not None or d % q), "bad auto-chosen prime")
        require(int(rec["modulus"]) == q ** (k + 1) and int(rec["residue"]) == c % q ** (k + 1),
                "record residue disagrees with c")
        _check_primitive_power(d, c, n, q, True, k)
    return 0


def check_orbit(job, payload, rng):
    d, p, t = _arg(job, "--d"), _arg(job, "--p"), _arg(job, "--t")
    modulus = p**t
    c = _arg(job, "--c") % modulus
    m, n = payload["period_type"]["m"], payload["period_type"]["n"]
    require(int(payload["c"]) == c, "c echoed wrongly")
    # checked in one pass of m + n steps: x_m = x_{m+n}, the tail is minimal,
    # and no proper divisor of n is a period
    marks = {m + n // q for q in sympy.primefactors(n)}
    x, prev, seen = 0, None, {}
    for i in range(m + n + 1):
        if i in marks or i in (m - 1, m):
            seen[i] = x
        if i == m + n:
            break
        prev = x
        x = (pow(x, d, modulus) + c) % modulus
    require(x == seen[m] == int(payload["cycle_entry"]), "x_m != x_{m+n}")
    require(m == 0 or prev != seen[m - 1], "tail is not minimal")
    require(all(seen[i] != seen[m] for i in marks), "period is not exact")
    return 0


def check_valuation(job, payload, rng):
    d, n, p = _arg(job, "--d"), _arg(job, "--n"), _arg(job, "--p")
    frac = Fraction(_arg(job, "--c", str))
    require(payload["exact"] is True, "valuation not exact")
    nu = payload["valuation"]
    values = _numerators(d, frac.numerator, frac.denominator, n, p ** (nu + 1))
    require(_val(values[-1], p, nu + 1) == nu, "valuation is wrong")
    return 0


def check_primitive(job, payload, rng):
    d, n, p = _arg(job, "--d"), _arg(job, "--n"), _arg(job, "--p")
    c = _arg(job, "--c", str)
    _check_primitive_power(d, c, n, p, payload["primitive"], payload["valuation"])
    return 0


def check_factor(job, payload, rng):
    x = _arg(job, "--x")
    value = int(payload["cofactor"])
    for f in payload["factors"]:
        require(sympy.isprime(int(f["p"])), f"{f['p']} is not prime")
        value *= int(f["p"]) ** f["e"]
    require(value == x, "factors do not multiply to x")
    require(payload["complete"] == (int(payload["cofactor"]) == 1), "complete flag wrong")
    return 0


def check_rho(job, payload, rng):
    d, c, n = _arg(job, "--d"), _arg(job, "--c"), _arg(job, "--n")
    a_n = 0
    for _ in range(n):
        a_n = a_n**d + c  # exact; the rho jobs keep a_n small enough to factor
    count = sum(
        1 for q in sympy.factorint(abs(a_n))
        if all(v % q for v in _walk(d, c, q, n - 1)[1:])
    )
    require(payload["complete"] and payload["count"] == count, "primitive count differs")
    return 0


def check_certify(job, payload, rng):
    d, c, m = _arg(job, "--d"), _arg(job, "--c"), _arg(job, "--m")
    ns = sorted([e["n"] for e in payload["entries"]] + payload["missing"])
    require(ns == list(range(1, m + 1)), "entries and missing do not cover 1..m")
    for e in payload["entries"]:
        n, p, nu, flags = e["n"], int(e["p"]), e["valuation"], e["checks"]
        _check_primitive_power(d, c, n, p, flags["primitive"], nu)
        require(flags["valuation_coprime_to_degree"] == (nu > 0 and math.gcd(nu, d) == 1)
                and flags["prime_coprime_to_degree"] == (d % p != 0)
                and e["valid"] == all(flags.values()), "entry checks are wrong")
    complete = not payload["missing"] and all(e["valid"] for e in payload["entries"])
    require(payload["complete"] == complete, "complete flag wrong")
    if d == 2:
        require(payload["neg_c_is_square"] == (c <= 0 and math.isqrt(-c) ** 2 == -c),
                "neg_c_is_square wrong")
    return 0 if complete else 1


SPOT_CHECKS = {
    "pcf": check_pcf,
    "condition": check_condition,
    "correspond": check_correspond,
    "density": check_density,
    "roots": check_roots,
    "disc": check_disc,
    "lift": check_lift,
    "adjust": check_adjust,
    "construct": check_construct,
    "orbit": check_orbit,
    "valuation": check_valuation,
    "primitive": check_primitive,
    "factor": check_factor,
    "rho": check_rho,
    "certify": check_certify,
}


def check_answer(job: Job, status: int, stdout: bytes, answers: dict, seed: int) -> str | None:
    """None if the answer is right, else why not."""
    try:
        payload = json.loads(stdout)["payload"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"exit {status}, unreadable output: {exc}"
    if status not in (0, 1):
        return f"exit {status}: {payload.get('error') if isinstance(payload, dict) else ''}"
    stored = answers.get(job.key)
    if stored is not None:
        if stored != {"status": status, "sha256": payload_hash(payload)}:
            return f"exit {status}: differs from the stored answer"
    rng = random.Random(f"{seed}:{job.key}")
    try:
        expected = SPOT_CHECKS[job.kind](job, payload, rng)
    except CheckError as exc:
        return f"exit {status}: {exc}"
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"exit {status}: malformed payload ({exc!r})"
    if status != expected:
        return f"exit {status}, expected {expected}"
    return None
