"""Seeded job lists for the three workloads.

A job is one ``python -m critorbit.cli`` invocation.  Each workload is a
sequence of rounds; every round holds the same job templates in the same
order, with parameters drawn from the seed inside narrow bands, so that any
prefix of the list has nearly the same mix whatever the seed.  That keeps a
time-bounded run's figures steady across seeds while the inputs still vary.

The generator never imports ``critorbit``: the parameters it needs to be
valid (a base with exact period n, a prime that the constructor accepts) are
found with the small walkers below and sympy.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache

import sympy

WORKLOADS = ("census", "density", "construct")
ROUNDS = 16
SPEC_TOKEN = "{spec}"  # replaced by the spec file's path when the job runs
CLI_DIGIT_LIMIT = 4300  # int -> str conversion limit of the CLI's interpreter


@dataclass(frozen=True)
class Job:
    kind: str  # the subcommand
    argv: tuple[str, ...]
    spec: dict | None = None  # construct spec, written to a file

    @property
    def key(self) -> str:
        """Stable identity of the job's input, used to look up stored answers."""
        text = " ".join(self.argv)
        if self.spec is not None:
            text = text.replace(SPEC_TOKEN, canonical_json(self.spec))
        return text


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# benchmark-local arithmetic for choosing valid inputs


@lru_cache(maxsize=None)
def _primes(lo: int, hi: int, mod3: int | None = None) -> tuple[int, ...]:
    return tuple(p for p in sympy.primerange(lo, hi) if mod3 is None or p % 3 == mod3)


def _exact_period_mod_p(d: int, c: int, p: int) -> int | None:
    """Exact period of 0 under x^d + c mod p, or None if 0 is not periodic."""
    x = c % p
    for i in range(1, p + 1):
        if x == 0:
            return i
        x = (pow(x, d, p) + c) % p
    return None


def _derivative_mod_p(d: int, c: int, n: int, p: int) -> int:
    v = w = 0
    for _ in range(n):
        w = (d * pow(v, d - 1, p) * w + 1) % p
        v = (pow(v, d, p) + c) % p
    return w


def simple_base(d: int, n: int, p: int) -> int | None:
    """Smallest c0 in [0, p) with exact period n mod p, if it is a simple root."""
    for c0 in range(p):
        if _exact_period_mod_p(d, c0, p) == n:
            return c0 if _derivative_mod_p(d, c0, n, p) else None
    return None


@lru_cache(maxsize=None)
def gleason_discriminant(d: int, n: int) -> int:
    """disc of prod_{k|n} (f^k(0))^mu(n/k), by sympy (small degrees only)."""
    c = sympy.Symbol("c")
    num = den = sympy.Poly(1, c, domain=sympy.ZZ)
    for k in sympy.divisors(n):
        x = sympy.Poly(0, c, domain=sympy.ZZ)
        for _ in range(k):
            x = x**d + sympy.Poly(c, c, domain=sympy.ZZ)
        mu = sympy.mobius(n // k)
        if mu == 1:
            num *= x
        elif mu == -1:
            den *= x
    quotient, rest = num.div(den)
    if not rest.is_zero:
        raise ArithmeticError("Gleason quotient is not exact")
    return int(quotient.discriminant()) if quotient.degree() >= 1 else 1


# ---------------------------------------------------------------------------
# workloads


def _census_round(rng: random.Random, i: int) -> list[Job]:
    def job(*argv):
        return Job(argv[0], tuple(str(a) for a in argv))

    # x^3 + c permutes F_p when p = 2 mod 3: long cycles, so the census is
    # quadratic there; p = 1 mod 3 has short tails.  Both kinds are kept.
    # Three short, three middling (narrow bands, where the median falls) and
    # four long jobs per round, so that the tail percentile falls inside the
    # long cluster.  The long jobs' time varies irregularly with p (the
    # simple-root check stops at its first failure), so their primes are drawn
    # from lists of primes measured to take about 0.8-0.95 s on a 2-vCPU host.
    return [
        job("pcf", "--d", 3, "--p", rng.choice(_PCF_D3_LONG)),
        job("condition", "--d", 3, "--p", rng.choice(_primes(1000, 2500, 1)),
            "--n", rng.randint(2, 6)),
        job("pcf", "--d", 2, "--p", rng.choice(_primes(2400, 2800))),
        job("correspond", "--d", 3, "--p", rng.choice(_CORRESPOND_D3_LONG),
            "--precision", rng.randint(10, 14)),
        job("pcf", "--d", 3, "--p", rng.choice(_primes(2400, 2800, 1))),
        job("correspond", "--d", 3, "--p", rng.choice(_primes(300, 700, 1)),
            "--precision", rng.randint(8, 20)),
        job("condition", "--d", 3, "--p", rng.choice(_CONDITION_D3_LONG)),
        job("pcf", "--d", 2, "--p", rng.choice(_primes(2400, 2800))),
        job("condition", "--d", 2, "--p", rng.choice(_primes(1000, 2500)),
            "--n", rng.randint(2, 6)),
        job("pcf", "--d", 3, "--p", rng.choice(_PCF_D3_LONG)),
    ]


# primes p = 2 mod 3 for the long census jobs (see _census_round)
_PCF_D3_LONG = (809, 827, 863, 881, 983, 1013)
_CONDITION_D3_LONG = (641, 647, 659, 683, 719)
_CORRESPOND_D3_LONG = (233, 239, 251, 257)


# (d, n, threads) -> limit band.  The bands are calibrated so that every
# scan takes about the same time (0.7 s on a 2-vCPU host, pool jobs by wall
# time), and each is about +-2 % wide.  Nine of a round's twelve jobs are
# scans, so the median and the tail percentile both fall well inside one
# dense cluster of similar jobs, not at its edge, where they would jump from
# run to run.
_DENSITY_LIMITS = {
    (2, 3, 1): (25_500, 26_500),
    (2, 4, 1): (10_600, 11_000),
    (2, 5, 1): (3_200, 3_330),
    (2, 6, 1): (1_340, 1_400),
    (3, 3, 1): (15_000, 15_600),
    (3, 4, 1): (2_850, 2_950),
    (3, 5, 1): (590, 630),
    (2, 5, 2): (3_950, 4_100),
    (2, 6, 2): (1_740, 1_800),
}


def _density_round(rng: random.Random, i: int) -> list[Job]:
    def job(*argv):
        return Job(argv[0], tuple(str(a) for a in argv))

    def scan(d, n, threads=1):
        lo, hi = _DENSITY_LIMITS[(d, n, threads)]
        extra = ("--threads", threads) if threads > 1 else ()
        return job("density", "--d", d, "--n", n, "--limit", rng.randint(lo, hi), *extra)

    def big_prime():
        return sympy.nextprime(rng.randint(1_000_000, 3_000_000))

    # the three short jobs are spread out, so that any prefix holds a fair mix
    return [
        scan(2, 5),
        job("roots", "--d", 2, "--n", rng.randint(5, 8), "--p", big_prime()),
        scan(2, 3),
        scan(3, 4),
        scan(2, 5, threads=2),
        # n = 8 takes six times as long as n = 7 (3 s), too long for a job
        job("disc", "--d", 2, "--n", 7),
        scan(2, 4),
        scan(3, 3),
        job("roots", "--d", 3, "--n", rng.randint(3, 5), "--p", big_prime()),
        scan(3, 5),
        scan(2, 6, threads=2),
        scan(2, 6),
    ]


def _lift_params(rng: random.Random, d: int, p_range, n_range) -> tuple[int, int, int]:
    """(n, p, c0) with c0 a simple base of exact period n mod p."""
    while True:
        p = rng.choice(_primes(*p_range))
        n = rng.randint(*n_range)
        c0 = simple_base(d, n, p)
        if c0 is not None:
            return n, p, c0


def _lift_job(rng: random.Random, adjust: bool, digits: tuple[int, int]) -> Job:
    """A lift or adjust whose modulus p^precision has about ``digits`` digits;
    every band stays below CLI_DIGIT_LIMIT, so the answer can be printed."""
    n, p, c0 = _lift_params(rng, 2, (11, 60), (4, 12))
    precision = round(rng.randint(*digits) / math.log10(p))
    if adjust:
        argv = ("adjust", "--d", "2", "--n", str(n), "--p", str(p), "--c0", str(c0),
                "--r", str(precision - 2))
    else:
        argv = ("lift", "--d", "2", "--n", str(n), "--p", str(p), "--c0", str(c0),
                "--precision", str(precision))
    return Job(argv[0], argv)


# The CLI's one known defect: it cannot print an integer of more than
# CLI_DIGIT_LIMIT digits, so this lift (a modulus of about 8360 digits) is
# computed and then refused with exit 2.  run.py runs it once per run, outside
# the timed loop, and reports whether it still fails that way; the workloads
# hold only jobs that succeed.
KNOWN_DEFECT = Job("lift", ("lift", "--d", "2", "--n", "12", "--p", "47", "--c0", "38",
                            "--precision", "5000"))


def _auto_spec(rng: random.Random, d: int, iterates: list[int]) -> dict:
    return {
        "d": d,
        "constraints": [{"n": n, "primes": [{"k": rng.randint(2, 6)}]} for n in iterates],
        "exclude_primes": [],
    }


def _pinned_spec(rng: random.Random, d: int) -> dict:
    """Pinned primes that the constructor accepts: p divides neither d nor
    the Gleason discriminant, and its smallest base is a simple root."""
    constraints, taken = [], set()
    for n in sorted(rng.sample(range(2, 6 if d == 2 else 4), 2)):
        disc = gleason_discriminant(d, n)
        while True:
            p = rng.choice(_primes(5, 400))
            if p in taken or d % p == 0 or disc % p == 0:
                continue
            if simple_base(d, n, p) is not None:
                break
        taken.add(p)
        constraints.append({"n": n, "primes": [{"p": str(p), "k": rng.randint(3, 40)}]})
    return {"d": d, "constraints": constraints, "exclude_primes": []}


# c in 3..203 with c = 3, 8 or 13 mod 25: mod 5^10 these put 0 on a cycle of
# length 781 250 (the other c = 3 mod 5 give 156 250 or 31 250), so every
# orbit job walks as deep and peaks at the same RSS, about 120 MB
_DEEP_ORBIT_C = tuple(c for c in range(3, 204, 5) if c % 25 in (3, 8, 13))


def _construct_round(rng: random.Random, i: int) -> list[Job]:
    def job(*argv):
        return Job(argv[0], tuple(str(a) for a in argv))

    def construct(spec):
        return Job("construct", ("construct", "--spec", SPEC_TOKEN), spec=spec)

    a = rng.randint(2, 60)  # c = -1 would make a_n vanish exactly
    n, p, _ = _lift_params(rng, 2, (5, 200), (3, 6))
    b = rng.choice([b for b in range(3, 100, 2) if math.gcd(a, b) == 1 and b % p])

    def semiprime(lo):  # factor's time grows with its smaller prime
        return sympy.nextprime(rng.randint(lo, 2 * lo)) * sympy.nextprime(rng.randint(lo, 2 * lo))

    # Every job takes 0.15-1.1 s on a 2-vCPU host, and their times form a
    # ladder without large gaps, so no percentile of a run sits at a cliff and
    # no single job is a large share of a run.  Long and short jobs alternate,
    # so that any prefix holds a fair mix.
    return [
        construct(_auto_spec(rng, 2, [7] + sorted(rng.sample(range(2, 7), 2)))),
        job("valuation", "--d", 2, "--c", f"-{a}" if a % 2 else str(a), "--n", n, "--p", p),
        job("orbit", "--d", 2, "--p", 5, "--t", 10, "--c", rng.choice(_DEEP_ORBIT_C)),
        construct(_pinned_spec(rng, 2)),
        _lift_job(rng, adjust=bool(i % 2), digits=(3_700, 4_000)),
        job("primitive", "--d", 2, "--c", f"{a}/{b}", "--n", rng.randint(2, 8), "--p", p),
        job("factor", "--x", semiprime(10**11)),
        construct(_auto_spec(rng, 3, sorted(rng.sample(range(2, 6), 2)))),
        # a prime scan bounded by --budget
        job("certify", "--d", 2, "--c", rng.choice((3, 11, 13)), "--m", 8,
            "--budget", rng.randint(1000, 2000)),
        job("rho", "--d", 2, "--c", rng.randint(1, 9), "--n", rng.randint(4, 5)),
        _lift_job(rng, adjust=True, digits=(2_000, 2_200)),
        construct(_pinned_spec(rng, 3)),
        job("factor", "--x", semiprime(10**10)),
        _lift_job(rng, adjust=False, digits=(2_500, 2_800)),
    ]


_ROUND = {"census": _census_round, "density": _density_round, "construct": _construct_round}


def make_jobs(workload: str, seed: int, rounds: int = ROUNDS) -> list[Job]:
    """The job list of a workload: the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    jobs: list[Job] = []
    for i in range(rounds):
        jobs.extend(_ROUND[workload](rng, i))
    return jobs
