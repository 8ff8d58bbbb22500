"""Density of primes admitting a parameter with critical period exactly n.

Such primes are precisely those where the period-n Gleason polynomial has a
root, so their density equals the fixed-point proportion of the polynomial's
Galois group acting on its roots.  Under a full symmetric group that
proportion is the derangement-complement sum, which tends to 1 - 1/e; a crude
unconditional lower bound is 1/D!.  The empirical side scans primes up to a
limit and counts root existence, skipping (and reporting) the finitely many
primes dividing d or the discriminant.

The Gleason polynomial G is monic, so it has a root mod p exactly when p
divides G(c) for some c in [0, p).  The scan answers every prime below
``_BATCH_LIMIT`` = 2^14 at once: the product of G(c) over c below the largest
of them, reduced mod their product Q up a product tree, then reduced down a
remainder tree to each prime.  For odd d, f^t(-c) = -f^t(c), so G is an even
or an odd polynomial and its roots mod p come in pairs c, p - c: the values
at c up to half the largest prime suffice.  Each level of the tree reduces
mod Q by Barrett's method (two multiplications by a precomputed reciprocal);
its cost still grows like the square of the largest prime, while the
per-prime ``has_root_mod_p`` (gcd with x^p - x) grows about linearly, so
larger primes take that test, and only they go to worker processes.  Where
G(c) = 0 exactly (n = 1, c = 0) the product is 0 and every prime has a root.

All formula paths are exact rationals; floats appear only in display code.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from fractions import Fraction
from functools import partial
from math import factorial, prod
from typing import NamedTuple

from .arith import primes_up_to
from .gleason import (
    IntPoly,
    gleason_degree,
    gleason_discriminant,
    gleason_poly,
    has_root_mod_p,
)

CONDITIONAL_NOTE = "valid only under symmetric Galois group"
_BATCH_LIMIT = 2**14  # primes below this share one product of G(c)


def fpp_symmetric(degree: int) -> Fraction:
    """Fraction of S_D permutations fixing at least one point: (D! - !D) / D!,
    with the derangement count !k = k !(k-1) + (-1)^k and !0 = 1."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    derangements = 1
    for k in range(1, degree + 1):
        derangements = k * derangements + (-1) ** k
    return 1 - Fraction(derangements, factorial(degree))


def density_lower_bound(d: int, n: int) -> Fraction:
    """The unconditional bound 1 / D_{d,n}!."""
    return Fraction(1, factorial(gleason_degree(d, n)))


class LimitErrorBound(NamedTuple):
    bound: Fraction  # 1/(D+1)!
    coarse: Fraction  # 1/(2^(n-2))!


def limit_error_bound(n: int) -> LimitErrorBound:
    """Distance bounds between the degree-2 density and its limit 1 - 1/e."""
    if n < 2:
        raise ValueError("the limit bound is stated for n >= 2")
    degree = gleason_degree(2, n)
    return LimitErrorBound(
        bound=Fraction(1, factorial(degree + 1)),
        coarse=Fraction(1, factorial(2 ** (n - 2))),
    )


class EmpiricalDensity(NamedTuple):
    limit: int
    hits: int
    total: int
    fraction: Fraction
    skipped: tuple[int, ...]  # primes dividing d or the discriminant


def _dividing_primes(x: int, primes: list[int]) -> set[int]:
    """The primes among the distinct ``primes`` that divide x, by a remainder
    tree: x is reduced mod each node of their product tree, root first."""
    levels = [primes]
    while len(levels[-1]) > 1:
        row = levels[-1]
        levels.append([prod(row[i : i + 2]) for i in range(0, len(row), 2)])
    rems = [x]
    for row in reversed(levels):
        rems = [rems[i // 2] % m for i, m in enumerate(row)]
    return {p for p, r in zip(primes, rems) if r == 0}


def _barrett(q: int) -> Callable[[int], int]:
    """x -> x % q for 0 <= x < q^2 (Barrett, CRYPTO '86): with s = bits(q)
    and mu = 4^s // q, the quotient estimate from the top bits of x times mu
    falls short of x // q by at most 2, provided x < 4^s.  For a larger x it
    can fall short by about x / 4^s, and the correction loop subtracts q that
    many times."""
    s = q.bit_length()
    mu = (1 << 2 * s) // q

    def reduce(x: int) -> int:
        r = x - (((x >> (s - 1)) * mu) >> (s + 1)) * q
        while r >= q:
            r -= q
        return r

    return reduce


def _rooted_primes(poly: IntPoly, primes: list[int]) -> set[int]:
    """The primes (ascending) at which the monic poly has a root: those
    dividing the product of poly(c) over c below the largest of them, reduced
    mod their product Q at every level of a balanced product tree.

    When poly is even or odd (every G_{d,n} with d odd), c and -c are roots
    together, so c up to half the largest prime suffice; that range holds
    c = 1 for p = 2.  Each leaf multiplies 8 values and reduces with %, so
    every node is below Q and every pair product below Q^2 < 4^bits(Q), the
    range of the Barrett reduction above the leaves."""
    q = prod(primes)
    reduce = _barrett(q)
    coeffs = poly.coeffs
    symmetric = not any(coeffs[::2]) or not any(coeffs[1::2])
    top = primes[-1] // 2 + 1 if symmetric else primes[-1]
    values = [poly.evaluate(c) for c in range(top)]
    values = [prod(values[i : i + 8]) % q for i in range(0, len(values), 8)]
    while len(values) > 1:
        values = [reduce(prod(values[i : i + 2])) for i in range(0, len(values), 2)]
    return _dividing_primes(values[0], primes)


def _scan(d: int, n: int, primes: list[int], jobs: int = 1) -> list[tuple[int, bool | None]]:
    """(p, has_root) per prime; None where p divides d or the discriminant.

    G_{d,n} is monic of degree >= 1, so ``_rooted_primes`` answers the primes
    below ``_BATCH_LIMIT`` exactly, from one product of G(c); its cost grows
    like the square of the largest prime, so each larger prime runs
    ``has_root_mod_p``: in min(jobs, usable CPUs) workers, given 4 per worker.
    """
    poly = gleason_poly(d, n)
    disc = gleason_discriminant(d, n)
    bad = {p for p in primes if d % p == 0 or disc % p == 0}
    small = [p for p in primes if p < _BATCH_LIMIT]
    rooted = _rooted_primes(poly, small) if small else set()
    large = [p for p in primes if p >= _BATCH_LIMIT and p not in bad]
    workers = min(jobs, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count() or 1)
    test = partial(has_root_mod_p, poly)
    hits = map(test, large)
    if workers > 1 and len(large) >= 4 * workers:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            hits = list(pool.map(test, large, chunksize=len(large) // (4 * workers)))
    rooted.update(p for p, hit in zip(large, hits) if hit)
    return [(p, None if p in bad else p in rooted) for p in primes]


def _primes(limit: int) -> list[int]:
    if limit < 2:
        raise ValueError("limit must be >= 2")
    return primes_up_to(limit)


def empirical_density(d: int, n: int, limit: int, jobs: int = 1) -> EmpiricalDensity:
    """Fraction of primes p <= limit where the period-n Gleason polynomial has
    an F_p root.  Primes dividing d or the discriminant are excluded from both
    numerator and denominator and reported separately.

    ``jobs`` > 1 runs the root tests of the primes from ``_BATCH_LIMIT`` up in
    worker processes; the result does not depend on it.
    """
    if jobs < 1:
        raise ValueError("need jobs >= 1 worker processes")
    rows = _scan(d, n, _primes(limit), jobs)
    skipped = tuple(p for p, hit in rows if hit is None)
    hits = sum(1 for _, hit in rows if hit)
    total = len(rows) - len(skipped)
    fraction = Fraction(hits, total) if total else Fraction(0)
    return EmpiricalDensity(limit, hits, total, fraction, skipped)


def density_scan_rows(d: int, n: int, limit: int) -> list[tuple[int, bool]]:
    """Per-prime (p, has_root) rows for external plotting; same skip rule."""
    return [(p, hit) for p, hit in _scan(d, n, _primes(limit)) if hit is not None]


class DensityReport(NamedTuple):
    d: int
    n: int
    degree: int
    conditional_density: Fraction
    conditional_note: str
    lower_bound: Fraction
    empirical: EmpiricalDensity
    error_bound_vs_limit: Fraction | None

    def to_json_dict(self) -> dict:
        emp = self.empirical
        return {
            "d": self.d,
            "n": self.n,
            "degree": self.degree,
            "conditional_density": str(self.conditional_density),
            "conditional_density_float": float(self.conditional_density),
            "conditional_note": self.conditional_note,
            "lower_bound": str(self.lower_bound),
            "empirical": {
                "limit": emp.limit,
                "hits": emp.hits,
                "total": emp.total,
                "fraction": str(emp.fraction),
                "fraction_float": float(emp.fraction),
                "skipped_primes": [str(p) for p in emp.skipped],
            },
            "error_bound_vs_limit": (
                None if self.error_bound_vs_limit is None
                else str(self.error_bound_vs_limit)
            ),
        }


def density_report(d: int, n: int, limit: int, jobs: int = 1) -> DensityReport:
    """The scan comes first: it checks jobs and limit, then builds G, so
    f^n(0)'s degree guard refuses a G too large to build before the exact
    degree d^(n-1) and D! are computed."""
    if d < 2 or n < 1:  # a bad d or n is reported before a bad jobs or limit
        raise ValueError("need d >= 2 and n >= 1")
    empirical = empirical_density(d, n, limit, jobs=jobs)
    degree = gleason_degree(d, n)
    return DensityReport(
        d=d,
        n=n,
        degree=degree,
        conditional_density=fpp_symmetric(degree),
        conditional_note=CONDITIONAL_NOTE,
        lower_bound=density_lower_bound(d, n),
        empirical=empirical,
        error_bound_vs_limit=(
            limit_error_bound(n).bound if d == 2 and n >= 2 else None
        ),
    )
