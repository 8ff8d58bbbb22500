"""Upper bounds on primitive-prime counts, brute-force counting, and
Galois-maximality certificates.

The count of primitive prime divisors of the n-th orbit numerator a_n is at
most log2|a_n|, and |a_n| admits piecewise height bounds depending on where c
sits relative to -2, -2^(1/(d-1)), 0 and 1.  Interval membership is decided by
exact integer comparison, never floating point.

A maximality certificate collects, for each iterate n <= m, a witness prime
whose exact power in a_n is coprime to d (and which does not divide d); such
witnesses force the n-th iterated Galois layer to be as large as possible.
Witness valuations are always computed with modular orbits, so certificates
scale to iterates whose exact values would have billions of digits.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Iterator
from itertools import chain, count, islice
from math import gcd, isqrt
from typing import NamedTuple

from .arith import (
    _DEFAULT_PRIME_SCAN_BUDGET,
    _DEFAULT_RHO_BUDGET,
    _DEFAULT_TRIAL_LIMIT,
    _TRIAL_PRIME_COUNT,
    _guard_power,
    _record,
    _trial_divide,
    factorize,
    is_prime,
)
from .errors import SizeGuardError, ZeroIterateError
from .orbit import (
    RationalParam,
    _first_zero,
    classify_integer_param,
    exact_iterate,
    is_primitive_divisor,
)

_FACTOR_DIGIT_GUARD = 100_000
_FLOAT_MAX = int(sys.float_info.max)


def height(c) -> int:
    """max(|a|, b) for c = a/b in lowest terms."""
    param = RationalParam.of(c)
    return max(abs(param.a), param.b)


def _log2_abs(x: int) -> float:
    if x == 0:
        raise ValueError("log2 of zero")
    x = abs(x)
    if x.bit_length() <= 900:
        return math.log2(x)
    head = x >> (x.bit_length() - 64)
    return (x.bit_length() - 64) + math.log2(head)


def _float_bound(d: int, n: int, bound_at: Callable[[int], float]) -> float:
    """bound_at(d^(n-1)), refused (SizeGuardError) when d^(n-1), judged by
    its bit length first, or the bound passes the float range."""
    message = f"upper bound at scale {d}^{n - 1} exceeds the float range"
    bound = bound_at(_guard_power(d, n - 1, _FLOAT_MAX, message))
    if not math.isfinite(bound):
        raise SizeGuardError(message, len(str(_FLOAT_MAX)))
    return bound


def rho_upper_bound(d: int, n: int, c) -> float:
    """Piecewise upper bound on the number of primitive prime divisors of a_n.

    Requires an infinite critical orbit; odd-degree negative parameters reduce
    to their positive mirror (the orbit values only change sign) before the
    case dispatch.  A bound beyond the float range is refused.
    """
    param = RationalParam.of(c)
    if d < 2 or n < 1:
        raise ValueError("need d >= 2 and n >= 1")
    if param.is_integer:
        _check_infinite_orbit(d, param.a)
    return _float_bound(d, n, lambda scale: _piecewise_bound(d, scale, param.a, param.b))


def _piecewise_bound(d: int, scale: int, a: int, b: int) -> float:
    """rho_upper_bound's cases for c = a/b, at scale = d^(n-1)."""
    if d % 2 == 1 and a < 0:
        a = -a
    log_a1 = _log2_abs(a)
    log_b = _log2_abs(b) if b > 1 else 0.0
    if d % 2 == 0:
        if a <= -2 * b:
            return scale * log_a1
        if a < 0 and a ** (d - 1) < -2 * b ** (d - 1):
            return scale * (3 + log_b) - 1
        if a < 0:
            return (scale - 1) * log_b + log_a1
    # a > 0 here: c = 0 is critically finite, and a < 0 returned or was mirrored
    if a < b:
        return (scale - 1) * (1 / (d - 1) + log_b) + log_a1
    return scale * (1 / (d - 1) + log_a1) - 1 / (d - 1)


def _check_infinite_orbit(d: int, c: int) -> None:
    kind = classify_integer_param(d, c)
    if kind.kind == "PCF-integer":
        raise ValueError(f"infinite-orbit precondition fails: {kind.reason} is critically finite")


def rho_upper_bound_general(d: int, n: int, c) -> float:
    """The coarse bound valid for every parameter with infinite critical
    orbit; one beyond the float range is refused."""
    param = RationalParam.of(c)
    if d < 2 or n < 1:
        raise ValueError("need d >= 2 and n >= 1")
    log_h, log_a = _log2_abs(height(param)), _log2_abs(param.a)
    return _float_bound(d, n, lambda scale: scale * (3 + log_h) + log_a)


def count_primitive_primes(
    d: int,
    c,
    n: int,
    trial_limit: int = _DEFAULT_TRIAL_LIMIT,
    rho_iterations: int = _DEFAULT_RHO_BUDGET,
) -> tuple[int, bool]:
    """Count primitive prime divisors of a_n by factoring it.

    Returns (count, complete); with an incomplete factorization the count is a
    lower bound over the primes actually found.
    """
    if rho_iterations < 0:
        raise ValueError("rho budget must be >= 0")
    param = RationalParam.of(c)
    a_n, _ = exact_iterate(d, param, n)
    if a_n == 0:
        raise ZeroIterateError(f"f^{n}(0) = 0 for c = {param}")
    if abs(a_n) == 1:
        return 0, True
    fact = factorize(abs(a_n), trial_limit=trial_limit, rho_iterations=rho_iterations)
    count = 0
    for p in fact.primes():
        primitive, _ = is_primitive_divisor(d, param, n, p)
        if primitive:
            count += 1
    return count, fact.complete


def euler_phi(n: int) -> int:
    fact = factorize(n) if n > 1 else None
    out = 1
    if fact is None:
        return 1
    if not fact.complete:
        raise ValueError(f"cannot compute the totient of {n}: incomplete factorization")
    for p, e in fact.factors:
        out *= p ** (e - 1) * (p - 1)
    return out


class CertificateEntry(NamedTuple):
    """Witness prime for one iterate: valid iff primitive, nu coprime to d,
    and p does not divide d."""

    n: int
    p: int
    valuation: int
    primitive: bool
    valuation_coprime_to_degree: bool
    prime_coprime_to_degree: bool

    @property
    def valid(self) -> bool:
        return (
            self.primitive
            and self.valuation_coprime_to_degree
            and self.prime_coprime_to_degree
        )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "p": str(self.p),
            "valuation": self.valuation,
            "checks": {
                "primitive": self.primitive,
                "valuation_coprime_to_degree": self.valuation_coprime_to_degree,
                "prime_coprime_to_degree": self.prime_coprime_to_degree,
            },
            "valid": self.valid,
        }


class MaximalityCertificate(
    _record("MaximalityCertificate", "d c m entries missing neg_c_is_square")
):
    """Witnesses for iterates 1..m; ``missing`` lists the iterates with no
    witness found within budget, and ``neg_c_is_square`` is the d = 2
    irreducibility note, None for d > 2."""

    __slots__ = ()

    def __new__(cls, d: int, c: int, m: int, entries: tuple[CertificateEntry, ...],
                missing: tuple[int, ...], neg_c_is_square: bool | None):
        if d < 2:
            raise ValueError("degree must be >= 2")
        return super().__new__(cls, d, c, m, entries, missing, neg_c_is_square)

    @property
    def complete(self) -> bool:
        """Nothing missing, and one valid entry for each iterate 1..m."""
        return (
            not self.missing
            and self.m >= 1
            and sorted(e.n for e in self.entries) == list(range(1, self.m + 1))
            and all(e.valid for e in self.entries)
        )

    @property
    def claimed_order_exponent(self) -> int | None:
        """Exponent of the Galois order phi(d) * d^((d^m - 1)/(d - 1)) of f^m.

        The splitting field is a tower over Q(zeta_d) whose k-th layer is a
        Kummer extension of degree d^(d^(k-1)); the exponents sum to
        1 + d + ... + d^(m-1).  None unless the certificate is complete."""
        return (self.d**self.m - 1) // (self.d - 1) if self.complete else None

    def to_json_dict(self) -> dict:
        order = None
        exponent = self.claimed_order_exponent
        if exponent is not None:
            order = {
                "totient_factor": euler_phi(self.d),
                "base": self.d,
                "exponent": str(exponent),
            }
            if exponent * math.log10(self.d) < 60:
                order["decimal"] = str(euler_phi(self.d) * self.d**exponent)
        return {
            "d": self.d,
            "c": str(self.c),
            "m": self.m,
            "entries": [e.to_json_dict() for e in self.entries],
            "missing": list(self.missing),
            "neg_c_is_square": self.neg_c_is_square,
            "complete": self.complete,
            "claimed_order": order,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MaximalityCertificate":
        try:
            entries = tuple(
                CertificateEntry(
                    n=int(e["n"]),
                    p=int(e["p"]),
                    valuation=int(e["valuation"]),
                    primitive=bool(e["checks"]["primitive"]),
                    valuation_coprime_to_degree=bool(
                        e["checks"]["valuation_coprime_to_degree"]
                    ),
                    prime_coprime_to_degree=bool(
                        e["checks"]["prime_coprime_to_degree"]
                    ),
                )
                for e in doc["entries"]
            )
            return cls(
                d=int(doc["d"]),
                c=int(doc["c"]),
                m=int(doc["m"]),
                entries=entries,
                missing=tuple(int(n) for n in doc.get("missing", [])),
                neg_c_is_square=doc.get("neg_c_is_square"),
            )
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed certificate: {exc}") from exc


def _entry_for(d: int, c: int, n: int, p: int) -> CertificateEntry:
    primitive, valuation = is_primitive_divisor(d, c, n, p)
    return CertificateEntry(
        n=n,
        p=p,
        valuation=valuation,
        primitive=primitive,
        valuation_coprime_to_degree=valuation > 0 and gcd(valuation, d) == 1,
        prime_coprime_to_degree=d % p != 0,
    )


def _prime_factors(x: int) -> Iterator[int]:
    """The primes of x >= 1 in ascending order: those up to 10^6 by trial
    division, then, only when the caller asks for more, those rho finds in
    the rest, which all exceed them.  Rho only below ~120 digits (it cannot
    split numbers that size anyway, and each iteration costs a full-width
    modular square)."""
    counts, rest = _trial_divide(x, _DEFAULT_TRIAL_LIMIT)
    yield from counts
    if rest > 1:
        rho = _DEFAULT_RHO_BUDGET if x < 10**120 else 0
        yield from factorize(rest, trial_limit=1, rho_iterations=rho).primes()


def maximality_certificate(
    d: int,
    c: int,
    m: int,
    witnesses: dict[int, int] | None = None,
    scan_budget: int = _DEFAULT_PRIME_SCAN_BUDGET,
) -> MaximalityCertificate:
    """Build a per-iterate witness certificate for iterates 1..m.

    ``witnesses`` pins candidate primes per iterate (verification mode); any
    other iterate tries the primes of a_n when feasible, then shares one
    ascending scan of the first ``scan_budget`` primes.  Gaps are recorded,
    not raised; a critically finite c, which has none, is refused.
    """
    if m < 1 or scan_budget < 0:
        raise ValueError("need m >= 1 and a scan budget >= 0")
    _check_infinite_orbit(d, c)
    entries: dict[int, CertificateEntry] = {}
    beyond_guard = False
    for n in range(1, m + 1):
        pinned = witnesses.get(n) if witnesses else None
        if pinned is not None:
            entries[n] = _entry_for(d, c, n, pinned)
            continue
        try:
            a_n, _ = exact_iterate(d, c, n, digit_guard=_FACTOR_DIGIT_GUARD)
        except SizeGuardError:
            beyond_guard = True
            continue
        tried = (_entry_for(d, c, n, p) for p in _prime_factors(abs(a_n)) if d % p)
        if (entry := next((e for e in tried if e.valid), None)) is not None:
            entries[n] = entry
    # a witness p for n is primitive, so n is the rank r(p), the first i with
    # p | a_i.  Trial division has tried the primes up to 10^6 dividing each
    # computed a_n, so a scan no further helps only beyond the digit guard
    wanted = set(range(1, m + 1)) - entries.keys()
    if not beyond_guard and scan_budget <= _TRIAL_PRIME_COUNT:
        scan_budget = 0
    for p in islice(chain((2,), filter(is_prime, count(3, 2))), scan_budget):
        if not wanted:
            break
        rank = _first_zero(d, c % p, p, max(wanted)) if d % p else 0
        if rank in wanted and (entry := _entry_for(d, c, rank, p)).valid:
            entries[rank] = entry
            wanted.remove(rank)
    return MaximalityCertificate(
        d=d,
        c=c,
        m=m,
        entries=tuple(entries[n] for n in sorted(entries)),
        missing=tuple(sorted(wanted)),
        neg_c_is_square=_neg_c_is_square(d, c),
    )


def _neg_c_is_square(d: int, c: int) -> bool | None:
    if d != 2:
        return None
    return -c >= 0 and isqrt(-c) ** 2 == -c


def verify_certificate(cert: MaximalityCertificate) -> bool:
    """Recompute every entry and the square note from scratch.

    True iff the certificate is complete (its entries cover iterates 1..m,
    each exactly once, with nothing missing), the square note is right, and
    every entry reproduces and is valid.
    """
    if not cert.complete or cert.neg_c_is_square != _neg_c_is_square(cert.d, cert.c):
        return False
    for entry in cert.entries:
        fresh = _entry_for(cert.d, cert.c, entry.n, entry.p)
        if fresh != entry or not fresh.valid:
            return False
    return True
