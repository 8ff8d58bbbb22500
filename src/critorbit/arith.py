"""Integer arithmetic primitives: valuations, CRT, Moebius, primality,
bounded factorization, and residues of Z/p^t.

Everything here is exact arbitrary-precision arithmetic on Python ints.
Primality is Miller-Rabin.  Below psi_k, the least strong pseudoprime to the
first k prime bases, the witnesses are the first k primes (2, 3, 5, ..., 41),
so the test is deterministic below psi_13 ~ 3.3e24 (which covers 2^64) and
needs only 2 rounds below 1,373,653.  Above psi_13 it draws 64 random
witnesses, an error probability below 2^-128.  The random witnesses
come from a module RNG with a fixed default seed so results are reproducible;
reseed with :func:`set_random_seed`.
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import compress, count
from math import gcd, isqrt, log10

from .errors import SizeGuardError

_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BASES = _TRIAL_PRIMES + (41,)
# (psi_k, k): psi_k is the least strong pseudoprime to the first k prime bases
# (Jaeschke, Math. Comp. 61, 1993; Jiang & Deng, Math. Comp. 83, 2014), so
# below psi_k those k bases decide primality.  psi_7 = psi_8 and
# psi_9 = psi_10 = psi_11, so each bound is listed once, with its smallest k.
_MR_PSI = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)
_MR_RANDOM_ROUNDS = 64  # error probability <= 4^-64 = 2^-128

_SIEVE_LIMIT = 10**7  # sieving beyond this is out of scope
_DEFAULT_TRIAL_LIMIT = 10**6  # factoring's trial division bound
_TRIAL_PRIME_COUNT = 78_498  # pi(_DEFAULT_TRIAL_LIMIT): the primes it tries
_DEFAULT_RHO_BUDGET = 200_000  # Brent rho iterations per factoring
# defaults of two more layers, named here so that the CLI sets its flags'
# defaults without loading those layers
_DEFAULT_PRIME_SCAN_BUDGET = 100_000  # bounds: primes a certificate's scan tests
_DEFAULT_VALUATION_CAP = 1 << 16  # orbit: the largest valuation computed exactly


def set_random_seed(seed: int | None = None) -> None:
    """Reseed the RNG behind probabilistic primality and Pollard rho; None
    restores the seed that every process starts at."""
    _rng.seed(0x5EED if seed is None else seed)


_rng = random.Random()
set_random_seed()


def _miller_rabin_round(n: int, a: int, d: int, r: int) -> bool:
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test; deterministic for n below psi_13 ~ 3.3e24."""
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for bound, k in _MR_PSI:
        if n < bound:
            witnesses = _MR_BASES[:k]
            break
    else:
        witnesses = tuple(_rng.randrange(2, n - 1) for _ in range(_MR_RANDOM_ROUNDS))
    return all(_miller_rabin_round(n, a, d, r) for a in witnesses)


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n: 2, or the first odd prime."""
    return 2 if n < 2 else next(filter(is_prime, count((n + 1) | 1, 2)))


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit by a sieve of Eratosthenes (limit <= 10^7)."""
    if limit > _SIEVE_LIMIT:
        raise ValueError(f"sieve limit {limit} exceeds supported bound {_SIEVE_LIMIT}")
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return list(compress(range(limit + 1), flags))


def val_p(x: int, p: int) -> int:
    """The p-adic valuation of a nonzero integer: largest e with p^e | x."""
    if x == 0:
        raise ValueError("infinite valuation: val_p(0) is undefined")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    e, step = 0, 1  # step doubles while p^step divides, else halves: O(log(e)^2)
    while step:
        quotient, rest = divmod(x, p**step)
        if rest:
            step //= 2
        else:
            x, e, step = quotient, e + step, 2 * step
    return e


def crt(pairs: list[tuple[int, int]]) -> int:
    """Combine congruences x = v_i (mod m_i) with pairwise coprime moduli.

    Returns the least nonnegative solution in [0, prod m_i).
    """
    if not pairs:
        raise ValueError("crt requires at least one congruence")
    value, modulus = 0, 1
    for v, m in pairs:
        if m <= 1:
            raise ValueError(f"modulus {m} must exceed 1")
        if gcd(modulus, m) != 1:
            raise ValueError("moduli are not pairwise coprime")
        # x = value + modulus * t with t chosen so x = v (mod m)
        t = (v - value) * pow(modulus, -1, m) % m
        value += modulus * t
        modulus *= m
    return value % modulus


def _guard_power(base: int, exponent: int, limit: int, message: str) -> int:
    """base^exponent for base >= 2, refused (SizeGuardError) above limit: it is
    at least 2^(exponent * (bits(base) - 1)), so bit lengths refuse it unbuilt
    where that exponent reaches bits(limit); the rest have under twice its bits."""
    bits = exponent * (base.bit_length() - 1)
    if bits < limit.bit_length() and (power := base**exponent) <= limit:
        return power
    raise SizeGuardError(message, int(exponent * log10(base)) + 1)


def moebius(n: int) -> int:
    """The Moebius function mu(n)."""
    if n < 1:
        raise ValueError("moebius is defined for positive integers")
    if n == 1:
        return 1
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def _record(name: str, fields: str) -> type:
    """A namedtuple base whose ``_make``, and so ``_replace``, builds through
    the subclass's ``__new__``, which checks the fields."""
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


class Factorization(_record("Factorization", "factors cofactor complete")):
    """Possibly-partial factorization: prod p^e times cofactor equals the input.

    ``complete`` is True exactly when the cofactor is 1.  The primes are
    strictly increasing and each passes a primality check.
    """

    __slots__ = ()

    def __new__(cls, factors: tuple[tuple[int, int], ...], cofactor: int, complete: bool):
        primes = [p for p, _ in factors]
        if primes != sorted(set(primes)):
            raise ValueError("factor primes must be strictly increasing")
        if any(not is_prime(p) for p in primes):
            raise ValueError("every listed factor must be prime")
        if any(e < 1 for _, e in factors):
            raise ValueError("factor exponents must be positive")
        if complete != (cofactor == 1):
            raise ValueError("complete flag inconsistent with cofactor")
        return super().__new__(cls, factors, cofactor, complete)

    @property
    def value(self) -> int:
        out = self.cofactor
        for p, e in self.factors:
            out *= p**e
        return out

    def primes(self) -> list[int]:
        return [p for p, _ in self.factors]


def _brent_rho(n: int, max_iterations: int) -> int | None:
    """Brent's variant of Pollard rho on odd n; a nontrivial factor or None."""
    spent = 0
    while spent < max_iterations:
        y = _rng.randrange(1, n)
        c = _rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1 and spent < max_iterations:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            spent += r
            r <<= 1
        if g == n:
            # backtrack step by step from the last saved point
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    return None


def _trial_divide(x: int, trial_limit: int) -> tuple[dict[int, int], int]:
    """Divide out 2, 3, 5 and every divisor coprime to 30 up to
    min(trial_limit, isqrt(rest)): the prime counts, ascending, and the rest.

    The rest is 1, a prime, or has no prime factor up to trial_limit.
    """
    counts: dict[int, int] = {}
    rest = x
    for p in (2, 3, 5):
        while rest % p == 0:
            counts[p] = counts.get(p, 0) + 1
            rest //= p
    bound = min(trial_limit, isqrt(rest))
    divisors = [
        d
        for first in (7, 11, 13, 17, 19, 23, 29, 31)
        for d in range(first, bound + 1, 30)
        if rest % d == 0
    ]
    # ascending, so every prime factor of a composite divisor (such as
    # 247 = 13 * 19, whose class mod 30 comes first) is out before it
    for d in sorted(divisors):
        e = 0
        while rest % d == 0:
            rest //= d
            e += 1
        if e:
            counts[d] = e
    return counts, rest


def factorize(
    x: int, trial_limit: int = _DEFAULT_TRIAL_LIMIT, rho_iterations: int = _DEFAULT_RHO_BUDGET
) -> Factorization:
    """Factor x > 1 by trial division then Brent rho with a bounded budget.

    Budget exhaustion is a normal outcome: the unfactored part is returned as
    a composite cofactor with ``complete=False``.
    """
    if x <= 1:
        raise ValueError("factorize requires an integer > 1")
    if rho_iterations < 0:
        raise ValueError("rho budget must be >= 0")
    counts, rest = _trial_divide(x, trial_limit)
    cofactor = 1
    pending = [rest] if rest > 1 else []
    while pending:
        m = pending.pop()  # always > 1
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        root = isqrt(m)
        if root * root == m:
            pending.extend((root, root))
            continue
        f = _brent_rho(m, rho_iterations)
        if f is None:
            cofactor *= m
        else:
            pending.extend((f, m // f))
    return Factorization(
        factors=tuple(sorted(counts.items())),
        cofactor=cofactor,
        complete=(cofactor == 1),
    )


class Residue(_record("Residue", "p t value")):
    """An element of Z/p^t with the prime and exponent carried explicitly.

    Values are stored fully reduced into [0, p^t); arithmetic reduces eagerly.
    """

    __slots__ = ()

    def __new__(cls, p: int, t: int, value: int):
        if t < 1:
            raise ValueError("exponent t must be >= 1")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if not 0 <= value < p**t:
            raise ValueError("value out of range [0, p^t)")
        return super().__new__(cls, p, t, value)

    @classmethod
    def reduce(cls, x: int, p: int, t: int) -> "Residue":
        cls(p, t, 0)  # checks p and t first: x % p^t would divide by p = 0
        return cls(p, t, x % p**t)

    @property
    def modulus(self) -> int:
        return self.p**self.t

    def _check_ring(self, other: "Residue") -> None:
        if (self.p, self.t) != (other.p, other.t):
            raise ValueError("residues live in different rings")

    def __add__(self, other: "Residue") -> "Residue":
        self._check_ring(other)
        return Residue(self.p, self.t, (self.value + other.value) % self.modulus)

    def __sub__(self, other: "Residue") -> "Residue":
        self._check_ring(other)
        return Residue(self.p, self.t, (self.value - other.value) % self.modulus)

    def __mul__(self, other: "Residue") -> "Residue":
        self._check_ring(other)
        return Residue(self.p, self.t, self.value * other.value % self.modulus)

    def __rmul__(self, other):  # not the tuple's repetition
        raise TypeError(f"unsupported operand types for *: {type(other).__name__} and Residue")

    def pow(self, e: int) -> "Residue":
        return Residue(self.p, self.t, pow(self.value, e, self.modulus))

