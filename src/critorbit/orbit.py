"""Critical-orbit computations for x^d + c over Z/p^t and exact integers.

The critical point of x^d + c is 0; its forward orbit in a finite ring is
eventually periodic, and the period type (tail, period) of that orbit is the
basic observable everything else is built on.  For rational parameters
c = a/b the iterates are a_n / b^(d^(n-1)) where the integer numerators obey

    a_1 = a,   a_{i+1} = a_i^d + a * b^(d^i - 1).

For p not dividing b, a_n = b^(d^(n-1)) * f^n(0) with b a unit mod p^t, so
the orbit of 0 under x^d + a * b^-1 in Z/p^t has the zero pattern and the
valuations of the a_n.

Over F_p (and Z/p^t at t = 1) the period type comes from one cycle detector.
For t >= 2 it is built level by level from the cycle mod p, as in Fan & Liao,
"On minimal decomposition of p-adic polynomial dynamical systems", Adv. Math.
228 (2011).  Let the orbit's cycle mod p^s have length k, and let y be the
orbit point at the cycle entry.  On the fibre y + p^s z (z in F_p) over it,
f^k acts as z -> a z + b with a = (f^k)'(y) and b = (f^k(y) - y) / p^s mod p.

- If the cycle mod p has multiplier 0 (attracting), a = 0 at every level:
  the period stays k and only the tail grows.
- Otherwise a is a unit, so the entry point stays periodic: the tail is the
  one mod p, and each level multiplies k by the period of 0 under the fibre
  map.  Once a = 1, b != 0 at a level s >= 2 (for p = 2, also
  (f^k)'(y) = 1 mod 4), the cycle grows at every higher level, and the
  period mod p^t is k p^(t-s).

No walk stores orbit points: the cost is one walk of the cycle at each level
before the growth starts, or in the attracting case one walk of the tail.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf
from typing import NamedTuple

from .arith import _DEFAULT_VALUATION_CAP, Residue, _guard_power, _record, is_prime, val_p
from .errors import SearchExhaustedError, ZeroIterateError

# the detector serves F_p and level-1 walks: it switches to Brent's constant
# memory cycle detection after this many stored points
_HASH_ORBIT_LIMIT = 10**6
_DEFAULT_DIGIT_GUARD = 2_000_000
# the first-zero walk mod p gives up after this many steps with neither a
# zero nor a closed cycle (2 s at d = 2 on a 2-vCPU host); a typical orbit
# closes its cycle in some sqrt(p) steps, so p below 10^12 stays far below it
_RANK_WALK_LIMIT = 10**7


class PeriodType(_record("PeriodType", "tail period")):
    """Tail length and exact period of a preperiodic orbit; tail 0 = periodic."""

    __slots__ = ()

    def __new__(cls, tail: int, period: int):
        if tail < 0 or period < 1:
            raise ValueError("need tail >= 0 and period >= 1")
        return super().__new__(cls, tail, period)


class RationalParam(_record("RationalParam", "a b")):
    """A parameter c = a/b in lowest terms with b >= 1."""

    __slots__ = ()

    def __new__(cls, a: int, b: int = 1):
        if b < 1:
            raise ValueError("denominator must be positive")
        if gcd(a, b) != 1:
            raise ValueError("a/b must be in lowest terms")
        return super().__new__(cls, a, b)

    @classmethod
    def from_string(cls, text: str) -> "RationalParam":
        try:
            frac = Fraction(text.strip())
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {text!r}") from exc
        return cls(frac.numerator, frac.denominator)

    @classmethod
    def of(cls, c) -> "RationalParam":
        if isinstance(c, RationalParam):
            return c
        if isinstance(c, int):
            return cls(c, 1)
        if isinstance(c, Fraction):
            return cls(c.numerator, c.denominator)
        raise TypeError(f"cannot interpret {c!r} as a rational parameter")

    @property
    def is_integer(self) -> bool:
        return self.b == 1

    def as_fraction(self) -> Fraction:
        return Fraction(self.a, self.b)

    def __str__(self) -> str:
        return str(self.a) if self.b == 1 else f"{self.a}/{self.b}"


class OrbitClassification(NamedTuple):
    """Integer parameters split into the three finite-orbit families and the rest."""

    kind: str  # "PCF-integer" | "presumed-wandering"
    reason: str  # "c=0" | "c=-1 & d even" | "c=-2 & d=2" | "none"


def classify_integer_param(d: int, c: int) -> OrbitClassification:
    """Classify an integer parameter: finite critical orbit or (presumed) infinite."""
    if c == 0:
        return OrbitClassification("PCF-integer", "c=0")
    if c == -1 and d % 2 == 0:
        return OrbitClassification("PCF-integer", "c=-1 & d even")
    if c == -2 and d == 2:
        return OrbitClassification("PCF-integer", "c=-2 & d=2")
    return OrbitClassification("presumed-wandering", "none")


def _step(x: int, d: int, c: int, modulus: int) -> int:
    if d == 2:
        return (x * x + c) % modulus
    return (pow(x, d, modulus) + c) % modulus


def _orbit_period_ints(
    d: int, c: int, modulus: int, start: int = 0
) -> tuple[int, int, int]:
    """Minimal (tail, period) of ``start`` under x -> x^d + c in Z/modulus, plus
    the first point on the cycle.  Hash-map detection while the visited count
    is small; Brent's algorithm (constant memory) beyond."""
    seen: dict[int, int] = {}
    x = start % modulus
    i = 0
    while x not in seen:
        if i >= _HASH_ORBIT_LIMIT:
            return _orbit_period_brent(d, c, modulus, start)
        seen[x] = i
        # d = 2 stepped inline: this loop is the census's inner loop
        x = (x * x + c) % modulus if d == 2 else (pow(x, d, modulus) + c) % modulus
        i += 1
    # the first revisited value is the cycle entry f^tail(start)
    tail = seen[x]
    return tail, i - tail, x


def _orbit_period_brent(
    d: int, c: int, modulus: int, start: int = 0
) -> tuple[int, int, int]:
    x0 = start % modulus
    power = period = 1
    tortoise = x0
    hare = _step(x0, d, c, modulus)
    while tortoise != hare:
        if power == period:
            tortoise = hare
            power *= 2
            period = 0
        hare = _step(hare, d, c, modulus)
        period += 1
    return _cycle_entry(d, c, modulus, period, x0)


def _cycle_entry(d: int, c: int, modulus: int, k: int, start: int) -> tuple[int, int, int]:
    """(tail, k, cycle entry) of ``start`` whose cycle has length k: the entry
    is the first x_i with x_i = x_(i + k), found by a lockstep walk."""
    x = start % modulus
    lead = _critical_walk(d, c, modulus, k, x)
    tail = 0
    while x != lead:
        x, lead = _step(x, d, c, modulus), _step(lead, d, c, modulus)
        tail += 1
    return tail, k, x


def _critical_walk(d: int, c: int, modulus: int, n: int, start: int = 0) -> int:
    """f^n(start) in Z/modulus, in n steps and constant memory."""
    x = start % modulus
    for _ in range(n):
        x = (pow(x, d, modulus) + c) % modulus
    return x


def _first_zero(d: int, c: int, p: int, limit: int) -> int:
    """The first i <= limit with f^i(0) = 0 mod p, or 0 if there is none.

    0 returns at its period, at most p, so the walk takes at most min(limit, p)
    steps; it also stops when the orbit meets Brent's tortoise (BIT 20, 1980),
    parked at steps 1, 2, 4, ...: the orbit has closed a cycle without 0.
    That takes at most about 3 (tail + period) steps, and stores no points.
    Raises SearchExhaustedError after _RANK_WALK_LIMIT steps with neither.
    """
    steps = min(limit, p)
    x = tortoise = 0
    power = 1
    for i in range(1, min(steps, _RANK_WALK_LIMIT) + 1):
        # d = 2 stepped inline: this loop is the given-n scan's inner loop
        x = (x * x + c) % p if d == 2 else (pow(x, d, p) + c) % p
        if x == 0:
            return i
        if x == tortoise:
            return 0
        if i == power:
            tortoise, power = x, 2 * power
    if steps > _RANK_WALK_LIMIT:
        raise SearchExhaustedError(
            f"the critical orbit mod {p} neither returns to 0 nor closes a cycle "
            f"within {_RANK_WALK_LIMIT} steps",
            _RANK_WALK_LIMIT,
        )
    return 0


def _reduced_param(param: RationalParam, modulus: int) -> int:
    """c = a/b as a * b^-1 in Z/modulus; b must be a unit there."""
    return param.a * pow(param.b, -1, modulus) % modulus


def period_type_mod(d: int, c: Residue) -> tuple[PeriodType, int]:
    """Period type of the critical orbit in Z/p^t, plus the cycle-entry value."""
    return _period_type(d, c, 0)


def point_period_type_mod(d: int, c: Residue, start: int) -> tuple[PeriodType, int]:
    """Period type of an arbitrary starting point in Z/p^t, plus the cycle entry."""
    return _period_type(d, c, start)


def _period_type(d: int, c: Residue, start: int) -> tuple[PeriodType, int]:
    # t = 1 is the census's per-parameter call: one detector walk
    if d < 2:
        raise ValueError("degree must be >= 2")
    if c.t == 1:
        tail, period, entry = _orbit_period_ints(d, c.value, c.p, start)
    else:
        tail, period, entry = _period_type_levels(d, c.value, c.p, c.t, start)
    return PeriodType(tail, period), entry


def _period_type_levels(
    d: int, c: int, p: int, t: int, start: int
) -> tuple[int, int, int]:
    """(tail, period, cycle entry) of ``start`` in Z/p^t for t >= 2, from the
    cycle mod p and one cycle walk per level (see the module docstring)."""
    modulus = p**t
    tail, k1, entry = _orbit_period_ints(d, c % p, p, start)
    lam = _multiplier(d, c, p, entry, k1)
    if lam == 0:
        # attracting: the period stays k1, and only the tail grows
        return _cycle_entry(d, c, modulus, k1, start)
    entry = _critical_walk(d, c, modulus, tail, start)
    period = k1
    for s in range(1, t):
        low, high = p**s, p ** (s + 1)
        y = entry % high
        b = (_critical_walk(d, c, high, period, y) - y) % high // low
        a = pow(lam, period // k1, p)
        if s >= 2 and a == 1 and b and (p != 2 or _multiplier(d, c, 4, y, period) == 1):
            return tail, period * p ** (t - s), entry
        period *= _fibre_period(a, b, p)
    return tail, period, entry


def _fibre_period(a: int, b: int, p: int) -> int:
    """Period of 0 under z -> a z + b over F_p, for a unit a."""
    if b == 0:
        return 1
    if a == 1:
        return p
    # z - b/(1 - a) is multiplied by a, so 0 returns after ord(a) steps
    order, x = 1, a
    while x != 1:
        x = x * a % p
        order += 1
    return order


def _multiplier(d: int, c: int, modulus: int, y: int, k: int) -> int:
    """(f^k)'(y) = prod of d * f^i(y)^(d-1) over i < k, in Z/modulus."""
    lam = pow(d, k, modulus)
    for _ in range(k):
        power = pow(y, d - 1, modulus)
        lam = lam * power % modulus
        y = (power * y + c) % modulus
    return lam


class Valuation(NamedTuple):
    """A p-adic valuation; ``exact=False`` means only "at least value" is known."""

    value: int
    exact: bool


def iterate_valuation(
    d: int, c, n: int, p: int, cap: int = _DEFAULT_VALUATION_CAP
) -> Valuation:
    """nu_p of the n-th orbit numerator a_n, from the rank r(p) of p.

    One walk mod p finds r(p) (see _first_zero).  The answer is 0 unless r(p)
    divides n, and then nu_p(a_r), from walks of r(p) steps mod p^8, p^16, ...
    At the cap, or if a_r = 0 exactly, it is the flag "at least cap".
    """
    param = _checked_param(
        d, c, n, p, cap, "p divides the denominator; no numerator valuation at p"
    )
    return _rank_valuation(d, param, n, p, cap)[1]


def is_primitive_divisor(d: int, c, n: int, p: int) -> tuple[bool, int]:
    """Whether p divides a_n but none of a_1..a_{n-1}; returns (flag, nu_p(a_n)).

    Precondition: p does not divide the denominator of c, and a_n != 0.
    """
    param = _checked_param(d, c, n, p, inf, "p divides the denominator of c")
    primitive, nu = _rank_valuation(d, param, n, p, inf)
    if not nu.exact:
        raise ZeroIterateError(f"f^{n}(0) = 0 for c = {param} (PCF collision)")
    return primitive, nu.value


def _checked_param(d: int, c, n: int, p: int, cap: float, error: str) -> RationalParam:
    param = RationalParam.of(c)
    if d < 2:
        raise ValueError("degree must be >= 2")
    if n < 1:
        raise ValueError("iterate index must be >= 1")
    if cap < 1:
        raise ValueError("valuation cap must be >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if param.b % p == 0:
        raise ValueError(error)
    return param


def _rank_valuation(
    d: int, param: RationalParam, n: int, p: int, cap: float
) -> tuple[bool, Valuation]:
    """Whether the rank r(p), the first i with p | a_i, is n; and nu_p(a_n).

    r(p) <= p if it exists.  The critical orbit is a rigid divisibility sequence
    (Rice, Integers 7, 2007): p | a_n iff r(p) | n, and nu_p(a_n) = nu_p(a_r).
    """
    rank = _first_zero(d, _reduced_param(param, p), p, n)
    if not rank or n % rank:
        return False, Valuation(0, True)
    if param.b == 1 and (param.a == 0 or (param.a == -1 and d % 2 == 0)):
        # c = 0, or c = -1 with d even: 0 is periodic, so a_r = 0 exactly
        return rank == n, Valuation(cap, False)
    return rank == n, _adaptive_valuation(
        lambda t: _critical_walk(d, _reduced_param(param, p**t), p**t, rank), p, cap
    )


def _adaptive_valuation(value_mod, p: int, cap: float) -> Valuation:
    """nu_p of a value given by its residue ``value_mod(t)`` mod p^t for any t.

    Starts at t = 8 and doubles t until the value is nonzero mod p^t; at the
    cap (inf for a nonzero value) the result is the flag "at least cap".
    """
    t = min(8, cap)
    value = value_mod(t)
    while value == 0 and t < cap:
        t = min(2 * t, cap)
        value = value_mod(t)
    return Valuation(val_p(value, p), True) if value else Valuation(cap, False)


def orbit_with_derivative(d: int, c: Residue, n: int) -> tuple[Residue, Residue]:
    """(f^n(0), d/dc f^n(0)) in Z/p^t via the coupled forward recurrence
    v <- v^d + c, w <- d * v^(d-1) * w + 1 from (v, w) = (0, 0)."""
    if n < 1:
        raise ValueError("iterate index must be >= 1")
    v, w = _derivative_walk(d, c.value, c.modulus, n)
    return Residue(c.p, c.t, v), Residue(c.p, c.t, w)


def _derivative_walk(d: int, c: int, modulus: int, n: int) -> tuple[int, int]:
    """(f^n(0), d/dc f^n(0)) in Z/modulus, in n steps of the coupled recurrence."""
    v, w = 0, 0
    for _ in range(n):
        power = pow(v, d - 1, modulus)
        w = (d * power * w + 1) % modulus
        v = (power * v + c) % modulus
    return v, w


def _return_walk(d: int, c: int, p: int) -> tuple[int, int]:
    """(n, d/dc f^n(0) mod p) for the period n of 0 under x^d + c over F_p,
    when that map permutes F_p: 0 is then purely periodic, so the walk stops
    when it returns to 0 and needs no visited table."""
    v, w, n = c, 1, 1
    while v:
        # d = 3 squared inline: this loop is the cubic census's inner loop
        power = v * v % p if d == 3 else pow(v, d - 1, p)
        w = (d * power * w + 1) % p
        v = (power * v + c) % p
        n += 1
    return n, w


def exact_iterate(
    d: int, c, n: int, digit_guard: int = _DEFAULT_DIGIT_GUARD
) -> tuple[int, int]:
    """Exact numerator a_n and the denominator exponent d^(n-1).

    Refuses (with a size estimate) when a_n would exceed the digit guard:
    a_n has roughly d^(n-1) * digits(h(c)) digits.  The refusal is decided
    from bit lengths, and names the estimate exactly only while it is short.
    """
    param = RationalParam.of(c)
    if d < 2:
        raise ValueError("degree must be >= 2")
    if n < 1:
        raise ValueError("iterate index must be >= 1")
    scale = len(str(max(abs(param.a), param.b, 2))) + 1
    short = (n - 1) * d.bit_length() <= 128  # print a longer estimate as a power
    estimated = d ** (n - 1) * scale if short else f"{scale}*{d}^{n - 1}"
    denominator_exponent = _guard_power(
        d, n - 1, digit_guard // scale,
        f"a_{n} would have ~{estimated} digits (guard {digit_guard})")
    x = param.a
    exponent = d
    for _ in range(n - 1):
        x = x**d + param.a * param.b ** (exponent - 1)
        exponent *= d
    return x, denominator_exponent


def multiplier_mod_p(d: int, c: int, r: int, p: int) -> tuple[PeriodType, int]:
    """Period type of r mod p and the multiplier of its eventual cycle,
    lambda = d^period * prod f^(tail+i)(r)^(d-1) mod p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    tail, period, entry = _orbit_period_ints(d, c, p, r)
    return PeriodType(tail, period), _multiplier(d, c, p, entry, period)
