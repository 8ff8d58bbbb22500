"""Exact polynomials in the parameter c.

The n-th critical value f^n(0) of x^d + c is an integer polynomial in c of
degree d^(n-1), the product of the Gleason polynomials of the divisors of n:

    f^n(0) = prod_{m|n} G_{d,m}(c),

so G_{d,n} is f^n(0) divided exactly by G_{d,m} for each proper divisor m;
its roots mod p are the parameters whose critical orbit has exact period n.
The polynomials are memoized per (d, n); the cache is safe for concurrent reads.

Resultants are computed by Euclid modulo products of four 61-bit primes,
combined by CRT until the modulus passes twice a bound on the result:
Hadamard's for a resultant, and for a discriminant also Mahler's bound
D^D M(f)^(2D-2), with the Mahler measure M bounded by Graeffe root-squaring.
Coefficient growth makes direct integer PRS uncompetitive.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from itertools import count
from math import isqrt

from .arith import _guard_power, _rng, crt, is_prime
from .errors import InternalConsistencyError

_DEGREE_GUARD = 1 << 14
_GLEASON_FEASIBLE_DEGREE = 2048  # largest Gleason polynomial worth building
_GRAEFFE_STEPS = 3  # root-squarings behind the Mahler measure bound
_PRIMES_PER_MODULUS = 4  # 61-bit primes per modulus of the CRT resultant
# the first 64 k with 2^61 - k prime, from the largest prime below 2^61 - 1
# down: the CRT's moduli, found once instead of by a walk in every call
_CRT_PRIME_OFFSETS = (
    31, 45, 229, 259, 283, 339, 391, 403, 465, 531, 579, 675, 759, 799, 819,
    829, 843, 859, 939, 985, 1015, 1153, 1195, 1215, 1281, 1299, 1351, 1371,
    1425, 1489, 1525, 1533, 1543, 1609, 1621, 1669, 1741, 1753, 1813, 1845,
    1849, 1855, 1863, 1869, 1909, 1921, 1923, 1945, 1959, 2023, 2083, 2115,
    2133, 2185, 2371, 2373, 2383, 2385, 2401, 2539, 2551, 2595, 2605, 2665,
)


class IntPoly:
    """Dense integer polynomial, constant term first, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(_strip(list(coeffs)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return IntPoly(out)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, x in enumerate(other.coeffs):
            out[i] -= x
        return IntPoly(out)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        return IntPoly(_convolve(self.coeffs, other.coeffs))

    def divexact(self, divisor: "IntPoly") -> "IntPoly":
        """Exact division over Z; non-exactness is a fatal internal error."""
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        lead = divisor.leading()
        dd = divisor.degree
        if self.degree < dd:
            raise InternalConsistencyError("division is not exact (degree)")
        quot = [0] * (self.degree - dd + 1)
        for k in range(len(quot) - 1, -1, -1):
            head = rem[k + dd]
            if head % lead != 0:
                raise InternalConsistencyError("division is not exact (leading)")
            q = head // lead
            quot[k] = q
            if q:
                for i, x in enumerate(divisor.coeffs):
                    rem[k + i] -= q * x
        if any(rem):
            raise InternalConsistencyError("division is not exact (remainder)")
        return IntPoly(quot)

    def derivative(self) -> "IntPoly":
        return IntPoly([i * x for i, x in enumerate(self.coeffs)][1:])

    def evaluate(self, x: int) -> int:
        out = 0
        for coef in reversed(self.coeffs):
            out = out * x + coef
        return out

    def evaluate_mod(self, x: int, modulus: int) -> int:
        return _eval_list(self.coeffs, x, modulus)

    def reduce_mod(self, p: int) -> list[int]:
        """Coefficients mod p, trailing zeros stripped (constant term first)."""
        return _strip([c % p for c in self.coeffs])

    def to_decimal_strings(self) -> list[str]:
        return [str(c) for c in self.coeffs]


@lru_cache(maxsize=None)
def iterate_poly(d: int, n: int) -> IntPoly:
    """f^n(0) as an element of Z[c], by repeated substitution x -> x^d + c."""
    if d < 2 or n < 1:
        raise ValueError("need d >= 2 and n >= 1")
    _guard_power(d, n - 1, _DEGREE_GUARD,
                 f"iterate polynomial degree {d}^{n - 1} exceeds guard {_DEGREE_GUARD}")
    if n == 1:
        return IntPoly([0, 1])
    prev = iterate_poly(d, n - 1)
    power = prev
    for _ in range(d - 1):
        power = power * prev
    return power + IntPoly([0, 1])


@lru_cache(maxsize=None)
def gleason_poly(d: int, n: int) -> IntPoly:
    """f^n(0) divided exactly by G_{d,m} for each proper divisor m of n.

    f^n(0) comes first: it checks d, n and the degree guard."""
    poly = iterate_poly(d, n)
    for m in _proper_divisors(n):
        poly = poly.divexact(gleason_poly(d, m))
    return poly


@lru_cache(maxsize=None)
def gleason_discriminant(d: int, n: int) -> int:
    """Cached discriminant of the period-n Gleason polynomial."""
    return discriminant(gleason_poly(d, n))


@lru_cache(maxsize=None)
def gleason_degree(d: int, n: int) -> int:
    """deg G_{d,n} = d^(n-1) minus deg G_{d,m} for each proper divisor m of n,
    without building the polynomial."""
    if d < 2 or n < 1:
        raise ValueError("need d >= 2 and n >= 1")
    return d ** (n - 1) - sum(gleason_degree(d, m) for m in _proper_divisors(n))


def _degree_exceeds(d: int, n: int, limit: int) -> bool:
    """deg G_{d,n} > limit.  The proper divisors' G take at most half of
    d^(n-1), so deg G_{d,n} >= d^(n-1)/2, and bit lengths decide it unbuilt
    where d^(n-1) reaches 2^(bits(limit) + 1)."""
    return (n - 1) * (d.bit_length() - 1) > limit.bit_length() or gleason_degree(d, n) > limit


def _proper_divisors(n: int) -> set[int]:
    """The divisors of n >= 1 below n, found in pairs (k, n/k) with k <= sqrt(n)."""
    return {m for k in range(1, isqrt(n) + 1) if n % k == 0 for m in (k, n // k)} - {n}


# ---------------------------------------------------------------------------
# F_p[x] helpers (dense lists mod p, constant term first, no trailing zeros)


def _strip(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _convolve(a, b) -> list[int]:
    """Coefficients of the product of two coefficient sequences, unreduced."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _divmod_p(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    """(f div g, f mod g) in F_p[x]; f may be unreduced, g need not be monic.

    Each head coefficient is reduced as it is read; the rest once, at the end."""
    rem = list(f)
    low = g[:-1]
    quot = [0] * max(0, len(f) - len(low))
    inv = pow(g[-1], -1, p)
    for shift in range(len(quot) - 1, -1, -1):
        coef = rem[shift + len(low)] * inv % p
        if coef:
            quot[shift] = coef
            for i, x in enumerate(low, shift):
                rem[i] -= coef * x
    return _strip(quot), _strip([x % p for x in rem[: len(low)]])


def _gcd_p(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _strip(a[:]), _strip(b[:])
    while b:
        a, b = b, _divmod_p(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [x * inv % p for x in a]
    return a


def _xshift_pow(a: int, e: int, g: list[int], p: int) -> list[int]:
    """(x + a)^e mod g in F_p[x] for 0 <= a < p, squaring left to right.

    A residue of degree < D = deg g is packed into one int, w bits per
    coefficient, so each square and each multiply by x + a is one int
    product.  The product is reduced mod g from the top: the slot of
    x^(D+k), holding h, is cleared and (h mod p) times the packed x^D mod g
    is added from slot k up.  Then each low slot is reduced mod p once.
    Slots start in [0, p) and only nonnegative terms are added: a square puts
    at most D products below p^2 in a slot and the reduction fewer than D
    more, so no slot reaches 2*D*p^2 < 2^w and none carries into the next.
    """
    degree = len(g) - 1
    width = 2 * p.bit_length() + degree.bit_length() + 2
    mask = (1 << width) - 1
    inv = pow(g[-1], -1, p)
    tail = 0  # x^D mod g, packed
    for c in reversed(g[:-1]):
        tail = (tail << width) | (-c * inv % p)

    def mod_g(x: int) -> int:
        for k in range((x.bit_length() - 1) // width - degree, -1, -1):
            shift = width * (degree + k)
            x = (x & ((1 << shift) - 1)) + ((x >> shift) % p * tail << width * k)
        out = 0
        for shift in range(width * ((x.bit_length() - 1) // width), -1, -width):
            out = (out << width) | (x >> shift & mask) % p
        return out

    result = 1
    for bit in f"{e:b}":
        result = mod_g(result * result)
        if bit == "1":
            result = mod_g((result << width) + a * result)
    coeffs = []
    while result:
        coeffs.append(result & mask)
        result >>= width
    return coeffs


def _resultant_mod_p(f: list[int], g: list[int], p: int) -> int:
    """Res(f, g) in F_p by the Euclidean remainder recurrence.

    f and g are nonzero and stripped; neither list is modified."""
    res = 1
    while True:
        if len(g) == 1:
            return res * pow(g[0], len(f) - 1, p) % p
        r = _divmod_p(f, g, p)[1]
        deg_f, deg_g = len(f) - 1, len(g) - 1
        if not r:
            return 0
        deg_r = len(r) - 1
        res = res * pow(g[-1], deg_f - deg_r, p) % p
        if (deg_f * deg_g) % 2:
            res = (-res) % p
        f, g = g, r


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Res(f, g) over Z by CRT, up to Hadamard's bound."""
    if f.is_zero or g.is_zero:
        return 0
    if f.degree == 0:
        return f.coeffs[0] ** g.degree
    if g.degree == 0:
        return g.coeffs[0] ** f.degree
    return _crt_resultant(f, g, _hadamard_bound(f, g))


def _hadamard_bound(f: IntPoly, g: IntPoly) -> int:
    """||f||^deg g ||g||^deg f with the norms rounded up: at least |Res(f, g)|."""
    norm_f = isqrt(sum(c * c for c in f.coeffs)) + 1
    norm_g = isqrt(sum(c * c for c in g.coeffs)) + 1
    return norm_f**g.degree * norm_g**f.degree


def _mahler_bound(poly: IntPoly) -> int:
    """An integer B >= D^D M(poly)^(2D-2) >= |disc poly| (Mahler, Michigan
    Math. J. 11, 1964), for D = deg poly >= 1 and M the Mahler measure.

    A Graeffe step f(x) f(-x) = E(x^2)^2 - x^2 O(x^2)^2, where f(x) =
    E(x^2) + x O(x^2), squares the roots, so the k-th iterate f_k has
    M(f_k) = M(f)^(2^k) <= ||f_k||_2 (Landau), and N = ||f_k||_2^2 >= M^e
    for e = 2^(k+1).  B is the e-th root of D^(eD) N^(2D-2), rounded up, by
    k + 1 nested isqrt (16th roots for k = 3)."""
    coeffs = list(poly.coeffs)
    for _ in range(_GRAEFFE_STEPS):
        squared = _convolve(coeffs[::2], coeffs[::2])
        squared += [0] * (len(coeffs) - len(squared))
        for i, x in enumerate(_convolve(coeffs[1::2], coeffs[1::2]), 1):
            squared[i] -= x
        coeffs = squared
    degree, exponent = poly.degree, 2 << _GRAEFFE_STEPS
    bound = degree ** (exponent * degree) * sum(c * c for c in coeffs) ** (2 * degree - 2)
    for _ in range(_GRAEFFE_STEPS + 1):
        bound = isqrt(bound)
    return bound + 1


def _crt_resultant(f: IntPoly, g: IntPoly, bound: int) -> int:
    """Res(f, g) for deg f >= 1, g nonzero and |Res(f, g)| <= bound.

    Each modulus m is a product of four consecutive primes from
    ``_crt_primes`` that divide neither leading coefficient; the last takes
    only the primes the bound needs.  Euclid mod m gives the Sylvester
    determinant mod m whenever each divisor's leading coefficient is a unit
    mod m.  When one is not, its inverse raises ValueError and m is skipped:
    only the finitely many primes that change the degree sequence of the
    remainders can cause that, so the loop ends."""
    lead = f.leading() * g.leading()
    residues, modulus = [], 1
    primes = (q for q in _crt_primes() if lead % q)
    while modulus <= 2 * bound:
        m = 1
        for _ in range(_PRIMES_PER_MODULUS):
            m *= next(primes)
            if modulus * m > 2 * bound:
                break
        try:
            residues.append((_resultant_mod_p(f.reduce_mod(m), g.reduce_mod(m), m), m))
        except ValueError:
            continue
        modulus *= m
    value = crt(residues)
    return value - modulus if value > modulus // 2 else value


def _crt_primes() -> Iterator[int]:
    """The primes below 2^61 - 1, descending: the table, then every odd
    number below its last entry that ``is_prime`` accepts."""
    top = 1 << 61
    yield from (top - k for k in _CRT_PRIME_OFFSETS)
    yield from filter(is_prime, count(top - _CRT_PRIME_OFFSETS[-1] - 2, -2))


def discriminant(poly: IntPoly) -> int:
    """disc = (-1)^(D(D-1)/2) * Res(poly, poly') / lc(poly), with the CRT
    stopped at min(Hadamard's bound, |lc| times Mahler's) on |Res|."""
    if poly.is_zero or poly.degree < 1:
        raise ValueError("discriminant needs degree >= 1")
    d = poly.degree
    lead, deriv = poly.leading(), poly.derivative()
    bound = min(_hadamard_bound(poly, deriv), abs(lead) * _mahler_bound(poly))
    res = _crt_resultant(poly, deriv, bound)
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    if res % lead != 0:
        raise InternalConsistencyError("resultant not divisible by leading coefficient")
    return sign * (res // lead)


def discriminant_mod_p(poly: IntPoly, p: int) -> int:
    """disc(poly) mod p for p not dividing the leading coefficient."""
    if poly.degree < 1:
        raise ValueError("discriminant needs degree >= 1")
    if poly.leading() % p == 0:
        raise ValueError("leading coefficient vanishes mod p")
    f = poly.reduce_mod(p)
    fp = poly.derivative().reduce_mod(p)
    if not fp:
        return 0
    d = len(f) - 1
    res = _resultant_mod_p(f, fp, p)
    # if the derivative dropped degree mod p, the Sylvester determinant picks
    # up lc(f)^(drop) relative to the reduced-pair resultant
    drop = (poly.degree - 1) - (len(fp) - 1)
    if drop:
        res = res * pow(f[-1], drop, p) % p
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * res * pow(f[-1], -1, p) % p


def _linear_part(f: list[int], p: int) -> list[int]:
    """gcd(x^p - x, f) in F_p[x]: the product of f's distinct linear factors."""
    diff = _xshift_pow(0, p, f, p) + [0, 0]
    diff[1] = (diff[1] - 1) % p
    return _gcd_p(f, diff, p)


def has_root_mod_p(poly: IntPoly, p: int) -> bool:
    """Whether poly has a root in F_p, via gcd(x^p - x, poly)."""
    f = poly.reduce_mod(p)
    if not f:
        raise ValueError("polynomial vanishes identically mod p")
    return len(f) > 1 and len(_linear_part(f, p)) > 1


def roots_mod_p(poly: IntPoly, p: int) -> list[tuple[int, int]]:
    """All F_p roots with multiplicities, sorted by root; p must be prime.

    The distinct roots are those of gcd(x^p - x, poly), split by equal-degree
    refinement.  A gcd of degree p is x^p - x itself: every residue is a root.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    f = poly.reduce_mod(p)
    if not f:
        raise ValueError("polynomial vanishes identically mod p")
    linear = _linear_part(f, p)
    roots = range(p) if len(linear) == p + 1 else sorted(_split_linear(linear, p))
    return [(r, _root_multiplicity(f, r, p)) for r in roots]


def _eval_list(f, x: int, p: int) -> int:
    out = 0
    for coef in reversed(f):
        out = (out * x + coef) % p
    return out


def _split_linear(g: list[int], p: int) -> list[int]:
    """Roots of a squarefree product of distinct linear factors in F_p[x]."""
    if len(g) <= 1:
        return []
    if len(g) == 2:
        return [(-g[0]) * pow(g[1], -1, p) % p]
    while True:
        a = _rng.randrange(p)
        shifted = _xshift_pow(a, (p - 1) // 2, g, p) or [0]
        shifted[0] = (shifted[0] - 1) % p
        h = _gcd_p(g, shifted, p)
        if 1 < len(h) < len(g):
            rest = _divmod_p(g, h, p)[0]
            return _split_linear(h, p) + _split_linear(rest, p)


def _root_multiplicity(f: list[int], r: int, p: int) -> int:
    """The exponent of (x - r) in f, by repeated division."""
    linear = [-r % p, 1]
    mult = 0
    quot, rem = _divmod_p(f, linear, p)
    while not rem:
        mult += 1
        quot, rem = _divmod_p(quot, linear, p)
    return mult


def is_simple_root(poly: IntPoly, p: int, c0: int) -> bool:
    """Whether c0 is a simple root of poly mod p (derivative nonzero there)."""
    if poly.evaluate_mod(c0, p) != 0:
        raise ValueError(f"{c0} is not a root of the polynomial mod {p}")
    return poly.derivative().evaluate_mod(c0, p) != 0
