"""Independent reference implementations used to cross-check the package.

These deliberately use different algorithms from the library: fraction-exact
Sylvester determinants instead of CRT resultants, direct residue scans instead
of gcd machinery, plain dict-based orbit walks, a Newton lift that takes
every step at full width, trial division that steps along the mod-30
wheel one candidate at a time, and first zeros of the critical orbit by a
visited set or by Floyd's tortoise and hare.  Two keep the package's earlier
hand-written prime loops: a next-prime walk over odd candidates, and the
witness search that ran the primes of a_n and then a scan of every prime, as
two loops, for one iterate at a time.  Three keep earlier formulas: Gleason
polynomials and their degrees as Moebius quotients over every t in 1..n, and
the fixed-point proportion of S_D as a sum of D fractions.
"""

from fractions import Fraction
from math import factorial, isqrt

from critorbit import IntPoly, LiftResult, MaximalityCertificate, Residue, iterate_poly
from critorbit.arith import is_prime, moebius
from critorbit.bounds import _FACTOR_DIGIT_GUARD, _entry_for, _prime_factors
from critorbit.errors import SizeGuardError
from critorbit.orbit import exact_iterate


def sylvester_resultant(f: list[int], g: list[int]) -> int:
    """Res(f, g) as the exact Sylvester determinant (coefficients constant-first)."""
    f = list(f)
    g = list(g)
    while f and f[-1] == 0:
        f.pop()
    while g and g[-1] == 0:
        g.pop()
    n, m = len(f) - 1, len(g) - 1
    if n < 0 or m < 0:
        return 0
    if n == 0:
        return f[0] ** m
    if m == 0:
        return g[0] ** n
    size = n + m
    rows = []
    fh, gh = f[::-1], g[::-1]
    for r in range(m):
        rows.append([Fraction(0)] * r + [Fraction(x) for x in fh] + [Fraction(0)] * (size - r - n - 1))
    for r in range(n):
        rows.append([Fraction(0)] * r + [Fraction(x) for x in gh] + [Fraction(0)] * (size - r - m - 1))
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col] * inv
            if factor:
                for c in range(col, size):
                    rows[r][c] -= factor * rows[col][c]
    assert det.denominator == 1
    return det.numerator


def sylvester_discriminant(coeffs: list[int]) -> int:
    deg = len(coeffs) - 1
    deriv = [i * coeffs[i] for i in range(1, len(coeffs))]
    res = sylvester_resultant(coeffs, deriv)
    sign = -1 if (deg * (deg - 1) // 2) % 2 else 1
    assert res % coeffs[-1] == 0
    return sign * (res // coeffs[-1])


def orbit_walk(d: int, c: int, modulus: int, start: int = 0) -> tuple[int, int]:
    """(tail, period) of start under x -> x^d + c mod modulus, by plain dict walk."""
    seen = {}
    x = start % modulus
    i = 0
    while x not in seen:
        seen[x] = i
        x = (pow(x, d, modulus) + c) % modulus
        i += 1
    return seen[x], i - seen[x]


def dict_first_zero(d: int, c: int, p: int, limit: int) -> int:
    """The first i <= limit with f^i(0) = 0 mod p, or 0, by a walk that stops
    at the first point it has seen before."""
    seen = {0}
    x = 0
    for i in range(1, limit + 1):
        x = (pow(x, d, p) + c) % p
        if x == 0:
            return i
        if x in seen:
            return 0
        seen.add(x)
    return 0


def floyd_first_zero(d: int, c: int, p: int, limit: int) -> int:
    """The first i <= limit with f^i(0) = 0 mod p, or 0, in constant memory.

    The hare checks every point it steps on.  When Floyd's tortoise at index
    k meets the hare at 2k, k is at least the tail and a multiple of the
    period, so the hare has passed tail + period and seen the whole orbit.
    """
    slow = fast = i = 0
    while True:
        for _ in range(2):
            i += 1
            if i > limit:
                return 0
            fast = (pow(fast, d, p) + c) % p
            if fast == 0:
                return i
        slow = (pow(slow, d, p) + c) % p
        if slow == fast:
            return 0


def period_type_bases(d: int, p: int, n: int) -> list[int]:
    """The c in F_p, ascending, where 0 has exact period n: a full period type
    per c by dict walk, kept when it is (0, n)."""
    return [c for c in range(p) if orbit_walk(d, c, p) == (0, n)]


def brute_roots(coeffs: list[int], p: int) -> list[int]:
    """Roots of a polynomial mod p by evaluating at every residue."""
    out = []
    for r in range(p):
        acc = 0
        for coef in reversed(coeffs):
            acc = (acc * r + coef) % p
        if acc == 0:
            out.append(r)
    return out


def _orbit_and_derivative(d: int, c: int, modulus: int, n: int) -> tuple[int, int]:
    """(f^n(0), d/dc f^n(0)) mod modulus, from the chain rule one step at a time."""
    x, dx = 0, 0
    for _ in range(n):
        x, dx = (x**d + c) % modulus, (d * x ** (d - 1) * dx + 1) % modulus
    return x, dx


def _capped_valuation(x: int, p: int, cap: int) -> tuple[int, bool]:
    """(nu_p(x), True) when p^cap does not divide x, else (cap, False)."""
    x %= p**cap
    if x == 0:
        return cap, False
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v, True


def full_width_lift(d: int, n: int, p: int, c0: int, precision: int):
    """The Newton lift with every step at the full modulus p^(precision + b).

    b = nu(F'(c0)) with F(c) = f^n(0); each step divides F and F' by p^b and
    takes a fresh inverse mod p^precision.  Returns None where the lift's
    hypotheses fail: c0 not of exact period n mod p, or nu(F) <= 2 nu(F').
    """
    if orbit_walk(d, c0, p) != (0, n):
        return None
    cap = 4 * (precision + 8)
    value, deriv = _orbit_and_derivative(d, c0, p**cap, n)
    nu_value, value_exact = _capped_valuation(value, p, cap)
    nu_derivative, derivative_exact = _capped_valuation(deriv, p, cap)
    if not value_exact:
        c, shift = c0, precision
    elif not derivative_exact or nu_value <= 2 * nu_derivative:
        return None
    else:
        b = nu_derivative
        working, target, shifted = p ** (precision + b), p**precision, p**b
        c = c0 % working
        max_steps = precision.bit_length() + 4
        for _ in range(max_steps + 1):
            value, deriv = _orbit_and_derivative(d, c, working, n)
            if value % target == 0:
                break
            c = (c - (value // shifted) * pow(deriv // shifted, -1, target)) % working
        else:
            raise AssertionError("full-width Newton lift did not converge")
        shift = nu_value - nu_derivative
    return LiftResult(
        d=d,
        n=n,
        p=p,
        precision=precision,
        lifted_value=Residue.reduce(c, p, precision),
        shift_valuation=shift,
        nu_value=nu_value,
        nu_derivative=nu_derivative,
        base_c0=c0,
    )


def wheel_trial_divide(x: int, trial_limit: int) -> tuple[dict[int, int], int]:
    """Trial division by 2, 3, 5, then along the mod-30 wheel from 7 while the
    candidate is at most trial_limit and its square at most the rest."""
    counts: dict[int, int] = {}
    rest = x
    for p in (2, 3, 5):
        while rest % p == 0:
            counts[p] = counts.get(p, 0) + 1
            rest //= p
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)  # mod-30 wheel starting at 7
    wi = 0
    while d <= trial_limit and d * d <= rest:
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            counts[d] = e
        d += wheel[wi]
        wi = (wi + 1) % len(wheel)
    return counts, rest


def odd_step_next_prime(n: int) -> int:
    """Smallest prime above n, stepping over the odd candidates from n + 1."""
    k = max(n + 1, 2)
    if k > 2 and k % 2 == 0:
        k += 1
    while not is_prime(k):
        k += 1 if k == 2 else 2
    return k


def two_loop_search_witness(d: int, c: int, n: int, scan_budget: int):
    """The first valid certificate entry among the primes of a_n (when it is
    within the digit guard), then among the first scan_budget primes, each
    walked whether or not it divides a_n."""
    try:
        a_n, _ = exact_iterate(d, c, n, digit_guard=_FACTOR_DIGIT_GUARD)
    except SizeGuardError:
        a_n = None
    if a_n is not None and abs(a_n) > 1:
        for p in _prime_factors(abs(a_n)):
            if d % p == 0:
                continue
            entry = _entry_for(d, c, n, p)
            if entry.valid:
                return entry
    p = 2
    for _ in range(scan_budget):
        if d % p != 0:
            entry = _entry_for(d, c, n, p)
            if entry.valid:
                return entry
        p = odd_step_next_prime(p)
    return None


def per_iterate_certificate(
    d: int, c: int, m: int, witnesses: dict[int, int] | None, scan_budget: int
) -> MaximalityCertificate:
    """The certificate of iterates 1..m built one iterate at a time: a pinned
    witness is checked as given, any other iterate runs its own two-loop
    search."""
    entries, missing = [], []
    for n in range(1, m + 1):
        pinned = (witnesses or {}).get(n)
        if pinned is not None:
            entries.append(_entry_for(d, c, n, pinned))
        elif (entry := two_loop_search_witness(d, c, n, scan_budget)) is not None:
            entries.append(entry)
        else:
            missing.append(n)
    return MaximalityCertificate(
        d=d,
        c=c,
        m=m,
        entries=tuple(entries),
        missing=tuple(missing),
        neg_c_is_square=-c >= 0 and isqrt(-c) ** 2 == -c if d == 2 else None,
    )


def moebius_gleason_poly(d: int, n: int) -> IntPoly:
    """The Moebius quotient prod_{t|n} (f^t(0))^{mu(n/t)}, divided exactly."""
    numerator = IntPoly([1])
    denominator = IntPoly([1])
    for t in range(1, n + 1):
        if n % t == 0:
            mu = moebius(n // t)
            if mu == 1:
                numerator = numerator * iterate_poly(d, t)
            elif mu == -1:
                denominator = denominator * iterate_poly(d, t)
    return numerator.divexact(denominator)


def moebius_gleason_degree(d: int, n: int) -> int:
    """sum over m|n of mu(n/m) d^(m-1)."""
    return sum(moebius(n // m) * d ** (m - 1) for m in range(1, n + 1) if n % m == 0)


def fraction_sum_fpp(degree: int) -> Fraction:
    """sum_{i=1..D} (-1)^(i+1) / i!, one Fraction at a time."""
    total = Fraction(0)
    for i in range(1, degree + 1):
        total += Fraction((-1) ** (i + 1), factorial(i))
    return total
