"""Newton lifting of the parameter c at a primitive prime.

Given a base parameter c0 whose critical orbit mod p has exact period n,
Newton iteration on c |-> f^n(0) (evaluated by the orbit recurrence, never by
expanding the degree-d^(n-1) polynomial) converges in Z/p^N to the unique
parameter where 0 is exactly periodic p-adically, provided
nu(F(c0)) > 2 nu(F'(c0)).  The shift nu(lifted - c0) equals nu(F) - nu(F').

For a simple root, nu(F'(c0)) = 0, Newton runs at doubling precision: each
step is one walk mod p^k for k = 2, 4, ..., N, and the inverse of F' mod p is
carried up by Newton's update instead of recomputed, so a lift to N digits
costs less than four walks of N digits, not log2(N) of them.  The output is
the one a fixed-width schedule gives: over c0 mod p there is exactly one root
mod p^N.  When b = nu(F'(c0)) > 0 every step stays at the full width
p^(N + b): F(c + t p^(N - b)) = F(c) mod p^N there, so the last b digits
depend on the schedule, and only the one schedule keeps them stable.

Perturbing the lifted value at the p^r digit then produces parameters whose
n-th orbit value carries p to the exact power r.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .arith import Residue, is_prime, val_p
from .errors import HenselHypothesisError, InternalConsistencyError, SearchExhaustedError
from .orbit import (
    _adaptive_valuation,
    _critical_walk,
    _derivative_walk,
    is_primitive_divisor,
    iterate_valuation,
    period_type_mod,
)

_NEWTON_SLACK = 4
# a lift costs about n * bits(p^precision)^2 (walks of n steps, each step a
# quadratic-time reduction mod p^precision), bounded above by
# n * (precision * bits(p))^2: (2, 12, 47, 38, 40000) is 7 * 10^11 and took
# 6 to 7 s on a shared 2-vCPU host, and the largest lift perfbench runs,
# (2, 12, 47, 38, 5000), is 10^10
_LIFT_WORK_LIMIT = 10**12


@dataclass(frozen=True)
class LiftResult:
    """A converged lift: f^n(0) = 0 mod p^precision at ``lifted_value``."""

    d: int
    n: int
    p: int
    precision: int
    lifted_value: Residue
    shift_valuation: int
    nu_value: int
    nu_derivative: int
    base_c0: int

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "p": str(self.p),
            "precision": self.precision,
            "modulus": str(self.lifted_value.modulus),
            "value": str(self.lifted_value.value),
            "shift_valuation": self.shift_valuation,
            "nu_value": self.nu_value,
            "nu_derivative": self.nu_derivative,
            "base_c0": str(self.base_c0),
        }


def hensel_lift(d: int, n: int, p: int, c0: int, precision: int) -> LiftResult:
    """Lift c0 to the parameter where 0 has exact period n in Z/p^precision."""
    if d < 2 or n < 1 or precision < 1:
        raise ValueError("need d >= 2, n >= 1, precision >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n * (precision * p.bit_length()) ** 2 > _LIFT_WORK_LIMIT:
        raise SearchExhaustedError(
            f"a lift to precision {precision} at p = {p} with n = {n} exceeds the "
            f"work bound n * (precision * bits(p))^2 <= {_LIFT_WORK_LIMIT}",
            _LIFT_WORK_LIMIT,
        )
    ptype, _ = period_type_mod(d, Residue.reduce(c0, p, 1))
    if ptype.tail != 0 or ptype.period != n:
        raise ValueError(
            f"0 is not periodic with exact period {n} mod {p} at c0 = {c0} "
            f"(found tail {ptype.tail}, period {ptype.period})"
        )
    cap = 4 * (precision + 8)
    nu_f = iterate_valuation(d, c0, n, p, cap=cap)
    nu_df = _adaptive_valuation(lambda t: _derivative_walk(d, c0, p**t, n)[1], p, cap)
    if not nu_f.exact:
        # p^cap divides f^n(c0) and cap > precision: c0 is already the root
        # mod p^precision (an exact zero, or a base lifted past the cap)
        c, shift = c0, precision
    elif not nu_df.exact or nu_f.value <= 2 * nu_df.value:
        raise HenselHypothesisError(nu_f.value, nu_df.value)
    else:
        b = nu_df.value
        if b == 0:
            steps = _doubling_newton(d, n, p, c0, precision)
        else:
            steps = _full_width_newton(d, n, p, c0, precision, b)
        max_steps = precision.bit_length() + _NEWTON_SLACK
        for converged, c in islice(steps, max_steps + 1):
            if converged:
                break
        else:
            raise InternalConsistencyError(
                f"Newton iteration failed to converge within {max_steps} steps"
            )
        shift = nu_f.value - nu_df.value
    lifted = Residue.reduce(c, p, precision)
    delta0 = (lifted.value - c0) % p**precision
    if delta0 != 0 and val_p(delta0, p) != shift:
        raise InternalConsistencyError(
            "lift shift does not match nu(F) - nu(F'); shift identity hypotheses fail"
        )
    _, first_zero = _critical_walk(d, lifted.value, p, n - 1)
    if first_zero is not None:
        raise InternalConsistencyError(
            f"lifted parameter lost primitivity: f^{first_zero}(0) = 0 mod {p}"
        )
    return LiftResult(
        d=d,
        n=n,
        p=p,
        precision=precision,
        lifted_value=lifted,
        shift_valuation=shift,
        nu_value=nu_f.value,
        nu_derivative=nu_df.value,
        base_c0=c0,
    )


def _doubling_newton(d: int, n: int, p: int, c0: int, precision: int):
    """Newton steps for a simple root (b = 0) at precisions 2, 4, ..., precision.

    Yields (converged, c) after each walk; the inverse of F' mod p is carried
    up by the Newton update inv <- inv (2 - F' inv) instead of recomputed.
    """
    c, k = c0 % p, 1
    inv = pow(_derivative_walk(d, c, p, n)[1], -1, p)
    while True:
        k = min(2 * k, precision)
        modulus = p**k
        value, deriv = _derivative_walk(d, c, modulus, n)
        yield k == precision and value == 0, c
        inv = inv * (2 - deriv * inv) % modulus
        c = (c - value * inv) % modulus


def _full_width_newton(d: int, n: int, p: int, c0: int, precision: int, b: int):
    """Newton steps at the fixed modulus p^(precision + b), dividing F and F'
    by p^b.  Kept for b > 0: the last b digits it prints depend on the step
    schedule, so only this schedule keeps them stable."""
    working, target, shifted = p ** (precision + b), p**precision, p**b
    c = c0 % working
    while True:
        value, deriv = _derivative_walk(d, c, working, n)
        yield value % target == 0, c
        c = (c - (value // shifted) * pow(deriv // shifted, -1, target)) % working


def adjust_power(lift: LiftResult, r: int) -> int:
    """An integer c_r with p primitive for f^n(0) and nu_p(f^n(0)) = r exactly.

    Takes the lifted value mod p^(r+1) and perturbs the p^r digit by one, so
    nu_p(c_r - lifted) = r; by the shift identity (valid because the base root
    is simple, nu(F') = 0) the orbit value then carries p^r exactly.
    """
    if r < 1:
        raise ValueError("target power must be >= 1")
    if lift.precision < r + 1:
        raise ValueError(
            f"lift precision {lift.precision} is below the required {r + 1}"
        )
    if lift.nu_derivative != 0:
        raise ValueError(
            "exact-power adjustment requires nu(F') = 0 at the base "
            "(simple Gleason root); got nu(F') = %d" % lift.nu_derivative
        )
    p = lift.p
    c_r = lift.lifted_value.value % p ** (r + 1) + p**r
    primitive, valuation = is_primitive_divisor(lift.d, c_r, lift.n, p)
    if not primitive or valuation != r:
        raise InternalConsistencyError(
            f"adjusted parameter failed verification: primitive={primitive}, "
            f"nu={valuation}, wanted exact {r}"
        )
    return c_r


def scan_shifts(d: int, n: int, p: int, c0: int) -> list[int]:
    """Exhaustive check of the lift obstruction: values f^n(0) mod p^2 at the
    p candidate shifts c0 + t*p.  All nonzero means no shift lifts to p^2."""
    if n < 1 or not is_prime(p):
        raise ValueError(f"need n >= 1 and a prime p, got n = {n}, p = {p}")
    return [_critical_walk(d, c0 + t * p, p * p, n)[0] for t in range(p)]
