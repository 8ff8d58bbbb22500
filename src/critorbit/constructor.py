"""Construction of integer parameters realizing prescribed prime powers.

For each requested (iterate n, prime p, exact power k): find a base parameter
in F_p whose critical orbit has exact period n, lift it, perturb the lift so
that p divides the n-th orbit value to the power k exactly, and combine all
the resulting congruences mod p^(k+1) with the CRT.  The combined integer is
then re-verified constraint by constraint with modular orbits only.

Primes may be pinned per constraint or chosen automatically.  Auto-chosen
primes avoid the excluded set, primes dividing d and each other; pinned
primes may divide d (the construction needs only the period and simple-root
conditions, and cases like d = p = 2 are perfectly usable).  Both kinds are
screened by disc(G) mod p for the monic period-n Gleason polynomial G while
deg G <= 128; above that, only the simple-root test screens a base.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .arith import crt, is_prime, next_prime
from .errors import (
    DiscObstructionError,
    InternalConsistencyError,
    PrimeNotAdmissibleError,
    SearchExhaustedError,
)
from .gleason import (
    _GLEASON_FEASIBLE_DEGREE,
    discriminant_mod_p,
    gleason_degree,
    gleason_poly,
    roots_mod_p,
)
from .lifting import adjust_power, hensel_lift
from .orbit import is_primitive_divisor
from .pcf import _is_simple_root, _scan

_PRIME_SCAN_CEILING = 10**6
# disc(G) mod p screens G up to this degree; moving it changes the auto primes
_DISC_SCREEN_DEGREE = 128


@dataclass(frozen=True)
class PrimePowerConstraint:
    """Require nu_p(f^n(0)) = k exactly with p primitive at n.

    ``p=None`` asks the builder to choose the prime.
    """

    n: int
    k: int
    p: int | None = None

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError("need n >= 1 and k >= 1")
        if self.p is not None and not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")


@dataclass(frozen=True)
class DivisibilitySpec:
    d: int
    constraints: tuple[PrimePowerConstraint, ...]
    excluded_primes: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("degree must be >= 2")
        if not self.constraints:
            raise ValueError("spec needs at least one constraint")
        pinned = [c.p for c in self.constraints if c.p is not None]
        if len(pinned) != len(set(pinned)):
            raise ValueError("pinned primes must be pairwise distinct")
        if any(p in self.excluded_primes for p in pinned):
            raise ValueError("a pinned prime appears in the excluded set")

    @classmethod
    def from_json_dict(cls, doc: dict) -> "DivisibilitySpec":
        try:
            d = int(doc["d"])
            constraints = []
            for entry in doc["constraints"]:
                n = int(entry["n"])
                for pk in entry["primes"]:
                    p = pk.get("p")
                    constraints.append(
                        PrimePowerConstraint(
                            n=n,
                            k=int(pk["k"]),
                            p=None if p is None else int(p),
                        )
                    )
            excluded = frozenset(int(x) for x in doc.get("exclude_primes", []))
        except (KeyError, TypeError, AttributeError, OverflowError) as exc:
            raise ValueError(f"malformed divisibility spec: {exc}") from exc
        return cls(d=d, constraints=tuple(constraints), excluded_primes=excluded)

    def to_json_dict(self) -> dict:
        by_n: dict[int, list] = {}
        for c in self.constraints:
            by_n.setdefault(c.n, []).append(
                {"p": None if c.p is None else str(c.p), "k": c.k}
            )
        return {
            "d": self.d,
            "constraints": [{"n": n, "primes": by_n[n]} for n in sorted(by_n)],
            "exclude_primes": [str(p) for p in sorted(self.excluded_primes)],
        }


@dataclass(frozen=True)
class ConstraintRecord:
    n: int
    p: int
    k: int
    base_c0: int
    modulus: int
    residue: int
    verified: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "p": str(self.p),
            "k": self.k,
            "base_c0": str(self.base_c0),
            "modulus": str(self.modulus),
            "residue": str(self.residue),
            "verified": self.verified,
        }


@dataclass(frozen=True)
class ConstructionReport:
    d: int
    c: int
    records: tuple[ConstraintRecord, ...]

    @property
    def all_verified(self) -> bool:
        return all(r.verified for r in self.records)

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "c": str(self.c),
            "records": [r.to_json_dict() for r in self.records],
            "all_verified": self.all_verified,
        }


def find_base(d: int, n: int, p: int) -> int | None:
    """Smallest c0 in [0, p) whose critical orbit mod p has exact period n.

    Equivalently the smallest root of the period-n Gleason polynomial mod p
    that keeps exact (not just formal) period; absence is a normal result.
    """
    roots = None if p < 10**6 else _gleason_roots(d, n, p)
    bases = _scan(d, p, n, roots)  # a composite p is reported before a bad n
    if n < 1:
        raise ValueError("period must lie in [1, p]")
    if n > p:  # no orbit mod p is longer than p
        return None
    return next((c0 for c0, _, _ in bases), None)


def _gleason_roots(d: int, n: int, p: int) -> Iterator[int]:
    # a generator, so the size check runs after the scan has checked p
    if gleason_degree(d, n) > _GLEASON_FEASIBLE_DEGREE:
        raise ValueError(
            f"cannot search bases: p = {p} is too large to scan and the "
            f"period-{n} Gleason polynomial is too large to build"
        )
    yield from (r for r, _ in roots_mod_p(gleason_poly(d, n), p))


def _admissible_base(d: int, n: int, p: int) -> int:
    """The simple-root base of exact period n at p, where p does not divide
    disc(G_{d,n}) (screened up to degree 128); raises the error saying why not."""
    if (gleason_degree(d, n) <= _DISC_SCREEN_DEGREE
            and discriminant_mod_p(gleason_poly(d, n), p) == 0):
        raise DiscObstructionError(
            f"pinned prime {p} divides disc of the period-{n} Gleason "
            "polynomial; the exact-power adjustment is not licensed there"
        )
    c0 = find_base(d, n, p)
    if c0 is None:
        raise PrimeNotAdmissibleError(
            f"prime {p} is not admissible for iterate {n}: no parameter "
            f"in F_{p} has critical orbit of exact period {n}"
        )
    if not _is_simple_root(d, n, p, c0):
        raise DiscObstructionError(
            f"base parameter {c0} mod {p} is not a simple root of the "
            f"period-{n} orbit value; exact-power adjustment unavailable"
        )
    return c0


def find_prime_for_iterate(
    d: int, n: int, excluded: frozenset[int] | set[int] = frozenset(),
    ceiling: int = _PRIME_SCAN_CEILING,
) -> tuple[int, int]:
    """Smallest admissible prime for iterate n and its base parameter.

    Admissible: not excluded, not dividing d, not dividing the Gleason
    discriminant, and possessing a base with exact period n.
    """
    p = next_prime(n - 1)  # the first prime >= n: periods mod p are <= p
    while p <= ceiling:
        if p not in excluded and d % p != 0:
            try:
                return p, _admissible_base(d, n, p)
            except (DiscObstructionError, PrimeNotAdmissibleError):
                pass
        p = next_prime(p)
    raise SearchExhaustedError(
        f"no admissible prime for iterate {n} within bound {ceiling}", ceiling
    )


def build_parameter(spec: DivisibilitySpec) -> ConstructionReport:
    """Run the full pipeline: choose/validate primes, lift, adjust, CRT, verify."""
    d = spec.d
    taken: set[int] = set(spec.excluded_primes)
    taken.update(c.p for c in spec.constraints if c.p is not None)
    resolved: list[tuple[PrimePowerConstraint, int, int]] = []  # (constraint, p, c0)
    for constraint in spec.constraints:
        n, p = constraint.n, constraint.p
        if p is not None:
            c0 = _admissible_base(d, n, p)
        else:
            p, c0 = find_prime_for_iterate(d, n, excluded=taken)
            taken.add(p)
        resolved.append((constraint, p, c0))
    # all primes are resolved first, so an inadmissible one costs no lifts
    records = []
    for constraint, p, c0 in resolved:
        n, k = constraint.n, constraint.k
        lift = hensel_lift(d, n, p, c0, precision=k + 2)
        modulus = p ** (k + 1)
        residue = adjust_power(lift, k) % modulus
        records.append(ConstraintRecord(n, p, k, c0, modulus, residue, verified=True))
    c = crt([(r.residue, r.modulus) for r in records])
    for r in records:
        primitive, valuation = is_primitive_divisor(d, c, r.n, r.p)
        if not (primitive and valuation == r.k):
            raise InternalConsistencyError(
                f"final verification failed at (n={r.n}, p={r.p}, k={r.k}): "
                f"primitive={primitive}, nu={valuation}"
            )
    return ConstructionReport(d=d, c=c, records=tuple(records))


@dataclass(frozen=True)
class ConstraintCheck:
    n: int
    p: int
    k: int
    primitive: bool
    valuation: int

    @property
    def ok(self) -> bool:
        return self.primitive and self.valuation == self.k

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "p": str(self.p),
            "k": self.k,
            "primitive": self.primitive,
            "valuation": self.valuation,
            "ok": self.ok,
        }


def verify_spec(d: int, c: int, spec: DivisibilitySpec) -> list[ConstraintCheck]:
    """Check every constraint against a claimed parameter, modular orbits only."""
    checks = []
    for constraint in spec.constraints:
        if constraint.p is None:
            raise ValueError("cannot verify a constraint without a pinned prime")
        primitive, valuation = is_primitive_divisor(d, c, constraint.n, constraint.p)
        checks.append(
            ConstraintCheck(
                n=constraint.n,
                p=constraint.p,
                k=constraint.k,
                primitive=primitive,
                valuation=valuation,
            )
        )
    return checks
