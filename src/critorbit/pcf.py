"""Census of critically finite parameters of x^d + c over F_p, the simple-root
conditions behind the lifting correspondence, and the lifted census in Z/p^N.

Over F_p every parameter is critically finite; the census records which c have
0 periodic (these are the ones that lift) and which strictly preperiodic.  The
correspondence with Z/p^N parameters is one-to-one when p > d and every
periodic parameter is a simple root of its orbit-value polynomial.

The census walks one parameter per class {u c : u^(d-1) = 1 in F_p}.  For such
a u, x -> u x conjugates x^d + c to x^d + u c and fixes 0, so the class shares
its period type; and F_n(u c) = u F_n(c) for F_n(c) = f^n(0), so
F_n'(u c) = F_n'(c) and the class shares its simple-root verdict too.  A walk
of a nonzero c answers for gcd(d - 1, p - 1) parameters, one for d = 2.  When
gcd(d, p - 1) = 1, x^d + c permutes F_p and 0 is purely periodic: the walk
returns to 0 and carries F_n'(c) on the way, so the verdict costs nothing
more.  Otherwise the verdict is an n-step derivative walk, taken where a
check asks for it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from math import gcd

from .arith import Residue, is_prime
from .errors import HenselHypothesisError
from .lifting import LiftResult, hensel_lift
from .orbit import PeriodType, _derivative_walk, _return_walk, period_type_mod


@dataclass
class PcfCensus:
    """Period type of 0 for every c in F_p, split by periodic vs preperiodic."""

    d: int
    p: int
    periodic: dict[int, PeriodType] = field(default_factory=dict)
    preperiodic: dict[int, PeriodType] = field(default_factory=dict)
    # whether c is a simple root of f^n(0), for the periodic c whose walk
    # carried the derivative (the permutation case)
    _simple_roots: dict[int, bool] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def periodic_count_by_period(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for ptype in self.periodic.values():
            counts[ptype.period] = counts.get(ptype.period, 0) + 1
        return counts

    def observed_periods(self) -> list[int]:
        return sorted(self.periodic_count_by_period)

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "p": str(self.p),
            "periodic": {
                str(c): {"m": t.tail, "n": t.period}
                for c, t in sorted(self.periodic.items())
            },
            "preperiodic": {
                str(c): {"m": t.tail, "n": t.period}
                for c, t in sorted(self.preperiodic.items())
            },
        }


def _scan(d: int, p: int, n: int | None = None,
          candidates: Iterable[int] | None = None
          ) -> Iterator[tuple[int, PeriodType, bool | None]]:
    """(c, period type of 0, simple-root verdict or None) for the candidates c
    in F_p, all of F_p by default; given n, only the c where 0 has exact
    period n.  The verdict comes with the walk in the permutation case only.
    p is checked at once and the candidates are walked lazily, in their order."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    rows = _class_rows(d, p, range(p) if candidates is None else candidates)
    if n is None:
        return rows
    return (row for row in rows if row[1].tail == 0 and row[1].period == n)


def _class_rows(d: int, p: int, candidates: Iterable[int]
                ) -> Iterator[tuple[int, PeriodType, bool | None]]:
    # a generator, so a bad degree is reported when the first row is asked for
    if d < 2:
        raise ValueError("degree must be >= 2")
    permutes = gcd(d, p - 1) == 1
    others = _roots_of_unity(d - 1, p)[1:]
    # rows of the class members still ahead of a walked c; in an ascending
    # scan every class is walked at its smallest member
    ahead: dict[int, tuple[int, PeriodType, bool | None]] = {}
    for c in candidates:
        row = ahead.pop(c, None)
        if row is None:
            if permutes:
                period, derivative = _return_walk(d, c, p)
                ptype, simple = PeriodType(0, period), derivative != 0
            else:
                # the public call per walked class keeps the span counts that
                # perfbench's tracer test pins (14 under enumerate_pcf at
                # d = 2, p = 7, where pcf also runs a second census through
                # check_condition_star_star); the benchmark's next revision
                # can drop both
                ptype, simple = period_type_mod(d, Residue(p, 1, c))[0], None
            row = c, ptype, simple
            if c and others:
                for u in others:
                    member = u * c % p
                    ahead[member] = member, ptype, simple
        yield row


def _roots_of_unity(k: int, p: int) -> list[int]:
    """The u in F_p with u^k = 1, starting with 1: the powers of an element of
    order g = gcd(k, p - 1), which F_p* (cyclic) has among its g-th roots of
    unity a^((p - 1)/g)."""
    g = gcd(k, p - 1)
    for a in range(1, p):
        z = pow(a, (p - 1) // g, p)
        group = [1]
        while (x := group[-1] * z % p) != 1:
            group.append(x)
        if len(group) == g:
            return group


def _is_simple_root(d: int, n: int, p: int, c: int, known: bool | None = None) -> bool:
    """Whether c is a simple root of f^n(0) mod p, as a polynomial in c:
    ``known`` when the census walk carried the verdict, else an n-step
    derivative walk."""
    return _derivative_walk(d, c, p, n)[1] != 0 if known is None else known


def enumerate_pcf(d: int, p: int) -> PcfCensus:
    """Direct orbit computation for every parameter c in F_p."""
    census = PcfCensus(d=d, p=p)
    for c, ptype, simple in _scan(d, p):
        if ptype.tail == 0:
            census.periodic[c] = ptype
            if simple is not None:
                census._simple_roots[c] = simple
        else:
            census.preperiodic[c] = ptype
    return census


def check_condition_star(d: int, p: int, n: int) -> tuple[bool, list[int]]:
    """Whether every c in F_p with critical period exactly n is a simple root
    of the n-th orbit-value polynomial; returns the failing parameters."""
    bases = _scan(d, p, n)  # a composite p is reported before a bad n
    if not 1 <= n <= p:
        raise ValueError("period must lie in [1, p]")
    failures = [c for c, _, simple in bases if not _is_simple_root(d, n, p, c, simple)]
    return not failures, failures


def check_condition_star_star(
    d: int, p: int, max_period: int | None = None
) -> bool:
    """The simple-root condition over all exact periods arising in the census.

    ``max_period`` restricts which periods are examined; None means all of
    them (the mathematically complete check).  A bounded check reproduces
    survey computations that only examined small periods.
    """
    _check_max_period(max_period)
    return next(_star_star_failures(enumerate_pcf(d, p), max_period), None) is None


def condition_star_star_failures(
    d: int, p: int, max_period: int | None = None
) -> list[tuple[int, int]]:
    """The (c, period) witnesses violating the simple-root condition at p."""
    _check_max_period(max_period)
    return list(_star_star_failures(enumerate_pcf(d, p), max_period))


def _check_max_period(max_period: int | None) -> None:
    if max_period is not None and max_period < 1:
        raise ValueError("max period must be >= 1")


def _star_star_failures(
    census: PcfCensus, max_period: int | None
) -> Iterator[tuple[int, int]]:
    # lazy, so a yes/no check stops at the first failure
    for c, ptype in sorted(census.periodic.items()):
        if max_period is not None and ptype.period > max_period:
            continue
        simple = census._simple_roots.get(c)
        if not _is_simple_root(census.d, ptype.period, census.p, c, simple):
            yield c, ptype.period


@dataclass(frozen=True)
class CorrespondenceEntry:
    base_c: int
    period: int
    lift: LiftResult | None
    error: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "base_c": str(self.base_c),
            "period": self.period,
            "lift": None if self.lift is None else self.lift.to_json_dict(),
            "error": self.error,
        }


@dataclass(frozen=True)
class CorrespondenceReport:
    d: int
    p: int
    precision: int
    guaranteed: bool
    hypothesis: str
    entries: tuple[CorrespondenceEntry, ...]
    counts_by_period: dict[int, int]
    strictly_preperiodic_excluded: bool

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "p": str(self.p),
            "precision": self.precision,
            "guaranteed": self.guaranteed,
            "hypothesis": self.hypothesis,
            "entries": [e.to_json_dict() for e in self.entries],
            "counts_by_period": {str(n): k for n, k in sorted(self.counts_by_period.items())},
            "strictly_preperiodic_excluded": self.strictly_preperiodic_excluded,
        }


def correspondence_report(d: int, p: int, precision: int) -> CorrespondenceReport:
    """Lift every periodic parameter of F_p to its Z/p^N approximation.

    The correspondence is guaranteed one-to-one when p > d and the simple-root
    condition holds at every observed period; otherwise lifts are attempted
    best-effort and the report says so.  The Gleason discriminant adds
    nothing: at a base of exact period n, (f^n(0))' = G_{d,n}' times a unit,
    so a simple-root failure is a double root of G_{d,n} and p | disc(G_{d,n}).
    """
    census = enumerate_pcf(d, p)
    star_star = next(_star_star_failures(census, None), None) is None
    guaranteed = p > d and star_star
    if p <= d:
        hypothesis = f"residue characteristic {p} is not larger than the degree {d}"
    elif star_star:
        hypothesis = "simple-root condition holds at every observed period"
    else:
        hypothesis = "correspondence not guaranteed"
    entries = []
    for c, ptype in sorted(census.periodic.items()):
        try:
            lift = hensel_lift(d, ptype.period, p, c, precision)
            entries.append(CorrespondenceEntry(c, ptype.period, lift))
        except HenselHypothesisError as exc:
            entries.append(CorrespondenceEntry(c, ptype.period, None, error=str(exc)))
    return CorrespondenceReport(
        d=d,
        p=p,
        precision=precision,
        guaranteed=guaranteed,
        hypothesis=hypothesis,
        entries=tuple(entries),
        counts_by_period=census.periodic_count_by_period,
        strictly_preperiodic_excluded=p > d,
    )
