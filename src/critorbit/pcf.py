"""Census of critically finite parameters of x^d + c over F_p, the simple-root
conditions behind the lifting correspondence, and the lifted census in Z/p^N.

Over F_p every parameter is critically finite; the census records which c have
0 periodic (these are the ones that lift) and which strictly preperiodic.  The
correspondence with Z/p^N parameters is one-to-one when p > d and every
periodic parameter is a simple root of its orbit-value polynomial.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .arith import Residue, is_prime
from .errors import HenselHypothesisError
from .gleason import (
    _GLEASON_FEASIBLE_DEGREE,
    discriminant_mod_p,
    gleason_degree,
    gleason_poly,
)
from .lifting import LiftResult, hensel_lift
from .orbit import PeriodType, _derivative_walk, period_type_mod


@dataclass
class PcfCensus:
    """Period type of 0 for every c in F_p, split by periodic vs preperiodic."""

    d: int
    p: int
    periodic: dict[int, PeriodType] = field(default_factory=dict)
    preperiodic: dict[int, PeriodType] = field(default_factory=dict)

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
          candidates: Iterable[int] | None = None) -> Iterator[tuple[int, PeriodType]]:
    """(c, period type of 0) for the candidates c in F_p, all of F_p by
    default; given n, only the c where 0 has exact period n.  p is checked at
    once and the candidates are walked lazily."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    rows = ((c, period_type_mod(d, Residue(p, 1, c))[0])
            for c in (range(p) if candidates is None else candidates))
    if n is None:
        return rows
    return ((c, t) for c, t in rows if t.tail == 0 and t.period == n)


def _is_simple_root(d: int, n: int, p: int, c: int) -> bool:
    """Whether c is a simple root of f^n(0) mod p, as a polynomial in c."""
    return _derivative_walk(d, c, p, n)[1] != 0


def enumerate_pcf(d: int, p: int) -> PcfCensus:
    """Direct orbit computation for every parameter c in F_p."""
    census = PcfCensus(d=d, p=p)
    for c, ptype in _scan(d, p):
        if ptype.tail == 0:
            census.periodic[c] = ptype
        else:
            census.preperiodic[c] = ptype
    return census


def check_condition_star(d: int, p: int, n: int) -> tuple[bool, list[int]]:
    """Whether every c in F_p with critical period exactly n is a simple root
    of the n-th orbit-value polynomial; returns the failing parameters."""
    bases = _scan(d, p, n)  # a composite p is reported before a bad n
    if not 1 <= n <= p:
        raise ValueError("period must lie in [1, p]")
    failures = [c for c, _ in bases if not _is_simple_root(d, n, p, c)]
    return not failures, failures


def check_condition_star_star(
    d: int, p: int, max_period: int | None = None
) -> bool:
    """The simple-root condition over all exact periods arising in the census.

    ``max_period`` restricts which periods are examined; None means all of
    them (the mathematically complete check).  A bounded check reproduces
    survey computations that only examined small periods.
    """
    return next(_star_star_failures(enumerate_pcf(d, p), max_period), None) is None


def condition_star_star_failures(
    d: int, p: int, max_period: int | None = None
) -> list[tuple[int, int]]:
    """The (c, period) witnesses violating the simple-root condition at p."""
    return list(_star_star_failures(enumerate_pcf(d, p), max_period))


def _star_star_failures(
    census: PcfCensus, max_period: int | None
) -> Iterator[tuple[int, int]]:
    # lazy, so a yes/no check stops at the first failure
    for c, ptype in sorted(census.periodic.items()):
        if max_period is not None and ptype.period > max_period:
            continue
        if not _is_simple_root(census.d, ptype.period, census.p, c):
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


def _disc_clean_for_all_observed(census: PcfCensus) -> bool:
    for n in census.observed_periods():
        if gleason_degree(census.d, n) > _GLEASON_FEASIBLE_DEGREE:
            return False
        g = gleason_poly(census.d, n)
        if g.degree >= 1 and discriminant_mod_p(g, census.p) == 0:
            return False
    return True


def correspondence_report(d: int, p: int, precision: int) -> CorrespondenceReport:
    """Lift every periodic parameter of F_p to its Z/p^N approximation.

    The correspondence is guaranteed one-to-one when p > d and either the
    simple-root condition holds at every observed period or p divides none of
    the relevant Gleason discriminants; otherwise lifts are attempted
    best-effort and the report says so.
    """
    census = enumerate_pcf(d, p)
    star_star = next(_star_star_failures(census, None), None) is None
    guaranteed = p > d and (star_star or _disc_clean_for_all_observed(census))
    if p <= d:
        hypothesis = f"residue characteristic {p} is not larger than the degree {d}"
    elif star_star:
        hypothesis = "simple-root condition holds at every observed period"
    elif guaranteed:
        hypothesis = "p divides no Gleason discriminant at the observed periods"
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
