from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critorbit import (
    PeriodType,
    check_condition_star,
    check_condition_star_star,
    condition_star_star_failures,
    correspondence_report,
    discriminant_mod_p,
    enumerate_pcf,
    find_base,
    gleason_degree,
    gleason_poly,
    primes_up_to,
)
from critorbit import orbit, pcf

from oracles import _orbit_and_derivative, orbit_walk, period_type_bases

# (d, p) for d = 2, 3 with p < 200 and d = 4, 5 with p < 100
DEGREE_PRIME_PAIRS = [
    (d, p) for d, bound in ((2, 200), (3, 200), (4, 100), (5, 100))
    for p in primes_up_to(bound - 1)
]


class TestEnumeratePcf:
    def test_cubic_at_five(self):
        census = enumerate_pcf(3, 5)
        assert census.periodic == {
            0: PeriodType(0, 1),
            1: PeriodType(0, 4),
            4: PeriodType(0, 4),
            2: PeriodType(0, 2),
            3: PeriodType(0, 2),
        }
        assert census.preperiodic == {}
        assert census.periodic_count_by_period == {1: 1, 2: 2, 4: 2}

    def test_quadratic_at_two(self):
        census = enumerate_pcf(2, 2)
        assert census.periodic == {0: PeriodType(0, 1), 1: PeriodType(0, 2)}

    def test_quadratic_at_three(self):
        census = enumerate_pcf(2, 3)
        for c in range(3):
            tail, period = orbit_walk(2, c, 3)
            expected = PeriodType(tail, period)
            if tail == 0:
                assert census.periodic[c] == expected
            else:
                assert census.preperiodic[c] == expected

    def test_census_totals(self):
        # every residue is classified; nothing wanders in a finite field
        for d in (2, 3):
            for p in (2, 3, 5, 7, 11, 13, 31):
                census = enumerate_pcf(d, p)
                assert len(census.periodic) + len(census.preperiodic) == p


class TestConditionStar:
    def test_holds_at_five_period_three(self):
        assert check_condition_star(2, 5, 3) == (True, [])

    def test_fails_at_thirteen_period_five(self):
        ok, witnesses = check_condition_star(2, 13, 5)
        assert not ok
        assert witnesses == [3]

    def test_at_23_period_three_double_root(self):
        # c = 15 = -8 has exact period 3 and is a double root of G_{2,3} mod
        # 23, so the simple-root condition fails there even though the other
        # periodic parameter c = 14 = -9 is fine
        ok, witnesses = check_condition_star(2, 23, 3)
        assert not ok
        assert witnesses == [15]

    def test_range_validation(self):
        with pytest.raises(ValueError):
            check_condition_star(2, 5, 6)


class TestConditionStarStar:
    def test_fails_at_thirteen(self):
        assert not check_condition_star_star(2, 13)
        assert condition_star_star_failures(2, 13) == [(3, 5)]

    def test_holds_at_five(self):
        assert check_condition_star_star(2, 5)

    def test_holds_at_two(self):
        assert check_condition_star_star(2, 2)

    def test_unbounded_failures_first_50_primes(self):
        # the complete check over every arising period: exactly four of the
        # first 50 primes fail, the documented 13 among them; the failure at
        # 211 only shows at period 12
        failures = [p for p in primes_up_to(229) if not check_condition_star_star(2, p)]
        assert failures == [13, 23, 137, 211]

    def test_bounded_check_reproduces_small_period_surveys(self):
        # capping the examined period at 11 (the survey-computable range)
        # hides the period-12 failure at 211
        assert not check_condition_star_star(2, 137, max_period=11)
        assert check_condition_star_star(2, 211, max_period=11)
        assert not check_condition_star_star(2, 211, max_period=12)


class TestDiscCriterionConsistency:
    def test_clean_disc_implies_condition_star(self):
        # if p does not divide disc G_{d,n}, the simple-root condition holds
        # at period n (d = 2, 3; p < 200; period range kept polynomial-feasible)
        for d, max_n in ((2, 8), (3, 5)):
            for n in range(1, max_n + 1):
                poly = gleason_poly(d, n)
                for p in primes_up_to(199):
                    if p <= d or n > p:
                        continue
                    if discriminant_mod_p(poly, p) != 0:
                        ok, witnesses = check_condition_star(d, p, n)
                        assert ok, (d, n, p, witnesses)

    def test_star_star_failure_is_a_gleason_double_root(self):
        # at a base of exact period n, (f^n(0))' = G_{d,n}' times a unit, so
        # every simple-root failure makes p divide disc(G_{d,n})
        seen = 0
        for d, p in DEGREE_PRIME_PAIRS:
            for c, n in condition_star_star_failures(d, p):
                if gleason_degree(d, n) <= 128:
                    seen += 1
                    assert discriminant_mod_p(gleason_poly(d, n), p) == 0, (d, p, c, n)
        assert seen == 19


class TestCorrespondence:
    def test_guarantee_is_the_simple_root_condition(self):
        hypotheses = {
            "simple-root condition holds at every observed period",
            "correspondence not guaranteed",
        }
        for d, p in DEGREE_PRIME_PAIRS:
            report = correspondence_report(d, p, 2)
            assert report.guaranteed == (p > d and check_condition_star_star(d, p)), (d, p)
            small = f"residue characteristic {p} is not larger than the degree {d}"
            assert report.hypothesis in hypotheses | {small}, (d, p)

    def test_cubic_at_five(self):
        report = correspondence_report(3, 5, precision=4)
        assert report.guaranteed
        assert report.strictly_preperiodic_excluded
        assert len(report.entries) == 5
        assert report.counts_by_period == {1: 1, 2: 2, 4: 2}
        for entry in report.entries:
            assert entry.lift is not None
            lifted = entry.lift.lifted_value
            assert lifted.modulus == 5**4
            assert lifted.value % 5 == entry.base_c
            x = 0
            for _ in range(entry.period):
                x = (pow(x, 3, 5**4) + lifted.value) % 5**4
            assert x == 0

    def test_includes_16_above_one(self):
        report = correspondence_report(2, 5, precision=3)
        values = {e.base_c: e.lift.lifted_value.value for e in report.entries}
        assert values[1] == 16

    def test_three_lifts_each_base(self):
        report = correspondence_report(2, 3, precision=2)
        assert report.guaranteed
        for entry in report.entries:
            assert entry.lift is not None
            assert entry.lift.lifted_value.value % 3 == entry.base_c

    def test_not_guaranteed_at_thirteen(self):
        report = correspondence_report(2, 13, precision=2)
        assert not report.guaranteed
        errored = [e for e in report.entries if e.error is not None]
        assert errored and errored[0].base_c == 3
        assert all(e.lift is not None for e in report.entries if e.error is None)

    def test_small_prime_hypothesis(self):
        report = correspondence_report(2, 2, precision=2)
        assert not report.guaranteed
        assert not report.strictly_preperiodic_excluded

    def test_verdict_from_the_lifts_matches_the_census_check(self, monkeypatch):
        # the grid holds p <= d and primes with simple-root failures; the
        # report reads its verdict off its lifts, with no second census pass
        expected = {(d, p): check_condition_star_star(d, p) for d, p in DEGREE_PRIME_PAIRS}
        assert not all(expected.values()) and any(p <= d for d, p in expected)
        monkeypatch.setattr(pcf, "_star_star_failures", None)
        for (d, p), star_star in expected.items():
            report = correspondence_report(d, p, 2)
            if p <= d:
                hypothesis = f"residue characteristic {p} is not larger than the degree {d}"
            elif star_star:
                hypothesis = "simple-root condition holds at every observed period"
            else:
                hypothesis = "correspondence not guaranteed"
            assert (report.guaranteed, report.hypothesis) == (p > d and star_star, hypothesis)
            simple = all(e.lift is not None and e.lift.nu_derivative == 0
                         for e in report.entries)
            assert simple == star_star, (d, p)

    def test_a_double_root_that_lifts_fails_the_verdict(self, monkeypatch):
        # at d = 7, p = 19 the double root 14 of period 3 lifts, with
        # nu(F) = 3 and nu(F') = 1, while the other five do not; left alone
        # in the census it still voids the guarantee
        census = enumerate_pcf(7, 19)
        failures = condition_star_star_failures(7, 19)
        assert (14, 3) in failures
        for c, _ in failures:
            if c != 14:
                del census.periodic[c]
        monkeypatch.setattr(pcf, "enumerate_pcf", lambda d, p: census)
        report = correspondence_report(7, 19, 2)
        lift = next(e.lift for e in report.entries if e.base_c == 14)
        assert (lift.nu_value, lift.nu_derivative) == (3, 1)
        assert all(e.lift is not None for e in report.entries)
        assert not report.guaranteed
        assert report.hypothesis == "correspondence not guaranteed"


@pytest.mark.parametrize("d", [2, 3])
def test_condition_star_failures_are_the_period_n_star_star_failures(d):
    failing = 0
    for p in primes_up_to(260):
        star_star = condition_star_star_failures(d, p)
        failing += len(star_star)
        for n in sorted(set(range(1, 8)) | {n for _, n in star_star}):
            if n <= p:
                ok, failures = check_condition_star(d, p, n)
                assert failures == [c for c, m in star_star if m == n], (p, n)
                assert ok == (not failures)
    assert failing  # e.g. d = 2 fails at 13, 23, 137, 211 and 251


def _oracle_failures(d, p):
    """(c, n) for every c with 0 of exact period n that is not a simple root of
    f^n(0), by one plain walk per parameter."""
    failures = []
    for c in range(p):
        tail, n = orbit_walk(d, c, p)
        if tail == 0 and _orbit_and_derivative(d, c, p, n)[1] == 0:
            failures.append((c, n))
    return failures


class TestCensusByClass:
    """The census walks one c per class {u c : u^(d-1) = 1}, and in the
    permutation case (gcd(d, p - 1) = 1) walks back to 0 carrying the
    derivative; every row and verdict must be the per-parameter one."""

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(2, 8), p=st.sampled_from(primes_up_to(399)))
    # p = 2 and 3, p | d, and classes of 3, 4 and 6 parameters with failures
    @example(d=2, p=2)
    @example(d=3, p=2)
    @example(d=4, p=2)
    @example(d=6, p=3)
    @example(d=3, p=3)
    @example(d=5, p=5)
    @example(d=7, p=7)
    @example(d=4, p=43)
    @example(d=5, p=173)
    @example(d=7, p=223)
    def test_rows_and_failures_match_per_parameter_walks(self, d, p):
        census = enumerate_pcf(d, p)
        rows = {**census.periodic, **census.preperiodic}
        assert rows == {c: PeriodType(*orbit_walk(d, c, p)) for c in range(p)}
        expected = _oracle_failures(d, p)
        assert condition_star_star_failures(d, p) == expected
        assert condition_star_star_failures(d, p, max_period=3) == [
            (c, n) for c, n in expected if n <= 3
        ]
        periods = sorted({t.period for t in census.periodic.values()})
        for n in sorted(set(periods[:2]) | {n for _, n in expected}):
            ok, failures = check_condition_star(d, p, n)
            assert failures == [c for c, m in expected if m == n], n
            assert ok == (not failures)
            # the class rule keeps the scan ascending: the smallest base
            assert find_base(d, n, p) == min(c for c in census.periodic
                                             if census.periodic[c].period == n)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(2, 8), p=st.sampled_from(primes_up_to(399)), data=st.data())
    def test_sparse_and_shuffled_candidates(self, d, p, data):
        # construct's base search hands the scan a sparse list of Gleason
        # roots, in which a class may come in any order, or only in part
        chosen = sorted(data.draw(st.sets(st.integers(0, p - 1)), label="chosen"))
        shuffled = data.draw(st.permutations(chosen), label="shuffled")
        for candidates in (chosen, shuffled):
            rows = list(pcf._scan(d, p, candidates=candidates))
            assert [c for c, _, _ in rows] == candidates
            for c, ptype, simple in rows:
                tail, n = orbit_walk(d, c, p)
                assert ptype == PeriodType(tail, n), c
                if simple is not None:
                    assert simple == (_orbit_and_derivative(d, c, p, n)[1] != 0), c

    @pytest.mark.parametrize("d,p,walker", [
        (3, 809, "_return_walk"),  # p = 2 mod 3: x^3 + c permutes F_p
        (3, 811, "period_type_mod"),
        (2, 809, "period_type_mod"),
        (4, 43, "period_type_mod"),
        (5, 173, "_return_walk"),
        (7, 223, "_return_walk"),
    ])
    def test_one_walk_per_class(self, monkeypatch, d, p, walker):
        # c = 0 alone, and (p - 1) / gcd(d - 1, p - 1) classes of nonzero c:
        # about half the parameters of a cubic census, all of a quadratic one
        calls = []
        real = getattr(pcf, walker)
        monkeypatch.setattr(pcf, walker, lambda *args: calls.append(args) or real(*args))
        enumerate_pcf(d, p)
        assert len(calls) == 1 + (p - 1) // gcd(d - 1, p - 1)

    @pytest.mark.parametrize("d,p,n", [
        (2, 809, 12), (3, 811, 10), (4, 43, 8),
        (3, 809, 10), (5, 173, 34),  # x^d + c permutes F_p
    ])
    def test_given_n_one_first_zero_walk_per_class(self, monkeypatch, d, p, n):
        # in and out of the permutation case a scan given n builds no period type
        calls = []
        monkeypatch.setattr(pcf, "period_type_mod", None)
        monkeypatch.setattr(pcf, "_first_zero",
                            lambda *args: calls.append(args) or orbit._first_zero(*args))
        check_condition_star(d, p, n)
        assert len(calls) == 1 + (p - 1) // gcd(d - 1, p - 1)
        assert all(args[3] == n for args in calls)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(2, 6), p=st.sampled_from(primes_up_to(700)), data=st.data())
    def test_given_n_matches_the_period_type_filter(self, d, p, data):
        # n from the census (bases exist, n at most the orbit's tail + period)
        # or anywhere in [1, p] (mostly beyond it, where the walk closes its
        # cycle before step n)
        periods = sorted({orbit_walk(d, c, p)[1] for c in range(p)})
        n = data.draw(st.one_of(st.sampled_from(periods), st.integers(1, p)), label="n")
        bases = period_type_bases(d, p, n)
        assert find_base(d, n, p) == (bases[0] if bases else None)
        failures = [c for c in bases if _orbit_and_derivative(d, c, p, n)[1] == 0]
        assert check_condition_star(d, p, n) == (not failures, failures)

    def test_permutation_case_runs_no_second_derivative_walk(self, monkeypatch):
        monkeypatch.setattr(pcf, "_derivative_walk", None)
        assert condition_star_star_failures(3, 809) == _oracle_failures(3, 809)

    def test_given_n_runs_no_return_walk(self, monkeypatch):
        # given n, the permutation case stops each walk at the first zero and
        # walks the derivative at the bases alone
        calls = []
        monkeypatch.setattr(pcf, "_return_walk", lambda *args: calls.append(args))
        assert check_condition_star(5, 173, 34) == (False, [20, 43, 130, 153])
        assert not calls
