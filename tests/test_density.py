import concurrent.futures
import os
from fractions import Fraction
from functools import partial
from math import factorial, prod
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critorbit import (
    density_lower_bound,
    density_report,
    empirical_density,
    fpp_symmetric,
    gleason_degree,
    limit_error_bound,
    primes_up_to,
)
from critorbit import density
from critorbit.density import CONDITIONAL_NOTE, density_scan_rows
from critorbit.gleason import IntPoly, gleason_discriminant, gleason_poly, has_root_mod_p
from oracles import fraction_sum_fpp

_BATCH_PRIMES = primes_up_to(density._BATCH_LIMIT)

# (d, n) whose Gleason polynomial has degree <= 120; (4, 5) and (5, 5), of
# degrees 255 and 624, take a second or more for the discriminant alone
_SCAN_CASES = [
    (d, n) for d in range(2, 6) for n in range(1, 6) if gleason_degree(d, n) <= 120
]


class TestFppSymmetric:
    def test_degree_one(self):
        assert fpp_symmetric(1) == 1

    def test_degree_three(self):
        assert fpp_symmetric(3) == Fraction(2, 3)

    def test_degree_six(self):
        assert fpp_symmetric(6) == Fraction(91, 144)

    def test_alternating_series_error(self):
        # |fpp(D) - limit| <= 1/(D+1)!; fpp(40) stands in for the limit with
        # error far below every bound tested
        proxy = fpp_symmetric(40)
        for degree in range(1, 21):
            assert abs(fpp_symmetric(degree) - proxy) <= Fraction(
                1, factorial(degree + 1)
            )

    def test_monotone_absolute_error(self):
        proxy = fpp_symmetric(40)
        errors = [abs(fpp_symmetric(k) - proxy) for k in range(1, 20)]
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_matches_the_sum_of_fractions(self):
        for degree in [*range(1, 41), 63, 100, 255, 300]:
            assert fpp_symmetric(degree) == fraction_sum_fpp(degree), degree

    @pytest.mark.parametrize("degree", [0, -3])
    def test_degree_below_one_rejected(self, degree):
        with pytest.raises(ValueError, match="degree must be >= 1"):
            fpp_symmetric(degree)


class TestLowerBound:
    def test_quadratic_period_three(self):
        assert density_lower_bound(2, 3) == Fraction(1, 6)

    def test_quadratic_period_one(self):
        assert density_lower_bound(2, 1) == 1

    def test_cubic_period_three(self):
        assert density_lower_bound(3, 3) == Fraction(1, 40320)


class TestLimitErrorBound:
    def test_period_three(self):
        assert limit_error_bound(3).bound == Fraction(1, 24)

    def test_period_four(self):
        assert limit_error_bound(4).bound == Fraction(1, 5040)

    def test_period_two(self):
        assert limit_error_bound(2).bound == Fraction(1, 2)

    def test_coarse_bound_dominates(self):
        for n in range(2, 16):
            got = limit_error_bound(n)
            assert got.bound <= got.coarse

    def test_degree_growth(self):
        for n in range(2, 21):
            assert gleason_degree(2, n) >= 2 ** (n - 2)


class TestEmpiricalDensity:
    def test_period_one_always_rooted(self):
        result = empirical_density(2, 1, 100)
        assert result.fraction == 1
        assert result.skipped == (2,)  # p | d bucket

    def test_period_two_always_rooted(self):
        result = empirical_density(2, 2, 100)
        assert result.fraction == 1

    def test_period_three_near_two_thirds(self):
        result = empirical_density(2, 3, 3000)
        assert abs(result.fraction - Fraction(2, 3)) < Fraction(5, 100)
        assert 23 in result.skipped

    def test_deterministic(self):
        assert empirical_density(2, 3, 500) == empirical_density(2, 3, 500)

    def test_parallel_merge_matches(self):
        assert empirical_density(2, 4, 2000, jobs=2) == empirical_density(2, 4, 2000)

    def test_scan_rows(self):
        rows = density_scan_rows(2, 3, 50)
        assert (5, True) in rows
        assert (7, True) in rows  # c = 3 gives period 3 mod 7
        assert all(p not in (2, 23) for p, _ in rows)

    @pytest.mark.parametrize("d,n,limit", [(2, 3, 400), (2, 5, 600), (3, 3, 300)])
    def test_scan_rows_agree_with_counts(self, d, n, limit):
        rows = density_scan_rows(d, n, limit)
        hits = sum(1 for _, has_root in rows if has_root)
        missing = tuple(sorted(set(primes_up_to(limit)) - {p for p, _ in rows}))
        for jobs in (1, 2):
            result = empirical_density(d, n, limit, jobs=jobs)
            assert (result.hits, result.total, result.skipped) == (hits, len(rows), missing)

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            empirical_density(2, 3, 1)


class TestBatchedRootTest:
    """Primes below ``_BATCH_LIMIT`` share one product of G(c); lowered to 50,
    it splits every scan below 400 into a batched and a per-prime part."""

    @given(case=st.sampled_from(_SCAN_CASES), limit=st.integers(2, 400))
    @example(case=(2, 1), limit=100)  # G(0) = 0: the product is 0
    @example(case=(3, 5), limit=400)  # degree 80
    @example(case=(2, 3), limit=47)  # the batch alone, up to a prime limit
    @example(case=(2, 3), limit=53)  # 47 batched, 53 per prime
    @example(case=(3, 2), limit=2)  # odd d at p = 2 alone: c = 1 = -1
    @example(case=(3, 2), limit=3)
    @example(case=(5, 1), limit=2)  # G = c, an odd polynomial
    @settings(max_examples=30, deadline=None)
    def test_scan_matches_the_per_prime_root_test(self, case, limit):
        d, n = case
        poly = gleason_poly(d, n)
        disc = gleason_discriminant(d, n)
        primes = primes_up_to(limit)
        expected = [
            (p, None if d % p == 0 or disc % p == 0 else has_root_mod_p(poly, p))
            for p in primes
        ]
        half = len(primes) // 2
        with mock.patch.object(density, "_BATCH_LIMIT", 50):
            assert density._scan(d, n, primes) == expected
            # any split of the primes, each part with its own batch
            chunks = density._scan(d, n, primes[:half]) + density._scan(d, n, primes[half:])
            assert chunks == expected
            skipped = tuple(p for p, hit in expected if hit is None)
            hits = sum(1 for _, hit in expected if hit)
            for jobs in (1, 2):
                result = empirical_density(d, n, limit, jobs=jobs)
                assert (result.hits, result.skipped) == (hits, skipped)

    @given(
        x=st.integers(-(10**40), 10**40),
        primes=st.lists(st.sampled_from(primes_up_to(300)), unique=True, max_size=40),
    )
    @example(x=0, primes=[2, 3, 5, 7, 11])
    @example(x=2 * 3 * 5 * 7 * 11 * 13, primes=[13, 2, 7, 17])
    @settings(max_examples=200, deadline=None)
    def test_remainder_tree_matches_trial_division(self, x, primes):
        assert density._dividing_primes(x, primes) == {p for p in primes if x % p == 0}

    @given(k=st.integers(1, len(_BATCH_PRIMES)), data=st.data())
    @example(k=1, data=None)  # Q = 2
    @example(k=len(_BATCH_PRIMES), data=None)  # the primorial of 2^14
    @settings(max_examples=40, deadline=None)
    def test_barrett_reduction_matches_remainder(self, k, data):
        q = prod(_BATCH_PRIMES[:k])
        reduce = density._barrett(q)
        xs = [0, 1, q - 1, q, q * q - 1]
        if data is not None:
            xs += data.draw(st.lists(st.integers(0, q * q - 1), min_size=1, max_size=5))
        assert [reduce(x) for x in xs] == [x % q for x in xs]

    @pytest.mark.parametrize("d", [3, 5, 7])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_odd_degree_gleason_polynomials_are_even_or_odd(self, d, n):
        coeffs = gleason_poly(d, n).coeffs
        sign = -1 if n == 1 else 1  # G(-c) = sign * G(c)
        assert [(-1) ** i * a for i, a in enumerate(coeffs)] == [sign * a for a in coeffs]

    @pytest.mark.parametrize("d,n,limit", [(3, 3, 400), (5, 2, 401), (3, 2, 2),
                                           (2, 3, 400), (4, 2, 401)])
    def test_batch_evaluates_half_the_residues_for_odd_degree(self, d, n, limit):
        primes = primes_up_to(limit)
        poly, calls = gleason_poly(d, n), []
        evaluate = IntPoly.evaluate
        with mock.patch.object(IntPoly, "evaluate",
                               lambda self, x: calls.append(x) or evaluate(self, x)):
            rooted = density._rooted_primes(poly, primes)
        assert rooted == {p for p in primes if has_root_mod_p(poly, p)}
        if d % 2:
            assert len(calls) <= primes[-1] // 2 + 1
        else:
            assert len(calls) == primes[-1]


class _FakePool:
    """Stands in for ProcessPoolExecutor: maps in this process and records
    its worker count and the primes it was handed in ``built``."""

    def __init__(self, built, max_workers):
        self.max_workers, self.mapped = max_workers, []
        built.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        assert chunksize >= 1
        self.mapped += items
        return map(fn, items)


@pytest.fixture
def fake_pool(monkeypatch):
    """A fake executor on a host with ``cpus`` usable CPUs (default 8)."""
    built = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", partial(_FakePool, built))

    def on_cpus(cpus=8):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        return built

    return on_cpus


class TestPooledTail:
    """Only primes from ``_BATCH_LIMIT`` up that divide neither d nor disc(G)
    reach the pool; G, disc(G) and the batch are built once, in this process."""

    @pytest.mark.parametrize("d,n,limit,batch_limit", [
        (3, 3, 400, 200),  # 229 divides disc(G_{3,3})
        (2, 4, 3000, 2000),  # 2551 divides disc(G_{2,4})
        (2, 3, 17000, density._BATCH_LIMIT),
    ])
    def test_pool_receives_only_the_tail(self, fake_pool, d, n, limit, batch_limit):
        built = fake_pool()
        disc = gleason_discriminant(d, n)
        primes = primes_up_to(limit)
        tail = [p for p in primes if p >= batch_limit and d % p and disc % p]
        with mock.patch.object(density, "_BATCH_LIMIT", batch_limit):
            serial = density._scan(d, n, primes)
            assert built == []
            with (
                mock.patch.object(density, "gleason_poly", wraps=gleason_poly) as build_g,
                mock.patch.object(density, "gleason_discriminant",
                                  wraps=gleason_discriminant) as build_disc,
                mock.patch.object(density, "_rooted_primes",
                                  wraps=density._rooted_primes) as batch,
            ):
                assert density._scan(d, n, primes, 2) == serial
        assert (build_g.call_count, build_disc.call_count, batch.call_count) == (1, 1, 1)
        assert [(pool.max_workers, pool.mapped) for pool in built] == [(2, tail)]

    @pytest.mark.parametrize("d,n,limit,cpus", [
        (2, 3, 16000, 8),  # no prime from 2^14 up
        (2, 4, 16440, 8),  # a 5-prime tail, below 4 x 2 workers
        (2, 3, 17000, 1),  # one usable CPU
    ])
    def test_no_pool_for_a_short_tail_or_one_cpu(self, fake_pool, d, n, limit, cpus):
        built = fake_pool(cpus)
        primes = primes_up_to(limit)
        assert density._scan(d, n, primes, 2) == density._scan(d, n, primes)
        assert built == []

    def test_workers_are_capped_at_the_usable_cpus(self, fake_pool, monkeypatch):
        built = fake_pool(8)
        empirical_density(2, 3, 20000, jobs=2000)  # 362 tail primes, at least 4 x 8
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        empirical_density(2, 3, 20000, jobs=2000)
        assert [pool.max_workers for pool in built] == [8, 3]

    @pytest.mark.parametrize("d,n,limit", [(2, 3, 17000), (3, 3, 20000)])
    def test_two_real_workers_match_the_serial_scan(self, d, n, limit):
        primes = primes_up_to(limit)
        assert density._scan(d, n, primes, 2) == density._scan(d, n, primes)


class TestDensityReport:
    def test_fields_and_labels(self):
        report = density_report(2, 3, 200)
        assert report.degree == 3
        assert report.conditional_density == Fraction(2, 3)
        assert report.conditional_note == CONDITIONAL_NOTE
        assert report.lower_bound == Fraction(1, 6)
        assert report.error_bound_vs_limit == Fraction(1, 24)
        doc = report.to_json_dict()
        assert doc["conditional_note"] == CONDITIONAL_NOTE
        assert doc["empirical"]["skipped_primes"] == ["2", "23"]

    def test_cubic_report_has_no_degree_two_bound(self):
        report = density_report(3, 2, 100)
        assert report.error_bound_vs_limit is None
        assert 0 < report.lower_bound <= report.conditional_density <= 1
