import math
import re
import sys
from copy import copy
from itertools import tee

import pytest

from critorbit import (
    CertificateEntry,
    MaximalityCertificate,
    RationalParam,
    SizeGuardError,
    count_primitive_primes,
    exact_iterate,
    factorize,
    height,
    maximality_certificate,
    rho_upper_bound,
    rho_upper_bound_general,
    verify_certificate,
)
from critorbit import arith, bounds
from critorbit.arith import Factorization
from critorbit.bounds import euler_phi
from critorbit.orbit import classify_integer_param
import oracles
from oracles import per_iterate_certificate
from test_acceptance import C29, PRIMES_29


def published_valid_entries() -> tuple[CertificateEntry, ...]:
    """The 27 entries of the published 29-prime example that verify (2..28)."""
    cert = maximality_certificate(
        2, C29, 29, witnesses=dict(enumerate(PRIMES_29, start=1))
    )
    return tuple(e for e in cert.entries if e.valid)

C52 = 24351981847787737533052341852056330671894786203451391


class TestHeight:
    def test_fraction(self):
        assert height(RationalParam(3, 2)) == 3

    def test_negative_integer(self):
        assert height(-7) == 7

    def test_zero(self):
        assert height(0) == 1


class TestRhoUpperBound:
    def test_minus_three(self):
        assert rho_upper_bound(2, 2, -3) == pytest.approx(2 * math.log2(3))

    def test_unit_parameter(self):
        assert rho_upper_bound(2, 3, 1) == pytest.approx(3.0)

    def test_pcf_rejected(self):
        with pytest.raises(ValueError, match="infinite-orbit"):
            rho_upper_bound(2, 2, -2)
        with pytest.raises(ValueError, match="infinite-orbit"):
            rho_upper_bound(4, 3, -1)

    def test_odd_degree_mirror(self):
        assert rho_upper_bound(3, 2, -5) == pytest.approx(rho_upper_bound(3, 2, 5))

    def test_rational_branches(self):
        # -2 < c < -2^(1/3) for d = 4: pick c = -3/2
        value = rho_upper_bound(4, 2, RationalParam(-3, 2))
        assert value == pytest.approx(4 * (3 + 1) - 1)
        # -2^(1/3) < c < 0: pick c = -1/2
        value = rho_upper_bound(4, 2, RationalParam(-1, 2))
        assert value == pytest.approx(3 * 1 + 0)
        # 0 < c < 1
        value = rho_upper_bound(2, 3, RationalParam(1, 2))
        assert value == pytest.approx(3 * (1 + 1) + 0)

    def test_general_fallback_dominates_cases(self):
        for c in (RationalParam(5), RationalParam(-7, 3), RationalParam(2, 9)):
            for n in (1, 2, 3):
                assert rho_upper_bound_general(2, n, c) >= 0

    def test_huge_parameter_logs(self):
        # bit-length fallback keeps log2 finite for giant parameters
        value = rho_upper_bound(2, 2, 10**500 + 7)
        assert value == pytest.approx(2 * (1 + 500 * math.log2(10)), rel=1e-3)

    @pytest.mark.parametrize("bound", [rho_upper_bound, rho_upper_bound_general])
    @pytest.mark.parametrize("d,n,c", [
        (2, 1025, 1),  # 2^1024 passes the float range: once an OverflowError
        (2, 1024, 3),  # 2^1023 * (1 + log2 3) is infinite: once printed as Infinity
        (3, 10**8, 1),  # 3^(10^8 - 1) was built exactly, and never finished
        (3, 10**18, RationalParam(-7, 3)),
    ])
    def test_bounds_beyond_the_float_range_are_refused(self, bound, d, n, c):
        with pytest.raises(SizeGuardError, match=rf"^upper bound at scale {d}\^{n - 1} exceeds"):
            bound(d, n, c)

    @pytest.mark.parametrize("bound", [rho_upper_bound, rho_upper_bound_general])
    @pytest.mark.parametrize("d,n", [(1, 5), (0, 3), (-3, 10**6), (2, 0)])
    def test_degree_below_two_or_index_below_one_is_rejected(self, bound, d, n):
        # the general bound once answered d = 1 and n = 0, and at d = -3 the
        # size test's log10 raised "math domain error"
        with pytest.raises(ValueError, match="^need d >= 2 and n >= 1$"):
            bound(d, n, 3)


class TestCountPrimitivePrimes:
    def test_minus_three_at_two(self):
        # a_2 = 6 = 2 * 3 and 3 already divides a_1
        assert count_primitive_primes(2, -3, 2) == (1, True)

    def test_unit_at_four(self):
        # a_4 = 26 = 2 * 13 and 2 divides a_2
        assert count_primitive_primes(2, 1, 4) == (1, True)

    def test_unit_at_three(self):
        assert count_primitive_primes(2, 1, 3) == (1, True)

    def test_first_iterate_counts_all_factors(self):
        for c in (6, -15, 30, 7):
            count, complete = count_primitive_primes(2, c, 1)
            assert complete
            assert count == len(factorize(abs(c)).factors)

    def test_bound_dominates_brute_force(self):
        for d in (2, 3):
            for c in range(-30, 31, 7):
                if c in (0, -1, -2):
                    continue
                for n in (1, 2, 3, 4):
                    count, _ = count_primitive_primes(
                        d, c, n, trial_limit=10**5, rho_iterations=10**4
                    )
                    assert count <= rho_upper_bound(d, n, c) + 1e-9, (d, c, n)


class TestIterateHeightSandwich:
    def test_even_degree_negative_parameters(self):
        # log2|c| <= log2|f^n(0)| <= d^(n-1) log2|c| for c <= -2, d even
        for d in (2, 4):
            for c in (-2, -3, -5):
                for n in (1, 2, 3, 4):
                    value, _ = exact_iterate(d, c, n)
                    low = math.log2(abs(c))
                    high = d ** (n - 1) * math.log2(abs(c))
                    assert low <= math.log2(abs(value)) <= high + 1e-9, (d, c, n)


class TestMaximalityCertificate:
    def test_small_complete_certificate(self):
        # c = 5: a_1 = 5 (witness 5), a_2 = 30 (witness 3; 2 divides d)
        cert = maximality_certificate(2, 5, 2)
        assert cert.complete
        assert [(e.n, e.p, e.valuation) for e in cert.entries] == [(1, 5, 1), (2, 3, 1)]
        assert cert.neg_c_is_square is False
        assert cert.claimed_order_exponent == 3
        assert cert.to_json_dict()["claimed_order"]["decimal"] == "8"

    @pytest.mark.parametrize(
        "d,m,c",
        [(2, 1, 3), (2, 1, 5), (2, 2, 5), (2, 2, 6), (3, 1, 2), (3, 1, -5),
         (3, 1, 7), (4, 1, 3), (4, 1, 5), (4, 1, -7), (5, 1, 2), (5, 1, 3),
         (5, 1, 6)],
    )
    def test_claimed_order_is_the_galois_order(self, d, m, c):
        # the splitting field of f^m(x) = x^d + c iterated m times has order
        # phi(d) * d^((d^m - 1)/(d - 1)) when the certificate is complete
        sympy = pytest.importorskip("sympy")
        from sympy.polys.numberfields.galoisgroups import galois_group

        cert = maximality_certificate(d, c, m, scan_budget=200)
        assert cert.complete
        x = sympy.Symbol("x")
        f = x
        for _ in range(m):
            f = f**d + c
        group, _ = galois_group(sympy.Poly(f, x), by_name=False)
        order = cert.to_json_dict()["claimed_order"]
        assert int(order["decimal"]) == group.order()
        assert order["exponent"] == str(cert.claimed_order_exponent)

    def test_degree_one_certificate_is_rejected(self):
        # its claimed order would divide by d - 1 = 0
        entry = CertificateEntry(
            n=1, p=3, valuation=1, primitive=True,
            valuation_coprime_to_degree=True, prime_coprime_to_degree=True,
        )
        with pytest.raises(ValueError, match="degree must be >= 2"):
            MaximalityCertificate(
                d=1, c=3, m=1, entries=(entry,), missing=(), neg_c_is_square=None
            )

    def test_degree_prime_witness_is_invalid(self):
        # a_1 = 2 has only the prime 2, which divides d, so no valid witness
        cert = maximality_certificate(2, 2, 1, witnesses={1: 2})
        entry = cert.entries[0]
        assert entry.primitive and entry.valuation == 1
        assert not entry.prime_coprime_to_degree
        assert not entry.valid
        assert not cert.complete
        assert cert.to_json_dict()["claimed_order"] is None

    def test_even_valuation_witness_is_invalid(self):
        # 5^8 exactly divides f^3(0) of the reference constant: not coprime to 2
        cert = maximality_certificate(2, C52, 3, witnesses={1: 37, 2: 3, 3: 5})
        by_n = {e.n: e for e in cert.entries}
        assert by_n[3].valuation == 8
        assert not by_n[3].valuation_coprime_to_degree
        assert not cert.complete

    def test_reference_constant_with_searched_witnesses(self):
        cert = maximality_certificate(2, C52, 4)
        assert cert.complete
        by_n = {e.n: (e.p, e.valuation) for e in cert.entries}
        assert by_n[1] == (37, 1)
        assert by_n[2] == (3, 17)  # 2^29 is skipped: 2 divides d
        assert by_n[3] == (17, 1)  # 5^8 is skipped (even exponent); 17 | a_3 wins
        assert by_n[4] == (13, 21)
        assert cert.claimed_order_exponent == 2**4 - 1

    def test_reference_constant_with_pinned_witnesses(self):
        # the engineered 19^3 at n = 3 also certifies, when pinned
        cert = maximality_certificate(
            2, C52, 4, witnesses={1: 37, 2: 3, 3: 19, 4: 13}
        )
        assert cert.complete
        by_n = {e.n: (e.p, e.valuation) for e in cert.entries}
        assert by_n[3] == (19, 3)

    def test_verify_round_trip(self):
        cert = maximality_certificate(2, 5, 2)
        assert verify_certificate(cert)

    def test_verify_rejects_tampering(self):
        from critorbit import CertificateEntry, MaximalityCertificate

        bogus = MaximalityCertificate(
            d=2,
            c=5,
            m=1,
            entries=(
                CertificateEntry(
                    n=1,
                    p=5,
                    valuation=2,
                    primitive=True,
                    valuation_coprime_to_degree=True,
                    prime_coprime_to_degree=True,
                ),
            ),
            missing=(),
            neg_c_is_square=False,
        )
        assert not verify_certificate(bogus)

    def test_verify_rejects_uncovered_iterates(self):
        # iterates 1 and 29 have no witness and are not listed as missing
        entries = published_valid_entries()
        assert [e.n for e in entries] == list(range(2, 29))
        cert = MaximalityCertificate(
            d=2, c=C29, m=29, entries=entries, missing=(), neg_c_is_square=False
        )
        assert not cert.complete
        assert cert.claimed_order_exponent is None
        assert not verify_certificate(cert)

    def test_verify_rejects_raised_m(self):
        cert = maximality_certificate(2, 5, 3)
        assert verify_certificate(cert)
        raised = cert._replace(m=12)
        assert not raised.complete
        assert raised.to_json_dict()["claimed_order"] is None
        assert not verify_certificate(raised)

    def test_verify_rejects_duplicated_iterate(self):
        cert = maximality_certificate(2, 5, 2)
        doubled = cert._replace(m=3, entries=cert.entries + (cert.entries[1],))
        assert all(e.valid for e in doubled.entries)
        assert not doubled.complete
        assert not verify_certificate(doubled)

    def test_verify_rejects_iterate_beyond_m(self):
        cert = maximality_certificate(2, 5, 2)
        lowered = cert._replace(m=1)
        assert not lowered.complete
        assert not verify_certificate(lowered)

    def test_verify_rejects_wrong_square_note(self):
        cert = maximality_certificate(2, 5, 2)
        assert not verify_certificate(cert._replace(neg_c_is_square=True))
        assert not verify_certificate(cert._replace(neg_c_is_square=None))

    def test_missing_recorded_not_raised(self):
        # a_1 = 4 = 2^2: only prime divides d; a gap is recorded
        cert = maximality_certificate(2, 4, 1, scan_budget=50)
        assert cert.missing == (1,)
        assert not cert.complete

    def test_square_note(self):
        cert = maximality_certificate(2, -4, 1, scan_budget=10)
        assert cert.neg_c_is_square is True

    @pytest.mark.parametrize("d,c,reason", [
        (2, 0, "c=0"), (3, 0, "c=0"),
        (2, -1, "c=-1 & d even"), (4, -1, "c=-1 & d even"),
        (2, -2, "c=-2 & d=2"),
    ])
    def test_critically_finite_parameter_is_refused_before_any_search(
            self, monkeypatch, d, c, reason):
        # c = -2 at d = 2 once scanned the whole budget for every iterate
        # (a_n = 2 for n >= 2) and c = -1 at d = 2 scanned it before a_2 = 0
        for name in ("_prime_factors", "_first_zero", "_entry_for"):
            monkeypatch.setattr(bounds, name, None)
        with pytest.raises(ValueError, match=f"{re.escape(reason)} is critically finite"):
            maximality_certificate(d, c, 3)
        with pytest.raises(ValueError, match="critically finite"):
            maximality_certificate(d, c, 1, witnesses={1: 3})

    @pytest.mark.parametrize("d,c", [(3, -1), (3, -2), (4, -2)])
    def test_wandering_neighbours_of_the_families_are_certified(self, d, c):
        cert = maximality_certificate(d, c, 2, scan_budget=50)
        assert sorted([e.n for e in cert.entries] + list(cert.missing)) == [1, 2]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
def test_witness_search_sizes_a_n_under_the_default_int_to_str_limit(monkeypatch):
    # a_14 at c = 3 has 4,439 digits; sizing it by its decimal string raised
    # ValueError under the interpreter's default limit, which the CLI lifts
    # trial division finds nothing, so the rho stage sees every a_n
    budgets = []

    def factorize_stub(x, trial_limit, rho_iterations):
        budgets.append(rho_iterations)
        return Factorization(factors=(), cofactor=x, complete=False)

    monkeypatch.setattr(bounds, "_trial_divide", lambda x, trial_limit: ({}, x))
    monkeypatch.setattr(bounds, "factorize", factorize_stub)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # cli.main lifts it for the whole process
    try:
        # the other iterates are pinned, so a_14 and then a_3 alone are factored
        cert = maximality_certificate(
            2, 3, 14, witnesses={n: 3 for n in range(1, 14)}, scan_budget=0
        )
        assert cert.missing == (14,)
        cert = maximality_certificate(2, 3, 3, witnesses={1: 3, 2: 3}, scan_budget=0)
        assert cert.missing == (3,)
    finally:
        sys.set_int_max_str_digits(saved)
    # rho only below 120 digits: none for a_14, the full budget for a_3 = 147
    assert budgets == [0, arith._DEFAULT_RHO_BUDGET]


def test_witness_search_skips_rho_when_a_trial_prime_is_a_witness(monkeypatch):
    # a_7 at c = 13 has 73 digits, so rho would get its full budget; the
    # witness 29 is found by trial division first, as are those of a_1..a_6
    def no_rho(n, max_iterations):
        raise AssertionError("rho ran")

    monkeypatch.setattr(arith, "_brent_rho", no_rho)
    entry = maximality_certificate(2, 13, 7, scan_budget=0).entries[-1]
    assert (entry.n, entry.p, entry.valid) == (7, 29, True)


@pytest.mark.parametrize("d,m", [(2, 7), (3, 5), (5, 4)])
def test_certificate_matches_the_two_loop_search(monkeypatch, d, m):
    # c = 1 has a_1 = 1, so iterate 1 has no prime to walk; budgets 0 and 1
    # stop the scan before and at p = 2.  Every a_n here is computed, so the
    # scan runs only once the count of primes trial division tried is 0.
    # Both sides draw the primes of each a_n, lazily, from one shared
    # factoring: it is not what is compared, and it is most of the cost
    factored = {}
    real = bounds._prime_factors

    def prime_factors(x):
        if x not in factored:
            factored[x] = tee(real(x), 1)[0]
        return copy(factored[x])

    monkeypatch.setattr(bounds, "_prime_factors", prime_factors)
    monkeypatch.setattr(oracles, "_prime_factors", prime_factors)
    for c in range(-4, 6):
        if classify_integer_param(d, c).kind == "PCF-integer":
            continue
        for budget in (0, 1, 50, 300):
            for pins in (None, {2: 7}):
                expected = per_iterate_certificate(d, c, m, pins, budget)
                for tried in (bounds._TRIAL_PRIME_COUNT, 0):
                    with monkeypatch.context() as patch:
                        patch.setattr(bounds, "_TRIAL_PRIME_COUNT", tried)
                        got = maximality_certificate(d, c, m, pins, budget)
                    assert got == expected, (c, budget, pins, tried)


def _spy_scan(monkeypatch) -> list[tuple]:
    """Patch the scan's rank walk and entry check to log, in call order,
    ("walk", rank, p) and ("entry", n, p)."""
    calls = []
    first_zero, entry_for = bounds._first_zero, bounds._entry_for

    def walk(d, c, p, limit):
        calls.append(("walk", first_zero(d, c, p, limit), p))
        return calls[-1][1]

    def entry(d, c, n, p):
        calls.append(("entry", n, p))
        return entry_for(d, c, n, p)

    monkeypatch.setattr(bounds, "_first_zero", walk)
    monkeypatch.setattr(bounds, "_entry_for", entry)
    return calls


@pytest.mark.parametrize("d,c,m", [(2, 3, 2), (2, 3, 3), (2, 11, 8), (3, 1, 3), (3, 3, 1), (2, 1, 1)])
def test_scan_walks_only_primes_dividing_a_n(monkeypatch, d, c, m):
    # iterate m has no witness at any of these, so the scan, forced to run
    # inside the primes trial division tried, goes to the end of its budget
    # with one rank walk per prime not dividing d; a prime is checked only
    # at its rank, right after its walk, and so only where it divides a_n
    monkeypatch.setattr(bounds, "_TRIAL_PRIME_COUNT", 0)
    calls = _spy_scan(monkeypatch)
    assert m in maximality_certificate(d, c, m, scan_budget=2000).missing
    walks = [p for kind, _, p in calls if kind == "walk"]
    assert walks == [p for p in arith.primes_up_to(17389) if d % p]
    first_walk = next(i for i, e in enumerate(calls) if e[0] == "walk")
    for i, (kind, n, p) in enumerate(calls):
        if kind == "entry":
            assert exact_iterate(d, c, n)[0] % p == 0, (n, p)
            assert i < first_walk or calls[i - 1] == ("walk", n, p), (n, p)


def test_scan_beyond_the_digit_guard_walks_every_prime(monkeypatch):
    # a_18 at c = 3 is too large to compute, so each of the first 50 primes
    # but 2, which divides d, gets exactly one rank walk; the other iterates
    # are pinned, so 18 is the only one wanted
    calls = _spy_scan(monkeypatch)
    cert = maximality_certificate(
        2, 3, 18, witnesses={n: 3 for n in range(1, 18)}, scan_budget=50
    )
    assert cert.missing == (18,)
    walks = [p for kind, _, p in calls if kind == "walk"]
    assert walks == arith.primes_up_to(229)[1:]


def test_one_scan_serves_every_iterate_beyond_the_digit_guard(monkeypatch):
    # a_5 and a_6 at d = 23 are too large to compute: the scan finds 7 of
    # rank 5 and 13 of rank 6, checks only those, and stops at 13
    calls = _spy_scan(monkeypatch)
    cert = maximality_certificate(23, 2, 6, scan_budget=100)
    assert cert.complete
    scan = calls[next(i for i, e in enumerate(calls) if e[0] == "walk"):]
    assert [e for e in scan if e[0] == "entry"] == [("entry", 5, 7), ("entry", 6, 13)]
    assert [p for kind, _, p in scan if kind == "walk"] == [2, 3, 5, 7, 11, 13]


@pytest.mark.parametrize("d,c,m", [(11, 1, 7), (8, -6, 8)])
def test_scan_beyond_the_digit_guard_matches_the_two_loop_search(d, c, m):
    # the last two iterates are beyond the digit guard, and the later one
    # has the smaller witness (7 before 13, and 19 before 47), so each scan
    # prime must be walked up to the largest iterate still wanted
    pins = {n: 3 for n in range(1, m - 1)}
    cert = maximality_certificate(d, c, m, pins, scan_budget=20)
    assert cert == per_iterate_certificate(d, c, m, pins, scan_budget=20)
    assert not cert.missing


def test_trial_prime_count_is_pi_of_the_trial_limit(monkeypatch):
    limits = []
    real = bounds._trial_divide
    monkeypatch.setattr(bounds, "_trial_divide",
                        lambda x, limit: limits.append(limit) or real(x, limit))
    assert list(bounds._prime_factors(6)) == [2, 3]
    assert limits == [arith._DEFAULT_TRIAL_LIMIT]
    assert bounds._TRIAL_PRIME_COUNT == len(arith.primes_up_to(arith._DEFAULT_TRIAL_LIMIT))


@pytest.mark.parametrize("c,m", [(3, 8), (11, 8), (3, 3), (1, 1)])
def test_scan_inside_the_trial_primes_is_skipped(monkeypatch, c, m):
    # every a_n is computed, so trial division has tried each prime of a
    # budget of pi(10^6) primes that divides it: no rank walk can help
    calls = _spy_scan(monkeypatch)
    cert = maximality_certificate(2, c, m, scan_budget=bounds._TRIAL_PRIME_COUNT)
    assert cert.missing
    assert not [e for e in calls if e[0] == "walk"]


class TestEulerPhi:
    def test_values(self):
        assert euler_phi(1) == 1
        assert euler_phi(2) == 1
        assert euler_phi(12) == 4
        assert euler_phi(13) == 12
