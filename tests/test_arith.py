import itertools
import math
import random

import oracles
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from critorbit import arith
from critorbit import (
    Factorization,
    Residue,
    SizeGuardError,
    crt,
    factorize,
    is_prime,
    moebius,
    next_prime,
    primes_up_to,
    val_p,
)

SMALL_PRIMES = primes_up_to(200)


class TestValP:
    def test_5175(self):
        # f^3(0) for c = -9 is 5175, exactly divisible by 5^2
        assert val_p(5175, 5) == 2

    def test_coprime(self):
        assert val_p(7, 3) == 0

    def test_constructed_power(self):
        assert val_p(2**29 * 3, 2) == 29

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="infinite valuation"):
            val_p(0, 5)

    def test_power_above_sixty_thousand(self):
        # once one division per power of p: 66000 divisions of a 153,000-bit x
        assert val_p(-7 * 5**66000, 5) == 66000

    @given(
        e=st.integers(0, 3000),
        u=st.integers(-(10**20), 10**20),
        p=st.sampled_from(SMALL_PRIMES),
    )
    def test_exact_powers(self, e, u, p):
        assume(u % p != 0)
        assert val_p(u * p**e, p) == e

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            val_p(12, 4)

    @given(
        x=st.integers(min_value=-(10**12), max_value=10**12).filter(lambda v: v != 0),
        p=st.sampled_from(SMALL_PRIMES),
    )
    def test_divides_exactly(self, x, p):
        e = val_p(x, p)
        assert x % p**e == 0
        assert x % p ** (e + 1) != 0


class TestCrt:
    def test_two_residues(self):
        assert crt([(1, 3), (2, 5)]) == 7

    def test_single(self):
        assert crt([(0, 4)]) == 0

    def test_prime_powers(self):
        # frozen from a direct scan over [0, 875)
        assert crt([(16, 125), (3, 7)]) == 766

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError, match="coprime"):
            crt([(1, 6), (2, 4)])

    @given(
        st.lists(
            st.tuples(st.integers(0, 10**6), st.sampled_from([4, 9, 25, 49, 121, 169])),
            min_size=1,
            max_size=5,
            unique_by=lambda pair: pair[1],
        )
    )
    def test_reduces_back(self, pairs):
        pairs = [(v % m, m) for v, m in pairs]
        x = crt(pairs)
        assert x >= 0
        for v, m in pairs:
            assert x % m == v


class TestMoebius:
    def test_one(self):
        assert moebius(1) == 1

    def test_two_distinct_primes(self):
        assert moebius(6) == 1

    def test_square_factor(self):
        assert moebius(12) == 0

    def test_divisor_sum_indicator(self):
        # sum over d | n of mu(d) is 1 at n = 1 and 0 beyond
        for n in range(1, 10**4 + 1):
            total = sum(moebius(d) for d in range(1, n + 1) if n % d == 0)
            assert total == (1 if n == 1 else 0)


class TestFactorize:
    def test_26(self):
        # f^4(0) for c = 1
        fact = factorize(26)
        assert fact.factors == ((2, 1), (13, 1))
        assert fact.complete

    def test_5175(self):
        assert factorize(5175).factors == ((3, 2), (5, 2), (23, 1))

    def test_fermat_number(self):
        fact = factorize(2**64 + 1)
        assert fact.value == 2**64 + 1
        if fact.complete:
            assert fact.factors == ((274177, 1), (67280421310721, 1))

    def test_budget_exhaustion_is_partial(self):
        n = (10**15 + 37) * (10**15 + 91)  # both prime
        fact = factorize(n, trial_limit=10**4, rho_iterations=0)
        assert not fact.complete
        assert fact.cofactor == n
        assert fact.value == n

    @given(st.integers(min_value=2, max_value=10**9))
    @settings(max_examples=60)
    def test_product_invariant(self, x):
        fact = factorize(x)
        assert fact.value == x
        assert all(is_prime(p) for p, _ in fact.factors)

    def test_validation(self):
        with pytest.raises(ValueError):
            factorize(1)
        with pytest.raises(ValueError):
            Factorization(factors=((4, 1),), cofactor=1, complete=True)


class TestPrimality:
    def test_small(self):
        assert is_prime(13)
        assert not is_prime(1)
        assert not is_prime(5177)

    def test_ten_digit_prime(self):
        assert is_prime(4012568011)

    def test_strong_pseudoprime_rejected(self):
        assert not is_prime(1373653)  # strong pseudoprime to bases 2, 3

    def test_psi_12_rejected(self):
        # 399165290221 * 798330580441 is a strong pseudoprime to bases 2..37
        assert not is_prime(318665857834031151167461)

    def test_beyond_deterministic_range(self):
        # 2^89 - 1 is a Mersenne prime
        assert is_prime(2**89 - 1)
        assert not is_prime((2**89 - 1) * (2**61 - 1))

    def test_primes_up_to(self):
        assert primes_up_to(12) == [2, 3, 5, 7, 11]
        assert primes_up_to(1) == []

    @pytest.mark.parametrize("limit", [2, 3, 4, 25, 49, 997, 2**14])
    def test_sieve_matches_the_primality_test(self, limit):
        assert primes_up_to(limit) == [k for k in range(limit + 1) if is_prime(k)]

    def test_sieve_guard(self):
        with pytest.raises(ValueError):
            primes_up_to(10**7 + 1)

    def test_next_prime(self):
        assert next_prime(2) == 3
        assert next_prime(13) == 17
        assert next_prime(1) == 2

    def test_next_prime_matches_the_odd_step_loop(self):
        ns = range(-3, 10**4 + 1)
        assert [next_prime(n) for n in ns] == [oracles.odd_step_next_prime(n) for n in ns]

    def test_next_prime_above_psi_13_draws_the_same_witnesses(self):
        # above psi_13 each odd candidate that passes trial division draws
        # random Miller-Rabin bases; an even one returns at the first trial
        # division, so both walks leave the generator in the same state
        start = arith._MR_PSI[-1][0]
        saved = arith._rng.getstate()
        try:
            arith.set_random_seed(13)
            seeded = arith._rng.getstate()
            walks = []
            for step in (next_prime, oracles.odd_step_next_prime):
                arith._rng.setstate(seeded)
                found = [step(start + k * 10**6) for k in range(30)]
                walks.append((found, arith._rng.getstate()))
        finally:
            arith._rng.setstate(saved)
        assert walks[0] == walks[1]
        assert walks[0][1] != seeded  # bases were drawn


def test_factorize_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(18)
    # a low trial limit leaves most of the splitting to rho
    cases = [(rng.randrange(2, 10**18), 10**4) for _ in range(80)]
    # squares of primes above 10^6: trial division stops short of the root, so
    # the perfect-square branch splits them; then two primes only rho splits
    cases += [(int(sympy.nextprime(rng.randrange(10**6, 10**9))) ** 2, 10**6) for _ in range(10)]
    cases += [(int(sympy.nextprime(rng.randrange(10**6, 10**9)) * sympy.nextprime(10**6 + k)), 10**6)
              for k in range(10)]
    for x, trial_limit in cases:
        fact = factorize(x, trial_limit=trial_limit)
        assert fact.complete and fact.factors == tuple(sorted(sympy.factorint(x).items())), x


# primes whose products trip a one-pass trial division: 13 * 19 = 247 and
# 7 * 31 = 217 lie in class 7 mod 30, ahead of their factors' classes, and
# primes near 10^6 sit on both sides of the default trial limit
_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 19, 31, 37, 97, 101, 997, 7919,
                 999959, 999983, 1000003, 1000033, 2**31 - 1)
_TRIAL_LIMITS = (1, 6, 7, 30, 31, 1000, 10**6)


def _prime_rest_counted(counts, rest):
    """(counts, rest) with a prime rest moved into the counts.  The wheel loop
    stops when a candidate's square passes the shrinking rest, the one pass at
    the square root of the rest it started from: at 7^2 * 11 and limit 30 the
    loop leaves the prime 11 and the pass divides it out.  factorize counts a
    prime rest either way."""
    if rest > 1 and is_prime(rest):
        return {**counts, rest: 1}, 1
    return counts, rest


@given(
    st.lists(st.tuples(st.sampled_from(_TRIAL_PRIMES), st.integers(1, 3)),
             min_size=1, max_size=5),
    st.sampled_from(_TRIAL_LIMITS),
)
@settings(max_examples=150, deadline=None)
def test_trial_divide_matches_the_wheel_loop(prime_powers, trial_limit):
    x = math.prod(p**e for p, e in prime_powers)
    assume(x > 1)
    counts, rest = arith._trial_divide(x, trial_limit)
    assert list(counts) == sorted(counts)
    assert _prime_rest_counted(counts, rest) == _prime_rest_counted(
        *oracles.wheel_trial_divide(x, trial_limit))


@pytest.mark.parametrize("trial_limit", _TRIAL_LIMITS)
@pytest.mark.parametrize("x", [
    13 * 19 * 1000003, 7 * 31 * 999983, 7**2 * 13 * 19 * 31 * 1000003,
    13 * 19 * 7 * 31 * 1000003 * 1000033, 999983**2, 1000003**2 * 1000033,
    (2**31 - 1) * 1000003 * 7, 2**10 * 3**4 * 5**3, 7**2 * 11,
])
def test_trial_divide_composite_classes(x, trial_limit):
    assert _prime_rest_counted(*arith._trial_divide(x, trial_limit)) == _prime_rest_counted(
        *oracles.wheel_trial_divide(x, trial_limit))


@pytest.mark.parametrize("x,trial_limit", [
    (13 * 19 * 1000003 * 1000033, 10**6),  # rest 1000003 * 1000033: rho splits it
    (7 * 31 * 1000003**2, 10**6),  # a square rest: no rho
    (247 * 999983 * 1000003, 1000),  # rest above the limit, rho from there
    ((10**15 + 37) * (10**15 + 91) * 13 * 19, 10**4),  # rho runs out of budget
    (2**64 + 1, 10**6),
])
def test_factorize_gives_rho_the_arguments_of_the_wheel_loop(monkeypatch, x, trial_limit):
    real_rho = arith._brent_rho
    calls = []

    def spy(n, max_iterations):
        calls.append((n, max_iterations))
        return real_rho(n, max_iterations)

    monkeypatch.setattr(arith, "_brent_rho", spy)
    arith.set_random_seed()
    got = factorize(x, trial_limit=trial_limit, rho_iterations=2_000)
    new_calls, calls[:] = calls[:], []
    # the old path: the wheel loop, then the same tail on its rest (with
    # trial_limit=1 factorize only retries 2, 3 and 5, which are gone)
    counts, rest = oracles.wheel_trial_divide(x, trial_limit)
    arith.set_random_seed()
    tail = factorize(rest, trial_limit=1, rho_iterations=2_000)
    assert new_calls == calls
    assert got.factors == tuple(sorted({**counts, **dict(tail.factors)}.items()))
    assert got.cofactor == tail.cofactor


def test_is_prime_matches_sympy_around_the_deterministic_bound():
    sympy = pytest.importorskip("sympy")
    # psi_13, the least strong pseudoprime to the bases 2..41 (the least one
    # to the bases 2..37 is psi_12, tested below)
    bound = 3_317_044_064_679_887_385_961_981
    for n in range(bound - 1000, bound + 1000):
        assert is_prime(n) == sympy.isprime(n), n


# psi_k, the least strong pseudoprime to the first k prime bases, k = 1..13
PSI = (
    2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747,
    3_474_749_660_383, 341_550_071_728_321, 341_550_071_728_321,
    3_825_123_056_546_413_051, 3_825_123_056_546_413_051,
    3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)


def test_is_prime_matches_sympy_around_every_psi():
    sympy = pytest.importorskip("sympy")
    for psi in sorted(set(PSI)):
        assert not is_prime(psi), psi
        for n in range(psi - 2000, psi + 2000):
            assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_matches_sympy_below_2e5():
    sympy = pytest.importorskip("sympy")
    assert [n for n in range(200_000) if is_prime(n)] == list(sympy.primerange(200_000))


class TestResidue:
    def test_validation(self):
        with pytest.raises(ValueError):
            Residue(4, 1, 0)
        with pytest.raises(ValueError):
            Residue(5, 0, 0)
        with pytest.raises(ValueError):
            Residue(5, 1, 5)

    def test_reduce(self):
        r = Residue.reduce(-9, 5, 3)
        assert r.value == 116
        assert r.modulus == 125

    @pytest.mark.parametrize("p,t,message", [
        (0, 1, "0 is not prime"),  # x % 0^1 once raised ZeroDivisionError
        (-5, 1, "-5 is not prime"),
        (0, 0, "exponent t must be >= 1"),
        (5, -1, "exponent t must be >= 1"),
    ])
    def test_reduce_checks_the_ring_first(self, p, t, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Residue.reduce(3, p, t)
        with pytest.raises(ValueError, match=f"^{message}$"):
            Residue(p, t, 0)

    def test_ring_ops(self):
        a = Residue(5, 2, 7)
        b = Residue(5, 2, 21)
        assert (a + b).value == 3
        assert (a * b).value == 147 % 25
        assert (a - b).value == (7 - 21) % 25
        assert a.pow(3).value == pow(7, 3, 25)

    def test_mixed_rings_rejected(self):
        with pytest.raises(ValueError):
            Residue(5, 2, 7) + Residue(5, 3, 7)


@pytest.mark.parametrize("limit", [1, 2, 3, 4096, 1 << 14, 2**1024])
def test_guard_power_refuses_exactly_the_powers_above_the_limit(limit):
    for base, exponent in itertools.product(range(2, 20), range(20)):
        if base**exponent <= limit:
            assert arith._guard_power(base, exponent, limit, "refused") == base**exponent
            continue
        with pytest.raises(SizeGuardError, match="^refused$") as info:
            arith._guard_power(base, exponent, limit, "refused")
        assert info.value.estimated_digits == len(str(base**exponent))


@pytest.mark.parametrize("base,exponent", [(3, 10**18), (2, 10**18), (10**100, 10**15)])
def test_guard_power_refuses_from_bit_lengths_without_building_the_power(base, exponent):
    # each power has at least 10^15 bits: building it would not finish
    with pytest.raises(SizeGuardError) as info:
        arith._guard_power(base, exponent, 1 << 14, "refused")
    assert info.value.estimated_digits == int(exponent * math.log10(base)) + 1
