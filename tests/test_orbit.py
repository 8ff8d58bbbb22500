import random
import tracemalloc
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from critorbit import (
    PeriodType,
    Residue,
    SearchExhaustedError,
    SizeGuardError,
    ZeroIterateError,
    classify_integer_param,
    exact_iterate,
    is_primitive_divisor,
    iterate_poly,
    iterate_valuation,
    multiplier_mod_p,
    orbit_with_derivative,
    period_type_mod,
    point_period_type_mod,
    primes_up_to,
)
from critorbit import orbit
from critorbit.orbit import (
    RationalParam,
    _first_zero,
    _orbit_period_brent,
    _orbit_period_ints,
)

from oracles import dict_first_zero, orbit_walk


class TestPeriodTypeMod:
    def test_period_three_at_five(self):
        # orbit of 0 under x^2 + 1 mod 5: 0 -> 1 -> 2 -> 0
        ptype, entry = period_type_mod(2, Residue(5, 1, 1))
        assert (ptype.tail, ptype.period) == (0, 3)
        assert entry == 0

    def test_fixed_point(self):
        ptype, _ = period_type_mod(2, Residue(7, 1, 0))
        assert (ptype.tail, ptype.period) == (0, 1)

    def test_cubic_period_two(self):
        ptype, _ = period_type_mod(3, Residue(5, 1, 2))
        assert (ptype.tail, ptype.period) == (0, 2)

    def test_strictly_preperiodic_entry(self):
        # x^2 + 3 mod 5: 0 -> 3 -> 2 -> 2; tail 2, period 1, entry f^2(0) = 2
        ptype, entry = period_type_mod(2, Residue(5, 1, 3))
        assert (ptype.tail, ptype.period) == (2, 1)
        assert entry == 2

    def test_agrees_with_plain_walk(self):
        rng = random.Random(7)
        for _ in range(200):
            d = rng.choice([2, 3, 5])
            p = rng.choice([2, 3, 5, 7, 11, 13])
            t = rng.randrange(1, 4)
            c = rng.randrange(p**t)
            got, _ = period_type_mod(d, Residue(p, t, c))
            assert (got.tail, got.period) == orbit_walk(d, c, p**t)

    def test_brent_matches_hash_detection(self):
        rng = random.Random(11)
        for _ in range(100):
            d = rng.choice([2, 3])
            p = rng.choice([3, 5, 7, 11])
            t = rng.randrange(1, 5)
            c = rng.randrange(p**t)
            start = rng.choice([0, rng.randrange(p**t)])
            hashed = _orbit_period_ints(d, c, p**t, start)
            assert _orbit_period_brent(d, c, p**t, start) == hashed
            assert hashed[:2] == orbit_walk(d, c, p**t, start)

    def test_long_walks_switch_to_brent(self, monkeypatch):
        # the walkers from arbitrary starts share the detector's memory bound
        monkeypatch.setattr(orbit, "_HASH_ORBIT_LIMIT", 3)
        calls = []
        brent = orbit._orbit_period_brent
        monkeypatch.setattr(
            orbit, "_orbit_period_brent", lambda *args: calls.append(args) or brent(*args)
        )
        rng = random.Random(13)
        long_walks = 0
        for _ in range(50):
            d = rng.choice([2, 3])
            p = rng.choice([11, 13, 101])
            c, r = rng.randrange(p), rng.randrange(p)
            tail, period = orbit_walk(d, c, p, r)
            ptype, entry = point_period_type_mod(d, Residue(p, 1, c), r)
            assert (ptype.tail, ptype.period) == (tail, period)
            x = r
            for _ in range(tail):
                x = (pow(x, d, p) + c) % p
            assert entry == x
            mtype, _ = multiplier_mod_p(d, c, r, p)
            assert mtype == ptype
            long_walks += tail + period > 3
        assert len(calls) == 2 * long_walks > 0


# the largest t with p^t <= 10^5, for the primes the level tests cover
_MAX_LEVEL = {2: 16, 3: 10, 5: 7, 7: 5, 11: 4}


@st.composite
def _orbit_cases(draw):
    """(p, t, c, start) with p^t <= 10^5; start 0 half the time."""
    p = draw(st.sampled_from(sorted(_MAX_LEVEL)))
    t = draw(st.integers(1, _MAX_LEVEL[p]))
    c = draw(st.integers(0, p**t - 1))
    start = draw(st.just(0) | st.integers(0, p**t - 1))
    return p, t, c, start


@st.composite
def _two_adic_unit_cycles(draw):
    """(2, t, c, start) with c even and start odd: for odd d the orbit stays
    odd, so its cycle mod 2 has multiplier 1 and can grow.  From start 0 the
    cycle mod 2 contains the critical point 0 and is attracting."""
    t = draw(st.integers(2, 16))
    half = 2 ** (t - 1)
    return 2, t, 2 * draw(st.integers(0, half - 1)), 2 * draw(st.integers(0, half - 1)) + 1


def _assert_matches_walk(d, case):
    p, t, c, start = case
    modulus = p**t
    tail, period = orbit_walk(d, c, modulus, start)
    entry = start
    for _ in range(tail):
        entry = (pow(entry, d, modulus) + c) % modulus
    want = (PeriodType(tail, period), entry)
    assert point_period_type_mod(d, Residue(p, t, c), start) == want
    if start == 0:
        assert period_type_mod(d, Residue(p, t, c)) == want


class TestPeriodTypeLevels:
    """Period types over Z/p^t (t >= 2), built from the cycle mod p."""

    @given(d=st.sampled_from([2, 3, 5]), case=_orbit_cases())
    # a = 1 and b != 0 at level 1 is not enough: each of these cycles grows
    # by 3 mod 9 and keeps its length mod 27
    @example(d=2, case=(3, 3, 10, 3))
    @example(d=2, case=(3, 6, 523, 0))
    @example(d=2, case=(3, 5, 208, 91))
    @settings(max_examples=200, deadline=None)
    def test_matches_orbit_walk(self, d, case):
        _assert_matches_walk(d, case)

    @given(d=st.sampled_from([3, 5]), case=_two_adic_unit_cycles())
    # the cycle grows mod 8, but with (f^k)'(y) = 3 mod 4 it keeps its
    # length mod 16
    @example(d=3, case=(2, 4, 12, 5))
    @settings(max_examples=150, deadline=None)
    def test_two_adic_growth_matches_orbit_walk(self, d, case):
        _assert_matches_walk(d, case)

    @pytest.mark.parametrize("t", [10, 20, 30])
    def test_growing_cycle_closed_form(self, t):
        # x^2 + 3: 0 -> 3 -> 2 = f(2) mod 5, and the cycle grows by 5 from t = 2
        ptype, entry = period_type_mod(2, Residue(5, t, 3))
        assert (ptype.tail, ptype.period, entry) == (2, 2 * 5 ** (t - 2), 12)

    def test_attracting_cycle_keeps_its_period(self):
        # x^2 + 1 mod 5 has the cycle 0 -> 1 -> 2 -> 0 through the critical point
        for t in range(2, 13):
            ptype, _ = period_type_mod(2, Residue(5, t, 1))
            assert ptype.period == 3
        assert ptype.tail == 31

    def test_deep_orbit_stores_no_points(self):
        # the period mod 5^10 is 781250; a walk that stores it needs ~100 MB
        tracemalloc.start()
        try:
            period_type_mod(2, Residue(5, 10, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestIterateValuation:
    def test_first_power(self):
        assert iterate_valuation(2, 1, 3, 5) == (1, True)

    def test_square_power(self):
        assert iterate_valuation(2, -9, 3, 5) == (2, True)

    def test_zero_valuation(self):
        # f^2(0) = 72 for c = -9, coprime to 5
        assert iterate_valuation(2, -9, 2, 5) == (0, True)

    def test_pcf_zero_hits_cap(self):
        nu = iterate_valuation(2, 0, 3, 5, cap=64)
        assert not nu.exact
        assert nu.value == 64

    def test_large_power(self):
        c = 3**17 - 1
        assert iterate_valuation(2, c, 2, 3) == (17, True)

    def test_exact_zero_answers_the_cap_at_once(self):
        # no precision reaches a nonzero digit, so none is tried
        assert iterate_valuation(2, 0, 3, 5, cap=10**9) == (10**9, False)
        assert iterate_valuation(4, -1, 6, 7, cap=10**9) == (10**9, False)


@pytest.mark.parametrize("d", [-2, 0, 1])
def test_degree_below_two_rejected(d):
    for call in (
        lambda: iterate_valuation(d, 3, 2, 5),
        lambda: is_primitive_divisor(d, 3, 2, 5),
        lambda: exact_iterate(d, 3, 2),
    ):
        with pytest.raises(ValueError, match="degree must be >= 2"):
            call()


class TestIsPrimitiveDivisor:
    def test_five_at_three(self):
        assert is_primitive_divisor(2, 1, 3, 5) == (True, 1)

    def test_thirteen_at_five(self):
        assert is_primitive_divisor(2, 3, 5, 13) == (True, 1)

    def test_five_not_at_four(self):
        # f^4(0) = 26 for c = 1
        assert is_primitive_divisor(2, 1, 4, 5) == (False, 0)

    def test_non_primitive_with_positive_valuation(self):
        # 2 divides f^2(0) = 2 already, so it is not primitive at n = 4
        assert is_primitive_divisor(2, 1, 4, 2) == (False, 1)

    def test_rational_parameter(self):
        # c = 1/2: a_1 = 1, a_2 = 3, a_3 = 17 (a_3 = 3^2 + 1*2^3)
        assert is_primitive_divisor(2, RationalParam(1, 2), 2, 3) == (True, 1)
        assert is_primitive_divisor(2, RationalParam(1, 2), 3, 17) == (True, 1)
        assert is_primitive_divisor(2, RationalParam(1, 2), 3, 3) == (False, 0)

    def test_denominator_prime_rejected(self):
        with pytest.raises(ValueError, match="denominator"):
            is_primitive_divisor(2, RationalParam(1, 2), 2, 2)

    def test_pcf_collision(self):
        with pytest.raises(ZeroIterateError):
            is_primitive_divisor(2, 0, 3, 5)
        with pytest.raises(ZeroIterateError):
            is_primitive_divisor(2, -1, 4, 5)

    def test_valuation_above_the_default_cap(self):
        # a_1 = 2^70000: the valuation is read with no cap, not cut at 2^16
        assert is_primitive_divisor(2, 2**70000, 1, 2) == (True, 70000)

    def test_index_below_one_rejected(self):
        # c = 0 once answered n = 0 with "f^0(0) = 0 (PCF collision)"
        for c in (0, 1):
            with pytest.raises(ValueError, match="iterate index must be >= 1"):
                is_primitive_divisor(2, c, 0, 5)

    def test_index_far_beyond_the_rank(self):
        # r(5) = 3 at c = 1 and 5 never divides the orbit at c = 3: the walk
        # mod 5 stops within 5 steps whatever n is
        assert is_primitive_divisor(2, 1, 10**18, 5) == (False, 0)
        assert is_primitive_divisor(2, 1, 3 * 10**18, 5) == (False, 1)
        assert iterate_valuation(2, 1, 3 * 10**18, 5) == (1, True)
        assert is_primitive_divisor(2, 3, 10**18, 5) == (False, 0)

    # n up to 8 reaches proper multiples of the rank r(p) <= 4 at most primes;
    # d^(n-1) <= 256 keeps the exact numerators below ~600 digits
    @given(
        d=st.integers(2, 5),
        a=st.integers(-60, 60),
        b=st.integers(1, 30),
        n=st.integers(1, 8),
        p=st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]),
    )
    @example(d=2, a=1, b=1, n=6, p=5)
    @example(d=3, a=-28, b=1, n=6, p=3)
    @example(d=2, a=-29, b=4, n=6, p=5)
    @example(d=4, a=-1, b=1, n=5, p=3)
    @settings(max_examples=200, deadline=None)
    def test_rational_parameters_match_exact_numerators(self, d, a, b, n, p):
        assume(gcd(a, b) == 1 and b % p != 0 and d ** (n - 1) <= 256)
        c = RationalParam(a, b)
        numerators = [exact_iterate(d, c, i)[0] for i in range(1, n + 1)]
        assume(numerators[-1] != 0)
        nu = 0
        while numerators[-1] % p ** (nu + 1) == 0:
            nu += 1
        primitive = nu > 0 and all(x % p != 0 for x in numerators[:-1])
        assert iterate_valuation(d, c, n, p) == (nu, True)
        assert is_primitive_divisor(d, c, n, p) == (primitive, nu)


class TestFirstZero:
    @given(d=st.integers(2, 5), p=st.sampled_from(primes_up_to(599)), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_a_visited_set_walk(self, d, p, data):
        limit = data.draw(st.integers(1, 2 * p), label="limit")
        for c in range(p):
            assert _first_zero(d, c, p, limit) == dict_first_zero(d, c, p, limit), c

    @pytest.mark.parametrize("d,p", [(2, 599), (3, 593), (4, 577), (5, 571)])
    def test_stops_within_three_times_tail_plus_period(self, monkeypatch, d, p):
        # a walk that neither met 0 nor closed its cycle by the limit raises
        for c in range(p):
            tail, period = orbit_walk(d, c, p)
            monkeypatch.setattr(orbit, "_RANK_WALK_LIMIT", 3 * (tail + period))
            assert _first_zero(d, c, p, 10**9) == dict_first_zero(d, c, p, p), c

    def test_budget_exhausted_only_past_its_limit(self, monkeypatch):
        # mod 10^30 + 57 the orbit of 0 at c = 3 is far longer than 50 steps
        p = 10**30 + 57
        monkeypatch.setattr(orbit, "_RANK_WALK_LIMIT", 50)
        assert _first_zero(2, 3, p, 50) == 0
        with pytest.raises(SearchExhaustedError) as info:
            _first_zero(2, 3, p, 51)
        assert info.value.bound == 50


class TestOrbitWithDerivative:
    def test_symbolic_example(self):
        # f^3(0) = c^4+2c^3+c^2+c and derivative 4c^3+6c^2+2c+1, at c = 1
        value, deriv = orbit_with_derivative(2, Residue(5, 3, 1), 3)
        assert value.value == 5
        assert deriv.value == 13

    def test_obstructed_example(self):
        value, deriv = orbit_with_derivative(2, Residue.reduce(3, 13, 2), 5)
        assert value.value % 13 == 0 and value.value % 169 != 0
        assert deriv.value % 13 == 0 and deriv.value % 169 != 0

    def test_first_iterate(self):
        for d in (2, 3, 5):
            value, deriv = orbit_with_derivative(d, Residue(7, 2, 3), 1)
            assert value.value == 3
            assert deriv.value == 1

    def test_matches_symbolic_derivative(self):
        # agree with the exact polynomial derivative mod p^N for d <= 3, n <= 6
        for d in (2, 3):
            for n in range(1, 7):
                poly = iterate_poly(d, n)
                dpoly = poly.derivative()
                for p, t in ((5, 3), (13, 2)):
                    modulus = p**t
                    for c in (1, 3, modulus - 2):
                        value, deriv = orbit_with_derivative(d, Residue(p, t, c % modulus), n)
                        assert value.value == poly.evaluate_mod(c, modulus)
                        assert deriv.value == dpoly.evaluate_mod(c, modulus)


class TestExactIterate:
    def test_half(self):
        assert exact_iterate(2, RationalParam(1, 2), 2) == (3, 2)

    def test_unit(self):
        assert exact_iterate(2, 1, 3) == (5, 4)

    def test_minus_nine(self):
        assert exact_iterate(2, -9, 3) == (5175, 4)

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            exact_iterate(2, 3, 60)


class TestClassify:
    def test_pcf_families(self):
        assert classify_integer_param(2, -2).kind == "PCF-integer"
        assert classify_integer_param(2, -1).kind == "PCF-integer"
        assert classify_integer_param(4, -1).kind == "PCF-integer"
        assert classify_integer_param(3, 0).kind == "PCF-integer"

    def test_wandering(self):
        assert classify_integer_param(3, -1).kind == "presumed-wandering"
        assert classify_integer_param(3, -2).kind == "presumed-wandering"
        assert classify_integer_param(4, 7).kind == "presumed-wandering"


class TestProjectionMonotonicity:
    def test_period_divides_and_tail_grows(self):
        # random c, p < 100, t up to 6 with the modulus capped so orbit walks
        # stay desk-scale (expected orbit length grows like sqrt(p^t))
        rng = random.Random(23)
        primes = [p for p in primes_up_to(100)]
        for _ in range(120):
            d = rng.choice([2, 3])
            p = rng.choice(primes)
            t_max = 6
            while p**t_max > 10**7:
                t_max -= 1
            c = rng.randrange(p**t_max)
            previous = None
            for t in range(1, t_max + 1):
                ptype, _ = period_type_mod(d, Residue.reduce(c, p, t))
                if previous is not None:
                    assert ptype.period % previous.period == 0
                    assert ptype.tail >= previous.tail
                previous = ptype


def _orbit_values_mod(d, c, count, modulus):
    out = []
    x = 0
    for _ in range(count):
        x = (pow(x, d, modulus) + c) % modulus
        out.append(x)
    return out


class TestCycleOffsetValuations:
    def test_equal_valuations_along_cycle_offsets(self):
        # at a prime p > d where 0 has exact period n mod p, the differences
        # f^(mn+a)(0) - f^((m-1)n+a)(0) carry the same power of p for a = 1..n
        checked = 0
        for p in primes_up_to(50):
            for d in (2, 3):
                if p <= d:
                    continue
                for c in range(p):
                    ptype, _ = period_type_mod(d, Residue(p, 1, c))
                    if ptype.tail != 0:
                        continue
                    n = ptype.period
                    T = 24
                    modulus = p**T
                    values = _orbit_values_mod(d, c, 4 * n + 1, modulus)
                    for m in (1, 2, 3):
                        vals = set()
                        usable = True
                        for a in range(1, n + 1):
                            diff = (values[m * n + a - 1] - values[(m - 1) * n + a - 1]) % modulus
                            if diff == 0:
                                usable = False  # valuation beyond working precision
                                break
                            v = 0
                            while diff % p == 0:
                                diff //= p
                                v += 1
                            vals.add(v)
                        if usable:
                            assert len(vals) == 1, (d, p, c, m, vals)
                            checked += 1
        assert checked > 100

    def test_difference_divisibility_exact(self):
        # (f^(mn)(0) - f^((m-1)n)(0)) divides (f^(mn+1)(0) - f^((m-1)n+1)(0))
        for c in range(-20, 21):
            for n in (1, 2, 3, 4):
                for m in (1, 2):
                    if m * n > 4:
                        continue
                    values = {0: 0}
                    x = 0
                    for i in range(1, m * n + 2):
                        x = x * x + c
                        values[i] = x
                    lhs = values[m * n] - values[(m - 1) * n]
                    rhs = values[m * n + 1] - values[(m - 1) * n + 1]
                    if lhs == 0:
                        assert rhs == 0
                    else:
                        assert rhs % lhs == 0


class TestPrimitivityPeriodicityEquivalence:
    def test_equivalence_over_ranges(self):
        # primitive with nu >= t at n <=> critical orbit mod p^t is (0, n)
        for p in primes_up_to(49):
            for c in range(-50, 51):
                if classify_integer_param(2, c).kind == "PCF-integer":
                    continue
                first_hit = None
                x = 0
                for i in range(1, 10):
                    x = (x * x + c) % p
                    if x == 0:
                        first_hit = i
                        break
                nu = iterate_valuation(2, c, first_hit, p).value if first_hit else 0
                for t in (1, 2, 3):
                    ptype, _ = period_type_mod(2, Residue.reduce(c, p, t))
                    periodic = {ptype.period} if ptype.tail == 0 and ptype.period < 10 else set()
                    primitive = {first_hit} if first_hit and nu >= t else set()
                    assert periodic == primitive, (p, c, t)


class TestTailStabilityAndTrichotomy:
    def test_sampled_points(self):
        # strictly preperiodic reductions with unit multiplier keep their tail
        # at every precision, and cycle lengths lie in {n, ns, ns*p^e}
        rng = random.Random(5)
        checked_tail = checked_cycle = 0
        for p in (5, 7, 11, 13):
            for d in (2, 3):
                if p % d == 0 or p <= d:
                    continue
                for _ in range(25):
                    c = rng.randrange(p)
                    r = rng.randrange(p)
                    ptype, lam = multiplier_mod_p(d, c, r, p)
                    if ptype.tail == 0 or lam % p == 0:
                        continue
                    s = 1
                    acc = lam % p
                    while acc != 1:
                        acc = acc * lam % p
                        s += 1
                    for t in range(2, 7):
                        lifted, _ = point_period_type_mod(d, Residue.reduce(c, p, t), r)
                        assert lifted.tail == ptype.tail, (d, p, c, r, t)
                        checked_tail += 1
                        if t <= 4:
                            n = ptype.period
                            length = lifted.period
                            assert length % n == 0
                            quotient = length // n
                            if quotient != 1:
                                assert quotient % s == 0
                                power_part = quotient // s
                                while power_part % p == 0:
                                    power_part //= p
                                assert power_part == 1, (d, p, c, r, t, length)
                                checked_cycle += 1
        assert checked_tail > 200


class TestCriticalTailExclusion:
    def test_tail_is_one_mod_period_and_escape_forces_nilpotence(self):
        # where 0 is periodic mod p (p > d) with exact period n, any strictly
        # preperiodic behavior mod p^t has tail = 1 (mod n); and the escape
        # equality f^(n+1)(0) = f(0) mod p^t forces (f^n(0))^d = 0 mod p^t.
        # Over the exact ring the latter forces f^n(0) = 0 (that is the m = 0
        # exclusion); mod p^t only the d-th power vanishes, e.g. c = 1, p = 5,
        # t = 2 has f^4 = f^1 = 1 mod 25 while f^3 = 5 != 0 mod 25.
        for p in primes_up_to(50):
            for d in (2, 3):
                if p <= d:
                    continue
                for c in range(p):
                    ptype, _ = period_type_mod(d, Residue(p, 1, c))
                    if ptype.tail != 0:
                        continue
                    n = ptype.period
                    for t in (2, 3, 4):
                        modulus = p**t
                        lifted, _ = period_type_mod(d, Residue.reduce(c, p, t))
                        if lifted.tail > 0:
                            assert lifted.tail % n == 1 % n, (d, p, c, t, lifted)
                        values = _orbit_values_mod(d, c, n + 1, modulus)
                        if values[n] == values[0]:
                            assert pow(values[n - 1], d, modulus) == 0, (d, p, c, t)
