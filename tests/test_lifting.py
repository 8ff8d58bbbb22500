import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from critorbit import (
    HenselHypothesisError,
    InternalConsistencyError,
    LiftResult,
    Residue,
    SearchExhaustedError,
    adjust_power,
    find_base,
    gleason_degree,
    gleason_poly,
    discriminant,
    hensel_lift,
    is_primitive_divisor,
    iterate_valuation,
    scan_shifts,
)
from critorbit import lifting
from critorbit.cli import main
from oracles import full_width_lift, orbit_walk

PRIMES_BELOW_60 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


@st.composite
def _prime_and_base(draw):
    """A prime p < 60 and a base c0 in [-p^3, p^3)."""
    p = draw(st.sampled_from(PRIMES_BELOW_60))
    return p, draw(st.integers(-(p**3), p**3 - 1))


class TestHenselLift:
    def test_lift_lands_on_16_mod_125(self):
        result = hensel_lift(2, 3, 5, 1, 3)
        assert result.lifted_value == Residue(5, 3, 16)
        assert result.shift_valuation == 1
        assert result.nu_value == 1
        assert result.nu_derivative == 0

    def test_higher_precision_consistent(self):
        low = hensel_lift(2, 3, 5, 1, 3)
        high = hensel_lift(2, 3, 5, 1, 9)
        assert high.lifted_value.value % 125 == low.lifted_value.value
        # the lift really kills f^3(0) at the requested precision
        x = 0
        for _ in range(3):
            x = (x * x + high.lifted_value.value) % 5**9
        assert x == 0

    def test_obstruction_at_13(self):
        with pytest.raises(HenselHypothesisError) as err:
            hensel_lift(2, 5, 13, 3, 2)
        assert err.value.nu_value == 1
        assert err.value.nu_derivative == 1

    def test_trivial_period_one(self):
        result = hensel_lift(2, 1, 7, 7, 4)
        assert result.lifted_value.value == 0
        assert result.shift_valuation == 1

    def test_exact_pcf_base(self):
        # c0 = 0 is already the exact period-1 parameter at every prime
        result = hensel_lift(2, 1, 5, 0, 3)
        assert result.lifted_value.value == 0

    def test_exact_pcf_base_of_period_two(self):
        # c0 = -1 with d even: f^2(0) = 0 exactly, so no Newton step runs
        result = hensel_lift(4, 2, 7, -1, 3)
        assert result.lifted_value == Residue(7, 3, 342)
        assert (result.shift_valuation, result.nu_derivative) == (3, 0)

    def test_base_lifted_past_the_cap_is_its_own_lift(self):
        # f^3(0) at the 5^60 lift of 1 vanishes beyond the cap 4 * (3 + 8),
        # which once raised "raise the valuation cap"
        deep = hensel_lift(2, 3, 5, 1, 60).lifted_value.value
        again = hensel_lift(2, 3, 5, deep, 3)
        assert again.lifted_value == hensel_lift(2, 3, 5, 1, 3).lifted_value

    def test_newton_step_cap_raises(self, monkeypatch):
        # one evaluation and no step to spare: 1 is not yet a root mod 5^12
        monkeypatch.setattr(lifting, "_NEWTON_SLACK", -(12).bit_length())
        with pytest.raises(InternalConsistencyError, match="within 0 steps"):
            hensel_lift(2, 3, 5, 1, 12)

    def test_work_bound_is_checked_before_any_walk(self, monkeypatch):
        # n * (precision * bits(5))^2 is 3 * (7 * 3)^2 = 1323 at precision 7
        # and 1728 at precision 8
        monkeypatch.setattr(lifting, "_LIFT_WORK_LIMIT", 1323)
        assert hensel_lift(2, 3, 5, 1, 7).lifted_value.value == 13891
        monkeypatch.setattr(lifting, "_rank_valuation", None)  # the first walk
        with pytest.raises(SearchExhaustedError) as info:
            hensel_lift(2, 3, 5, 1, 8)
        assert info.value.bound == 1323

    def test_wrong_period_rejected(self):
        with pytest.raises(ValueError, match="period"):
            hensel_lift(2, 4, 5, 1, 3)

    def test_one_rank_walk_and_no_period_type_on_success(self, monkeypatch):
        # the rank walk decides exact period n and gives nu(F); only the
        # failure message builds a period type
        calls = []
        real = lifting._rank_valuation
        monkeypatch.setattr(lifting, "_rank_valuation",
                            lambda *args: calls.append(args) or real(*args))
        monkeypatch.setattr(lifting, "period_type_mod", None)
        assert hensel_lift(2, 3, 5, 1, 12) == full_width_lift(2, 3, 5, 1, 12)
        assert len(calls) == 1
        monkeypatch.undo()
        with pytest.raises(ValueError, match=r"found tail 2, period 2\)"):
            hensel_lift(2, 2, 5, 2, 3)

    def test_uniqueness_from_congruent_starts(self):
        # any start congruent to the lift mod p^(shift+1) converges to it
        reference = hensel_lift(2, 3, 5, 1, 6)
        modulus = 5 ** (reference.shift_valuation + 1)
        base = reference.lifted_value.value % modulus
        for tweak in range(3):
            start = base + tweak * modulus
            again = hensel_lift(2, 3, 5, start, 6)
            assert again.lifted_value == reference.lifted_value

    def test_shift_identity_on_samples(self):
        rng = random.Random(99)
        checked = 0
        for _ in range(60):
            d = rng.choice([2, 3])
            n = rng.randrange(1, 5)
            p = rng.choice([3, 5, 7, 11, 13, 17])
            c0 = find_base(d, n, p)
            if c0 is None or c0 == 0:
                continue  # c0 = 0 is the exact period-1 root; no shift to measure
            try:
                lift = hensel_lift(d, n, p, c0, 6)
            except HenselHypothesisError:
                continue
            assert lift.shift_valuation == lift.nu_value - lift.nu_derivative
            delta = (lift.lifted_value.value - c0) % p**6
            if delta and lift.shift_valuation < 6:
                v = 0
                while delta % p == 0:
                    delta //= p
                    v += 1
                assert v == lift.shift_valuation
            checked += 1
        assert checked > 20


class TestNewtonSchedule:
    @given(
        d=st.integers(2, 5),
        base=_prime_and_base(),
        precision=st.integers(1, 70),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_full_width_lift(self, d, base, precision):
        # the lifted residue over a simple root is unique, so the doubling
        # schedule must give every field the full-width reference gives; n is
        # the exact period of 0 mod p at c0, as a drawn n would rarely be one
        p, c0 = base
        tail, n = orbit_walk(d, c0, p)
        assume(tail == 0 and n <= 6)
        expected = full_width_lift(d, n, p, c0, precision)
        assume(expected is not None)
        lift = hensel_lift(d, n, p, c0, precision)
        assert lift == expected
        # primitivity needs no walk after the shift check: the lift lies over
        # c0, where the orbit of 0 mod p first returns to 0 at step n
        c = lift.lifted_value.value
        assert (c - c0) % p == 0
        assert orbit_walk(d, c, p) == (0, n)

    def test_work_grows_like_one_full_width_walk(self, monkeypatch):
        # doubling precision walks at p^1, p^2, ..., p^N: under 4 full widths
        # in all, where fixed-width Newton walks at p^N about log2(N) times
        bits = []
        walk = lifting._derivative_walk

        def counted(d, c, modulus, n):
            bits.append(modulus.bit_length())
            return walk(d, c, modulus, n)

        monkeypatch.setattr(lifting, "_derivative_walk", counted)
        hensel_lift(2, 12, 47, 38, 5000)
        assert sum(bits) <= 5 * (47**5000).bit_length()

    def test_sabotaged_walk_raises_and_exits_4(self, monkeypatch, capsys):
        # a walk that never vanishes mod p^precision exhausts the step guard
        walk = lifting._derivative_walk

        def sabotaged(d, c, modulus, n):
            value, deriv = walk(d, c, modulus, n)
            return (1 if modulus == 5**12 else value), deriv

        monkeypatch.setattr(lifting, "_derivative_walk", sabotaged)
        with pytest.raises(InternalConsistencyError, match="within 8 steps"):
            hensel_lift(2, 3, 5, 1, 12)
        code = main("lift --d 2 --n 3 --p 5 --c0 1 --precision 12".split())
        doc = json.loads(capsys.readouterr().out)
        assert (code, doc["status"]) == (4, "internal-error")
        assert "within 8 steps" in doc["payload"]["error"]


class TestLiftAgainstExhaustiveScan:
    def test_lift_is_the_unique_solution_class(self):
        # brute-force oracle: when the base root is simple, the residues in
        # [0, p^N) with f^n(0) = 0 mod p^N lying over c0 form exactly one
        # class, and it is the lifted value
        cases = [
            (2, 3, 5, 1, 3),
            (2, 2, 3, 2, 4),
            (3, 2, 5, 2, 3),
            (2, 2, 7, 6, 2),
        ]
        for d, n, p, c0, N in cases:
            modulus = p**N
            solutions = []
            for c in range(modulus):
                if c % p != c0 % p:
                    continue
                x = 0
                for _ in range(n):
                    x = (pow(x, d, modulus) + c) % modulus
                if x == 0:
                    solutions.append(c)
            lift = hensel_lift(d, n, p, c0, N)
            assert solutions == [lift.lifted_value.value], (d, n, p, c0, N)


class TestScanShifts:
    def test_13_obstruction_is_exhaustive(self):
        values = scan_shifts(2, 5, 13, 3)
        assert len(values) == 13
        assert all(v % 13 == 0 for v in values)  # 13 still divides f^5(0)
        assert all(v != 0 for v in values)  # but never to the second power

    def test_good_prime_has_a_lifting_shift(self):
        values = scan_shifts(2, 3, 5, 1)
        assert any(v == 0 for v in values)


class TestAdjustPower:
    def test_square_power_at_five(self):
        lift = hensel_lift(2, 3, 5, 1, 4)
        c2 = adjust_power(lift, 2)
        assert c2 == 41
        assert iterate_valuation(2, c2, 3, 5) == (2, True)
        # the witness -9 satisfies the same contract
        assert is_primitive_divisor(2, -9, 3, 5) == (True, 2)

    def test_unit_power_at_five(self):
        lift = hensel_lift(2, 3, 5, 1, 4)
        c1 = adjust_power(lift, 1)
        assert is_primitive_divisor(2, c1, 3, 5) == (True, 1)
        # c0 = 1 itself already satisfies this contract
        assert is_primitive_divisor(2, 1, 3, 5) == (True, 1)

    def test_seventeenth_power_at_three(self):
        lift = hensel_lift(2, 2, 3, 2, 19)
        c17 = adjust_power(lift, 17)
        assert is_primitive_divisor(2, c17, 2, 3) == (True, 17)
        # contract shared with the hand-built witness 3^17 - 1
        assert is_primitive_divisor(2, 3**17 - 1, 2, 3) == (True, 17)

    def test_range_of_output(self):
        lift = hensel_lift(2, 3, 5, 1, 4)
        c3 = adjust_power(lift, 3)
        assert 0 <= c3 < 5**4 + 5**3

    def test_precision_too_low(self):
        lift = hensel_lift(2, 3, 5, 1, 3)
        with pytest.raises(ValueError, match="precision"):
            adjust_power(lift, 3)

    def test_nonzero_derivative_rejected(self):
        fake = LiftResult(
            d=2, n=3, p=5, precision=4,
            lifted_value=Residue(5, 4, 16), shift_valuation=2,
            nu_value=3, nu_derivative=1, base_c0=1,
        )
        with pytest.raises(ValueError, match="nu"):
            adjust_power(fake, 2)

    def test_hundred_random_cases_exact_valuation(self):
        # p < 100, r <= 8, d in {2, 3}, n <= 5: the adjusted parameter always
        # passes the primitive-divisor check with exactly the requested power
        rng = random.Random(2024)
        done = 0
        while done < 100:
            d = rng.choice([2, 3])
            n = rng.randrange(1, 6)
            p = rng.choice([3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47])
            r = rng.randrange(1, 9)
            if gleason_degree(d, n) >= 1:
                g = gleason_poly(d, n)
                if g.degree >= 1 and discriminant(g) % p == 0:
                    continue
            c0 = find_base(d, n, p)
            if c0 is None or c0 == 0:
                continue
            try:
                lift = hensel_lift(d, n, p, c0, r + 2)
            except HenselHypothesisError:
                continue
            if lift.nu_derivative != 0:
                continue
            c_r = adjust_power(lift, r)
            assert is_primitive_divisor(d, c_r, n, p) == (True, r)
            done += 1
