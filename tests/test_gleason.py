import itertools
import random

import pytest

from critorbit import (
    InternalConsistencyError,
    IntPoly,
    SizeGuardError,
    discriminant,
    discriminant_mod_p,
    gleason_degree,
    gleason_discriminant,
    gleason_poly,
    has_root_mod_p,
    is_primitive_divisor,
    is_simple_root,
    iterate_poly,
    primes_up_to,
    resultant,
    roots_mod_p,
)
from critorbit.gleason import _divmod_p, _xshift_pow

from oracles import brute_roots, sylvester_discriminant, sylvester_resultant


class TestIntPoly:
    def test_trailing_zeros_stripped(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly([0, 0]).is_zero

    def test_arithmetic(self):
        f = IntPoly([1, 1])
        g = IntPoly([-1, 1])
        assert (f * g).coeffs == (-1, 0, 1)
        assert (f + g).coeffs == (0, 2)
        assert (f - g).coeffs == (2,)

    def test_divexact(self):
        product = IntPoly([1, 1]) * IntPoly([2, 0, 3])
        assert product.divexact(IntPoly([1, 1])).coeffs == (2, 0, 3)

    def test_divexact_rejects_inexact(self):
        with pytest.raises(InternalConsistencyError):
            IntPoly([1, 1, 1]).divexact(IntPoly([0, 1]))

    def test_evaluate(self):
        poly = IntPoly([1, 2, 3])
        assert poly.evaluate(-2) == 1 - 4 + 12
        assert poly.evaluate_mod(-2, 7) == (1 - 4 + 12) % 7


class TestIteratePoly:
    def test_first_three(self):
        assert iterate_poly(2, 1).coeffs == (0, 1)
        assert iterate_poly(2, 2).coeffs == (0, 1, 1)
        assert iterate_poly(2, 3).coeffs == (0, 1, 1, 2, 1)

    def test_degree(self):
        for d in (2, 3, 4):
            for n in (1, 2, 3, 4):
                assert iterate_poly(d, n).degree == d ** (n - 1)

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            iterate_poly(2, 40)


class TestGleasonPoly:
    def test_period_three(self):
        assert gleason_poly(2, 3).coeffs == (1, 1, 2, 1)

    def test_period_one(self):
        assert gleason_poly(2, 1).coeffs == (0, 1)

    def test_period_two_general_degree(self):
        # G_{d,2} = c^(d-1) + 1
        for d in range(2, 7):
            expected = (1,) + (0,) * (d - 2) + (1,)
            assert gleason_poly(d, 2).coeffs == expected

    def test_period_four(self):
        assert gleason_poly(2, 4).coeffs == (1, 0, 2, 3, 3, 3, 1)

    def test_moebius_inversion(self):
        # prod over t | n of G_{d,t} rebuilds the iterate polynomial exactly
        for d in (2, 3):
            for n in range(1, 9):
                product = IntPoly([1])
                for t in range(1, n + 1):
                    if n % t == 0:
                        product = product * gleason_poly(d, t)
                assert product == iterate_poly(d, n), (d, n)

    def test_degree_formula_matches(self):
        for d in (2, 3, 4):
            for n in range(1, 8):
                if d ** (n - 1) > 4096:
                    continue
                assert gleason_degree(d, n) == gleason_poly(d, n).degree

    def test_degree_values(self):
        assert gleason_degree(2, 3) == 3
        assert gleason_degree(3, 3) == 8
        assert gleason_degree(2, 6) == 27


class TestResultantAndDiscriminant:
    def test_disc_g23(self):
        assert discriminant(gleason_poly(2, 3)) == -23

    def test_disc_linear(self):
        assert discriminant(IntPoly([0, 1])) == 1

    def test_disc_distinct_roots(self):
        assert discriminant(IntPoly([0, 1, 1])) == 1

    def test_disc_g24(self):
        assert discriminant(gleason_poly(2, 4)) == 23 * 2551

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            discriminant(IntPoly([]))
        with pytest.raises(ValueError):
            discriminant(IntPoly([5]))

    def test_matches_sylvester_oracle(self):
        rng = random.Random(31)
        for _ in range(40):
            deg_f = rng.randrange(1, 7)
            deg_g = rng.randrange(1, 7)
            f = [rng.randrange(-50, 51) for _ in range(deg_f)] + [rng.randrange(1, 50)]
            g = [rng.randrange(-50, 51) for _ in range(deg_g)] + [rng.randrange(1, 50)]
            assert resultant(IntPoly(f), IntPoly(g)) == sylvester_resultant(f, g)

    def test_disc_matches_sylvester_oracle(self):
        rng = random.Random(37)
        for _ in range(25):
            deg = rng.randrange(2, 7)
            coeffs = [rng.randrange(-30, 31) for _ in range(deg)] + [rng.randrange(1, 30)]
            assert discriminant(IntPoly(coeffs)) == sylvester_discriminant(coeffs)

    def test_disc_mod_p_consistent(self):
        for n in (1, 2, 3, 4, 5):
            poly = gleason_poly(2, n)
            if poly.degree < 1:
                continue
            disc = discriminant(poly)
            for p in primes_up_to(60):
                assert discriminant_mod_p(poly, p) == disc % p, (n, p)

    # the construction screens primes by disc(G) mod p up to degree 128; G is
    # monic, so the residue is right at p = 2 and at p | d as well
    @pytest.mark.parametrize("d,n", [
        (d, n) for d in (2, 3, 4, 5) for n in range(1, 9) if gleason_degree(d, n) <= 128
    ])
    def test_gleason_disc_mod_p_matches_the_integer_discriminant(self, d, n):
        poly, disc = gleason_poly(d, n), gleason_discriminant(d, n)
        for p in primes_up_to(199):
            assert discriminant_mod_p(poly, p) == disc % p, p

    def test_disc_mod_p_with_derivative_degree_drop(self):
        # derivative of c^5 + c + 1 drops degree mod 5
        poly = IntPoly([1, 1, 0, 0, 0, 1])
        assert discriminant_mod_p(poly, 5) == sylvester_discriminant(list(poly.coeffs)) % 5

    def test_gleason_disc_mod_5_table(self):
        # disc G_{3,i} mod 5 is 1, 1, 1, 1, 4 for i = 1..5
        values = [discriminant_mod_p(gleason_poly(3, i), 5) if gleason_poly(3, i).degree >= 1 else 1
                  for i in range(1, 6)]
        assert values == [1, 1, 1, 1, 4]


def _with_chosen_roots(p, count, rng):
    """5 * (x^2 - a) * prod (x - r)^m for a non-residue a and distinct roots r
    with multiplicities 1..3; returns the polynomial and its sorted roots."""
    nonresidue = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
    poly = IntPoly([-5 * nonresidue, 0, 5])
    expected = sorted((r, rng.randrange(1, 4)) for r in rng.sample(range(p), count))
    for r, mult in expected:
        for _ in range(mult):
            poly = poly * IntPoly([-r, 1])
    return poly, expected


class TestRootsModP:
    def test_has_root(self):
        assert has_root_mod_p(gleason_poly(2, 3), 5)
        assert has_root_mod_p(gleason_poly(2, 3), 23)
        assert not has_root_mod_p(IntPoly([1, 0, 1]), 7)

    def test_roots_mod_23(self):
        # G_{2,3} = (c + 8)^2 (c + 9) mod 23
        assert roots_mod_p(gleason_poly(2, 3), 23) == [(14, 1), (15, 2)]

    def test_roots_mod_5(self):
        assert roots_mod_p(gleason_poly(2, 3), 5) == [(1, 1)]

    def test_roots_simple(self):
        assert roots_mod_p(IntPoly([0, 1, 1]), 7) == [(0, 1), (6, 1)]

    def test_matches_brute_oracle(self):
        rng = random.Random(41)
        for _ in range(30):
            p = rng.choice([3, 5, 7, 11, 13, 101])
            deg = rng.randrange(1, 6)
            coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
            got = roots_mod_p(IntPoly(coeffs), p)
            assert [r for r, _ in got] == brute_roots(coeffs, p)
            assert sum(m for _, m in got) <= deg
            for r, _ in got:
                assert IntPoly(coeffs).evaluate_mod(r, p) == 0

    # every monic polynomial of degree <= 4 over F_2 and <= 3 over F_3; the
    # x^p - x gcd reaches degree p, where splitting by (x + a)^((p-1)/2) - 1
    # cannot separate the roots at p = 2
    @pytest.mark.parametrize("p,max_degree", [(2, 4), (3, 3)])
    def test_every_small_polynomial_matches_brute_oracle(self, p, max_degree):
        for deg in range(1, max_degree + 1):
            for low in itertools.product(range(p), repeat=deg):
                coeffs = list(low) + [1]
                got = roots_mod_p(IntPoly(coeffs), p)
                assert [r for r, _ in got] == brute_roots(coeffs, p)
                assert sum(m for _, m in got) <= deg
                assert has_root_mod_p(IntPoly(coeffs), p) == bool(got)

    @pytest.mark.parametrize(
        "coeffs,p,expected",
        [
            ([0, 1, 1], 2, [(0, 1), (1, 1)]),  # x^2 + x
            ([0, 0, 1, 1], 2, [(0, 2), (1, 1)]),  # x^2 (x + 1)
            ([0, 0, 1, 0, 1], 2, [(0, 2), (1, 2)]),  # (x^2 + x)^2
            ([0, -1, 0, 1], 3, [(0, 1), (1, 1), (2, 1)]),  # x^3 - x
        ],
    )
    def test_gcd_of_degree_p_gives_every_residue(self, coeffs, p, expected):
        assert roots_mod_p(IntPoly(coeffs), p) == expected
        assert has_root_mod_p(IntPoly(coeffs), p)

    @pytest.mark.parametrize("p", [10_007, 99_991])
    def test_brute_oracle_between_1e4_and_1e6(self, p):
        rng = random.Random(p)
        for count in (0, 2):
            poly, _ = _with_chosen_roots(p, count, rng)
            poly = poly * IntPoly([rng.randrange(p) for _ in range(3)] + [1])
            got = roots_mod_p(poly, p)
            assert [r for r, _ in got] == brute_roots(list(poly.coeffs), p)
            assert has_root_mod_p(poly, p) == bool(got)

    def test_large_prime_splitting_path(self):
        p = 1_000_003
        roots = [3, 77, 500_000]
        poly = IntPoly([1])
        for r in roots:
            poly = poly * IntPoly([-r, 1])
        poly = poly * IntPoly([-77, 1])  # make 77 a double root
        found = roots_mod_p(poly, p)
        assert found == [(3, 1), (77, 2), (500_000, 1)]

    def test_large_prime_rootless(self):
        # c^2 + 1 mod p with p = 3 mod 4 has no roots
        p = 1_000_003
        assert roots_mod_p(IntPoly([1, 0, 1]), p) == []
        assert not has_root_mod_p(IntPoly([1, 0, 1]), p)

    @pytest.mark.parametrize(
        "p", [101, 7919, 10_007, 999_983, 1_000_003, 1_000_033, 2_147_483_647]
    )
    def test_chosen_roots_and_multiplicities(self, p):
        rng = random.Random(p)
        for count in (0, 1, 3):
            poly, expected = _with_chosen_roots(p, count, rng)
            assert roots_mod_p(poly, p) == expected
            assert has_root_mod_p(poly, p) == bool(expected)

    @pytest.mark.parametrize("p", [1_000_003, 1_000_033, 2_147_483_647])
    def test_large_prime_roots_match_sympy(self, p):
        galoistools = pytest.importorskip("sympy.polys.galoistools")
        from sympy.polys.domains import ZZ

        poly, expected = _with_chosen_roots(p, 3, random.Random(p + 1))
        high_first = [ZZ(c % p) for c in reversed(poly.coeffs)]
        _, factors = galoistools.gf_factor(high_first, p, ZZ)
        linear = sorted((-int(f[1]) % p, m) for f, m in factors if len(f) == 2)
        assert roots_mod_p(poly, p) == linear == expected


@pytest.mark.parametrize("p", [2, 3, 5, 101, 2**61 - 1])
def test_remainder_and_power_match_sympy(p):
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    def high_first(coeffs):
        return galoistools.gf_from_int_poly([ZZ(c) for c in reversed(coeffs)], p)

    def low_first(coeffs):
        return [int(c) for c in reversed(coeffs)]

    rng = random.Random(p)
    for _ in range(25):
        # an unreduced dividend and a divisor of degree >= 1, non-monic when p > 2
        f = [rng.randrange(-p * p, p * p) for _ in range(rng.randrange(12))]
        g = [rng.randrange(p) for _ in range(rng.randrange(1, 6))] + [rng.randrange(1, p)]
        quot, rem = galoistools.gf_div(high_first(f), high_first(g), p, ZZ)
        assert _divmod_p(f, g, p) == (low_first(quot), low_first(rem))
        a, e = rng.randrange(p), rng.choice([0, 1, 2, rng.randrange(p), p])
        power = galoistools.gf_pow_mod(high_first([a, 1]), e, high_first(g), p, ZZ)
        assert _xshift_pow(a, e, g, p) == low_first(power)


class TestSimpleRoots:
    def test_simple_at_five(self):
        assert is_simple_root(iterate_poly(2, 3), 5, 1)

    def test_obstructed_at_thirteen(self):
        assert not is_simple_root(iterate_poly(2, 5), 13, 3)

    def test_double_gleason_root_at_23(self):
        assert not is_simple_root(gleason_poly(2, 3), 23, 15)

    def test_non_root_rejected(self):
        with pytest.raises(ValueError):
            is_simple_root(gleason_poly(2, 3), 5, 2)

    def test_repeated_root_forces_disc_divisibility(self):
        # any repeated Gleason root mod p forces p | disc (d = 2, n <= 5, p < 1000)
        for n in range(1, 6):
            poly = gleason_poly(2, n)
            if poly.degree < 1:
                continue
            disc = discriminant(poly)
            for p in primes_up_to(1000):
                if poly.leading() % p == 0:
                    continue
                for root, mult in roots_mod_p(poly, p):
                    if mult >= 2:
                        assert disc % p == 0, (n, p, root)

    def test_converse_fails_at_23(self):
        # 23 divides disc(G_{2,3}) yet c = -9 is a simple root of the iterate
        # polynomial and 23 is primitive there with nu = 1
        assert discriminant(gleason_poly(2, 3)) % 23 == 0
        assert is_simple_root(iterate_poly(2, 3), 23, (-9) % 23)
        assert is_primitive_divisor(2, -9, 3, 23) == (True, 1)
