import random
import time

import pytest

from critorbit import (
    DiscObstructionError,
    DivisibilitySpec,
    PrimeNotAdmissibleError,
    PrimePowerConstraint,
    SearchExhaustedError,
    build_parameter,
    check_condition_star,
    find_base,
    find_prime_for_iterate,
    gleason_poly,
    primes_up_to,
    verify_spec,
)
from critorbit import constructor, orbit, pcf

from oracles import orbit_walk

C52 = 24351981847787737533052341852056330671894786203451391

SIX_CONSTRAINTS = DivisibilitySpec(
    d=2,
    constraints=(
        PrimePowerConstraint(n=2, k=29, p=2),
        PrimePowerConstraint(n=2, k=17, p=3),
        PrimePowerConstraint(n=2, k=5, p=7),
        PrimePowerConstraint(n=3, k=8, p=5),
        PrimePowerConstraint(n=3, k=3, p=19),
        PrimePowerConstraint(n=4, k=21, p=13),
    ),
)


class TestFindBase:
    def test_period_three_bases(self):
        assert find_base(2, 3, 5) == 1
        # G_{2,3}(3) = 49 = 0 mod 7 and 0 -> 3 -> 5 -> 0 has exact period 3
        assert find_base(2, 3, 7) == 3
        assert find_base(2, 3, 13) is None

    def test_cubic_period_two(self):
        assert find_base(3, 2, 5) == 2

    def test_period_one(self):
        assert find_base(2, 1, 2) == 0
        assert find_base(2, 1, 7) == 0

    def test_formal_but_not_exact_period_filtered(self):
        # mod 23 both Gleason roots keep exact period 3; the smaller wins
        assert find_base(2, 3, 23) == 14

    @pytest.mark.parametrize("n", [0, -3])
    def test_period_below_one_is_rejected(self, n):
        with pytest.raises(ValueError, match=r"period must lie in \[1, p\]"):
            find_base(2, n, 20011)

    def test_composite_p_is_reported_before_the_period(self):
        with pytest.raises(ValueError, match="not prime"):
            find_base(2, 0, 20012)

    def test_period_above_p_returns_at_once(self):
        # no orbit mod p is longer than p; scanning F_20011 takes about 1 s
        start = time.perf_counter()
        assert find_base(2, 20012, 20011) is None
        assert time.perf_counter() - start < 0.25


@pytest.mark.parametrize("d", [2, 3])
def test_find_base_is_the_first_parameter_of_exact_period(d):
    for p in primes_up_to(100):
        walks = [orbit_walk(d, c, p) for c in range(p)]
        for n in range(1, 8):
            expected = next((c for c, walk in enumerate(walks) if walk == (0, n)), None)
            assert find_base(d, n, p) == expected, (p, n)


@pytest.mark.parametrize("p", [1_000_003, 1_000_033])
@pytest.mark.parametrize("d", [2, 3])
def test_find_base_above_1e6_is_the_first_gleason_root_of_exact_period(d, p):
    # above 10^6 the base search takes the Gleason roots mod p instead of
    # scanning every residue; sympy gives the roots independently, as the
    # linear factors of gcd(G, x^p - x)
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    x = [ZZ(1), ZZ(0)]
    for n in range(1, 7):
        g = [ZZ(c % p) for c in reversed(gleason_poly(d, n).coeffs)]
        x_p = galoistools.gf_pow_mod(x, p, g, p, ZZ)
        split = galoistools.gf_gcd(g, galoistools.gf_sub(x_p, x, p, ZZ), p, ZZ)
        _, factors = galoistools.gf_factor(split, p, ZZ)
        roots = sorted(-int(f[1]) % p for f, _ in factors)
        expected = next((r for r in roots if orbit_walk(d, r, p) == (0, n)), None)
        assert find_base(d, n, p) == expected, n


class TestFindPrimeForIterate:
    def test_period_three(self):
        # 2 divides d, 3 has no base; 5 is the first admissible prime
        assert find_prime_for_iterate(2, 3) == (5, 1)

    def test_period_two_with_exclusion(self):
        # 2 divides d, 3 is excluded, disc(G_{2,2}) = 1: the scan lands on 5
        assert find_prime_for_iterate(2, 2, excluded={3}) == (5, 4)

    def test_period_one_skips_degree_prime(self):
        assert find_prime_for_iterate(2, 1) == (3, 0)

    def test_growing_exclusions_stay_distinct(self):
        taken = set()
        for _ in range(4):
            p, _ = find_prime_for_iterate(2, 3, excluded=taken)
            assert p not in taken
            taken.add(p)
        assert len(taken) == 4

    def test_scan_starts_at_the_first_prime_not_below_n(self, monkeypatch):
        # primes below n cannot carry an orbit of period n, so none is tried
        tried = []

        def no_base(d, n, p):
            tried.append(p)
            raise PrimeNotAdmissibleError(f"no base at {p}")

        monkeypatch.setattr(constructor, "_admissible_base", no_base)
        with pytest.raises(SearchExhaustedError):
            find_prime_for_iterate(2, 30, ceiling=50)
        assert tried == [31, 37, 41, 43, 47]
        tried.clear()
        with pytest.raises(SearchExhaustedError):
            find_prime_for_iterate(3, 1, ceiling=7)
        assert tried == [2, 5, 7]
        tried.clear()
        with pytest.raises(SearchExhaustedError):
            find_prime_for_iterate(2, 31, ceiling=31)  # a prime n is tried itself
        assert tried == [31]


class TestSpecValidation:
    def test_duplicate_pinned_primes(self):
        with pytest.raises(ValueError, match="distinct"):
            DivisibilitySpec(
                d=2,
                constraints=(
                    PrimePowerConstraint(n=2, k=1, p=5),
                    PrimePowerConstraint(n=3, k=1, p=5),
                ),
            )

    def test_excluded_pinned_prime(self):
        with pytest.raises(ValueError, match="excluded"):
            DivisibilitySpec(
                d=2,
                constraints=(PrimePowerConstraint(n=2, k=1, p=5),),
                excluded_primes=frozenset({5}),
            )

    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            PrimePowerConstraint(n=2, k=0, p=5)

    def test_json_round_trip(self):
        doc = SIX_CONSTRAINTS.to_json_dict()
        again = DivisibilitySpec.from_json_dict(doc)
        assert again == SIX_CONSTRAINTS

    def test_malformed_json(self):
        with pytest.raises(ValueError, match="malformed"):
            DivisibilitySpec.from_json_dict({"d": 2})


class TestVerifySpec:
    def test_reference_constant_passes(self):
        checks = verify_spec(2, C52, SIX_CONSTRAINTS)
        assert all(check.ok for check in checks)
        assert [check.valuation for check in checks] == [29, 17, 5, 8, 3, 21]

    def test_unit_case(self):
        spec = DivisibilitySpec(
            d=2, constraints=(PrimePowerConstraint(n=3, k=1, p=5),)
        )
        assert all(c.ok for c in verify_spec(2, 1, spec))

    def test_valuation_mismatch(self):
        spec = DivisibilitySpec(
            d=2, constraints=(PrimePowerConstraint(n=3, k=2, p=5),)
        )
        checks = verify_spec(2, 1, spec)
        assert not checks[0].ok
        assert checks[0].valuation == 1

    def test_auto_constraint_unverifiable(self):
        spec = DivisibilitySpec(
            d=2, constraints=(PrimePowerConstraint(n=3, k=1),)
        )
        with pytest.raises(ValueError):
            verify_spec(2, 1, spec)


class TestBuildParameter:
    def test_single_pinned_power(self):
        spec = DivisibilitySpec(
            d=2, constraints=(PrimePowerConstraint(n=2, k=29, p=2),)
        )
        report = build_parameter(spec)
        assert report.all_verified
        # the hand construction 2^29 - 1 satisfies the same congruence class
        assert report.c % 2**30 == (2**29 - 1) % 2**30

    def test_six_constraint_round_trip(self):
        report = build_parameter(SIX_CONSTRAINTS)
        assert report.all_verified
        checks = verify_spec(2, report.c, SIX_CONSTRAINTS)
        assert all(check.ok for check in checks)

    def test_crt_consistency(self):
        report = build_parameter(SIX_CONSTRAINTS)
        for record in report.records:
            assert report.c % record.modulus == record.residue

    def test_determinism(self):
        spec = DivisibilitySpec(
            d=2,
            constraints=(
                PrimePowerConstraint(n=2, k=3),
                PrimePowerConstraint(n=3, k=2),
            ),
        )
        first = build_parameter(spec)
        second = build_parameter(spec)
        assert first.c == second.c
        assert [(r.p, r.residue) for r in first.records] == [
            (r.p, r.residue) for r in second.records
        ]

    def test_not_admissible_prime(self):
        spec = DivisibilitySpec(
            d=2, constraints=(PrimePowerConstraint(n=3, k=1, p=13),)
        )
        with pytest.raises(PrimeNotAdmissibleError):
            build_parameter(spec)

    def test_disc_obstruction(self):
        # 13 divides disc(G_{2,5}); the documented bad prime
        spec = DivisibilitySpec(
            d=2, constraints=(PrimePowerConstraint(n=5, k=1, p=13),)
        )
        with pytest.raises(DiscObstructionError):
            build_parameter(spec)

    def test_random_small_specs_round_trip(self):
        rng = random.Random(77)
        for _ in range(8):
            count = rng.randrange(1, 4)
            ns = rng.sample([1, 2, 3, 4], count)
            constraints = tuple(
                PrimePowerConstraint(n=n, k=rng.randrange(1, 7)) for n in ns
            )
            spec = DivisibilitySpec(d=2, constraints=constraints)
            report = build_parameter(spec)
            assert report.all_verified
            primes = [record.p for record in report.records]
            assert len(primes) == len(set(primes))
            assert all(p % 2 == 1 for p in primes)  # auto mode avoids p | d
            pinned = DivisibilitySpec(
                d=2,
                constraints=tuple(
                    PrimePowerConstraint(n=r.n, k=r.k, p=r.p)
                    for r in report.records
                ),
            )
            assert all(c.ok for c in verify_spec(2, report.c, pinned))

    def test_excluded_primes_respected(self):
        spec = DivisibilitySpec(
            d=2,
            constraints=(PrimePowerConstraint(n=3, k=1),),
            excluded_primes=frozenset({5}),
        )
        report = build_parameter(spec)
        assert report.records[0].p not in {2, 5}


def _pinned(d, n, p):
    return DivisibilitySpec(d=d, constraints=(PrimePowerConstraint(n=n, k=1, p=p),))


def _assert_pinned_and_automatic_agree(d, n, excluded):
    p, c0 = find_prime_for_iterate(d, n, excluded=excluded)
    # a prime the scan passes over fails when pinned, unless the scan skipped
    # it for being excluded or dividing d
    for q in primes_up_to(p - 1):
        if q not in excluded and d % q != 0:
            with pytest.raises((DiscObstructionError, PrimeNotAdmissibleError)):
                build_parameter(_pinned(d, n, q))
    assert build_parameter(_pinned(d, n, p)).records[0].base_c0 == c0


@pytest.mark.parametrize("d", [2, 3])
def test_pinned_and_automatic_primes_agree(d):
    cases = [(n, frozenset()) for n in range(1, 7)]
    cases += [(2, frozenset({5})), (3, frozenset({5, 7}))]
    for n, excluded in cases:
        _assert_pinned_and_automatic_agree(d, n, excluded)


def test_automatic_scan_passes_over_a_double_root_base():
    # excluding the admissible primes of iterate 9 below 137 makes the scan
    # reach 137, whose base 78 is a double root of f^9(0) mod 137; the
    # discriminant is too large to compute there, so only the root test
    # rejects it
    excluded = set()
    while (p := find_prime_for_iterate(2, 9, excluded=excluded)[0]) < 137:
        excluded.add(p)
    assert p == 139
    with pytest.raises(DiscObstructionError, match="78 mod 137 is not a simple root"):
        build_parameter(_pinned(2, 9, 137))
    _assert_pinned_and_automatic_agree(2, 9, frozenset(excluded))


def test_screened_build_runs_no_simple_root_walk(monkeypatch):
    # a prime that passes the discriminant screen (degree <= 128) has G
    # squarefree mod p, so its base is a simple root without a walk; pinned
    # primes include p = d = 2, and 13 fails the screen at n = 5
    calls = []
    monkeypatch.setattr(pcf, "_derivative_walk",
                        lambda *args: calls.append(args) or orbit._derivative_walk(*args))
    for d, top in ((2, 6), (3, 4)):
        automatic = tuple(PrimePowerConstraint(n=n, k=2) for n in range(1, top + 1))
        assert build_parameter(DivisibilitySpec(d=d, constraints=automatic)).all_verified
    assert build_parameter(SIX_CONSTRAINTS).all_verified
    with pytest.raises(DiscObstructionError, match="divides disc"):
        build_parameter(_pinned(2, 5, 13))
    assert not calls


def test_unscreened_double_root_base_is_refused(monkeypatch):
    # 3 is the only base of exact period 5 mod 13, and a double root of
    # f^5(0) there; with the screen off the simple-root walk refuses it
    assert check_condition_star(2, 13, 5) == (False, [3]) and find_base(2, 5, 13) == 3
    monkeypatch.setattr(constructor, "_DISC_SCREEN_DEGREE", 0)
    with pytest.raises(DiscObstructionError, match="3 mod 13 is not a simple root"):
        build_parameter(_pinned(2, 5, 13))
