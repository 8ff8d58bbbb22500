"""Golden CLI corpus: exact stdout bytes and exit codes of fixed invocations.

Each case stores the SHA-256 of everything ``critorbit.cli.main`` writes to
stdout plus its exit code.  Each bullet below is one recording, made at the
parent commit of the change it names, so a refactor that changes any payload
byte (key order, number formatting, an answer) fails here:

- recorded before the orbit kernel was merged: the first cases;
- recorded before the ``F_p[x]`` helpers were merged: the three large-prime
  ``roots`` and pooled ``density`` cases;
- recorded before the F_p base search was shared: the automatic-prime and
  inadmissible-prime ``construct`` cases, the cubic ``condition`` cases and
  the wrong-period ``lift``;
- recorded before period types over Z/p^t were computed level by level: the
  five deep ``orbit`` cases (growing, attracting and p = 2 cycles);
- recorded before roots below 10^6 stopped coming from a scan over all
  residues: the ``roots`` cases at p = 2, 3, 99991 and 999983, ``disc --d 2
  --n 6`` and the simple-root ``correspond`` case;
- recorded before the construction tested p | disc(G) mod p instead of
  reducing the integer discriminant: the exact-zero ``lift`` cases and the
  period-6 and period-8 automatic ``construct`` cases;
- recorded before the CLI's parser was rebuilt from one flag table: the two
  ``construct`` cases with pinned primes above 10^6 (the Gleason-root branch
  of the base search);
- recorded before the correspondence's Gleason discriminant fallback was
  deleted: the p <= d ``correspond`` case;
- recorded before x^p mod G was computed on packed integers: the degree-120
  ``roots`` cases (at p above 10^6 and at p = 13, below the degree) and the
  degree-80 ``density`` scan;
- recorded before the Newton lift of a simple root ran at doubling
  precision: the 1,672-digit ``lift`` at p = 47, the nu(F') = 1 ``lift`` at
  p = 3, the p = 2 and negative-base ``lift`` cases and the 600-digit
  ``adjust``;
- recorded before the census walked one parameter per class: the ``pcf``,
  ``condition`` and ``correspond`` cases at d = 4, 5 and 7 (classes
  {u c : u^(d-1) = 1} of 3, 4 and 6 parameters, in and out of the
  permutation case, with and without simple-root failures);
- recorded before the census keyed its classes by c^(d-1): the
  ``construct`` cases with pinned primes above 10^6 at d = 3 and d = 4
  (Gleason roots in classes of 2 and of 3);
- recorded before the primes below 2^14 shared one product of G(c) reduced
  mod their product: the five ``density`` cases at n = 1 (G(0) = 0, so the
  product of G(c) is 0), at d = 4, at the prime limit 997 in CSV, and at
  limit 17000, which straddles 2^14, alone and with two workers;
- recorded before both came from the rank's one walk: the ``primitive`` and
  ``valuation`` cases at n a proper multiple of the rank r(p) of p (the
  first i with p | a_i) and at n not a multiple of it, for integer and
  rational c, at p = 2, at p = d = 3 and for c = -1, d even at odd and
  even n;
- recorded before trial division collected its divisors in one pass over
  the wheel and the witness search ran rho only when no trial prime was a
  witness: ``certify --d 2 --c 13 --m 8 --budget 50`` (rho skipped at
  n = 7, where the witness is 29), ``certify --d 2 --c 3 --m 8 --budget
  50``, ``certify --d 2 --c -12 --m 7 --budget 50`` (the n = 7 witness
  19588213 comes from an incomplete rho), ``factor --x 375194125579``
  (7^2 * 13 * 19 * 31 * 1000003: the composite 247 = 13 * 19 precedes 13 on
  the mod-30 wheel) and ``rho --d 2 --c 9 --n 5``;
- recorded before exact period n came from the first zero of the critical
  orbit: ``condition --d 2 --p 251 --n 19`` (the failure 126, at n above the
  square root of p), ``condition --d 3 --p 67 --n 10`` (the class {9, 58}),
  ``condition --d 4 --p 43 --n 8`` (the class {5, 8, 30}, outside the
  permutation case) and ``lift --d 2 --n 2 --p 5 --c0 2 --precision 3`` (a
  strictly preperiodic base, found tail 2, period 2);
- recorded before the CRT discriminant stopped at Mahler's bound over
  four-prime moduli and a given-n scan in the permutation case stopped at
  the first zero: ``disc --d 2 --n 7`` and ``disc --d 3 --n 5``
  (discriminants of 376 and 506 bits), ``condition --d 3 --p 2399 --n 5``
  and ``condition --d 5 --p 173 --n 34`` (given n where x^d + c permutes
  F_p, the second with the failures 20, 43, 130 and 153);
- recorded before the batch evaluated G at only half the residues for odd d
  and reduced mod the primes' product by Barrett's method: ``density --d 3
  --n 3 --limit 15000``, ``density --d 3 --n 2 --limit 2`` (p = 2 alone,
  where c = 1 is its own negative), ``density --d 5 --n 2 --limit 1000`` and
  ``density --d 3 --n 3 --limit 3000 --threads 2``;
- recorded before one scan built G, disc(G) and the batch in the calling
  process and sent only the primes from 2^14 up to worker processes:
  ``density --d 2 --n 6 --limit 1770 --threads 2`` (no prime from 2^14 up),
  ``density --d 3 --n 3 --limit 20000 --threads 2`` (odd d, with a pooled
  tail) and ``density --d 2 --n 4 --limit 16440 --threads 2`` (a 5-prime
  tail, below 4 x workers, so it runs serially);
- recorded before every prime walk became ``filter(is_prime, ...)`` and the
  witness scan walked only the primes dividing a_n: ``certify --d 2 --c 3
  --m 8 --budget 2000`` and ``certify --d 2 --c 11 --m 8 --budget 1500``
  (iterates 2 and 3, and iterate 8, use the whole scan), ``certify --d 5 --c
  2 --m 8 --budget 100`` (a_8 is beyond the factoring digit guard, so the
  scan walks every prime) and ``disc --d 2 --n 8`` (64 of its 128 CRT primes
  come from the walk past the table);
- recorded before the witness search became one scan per certificate that
  tests each prime only at its rank: ``certify --d 23 --c 2 --m 6 --budget
  100`` (a_5 and a_6 are beyond the factoring digit guard, and one scan
  finds their witnesses 7 and 13) and ``certify --d 2 --c 3 --m 3 --budget
  80000`` (a budget past the 78,498 primes up to 10^6 with every a_n
  computed: the scan meets 7, of rank 3 with nu_7(a_3) = 2, and runs to
  its end);
- recorded before ``bound`` refused a d^(n-1) beyond the float range:
  ``bound --d 2 --n 1024 --c 1`` (2^1023 - 1 = 8.98846567431158e+307, at
  the last n whose bound is finite at d = 2, c = 1) and ``bound --d 2 --n
  1000 --c 3``;
- recorded before ``rho`` sized a_n and ``density`` sized G from bit
  lengths: ``rho --d 2 --c 1 --n 40``, ``rho --d 2 --c 1 --n 21`` (the first
  refused n, an estimate of 2097152 digits against the guard 2000000) and
  ``rho --d 3 --c 5/7 --n 30``, and ``density`` refusing d = 2, n = 16 by
  the degree guard, by its limit first, and by d = 1 before its limit.

Together the cases cover all 18 subcommands, exit codes 0, 1 and 2,
``density --csv``, ``certify --check``, rational parameters, root splitting
at primes from 2 to above 10^6 and density scans whose primes from 2^14 up
run in two worker processes.  Every stdout but the CSV ones must also parse
as JSON with no ``NaN`` or ``Infinity``, which RFC 8259 does not allow.

Exit code 3 (``exhausted``) is not covered here.  Two CLI paths raise
``SearchExhaustedError``: the automatic prime search of ``construct``, which
scans primes up to 10^6 before giving up, so that no cheap input reaches its
bound; and the work bound of ``lift`` and ``adjust``, whose inputs ran with no
bound before it and never finished, so they have no recorded bytes.
``tests/test_cli.py``'s ``test_exhausted_prime_search_exits_3`` lowers the
prime bound to 50 and pins the exit code and payload, and
``test_lift_beyond_the_work_bound_exits_3`` runs the lift and the adjust past
the work bound in a subprocess.

``PYTHONPATH=src python tests/test_golden_cli.py`` prints ``id exit sha256``
for every case: run it at the parent commit to record new cases, or after an
intended payload change to re-record the table; say why in CHANGES.md.
"""

import hashlib
import json

import pytest

from critorbit.cli import main

SPEC = {
    "d": 2,
    "constraints": [
        {"n": 2, "primes": [{"p": "3", "k": 2}]},
        {"n": 3, "primes": [{"p": "5", "k": 1}]},
    ],
    "exclude_primes": [],
}


def _entry(n, p, valuation):
    return {
        "checks": {
            "prime_coprime_to_degree": True,
            "primitive": True,
            "valuation_coprime_to_degree": True,
        },
        "n": n,
        "p": str(p),
        "valid": True,
        "valuation": valuation,
    }


# the certificate `certify --d 2 --c 5 --m 3` prints, and a tampered copy
CERT = {
    "d": 2,
    "c": "5",
    "m": 3,
    "entries": [_entry(1, 5, 1), _entry(2, 3, 1), _entry(3, 181, 1)],
    "missing": [],
    "neg_c_is_square": False,
}
TAMPERED = dict(CERT, entries=[_entry(1, 5, 1), _entry(2, 3, 3), _entry(3, 181, 1)])



def _spec(d, constraints, exclude=()):
    """A spec of (n, p or None, k) constraints, one prime per iterate."""
    return {
        "d": d,
        "constraints": [
            {"n": n, "primes": [{"k": k} if p is None else {"p": str(p), "k": k}]}
            for n, p, k in constraints
        ],
        "exclude_primes": [str(p) for p in exclude],
    }


FILES = {
    "spec": SPEC,
    # automatic primes, with and without an excluded prime
    "spec_auto": _spec(2, [(3, None, 2), (4, None, 1)]),
    "spec_auto_excluded": _spec(3, [(2, None, 3), (3, None, 1)], exclude=[5]),
    # pinned primes that fail each admissibility test: no base of exact
    # period 3 in F_13, 23 divides the period-3 discriminant, and the base 78
    # of period 9 mod 137 is a double root
    "spec_no_base": _spec(2, [(3, 13, 1)]),
    "spec_disc": _spec(2, [(3, 23, 1)]),
    "spec_double_root": _spec(2, [(9, 137, 1)]),
    # automatic primes screened by the Gleason discriminant: 13 has a base of
    # exact period 6 but divides disc(G_{2,6}), so the scan lands on 29; and
    # a period-8 iterate, whose degree-128 discriminant is screened too
    "spec_auto_disc": _spec(2, [(6, None, 2)]),
    "spec_auto_deep": _spec(2, [(8, None, 3)]),
    # pinned primes above 10^6, where the base search takes the Gleason roots
    # mod p instead of scanning every residue: two bases that lift, and a
    # prime with no base of exact period 3
    "spec_large": _spec(2, [(4, 1000033, 2), (5, 1000003, 1)]),
    "spec_no_base_large": _spec(2, [(3, 1000003, 1)]),
    # the same branch at d = 3 and d = 4 with primes = 1 mod 3, where the
    # Gleason roots come in classes {u c : u^(d-1) = 1} of 2 and of 3
    "spec_large_cubic": _spec(3, [(3, 1000099, 2), (4, 1000081, 1)]),
    "spec_large_quartic": _spec(4, [(3, 1000117, 1), (2, 1000081, 2)]),
    "cert": CERT,
    "tampered": TAMPERED,
    "witnesses": {"1": "5", "2": "3"},
}

# (id, argv, exit code, sha256 of stdout); {name} is the file name.json from FILES
CASES = [
    ("orbit-periodic", "orbit --d 2 --p 5 --t 3 --c 1", 0,
     "1704743a0feb9b900d7be96ee9bd50045bda331f70797b98ca6fc87edb60b672"),
    ("orbit-preperiodic", "orbit --d 3 --p 7 --t 2 --c 2", 0,
     "f3c11979ae0275bef7983c3895e613e6278ad2f9773962af2e1b7f474902e7e1"),
    ("orbit-deep", "orbit --d 2 --p 5 --t 6 --c 1", 0,
     "3feb35d2f12e5a786a740d878892632300f22ac4645e1733f0089f1cf5d58507"),
    ("orbit-growth", "orbit --d 2 --p 5 --t 10 --c 3", 0,
     "a669e743e088a03b97b5d667619a7c9063c83955830be21efd673bd293c41131"),
    ("orbit-growth-cubic", "orbit --d 3 --p 7 --t 6 --c 2", 0,
     "8458e91cdfc4930818ef16f0875808a525ae78e9bef082702cfe632a2fd5cfce"),
    ("orbit-growth-p3", "orbit --d 2 --p 3 --t 12 --c 7", 0,
     "fe3147d6161b2c1f4986443ca23ff5877be089e2215eba3f642b68874cf68d16"),
    ("orbit-attracting", "orbit --d 2 --p 5 --t 12 --c 1", 0,
     "388b4ffe61e8dbbd7828906a4d56e22c1e8627debb51594e017ba52449858888"),
    ("orbit-p2", "orbit --d 3 --p 2 --t 20 --c 1", 0,
     "827d604039aec7e9791b46f92fd7b3fcfe469220b89cb7a0cf81efc9da7e6946"),
    ("orbit-not-prime", "orbit --d 2 --p 6 --c 1", 2,
     "b7db03591ecd5bf8d76ad3dc60b1e1f73ee7e26b5ad868e030d49155ec5a353a"),
    ("valuation-square", "valuation --d 2 --c -9 --n 3 --p 5", 0,
     "937845ef1974003721a302ef6c88cc983ed3e02154d1b50d5c669355f815d532"),
    ("valuation-rational", "valuation --d 2 --c 1/3 --n 2 --p 13", 0,
     "dbf5080c7a5b218e420527b5cb5fae63442d18454401e011d4d58fef09b61035"),
    ("valuation-capped", "valuation --d 2 --c 0 --n 3 --p 5 --cap 64", 0,
     "55955bf4e3621100bbaee7f225dc6a5dd8ffc04cd0ab66467184069251184ab7"),
    ("primitive-integer", "primitive --d 2 --c 1 --n 3 --p 5", 0,
     "38dd44ccc9d3391ac47108ca3d8b9d5dd95471ec7447cf0004a1c8fcb157378a"),
    ("primitive-rational", "primitive --d 3 --c 2/3 --n 3 --p 7", 0,
     "9d181f67830a2f2be7adbfe188e094f45c42eefa3f8630863a852db701ea29d8"),
    ("primitive-denominator", "primitive --d 2 --c 1/5 --n 2 --p 5", 2,
     "b10fb0c9f9e12dba4cda0c264de6a81ba96ed138667c6af578cf11ca293edfd1"),
    ("primitive-zero-iterate", "primitive --d 2 --c 0 --n 3 --p 5", 2,
     "361b006ead95c0e4b86c735dfea038a2610e051e1d8b114a19f08d1feca593b0"),
    ("primitive-rank-multiple", "primitive --d 2 --c 1 --n 6 --p 5", 0,
     "5e1b5e6604bdb3fec6e98f665d822566cc4e7a4f7d0b12bd2f78c76adeaa61d9"),
    ("valuation-rank-multiple", "valuation --d 2 --c 1 --n 6 --p 5", 0,
     "3a22c8b86bd15cf88cbc587936f5c245d51f13c1d58dd85a52ad68a50653c734"),
    ("primitive-not-rank-multiple", "primitive --d 2 --c 1 --n 4 --p 5", 0,
     "21ee7e9f7ce6c4b7f3cc6f3e8e1521ec5bd799510b0efd40353518b3623d1649"),
    ("valuation-not-rank-multiple", "valuation --d 2 --c 1 --n 5 --p 5", 0,
     "8321e233ed0accf9ed17c525163d584ef5e26b85eb04fc4ce2ac4613cf5d1d28"),
    ("primitive-rational-square", "primitive --d 2 --c=-29/4 --n 2 --p 5", 0,
     "730627d91b7741e78557b0ef52048efbcbc07c0fd7b5a95ee10f04a06bbb3173"),
    ("valuation-rational-rank-multiple", "valuation --d 2 --c=-29/4 --n 6 --p 5", 0,
     "1b6c44061554e55fff17387b5b92cacd02af6cd3a890988be4d5d5b4efb6fdab"),
    ("valuation-rational-not-rank-multiple", "valuation --d 2 --c=-29/4 --n 3 --p 5", 0,
     "3b2fb6735a7a65730c0eacbcaaf5adb446951763f8e718b1d01f005cdb6516d1"),
    ("primitive-p2", "primitive --d 2 --c -29 --n 2 --p 2", 0,
     "4680538dd19a76b81ffb89564ffcc3aaefc80e57ef5d2472219adb9ecee1d89b"),
    ("valuation-p2-rank-multiple", "valuation --d 2 --c -29 --n 4 --p 2", 0,
     "d44e2f3d2be7062a4d91053db5d5928dcd7fa8ed2d92953a1721c41a73ca80cf"),
    ("primitive-p-divides-degree", "primitive --d 3 --c -28 --n 3 --p 3", 0,
     "13267529761592cd2d94efb203c1a669ed4c335199197f90a02ee8e9f0af2948"),
    ("valuation-p-divides-degree", "valuation --d 3 --c -28 --n 6 --p 3", 0,
     "b3f87f887ac387d87d5226205afd0449128a2a871dddca191f18436831ad45d2"),
    ("primitive-zero-cycle-odd", "primitive --d 2 --c -1 --n 3 --p 5", 0,
     "e45bb1641365de1c20694feefd2bfbeb3573eb8a5a2323ae927965e15dfd7f27"),
    ("valuation-zero-cycle-odd", "valuation --d 4 --c -1 --n 5 --p 3", 0,
     "b4d9dd5569b80398fa3271601b836fb2736716b948b28b1c2ed82e0a4f77af3f"),
    ("valuation-zero-cycle-even", "valuation --d 2 --c -1 --n 4 --p 5 --cap 64", 0,
     "00557bf05291ca4724319f814c7a4025b0659f195a3b212c75ec7d173779f6eb"),
    ("primitive-zero-cycle-even", "primitive --d 2 --c -1 --n 2 --p 5", 2,
     "5471d6dc75230bffae37a9c4414d7699bbb7992b25edf3a9de99c1ff4f9c0439"),
    ("gleason", "gleason --d 2 --n 4", 0,
     "7b71c87b21c9a805570722534ae4bf9c9437c85b6dd42cad1e57acf3a4964f8d"),
    ("disc", "disc --d 3 --n 3", 0,
     "2cad71a7c1361c9e4c0780736d3f05a86cdae627379aedf08b0f67f60e80bf0f"),
    ("disc-quadratic-6", "disc --d 2 --n 6", 0,
     "1d4b2694ef726cdb46c7cb8a7b01fe987bfead63d8802d6cbba31b2806bba2a6"),
    ("roots", "--seed 7 roots --d 2 --n 3 --p 23", 0,
     "3367cb41442cd299404edc04c88c875258a89d24cd50daa0878293dd954b03d4"),
    ("roots-split-quadratic", "--seed 7 roots --d 2 --n 6 --p 1000183", 0,
     "5d8db50997e45fd199b21fc3ebd2ebe1561517fb54f029e89c174b874b938761"),
    ("roots-split-cubic", "--seed 7 roots --d 3 --n 4 --p 1000213", 0,
     "3fb396a0a9aaff45dde53eca9783da8d92340998996907f053383bfc8c188cc1"),
    ("roots-double-p2", "--seed 7 roots --d 3 --n 2 --p 2", 0,
     "35fc97dc3f7912c1094a06da774a5aa2aee84ba8cfd3eb537356fa0e9d2d57b9"),
    ("roots-p3", "--seed 7 roots --d 3 --n 3 --p 3", 0,
     "3112fa9755cf9a72ec8d2d60e71badffdda26a7f9aa6ecab1ccefc6d5012593a"),
    ("roots-split-below-1e6", "--seed 7 roots --d 2 --n 6 --p 99991", 0,
     "db605a8f9725c4be2b6bea66190fe1ee2bfba1dd4939c749755f9b2966cf51fb"),
    ("roots-split-999983", "--seed 7 roots --d 2 --n 6 --p 999983", 0,
     "d75e7bf8887771ece0641c2a16f64f21ae2de01925fc402d3b172d46f7eca901"),
    ("roots-degree-120", "--seed 7 roots --d 2 --n 8 --p 1000003", 0,
     "a0ae43b6b670bb0f5ae1749449c86d6f0987acf9b10ae2c5bd857fc250dcec50"),
    ("roots-prime-below-degree", "--seed 7 roots --d 2 --n 8 --p 13", 0,
     "f53870345d6dff6bafdafa37db7bc92bd1a2e04785543fb43e479c1ee588ff07"),
    ("lift", "lift --d 2 --n 3 --p 5 --c0 1 --precision 12", 0,
     "a2b29bb90c6e8275658114e5c5b830f9f6e16149f1689c0a47e404729cdf0277"),
    ("lift-obstruction", "lift --d 2 --n 5 --p 13 --c0 3 --precision 2", 2,
     "43ebfb61c45d42b6da0410ae41d2284460b6fba46ee226f87c5dd81537bfc922"),
    ("lift-wrong-period", "lift --d 2 --n 4 --p 5 --c0 1 --precision 3", 2,
     "94f4a85a7eb08ef56ab3c596fe478e79a446b3654ed4ba50b19f08b0e74efeab"),
    ("lift-exact-zero", "lift --d 2 --n 1 --p 5 --c0 0 --precision 3", 0,
     "5498f5ff069fbd001880b6f35d18b3d15cee9243089ac52bd674dddffc88a575"),
    ("lift-exact-zero-even", "lift --d 2 --n 2 --p 5 --c0 -1 --precision 3", 0,
     "17fbdfccf535ad28aab0da80bddb993dbe99fe3bec620a52978842be21024621"),
    ("lift-1672-digits", "lift --d 2 --n 12 --p 47 --c0 38 --precision 1000", 0,
     "05f89aa39f30342330ad5bc9ba2650261e6da4ae58db19107b7dd2113b686b22"),
    ("lift-double-root", "lift --d 4 --n 2 --p 3 --c0 -10 --precision 12", 0,
     "39e1d895985626a39f062ac8bb60f86bdfc98729c5878e02191ca1a971e49656"),
    ("lift-p2", "lift --d 2 --n 2 --p 2 --c0 1 --precision 5", 0,
     "3edcbd76e32353a7bcf0c37de122bb55bf60a5e7911cee00637578c797e21f7e"),
    ("lift-negative-base", "lift --d 2 --n 3 --p 5 --c0 -4 --precision 5", 0,
     "0357bc8e10051b91fe26350d1965199aca54d6246b4deba0fcfed36c06bd8b70"),
    ("adjust", "adjust --d 2 --n 3 --p 5 --c0 1 --r 4", 0,
     "be9a220ddbb99417ad5ef6a5dffdcf0b86b18c3667c8bdacd15a16f545ad55e8"),
    ("adjust-600-digits", "adjust --d 2 --n 7 --p 19 --c0 10 --r 600", 0,
     "78da864cdd15919679eac39e38c70319ae8f692bcf707564ea78b69f1123d298"),
    ("construct", "construct --spec {spec}", 0,
     "d442bc346f5f1725d6ca0cf23629fe70a3d7ef131a577f714c51320b033b4dc6"),
    ("construct-auto", "construct --spec {spec_auto}", 0,
     "82729d8dfb210c45004bcb3e5a74756195da1e4c5d22d4d51533ffb1c403e89d"),
    ("construct-auto-excluded", "construct --spec {spec_auto_excluded}", 0,
     "363833ef8c1651a77015a93b60c5bda1a3c63c0bbf827b7c4a80cba1a54e3b0f"),
    ("construct-auto-disc", "construct --spec {spec_auto_disc}", 0,
     "5670644ed49eba28e6359b80c104aeaa040c1e45b489e1898850623e099d48b4"),
    ("construct-auto-deep", "construct --spec {spec_auto_deep}", 0,
     "bd6c3f1c4e36f451e1ad71bc6d8d9ce3b06cbfae3bf5e6e499cc1a1fbd1da698"),
    ("construct-pinned-large-primes", "construct --spec {spec_large}", 0,
     "46e2378acd7dbf810812e4eacb12e5490b4604e36793db7711a3c1f1fe3028bb"),
    ("construct-pinned-large-cubic", "construct --spec {spec_large_cubic}", 0,
     "4bcc364770cb56f7609a16b08adb618b80bfc14e3cf8b90c0349fa32cf24d99e"),
    ("construct-pinned-large-quartic", "construct --spec {spec_large_quartic}", 0,
     "d36fc92594ccbf56c5eb1aae2d88ff2897f0074ca0dd8abedd70e8610567b590"),
    ("construct-no-base-large", "construct --spec {spec_no_base_large}", 2,
     "553c7bf98e41d9faf2f36d11ef27d9b3907399298e148176dca9d8caf2bfb433"),
    ("construct-no-base", "construct --spec {spec_no_base}", 2,
     "157031832e97916d4d2c296518b9824d475f2a95bb1e3911472f35cb916ed9a5"),
    ("construct-disc", "construct --spec {spec_disc}", 2,
     "e4abffd072ce2487704e8454310582e7519adb6b7b4272350429ebe68a4912b4"),
    ("construct-double-root", "construct --spec {spec_double_root}", 2,
     "556e71e498cb4f3c176269d761f50b0c453e39418fcc9a0f80efc8e18d2b83c8"),
    ("verify-ok", "verify --d 2 --c 521 --spec {spec}", 0,
     "bb2328974f29ab92606868905a94a809e58d411dcb08f9e23c4e812e0f43cfda"),
    ("verify-failed", "verify --d 2 --c 1 --spec {spec}", 1,
     "6aeaf54d1b8e033bfb436cfc75e6b1773411ffb29249513b84b4b6cadb1de2e7"),
    ("pcf", "pcf --d 3 --p 13", 0,
     "47727def08f61521c7e35ba5eaca6c10fdc49b8098342cb70b9a4b94576df8cc"),
    ("pcf-permutation", "pcf --d 3 --p 101", 0,
     "adc9e49a5928345da70076be4727d98291cc9abf4710762bcf9a2db609e8e197"),
    ("pcf-septic-permutation", "pcf --d 7 --p 223", 0,
     "f47728dbd5abe0daf987c729c531db83203596b83db8ee2c9d3d9b3044fe8803"),
    ("pcf-quartic", "pcf --d 4 --p 31", 0,
     "e331f07c5ed4aaa2f2087808356265a9efef618363eb99729bfc61fbbc804ebe"),
    ("condition-star-star", "condition --d 2 --p 13", 0,
     "fff9e8d9ac376deee8196f4edeb983f7a647e76238601916b1f03bac5f1464b3"),
    ("condition-bounded", "condition --d 2 --p 23 --max-period 4", 0,
     "4b77a367d1511a5b643e22c9a06eef9a1f7d17fff09bf0f7b8486aacf9d18bc2"),
    ("condition-star", "condition --d 2 --p 13 --n 5", 0,
     "6e58eeb5b387745111327d60cb5ca5fd4dc5cf7af394ea3f2b491e5d51d1372b"),
    ("condition-cubic", "condition --d 3 --p 659", 0,
     "3bee7f1cf8c8a7324ad20ba275ad9562dfd006fe221a86a0f21ad28ee3ae0d16"),
    ("condition-star-cubic", "condition --d 3 --p 1009 --n 4", 0,
     "fcda086e63636b433900fbc77f2a91aec28864da3256f326d599378f23d94dc8"),
    ("condition-quintic-permutation", "condition --d 5 --p 173", 0,
     "eae7cb477e9b7059d33af4439fc401c9a465e5d13ac1dbfb0797aa5b2ab7e0c4"),
    ("condition-quartic", "condition --d 4 --p 43", 0,
     "0682403eb8c7a9c8276c21559dbb114ce2720e53b33fa494fb32ee6828c46880"),
    ("condition-star-quartic", "condition --d 4 --p 997 --n 3", 0,
     "a73b104342d19cc681641b9c8c8afb6ca642929cfc72f1b9d33115550fbb0d6b"),
    ("correspond", "correspond --d 2 --p 13 --precision 5", 0,
     "caca001be11cc702c7349a9790073f3c6053ff4c99fb86bd89b5ce7434cc33f9"),
    ("correspond-cubic", "correspond --d 3 --p 11 --precision 8", 0,
     "344de677a79ed7283d311b4d115c37fcb75ebc2278d909d5af792e763ef7decb"),
    ("correspond-simple-roots", "correspond --d 2 --p 7 --precision 4", 0,
     "4fac1ee35ba68f035377e105e8e8745676e58bf41d1ed5b27a7c994ed7f400e6"),
    ("correspond-small-prime", "correspond --d 3 --p 3 --precision 3", 0,
     "c5db3b032e4640173bc3a392eb88c750e6c978a4b30ed48ec3ab507829a271b8"),
    ("correspond-septic", "correspond --d 7 --p 19 --precision 6", 0,
     "407a34b3466001112e7364929af30d293f048d93f017bdd07f685e4a51b7e3ee"),
    ("density-json", "density --d 2 --n 3 --limit 300", 0,
     "994fe6d675afa9aebb2dfb0a4680f5e9f1d9b6e05eb856174011273b76761e03"),
    ("density-csv", "density --d 3 --n 2 --limit 120 --csv", 0,
     "f1d8249364d18d700fe2f5d4470a8d3804170ba31e85eb8682219a0ed2e3434f"),
    ("density-pooled", "density --d 2 --n 5 --limit 400 --threads 2", 0,
     "512cb8602717f8d99633a277c060db90abc5f582874542d11c8a91559b304c48"),
    ("density-degree-80", "density --d 3 --n 5 --limit 200", 0,
     "c5758e7084595f5865ff67a454a7b1054b572ca97cc91b3988e9a0b1284f2ba3"),
    ("density-zero-product", "density --d 2 --n 1 --limit 50", 0,
     "42a4cf3f26546f0f4fd4b1b7cf4e5b0e5fa66a4a27c859a2a001605257ff70d0"),
    ("density-quartic", "density --d 4 --n 3 --limit 500", 0,
     "9b391f71ff5d081a4248334dc4a3336102ec298178ea531251be6e7cd5a53b22"),
    ("density-csv-prime-limit", "density --d 2 --n 4 --limit 997 --csv", 0,
     "390ff51b204b31a86acdfe96240a581e464bb51fe8c0e3ba66dbc30a3f007aeb"),
    ("density-straddles-batch-limit", "density --d 2 --n 3 --limit 17000", 0,
     "2d10739ce2db6fefb777e7a2b9cb7df14e144a56b89ecadd39e5e1e3ac0cfa4d"),
    ("density-straddles-batch-limit-pooled",
     "density --d 2 --n 3 --limit 17000 --threads 2", 0,
     "2d10739ce2db6fefb777e7a2b9cb7df14e144a56b89ecadd39e5e1e3ac0cfa4d"),
    ("bound-rational", "bound --d 2 --n 4 --c=-3/2", 0,
     "418925bfe8e0e7d41272bbdc7177be32042036726217950a60597ed8cafbdbf1"),
    ("bound-pcf", "bound --d 2 --n 3 --c 0", 2,
     "f0d1aaae7210859ccb01a080240f98cfa96609e29cfa823b413e33a764945a06"),
    ("rho-integer", "rho --d 2 --c 1 --n 5", 0,
     "31ecc13b66c3617dd03bc95ed16bef15a99be51d1f09485c4f5c8b1e02dab41e"),
    ("rho-rational", "rho --d 2 --c 1/2 --n 4", 0,
     "66aa04f40a20e4491d56354354cca9c6bc055875a40c279346f4b8bfe283fcc8"),
    ("certify", "certify --d 2 --c 5 --m 3", 0,
     "b145a67c6584f65618c597e0a7a4445eb4b68afd0fece297d8dd7257cb2c2a8f"),
    ("certify-witnesses", "certify --d 2 --c 5 --m 2 --witnesses {witnesses}", 0,
     "340f995937565c2730fdd7d0df51a65bbbc4a6cf425eeb8846747c4661c7f734"),
    ("certify-incomplete", "certify --d 2 --c 4 --m 1 --budget 20", 1,
     "16ca3080630e8b880fb4013d8d99232358d92f09e651d7da797b555394e7ba3e"),
    ("certify-missing-args", "certify --d 2", 2,
     "1be7a6ac09f8bb54dee76ad8b2a63d2aab116be20a5a13bace0596442e194f69"),
    ("certify-check", "certify --check {cert}", 0,
     "3ee2cf8f92b4a286f579c748eba6922edd9f2cbb4629b57932c5ad67f80b1621"),
    ("certify-check-tampered", "certify --check {tampered}", 1,
     "86cf5abd43e4654468f241390627dfb5d76eb8a23355c97493d63391c67388ef"),
    ("factor", "factor --x 600851475143", 0,
     "159c5c8e15ffc404dceeb043bec2b1f87a35992b60b5961e01924d50bb61cc8d"),
    ("factor-malformed", "factor --x 12a", 2,
     "468a178842c9e7ba0c017ef4e198e16c570e736444f560e4e0d6c22093ae5abd"),
    # certificate witnesses among the trial primes while rho could still
    # split the rest (n = 7 at c = 13 is 29), iterates with no witness at all
    # (n = 2, 3 at c = 3) and a witness from an incomplete rho (n = 7 at
    # c = -12 is 19588213); and 7^2 * 13 * 19 * 31 * 1000003, whose composite
    # divisor 247 = 13 * 19 sits in an earlier class mod 30 than 13 and 19
    ("certify-trial-witness", "certify --d 2 --c 13 --m 8 --budget 50", 1,
     "47d92829d6b0db6d1a782237c24999e551a2364bb5f7e04ffef82ae782899a62"),
    ("certify-missing-iterates", "certify --d 2 --c 3 --m 8 --budget 50", 1,
     "14a5a6e1a309456eb253645d3e1a15f1ec6ce4f963721268d3305725db5348a9"),
    ("certify-incomplete-rho", "certify --d 2 --c -12 --m 7 --budget 50", 0,
     "2b563c13e6b00f8c538d19dab96fe013af914699c915716b747220b919084164"),
    ("factor-composite-classes", "factor --x 375194125579", 0,
     "36b7fde0f4469d41dd1caec22fa3c5fef32019dab1e1d0e17af00d580470dc59"),
    ("rho-complete", "rho --d 2 --c 9 --n 5", 0,
     "92e175d84d49bd2e18919630c08b132fb3b979edd1dc706c3eb5dbaff8f648a5"),
    # exact period n decided by the first zero: a failure at n > sqrt(p),
    # classes of 2 and of 3 parameters outside the permutation case, and a
    # strictly preperiodic lift base whose message names its period type
    ("condition-star-beyond-root", "condition --d 2 --p 251 --n 19", 0,
     "104aacd88534bc6d658be6c8d6163114d04a9d2507d02219ad8374994036ee3a"),
    ("condition-star-cubic-class", "condition --d 3 --p 67 --n 10", 0,
     "aeaf110b36044dcb2913b04ded84d82484047c4cc79f01c4ac236c02351db02e"),
    ("condition-star-quartic-class", "condition --d 4 --p 43 --n 8", 0,
     "1ed3a280d223e28c72e0e9c247e4c04dcf6bf5ad5310ff7d7512a4783de41a67"),
    ("lift-preperiodic-base", "lift --d 2 --n 2 --p 5 --c0 2 --precision 3", 2,
     "f22d91238276eadabb22dc116fdf3ad69b6efd326f6cde8f840dc068bc965bcc"),
    # integer discriminants whose CRT stops at Mahler's bound, and exact
    # period n tested by the first zero in the permutation case
    ("disc-quadratic-7", "disc --d 2 --n 7", 0,
     "41ce57ba4ab5a370cf913305cc886c993c2085be3d720c1938fe362afc4faf66"),
    ("disc-cubic-5", "disc --d 3 --n 5", 0,
     "58d5372d6b5379c371b5ad0e08926aba76d04f36874ef497de51d57db74c0a02"),
    ("condition-star-cubic-permutation", "condition --d 3 --p 2399 --n 5", 0,
     "733cbbfa2a141b40a550622604e271182973606a665ecaa84f8057b4f1e2794a"),
    ("condition-star-quintic-permutation", "condition --d 5 --p 173 --n 34", 0,
     "490e78702b2f940ddfb5575d2c52e0b78727dbba06505aade650b18881660e9c"),
    # batched density scans at odd d, where G(-c) = +-G(c): a batch near 2^14,
    # p = 2 alone (c = 1 is its own negative), d = 5 and a --threads 2 scan
    ("density-cubic-batch", "density --d 3 --n 3 --limit 15000", 0,
     "9855c72b5658a70752e8813f4fa7591b9bd49720a5a37d7cee9da73fa51c0110"),
    ("density-cubic-p2-only", "density --d 3 --n 2 --limit 2", 0,
     "ec6c07e469071cd2ea97fc763a051cfa81bdff027936ced494704bef9be6eb98"),
    ("density-quintic", "density --d 5 --n 2 --limit 1000", 0,
     "e81f7c783d6e981253f54d9350c6fee456e704f3252e24d4a0d6fab666db8cc0"),
    ("density-cubic-pooled", "density --d 3 --n 3 --limit 3000 --threads 2", 0,
     "f52a6f65f7e5c45632e592129b6d83d099b7a4d8324f1cb084282aea47306794"),
    # --threads 2 scans with no primes from 2^14 up, with a pooled tail of
    # such primes at odd d, and with a 5-prime tail, below 4 x workers
    ("density-pooled-batch-only", "density --d 2 --n 6 --limit 1770 --threads 2", 0,
     "2ab4b022e162c15f6dbb648753ddd31112bfaa6ed5e89460ec4b017a159a13d4"),
    ("density-cubic-pooled-tail", "density --d 3 --n 3 --limit 20000 --threads 2", 0,
     "da771acc1b75db1285bbbe37f11e8fc1690f6f03d603f4ac9fe390d5f3827f2d"),
    ("density-pooled-short-tail", "density --d 2 --n 4 --limit 16440 --threads 2", 0,
     "7845249bba607e82cd974144c0ce47ee91cab02cad9a213e7303ea506af411e0"),
    # witness scans that use their whole budget (iterates 2 and 3 at c = 3,
    # iterate 8 at c = 11), one whose a_8 is beyond the factoring digit guard,
    # so every prime of the budget is walked, and a discriminant that draws
    # 64 of its 128 CRT primes from the walk past the table
    ("certify-scan-exhausted", "certify --d 2 --c 3 --m 8 --budget 2000", 1,
     "14a5a6e1a309456eb253645d3e1a15f1ec6ce4f963721268d3305725db5348a9"),
    ("certify-scan-exhausted-late", "certify --d 2 --c 11 --m 8 --budget 1500", 1,
     "d8718cc6e72045e32b76f8fcf47a79582f966835717a4a2d07c1b308618aaf4f"),
    ("certify-beyond-digit-guard", "certify --d 5 --c 2 --m 8 --budget 100", 1,
     "446cb9208e57d61c385730a2d9d39e5882e52ed09c3214e0c57c144acb4f1abf"),
    ("disc-quadratic-8", "disc --d 2 --n 8", 0,
     "cb189fb889220e4642eb61cc14200c1a9576c86bcaf9dd13feee15946894b6a5"),
    # one witness scan per certificate: two iterates beyond the digit guard
    # share it, and a budget past the primes up to 10^6 runs it to its end
    ("certify-shared-scan", "certify --d 23 --c 2 --m 6 --budget 100", 0,
     "de69e2eacf9b3f66766cfafee8cbc4ed5a282c2339bee17a4807fb844312ab78"),
    ("certify-scan-past-trial-limit", "certify --d 2 --c 3 --m 3 --budget 80000", 1,
     "3545e8f25177d15306630bf3a86cda0d83dc54d7ed1e9022e76684914a63c3d9"),
    # bounds near the top of the float range: 2^1023 - 1 at c = 1, the last
    # n whose bound is finite at d = 2, and one at d^(n-1) = 2^999
    ("bound-float-edge", "bound --d 2 --n 1024 --c 1", 0,
     "6569b393b92d296e1ae8101e29c191a37a834ce42a1415756b253101817edd68"),
    ("bound-large-scale", "bound --d 2 --n 1000 --c 3", 0,
     "0b24754f3fd949ed59cdd944d139cf2fde7102f7a3abccd0fa2c1cbed6e200c2"),
    # refusals that must keep their bytes once sizes come from bit lengths:
    # rho's digit estimate (the first refused n at d = 2, c = 1, where it is
    # 2^20 * 2 = 2097152 against the guard 2000000), and the order of
    # density's input checks around f^n(0)'s degree guard
    ("rho-digit-estimate", "rho --d 2 --c 1 --n 40", 2,
     "307c8a112627838493f2ac93e85a30e227bd01b04bd28d569f1ab3be399f8daf"),
    ("rho-first-refused-n", "rho --d 2 --c 1 --n 21", 2,
     "f87d087603b567e6c0731a007b2970c8494d9734c48c53a85ac8bb1cbff14db5"),
    ("rho-rational-estimate", "rho --d 3 --c 5/7 --n 30", 2,
     "465eb55287b70a82d78b70e277db5cbdebec7e9b453e329c54335cc18365df4d"),
    ("density-degree-refused", "density --d 2 --n 16 --limit 100", 2,
     "c297dccf3085f380e3c673a4b96aabfc5a8eb52eebf0dd6ec87726fe64609312"),
    ("density-limit-before-degree", "density --d 2 --n 16 --limit 1", 2,
     "8c4c3240f795eb0997420d69bec354da8f6a5bc3db38ef2e3d2bea07e0274de3"),
    ("density-degree-args-first", "density --d 1 --n 3 --limit 1", 2,
     "75e13ae80bac73080b056438a7749e86b7b0af3b3def2a3008a883e7445c02c8"),
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _argv(command: str, tmp_path) -> list[str]:
    paths = {name: str(tmp_path / f"{name}.json") for name in FILES}
    return [word.format(**paths) for word in command.split()]


def _write_files(directory):
    for name, doc in FILES.items():
        (directory / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    return directory


@pytest.fixture
def corpus_dir(tmp_path):
    return _write_files(tmp_path)


@pytest.mark.parametrize(
    "command,code,digest", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_golden_output(command, code, digest, corpus_dir, capsys):
    got_code = main(_argv(command, corpus_dir))
    out = capsys.readouterr().out
    assert (got_code, _sha(out)) == (code, digest)
    if "--csv" not in command:  # JSON by RFC 8259: no NaN and no Infinity
        json.loads(out, parse_constant=_reject_constant)


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def test_corpus_covers_every_subcommand_and_exit_code():
    from critorbit.cli import build_parser

    parser = build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command")
    used = {next(w for w in c[1].split() if not w.startswith("-") and not w.isdigit())
            for c in CASES}
    assert used == set(subparsers.choices)
    assert {c[2] for c in CASES} == {0, 1, 2}


if __name__ == "__main__":
    # print "id exit sha256" for every case, to record new cases at a parent commit
    import contextlib
    import io
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        directory = _write_files(pathlib.Path(tmp))
        for case_id, command, _, _ in CASES:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                got_code = main(_argv(command, directory))
            print(case_id, got_code, _sha(out.getvalue()))
