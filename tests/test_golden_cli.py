"""Golden CLI corpus: exact stdout bytes and exit codes of fixed invocations.

Each case stores the SHA-256 of everything ``critorbit.cli.main`` writes to
stdout plus its exit code.  The hashes were recorded before the orbit kernel
was merged, the three large-prime ``roots`` and pooled ``density`` cases
before the ``F_p[x]`` helpers were merged, and the automatic-prime and
inadmissible-prime ``construct`` cases, the cubic ``condition`` cases and the
wrong-period ``lift`` before the F_p base search was shared, and the five
deep ``orbit`` cases (growing, attracting and p = 2 cycles) before period
types over Z/p^t were computed level by level, and the ``roots`` cases at
p = 2, 3, 99991 and 999983, ``disc --d 2 --n 6`` and the simple-root
``correspond`` case before roots below 10^6 stopped coming from a scan over
all residues, and the exact-zero ``lift`` cases and the period-6 and
period-8 automatic ``construct`` cases before the construction tested
p | disc(G) mod p instead of reducing the integer discriminant, and the two
``construct`` cases with pinned primes above 10^6 (the Gleason-root branch
of the base search) before the CLI's parser was rebuilt from one flag table,
and the p <= d ``correspond`` case before the correspondence's Gleason
discriminant fallback was deleted, and the degree-120 ``roots`` cases (at
p above 10^6 and at p = 13, below the degree) and the degree-80 ``density``
scan before x^p mod G was computed on packed integers, and the 1,672-digit
``lift`` at p = 47, the nu(F') = 1 ``lift`` at p = 3, the p = 2 and
negative-base ``lift`` cases and the 600-digit ``adjust`` before the Newton
lift of a simple root ran at doubling precision, and the ``pcf``,
``condition`` and ``correspond`` cases at d = 4, 5 and 7 (classes
{u c : u^(d-1) = 1} of 3, 4 and 6 parameters, in and out of the permutation
case, with and without simple-root failures) before the census walked one
parameter per class, so a refactor that
changes any payload byte (key order, number formatting, an answer) fails
here.  Together the cases cover all 18 subcommands, exit
codes 0, 1 and 2, ``density --csv``, ``certify --check``,
rational parameters, root splitting at primes from 2 to above 10^6 and a
density scan merged from two worker processes.

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
