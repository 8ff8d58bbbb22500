import functools
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critorbit import DivisibilitySpec, InternalConsistencyError, MaximalityCertificate
from critorbit import constructor
from critorbit.cli import build_parser, main
from test_acceptance import C29
from test_bounds import published_valid_entries


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestBasicCommands:
    def test_gleason_trivial(self, capsys):
        code, doc = run_json(capsys, "gleason", "--d", "2", "--n", "1")
        assert code == 0
        assert doc["status"] == "ok"
        assert doc["payload"]["coefficients"] == ["0", "1"]

    def test_orbit(self, capsys):
        code, doc = run_json(
            capsys, "orbit", "--d", "2", "--p", "5", "--t", "1", "--c", "1"
        )
        assert code == 0
        assert doc["payload"]["period_type"] == {"m": 0, "n": 3}

    def test_valuation(self, capsys):
        code, doc = run_json(
            capsys, "valuation", "--d", "2", "--c", "-9", "--n", "3", "--p", "5"
        )
        assert code == 0
        assert doc["payload"]["valuation"] == 2

    def test_primitive_rational(self, capsys):
        code, doc = run_json(
            capsys, "primitive", "--d", "2", "--c", "1/2", "--n", "2", "--p", "3"
        )
        assert code == 0
        assert doc["payload"]["primitive"] is True

    def test_disc(self, capsys):
        code, doc = run_json(capsys, "disc", "--d", "2", "--n", "3")
        assert doc["payload"]["discriminant"] == "-23"

    def test_roots(self, capsys):
        code, doc = run_json(capsys, "roots", "--d", "2", "--n", "3", "--p", "23")
        assert doc["payload"]["roots"] == [
            {"root": "14", "multiplicity": 1},
            {"root": "15", "multiplicity": 2},
        ]

    def test_lift(self, capsys):
        code, doc = run_json(
            capsys,
            "lift", "--d", "2", "--n", "3", "--p", "5", "--c0", "1",
            "--precision", "3",
        )
        assert code == 0
        assert doc["payload"]["value"] == "16"
        assert doc["payload"]["modulus"] == "125"

    def test_lift_obstruction_is_invalid_input(self, capsys):
        code, doc = run_json(
            capsys,
            "lift", "--d", "2", "--n", "5", "--p", "13", "--c0", "3",
            "--precision", "2",
        )
        assert code == 2
        assert doc["status"] == "invalid-input"
        assert doc["payload"]["nu_value"] == 1
        assert doc["payload"]["nu_derivative"] == 1

    def test_adjust(self, capsys):
        code, doc = run_json(
            capsys,
            "adjust", "--d", "2", "--n", "3", "--p", "5", "--c0", "1", "--r", "2",
        )
        assert code == 0
        assert doc["payload"]["c"] == "41"

    # the 5^60 lift of 1, a root of f^3(0) far beyond the valuation cap
    DEEP_BASE = "319968426936649516208104850221742863217016"

    def test_lift_from_a_base_past_the_cap(self, capsys):
        code, doc = run_json(
            capsys,
            "lift", "--d", "2", "--n", "3", "--p", "5", "--c0", self.DEEP_BASE,
            "--precision", "3",
        )
        assert (code, doc["payload"]["value"]) == (0, "16")

    def test_adjust_from_a_base_past_the_cap(self, capsys):
        code, doc = run_json(
            capsys,
            "adjust", "--d", "2", "--n", "3", "--p", "5", "--c0", self.DEEP_BASE,
            "--r", "2",
        )
        assert (code, doc["payload"]["c"]) == (0, "41")

    @pytest.mark.parametrize("argv", ["gleason --d 1 --n -2", "roots --d 2 --n 0 --p 5"])
    def test_gleason_period_below_one_is_invalid_input(self, capsys, argv):
        code, doc = run_json(capsys, *argv.split())
        assert (code, doc["status"]) == (2, "invalid-input")
        assert doc["payload"]["error"] == "need d >= 2 and n >= 1"

    def test_pcf_census(self, capsys):
        code, doc = run_json(capsys, "pcf", "--d", "3", "--p", "5")
        assert code == 0
        payload = doc["payload"]
        assert payload["periodic"]["0"] == {"m": 0, "n": 1}
        assert payload["periodic"]["1"] == {"m": 0, "n": 4}
        assert payload["condition_star_star"] is True

    def test_condition(self, capsys):
        code, doc = run_json(capsys, "condition", "--d", "2", "--p", "13")
        assert doc["payload"]["condition_star_star"] is False
        assert doc["payload"]["failures"] == [{"c": "3", "period": 5}]

    def test_correspond(self, capsys):
        code, doc = run_json(
            capsys, "correspond", "--d", "3", "--p", "5", "--precision", "4"
        )
        assert code == 0
        assert len(doc["payload"]["entries"]) == 5

    def test_bound_and_rho(self, capsys):
        code, doc = run_json(capsys, "bound", "--d", "2", "--n", "3", "--c", "1")
        assert doc["payload"]["upper_bound"] == pytest.approx(3.0)
        code, doc = run_json(capsys, "rho", "--d", "2", "--c", "1", "--n", "4")
        assert doc["payload"] == {
            "c": "1", "complete": True, "count": 1, "d": 2, "n": 4,
        }

    def test_factor(self, capsys):
        code, doc = run_json(capsys, "factor", "--x", "5175")
        assert doc["payload"]["factors"] == [
            {"p": "3", "e": 2}, {"p": "5", "e": 2}, {"p": "23", "e": 1},
        ]

    def test_factor_keeps_a_strong_pseudoprime_as_a_cofactor(self, capsys):
        # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin to the
        # bases 2..37; rho's budget does not split it, so it stays a cofactor
        psi12 = "318665857834031151167461"
        code, doc = run_json(capsys, "factor", "--x", psi12)
        assert code == 0
        assert doc["payload"]["factors"] == []
        assert doc["payload"]["cofactor"] == psi12
        assert doc["payload"]["complete"] is False


class TestSpecWorkflow:
    @pytest.fixture
    def spec_file(self, tmp_path):
        doc = {
            "d": 2,
            "constraints": [
                {"n": 2, "primes": [{"p": "3", "k": 2}]},
                {"n": 3, "primes": [{"p": "5", "k": 1}]},
            ],
            "exclude_primes": [],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_failed_self_check_is_an_internal_error(self, capsys, monkeypatch, spec_file):
        # a bug, not a verdict: its own status and exit code, not a traceback
        def broken_lift(*args, **kwargs):
            raise InternalConsistencyError("lift lost its period")

        monkeypatch.setattr(constructor, "hensel_lift", broken_lift)
        code, doc = run_json(capsys, "construct", "--spec", spec_file)
        assert code == 4
        assert doc == {"status": "internal-error", "payload": {"error": "lift lost its period"}}

    def test_exhausted_prime_search_exits_3(self, capsys, monkeypatch, tmp_path):
        # none of the primes 31..47 is admissible for iterate 30; the real
        # ceiling, 10^6, is out of a test's reach
        monkeypatch.setattr(constructor, "find_prime_for_iterate",
                            functools.partial(constructor.find_prime_for_iterate, ceiling=50))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(
            {"d": 2, "constraints": [{"n": 30, "primes": [{"k": 1}]}], "exclude_primes": []}
        ))
        code, doc = run_json(capsys, "construct", "--spec", str(path))
        assert code == 3
        assert doc == {
            "status": "exhausted",
            "payload": {"bound": 50, "error": "no admissible prime for iterate 30 within bound 50"},
        }

    def test_construct_then_verify(self, capsys, spec_file):
        code, doc = run_json(capsys, "construct", "--spec", spec_file)
        assert code == 0
        assert doc["payload"]["all_verified"] is True
        c = doc["payload"]["c"]
        code, doc = run_json(
            capsys, "verify", "--d", "2", "--c", c, "--spec", spec_file
        )
        assert code == 0
        assert doc["payload"]["all_ok"] is True

    def test_verify_failure_exit_code(self, capsys, spec_file):
        code, doc = run_json(
            capsys, "verify", "--d", "2", "--c", "1", "--spec", spec_file
        )
        assert code == 1
        assert doc["status"] == "verification-failed"

    def test_missing_spec_file(self, capsys):
        code, doc = run_json(
            capsys, "verify", "--d", "2", "--c", "1", "--spec", "/nonexistent.json"
        )
        assert code == 2

    def test_malformed_constant(self, capsys, spec_file):
        code, doc = run_json(
            capsys, "verify", "--d", "2", "--c", "xyz", "--spec", spec_file
        )
        assert code == 2
        assert "malformed" in doc["payload"]["error"]


class TestCertify:
    def test_complete_certificate(self, capsys):
        code, doc = run_json(capsys, "certify", "--d", "2", "--c", "5", "--m", "2")
        assert code == 0
        assert doc["payload"]["complete"] is True
        assert doc["payload"]["claimed_order"]["decimal"] == "8"

    def test_cubic_certificate_claims_the_order_of_s3(self, capsys):
        # x^3 + 2 has Galois group S_3: order phi(3) * 3^((3 - 1)/(3 - 1)) = 6
        code, doc = run_json(capsys, "certify", "--d", "3", "--c", "2", "--m", "1")
        assert code == 0
        assert doc["payload"]["claimed_order"] == {
            "totient_factor": 2, "base": 3, "exponent": "1", "decimal": "6"
        }

    def test_incomplete_certificate_exit_code(self, capsys):
        code, doc = run_json(
            capsys, "certify", "--d", "2", "--c", "4", "--m", "1",
            "--budget", "20",
        )
        assert code == 1
        assert doc["payload"]["missing"] == [1]

    def test_witness_file(self, capsys, tmp_path):
        path = tmp_path / "wit.json"
        path.write_text(json.dumps({"1": "5", "2": "3"}))
        code, doc = run_json(
            capsys, "certify", "--d", "2", "--c", "5", "--m", "2",
            "--witnesses", str(path),
        )
        assert code == 0
        assert doc["payload"]["complete"] is True

    def test_check_round_trip(self, capsys, tmp_path):
        code, doc = run_json(capsys, "certify", "--d", "2", "--c", "5", "--m", "2")
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(doc["payload"]))
        code, doc = run_json(capsys, "certify", "--check", str(cert_path))
        assert code == 0
        assert doc["payload"]["reproduced"] is True

    def test_check_rejects_tampering(self, capsys, tmp_path):
        code, doc = run_json(capsys, "certify", "--d", "2", "--c", "5", "--m", "2")
        payload = doc["payload"]
        payload["entries"][0]["valuation"] = 7
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(payload))
        code, doc = run_json(capsys, "certify", "--check", str(cert_path))
        assert code == 1

    def test_check_rejects_uncovered_iterates(self, capsys, tmp_path):
        # the 27 verifying entries of the published 29-prime example, m = 29
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps({
            "d": 2,
            "c": str(C29),
            "m": 29,
            "entries": [e.to_json_dict() for e in published_valid_entries()],
            "missing": [],
            "neg_c_is_square": False,
        }))
        code, doc = run_json(capsys, "certify", "--check", str(cert_path))
        assert code == 1
        assert doc["payload"]["reproduced"] is False
        assert doc["payload"]["checked"]["claimed_order"] is None

    def test_certify_missing_args(self, capsys):
        code, doc = run_json(capsys, "certify", "--d", "2")
        assert code == 2


class TestDensityOutput:
    def test_json_report(self, capsys):
        code, doc = run_json(
            capsys, "density", "--d", "2", "--n", "3", "--limit", "300"
        )
        assert code == 0
        assert doc["payload"]["conditional_density"] == "2/3"

    def test_csv_rows(self, capsys):
        code, out = run_cli(
            capsys, "density", "--d", "2", "--n", "3", "--limit", "50", "--csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,has_root"
        assert "5,1" in lines
        assert all(not line.startswith("2,") for line in lines[1:])

    # the CSV rows once skipped the check and printed a bare header with exit 0
    @pytest.mark.parametrize("fmt", [[], ["--csv"]], ids=["json", "csv"])
    def test_limit_below_two_is_invalid_input(self, capsys, fmt):
        code, doc = run_json(capsys, "density", "--d", "2", "--n", "3", "--limit", "1", *fmt)
        assert (code, doc["payload"]["error"]) == (2, "limit must be >= 2")


class TestOutputStability:
    def test_byte_stable(self, capsys):
        _, first = run_cli(capsys, "pcf", "--d", "2", "--p", "7")
        _, second = run_cli(capsys, "pcf", "--d", "2", "--p", "7")
        assert first == second

    def test_meta_outside_payload(self, capsys):
        _, plain = run_json(capsys, "gleason", "--d", "2", "--n", "2")
        _, with_meta = run_json(capsys, "--meta", "gleason", "--d", "2", "--n", "2")
        assert "meta" not in plain
        assert "version" in with_meta["meta"]
        assert with_meta["payload"] == plain["payload"]

    def test_seed_flag_accepted(self, capsys):
        code, doc = run_json(
            capsys, "--seed", "42", "roots", "--d", "2", "--n", "2", "--p", "7"
        )
        assert code == 0
        assert doc["payload"]["roots"] == [{"root": "6", "multiplicity": 1}]


class TestClosedPipe:
    @pytest.mark.parametrize(
        "argv",
        [
            ["pcf", "--d", "2", "--p", "2753"],
            ["density", "--d", "2", "--n", "2", "--limit", "120000", "--csv"],
        ],
        ids=["json", "csv"],
    )
    def test_reader_closing_early_gets_no_traceback(self, argv):
        # both outputs (about 150 kB and 90 kB) overflow a 64 kB pipe buffer,
        # so the CLI is still writing when the reader closes its end
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.Popen(
            [sys.executable, "-m", "critorbit.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        head = proc.stdout.read(100)
        proc.stdout.close()
        assert proc.wait(timeout=120) == 0
        assert len(head) == 100
        assert proc.stderr.read() == b""
        proc.stderr.close()


class TestUsageErrors:
    # argparse once printed these on stderr and exited 2 with no JSON document
    @pytest.mark.parametrize("argv,error", [
        ("valuation --d x --c 1 --n 2 --p 5", "argument --d: invalid int value: 'x'"),
        ("valuation --c 1 --n 2 --p 5", "the following arguments are required: --d"),
        ("bogus --d 2", "argument command: invalid choice: 'bogus'"),
        ("--seed x gleason --d 2 --n 3", "argument --seed: invalid int value: 'x'"),
        ("lift --d 2 --n 3 --p 5 --c0 1 --precision x",
         "argument --precision: invalid int value: 'x'"),
        ("--meta gleason --d 2 --n 3 --extra 1", "unrecognized arguments: --extra 1"),
    ], ids=["unparsable", "missing", "unknown-subcommand", "global-flag",
            "lift-precision", "unknown-flag"])
    def test_usage_error_is_an_invalid_input_document(self, capsys, argv, error):
        code = main(argv.split())
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert (code, doc["status"], captured.err) == (2, "invalid-input", "")
        assert doc["payload"]["error"].startswith(error)
        assert "meta" not in doc  # attached only to arguments that parsed

    def test_usage_error_of_a_cli_process_leaves_stderr_empty(self):
        proc = _run_cli_process(["valuation", "--d", "x", "--c", "1", "--n", "2", "--p", "5"],
                                timeout=60)
        assert (proc.returncode, proc.stderr) == (2, b"")
        assert json.loads(proc.stdout)["status"] == "invalid-input"

    @pytest.mark.parametrize("argv", [["--help"], ["lift", "--help"]])
    def test_help_prints_text_and_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: critorbit")


# each subcommand's flags and the types they parsed to before the shared
# flags were defined once
FLAG_TYPES = {
    "orbit": {"d": int, "p": int, "t": int, "c": str},
    "valuation": {"d": int, "c": str, "n": int, "p": int, "cap": int},
    "primitive": {"d": int, "c": str, "n": int, "p": int},
    "gleason": {"d": int, "n": int},
    "disc": {"d": int, "n": int},
    "roots": {"d": int, "n": int, "p": int},
    "lift": {"d": int, "n": int, "p": int, "c0": str, "precision": int},
    "adjust": {"d": int, "n": int, "p": int, "c0": str, "r": int, "precision": int},
    "construct": {"spec": str},
    "verify": {"d": int, "c": str, "spec": str},
    "pcf": {"d": int, "p": int},
    "condition": {"d": int, "p": int, "n": int, "max_period": int},
    "correspond": {"d": int, "p": int, "precision": int},
    "density": {"d": int, "n": int, "limit": int, "json": bool, "csv": bool, "threads": int},
    "bound": {"d": int, "n": int, "c": str},
    "rho": {"d": int, "c": str, "n": int, "budget": int},
    "certify": {"d": int, "c": str, "m": int, "witnesses": str, "budget": int, "check": str},
    "factor": {"x": str, "budget": int},
}


@pytest.mark.parametrize("command", sorted(FLAG_TYPES))
def test_every_flag_parses_to_its_type(command):
    types = FLAG_TYPES[command]
    parser = build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command")
    flags = {a.dest for a in subparsers.choices[command]._actions} - {"help"}
    assert flags == set(types)
    argv = [command]
    for dest, kind in types.items():
        flag = "--" + dest.replace("_", "-")
        argv += [flag] if kind is bool else [flag, "7"]
    args = parser.parse_args(argv)
    assert {dest: type(getattr(args, dest)) for dest in types} == types


@pytest.fixture
def no_int_str_limit():
    # parsing the answer below needs what the CLI itself lifts
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(saved)


def _run_cli_process(argv, timeout):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-m", "critorbit.cli", *argv],
        capture_output=True, env=dict(os.environ, PYTHONPATH=path), timeout=timeout,
    )


@pytest.mark.parametrize("argv", [
    "lift --d 2 --n 3 --p 5 --c0 1 --precision 100000000",
    "adjust --d 2 --n 3 --p 5 --c0 1 --r 100000000",
    "lift --d 2 --n 3 --p 5 --c0 1 --precision 1" + "0" * 400,
])
def test_lift_beyond_the_work_bound_exits_3(argv):
    # a walk mod 5^(10^8) once ran with no bound and never finished; a
    # 401-digit precision must not overflow a float on its way to the bound
    proc = _run_cli_process(argv.split(), timeout=120)
    assert proc.returncode == 3
    doc = json.loads(proc.stdout)
    assert doc["status"] == "exhausted"
    assert doc["payload"]["bound"] == 10**12
    assert "work bound n * (precision * bits(p))^2" in doc["payload"]["error"]


def test_lift_prints_a_modulus_above_the_int_to_str_limit(no_int_str_limit):
    # 5^6200 has 4334 digits, more than the interpreter's default limit of 4300
    argv = ["lift", "--d", "2", "--n", "3", "--p", "5", "--c0", "1", "--precision", "6200"]
    proc = _run_cli_process(argv, timeout=120)
    assert proc.returncode == 0, proc.stdout[-300:]
    payload = json.loads(proc.stdout)["payload"]
    modulus = 5**6200
    assert len(payload["modulus"]) == 4334
    assert payload["modulus"] == str(modulus)
    c, x = int(payload["value"]), 0
    for _ in range(3):
        x = (x * x + c) % modulus
    assert x == 0


def test_deep_growing_orbit_answers_at_once():
    # the period mod 5^20 is 2 * 5^18 (the closed form 2 * 5^(t-2)); a walk
    # that visits the cycle does not finish
    proc = _run_cli_process(["orbit", "--d", "2", "--p", "5", "--t", "20", "--c", "3"], timeout=30)
    assert proc.returncode == 0, proc.stderr[-300:]
    payload = json.loads(proc.stdout)["payload"]
    assert payload["period_type"] == {"m": 2, "n": 2 * 5**18}
    assert payload["cycle_entry"] == "12"


_ANY = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_INT = st.integers(-3, 50) | st.text("0123456789", min_size=1, max_size=2)


def _mostly(strategy):
    # the expected shape three times in four, any JSON value otherwise
    return st.integers(0, 3).flatmap(lambda i: strategy if i else _ANY)


def _shaped(fields, **optional):
    return _mostly(st.fixed_dictionaries(fields, optional=optional))


def _list_of(strategy):
    return _mostly(st.lists(strategy, min_size=1, max_size=3))


_NUMBER = _mostly(_INT)


_SPECS = _shaped(
    {
        "d": _NUMBER,
        "constraints": _list_of(
            _shaped({"n": _NUMBER, "primes": _list_of(_shaped({"k": _NUMBER}, p=_NUMBER))})
        ),
    },
    exclude_primes=_list_of(_NUMBER),
)
_CERTIFICATES = _shaped(
    {
        "d": _NUMBER,
        "c": _NUMBER,
        "m": _NUMBER,
        "entries": _list_of(_shaped({
            "n": _NUMBER,
            "p": _NUMBER,
            "valuation": _NUMBER,
            "checks": _shaped({
                "primitive": _ANY,
                "valuation_coprime_to_degree": _ANY,
                "prime_coprime_to_degree": _ANY,
            }),
        })),
    },
    missing=_list_of(_NUMBER),
    neg_c_is_square=_ANY,
)


class TestInputMapping:
    @pytest.mark.parametrize("command", ["valuation", "primitive", "bound", "rho"])
    def test_zero_denominator_is_invalid_input(self, capsys, command):
        extra = ["--p", "5"] if command in ("valuation", "primitive") else []
        code, doc = run_json(capsys, command, "--d", "2", "--c", "1/0", "--n", "3", *extra)
        assert code == 2
        assert doc["status"] == "invalid-input"
        assert "zero denominator" in doc["payload"]["error"]

    def test_spec_with_string_primes_is_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"d": 2, "constraints": [{"n": 2, "primes": ["3"]}]}))
        code, doc = run_json(capsys, "construct", "--spec", str(path))
        assert code == 2
        assert "malformed divisibility spec" in doc["payload"]["error"]

    # 9 once printed an empty root list, 0 a ZeroDivisionError traceback, and
    # 1000001 = 101 * 9901 a failed modular inverse
    @pytest.mark.parametrize("p", ["9", "0", "1000001"])
    def test_roots_at_a_non_prime_is_invalid_input(self, capsys, p):
        code, doc = run_json(capsys, "roots", "--d", "2", "--n", "3", "--p", p)
        assert code == 2
        assert doc["status"] == "invalid-input"
        assert doc["payload"]["error"] == f"{p} is not prime"

    def test_witnesses_file_that_is_not_a_map_is_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "wit.json"
        path.write_text(json.dumps([5, 3]))
        code, doc = run_json(
            capsys, "certify", "--d", "2", "--c", "5", "--m", "2", "--witnesses", str(path)
        )
        assert code == 2
        assert "malformed witnesses file" in doc["payload"]["error"]

    # -1 once printed a TypeError traceback, 0 a bound that says nothing
    @pytest.mark.parametrize("cap", ["-1", "0"])
    def test_valuation_cap_below_one_is_invalid_input(self, capsys, cap):
        code, doc = run_json(
            capsys, "valuation", "--d", "2", "--c", "3", "--n", "2", "--p", "5", "--cap", cap
        )
        assert (code, doc["payload"]["error"]) == (2, "valuation cap must be >= 1")

    # -1 once checked no period at all and printed condition_star_star: true
    @pytest.mark.parametrize("bound", ["-1", "0"])
    def test_max_period_below_one_is_invalid_input(self, capsys, bound):
        code, doc = run_json(capsys, "condition", "--d", "3", "--p", "7", "--max-period", bound)
        assert (code, doc["payload"]["error"]) == (2, "max period must be >= 1")

    # d = 1 once got a complete certificate of claimed order 1, d = 0 a
    # valuation and d = -2 a failed modular inverse; at d = 1 every x^d + c
    # permutes F_p, so the census's return walk would answer without the guard
    @pytest.mark.parametrize("argv", [
        "valuation --d 0 --c 3 --n 2 --p 5",
        "primitive --d -2 --c 3 --n 2 --p 5",
        "rho --d 1 --c 3 --n 2",
        "certify --d 1 --c 3 --m 2 --budget 10",
        "pcf --d 1 --p 7",
        "condition --d 1 --p 7",
        "condition --d 1 --p 7 --n 2",
        "correspond --d 1 --p 7 --precision 3",
    ])
    def test_degree_below_two_is_invalid_input(self, capsys, argv):
        code, doc = run_json(capsys, *argv.split())
        assert (code, doc["payload"]["error"]) == (2, "degree must be >= 2")

    def test_check_of_a_degree_one_certificate_is_invalid_input(self, capsys, tmp_path):
        entry = {
            "checks": {
                "prime_coprime_to_degree": True,
                "primitive": True,
                "valuation_coprime_to_degree": True,
            },
            "valid": True,
            "valuation": 1,
        }
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps({
            "d": 1,
            "c": "3",
            "m": 2,
            "entries": [dict(entry, n=1, p="3"), dict(entry, n=2, p="2")],
            "missing": [],
            "neg_c_is_square": None,
        }))
        code, doc = run_json(capsys, "certify", "--check", str(cert_path))
        assert (code, doc["payload"]["error"]) == (2, "degree must be >= 2")

    def test_valuation_of_an_exactly_zero_iterate_answers_at_once(self, capsys):
        # f^3(0) = 0 at c = 0: the cap was once reached by doubling the
        # precision up to it, which never finished at this cap
        start = time.perf_counter()
        code, doc = run_json(
            capsys, "valuation", "--d", "2", "--c", "0", "--n", "3", "--p", "5",
            "--cap", "1000000000",
        )
        assert time.perf_counter() - start < 5
        assert code == 0
        assert (doc["payload"]["valuation"], doc["payload"]["exact"]) == (10**9, False)

    @given(spec=_SPECS, cert=_CERTIFICATES)
    @example(spec={"d": float("inf")}, cert={"d": float("inf"), "entries": []})
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_json_raises_only_value_error(self, spec, cert):
        for parse, doc in (
            (DivisibilitySpec.from_json_dict, spec),
            (MaximalityCertificate.from_json_dict, cert),
        ):
            try:
                parse(doc)
            except ValueError:
                pass
