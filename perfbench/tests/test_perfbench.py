"""Tests of the benchmark itself:  python3 -m pytest perfbench/tests"""

import json
import os
import subprocess
import sys
from dataclasses import asdict

import pytest

import checks
import run
import steady
import tracer
import workloads
from runner import write_spec

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_jobs_and_spec_files(workload, tmp_path):
    first = workloads.make_jobs(workload, 7, rounds=2)
    second = workloads.make_jobs(workload, 7, rounds=2)
    assert json.dumps([asdict(j) for j in first]) == json.dumps([asdict(j) for j in second])
    assert [j.key for j in workloads.make_jobs(workload, 8, rounds=2)] != [j.key for j in first]
    for job in first:
        if job.spec is not None:
            a = write_spec(str(tmp_path / "a"), job.spec)
            b = write_spec(str(tmp_path / "b"), job.spec)
            with open(a, "rb") as fa, open(b, "rb") as fb:
                assert fa.read() == fb.read()


def test_self_time_arithmetic_on_a_synthetic_call_tree():
    rec = tracer.SpanRecorder()
    rec.enter("pcf.a", 0.0)
    rec.enter("orbit.b", 1.0)
    rec.enter("arith.c", 2.0)
    assert rec.leave(3.0) == pytest.approx(1.0)
    assert rec.leave(4.0) == pytest.approx(2.0)
    rec.enter("orbit.b", 5.0)
    rec.leave(7.0, failed=True)
    rec.enter("arith.c", 8.0)
    rec.leave(9.0)
    assert rec.leave(10.0) == pytest.approx(4.0)
    totals = {k: v for k, v in rec.totals.items()}
    assert totals[("pcf.a", "cli")] == [1, 10.0, 4.0, 0]
    assert totals[("orbit.b", "pcf.a")] == [2, 5.0, 4.0, 1]
    assert totals[("arith.c", "orbit.b")] == [1, 1.0, 1.0, 0]
    assert totals[("arith.c", "pcf.a")] == [1, 1.0, 1.0, 0]

    trace = rec.to_json()
    trace["main_s"] = 10.5
    metrics = run.layer_metrics([trace], untraced_s=2.0, traced_s=2.5)
    assert metrics["cli.self_s"][0] == pytest.approx(0.5)
    assert metrics["pcf.busy_s"][0] == pytest.approx(10.0)
    assert metrics["pcf.self_s"][0] == pytest.approx(4.0)
    assert metrics["orbit.self_s"][0] == pytest.approx(4.0)
    assert metrics["arith.self_s"][0] == pytest.approx(2.0)
    assert metrics["trace.overhead_ratio"][0] == pytest.approx(0.25)
    # self times and the CLI's own time add up to the whole job
    layers = ("cli", "pcf", "orbit", "arith")
    assert sum(metrics[f"{n}.self_s"][0] for n in layers) == pytest.approx(10.5)


def test_tracer_keeps_the_answer_and_names_the_calling_layer(tmp_path):
    path = tmp_path / "trace.json"
    cli = ["pcf", "--d", "2", "--p", "7"]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    traced = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "tracer.py"), str(path), "--", *cli],
        capture_output=True, check=True, cwd=ROOT, env=env,
    )
    plain = subprocess.run([sys.executable, "-m", "critorbit.cli", *cli],
                           capture_output=True, check=True, cwd=ROOT, env=env)
    assert traced.stdout == plain.stdout
    trace = json.loads(path.read_text())
    pairs = {(s["name"], s["parent"]): s["count"] for s in trace["spans"]}
    # cli binds enumerate_pcf itself, and check_condition_star_star runs a second census
    assert pairs[("pcf.enumerate_pcf", "cli")] == 1
    assert pairs[("pcf.enumerate_pcf", "pcf.check_condition_star_star")] == 1
    assert pairs[("orbit.period_type_mod", "pcf.enumerate_pcf")] == 14
    assert trace["counters"]["pcf.params_scanned"] == 14


def _row(rows, name):
    return next(r for r in rows if r["name"] == name)


def test_steadiness_summary_flags_spread_and_disagreement():
    metrics = [
        {"name": "jobs_per_s", "better": "higher", "bound": 0.1},
        {"name": "job_s.p50", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
    ]
    steady_set = {"jobs_per_s": [10.0, 10.1, 9.9, 10.0, 10.05],
                  "job_s.p50": [1.0, 1.01, 0.99, 1.0, 1.02],
                  "setup_s": [0.1, 0.11, 0.1, 0.105, 0.1]}
    rows = steady.summarize([steady_set, steady_set], metrics)
    assert all(r["agree_ok"] and r["spread_ok"] for r in rows)

    slower = {
        "jobs_per_s": [8.5, 8.6, 8.4, 8.5, 8.5],
        "job_s.p50": [1.2, 1.2, 1.21, 1.19, 1.2],
        "setup_s": steady_set["setup_s"]}
    rows = steady.summarize([steady_set, slower], metrics)
    assert not _row(rows, "jobs_per_s")["agree_ok"]
    assert not _row(rows, "job_s.p50")["agree_ok"]
    assert _row(rows, "setup_s")["agree_ok"]

    # same code, so a faster second set is as much a disagreement as a slower one
    faster = {"jobs_per_s": [12.0] * 5, "job_s.p50": [0.8] * 5, "setup_s": [0.1] * 5}
    rows = steady.summarize([steady_set, faster], metrics)
    assert not _row(rows, "jobs_per_s")["agree_ok"]
    assert not _row(rows, "job_s.p50")["agree_ok"]
    assert _row(rows, "setup_s")["agree_ok"]

    noisy = dict(steady_set, jobs_per_s=[5.0, 10.0, 15.0, 10.0, 7.0])
    assert not _row(steady.summarize([noisy], metrics), "jobs_per_s")["spread_ok"]
    # set-up time has its spread checked like every other metric
    noisy_setup = dict(steady_set, setup_s=[0.1, 0.3, 0.1, 0.2, 0.1])
    assert not _row(steady.summarize([noisy_setup], metrics), "setup_s")["spread_ok"]


def test_percentile_is_nearest_rank():
    values = [float(i) for i in range(1, 101)]
    assert run.percentile(values, 85) == 85.0
    assert run.percentile(values, 50) == 50.0
    assert run.percentile([3.0], 85) == 3.0


def _factor_job(x):
    return workloads.Job("factor", ("factor", "--x", str(x)))


def _stdout(payload, status="ok"):
    return json.dumps({"status": status, "payload": payload}).encode()


def test_checks_catch_a_wrong_answer():
    job = _factor_job(15)
    good = {"x": "15", "factors": [{"p": "3", "e": 1}, {"p": "5", "e": 1}],
            "cofactor": "1", "complete": True}
    bad = dict(good, factors=[{"p": "3", "e": 1}, {"p": "7", "e": 1}])
    assert checks.check_answer(job, 0, _stdout(good), {}, seed=1) is None
    assert "multiply" in checks.check_answer(job, 0, _stdout(bad), {}, seed=1)
    stored = {job.key: {"status": 0, "sha256": checks.payload_hash(good)}}
    assert checks.check_answer(job, 0, _stdout(good), stored, seed=1) is None
    other = dict(good, x="15 ")
    assert "stored" in checks.check_answer(job, 0, _stdout(other), stored, seed=1)
    assert "exit 2" in checks.check_answer(job, 2, _stdout({"error": "x"}, "invalid-input"),
                                           {}, seed=1)


def test_workloads_hold_no_known_defect_job():
    """No workload job prints an integer the CLI cannot print; the one known
    defect runs apart from the loop."""
    for workload in workloads.WORKLOADS:
        for job in workloads.make_jobs(workload, 1, rounds=2):
            if job.kind in ("lift", "adjust"):
                argv = list(job.argv)
                p = int(argv[argv.index("--p") + 1])
                flag = "--precision" if job.kind == "lift" else "--r"
                precision = int(argv[argv.index(flag) + 1]) + (2 if job.kind == "adjust" else 0)
                assert len(str(p**precision)) < workloads.CLI_DIGIT_LIMIT
    job = workloads.KNOWN_DEFECT
    argv = list(job.argv)
    modulus = int(argv[argv.index("--p") + 1]) ** int(argv[argv.index("--precision") + 1])
    assert len(str(modulus)) > workloads.CLI_DIGIT_LIMIT


def test_a_fixed_cli_lifts_the_known_defect_job(capsys):
    """The known-defect lift passes its checks once the CLI can print it."""
    from critorbit import cli

    job = workloads.KNOWN_DEFECT
    # the checks lifted this process's int-to-str limit, so the CLI prints here
    # what a CLI without the defect would print
    status = cli.main(list(job.argv))
    out = capsys.readouterr().out.encode()
    modulus = json.loads(out)["payload"]["modulus"]
    assert len(modulus) > workloads.CLI_DIGIT_LIMIT
    assert status == 0
    assert checks.check_answer(job, status, out, {}, seed=1) is None
