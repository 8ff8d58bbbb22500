"""The repository's benchmark: seeded workloads of CLI jobs, end to end.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One client runs the workload's jobs in a
closed loop, one fresh ``python -m critorbit.cli`` process at a time, until
``--seconds`` have passed.  Every answer is then checked (``checks.py``).
With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` each job runs once plain and once
under the outside-in tracer (``tracer.py``), the two answers must agree, and
the per-layer metrics are reported instead.  The metric definitions, the
layer-to-metric map and the recorded baseline are in ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time

from checks import check_answer, load_answers, payload_hash
from runner import Runner
from workloads import CLI_DIGIT_LIMIT, KNOWN_DEFECT, WORKLOADS, make_jobs

SETUP_REPS = 30  # timed trivial calls per run, spread evenly over the loop
# highest percentile that leaves >= 10 jobs beyond it at the job count one
# run of each workload completes on a slow host (about 42, 40 and 60 jobs)
TAIL_PERCENTILE = {"census": 75, "density": 70, "construct": 80}
ANSWERS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "answers.json")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with q% of them at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def layer_metrics(traces: list[dict], untraced_s: float, traced_s: float) -> dict:
    """Per-layer figures from the jobs' span tables, as means per traced job
    (ratios are ratios of totals)."""
    spans: dict[tuple[str, str], list] = {}
    counters: dict[str, float] = {}
    main_s = 0.0
    for trace in traces:
        main_s += trace["main_s"]
        for s in trace["spans"]:
            agg = spans.setdefault((s["name"], s["parent"]), [0, 0.0, 0.0, 0])
            for i, key in enumerate(("count", "incl", "self", "errors")):
                agg[i] += s[key]
        for key, value in trace["counters"].items():
            counters[key] = counters.get(key, 0) + value

    def layer(name: str) -> str:
        return name.split(".")[0]

    def total(field: int, names=None, parents=None, where=None) -> float:
        return sum(
            v[field] for (n, p), v in spans.items()
            if (names is None or n in names) and (parents is None or p in parents)
            and (where is None or where(n, p))
        )

    def busy(lay: str) -> float:
        return total(1, where=lambda n, p: layer(n) == lay and layer(p) != lay)

    def self_s(lay: str) -> float:
        return total(2, where=lambda n, p: layer(n) == lay)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    poly = {"gleason.gleason_poly", "gleason.iterate_poly"}
    roots = {"gleason.has_root_mod_p", "gleason.roots_mod_p"}
    res = {"gleason.resultant", "gleason.discriminant_mod_p"}
    witness_parents = {"bounds.maximality_certificate", "bounds.verify_certificate"}
    witness_tests = total(0, {"orbit.is_primitive_divisor"}, witness_parents)
    factorize_calls = total(0, {"arith.factorize"})
    jobs = max(len(traces), 1)
    per_job = {
        "cli.self_s": main_s - total(1, parents={"cli"}),
        "pcf.busy_s": busy("pcf"),
        "pcf.self_s": self_s("pcf"),
        "pcf.census_calls": total(0, {"pcf.enumerate_pcf", "pcf.check_condition_star"}),
        "pcf.params_scanned": counters.get("pcf.params_scanned", 0),
        "orbit.self_s": self_s("orbit"),
        "orbit.period_calls": total(0, {"orbit.period_type_mod", "orbit.point_period_type_mod"}),
        "orbit.derivative_calls": total(0, {"orbit.orbit_with_derivative"}),
        "orbit.valuation_calls": total(0, {"orbit.iterate_valuation"}),
        "orbit.primitive_calls": total(0, {"orbit.is_primitive_divisor"}),
        "lifting.busy_s": busy("lifting"),
        "lifting.self_s": self_s("lifting"),
        "lifting.lift_calls": total(0, {"lifting.hensel_lift"}),
        "lifting.newton_evals": total(0, {"orbit.orbit_with_derivative"}, {"lifting.hensel_lift"}),
        "lifting.lift_errors": total(3, {"lifting.hensel_lift"}),
        "gleason.self_s": self_s("gleason"),
        "gleason.root_tests": total(0, roots),
        "gleason.root_s": total(1, roots),
        "gleason.resultant_calls": total(0, res),
        "gleason.resultant_s": total(1, res),
        "gleason.poly_s": total(1, where=lambda n, p: n in poly and p not in poly),
        "density.busy_s": busy("density"),
        "density.self_s": self_s("density"),
        "density.primes_scanned": counters.get("density.primes_scanned", 0),
        "density.pool_s": counters.get("density.pool_s", 0.0),
        "constructor.busy_s": busy("constructor"),
        "constructor.self_s": self_s("constructor"),
        "constructor.base_searches": total(0, {"constructor.find_base"}),
        "bounds.busy_s": busy("bounds"),
        "bounds.self_s": self_s("bounds"),
        "bounds.witness_tests": witness_tests,
        "arith.self_s": self_s("arith"),
        "arith.prime_tests": total(0, {"arith.is_prime"}),
        "arith.prime_test_s": total(1, {"arith.is_prime"}),
        "arith.next_prime_calls": total(0, {"arith.next_prime"}),
        "arith.factorize_s": total(1, {"arith.factorize"}),
    }
    metrics = {k: (v / jobs, "s" if k.endswith("_s") else "count") for k, v in per_job.items()}
    metrics["bounds.witness_hit_ratio"] = (
        ratio(counters.get("bounds.valid_entries", 0), witness_tests), "ratio")
    metrics["arith.factorize_complete_ratio"] = (
        ratio(counters.get("arith.factorize_complete", 0), factorize_calls), "ratio")
    metrics["trace.overhead_ratio"] = (ratio(traced_s, untraced_s) - 1, "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "critorbit", "cli.py")):
        print("run from the root of a critorbit checkout (src/critorbit is missing)",
              file=sys.stderr)
        return 2

    runner = Runner(os.getcwd())
    try:
        return _run(args, runner)
    finally:
        runner.close()


def _run(args, runner: Runner) -> int:
    jobs = make_jobs(args.workload, args.seed)
    answers = load_answers(ANSWERS)
    runner.setup_call()  # warm-up, and proof that the checkout answers
    defect_as_known = known_defect(runner, answers, args.seed)

    records = []  # (job, outcome)
    traces, untraced_s, traced_s, mismatched = [], 0.0, 0.0, []
    # The set-up calls are interleaved with the jobs, one each time the loop
    # has run another 1/SETUP_REPS of its length, so that they sample the same
    # stretch of time as the jobs.  Their time is left out of the loop's.
    setup, paused = [], 0.0
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start - paused) < args.seconds:
        if len(setup) < SETUP_REPS and elapsed >= len(setup) * args.seconds / SETUP_REPS:
            called = time.perf_counter()
            setup.append(runner.setup_call())
            paused += time.perf_counter() - called
            continue
        job = jobs[len(records) % len(jobs)]
        outcome = runner.run(job)
        records.append((job, outcome))
        if args.trace:
            traced, trace = runner.run_traced(job)
            traces.append(trace)
            untraced_s += outcome.latency_s
            traced_s += traced.latency_s
            if (traced.status, _hash(traced.stdout)) != (outcome.status, _hash(outcome.stdout)):
                mismatched.append(job)
    wall = time.perf_counter() - start - paused
    while len(setup) < SETUP_REPS:  # a last job that overran the loop
        setup.append(runner.setup_call())

    failed = 0
    for job, outcome in records:
        why = ("timed out" if outcome.timed_out else
               check_answer(job, outcome.status, outcome.stdout, answers, args.seed))
        if why is not None:
            failed += 1
            print(f"FAILED {job.key}: {why}", file=sys.stderr)
    for job in mismatched:
        print(f"TRACED ANSWER DIFFERS {job.key}", file=sys.stderr)

    attempted = len(records)
    if args.trace:
        metrics = layer_metrics(traces, untraced_s, traced_s)
    else:
        latencies = [o.latency_s for _, o in records]
        cpu = sum(o.cpu_s for _, o in records)
        metrics = {
            "jobs_per_s": (attempted / wall, "jobs/s"),
            "job_s.p50": (statistics.median(latencies), "s"),
            "job_s.tail": (percentile(latencies, TAIL_PERCENTILE[args.workload]), "s"),
            "cpu_s": (cpu, "s"),
            "cpu_s_per_job": (cpu / attempted, "s"),
            "peak_rss_mb": (max(o.max_rss_mb for _, o in records), "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:10s} {name:32s} {value:14.6g} {unit}")
    result = {
        "correct": failed == 0 and not mismatched and defect_as_known,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def known_defect(runner: Runner, answers: dict, seed: int) -> bool:
    """Run the known-defect lift once, outside the timed loop, and report it.

    True if it still fails the known way (exit 2 at the int-to-str limit) or
    now passes its checks; False for any other answer.
    """
    outcome = runner.run(KNOWN_DEFECT)
    why = check_answer(KNOWN_DEFECT, outcome.status, outcome.stdout, answers, seed)
    if why is None:
        print(f"known defect fixed: {KNOWN_DEFECT.key} passes its checks")
        return True
    if outcome.status == 2 and str(CLI_DIGIT_LIMIT) in why:
        print(f"known defect still shows: {KNOWN_DEFECT.key}: {why}")
        return True
    print(f"FAILED known-defect job {KNOWN_DEFECT.key}: {why}", file=sys.stderr)
    return False


def _hash(stdout: bytes) -> str | None:
    try:
        return payload_hash(json.loads(stdout)["payload"])
    except (ValueError, KeyError, TypeError):
        return None


if __name__ == "__main__":
    sys.exit(main())
