"""Steadiness mode: do repeated runs of the same code agree within the bounds?

    python3 perfbench/steady.py --workload census

Runs two sets of ten ``run.py`` runs of ``run_seconds`` each (BENCHMARK.json),
each run with another seed: set k uses seeds 10k+1 .. 10k+10.  It reports
for every end-to-end metric of BENCHMARK.json the median of each set, its
spread (distance between the first and third quartile as a share of the
median), whether every spread stays within the metric's bound, and whether
the two medians agree within the bound, in either direction.  Exit status 0
means every check held.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

RUN = "perfbench/run.py"
SETS = 2
RUNS = 10


def spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, with the quartiles of statistics.quantiles(n=4)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def summarize(sets: list[dict[str, list[float]]], metrics: list[dict]) -> list[dict]:
    """One row per metric: medians, spreads and the two checks, per set."""
    rows = []
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        values = [s[name] for s in sets]
        medians = [statistics.median(v) for v in values]
        spreads = [spread(v) for v in values]
        rows.append({
            "name": name,
            "bound": bound,
            "medians": medians,
            "spreads": spreads,
            "spread_ok": all(s <= bound for s in spreads),
            "spread_third_ok": all(s <= bound / 3 for s in spreads),
            "agree_ok": all(abs(m - medians[0]) / medians[0] <= bound for m in medians[1:]),
        })
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]

    sets = []
    for k in range(SETS):
        values: dict[str, list[float]] = {}
        for seed in range(k * RUNS + 1, (k + 1) * RUNS + 1):
            proc = subprocess.run(
                [sys.executable, RUN, "--workload", args.workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"seed {seed}: incorrect answers\n{proc.stderr}", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"set {k} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
        sets.append(values)

    ok = True
    for row in summarize(sets, bench["end_to_end"]):
        ok &= row["spread_ok"] and row["agree_ok"]
        print(f"{args.workload:10s} {row['name']:16s} bound {row['bound']:.3f} "
              f"medians {' '.join(f'{m:.5g}' for m in row['medians'])} "
              f"spreads {' '.join(f'{s:.4f}' for s in row['spreads'])} "
              f"spread {'ok' if row['spread_ok'] else 'WIDE'}"
              f"{'' if row['spread_third_ok'] else ' (above bound/3)'} "
              f"medians {'agree' if row['agree_ok'] else 'DIFFER'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
