"""Record the stored answers (answers.json) from the current code.

    python3 perfbench/record.py

Run from the root of a checkout of the commit whose answers are to be kept.
Every distinct job of the default and the held-out seed, in every workload,
runs once; its exit status and payload hash are stored only after its spot
check passes; a job that fails is listed and left without one.  The
known-defect lift (``workloads.KNOWN_DEFECT``) is not a workload job and has
no stored answer, so a fix of the defect contradicts no hash.
"""

from __future__ import annotations

import json
import os
import sys

from checks import check_answer, payload_hash
from run import ANSWERS
from runner import Runner
from workloads import WORKLOADS, make_jobs

DEFAULT_SEED = 1
HELD_OUT_SEED = 2


def main() -> int:
    runner = Runner(os.getcwd())
    answers, unstored = {}, 0
    try:
        for workload in WORKLOADS:
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                for job in make_jobs(workload, seed):
                    if job.key in answers:
                        continue
                    outcome = runner.run(job)
                    why = check_answer(job, outcome.status, outcome.stdout, {}, seed)
                    if why is not None:
                        unstored += 1
                        print(f"not stored: {job.key}: {why}", file=sys.stderr)
                        continue
                    answers[job.key] = {
                        "status": outcome.status,
                        "sha256": payload_hash(json.loads(outcome.stdout)["payload"]),
                    }
                print(f"{workload} seed {seed}: {len(answers)} answers so far", flush=True)
    finally:
        runner.close()
    with open(ANSWERS, "w", encoding="utf-8") as handle:
        json.dump(dict(sorted(answers.items())), handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"stored {len(answers)} answers, {unstored} jobs left without one")
    return 0


if __name__ == "__main__":
    sys.exit(main())
