"""Running one CLI job as a fresh process and accounting for it.

Each job is ``python -m critorbit.cli ...`` with the checkout's ``src`` on
``PYTHONPATH``, spawned by ``launcher.py`` (see there for why the jobs are not
spawned from this process) and timed from spawn to the JSON fully read.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass

from workloads import SPEC_TOKEN, Job, canonical_json

BUILD_DIR = os.path.join(".bench_build", "perfbench")
TRIVIAL = ("gleason", "--d", "2", "--n", "3")  # import floor plus a few microseconds
TRIVIAL_PAYLOAD = {"coefficients": ["1", "1", "2", "1"], "d": 2, "degree": 3, "n": 3}
HERE = os.path.dirname(os.path.abspath(__file__))


def write_spec(build_dir: str, spec: dict) -> str:
    """Write a spec file named by its content, once; returns its path."""
    text = canonical_json(spec)
    path = os.path.join(build_dir, "specs", hashlib.sha256(text.encode()).hexdigest()[:16] + ".json")
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return path


@dataclass
class Outcome:
    status: int  # exit code; -9 after a timeout kill
    stdout: bytes
    latency_s: float
    cpu_s: float
    max_rss_mb: float
    timed_out: bool


class Runner:
    """Spawns jobs from the root of a checkout, through one launcher process."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        self.build_dir = os.path.join(self.root, BUILD_DIR)
        os.makedirs(self.build_dir, exist_ok=True)
        self.err_path = os.path.join(self.build_dir, f"stderr-{os.getpid()}.txt")
        self.launcher = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py"), self.err_path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=self.root,
            env=dict(os.environ, PYTHONPATH=os.path.join(self.root, "src")),
        )

    def argv(self, job: Job) -> list[str]:
        """The job's CLI arguments, with its spec written to a file if it has one."""
        if job.spec is None:
            return list(job.argv)
        path = write_spec(self.build_dir, job.spec)
        return [path if a == SPEC_TOKEN else a for a in job.argv]

    def spawn(self, args: list[str]) -> Outcome:
        self.launcher.stdin.write(json.dumps({"args": args}).encode() + b"\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        out = self.launcher.stdout.read(reply.pop("size"))
        return Outcome(stdout=out, **reply)

    def run(self, job: Job) -> Outcome:
        return self.spawn(["-m", "critorbit.cli", *self.argv(job)])

    def run_traced(self, job: Job) -> tuple[Outcome, dict]:
        """The job under the outside-in tracer, and the spans it wrote."""
        trace_path = os.path.join(self.build_dir, f"trace-{os.getpid()}.json")
        outcome = self.spawn([os.path.join(HERE, "tracer.py"), trace_path, "--", *self.argv(job)])
        try:
            with open(trace_path, encoding="utf-8") as handle:
                spans = json.load(handle)
            os.remove(trace_path)
        except (OSError, ValueError):
            spans = {"spans": [], "counters": {}, "main_s": 0.0}
        return outcome, spans

    def stderr_tail(self, limit: int = 400) -> str:
        with open(self.err_path, "rb") as handle:
            return handle.read()[-limit:].decode(errors="replace")

    def setup_call(self) -> float:
        """Spawn-to-exit time of a trivial invocation, whose answer is checked."""
        outcome = self.spawn(["-m", "critorbit.cli", *TRIVIAL])
        try:
            payload = json.loads(outcome.stdout)["payload"]
        except (ValueError, KeyError):
            payload = None
        if outcome.status != 0 or payload != TRIVIAL_PAYLOAD:
            raise RuntimeError(
                f"the trivial CLI call failed (exit {outcome.status}): {self.stderr_tail()}"
            )
        return outcome.latency_s

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()
        if os.path.exists(self.err_path):
            os.remove(self.err_path)
