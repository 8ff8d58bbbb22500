"""Spawns the benchmark's job processes and reports their resource use.

A separate process, started once per benchmark run and kept small on
purpose: a child created by fork or vfork counts its parent's memory
high-water mark in its own ``ru_maxrss``, so jobs spawned from the benchmark
process itself (which holds sympy and every answer) would all report that
process's size instead of their own.

Protocol on stdin/stdout, one request at a time:
    request:  {"args": [...]}\\n          (arguments after the interpreter)
    reply:    {"status", "latency_s", "cpu_s", "max_rss_mb", "timed_out",
               "size"}\\n followed by ``size`` bytes of the job's stdout.
Latency runs from spawn to the job's stdout at EOF.  The job is reaped with
``os.wait4``, whose rusage covers that one process and the pool workers it
waited for.  Each job runs in its own session, so a timeout kills its whole
process group: pool workers hold the stdout pipe open too.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

JOB_TIMEOUT_S = 60.0


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(args: list[str], err_path: str) -> tuple[dict, bytes]:
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(JOB_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            out = proc.stdout.read()
            latency = time.perf_counter() - start
        finally:
            timer.cancel()
            timer.join()
            proc.stdout.close()
            _, wait_status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(wait_status)
    return {
        "status": proc.returncode,
        "latency_s": latency,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "max_rss_mb": usage.ru_maxrss / 1024,
        "timed_out": latency >= JOB_TIMEOUT_S,
        "size": len(out),
    }, out


def main() -> int:
    err_path = sys.argv[1]
    for line in sys.stdin:
        reply, out = spawn(json.loads(line)["args"], err_path)
        sys.stdout.buffer.write(json.dumps(reply).encode() + b"\n" + out)
        sys.stdout.buffer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
