"""Outside-in tracing of one CLI job.

Run as ``python perfbench/tracer.py OUT.json -- <cli arguments>`` with
``src`` on ``PYTHONPATH``.  Before calling ``critorbit.cli.main`` it wraps
every public function of the library layers and rebinds each wrapper in
every loaded ``critorbit.*`` namespace, because modules bind imported names
at import time (``cli`` holds its own ``enumerate_pcf``, ``pcf`` its own
``period_type_mod``).  Spans stay in memory, aggregated by (function, parent
function), and are written to OUT.json when the job ends.  The CLI's stdout
and exit status are left untouched, so traced and untraced answers compare.

Pool workers of ``density --threads`` fork from this process and trace into
their own copy of the recorder, which is lost; their time shows in the parent
as self time of ``density.empirical_density`` (reported as ``density.pool_s``).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("arith", "orbit", "gleason", "lifting", "constructor", "pcf", "density", "bounds")
ROOT = "cli"


class SpanRecorder:
    """Aggregates nested spans by (name, parent) into count, inclusive and
    self time.  Timestamps are passed in, so the arithmetic is testable
    without a clock."""

    def __init__(self):
        self.stack: list[list] = []  # [name, start, child_time]
        self.totals: dict[tuple[str, str], list] = {}  # -> [count, incl, self, errors]
        self.counters: dict[str, float] = {}

    def enter(self, name: str, now: float) -> None:
        self.stack.append([name, now, 0.0])

    def leave(self, now: float, failed: bool = False) -> float:
        """Close the innermost span; returns its self time."""
        name, start, child = self.stack.pop()
        elapsed = now - start
        parent = self.stack[-1][0] if self.stack else ROOT
        if self.stack:
            self.stack[-1][2] += elapsed
        entry = self.totals.setdefault((name, parent), [0, 0.0, 0.0, 0])
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - child
        entry[3] += failed
        return elapsed - child

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": n, "parent": p, "count": c, "incl": i, "self": s, "errors": e}
                for (n, p), (c, i, s, e) in sorted(self.totals.items())
            ],
            "counters": dict(sorted(self.counters.items())),
        }


def _result_counters(
    name: str, args: tuple, kwargs: dict, result, self_s: float, rec: SpanRecorder
) -> None:
    """Work counts the benchmark reads off arguments and results, since the
    library reports none itself."""
    if name in ("pcf.enumerate_pcf", "pcf.check_condition_star"):
        rec.count("pcf.params_scanned", args[1])
    elif name == "density.empirical_density":
        rec.count("density.primes_scanned", result.total + len(result.skipped))
        jobs = kwargs.get("jobs", args[3] if len(args) > 3 else 1)
        if jobs > 1 and len(result.skipped) + result.total >= 4 * jobs:
            # the same split rule as empirical_density: these calls ran a pool
            rec.count("density.pool_s", self_s)
    elif name == "bounds.maximality_certificate":
        rec.count("bounds.valid_entries", sum(e.valid for e in result.entries))
    elif name == "arith.factorize":
        rec.count("arith.factorize_complete", int(result.complete))


def _wrap(name: str, fn, rec: SpanRecorder, clock=time.perf_counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec.enter(name, clock())
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.leave(clock(), failed=True)
            raise
        self_s = rec.leave(clock())
        _result_counters(name, args, kwargs, result, self_s, rec)
        return result

    return traced


def install(rec: SpanRecorder) -> None:
    """Wrap the public functions of every layer and rebind them everywhere."""
    modules = {
        n: m for n, m in sys.modules.items()
        if m is not None and (n == "critorbit" or n.startswith("critorbit."))
    }
    wrapped = {}
    for layer in LAYERS:
        module = modules[f"critorbit.{layer}"]
        for attr, obj in vars(module).items():
            if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            wrapped[id(obj)] = _wrap(f"{layer}.{attr}", obj, rec)
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrapped:
                setattr(module, attr, wrapped[id(obj)])


def main(argv: list[str]) -> int:
    out_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT.json -- <cli arguments>")
    import critorbit.cli

    rec = SpanRecorder()
    install(rec)
    start = time.perf_counter()
    try:
        status = critorbit.cli.main(cli_args)
    finally:
        total = time.perf_counter() - start
        sys.stdout.flush()
        doc = rec.to_json()
        doc["main_s"] = total
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
