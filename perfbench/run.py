"""Benchmark of folioid: leaf-space quotients, Dirac pushforwards, finite quotients.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|smoke]

Run from the root of a checkout; the program is imported from ``src/``.
A run sets up once, then repeats its workload's pass for about S seconds
and reports the median per pass, so a burst of interference costs one
pass rather than the run.  ``setup_s`` is the median over several fresh
processes of the time from process start to ready (``folioid.cli``
imported, config parsed, scenario or tables built).  The probes are spread
over the run, between passes and outside their timing, so that their median
does not rest on one short burst.

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics.  With ``--trace 1`` a third of the time runs untraced
passes and the rest traced passes, whose spans give the per-layer metrics
and are written, collapsed by call path, to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 9
BLAS_THREADS = "1"  # every matrix here is at most 24 x 24: extra BLAS threads only contend

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    return parser.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def import_program():
    """Import folioid from the checkout's src/, as `folioid run` would."""
    sys.path.insert(0, str(SRC))
    import folioid.cli  # noqa: F401  (imports every module of the package)
    import folioid
    return folioid


def set_up(args):
    folioid = import_program()
    import workloads
    return folioid, workloads.setup(folioid, args.workload, args.seed, args.size)


class SetupClock:
    """Times from spawning a fresh process to its 'ready' line.

    ``due`` takes a probe once the passes have used another 1/SETUP_PROBES
    of the budget, the first before any pass; ``median`` takes any probes
    still missing and returns the median.
    """

    def __init__(self, args):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
                    args.workload, "--seed", str(args.seed), "--seconds", "0",
                    "--size", args.size, "--setup-probe"]
        self.step_s = args.seconds / SETUP_PROBES
        self.samples = []

    def probe(self) -> None:
        started = time.perf_counter()
        with subprocess.Popen(self.cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit code {code})")
        self.samples.append(ready - started)

    def due(self, elapsed_s: float) -> None:
        if len(self.samples) < SETUP_PROBES and elapsed_s >= len(self.samples) * self.step_s:
            self.probe()

    def median(self) -> float:
        while len(self.samples) < SETUP_PROBES:
            self.probe()
        return statistics.median(self.samples)


def timed_passes(workload, budget_s: float, before=None, after=None, between=None) -> list:
    """Repeat the pass; start no pass that would end after ``budget_s``.

    ``before`` and ``after`` run around each pass, outside its timing;
    what ``after`` returns is kept under ``"extra"``.  ``between(elapsed_s)``
    runs before each pass with the budget used so far, and its own time is
    left out of the budget.
    """
    passes = []
    began = time.perf_counter()
    left_out = 0.0
    while True:
        if between is not None:
            paused = time.perf_counter()
            between(paused - began - left_out)
            left_out += time.perf_counter() - paused
        if before is not None:
            before()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        output = workload.run()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        passes.append({"output": output, "wall": wall, "cpu": cpu,
                       "extra": after() if after is not None else None})
        median_wall = statistics.median(p["wall"] for p in passes)
        if time.perf_counter() - began - left_out + median_wall > budget_s:
            print("perfbench: pass wall s " + " ".join(f"{p['wall']:.3f}" for p in passes)
                  + " | cpu s " + " ".join(f"{p['cpu']:.3f}" for p in passes),
                  file=sys.stderr)
            return passes


class Ledger:
    """Operations attempted and failed in a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def record(self, ops):
        for name, ok in ops:
            self.attempted += 1
            if not ok:
                self.failed.append(name)


def check_passes(workload, passes, ledger: Ledger, reference, same_as: str):
    """Output checks of each pass, and its equality with ``reference``."""
    for p in passes:
        ledger.record(workload.check(p["output"]))
        ledger.record([(same_as, workload.comparable(p["output"]) == reference)])


def traced_run(folioid, workload, args, ledger: Ledger, began: float) -> dict:
    import layers
    from spans import Tracer

    untraced = timed_passes(workload, args.seconds / 3.0)
    reference = workload.comparable(untraced[0]["output"])
    check_passes(workload, untraced, ledger, reference, "pass_repeats_first_pass")

    tracer = Tracer()
    last = {}

    def reduce_spans():
        # keep one pass's spans at a time: a finite pass records ~4M of them
        last.clear()
        last["spans"] = tracer.aggregate()
        return layers.span_metrics(last["spans"], args.workload)

    tracer.install(folioid)
    try:
        remaining = max(0.0, args.seconds - (time.perf_counter() - began))
        traced = timed_passes(workload, remaining, before=tracer.reset, after=reduce_spans)
    finally:
        tracer.uninstall()
        tracer.reset()
    check_passes(workload, traced, ledger, reference, "traced_pass_equals_untraced")

    per_pass = [p["extra"] for p in traced]
    counts_repeat = all(
        {k: v for k, v in m.items() if not k.endswith("_s")}
        == {k: v for k, v in per_pass[0].items() if not k.endswith("_s")}
        for m in per_pass)
    ledger.record([("traced_counts_repeat", counts_repeat)])
    metrics = {name: statistics.median(m[name] for m in per_pass) if name.endswith("_s")
               else per_pass[0][name] for name in per_pass[0]}

    times = [workload.check_times(p["output"]) for p in untraced]
    metrics.update(layers.check_time_metrics(
        {name: statistics.median(t[name] for t in times) for name in times[0]}))
    metrics["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                                   - statistics.median(p["wall"] for p in untraced))

    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    with open(out_file, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "size": args.size,
                   "untraced_pass_s": [p["wall"] for p in untraced],
                   "traced_pass_s": [p["wall"] for p in traced],
                   "per_pass": per_pass,
                   "call_paths_last_pass": last["spans"].call_paths()},
                  fh, indent=1, sort_keys=True)
    return metrics


def plain_run(workload, args, ledger: Ledger) -> dict:
    setup = SetupClock(args)
    passes = timed_passes(workload, args.seconds, between=setup.due)
    check_passes(workload, passes, ledger, workload.comparable(passes[0]["output"]),
                 "pass_repeats_first_pass")
    return {"pass_s": statistics.median(p["wall"] for p in passes),
            "cpu_s": statistics.median(p["cpu"] for p in passes),
            "setup_s": setup.median()}


def declared_metrics(trace: int) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "folioid" / "__init__.py").is_file():
        return fail(f"no folioid sources under {SRC}; run from the root of a checkout")
    import workloads
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")

    if args.setup_probe:
        set_up(args)
        print("ready", flush=True)
        return 0

    units = declared_metrics(args.trace)
    folioid, workload = set_up(args)
    began = time.perf_counter()
    ledger = Ledger()
    if args.trace:
        values = traced_run(folioid, workload, args, ledger, began)
    else:
        values = plain_run(workload, args, ledger)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ledger.record(workload.final_checks())

    if set(values) != set(units):
        return fail(f"metrics do not match BENCHMARK.json: "
                    f"{sorted(set(values) ^ set(units))}")
    for name in ledger.failed:
        print(f"perfbench: failed operation {name}", file=sys.stderr)
    result = {"correct": not ledger.failed, "attempted": ledger.attempted,
              "failed": len(ledger.failed),
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
