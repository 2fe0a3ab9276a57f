"""Self-test of the benchmark and its traced run.

    python3 perfbench/selftest.py

Checks, at the smoke sizes:

* the tracer rebinds every name a module imported directly from a sibling
  (``leafspace.flow``, ``dirac.check_multiplicative``, ...), and uninstalling
  puts every original back;
* a traced pass gives the same report as an untraced one, wall times aside;
* each counter is nonzero on the workload meant to drive it and 0 where
  ``layers.ZERO_ON`` predicts;
* ``run.py`` prints exactly the metrics BENCHMARK.json declares, with their
  units, for ``--trace 0`` and ``--trace 1``, with no failed operation;
* ``run.py`` fails without printing a result in a directory that holds only
  BENCHMARK.json and the benchmark's own files.

Exits 0 when every check holds.
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import folioid.cli  # noqa: E402,F401
import folioid  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import TRACED_MODULES, Tracer  # noqa: E402

FAILURES: list = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def package_functions():
    for module in vars(folioid).values():
        if inspect.ismodule(module) and module.__name__.startswith("folioid."):
            for name, value in vars(module).items():
                if inspect.isfunction(value):
                    yield module, name, value


def test_rebinding() -> None:
    traced_modules = {getattr(folioid, short).__name__ for short in TRACED_MODULES}
    tracer = Tracer()
    tracer.install(folioid)
    try:
        wrapped_originals = {id(fn.__wrapped__) for _, _, fn in package_functions()
                             if hasattr(fn, "__wrapped__")}
        stale = [f"{module.__name__}.{name}" for module, name, fn in package_functions()
                 if not hasattr(fn, "__wrapped__") and not name.startswith("_")
                 and fn.__module__ in traced_modules]
        expect(not stale, f"every public function name is wrapped (unwrapped: {stale})")
        leftover = [f"{module.__name__}.{name}" for module, name, fn in package_functions()
                    if id(fn) in wrapped_originals]
        expect(not leftover, f"no module name still binds an original ({leftover})")
        for module, name, source in (("leafspace", "flow", "geomcore"),
                                     ("leafspace", "fiber_kernel_intersection", "multdist"),
                                     ("leafspace", "lift_at_point", "multdist"),
                                     ("dirac", "check_multiplicative", "multdist")):
            imported = getattr(getattr(folioid, module), name)
            expect(imported is getattr(getattr(folioid, source), name)
                   and hasattr(imported, "__wrapped__"),
                   f"{module}.{name} is the wrapper of {source}.{name}")
        expect(hasattr(folioid.geomcore.VectorField.__call__, "__wrapped__"),
               "VectorField.__call__ is wrapped")
    finally:
        tracer.uninstall()
    expect(not any(hasattr(fn, "__wrapped__") for _, _, fn in package_functions())
           and not hasattr(folioid.geomcore.VectorField.__call__, "__wrapped__"),
           "uninstall restores every original")


def test_workload(name: str) -> None:
    workload = workloads.setup(folioid, name, 1, "smoke")
    plain = workload.run()
    tracer = Tracer()
    tracer.install(folioid)
    try:
        traced = workload.run()
    finally:
        tracer.uninstall()
    expect(workload.comparable(traced) == workload.comparable(plain),
           f"{name}: traced report equals untraced report")
    expect(all(ok for _, ok in workload.check(plain) + workload.final_checks()),
           f"{name}: output checks pass")
    metrics = layers.span_metrics(tracer.aggregate(), name)
    silent = [c for c, w in layers.DRIVES.items() if w == name and not metrics[c] > 0]
    expect(not silent, f"{name}: counters it drives are nonzero (zero: {silent})")
    moved = [c for c in layers.ZERO_ON[name] if metrics[c] != 0]
    expect(not moved, f"{name}: predicted zeros read 0 (nonzero: {moved})")


def run_bench(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def test_command(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"{workload} --trace {trace}: prints a JSON result\n"
                              f"{proc.stderr}")
                continue
            declared = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(proc.returncode == 0
                   and set(result) == {"correct", "attempted", "failed", "metrics"}
                   and got == declared and result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{workload} --trace {trace}: exit 0, declared metrics, "
                   f"{result['attempted']} operations, {result['failed']} failed")


def test_bare_directory() -> None:
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH_DIR.iterdir():
            if path.is_file():
                shutil.copy(path, bare / "perfbench")
        proc = run_bench(bare, "pair_leafspace", 0)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               f"without src/ the run fails without a result (exit {proc.returncode})")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    test_rebinding()
    for workload in spec["workloads"]:
        test_workload(workload["name"])
    test_command(spec)
    test_bare_directory()
    print(f"\n{len(FAILURES)} failed" if FAILURES else "\nall checks hold")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
