"""Steadiness of the benchmark's end-to-end metrics.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--compare EARLIER.json]

Runs every workload of BENCHMARK.json ``--runs`` times, one fresh process
per run with seeds first-seed, first-seed + 1, ..., alternating the
workload order from one round to the next.  For each workload and end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median against the metric's bound, and the share of
failed operations.  With ``--compare`` it also reports, per metric, how far
this set's median moved from the earlier set's, in either direction.  The
set is within bounds when every run is correct, each workload's failed share
is the same in every run, every end-to-end metric's spread (``setup_s``
included) is within its bound, and, with ``--compare``, no median moved by
more than its bound.  The set is written to ``perfbench/out/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 180


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def summarize(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--compare", help="an earlier steady-*.json to compare medians with")
    args = parser.parse_args(argv)

    names = [w["name"] for w in spec["workloads"]]
    runs = {w: [] for w in names}
    for i in range(args.runs):
        order = names if i % 2 == 0 else names[::-1]
        for workload in order:
            result = run_once(spec, workload, args.first_seed + i)
            runs[workload].append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"run {i + 1}/{args.runs} {workload} seed {args.first_seed + i}: "
                  f"{values} attempted {result['attempted']} failed {result['failed']} "
                  f"({result['elapsed_s']:.1f} s)", flush=True)

    earlier = None
    if args.compare:
        with open(args.compare) as fh:
            earlier = json.load(fh)["summary"]
    summary = {}
    ok = True
    for workload, results in runs.items():
        summary[workload] = {}
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: failed share {sorted(shares)}, "
              f"correct {all(r['correct'] for r in results)}")
        ok &= len(shares) == 1 and all(r["correct"] for r in results)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = summarize([r["metrics"][name]["value"] for r in results])
            summary[workload][name] = stats
            line = (f"  {name:12s} median {stats['median']:.4f}  q1 {stats['q1']:.4f}  "
                    f"q3 {stats['q3']:.4f}  spread {stats['spread']:.3f} / bound {bound}")
            ok &= stats["spread"] <= bound
            if earlier and workload in earlier:
                before = earlier[workload][name]["median"]
                change = stats["median"] / before - 1.0
                line += f"  median vs earlier {change:+.3f}"
                ok &= abs(change) <= bound
            print(line)

    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    with open(path, "w") as fh:
        json.dump({"runs": runs, "summary": summary, "first_seed": args.first_seed},
                  fh, indent=1)
    print(f"\nwritten to {path.relative_to(ROOT)}; within bounds: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
