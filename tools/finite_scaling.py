"""Time the finite engine on pair groupoids as the table grows.

For n = 9, 12, ..., ``--max-n`` it builds ``pair_groupoid(n)`` with N, R
and theta from blocks of 3 objects, and times, best of 3, one call each of
``validate_groupoid``, ``validate_nss``, ``quotient_by_normal_subgroupoid``,
``quotient_by_nss`` and ``find_isomorphism`` of the two quotients, with
the cyclic garbage collector off during each call.  It prints JSON: the
seconds of each step at each n, and each step's fitted exponent, the slope
of the least-squares line through (log n, log seconds):

    PYTHONPATH=src python3 tools/finite_scaling.py --max-n 21
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import platform
import time

from folioid import fingroupoid as fin

REPEATS = 3


def best_of(call) -> float:
    """Best of REPEATS calls, with the cyclic collector off while one runs,
    as ``timeit`` does: its passes depend on what else is alive, not on n."""
    best = math.inf
    for _ in range(REPEATS):
        gc.disable()
        try:
            start = time.perf_counter()
            call()
            best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
    return best


def exponent(sizes, seconds) -> float:
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in seconds]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def steps_at(n: int) -> dict:
    """The five timed calls on the pair groupoid on n objects in blocks of 3."""
    g = fin.pair_groupoid(n)
    blocks = [list(range(i, i + 3)) for i in range(0, n, 3)]
    normal = fin.pair_block_subgroupoid(n, blocks)
    nss = fin.pair_block_nss(n, blocks)
    q_normal = fin.quotient_by_normal_subgroupoid(g, normal)
    q_system = fin.quotient_by_nss(g, nss)[0]
    return {
        "validate_groupoid": lambda: fin.validate_groupoid(g),
        "validate_nss": lambda: fin.validate_nss(g, nss),
        "quotient_by_normal_subgroupoid": lambda: fin.quotient_by_normal_subgroupoid(g, normal),
        "quotient_by_nss": lambda: fin.quotient_by_nss(g, nss),
        "find_isomorphism": lambda: fin.find_isomorphism(q_normal, q_system),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=21,
                        help="largest object count, at least 12 (default 21)")
    args = parser.parse_args(argv)
    sizes = list(range(9, args.max_n + 1, 3))
    if len(sizes) < 2:
        parser.error("--max-n must be at least 12, to fit an exponent")
    seconds: dict = {}
    for n in sizes:
        for name, call in steps_at(n).items():
            seconds.setdefault(name, []).append(best_of(call))
    print(json.dumps({
        "python": platform.python_version(),
        "pair_objects": sizes,
        "block": 3,
        "repeats": REPEATS,
        "seconds": seconds,
        "exponent": {name: round(exponent(sizes, ts), 2) for name, ts in seconds.items()},
    }, indent=2))


if __name__ == "__main__":
    main()
