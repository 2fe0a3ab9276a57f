"""Print a sha256 of each bundled config's report, ignoring wall time.

Each config in ``folioid/configs`` runs through ``run_pipeline`` twice: at
its own size, and at ``--samples 4 --seed 11``.  Every ``wall_time_s`` is
dropped and the rest is hashed as ``folioid run`` writes it (sorted keys,
indent 2).  The comparable output of one full-size pass of each smooth
perfbench workload, ``pair_leafspace`` and ``dirac_pushforward``, at seeds
1-12 is hashed the same way; ``perfbench/workloads.py`` is imported from
the tree that holds the ``folioid`` package.  Two checkouts produce the same
outputs when they print the same lines.  ``--against REV`` makes that
comparison against a git revision: it extracts REV's ``src/`` and
``perfbench/`` into a temporary directory, digests this checkout and REV,
each in its own process, prints each output that differs and exits 1 on
any difference.  It also prints the line count of ``src/folioid/*.py`` in
both trees:

    PYTHONPATH=src python3 tools/report_digests.py --against HEAD~1

``--dump DIR`` also writes each stripped output there, for a diff.  With
``--against REV`` it writes, for each output that differs, both trees'
stripped outputs into ``DIR/REV/`` and ``DIR/checkout/`` (a ``/`` in REV
becomes ``_``), so the moved bytes can be read with ``diff -r``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from importlib import resources
from pathlib import Path

import folioid
from folioid.cli import ScenarioConfig, run_pipeline

ROOT = Path(__file__).resolve().parents[1]

SIZES = (("full", {}), ("samples4_seed11", {"samples": 4, "seed": 11}))
WORKLOADS = ("pair_leafspace", "dirac_pushforward")
WORKLOAD_SEEDS = range(1, 13)


def stripped_report(data: dict) -> str:
    report = run_pipeline(ScenarioConfig.from_dict(data))
    for entry in report["results"]:
        entry.pop("wall_time_s", None)
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def stripped_outputs():
    """(name, text) of every stripped report, then of every workload pass output."""
    configs = sorted(path for path in resources.files("folioid").joinpath("configs").iterdir()
                     if path.name.endswith(".json"))
    for path in configs:
        data = json.loads(path.read_text())
        for label, override in SIZES:
            case = dict(data, numeric=dict(data.get("numeric", {}), **override))
            yield f"{path.name[:-len('.json')]}.{label}", stripped_report(case)
    sys.path.insert(0, str(Path(folioid.__file__).resolve().parents[2] / "perfbench"))
    import workloads
    for name in WORKLOADS:
        for seed in WORKLOAD_SEEDS:
            workload = workloads.setup(folioid, name, seed, "full")
            output = workload.comparable(workload.run())
            yield f"{name}.seed{seed}", json.dumps(output, indent=2, sort_keys=True) + "\n"


def digests_of(src: Path, dump: Path) -> dict:
    """Output name -> digest, printed by this script run on the tree ``src``,
    which writes each stripped output into ``dump``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, __file__, "--dump", str(dump)], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return {name: digest for digest, name in (line.split() for line in out.splitlines())}


def source_lines(src: Path) -> int:
    """Lines in the package's modules, ``src/folioid/*.py``."""
    return sum(len(path.read_text().splitlines()) for path in Path(src, "folioid").glob("*.py"))


def compare_against(rev: str, dump: str | None = None) -> int:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src", "perfbench"],
                             check=True, stdout=subprocess.PIPE).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        theirs = digests_of(Path(tmp, "src"), Path(tmp, "theirs"))
        their_lines = source_lines(Path(tmp, "src"))
        ours = digests_of(ROOT / "src", Path(tmp, "ours"))
        print(f"src/folioid/*.py: {source_lines(ROOT / 'src')} lines, {their_lines} at {rev}")
        differing = sorted(name for name in ours.keys() | theirs.keys()
                           if ours.get(name) != theirs.get(name))
        for name in differing:
            print(f"differs from {rev}: {name}")
        for tree, written in ((rev.replace("/", "_"), "theirs"), ("checkout", "ours")):
            reports = [Path(tmp, written, f"{name}.json") for name in differing]
            for report in (r for r in reports if dump and r.exists()):
                Path(dump, tree).mkdir(parents=True, exist_ok=True)
                shutil.copy(report, Path(dump, tree, report.name))
    if not differing:
        passes = sum(name.startswith(WORKLOADS) for name in ours)
        print(f"all {len(ours) - passes} reports and {passes} workload pass outputs match {rev}")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", metavar="DIR",
                        help="also write each stripped report into DIR; with --against, "
                             "both trees' reports that differ, into DIR/REV and DIR/checkout")
    parser.add_argument("--against", metavar="REV",
                        help="compare this checkout's reports with git revision REV's")
    args = parser.parse_args(argv)
    if args.against:
        return compare_against(args.against, args.dump)
    for name, text in stripped_outputs():
        if args.dump:
            Path(args.dump).mkdir(parents=True, exist_ok=True)
            Path(args.dump, f"{name}.json").write_text(text)
        print(f"{hashlib.sha256(text.encode()).hexdigest()}  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
