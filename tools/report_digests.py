"""Print a sha256 of each bundled config's report, ignoring wall time.

Each config in ``folioid/configs`` runs through ``run_pipeline`` twice: at
its own size, and at ``--samples 4 --seed 11``.  Every ``wall_time_s`` is
dropped and the rest is hashed as ``folioid run`` writes it (sorted keys,
indent 2).  Two checkouts produce the same reports when they print the
same lines:

    PYTHONPATH=src python3 tools/report_digests.py > change.txt
    PYTHONPATH=../parent/src python3 tools/report_digests.py > parent.txt
    diff parent.txt change.txt

``--dump DIR`` also writes each stripped report there, for a diff.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from importlib import resources
from pathlib import Path

from folioid.cli import ScenarioConfig, run_pipeline

SIZES = (("full", {}), ("samples4_seed11", {"samples": 4, "seed": 11}))


def stripped_report(data: dict) -> str:
    report = run_pipeline(ScenarioConfig.from_dict(data))
    for entry in report["results"]:
        entry.pop("wall_time_s", None)
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", help="also write each stripped report into this directory")
    args = parser.parse_args(argv)
    configs = sorted(path for path in resources.files("folioid").joinpath("configs").iterdir()
                     if path.name.endswith(".json"))
    for path in configs:
        data = json.loads(path.read_text())
        for label, override in SIZES:
            case = dict(data, numeric=dict(data.get("numeric", {}), **override))
            text = stripped_report(case)
            name = f"{path.name[:-len('.json')]}.{label}"
            if args.dump:
                Path(args.dump).mkdir(parents=True, exist_ok=True)
                Path(args.dump, f"{name}.json").write_text(text)
            print(f"{hashlib.sha256(text.encode()).hexdigest()}  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
