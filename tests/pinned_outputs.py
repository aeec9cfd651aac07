"""Write the pinned outputs of one source tree, to compare two trees byte for byte.

    python tests/pinned_outputs.py SRC OUT

imports phi_entropy_lab from the directory SRC and writes into OUT:

- one file per pinned run-suite configuration: the payload without its
  timing ("seconds") and "artifact_version", with sorted keys; its first line
  holds everything but the reports, then each report takes one line;
- search.jsonl: the pinned counterexample searches, one report per line.

``diff -r`` of the OUT directories of two trees then names every report
that moved.  The same file name holds the same configuration in every tree.

It prints the size of each pinned configuration's payload: the bytes of
its ``json.dumps(payload, sort_keys=True)`` without the timing, with the
"artifact_version".  Then it replays every witness it wrote, as written,
and prints their count and the largest |replayed - margin|; it exits 1 when
that exceeds the replay tolerance of the ``replay`` command.
"""

import json
import sys
from pathlib import Path

PINNED_SUITES = {
    "suite_trials5_seed0": {"seed": 0, "trials": 5},
    "suite_trials5_seed9001": {"seed": 9001, "trials": 5},
    "suite_dims8-16_seed0": {"seed": 0, "dims": (8, 16), "variant": "both", "trials": 2},
    "suite_dims8-16_seed9002": {"seed": 9002, "dims": (8, 16), "variant": "both", "trials": 2},
    "suite_outside_class_seed0": {"seed": 0, "variant": "both", "trials": 3,
                                  "allow_outside_class": True,
                                  "phi_list": ("square", "xlogx", "quartic")},
}
# Every searchable check for each function, dimension and seed.
SEARCH_PHIS = ("square", "xlogx", "quartic", "exp", "power:3")
SEARCH_DIMS = (1, 2)
SEARCH_SEEDS = (0, 9003)
SEARCH_BUDGET = 50


def _line(value) -> str:
    return json.dumps(value, sort_keys=True) + "\n"


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python tests/pinned_outputs.py SRC OUT", file=sys.stderr)
        return 2
    src, out = (Path(arg).resolve() for arg in argv)
    sys.path.insert(0, str(src))
    from phi_entropy_lab.catalog import from_spec
    from phi_entropy_lab.cli import REPLAY_TOL
    from phi_entropy_lab.suite import (
        SEARCHABLE_CHECKS, RunConfig, counterexample_search, replay_witness, run_suite)

    out.mkdir(parents=True, exist_ok=True)
    written = []  # every report line, as written
    for name, options in PINNED_SUITES.items():
        payload = run_suite(RunConfig(**options)).to_json_dict()
        reports = [{k: v for k, v in r.items() if k != "seconds"} for r in payload["reports"]]
        size = len(json.dumps({**payload, "reports": reports}, sort_keys=True).encode())
        print(f"{name}: {size} bytes")
        payload.pop("artifact_version")
        payload.pop("reports")
        with open(out / f"{name}.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines([_line(payload), *map(_line, reports)])
        written += map(_line, reports)
    with open(out / "search.jsonl", "w", encoding="utf-8") as fh:
        for phi in SEARCH_PHIS:
            f = from_spec(phi, allow_outside_class=True)
            for dim in SEARCH_DIMS:
                for seed in SEARCH_SEEDS:
                    for check in SEARCHABLE_CHECKS:
                        report = counterexample_search(f, check, SEARCH_BUDGET, seed, dim=dim)
                        written.append(_line(report.to_json_dict()))
                        fh.write(written[-1])
    stored = [r for r in map(json.loads, written) if r["witness"] is not None]
    worst = max((abs(replay_witness(r["witness"]) - r["margin"]) for r in stored), default=0.0)
    print(f"{len(stored)} witnesses replayed; largest |replayed - margin| = {worst:.3g}")
    return 0 if worst <= REPLAY_TOL else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
