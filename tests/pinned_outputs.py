"""Write the pinned outputs of one source tree, to compare two trees by value.

    python tests/pinned_outputs.py SRC OUT

imports phi_entropy_lab from the directory SRC and writes into OUT:

- one file per pinned run-suite configuration: the payload without its
  timing ("seconds") and "artifact_version", with sorted keys; its first line
  holds everything but the reports, then each report takes one line;
- search.jsonl: the pinned counterexample searches, one report per line.

Every matrix block is written as its list of floats (a d^2 list for "h", d
rows for "re" and "im"), which loses nothing, whether the tree writes blocks
as base64 strings or as lists.  ``diff -r`` of the OUT directories of two
trees then names every report whose values moved, not its encoding.  The same
file name holds the same configuration in every tree.

It prints the size of each pinned configuration's payload: the bytes of
its ``json.dumps(payload, sort_keys=True)`` without the timing, with the
"artifact_version", its blocks as the tree writes them.  It prints how many
searches found a violation, in how many margin calls (each
``suite.CHECKS`` margin wrapped with a counter), which shows what their
stack sizes cost, and how many of those calls raised (a stack out of the
domain, evaluated again point by point, or a point that gets +inf), which
shows the budget spent out of the domain, and the largest |Hermitian parameter| of a search witness,
which shows the scale of the witnesses.  Then it replays every witness as
the tree wrote it, and prints their count and the largest |replayed -
margin|; it exits 1 when that exceeds the replay tolerance of the
``replay`` command.  Last it prints the line count of each package module
and their total, as ``wc -l SRC/phi_entropy_lab/*.py`` gives them, so two
trees' sizes compare in the same run as their outputs.
"""

import binascii
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

PINNED_SUITES = {
    "suite_trials5_seed0": {"seed": 0, "trials": 5},
    "suite_trials5_seed9001": {"seed": 9001, "trials": 5},
    "suite_dims8-16_seed0": {"seed": 0, "dims": (8, 16), "variant": "both", "trials": 2},
    "suite_dims8-16_seed9002": {"seed": 9002, "dims": (8, 16), "variant": "both", "trials": 2},
    "suite_outside_class_seed0": {"seed": 0, "variant": "both", "trials": 3,
                                  "allow_outside_class": True,
                                  "phi_list": ("square", "xlogx", "quartic")},
    # Its d=16 sweeps span three margin calls each.
    "suite_dim16_trials5_seed0": {"seed": 0, "dims": (16,), "trials": 5,
                                  "phi_list": ("square",), "variant": "both"},
}
# Every searchable check for each function, dimension and seed.  At d=4 a
# search draws its trials in stacks capped at _chunk(4) = 128.
SEARCH_PHIS = ("square", "xlogx", "quartic", "exp", "power:3")
SEARCH_DIMS = (1, 2, 4)
SEARCH_SEEDS = (0, 9003)
SEARCH_BUDGET = 50


def _as_lists(value):
    """value with every base64 matrix block replaced by its floats."""
    if isinstance(value, list):
        return [_as_lists(v) for v in value]
    if not isinstance(value, dict):
        return value
    out = {key: _as_lists(v) for key, v in value.items()}
    for key in ("h", "re", "im") if "dim" in value else ():
        if isinstance(value.get(key), str):
            floats = np.frombuffer(binascii.a2b_base64(value[key]), "<f8")
            out[key] = (floats if key == "h" else floats.reshape(value["dim"], -1)).tolist()
    return out


def _line(value) -> str:
    return json.dumps(_as_lists(value), sort_keys=True) + "\n"


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python tests/pinned_outputs.py SRC OUT", file=sys.stderr)
        return 2
    src, out = (Path(arg).resolve() for arg in argv)
    sys.path.insert(0, str(src))
    from phi_entropy_lab import suite
    from phi_entropy_lab.catalog import from_spec
    from phi_entropy_lab.cli import REPLAY_TOL
    from phi_entropy_lab.errors import PhiLabError
    from phi_entropy_lab.suite import (
        SEARCHABLE_CHECKS, RunConfig, counterexample_search, replay_witness, run_suite)

    out.mkdir(parents=True, exist_ok=True)
    written = []  # every report, as the tree wrote it
    for name, options in PINNED_SUITES.items():
        payload = run_suite(RunConfig(**options)).to_json_dict()
        reports = [{k: v for k, v in r.items() if k != "seconds"} for r in payload["reports"]]
        size = len(json.dumps({**payload, "reports": reports}, sort_keys=True).encode())
        print(f"{name}: {size} bytes")
        payload.pop("artifact_version")
        payload.pop("reports")
        with open(out / f"{name}.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines([_line(payload), *map(_line, reports)])
        written += json.loads(json.dumps(reports))
    searches, calls, raised = [], [0], [0]
    originals = dict(suite.CHECKS)
    for kind, record in originals.items():
        def counted(chunk, margin=record.margin):
            calls[0] += 1
            try:
                return margin(chunk)
            except PhiLabError:
                raised[0] += 1
                raise
        suite.CHECKS[kind] = dataclasses.replace(record, margin=counted)
    with open(out / "search.jsonl", "w", encoding="utf-8") as fh:
        for phi in SEARCH_PHIS:
            f = from_spec(phi, allow_outside_class=True)
            for dim in SEARCH_DIMS:
                for seed in SEARCH_SEEDS:
                    for check in SEARCHABLE_CHECKS:
                        report = counterexample_search(f, check, SEARCH_BUDGET, seed, dim=dim)
                        searches.append(json.loads(json.dumps(report.to_json_dict())))
                        fh.write(_line(searches[-1]))
    suite.CHECKS.update(originals)
    written += searches
    params = [abs(x) for r in searches if r["witness"] is not None
              for value in _as_lists(r["witness"]).values()
              if isinstance(value, dict) and "h" in value for x in value["h"]]
    print(f"{sum(not r['holds'] for r in searches)} of {len(searches)} searches found one, "
          f"in {calls[0]} margin calls, {raised[0]} of which raised; largest |Hermitian parameter| of a search witness = "
          f"{max(params, default=0.0):.3g}")
    stored = [r for r in written if r["witness"] is not None]
    worst = max((abs(replay_witness(r["witness"]) - r["margin"]) for r in stored), default=0.0)
    print(f"{len(stored)} witnesses replayed; largest |replayed - margin| = {worst:.3g}")
    lines = {path.name: path.read_bytes().count(b"\n")
             for path in sorted((src / "phi_entropy_lab").glob("*.py"))}
    print(f"{sum(lines.values())} lines: " + ", ".join(f"{k} {v}" for k, v in lines.items()))
    return 0 if worst <= REPLAY_TOL else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
