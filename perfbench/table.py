"""Print every end-to-end metric of every workload, by name and with its unit.

    python3 perfbench/table.py [--seed N]

Runs ``run.py --trace 0`` once per workload for BENCHMARK.json's
``run_seconds``, each in its own process (peak memory is per process), and
tabulates the metrics of their detail lines.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, OUTCOMES, ROOT, WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    columns = {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, timeout=600)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        detail = json.loads(next(line for line in lines if line.startswith("detail "))[7:])
        result = json.loads(lines[-1])
        columns[workload] = (detail["metrics"], result)
    print(f"{'metric':<17} {'unit':<6}" + "".join(f"{w:>16}" for w in WORKLOADS))
    for name, unit in {**END_TO_END, **OUTCOMES}.items():
        cells = []
        for workload in WORKLOADS:
            value = columns[workload][0][name]["value"]
            cells.append(f"{'n/a' if value is None else f'{value:.6g}':>16}")
        print(f"{name:<17} {unit:<6}" + "".join(cells))
    print(f"{'correct':<24}" + "".join(f"{str(columns[w][1]['correct']):>16}" for w in WORKLOADS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
