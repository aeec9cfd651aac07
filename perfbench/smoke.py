"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json and both trace settings it runs
``run.py --size tiny`` and checks that the last line is the result object,
that the run is correct, and that it names exactly the metrics BENCHMARK.json
lists, each with its unit and a numeric value.  It then checks that the
correctness gate fails a copy of a suite payload whose margin was perturbed,
and a repeat whose timing-free payload changed.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins the thread environment before numpy loads)


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAILED: {message}")


def check_metrics(spec: dict) -> None:
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
                 "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                capture_output=True, text=True, cwd=ROOT, timeout=600)
            label = f"{workload} --trace {trace}"
            expect(done.returncode == 0, f"{label} exited {done.returncode}: {done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: not correct: {result['attempted']} attempted, "
                   f"{result['failed']} failed")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(units == expected[trace],
                   f"{label}: metric names or units differ from BENCHMARK.json: "
                   f"{sorted(set(units.items()) ^ set(expected[trace].items()))}")
            for name, m in result["metrics"].items():
                expect(isinstance(m["value"], (int, float)), f"{label}: {name} is {m['value']!r}")
            print(f"smoke: {label}: {len(units)} metrics, {result['attempted']} operations")


def check_gate() -> None:
    api = run.import_program()
    run.OUT.mkdir(exist_ok=True)
    workload = run.SuiteWorkload(api, "suite-small-d", 0, run.PLANS["tiny"])
    tally = run.Tally()
    rep = workload.rep(tally)
    payload = json.loads(workload.path.read_text(encoding="utf-8"))
    run.replay_all(api.suite, run.suite_witnesses(payload), tally)
    expect(tally.failed == 0, "the unmodified payload fails the gate")

    perturbed = copy.deepcopy(payload)
    report = next(r for r in perturbed["reports"] if r["witness"] is not None)
    report["margin"] += 1e-9
    tally = run.Tally()
    run.replay_all(api.suite, run.suite_witnesses(perturbed), tally)
    expect(tally.failed == 1, f"a margin perturbed by 1e-9 gave {tally.failed} failures, not 1")

    retimed = copy.deepcopy(payload)
    for r in retimed["reports"]:
        r["seconds"] += 1.0
    expect(run.without_timings(retimed) == rep.signature, "timing fields change the signature")
    expect(run.without_timings(perturbed) != rep.signature, "a changed margin keeps the signature")
    print("smoke: correctness gate catches a perturbed margin in a payload copy")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_metrics(spec)
    check_gate()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
