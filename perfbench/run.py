"""Benchmark of phi_entropy_lab: time to verdict of its seeded sweeps.

Run from the repository root:

    python3 perfbench/run.py --workload suite-small-d --seed 0 --seconds 35 --trace 0

Workloads (why each was chosen is in BENCHMARK.json):

  suite-small-d  ``run-suite`` in its default shape (square,xlogx; d=2,3,4;
                 trace; all ten checks): many trials on small matrices.
  suite-large-d  ``run-suite --dims 8,16 --variant both``: a few trials on
                 large matrices, including the operator-variant checks.
  search-replay  ``counterexample_search`` over five functions and every
                 searchable check at d=1; then ``replay_witness`` on every
                 stored witness.  Its time to verdict counts both halves.

The program is driven through its public API (``cli.main``,
``counterexample_search``, ``replay_witness``) from one process and one
thread and timed from outside.  Each run repeats the workload on one seed
and starts a repetition only while it can end within ``--seconds``.  A
repetition runs the workload's calls (one ``run-suite``, or the sweep of
searches) and then replays every witness in ``REPLAY_PASSES`` passes.  A
shared host changes pace by up to 2x for seconds to minutes at a time, so
``pace.py``'s yardstick is timed before the calls, after them and after each
pass of replays, and each span is also reported at reference pace
(``span * pace.REF_S / yardstick``, the mean of the two yardsticks around it).  Time to verdict is the median over
the repetitions, raw (``wall_s``) and paced (``wall_ref_s``); a witness's
replay time is its median over all passes, and ``replay_ms_p50``/``p95``
(raw) and ``replay_ref_ms_p50``/``p95`` (paced) are quantiles of these over
the witnesses.  ``setup_s`` is the median over fresh-interpreter probes,
each paced by a yardstick timed in the probe.  The
paced metrics are the bounded ones; the raw ones are on the detail line.

Correctness gate: a call that raises, a witness that does not replay to
within 1e-12 of its reported margin, or a payload (timings stripped) that
differs between repeats of the seed counts as a failed operation.  An
in-class check that fails is a verdict of the program, not a benchmark error:
it is reported as ``in_class_fail``.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` the functions listed in ``tracing.py`` are wrapped
and the last line holds calls and self time per function.  Spans are written
to ``perfbench/out/``.
"""

import os

# Pinned before numpy is imported, here and in the set-up probes started below.
PINNED_ENV = {
    "PHI_LAB_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import pace  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

REPLAY_TOL = 1e-12
# Passes over the witnesses per repetition; each witness counts its median replay.
REPLAY_PASSES = 3

WORKLOADS = ("suite-small-d", "suite-large-d", "search-replay")
# Default seed and a held-out seed per workload; the held-out seed is kept for
# checking a claimed gain and is not used while a change is written.
SEEDS = {"suite-small-d": (0, 9001), "suite-large-d": (0, 9002), "search-replay": (0, 9003)}

SEARCH_PHIS = ("square", "xlogx", "quartic", "exp", "power:3")

# Sizes of one repetition.  "tiny" exists for smoke.py only.
PLANS = {
    "full": {
        "suite-small-d": {"trials": 5},
        "suite-large-d": {"dims": [8, 16], "variant": "both", "trials": 2},
        # d=1 only: with d=2 added a sweep took 5 s, too few repetitions per
        # run for its time to be steady on a shared host.
        "search": {"phis": SEARCH_PHIS, "dims": (1,), "budget": 50},
        # Un-timed suite runs whose witnesses search-replay replays (>= 200).
        "witness_runs": [{"trials": 2}] * 3,
        "min_reps": 3,
        "probes": 15,
    },
    "tiny": {
        "suite-small-d": {"dims": [2], "trials": 1},
        "suite-large-d": {"dims": [8], "variant": "both", "trials": 1},
        "search": {"phis": ("square", "quartic"), "dims": (1,), "budget": 3},
        "witness_runs": [{"dims": [2], "trials": 1}],
        "min_reps": 2,
        "probes": 2,
    },
}

# name -> unit; the end-to-end metrics printed on the last line with --trace 0.
END_TO_END = {
    "setup_s": "s",
    "wall_ref_s": "s",
    "peak_rss_mb": "MB",
    "replay_ref_ms_p50": "ms",
    "replay_ref_ms_p95": "ms",
}
# Printed on the detail line: raw times, which follow the host's pace, and
# outcomes that can be 0 or apply to search-replay only.
OUTCOMES = {
    "setup_raw_s": "s",
    "wall_s": "s",
    "replay_ms_p50": "ms",
    "replay_ms_p95": "ms",
    "pace": "ratio",
    "error_rate": "ratio",
    "in_class_fail": "count",
    "search_s": "s",
    "search_found": "count",
}

# Traced functions that some workload never calls (dd3_grid none does).  Their
# self time would read 0.0 on every run of that workload, so the last line
# carries only their call counts; the trace file and table keep both.
CALLS_ONLY = {
    "catalog.dd3_grid",
    "characterizations.condition_e_margin",
    "channels.random_unital_channel",
    "sampling.sample_hermitian_unit",
    "sampling.sample_product",
    "sampling.sample_ensemble",
    "sampling.sample_coupled_ensembles",
    "reports.MatrixEnsemble.to_json_dict",
    "reports.ProductEnsemble.to_json_dict",
    "reports.KrausChannel.to_json_dict",
    "reports.SuiteReport.to_json_dict",
    "suite.run_suite",
    "suite.counterexample_search",
    "cli.main",
}


def suite_argv(config: dict, seed: int) -> list:
    """``run-suite`` arguments for a RunConfig given as a dict."""
    argv = ["run-suite", "--seed", str(seed), "--trials", str(config["trials"])]
    if "dims" in config:
        argv += ["--dims", ",".join(str(d) for d in config["dims"])]
    if "variant" in config:
        argv += ["--variant", config["variant"]]
    return argv


# --- set-up time ------------------------------------------------------------------

PROBE = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
spec = json.loads(sys.argv[2])
from phi_entropy_lab import cli
from phi_entropy_lab.catalog import from_spec
from phi_entropy_lab.suite import RunConfig
cli.build_parser().parse_args(spec["argv"])
config = RunConfig(**spec["config"])
for name in spec["phis"] or config.phi_list:
    from_spec(name, allow_outside_class=True)
seconds = time.perf_counter() - start
sys.path.insert(0, sys.argv[3])
from pace import yardstick
yardstick()
print(seconds, yardstick())
"""


def setup_seconds(spec: dict) -> tuple:
    """Cold import plus config and function resolution, in a fresh interpreter.

    Returns the seconds it took and a yardstick timed (warm) right after it
    in the same interpreter.
    """
    done = subprocess.run(
        [sys.executable, "-I", "-c", PROBE, str(SRC), json.dumps(spec), str(HERE)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
    seconds, yard = done.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(yard)


# --- correctness gate -------------------------------------------------------------


class Tally:
    """Operations attempted and failed; a failure is a raise or a wrong output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, label: str, fn, *args, **kwargs):
        """Run one operation; return its result, or None if it raised."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            print(f"perfbench: {label} raised", file=sys.stderr)
            traceback.print_exc()
            return None

    def fail(self, message: str) -> None:
        """Mark an operation already attempted as failed: its output is wrong."""
        self.failed += 1
        print(f"perfbench: {message}", file=sys.stderr)


def suite_witnesses(payload: dict) -> list:
    """(check name, witness, reported margin) for every report of a suite payload."""
    return [(r["check_name"], r["witness"], r["margin"])
            for r in payload["reports"] if r["witness"] is not None]


def without_timings(payload: dict) -> str:
    """Canonical text of a suite payload with its timing fields removed."""
    reports = [{k: v for k, v in r.items() if k != "seconds"} for r in payload["reports"]]
    return json.dumps({**payload, "reports": reports}, sort_keys=True)


def replay_all(suite, stored: list, tally: Tally) -> list:
    """Replay each stored witness once; a margin off by more than REPLAY_TOL fails.

    Returns each witness's replay time in milliseconds.
    """
    times_ms = []
    for label, witness, margin in stored:
        start = time.perf_counter()
        value = tally.call(f"replay {label}", suite.replay_witness, witness)
        times_ms.append((time.perf_counter() - start) * 1e3)
        if value is not None and not abs(value - margin) <= REPLAY_TOL:
            tally.fail(f"replay {label}: margin {value!r}, reported {margin!r}")
    return times_ms


# --- workloads --------------------------------------------------------------------


@dataclass
class Rep:
    """Outcome of one repetition of a workload."""

    calls_s: float          # seconds of the workload's calls
    complete: bool          # no call raised
    stored: list            # witnesses to replay: (label, witness, margin)
    signature: str | None   # timing-free output, equal across repeats of a seed
    in_class_fail: int
    search_found: int | None
    payload_bytes: int
    # Filled in by Measured.repeat:
    calls_pace: float = 1.0   # yardstick / pace.REF_S around the calls
    replay_s: float = 0.0     # one pass of replays: sum of each witness's median
    replay_ref_s: float = 0.0  # the same at reference pace
    replayed: bool = True     # all the seed's witnesses came back and were replayed


def run_cli(cli, argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class SuiteWorkload:
    """One ``run-suite`` through ``cli.main``; its JSON payload is read back."""

    replays_in_wall = False  # the replays only check the suite's output

    def __init__(self, api, name: str, seed: int, plan: dict):
        self.api = api
        self.path = OUT / f"{name}.json"
        self.argv = suite_argv(plan[name], seed) + ["--output", str(self.path), "--quiet"]
        self.probe = {"argv": suite_argv(plan[name], seed),
                      "config": {"seed": seed, **plan[name]}, "phis": []}

    def prepare(self, tally: Tally) -> None:
        pass

    def rep(self, tally: Tally) -> Rep:
        start = time.perf_counter()
        code = tally.call("run-suite", run_cli, self.api.cli, self.argv)
        wall = time.perf_counter() - start
        if code is None:
            return Rep(wall, False, [], None, 0, None, 0)
        payload = json.loads(self.path.read_text(encoding="utf-8"))
        in_class_fail = sum(1 for r in payload["reports"] if r["in_class"] and not r["holds"])
        # Exit 1 is the verdict "an in-class check failed"; anything else is an error.
        if code != (1 if in_class_fail else 0):
            tally.fail(f"run-suite exited {code} with {in_class_fail} in-class failures")
        # One thread runs the checks one after another inside the call, so the
        # program's own per-check timings cannot add up to more than the call.
        checks_s = sum(r["seconds"] for r in payload["reports"])
        if checks_s > wall:
            tally.fail(f"check timings sum to {checks_s} s in a {wall} s run-suite")
        return Rep(wall, True, suite_witnesses(payload), without_timings(payload),
                   in_class_fail, None, self.path.stat().st_size)


class SearchReplayWorkload:
    """Counterexample searches, then replay of stored and found witnesses."""

    replays_in_wall = True  # the replays are half of the workload

    def __init__(self, api, name: str, seed: int, plan: dict):
        self.api = api
        self.seed = seed
        self.search = plan["search"]
        self.witness_argvs = [suite_argv(config, seed + k)
                              for k, config in enumerate(plan["witness_runs"])]
        self.probe = {"argv": self.witness_argvs[0],
                      "config": {"seed": seed, **plan["witness_runs"][0]},
                      "phis": list(self.search["phis"])}
        self.stored = []

    def prepare(self, tally: Tally) -> None:
        """Write the stored witnesses with un-timed suite runs, and resolve functions."""
        for k, argv in enumerate(self.witness_argvs):
            path = OUT / f"witnesses-{k}.json"
            if tally.call("run-suite", run_cli, self.api.cli,
                          argv + ["--output", str(path), "--quiet"]) is not None:
                self.stored += suite_witnesses(json.loads(path.read_text(encoding="utf-8")))
        self.funcs = []
        for name in self.search["phis"]:
            f = self.api.catalog.from_spec(name, allow_outside_class=True)
            self.funcs.append((f, f.has_tag(self.api.catalog.OUTSIDE_CLASS)))

    def rep(self, tally: Tally) -> Rep:
        search, results, raised = self.search, [], False
        start = time.perf_counter()
        for f, outside in self.funcs:
            for check in self.api.suite.SEARCHABLE_CHECKS:
                for dim in search["dims"]:
                    report = tally.call(
                        f"search[{check},{f.spec_string()},d={dim}]",
                        self.api.suite.counterexample_search, f, check, search["budget"],
                        self.seed, dim=dim)
                    if report is None:
                        raised = True
                    else:
                        results.append((report, outside))
        wall = time.perf_counter() - start
        signature = json.dumps([r.to_json_dict() for r, _ in results], sort_keys=True)
        found = [(r.check_name, r.witness, r.margin) for r, _ in results if r.witness]
        return Rep(wall, not raised, self.stored + found, signature,
                   sum(1 for r, outside in results if not outside and not r.holds),
                   sum(1 for r, outside in results if outside and not r.holds),
                   len(signature.encode()))


@dataclass
class Measured:
    """Repetitions of a workload on one seed, timed raw and at reference pace."""

    reps: list = field(default_factory=list)       # Rep, without witnesses or signature
    layers: list = field(default_factory=list)     # per repetition: name -> (calls, self s)
    replay_ms: list = field(default_factory=list)  # per witness: [(raw, paced) ms, ...]
    signature: str | None = None                   # of the first repetition

    def full(self) -> list:
        """The repetitions whose calls all returned and whose witnesses all replayed."""
        return [r for r in self.reps if r.complete and r.replayed] or self.reps

    def seconds(self, replays: bool, paced: bool = True) -> float:
        """Median over the repetitions of the calls, plus one pass of replays if asked."""
        def one(r):
            calls = r.calls_s / (r.calls_pace if paced else 1.0)
            return calls + ((r.replay_ref_s if paced else r.replay_s) if replays else 0.0)
        return statistics.median(one(r) for r in self.full())

    def replay_quantile(self, q: int, paced: bool = True) -> float | None:
        """The q-th percentile over the witnesses of each one's median replay, in ms."""
        if not self.replay_ms:
            return None
        return quantile([statistics.median(t[1 if paced else 0] for t in times)
                         for times in self.replay_ms], q)

    def repeat(self, workload, tally: Tally, tracer=None) -> None:
        """Run one repetition and replay its witnesses; a traced one's spans cover both.

        The yardstick is timed before the calls, after them and after each
        pass of replays; a span is paced by the mean of the two around it.
        The same witnesses come back on every repetition of a seed, and the
        output must not change between them.  A repetition that returned
        another number of witnesses has failed and adds no replay times.
        """
        lo = tracer.mark() if tracer else 0
        yards = [pace.yardstick()]
        rep = workload.rep(tally)
        yards.append(pace.yardstick())
        samples = [[] for _ in rep.stored]  # per witness: (raw, paced) ms per pass
        for _ in range(REPLAY_PASSES):
            times = replay_all(workload.api.suite, rep.stored, tally)
            yards.append(pace.yardstick())
            pass_pace = (yards[-2] + yards[-1]) / 2 / pace.REF_S
            for witness, ms in zip(samples, times):
                witness.append((ms, ms / pass_pace))
        replayed = not self.replay_ms or len(samples) == len(self.replay_ms)
        if replayed:
            if not self.replay_ms:
                self.replay_ms = [[] for _ in samples]
            for merged, witness in zip(self.replay_ms, samples):
                merged.extend(witness)
        if self.signature is None:
            self.signature = rep.signature
        elif rep.signature not in (None, self.signature):
            tally.fail("output differs between repeats of one seed")
        self.reps.append(replace(
            rep, stored=[], signature=None, replayed=replayed,
            calls_pace=(yards[0] + yards[1]) / 2 / pace.REF_S,
            replay_s=sum(statistics.median(t[0] for t in w) for w in samples) / 1e3,
            replay_ref_s=sum(statistics.median(t[1] for t in w) for w in samples) / 1e3))
        if tracer:
            self.layers.append(tracer.summary(lo, tracer.mark()))


# --- environment and reporting ----------------------------------------------------


def import_program():
    """Import phi_entropy_lab from this checkout's src/, and nowhere else."""
    if not (SRC / "phi_entropy_lab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no phi_entropy_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import phi_entropy_lab
    from phi_entropy_lab import catalog, cli, suite

    if Path(phi_entropy_lab.__file__).resolve().parent != SRC / "phi_entropy_lab":
        raise SystemExit(f"perfbench: imported phi_entropy_lab from {phi_entropy_lab.__file__}")
    # Modules, not functions: names are looked up at call time, so the tracer's
    # wrappers are the ones called while it is active.
    return SimpleNamespace(catalog=catalog, cli=cli, suite=suite)


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        **PINNED_ENV,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def quantile(values: list, q: int) -> float:
    """The q-th percentile (1..99) of values."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, workload, plan) -> tuple:
    tally = Tally()
    deadline = time.perf_counter() + args.seconds
    # Each probe is paced by its own yardstick, so the probes can run together;
    # after them, the repetitions run back to back with warm caches.
    setup = [setup_seconds(workload.probe) for _ in range(plan["probes"])]
    workload.prepare(tally)
    measured = Measured()
    # An untimed first repetition lets lazy set-up finish and caches fill.
    start = time.perf_counter()
    measured.repeat(workload, tally)
    rep_s = time.perf_counter() - start
    measured.reps.clear()
    measured.replay_ms.clear()
    while len(measured.reps) < plan["min_reps"] or time.perf_counter() + rep_s < deadline:
        start = time.perf_counter()
        measured.repeat(workload, tally)
        rep_s = time.perf_counter() - start
    reps = measured.reps
    searching = args.workload == "search-replay"
    values = {
        "setup_s": statistics.median(seconds * pace.REF_S / yard for seconds, yard in setup),
        "wall_ref_s": measured.seconds(workload.replays_in_wall),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "replay_ref_ms_p50": measured.replay_quantile(50),
        "replay_ref_ms_p95": measured.replay_quantile(95),
        "setup_raw_s": statistics.median(seconds for seconds, _ in setup),
        "wall_s": measured.seconds(workload.replays_in_wall, paced=False),
        "replay_ms_p50": measured.replay_quantile(50, paced=False),
        "replay_ms_p95": measured.replay_quantile(95, paced=False),
        "pace": statistics.median(r.calls_pace for r in reps),
        "error_rate": tally.failed / max(1, tally.attempted),
        "in_class_fail": max(r.in_class_fail for r in reps),
        "search_s": measured.seconds(False, paced=False) if searching else None,
        "search_found": max(r.search_found for r in reps) if searching else None,
    }
    units = {**END_TO_END, **OUTCOMES}
    paces = sorted(r.calls_pace for r in reps)
    print(f"repetitions {len(reps)} (pace: fastest {paces[0]:.3f}, "
          f"median {statistics.median(paces):.3f}, slowest {paces[-1]:.3f}), "
          f"witnesses {len(measured.replay_ms)}, set-up probes {len(setup)}, "
          f"operations {tally.attempted}, failed {tally.failed}")
    for name, unit in units.items():
        value = values[name]
        print(f"  {name:<17} {'n/a' if value is None else f'{value:.6g}'} {unit}")
    detail = {name: metric(values[name], unit) for name, unit in units.items()}
    result = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
    return tally, detail, result


def per_layer(args, workload, plan) -> tuple:
    tally = Tally()
    workload.prepare(tally)
    plain, traced, tracer = Measured(), Measured(), Tracer()
    deadline = time.perf_counter() + args.seconds
    # Plain and traced repetitions alternate, so that both meet the same host load.
    while len(traced.reps) < 2 or time.perf_counter() < deadline:
        plain.repeat(workload, tally)
        with tracer:
            traced.repeat(workload, tally, tracer)
    if None not in (plain.signature, traced.signature) and plain.signature != traced.signature:
        tally.fail("tracing changed the output")
    span_file = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
    tracer.save(span_file)
    overhead = (traced.seconds(workload.replays_in_wall)
                / plain.seconds(workload.replays_in_wall))
    # Calls repeat exactly; self time is each function's fastest repetition.
    table = {name: (traced.layers[-1][name][0], min(s[name][1] for s in traced.layers))
             for name in tracer.names}
    print(f"traced repetitions {len(traced.reps)}, overhead {overhead:.3f}x, "
          f"{tracer.mark()} spans written to {span_file.relative_to(ROOT)}")
    total = sum(seconds for _, seconds in table.values())
    for name, (calls, seconds) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        if calls:
            print(f"  {name:<52} {calls:>9} calls {seconds:9.4f} s {100 * seconds / total:5.1f}%")
    layers = {}
    for name, (calls, seconds) in table.items():
        layers[f"{name}.calls"] = metric(calls, "count")
        if name not in CALLS_ONLY:
            layers[f"{name}.self_s"] = metric(seconds, "s")
    rep = traced.reps[-1]
    layers["reports.payload_bytes"] = metric(rep.payload_bytes, "bytes")
    layers["suite.in_class_fail"] = metric(rep.in_class_fail, "count")
    layers["suite.search_found"] = metric(rep.search_found or 0, "count")
    layers["trace.overhead"] = metric(overhead, "ratio")
    detail = {"trace.overhead": overhead,
              "calls_self_s": {name: list(row) for name, row in table.items()}}
    return tally, detail, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's default seed)")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(PLANS), default="full")
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = SEEDS[args.workload][0]

    api = import_program()
    OUT.mkdir(exist_ok=True)
    plan = PLANS[args.size]
    kind = SearchReplayWorkload if args.workload == "search-replay" else SuiteWorkload
    workload = kind(api, args.workload, args.seed, plan)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    env = environment()
    print("environment " + json.dumps(env))
    if args.trace:
        tally, detail, metrics = per_layer(args, workload, plan)
    else:
        tally, detail, metrics = end_to_end(args, workload, plan)
    print("detail " + json.dumps({"workload": args.workload, "seed": args.seed,
                                  "environment": env, "metrics": detail}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
