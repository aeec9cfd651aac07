"""Command-line interface.

Exit codes: 0 the checks hold, 1 a violation, 2 bad configuration or input.

- ``check``: 1 if the statement fails at one witness file, as a report
  stores it (its ``kind``, then the fields of that ``suite.CHECKS`` record);
- ``replay``: 1 if a witness margin of a ``run-suite`` file moves by > 1e-12;
- ``search-counterexample``: 1 if a violating point is found;
- ``run-suite``: 1 if an in-class check fails.  The sweeps of the
  characterizations (a)-(g) of one function F at one dimension D are
  ``run-suite --checks characterizations,condition_a,condition_e
  --phi-list F --dims D``, with ``--trials``, ``--variant`` and ``--seed``
  as needed; outside F's class, ``check --override`` reports one point.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import from_spec
from .errors import ConfigError, PhiLabError
from .suite import (
    CHECK_NAMES,
    RunConfig,
    SEARCHABLE_CHECKS,
    _decode_witness,
    check,
    counterexample_search,
    replay_witness,
    run_suite,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
REPLAY_TOL = 1e-12


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read JSON from '{path}': {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"'{path}' must hold a JSON object, got {type(data).__name__}")
    return data


def _emit(payload, args, line: str) -> None:
    """Write payload as JSON to --output, or else to stdout.  Under --quiet
    the JSON is compact, and the summary line replaces it on stdout."""
    if args.quiet:
        print(line)
        if not args.output:
            return
    text = json.dumps(payload, indent=None if args.quiet else 2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        if not args.quiet:
            print(f"wrote {args.output}")
    else:
        print(text)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", type=str, default=None, help="write JSON here")
    common.add_argument("--quiet", action="store_true", help="print only the summary line")

    parser = argparse.ArgumentParser(
        prog="phi-entropy-lab",
        description="Numerical checks for matrix and operator-valued entropy inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="report of one stored witness")
    p.add_argument("--input", required=True, help="witness JSON file: kind and record fields")
    p.add_argument("--tol", type=float, default=None, help="tolerance override")
    p.add_argument("--override", action="store_true", help="bypass the class gate")

    p = sub.add_parser("replay", parents=[common],
                       help="recompute the margins of the witnesses of a run-suite file")
    p.add_argument("--input", required=True, help="run-suite JSON file")

    p = sub.add_parser("search-counterexample", parents=[common],
                       help="random search for a violating point")
    p.add_argument("--phi", required=True)
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--check", required=True, choices=list(SEARCHABLE_CHECKS))
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--dim", type=int, default=1)

    p = sub.add_parser("run-suite", parents=[common], help="run every configured sweep")
    p.add_argument("--config", type=str, default=None, help="RunConfig JSON file, the whole run")
    p.add_argument("--seed", type=int, default=None, help="base RNG seed (default 0)")
    p.add_argument("--phi-list", type=str, default=None, help="comma list of functions")
    p.add_argument("--dims", type=str, default=None, help="comma list of dimensions")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--variant", choices=["trace", "operator", "both"], default=None)
    p.add_argument("--checks", type=str, default=None,
                   help=f"comma list from {','.join(CHECK_NAMES)}")
    p.add_argument("--allow-outside-class", action="store_true")
    return parser


def _cmd_check(args) -> int:
    kind, point = _decode_witness(_read_json(args.input))
    report = check(kind, tol=args.tol, override=args.override, **point)
    _emit(report.to_json_dict(), args, f"{int(report.holds)}/1 checks passed")
    return EXIT_OK if report.holds else EXIT_VIOLATION


def _cmd_replay(args) -> int:
    reports = _read_json(args.input).get("reports")
    if not isinstance(reports, list) or not all(isinstance(r, dict) for r in reports):
        raise ConfigError(f"'{args.input}' must hold a 'reports' list of objects")
    stored = [r for r in reports if r.get("witness") is not None]
    if any(type(r.get("margin")) not in (int, float) for r in stored):
        raise ConfigError(f"'{args.input}' holds a witness without a numeric margin")
    rows = [{"check_name": r.get("check_name"), "margin": r["margin"],
             "replayed": replay_witness(r["witness"])} for r in stored]
    kept = sum(1 for row in rows if abs(row["replayed"] - row["margin"]) <= REPLAY_TOL)
    _emit(rows, args, f"{kept}/{len(rows)} witnesses replayed to their margins")
    return EXIT_OK if kept == len(rows) else EXIT_VIOLATION


def _cmd_search(args) -> int:
    f = from_spec(args.phi, allow_outside_class=True)  # whatever its class
    report = counterexample_search(f, args.check, args.budget, args.seed, dim=args.dim)
    found = "violation found" if not report.holds else "no violation"
    _emit(report.to_json_dict(), args,
          f"{found} after {report.trials} trials (margin {report.margin:.3e})")
    # A found counterexample is the expected success mode for outside-class
    # functions; the exit code still reports it as a violation.
    return EXIT_VIOLATION if not report.holds else EXIT_OK


def _write_payload(fh, payload: dict) -> None:
    """Write json.dumps(payload) to fh, encoding its reports one at a time.

    json.dumps without indent runs the C encoder (json.dump always runs the
    pure-Python one), and one report at a time bounds the memory of the
    write by the largest report instead of the whole file.
    """
    fh.write("{")
    for n, (key, value) in enumerate(payload.items()):
        fh.write((", " if n else "") + json.dumps(key) + ": ")
        if key == "reports":
            fh.write("[")
            for i, report in enumerate(value):
                fh.write((", " if i else "") + json.dumps(report))
            fh.write("]")
        else:
            fh.write(json.dumps(value))
    fh.write("}")


def _cmd_run_suite(args) -> int:
    def split(text, cast=str):
        return None if text is None else tuple(cast(s.strip()) for s in text.split(",")
                                               if s.strip())
    try:
        dims = split(args.dims, int)
    except ValueError:
        raise ConfigError(f"--dims must be a comma list of integers, got '{args.dims}'") from None
    # The options a --config file replaces, by RunConfig field.
    options = {"seed": args.seed, "trials": args.trials, "dims": dims, "variant": args.variant,
               "phi_list": split(args.phi_list), "checks": split(args.checks),
               "allow_outside_class": args.allow_outside_class or None}
    given = {key: value for key, value in options.items() if value is not None}
    if args.config:
        if given:
            flags = ", ".join("--" + key.replace("_", "-") for key in given)
            raise ConfigError(f"--config holds the whole run; {flags} cannot be given with it")
        config = RunConfig.from_json_dict(_read_json(args.config))
    else:
        config = RunConfig(**given)
    suite = run_suite(config)
    payload = suite.to_json_dict()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            _write_payload(fh, payload)
    summary = suite.summary
    print(f"suite: {summary['pass']} pass, {summary['fail']} fail, "
          f"{summary['skip']} skip")
    if not args.quiet and not args.output:
        print(json.dumps(payload, indent=2))
    return suite.exit_code()


_COMMANDS = {
    "check": _cmd_check,
    "replay": _cmd_replay,
    "search-counterexample": _cmd_search,
    "run-suite": _cmd_run_suite,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except PhiLabError as exc:
        label = "config error" if isinstance(exc, ConfigError) else "error"
        print(f"{label}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
