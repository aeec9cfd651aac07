"""Command-line interface.

Exit codes: 0 the checks hold, 1 a violation, 2 bad configuration or input.

- ``entropy``, ``frechet`` (0, 2): an entropy, a directional derivative;
- ``check``: one witness file, as a report stores it (its ``kind``, then
  the fields of that ``suite.CHECKS`` record);
- ``replay``: 1 if a witness margin of a ``run-suite`` file moves by > 1e-12;
- ``check-characterizations``: sweeps of the characterizations (a)-(g);
- ``search-counterexample``: 1 if a violating point is found;
- ``run-suite``: 1 if an in-class check fails.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import from_spec
from .entropy import MatrixEnsemble, matrix_phi_entropy, operator_phi_entropy
from .errors import ConfigError, PhiLabError
from .frechet import frechet_d1, frechet_d2, frechet_d3
from .spectral import matrix_from_json, matrix_to_json
from .suite import (
    CHECK_NAMES,
    RunConfig,
    SEARCHABLE_CHECKS,
    SWEEPS,
    _decode_witness,
    check,
    class_gate,
    counterexample_search,
    replay_witness,
    run_suite,
    sweep,
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


def _emit(payload, args, line: str | None = None) -> None:
    """Write payload as JSON to --output, or else to stdout.  Under --quiet
    the JSON is compact, and a summary line, if given, replaces it on stdout."""
    if args.quiet and line is not None:
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


def _phi(args):
    """The --phi function; outside every class only if ungated or under --override."""
    return from_spec(args.phi, allow_outside_class=getattr(args, "override", True))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", type=str, default=None, help="write JSON here")
    common.add_argument("--quiet", action="store_true", help="print only the summary line")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="base RNG seed")
    judged = argparse.ArgumentParser(add_help=False)
    judged.add_argument("--tol", type=float, default=None, help="tolerance override")

    parser = argparse.ArgumentParser(
        prog="phi-entropy-lab",
        description="Numerical checks for matrix and operator-valued entropy inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", parents=[common], help="entropy of an ensemble")
    p.add_argument("--phi", required=True)
    p.add_argument("--variant", choices=["trace", "operator"], default="trace")
    p.add_argument("--input", required=True, help="ensemble JSON file")

    p = sub.add_parser("frechet", parents=[common], help="directional derivative of a matrix function")
    p.add_argument("--phi", required=True)
    p.add_argument("--order", type=int, choices=[1, 2, 3], required=True)
    p.add_argument("--matrix", required=True, help="base point JSON file")
    p.add_argument("--direction", required=True, help="direction JSON file")

    p = sub.add_parser("check", parents=[common, judged], help="report of one stored witness")
    p.add_argument("--input", required=True, help="witness JSON file: kind and record fields")
    p.add_argument("--override", action="store_true", help="bypass the class gate")

    p = sub.add_parser("replay", parents=[common],
                       help="recompute the margins of the witnesses of a run-suite file")
    p.add_argument("--input", required=True, help="run-suite JSON file")

    p = sub.add_parser("check-characterizations", parents=[common, seeded, judged],
                       help="sweeps of the convexity characterizations (a)-(g)")
    p.add_argument("--phi", required=True)
    p.add_argument("--items", type=str, default="b,c,d,e,f,g")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--variant", choices=["trace", "operator"], default="trace")
    p.add_argument("--override", action="store_true")

    p = sub.add_parser("search-counterexample", parents=[common, seeded, judged],
                       help="random search and descent for a violating point")
    p.add_argument("--phi", required=True)
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


def _cmd_entropy(args) -> int:
    f = _phi(args)
    E = MatrixEnsemble.from_json_dict(_read_json(args.input))
    if args.variant == "trace":
        value = matrix_phi_entropy(f, E)
        line = f"entropy {value:.12g}"
    else:
        value, line = matrix_to_json(operator_phi_entropy(f, E)), None
    _emit({"command": "entropy", "phi": args.phi, "variant": args.variant, "value": value},
          args, line)
    return EXIT_OK


def _cmd_frechet(args) -> int:
    f = _phi(args)
    A = matrix_from_json(_read_json(args.matrix))
    X = matrix_from_json(_read_json(args.direction))
    if args.order == 1:
        out = frechet_d1(f, A, X)
    elif args.order == 2:
        out = frechet_d2(f, A, X, X)
    else:
        out = frechet_d3(f, A, X, X, X)
    _emit({"command": "frechet", "phi": args.phi, "order": args.order,
           "derivative": matrix_to_json(out)}, args)
    return EXIT_OK


def _reports_exit(reports, args) -> int:
    if not reports:
        raise ConfigError("the arguments select no check to run")
    payload = [r.to_json_dict() for r in reports]
    line = f"{sum(1 for r in reports if r.holds)}/{len(reports)} checks passed"
    _emit(payload if len(payload) > 1 else payload[0], args, line)
    return EXIT_OK if all(r.holds for r in reports) else EXIT_VIOLATION


def _cmd_check(args) -> int:
    witness = _read_json(args.input)
    point = _decode_witness(witness)
    return _reports_exit([check(witness["kind"], tol=args.tol, override=args.override,
                                **point)], args)


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


def _cmd_check_characterizations(args) -> int:
    f = _phi(args)
    items = [s.strip() for s in args.items.split(",") if s.strip()]
    valid = set("abcdefg")
    bad = [i for i in items if i not in valid]
    if bad:
        raise ConfigError(f"unknown characterization items {bad}; valid: a-g")
    checks = ("characterizations", "condition_a", "condition_e")
    config = RunConfig(seed=args.seed, dims=(args.dim,), trials=args.trials,
                       phi_list=(args.phi,), variant=args.variant,
                       allow_outside_class=args.override,
                       tolerances={} if args.tol is None else dict.fromkeys(checks, args.tol))
    chosen = [(name, s) for name in checks for s in SWEEPS[name] if s.fixed["item"] in items]
    for _, s in chosen:
        class_gate(s.kind, f, args.variant, args.override)
    reports = [sweep(config, name, s, f, args.variant, args.dim) for name, s in chosen]
    return _reports_exit(reports, args)


def _cmd_search(args) -> int:
    report = counterexample_search(_phi(args), args.check, args.budget, args.seed, dim=args.dim,
                                   tol=args.tol if args.tol is not None else 1e-9)
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
        config = RunConfig(**given, output_path=args.output or None)
    suite = run_suite(config)
    payload = suite.to_json_dict()
    out_path = args.output or config.output_path
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            _write_payload(fh, payload)
    summary = suite.summary
    print(f"suite: {summary['pass']} pass, {summary['fail']} fail, "
          f"{summary['skip']} skip")
    if not args.quiet and not out_path:
        print(json.dumps(payload, indent=2))
    return suite.exit_code()


_COMMANDS = {
    "entropy": _cmd_entropy,
    "frechet": _cmd_frechet,
    "check": _cmd_check,
    "replay": _cmd_replay,
    "check-characterizations": _cmd_check_characterizations,
    "search-counterexample": _cmd_search,
    "run-suite": _cmd_run_suite,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PhiLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
