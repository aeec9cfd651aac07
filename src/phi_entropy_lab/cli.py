"""Command-line interface.

Subcommands compute entropies and derivatives on JSON inputs, run the
individual inequality checks, search for counterexamples, and drive the
full suite.  Exit codes: 0 all (in-class) checks pass, 1 a violation was
found, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import from_spec
from .channels import KrausChannel, random_unital_channel
from .entropy import MatrixEnsemble, ProductEnsemble, matrix_phi_entropy, operator_phi_entropy
from .errors import ConfigError, PhiLabError
from .frechet import frechet_d1, frechet_d2, frechet_d3
from .sampling import rng_for
from .spectral import matrix_from_json, matrix_to_json
from .suite import (
    CHECK_NAMES,
    RunConfig,
    SEARCHABLE_CHECKS,
    SWEEPS,
    check,
    class_gate,
    counterexample_search,
    run_suite,
    sweep,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read JSON from '{path}': {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"'{path}' must hold a JSON object, got {type(data).__name__}")
    return data


def _emit(payload, args) -> None:
    text = json.dumps(payload, indent=None if args.quiet else 2, sort_keys=False)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        if not args.quiet:
            print(f"wrote {args.output}")
    else:
        print(text)


def _int_list(text: str, option: str) -> list:
    """Integers of a comma list; a malformed entry is a configuration error."""
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"{option} must be a comma list of integers, got '{text}'") from None


def _summary_line(reports) -> str:
    passed = sum(1 for r in reports if r.holds)
    return f"{passed}/{len(reports)} checks passed"


def _phi(args, allow_outside=False):
    return from_spec(args.phi, allow_outside_class=allow_outside or getattr(args, "override", False))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="base RNG seed")
    common.add_argument("--tol", type=float, default=None, help="tolerance override")
    common.add_argument("--output", type=str, default=None, help="write JSON here")
    common.add_argument("--quiet", action="store_true", help="print only the summary line")

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

    p = sub.add_parser("check-subadditivity", parents=[common],
                       help="subadditivity of the entropy of a product ensemble")
    p.add_argument("--phi", required=True)
    p.add_argument("--variant", choices=["trace", "operator"], default="trace")
    p.add_argument("--input", required=True, help="product-ensemble JSON file")
    p.add_argument("--override", action="store_true", help="bypass the class gate")

    p = sub.add_parser("check-efron-stein", parents=[common],
                       help="operator and polynomial Efron-Stein bounds of a product ensemble")
    p.add_argument("--input", required=True, help="product-ensemble JSON file")
    p.add_argument("--p", type=str, default="1,2,3", help="comma list of polynomial orders")

    p = sub.add_parser("check-characterizations", parents=[common],
                       help="sweeps of the convexity characterizations (a)-(g)")
    p.add_argument("--phi", required=True)
    p.add_argument("--items", type=str, default="b,c,d,e,f,g")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--variant", choices=["trace", "operator"], default="trace")
    p.add_argument("--override", action="store_true")

    p = sub.add_parser("check-monotonicity", parents=[common],
                       help="monotonicity of the entropy under unital channels")
    p.add_argument("--phi", required=True)
    p.add_argument("--variant", choices=["trace", "operator"], default="trace")
    p.add_argument("--channel", required=True, help="channel JSON file or random:<k>")
    p.add_argument("--input", required=True, help="ensemble JSON file")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--override", action="store_true")

    p = sub.add_parser("search-counterexample", parents=[common],
                       help="random search and descent for a violating point")
    p.add_argument("--phi", required=True)
    p.add_argument("--check", required=True, choices=list(SEARCHABLE_CHECKS))
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--dim", type=int, default=1)

    p = sub.add_parser("run-suite", parents=[common], help="run every configured sweep")
    p.add_argument("--config", type=str, default=None, help="RunConfig JSON file")
    p.add_argument("--phi-list", type=str, default=None, help="comma list of functions")
    p.add_argument("--dims", type=str, default=None, help="comma list of dimensions")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--variant", choices=["trace", "operator", "both"], default=None)
    p.add_argument("--checks", type=str, default=None,
                   help=f"comma list from {','.join(CHECK_NAMES)}")
    p.add_argument("--allow-outside-class", action="store_true")
    return parser


def _cmd_entropy(args) -> int:
    f = _phi(args, allow_outside=True)
    E = MatrixEnsemble.from_json_dict(_read_json(args.input))
    if args.variant == "trace":
        value = matrix_phi_entropy(f, E)
        payload = {"command": "entropy", "phi": args.phi, "variant": "trace", "value": value}
        if args.quiet:
            print(f"entropy {value:.12g}")
            if args.output:
                _emit(payload, args)
        else:
            _emit(payload, args)
        return EXIT_OK
    gap = operator_phi_entropy(f, E)
    payload = {"command": "entropy", "phi": args.phi, "variant": "operator",
               "value": matrix_to_json(gap)}
    _emit(payload, args)
    return EXIT_OK


def _cmd_frechet(args) -> int:
    f = _phi(args, allow_outside=True)
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
    if args.quiet:
        print(_summary_line(reports))
        if args.output:
            _emit(payload if len(payload) > 1 else payload[0], args)
    else:
        _emit(payload if len(payload) > 1 else payload[0], args)
    return EXIT_OK if all(r.holds for r in reports) else EXIT_VIOLATION


def _cmd_check_subadditivity(args) -> int:
    f = _phi(args)
    P = ProductEnsemble.from_json_dict(_read_json(args.input))
    report = check("subadditivity", tol=args.tol, override=args.override,
                   phi=f, variant=args.variant, product=P)
    return _reports_exit([report], args)


def _cmd_check_efron_stein(args) -> int:
    P = ProductEnsemble.from_json_dict(_read_json(args.input))
    orders = _int_list(args.p, "--p")
    reports = [check("efron_stein", tol=args.tol, product=P)]
    reports += [check("poly_efron_stein", tol=args.tol, p=p, product=P) for p in orders]
    return _reports_exit(reports, args)


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


def _cmd_check_monotonicity(args) -> int:
    f = _phi(args)
    E = MatrixEnsemble.from_json_dict(_read_json(args.input))
    if args.channel.startswith("random:"):
        try:
            k = int(args.channel.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"malformed channel spec '{args.channel}'") from exc
        channels = [random_unital_channel(E.dim, k, rng_for(args.seed, "cli-channel", trial))
                    for trial in range(args.trials)]
    else:
        channels = [KrausChannel.from_json_dict(_read_json(args.channel))]
    reports = [check("monotonicity", tol=args.tol, override=args.override, phi=f,
                     variant=args.variant, channel=N, ensemble=E) for N in channels]
    return _reports_exit(reports, args)


def _cmd_search(args) -> int:
    f = from_spec(args.phi, allow_outside_class=True)
    report = counterexample_search(f, args.check, args.budget, args.seed, dim=args.dim,
                                   tol=args.tol if args.tol is not None else 1e-9)
    payload = report.to_json_dict()
    if args.quiet:
        found = "violation found" if not report.holds else "no violation"
        print(f"{found} after {report.trials} trials (margin {report.margin:.3e})")
        if args.output:
            _emit(payload, args)
    else:
        _emit(payload, args)
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
    if args.config:
        config = RunConfig.from_json_dict(_read_json(args.config))
    else:
        kwargs = {}
        if args.phi_list is not None:
            kwargs["phi_list"] = tuple(s.strip() for s in args.phi_list.split(",") if s.strip())
        if args.dims is not None:
            kwargs["dims"] = tuple(_int_list(args.dims, "--dims"))
        if args.trials is not None:
            kwargs["trials"] = args.trials
        if args.variant is not None:
            kwargs["variant"] = args.variant
        if args.checks is not None:
            kwargs["checks"] = tuple(s.strip() for s in args.checks.split(",") if s.strip())
        if args.allow_outside_class:
            kwargs["allow_outside_class"] = True
        if args.output:
            kwargs["output_path"] = args.output
        kwargs["seed"] = args.seed
        config = RunConfig(**kwargs)
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
    "check-subadditivity": _cmd_check_subadditivity,
    "check-efron-stein": _cmd_check_efron_stein,
    "check-characterizations": _cmd_check_characterizations,
    "check-monotonicity": _cmd_check_monotonicity,
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
