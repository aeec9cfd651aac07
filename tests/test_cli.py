"""Command-line interface: subcommands, JSON I/O, exit-code contract."""

import io
import json
from pathlib import Path

import pytest

from phi_entropy_lab import random_unital_channel
from phi_entropy_lab.cli import _write_payload, main
from phi_entropy_lab.sampling import rng_for, sample_ensemble, sample_product


@pytest.fixture()
def ensemble_file(tmp_path):
    E = sample_ensemble(2, 2, seed=1, spectral_floor=0.1)
    path = tmp_path / "ensemble.json"
    path.write_text(json.dumps(E.to_json_dict()))
    return str(path)


@pytest.fixture()
def product_file(tmp_path):
    P = sample_product(2, 2, 2, seed=2)
    path = tmp_path / "product.json"
    path.write_text(json.dumps(P.to_json_dict()))
    return str(path)


def _json_file(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_check_subadditivity_command(product_file, tmp_path, capsys):
    witness = {"kind": "subadditivity", "phi": "xlogx", "variant": "trace",
               "product": _read(product_file)}
    code = main(["check", "--input", _json_file(tmp_path, "w.json", witness)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["holds"] is True
    assert payload["check_name"] == "subadditivity[xlogx,trace]"


def test_check_efron_stein_command(product_file, tmp_path, capsys):
    # the operator bound and the polynomial bound at p = 1 and p = 2
    product = _read(product_file)
    witnesses = [{"kind": "efron_stein", "product": product}]
    witnesses += [{"kind": "poly_efron_stein", "p": p, "product": product} for p in (1, 2)]
    for witness in witnesses:
        assert main(["check", "--input", _json_file(tmp_path, "w.json", witness)]) == 0
        assert json.loads(capsys.readouterr().out)["holds"] is True


def test_check_monotonicity_command(ensemble_file, tmp_path, capsys):
    ensemble = _read(ensemble_file)
    for trial in range(4):
        channel = random_unital_channel(2, 3, rng_for(5, "cli-channel", trial))
        witness = {"kind": "monotonicity", "phi": "square", "variant": "trace",
                   "channel": channel.to_json_dict(), "ensemble": ensemble}
        assert main(["check", "--input", _json_file(tmp_path, "w.json", witness)]) == 0
        assert json.loads(capsys.readouterr().out)["holds"] is True


def test_search_counterexample_command(capsys):
    code = main(["search-counterexample", "--phi", "quartic", "--check", "map_C",
                 "--budget", "2000", "--seed", "6", "--quiet"])
    assert code == 1  # a violation was found
    assert "violation found" in capsys.readouterr().out


def test_run_suite_command(tmp_path, capsys):
    out = tmp_path / "suite.json"
    code = main(["run-suite", "--phi-list", "square", "--dims", "2", "--trials", "3",
                 "--seed", "7", "--checks", "subadditivity,efron_stein",
                 "--output", str(out), "--quiet"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["fail"] == 0
    assert payload["config"]["seed"] == 7
    # the output file is not part of the run's configuration
    assert "output_path" not in payload["config"]


def test_run_suite_file_is_json_dumps_of_its_payload(tmp_path, capsys):
    out = tmp_path / "suite.json"
    assert main(["run-suite", "--phi-list", "square,xlogx", "--dims", "2", "--trials", "2",
                 "--variant", "both", "--seed", "3", "--output", str(out), "--quiet"]) == 0
    text = out.read_text()
    payload = json.loads(text)
    assert payload["reports"] and payload["skipped"]
    assert text == json.dumps(payload)


@pytest.mark.parametrize("reports", [[], [{"check_name": "a", "margin": 0.1}],
                                     [{"check_name": "a"}, {"check_name": "b", "x": [1.5]}]])
def test_write_payload_writes_json_dumps(reports):
    payload = {"artifact_version": "1", "config": {"dims": [2]}, "reports": reports,
               "skipped": []}
    buffer = io.StringIO()
    _write_payload(buffer, payload)
    assert buffer.getvalue() == json.dumps(payload)


def test_run_suite_config_file(tmp_path, capsys):
    cfg = {"seed": 1, "dims": [2], "trials": 2, "phi_list": ["square"],
           "variant": "trace", "checks": ["jensen"]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["run-suite", "--config", str(path), "--quiet"]) == 0


@pytest.mark.parametrize("option", [["--seed", "0"], ["--seed", "9"], ["--trials", "7"],
                                    ["--dims", "3"], ["--phi-list", "xlogx"],
                                    ["--variant", "both"], ["--checks", "efron_stein"],
                                    ["--allow-outside-class"]])
def test_run_suite_config_refuses_the_options_it_replaces(option, tmp_path, capsys):
    # The file holds the whole run: an option it would override unread is
    # refused by name, and nothing runs.  --output still names the file.
    path = _json_file(tmp_path, "config.json", {"seed": 1, "dims": [2], "trials": 2,
                                                "phi_list": ["square"], "checks": ["jensen"]})
    out = tmp_path / "suite.json"
    assert main(["run-suite", "--config", path, *option, "--output", str(out), "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert "config error" in captured.err and option[0] in captured.err
    assert main(["run-suite", "--config", path, "--output", str(out), "--quiet"]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 1


def test_exit_code_two_on_config_errors(tmp_path, capsys):
    # unknown function name
    assert main(["run-suite", "--phi-list", "", "--quiet"]) == 2
    assert main(["run-suite", "--phi-list", "mystery", "--quiet"]) == 2
    # unknown check name
    assert main(["run-suite", "--phi-list", "square", "--checks", "bogus", "--quiet"]) == 2
    # a run that checks nothing, or runs one check twice
    assert main(["run-suite", "--checks", ",", "--quiet"]) == 2
    assert main(["run-suite", "--checks", "jensen,jensen", "--quiet"]) == 2
    # outside-class function without the override flag
    assert main(["run-suite", "--phi-list", "quartic", "--quiet"]) == 2
    # malformed input file
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", "--input", str(bad)]) == 2


@pytest.mark.parametrize("argv", [
    ["run-suite", "--phi-list", "affine:nan:1", "--dims", "2", "--trials", "2", "--quiet"],
    ["run-suite", "--phi-list", "power:inf", "--dims", "2", "--trials", "2", "--quiet"],
    ["search-counterexample", "--phi", "power:nan", "--check", "map_C", "--budget", "5"],
])
def test_exit_code_two_on_non_finite_function_parameters(argv, capsys):
    # Their margins would be NaN or infinite, and read as passes.
    assert main(argv) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run-suite", "--phi-list", "square:3", "--dims", "2", "--trials", "2", "--quiet"],
    ["search-counterexample", "--phi", "exp:0", "--check", "map_C", "--budget", "5"],
])
def test_exit_code_two_on_parameters_of_a_function_that_takes_none(argv, capsys):
    # square:3 would run as square, and exp:0 as exp, without a word.
    assert main(argv) == 2
    assert "takes no parameters" in capsys.readouterr().err


@pytest.mark.parametrize("phi", ["affine:1:2", "power:1"])
def test_run_suite_skips_conditions_a_and_e_of_an_affine_function(phi, tmp_path, capsys):
    # Both invert the derivative map of phi', which is 0 for an affine phi:
    # each dim lists a skip for (a) and (e), and every other sweep runs.
    out = tmp_path / "suite.json"
    assert main(["run-suite", "--phi-list", phi, "--trials", "2", "--variant", "both",
                 "--output", str(out), "--quiet"]) == 0
    payload = json.loads(out.read_text())
    skipped = {s["check_name"] for s in payload["skipped"]}
    for d in (2, 3, 4):
        assert {f"condition_a[{phi},d={d}]", f"condition_e[{phi},d={d}]"} <= skipped
    assert payload["summary"]["fail"] == 0 and payload["summary"]["pass"] > 0
    assert not any(r["check_name"].startswith("condition_") for r in payload["reports"])


def test_outside_class_functions_in_a_run_meet_one_rule(capsys):
    # An exponent outside [1, 2] and a tagged catalog entry are refused by
    # one rule, with one message.
    errors = {}
    for phi in ("power:3", "quartic"):
        assert main(["run-suite", "--phi-list", phi, "--quiet"]) == 2
        errors[phi] = capsys.readouterr().err
    assert errors["power:3"].replace("power:3", "quartic") == errors["quartic"]


@pytest.mark.parametrize("argv", [
    ["check", "--input", "P_WORD"],
    ["run-suite", "--dims", "a", "--quiet"],
    ["search-counterexample", "--phi", "quartic", "--check", "map_C", "--dim", "0"],
    ["search-counterexample", "--phi", "quartic", "--check", "map_C", "--dim", "-2"],
    ["search-counterexample", "--phi", "quartic", "--check", "map_C", "--budget", "0"],
    # Conditions (a) and (e) of an affine phi are out of their domain at every point.
    ["search-counterexample", "--phi", "affine:1:2", "--check", "condition_e"],
    ["search-counterexample", "--phi", "power:1", "--check", "condition_a"],
])
def test_exit_code_two_on_malformed_arguments(argv, product_file, tmp_path, capsys):
    p_word = {"kind": "poly_efron_stein", "p": "x", "product": _read(product_file)}
    argv = [_json_file(tmp_path, "w.json", p_word) if arg == "P_WORD" else arg for arg in argv]
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run-suite", "--tol", "5", "--quiet"],
    ["check", "--seed", "1", "--input", "w.json"],
    ["search-counterexample", "--phi", "square", "--check", "map_C", "--tol", "1",
     "--budget", "5", "--quiet"],
])
def test_options_a_command_does_not_read_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_check_characterizations_is_not_a_command(capsys):
    # run-suite --checks characterizations,condition_a,condition_e --phi-list F
    # --dims D runs the sweeps that command ran.
    with pytest.raises(SystemExit) as exc:
        main(["check-characterizations", "--phi", "square"])
    assert exc.value.code == 2
    assert "invalid choice: 'check-characterizations'" in capsys.readouterr().err


_ONE = {"dim": 1, "re": [[1.0]]}
_TWO = {"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]]}


def _sub(product):
    return {"kind": "subadditivity", "phi": "square", "variant": "trace", "product": product}


def _matrices(m):
    """A witness of three matrix fields, each m."""
    return {"kind": "condition_e", "phi": "square", "A": m, "h": m, "k": m}


def _ensemble(e):
    """A witness whose ensemble field is e, after a channel that decodes."""
    return {"kind": "monotonicity", "phi": "square", "variant": "trace",
            "channel": {"dim": 1, "kraus": [_ONE]}, "ensemble": e}


# A subadditivity witness that holds, so only the options can make it fail.
_SUB_WITNESS = _sub({"factors": [[1.0]], "z": {"0": _ONE}})
_NAN_WEIGHT_PRODUCT = {"factors": [[float("nan"), 1.0]], "z": {"0": _ONE, "1": _ONE}}
_CONDITION_A = {"kind": "condition_a", "phi": "square", "lambda": "a", "A1": _ONE, "A2": _ONE,
                "h": _ONE}
# A unital map that is not trace preserving (K1 = |0><1|, K2 = |1><1|) is no
# unital quantum channel; its margin would be -0.98.
_NOT_TP_MONOTONICITY = {
    "kind": "monotonicity", "phi": "square", "variant": "trace",
    "channel": {"dim": 2, "kraus": [{"dim": 2, "re": [[0.0, 1.0], [0.0, 0.0]]},
                                    {"dim": 2, "re": [[0.0, 0.0], [0.0, 1.0]]}]},
    "ensemble": {"atoms": [{"w": 0.5, "m": {"dim": 2, "re": [[1.0, 0.0], [0.0, 0.2]]}},
                           {"w": 0.5, "m": {"dim": 2, "re": [[1.0, 0.0], [0.0, 3.0]]}}]}}


# A witness of item (g)'s kind in older 0.3.0 files, of a product of three factors.
_CONDITIONAL_JENSEN_THREE = {"kind": "conditional_jensen", "phi": "square", "variant": "trace",
                             "product": {"factors": [[1.0], [1.0], [1.0]], "z": {"0,0,0": _ONE}}}


@pytest.mark.parametrize("command, data", [
    ("check", _matrices({"dim": "two", "re": [[1.0]]})),
    ("check", _matrices({"dim": 1.9, "re": [[1.0]]})),
    ("check", _matrices({"dim": True, "re": [[1.0]]})),
    ("check", _matrices({"dim": 1, "re": [["a"]]})),
    ("check", _matrices({"dim": 2, "re": [[1.0, 0.0], [0.0]]})),
    ("check", _ensemble({"atoms": [{"m": _ONE}]})),
    ("check", _ensemble([{"w": 1.0, "m": _ONE}])),
    ("check", _ensemble({"atoms": [{"w": 0.5, "m": _ONE}, {"w": 0.5, "m": _TWO}]})),
    ("check", _sub({"factors": [[1.0]], "z": {"x": _ONE}})),
    ("check", _sub({"factors": [["a"]], "z": {"0": _ONE}})),
    ("check", {"kind": "monotonicity", "phi": "square", "variant": "trace",
               "channel": {"kraus": 5}, "ensemble": {"atoms": [{"w": 1.0, "m": _ONE}]}}),
    ("run-suite", {"trials": "5"}),
    ("run-suite", {"dims": ["x"]}),
    ("run-suite", {"output_path": 7}),
    ("run-suite", {"allow_outside_class": "no"}),
    ("run-suite", {"phi_list": [1]}),
    ("run-suite", {"tolerances": {"jensen": True}}),
    ("check", _sub({"factors": [[1.0]], "z": {"0": _ONE, "5,5": _ONE}})),
    ("check", _sub({"factors": [[0.5, 0.5], [0.5, 0.5]],
                    "z": {"0,0": _ONE, "0,1": _ONE, "1,0": _ONE, "1,1": _ONE,
                          "0, 1": {"dim": 1, "re": [[2.0]]}}})),
    ("check", {"phi": "square", "variant": "trace", "product": {}}),
    ("check", {"kind": "no_such_kind"}),
    ("check", {"kind": ["subadditivity"]}),
    ("check", {"kind": "subadditivity", "phi": "square", "product": {}}),
    ("check", _sub(5)),
    ("check", {**_sub({}), "phi": 5}),
    ("check", {**_sub({}), "variant": ["trace"]}),
    ("check", _CONDITION_A),
    ("run-suite", {"tolerances": {"subadditivity": float("nan")}}),
    ("run-suite", {"dims": [2, 2]}),
    ("run-suite", {"checks": "subadditivity"}),
    ("run-suite", {"checks": []}),
    ("run-suite", {"checks": ["jensen", "jensen"]}),
    ("run-suite", {"n_factors": 2}),
    ("run-suite", {"support": 2}),
    ("check --tol nan", _SUB_WITNESS),
    ("check --tol -1", _SUB_WITNESS),
    ("check --tol inf", _SUB_WITNESS),
    ("check", {"kind": "efron_stein", "product": _NAN_WEIGHT_PRODUCT}),
    ("check", {"kind": "poly_efron_stein", "p": 2, "product": _NAN_WEIGHT_PRODUCT}),
    ("check", {"kind": "poly_efron_stein", "p": float("inf"),
               "product": {"factors": [[1.0]], "z": {"0": _ONE}}}),
    ("check", _NOT_TP_MONOTONICITY),
    ("check", _matrices({"dim": 2, "h": [1.0, 0.0, 1.0]})),
    ("check", _matrices({"dim": 1, "h": ["a"]})),
    ("check", _matrices({"dim": 1.5, "h": [1.0]})),
    ("check", _ensemble({"dim": 7, "atoms": [{"w": 1.0, "m": _ONE}]})),
    ("check", {"kind": "monotonicity", "phi": "square", "variant": "trace",
               "channel": {"dim": "x", "kraus": [_ONE]},
               "ensemble": {"atoms": [{"w": 1.0, "m": _ONE}]}}),
    ("check", _sub({"factors": [[0.5, 0.5]], "z": {"0": _ONE}})),
    ("check", _matrices({"dim": 1, "h": "AAAAAAAA8D9="})),
    ("check", _matrices({"dim": 2, "h": "AAAAAAAA8D8="})),
    ("check", _matrices({"dim": 1, "re": "AAAAAAAA8D8="[:11]})),
    # A number stored as a string or a boolean is refused wherever a witness stores numbers.
    ("check", _matrices({"dim": 1, "h": ["2.0"]})),
    ("check", _matrices({"dim": 1, "h": [True]})),
    ("check", _matrices({"dim": 1, "re": [["1"]]})),
    ("check", _ensemble({"atoms": [{"w": "1", "m": _ONE}]})),
    ("check", _ensemble({"atoms": [{"w": True, "m": _ONE}]})),
    ("check", _sub({"factors": [["1"]], "z": {"0": _ONE}})),
    ("check", _sub({"factors": [[True]], "z": {"0": _ONE}})),
    ("check", _CONDITIONAL_JENSEN_THREE),
    ("replay", {"reports": [{"margin": 0.0, "witness": _CONDITIONAL_JENSEN_THREE}]}),
], ids=["dim-word", "dim-float", "dim-bool", "re-word", "re-ragged", "atom-no-w",
        "top-level-list", "atoms-mixed-dims",
        "product-key", "factor-weight-word", "kraus-number", "trials-string", "dims-word",
        "output-path-number", "allow-outside-class-word", "phi-list-number", "tolerance-bool",
        "product-key-not-an-outcome", "product-key-twice",
        "no-kind", "unknown-kind", "kind-list", "missing-field", "product-number", "phi-number",
        "variant-list", "lambda-word", "tolerance-nan", "dims-repeated", "checks-string",
        "checks-empty", "checks-repeated", "n-factors-field", "support-field", "tol-nan",
        "tol-negative", "tol-inf", "es-weight-nan", "poly-es-weight-nan", "p-infinite",
        "kraus-not-trace-preserving", "h-short", "h-word", "h-dim-float", "ensemble-dim-other",
        "channel-dim-word", "product-missing-outcome", "h-base64-not-canonical",
        "h-base64-bytes", "re-base64-unpadded", "h-number-string", "h-bool", "re-number-string",
        "atom-w-string", "atom-w-bool", "factor-weight-string", "factor-weight-bool",
        "conditional-jensen-three-factors", "replay-conditional-jensen-three-factors"])
def test_exit_code_two_on_malformed_input_files(command, data, tmp_path, capsys):
    path = _json_file(tmp_path, "input.json", data)
    command, *options = command.split()
    argv = {
        "check": ["--input", path],
        "replay": ["--input", path],
        "run-suite": ["--config", path, "--quiet"],
    }[command]
    assert main([command, *argv, *options]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err


def test_exit_code_one_on_violation(tmp_path, capsys):
    # exp is outside the class of condition (a): the search finds a violation,
    # and its stored witness, checked on its own, is one.
    found = str(tmp_path / "found.json")
    assert main(["search-counterexample", "--phi", "exp", "--check", "condition_a",
                 "--budget", "2000", "--seed", "1", "--output", found, "--quiet"]) == 1
    witness = _json_file(tmp_path, "w.json", _read(found)["witness"])
    assert main(["check", "--input", witness, "--quiet"]) == 2  # the class gate
    assert main(["check", "--input", witness, "--override", "--quiet"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "0/1 checks passed"


def test_every_suite_witness_checks_and_replays_to_its_margin(tmp_path, capsys):
    suite = str(tmp_path / "suite.json")
    assert main(["run-suite", "--variant", "both", "--trials", "2", "--seed", "0",
                 "--output", suite, "--quiet"]) == 0
    reports = [r for r in _read(suite)["reports"] if r["witness"] is not None]
    assert {r["witness"]["kind"] for r in reports} >= {
        "joint_convexity", "condition_a", "condition_e", "monotonicity"}
    out = str(tmp_path / "report.json")
    for r in reports:
        witness = _json_file(tmp_path, "w.json", r["witness"])
        override = [] if r["in_class"] else ["--override"]
        code = main(["check", "--input", witness, "--output", out, "--quiet", *override])
        report = _read(out)
        assert report["margin"] == r["margin"], r["check_name"]
        assert report["witness"] == r["witness"]
        assert code == (0 if report["holds"] else 1)

    assert main(["replay", "--input", suite, "--quiet"]) == 0
    payload = _read(suite)
    moved = next(r for r in payload["reports"] if r["witness"] is not None)
    moved["margin"] += 1e-9
    assert main(["replay", "--input", _json_file(tmp_path, "moved.json", payload),
                 "--quiet"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == [f"{len(reports)}/{len(reports)} witnesses replayed to their margins",
                          f"{len(reports) - 1}/{len(reports)} witnesses replayed to their margins"]


@pytest.mark.parametrize("name", ["old_form_suite.json", "list_form_suite.json"])
def test_replay_reads_a_run_file_of_the_old_matrix_form(name, capsys):
    # Matrices written as float lists: "re"/"im" blocks only, before the "h"
    # form existed (0.1.0), and "h" lists (0.2.0), before base64 blocks.
    old = str(Path(__file__).parent / "data" / name)
    assert main(["replay", "--input", old, "--quiet"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "4/4 witnesses replayed to their margins"


@pytest.mark.parametrize("data", [{"reports": 5}, {"reports": [1]},
                                  {"reports": [{"margin": "x", "witness": _SUB_WITNESS}]}],
                         ids=["reports-number", "report-number", "margin-word"])
def test_replay_exits_two_on_malformed_suite_files(data, tmp_path, capsys):
    assert main(["replay", "--input", _json_file(tmp_path, "suite.json", data)]) == 2
    assert "config error" in capsys.readouterr().err
