"""Command-line interface: subcommands, JSON I/O, exit-code contract."""

import io
import json

import numpy as np
import pytest

from phi_entropy_lab import (
    RunConfig,
    finite_diff_oracle,
    from_spec,
    matrix_from_json,
    random_unital_channel,
    run_suite,
)
from phi_entropy_lab.cli import _write_payload, main
from phi_entropy_lab.sampling import rng_for, sample_ensemble, sample_product
from phi_entropy_lab.spectral import relative_error
from phi_entropy_lab.suite import ORACLE_TOLS


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


def _matrix_file(tmp_path, name, data):
    return _json_file(tmp_path, name, {"dim": len(data), "re": data})


def test_entropy_command(ensemble_file, capsys, tmp_path):
    out = tmp_path / "out.json"
    code = main(["entropy", "--phi", "square", "--input", ensemble_file,
                 "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["variant"] == "trace"
    assert payload["value"] >= 0.0


def test_entropy_operator_variant(ensemble_file, capsys):
    code = main(["entropy", "--phi", "square", "--variant", "operator",
                 "--input", ensemble_file])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    gap = matrix_from_json(payload["value"])
    assert np.linalg.eigvalsh(gap)[0] >= -1e-10


def test_frechet_command(tmp_path, capsys):
    m = _matrix_file(tmp_path, "a.json", [[1.0, 0.0], [0.0, 2.0]])
    x = _matrix_file(tmp_path, "x.json", [[0.0, 1.0], [1.0, 0.0]])
    code = main(["frechet", "--phi", "square", "--order", "1",
                 "--matrix", m, "--direction", x])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    out = matrix_from_json(payload["derivative"])
    np.testing.assert_allclose(out, [[0.0, 3.0], [3.0, 0.0]], atol=1e-12)


@pytest.mark.parametrize("phi, order", [("square", 1), ("exp", 2), ("quartic", 3)])
def test_frechet_command_at_negative_eigenvalues(phi, order, tmp_path, capsys):
    # Functions defined on the whole line have no derivative floor.
    A, X = [[-1.0, 0.0], [0.0, 2.0]], [[0.3, 1.0], [1.0, -0.5]]
    code = main(["frechet", "--phi", phi, "--order", str(order),
                 "--matrix", _matrix_file(tmp_path, "a.json", A),
                 "--direction", _matrix_file(tmp_path, "x.json", X)])
    assert code == 0
    out = matrix_from_json(json.loads(capsys.readouterr().out)["derivative"])
    oracle = finite_diff_oracle(from_spec(phi, allow_outside_class=True), np.array(A),
                                np.array(X), order)
    assert relative_error(out, oracle) < ORACLE_TOLS[order]


@pytest.mark.parametrize("base", [
    [[5e-13, 0.0], [0.0, 2.0]],           # xlogx below its derivative floor
    [[float("nan"), 0.0], [0.0, 1.0]],    # a NaN entry
], ids=("below-floor", "nan"))
def test_frechet_command_rejects_bad_base_points(base, tmp_path, capsys):
    code = main(["frechet", "--phi", "xlogx", "--order", "1",
                 "--matrix", _matrix_file(tmp_path, "a.json", base),
                 "--direction", _matrix_file(tmp_path, "x.json", [[1.0, 0.0], [0.0, 1.0]])])
    assert code == 2
    assert capsys.readouterr().out == ""


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


def test_check_characterizations_command(capsys):
    code = main(["check-characterizations", "--phi", "square", "--items", "b,d,g",
                 "--dim", "2", "--trials", "5", "--seed", "3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 3
    assert {r["holds"] for r in payload} == {True}
    # the command runs the suite's own sweeps: same reports for the same seed
    suite = run_suite(RunConfig(seed=3, dims=(2,), trials=5, phi_list=("square",),
                                checks=("characterizations",)))
    expected = {r.check_name: r.to_json_dict() for r, _, _ in suite.entries}
    assert payload == [expected[f"characterizations[{item},square,trace,d=2]"]
                       for item in "bdg"]


@pytest.mark.parametrize("phi, variant", [("xlogx", "operator"), ("quartic", "trace")])
def test_check_characterizations_gates_the_function_class(phi, variant, capsys):
    # xlogx is outside C3 and quartic outside every class: the selected sweeps
    # are refused, as check-subadditivity refuses them, unless --override.
    argv = ["check-characterizations", "--phi", phi, "--variant", variant, "--items", "c",
            "--dim", "2", "--trials", "5", "--quiet"]
    assert main(argv) == 2
    assert "requires a function tagged" in capsys.readouterr().err
    assert main(argv + ["--override"]) in (0, 1)


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
    # outside-class function without the override flag
    assert main(["run-suite", "--phi-list", "quartic", "--quiet"]) == 2
    # malformed input file
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["entropy", "--phi", "square", "--input", str(bad)]) == 2


@pytest.mark.parametrize("argv", [
    ["check-characterizations", "--phi", "square", "--items", ","],
    ["check", "--input", "P_WORD"],
    ["run-suite", "--dims", "a", "--quiet"],
    ["search-counterexample", "--phi", "quartic", "--check", "map_C", "--dim", "0"],
    ["search-counterexample", "--phi", "quartic", "--check", "map_C", "--dim", "-2"],
    ["search-counterexample", "--phi", "quartic", "--check", "map_C", "--budget", "0"],
    ["search-counterexample", "--phi", "square", "--check", "map_C", "--tol", "-1",
     "--budget", "5", "--quiet"],
])
def test_exit_code_two_on_malformed_arguments(argv, product_file, tmp_path, capsys):
    p_word = {"kind": "poly_efron_stein", "p": "x", "product": _read(product_file)}
    argv = [_json_file(tmp_path, "w.json", p_word) if arg == "P_WORD" else arg for arg in argv]
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run-suite", "--tol", "5", "--quiet"],
    ["frechet", "--seed", "1", "--phi", "square", "--order", "1", "--matrix", "a.json",
     "--direction", "x.json"],
])
def test_options_a_command_does_not_read_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


_ONE = {"dim": 1, "re": [[1.0]]}
_TWO = {"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]]}


def _sub(product):
    return {"kind": "subadditivity", "phi": "square", "variant": "trace", "product": product}


def _oracle(order):
    return {"kind": "frechet_oracle", "phi": "square", "order": order, "A": _ONE, "X": _ONE}


# A subadditivity witness that holds, so only the options can make it fail.
_SUB_WITNESS = _sub({"factors": [[1.0]], "z": {"0": _ONE}})
_LEMMA = {"kind": "convexity_lemma", "phi": "square", "weights": "ab", "A": [_ONE, _ONE],
          "X": [_ONE, _ONE]}
_NAN_WEIGHT_PRODUCT = {"factors": [[float("nan"), 1.0]], "z": {"0": _ONE, "1": _ONE}}
_CONDITION_A = {"kind": "condition_a", "phi": "square", "lambda": "a", "A1": _ONE, "A2": _ONE,
                "h": _ONE}


@pytest.mark.parametrize("command, data", [
    ("frechet", {"dim": "two", "re": [[1.0]]}),
    ("frechet", {"dim": 1.9, "re": [[1.0]]}),
    ("frechet", {"dim": True, "re": [[1.0]]}),
    ("frechet", {"dim": 1, "re": [["a"]]}),
    ("frechet", {"dim": 2, "re": [[1.0, 0.0], [0.0]]}),
    ("entropy", {"atoms": [{"m": _ONE}]}),
    ("entropy", [{"w": 1.0, "m": _ONE}]),
    ("entropy", {"atoms": [{"w": 0.5, "m": _ONE}, {"w": 0.5, "m": _TWO}]}),
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
    ("check", _oracle(0)),
    ("check", _oracle(7)),
    ("check", _oracle("1")),
    ("check", _CONDITION_A),
    ("check", _LEMMA),
    ("check", {**_LEMMA, "weights": [0.5, 0.5], "A": 5}),
    ("run-suite", {"tolerances": {"subadditivity": float("nan")}}),
    ("run-suite", {"dims": [2, 2]}),
    ("run-suite", {"checks": "subadditivity"}),
    ("check --tol nan", _SUB_WITNESS),
    ("check --tol -1", _SUB_WITNESS),
    ("check --tol inf", _SUB_WITNESS),
    ("check", {"kind": "efron_stein", "product": _NAN_WEIGHT_PRODUCT}),
    ("check", {"kind": "poly_efron_stein", "p": 2, "product": _NAN_WEIGHT_PRODUCT}),
    ("check", {**_LEMMA, "weights": [2.0, -1.0]}),
    ("check", {**_LEMMA, "weights": [0.5]}),
    ("check", {"kind": "poly_efron_stein", "p": float("inf"),
               "product": {"factors": [[1.0]], "z": {"0": _ONE}}}),
], ids=["dim-word", "dim-float", "dim-bool", "re-word", "re-ragged", "atom-no-w",
        "top-level-list", "atoms-mixed-dims",
        "product-key", "factor-weight-word", "kraus-number", "trials-string", "dims-word",
        "output-path-number", "allow-outside-class-word", "phi-list-number", "tolerance-bool",
        "product-key-not-an-outcome", "product-key-twice",
        "no-kind", "unknown-kind", "kind-list", "missing-field", "product-number", "phi-number",
        "variant-list", "order-0", "order-7", "order-string", "lambda-word", "weights-word",
        "matrices-number", "tolerance-nan", "dims-repeated", "checks-string", "tol-nan",
        "tol-negative", "tol-inf", "es-weight-nan", "poly-es-weight-nan",
        "lemma-weights-not-a-distribution", "lemma-weights-too-few", "p-infinite"])
def test_exit_code_two_on_malformed_input_files(command, data, tmp_path, capsys):
    path = _json_file(tmp_path, "input.json", data)
    command, *options = command.split()
    argv = {
        "frechet": ["--order", "1", "--matrix", path, "--direction", path, "--phi", "square"],
        "entropy": ["--phi", "square", "--input", path],
        "check": ["--input", path],
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
        "frechet_oracle", "joint_convexity", "condition_a", "condition_e", "monotonicity"}
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


@pytest.mark.parametrize("data", [{"reports": 5}, {"reports": [1]},
                                  {"reports": [{"margin": "x", "witness": _oracle(1)}]}],
                         ids=["reports-number", "report-number", "margin-word"])
def test_replay_exits_two_on_malformed_suite_files(data, tmp_path, capsys):
    assert main(["replay", "--input", _json_file(tmp_path, "suite.json", data)]) == 2
    assert "config error" in capsys.readouterr().err
