"""Command-line interface: subcommands, JSON I/O, exit-code contract."""

import io
import json

import numpy as np
import pytest

from phi_entropy_lab import (
    MatrixEnsemble,
    RunConfig,
    finite_diff_oracle,
    from_spec,
    matrix_from_json,
    run_suite,
)
from phi_entropy_lab.cli import _write_payload, main
from phi_entropy_lab.sampling import sample_ensemble, sample_product
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


def _matrix_file(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps({"dim": len(data), "re": data}))
    return str(path)


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


def test_check_subadditivity_command(product_file, capsys):
    code = main(["check-subadditivity", "--phi", "xlogx", "--input", product_file])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["holds"] is True


def test_check_efron_stein_command(product_file, capsys):
    code = main(["check-efron-stein", "--input", product_file, "--p", "1,2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 3  # operator check plus two polynomial orders
    assert all(r["holds"] for r in payload)


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


def test_check_monotonicity_command(ensemble_file, capsys):
    code = main(["check-monotonicity", "--phi", "square", "--channel", "random:3",
                 "--input", ensemble_file, "--trials", "4", "--seed", "5"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 4 and all(r["holds"] for r in payload)


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
    ["check-efron-stein", "--input", "PRODUCT", "--p", "x"],
    ["run-suite", "--dims", "a", "--quiet"],
    ["search-counterexample", "--phi", "quartic", "--check", "map_C", "--dim", "0"],
    ["search-counterexample", "--phi", "quartic", "--check", "map_C", "--dim", "-2"],
    ["search-counterexample", "--phi", "quartic", "--check", "map_C", "--budget", "0"],
    ["search-counterexample", "--phi", "square", "--check", "map_C", "--tol", "-1",
     "--budget", "5", "--quiet"],
])
def test_exit_code_two_on_malformed_arguments(argv, product_file, capsys):
    argv = [product_file if arg == "PRODUCT" else arg for arg in argv]
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err


_ONE = {"dim": 1, "re": [[1.0]]}
_TWO = {"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]]}


@pytest.mark.parametrize("command, data", [
    ("frechet", {"dim": "two", "re": [[1.0]]}),
    ("frechet", {"dim": 1, "re": [["a"]]}),
    ("frechet", {"dim": 2, "re": [[1.0, 0.0], [0.0]]}),
    ("entropy", {"atoms": [{"m": _ONE}]}),
    ("entropy", [{"w": 1.0, "m": _ONE}]),
    ("entropy", {"atoms": [{"w": 0.5, "m": _ONE}, {"w": 0.5, "m": _TWO}]}),
    ("check-subadditivity", {"factors": [[1.0]], "z": {"x": _ONE}}),
    ("check-subadditivity", {"factors": [["a"]], "z": {"0": _ONE}}),
    ("check-monotonicity", {"kraus": 5}),
    ("run-suite", {"trials": "5"}),
    ("run-suite", {"dims": ["x"]}),
], ids=["dim-word", "re-word", "re-ragged", "atom-no-w", "top-level-list", "atoms-mixed-dims",
        "product-key", "factor-weight-word", "kraus-number", "trials-string", "dims-word"])
def test_exit_code_two_on_malformed_input_files(command, data, ensemble_file, tmp_path, capsys):
    path = str(tmp_path / "input.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    argv = {
        "frechet": ["--order", "1", "--matrix", path, "--direction", path, "--phi", "square"],
        "entropy": ["--phi", "square", "--input", path],
        "check-subadditivity": ["--phi", "square", "--input", path],
        "check-monotonicity": ["--phi", "square", "--channel", path, "--input", ensemble_file],
        "run-suite": ["--config", path, "--quiet"],
    }[command]
    assert main([command, *argv]) == 2
    assert "error" in capsys.readouterr().err


def test_exit_code_one_on_violation(tmp_path, capsys):
    # a product whose subadditivity fails for the quartic (scalar embedding)
    q_table = {
        "factors": [[0.5, 0.5], [0.5, 0.5]],
        "z": {"0,0": {"dim": 1, "re": [[0.1]]}, "0,1": {"dim": 1, "re": [[2.9]]},
              "1,0": {"dim": 1, "re": [[2.7]]}, "1,1": {"dim": 1, "re": [[0.3]]}},
    }
    path = tmp_path / "quartic_product.json"
    path.write_text(json.dumps(q_table))
    code = main(["check-subadditivity", "--phi", "quartic", "--input", str(path),
                 "--override", "--quiet"])
    assert code in (0, 1)  # depends on the margin sign for this table
    # force a guaranteed violation via the counterexample search instead
    assert main(["search-counterexample", "--phi", "exp", "--check", "condition_a",
                 "--budget", "2000", "--seed", "1", "--quiet"]) == 1
