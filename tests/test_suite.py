"""Suite runner: config validation, determinism, replay, exit codes."""

import json
import os

import numpy as np
import pytest

from phi_entropy_lab import (
    ConfigError,
    DomainError,
    MatrixEnsemble,
    RunConfig,
    SuiteReport,
    builtin,
    check,
    counterexample_search,
    replay_witness,
    run_suite,
)
from phi_entropy_lab.sampling import sample_coupled_ensembles, sample_product
from phi_entropy_lab.suite import CHECK_NAMES

SMALL = dict(seed=5, dims=(2,), trials=5, phi_list=("square",), variant="trace")


def _strip_timing(payload):
    clone = json.loads(json.dumps(payload))
    for entry in clone["reports"]:
        entry.pop("seconds")
    return json.dumps(clone, sort_keys=True)


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(trials=0)
    with pytest.raises(ConfigError):
        RunConfig(dims=(0,))
    with pytest.raises(ConfigError):
        RunConfig(dims=(17,))
    with pytest.raises(ConfigError):
        RunConfig(phi_list=())
    with pytest.raises(ConfigError):
        RunConfig(variant="bogus")
    with pytest.raises(ConfigError):
        RunConfig(checks=("not_a_check",))


def test_unknown_phi_rejected_before_computation():
    with pytest.raises(ConfigError, match="resolve"):
        run_suite(RunConfig(phi_list=("mystery",), trials=1, dims=(2,)))


def test_outside_class_requires_flag():
    with pytest.raises(ConfigError, match="outside"):
        run_suite(RunConfig(phi_list=("quartic",), trials=1, dims=(2,)))


def test_config_json_roundtrip():
    cfg = RunConfig(**SMALL)
    back = RunConfig.from_json_dict(cfg.to_json_dict())
    assert back == cfg
    with pytest.raises(ConfigError, match="unknown config fields"):
        RunConfig.from_json_dict({"bogus_field": 1})


def test_small_suite_passes_and_counts():
    suite = run_suite(RunConfig(**SMALL))
    assert suite.exit_code() == 0
    summary = suite.summary
    assert summary["fail"] == 0 and summary["pass"] == len(suite.entries)
    names = [r.check_name for r, _, _ in suite.entries]
    assert len(set(names)) == len(names)  # each configured check appears once


def test_suite_report_roundtrip_identity():
    suite = run_suite(RunConfig(**SMALL))
    payload = suite.to_json_dict()
    back = SuiteReport.from_json_dict(json.loads(json.dumps(payload)))
    assert _strip_timing(back.to_json_dict()) == _strip_timing(payload)


def test_serial_parallel_reports_identical_modulo_timing():
    cfg = RunConfig(seed=9, dims=(2, 3), trials=4, phi_list=("square", "xlogx"),
                    variant="trace")
    old = os.environ.get("PHI_LAB_THREADS")
    try:
        os.environ["PHI_LAB_THREADS"] = "1"
        serial = run_suite(cfg).to_json_dict()
        os.environ["PHI_LAB_THREADS"] = "4"
        parallel = run_suite(cfg).to_json_dict()
    finally:
        if old is None:
            os.environ.pop("PHI_LAB_THREADS", None)
        else:
            os.environ["PHI_LAB_THREADS"] = old
    assert _strip_timing(serial) == _strip_timing(parallel)


def test_operator_variant_skips_untagged_functions():
    cfg = RunConfig(seed=1, dims=(2,), trials=2, phi_list=("xlogx",), variant="operator",
                    checks=("subadditivity",))
    suite = run_suite(cfg)
    assert len(suite.entries) == 0
    assert suite.summary["skip"] == 1


def test_witness_replay_reproduces_margins():
    cfg = RunConfig(seed=3, dims=(2,), trials=3, phi_list=("square", "xlogx"),
                    variant="both", checks=CHECK_NAMES)
    suite = run_suite(cfg)
    assert suite.exit_code() == 0
    replayed = set()
    for report, _, _ in suite.entries:
        payload = json.loads(json.dumps(report.witness))  # force a JSON round-trip
        assert abs(replay_witness(payload) - report.margin) <= 1e-12, report.check_name
        replayed.add((payload["kind"], payload.get("variant")))
    assert replayed == {
        ("frechet_oracle", None), ("efron_stein", None), ("poly_efron_stein", None),
        ("condition_a", None), ("condition_e", None),
        *((kind, variant)
          for kind in ("subadditivity", "dual_representation", "joint_convexity",
                       "conditional_jensen", "monotonicity")
          for variant in ("trace", "operator")),
    }


def test_dual_replay_rejects_inputs_outside_the_domain():
    # Replay runs the same input checks as a single-point dual report: T must
    # share Z's weights and be positive definite.
    Z, T = sample_coupled_ensembles(2, 3, seed=1, spectral_floor=1e-2)
    uncoupled = MatrixEnsemble(np.array([0.2, 0.3, 0.5]), T.atoms)
    singular = MatrixEnsemble(T.weights, np.stack([np.diag([1.0, 0.0])] * 3))
    for bad in (uncoupled, singular):
        witness = {"kind": "dual_representation", "phi": "square", "variant": "trace",
                   "Z": Z.to_json_dict(), "T": bad.to_json_dict()}
        with pytest.raises(DomainError):
            replay_witness(json.loads(json.dumps(witness)))


def test_dual_check_needs_the_spectral_floor_only_for_a_derivative_floor():
    # T positive definite but below SPECTRAL_FLOOR: xlogx's derivative needs
    # the floor, square's does not.
    Z, T = sample_coupled_ensembles(2, 3, seed=1, spectral_floor=1e-2)
    low = MatrixEnsemble(T.weights, np.stack([np.diag([1.0, 5e-4])] * 3))
    with pytest.raises(DomainError, match="needs atom spectra"):
        check("dual_representation", phi=builtin("xlogx"), variant="trace", Z=Z, T=low)
    report = check("dual_representation", phi=builtin("square"), variant="trace", Z=Z, T=low)
    assert np.isfinite(report.margin)


def test_check_rejects_kinds_and_points_it_cannot_report():
    P = sample_product(2, 2, 2, seed=0)
    with pytest.raises(ConfigError):
        check("no_such_kind", product=P)
    with pytest.raises(ConfigError):  # swept by the suite, no single-point report
        check("condition_a", phi=builtin("square"))
    with pytest.raises(ConfigError):  # a witness field is missing
        check("subadditivity", phi=builtin("square"), product=P)
    with pytest.raises(DomainError):
        check("subadditivity", phi=builtin("square"), variant="both", product=P)


def test_frechet_oracle_tolerance_override_of_zero_is_applied():
    cfg = RunConfig(seed=4, dims=(2,), trials=2, phi_list=("square",),
                    checks=("frechet_oracle",), tolerances={"frechet_oracle": 0.0})
    reports = [report for report, _, _ in run_suite(cfg).entries]
    assert len(reports) == 3  # one per derivative order
    assert all(report.tolerance == 0.0 for report in reports)


def test_operator_monotonicity_in_class_and_replayable():
    # The operator form N(H(Z)) >= H(N(Z)) holds for the square, so the
    # in-class operator sweep must pass and its witnesses must replay.
    cfg = RunConfig(seed=0, dims=(2, 3, 4), trials=20, phi_list=("square",),
                    variant="both", checks=("monotonicity",))
    suite = run_suite(cfg)
    assert not [r.check_name for r, in_class, _ in suite.entries
                if in_class and not r.holds]
    assert suite.exit_code() == 0
    operator = [r for r, _, _ in suite.entries if ",operator," in r.check_name]
    assert len(operator) == 3
    for report in operator:
        payload = json.loads(json.dumps(report.witness))
        assert payload["variant"] == "operator"
        assert abs(replay_witness(payload) - report.margin) <= 1e-12, report.check_name


def test_counterexample_witness_replay_after_serialization():
    report = counterexample_search(builtin("quartic"), "map_C", 2000, seed=8, dim=1)
    assert not report.holds
    payload = json.loads(json.dumps(report.to_json_dict()))
    assert abs(replay_witness(payload["witness"]) - report.margin) <= 1e-12
    assert report.margin < -10 * 1e-9


def test_counterexample_search_unknown_check():
    with pytest.raises(ConfigError):
        counterexample_search(builtin("quartic"), "subadditivity", 10, seed=0)


def test_counterexample_budget_exhaustion_reports_holds():
    report = counterexample_search(builtin("square"), "map_C", 50, seed=0, dim=1)
    assert report.holds
    assert report.trials == 50


def test_outside_class_suite_run_contains_counterexamples():
    cfg = RunConfig(seed=2, dims=(2,), trials=10, phi_list=("square", "quartic"),
                    variant="trace", allow_outside_class=True,
                    checks=("subadditivity", "characterizations", "condition_a"))
    suite = run_suite(cfg)
    search_reports = [r for r, in_class, _ in suite.entries
                      if r.check_name.startswith("counterexample_search")]
    assert search_reports, "expected falsification reports for the quartic"
    assert any(not r.holds for r in search_reports)
    # found violations are out-of-class evidence: the exit code stays 0
    assert suite.exit_code() == 0
