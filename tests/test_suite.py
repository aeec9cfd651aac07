"""Suite runner: config validation, determinism, replay, exit codes."""

import binascii
import dataclasses
import itertools
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from phi_entropy_lab import (
    ConfigError,
    DomainError,
    MatrixEnsemble,
    RunConfig,
    builtin,
    check,
    counterexample_search,
    from_spec,
    replay_witness,
    run_suite,
)
from phi_entropy_lab.characterizations import CONDITION_E_SPECTRUM, FUNCTIONAL_NAMES
from phi_entropy_lab.cli import main
from phi_entropy_lab.entropy import SPECTRAL_FLOOR
from phi_entropy_lab.errors import PhiLabError
from phi_entropy_lab.sampling import (
    rng_for,
    sample_coupled_ensembles,
    sample_product,
    sample_psd,
)
from phi_entropy_lab import suite
from phi_entropy_lab.suite import CHECK_NAMES

from batching import points, recorded_margins, trials

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
    # fields read from a config file must have the right types
    for bad in (dict(trials="5"), dict(seed=1.5), dict(trials=True),
                dict(dims=("x",)), dict(dims=(2.0,)), dict(dims=2), dict(tolerances=[1e-9]),
                dict(tolerances={"jensen": "x"}), dict(tolerances={"jensen": True}),
                dict(phi_list=[1]), dict(allow_outside_class="no"),
                # a run that checks nothing, or one check twice, is refused
                dict(checks=()), dict(checks=[]), dict(checks=("jensen", "jensen")),
                # tolerances must be able to judge a margin
                dict(tolerances={"jensen": float("nan")}), dict(tolerances={"jensen": -1.0}),
                dict(tolerances={"jensen": float("inf")}),
                # a repeated dim would run its sweeps twice; a string is not a list
                dict(dims=(2, 2)), dict(checks="subadditivity")):
        with pytest.raises(ConfigError):
            RunConfig(**bad)
    assert RunConfig(tolerances={"jensen": 0}).tolerances == {"jensen": 0}


def test_misspelt_tolerance_key_is_refused():
    # a key that names no check would leave the default tolerance in force
    with pytest.raises(ConfigError, match="tolerances"):
        RunConfig(dims=(2,), trials=2, phi_list=("square",), checks=("jensen",),
                  tolerances={"jensn": 1.0})


def test_unknown_phi_rejected_before_computation():
    with pytest.raises(ConfigError, match="resolve"):
        run_suite(RunConfig(phi_list=("mystery",), trials=1, dims=(2,)))


def test_phi_list_naming_one_function_twice_is_refused_before_computation():
    # Both spellings would make reports of one name, found only after the run.
    with pytest.raises(ConfigError, match="already"):
        run_suite(RunConfig(phi_list=("power:1.5", "power:1.50"), trials=1, dims=(2,),
                            checks=("jensen",)))


def test_outside_class_requires_flag():
    with pytest.raises(ConfigError, match="outside"):
        run_suite(RunConfig(phi_list=("quartic",), trials=1, dims=(2,)))


def test_config_json_roundtrip():
    cfg = RunConfig(**SMALL)
    back = RunConfig.from_json_dict(cfg.to_json_dict())
    assert back == cfg
    # the config JSON names every field once, in declaration order
    assert json.dumps(RunConfig(tolerances={"jensen": 1e-3}, **SMALL).to_json_dict()) == (
        '{"seed": 5, "dims": [2], "trials": 5, "phi_list": ["square"], "variant": "trace", '
        '"checks": ' + json.dumps(list(CHECK_NAMES)) + ', "tolerances": {"jensen": 0.001}, '
        '"allow_outside_class": false}')
    # the product layout is fixed, not a field: a file that names it is refused
    for field in ("bogus_field", "n_factors", "support"):
        with pytest.raises(ConfigError, match="unknown config fields"):
            RunConfig.from_json_dict({field: 2})


def test_small_suite_passes_and_counts():
    suite = run_suite(RunConfig(**SMALL))
    assert suite.exit_code() == 0
    summary = suite.summary
    assert summary["fail"] == 0 and summary["pass"] == len(suite.entries)
    names = [r.check_name for r, _, _ in suite.entries]
    assert len(set(names)) == len(names)  # each configured check appears once


def test_batched_and_point_by_point_reports_identical_modulo_timing():
    # The sweep evaluates each draw as one batch; the same points evaluated
    # one at a time, as check and replay_witness do, give the same margins.
    cfg = RunConfig(seed=9, dims=(2, 3), trials=4, phi_list=("square", "xlogx"),
                    variant="both")
    with recorded_margins(one_at_a_time=False) as batched_margins:
        batched = run_suite(cfg).to_json_dict()
    with recorded_margins(one_at_a_time=True) as single_margins:
        single = run_suite(cfg).to_json_dict()
    assert len(batched_margins) > len(batched["reports"])
    assert np.asarray(batched_margins).tobytes() == np.asarray(single_margins).tobytes()
    assert _strip_timing(batched) == _strip_timing(single)


def test_operator_variant_skips_untagged_functions():
    cfg = RunConfig(seed=1, dims=(2,), trials=2, phi_list=("xlogx",), variant="operator",
                    checks=("subadditivity",))
    suite = run_suite(cfg)
    assert len(suite.entries) == 0
    assert suite.summary["skip"] == 1


def test_condition_e_above_d4_is_recorded_as_skipped():
    cfg = RunConfig(seed=1, dims=(4, 8), trials=1, phi_list=("square",), checks=("condition_e",))
    suite = run_suite(cfg)
    assert [report.check_name for report, _, _ in suite.entries] == ["condition_e[square,d=4]"]
    assert [entry["check_name"] for entry in suite.skipped] == ["condition_e[square,d=8]"]
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
        ("efron_stein", None), ("poly_efron_stein", None),
        ("condition_a", None), ("condition_e", None),
        *((kind, variant)
          for kind in ("subadditivity", "dual_representation", "joint_convexity",
                       "conditional_jensen", "monotonicity", "operator_jensen")
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
    with pytest.raises(ConfigError):  # a field the record does not have
        check("efron_stein", phi=builtin("square"), product=P)
    with pytest.raises(ConfigError):  # a witness field is missing
        check("subadditivity", phi=builtin("square"), product=P)
    with pytest.raises(DomainError):
        check("subadditivity", phi=builtin("square"), variant="both", product=P)
    # values a stored witness may not hold: the record would report them
    # (p = inf holds with margin 0, p = nan gives margin nan, lambda = 1.5
    # makes the square jointly "non-convex")
    one = sample_product(2, 1, 2, seed=0)
    for p in (float("inf"), float("nan")):
        with pytest.raises(ConfigError, match="witness field 'p' must be"):
            check("poly_efron_stein", p=p, product=one)
    A, B = sample_psd(2, 0.1, [rng_for(0, "check", i) for i in range(2)])
    with pytest.raises(ConfigError, match="witness field 'lambda' must be"):
        check("joint_convexity", phi=builtin("square"), functional="map_C", variant="trace",
              t=None, u1=A, v1=B, u2=B, v2=A, **{"lambda": 1.5})


def test_tolerance_override_of_zero_is_applied():
    cfg = RunConfig(seed=4, dims=(2,), trials=2, phi_list=("square",),
                    checks=("poly_efron_stein",), tolerances={"poly_efron_stein": 0.0})
    reports = [report for report, _, _ in run_suite(cfg).entries]
    assert len(reports) == 3  # one per exponent p
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


@pytest.mark.parametrize("spec, check_name", [("affine:1:2", "condition_e"),
                                               ("power:1", "condition_a")])
def test_counterexample_search_refuses_conditions_a_and_e_of_an_affine_function(spec,
                                                                                 check_name):
    # Both conditions invert Dphi'[A], which is 0 at every point of an affine
    # phi: a search would report holds with margin inf and no witness.
    with pytest.raises(ConfigError, match="invert Dphi'"):
        counterexample_search(from_spec(spec), check_name, 50, seed=0)


def test_a_stored_convexity_lemma_witness_is_refused(tmp_path, capsys):
    # The m-atom lemma is item (d)'s map_C checked through its two-point
    # sweep; its witness kind is no longer a record.
    one = {"dim": 1, "re": [[1.0]]}
    witness = {"kind": "convexity_lemma", "phi": "square", "weights": [0.5, 0.5],
               "A": [one, one], "X": [one, one]}
    assert "convexity_lemma" not in suite.CHECKS
    with pytest.raises(ConfigError, match="no check of witness kind 'convexity_lemma'"):
        replay_witness(witness)
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(witness))
    assert main(["check", "--input", str(path), "--quiet"]) == 2
    assert "no check of witness kind 'convexity_lemma'" in capsys.readouterr().err


def test_counterexample_budget_exhaustion_reports_holds():
    report = counterexample_search(builtin("square"), "map_C", 50, seed=0, dim=1)
    assert report.holds
    assert report.trials == 50


@pytest.mark.parametrize("dim, budget", [(0, 50), (-2, 50), (17, 50), (1, 0), (2, -1)])
def test_counterexample_search_rejects_bad_dim_or_budget(dim, budget):
    with pytest.raises(ConfigError):
        counterexample_search(builtin("quartic"), "map_C", budget, seed=0, dim=dim)


@pytest.mark.parametrize("args", [
    dict(dim=2.0), dict(dim=True), dict(budget=5.5), dict(seed="x"), dict(seed=1.5),
    dict(budget=True)], ids=lambda args: f"{next(iter(args))}={next(iter(args.values()))!r}")
def test_counterexample_search_refuses_a_dim_budget_or_seed_that_is_no_integer(args):
    # The rule RunConfig applies to its integers: a float, a string or a
    # boolean is refused, where it would crash or run as another integer.
    with pytest.raises(ConfigError, match=f"{next(iter(args))} must be an integer"):
        counterexample_search(builtin("quartic"), "map_C", **{"budget": 5, "seed": 0, **args})


def _search_one_at_a_time(f, check_name: str, budget: int, seed: int, dim: int) -> tuple:
    """Margin, trials and witness of a search that draws each trial alone
    with its record's draw and evaluates it as a chunk of one trial, or, if
    that raises, point by point, a point that raises alone at +inf: the
    reference for the stacked search."""
    kind = suite._SEARCH_KINDS[check_name]
    record = suite.CHECKS[kind]
    base = {"phi": f, "variant": "trace", "functional": check_name}
    best_margin, best = np.inf, None
    for trial in range(budget):
        rng = rng_for(seed, "search", check_name, f.spec_string(), dim, trial)
        chunk = {**base, **record.draw([rng], dim, base)}
        trial_points = points(kind, chunk)
        try:
            row = np.ravel(record.margin(chunk)).tolist()
        except PhiLabError:
            row = []
            for point in trial_points:
                try:
                    row.append(float(np.ravel(record.margin(suite._column(kind, point)))[0]))
                except PhiLabError:
                    row.append(np.inf)
        for point, margin in zip(trial_points, row):
            if margin < best_margin:
                best_margin, best = margin, point
        if best_margin < -suite.SEARCH_TOL:
            budget = trial + 1
            break
    witness = None if best is None else {"phi": f.spec_string(), "dim": dim, "margin": best_margin,
                                         **suite._encode_witness(kind, best)}
    return best_margin, budget, witness


def _raising_margins(monkeypatch) -> Counter:
    """Count the margin calls of each record that raise a PhiLabError."""
    raised = Counter()
    for kind, record in list(suite.CHECKS.items()):
        def guarded(points, margin=record.margin, kind=kind):
            try:
                return margin(points)
            except PhiLabError:
                raised[kind] += 1
                raise
        monkeypatch.setitem(suite.CHECKS, kind, dataclasses.replace(record, margin=guarded))
    return raised


@pytest.mark.parametrize("phi, check_name, dim", [
    # power:3, whose domain is the half line, found and not.
    ("power:3", "map_C", 1), ("power:3", "map_C", 2),
    ("power:3", "bregman_A", 1), ("power:3", "bregman_A", 2),
    ("quartic", "map_C", 1),  # a violation among the first trials
    ("square", "map_C", 1),   # the budget runs out
    # Violations after stacks of several trials.
    ("exp", "gap_F_t", 1), ("quartic", "condition_e", 1), ("power:3", "gap_F_t", 1),
    ("power:3", "gap_F_t", 2),  # the budget runs out
    # Stacks capped at _chunk(dim): 128 trials at d=4, 16 at d=8.
    ("quartic", "map_C", 4), ("quartic", "condition_a", 8), ("power:3", "condition_e", 4),
])
def test_counterexample_search_is_the_same_batched_and_one_at_a_time(
        phi, check_name, dim, monkeypatch):
    f = from_spec(phi, allow_outside_class=True)
    raised = _raising_margins(monkeypatch)
    reports = []
    for one_at_a_time in (False, True):
        with recorded_margins(one_at_a_time):
            reports.append(counterexample_search(f, check_name, 50, seed=0, dim=dim))
    assert reports[0].to_json_dict() == reports[1].to_json_dict()
    report = reports[0]
    reference = _search_one_at_a_time(f, check_name, 50, seed=0, dim=dim)
    assert (report.margin, report.trials, report.witness) == reference
    assert not raised  # the draws stay in the domain
    exhausted = phi == "square" or (phi, check_name, dim) == ("power:3", "gap_F_t", 2)
    assert report.holds == exhausted
    # The witness is a sweep draw of its record: directions h and k of unit
    # Frobenius norm, condition (e)'s A in its box, every other matrix from
    # the floor.
    point = suite._decode_witness(report.witness)
    kind = report.witness["kind"]
    low, high = CONDITION_E_SPECTRUM if kind == "condition_e" else (SPECTRAL_FLOOR, np.inf)
    for key, codec in suite.CHECKS[kind].fields:
        if key in ("h", "k"):
            assert abs(np.linalg.norm(point[key]) - 1.0) <= 1e-12, key
        elif codec is suite._MATRIX:
            eigenvalues = np.linalg.eigvalsh(point[key])
            assert low - 1e-12 <= eigenvalues[0] and eigenvalues[-1] <= high + 1e-12, key


@pytest.mark.parametrize("margin", [1.0, None])
def test_exhausted_search_keeps_the_first_least_margin(margin, monkeypatch):
    # Every trial ties, or every trial is out of the domain (margin None):
    # the first trial's point is the witness, or there is none.
    def margins(chunk):
        if margin is None:
            raise DomainError("out of the domain")
        return np.full(chunk["lambda"].shape, margin)
    record = suite.CHECKS["joint_convexity"]
    monkeypatch.setitem(suite.CHECKS, "joint_convexity",
                        dataclasses.replace(record, margin=margins))
    report = counterexample_search(builtin("square"), "map_C", 20, seed=0, dim=1)
    reference = _search_one_at_a_time(builtin("square"), "map_C", 20, seed=0, dim=1)
    assert (report.margin, report.trials, report.witness) == reference
    assert report.holds and report.trials == 20
    assert (report.witness is None) == (margin is None)


def test_exhausted_search_stacks_its_trials(monkeypatch):
    # 50 trials at d=1 go to the record in stacks of 8, 16 and 26 trials; one
    # trial per call would be 50 calls.
    calls = _counting_margins(monkeypatch)
    report = counterexample_search(builtin("square"), "map_C", 50, seed=0, dim=1)
    assert report.holds and report.trials == 50
    assert sum(calls.values()) <= 3


SEARCH_PHIS = ("square", "xlogx", "quartic", "exp", "power:3")


def test_found_search_stops_at_its_first_violation(monkeypatch):
    # A found search reports the first draw below -SEARCH_TOL and evaluates
    # nothing after the stack that holds it.
    calls = _counting_margins(monkeypatch)
    for phi in SEARCH_PHIS:
        f = from_spec(phi, allow_outside_class=True)
        for check_name in suite.SEARCHABLE_CHECKS:
            counterexample_search(f, check_name, 50, seed=0, dim=1)
    assert sum(calls.values()) <= 56
    # quartic map_C at d=4 finds one at trial 27, in its third stack (8 + 16 +
    # 26 trials: the third holds the rest of the budget).
    drawn = _counting_margins(monkeypatch,
                              weigh=lambda chunk: trials("joint_convexity", chunk)[0])
    report = counterexample_search(from_spec("quartic", allow_outside_class=True), "map_C", 50,
                                   seed=0, dim=4)
    assert not report.holds
    assert sum(drawn.values()) <= 50


def test_searchable_checks_are_six_names_and_the_records_they_search():
    # Joint convexity is searched once per functional.
    assert suite._SEARCH_KINDS == {
        "bregman_A": "joint_convexity", "map_B": "joint_convexity",
        "map_C": "joint_convexity", "gap_F_t": "joint_convexity",
        "condition_a": "condition_a", "condition_e": "condition_e"}
    assert suite.SEARCHABLE_CHECKS == (*FUNCTIONAL_NAMES, "condition_a", "condition_e") == (
        "bregman_A", "map_B", "map_C", "gap_F_t", "condition_a", "condition_e")


@pytest.mark.parametrize("check_name", suite.SEARCHABLE_CHECKS)
def test_search_chunks_are_the_records_draws(check_name, monkeypatch):
    # A search hands the margin each stack as the record's draw, a sweep's,
    # makes it from the stack's generators: the same columns, bit for bit.
    kind = suite._SEARCH_KINDS[check_name]
    record = suite.CHECKS[kind]
    chunks = []
    monkeypatch.setitem(suite.CHECKS, kind, dataclasses.replace(
        record, margin=lambda chunk: chunks.append(chunk) or record.margin(chunk)))
    f = builtin("square")  # no violation: the search draws its whole budget
    report = counterexample_search(f, check_name, 50, seed=0, dim=2)
    base = {"phi": f, "variant": "trace", "functional": check_name}
    drawn = 0
    for chunk in chunks:
        n = trials(kind, chunk)[0]
        rngs = [rng_for(0, "search", check_name, "square", 2, drawn + i) for i in range(n)]
        expected = {**base, **record.draw(rngs, 2, base)}
        assert chunk.keys() == expected.keys()
        for key, value in expected.items():
            if isinstance(value, np.ndarray):
                got = chunk[key]
                assert (got.dtype, got.shape, got.tobytes()) == (
                    value.dtype, value.shape, value.tobytes()), key
            else:
                assert chunk[key] is value or chunk[key] == value, key
        drawn += n
    assert report.holds and drawn == report.trials == 50


def test_search_out_of_its_domain_is_evaluated_point_by_point(monkeypatch):
    # power:10's derivative map at d=3 is numerically singular at some
    # condition (a) draws: the first stack raises, and each of its (trial,
    # weight) points is evaluated alone, +inf where it raises again.
    f = from_spec("power:10", allow_outside_class=True)
    raised = _raising_margins(monkeypatch)
    report = counterexample_search(f, "condition_a", 50, 0, dim=3)
    assert raised["condition_a"] > 1
    assert (report.margin, report.trials, report.witness) == _search_one_at_a_time(
        f, "condition_a", 50, 0, dim=3)


@pytest.mark.parametrize("phi, check_name, dim", [
    ("quartic", "map_C", 1), ("exp", "gap_F_t", 1), ("exp", "condition_a", 2),
    ("quartic", "condition_e", 1), ("square", "bregman_A", 2),
])
def test_search_witness_is_the_records_witness_of_its_point(phi, check_name, dim):
    # A search witness is the record's encoding of its point, in the record's
    # field order, after the function, dimension and margin; it replays to
    # its margin.
    f = from_spec(phi, allow_outside_class=True)
    report = counterexample_search(f, check_name, 50, seed=0, dim=dim)
    witness = json.loads(json.dumps(report.witness))
    kind = witness["kind"]
    assert list(witness) == ["phi", "dim", "margin", "kind",
                             *(key for key, _ in suite.CHECKS[kind].fields if key != "phi")]
    assert witness == {"phi": f.spec_string(), "dim": dim, "margin": report.margin,
                       **suite._encode_witness(kind, suite._decode_witness(witness))}
    assert abs(replay_witness(witness) - report.margin) <= 1e-12


GOLDEN_SEARCH = Path(__file__).parent / "data" / "golden_search_seed0.json"


def test_search_reports_match_the_golden_reports():
    # The 30 searches at d=1, seed 0 and budget 50, each found one at the
    # first draw below -SEARCH_TOL: every name, verdict, trial count and
    # witness layout exactly, every float to 1e-12.
    golden = json.loads(GOLDEN_SEARCH.read_text(encoding="utf-8"))
    reports = [counterexample_search(from_spec(phi, allow_outside_class=True), check_name, 50,
                                     seed=0, dim=1).to_json_dict()
               for phi in SEARCH_PHIS for check_name in suite.SEARCHABLE_CHECKS]
    _assert_close(reports, golden, "reports")


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name, version", [("old_form_suite.json", "0.1.0"),
                                           ("list_form_suite.json", "0.2.0")])
def test_old_form_witnesses_replay_to_their_margins(name, version):
    # Four reports of a run file of an older matrix form, one per codec that
    # holds matrices, and each witness still replays to its recorded margin
    # exactly.  In 0.1.0 every matrix is a "re"/"im" block of float lists; in
    # 0.2.0 a Hermitian one is an "h" list of its d^2 parameters.
    text = (DATA / name).read_text(encoding="utf-8")
    assert ('"h": [' in text) == (version == "0.2.0")
    assert json.loads(text)["artifact_version"] == version
    assert '"re": "' not in text and '"h": "' not in text  # no base64 block
    reports = json.loads(text)["reports"]
    # ensembles, matrices, a channel and a product, in that order
    assert [r["witness"]["kind"] for r in reports] == [
        "dual_representation", "joint_convexity", "monotonicity", "subadditivity"]
    for r in reports:
        assert replay_witness(r["witness"]) == r["margin"], r["check_name"]


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


def _counting_margins(monkeypatch, weigh=lambda chunk: 1) -> Counter:
    """Count each record's margin calls, or what weigh gives of their chunks,
    while the test runs."""
    calls = Counter()
    for kind, record in list(suite.CHECKS.items()):
        def counted(points, margin=record.margin, kind=kind):
            calls[kind] += weigh(points)
            return margin(points)
        monkeypatch.setitem(suite.CHECKS, kind, dataclasses.replace(record, margin=counted))
    return calls


def test_sweep_makes_one_margin_call_per_report(monkeypatch):
    # Each report's trials go to its record's margin together (monotonicity's
    # map then evaluates them one at a time).
    calls = _counting_margins(monkeypatch)
    cfg = RunConfig(seed=1, dims=(2, 4), trials=6, variant="both")
    reports = Counter(report.witness["kind"] for report, _, _ in run_suite(cfg).entries)
    assert set(reports) == set(suite.CHECKS)  # every record is measured by some sweep
    assert calls == reports


def test_sweep_chunks_trials_at_large_d(monkeypatch):
    # A margin call takes SWEEP_ENTRIES // d^3 trials, 16 at d=8 and 2 at
    # d=16: 5 trials are one call at d=8 and three at d=16.
    assert all(suite._chunk(d) * d**3 <= suite.SWEEP_ENTRIES for d in range(1, 17))
    calls = _counting_margins(monkeypatch)
    cfg = RunConfig(seed=1, dims=(8,), trials=5, phi_list=("square",),
                    checks=("efron_stein",))
    assert len(run_suite(cfg).entries) == 1
    assert calls == {"efron_stein": 1}
    calls.clear()
    assert len(run_suite(dataclasses.replace(cfg, dims=(16,))).entries) == 1
    assert calls == {"efron_stein": 3}


def test_sweep_reports_do_not_depend_on_the_chunk(monkeypatch):
    # One trial a call (SWEEP_ENTRIES = 1) gives every report byte for byte,
    # witness included: every record at d=8, and condition (e) at d=4 over
    # two default chunks.
    configs = [RunConfig(seed=1, dims=(8,), trials=5, phi_list=("square",), variant="both"),
               RunConfig(seed=1, dims=(4,), trials=suite._chunk(4) + 1,
                         phi_list=("square",), checks=("condition_e",))]
    default = [_strip_timing(run_suite(cfg).to_json_dict()) for cfg in configs]
    monkeypatch.setattr(suite, "SWEEP_ENTRIES", 1)
    assert [suite._chunk(8), suite._chunk(4)] == [1, 1]
    assert [_strip_timing(run_suite(cfg).to_json_dict()) for cfg in configs] == default


def test_sweep_tie_keeps_the_earliest_trial(monkeypatch):
    drawn = itertools.count()
    worst = {2, 4}  # trials whose margin is the minimum
    monkeypatch.setitem(suite.CHECKS, "tie", suite.Check(
        fields=(("trial", suite.Codec(*suite._AS_IS, "any value", lambda x: True,
                                      lambda x: np.array([x]),
                                      lambda column, n, j: int(column[n]))),),
        name="tie",
        margin=lambda chunk: [-1.0 if t in worst else 0.5 for t in chunk["trial"]],
        draw=lambda rngs, d, base: {"trial": np.array([next(drawn) for _ in rngs])},
        tolerance=lambda margins: 0.0, class_gated=False))
    s = suite.Sweep("tie", ("d",), "tie[d={d}]")
    report = suite.sweep(RunConfig(trials=6), "tie", s, None, "trace", 2)
    assert (report.margin, report.witness) == (-1.0, {"kind": "tie", "trial": 2})
    worst.clear()  # all margins equal: the first trial's point
    report = suite.sweep(RunConfig(trials=6), "tie", s, None, "trace", 2)
    assert (report.margin, report.witness) == (0.5, {"kind": "tie", "trial": 6})


@pytest.mark.parametrize("first", [0, 3])
def test_sweep_refuses_a_nan_margin(first, monkeypatch):
    # A NaN margin compares false with everything, so the least margin would
    # pass over it, and all NaN would read as a pass with margin inf: the sweep
    # names its report and first NaN trial instead.
    record = suite.CHECKS["condition_e"]

    def margins(chunk):
        out = record.margin(chunk)
        out[first:] = np.nan
        return out
    monkeypatch.setitem(suite.CHECKS, "condition_e", dataclasses.replace(record, margin=margins))
    cfg = RunConfig(trials=6, dims=(2,), phi_list=("square",), checks=("condition_e",))
    with pytest.raises(DomainError, match=rf"condition_e\[square,d=2\]: trial {first} has a NaN"):
        run_suite(cfg)
    assert main(["run-suite", "--trials", "6", "--dims", "2", "--phi-list", "square",
                 "--checks", "condition_e", "--quiet"]) == 2


@pytest.mark.parametrize("first", [0, 3])
def test_search_refuses_a_nan_margin(first, monkeypatch):
    # The sweep's rule: an all-NaN search would read as holds with margin inf
    # and no witness, so the search names its report and first NaN trial.
    record = suite.CHECKS["joint_convexity"]

    def margins(chunk):
        out = record.margin(chunk)
        out[first:] = np.nan
        return out
    monkeypatch.setitem(suite.CHECKS, "joint_convexity",
                        dataclasses.replace(record, margin=margins))
    with pytest.raises(DomainError, match=rf"counterexample_search\[map_C,square,d=1\]: "
                                          rf"trial {first} has a NaN"):
        counterexample_search(builtin("square"), "map_C", 20, seed=0, dim=1)
    assert main(["search-counterexample", "--phi", "square", "--check", "map_C",
                 "--budget", "20"]) == 2


GOLDEN = Path(__file__).parent / "data" / "golden_suite_seed5.json"


def _entries(block):
    """The float64 entries a base64 matrix block holds, row-major."""
    assert isinstance(block, str)
    return np.frombuffer(binascii.a2b_base64(block), "<f8").tolist()


def _assert_close(got, want, where):
    """Equal structure, strings, booleans and integers; floats to 1e-12, the
    entries of a base64 matrix block too."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            if key in ("h", "re", "im") and "dim" in want and isinstance(want[key], str):
                _assert_close(_entries(got[key]), _entries(want[key]), f"{where}.{key}")
            else:
                _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


def test_suite_payload_matches_the_golden_payload():
    # The payload of a small pinned run, timings stripped, as committed from
    # the point-by-point sweeps: every name, verdict, class flag and witness
    # layout exactly, every margin and witness entry to 1e-12.
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    cfg = RunConfig(seed=5, dims=(2, 3), trials=3, variant="both")
    payload = json.loads(_strip_timing(run_suite(cfg).to_json_dict()))
    assert [r["check_name"] for r in payload["reports"]] == \
        [r["check_name"] for r in golden["reports"]]
    assert [(r["holds"], r["in_class"]) for r in payload["reports"]] == \
        [(r["holds"], r["in_class"]) for r in golden["reports"]]
    _assert_close(payload, golden, "payload")
