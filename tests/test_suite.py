"""Suite runner: config validation, determinism, replay, exit codes."""

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
from phi_entropy_lab.characterizations import FUNCTIONAL_NAMES
from phi_entropy_lab.errors import PhiLabError
from phi_entropy_lab.sampling import (
    rng_for,
    sample_coupled_ensembles,
    sample_product,
    sample_psd,
)
from phi_entropy_lab import suite
from phi_entropy_lab.suite import CHECK_NAMES

from batching import recorded_margins

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


def test_counterexample_budget_exhaustion_reports_holds():
    report = counterexample_search(builtin("square"), "map_C", 50, seed=0, dim=1)
    assert report.holds
    assert report.trials == 50


@pytest.mark.parametrize("dim, budget", [(0, 50), (-2, 50), (17, 50), (1, 0), (2, -1)])
def test_counterexample_search_rejects_bad_dim_or_budget(dim, budget):
    with pytest.raises(ConfigError):
        counterexample_search(builtin("quartic"), "map_C", budget, seed=0, dim=dim)


def _search_one_at_a_time(f, check_name: str, budget: int, seed: int, dim: int,
                          tol: float = 1e-9) -> tuple:
    """Margin, trials and witness of a search that proposes and evaluates one
    point at a time: the reference for the stacked search."""
    space = suite._SearchSpace(f, check_name, dim)
    best_margin, best = np.inf, None
    for trial in range(budget):
        rng = rng_for(seed, "search", check_name, f.spec_string(), dim, trial)
        params = space.sample([rng])[0]
        margin = next(space.margins(params[None]))
        if margin < -10 * tol:
            step = 0.25
            for _ in range(8):
                improved = False
                for i in range(params.size):
                    for sign in (1.0, -1.0):
                        moved = params.copy()
                        moved[i] += sign * step * (1.0 + abs(moved[i]))
                        m = next(space.margins(moved[None]))
                        if m < margin:
                            params, margin, improved = moved, m, True
                if not improved:
                    step *= 0.5
            return margin, trial + 1, space.witness(params, margin)
        if margin < best_margin:
            best_margin, best = margin, params
    return best_margin, budget, None if best is None else space.witness(best, best_margin)


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
    # The descent of power:3 proposes points outside its domain.
    ("power:3", "map_C", 1), ("power:3", "map_C", 2),
    ("power:3", "bregman_A", 1), ("power:3", "bregman_A", 2),
    ("quartic", "map_C", 1),  # a violation among the first trials
    ("square", "map_C", 1),   # the budget runs out
    # Descents whose moves go against the outcomes the last sweep predicts;
    # the power:3 one also leaves the domain.
    ("exp", "gap_F_t", 1), ("quartic", "condition_e", 1), ("power:3", "gap_F_t", 1),
    ("power:3", "gap_F_t", 2),  # the budget runs out, in the domain throughout
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
    exhausted = phi == "square" or (phi, check_name, dim) == ("power:3", "gap_F_t", 2)
    assert bool(raised) == (phi == "power:3" and not exhausted)
    assert report.holds == exhausted


@pytest.mark.parametrize("margin", [1.0, None])
def test_exhausted_search_keeps_the_first_least_margin(margin, monkeypatch):
    # Every trial ties, or every trial is out of the domain (margin None):
    # the first trial's point is the witness, or there is none.
    def margins(points):
        if margin is None:
            raise DomainError("out of the domain")
        return [margin] * len(points)
    record = suite.CHECKS["joint_convexity"]
    monkeypatch.setitem(suite.CHECKS, "joint_convexity",
                        dataclasses.replace(record, margin=margins))
    report = counterexample_search(builtin("square"), "map_C", 20, seed=0, dim=1)
    reference = _search_one_at_a_time(builtin("square"), "map_C", 20, seed=0, dim=1)
    assert (report.margin, report.trials, report.witness) == reference
    assert report.holds and report.trials == 20
    assert (report.witness is None) == (margin is None)


def test_exhausted_search_stacks_its_trials(monkeypatch):
    # 50 trials at d=1 go to the record in stacks of 1, 2, 4, 8, 16 and 19
    # points; one point per call would be 50 calls.
    calls = _counting_margins(monkeypatch)
    report = counterexample_search(builtin("square"), "map_C", 50, seed=0, dim=1)
    assert report.holds and report.trials == 50
    assert sum(calls.values()) <= 6


SEARCH_PHIS = ("square", "xlogx", "quartic", "exp", "power:3")


def test_refine_evaluates_predicted_paths(monkeypatch):
    # Each margin call of the descent takes the moves along the path the
    # last sweep's outcomes predict, not a stack cut at the first move taken.
    calls = _counting_margins(monkeypatch)
    counterexample_search(from_spec("quartic", allow_outside_class=True), "map_C", 50,
                          seed=0, dim=1)
    assert sum(calls.values()) <= 30  # 47 when each stack stopped at a move taken
    calls.clear()
    for phi in SEARCH_PHIS:
        f = from_spec(phi, allow_outside_class=True)
        for check_name in suite.SEARCHABLE_CHECKS:
            counterexample_search(f, check_name, 50, seed=0, dim=1)
    # 930 when each stack stopped at a move taken; 577 when a stack that raised
    # was evaluated again vector by vector past the first move read.
    assert sum(calls.values()) <= 530


def test_searchable_checks_are_the_records_whose_other_fields_the_search_fills():
    # Every record left out has a field the search cannot fill; joint
    # convexity is searched once per functional.
    fills = {"phi", "variant", "functional", "lambda", "t"}
    searched = ("joint_convexity", "condition_a", "condition_e")
    for kind, record in suite.CHECKS.items():
        unfilled = {key for key, codec in record.fields if codec is not suite._MATRIX} - fills
        assert bool(unfilled) == (kind not in searched), kind
    assert suite.SEARCHABLE_CHECKS == (*FUNCTIONAL_NAMES, *searched[1:]) == (
        "bregman_A", "map_B", "map_C", "gap_F_t", "condition_a", "condition_e")


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
    # The 30 searches at d=1, seed 0 and budget 50, as committed from the
    # descent that evaluated its moves in doubling stacks: every name,
    # verdict, trial count and witness layout exactly, every float to 1e-12.
    golden = json.loads(GOLDEN_SEARCH.read_text(encoding="utf-8"))
    reports = [counterexample_search(from_spec(phi, allow_outside_class=True), check_name, 50,
                                     seed=0, dim=1).to_json_dict()
               for phi in SEARCH_PHIS for check_name in suite.SEARCHABLE_CHECKS]
    _assert_close(reports, golden, "reports")


OLD_FORM = Path(__file__).parent / "data" / "old_form_suite.json"


def test_old_form_witnesses_replay_to_their_margins():
    # Four reports of a run file written before Hermitian matrices took the
    # "h" form, one per codec that holds matrices: every matrix is a "re"/"im"
    # block, and each witness still replays to its recorded margin exactly.
    text = OLD_FORM.read_text(encoding="utf-8")
    assert '"h":' not in text
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


def _counting_margins(monkeypatch) -> Counter:
    """Count each record's margin calls while the test runs."""
    calls = Counter()
    for kind, record in list(suite.CHECKS.items()):
        def counted(points, margin=record.margin, kind=kind):
            calls[kind] += 1
            return margin(points)
        monkeypatch.setitem(suite.CHECKS, kind, dataclasses.replace(record, margin=counted))
    return calls


def test_sweep_makes_one_margin_call_per_report(monkeypatch):
    # Each report's trials go to its record's margin together (monotonicity's
    # map then evaluates them one at a time).
    calls = _counting_margins(monkeypatch)
    cfg = RunConfig(seed=1, dims=(2, 4), trials=6, variant="both")
    reports = Counter(report.witness["kind"] for report, _, _ in run_suite(cfg).entries)
    assert set(reports) == {kind for kind, record in suite.CHECKS.items() if record.draw}
    assert calls == reports


def test_sweep_chunks_trials_at_large_d(monkeypatch):
    # A margin call takes SWEEP_ENTRIES // d^4 trials, 2 at d=8: 5 trials
    # are three calls.
    calls = _counting_margins(monkeypatch)
    cfg = RunConfig(seed=1, dims=(8,), trials=5, phi_list=("square",),
                    checks=("efron_stein",))
    assert len(run_suite(cfg).entries) == 1
    assert calls == {"efron_stein": 3}


def test_sweep_tie_keeps_the_earliest_trial(monkeypatch):
    drawn = itertools.count()
    worst = {2, 4}  # trials whose margin is the minimum
    monkeypatch.setitem(suite.CHECKS, "tie", suite.Check(
        fields=(("trial", (*suite._AS_IS, "any value", lambda x: True)),),
        name="tie",
        margin=lambda points: [-1.0 if p["trial"] in worst else 0.5 for p in points],
        draw=lambda rngs, d, base: [{"trial": next(drawn)} for _ in rngs],
        tolerance=lambda margins: 0.0, class_gated=False))
    s = suite.Sweep("tie", ("d",), "tie[d={d}]")
    report = suite.sweep(RunConfig(trials=6), "tie", s, None, "trace", 2)
    assert (report.margin, report.witness) == (-1.0, {"kind": "tie", "trial": 2})
    worst.clear()  # all margins equal: the first trial's point
    report = suite.sweep(RunConfig(trials=6), "tie", s, None, "trace", 2)
    assert (report.margin, report.witness) == (0.5, {"kind": "tie", "trial": 6})


GOLDEN = Path(__file__).parent / "data" / "golden_suite_seed5.json"


def _assert_close(got, want, where):
    """Equal structure, strings, booleans and integers; floats to 1e-12."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
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
