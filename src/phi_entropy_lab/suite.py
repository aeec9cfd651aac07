"""Suite runner, counterexample search and witness replay, read off one table.

``CHECKS`` holds one record per witness ``kind``, one for each statement the
suite measures.  A record says once:

- how one suite trial draws its points from the trial's seeded stream;
- the margin of one point, >= 0 when the statement holds there;
- how a point is stored as a witness and read back (its fields, in order);
- the tolerance a sweep's margins are judged by;
- whether it is gated to the function class of its variant, and the name of
  the report of one point, for the records that have one.

``SWEEPS`` says which reports each entry of ``CHECK_NAMES`` makes: the record
each report measures, the labels of its stream and its name.  The rest is
derived from the two tables:

- ``sweep`` runs one report: every trial's points, the first strict minimum
  of the margin, and the witness of that one point;
- ``run_suite`` runs the sweeps a ``RunConfig`` selects;
- ``check`` reports one given point: class gate, margin, tolerance, witness;
- ``replay_witness`` decodes a witness and recomputes its margin;
- ``counterexample_search`` packs the matrix fields of a searchable record
  into real parameters and descends on the record's margin.

Trials are keyed by (seed, check, labels..., trial) through a counter-based
generator, so serial and parallel executions produce identical reports.
Records call the package through module-level names only, so a wrapper
installed on those names sees every call.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import __version__
from .catalog import C2, C3, OUTSIDE_CLASS, ScalarFunction, from_spec
from .channels import KrausChannel, monotonicity_gap, random_unital_channel
from .characterizations import (
    CONDITION_E_TOL,
    FUNCTIONAL_NAMES,
    BivariateFunctional,
    condition_a_slack,
    condition_e_margin,
    conditional_jensen_gap,
    convexity_lemma_margin,
    convexity_slack_at,
)
from .entropy import (
    MatrixEnsemble,
    ProductEnsemble,
    SPECTRAL_FLOOR,
    dual_gap,
    efron_stein_quantity,
    subadditivity_gap,
    variance,
)
from .errors import ClassGateError, ConfigError, DomainError, PhiLabError
from .frechet import finite_diff_oracle, frechet_d1, frechet_d2, frechet_d3
from .reports import VerificationReport
from .sampling import (
    rng_for,
    sample_coupled_ensembles,
    sample_ensemble,
    sample_hermitian_unit,
    sample_product,
    sample_psd,
)
from .spectral import (
    matrix_from_json,
    matrix_to_json,
    relative_error,
    schatten_norm,
    variant_margin,
)

CHECK_NAMES = (
    "frechet_oracle",
    "subadditivity",
    "efron_stein",
    "poly_efron_stein",
    "dual_representation",
    "characterizations",
    "condition_a",
    "condition_e",
    "monotonicity",
    "jensen",
)

ORACLE_TOLS = {1: 1e-6, 2: 1e-4, 3: 1e-3}

SEARCHABLE_CHECKS = ("bregman_A", "map_B", "map_C", "gap_F_t", "condition_a", "condition_e")


@dataclass(frozen=True)
class RunConfig:
    """Configuration of a suite run."""

    seed: int = 0
    dims: tuple = (2, 3, 4)
    trials: int = 200
    phi_list: tuple = ("square", "xlogx")
    variant: str = "trace"
    checks: tuple = CHECK_NAMES
    tolerances: dict = field(default_factory=dict)
    n_factors: int = 2
    support: int = 2
    allow_outside_class: bool = False
    output_path: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 or d > 16 for d in dims):
            raise ConfigError(f"dims must be a non-empty subset of [1, 16], got {dims}")
        if not self.phi_list:
            raise ConfigError("phi_list must not be empty")
        if self.variant not in ("trace", "operator", "both"):
            raise ConfigError(f"variant must be trace|operator|both, got '{self.variant}'")
        checks = tuple(self.checks)
        unknown = [c for c in checks if c not in CHECK_NAMES]
        if unknown:
            raise ConfigError(f"unknown checks {unknown}; valid names: {CHECK_NAMES}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "phi_list", tuple(self.phi_list))
        object.__setattr__(self, "checks", checks)

    def variants(self) -> tuple:
        return ("trace", "operator") if self.variant == "both" else (self.variant,)

    def tolerance_for(self, check: str) -> float | None:
        return self.tolerances.get(check)

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "dims": list(self.dims),
            "trials": self.trials,
            "phi_list": list(self.phi_list),
            "variant": self.variant,
            "checks": list(self.checks),
            "tolerances": dict(self.tolerances),
            "n_factors": self.n_factors,
            "support": self.support,
            "allow_outside_class": self.allow_outside_class,
            "output_path": self.output_path,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunConfig":
        kwargs = {}
        for key in ("seed", "trials", "variant", "n_factors", "support",
                    "allow_outside_class", "output_path"):
            if key in data:
                kwargs[key] = data[key]
        if "dims" in data:
            kwargs["dims"] = tuple(data["dims"])
        if "phi_list" in data:
            kwargs["phi_list"] = tuple(data["phi_list"])
        if "checks" in data:
            kwargs["checks"] = tuple(data["checks"])
        if "tolerances" in data:
            kwargs["tolerances"] = dict(data["tolerances"])
        extra = set(data) - {"seed", "dims", "trials", "phi_list", "variant", "checks",
                             "tolerances", "n_factors", "support", "allow_outside_class",
                             "output_path"}
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra)}")
        return cls(**kwargs)


@dataclass(frozen=True)
class SuiteReport:
    """Aggregated outcome of a run: one entry per configured check."""

    config: dict
    entries: tuple  # of (VerificationReport, in_class: bool, seconds: float)
    skipped: tuple  # of {"check_name":…, "reason":…}

    @property
    def summary(self) -> dict:
        passed = sum(1 for r, _, _ in self.entries if r.holds)
        failed = sum(1 for r, _, _ in self.entries if not r.holds)
        return {"pass": passed, "fail": failed, "skip": len(self.skipped)}

    def exit_code(self) -> int:
        """0 iff no in-class check failed."""
        for report, in_class, _ in self.entries:
            if in_class and not report.holds:
                return 1
        return 0

    def to_json_dict(self) -> dict:
        return {
            "artifact_version": __version__,
            "config": self.config,
            "summary": self.summary,
            "reports": [
                {**report.to_json_dict(), "in_class": in_class, "seconds": seconds}
                for report, in_class, seconds in self.entries
            ],
            "skipped": list(self.skipped),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SuiteReport":
        entries = tuple(
            (VerificationReport.from_json_dict(entry), bool(entry["in_class"]),
             float(entry["seconds"]))
            for entry in data["reports"]
        )
        return cls(config=data["config"], entries=entries, skipped=tuple(data["skipped"]))


_CLASS_TAG = {"trace": C2, "operator": C3}


def _in_class(f: ScalarFunction, variant: str) -> bool:
    if f.has_tag(OUTSIDE_CLASS):
        return False
    return f.has_tag(_CLASS_TAG[variant])


# --- the check registry ------------------------------------------------------------

# Witness codecs: (encode, decode) between a point value and its JSON form.
_VALUE = (lambda x: x, lambda x: x)
_FLOATS = (lambda xs: [float(x) for x in xs], lambda xs: xs)
_PHI = (lambda f: f.spec_string(), lambda s: from_spec(s, allow_outside_class=True))
_MATRIX = (lambda A: matrix_to_json(A), lambda data: matrix_from_json(data))
_MATRICES = (lambda As: [matrix_to_json(A) for A in As],
             lambda data: [matrix_from_json(A) for A in data])
_PRODUCT = (lambda P: P.to_json_dict(), lambda data: ProductEnsemble.from_json_dict(data))
_ENSEMBLE = (lambda E: E.to_json_dict(), lambda data: MatrixEnsemble.from_json_dict(data))
_CHANNEL = (lambda N: N.to_json_dict(), lambda data: KrausChannel.from_json_dict(data))


@dataclass(frozen=True)
class Check:
    """One statement: its witness layout, margin, suite draw and tolerance.

    A point is a dict keyed like the witness that holds decoded values.
    """

    fields: tuple                 # witness layout after "kind": (key, codec) pairs
    margin: Callable              # point -> float, >= 0 where the statement holds
    draw: Callable | None = None  # (rng, d, config, base point) -> one trial's points
    tolerance: Callable | None = None  # (all margins, base point) -> tolerance
    class_gated: bool = True      # in class only for phi tagged for the variant
    name: str | None = None       # report of one point, formatted with its witness
    # Spectral floor and cap of the matrices a counterexample search draws.
    search_spectrum: tuple = (SPECTRAL_FLOOR + 0.05, None)


def _lambdas(rng) -> list:
    """Convex weights tried on each drawn pair: three fixed, two drawn."""
    return [0.25, 0.5, 0.75, float(rng.uniform()), float(rng.uniform())]


def _frechet_margin(p: dict) -> float:
    f, A, X, order = p["phi"], p["A"], p["X"], p["order"]
    if order == 1:
        exact = frechet_d1(f, A, X)
    elif order == 2:
        exact = frechet_d2(f, A, X, X)
    else:
        exact = frechet_d3(f, A, X, X, X)
    return -relative_error(exact, finite_diff_oracle(f, A, X, order))


def _poly_efron_stein_margin(p: dict) -> float:
    P, q = p["product"], p["p"]
    return (schatten_norm(efron_stein_quantity(P), q) ** q
            - schatten_norm(variance(P.flatten()), q) ** q)


def _convexity_margin(p: dict) -> float:
    F = BivariateFunctional(p["functional"], p["phi"], p["variant"], t=p["t"])
    return convexity_slack_at(F, p["u1"], p["v1"], p["u2"], p["v2"], p["lambda"])


def _convexity_tol(margins: list, base: dict) -> float:
    return 1e-9 * (1.0 + max(abs(m) for m in margins))


def _draw_pairs(rng, d: int, config, base: dict) -> list:
    u1, v1, u2, v2 = (sample_psd(d, SPECTRAL_FLOOR, rng) for _ in range(4))
    t = float(rng.uniform(0.0, 1.0)) if base["functional"] == "gap_F_t" else None
    return [{"t": t, "lambda": lam, "u1": u1, "v1": v1, "u2": u2, "v2": v2}
            for lam in _lambdas(rng)]


def _draw_condition_a(rng, d: int, config, base: dict) -> list:
    A1, A2 = sample_psd(d, SPECTRAL_FLOOR, rng), sample_psd(d, SPECTRAL_FLOOR, rng)
    h = sample_hermitian_unit(d, rng)
    return [{"lambda": lam, "A1": A1, "A2": A2, "h": h} for lam in _lambdas(rng)]


def _draw_channel(rng, d: int, config, base: dict) -> list:
    N = random_unital_channel(d, int(rng.integers(1, 5)), rng)
    return [{"channel": N, "ensemble": sample_ensemble(d, 3, rng, spectral_floor=0.0)}]


def _draw_product(n_factors):
    """Draw of one product ensemble; n_factors=None takes the config's."""
    return lambda rng, d, config, base: [{"product": sample_product(
        d, n_factors or config.n_factors, config.support, rng)}]


CHECKS = {
    "frechet_oracle": Check(
        fields=(("phi", _PHI), ("order", _VALUE), ("A", _MATRIX), ("X", _MATRIX)),
        margin=_frechet_margin,
        draw=lambda rng, d, config, base: [{"A": sample_psd(d, 0.5, rng, spectral_cap=4.0),
                                            "X": sample_hermitian_unit(d, rng)}],
        tolerance=lambda margins, base: ORACLE_TOLS[base["order"]],
        class_gated=False),
    "subadditivity": Check(
        fields=(("phi", _PHI), ("variant", _VALUE), ("product", _PRODUCT)),
        margin=lambda p: variant_margin(subadditivity_gap(p["phi"], p["product"], p["variant"]),
                                        p["variant"]),
        draw=_draw_product(None),
        tolerance=lambda margins, base: 1e-10,
        name="subadditivity[{phi},{variant}]"),
    "efron_stein": Check(
        fields=(("product", _PRODUCT),),
        margin=lambda p: variant_margin(efron_stein_quantity(p["product"])
                                        - variance(p["product"].flatten()), "operator"),
        draw=_draw_product(None),
        tolerance=lambda margins, base: 1e-10,
        class_gated=False,
        name="operator_efron_stein"),
    "poly_efron_stein": Check(
        fields=(("p", _VALUE), ("product", _PRODUCT)),
        margin=_poly_efron_stein_margin,
        draw=_draw_product(None),
        tolerance=lambda margins, base: 1e-10,
        class_gated=False,
        name="polynomial_efron_stein[p={p}]"),
    "dual_representation": Check(
        fields=(("phi", _PHI), ("variant", _VALUE), ("Z", _ENSEMBLE), ("T", _ENSEMBLE)),
        margin=lambda p: variant_margin(dual_gap(p["phi"], p["Z"], p["T"]), p["variant"]),
        draw=lambda rng, d, config, base: [dict(zip(("Z", "T"), sample_coupled_ensembles(
            d, 3, rng, spectral_floor=SPECTRAL_FLOOR)))],
        tolerance=lambda margins, base: 1e-9,
        name="dual_representation[{phi},{variant}]"),
    # Items (b), (c), (d), (f): joint convexity of a bivariate functional.
    "joint_convexity": Check(
        fields=(("functional", _VALUE), ("phi", _PHI), ("variant", _VALUE), ("t", _VALUE),
                ("lambda", _VALUE), ("u1", _MATRIX), ("v1", _MATRIX), ("u2", _MATRIX),
                ("v2", _MATRIX)),
        margin=_convexity_margin,
        draw=_draw_pairs,
        tolerance=_convexity_tol),
    # Item (g), and the "jensen" check.
    "conditional_jensen": Check(
        fields=(("phi", _PHI), ("variant", _VALUE), ("product", _PRODUCT)),
        margin=lambda p: variant_margin(conditional_jensen_gap(p["phi"], p["product"]),
                                        p["variant"]),
        draw=_draw_product(2),
        tolerance=lambda margins, base: 1e-10,
        name="conditional_jensen[{phi},{variant}]"),
    "condition_a": Check(
        fields=(("phi", _PHI), ("lambda", _VALUE), ("A1", _MATRIX), ("A2", _MATRIX),
                ("h", _MATRIX)),
        margin=lambda p: condition_a_slack(p["phi"], p["A1"], p["A2"], p["h"], p["lambda"]),
        draw=_draw_condition_a,
        tolerance=lambda margins, base: 1e-9 * max(1.0, *(abs(m) for m in margins))),
    "condition_e": Check(
        fields=(("phi", _PHI), ("method", _VALUE), ("A", _MATRIX), ("h", _MATRIX),
                ("k", _MATRIX)),
        margin=lambda p: condition_e_margin(p["phi"], p["A"], p["h"], p["k"],
                                            method=p["method"]),
        draw=lambda rng, d, config, base: [{"A": sample_psd(d, 0.5, rng, spectral_cap=4.0),
                                            "h": sample_hermitian_unit(d, rng),
                                            "k": sample_hermitian_unit(d, rng)}],
        tolerance=lambda margins, base: CONDITION_E_TOL,
        search_spectrum=(0.6, 3.8),
        name="condition_e[{phi}]"),
    "monotonicity": Check(
        fields=(("phi", _PHI), ("variant", _VALUE), ("channel", _CHANNEL),
                ("ensemble", _ENSEMBLE)),
        margin=lambda p: monotonicity_gap(p["phi"], p["channel"], p["ensemble"], p["variant"]),
        draw=_draw_channel,
        tolerance=lambda margins, base: 1e-10,
        name="monotonicity[{phi},{variant}]"),
    # Not swept by the suite: single points through check, and their replay.
    "convexity_lemma": Check(
        fields=(("phi", _PHI), ("weights", _FLOATS), ("A", _MATRICES), ("X", _MATRICES)),
        margin=lambda p: convexity_lemma_margin(p["phi"], p["weights"], p["A"], p["X"]),
        tolerance=_convexity_tol,
        name="convexity_lemma[{phi}]"),
}


def _encode_witness(kind: str, point: dict) -> dict:
    """The witness of a point: its kind, then the record's fields in order."""
    return {"kind": kind, **{key: encode(point[key])
                             for key, (encode, _) in CHECKS[kind].fields}}


def _decode_witness(witness: dict) -> dict:
    """The point a witness stores; raises ConfigError for an unknown kind."""
    check = CHECKS.get(witness["kind"])
    if check is None:
        raise ConfigError(f"cannot replay witness of kind '{witness['kind']}'")
    return {key: decode(witness[key]) for key, (_, decode) in check.fields}


def replay_witness(witness: dict) -> float:
    """Recompute the margin a stored witness claims; must match to 1e-12."""
    point = _decode_witness(witness)
    return CHECKS[witness["kind"]].margin(point)


def check(kind: str, *, tol: float | None = None, override: bool = False,
          **point) -> VerificationReport:
    """Report of one point of a record that names such reports.

    The point gives every witness field of the record, as values.  A
    class-gated record refuses a function outside the class of the point's
    variant (the trace form when it has none) unless override is set.  tol
    replaces the record's tolerance rule.
    """
    record = CHECKS.get(kind)
    if record is None or record.name is None:
        raise ConfigError(f"no single-point check of kind '{kind}'")
    keys = [key for key, _ in record.fields]
    if set(point) != set(keys):
        raise ConfigError(f"check '{kind}' takes the fields {keys}, got {sorted(point)}")
    variant = point.get("variant", "trace")
    if variant not in _CLASS_TAG:
        raise DomainError(f"variant must be 'trace' or 'operator', got '{variant}'")
    f = point.get("phi")
    if record.class_gated and not override and not _in_class(f, variant):
        raise ClassGateError(
            f"{kind} ({variant}) requires a function tagged {_CLASS_TAG[variant]}; "
            f"'{f.name}' has tags {sorted(f.class_tags)}. Pass override=True to force.")
    margin = record.margin(point)
    if tol is None:
        tol = record.tolerance([margin], point)
    witness = _encode_witness(kind, point)
    return VerificationReport.from_margin(record.name.format(**witness), margin, tol,
                                          witness=witness)


# --- sweeps ------------------------------------------------------------------------


@dataclass(frozen=True)
class Sweep:
    """One report of a suite check, repeated over functions, variants and dims."""

    kind: str    # the record it measures
    key: tuple   # labels of its stream after the check name, in order
    name: str    # report name, formatted with the labels
    fixed: dict = field(default_factory=dict)  # point values and labels fixed for it


_PER_VARIANT = ("phi", "variant", "d")
_ITEM_KEY = ("item", *_PER_VARIANT)
_ITEM_NAME = "characterizations[{item},{phi},{variant},d={d}]"

SWEEPS = {
    "frechet_oracle": tuple(
        Sweep("frechet_oracle", ("phi", "d", "order"),
              "frechet_oracle[{phi},d={d},order={order}]", {"order": order})
        for order in (1, 2, 3)),
    "subadditivity": (Sweep("subadditivity", _PER_VARIANT,
                            "subadditivity[{phi},{variant},d={d},n={n}]"),),
    "efron_stein": (Sweep("efron_stein", ("d",), "efron_stein[d={d},n={n}]"),),
    "poly_efron_stein": tuple(
        Sweep("poly_efron_stein", ("d", "p"), "poly_efron_stein[d={d},p={p}]", {"p": p})
        for p in (1, 2, 3)),
    "dual_representation": (Sweep("dual_representation", _PER_VARIANT,
                                  "dual_representation[{phi},{variant},d={d}]"),),
    "characterizations": tuple(
        Sweep("joint_convexity", _ITEM_KEY, _ITEM_NAME, {"item": item, "functional": name})
        for item, name in zip("bcdf", FUNCTIONAL_NAMES)
    ) + (Sweep("conditional_jensen", _ITEM_KEY, _ITEM_NAME, {"item": "g"}),),
    "condition_a": (Sweep("condition_a", ("phi", "d"), "condition_a[{phi},d={d}]",
                          {"item": "a"}),),
    "condition_e": (Sweep("condition_e", ("phi", "d"), "condition_e[{phi},d={d}]",
                          {"item": "e", "method": "hybrid"}),),
    "monotonicity": (Sweep("monotonicity", _PER_VARIANT,
                           "monotonicity[{phi},{variant},d={d}]"),),
    "jensen": (Sweep("conditional_jensen", _PER_VARIANT, "jensen[{phi},{variant},d={d}]"),),
}


def sweep(config: RunConfig, check: str, s: Sweep, f: ScalarFunction | None,
          variant: str, d: int) -> VerificationReport:
    """Run one report: every trial's points, the worst margin and its witness.

    The first strict minimum wins.  A tolerance set in the config for the
    check replaces the record's rule, whatever its value.
    """
    record = CHECKS[s.kind]
    base = {"phi": f, "variant": variant, **s.fixed}
    labels = {**base, "phi": None if f is None else f.spec_string(), "d": d,
              "n": config.n_factors}
    margins, worst, best = [], np.inf, None
    for trial in range(config.trials):
        rng = rng_for(config.seed, check, *(labels[key] for key in s.key), trial)
        for drawn in record.draw(rng, d, config, base):
            point = {**base, **drawn}
            margin = record.margin(point)
            margins.append(margin)
            if margin < worst:
                worst, best = margin, point
    tol = config.tolerance_for(check)
    if tol is None:
        tol = record.tolerance(margins, base)
    witness = None if best is None else _encode_witness(s.kind, best)
    return VerificationReport.from_margin(s.name.format(**labels), worst, tol,
                                          trials=config.trials, witness=witness)


def _build_tasks(config: RunConfig, funcs: dict):
    """Callables that each return one (report, in_class) pair, and the skip records."""
    tasks, skipped = [], []

    def add(check, s, f, variant, d):
        in_class = not CHECKS[s.kind].class_gated or _in_class(f, variant)
        tasks.append(lambda: (sweep(config, check, s, f, variant, d), in_class))

    chosen = [(check, s) for check in CHECK_NAMES if check in config.checks
              for s in SWEEPS[check]]
    budget = min(config.trials * 50, 10_000)
    for name, f in funcs.items():
        if f.has_tag(OUTSIDE_CLASS):
            # Outside-class functions get falsification searches instead of sweeps.
            for check, searched in (("characterizations", "map_C"),
                                    ("condition_a", "condition_a")):
                if check in config.checks:
                    tasks.append(lambda f=f, c=searched: (counterexample_search(
                        f, c, budget, config.seed, dim=1), False))
            continue
        for d in config.dims:
            variants = config.variants()
            if "operator" in variants and not f.has_tag(C3):
                skipped.append({
                    "check_name": f"operator-checks[{name},d={d}]",
                    "reason": f"'{name}' is not tagged {C3}; operator-order checks "
                              "are certified only for that class",
                })
                variants = tuple(v for v in variants if v != "operator")
            # A sweep runs per variant if its stream is labelled by the variant,
            # per function if by the function, and else once per dimension.
            for check, s in chosen:
                if "variant" in s.key:
                    for variant in variants:
                        add(check, s, f, variant, d)
                elif "phi" in s.key and not (check == "condition_e" and d > 4):
                    add(check, s, f, "trace", d)
    for d in config.dims:
        for check, s in chosen:
            if "phi" not in s.key:
                add(check, s, None, "trace", d)
    return tasks, skipped


def worker_count() -> int:
    raw = os.environ.get("PHI_LAB_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigError(f"PHI_LAB_THREADS must be an integer, got '{raw}'")


def run_suite(config: RunConfig) -> SuiteReport:
    """Run every configured check; deterministic for a fixed config and seed."""
    funcs = {}
    for name in config.phi_list:
        try:
            f = from_spec(name, allow_outside_class=config.allow_outside_class)
        except PhiLabError as exc:
            raise ConfigError(f"cannot resolve function '{name}': {exc}") from exc
        if f.has_tag(OUTSIDE_CLASS) and not config.allow_outside_class:
            raise ConfigError(
                f"'{name}' is outside the subadditive classes; set "
                "allow_outside_class to include it in a run"
            )
        funcs[name] = f

    tasks, skipped = _build_tasks(config, funcs)

    def execute(task):
        start = time.perf_counter()
        report, in_class = task()
        return report, in_class, time.perf_counter() - start

    threads = worker_count()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            entries = list(pool.map(execute, tasks))
    else:
        entries = [execute(t) for t in tasks]

    entries.sort(key=lambda e: e[0].check_name)
    names = [e[0].check_name for e in entries]
    if len(set(names)) != len(names):
        raise ConfigError("internal error: duplicate check names in suite report")
    return SuiteReport(config=config.to_json_dict(), entries=tuple(entries),
                       skipped=tuple(skipped))


# --- counterexample search --------------------------------------------------------


def _herm_from_params(p: np.ndarray, d: int) -> np.ndarray:
    """Dense Hermitian matrix from d^2 real parameters."""
    M = np.zeros((d, d), dtype=complex)
    idx = 0
    for i in range(d):
        M[i, i] = p[idx]
        idx += 1
    for i in range(d):
        for j in range(i + 1, d):
            M[i, j] = p[idx] + 1j * p[idx + 1]
            M[j, i] = p[idx] - 1j * p[idx + 1]
            idx += 2
    return M


def _params_of(M: np.ndarray) -> np.ndarray:
    """The d^2 real parameters of a Hermitian matrix; inverse of _herm_from_params."""
    d = M.shape[0]
    p = [float(M[i, i].real) for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            p.extend([float(M[i, j].real), float(M[i, j].imag)])
    return np.asarray(p)


class _SearchSpace:
    """A searchable record's points as real parameter vectors.

    The vector holds the record's matrix fields, d^2 parameters each, then
    one weight in (0, 1) that serves as lambda and, for gap_F_t, as t.
    Searches run on the trace form with the hybrid condition-(e) evaluation.
    """

    def __init__(self, f: ScalarFunction, check: str, dim: int):
        self.f = f
        self.check = check
        self.dim = dim
        self.kind = "joint_convexity" if check in FUNCTIONAL_NAMES else check
        self.record = CHECKS[self.kind]
        self.matrix_keys = [key for key, codec in self.record.fields if codec is _MATRIX]

    def sample(self, rng) -> np.ndarray:
        floor, cap = self.record.search_spectrum
        mats = [sample_psd(self.dim, floor, rng, spectral_cap=cap) for _ in self.matrix_keys]
        return np.concatenate([*map(_params_of, mats), [rng.uniform(0.05, 0.95)]])

    def point(self, params: np.ndarray) -> dict:
        """Search values first, in the order a search witness lists them, then matrices."""
        k = self.dim * self.dim
        lam = float(np.clip(params[len(self.matrix_keys) * k], 0.01, 0.99))
        point = {"phi": self.f, "functional": self.check, "variant": "trace",
                 "method": "hybrid", "lambda": lam,
                 "t": lam if self.check == "gap_F_t" else None}
        for i, key in enumerate(self.matrix_keys):
            point[key] = _herm_from_params(params[i * k:(i + 1) * k], self.dim)
        return point

    def margin(self, params: np.ndarray) -> float:
        try:
            return self.record.margin(self.point(params))
        except PhiLabError:
            return np.inf  # out-of-domain proposal; treat as non-violating

    def witness(self, params: np.ndarray, margin: float) -> dict:
        codecs = dict(self.record.fields)
        return {"phi": self.f.spec_string(), "dim": self.dim, "margin": margin,
                "kind": self.kind,
                **{key: codecs[key][0](value) for key, value in self.point(params).items()
                   if key in codecs and key != "phi"}}


def counterexample_search(f: ScalarFunction, check_name: str, budget: int, seed: int,
                          dim: int = 1, tol: float = 1e-9) -> VerificationReport:
    """Random search, then coordinate perturbation, for a check violation.

    A success is a point whose slack falls below -10*tol; the refined point
    is stored as a replayable witness.  Budget exhaustion reports
    holds=True with the trial count; that is evidence, not a proof.
    """
    if check_name not in SEARCHABLE_CHECKS:
        raise ConfigError(
            f"'{check_name}' is not searchable; choose from {SEARCHABLE_CHECKS}")
    space = _SearchSpace(f, check_name, dim)
    threshold = -10.0 * tol
    best_margin = np.inf
    best_point = None
    trials_used = 0
    for trial in range(budget):
        trials_used = trial + 1
        rng = rng_for(seed, "search", check_name, f.spec_string(), dim, trial)
        point = space.sample(rng)
        margin = space.margin(point)
        if margin < best_margin:
            best_margin, best_point = margin, point
        if margin < threshold:
            point, margin = _refine(space, point, margin, rng)
            return VerificationReport.from_margin(
                f"counterexample_search[{check_name},{f.spec_string()},d={dim}]",
                margin, 10.0 * tol, trials=trials_used,
                witness=space.witness(point, margin))
    witness = space.witness(best_point, best_margin) if best_point is not None else None
    return VerificationReport.from_margin(
        f"counterexample_search[{check_name},{f.spec_string()},d={dim}]",
        best_margin, 10.0 * tol, trials=trials_used, witness=witness)


def _refine(space: _SearchSpace, point: np.ndarray, margin: float, rng,
            sweeps: int = 8) -> tuple:
    """Greedy coordinate descent pushing the slack further negative."""
    step = 0.25
    for _ in range(sweeps):
        improved = False
        for i in range(point.size):
            for sign in (1.0, -1.0):
                trial = point.copy()
                trial[i] += sign * step * (1.0 + abs(trial[i]))
                m = space.margin(trial)
                if m < margin:
                    point, margin = trial, m
                    improved = True
        if not improved:
            step *= 0.5
    return point, margin
