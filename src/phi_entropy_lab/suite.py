"""Suite runner, counterexample search and witness replay, read off one table.

``CHECKS`` holds one record per witness ``kind``, one for each statement of
the paper that the package reports on.  The suite, single-point reports,
witness replay and counterexample search all read it.  A record says once:

- how a chunk of suite trials draws its points, in trial order, from their
  seeded streams, the chunk's matrices of one kind as one stack;
- the margins of any list of a sweep's points, in trial order, each >= 0
  where the statement holds: the map evaluates the points as one stack
  through the batched layers (channels act grouped by their Kraus counts),
  and the points of one draw may share work (the convex weights of one pair
  share its endpoints); one point is a list of one;
- how a point is stored as a witness and read back (its fields, in order);
- the tolerance a sweep's margins are judged by;
- whether it is gated to the function class of its variant, and the name of
  the report of one point.

``SWEEPS`` says which reports each entry of ``CHECK_NAMES`` makes: the record
each report measures, the labels of its stream and its name.  The rest is
derived from the two tables:

- ``sweep`` runs one report: every trial's points, one draw and one margin
  call per chunk of trials, the first strict minimum of the margin, and the
  witness of that one point;
- ``run_suite`` runs the sweeps a ``RunConfig`` selects;
- ``check`` reports one given point: class gate, margin, tolerance, witness;
- ``replay_witness`` decodes a witness and recomputes its margin;
- ``counterexample_search`` packs the matrix fields of a searchable record
  into real parameters, draws random points, then descends on the record's
  margin; both phases hand the record stacks of proposals that double in
  size and keep the first proposal that beats their bound, which is what
  evaluating the proposals one at a time would keep.

Trials are keyed by (seed, check, labels..., trial) through a counter-based
generator, so a report does not depend on the order its sweeps run in, and
a point's margin is the same whether it is evaluated with its draw or alone.
Records call the package through module-level names only, so a wrapper
installed on those names sees every call.
"""

from __future__ import annotations

import itertools
import math
import numbers
import time
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from . import __version__
from .catalog import C2, C3, OUTSIDE_CLASS, ScalarFunction, from_spec
from .channels import (
    KrausChannel,
    monotonicity_gap,
    operator_jensen_gap,
    random_unital_channel,
)
from .characterizations import (
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

# A sweep evaluates max(1, SWEEP_ENTRIES // d^4) trials per margin call.  A trial
# of the order-3 oracle holds a d^4 divided-difference grid, so this bounds the
# memory of the stacks: 32 trials at d=4, 2 at d=8, one at d=16 (whose single
# trial exceeds it, as before).
SWEEP_ENTRIES = 2**13

SEARCHABLE_CHECKS = ("bregman_A", "map_B", "map_C", "gap_F_t", "condition_a", "condition_e")


def _integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _tolerance(x) -> bool:
    """Whether x can judge margins: a finite number >= 0."""
    return _real(x) and math.isfinite(x) and x >= 0


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
        for name in ("seed", "trials", "n_factors", "support"):
            if not _integer(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not isinstance(self.dims, (list, tuple)) or not all(map(_integer, self.dims)):
            raise ConfigError(f"dims must be a list of integers, got {self.dims!r}")
        if not isinstance(self.tolerances, dict) or not all(
                c in CHECK_NAMES and _tolerance(t) for c, t in self.tolerances.items()):
            raise ConfigError(f"tolerances must map names of {CHECK_NAMES} to finite "
                              f"numbers >= 0, got {self.tolerances!r}")
        if not isinstance(self.checks, (list, tuple)) or not all(
                c in CHECK_NAMES for c in self.checks):
            raise ConfigError(f"checks must be a list of names from {CHECK_NAMES}, "
                              f"got {self.checks!r}")
        if not isinstance(self.phi_list, (list, tuple)) or not self.phi_list or not all(
                isinstance(p, str) for p in self.phi_list):
            raise ConfigError(f"phi_list must be a non-empty list of function names, "
                              f"got {self.phi_list!r}")
        if not isinstance(self.allow_outside_class, bool):
            raise ConfigError(f"allow_outside_class must be true or false, "
                              f"got {self.allow_outside_class!r}")
        if not isinstance(self.output_path, (str, type(None))):
            raise ConfigError(f"output_path must be a path string, got {self.output_path!r}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 or d > 16 for d in dims) or len(set(dims)) < len(dims):
            raise ConfigError(f"dims must be a non-empty subset of [1, 16], got {dims}")
        if self.variant not in ("trace", "operator", "both"):
            raise ConfigError(f"variant must be trace|operator|both, got '{self.variant}'")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "phi_list", tuple(self.phi_list))
        object.__setattr__(self, "checks", tuple(self.checks))

    def variants(self) -> tuple:
        return ("trace", "operator") if self.variant == "both" else (self.variant,)

    def to_json_dict(self) -> dict:
        """The fields in declaration order; tuples as lists, tolerances copied."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {key: list(v) if isinstance(v, tuple) else dict(v) if isinstance(v, dict) else v
                for key, v in values.items()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunConfig":
        extra = set(data) - {f.name for f in fields(cls)}
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra)}")
        return cls(**data)


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
        return int(any(in_class and not report.holds for report, in_class, _ in self.entries))

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


_CLASS_TAG = {"trace": C2, "operator": C3}


def _in_class(f: ScalarFunction, variant: str) -> bool:
    return not f.has_tag(OUTSIDE_CLASS) and f.has_tag(_CLASS_TAG[variant])


# --- the check registry ------------------------------------------------------------

# Witness codecs: (encode, decode, what a stored value must be, the test of it)
# between a point value and its JSON form.  A stored witness is input from
# outside the program, so _decode_witness refuses a value that fails the test.


def _json_object(cls) -> tuple:
    return (lambda v: v.to_json_dict(), lambda data: cls.from_json_dict(data), "an object",
            lambda x: isinstance(x, dict))


_AS_IS = (lambda x: x, lambda x: x)  # encode, decode of a value stored as it is
_ORDER = (*_AS_IS, "1, 2 or 3", lambda x: _integer(x) and 1 <= x <= 3)
_P = (*_AS_IS, "a finite number >= 1", lambda x: _real(x) and math.isfinite(x) and x >= 1)
_LAMBDA = (*_AS_IS, "a number in [0, 1]", lambda x: _real(x) and 0 <= x <= 1)
_T = (*_AS_IS, "null or a number in [0, 1]", lambda x: x is None or _LAMBDA[3](x))
_VARIANT = (*_AS_IS, "'trace' or 'operator'", lambda x: x in ("trace", "operator"))
_FUNCTIONAL = (*_AS_IS, f"one of {FUNCTIONAL_NAMES}", lambda x: x in FUNCTIONAL_NAMES)
_FLOATS = (lambda xs: [float(x) for x in xs], lambda xs: xs, "a list of numbers",
           lambda xs: isinstance(xs, list) and all(map(_real, xs)))
_PHI = (lambda f: f.spec_string(), lambda s: from_spec(s, allow_outside_class=True),
        "a function spec", lambda s: isinstance(s, str))
_MATRIX = (lambda A: matrix_to_json(A), lambda data: matrix_from_json(data), "an object",
           lambda x: isinstance(x, dict))
_MATRICES = (lambda As: [matrix_to_json(A) for A in As],
             lambda data: [matrix_from_json(A) for A in data], "a list of matrices",
             lambda xs: isinstance(xs, list))
_PRODUCT = _json_object(ProductEnsemble)
_ENSEMBLE = _json_object(MatrixEnsemble)
_CHANNEL = _json_object(KrausChannel)


@dataclass(frozen=True)
class Check:
    """One statement: its witness layout, margin, suite draw and tolerance.

    A point is a dict keyed like the witness that holds decoded values.
    """

    fields: tuple                 # witness layout after "kind": (key, codec) pairs
    name: str                     # report of one point, formatted with its witness
    # Any list of a sweep's points, in trial order -> their margins, >= 0 where it holds.
    margin: Callable
    draw: Callable | None = None  # (trials' generators, d, config, base point) -> points
    tolerance: Callable | None = None  # (all margins, base point) -> tolerance
    class_gated: bool = True      # in class only for phi tagged for the variant
    # Spectral floor and cap of the matrices a counterexample search draws.
    search_spectrum: tuple = (SPECTRAL_FLOOR + 0.05, None)


def _lambdas(rng) -> list:
    """Convex weights tried on each drawn pair: three fixed, two drawn."""
    return [0.25, 0.5, 0.75, float(rng.uniform()), float(rng.uniform())]


def _all(points: list, key: str) -> list:
    return [p[key] for p in points]


def _stack(points: list, key: str) -> np.ndarray:
    return np.array(_all(points, key))


def _listed(margins) -> list:
    """Margins as a flat list of floats, in point order."""
    return np.ravel(margins).tolist()


def _gap_margins(points: list, gaps: np.ndarray) -> list:
    """Margins of a stack of operator gaps, one per point, in the points' variant."""
    return _listed(variant_margin(gaps, points[0]["variant"]))


def _frechet_margins(points: list) -> list:
    f, order = points[0]["phi"], points[0]["order"]
    A, X = _stack(points, "A"), _stack(points, "X")
    exact = (frechet_d1, frechet_d2, frechet_d3)[order - 1](f, A, *[X] * order)
    return _listed(-relative_error(exact, finite_diff_oracle(f, A, X, order)))


def _efron_stein_terms(points: list) -> tuple:
    """The Efron-Stein quantity and the variance of each point's product."""
    products = _all(points, "product")
    return efron_stein_quantity(products), variance([P.flatten() for P in products])


def _poly_efron_stein_margins(points: list) -> list:
    q = points[0]["p"]
    # The norms of every point's two terms come from one stacked call.
    es, var = schatten_norm(np.concatenate(_efron_stein_terms(points)), q).reshape(2, -1) ** q
    return _listed(es - var)


def _by_draw(keys: tuple, slack: Callable) -> Callable:
    """The margin map of a record whose draw is one tuple of matrices (the
    fields keys) at several convex weights "lambda".

    A draw's points are consecutive and share the matrix objects, and every
    draw has as many weights (one point is a draw of one).  All draws go to
    slack(first point of each draw, stacked matrices, weights per draw) as
    one stack.
    """
    def margins(points: list) -> list:
        draws = []
        for p in points:
            if draws and all(p[key] is draws[-1][0][key] for key in keys):
                draws[-1].append(p)
            else:
                draws.append([p])
        firsts = [draw[0] for draw in draws]
        lams = [_all(draw, "lambda") for draw in draws]
        return _listed(slack(firsts, *(_stack(firsts, key) for key in keys), lams))
    return margins


def _functional(firsts: list) -> BivariateFunctional:
    """The functional of a sweep's draws; gap_F_t takes each draw's t."""
    p = firsts[0]
    t = None if p["t"] is None else np.array(_all(firsts, "t"))
    return BivariateFunctional(p["functional"], p["phi"], p["variant"], t=t)


def _convexity_tol(margins: list, base: dict) -> float:
    return 1e-9 * (1.0 + max(abs(m) for m in margins))


def _relative_tol(margins: list, base: dict) -> float:
    return 1e-9 * max(1.0, *(abs(m) for m in margins))


def _draw_pairs(rngs: list, d: int, config, base: dict) -> list:
    mats = sample_psd(d, SPECTRAL_FLOOR, rngs, count=4)
    ts = [float(rng.uniform(0.0, 1.0)) if base["functional"] == "gap_F_t" else None
          for rng in rngs]
    return [{"t": t, "lambda": lam, "u1": u1, "v1": v1, "u2": u2, "v2": v2}
            for rng, t, (u1, v1, u2, v2) in zip(rngs, ts, mats) for lam in _lambdas(rng)]


def _draw_condition_a(rngs: list, d: int, config, base: dict) -> list:
    pairs = sample_psd(d, SPECTRAL_FLOOR, rngs, count=2)
    return [{"lambda": lam, "A1": A1, "A2": A2, "h": h}
            for rng, (A1, A2), h in zip(rngs, pairs, sample_hermitian_unit(d, rngs))
            for lam in _lambdas(rng)]


def _points(**columns) -> list:
    """One point per trial, holding the trial's entry of each column."""
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


def _draw_channels(rngs: list, d: int) -> list:
    return random_unital_channel(d, [int(rng.integers(1, 5)) for rng in rngs], rngs)


def _draw_product(n_factors):
    """Draw of product ensembles; n_factors=None takes the config's."""
    return lambda rngs, d, config, base: _points(product=sample_product(
        d, n_factors or config.n_factors, config.support, rngs))


CHECKS = {
    "frechet_oracle": Check(
        fields=(("phi", _PHI), ("order", _ORDER), ("A", _MATRIX), ("X", _MATRIX)),
        margin=_frechet_margins,
        draw=lambda rngs, d, config, base: _points(
            A=sample_psd(d, 0.5, rngs, spectral_cap=4.0), X=sample_hermitian_unit(d, rngs)),
        tolerance=lambda margins, base: ORACLE_TOLS[base["order"]],
        class_gated=False,
        name="frechet_oracle[{phi},order={order}]"),
    "subadditivity": Check(
        fields=(("phi", _PHI), ("variant", _VARIANT), ("product", _PRODUCT)),
        margin=lambda ps: _gap_margins(ps, subadditivity_gap(ps[0]["phi"], _all(ps, "product"))),
        draw=_draw_product(None),
        tolerance=lambda margins, base: 1e-10,
        name="subadditivity[{phi},{variant}]"),
    "efron_stein": Check(
        fields=(("product", _PRODUCT),),
        margin=lambda ps: _listed(variant_margin(
            np.subtract(*_efron_stein_terms(ps)), "operator")),
        draw=_draw_product(None),
        tolerance=lambda margins, base: 1e-10,
        class_gated=False,
        name="operator_efron_stein"),
    "poly_efron_stein": Check(
        fields=(("p", _P), ("product", _PRODUCT)),
        margin=_poly_efron_stein_margins,
        draw=_draw_product(None),
        tolerance=lambda margins, base: 1e-10,
        class_gated=False,
        name="polynomial_efron_stein[p={p}]"),
    "dual_representation": Check(
        fields=(("phi", _PHI), ("variant", _VARIANT), ("Z", _ENSEMBLE), ("T", _ENSEMBLE)),
        margin=lambda ps: _gap_margins(ps, dual_gap(ps[0]["phi"], _all(ps, "Z"), _all(ps, "T"))),
        draw=lambda rngs, d, config, base: [{"Z": Z, "T": T} for Z, T in sample_coupled_ensembles(
            d, 3, rngs, spectral_floor=SPECTRAL_FLOOR)],
        tolerance=lambda margins, base: 1e-9,
        name="dual_representation[{phi},{variant}]"),
    # Items (b), (c), (d), (f): joint convexity of a bivariate functional.
    "joint_convexity": Check(
        fields=(("functional", _FUNCTIONAL), ("phi", _PHI), ("variant", _VARIANT), ("t", _T),
                ("lambda", _LAMBDA), ("u1", _MATRIX), ("v1", _MATRIX), ("u2", _MATRIX),
                ("v2", _MATRIX)),
        margin=_by_draw(("u1", "v1", "u2", "v2"), lambda firsts, *pairs_and_lams:
                        convexity_slack_at(_functional(firsts), *pairs_and_lams)),
        draw=_draw_pairs,
        tolerance=_convexity_tol,
        name="joint_convexity[{functional},{phi},{variant}]"),
    # Item (g).
    "conditional_jensen": Check(
        fields=(("phi", _PHI), ("variant", _VARIANT), ("product", _PRODUCT)),
        margin=lambda ps: _gap_margins(ps, conditional_jensen_gap(ps[0]["phi"],
                                                                  _all(ps, "product"))),
        draw=_draw_product(2),
        tolerance=lambda margins, base: 1e-10,
        name="conditional_jensen[{phi},{variant}]"),
    "condition_a": Check(
        fields=(("phi", _PHI), ("lambda", _LAMBDA), ("A1", _MATRIX), ("A2", _MATRIX),
                ("h", _MATRIX)),
        margin=_by_draw(("A1", "A2", "h"), lambda firsts, *mats_and_lams:
                        condition_a_slack(firsts[0]["phi"], *mats_and_lams)),
        draw=_draw_condition_a,
        tolerance=_relative_tol,
        name="condition_a[{phi}]"),
    "condition_e": Check(
        fields=(("phi", _PHI), ("A", _MATRIX), ("h", _MATRIX), ("k", _MATRIX)),
        margin=lambda ps: _listed(condition_e_margin(
            ps[0]["phi"], _stack(ps, "A"), _stack(ps, "h"), _stack(ps, "k"))),
        draw=lambda rngs, d, config, base: _points(
            A=sample_psd(d, 0.5, rngs, spectral_cap=4.0), h=sample_hermitian_unit(d, rngs),
            k=sample_hermitian_unit(d, rngs)),
        tolerance=_relative_tol,
        search_spectrum=(0.6, 3.8),
        name="condition_e[{phi}]"),
    "monotonicity": Check(
        fields=(("phi", _PHI), ("variant", _VARIANT), ("channel", _CHANNEL),
                ("ensemble", _ENSEMBLE)),
        # The channels' products run grouped by Kraus count, the rest as one stack.
        margin=lambda ps: _listed(monotonicity_gap(ps[0]["phi"], _all(ps, "channel"),
                                                   _all(ps, "ensemble"), ps[0]["variant"])),
        draw=lambda rngs, d, config, base: _points(
            channel=_draw_channels(rngs, d), ensemble=sample_ensemble(d, 3, rngs)),
        tolerance=lambda margins, base: 1e-10,
        name="monotonicity[{phi},{variant}]"),
    # The "jensen" check: f(N(A)) <= N(f(A)) for a unital channel N.
    "operator_jensen": Check(
        fields=(("phi", _PHI), ("variant", _VARIANT), ("channel", _CHANNEL), ("A", _MATRIX)),
        margin=lambda ps: _gap_margins(ps, operator_jensen_gap(
            ps[0]["phi"], _all(ps, "channel"), _stack(ps, "A"))),
        draw=lambda rngs, d, config, base: _points(
            channel=_draw_channels(rngs, d), A=sample_psd(d, SPECTRAL_FLOOR, rngs)),
        tolerance=lambda margins, base: 1e-10,
        name="operator_jensen[{phi},{variant}]"),
    # Not swept by the suite: single points through check, and their replay.
    "convexity_lemma": Check(
        fields=(("phi", _PHI), ("weights", _FLOATS), ("A", _MATRICES), ("X", _MATRICES)),
        # Lemma points may differ in their numbers of matrices: one point per call.
        margin=lambda ps: [convexity_lemma_margin(p["phi"], p["weights"], p["A"], p["X"])
                           for p in ps],
        tolerance=_convexity_tol,
        name="convexity_lemma[{phi}]"),
}


def _encode_witness(kind: str, point: dict) -> dict:
    """The witness of a point: its kind, then the record's fields in order."""
    return {"kind": kind, **{key: encode(point[key])
                             for key, (encode, *_) in CHECKS[kind].fields}}


def _decode_witness(witness: dict) -> dict:
    """The point a witness stores.  A missing or unknown kind, and a field
    missing or refused by its codec, are ConfigErrors that name them."""
    if not isinstance(witness, dict) or "kind" not in witness:
        raise ConfigError("a witness is a JSON object with a 'kind'")
    kind = witness["kind"]
    if not isinstance(kind, str) or kind not in CHECKS:
        raise ConfigError(f"no check of witness kind {kind!r:.60}")
    point = {}
    for key, (_, decode, what, valid) in CHECKS[kind].fields:
        if key not in witness or not valid(witness[key]):
            got = f"got {witness[key]!r:.60}" if key in witness else "it is missing"
            raise ConfigError(f"witness field '{key}' must be {what}; {got}")
        point[key] = decode(witness[key])
    return point


def replay_witness(witness: dict) -> float:
    """Recompute the margin a stored witness claims; must match to 1e-12."""
    point = _decode_witness(witness)
    return CHECKS[witness["kind"]].margin([point])[0]


def class_gate(kind: str, f: ScalarFunction | None, variant: str,
               override: bool = False) -> None:
    """Refuse f outside the class of the variant (the trace form for a record
    without a variant field) for a class-gated record, unless override is set."""
    record = CHECKS[kind]
    if "variant" not in dict(record.fields):
        variant = "trace"
    if variant not in _CLASS_TAG:
        raise DomainError(f"variant must be 'trace' or 'operator', got '{variant}'")
    if record.class_gated and not override and not _in_class(f, variant):
        raise ClassGateError(
            f"{kind} ({variant}) requires a function tagged {_CLASS_TAG[variant]}; "
            f"'{f.name}' has tags {sorted(f.class_tags)}. Pass override=True to force.")


def check(kind: str, *, tol: float | None = None, override: bool = False,
          **point) -> VerificationReport:
    """Report of one point of a record.

    The point gives every witness field of the record, as values.  A
    class-gated record refuses a function outside the class of the point's
    variant (the trace form when it has none) unless override is set.  tol
    replaces the record's tolerance rule.
    """
    record = CHECKS.get(kind)
    if record is None:
        raise ConfigError(f"no check of kind '{kind}'")
    keys = [key for key, _ in record.fields]
    if set(point) != set(keys):
        raise ConfigError(f"check '{kind}' takes the fields {keys}, got {sorted(point)}")
    class_gate(kind, point.get("phi"), point.get("variant", "trace"), override)
    if tol is not None and not _tolerance(tol):
        raise ConfigError(f"tol must be a finite number >= 0, got {tol!r}")
    margin = record.margin([point])[0]
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
                          {"item": "e"}),),
    "monotonicity": (Sweep("monotonicity", _PER_VARIANT,
                           "monotonicity[{phi},{variant},d={d}]"),),
    "jensen": (Sweep("operator_jensen", _PER_VARIANT, "jensen[{phi},{variant},d={d}]"),),
}


def sweep(config: RunConfig, check: str, s: Sweep, f: ScalarFunction | None,
          variant: str, d: int) -> VerificationReport:
    """Run one report: every trial's points, the worst margin and its witness.

    Each chunk of trials (see SWEEP_ENTRIES) is one draw, in trial order,
    and one margin call.  The first strict minimum wins.  A tolerance set in
    the config for the check replaces the record's rule, whatever its value.
    """
    record = CHECKS[s.kind]
    base = {"phi": f, "variant": variant, **s.fixed}
    labels = {**base, "phi": None if f is None else f.spec_string(), "d": d,
              "n": config.n_factors}
    margins, worst, best = [], np.inf, None
    chunk = max(1, SWEEP_ENTRIES // d**4)
    for start in range(0, config.trials, chunk):
        rngs = [rng_for(config.seed, check, *(labels[key] for key in s.key), trial)
                for trial in range(start, min(start + chunk, config.trials))]
        points = [{**base, **drawn} for drawn in record.draw(rngs, d, config, base)]
        for point, margin in zip(points, record.margin(points)):
            margins.append(margin)
            if margin < worst:
                worst, best = margin, point
    tol = config.tolerances.get(check)
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
                elif check == "condition_e" and d > 4:
                    skipped.append({
                        "check_name": s.name.format(phi=name, d=d),
                        "reason": "condition (e) is swept only at d <= 4, where its "
                                  "third-derivative grids of d^4 entries stay small",
                    })
                elif "phi" in s.key:
                    add(check, s, f, "trace", d)
    for d in config.dims:
        for check, s in chosen:
            if "phi" not in s.key:
                add(check, s, None, "trace", d)
    return tasks, skipped


def run_suite(config: RunConfig) -> SuiteReport:
    """Run every configured check; deterministic for a fixed config and seed."""
    funcs = {}
    for name in config.phi_list:
        try:
            f = from_spec(name, allow_outside_class=config.allow_outside_class)
        except PhiLabError as exc:
            raise ConfigError(f"cannot resolve function '{name}': {exc}") from exc
        if f.spec_string() in {g.spec_string() for g in funcs.values()}:
            raise ConfigError(f"'{name}' names a function phi_list already holds")
        if f.has_tag(OUTSIDE_CLASS) and not config.allow_outside_class:
            raise ConfigError(
                f"'{name}' is outside the subadditive classes; set "
                "allow_outside_class to include it in a run"
            )
        funcs[name] = f

    tasks, skipped = _build_tasks(config, funcs)
    entries = []
    for task in tasks:
        start = time.perf_counter()
        report, in_class = task()
        entries.append((report, in_class, time.perf_counter() - start))

    entries.sort(key=lambda e: e[0].check_name)
    names = [e[0].check_name for e in entries]
    if len(set(names)) != len(names):
        raise ConfigError("internal error: duplicate check names in suite report")
    return SuiteReport(config=config.to_json_dict(), entries=tuple(entries),
                       skipped=tuple(skipped))


# --- counterexample search --------------------------------------------------------


@lru_cache(maxsize=32)
def _param_layout(d: int) -> tuple:
    """Index arrays between d^2 search parameters and a d x d Hermitian matrix
    seen as d x d x 2 floats (real part, imaginary part).

    The parameters are the diagonal, then the real and imaginary parts of each
    upper entry, row by row (np.triu_indices order).  source holds, for each
    float of the matrix, its position in concat(p, -p, [0]); where holds, for
    each parameter, the position of its float in the flattened matrix.
    """
    n = d * d
    i, j = np.triu_indices(d, 1)
    re = d + 2 * np.arange(i.size)  # the parameter of each upper entry's real part
    source = np.full((d, d, 2), 2 * n)
    source[range(d), range(d), 0] = range(d)
    source[i, j, 0] = source[j, i, 0] = re
    source[i, j, 1] = re + 1
    source[j, i, 1] = n + re + 1
    upper = 2 * (i * d + j)
    where = np.concatenate([2 * (d + 1) * np.arange(d), np.stack([upper, upper + 1], -1).ravel()])
    source.flags.writeable = where.flags.writeable = False
    return source, where


def _herm_from_params(p: np.ndarray, d: int) -> np.ndarray:
    """Dense Hermitian matrix from d^2 real parameters; a stack of them from
    parameter vectors (..., d^2)."""
    source, _ = _param_layout(d)
    floats = np.concatenate([p, -p, np.zeros(p.shape[:-1] + (1,))], axis=-1)
    return np.take(floats, source, axis=-1).view(complex)[..., 0]


def _params_of(M: np.ndarray) -> np.ndarray:
    """The d^2 real parameters of a Hermitian matrix, or of each of a stack;
    inverse of _herm_from_params."""
    M = np.ascontiguousarray(M, dtype=complex)
    _, where = _param_layout(M.shape[-1])
    return M.view(float).reshape(M.shape[:-2] + (-1,))[..., where]


class _SearchSpace:
    """A searchable record's points as real parameter vectors.

    The vector holds the record's matrix fields, d^2 parameters each, then
    one weight in (0, 1) that serves as lambda and, for gap_F_t, as t.
    Searches run on the trace form.  A margin call takes at most cap vectors,
    the trials of one sweep call (see SWEEP_ENTRIES).
    """

    def __init__(self, f: ScalarFunction, check: str, dim: int):
        self.f = f
        self.check = check
        self.dim = dim
        self.kind = "joint_convexity" if check in FUNCTIONAL_NAMES else check
        self.record = CHECKS[self.kind]
        self.matrix_keys = [key for key, codec in self.record.fields if codec is _MATRIX]
        self.cap = max(1, SWEEP_ENTRIES // dim**4)

    def sample(self, rng) -> np.ndarray:
        floor, cap = self.record.search_spectrum
        mats = sample_psd(self.dim, floor, rng, cap, len(self.matrix_keys))
        return np.concatenate([_params_of(mats).ravel(), [rng.uniform(0.05, 0.95)]])

    def point(self, params: np.ndarray) -> dict:
        """Search values first, in the order a search witness lists them, then matrices."""
        n = len(self.matrix_keys) * self.dim * self.dim
        lam = float(np.clip(params[n], 0.01, 0.99))
        point = {"phi": self.f, "functional": self.check, "variant": "trace",
                 "lambda": lam, "t": lam if self.check == "gap_F_t" else None}
        mats = _herm_from_params(params[:n].reshape(len(self.matrix_keys), -1), self.dim)
        point.update(zip(self.matrix_keys, mats))
        return point

    def margins(self, stack: list) -> list:
        """Margins of a stack of parameter vectors, +inf where out of the domain.

        A stack that raises is evaluated again one vector at a time, so only
        the vectors that raise alone get +inf (treated as non-violating).
        """
        try:
            return self.record.margin([self.point(params) for params in stack])
        except PhiLabError:
            if len(stack) == 1:
                return [np.inf]
            return [m for params in stack for m in self.margins([params])]

    def witness(self, params: np.ndarray, margin: float) -> dict:
        codecs = dict(self.record.fields)
        return {"phi": self.f.spec_string(), "dim": self.dim, "margin": margin,
                "kind": self.kind,
                **{key: codecs[key][0](value) for key, value in self.point(params).items()
                   if key in codecs and key != "phi"}}


def _scan(space: _SearchSpace, proposals: Iterator, bound: float, size: int) -> list:
    """(vector, margin) of each proposal in order, up to the first margin below bound.

    The proposals are evaluated in stacks of size, 2*size, 4*size, ...
    vectors (at most space.cap), and the margins past that first one are
    dropped: the result is that of evaluating them one at a time, since a
    vector's margin does not depend on its stack.
    """
    scanned = []
    while True:
        stack = list(itertools.islice(proposals, min(size, space.cap)))
        if not stack:
            return scanned
        for params, margin in zip(stack, space.margins(stack)):
            scanned.append((params, margin))
            if margin < bound:
                return scanned
        size *= 2


def counterexample_search(f: ScalarFunction, check_name: str, budget: int, seed: int,
                          dim: int = 1, tol: float = 1e-9) -> VerificationReport:
    """Random search, then coordinate perturbation, for a check violation.

    A success is a point whose slack falls below -10*tol (tol > 0); the
    refined point is stored as a replayable witness.  Budget exhaustion reports
    holds=True with the trial count and the first point of least margin;
    that is evidence, not a proof.

    Trial t draws its point from its own stream, so the trials are evaluated
    in stacks of 1, 2, 4, ... (see _scan) and the report is that of drawing
    and evaluating them one at a time: the first success stops the search
    and the trials after it in its stack count for nothing.
    """
    if check_name not in SEARCHABLE_CHECKS:
        raise ConfigError(
            f"'{check_name}' is not searchable; choose from {SEARCHABLE_CHECKS}")
    if not 1 <= dim <= 16:
        raise ConfigError(f"dim must be in [1, 16], got {dim}")
    if budget < 1:
        raise ConfigError(f"budget must be >= 1, got {budget}")
    if not (_tolerance(tol) and tol > 0):
        raise ConfigError(f"tol must be a finite number > 0, got {tol}")
    space = _SearchSpace(f, check_name, dim)
    threshold = -10.0 * tol
    proposals = (space.sample(rng_for(seed, "search", check_name, f.spec_string(), dim, trial))
                 for trial in range(budget))
    scanned = _scan(space, proposals, threshold, 1)
    point, margin = scanned[-1]
    if margin < threshold:
        point, margin = _refine(space, point, margin)
    else:
        point, margin = None, np.inf
        for params, m in scanned:
            if m < margin:
                point, margin = params, m
    return VerificationReport.from_margin(
        f"counterexample_search[{check_name},{f.spec_string()},d={dim}]",
        margin, 10.0 * tol, trials=len(scanned),
        witness=None if point is None else space.witness(point, margin))


def _moves(point: np.ndarray, step: float, moves: range) -> Iterator:
    """The given moves of a refine sweep from point: move 2i raises
    coordinate i by step*(1 + |x_i|), move 2i+1 lowers it by as much."""
    for move in moves:
        i, sign = divmod(move, 2)
        trial = point.copy()
        trial[i] += (1.0, -1.0)[sign] * step * (1.0 + abs(trial[i]))
        yield trial


def _refine(space: _SearchSpace, point: np.ndarray, margin: float,
            sweeps: int = 8) -> tuple:
    """Greedy coordinate descent pushing the slack further negative.

    Each sweep takes every move (see _moves) in order from the current
    point, and moves there if it lowers the margin; a sweep that never moves
    halves the step.  The moves are evaluated in stacks that start at two
    and double (see _scan); after a move, the ones after it are proposed
    again from the new point, so this is the one-at-a-time descent.
    """
    step = 0.25
    n_moves = 2 * point.size
    for _ in range(sweeps):
        improved, move = False, 0
        while move < n_moves:
            scanned = _scan(space, _moves(point, step, range(move, n_moves)), margin, 2)
            move += len(scanned)
            trial, m = scanned[-1]
            if m < margin:
                point, margin, improved = trial, m, True
        if not improved:
            step *= 0.5
    return point, margin
