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

``SWEEPS`` says which reports each check makes: the record each report
measures, the labels of its stream and its name; its keys, in order, are
``CHECK_NAMES``.  The rest is derived from the two tables:

- ``sweep`` runs one report: ``_scan`` makes one draw and one margin call
  per chunk of trials, ``_least`` picks the first strict minimum of the
  margin, and the witness is that one point's;
- ``run_suite`` runs the sweeps a ``RunConfig`` selects;
- ``check`` reports one given point: class gate, margin, tolerance, witness;
- ``replay_witness`` decodes a witness and recomputes its margin;
- ``counterexample_search`` packs the matrix fields of a searchable record
  into real parameters, runs ``_scan`` with a stop rule on stacks that
  double in size, then descends on the record's margin along the path the
  previous descent sweep's outcomes predict, up to the first move that goes
  otherwise.  Both keep what proposing and evaluating one point at a time
  would keep, since a point's margin does not depend on its stack.

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
    herm_from_params,
    matrix_from_json,
    matrix_to_json,
    params_of,
    schatten_norm,
    variant_margin,
)


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
    "condition_a": (Sweep("condition_a", ("phi", "d"), "condition_a[{phi},d={d}]"),),
    "condition_e": (Sweep("condition_e", ("phi", "d"), "condition_e[{phi},d={d}]"),),
    "monotonicity": (Sweep("monotonicity", _PER_VARIANT,
                           "monotonicity[{phi},{variant},d={d}]"),),
    "jensen": (Sweep("operator_jensen", _PER_VARIANT, "jensen[{phi},{variant},d={d}]"),),
}

CHECK_NAMES = tuple(SWEEPS)

# A counterexample search succeeds at a margin below -SEARCH_TOL, and its
# report is judged by SEARCH_TOL.
SEARCH_TOL = 1e-8

# Every product ensemble a sweep draws has N_FACTORS factors of SUPPORT outcomes.
N_FACTORS, SUPPORT = 2, 2

# A trial of condition (e), swept at d <= 4 or searched at any d, holds a d^4
# divided-difference grid, so this bounds a margin call's stack: 32 trials at
# d=4.  Sweeps also chunk at d > 4 (2 trials at d=8, 1 at d=16), where no
# swept record holds such a grid and the bound protects none (ROADMAP item 15).
SWEEP_ENTRIES = 2**13


def _chunk(d: int) -> int:
    """The most trials of dimension d one margin call takes."""
    return max(1, SWEEP_ENTRIES // d**4)


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
    allow_outside_class: bool = False

    def __post_init__(self):
        for name in ("seed", "trials"):
            if not _integer(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not isinstance(self.dims, (list, tuple)) or not all(map(_integer, self.dims)):
            raise ConfigError(f"dims must be a list of integers, got {self.dims!r}")
        if not isinstance(self.tolerances, dict) or not all(
                c in CHECK_NAMES and _tolerance(t) for c, t in self.tolerances.items()):
            raise ConfigError(f"tolerances must map names of {CHECK_NAMES} to finite "
                              f"numbers >= 0, got {self.tolerances!r}")
        if not isinstance(self.checks, (list, tuple)) or not self.checks or not all(
                c in CHECK_NAMES for c in self.checks) or len(set(self.checks)) < len(self.checks):
            raise ConfigError(f"checks must be a non-empty list of distinct names from "
                              f"{CHECK_NAMES}, got {self.checks!r}")
        if not isinstance(self.phi_list, (list, tuple)) or not self.phi_list or not all(
                isinstance(p, str) for p in self.phi_list):
            raise ConfigError(f"phi_list must be a non-empty list of function names, "
                              f"got {self.phi_list!r}")
        if not isinstance(self.allow_outside_class, bool):
            raise ConfigError(f"allow_outside_class must be true or false, "
                              f"got {self.allow_outside_class!r}")
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
    draw: Callable | None = None  # (trials' generators, d, base point) -> points
    tolerance: Callable | None = None  # all margins -> tolerance
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
    return BivariateFunctional(p["functional"], p["phi"], t=t)


def _convexity_tol(margins: list) -> float:
    return 1e-9 * (1.0 + max(abs(m) for m in margins))


def _relative_tol(margins: list) -> float:
    return 1e-9 * max(1.0, *(abs(m) for m in margins))


def _draw_pairs(rngs: list, d: int, base: dict) -> list:
    mats = sample_psd(d, SPECTRAL_FLOOR, rngs, count=4)
    ts = [float(rng.uniform(0.0, 1.0)) if base["functional"] == "gap_F_t" else None
          for rng in rngs]
    return [{"t": t, "lambda": lam, "u1": u1, "v1": v1, "u2": u2, "v2": v2}
            for rng, t, (u1, v1, u2, v2) in zip(rngs, ts, mats) for lam in _lambdas(rng)]


def _draw_condition_a(rngs: list, d: int, base: dict) -> list:
    pairs = sample_psd(d, SPECTRAL_FLOOR, rngs, count=2)
    return [{"lambda": lam, "A1": A1, "A2": A2, "h": h}
            for rng, (A1, A2), h in zip(rngs, pairs, sample_hermitian_unit(d, rngs))
            for lam in _lambdas(rng)]


def _points(**columns) -> list:
    """One point per trial, holding the trial's entry of each column."""
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


def _draw_channels(rngs: list, d: int) -> list:
    return random_unital_channel(d, [int(rng.integers(1, 5)) for rng in rngs], rngs)


def _draw_products(rngs: list, d: int, base: dict) -> list:
    return _points(product=sample_product(d, N_FACTORS, SUPPORT, rngs))


CHECKS = {
    "subadditivity": Check(
        fields=(("phi", _PHI), ("variant", _VARIANT), ("product", _PRODUCT)),
        margin=lambda ps: _gap_margins(ps, subadditivity_gap(ps[0]["phi"], _all(ps, "product"))),
        draw=_draw_products,
        tolerance=lambda margins: 1e-10,
        name="subadditivity[{phi},{variant}]"),
    "efron_stein": Check(
        fields=(("product", _PRODUCT),),
        margin=lambda ps: _listed(variant_margin(
            np.subtract(*_efron_stein_terms(ps)), "operator")),
        draw=_draw_products,
        tolerance=lambda margins: 1e-10,
        class_gated=False,
        name="operator_efron_stein"),
    "poly_efron_stein": Check(
        fields=(("p", _P), ("product", _PRODUCT)),
        margin=_poly_efron_stein_margins,
        draw=_draw_products,
        tolerance=lambda margins: 1e-10,
        class_gated=False,
        name="polynomial_efron_stein[p={p}]"),
    "dual_representation": Check(
        fields=(("phi", _PHI), ("variant", _VARIANT), ("Z", _ENSEMBLE), ("T", _ENSEMBLE)),
        margin=lambda ps: _gap_margins(ps, dual_gap(ps[0]["phi"], _all(ps, "Z"), _all(ps, "T"))),
        draw=lambda rngs, d, base: [{"Z": Z, "T": T} for Z, T in sample_coupled_ensembles(
            d, 3, rngs, spectral_floor=SPECTRAL_FLOOR)],
        tolerance=lambda margins: 1e-9,
        name="dual_representation[{phi},{variant}]"),
    # Items (b), (c), (d), (f): joint convexity of a bivariate functional.
    "joint_convexity": Check(
        fields=(("functional", _FUNCTIONAL), ("phi", _PHI), ("variant", _VARIANT), ("t", _T),
                ("lambda", _LAMBDA), ("u1", _MATRIX), ("v1", _MATRIX), ("u2", _MATRIX),
                ("v2", _MATRIX)),
        margin=_by_draw(("u1", "v1", "u2", "v2"), lambda firsts, *pairs_and_lams:
                        convexity_slack_at(_functional(firsts), *pairs_and_lams,
                                           firsts[0]["variant"])),
        draw=_draw_pairs,
        tolerance=_convexity_tol,
        name="joint_convexity[{functional},{phi},{variant}]"),
    # Item (g).
    "conditional_jensen": Check(
        fields=(("phi", _PHI), ("variant", _VARIANT), ("product", _PRODUCT)),
        margin=lambda ps: _gap_margins(ps, conditional_jensen_gap(ps[0]["phi"],
                                                                  _all(ps, "product"))),
        draw=_draw_products,
        tolerance=lambda margins: 1e-10,
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
        draw=lambda rngs, d, base: _points(
            A=sample_psd(d, 0.5, rngs, spectral_cap=4.0), h=sample_hermitian_unit(d, rngs),
            k=sample_hermitian_unit(d, rngs)),
        tolerance=_relative_tol,
        search_spectrum=(0.6, 3.8),
        name="condition_e[{phi}]"),
    "monotonicity": Check(
        fields=(("phi", _PHI), ("variant", _VARIANT), ("channel", _CHANNEL),
                ("ensemble", _ENSEMBLE)),
        # The channels' products run grouped by Kraus count, the rest as one stack.
        margin=lambda ps: _gap_margins(ps, monotonicity_gap(ps[0]["phi"], _all(ps, "channel"),
                                                            _all(ps, "ensemble"))),
        draw=lambda rngs, d, base: _points(
            channel=_draw_channels(rngs, d), ensemble=sample_ensemble(d, 3, rngs)),
        tolerance=lambda margins: 1e-10,
        name="monotonicity[{phi},{variant}]"),
    # The "jensen" check: f(N(A)) <= N(f(A)) for a unital channel N.
    "operator_jensen": Check(
        fields=(("phi", _PHI), ("variant", _VARIANT), ("channel", _CHANNEL), ("A", _MATRIX)),
        margin=lambda ps: _gap_margins(ps, operator_jensen_gap(
            ps[0]["phi"], _all(ps, "channel"), _stack(ps, "A"))),
        draw=lambda rngs, d, base: _points(
            channel=_draw_channels(rngs, d), A=sample_psd(d, SPECTRAL_FLOOR, rngs)),
        tolerance=lambda margins: 1e-10,
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

# The records whose fields are matrices or values _SearchSpace.points fills;
# joint convexity once per functional.
SEARCHABLE_CHECKS = tuple(
    name for kind, record in CHECKS.items()
    if all(codec is _MATRIX or key in ("phi", "variant", "functional", "lambda", "t")
           for key, codec in record.fields)
    for name in (FUNCTIONAL_NAMES if kind == "joint_convexity" else (kind,)))


def _encode_witness(kind: str, point: dict) -> dict:
    """The witness of a point: its kind, then the record's fields in order."""
    return {"kind": kind, **{key: encode(point[key])
                             for key, (encode, *_) in CHECKS[kind].fields}}


def _require_fields(kind: str, witness: dict) -> None:
    """Refuse a witness field that is missing or refused by its codec, and
    matrices of more than one dim: a ConfigError that names them."""
    for key, (_, _, what, valid) in CHECKS[kind].fields:
        if key not in witness or not valid(witness[key]):
            got = f"got {witness[key]!r:.60}" if key in witness else "it is missing"
            raise ConfigError(f"witness field '{key}' must be {what}; {got}")
    dims = [m.get("dim") for key, codec in CHECKS[kind].fields if codec in (_MATRIX, _MATRICES)
            for m in ([witness[key]] if codec is _MATRIX else witness[key]) if isinstance(m, dict)]
    if any(dim != dims[0] for dim in dims):
        raise ConfigError(f"the matrices of a {kind} witness must share one dim, got {dims!r:.60}")


def _decode_witness(witness: dict) -> dict:
    """The point a witness stores.  A missing or unknown kind, and a field
    missing or refused by its codec, are ConfigErrors that name them."""
    if not isinstance(witness, dict) or "kind" not in witness:
        raise ConfigError("a witness is a JSON object with a 'kind'")
    kind = witness["kind"]
    if not isinstance(kind, str) or kind not in CHECKS:
        raise ConfigError(f"no check of witness kind {kind!r:.60}")
    _require_fields(kind, witness)
    return {key: decode(witness[key]) for key, (_, decode, *_) in CHECKS[kind].fields}


def replay_witness(witness: dict) -> float:
    """Recompute the margin a stored witness claims; must match to 1e-12."""
    point = _decode_witness(witness)
    return CHECKS[witness["kind"]].margin([point])[0]


def check(kind: str, *, tol: float | None = None, override: bool = False,
          **point) -> VerificationReport:
    """Report of one point of a record.

    The point gives every witness field of the record, as values; a value
    whose witness entry a replay would refuse is a ConfigError that names
    its field.  A class-gated record refuses a function outside the class
    of the point's variant (the trace form when it has none) unless override
    is set.  tol replaces the record's tolerance rule.
    """
    record = CHECKS.get(kind)
    if record is None:
        raise ConfigError(f"no check of kind '{kind}'")
    keys = [key for key, _ in record.fields]
    if set(point) != set(keys):
        raise ConfigError(f"check '{kind}' takes the fields {keys}, got {sorted(point)}")
    f, variant = point.get("phi"), point.get("variant", "trace")
    if variant not in _CLASS_TAG:
        raise DomainError(f"variant must be 'trace' or 'operator', got '{variant}'")
    if record.class_gated and not override and not _in_class(f, variant):
        raise ClassGateError(
            f"{kind} ({variant}) requires a function tagged {_CLASS_TAG[variant]}; "
            f"'{f.name}' has tags {sorted(f.class_tags)}. Pass override=True to force.")
    if tol is not None and not _tolerance(tol):
        raise ConfigError(f"tol must be a finite number >= 0, got {tol!r}")
    witness = _encode_witness(kind, point)
    _require_fields(kind, witness)
    margin = record.margin([point])[0]
    if tol is None:
        tol = record.tolerance([margin])
    return VerificationReport.from_margin(record.name.format(**witness), margin, tol,
                                          witness=witness)


# --- sweeps ------------------------------------------------------------------------


def _scan(draw: Callable, margins: Callable, rngs: Iterator, sizes: Iterator,
          bound: float = -np.inf) -> list:
    """(point, margin) of each point drawn from the generators, in order, up to
    the first margin below bound, which ends the scan.

    Each stack of generators (of the given sizes) is one draw and one margin
    call.  A trial draws from its own stream and a point's margin does not
    depend on its stack, so this is drawing and evaluating one at a time.
    """
    scanned = []
    for size in sizes:
        rng_stack = list(itertools.islice(rngs, size))
        if not rng_stack:
            break
        points = draw(rng_stack)
        for point, margin in zip(points, margins(points)):
            scanned.append((point, margin))
            if margin < bound:
                return scanned
    return scanned


def _least(scanned: list) -> tuple:
    """The first (point, margin) of strictly least margin; (None, inf) when no
    margin is below inf."""
    best = (None, np.inf)
    for point, margin in scanned:
        if margin < best[1]:
            best = (point, margin)
    return best


def sweep(config: RunConfig, check: str, s: Sweep, f: ScalarFunction | None,
          variant: str, d: int) -> VerificationReport:
    """Run one report: every trial's points, the worst margin and its witness.

    The trials are scanned in chunks of _chunk(d), in trial order.  The first
    strict minimum wins.  A tolerance set in the config for the check
    replaces the record's rule, whatever its value.
    """
    record = CHECKS[s.kind]
    base = {"phi": f, "variant": variant, **s.fixed}
    labels = {**base, "phi": None if f is None else f.spec_string(), "d": d, "n": N_FACTORS}
    rngs = (rng_for(config.seed, check, *(labels[key] for key in s.key), trial)
            for trial in range(config.trials))
    scanned = _scan(lambda rngs: [{**base, **drawn}
                                  for drawn in record.draw(rngs, d, base)],
                    record.margin, rngs, itertools.repeat(_chunk(d)))
    best, worst = _least(scanned)
    tol = config.tolerances.get(check)
    if tol is None:
        tol = record.tolerance([margin for _, margin in scanned])
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
        try:  # resolved whatever its class: the tag test below is the one class rule
            f = from_spec(name, allow_outside_class=True)
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


class _SearchSpace:
    """A searchable record's points as real parameter vectors.

    The vector holds the record's matrix fields, d^2 Hermitian parameters
    each (spectral.herm_from_params), then one weight in (0, 1) that serves
    as lambda and, for gap_F_t, as t.
    Searches run on the trace form.  Vectors travel as stacks (n, size): a
    margin call takes at most cap of them, the trials of one sweep call, and
    each stack is drawn and unpacked in one call.
    """

    def __init__(self, f: ScalarFunction, check: str, dim: int):
        self.f = f
        self.check = check
        self.dim = dim
        self.kind = "joint_convexity" if check in FUNCTIONAL_NAMES else check
        self.record = CHECKS[self.kind]
        self.matrix_keys = [key for key, codec in self.record.fields if codec is _MATRIX]
        self.cap = _chunk(dim)

    def sample(self, rngs: list) -> np.ndarray:
        """One vector per generator: each draws its matrices, then its weight."""
        floor, cap = self.record.search_spectrum
        mats = sample_psd(self.dim, floor, rngs, cap, len(self.matrix_keys))
        weights = [[rng.uniform(0.05, 0.95)] for rng in rngs]
        return np.concatenate([params_of(mats).reshape(len(rngs), -1), weights], axis=1)

    def points(self, stack: np.ndarray) -> list:
        """The point of each vector: the values it fills, then matrices."""
        n = len(self.matrix_keys) * self.dim * self.dim
        lams = np.clip(stack[:, n], 0.01, 0.99).tolist()
        mats = herm_from_params(stack[:, :n].reshape(len(stack), len(self.matrix_keys), -1),
                                self.dim)
        return [{"phi": self.f, "functional": self.check, "variant": "trace", "lambda": lam,
                 "t": lam if self.check == "gap_F_t" else None, **dict(zip(self.matrix_keys, m))}
                for lam, m in zip(lams, mats)]

    def margins(self, stack: np.ndarray) -> Iterator:
        """Margins of a stack of parameter vectors, +inf where out of the domain.

        A stack that raises is evaluated again one vector at a time as its
        margins are read: the vectors that raise alone get +inf (treated as
        non-violating), and those never read are not evaluated.
        """
        try:
            return iter(self.record.margin(self.points(stack)))
        except PhiLabError:
            if len(stack) == 1:
                return iter([np.inf])
            return (m for params in stack for m in self.margins(params[None]))

    def witness(self, params: np.ndarray, margin: float) -> dict:
        return {"phi": self.f.spec_string(), "dim": self.dim, "margin": margin,
                **_encode_witness(self.kind, self.points(params[None])[0])}


def counterexample_search(f: ScalarFunction, check_name: str, budget: int, seed: int,
                          dim: int = 1) -> VerificationReport:
    """Random search, then coordinate perturbation, for a check violation.

    A success is a point whose slack falls below -SEARCH_TOL, the tolerance
    its report is judged by; the refined point is stored as a replayable
    witness.  Budget exhaustion reports holds=True with the trial count and
    the first point of least margin; that is evidence, not a proof.

    The random phase is a sweep with a stop rule: _scan on stacks of 1, 2,
    4, ... trials up to a sweep's chunk, stopped at the first success; the
    trials after it in its stack count for nothing.  An exhausted search
    keeps the sweep's least margin (_least).
    """
    if check_name not in SEARCHABLE_CHECKS:
        raise ConfigError(
            f"'{check_name}' is not searchable; choose from {SEARCHABLE_CHECKS}")
    if not 1 <= dim <= 16:
        raise ConfigError(f"dim must be in [1, 16], got {dim}")
    if budget < 1:
        raise ConfigError(f"budget must be >= 1, got {budget}")
    space = _SearchSpace(f, check_name, dim)
    rngs = (rng_for(seed, "search", check_name, f.spec_string(), dim, trial)
            for trial in range(budget))
    doubling = (min(2**i, space.cap) for i in itertools.count())
    scanned = _scan(space.sample, space.margins, rngs, doubling, -SEARCH_TOL)
    point, margin = scanned[-1]
    if margin < -SEARCH_TOL:
        point, margin = _refine(space, point, margin)
    else:
        point, margin = _least(scanned)
    return VerificationReport.from_margin(
        f"counterexample_search[{check_name},{f.spec_string()},d={dim}]",
        margin, SEARCH_TOL, trials=len(scanned),
        witness=None if point is None else space.witness(point, margin))


def _refine(space: _SearchSpace, point: np.ndarray, margin: float) -> tuple:
    """Greedy coordinate descent pushing the slack further negative.

    Each of eight sweeps takes every move in order from the current point,
    and moves there if it lowers the margin (move 2i raises coordinate i by
    step*(1 + |x_i|), move 2i+1 lowers it by as much); a sweep that never
    moves halves the step.

    A sweep mostly repeats the previous one's outcomes, so each move is
    predicted to go as it went then (the first sweep predicts none taken).
    One margin call takes the moves from the current one on as a chain of
    at most space.cap trials, each proposed from the point its predecessors'
    predicted outcomes reach; a move whose trial left the domain last sweep
    is a chain of its own.  The chain is walked in order and cut after
    the first move that goes against its prediction.  Every trial kept is
    the one the one-at-a-time descent proposes at that step, and a vector's
    margin does not depend on its stack, so this is that descent.
    """
    step = 0.25
    n_moves = 2 * point.size
    # Each move's outcome when last proposed: taken, and out of the domain.
    taken, raised = np.zeros(n_moves, bool), np.zeros(n_moves, bool)
    for _ in range(8):
        improved, move = False, 0
        while move < n_moves:
            chain, at = [], point
            for j in range(move, min(move + space.cap, n_moves)):
                if chain and (raised[move] or raised[j]):
                    break
                i, sign = divmod(j, 2)
                trial = at.copy()
                trial[i] += (1.0, -1.0)[sign] * step * (1.0 + abs(trial[i]))
                chain.append(trial)
                at = trial if taken[j] else at
            for trial, m in zip(chain, space.margins(np.stack(chain))):
                took = m < margin
                if took:
                    point, margin, improved = trial, m, True
                predicted = taken[move]
                taken[move], raised[move] = took, m == np.inf
                move += 1
                if took != predicted:
                    break
        if not improved:
            step *= 0.5
    return point, margin
