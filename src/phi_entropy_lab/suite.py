"""Suite runner, counterexample search and witness replay, read off one table.

``CHECKS`` holds one record per witness ``kind``, one for each statement of
the paper that the package reports on.  The suite, single-point reports,
witness replay and counterexample search all read it.  A record says once:

- how a chunk of suite trials draws from their seeded streams: a dict of
  columns with a leading trial axis (matrices (n, d, d), weights lambda
  (n, L), the columns of ``entropy`` and ``channels``) beside the values
  its trials share (the function, the variant);
- the margins of a chunk, (n,) or (n, L), each >= 0 where the statement
  holds, through the batched layers; one point is a chunk of one trial;
- how a point is stored as a witness and read back (its fields, in order),
  and how each value stands in a column (``Codec``);
- the tolerance a sweep's margins are judged by;
- whether it is gated to the function class of its variant, and the name of
  the report of one point.

``SWEEPS`` says which reports each check makes: the record each report
measures, the labels of its stream and its name; its keys, in order, are
``CHECK_NAMES``.  The rest is derived from the two tables:

- ``sweep`` runs one report: ``_scan`` makes one draw and one margin call
  per chunk of trials, then ``_worst`` refuses a NaN margin and picks the
  (trial, lambda) of the first strict minimum, whose point, sliced from its
  chunk, is the witness;
- ``run_suite`` runs the sweeps a ``RunConfig`` selects;
- ``check`` reports one given point: class gate, margin, tolerance, witness;
- ``replay_witness`` decodes a witness and recomputes its margin;
- ``counterexample_search`` is a sweep with a stop bound: its trials draw
  with the record's own draw (``_drawer``, shared with ``sweep``), in the
  trace form, and ``_scan`` runs stacks of 8, 16, 32, ... trials, stopped at
  the first margin below -SEARCH_TOL; ``_worst`` then picks that point, or
  the least one if no margin is below, as its witness.

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
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import __version__
from .catalog import C2, C3, OUTSIDE_CLASS, ScalarFunction, from_spec, is_affine
from .channels import (
    KrausChannel,
    monotonicity_gap,
    operator_jensen_gap,
    random_unital_channel,
)
from .characterizations import (
    CONDITION_E_SPECTRUM,
    FUNCTIONAL_NAMES,
    BivariateFunctional,
    condition_a_slack,
    condition_e_margin,
    conditional_jensen_gap,
    convexity_slack_at,
)
from .entropy import (
    MatrixEnsemble,
    ProductEnsemble,
    SPECTRAL_FLOOR,
    dual_gap,
    efron_stein_quantity,
    flatten,
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
    is_real,
    matrix_from_json,
    matrix_to_json,
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

# A search's first stack size: below it a margin call's fixed cost outweighs its
# points, and an early hit wastes at most 7 proposals.
_SEARCH_FLOOR = 8

# Every product ensemble a sweep draws has N_FACTORS factors of SUPPORT outcomes.
N_FACTORS, SUPPORT = 2, 2

# The checks neither swept nor searched for an affine phi, and why.
_INVERTS_DERIVATIVE = ("condition_a", "condition_e")
_AFFINE_REASON = "conditions (a) and (e) invert Dphi'[A], which is 0 as phi'' = 0"

# Records swept at d > 4 hold d^2 arrays, and map_C a d^3 grid (order-2 divided
# differences) per matrix, 7 a trial: _chunk(d) trials, 16 at d=8 and 2 at d=16, stack
# 7 * SWEEP_ENTRIES entries (0.5 MB) a margin call.  Condition (e), swept at d <= 4 and
# searched at any d, holds one d^4 grid a trial: d * SWEEP_ENTRIES, 1 MB at d=16.
SWEEP_ENTRIES = 2**13


def _chunk(d: int) -> int:
    """The most trials of dimension d one draw and margin call take."""
    return max(1, SWEEP_ENTRIES // d**3)


def _integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _tolerance(x) -> bool:
    """Whether x can judge margins: a finite number >= 0."""
    return is_real(x) and math.isfinite(x) and x >= 0


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

class Codec(NamedTuple):
    """A witness field between a point's value, its JSON form and its column.
    A stored witness is input from outside the program, so _decode_witness
    refuses a value that fails valid.  A value a chunk's trials share is its
    own column."""

    encode: Callable              # value -> JSON
    decode: Callable              # JSON -> value
    what: str                     # what a stored value must be
    valid: Callable               # the test of a stored value
    column: Callable = lambda value: value       # value -> its column of one trial
    entry: Callable = lambda column, n, j: column  # the value of trial n at weight j


def _json_object(cls) -> Codec:
    return Codec(lambda v: v.to_json_dict(), lambda data: cls.from_json_dict(data), "an object",
                 lambda x: isinstance(x, dict), lambda v: v.column,
                 lambda column, n, j: cls.row(column, n))


_AS_IS = (lambda x: x, lambda x: x)  # encode, decode of a value stored as it is
_P = Codec(*_AS_IS, "a finite number >= 1",
           lambda x: is_real(x) and math.isfinite(x) and x >= 1)
_LAMBDA = Codec(*_AS_IS, "a number in [0, 1]", lambda x: is_real(x) and 0 <= x <= 1,
                lambda x: np.array([[x]]), lambda column, n, j: float(column[n, j]))
_T = Codec(*_AS_IS, "null or a number in [0, 1]", lambda x: x is None or _LAMBDA.valid(x),
           lambda t: None if t is None else np.array([t]),
           lambda column, n, j: None if column is None else float(column[n]))
_VARIANT = Codec(*_AS_IS, "'trace' or 'operator'", lambda x: x in ("trace", "operator"))
_FUNCTIONAL = Codec(*_AS_IS, f"one of {FUNCTIONAL_NAMES}", lambda x: x in FUNCTIONAL_NAMES)
_PHI = Codec(lambda f: f.spec_string(), lambda s: from_spec(s, allow_outside_class=True),
             "a function spec", lambda s: isinstance(s, str))
_MATRIX = Codec(lambda A: matrix_to_json(A), lambda data: matrix_from_json(data), "an object",
                lambda x: isinstance(x, dict), lambda A: np.array([A]),
                lambda column, n, j: column[n])
_PRODUCT = _json_object(ProductEnsemble)
_ENSEMBLE = _json_object(MatrixEnsemble)
_CHANNEL = _json_object(KrausChannel)


@dataclass(frozen=True)
class Check:
    """One statement: its witness layout, margin, draw and tolerance.

    A point is a dict keyed like the witness that holds decoded values; a
    chunk holds the columns of its trials' points (Codec.column and entry).
    Sweeps and counterexample searches draw their chunks with the same draw.
    """

    fields: tuple                 # witness layout after "kind": (key, Codec) pairs
    name: str                     # report of one point, formatted with its witness
    # A chunk of a sweep's trials -> their margins (n,) or (n, L), >= 0 where it holds.
    margin: Callable
    draw: Callable                # (trials' generators, d, shared values) -> columns
    tolerance: Callable           # all margins -> tolerance
    class_gated: bool = True      # in class only for phi tagged for the variant


def _lambdas(rng) -> list:
    """Convex weights tried on each drawn pair: three fixed, two drawn."""
    return [0.25, 0.5, 0.75, float(rng.uniform()), float(rng.uniform())]


def _split(keys, mats: np.ndarray) -> dict:
    """The columns keyed by keys of matrices (n, len(keys), d, d), each
    contiguous, as the stack of its trials' matrices is alone."""
    return dict(zip(keys, np.ascontiguousarray(np.moveaxis(mats, 1, 0))))


def _efron_stein_terms(P: tuple) -> tuple:
    """The Efron-Stein quantity and the variance of each product of a column."""
    return efron_stein_quantity(P), variance(flatten(P))


def _poly_efron_stein_margins(chunk: dict) -> np.ndarray:
    q = chunk["p"]
    # The norms of every trial's two terms come from one stacked call.
    es, var = schatten_norm(np.concatenate(_efron_stein_terms(chunk["product"])), q
                            ).reshape(2, -1) ** q
    return es - var


def _convexity_tol(margins: list) -> float:
    return 1e-9 * (1.0 + max(abs(m) for m in margins))


def _relative_tol(margins: list) -> float:
    return 1e-9 * max(1.0, *(abs(m) for m in margins))


def _draw_pairs(rngs: list, d: int, base: dict) -> dict:
    mats = sample_psd(d, SPECTRAL_FLOOR, rngs, count=4)
    t = (np.array([rng.uniform(0.0, 1.0) for rng in rngs])
         if base["functional"] == "gap_F_t" else None)
    return {"t": t, "lambda": np.array([_lambdas(rng) for rng in rngs]),
            **_split(("u1", "v1", "u2", "v2"), mats)}


def _draw_condition_a(rngs: list, d: int, base: dict) -> dict:
    pairs = sample_psd(d, SPECTRAL_FLOOR, rngs, count=2)
    h = sample_hermitian_unit(d, rngs)
    return {"lambda": np.array([_lambdas(rng) for rng in rngs]), "h": h,
            **_split(("A1", "A2"), pairs)}


def _draw_channels(rngs: list, d: int) -> tuple:
    return random_unital_channel(d, [int(rng.integers(1, 5)) for rng in rngs], rngs)


def _draw_products(rngs: list, d: int, base: dict) -> dict:
    return {"product": sample_product(d, N_FACTORS, SUPPORT, rngs)}


CHECKS = {
    "subadditivity": Check(
        fields=(("phi", _PHI), ("variant", _VARIANT), ("product", _PRODUCT)),
        margin=lambda c: variant_margin(subadditivity_gap(c["phi"], c["product"]), c["variant"]),
        draw=_draw_products,
        tolerance=lambda margins: 1e-10,
        name="subadditivity[{phi},{variant}]"),
    "efron_stein": Check(
        fields=(("product", _PRODUCT),),
        margin=lambda c: variant_margin(np.subtract(*_efron_stein_terms(c["product"])),
                                        "operator"),
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
        margin=lambda c: variant_margin(dual_gap(c["phi"], c["Z"], c["T"]), c["variant"]),
        draw=lambda rngs, d, base: dict(zip(("Z", "T"), sample_coupled_ensembles(
            d, 3, rngs, spectral_floor=SPECTRAL_FLOOR))),
        tolerance=lambda margins: 1e-9,
        name="dual_representation[{phi},{variant}]"),
    # Items (b), (c), (d), (f): joint convexity of a bivariate functional.
    "joint_convexity": Check(
        fields=(("functional", _FUNCTIONAL), ("phi", _PHI), ("variant", _VARIANT), ("t", _T),
                ("lambda", _LAMBDA), ("u1", _MATRIX), ("v1", _MATRIX), ("u2", _MATRIX),
                ("v2", _MATRIX)),
        margin=lambda c: convexity_slack_at(
            BivariateFunctional(c["functional"], c["phi"], t=c["t"]),
            c["u1"], c["v1"], c["u2"], c["v2"], c["lambda"], c["variant"]),
        draw=_draw_pairs,
        tolerance=_convexity_tol,
        name="joint_convexity[{functional},{phi},{variant}]"),
    # Item (g).
    "conditional_jensen": Check(
        fields=(("phi", _PHI), ("variant", _VARIANT), ("product", _PRODUCT)),
        margin=lambda c: variant_margin(conditional_jensen_gap(c["phi"], c["product"]),
                                        c["variant"]),
        draw=_draw_products,
        tolerance=lambda margins: 1e-10,
        name="conditional_jensen[{phi},{variant}]"),
    "condition_a": Check(
        fields=(("phi", _PHI), ("lambda", _LAMBDA), ("A1", _MATRIX), ("A2", _MATRIX),
                ("h", _MATRIX)),
        margin=lambda c: condition_a_slack(c["phi"], c["A1"], c["A2"], c["h"], c["lambda"]),
        draw=_draw_condition_a,
        tolerance=_relative_tol,
        name="condition_a[{phi}]"),
    "condition_e": Check(
        fields=(("phi", _PHI), ("A", _MATRIX), ("h", _MATRIX), ("k", _MATRIX)),
        margin=lambda c: condition_e_margin(c["phi"], c["A"], c["h"], c["k"]),
        draw=lambda rngs, d, base: {
            "A": sample_psd(d, CONDITION_E_SPECTRUM[0], rngs, CONDITION_E_SPECTRUM[1]),
            "h": sample_hermitian_unit(d, rngs), "k": sample_hermitian_unit(d, rngs)},
        tolerance=_relative_tol,
        name="condition_e[{phi}]"),
    "monotonicity": Check(
        fields=(("phi", _PHI), ("variant", _VARIANT), ("channel", _CHANNEL),
                ("ensemble", _ENSEMBLE)),
        margin=lambda c: variant_margin(monotonicity_gap(c["phi"], c["channel"], c["ensemble"]),
                                        c["variant"]),
        draw=lambda rngs, d, base: {"channel": _draw_channels(rngs, d),
                                    "ensemble": sample_ensemble(d, 3, rngs)},
        tolerance=lambda margins: 1e-10,
        name="monotonicity[{phi},{variant}]"),
    # The "jensen" check: f(N(A)) <= N(f(A)) for a unital channel N.
    "operator_jensen": Check(
        fields=(("phi", _PHI), ("variant", _VARIANT), ("channel", _CHANNEL), ("A", _MATRIX)),
        margin=lambda c: variant_margin(operator_jensen_gap(c["phi"], c["channel"], c["A"]),
                                        c["variant"]),
        draw=lambda rngs, d, base: {"channel": _draw_channels(rngs, d),
                                    "A": sample_psd(d, SPECTRAL_FLOOR, rngs)},
        tolerance=lambda margins: 1e-10,
        name="operator_jensen[{phi},{variant}]"),
}

# The kind of each record a counterexample search falsifies, by the name it
# is searched under: joint convexity once per functional.
_SEARCH_KINDS = {**dict.fromkeys(FUNCTIONAL_NAMES, "joint_convexity"),
                 "condition_a": "condition_a", "condition_e": "condition_e"}
SEARCHABLE_CHECKS = tuple(_SEARCH_KINDS)


def _encode_witness(kind: str, point: dict) -> dict:
    """The witness of a point: its kind, then the record's fields in order."""
    return {"kind": kind, **{key: codec.encode(point[key])
                             for key, codec in CHECKS[kind].fields}}


def _point(kind: str, chunk: dict, n: int, j: int) -> dict:
    """The point of trial n of a chunk at its j-th weight lambda."""
    return {key: codec.entry(chunk[key], n, j) for key, codec in CHECKS[kind].fields}


def _column(kind: str, point: dict) -> dict:
    """The chunk of one trial that holds a point."""
    return {key: codec.column(point[key]) for key, codec in CHECKS[kind].fields}


def _margin(kind: str, point: dict) -> float:
    """The margin of one point: the record's on the point's chunk of one trial."""
    return float(np.ravel(CHECKS[kind].margin(_column(kind, point)))[0])


def _require_fields(kind: str, witness: dict) -> None:
    """Refuse a witness field that is missing or refused by its codec, and
    matrices of more than one dim: a ConfigError that names them."""
    for key, codec in CHECKS[kind].fields:
        if key not in witness or not codec.valid(witness[key]):
            got = f"got {witness[key]!r:.60}" if key in witness else "it is missing"
            raise ConfigError(f"witness field '{key}' must be {codec.what}; {got}")
    dims = [witness[key].get("dim") for key, codec in CHECKS[kind].fields if codec is _MATRIX]
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
    return {key: codec.decode(witness[key]) for key, codec in CHECKS[kind].fields}


def replay_witness(witness: dict) -> float:
    """Recompute the margin a stored witness claims; must match to 1e-12."""
    point = _decode_witness(witness)
    return _margin(witness["kind"], point)


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
    margin = _margin(kind, point)
    if tol is None:
        tol = record.tolerance([margin])
    return VerificationReport.from_margin(record.name.format(**witness), margin, tol,
                                          witness=witness)


# --- sweeps ------------------------------------------------------------------------


def _scan(draw: Callable, margins: Callable, rngs: Iterator, sizes: Iterator,
          bound: float = -np.inf) -> list:
    """(chunk, margin rows) of each stack of generators (of the given sizes):
    the chunk drawn from them, and one row of margins per trial, in order,
    up to the first trial with a margin below bound, which ends the scan.

    Each chunk is one draw and one margin call.  A trial draws from its own
    stream and its margins do not depend on its chunk, so this is drawing
    and evaluating one trial at a time.
    """
    scanned = []
    for size in sizes:
        rng_stack = list(itertools.islice(rngs, size))
        if not rng_stack:
            break
        chunk, rows = draw(rng_stack), []
        scanned.append((chunk, rows))
        for row in margins(chunk):
            rows.append(row)
            if min(row) < bound:
                return scanned
    return scanned


def _rows(margins) -> list:
    """Margins (n,) or (n, L) of a chunk as one list of floats per trial."""
    margins = np.asarray(margins, dtype=float)
    return margins.reshape(len(margins), -1).tolist()


def _worst(kind: str, name: str, scanned: list) -> tuple:
    """(trials, least margin, witness) of a scan of record kind's chunks: the
    first strict minimum, or (inf, None) when no margin is below inf.  A NaN
    margin, which no comparison reads as a violation, is a DomainError that
    names the report and the trial."""
    trials, best = 0, (None, 0, 0, np.inf)
    for chunk, rows in scanned:
        for n, row in enumerate(rows):
            if any(map(math.isnan, row)):
                raise DomainError(f"{name}: trial {trials + n} has a NaN margin")
            for j, margin in enumerate(row):
                if margin < best[3]:
                    best = (chunk, n, j, margin)
        trials += len(rows)
    chunk, n, j, least = best
    witness = None if chunk is None else _encode_witness(kind, _point(kind, chunk, n, j))
    return trials, least, witness


def _drawer(record: Check, base: dict, d: int) -> Callable:
    """A chunk of trials from a stack of their generators: the values they
    share (base), then the columns the record draws."""
    return lambda rngs: {**base, **record.draw(rngs, d, base)}


def sweep(config: RunConfig, check: str, s: Sweep, f: ScalarFunction | None,
          variant: str, d: int) -> VerificationReport:
    """Run one report: every trial's margins, the worst and its witness.

    The trials are scanned in order, _chunk(d) to a draw and margin call,
    and judged by _worst.  A tolerance set in the config for the check
    replaces the record's rule, whatever its value.
    """
    record = CHECKS[s.kind]
    base = {"phi": f, "variant": variant, **s.fixed}
    labels = {**base, "phi": None if f is None else f.spec_string(), "d": d, "n": N_FACTORS}
    rngs = (rng_for(config.seed, check, *(labels[key] for key in s.key), trial)
            for trial in range(config.trials))
    scanned = _scan(_drawer(record, base, d), lambda chunk: _rows(record.margin(chunk)), rngs,
                    itertools.repeat(_chunk(d)))
    name = s.name.format(**labels)
    _, worst, witness = _worst(s.kind, name, scanned)
    tol = config.tolerances.get(check)
    if tol is None:
        tol = record.tolerance([m for _, rows in scanned for row in rows for m in row])
    return VerificationReport.from_margin(name, worst, tol, trials=config.trials,
                                          witness=witness)


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
                elif check in _INVERTS_DERIVATIVE and is_affine(f):
                    skipped.append({"check_name": s.name.format(phi=name, d=d),
                                    "reason": _AFFINE_REASON})
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


def _margin_in_domain(kind: str, point: dict) -> float:
    """The margin of one point, or +inf for a point out of the domain (one
    that raises), which a search treats as non-violating."""
    try:
        return _margin(kind, point)
    except PhiLabError:
        return np.inf


def _search_rows(kind: str, chunk: dict) -> Iterator:
    """Rows of margins of a search chunk.  A chunk that raises is evaluated
    again one (trial, weight) point at a time as its rows are read, so each
    trial keeps its row, and rows never read are not evaluated."""
    try:
        return iter(_rows(CHECKS[kind].margin(chunk)))
    except PhiLabError:
        trials = len(next(chunk[key] for key, codec in CHECKS[kind].fields if codec is _MATRIX))
        weights = chunk["lambda"].shape[1] if "lambda" in chunk else 1
        return ([_margin_in_domain(kind, _point(kind, chunk, n, j)) for j in range(weights)]
                for n in range(trials))


def counterexample_search(f: ScalarFunction, check_name: str, budget: int, seed: int,
                          dim: int = 1) -> VerificationReport:
    """Random search for a check violation.

    A success is a point whose margin falls below -SEARCH_TOL, the tolerance
    its report is judged by; the first one is stored as a replayable witness.
    Budget exhaustion reports holds=True with the trial count and the first
    point of least margin; that is evidence, not a proof.  Conditions (a) and
    (e) of an affine f, out of their domain at every point, are a ConfigError.

    A trial is drawn from its own stream by the record's draw, as a sweep
    trial in the trace form: matrices from SPECTRAL_FLOOR (condition (e)'s A
    in CONDITION_E_SPECTRUM), unit Hermitian directions, the sweep's five
    weights lambda and, for gap_F_t, t in [0, 1].  The search is a sweep with
    a stop bound: _scan on stacks of 8, 16, 32, ... trials up to a sweep's
    chunk, stopped at the first success; the trials after it in its stack
    count for nothing, and the stack sizes set only the number of margin
    calls.  Every margin before a success is at least -SEARCH_TOL, so _worst
    picks the witness either way, as in a sweep.
    """
    if check_name not in SEARCHABLE_CHECKS:
        raise ConfigError(
            f"'{check_name}' is not searchable; choose from {SEARCHABLE_CHECKS}")
    for name, value in (("dim", dim), ("budget", budget), ("seed", seed)):
        if not _integer(value):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    if not 1 <= dim <= 16:
        raise ConfigError(f"dim must be in [1, 16], got {dim}")
    if budget < 1:
        raise ConfigError(f"budget must be >= 1, got {budget}")
    if check_name in _INVERTS_DERIVATIVE and is_affine(f):
        raise ConfigError(f"cannot search {check_name} for '{f.spec_string()}': {_AFFINE_REASON}")
    kind, phi = _SEARCH_KINDS[check_name], f.spec_string()
    base = {"phi": f, "variant": "trace", "functional": check_name}
    rngs = (rng_for(seed, "search", check_name, phi, dim, trial) for trial in range(budget))
    doubling = (min(_SEARCH_FLOOR * 2**i, _chunk(dim)) for i in itertools.count())
    scanned = _scan(_drawer(CHECKS[kind], base, dim), lambda chunk: _search_rows(kind, chunk),
                    rngs, doubling, -SEARCH_TOL)
    name = f"counterexample_search[{check_name},{phi},d={dim}]"
    trials, margin, witness = _worst(kind, name, scanned)
    return VerificationReport.from_margin(
        name, margin, SEARCH_TOL, trials=trials,
        witness=None if witness is None else {"phi": phi, "dim": dim, "margin": margin, **witness})
