"""Entropy functionals of finitely-supported random matrices.

Trace-valued and operator-valued Jensen gaps, conditional entropies over
product spaces, the operator variance, resampling (Efron-Stein style)
quantities, and the dual lower-bound representation.  All expectations are
exact finite sums, so the inequalities under test carry no sampling error.

This module gives the gaps of subadditivity, Efron-Stein and the dual
representation; their margins and reports come from ``suite.check`` and
the suite's check registry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .catalog import ScalarFunction
from .errors import DimensionMismatchError, DomainError
from .frechet import frechet_d1
from .reports import VerificationReport
from .spectral import (
    apply_scalar_function,
    apply_scalar_function_stack,
    frobenius,
    hermitian_part,
    matrix_from_json,
    matrix_to_json,
    normalized_trace,
    validate_hermitian,
    variant_margin,
)

WEIGHT_TOL = 1e-12
PSD_RTOL = 1e-10

# Ensembles fed to derivative-touching operations must keep their spectra
# above this floor; first derivatives of the catalog entropies diverge at 0.
SPECTRAL_FLOOR = 1e-3


def _check_weights(w: np.ndarray, what: str) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise DomainError(f"{what} must be a non-empty weight vector")
    if np.any(w < -WEIGHT_TOL) or np.any(w > 1.0 + WEIGHT_TOL):
        raise DomainError(f"{what} must lie in [0, 1]")
    if abs(float(w.sum()) - 1.0) > WEIGHT_TOL:
        raise DomainError(f"{what} must sum to 1, got {float(w.sum()):.15g}")
    return w


def _check_psd(A: np.ndarray, what: str) -> None:
    lam_min = float(np.linalg.eigvalsh(A)[0])
    if lam_min < -PSD_RTOL * (1.0 + frobenius(A)):
        raise DomainError(f"{what} is not positive semi-definite: min eigenvalue {lam_min:.3e}")


@dataclass(frozen=True)
class MatrixEnsemble:
    """Finitely-supported random PSD matrix: weights and a stack of atoms."""

    weights: np.ndarray
    atoms: np.ndarray

    def __post_init__(self):
        w = _check_weights(self.weights, "ensemble weights")
        atoms = np.asarray(self.atoms, dtype=complex)
        if atoms.ndim != 3 or atoms.shape[0] != w.size or atoms.shape[1] != atoms.shape[2]:
            raise DimensionMismatchError(
                f"atoms must have shape (m, d, d) matching {w.size} weights, got {atoms.shape}"
            )
        for idx in range(atoms.shape[0]):
            validate_hermitian(atoms[idx], f"atom {idx}")
            _check_psd(atoms[idx], f"atom {idx}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "atoms", atoms)

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def support(self) -> int:
        return self.atoms.shape[0]

    def spectral_floor(self) -> float:
        return float(np.linalg.eigvalsh(self.atoms)[:, 0].min())

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "atoms": [
                {"w": float(w), "m": matrix_to_json(a)}
                for w, a in zip(self.weights, self.atoms)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MatrixEnsemble":
        atoms = data.get("atoms")
        if not atoms:
            raise DomainError("ensemble JSON needs a non-empty 'atoms' list")
        weights = np.array([float(entry["w"]) for entry in atoms])
        mats = np.stack([matrix_from_json(entry["m"]) for entry in atoms])
        return cls(weights, mats)


@dataclass(frozen=True)
class ProductEnsemble:
    """Random matrix driven by n independent finite factors.

    factor_weights[i] holds the outcome weights of factor i; z_map sends a
    full outcome tuple to a PSD matrix.  The table must be total.
    """

    factor_weights: tuple
    z_map: dict = field(repr=False)

    def __post_init__(self):
        weights = tuple(
            _check_weights(np.asarray(w, dtype=float), f"factor {i} weights")
            for i, w in enumerate(self.factor_weights)
        )
        if not weights:
            raise DomainError("product ensemble needs at least one factor")
        z = {}
        dim = None
        for key in itertools.product(*(range(len(w)) for w in weights)):
            if key not in self.z_map:
                raise DomainError(f"z_map is missing outcome {key}")
            A = validate_hermitian(self.z_map[key], f"z_map[{key}]")
            _check_psd(A, f"z_map[{key}]")
            if dim is None:
                dim = A.shape[0]
            elif A.shape[0] != dim:
                raise DimensionMismatchError(
                    f"z_map[{key}] has dim {A.shape[0]}, expected {dim}"
                )
            z[key] = A
        object.__setattr__(self, "factor_weights", weights)
        object.__setattr__(self, "z_map", z)

    @property
    def n(self) -> int:
        return len(self.factor_weights)

    @property
    def dim(self) -> int:
        return next(iter(self.z_map.values())).shape[0]

    @property
    def support_sizes(self) -> tuple:
        return tuple(len(w) for w in self.factor_weights)

    def outcomes(self):
        return itertools.product(*(range(len(w)) for w in self.factor_weights))

    def probability(self, key) -> float:
        p = 1.0
        for i, s in enumerate(key):
            p *= float(self.factor_weights[i][s])
        return p

    def flatten(self) -> MatrixEnsemble:
        keys = list(self.outcomes())
        weights = np.array([self.probability(k) for k in keys])
        weights = weights / weights.sum()
        return MatrixEnsemble(weights, np.stack([self.z_map[k] for k in keys]))

    def slice_over_factor(self, i: int, fixed: tuple) -> MatrixEnsemble:
        """Ensemble in factor i's randomness with the other factors pinned."""
        self._check_index(i)
        fixed = tuple(fixed)
        if len(fixed) != self.n - 1:
            raise DomainError(
                f"fixed tuple must pin the other {self.n - 1} factors, got {len(fixed)}"
            )
        atoms = []
        for s in range(len(self.factor_weights[i])):
            key = fixed[:i] + (s,) + fixed[i:]
            if key not in self.z_map:
                raise DomainError(f"invalid fixed outcome: {key} not in z_map")
            atoms.append(self.z_map[key])
        return MatrixEnsemble(np.asarray(self.factor_weights[i]), np.stack(atoms))

    def slice_over_complement(self, i: int, fixed_outcome: int) -> MatrixEnsemble:
        """Ensemble in the randomness of all factors but i, with X_i pinned."""
        self._check_index(i)
        if not (0 <= fixed_outcome < len(self.factor_weights[i])):
            raise DomainError(f"factor {i} has no outcome {fixed_outcome}")
        others = [j for j in range(self.n) if j != i]
        keys, weights, atoms = [], [], []
        for combo in itertools.product(*(range(len(self.factor_weights[j])) for j in others)):
            key = list(combo)
            key.insert(i, fixed_outcome)
            key = tuple(key)
            keys.append(key)
            weights.append(np.prod([self.factor_weights[j][c] for j, c in zip(others, combo)])
                           if others else 1.0)
            atoms.append(self.z_map[key])
        w = np.asarray(weights, dtype=float)
        return MatrixEnsemble(w / w.sum(), np.stack(atoms))

    def _check_index(self, i: int) -> None:
        if not (0 <= i < self.n):
            raise DomainError(f"factor index {i} out of range [0, {self.n})")

    def to_json_dict(self) -> dict:
        return {
            "factors": [list(map(float, w)) for w in self.factor_weights],
            "z": {
                ",".join(map(str, key)): matrix_to_json(self.z_map[key])
                for key in self.outcomes()
            },
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ProductEnsemble":
        factors = data.get("factors")
        z = data.get("z")
        if not factors or z is None:
            raise DomainError("product JSON needs 'factors' and 'z'")
        z_map = {
            tuple(int(p) for p in key.split(",")): matrix_from_json(m)
            for key, m in z.items()
        }
        return cls(tuple(np.asarray(w, dtype=float) for w in factors), z_map)


def _check_variant(variant: str) -> None:
    if variant not in ("trace", "operator"):
        raise DomainError(f"variant must be 'trace' or 'operator', got '{variant}'")


# --- expectations and entropies -----------------------------------------------


def expectation(E: MatrixEnsemble) -> np.ndarray:
    """Mean matrix of the ensemble; PSD by convexity of the atoms."""
    return hermitian_part(np.einsum("m,mij->ij", E.weights, E.atoms))


def _mean_phi(f: ScalarFunction, E: MatrixEnsemble) -> np.ndarray:
    phis = apply_scalar_function_stack(f, E.atoms)
    return np.einsum("m,mij->ij", E.weights, phis)


def operator_phi_entropy(f: ScalarFunction, E: MatrixEnsemble) -> np.ndarray:
    """Jensen gap E f(Z) - f(E Z) as a Hermitian matrix."""
    gap = _mean_phi(f, E) - apply_scalar_function(f, expectation(E))
    return hermitian_part(gap)


def matrix_phi_entropy(f: ScalarFunction, E: MatrixEnsemble) -> float:
    """Normalized trace of the Jensen gap; nonnegative for convex f."""
    return normalized_trace(operator_phi_entropy(f, E))


def conditional_entropy(f: ScalarFunction, P: ProductEnsemble, i: int, fixed,
                        variant: str = "trace", integrate_over: str = "factor_i"):
    """Entropy of the conditional slice of a product ensemble.

    integrate_over="factor_i" integrates over factor i with the remaining
    factors pinned at `fixed` (a tuple of n-1 outcomes).  "complement"
    integrates over every factor but i, with X_i pinned at the single
    outcome `fixed`.
    """
    _check_variant(variant)
    if integrate_over == "factor_i":
        E = P.slice_over_factor(i, tuple(np.atleast_1d(fixed)))
    elif integrate_over == "complement":
        E = P.slice_over_complement(i, int(fixed))
    else:
        raise DomainError(f"integrate_over must be 'factor_i' or 'complement', got '{integrate_over}'")
    if variant == "trace":
        return matrix_phi_entropy(f, E)
    return operator_phi_entropy(f, E)


def _complement_outcomes(P: ProductEnsemble, i: int):
    """Outcome tuples of the factors other than i, with their probabilities."""
    others = [j for j in range(P.n) if j != i]
    for combo in itertools.product(*(range(len(P.factor_weights[j])) for j in others)):
        p = 1.0
        for j, c in zip(others, combo):
            p *= float(P.factor_weights[j][c])
        yield combo, p


def subadditivity_gap(f: ScalarFunction, P: ProductEnsemble, variant: str) -> np.ndarray:
    """sum_i E[conditional entropy] - total entropy, as an operator.

    Evaluates f over the outcome stack once and batches the per-slice
    means, so the n = 1 gap cancels exactly (identical code paths on both
    sides of the difference).
    """
    keys = list(P.outcomes())
    index = {k: i for i, k in enumerate(keys)}
    atoms = np.stack([P.z_map[k] for k in keys])
    probs = np.array([P.probability(k) for k in keys])
    phis = apply_scalar_function_stack(f, atoms)

    mean_phi = np.einsum("m,mij->ij", probs, phis)
    mean_z = hermitian_part(np.einsum("m,mij->ij", probs, atoms))

    cond_probs, cond_mean_phis, cond_means = [], [], []
    for i in range(P.n):
        w = np.asarray(P.factor_weights[i])
        for fixed, p in _complement_outcomes(P, i):
            idxs = [index[fixed[:i] + (s,) + fixed[i:]] for s in range(len(w))]
            cond_probs.append(p)
            cond_mean_phis.append(np.einsum("m,mij->ij", w, phis[idxs]))
            cond_means.append(hermitian_part(np.einsum("m,mij->ij", w, atoms[idxs])))

    phi_of_means = apply_scalar_function_stack(f, np.stack(cond_means + [mean_z]))
    total = mean_phi - phi_of_means[-1]
    acc = np.zeros_like(total)
    for p, mphi, pofm in zip(cond_probs, cond_mean_phis, phi_of_means[:-1]):
        acc = acc + p * (mphi - pofm)
    return hermitian_part(acc - total)


# --- variance and resampling quantities ----------------------------------------


def variance(E: MatrixEnsemble) -> np.ndarray:
    """Operator-valued variance E Z^2 - (E Z)^2."""
    second = np.einsum("m,mij->ij", E.weights, E.atoms @ E.atoms)
    mean = expectation(E)
    return hermitian_part(second - mean @ mean)


def efron_stein_quantity(P: ProductEnsemble) -> np.ndarray:
    """Half the expected sum of squared single-factor resampling differences.

    Exact double sum over each factor's support pairs.
    """
    keys = list(P.outcomes())
    index = {k: i for i, k in enumerate(keys)}
    atoms = np.stack([P.z_map[k] for k in keys])
    acc = np.zeros((P.dim, P.dim), dtype=complex)
    for i in range(P.n):
        w = np.asarray(P.factor_weights[i])
        for fixed, p in _complement_outcomes(P, i):
            idxs = [index[fixed[:i] + (s,) + fixed[i:]] for s in range(len(w))]
            sub = atoms[idxs]
            diffs = sub[:, None] - sub[None, :]
            acc = acc + 0.5 * p * np.einsum("s,t,stij->ij", w, w, diffs @ diffs)
    return hermitian_part(acc)


# --- dual representation --------------------------------------------------------


def _check_coupled(Z: MatrixEnsemble, T: MatrixEnsemble) -> None:
    if Z.dim != T.dim or Z.support != T.support:
        raise DimensionMismatchError("coupled ensembles must share dim and support size")
    if np.max(np.abs(Z.weights - T.weights)) > WEIGHT_TOL:
        raise DomainError("coupled ensembles must share sample-space weights")


def _require_pd(E: MatrixEnsemble, f: ScalarFunction, what: str) -> None:
    """E's atoms must be positive definite, and above SPECTRAL_FLOOR when f's
    derivative needs it; the smallest eigenvalue is computed once for both."""
    floor = E.spectral_floor()
    if floor <= 0.0:
        raise DomainError(f"{what} atoms must be strictly positive definite, "
                          f"got min eigenvalue {floor:.3e}")
    if f.deriv_floor > 0.0 and floor < SPECTRAL_FLOOR:
        raise DomainError(
            f"{what} with '{f.name}' needs atom spectra >= {SPECTRAL_FLOOR:g}, "
            f"got min eigenvalue {floor:.3e}"
        )


def dual_value(f: ScalarFunction, Z: MatrixEnsemble, T: MatrixEnsemble) -> np.ndarray:
    """Lower-bound functional of the dual representation, as an operator.

    E[Df[T](Z-T) - Df[ET](Z-T) + f(T) - f(ET)], all expectations exact.
    """
    mean_T = expectation(T)
    diff = Z.atoms - T.atoms
    acc = np.zeros((Z.dim, Z.dim), dtype=complex)
    for w, t_atom, d_atom in zip(Z.weights, T.atoms, diff):
        acc = acc + w * frechet_d1(f, t_atom, d_atom)
    mean_diff = hermitian_part(np.einsum("m,mij->ij", Z.weights, diff))
    acc = acc - frechet_d1(f, mean_T, mean_diff)
    acc = acc + _mean_phi(f, T) - apply_scalar_function(f, mean_T)
    return hermitian_part(acc)


def dual_gap(f: ScalarFunction, Z: MatrixEnsemble, T: MatrixEnsemble) -> np.ndarray:
    """Entropy minus the dual lower bound, as an operator; zero when T is Z.

    T must be coupled to Z (same weights) and positive definite, with its
    spectrum above the floor when f's derivative needs one.
    """
    _check_coupled(Z, T)
    _require_pd(T, f, "dual representation T")
    return operator_phi_entropy(f, Z) - dual_value(f, Z, T)


def interpolation_derivative_scan(f: ScalarFunction, Z: MatrixEnsemble, T: MatrixEnsemble,
                                  grid=None, variant: str = "operator",
                                  tol: float | None = None) -> VerificationReport:
    """Check the dual functional is nonincreasing along the segment Z -> T.

    Evaluates F(s) on the grid and verifies F(s1) >= F(s2) for s1 < s2 in
    the PSD order (or as scalars for the trace variant).
    """
    _check_variant(variant)
    _check_coupled(Z, T)
    _require_pd(T, f, "interpolation scan T")
    _require_pd(Z, f, "interpolation scan Z")
    if grid is None:
        grid = np.linspace(0.0, 1.0, 11)
    grid = sorted(float(s) for s in grid)
    values = []
    for s in grid:
        T_s = MatrixEnsemble(Z.weights, (1.0 - s) * Z.atoms + s * T.atoms)
        values.append(hermitian_part(dual_value(f, Z, T_s)))
    scale = 1.0 + max(frobenius(v) for v in values)
    if tol is None:
        tol = 1e-9 * scale
    margin = np.inf
    for prev, nxt in zip(values, values[1:]):
        step_margin = variant_margin(prev - nxt, variant)
        margin = min(margin, step_margin)
    return VerificationReport.from_margin(
        f"interpolation_scan[{f.spec_string()},{variant}]", margin, tol,
        trials=len(grid) - 1,
        witness={"kind": "interpolation_scan", "phi": f.spec_string(), "variant": variant,
                 "grid": list(grid), "Z": Z.to_json_dict(), "T": T.to_json_dict()},
    )
