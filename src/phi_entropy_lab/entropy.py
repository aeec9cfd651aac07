"""Entropy functionals of finitely-supported random matrices.

Trace-valued and operator-valued Jensen gaps, the subadditivity gap over
product spaces, the operator variance, resampling (Efron-Stein style)
quantities, and the dual lower-bound representation.  All expectations are
exact finite sums, so the inequalities under test carry no sampling error.

This module gives the gaps of subadditivity, Efron-Stein and the dual
representation; their margins and reports come from ``suite.check`` and
the suite's check registry.  Each gap also takes a list of ensembles of one
layout and returns a stack of gaps: the ensembles' atoms are then one stack
through every layer.

Checks run in full in the constructors (and so on decoded JSON), once per
sweep chunk in each class's ``stack``, and never on values derived here
from checked objects (``flatten``, the decompositions in ``dual_value``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .catalog import ScalarFunction
from .errors import DimensionMismatchError, DomainError, PhiLabError
from .frechet import frechet_d1
from .spectral import (
    SpectralDecomposition,
    apply_scalar_function,
    apply_scalar_function_stack,
    frobenius,
    hermitian_part,
    matrices_from_json,
    matrix_from_json,
    matrix_to_json,
    normalized_trace,
    validate_hermitian,
)

WEIGHT_TOL = 1e-12
PSD_RTOL = 1e-10

# Ensembles fed to derivative-touching operations must keep their spectra
# above this floor; first derivatives of the catalog entropies diverge at 0.
SPECTRAL_FLOOR = 1e-3


def _check_weights(rows, what: str) -> np.ndarray:
    """Weight rows (n, m), each a probability vector, checked at once; the
    first bad row raises what it raises alone (NaN fails every comparison)."""
    w = np.asarray(rows, dtype=float)
    if w.ndim != 2 or w.shape[1] == 0:
        raise DomainError(f"{what} must be a non-empty weight vector")
    sums = w.sum(axis=1)
    bad = ~((w >= -WEIGHT_TOL).all(axis=1) & (w <= 1.0 + WEIGHT_TOL).all(axis=1)
            & (np.abs(sums - 1.0) <= WEIGHT_TOL))
    if bad.any():
        row, total = w[np.argmax(bad)], float(sums[np.argmax(bad)])
        if not np.isfinite(row).all():
            raise DomainError(f"{what} must be finite, got {row.tolist()}")
        if np.any(row < -WEIGHT_TOL) or np.any(row > 1.0 + WEIGHT_TOL):
            raise DomainError(f"{what} must lie in [0, 1]")
        raise DomainError(f"{what} must sum to 1, got {total:.15g}")
    return w


def checked_atoms(mats, name) -> np.ndarray:
    """The Hermitian PSD matrices mats (a list or stack) as one stack, checked at once.

    When the stack fails, each matrix is checked alone, in order, so the
    error is the one the first offending matrix raises, named name(i).
    """
    if isinstance(mats, np.ndarray) or (
            len({np.shape(M) for M in mats}) == 1 and np.ndim(mats[0]) == 2):
        atoms = np.asarray(mats, dtype=complex)
        try:
            validate_hermitian(atoms)
            lam_min = np.linalg.eigvalsh(atoms)[:, 0]
            if not any(
                    lam_min[i] < -PSD_RTOL * (1.0 + frobenius(atoms[i]))
                    for i in np.flatnonzero(lam_min < 0.0)):
                return atoms
        except PhiLabError:
            pass
    dim = None
    for i, M in enumerate(mats):
        A = validate_hermitian(M, name(i))
        lam_min = float(np.linalg.eigvalsh(A)[0])
        if lam_min < -PSD_RTOL * (1.0 + frobenius(A)):
            raise DomainError(f"{name(i)} is not positive semi-definite: "
                              f"min eigenvalue {lam_min:.3e}")
        if dim not in (None, A.shape[0]):
            raise DimensionMismatchError(f"{name(i)} has dim {A.shape[0]}, expected {dim}")
        dim = A.shape[0]
    return np.asarray(mats, dtype=complex)


def _set(obj, values: dict):
    """obj, a frozen dataclass instance, with the checked field values set."""
    for key, value in values.items():
        object.__setattr__(obj, key, value)
    return obj


@dataclass(frozen=True)
class MatrixEnsemble:
    """Finitely-supported random PSD matrix: weights and a stack of atoms."""

    weights: np.ndarray
    atoms: np.ndarray

    def __post_init__(self):
        _set(self, vars(self.stack(np.asarray(self.weights, dtype=float)[None],
                                   np.asarray(self.atoms, dtype=complex)[None])[0]))

    @classmethod
    def stack(cls, weights, atoms) -> list:
        """The ensembles of weight rows (n, m) and atoms (n, m, d, d), checked
        as one stack; each raises what it raises alone, naming its atom."""
        w = _check_weights(weights, "ensemble weights")
        atoms = np.asarray(atoms, dtype=complex)
        if atoms.ndim != 4 or atoms.shape[:2] != w.shape or atoms.shape[2] != atoms.shape[3]:
            raise DimensionMismatchError(f"atoms must have shape (m, d, d) matching "
                                         f"{w.shape[1]} weights, got {atoms.shape[1:]}")
        m = w.shape[1]
        flat = checked_atoms(atoms.reshape((w.size,) + atoms.shape[2:]), lambda i: f"atom {i % m}")
        return [_set(object.__new__(cls), {"weights": wi, "atoms": ai})
                for wi, ai in zip(w, flat.reshape(atoms.shape))]

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
        try:
            weights = np.array([float(entry["w"]) for entry in atoms])
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"each ensemble atom needs a numeric 'w': {exc}") from exc
        return cls(weights, matrices_from_json([entry.get("m") for entry in atoms],
                                               "ensemble atoms"))


@dataclass(frozen=True)
class ProductEnsemble:
    """Random matrix driven by n independent finite factors.

    factor_weights[i] holds the outcome weights of factor i; z_map sends a
    full outcome tuple to a PSD matrix.  The table must be total.  atoms
    holds z_map's matrices in outcome order, as one stack.
    """

    factor_weights: tuple
    z_map: dict = field(repr=False)
    atoms: np.ndarray = field(init=False, repr=False, compare=False)
    joint_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _set(self, vars(self.stack([np.asarray(w, dtype=float)[None]
                                    for w in self.factor_weights], [self.z_map])[0]))

    @classmethod
    def stack(cls, factor_rows, z_maps) -> list:
        """The products of factor weight rows [(n, s_i)] and n outcome tables, checked
        as one stack; each raises what it raises alone, naming its outcome."""
        rows = [_check_weights(w, f"factor {i} weights") for i, w in enumerate(factor_rows)]
        if not rows:
            raise DomainError("product ensemble needs at least one factor")
        keys = list(itertools.product(*(range(w.shape[1]) for w in rows)))
        missing = [key for z_map in z_maps for key in keys if key not in z_map]
        if missing:
            raise DomainError(f"z_map is missing outcome {missing[0]}")
        flat = checked_atoms([z_map[key] for z_map in z_maps for key in keys],
                             lambda i: f"z_map[{keys[i % len(keys)]}]")
        atoms = flat.reshape((len(z_maps), len(keys)) + flat.shape[1:])
        # Each outcome's probability, its factors' weights multiplied from the first on.
        joint = rows[0]
        for w in rows[1:]:
            joint = (joint[:, :, None] * w[:, None, :]).reshape(len(w), -1)
        return [_set(object.__new__(cls), {
            "factor_weights": tuple(w[n] for w in rows), "z_map": dict(zip(keys, atoms[n])),
            "atoms": atoms[n], "joint_weights": joint[n]}) for n in range(len(z_maps))]

    @property
    def n(self) -> int:
        return len(self.factor_weights)

    @property
    def dim(self) -> int:
        return self.atoms.shape[-1]

    @property
    def support_sizes(self) -> tuple:
        return tuple(len(w) for w in self.factor_weights)

    def outcomes(self):
        return itertools.product(*(range(len(w)) for w in self.factor_weights))

    def flatten(self) -> MatrixEnsemble:
        """The ensemble of the outcomes, built from the product's checked values."""
        return _set(object.__new__(MatrixEnsemble), {
            "weights": self.joint_weights / self.joint_weights.sum(), "atoms": self.atoms})

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
        if not factors or not isinstance(z, dict):
            raise DomainError("product JSON needs 'factors' and a 'z' object")
        try:
            weights = tuple(np.asarray(w, dtype=float) for w in factors)
            keys = [tuple(int(p) for p in key.split(",")) for key in z]
        except (TypeError, ValueError) as exc:
            raise DomainError(f"malformed product JSON: {exc}") from exc
        P = cls(weights, {key: matrix_from_json(m) for key, m in zip(keys, z.values())})
        if sorted(keys) != sorted(P.z_map):  # a key named twice, or not an outcome
            raise DomainError(f"product JSON 'z' must name each outcome once, got {list(z)}")
        return P


# --- expectations and entropies -----------------------------------------------


def _mean(weights: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    """Weighted sum over the atoms (..., m, d, d), weights (..., m)."""
    return np.einsum("...m,...mij->...ij", weights, atoms)


def ensemble_arrays(E) -> tuple:
    """Weights and atoms of an ensemble; for a list of ensembles of one shape,
    both stacked along a new leading axis."""
    if isinstance(E, MatrixEnsemble):
        return E.weights, E.atoms
    shapes = sorted({e.atoms.shape for e in E})
    if len(shapes) > 1:
        raise DimensionMismatchError(f"ensembles taken together must share one shape "
                                     f"(atoms, d, d), got {shapes}")
    return np.stack([e.weights for e in E]), np.stack([e.atoms for e in E])


def jensen_gap(f: ScalarFunction, weights: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    """E f(Z) - f(E Z) as a Hermitian matrix for weights (..., m) and atoms
    (..., m, d, d): one gap per leading index."""
    mean_phi = _mean(weights, apply_scalar_function_stack(f, atoms))
    mean = hermitian_part(_mean(weights, atoms))
    return hermitian_part(mean_phi - apply_scalar_function(f, mean))


def operator_phi_entropy(f: ScalarFunction, E) -> np.ndarray:
    """Jensen gap E f(Z) - f(E Z) as a Hermitian matrix; a stack of them for
    a list of ensembles of one shape."""
    return jensen_gap(f, *ensemble_arrays(E))


def matrix_phi_entropy(f: ScalarFunction, E: MatrixEnsemble) -> float:
    """Normalized trace of the Jensen gap; nonnegative for convex f."""
    return normalized_trace(operator_phi_entropy(f, E))


def _products(P) -> list:
    """A product ensemble, or a list of them, as a list of one layout."""
    products = [P] if isinstance(P, ProductEnsemble) else list(P)
    layout = (products[0].support_sizes, products[0].dim)
    if any((Q.support_sizes, Q.dim) != layout for Q in products):
        raise DimensionMismatchError("product ensembles taken together must share one layout")
    return products


def _slices(products: list):
    """Every conditional slice of the products: for each factor i and each
    outcome of the others, the factor's weights (B, s), the indices of the
    slice's outcomes and the probability of the pinned outcome (B,)."""
    first = products[0]
    index = {key: n for n, key in enumerate(first.outcomes())}
    for i in range(first.n):
        w = np.stack([Q.factor_weights[i] for Q in products])
        others = [j for j in range(first.n) if j != i]
        for fixed in itertools.product(*(range(first.support_sizes[j]) for j in others)):
            p = np.ones(len(products))
            for j, c in zip(others, fixed):
                p = p * np.array([Q.factor_weights[j][c] for Q in products])
            yield w, [index[fixed[:i] + (s,) + fixed[i:]] for s in range(w.shape[-1])], p


def subadditivity_gap(f: ScalarFunction, P) -> np.ndarray:
    """sum_i E[conditional entropy] - total entropy, as an operator.

    Evaluates f over the outcome stack once and batches the per-slice
    means, so the n = 1 gap cancels exactly (identical code paths on both
    sides of the difference).  A list of products of one layout gives a
    stack of gaps.
    """
    products = _products(P)
    atoms = np.stack([Q.atoms for Q in products])
    probs = np.stack([Q.joint_weights for Q in products])
    phis = apply_scalar_function_stack(f, atoms)

    mean_phi = _mean(probs, phis)
    mean_z = hermitian_part(_mean(probs, atoms))

    cond_probs, cond_mean_phis, cond_means = [], [], []
    for w, idxs, p in _slices(products):
        cond_probs.append(p[:, None, None])
        cond_mean_phis.append(_mean(w, phis[:, idxs]))
        cond_means.append(hermitian_part(_mean(w, atoms[:, idxs])))

    phi_of_means = apply_scalar_function_stack(f, np.stack(cond_means + [mean_z], axis=1))
    total = mean_phi - phi_of_means[:, -1]
    acc = np.zeros_like(total)
    for n, (p, mphi) in enumerate(zip(cond_probs, cond_mean_phis)):
        acc = acc + p * (mphi - phi_of_means[:, n])
    gaps = hermitian_part(acc - total)
    return gaps[0] if isinstance(P, ProductEnsemble) else gaps


# --- variance and resampling quantities ----------------------------------------


def variance(E) -> np.ndarray:
    """Operator-valued variance E Z^2 - (E Z)^2; a stack of them for a list
    of ensembles of one shape."""
    weights, atoms = ensemble_arrays(E)
    second = _mean(weights, atoms @ atoms)
    mean = hermitian_part(_mean(weights, atoms))
    return hermitian_part(second - mean @ mean)


def efron_stein_quantity(P) -> np.ndarray:
    """Half the expected sum of squared single-factor resampling differences.

    Exact double sum over each factor's support pairs.  A list of products
    of one layout gives a stack of them.
    """
    products = _products(P)
    atoms = np.stack([Q.atoms for Q in products])
    acc = np.zeros((len(products),) + atoms.shape[-2:], dtype=complex)
    for w, idxs, p in _slices(products):
        sub = atoms[:, idxs]
        diffs = sub[:, :, None] - sub[:, None, :]
        acc = acc + 0.5 * p[:, None, None] * np.einsum("...s,...t,...stij->...ij",
                                                       w, w, diffs @ diffs)
    out = hermitian_part(acc)
    return out[0] if isinstance(P, ProductEnsemble) else out


# --- dual representation --------------------------------------------------------


def _check_coupled(Z: MatrixEnsemble, T: MatrixEnsemble) -> None:
    if Z.dim != T.dim or Z.support != T.support:
        raise DimensionMismatchError("coupled ensembles must share dim and support size")
    if np.max(np.abs(Z.weights - T.weights)) > WEIGHT_TOL:
        raise DomainError("coupled ensembles must share sample-space weights")


def _require_pd(atoms: np.ndarray, f: ScalarFunction, what: str) -> None:
    """The atoms (..., m, d, d) of an ensemble, or of each of a stack of them,
    must be positive definite, and above SPECTRAL_FLOOR when f's derivative
    needs it; each ensemble's smallest eigenvalue is computed once for both."""
    for floor in np.atleast_1d(np.linalg.eigvalsh(atoms)[..., 0].min(axis=-1)):
        if floor <= 0.0:
            raise DomainError(f"{what} atoms must be strictly positive definite, "
                              f"got min eigenvalue {floor:.3e}")
        if f.deriv_floor > 0.0 and floor < SPECTRAL_FLOOR:
            raise DomainError(
                f"{what} with '{f.name}' needs atom spectra >= {SPECTRAL_FLOOR:g}, "
                f"got min eigenvalue {floor:.3e}"
            )


def dual_value(f: ScalarFunction, Z, T) -> np.ndarray:
    """Lower-bound functional of the dual representation, as an operator.

    E[Df[T](Z-T) - Df[ET](Z-T) + f(T) - f(ET)], all expectations exact.
    Lists of ensembles of one shape give a stack of values.
    """
    z_weights, z_atoms = ensemble_arrays(Z)
    t_weights, t_atoms = ensemble_arrays(T)
    mean_T = hermitian_part(_mean(t_weights, t_atoms))
    # T's atoms and E T are decomposed once each, for Df and for f.
    dec_T, dec_mean = (SpectralDecomposition(*np.linalg.eigh(M)) for M in (t_atoms, mean_T))
    diff = z_atoms - t_atoms
    terms = frechet_d1(f, dec_T, diff)
    acc = np.zeros(mean_T.shape, dtype=complex)
    for k in range(diff.shape[-3]):
        acc = acc + z_weights[..., k, None, None] * terms[..., k, :, :]
    mean_diff = hermitian_part(_mean(z_weights, diff))
    acc = acc - frechet_d1(f, dec_mean, mean_diff)
    acc = (acc + _mean(t_weights, apply_scalar_function(f, dec_T))
           - apply_scalar_function(f, dec_mean))
    return hermitian_part(acc)


def dual_gap(f: ScalarFunction, Z, T) -> np.ndarray:
    """Entropy minus the dual lower bound, as an operator; zero when T is Z.

    T must be coupled to Z (same weights) and positive definite, with its
    spectrum above the floor when f's derivative needs one.  Lists of
    coupled pairs of one shape give a stack of gaps.
    """
    for z, t in [(Z, T)] if isinstance(Z, MatrixEnsemble) else zip(Z, T):
        _check_coupled(z, t)
    _require_pd(ensemble_arrays(T)[1], f, "dual representation T")
    return operator_phi_entropy(f, Z) - dual_value(f, Z, T)

