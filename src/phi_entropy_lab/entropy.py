"""Entropy functionals of finitely-supported random matrices.

Trace-valued and operator-valued Jensen gaps, the subadditivity gap over
product spaces, the operator variance, resampling (Efron-Stein style)
quantities, and the dual lower-bound representation.  All expectations are
exact finite sums, so the inequalities under test carry no sampling error.

This module gives the gaps of subadditivity, Efron-Stein and the dual
representation; their margins and reports come from ``suite.check`` and
the suite's check registry.  Each gap takes a list of ensembles of one
layout and returns one gap per entry of the list, the atoms one stack
through every layer; one ensemble is a list of one.

Checks run in full in the constructors (and so on decoded JSON), once per
sweep chunk in each class's ``stack``, and never on values derived here
from checked objects (``flatten``, the decompositions in ``dual_value``).
"""

from __future__ import annotations

import math
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
    matrix_to_json,
    validate_hermitian,
    variant_margin,
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


def checked_atoms(atoms: np.ndarray, name) -> None:
    """Check the matrices of a stack (k, d, d) Hermitian and PSD, all at once.

    When the stack fails, each matrix is checked alone, in order, so the
    error is the one the first offending matrix raises, named name(i).
    """
    try:
        validate_hermitian(atoms)
        lam_min = np.linalg.eigvalsh(atoms)[:, 0]
        if not any(lam_min[i] < -PSD_RTOL * (1.0 + frobenius(atoms[i]))
                   for i in np.flatnonzero(lam_min < 0.0)):
            return
    except PhiLabError:
        pass
    for i, A in enumerate(atoms):
        validate_hermitian(A, name(i))
        lam_min = float(np.linalg.eigvalsh(A)[0])
        if lam_min < -PSD_RTOL * (1.0 + frobenius(A)):
            raise DomainError(f"{name(i)} is not positive semi-definite: "
                              f"min eigenvalue {lam_min:.3e}")


def as_stacks(stacks, name) -> np.ndarray:
    """Stacks of matrices (n, k, d, d) as one complex array; the first matrix
    with ragged rows, or of another shape than the first, is a
    DimensionMismatchError named name(i)."""
    try:
        return np.asarray(stacks, dtype=complex)
    except ValueError:
        shapes = []
        for i, M in (item for mats in stacks for item in enumerate(mats)):
            try:
                shapes.append(np.shape(M))
            except ValueError:
                raise DimensionMismatchError(f"{name(i)} has ragged rows") from None
            if shapes[-1] != shapes[0]:
                raise DimensionMismatchError(f"{name(i)} has shape {shapes[-1]}, "
                                             f"not {shapes[0]} like the first") from None
        raise


def _set(obj, values: dict):
    """obj, a frozen dataclass instance, with the checked field values set."""
    for key, value in values.items():
        object.__setattr__(obj, key, value)
    return obj


@dataclass(frozen=True, eq=False)
class MatrixEnsemble:
    """Finitely-supported random PSD matrix: weights and a stack of atoms."""

    weights: np.ndarray
    atoms: np.ndarray

    def __post_init__(self):
        _set(self, vars(self.stack(np.asarray(self.weights, dtype=float)[None],
                                   [self.atoms])[0]))

    @classmethod
    def stack(cls, weights, atoms) -> list:
        """The ensembles of weight rows (n, m) and atoms (n, m, d, d), checked
        as one stack; each raises what it raises alone, naming its atom."""
        w = _check_weights(weights, "ensemble weights")
        atoms = as_stacks(atoms, "atom {}".format)
        if atoms.ndim != 4 or atoms.shape[:2] != w.shape or atoms.shape[2] != atoms.shape[3]:
            raise DimensionMismatchError(f"atoms must have shape (m, d, d) matching "
                                         f"{w.shape[1]} weights, got {atoms.shape[1:]}")
        m = w.shape[1]
        checked_atoms(atoms.reshape((w.size,) + atoms.shape[2:]), lambda i: f"atom {i % m}")
        return [_set(object.__new__(cls), {"weights": wi, "atoms": ai})
                for wi, ai in zip(w, atoms)]

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def support(self) -> int:
        return self.atoms.shape[0]

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
                                               "ensemble atoms", data.get("dim")))


@dataclass(frozen=True, eq=False)
class ProductEnsemble:
    """Random matrix Z = z(X_1, ..., X_n) of n independent finite factors.

    factor_weights[i] holds the s_i outcome weights of factor i.  atoms is
    the outcome table, one PSD matrix per outcome, as one stack (S, d, d) with
    S = s_1 ... s_n in row-major outcome order: the last factor varies
    fastest.  joint_weights holds each outcome's probability in that order.
    """

    factor_weights: tuple
    atoms: np.ndarray = field(repr=False)
    joint_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _set(self, vars(self.stack([np.asarray(w, dtype=float)[None] for w in self.factor_weights],
                                   [self.atoms])[0]))

    @classmethod
    def stack(cls, factor_rows, atoms) -> list:
        """The products of factor weight rows [(B, s_i)] and outcome tables
        (B, S, d, d), checked as one stack; each raises what it raises alone,
        naming its outcome."""
        rows = [_check_weights(w, f"factor {i} weights") for i, w in enumerate(factor_rows)]
        if not rows:
            raise DomainError("product ensemble needs at least one factor")
        sizes = tuple(w.shape[1] for w in rows)
        S = math.prod(sizes)
        def outcome(i):
            return f"outcome {tuple(map(int, np.unravel_index(i % S, sizes)))}"
        atoms = as_stacks(atoms, outcome)
        if (atoms.ndim != 4 or atoms.shape[:2] != (len(rows[0]), S)
                or atoms.shape[2] != atoms.shape[3]):
            raise DimensionMismatchError(f"atoms must have shape (S, d, d), one matrix per "
                                         f"outcome of {sizes}, got {atoms.shape[1:]}")
        checked_atoms(atoms.reshape((-1,) + atoms.shape[2:]), outcome)
        # Each outcome's probability, its factors' weights multiplied from the first on.
        joint = rows[0]
        for w in rows[1:]:
            joint = (joint[:, :, None] * w[:, None, :]).reshape(len(w), -1)
        return [_set(object.__new__(cls), {
            "factor_weights": tuple(w[n] for w in rows), "atoms": atoms[n],
            "joint_weights": joint[n]}) for n in range(len(atoms))]

    @property
    def n(self) -> int:
        return len(self.factor_weights)

    @property
    def dim(self) -> int:
        return self.atoms.shape[-1]

    def flatten(self) -> MatrixEnsemble:
        """The ensemble of the outcomes, built from the product's checked values."""
        return _set(object.__new__(MatrixEnsemble), {
            "weights": self.joint_weights / self.joint_weights.sum(), "atoms": self.atoms})

    def to_json_dict(self) -> dict:
        return {
            "factors": [list(map(float, w)) for w in self.factor_weights],
            "z": {",".join(map(str, key)): matrix_to_json(A)
                  for key, A in zip(np.ndindex(*map(len, self.factor_weights)), self.atoms)},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ProductEnsemble":
        factors, z = data.get("factors"), data.get("z")
        if not factors or not isinstance(z, dict):
            raise DomainError("product JSON needs 'factors' and a 'z' object")
        try:
            weights = tuple(np.asarray(w, dtype=float) for w in factors)
            outcomes = list(np.ndindex(*map(len, weights)))
            table = {tuple(int(p) for p in key.split(",")): m for key, m in z.items()}
        except (TypeError, ValueError) as exc:
            raise DomainError(f"malformed product JSON: {exc}") from exc
        # A key named twice, a key that is no outcome, or an outcome missing.
        if len(table) != len(z) or sorted(table) != outcomes:
            raise DomainError(f"product JSON 'z' must name each outcome once, got {list(z)}")
        return cls(weights, matrices_from_json([table[key] for key in outcomes],
                                               "product JSON 'z'"))


# --- expectations and entropies -----------------------------------------------


def _mean(weights: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    """Weighted sum over the atoms (..., m, d, d), weights (..., m)."""
    return np.einsum("...m,...mij->...ij", weights, atoms)


def ensemble_arrays(E: list) -> tuple:
    """Weights and atoms of a list of ensembles of one shape, each stacked
    along a new leading axis: one entry per entry of the list."""
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


def operator_phi_entropy(f: ScalarFunction, E: list) -> np.ndarray:
    """Jensen gap E f(Z) - f(E Z) as a Hermitian matrix, one per entry of the
    list of ensembles of one shape."""
    return jensen_gap(f, *ensemble_arrays(E))


def matrix_phi_entropy(f: ScalarFunction, E: list) -> np.ndarray:
    """Normalized trace of the Jensen gap, one per entry; nonnegative for convex f."""
    return variant_margin(operator_phi_entropy(f, E), "trace")


def product_arrays(P: list) -> tuple:
    """The factor weights [(B, s_i)], joint weights (B, S) and atoms (B, S, d, d)
    of a list of B products of one layout: one entry per entry of the list."""
    if len({(tuple(map(len, Q.factor_weights)), Q.atoms.shape) for Q in P}) > 1:
        raise DimensionMismatchError("product ensembles taken together must share one layout")
    return ([np.stack(w) for w in zip(*(Q.factor_weights for Q in P))],
            np.stack([Q.joint_weights for Q in P]), np.stack([Q.atoms for Q in P]))


def _slices(rows: list):
    """Every conditional slice of products of factor weight rows [(B, s_i)]: for
    each factor i and each outcome of the others, in row-major order, the factor's
    weights, the indices of the slice's outcomes in the outcome stack, and the
    pinned outcome's probability (B,), its weights multiplied from 1 factor by factor."""
    sizes = [w.shape[1] for w in rows]
    index = np.arange(math.prod(sizes)).reshape(sizes)
    for i, w in enumerate(rows):
        others = [j for j in range(len(rows)) if j != i]
        for fixed in np.ndindex(*(sizes[j] for j in others)):
            p = np.ones(len(w))
            for j, c in zip(others, fixed):
                p = p * rows[j][:, c]
            yield w, index[fixed[:i] + (slice(None),) + fixed[i:]], p


def subadditivity_gap(f: ScalarFunction, P: list) -> np.ndarray:
    """sum_i E[conditional entropy] - total entropy, as an operator, one per
    entry of the list of products of one layout.

    Evaluates f over the outcome stack once and batches the per-slice
    means, so the n = 1 gap cancels exactly (identical code paths on both
    sides of the difference).
    """
    rows, probs, atoms = product_arrays(P)
    phis = apply_scalar_function_stack(f, atoms)

    mean_phi = _mean(probs, phis)
    mean_z = hermitian_part(_mean(probs, atoms))

    cond_probs, cond_mean_phis, cond_means = [], [], []
    for w, idxs, p in _slices(rows):
        cond_probs.append(p[:, None, None])
        cond_mean_phis.append(_mean(w, phis[:, idxs]))
        cond_means.append(hermitian_part(_mean(w, atoms[:, idxs])))

    phi_of_means = apply_scalar_function_stack(f, np.stack(cond_means + [mean_z], axis=1))
    total = mean_phi - phi_of_means[:, -1]
    acc = np.zeros_like(total)
    for n, (p, mphi) in enumerate(zip(cond_probs, cond_mean_phis)):
        acc = acc + p * (mphi - phi_of_means[:, n])
    return hermitian_part(acc - total)


# --- variance and resampling quantities ----------------------------------------


def variance(E: list) -> np.ndarray:
    """Operator-valued variance E Z^2 - (E Z)^2, one per entry of the list
    of ensembles of one shape."""
    weights, atoms = ensemble_arrays(E)
    second = _mean(weights, atoms @ atoms)
    mean = hermitian_part(_mean(weights, atoms))
    return hermitian_part(second - mean @ mean)


def efron_stein_quantity(P: list) -> np.ndarray:
    """Half the expected sum of squared single-factor resampling differences,
    one per entry of the list of products of one layout.

    Exact double sum over each factor's support pairs.
    """
    rows, _, atoms = product_arrays(P)
    acc = np.zeros((len(P),) + atoms.shape[-2:], dtype=complex)
    for w, idxs, p in _slices(rows):
        sub = atoms[:, idxs]
        diffs = sub[:, :, None] - sub[:, None, :]
        acc = acc + 0.5 * p[:, None, None] * np.einsum("...s,...t,...stij->...ij",
                                                       w, w, diffs @ diffs)
    return hermitian_part(acc)


# --- dual representation --------------------------------------------------------


def _check_coupled(Z: MatrixEnsemble, T: MatrixEnsemble) -> None:
    if Z.dim != T.dim or Z.support != T.support:
        raise DimensionMismatchError("coupled ensembles must share dim and support size")
    if np.max(np.abs(Z.weights - T.weights)) > WEIGHT_TOL:
        raise DomainError("coupled ensembles must share sample-space weights")


def _require_pd(eigenvalues: np.ndarray, f: ScalarFunction, what: str) -> None:
    """The atoms of each of a stack of ensembles, given by their ascending
    eigenvalues (n, m, d), must be positive definite, and above
    SPECTRAL_FLOOR when f's derivative needs it."""
    for floor in eigenvalues[..., 0].min(axis=-1):
        if floor <= 0.0:
            raise DomainError(f"{what} atoms must be strictly positive definite, "
                              f"got min eigenvalue {floor:.3e}")
        if f.deriv_floor > 0.0 and floor < SPECTRAL_FLOOR:
            raise DomainError(
                f"{what} with '{f.name}' needs atom spectra >= {SPECTRAL_FLOOR:g}, "
                f"got min eigenvalue {floor:.3e}"
            )


def dual_value(f: ScalarFunction, Z, T) -> np.ndarray:
    """Lower-bound functional of the dual representation, as an operator,
    one per entry of the lists of ensembles of one shape.

    E[Df[T](Z-T) - Df[ET](Z-T) + f(T) - f(ET)], all expectations exact.
    T must be positive definite, with its spectrum above the floor when f's
    derivative needs one; T's atoms are decomposed once, for that check
    (made before Z is read), for Df and for f.
    """
    t_weights, t_atoms = ensemble_arrays(T)
    dec_T = SpectralDecomposition(*np.linalg.eigh(t_atoms))
    _require_pd(dec_T.eigenvalues, f, "dual representation T")
    z_weights, z_atoms = ensemble_arrays(Z)
    mean_T = hermitian_part(_mean(t_weights, t_atoms))
    dec_mean = SpectralDecomposition(*np.linalg.eigh(mean_T))
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


def dual_gap(f: ScalarFunction, Z: list, T: list) -> np.ndarray:
    """Entropy minus the dual lower bound, as an operator, one per entry of
    the lists of coupled ensembles of one shape; zero when T is Z.

    T must be coupled to Z (same weights); dual_value checks the rest,
    before the entropy reads Z.
    """
    for z, t in zip(Z, T):
        _check_coupled(z, t)
    bound = dual_value(f, Z, T)
    return operator_phi_entropy(f, Z) - bound
