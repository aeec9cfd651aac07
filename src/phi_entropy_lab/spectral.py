"""Hermitian linear algebra foundation.

Eigendecompositions, standard matrix functions, operator margins,
normalised traces and Schatten norms, plus the JSON wire format for dense
complex matrices.  All operations are pure functions on immutable values.
Validation, decomposition, matrix functions and operator margins also take
stacks (..., d, d); each matrix gets the values and tolerance of its own call.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, NonHermitianError

# Relative tolerance factor; scale-free so tests behave identically for
# matrices of any magnitude.
HERM_RTOL = 1e-10


def as_matrix(A) -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise DimensionMismatchError(f"expected a square matrix, got shape {A.shape}")
    return A


def dagger(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return A.conj().swapaxes(-1, -2)


def hermitian_part(A: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian part; used to scrub roundoff asymmetry."""
    return 0.5 * (A + dagger(A))


def validate_hermitian(A, name: str = "matrix") -> np.ndarray:
    """Return A (a matrix or stack) as a complex array, raising if it is not Hermitian.

    The error names the first offending matrix of a stack and its worst
    entry pair, so the caller can see which element broke the symmetry.  A
    matrix with a NaN or infinite entry is rejected with a DomainError.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2] or A.shape[-1] < 1:
        raise DimensionMismatchError(f"expected a square matrix, got shape {A.shape}")
    diff = np.abs(A - dagger(A))
    if diff.max() <= HERM_RTOL:  # below every matrix's tolerance; False for NaN or inf
        return A
    for k in np.ndindex(A.shape[:-2]):
        if not np.isfinite(A[k]).all():
            raise DomainError(f"{name}{list(k) if k else ''} has a non-finite entry")
        M, worst, tol = A[k], diff[k].max(), HERM_RTOL * (1.0 + np.abs(A[k]).max())
        if worst > tol:
            i, j = np.unravel_index(int(np.argmax(diff[k])), M.shape)
            raise NonHermitianError(
                f"{name}{list(k) if k else ''} is not Hermitian: entries ({i},{j})="
                f"{M[i, j]:.6g} and ({j},{i})={M[j, i]:.6g} differ by {worst:.3e} "
                f"(tolerance {tol:.3e})"
            )
    return A


def frobenius(A: np.ndarray):
    """Schatten-2 norm; the default scale factor in tolerances.

    A float for a matrix; for a stack (..., d, d), an array holding each
    matrix's norm exactly as the call on that matrix alone computes it.
    """
    A = np.asarray(A)
    if A.ndim <= 2:
        return float(np.linalg.norm(A))
    return np.array([np.linalg.norm(M) for M in A.reshape(-1, *A.shape[-2:])]
                    ).reshape(A.shape[:-2])


def relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1.0):
    """Frobenius distance of a and b over max(|a|, |b|, floor); one per matrix of stacks."""
    a = np.asarray(a)
    b = np.asarray(b)
    error = frobenius(a - b) / np.maximum(np.maximum(frobenius(a), frobenius(b)), floor)
    return float(error) if np.ndim(error) == 0 else error


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix or stack: ascending eigenvalues, unitary columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]


def spectral_decompose(A, name: str = "matrix") -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix or stack, eigenvalues ascending."""
    A = validate_hermitian(A, name)
    lam, U = np.linalg.eigh(A)
    return SpectralDecomposition(lam, U)


def apply_scalar_function(f, A) -> np.ndarray:
    """Standard matrix function: U f(Lambda) U* in A's eigenbasis.

    A is a matrix, a stack, or the SpectralDecomposition of either.  Raises
    DomainError naming the first eigenvalue outside f's domain.
    """
    if not isinstance(A, SpectralDecomposition):
        return apply_scalar_function_stack(f, validate_hermitian(A))
    lam, U = A.eigenvalues, A.eigenvectors
    outside = ~f.domain.contains(lam)
    if outside.any():
        raise DomainError(f"eigenvalue {lam.flat[np.argmax(outside)]:.6g} outside the "
                          f"domain {f.domain} of '{f.name}'")
    return hermitian_part((U * np.asarray(f(lam), dtype=float)[..., None, :]) @ dagger(U))


def apply_scalar_function_stack(f, atoms: np.ndarray) -> np.ndarray:
    """apply_scalar_function on matrices (..., d, d) already known to be Hermitian."""
    return apply_scalar_function(f, SpectralDecomposition(*np.linalg.eigh(atoms)))


def normalized_trace(A) -> float:
    A = as_matrix(A)
    return float(np.trace(A).real) / A.shape[0]


def variant_margin(gap, variant: str):
    """Margin of an operator gap: its normalised trace for the trace form,
    the smallest eigenvalue of its Hermitian part for the operator form
    (an array of them for a stack of gaps)."""
    if variant == "trace":
        gap = np.asarray(gap)
        margin = np.trace(gap, axis1=-2, axis2=-1).real / gap.shape[-1]
    elif variant == "operator":
        margin = np.linalg.eigvalsh(hermitian_part(gap))[..., 0]
    else:
        raise DomainError(f"variant must be 'trace' or 'operator', got '{variant}'")
    return float(margin) if margin.ndim == 0 else margin


def schatten_norm(A, p: float):
    """Schatten p-norm of a Hermitian matrix: the l_p norm of its singular
    values, which are the moduli of its eigenvalues.  For a stack, an array
    of the norms of its matrices, from one eigvalsh call."""
    if p < 1:
        raise DomainError(f"Schatten norm requires p >= 1, got p={p}")
    s = np.abs(np.linalg.eigvalsh(validate_hermitian(A)))
    norms = s.max(axis=-1) if np.isinf(p) else np.sum(s**p, axis=-1) ** (1.0 / p)
    return float(norms) if norms.ndim == 0 else norms


# --- JSON wire format -------------------------------------------------------


def matrix_to_json(A) -> dict:
    """Serialize as {"dim": d, "re": [[...]], "im": [[...]]}; "im" omitted when real."""
    A = as_matrix(A)
    out = {"dim": A.shape[0], "re": A.real.tolist()}
    if np.any(A.imag != 0.0):
        out["im"] = A.imag.tolist()
    return out


def matrix_from_json(data: dict) -> np.ndarray:
    try:
        dim = data["dim"]
        re = np.asarray(data["re"], dtype=float)
        im = None if data.get("im") is None else np.asarray(data["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed matrix JSON: {exc}") from exc
    if not isinstance(dim, numbers.Integral) or isinstance(dim, bool):
        raise DomainError(f"matrix JSON 'dim' must be an integer, got {dim!r:.60}")
    if re.shape != (dim, dim):
        raise DimensionMismatchError(
            f"matrix JSON declares dim={dim} but 're' has shape {re.shape}"
        )
    A = re.astype(complex)
    if im is not None:
        if im.shape != (dim, dim):
            raise DimensionMismatchError(
                f"matrix JSON declares dim={dim} but 'im' has shape {im.shape}"
            )
        A = A + 1j * im
    return A


def matrices_from_json(items, what: str) -> np.ndarray:
    """A JSON list of matrices as one stack (k, d, d); all must share one dim."""
    if not isinstance(items, list) or not items:
        raise DomainError(f"{what} must be a non-empty list of matrices")
    mats = [matrix_from_json(m) for m in items]
    dims = sorted({M.shape[0] for M in mats})
    if len(dims) > 1:
        raise DimensionMismatchError(f"{what} must share one dim, got dims {dims}")
    return np.stack(mats)
