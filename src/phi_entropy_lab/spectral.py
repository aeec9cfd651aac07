"""Hermitian linear algebra foundation.

Eigendecompositions, standard matrix functions, Loewner comparisons, traces
and Schatten norms, plus the JSON wire format for dense complex matrices.
All operations are pure functions on immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, NonHermitianError

# Relative tolerance factors; scale-free so tests behave identically for
# matrices of any magnitude.
HERM_RTOL = 1e-10
UNITARY_RTOL = 1e-10
RECON_RTOL = 1e-10
LOEWNER_RTOL = 1e-8


def as_matrix(A) -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise DimensionMismatchError(f"expected a square matrix, got shape {A.shape}")
    return A


def hermitian_part(A: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian part; used to scrub roundoff asymmetry."""
    return 0.5 * (A + np.conj(np.swapaxes(A, -1, -2)))


def hermiticity_tolerance(A: np.ndarray) -> float:
    scale = np.abs(A).max() if A.size else 0.0
    return HERM_RTOL * (1.0 + scale)


def validate_hermitian(A, name: str = "matrix") -> np.ndarray:
    """Return A as a complex array, raising if it is not Hermitian.

    The error names the worst offending entry pair so the caller can see
    which element broke the symmetry.
    """
    A = as_matrix(A)
    diff = np.abs(A - A.conj().T)
    tol = hermiticity_tolerance(A)
    worst = diff.max()
    if worst > tol:
        i, j = np.unravel_index(int(np.argmax(diff)), diff.shape)
        raise NonHermitianError(
            f"{name} is not Hermitian: entries ({i},{j})={A[i, j]:.6g} and "
            f"({j},{i})={A[j, i]:.6g} differ by {worst:.3e} (tolerance {tol:.3e})"
        )
    return A


def frobenius(A: np.ndarray) -> float:
    """Schatten-2 norm; the default scale factor in tolerances."""
    return float(np.linalg.norm(A))


def relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1.0) -> float:
    """Frobenius distance of a and b over max(|a|, |b|, floor)."""
    a = np.asarray(a)
    b = np.asarray(b)
    denom = max(frobenius(a), frobenius(b), floor)
    return frobenius(a - b) / denom


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix: ascending eigenvalues, unitary columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        U = self.eigenvectors
        return (U * self.eigenvalues) @ U.conj().T


@dataclass(frozen=True)
class LoewnerVerdict:
    """Outcome of a positive-semidefinite-order comparison A >= B."""

    min_eigenvalue: float
    tolerance: float
    holds: bool
    witness_vector: np.ndarray | None = None

    @classmethod
    def from_min_eigenvalue(cls, min_eig, tol, witness=None) -> "LoewnerVerdict":
        holds = bool(min_eig >= -tol)
        return cls(float(min_eig), float(tol), holds, None if holds else witness)


def spectral_decompose(A) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""
    A = validate_hermitian(A)
    lam, U = np.linalg.eigh(A)
    return SpectralDecomposition(lam, U)


def apply_scalar_function(f, A) -> np.ndarray:
    """Standard matrix function: U f(Lambda) U* in A's eigenbasis.

    Raises DomainError if any eigenvalue of A falls outside f's domain.
    """
    dec = spectral_decompose(A)
    require_spectrum_in_domain(f, dec.eigenvalues)
    vals = np.asarray(f(dec.eigenvalues), dtype=float)
    U = dec.eigenvectors
    return hermitian_part((U * vals) @ U.conj().T)


def apply_scalar_function_stack(f, atoms: np.ndarray) -> np.ndarray:
    """Batched matrix function over a stack of Hermitian matrices (m, d, d)."""
    lam, U = np.linalg.eigh(atoms)
    require_spectrum_in_domain(f, lam.ravel())
    vals = np.asarray(f(lam), dtype=float)
    out = (U * vals[..., None, :]) @ np.conj(np.swapaxes(U, -1, -2))
    return hermitian_part(out)


def require_spectrum_in_domain(f, eigenvalues: np.ndarray) -> None:
    dom = f.domain
    for lam in np.atleast_1d(eigenvalues):
        if not dom.contains(float(lam)):
            raise DomainError(
                f"eigenvalue {float(lam):.6g} outside the domain {dom} of '{f.name}'"
            )


def loewner_compare(A, B, tol: float | None = None) -> LoewnerVerdict:
    """Verdict on A >= B in the positive-semidefinite order.

    Failing verdicts carry the eigenvector achieving the minimal eigenvalue
    of A - B, so violations can be inspected directly.
    """
    A = validate_hermitian(A, "A")
    B = validate_hermitian(B, "B")
    if A.shape != B.shape:
        raise DimensionMismatchError(f"dimension mismatch: {A.shape} vs {B.shape}")
    if tol is None:
        tol = LOEWNER_RTOL * (frobenius(A) + frobenius(B))
    lam, U = np.linalg.eigh(A - B)
    return LoewnerVerdict.from_min_eigenvalue(lam[0], tol, witness=U[:, 0])


def trace(A) -> float:
    return float(np.trace(as_matrix(A)).real)


def normalized_trace(A) -> float:
    A = as_matrix(A)
    return float(np.trace(A).real) / A.shape[0]


def variant_margin(gap, variant: str) -> float:
    """Margin of an operator gap: its normalised trace for the trace form,
    the smallest eigenvalue of its Hermitian part for the operator form."""
    if variant == "trace":
        return normalized_trace(gap)
    if variant == "operator":
        return float(np.linalg.eigvalsh(hermitian_part(gap))[0])
    raise DomainError(f"variant must be 'trace' or 'operator', got '{variant}'")


def hs_inner(A, B) -> complex:
    """Hilbert-Schmidt inner product Tr(A* B)."""
    A = as_matrix(A)
    B = as_matrix(B)
    if A.shape != B.shape:
        raise DimensionMismatchError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return complex(np.trace(A.conj().T @ B))


def schatten_norm(A, p: float) -> float:
    """Schatten p-norm: the l_p norm of the singular values."""
    if p < 1:
        raise DomainError(f"Schatten norm requires p >= 1, got p={p}")
    s = np.linalg.svd(as_matrix(A), compute_uv=False)
    if np.isinf(p):
        return float(s.max())
    return float(np.sum(s**p) ** (1.0 / p))


def min_eigenvalue(A) -> float:
    return float(np.linalg.eigvalsh(validate_hermitian(A))[0])


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
        dim = int(data["dim"])
        re = np.asarray(data["re"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed matrix JSON: {exc}") from exc
    if re.shape != (dim, dim):
        raise DimensionMismatchError(
            f"matrix JSON declares dim={dim} but 're' has shape {re.shape}"
        )
    A = re.astype(complex)
    if "im" in data and data["im"] is not None:
        im = np.asarray(data["im"], dtype=float)
        if im.shape != (dim, dim):
            raise DimensionMismatchError(
                f"matrix JSON declares dim={dim} but 'im' has shape {im.shape}"
            )
        A = A + 1j * im
    return A
