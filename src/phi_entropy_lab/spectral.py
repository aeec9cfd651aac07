"""Hermitian linear algebra foundation.

Eigendecompositions, standard matrix functions, the margins of operator
gaps and Schatten norms: pure functions of stacks (..., d, d), one matrix
being a stack with no leading axes, so each matrix of a stack gets the
values and tolerance of its own call.  A per-matrix scalar comes back as
numpy values of shape (...), never as a Python float.

A d x d Hermitian matrix has one parametrisation by d^2 reals: the diagonal,
then the real and imaginary parts of each upper entry, row by row.  The JSON
wire format writes such a matrix as {"dim": d, "h": B} of its parameters, any
other (a Kraus operator) as {"dim": d, "re": B, "im": B}, each block B the
base64 of its little-endian float64 bytes, row-major; float lists in their
place (artifact_version 0.2.0 and before) are read too.
"""

from __future__ import annotations

import binascii
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError, DomainError, NonHermitianError

# Relative tolerance factor; scale-free so tests behave identically for
# matrices of any magnitude.
HERM_RTOL = 1e-10


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


def frobenius(A: np.ndarray) -> np.ndarray:
    """Schatten-2 norm, the default scale factor in tolerances: for a stack
    (..., d, d), the array (...) of its matrices' norms, one np.linalg.norm
    call per matrix (a vectorised norm rounds differently)."""
    A = np.asarray(A)
    return np.array([np.linalg.norm(M) for M in A.reshape(-1, *A.shape[-2:])]
                    ).reshape(A.shape[:-2])


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix or stack: ascending eigenvalues, unitary columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


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


def variant_margin(gap, variant: str) -> np.ndarray:
    """Margin of an operator gap: the one rule that reads the gap of every
    statement with both forms.  The trace form is its normalised trace Tr/d,
    the operator form the least eigenvalue of its Hermitian part; one margin
    per gap of a stack (..., d, d)."""
    if variant == "trace":
        gap = np.asarray(gap)
        return np.trace(gap, axis1=-2, axis2=-1).real / gap.shape[-1]
    if variant == "operator":
        return np.linalg.eigvalsh(hermitian_part(gap))[..., 0]
    raise DomainError(f"variant must be 'trace' or 'operator', got '{variant}'")


def schatten_norm(A, p: float) -> np.ndarray:
    """Schatten p-norm of each Hermitian matrix of a stack (..., d, d): the
    l_p norm of its singular values, which are the moduli of its eigenvalues.
    The stack goes to eigvalsh as (-1, d, d), so a matrix's norm does not
    depend on the stack it comes in."""
    if p < 1:
        raise DomainError(f"Schatten norm requires p >= 1, got p={p}")
    A = validate_hermitian(A)
    s = np.abs(np.linalg.eigvalsh(A.reshape(-1, *A.shape[-2:])))
    norms = s.max(axis=-1) if np.isinf(p) else np.sum(s**p, axis=-1) ** (1.0 / p)
    return norms.reshape(A.shape[:-2])


# --- Hermitian parameters and the JSON wire format ----------------------------


@lru_cache(maxsize=32)
def _param_layout(d: int) -> tuple:
    """Index arrays between the d^2 parameters p (np.triu_indices order) and
    a d x d matrix seen as d x d x 2 floats: source holds, for each float of
    the matrix, its position in concat(p, 0 - p, [0]); where holds, for each
    parameter, the position of its float in the flattened matrix."""
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


def herm_from_params(p: np.ndarray, d: int) -> np.ndarray:
    """Dense Hermitian matrix from d^2 real parameters, or a stack of them from
    parameter vectors (..., d^2); a zero lower imaginary part is +0.0."""
    source, _ = _param_layout(d)
    floats = np.concatenate([p, 0.0 - p, np.zeros(p.shape[:-1] + (1,))], axis=-1)
    return np.take(floats, source, axis=-1).view(complex)[..., 0]


def params_of(M: np.ndarray) -> np.ndarray:
    """The d^2 real parameters of a Hermitian matrix, or of each of a stack;
    inverse of herm_from_params."""
    M = np.ascontiguousarray(M, dtype=complex)
    _, where = _param_layout(M.shape[-1])
    return M.view(float).reshape(M.shape[:-2] + (-1,))[..., where]


def _b64(x: np.ndarray) -> str:
    return binascii.b2a_base64(x.astype("<f8").tobytes(), newline=False).decode("ascii")


def matrix_to_json(A) -> dict:
    """{"dim": d, "h": B} if herm_from_params rebuilds A from its parameters
    bit for bit, else {"dim": d, "re": B, "im": B}, "im" omitted when every
    imaginary part is +0.0; each B the base64 of its float64 bytes."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise DimensionMismatchError(f"expected a square matrix, got shape {A.shape}")
    p = params_of(A)
    if herm_from_params(p, A.shape[0]).tobytes() == A.tobytes():
        return {"dim": A.shape[0], "h": _b64(p)}
    out = {"dim": A.shape[0], "re": _b64(A.real)}
    if np.signbit(A.imag).any() or A.imag.any():
        out["im"] = _b64(A.imag)
    return out


def is_real(x) -> bool:
    """Whether x is a real number, and not a boolean: the one rule for the
    numbers a witness stores."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _numbers(value) -> bool:
    """Whether value is a real number or a list of them, nested (is_real)."""
    return all(map(_numbers, value)) if isinstance(value, list) else is_real(value)


def _block(value):
    """A float list as an array; a base64 string as the bytes it canonically encodes."""
    if not isinstance(value, str):
        if not _numbers(value):
            raise ValueError(f"{value!r:.60} is not a list of numbers")
        return np.asarray(value, dtype=float)
    raw = binascii.a2b_base64(value)
    if binascii.b2a_base64(raw, newline=False).decode("ascii") != value:
        raise ValueError(f"{value!r:.60} is not the canonical base64 of its bytes")
    return raw


def matrix_from_json(data: dict) -> np.ndarray:
    """A matrix from matrix_to_json, or from its float-list form (0.2.0 and before)."""
    try:
        dim = data["dim"]
        keys = ["h"] if "h" in data else ["re"] + (["im"] if data.get("im") is not None else [])
        blocks = {key: _block(data[key]) for key in keys}
    except (KeyError, TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise DomainError(f"malformed matrix JSON: {exc}") from exc
    if not isinstance(dim, numbers.Integral) or isinstance(dim, bool) or dim < 1:
        raise DomainError(f"matrix JSON 'dim' must be a positive integer, got {dim!r:.60}")
    for key, block in blocks.items():
        shape = (dim * dim,) if key == "h" else (dim, dim)
        if isinstance(block, bytes) and len(block) == 8 * dim * dim:
            blocks[key] = np.ndarray(shape, "<f8", block)
        elif isinstance(block, bytes) or block.shape != shape:
            size = f"{len(block)} bytes" if isinstance(block, bytes) else f"shape {block.shape}"
            raise DimensionMismatchError(f"matrix JSON declares dim={dim} but '{key}' has {size}")
    if "h" in blocks:
        return herm_from_params(blocks["h"], dim)
    A = blocks["re"].astype(complex)
    A.imag = blocks.get("im", 0.0)
    return A


def matrices_from_json(items, what: str, dim=None) -> np.ndarray:
    """A JSON list of matrices as one stack (k, d, d); all must share one dim,
    and it must be dim, the 'dim' of the object that holds them, when given."""
    if not isinstance(items, list) or not items:
        raise DomainError(f"{what} must be a non-empty list of matrices")
    mats = [matrix_from_json(m) for m in items]
    dims = sorted({M.shape[0] for M in mats})
    if len(dims) > 1:
        raise DimensionMismatchError(f"{what} must share one dim, got dims {dims}")
    if dim is not None and (type(dim) is not int or dim != dims[0]):  # an int, and no bool
        raise DimensionMismatchError(f"{what} have dim {dims[0]}, but 'dim' is {dim!r:.60}")
    return np.stack(mats)
