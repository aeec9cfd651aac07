"""Directional (Frechet) derivatives of standard matrix functions.

Orders one to three are exact divided-difference evaluations in the
eigenbasis of the base point, given as a matrix or its decomposition; a
base point and its directions may be stacks (..., d, d), and each matrix
gets the values of its own call.  The inverse of X -> Dpsi[A](X), which
conditions (a) and (e) need, is applied in A's eigenbasis (of one A or a
stack) as an elementwise division by the divided-difference grid.  Two
oracles stand independent of that engine: the d^2 x d^2 matrix of the map
under column stacking and its dense inverse, both plain arrays, and central
finite differences of the matrix function itself: the tests' references,
kept here because ``perfbench/tracing.py`` wraps them by name.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations
from typing import Callable

import numpy as np

from .catalog import (
    ScalarFunction,
    dd1_grid,
    dd2_grid,
    dd3_grid,
    require_nodes_in_derivative_domain,
)
from .errors import DimensionMismatchError, DomainError, SingularOperatorError
from .spectral import (
    SpectralDecomposition,
    apply_scalar_function,
    dagger,
    frobenius,
    hermitian_part,
    spectral_decompose,
    validate_hermitian,
)

# Condition-number guard for inverting X -> Dpsi[A](X).  The suite inverts in
# A's eigenbasis, where the singular values of the map are |psi^[1]|; the
# dense superoperator inverse, kept as the oracle, applies the same limit.
SUPEROP_COND_LIMIT = 1e12


def _prepared(f: ScalarFunction, A, directions, order: int):
    """A's decomposition (A may be given as one) and the validated directions."""
    if not isinstance(A, SpectralDecomposition):
        A = spectral_decompose(A, "base point")
    shape = A.eigenvectors.shape
    mats = []
    for X in directions:
        X = validate_hermitian(X, "direction")
        if X.shape != shape:
            raise DimensionMismatchError(
                f"direction shape {X.shape} does not match base point {shape}"
            )
        mats.append(X)
    require_nodes_in_derivative_domain(f, A.eigenvalues, order)
    return A, mats


def frechet_d1(f: ScalarFunction, A, X) -> np.ndarray:
    """First derivative of the matrix function of f at A in direction X."""
    dec, (X,) = _prepared(f, A, [X], 1)
    U, Uh = dec.eigenvectors, dagger(dec.eigenvectors)
    K = dd1_grid(f, dec.eigenvalues)
    return hermitian_part(U @ (K * (Uh @ X @ U)) @ Uh)


def frechet_d2(f: ScalarFunction, A, X, Y) -> np.ndarray:
    """Second derivative; symmetric bilinear in (X, Y)."""
    dec, (X, Y) = _prepared(f, A, [X, Y], 2)
    U, Uh = dec.eigenvectors, dagger(dec.eigenvectors)
    T2 = dd2_grid(f, dec.eigenvalues)
    Xt = Uh @ X @ U
    Yt = Uh @ Y @ U
    core = np.einsum("...ikj,...ik,...kj->...ij", T2, Xt, Yt) + np.einsum(
        "...ikj,...ik,...kj->...ij", T2, Yt, Xt
    )
    return hermitian_part(U @ core @ Uh)


def frechet_d3(f: ScalarFunction, A, X, Y, W) -> np.ndarray:
    """Third derivative; symmetric trilinear in (X, Y, W).

    The third divided-difference tensor of A's eigenvalues is contracted
    with the directions in A's eigenbasis, once per ordering of them.  An
    ordering and its reverse give conjugate-transposed terms, which have the
    same Hermitian part, so they share one contraction, as do orderings that
    repeated directions make equal: (X, X, X) takes one, (X, X, W) two.
    """
    dec, mats = _prepared(f, A, [X, Y, W], 3)
    U, Uh = dec.eigenvectors, dagger(dec.eigenvectors)
    T3 = dd3_grid(f, dec.eigenvalues)
    tilde = [Uh @ M @ U for M in mats]
    first = [next(i for i in range(3) if np.array_equal(mats[i], M)) for M in mats]
    counts = Counter(min(p, p[::-1]) for p in permutations(first))
    core = sum(n * np.einsum("...iklj,...ik,...kl,...lj->...ij", T3, *(tilde[i] for i in p))
               for p, n in counts.items())
    return hermitian_part(U @ core @ Uh)


def derivative_inverse(psi: ScalarFunction,
                       dec: SpectralDecomposition) -> Callable[[np.ndarray], np.ndarray]:
    """Inverse of X -> Dpsi[A](X), given the eigendecomposition of A.

    By Daleckii-Krein, Dpsi[A](X) = U (K o U*XU) U* with K = psi^[1](lambda),
    so the inverse divides elementwise by K in the eigenbasis.  conj(U) (x) U
    is unitary, so the singular values of the matricised map are exactly |K|
    and the guard below is the dense guard of superop_inverse, applied to
    each map of a stack.
    """
    require_nodes_in_derivative_domain(psi, dec.eigenvalues, 1)
    U, Uh = dec.eigenvectors, dagger(dec.eigenvectors)
    K = dd1_grid(psi, dec.eigenvalues)
    s = np.abs(K)
    smallest, largest = s.min(axis=(-2, -1)).ravel(), s.max(axis=(-2, -1)).ravel()
    zero = smallest <= 0.0
    singular = zero | (largest / np.where(zero, 1.0, smallest) > SUPEROP_COND_LIMIT)
    if singular.any():
        k = int(np.argmax(singular))
        raise SingularOperatorError(
            f"derivative map numerically singular: smallest singular value "
            f"{smallest[k]:.3e}, largest {largest[k]:.3e}",
            float(smallest[k]),
        )
    return lambda X: hermitian_part(U @ ((Uh @ X @ U) / K) @ Uh)


# --- superoperator matricisation (dense oracle) --------------------------------


def superop_matrix(psi: ScalarFunction, A) -> np.ndarray:
    """The d^2 x d^2 matrix of X -> Dpsi[A](X) under column stacking.

    vec(X) concatenates the columns of X, so Dpsi[A](X) is
    T @ X.reshape(-1, order="F"), reshaped back in the same order.  The caller
    passes the scalar function psi whose matrix-function derivative is wanted
    (typically the derivative view of a catalog entry).  Under column
    stacking, X -> B X C matricises to C^T (x) B, so the map is
    (conj(U) (x) U) diag(vec(psi^[1])) (conj(U) (x) U)* in A's eigenbasis.
    """
    dec = spectral_decompose(A, "base point")
    require_nodes_in_derivative_domain(psi, dec.eigenvalues, 1)
    U, lam = dec.eigenvectors, dec.eigenvalues
    K = dd1_grid(psi, lam)
    B = np.kron(U.conj(), U)
    return hermitian_part((B * K.reshape(-1, order="F")) @ B.conj().T)


def superop_inverse(T: np.ndarray) -> np.ndarray:
    """Dense inverse of a superoperator matrix under the SUPEROP_COND_LIMIT
    guard; the oracle of derivative_inverse."""
    s = np.linalg.svd(T, compute_uv=False)
    smallest = float(s[-1])
    if smallest <= 0.0 or s[0] / smallest > SUPEROP_COND_LIMIT:
        raise SingularOperatorError(
            f"superoperator numerically singular: smallest singular value "
            f"{smallest:.3e}, largest {float(s[0]):.3e}",
            smallest,
        )
    return np.linalg.inv(T)


# --- finite-difference oracles ------------------------------------------------

_STENCILS = {
    1: ((1, 1.0), (-1, -1.0)),
    2: ((1, 1.0), (0, -2.0), (-1, 1.0)),
    3: ((2, 1.0), (1, -2.0), (-1, 2.0), (-2, -1.0)),
}
_STENCIL_SCALE = {1: 2.0, 2: 1.0, 3: 2.0}


def default_fd_step(order: int, A, X) -> np.ndarray:
    """Step balancing truncation against roundoff for the given order; one
    per matrix of stacks."""
    base = {1: 5e-6, 2: 2e-4, 3: 1e-3}[order]
    return base * (1.0 + frobenius(A)) / np.maximum(1.0, frobenius(X))


def finite_diff_oracle(f: ScalarFunction, A, X, order: int, step=None) -> np.ndarray:
    """Central-difference approximation of the order-k derivative along X.

    Independent of the divided-difference engine: evaluates only the matrix
    function, at all stencil points in one call.  A and X may be stacks;
    each matrix then gets its own default step, or the step given for it.
    """
    if order not in _STENCILS:
        raise DomainError(f"finite-difference oracle supports orders 1..3, got {order}")
    A = validate_hermitian(A, "base point")
    X = validate_hermitian(X, "direction")
    if step is None:
        step = default_fd_step(order, A, X)
    steps = np.broadcast_to(np.asarray(step, dtype=float), A.shape[:-2])
    if np.any(steps <= 0.0):
        raise DomainError(f"step must be positive, got {step}")
    h = np.expand_dims(steps, (-2, -1))
    stencil = _STENCILS[order]
    try:
        values = apply_scalar_function(f, np.stack([A + offset * h * X for offset, _ in stencil]))
    except DomainError as exc:
        raise DomainError(f"domain exit during stencil evaluation: {exc}") from exc
    acc = sum(coeff * value for (_, coeff), value in zip(stencil, values))
    return hermitian_part(acc / (_STENCIL_SCALE[order] * h**order))
