"""Convexity functionals and the slacks of the paper's characterizations.

The bivariate functionals here (Bregman remainder, derivative increment,
second-derivative quadratic form, interpolation gap) characterise the
subadditive entropy classes through joint convexity.  This module gives
the slack of each condition: joint convexity of a functional, the
inverse-derivative concavity condition (a), the fourth-derivative trace
inequality (e), the convexity lemma and the conditional Jensen inequality
(g).  The two convexity slacks (of a functional, and condition (a)) take a
vector of weights lambda too, one slack each: the two endpoints and all
mixes are then one stack, with one batched ``eigh``.  Every report of
these slacks comes from the ``suite`` registry; a sweep's report states
"no violation in N trials", which is evidence, not a proof.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import ScalarFunction
from .errors import DimensionMismatchError, DomainError
from .frechet import derivative_inverse, frechet_d1, frechet_d2, frechet_d3
from .entropy import ProductEnsemble, _check_weights, jensen_gap
from .spectral import (
    apply_scalar_function,
    hermitian_part,
    spectral_decompose,
    validate_hermitian,
    variant_margin,
)

FUNCTIONAL_NAMES = ("bregman_A", "map_B", "map_C", "gap_F_t")


@dataclass(frozen=True)
class BivariateFunctional:
    """One of the convexity functionals, in trace or operator form."""

    name: str
    phi: ScalarFunction
    variant: str = "trace"
    t: float | np.ndarray | None = None  # gap_F_t: one number, or one per pair of a stack

    def __post_init__(self):
        if self.name not in FUNCTIONAL_NAMES:
            raise DomainError(f"unknown functional '{self.name}'; expected {FUNCTIONAL_NAMES}")
        if (self.t is not None) != (self.name == "gap_F_t"):
            raise DomainError("parameter t is required exactly when name == 'gap_F_t'")
        if self.name == "gap_F_t" and not np.all((0.0 <= np.asarray(self.t))
                                                 & (np.asarray(self.t) <= 1.0)):
            raise DomainError(f"t must lie in [0, 1], got {self.t}")
        if self.variant not in ("trace", "operator"):
            raise DomainError(f"variant must be 'trace' or 'operator', got '{self.variant}'")


def eval_functional(F: BivariateFunctional, u, v):
    """Evaluate the functional at a matrix pair, or at each pair of two stacks;
    a number per pair for the trace variant.  An array F.t holds the t of
    each pair along the leading axes of the stacks."""
    f = F.phi
    u = validate_hermitian(u, "u")
    v = validate_hermitian(v, "v")
    if F.name == "bregman_A":
        dec = spectral_decompose(u, "u")
        out = (apply_scalar_function(f, u + v) - apply_scalar_function(f, dec)
               - frechet_d1(f, dec, v))
    elif F.name == "map_B":
        out = frechet_d1(f, u + v, v) - frechet_d1(f, u, v)
    elif F.name == "map_C":
        out = frechet_d2(f, u, v, v)
    else:
        t = np.reshape(F.t, np.shape(F.t) + (1,) * (u.ndim - np.ndim(F.t)))
        out = (t * apply_scalar_function(f, u) + (1.0 - t) * apply_scalar_function(f, v)
               - apply_scalar_function(f, t * u + (1.0 - t) * v))
    out = hermitian_part(out)
    if F.variant == "trace":
        value = np.trace(out, axis1=-2, axis2=-1).real
        return float(value) if value.ndim == 0 else value
    return out


def _per_weight(lam, slacks):
    """The slacks in the form lam came in: a float for a number, else (nested) lists."""
    return float(slacks.flat[0]) if np.ndim(lam) == 0 else slacks.tolist()


def _weights(lam, pairs: np.ndarray) -> np.ndarray:
    """lam as one row of weights per pair of the stack pairs (..., d, d)."""
    return np.asarray(lam, dtype=float).reshape(pairs.shape[:-2] + (-1,))


def _ends_and_mixes(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a, b and their mixes w a + (1 - w) b along a new axis -3, per pair."""
    a, b = a[..., None, :, :], b[..., None, :, :]
    return np.concatenate([a, b, w * a + (1.0 - w) * b], axis=-3)


def convexity_slack_at(F: BivariateFunctional, u1, v1, u2, v2, lam):
    """Convex-combination slack at weight lam (a list of them for a vector
    lam); nonnegative for a jointly convex functional.

    The pairs may be stacks (..., d, d); lam then holds a row of weights for
    each, and the slacks come as nested lists (..., L).  All endpoints and
    mixes are one stack.
    """
    u1, v1, u2, v2 = map(np.asarray, (u1, v1, u2, v2))
    lams = _weights(lam, u1)
    w = lams[..., None, None]
    values = eval_functional(F, _ends_and_mixes(u1, u2, w), _ends_and_mixes(v1, v2, w))
    if F.variant == "operator":
        gap = (w * values[..., :1, :, :] + (1.0 - w) * values[..., 1:2, :, :]
               - values[..., 2:, :, :])
        return _per_weight(lam, variant_margin(gap, "operator"))
    return _per_weight(lam, lams * values[..., :1] + (1.0 - lams) * values[..., 1:2]
                       - values[..., 2:])


# --- inverse-derivative concavity (condition on the derivative map) -------------


def inverse_derivative_quadratic_form(f: ScalarFunction, A, h):
    """<h, (Dpsi[A])^{-1} h> with psi the derivative view of f.

    One value per matrix of a stack A.  The inverse is applied in A's
    eigenbasis (``frechet.derivative_inverse``); SingularOperatorError is
    raised when Dpsi[A] is numerically singular.
    """
    h = validate_hermitian(h, "h")
    T_inv = derivative_inverse(f.derivative(), spectral_decompose(A, "base point"))
    q = np.trace(h @ T_inv(h), axis1=-2, axis2=-1).real
    return float(q) if q.ndim == 0 else q


def condition_a_slack(f: ScalarFunction, A1, A2, h, lam):
    """Concavity slack of A -> <h, (Dpsi[A])^{-1} h> at the convex combination
    of weight lam (a list of them for a vector lam).  A1, A2 and h may be
    stacks, as the pairs of ``convexity_slack_at``."""
    A1, A2 = np.asarray(A1, dtype=complex), np.asarray(A2, dtype=complex)
    lams = _weights(lam, A1)
    q = inverse_derivative_quadratic_form(
        f, _ends_and_mixes(A1, A2, lams[..., None, None]), np.asarray(h)[..., None, :, :])
    return _per_weight(lam, q[..., 2:] - (lams * q[..., :1] + (1.0 - lams) * q[..., 1:2]))


# --- fourth-derivative trace inequality -----------------------------------------


def condition_e_terms(f: ScalarFunction, A, h, k) -> tuple:
    """Both sides of the third-vs-second derivative trace inequality.

    Returns (lhs, rhs) with lhs = Tr[h Tinv D3psi(k, k, Tinv h)] and
    rhs = 2 Tr[h Tinv D2psi(k, Tinv D2psi(k, Tinv h))], T = Dpsi[A]; at
    d = 1 their difference reduces to the classical fourth-derivative
    criterion.  For stacks A, h, k both are arrays, one entry per matrix.
    """
    dec = spectral_decompose(A, "A")
    h = validate_hermitian(h, "h")
    k = validate_hermitian(k, "k")
    low, high = dec.eigenvalues[..., 0], dec.eigenvalues[..., -1]
    outside = (low < 0.5 - 1e-9) | (high > 4.0 + 1e-9)
    if outside.any():
        i = np.argmax(outside)
        raise DomainError(
            f"condition (e) checks are restricted to spectra in [0.5, 4]; got "
            f"[{low.flat[i]:.6g}, {high.flat[i]:.6g}]"
        )
    psi = f.derivative()
    T_inv = derivative_inverse(psi, dec)
    u = T_inv(h)
    lhs = np.trace(h @ T_inv(frechet_d3(psi, dec, k, k, u)), axis1=-2, axis2=-1).real
    inner = T_inv(frechet_d2(psi, dec, k, u))
    rhs = 2.0 * np.trace(h @ T_inv(frechet_d2(psi, dec, k, inner)), axis1=-2, axis2=-1).real
    return (float(lhs), float(rhs)) if lhs.ndim == 0 else (lhs, rhs)


def condition_e_margin(f: ScalarFunction, A, h, k):
    """Relative slack (lhs - rhs) / max(1, |lhs|, |rhs|); one per matrix of stacks."""
    lhs, rhs = condition_e_terms(f, A, h, k)
    return (lhs - rhs) / np.maximum(1.0, np.maximum(abs(lhs), abs(rhs)))


# --- convexity lemma and conditional Jensen ---------------------------------------


def convexity_lemma_margin(f: ScalarFunction, weights, A_atoms, X_atoms) -> float:
    """E<X, Dpsi[A] X> - <EX, Dpsi[EA] EX>; nonnegative for in-class f."""
    weights = _check_weights(np.asarray(weights, dtype=float)[None], "convexity lemma weights")[0]
    if not len(weights) == len(A_atoms) == len(X_atoms):
        raise DimensionMismatchError(f"convexity lemma needs one weight per matrix of A and X, "
                                     f"got {len(weights)} weights, {len(A_atoms)} A and "
                                     f"{len(X_atoms)} X")
    psi = f.derivative()
    lhs = 0.0
    for w, A, X in zip(weights, A_atoms, X_atoms):
        lhs += float(w) * float(np.trace(
            np.asarray(X, dtype=complex).conj().T @ frechet_d1(psi, A, X)).real)
    mean_A = hermitian_part(np.einsum("m,mij->ij", weights, np.asarray(A_atoms, dtype=complex)))
    mean_X = hermitian_part(np.einsum("m,mij->ij", weights, np.asarray(X_atoms, dtype=complex)))
    rhs = float(np.trace(mean_X.conj().T @ frechet_d1(psi, mean_A, mean_X)).real)
    return lhs - rhs


def conditional_jensen_gap(f: ScalarFunction, P) -> np.ndarray:
    """E_1 H(Z | X_1) - H(E_1 Z) for a two-factor product, as an operator.

    E_1 averages over the first factor; H(. | X_1) is the entropy in the
    second factor's randomness at fixed X_1.  A list of products of one
    layout gives a stack of gaps.
    """
    products = [P] if isinstance(P, ProductEnsemble) else list(P)
    for Q in products:
        if Q.n != 2:
            raise DomainError(f"conditional Jensen check needs exactly two factors, got {Q.n}")
    w1, w2 = (np.stack([Q.factor_weights[i] for Q in products]) for i in (0, 1))
    Z = np.stack([Q.atoms for Q in products])
    Z = Z.reshape(w1.shape + w2.shape[1:] + Z.shape[-2:])  # (B, s1, s2, d, d)
    # H(Z | X_1 = s1) integrates over the second factor, its weights normalised.
    slice_weights = np.stack([w / w.sum() for w in w2])
    lhs = np.zeros(Z.shape[:1] + Z.shape[-2:], dtype=complex)
    averaged = np.zeros(Z.shape[:1] + Z.shape[2:], dtype=complex)
    for s1 in range(w1.shape[1]):
        weight = w1[:, s1, None, None]
        lhs = lhs + weight * jensen_gap(f, slice_weights, Z[:, s1])
        # E_1 Z is a random matrix in the second factor only.
        averaged = averaged + weight[..., None] * Z[:, s1]
    gaps = hermitian_part(lhs - jensen_gap(f, w2, hermitian_part(averaged)))
    return gaps[0] if isinstance(P, ProductEnsemble) else gaps
