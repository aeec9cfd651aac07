"""Convexity functionals and the slacks of the paper's characterizations.

The bivariate functionals here (Bregman remainder, derivative increment,
second-derivative quadratic form, interpolation gap) characterise the
subadditive entropy classes through joint convexity.  The functionals are
operators; the slack of joint convexity is an operator gap, read in the
variant it is given by ``spectral.variant_margin``.  This module gives
the slack of each condition: joint convexity of a functional, the
inverse-derivative concavity condition (a) and the fourth-derivative trace
inequality (e); the conditional Jensen inequality (g) is the subadditivity
gap for two factors, swept with that record.  The convexity lemma, Jensen's
inequality for Tr map_C over any number of atoms, follows from the joint
convexity of map_C (item (d)) by induction, so it has no slack of its own.

Each slack takes stacks or columns (``entropy``), with a leading trial
axis, and gives one result per trial.  The two convexity slacks (of a
functional, and condition (a)) take a row of weights lambda per pair, one
slack each: the two endpoints and all mixes are then one stack, with one
batched ``eigh``.  Every report of these slacks comes from the ``suite``
registry; a sweep's report states "no violation in N trials", which is
evidence, not a proof.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import ScalarFunction, dd2_grid
from .errors import DomainError
from .frechet import _d2_core, derivative_inverse, frechet_d1, frechet_d2, frechet_d3
from .entropy import subadditivity_gap
from .spectral import (
    apply_scalar_function,
    dagger,
    hermitian_part,
    spectral_decompose,
    validate_hermitian,
    variant_margin,
)

FUNCTIONAL_NAMES = ("bregman_A", "map_B", "map_C", "gap_F_t")

# The spectra of the base points condition (e) is checked at.
CONDITION_E_SPECTRUM = (0.5, 4.0)


@dataclass(frozen=True)
class BivariateFunctional:
    """One of the convexity functionals; its value at a pair is an operator."""

    name: str
    phi: ScalarFunction
    t: float | np.ndarray | None = None  # gap_F_t: one number, or one per pair of a stack

    def __post_init__(self):
        if self.name not in FUNCTIONAL_NAMES:
            raise DomainError(f"unknown functional '{self.name}'; expected {FUNCTIONAL_NAMES}")
        if (self.t is not None) != (self.name == "gap_F_t"):
            raise DomainError("parameter t is required exactly when name == 'gap_F_t'")
        if self.name == "gap_F_t" and not np.all((0.0 <= np.asarray(self.t))
                                                 & (np.asarray(self.t) <= 1.0)):
            raise DomainError(f"t must lie in [0, 1], got {self.t}")


def eval_functional(F: BivariateFunctional, u, v):
    """The Hermitian operator value of the functional at a matrix pair, or a
    stack of them at the pairs of two stacks.  An array F.t holds the t of
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
    return hermitian_part(out)


def _weights(lam, pairs: np.ndarray) -> np.ndarray:
    """lam as one row of weights per pair of the stack pairs (..., d, d)."""
    return np.asarray(lam, dtype=float).reshape(pairs.shape[:-2] + (-1,))


def _ends_and_mixes(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a, b and their mixes w a + (1 - w) b along a new axis -3, per pair."""
    a, b = a[..., None, :, :], b[..., None, :, :]
    return np.concatenate([a, b, w * a + (1.0 - w) * b], axis=-3)


def convexity_slack_at(F: BivariateFunctional, u1, v1, u2, v2, lam, variant: str) -> np.ndarray:
    """Convex-combination slacks (..., L), one per weight of lam: a number is
    a row of one; nonnegative for a jointly convex functional.

    The slack is the variant's margin of the gap w F(p1) + (1 - w) F(p2) -
    F(w p1 + (1 - w) p2) at each weight w.  The pairs may be stacks
    (..., d, d); lam then holds a row of weights for each.  All endpoints
    and mixes are one stack.
    """
    u1, v1, u2, v2 = map(np.asarray, (u1, v1, u2, v2))
    w = _weights(lam, u1)[..., None, None]
    values = eval_functional(F, _ends_and_mixes(u1, u2, w), _ends_and_mixes(v1, v2, w))
    gap = w * values[..., :1, :, :] + (1.0 - w) * values[..., 1:2, :, :] - values[..., 2:, :, :]
    return variant_margin(gap, variant)


# --- inverse-derivative concavity (condition on the derivative map) -------------


def inverse_derivative_quadratic_form(f: ScalarFunction, A, h):
    """<h, (Dpsi[A])^{-1} h> with psi the derivative view of f.

    One value per matrix of a stack A.  The inverse is applied in A's
    eigenbasis (``frechet.derivative_inverse``); SingularOperatorError is
    raised when Dpsi[A] is numerically singular.
    """
    h = validate_hermitian(h, "h")
    T_inv = derivative_inverse(f.derivative(), spectral_decompose(A, "base point"))
    return np.trace(h @ T_inv(h), axis1=-2, axis2=-1).real


def condition_a_slack(f: ScalarFunction, A1, A2, h, lam) -> np.ndarray:
    """Concavity slacks of A -> <h, (Dpsi[A])^{-1} h> at the convex
    combinations of the weights lam, one per weight, as ``convexity_slack_at``
    gives them; A1, A2 and h may be stacks, as its pairs."""
    A1, A2 = np.asarray(A1, dtype=complex), np.asarray(A2, dtype=complex)
    lams = _weights(lam, A1)
    q = inverse_derivative_quadratic_form(
        f, _ends_and_mixes(A1, A2, lams[..., None, None]), np.asarray(h)[..., None, :, :])
    return q[..., 2:] - (lams * q[..., :1] + (1.0 - lams) * q[..., 1:2])


# --- fourth-derivative trace inequality -----------------------------------------


def condition_e_terms(f: ScalarFunction, A, h, k) -> tuple:
    """Both sides of the third-vs-second derivative trace inequality.

    Returns (lhs, rhs) with lhs = Tr[h Tinv D3psi(k, k, Tinv h)] and
    rhs = 2 Tr[h Tinv D2psi(k, Tinv D2psi(k, Tinv h))], T = Dpsi[A]; at
    d = 1 their difference reduces to the classical fourth-derivative
    criterion.  Both have one entry per matrix of stacks A, h, k.
    """
    dec = spectral_decompose(A, "A")
    h = validate_hermitian(h, "h")
    k = validate_hermitian(k, "k")
    low, high = dec.eigenvalues[..., 0], dec.eigenvalues[..., -1]
    floor, cap = CONDITION_E_SPECTRUM
    outside = (low < floor - 1e-9) | (high > cap + 1e-9)
    if outside.any():
        i = np.argmax(outside)
        raise DomainError(
            f"condition (e) checks are restricted to spectra in [{floor:g}, {cap:g}]; got "
            f"[{low.flat[i]:.6g}, {high.flat[i]:.6g}]"
        )
    psi = f.derivative()
    T_inv = derivative_inverse(psi, dec)
    u = T_inv(h)
    lhs = np.trace(h @ T_inv(frechet_d3(psi, dec, k, k, u)), axis1=-2, axis2=-1).real
    # The two D2psi(k, .) terms share U*, the dd2 grid and k in A's eigenbasis.
    U, Uh = dec.eigenvectors, dagger(dec.eigenvectors)
    T2, kt = dd2_grid(psi, dec.eigenvalues), Uh @ k @ U
    inner = T_inv(_d2_core(U, Uh, T2, kt, Uh @ u @ U))
    rhs = 2.0 * np.trace(h @ T_inv(_d2_core(U, Uh, T2, kt, Uh @ inner @ U)),
                         axis1=-2, axis2=-1).real
    return lhs, rhs


def condition_e_margin(f: ScalarFunction, A, h, k):
    """Relative slack (lhs - rhs) / max(1, |lhs|, |rhs|); one per matrix of stacks."""
    lhs, rhs = condition_e_terms(f, A, h, k)
    return (lhs - rhs) / np.maximum(1.0, np.maximum(abs(lhs), abs(rhs)))


# --- conditional Jensen ---------------------------------------------------------


def conditional_jensen_gap(f: ScalarFunction, P: tuple) -> np.ndarray:
    """E_1 H(Z | X_1) - H(E_1 Z) for a two-factor product, as an operator,
    one per trial of the product column P.

    E_1 averages over the first factor; H(. | X_1) is the entropy in the
    second factor's randomness at fixed X_1.  It and the subadditivity gap
    both expand to E phi(Z) - E_1 phi(E_2 Z) - E_2 phi(E_1 Z) + phi(EZ), so
    ``subadditivity_gap`` computes it.  No record calls it: it is the tests'
    statement of (g), kept while the benchmark's tracer names it.
    """
    rows, _ = P
    if len(rows) != 2:
        raise DomainError(f"conditional Jensen check needs exactly two factors, got {len(rows)}")
    return subadditivity_gap(f, P)
