"""Convexity functionals and their equivalence checks.

The bivariate functionals here (Bregman remainder, derivative increment,
second-derivative quadratic form, interpolation gap) characterise the
subadditive entropy classes through joint convexity.  This module gives
the slack of each condition at one point: joint convexity of a functional,
the integral and Taylor relations connecting the functionals, the
inverse-derivative concavity condition, the fourth-derivative trace
inequality, and the conditional Jensen inequality.  The suite sweeps these
slacks over sampled points; its reports state "no violation in N trials",
which is evidence, not a proof.  The report of one point of condition (e),
the convexity lemma or the conditional Jensen inequality comes from
``suite.check``; the integral and Taylor relations keep their own checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import ScalarFunction
from .errors import DomainError
from .frechet import frechet_d1, frechet_d2, frechet_d3, superop_inverse, superop_matrix
from .entropy import MatrixEnsemble, ProductEnsemble, operator_phi_entropy
from .reports import VerificationReport
from .spectral import (
    apply_scalar_function,
    hermitian_part,
    matrix_to_json,
    validate_hermitian,
    variant_margin,
)

FUNCTIONAL_NAMES = ("bregman_A", "map_B", "map_C", "gap_F_t")

# The fourth-derivative inequality carries a finite-difference layer, so it
# gets a looser tolerance than the exact-evaluation checks.
CONDITION_E_TOL = 1e-4


@dataclass(frozen=True)
class BivariateFunctional:
    """One of the convexity functionals, in trace or operator form."""

    name: str
    phi: ScalarFunction
    variant: str = "trace"
    t: float | None = None

    def __post_init__(self):
        if self.name not in FUNCTIONAL_NAMES:
            raise DomainError(f"unknown functional '{self.name}'; expected {FUNCTIONAL_NAMES}")
        if (self.t is not None) != (self.name == "gap_F_t"):
            raise DomainError("parameter t is required exactly when name == 'gap_F_t'")
        if self.name == "gap_F_t" and not (0.0 <= self.t <= 1.0):
            raise DomainError(f"t must lie in [0, 1], got {self.t}")
        if self.variant not in ("trace", "operator"):
            raise DomainError(f"variant must be 'trace' or 'operator', got '{self.variant}'")


def eval_functional(F: BivariateFunctional, u, v):
    """Evaluate the functional at a matrix pair; scalar for the trace variant."""
    f = F.phi
    u = validate_hermitian(u, "u")
    v = validate_hermitian(v, "v")
    if F.name == "bregman_A":
        out = (apply_scalar_function(f, u + v) - apply_scalar_function(f, u)
               - frechet_d1(f, u, v))
    elif F.name == "map_B":
        out = frechet_d1(f, u + v, v) - frechet_d1(f, u, v)
    elif F.name == "map_C":
        out = frechet_d2(f, u, v, v)
    else:
        t = F.t
        out = (t * apply_scalar_function(f, u) + (1.0 - t) * apply_scalar_function(f, v)
               - apply_scalar_function(f, t * u + (1.0 - t) * v))
    out = hermitian_part(out)
    if F.variant == "trace":
        return float(np.trace(out).real)
    return out


def convexity_slack_at(F: BivariateFunctional, u1, v1, u2, v2, lam: float) -> float:
    """Convex-combination slack; nonnegative for a jointly convex functional."""
    mix = (lam * u1 + (1.0 - lam) * u2, lam * v1 + (1.0 - lam) * v2)
    combo = lam * np.asarray(eval_functional(F, u1, v1)) \
        + (1.0 - lam) * np.asarray(eval_functional(F, u2, v2))
    gap = combo - np.asarray(eval_functional(F, *mix))
    if F.variant == "trace":
        return float(gap)
    return variant_margin(gap, "operator")


# --- inverse-derivative concavity (condition on the derivative map) -------------


def inverse_derivative_quadratic_form(f: ScalarFunction, A, h) -> float:
    """<h, (Dpsi[A])^{-1} h> with psi the derivative view of f."""
    psi = f.derivative()
    T_inv = superop_inverse(superop_matrix(psi, A))
    h = validate_hermitian(h, "h")
    return float(np.trace(h @ T_inv.apply(h)).real)


def condition_a_slack(f: ScalarFunction, A1, A2, h, lam: float) -> float:
    """Concavity slack of A -> <h, (Dpsi[A])^{-1} h> at one convex combination."""
    A_mix = lam * np.asarray(A1, dtype=complex) + (1.0 - lam) * np.asarray(A2, dtype=complex)
    q_mix = inverse_derivative_quadratic_form(f, A_mix, h)
    q1 = inverse_derivative_quadratic_form(f, A1, h)
    q2 = inverse_derivative_quadratic_form(f, A2, h)
    return q_mix - (lam * q1 + (1.0 - lam) * q2)


# --- fourth-derivative trace inequality -----------------------------------------


def condition_e_terms(f: ScalarFunction, A, h, k, method: str = "hybrid") -> tuple:
    """Both sides of the third-vs-second derivative trace inequality.

    Returns (lhs, rhs) with lhs = Tr[h Tinv D3psi(k, k, Tinv h)] and
    rhs = 2 Tr[h Tinv D2psi(k, Tinv D2psi(k, Tinv h))], T = Dpsi[A]; at
    d = 1 their difference reduces to the classical fourth-derivative
    criterion.
    """
    A = validate_hermitian(A, "A")
    h = validate_hermitian(h, "h")
    k = validate_hermitian(k, "k")
    lam = np.linalg.eigvalsh(A)
    if lam[0] < 0.5 - 1e-9 or lam[-1] > 4.0 + 1e-9:
        raise DomainError(
            f"condition (e) checks are restricted to spectra in [0.5, 4]; got "
            f"[{lam[0]:.6g}, {lam[-1]:.6g}]"
        )
    psi = f.derivative()
    T_inv = superop_inverse(superop_matrix(psi, A))
    u = T_inv.apply(h)
    lhs = float(np.trace(h @ T_inv.apply(frechet_d3(psi, A, k, k, u, method=method))).real)
    inner = T_inv.apply(frechet_d2(psi, A, k, u))
    rhs = 2.0 * float(np.trace(h @ T_inv.apply(frechet_d2(psi, A, k, inner))).real)
    return lhs, rhs


def condition_e_margin(f: ScalarFunction, A, h, k, method: str = "hybrid") -> float:
    """Relative slack (lhs - rhs) / max(1, |lhs|, |rhs|)."""
    lhs, rhs = condition_e_terms(f, A, h, k, method=method)
    return (lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def condition_e_scalar_oracle(f: ScalarFunction, a: float, h: float, k: float) -> float:
    """Closed-form d = 1 value: (f'''' f'' - 2 f'''^2) k^2 h^2 / f''^3."""
    d2 = float(f.deriv(a, 2))
    d3 = float(f.deriv(a, 3))
    d4 = float(f.deriv(a, 4))
    return (d4 * d2 - 2.0 * d3**2) * (k * k * h * h) / d2**3


# --- integral and Taylor relations ------------------------------------------------


def _trace_functionals(f: ScalarFunction, variant: str = "trace"):
    A = BivariateFunctional("bregman_A", f, variant)
    B = BivariateFunctional("map_B", f, variant)
    C = BivariateFunctional("map_C", f, variant)
    return A, B, C


def integral_relation_check(f: ScalarFunction, u, v, quadrature_points: int = 32,
                            tol: float = 1e-6) -> VerificationReport:
    """Gauss-Legendre reconstruction of the Bregman and increment functionals.

    bregman_A(u,v) = int_0^1 (1-s) map_C(u+sv, v) ds and
    map_B(u,v)     = int_0^1       map_C(u+sv, v) ds.
    """
    F_A, F_B, F_C = _trace_functionals(f)
    x, w = np.polynomial.legendre.leggauss(quadrature_points)
    s_nodes = 0.5 * (x + 1.0)
    s_weights = 0.5 * w
    u = validate_hermitian(u, "u")
    v = validate_hermitian(v, "v")
    c_vals = np.array([eval_functional(F_C, u + s * v, v) for s in s_nodes])
    quad_A = float(np.sum(s_weights * (1.0 - s_nodes) * c_vals))
    quad_B = float(np.sum(s_weights * c_vals))
    direct_A = eval_functional(F_A, u, v)
    direct_B = eval_functional(F_B, u, v)
    scale = max(1.0, abs(direct_A), abs(direct_B))
    err = max(abs(quad_A - direct_A), abs(quad_B - direct_B)) / scale
    return VerificationReport.from_margin(
        f"integral_relation[{f.spec_string()}]", -err, tol,
        witness={"kind": "integral_relation", "phi": f.spec_string(),
                 "u": matrix_to_json(u), "v": matrix_to_json(v),
                 "quadrature_points": quadrature_points},
    )


def taylor_relation_check(f: ScalarFunction, u, v, eps_sequence=(1e-1, 3e-2, 1e-2, 3e-3, 1e-3),
                          tol: float = 1e-2) -> VerificationReport:
    """Small-direction expansion of the Bregman and increment functionals.

    bregman_A(u, eps v)/eps^2 -> map_C(u, v)/2 and map_B(u, eps v)/eps^2 ->
    map_C(u, v), with residuals shrinking at least linearly in eps.  The
    margin is minus the worst relative residual at the smallest eps; a
    failed convergence-order fit forces the report to fail (the fitted
    slopes are recorded in the witness).
    """
    F_A, F_B, F_C = _trace_functionals(f)
    eps_sequence = sorted((float(e) for e in eps_sequence), reverse=True)
    u = validate_hermitian(u, "u")
    v = validate_hermitian(v, "v")
    c_half = 0.5 * eval_functional(F_C, u, v)
    c_full = 2.0 * c_half
    scale = max(1.0, abs(c_full))
    res_A, res_B = [], []
    for eps in eps_sequence:
        res_A.append(abs(eval_functional(F_A, u, eps * v) / eps**2 - c_half) / scale)
        res_B.append(abs(eval_functional(F_B, u, eps * v) / eps**2 - c_full) / scale)
    # Residuals below this are cancellation roundoff amplified by 1/eps^2
    # (polynomial case); a convergence-order fit on them is meaningless.
    exact_floor = 1e-7
    slopes = {}
    ok = True
    for name, res in (("A", res_A), ("B", res_B)):
        if max(res) <= exact_floor:
            slopes[name] = None
            continue
        logs = np.log(np.maximum(res, 1e-300))
        slope = float(np.polyfit(np.log(eps_sequence), logs, 1)[0])
        slopes[name] = slope
        if slope < 0.9:
            ok = False
    margin = -max(res_A[-1], res_B[-1])
    if not ok:
        margin = min(margin, -2.0 * tol)  # force failure on a bad convergence order
    return VerificationReport.from_margin(
        f"taylor_relation[{f.spec_string()}]", margin, tol,
        witness={"kind": "taylor_relation", "phi": f.spec_string(), "slopes": slopes,
                 "u": matrix_to_json(u), "v": matrix_to_json(v)},
    )


# --- convexity lemma and conditional Jensen ---------------------------------------


def convexity_lemma_margin(f: ScalarFunction, weights, A_atoms, X_atoms) -> float:
    """E<X, Dpsi[A] X> - <EX, Dpsi[EA] EX>; nonnegative for in-class f."""
    psi = f.derivative()
    weights = np.asarray(weights, dtype=float)
    lhs = 0.0
    for w, A, X in zip(weights, A_atoms, X_atoms):
        lhs += float(w) * float(np.trace(
            np.asarray(X, dtype=complex).conj().T @ frechet_d1(psi, A, X)).real)
    mean_A = hermitian_part(np.einsum("m,mij->ij", weights, np.asarray(A_atoms, dtype=complex)))
    mean_X = hermitian_part(np.einsum("m,mij->ij", weights, np.asarray(X_atoms, dtype=complex)))
    rhs = float(np.trace(mean_X.conj().T @ frechet_d1(psi, mean_A, mean_X)).real)
    return lhs - rhs


def conditional_jensen_gap(f: ScalarFunction, P: ProductEnsemble) -> np.ndarray:
    """E_1 H(Z | X_1) - H(E_1 Z) for a two-factor product, as an operator.

    E_1 averages over the first factor; H(. | X_1) is the entropy in the
    second factor's randomness at fixed X_1.
    """
    if P.n != 2:
        raise DomainError(f"conditional Jensen check needs exactly two factors, got {P.n}")
    w1 = P.factor_weights[0]
    lhs = np.zeros((P.dim, P.dim), dtype=complex)
    for s1, w in enumerate(w1):
        lhs = lhs + float(w) * operator_phi_entropy(f, P.slice_over_complement(0, s1))
    # E_1 Z is a random matrix in the second factor only.
    w2 = P.factor_weights[1]
    averaged = []
    for s2 in range(len(w2)):
        avg = np.zeros((P.dim, P.dim), dtype=complex)
        for s1, w in enumerate(w1):
            avg = avg + float(w) * P.z_map[(s1, s2)]
        averaged.append(hermitian_part(avg))
    E1Z = MatrixEnsemble(np.asarray(w2, dtype=float), np.stack(averaged))
    rhs = operator_phi_entropy(f, E1Z)
    return hermitian_part(lhs - rhs)
