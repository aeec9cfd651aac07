"""Unital completely positive maps in Kraus form.

Channels here are mixed-unitary by construction when sampled, which makes
them unital and trace-preserving without any projection step.  The module
gives the margin of entropy monotonicity under a channel, whose report
comes from ``suite.check``, and checks the operator Jensen inequality for
the channel action.

Monotonicity has two forms.  The trace form H_Phi(N(Z)) <= H_Phi(Z) is the
paper's statement for the matrix Phi-entropy (class C2).  The operator form
compares operators on the same side of the channel: the operator-valued
entropy H(Z) = E Phi(Z) - Phi(E Z) is covariant, H(UZU*) = U H(Z) U*, so the
statement is N(H(Z)) >= H(N(Z)) in the PSD order, not H(Z) >= H(N(Z)), which
fails already for a unitary N.  It is certified only for class C3: for the
square, H(Z) = Var Z and Kadison-Schwarz for a unital CP map gives
Var N(Z) = E[N(Z - EZ)^2] <= E N((Z - EZ)^2) = N(Var Z); affine functions
have H = 0.  For a trace-preserving N the normalised trace of the operator
form is the trace form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import OPERATOR_CONVEX, ScalarFunction
from .entropy import MatrixEnsemble, matrix_phi_entropy, operator_phi_entropy
from .errors import ClassGateError, DimensionMismatchError, DomainError
from .reports import VerificationReport
from .spectral import (
    apply_scalar_function,
    frobenius,
    hermitian_part,
    matrix_from_json,
    matrix_to_json,
    trace,
    validate_hermitian,
    variant_margin,
)

UNITALITY_TOL = 1e-10


@dataclass(frozen=True)
class KrausChannel:
    """A unital CP map A -> sum_i K_i A K_i*.

    Unitality (sum_i K_i K_i* = I) is enforced at construction; the
    trace-preserving property (sum_i K_i* K_i = I) is validated only when
    the flag is set.
    """

    kraus: np.ndarray
    trace_preserving: bool = False

    def __post_init__(self):
        kraus = np.asarray(self.kraus, dtype=complex)
        if kraus.ndim != 3 or kraus.shape[1] != kraus.shape[2] or kraus.shape[0] < 1:
            raise DimensionMismatchError(
                f"Kraus stack must have shape (k, d, d), got {kraus.shape}"
            )
        d = kraus.shape[1]
        eye = np.eye(d)
        tol = UNITALITY_TOL * (1.0 + float(np.abs(kraus).max()) ** 2 * kraus.shape[0])
        unital = np.einsum("aij,akj->ik", kraus, kraus.conj())
        if np.abs(unital - eye).max() > tol:
            raise DomainError(
                f"channel is not unital: sum K K* deviates from I by "
                f"{np.abs(unital - eye).max():.3e}"
            )
        if self.trace_preserving:
            tp = np.einsum("aji,ajk->ik", kraus.conj(), kraus)
            if np.abs(tp - eye).max() > tol:
                raise DomainError(
                    f"channel does not preserve the trace: sum K* K deviates from I "
                    f"by {np.abs(tp - eye).max():.3e}"
                )
        object.__setattr__(self, "kraus", kraus)

    @property
    def dim(self) -> int:
        return self.kraus.shape[1]

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "kraus": [matrix_to_json(K) for K in self.kraus]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "KrausChannel":
        mats = data.get("kraus")
        if not mats:
            raise DomainError("channel JSON needs a non-empty 'kraus' list")
        return cls(np.stack([matrix_from_json(m) for m in mats]))


def apply_channel(N: KrausChannel, A) -> np.ndarray:
    """Kraus action sum_i K_i A K_i*; Hermiticity- and positivity-preserving."""
    A = np.asarray(A, dtype=complex)
    if A.shape != (N.dim, N.dim):
        raise DimensionMismatchError(
            f"channel of dim {N.dim} applied to matrix of shape {A.shape}"
        )
    out = (N.kraus @ A @ N.kraus.conj().transpose(0, 2, 1)).sum(axis=0)
    return hermitian_part(out) if np.allclose(A, A.conj().T) else out


def pushforward(N: KrausChannel, E: MatrixEnsemble) -> MatrixEnsemble:
    """Image ensemble {(w_i, N(A_i))}."""
    mapped = np.stack([apply_channel(N, a) for a in E.atoms])
    return MatrixEnsemble(E.weights, mapped)


def random_unital_channel(d: int, k: int, seed) -> KrausChannel:
    """Mixed-unitary channel: k Haar unitaries with random convex weights.

    Unital and trace-preserving by construction; bit-reproducible for a
    fixed seed.
    """
    from .sampling import as_generator, haar_unitary

    if k < 1:
        raise DomainError(f"channel needs at least one Kraus operator, got k={k}")
    rng = as_generator(seed, "unital_channel", d, k)
    weights = rng.dirichlet(np.ones(k))
    ops = np.stack([np.sqrt(w) * haar_unitary(d, rng) for w in weights])
    return KrausChannel(ops, trace_preserving=True)


def monotonicity_gap(f: ScalarFunction, N: KrausChannel, E: MatrixEnsemble,
                     variant: str) -> float:
    """Slack of entropy monotonicity under N; >= 0 when the inequality holds.

    trace: H_Phi(Z) - H_Phi(N(Z)) for the matrix Phi-entropy (class C2).
    operator: minimal eigenvalue of N(H(Z)) - H(N(Z)) for the
    operator-valued entropy; certified only for class C3.
    """
    mapped = pushforward(N, E)
    if variant == "trace":
        return matrix_phi_entropy(f, E) - matrix_phi_entropy(f, mapped)
    gap = apply_channel(N, operator_phi_entropy(f, E)) - operator_phi_entropy(f, mapped)
    return variant_margin(gap, variant)


def operator_jensen_margin(f: ScalarFunction, N: KrausChannel, A, variant: str) -> float:
    """Slack of f(N(A)) <= N(f(A)): PSD-order for operator, trace otherwise."""
    A = validate_hermitian(A, "A")
    NA = hermitian_part(apply_channel(N, A))
    # Unitality keeps the spectrum inside [min eig A, max eig A].
    lam_A = np.linalg.eigvalsh(A)
    lam_NA = np.linalg.eigvalsh(NA)
    slack = 1e-10 * (1.0 + frobenius(A))
    if lam_NA[0] < lam_A[0] - slack or lam_NA[-1] > lam_A[-1] + slack:
        raise DomainError(
            "channel output spectrum escaped the input's convex hull: "
            f"[{lam_NA[0]:.6g}, {lam_NA[-1]:.6g}] vs [{lam_A[0]:.6g}, {lam_A[-1]:.6g}]"
        )
    lhs = apply_scalar_function(f, NA)
    rhs = hermitian_part(apply_channel(N, apply_scalar_function(f, A)))
    if variant == "operator":
        return float(np.linalg.eigvalsh(hermitian_part(rhs - lhs))[0])
    return trace(rhs - lhs)


def operator_jensen_check(f: ScalarFunction, N: KrausChannel, A,
                          variant: str = "auto", override: bool = False,
                          tol: float | None = None) -> VerificationReport:
    """Jensen inequality for the channel action.

    The PSD-order form is asserted only for operator-convex functions; any
    convex function gets the trace form.  variant="auto" picks the
    strongest admissible form.
    """
    if variant == "auto":
        variant = "operator" if f.has_tag(OPERATOR_CONVEX) else "trace"
    if variant == "operator" and not f.has_tag(OPERATOR_CONVEX) and not override:
        raise ClassGateError(
            f"the PSD-order Jensen check needs an operator-convex function; "
            f"'{f.name}' has tags {sorted(f.class_tags)}. Pass override=True to force."
        )
    if variant not in ("trace", "operator"):
        raise DomainError(f"variant must be 'trace', 'operator' or 'auto', got '{variant}'")
    margin = operator_jensen_margin(f, N, A, variant)
    if tol is None:
        tol = 1e-10 * (1.0 + frobenius(np.asarray(A)))
    return VerificationReport.from_margin(
        f"operator_jensen[{f.spec_string()},{variant}]", margin, tol,
        witness={"kind": "operator_jensen", "phi": f.spec_string(), "variant": variant,
                 "channel": N.to_json_dict(), "A": matrix_to_json(A)},
    )
