"""Unital quantum channels in Kraus form, and two statements about them.

A channel here is completely positive, trace preserving and unital, as the
paper's unital quantum channels are: every channel, sampled or read from a
witness, is checked for sum K*K = I and sum KK* = I.  Sampled channels are
mixed-unitary, which makes them both without any projection step.  A column
of channels is one Kraus stack (n, k, d, d), each channel's operators zero
padded to the largest count k, and each channel's own count (n,); a sweep
chunk's column is checked at once, and images of checked ensembles under
it, PSD by construction, are not.  The module gives the operator gaps of
two statements about a unital channel N; their reports come from the
``suite`` registry.  Both take columns and give one gap per trial: the
channels act in one batched product, where the padding adds exact zeros,
and everything after the channels runs as one stack.

The operator Jensen inequality f(N(A)) <= N(f(A)) holds in the PSD order
for operator-convex f, and in trace for convex f (Hansen-Pedersen,
Math. Ann. 258, 1982); every C3 function of the catalog is operator convex.
The paper's monotonicity under unital channels rests on it.

Monotonicity has two forms.  The trace form H_Phi(N(Z)) <= H_Phi(Z) is the
paper's statement for the matrix Phi-entropy (class C2).  The operator form
compares operators on the same side of the channel: the operator-valued
entropy H(Z) = E Phi(Z) - Phi(E Z) is covariant, H(UZU*) = U H(Z) U*, so the
statement is N(H(Z)) >= H(N(Z)) in the PSD order, not H(Z) >= H(N(Z)), which
fails already for a unitary N.  It is certified only for class C3: for the
square, H(Z) = Var Z and Kadison-Schwarz for a unital CP map gives
Var N(Z) = E[N(Z - EZ)^2] <= E N((Z - EZ)^2) = N(Var Z); affine functions
have H = 0.  Since N preserves the trace, the normalised trace of the
gap N(H(Z)) - H(N(Z)) is the trace form's slack H_Phi(Z) - H_Phi(N(Z)):
``monotonicity_gap`` gives that one operator, and ``spectral.variant_margin``
reads it in either form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import ScalarFunction
from .entropy import MatrixEnsemble, _set, as_stacks, operator_phi_entropy
from .errors import DimensionMismatchError, DomainError
from .spectral import (
    SpectralDecomposition,
    apply_scalar_function,
    dagger,
    frobenius,
    hermitian_part,
    matrices_from_json,
    matrix_to_json,
    validate_hermitian,
)

UNITALITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A unital quantum channel A -> sum_i K_i A K_i*: completely positive,
    trace preserving (sum_i K_i* K_i = I) and unital (sum_i K_i K_i* = I),
    both enforced at construction.
    """

    kraus: np.ndarray

    def __post_init__(self):
        kraus, _ = self.stack([self.kraus])
        _set(self, {"kraus": kraus[0]})

    @classmethod
    def stack(cls, kraus, counts=None) -> tuple:
        """The column of channels of Kraus stacks (n, k, d, d), the n-th zero
        past its own count counts[n] (k for every channel when None), checked
        at once; the first channel that fails raises what it raises alone."""
        kraus = as_stacks(kraus, "Kraus operator {}".format)
        if kraus.ndim != 4 or kraus.shape[2] != kraus.shape[3] or kraus.shape[1] < 1:
            raise DimensionMismatchError(
                f"Kraus stack must have shape (k, d, d), got {kraus.shape[1:]}")
        counts = np.full(len(kraus), kraus.shape[1]) if counts is None else np.asarray(counts)
        eye = np.eye(kraus.shape[-1])
        tol = UNITALITY_TOL * (1.0 + np.abs(kraus).max(axis=(1, 2, 3)) ** 2 * counts)
        sums = {"is not unital: sum K K*": np.einsum("naij,nakj->nik", kraus, kraus.conj()),
                "does not preserve the trace: sum K* K": np.einsum(
                    "naji,najk->nik", kraus.conj(), kraus)}
        deviations = {what: np.abs(s - eye).max(axis=(1, 2)) for what, s in sums.items()}
        finite = np.isfinite(kraus).all(axis=(1, 2, 3))
        for n in range(len(kraus)):
            if not finite[n]:
                raise DomainError("channel has a Kraus operator with a non-finite entry")
            for what, deviation in deviations.items():
                if deviation[n] > tol[n]:
                    raise DomainError(f"channel {what} deviates from I by {deviation[n]:.3e}")
        return kraus, counts

    @classmethod
    def row(cls, column: tuple, n: int) -> "KrausChannel":
        """Entry n of a checked column, its own operators only, not checked again."""
        kraus, counts = column
        return _set(object.__new__(cls), {"kraus": kraus[n, :counts[n]]})

    @property
    def column(self) -> tuple:
        return self.kraus[None], np.array([len(self.kraus)])

    def to_json_dict(self) -> dict:
        return {"dim": self.kraus.shape[1], "kraus": [matrix_to_json(K) for K in self.kraus]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "KrausChannel":
        return cls(matrices_from_json(data.get("kraus"), "channel JSON 'kraus'", data.get("dim")))


def _kraus_images(N: tuple, A: np.ndarray) -> np.ndarray:
    """The Hermitian part of sum_i K_i A[n] K_i* for the n-th channel of the
    column N and the n-th entry of A (n, ..., d, d), a matrix or a stack of
    them: one batched product.  A channel's zero padding adds exact zeros
    after its own terms, so each image is the one its channel gives alone.
    """
    kraus, _ = N
    if kraus.shape[-1] != A.shape[-1]:
        raise DimensionMismatchError(f"channels of dim {kraus.shape[-1]} applied to "
                                     f"matrices of dim {A.shape[-1]}")
    K = kraus.reshape(kraus.shape[:1] + (1,) * (A.ndim - 3) + kraus.shape[1:])
    return hermitian_part((K @ A[..., None, :, :] @ dagger(K)).sum(axis=-3))


def pushforward(N: KrausChannel, E: MatrixEnsemble) -> MatrixEnsemble:
    """Image ensemble {(w_i, N(A_i))} of one channel and one ensemble, checked
    by its constructor."""
    return MatrixEnsemble(E.weights, _kraus_images(N.column, E.atoms[None])[0])


def random_unital_channel(d: int, k, seed) -> KrausChannel:
    """Mixed-unitary channel: k Haar unitaries with random convex weights.

    Unital and trace-preserving by construction; bit-reproducible for a
    fixed seed.  A list of generators takes a list of counts k and gives
    their column.
    """
    from .sampling import as_generators, haar_unitary

    rngs, listed = as_generators(seed, "unital_channel", d, k)
    counts = list(k) if listed else [k]
    if min(counts) < 1:
        raise DomainError(f"channel needs at least one Kraus operator, got k={min(counts)}")
    weights = [rng.dirichlet(np.ones(n)) for rng, n in zip(rngs, counts)]
    # A generator listed n times draws n unitaries in turn; all go through one QR.
    U = haar_unitary(d, [rng for rng, n in zip(rngs, counts) for _ in range(n)])
    kraus = np.zeros((len(counts), max(counts), d, d), dtype=complex)
    for K, w, U_i in zip(kraus, weights, np.split(U, np.cumsum(counts)[:-1])):
        K[:len(w)] = np.sqrt(w)[:, None, None] * U_i
    column = KrausChannel.stack(kraus, counts)
    return column if listed else KrausChannel.row(column, 0)


def monotonicity_gap(f: ScalarFunction, N: tuple, E: tuple) -> np.ndarray:
    """N(H(Z)) - H(N(Z)) as an operator, H the operator-valued entropy, one
    per trial of the channel column N and the ensemble column E.

    Its normalised trace is H_Phi(Z) - H_Phi(N(Z)), its least eigenvalue the
    operator form's margin.  Each channel maps its ensemble's atoms and H(Z)
    in one call; both entropies run as one stack.
    """
    weights, atoms = E
    H = operator_phi_entropy(f, E)
    images = _kraus_images(N, np.concatenate([atoms, H[:, None]], axis=1))
    return images[:, -1] - operator_phi_entropy(f, (weights, images[:, :-1]))


def operator_jensen_gap(f: ScalarFunction, N: tuple, A) -> np.ndarray:
    """N(f(A)) - f(N(A)) for each trial of the channel column N and the stack A.

    PSD for operator-convex f, and of nonnegative trace for convex f.  f runs
    once on each stack, and each channel maps A and f(A) in one call.
    """
    A = validate_hermitian(A, "A")
    dec_A = SpectralDecomposition(*np.linalg.eigh(A))
    images = _kraus_images(N, np.stack([A, apply_scalar_function(f, dec_A)], axis=1))
    dec_NA = SpectralDecomposition(*np.linalg.eigh(images[:, 0]))
    # Unitality keeps each output spectrum inside its input's convex hull.
    low, high = dec_A.eigenvalues[..., 0], dec_A.eigenvalues[..., -1]
    out_low, out_high = dec_NA.eigenvalues[..., 0], dec_NA.eigenvalues[..., -1]
    slack = 1e-10 * (1.0 + frobenius(A))
    escaped = (out_low < low - slack) | (out_high > high + slack)
    if escaped.any():
        k = int(np.argmax(escaped))
        raise DomainError(
            "channel output spectrum escaped the input's convex hull: "
            f"[{out_low[k]:.6g}, {out_high[k]:.6g}] vs [{low[k]:.6g}, {high[k]:.6g}]"
        )
    return images[:, 1] - apply_scalar_function(f, dec_NA)
