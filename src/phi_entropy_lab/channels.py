"""Unital completely positive maps in Kraus form, and two statements about them.

Channels here are mixed-unitary by construction when sampled, which makes
them unital and trace-preserving without any projection step; a sweep
chunk's channels of one Kraus count are checked at once, and images of
checked ensembles under them, PSD by construction, are not.  The module
gives the margins of two statements about a unital channel N; their
reports come from the ``suite`` registry.  Both take lists of points: the
channels of a list act grouped by their Kraus counts, one batched product
per group, and everything after the channels runs as one stack.

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
have H = 0.  For a trace-preserving N the normalised trace of the operator
form is the trace form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import ScalarFunction
from .entropy import (
    MatrixEnsemble,
    _set,
    ensemble_arrays,
    jensen_gap,
    operator_phi_entropy,
)
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
        _set(self, vars(self.stack(np.asarray(self.kraus, dtype=complex)[None],
                                   self.trace_preserving)[0]))

    @classmethod
    def stack(cls, kraus, trace_preserving: bool = False) -> list:
        """The channels of Kraus stacks (n, k, d, d), checked at once; the first
        channel that fails raises what it raises alone."""
        kraus = np.asarray(kraus, dtype=complex)
        if kraus.ndim != 4 or kraus.shape[2] != kraus.shape[3] or kraus.shape[1] < 1:
            raise DimensionMismatchError(
                f"Kraus stack must have shape (k, d, d), got {kraus.shape[1:]}")
        eye = np.eye(kraus.shape[-1])
        tol = UNITALITY_TOL * (1.0 + np.abs(kraus).max(axis=(1, 2, 3)) ** 2 * kraus.shape[1])
        sums = {"is not unital: sum K K*": np.einsum("naij,nakj->nik", kraus, kraus.conj())}
        if trace_preserving:
            sums["does not preserve the trace: sum K* K"] = np.einsum(
                "naji,najk->nik", kraus.conj(), kraus)
        deviations = {what: np.abs(s - eye).max(axis=(1, 2)) for what, s in sums.items()}
        finite = np.isfinite(kraus).all(axis=(1, 2, 3))
        for n in range(len(kraus)):
            if not finite[n]:
                raise DomainError("channel has a Kraus operator with a non-finite entry")
            for what, deviation in deviations.items():
                if deviation[n] > tol[n]:
                    raise DomainError(f"channel {what} deviates from I by {deviation[n]:.3e}")
        return [_set(object.__new__(cls), {"kraus": K, "trace_preserving": trace_preserving})
                for K in kraus]

    @property
    def dim(self) -> int:
        return self.kraus.shape[1]

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "kraus": [matrix_to_json(K) for K in self.kraus]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "KrausChannel":
        return cls(matrices_from_json(data.get("kraus"), "channel JSON 'kraus'"))


def _by_count(counts: list) -> list:
    """The indices of each Kraus count, ascending by count."""
    # np.unique would import numpy.ma, 1.6 MB
    return [[n for n, c in enumerate(counts) if c == k] for k in sorted(set(counts))]


def _kraus_images(channels: list, A: np.ndarray) -> np.ndarray:
    """sum_i K_i A[n] K_i* for the n-th channel of the list and the n-th entry of
    A (n, ..., d, d), a matrix or a stack of them.

    The channels are grouped by Kraus count, and each group's products are
    one batched call; each image is the one its channel gives alone.
    """
    if any(N.dim != A.shape[-1] for N in channels):
        raise DimensionMismatchError(f"channels of dims {sorted({N.dim for N in channels})} "
                                     f"applied to matrices of dim {A.shape[-1]}")
    out = np.empty(A.shape, dtype=complex)
    for group in _by_count([N.kraus.shape[0] for N in channels]):
        K = np.stack([channels[n].kraus for n in group])
        K = K.reshape(K.shape[:1] + (1,) * (A.ndim - 3) + K.shape[1:])
        out[group] = (K @ A[group, ..., None, :, :] @ dagger(K)).sum(axis=-3)
    return out


def pushforward(N, E):
    """Image ensemble {(w_i, N(A_i))}.

    Lists of channels and of ensembles of one shape give the images' atoms
    as one stack (n, m, d, d); they are PSD by construction, so only the
    image ensemble of one channel is checked, by its constructor.
    """
    if isinstance(E, MatrixEnsemble):
        return MatrixEnsemble(E.weights, pushforward([N], [E])[0])
    return hermitian_part(_kraus_images(N, ensemble_arrays(E)[1]))


def random_unital_channel(d: int, k, seed) -> KrausChannel:
    """Mixed-unitary channel: k Haar unitaries with random convex weights.

    Unital and trace-preserving by construction; bit-reproducible for a
    fixed seed.  A list of generators takes a list of counts k.
    """
    from .sampling import as_generators, haar_unitary

    rngs, listed = as_generators(seed, "unital_channel", d, k)
    counts = list(k) if listed else [k]
    if min(counts) < 1:
        raise DomainError(f"channel needs at least one Kraus operator, got k={min(counts)}")
    weights = [rng.dirichlet(np.ones(n)) for rng, n in zip(rngs, counts)]
    # A generator listed n times draws n unitaries in turn; all go through one QR.
    U = haar_unitary(d, [rng for rng, n in zip(rngs, counts) for _ in range(n)])
    kraus = [np.sqrt(w)[:, None, None] * U_i
             for w, U_i in zip(weights, np.split(U, np.cumsum(counts)[:-1]))]
    out = {}
    for group in _by_count(counts):  # one check per Kraus count
        channels = KrausChannel.stack([kraus[n] for n in group], trace_preserving=True)
        out.update(zip(group, channels))
    out = [out[n] for n in range(len(counts))]
    return out if listed else out[0]


def monotonicity_gap(f: ScalarFunction, N, E, variant: str):
    """Slack of entropy monotonicity under N; >= 0 when the inequality holds.

    trace: H_Phi(Z) - H_Phi(N(Z)) for the matrix Phi-entropy (class C2).
    operator: minimal eigenvalue of N(H(Z)) - H(N(Z)) for the
    operator-valued entropy; certified only for class C3.

    Lists of channels and of ensembles of one shape give an array of slacks,
    one per pair: the pairs' image atoms and both entropies run as one stack.
    """
    if isinstance(N, KrausChannel):
        return float(monotonicity_gap(f, [N], [E], variant)[0])
    mapped = jensen_gap(f, ensemble_arrays(E)[0], pushforward(N, E))
    entropy = operator_phi_entropy(f, E)
    if variant == "trace":
        return variant_margin(entropy, variant) - variant_margin(mapped, variant)
    return variant_margin(hermitian_part(_kraus_images(N, entropy)) - mapped, variant)


def operator_jensen_gap(f: ScalarFunction, channels: list, A) -> np.ndarray:
    """N(f(A)) - f(N(A)) for each channel N of the list and matrix of the stack A.

    PSD for operator-convex f, and of nonnegative trace for convex f.  The
    channels are grouped by Kraus count for their products; f runs once on
    each stack.
    """
    A = validate_hermitian(A, "A")
    NA = hermitian_part(_kraus_images(channels, A))
    dec_A, dec_NA = (SpectralDecomposition(*np.linalg.eigh(M)) for M in (A, NA))
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
    fA = apply_scalar_function(f, dec_A)
    return hermitian_part(_kraus_images(channels, fA)) - apply_scalar_function(f, dec_NA)
