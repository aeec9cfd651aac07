"""Unital quantum channels in Kraus form, and two statements about them.

A channel here is completely positive, trace preserving and unital, as the
paper's unital quantum channels are: every channel, sampled or read from a
witness, is checked for sum K*K = I and sum KK* = I.  Sampled channels are
mixed-unitary, which makes them both without any projection step; a sweep
chunk's channels of one Kraus count are checked at once, and images of
checked ensembles under them, PSD by construction, are not.  The module
gives the operator gaps of two statements about a unital channel N; their
reports come from the ``suite`` registry.  Both take lists of points and
give one gap per entry: each channel acts once, in one batched product per
Kraus count, and everything after the channels runs as one stack.

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
from .entropy import (
    MatrixEnsemble,
    _set,
    as_stacks,
    ensemble_arrays,
    jensen_gap,
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
        _set(self, vars(self.stack([self.kraus])[0]))

    @classmethod
    def stack(cls, kraus) -> list:
        """The channels of Kraus stacks (n, k, d, d), checked at once; the first
        channel that fails raises what it raises alone."""
        kraus = as_stacks(kraus, "Kraus operator {}".format)
        if kraus.ndim != 4 or kraus.shape[2] != kraus.shape[3] or kraus.shape[1] < 1:
            raise DimensionMismatchError(
                f"Kraus stack must have shape (k, d, d), got {kraus.shape[1:]}")
        eye = np.eye(kraus.shape[-1])
        tol = UNITALITY_TOL * (1.0 + np.abs(kraus).max(axis=(1, 2, 3)) ** 2 * kraus.shape[1])
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
        return [_set(object.__new__(cls), {"kraus": K}) for K in kraus]

    @property
    def dim(self) -> int:
        return self.kraus.shape[1]

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "kraus": [matrix_to_json(K) for K in self.kraus]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "KrausChannel":
        return cls(matrices_from_json(data.get("kraus"), "channel JSON 'kraus'", data.get("dim")))


def _by_count(counts: list) -> list:
    """The indices of each Kraus count, ascending by count."""
    # np.unique would import numpy.ma, 1.6 MB
    return [[n for n, c in enumerate(counts) if c == k] for k in sorted(set(counts))]


def _kraus_images(channels: list, A: np.ndarray) -> np.ndarray:
    """The Hermitian part of sum_i K_i A[n] K_i* for the n-th channel of the
    list and the n-th entry of A (n, ..., d, d), a matrix or a stack of them.

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
    return hermitian_part(out)


def pushforward(N: KrausChannel, E: MatrixEnsemble) -> MatrixEnsemble:
    """Image ensemble {(w_i, N(A_i))} of one channel and one ensemble, checked
    by its constructor."""
    return MatrixEnsemble(E.weights, _kraus_images([N], E.atoms[None])[0])


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
        channels = KrausChannel.stack([kraus[n] for n in group])
        out.update(zip(group, channels))
    out = [out[n] for n in range(len(counts))]
    return out if listed else out[0]


def monotonicity_gap(f: ScalarFunction, N: list, E: list) -> np.ndarray:
    """N(H(Z)) - H(N(Z)) as an operator, H the operator-valued entropy, one
    per entry of the lists of channels and of ensembles of one shape.

    Its normalised trace is H_Phi(Z) - H_Phi(N(Z)), its least eigenvalue the
    operator form's margin.  Each channel maps its ensemble's atoms and H(Z)
    in one call; both entropies run as one stack.
    """
    weights, atoms = ensemble_arrays(E)
    H = jensen_gap(f, weights, atoms)
    images = _kraus_images(N, np.concatenate([atoms, H[:, None]], axis=1))
    return images[:, -1] - jensen_gap(f, weights, images[:, :-1])


def operator_jensen_gap(f: ScalarFunction, channels: list, A) -> np.ndarray:
    """N(f(A)) - f(N(A)) for each channel N of the list and matrix of the stack A.

    PSD for operator-convex f, and of nonnegative trace for convex f.  The
    channels are grouped by Kraus count for their products; f runs once on
    each stack, and each channel maps A and f(A) in one call.
    """
    A = validate_hermitian(A, "A")
    dec_A = SpectralDecomposition(*np.linalg.eigh(A))
    images = _kraus_images(channels, np.stack([A, apply_scalar_function(f, dec_A)], axis=1))
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
