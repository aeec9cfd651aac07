"""Deterministic samplers for matrices, ensembles and product ensembles.

Streams are counter-based: a generator is keyed by (seed, labels...) through
a hash, so a report does not depend on the order its sweeps run in.

A list of generators gives one draw per generator, stacked on a new leading
axis: an array, or for an object sampler the column its class's ``stack``
checks at once (see ``entropy`` and ``channels``).  Each generator makes the
calls it makes alone, then the matrix algebra, which acts matrix by matrix,
runs once over the stack.  A seed or one generator is the draw of one, an
object for an object sampler.  With a count k, a draw is k matrices, bit for
bit those of k one-matrix calls on the same generator.
"""

from __future__ import annotations

import functools
import hashlib
import math

import numpy as np

from .entropy import MatrixEnsemble, ProductEnsemble
from .errors import DomainError
from .spectral import dagger, frobenius, hermitian_part


@functools.cache
def _key_sequence():
    """Seed sequence whose state is a given digest.  Philox(key=...) would also
    read OS entropy; numpy.random is imported on first use, not at start-up."""
    from numpy.random.bit_generator import ISeedSequence

    class KeySequence(ISeedSequence):
        def __init__(self, digest: bytes):
            self.digest = digest

        def generate_state(self, n_words, dtype=np.uint32):
            return np.frombuffer(self.digest, np.dtype(dtype).newbyteorder("<"), n_words)
    return KeySequence


def rng_for(seed: int, *labels) -> np.random.Generator:
    """Independent generator keyed by (seed, labels...); Philox counter-based."""
    material = ":".join([str(int(seed)), *map(str, labels)]).encode()
    digest = hashlib.blake2b(material, digest_size=16).digest()
    return np.random.Generator(np.random.Philox(_key_sequence()(digest)))


def as_generators(seed, *labels) -> tuple:
    """(generators, whether a list was given); an integer seed is keyed by labels."""
    if isinstance(seed, list):
        return seed, True
    return [seed if isinstance(seed, np.random.Generator) else rng_for(int(seed), *labels)], False


def _shaped(out: np.ndarray, n: int, count: int | None, listed: bool) -> np.ndarray:
    """n draws of k matrices (n * k, d, d) as asked: one matrix without count."""
    out = out.reshape(n, -1, *out.shape[1:])[:, 0 if count is None else slice(None)]
    return out if listed else out[0]


def _complex_gaussian(z: np.ndarray) -> np.ndarray:
    """Complex Gaussians from normals (..., 2, d, d): real parts, then imaginary."""
    return (z[..., 0, :, :] + 1j * z[..., 1, :, :]) / np.sqrt(2.0)


def _haar(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from normals (k, 2, d, d): one stacked QR, phases fixed."""
    Q, R = np.linalg.qr(_complex_gaussian(z))
    phases = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (phases / np.abs(phases))[..., None, :]


def haar_unitary(d: int, seed, count: int | None = None) -> np.ndarray:
    """Haar unitary via QR with phase fixing; with count, a stack of count."""
    rngs, listed = as_generators(seed, "haar", d)
    k = 1 if count is None else count
    U = _haar(np.concatenate([rng.standard_normal((k, 2, d, d)) for rng in rngs]))
    return _shaped(U, len(rngs), count, listed)


def sample_hermitian(d: int, seed) -> np.ndarray:
    """GUE-style Hermitian sample, entries O(1)."""
    rngs, listed = as_generators(seed, "hermitian", d)
    z = np.stack([rng.standard_normal((2, d, d)) for rng in rngs])
    return _shaped(hermitian_part(_complex_gaussian(z)), len(rngs), None, listed)


def sample_hermitian_unit(d: int, seed) -> np.ndarray:
    """Hermitian direction normalized to unit Frobenius norm."""
    H = sample_hermitian(d, seed)
    return H / np.reshape(frobenius(H), H.shape[:-2] + (1, 1))


def sample_psd(d: int, spectral_floor: float = 0.0, seed=0,
               spectral_cap: float | None = None, count: int | None = None) -> np.ndarray:
    """PSD sample with min eigenvalue >= spectral_floor; with count, a stack of count.

    Default construction is Wishart-type G*G/d + floor*I, whose spread
    exercises divided differences.  With spectral_cap set, eigenvalues are
    drawn uniformly in [spectral_floor, spectral_cap] under a Haar basis.
    """
    if spectral_floor < 0.0:
        raise DomainError(f"spectral floor must be nonnegative, got {spectral_floor}")
    rngs, listed = as_generators(seed, "psd", d, spectral_floor)
    k = 1 if count is None else count
    if spectral_cap is not None:
        if spectral_cap <= spectral_floor:
            raise DomainError("spectral cap must exceed the floor")
        # Each matrix draws its eigenvalues, then the normals of its basis.
        lam, z = zip(*[(rng.uniform(spectral_floor, spectral_cap, size=d),
                        rng.standard_normal((2, d, d))) for rng in rngs for _ in range(k)])
        U = _haar(np.stack(z))
        out = hermitian_part((U * np.stack(lam)[:, None, :]) @ dagger(U))
    else:
        G = _complex_gaussian(np.concatenate([rng.standard_normal((k, 2, d, d)) for rng in rngs]))
        out = hermitian_part(dagger(G) @ G / d + spectral_floor * np.eye(d))
    return _shaped(out, len(rngs), count, listed)


def sample_ensemble(d: int, atoms: int, seed=0, spectral_floor: float = 0.0,
                    spectral_cap: float | None = None) -> MatrixEnsemble:
    """Random ensemble: uniform-simplex weights over PSD samples."""
    if atoms < 1:
        raise DomainError(f"ensemble needs at least one atom, got {atoms}")
    rngs, listed = as_generators(seed, "ensemble", d, atoms)
    weights = [rng.dirichlet(np.ones(atoms)) for rng in rngs]
    column = MatrixEnsemble.stack(weights, sample_psd(d, spectral_floor, rngs, spectral_cap, atoms))
    return column if listed else MatrixEnsemble.row(column, 0)


def sample_product(d: int, n: int, support_sizes, seed=0,
                   spectral_floor: float = 0.0,
                   spectral_cap: float | None = None) -> ProductEnsemble:
    """Random product ensemble with the given per-factor support sizes."""
    if isinstance(support_sizes, int):
        support_sizes = (support_sizes,) * n
    support_sizes = tuple(int(s) for s in support_sizes)
    if len(support_sizes) != n or any(s < 1 for s in support_sizes):
        raise DomainError(f"need {n} positive support sizes, got {support_sizes}")
    rngs, listed = as_generators(seed, "product", d, n, support_sizes)
    factors = [[rng.dirichlet(np.ones(s)) for s in support_sizes] for rng in rngs]
    mats = sample_psd(d, spectral_floor, rngs, spectral_cap, math.prod(support_sizes))
    column = ProductEnsemble.stack([np.stack(rows) for rows in zip(*factors)], mats)
    return column if listed else ProductEnsemble.row(column, 0)


def sample_coupled_ensembles(d: int, atoms: int, seed=0,
                             spectral_floor: float = 0.0,
                             spectral_cap: float | None = None):
    """Pair (Z, T) on one sample space: shared weights, independent atoms."""
    rngs, listed = as_generators(seed, "coupled", d, atoms)
    weights = [rng.dirichlet(np.ones(atoms)) for rng in rngs]
    mats = sample_psd(d, spectral_floor, rngs, spectral_cap, 2 * atoms)
    # Z and T of each pair are consecutive ensembles of one checked column.
    column = MatrixEnsemble.stack(np.repeat(weights, 2, axis=0),
                                  mats.reshape(2 * len(rngs), atoms, d, d))
    Z, T = (tuple(np.ascontiguousarray(a[i::2]) for a in column) for i in (0, 1))
    return (Z, T) if listed else (MatrixEnsemble.row(Z, 0), MatrixEnsemble.row(T, 0))
