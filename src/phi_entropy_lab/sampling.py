"""Deterministic samplers for matrices, ensembles and product ensembles.

Streams are counter-based: a generator is keyed by (seed, labels...) through
a hash, so parallel and serial sweeps draw identical values regardless of
execution order.

Given a count k, a sampler returns a stack of k matrices, bit for bit those
of k sequential one-matrix calls on the same generator: one draw, in their
order, then one stacked product or QR.  A one-matrix call is the stack of
one, and a count does not re-key an integer seed's stream.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np

from .entropy import MatrixEnsemble, ProductEnsemble
from .errors import DomainError
from .spectral import dagger, hermitian_part


def rng_for(seed: int, *labels) -> np.random.Generator:
    """Independent generator keyed by (seed, labels...); Philox counter-based."""
    material = ":".join([str(int(seed)), *map(str, labels)]).encode()
    key = int.from_bytes(hashlib.blake2b(material, digest_size=16).digest(), "little")
    return np.random.Generator(np.random.Philox(key=key))


def as_generator(seed, *labels) -> np.random.Generator:
    """Accept either an integer seed (keyed with labels) or an existing generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return rng_for(int(seed), *labels)


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
    rng = as_generator(seed, "haar", d)
    U = _haar(rng.standard_normal((1 if count is None else count, 2, d, d)))
    return U[0] if count is None else U


def sample_hermitian(d: int, seed, scale: float = 1.0) -> np.ndarray:
    """GUE-style Hermitian sample, entries O(scale)."""
    rng = as_generator(seed, "hermitian", d)
    return hermitian_part(_complex_gaussian(rng.standard_normal((2, d, d)))) * scale


def sample_hermitian_unit(d: int, seed) -> np.ndarray:
    """Hermitian direction normalized to unit Frobenius norm."""
    H = sample_hermitian(d, seed)
    return H / np.linalg.norm(H)


def sample_psd(d: int, spectral_floor: float = 0.0, seed=0,
               spectral_cap: float | None = None, count: int | None = None) -> np.ndarray:
    """PSD sample with min eigenvalue >= spectral_floor; with count, a stack of count.

    Default construction is Wishart-type G*G/d + floor*I, whose spread
    exercises divided differences.  With spectral_cap set, eigenvalues are
    drawn uniformly in [spectral_floor, spectral_cap] under a Haar basis.
    """
    if spectral_floor < 0.0:
        raise DomainError(f"spectral floor must be nonnegative, got {spectral_floor}")
    rng = as_generator(seed, "psd", d, spectral_floor)
    k = 1 if count is None else count
    if spectral_cap is not None:
        if spectral_cap <= spectral_floor:
            raise DomainError("spectral cap must exceed the floor")
        # Each matrix draws its eigenvalues, then the normals of its basis.
        lam, z = zip(*[(rng.uniform(spectral_floor, spectral_cap, size=d),
                        rng.standard_normal((2, d, d))) for _ in range(k)])
        U = _haar(np.stack(z))
        out = hermitian_part((U * np.stack(lam)[:, None, :]) @ dagger(U))
    else:
        G = _complex_gaussian(rng.standard_normal((k, 2, d, d)))
        out = hermitian_part(dagger(G) @ G / d + spectral_floor * np.eye(d))
    return out[0] if count is None else out


def sample_ensemble(d: int, atoms: int, seed=0, spectral_floor: float = 0.0,
                    spectral_cap: float | None = None) -> MatrixEnsemble:
    """Random ensemble: uniform-simplex weights over PSD samples."""
    if atoms < 1:
        raise DomainError(f"ensemble needs at least one atom, got {atoms}")
    rng = as_generator(seed, "ensemble", d, atoms)
    weights = rng.dirichlet(np.ones(atoms))
    return MatrixEnsemble(weights, sample_psd(d, spectral_floor, rng, spectral_cap, atoms))


def sample_product(d: int, n: int, support_sizes, seed=0,
                   spectral_floor: float = 0.0,
                   spectral_cap: float | None = None) -> ProductEnsemble:
    """Random product ensemble with the given per-factor support sizes."""
    if isinstance(support_sizes, int):
        support_sizes = (support_sizes,) * n
    support_sizes = tuple(int(s) for s in support_sizes)
    if len(support_sizes) != n or any(s < 1 for s in support_sizes):
        raise DomainError(f"need {n} positive support sizes, got {support_sizes}")
    rng = as_generator(seed, "product", d, n, support_sizes)
    factors = tuple(rng.dirichlet(np.ones(s)) for s in support_sizes)
    keys = list(itertools.product(*(range(s) for s in support_sizes)))
    z_map = dict(zip(keys, sample_psd(d, spectral_floor, rng, spectral_cap, len(keys))))
    return ProductEnsemble(factors, z_map)


def sample_coupled_ensembles(d: int, atoms: int, seed=0,
                             spectral_floor: float = 0.0,
                             spectral_cap: float | None = None):
    """Pair (Z, T) on one sample space: shared weights, independent atoms."""
    rng = as_generator(seed, "coupled", d, atoms)
    weights = rng.dirichlet(np.ones(atoms))
    mats = sample_psd(d, spectral_floor, rng, spectral_cap, 2 * atoms)
    return MatrixEnsemble(weights, mats[:atoms]), MatrixEnsemble(weights, mats[atoms:])
