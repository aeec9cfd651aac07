"""Samplers: determinism, floors, invariant audits."""

import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from phi_entropy_lab import (
    DomainError,
    KrausChannel,
    MatrixEnsemble,
    ProductEnsemble,
    haar_unitary,
    random_unital_channel,
    rng_for,
    sample_coupled_ensembles,
    sample_ensemble,
    sample_hermitian,
    sample_product,
    sample_psd,
)


def test_same_seed_identical_bytes():
    a = sample_psd(4, 0.5, seed=42)
    b = sample_psd(4, 0.5, seed=42)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_psd(4, 0.5, seed=43))


def test_rng_streams_independent_by_label():
    x = rng_for(1, "alpha").standard_normal(4)
    y = rng_for(1, "beta").standard_normal(4)
    assert not np.allclose(x, y)
    assert_allclose(x, rng_for(1, "alpha").standard_normal(4))


def test_spectral_floor_respected():
    for seed in range(10):
        A = sample_psd(3, 1.0, seed=seed)
        assert np.linalg.eigvalsh(A)[0] >= 1.0 - 1e-12


def test_spectral_cap_construction():
    A = sample_psd(5, 0.5, seed=3, spectral_cap=4.0)
    lam = np.linalg.eigvalsh(A)
    assert lam[0] >= 0.5 - 1e-12 and lam[-1] <= 4.0 + 1e-12
    with pytest.raises(DomainError):
        sample_psd(3, 2.0, seed=1, spectral_cap=1.0)


def test_haar_unitary_is_unitary_and_seeded():
    U = haar_unitary(4, 9)
    assert_allclose(U @ U.conj().T, np.eye(4), atol=1e-12)
    assert np.array_equal(U, haar_unitary(4, 9))


def test_hermitian_sampler():
    H = sample_hermitian(4, 5)
    assert np.abs(H - H.conj().T).max() < 1e-14


def test_ensemble_sampler_invariants():
    E = sample_ensemble(3, 4, seed=6, spectral_floor=0.2)
    assert len(E.weights) == len(E.atoms) == 4
    assert abs(E.weights.sum() - 1.0) < 1e-12
    assert np.linalg.eigvalsh(E.atoms)[:, 0].min() >= 0.2 - 1e-12


def test_product_sampler_audit():
    P = sample_product(2, 2, (2, 2), seed=7)
    assert [len(w) for w in P.factor_weights] == [2, 2]
    assert P.atoms.shape == (4, 2, 2)
    for w in P.factor_weights:
        assert abs(float(np.sum(w)) - 1.0) < 1e-12
    P = sample_product(2, 3, 2, seed=8, spectral_floor=0.5)
    assert P.atoms.shape == (8, 2, 2)
    assert np.linalg.eigvalsh(P.atoms)[:, 0].min() >= 0.5 - 1e-12


def test_coupled_sampler_shares_weights():
    Z, T = sample_coupled_ensembles(3, 4, seed=9, spectral_floor=1e-3)
    assert np.array_equal(Z.weights, T.weights)
    assert not np.array_equal(Z.atoms, T.atoms)


def _state(rng) -> str:
    return repr(rng.bit_generator.state)


@pytest.mark.parametrize("d", (1, 2, 3, 4, 8, 16))
def test_count_draw_equals_sequential_draws(d):
    # A stack of k draws holds, byte for byte, the matrices of k one-matrix
    # calls on one generator, and leaves the generator where they leave it.
    # A list of generators holds the draw of each alone on a leading axis.
    def both(draw, label, k):
        stacked, sequential = rng_for(k, label, d), rng_for(k, label, d)
        got = draw(stacked, k)
        want = np.stack([draw(sequential, None) for _ in range(k)])
        assert got.tobytes() == want.tobytes(), (label, k)
        assert _state(stacked) == _state(sequential)
        for count in (None, k):
            listed = [rng_for(k, label, d, i) for i in range(3)]
            alone = [rng_for(k, label, d, i) for i in range(3)]
            got = draw(listed, count)
            want = np.stack([draw(rng, count) for rng in alone])
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (label, k)
            assert list(map(_state, listed)) == list(map(_state, alone))

    for k in range(1, 13):
        both(lambda rng, count: sample_psd(d, 0.5, rng, count=count), "wishart", k)
        both(lambda rng, count: sample_psd(d, 0.5, rng, 4.0, count), "capped", k)
        both(lambda rng, count: haar_unitary(d, rng, count), "haar", k)


@pytest.mark.parametrize("labels", [(), ("alpha",), ("psd", 3, 0.5), ("haar", 16),
                                    ("subadditivity", "xlogx", "trace", 4, 199)])
def test_rng_for_starts_from_the_keyed_philox_state(labels):
    # The key is the blake2b digest of the labels, read little-endian.
    for seed in (0, 9001):
        material = ":".join([str(seed), *map(str, labels)]).encode()
        key = int.from_bytes(hashlib.blake2b(material, digest_size=16).digest(), "little")
        want = np.random.Generator(np.random.Philox(key=key))
        rng = rng_for(seed, *labels)
        assert _state(rng) == _state(want)
        assert rng.standard_normal(5).tobytes() == want.standard_normal(5).tobytes()


def test_object_samplers_take_generator_lists():
    # A list of generators draws a column; its entry n is the object that
    # generator n draws alone.
    def arrays(value):
        if isinstance(value, tuple):
            return [a for v in value for a in arrays(v)]
        if isinstance(value, KrausChannel):
            return [value.kraus.tobytes()]
        weights = getattr(value, "factor_weights", None) or (value.weights,)
        return [w.tobytes() for w in weights] + [value.atoms.tobytes()]

    counts = [1, 3, 2]
    samplers = [  # (draw, the object of entry n of its column)
        (lambda rngs, n: sample_ensemble(2, 3, rngs, spectral_floor=0.1), MatrixEnsemble.row),
        (lambda rngs, n: sample_product(2, 2, (2, 3), rngs), ProductEnsemble.row),
        (lambda rngs, n: sample_coupled_ensembles(3, 2, rngs, spectral_cap=2.0),
         lambda pair, n: tuple(MatrixEnsemble.row(column, n) for column in pair)),
        (lambda rngs, n: random_unital_channel(2, n, rngs), KrausChannel.row),
    ]
    for draw, row in samplers:
        listed = [rng_for(4, "objects", i) for i in range(3)]
        alone = [rng_for(4, "objects", i) for i in range(3)]
        got = draw(listed, counts)
        assert isinstance(got, tuple)
        assert [arrays(row(got, n)) for n in range(3)] == \
            [arrays(draw(rng, n)) for rng, n in zip(alone, counts)]
        assert list(map(_state, listed)) == list(map(_state, alone))
    assert random_unital_channel(2, counts, listed)[1].tolist() == counts
    with pytest.raises(DomainError):
        random_unital_channel(2, [2, 0], listed[:2])


def test_integer_seed_streams_unchanged():
    # A count does not re-key an integer seed's stream, and the streams hold
    # the values they held before draws took counts.
    for d in (1, 3):
        assert np.array_equal(sample_psd(d, 0.5, 42, count=3)[0], sample_psd(d, 0.5, 42))
        assert np.array_equal(sample_psd(d, 0.5, 42, 4.0, count=2)[0],
                              sample_psd(d, 0.5, 42, spectral_cap=4.0))
        assert np.array_equal(haar_unitary(d, 9, count=2)[0], haar_unitary(d, 9))
    pinned = [
        (sample_psd(2, 0.5, 42), [[1.8453876735840233, 0.2502206355574519 - 0.4658128784518389j],
                                  [0.2502206355574519 + 0.4658128784518389j, 1.261271254352232]]),
        (sample_psd(2, 0.5, 42, spectral_cap=4.0),
         [[2.772361028122606, 0.2272370344103967 - 0.4504229968261939j],
          [0.2272370344103967 + 0.4504229968261939j, 2.506330270108734]]),
        (haar_unitary(2, 9), [[-0.820604559182869 - 0.08003888075431749j,
                               -0.40212239493025803 + 0.3981199750219006j],
                              [0.5491582103386111 + 0.1364814823834316j,
                               -0.6642534842970059 + 0.4884315444188695j]]),
        (sample_ensemble(2, 2, 6).atoms[1],
         [[1.973495917020023, 0.19109493009447287 + 0.8094179716638625j],
          [0.19109493009447287 - 0.8094179716638625j, 0.44324435715694105]]),
    ]
    for got, want in pinned:
        assert_allclose(got, want, rtol=1e-13, atol=1e-15)
