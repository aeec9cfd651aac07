"""Eigendecomposition, matrix functions, Loewner order, traces, norms, the
Hermitian parameters and the matrix wire format."""

import binascii
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from phi_entropy_lab import (
    DimensionMismatchError,
    DomainError,
    NonHermitianError,
    apply_scalar_function,
    builtin,
    matrix_from_json,
    matrix_to_json,
    random_unital_channel,
    schatten_norm,
    spectral_decompose,
)
from phi_entropy_lab.sampling import haar_unitary, rng_for, sample_hermitian, sample_psd
from phi_entropy_lab.spectral import herm_from_params, params_of, variant_margin


def test_decompose_diagonal():
    dec = spectral_decompose(np.diag([3.0, 1.0]))
    assert_allclose(dec.eigenvalues, [1.0, 3.0])
    # eigenvectors permute the standard basis
    assert_allclose(np.abs(dec.eigenvectors), [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)


def test_decompose_identity():
    dec = spectral_decompose(np.eye(4))
    assert_allclose(dec.eigenvalues, np.ones(4))
    assert_allclose(dec.eigenvectors @ dec.eigenvectors.conj().T, np.eye(4), atol=1e-14)


def test_decompose_2x2_hand_checked():
    # characteristic polynomial u^2 - 4u + 3 has roots 1 and 3
    dec = spectral_decompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert_allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-14)


def test_decompose_reconstruction_and_order():
    for seed in range(10):
        A = sample_hermitian(5, seed)
        dec = spectral_decompose(A)
        assert np.all(np.diff(dec.eigenvalues) >= 0)
        U = dec.eigenvectors
        assert_allclose((U * dec.eigenvalues) @ U.conj().T, A, atol=1e-12)


def test_decompose_rejects_non_hermitian():
    bad = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(NonHermitianError, match=r"\(0,1\)"):
        spectral_decompose(bad)


def test_apply_identity_function():
    f = builtin("affine", 0.0, 1.0)
    A = sample_hermitian(4, 3)
    assert_allclose(apply_scalar_function(f, A), A, atol=1e-13)


def test_apply_square_diagonal():
    out = apply_scalar_function(builtin("square"), np.diag([1.0, 2.0]))
    assert_allclose(out, np.diag([1.0, 4.0]), atol=1e-14)


def test_apply_xlogx_diagonal():
    out = apply_scalar_function(builtin("xlogx"), np.diag([1.0, 3.0]))
    assert_allclose(out, np.diag([0.0, 3.0 * np.log(3.0)]), atol=1e-14)


def test_apply_spectral_mapping_and_commutation():
    f = builtin("xlogx")
    A = sample_psd(5, 0.5, seed=9)
    out = apply_scalar_function(f, A)
    lam = spectral_decompose(A).eigenvalues
    assert_allclose(np.sort(spectral_decompose(out).eigenvalues), np.sort(f(lam)),
                    rtol=1e-12, atol=1e-12)
    assert np.abs(out @ A - A @ out).max() < 1e-12


def test_apply_domain_error_reports_eigenvalue():
    with pytest.raises(DomainError, match="outside the domain"):
        apply_scalar_function(builtin("xlogx"), np.diag([1.0, -0.5]))


# A >= B in the Loewner order iff the operator margin of A - B is >= 0.


def test_loewner_reflexive_and_scaled_identity():
    A = sample_hermitian(3, 1)
    assert abs(variant_margin(A - A, "operator")) < 1e-14
    assert_allclose(variant_margin(np.diag([2.0, 2.0]) - np.eye(2), "operator"), 1.0, atol=1e-14)
    # an indefinite difference: neither matrix dominates
    assert_allclose(variant_margin(np.diag([1.0, 0.0]) - np.diag([0.0, 1.0]), "operator"),
                    -1.0, atol=1e-14)


def test_loewner_transitivity_with_stacked_tolerance():
    rng = rng_for(21, "loewner")
    for trial in range(20):
        B = sample_hermitian(4, rng)
        A = B + sample_psd(4, 0.0, rng)
        C = B - sample_psd(4, 0.0, rng)
        tol = 1e-8
        assert variant_margin(A - B, "operator") >= -tol
        assert variant_margin(B - C, "operator") >= -tol
        assert variant_margin(A - C, "operator") >= -2 * tol


def test_traces_and_inner_product():
    assert variant_margin(np.eye(3), "trace") == pytest.approx(1.0)
    # the normalised Hilbert-Schmidt inner product Tr(A* B) / d
    A, B = np.diag([1.0, 2.0]), np.diag([3.0, 4.0])
    assert variant_margin(A.conj().T @ B, "trace") == pytest.approx(5.5)


def test_schatten_norms():
    assert schatten_norm(np.diag([3.0, -4.0]), 2) == pytest.approx(5.0)
    with pytest.raises(DomainError):
        schatten_norm(np.eye(2), 0.5)
    # squared 2-norm matches the inner product
    A = sample_hermitian(4, 5)
    assert schatten_norm(A, 2) ** 2 == pytest.approx(np.vdot(A, A).real, rel=1e-10)


def test_trace_margin_unitary_invariance():
    A = sample_hermitian(4, 2)
    U = haar_unitary(4, 11)
    assert abs(variant_margin(U @ A @ U.conj().T, "trace") - variant_margin(A, "trace")) < 1e-12


def test_matrix_json_roundtrip():
    A = sample_hermitian(3, 4)
    back = matrix_from_json(matrix_to_json(A))
    assert_allclose(back, A, atol=0)  # floats round-trip exactly
    # real matrices that are not Hermitian omit the imaginary block
    B = np.array([[1.0, 2.0], [0.0, 1.0]])
    data = matrix_to_json(B)
    assert "im" not in data and "h" not in data
    assert_allclose(matrix_from_json(data), B)


def _herm_from_params_entrywise(p, d):
    """The Hermitian parameter layout entry by entry: the reference for its index arrays."""
    M = np.zeros((d, d), dtype=complex)
    M[range(d), range(d)] = p[:d]
    k = d
    for i in range(d):
        for j in range(i + 1, d):
            M[i, j], M[j, i] = p[k] + 1j * p[k + 1], p[k] - 1j * p[k + 1]
            k += 2
    return M


@pytest.mark.parametrize("d", [1, 2, 3, 16])
def test_hermitian_parameters_round_trip(d):
    rng = rng_for(0, "params", d)
    M = sample_hermitian(d, rng)
    params = params_of(M)
    assert params.shape == (d * d,)
    assert np.array_equal(herm_from_params(params, d), M)
    # a stack unpacks to the entry-by-entry matrices, bit for bit, and back
    stack = rng.normal(size=(3, d * d))
    mats = herm_from_params(stack, d)
    for p, got in zip(stack, mats):
        assert got.tobytes() == _herm_from_params_entrywise(p, d).tobytes()
    assert params_of(mats).tobytes() == stack.tobytes()


def test_schatten_norm_of_one_matrix_is_its_entry_of_a_stack():
    # 256 norms per p: a numpy scalar power and the stacked one round apart.
    rng = rng_for(0, "schatten")
    for d in (2, 3, 4, 5):
        A = np.stack([sample_hermitian(d, rng) * 10.0 ** rng.uniform(-3, 3) for _ in range(64)])
        for p in (1, 2, 3, 1.5, np.inf):
            assert [schatten_norm(M, p) for M in A] == schatten_norm(A, p).tolist()


def _hermitian(kind: str, d: int, rng) -> np.ndarray:
    if kind == "identity":
        return np.eye(d)
    if kind == "real symmetric":
        B = rng.normal(size=(d, d))
        return B + B.T
    if kind == "subnormal":
        return sample_hermitian(d, rng) * 1e-310
    return sample_hermitian(d, rng) * 10.0 ** rng.uniform(-8, 8)


def _decoded(data):
    return matrix_from_json(json.loads(json.dumps(data)))


def _assert_base64_blocks(data, keys, d):
    """data holds exactly keys, each a base64 string of d^2 float64s."""
    assert sorted(data) == ["dim", *keys] and data["dim"] == d
    for key in keys:
        assert isinstance(data[key], str)
        assert len(binascii.a2b_base64(data[key])) == 8 * d * d


def _has_subnormal(A) -> bool:
    parts = np.abs(np.concatenate([A.real.ravel(), A.imag.ravel()]))
    return bool(((parts > 0) & (parts < np.finfo(float).tiny)).any())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 16), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["complex", "real symmetric", "identity", "subnormal"]))
@example(d=3, seed=0, kind="subnormal")
def test_hermitian_matrices_are_written_as_their_parameters(d, seed, kind):
    A = np.asarray(_hermitian(kind, d, rng_for(seed, "codec", d)), dtype=complex)
    assert _has_subnormal(A) == (kind == "subnormal")
    data = matrix_to_json(A)
    _assert_base64_blocks(data, ["h"], d)
    assert json.loads(json.dumps(data)) == data
    assert _decoded(data).tobytes() == A.tobytes()
    # the float-list forms of 0.2.0 ("h") and 0.1.0 ("re"/"im") decode to the same array
    assert _decoded({"dim": d, "h": params_of(A).tolist()}).tobytes() == A.tobytes()
    both = {"dim": d, "re": A.real.tolist(), "im": A.imag.tolist()}
    assert _decoded(both).tobytes() == A.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 16), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["real", "kraus", "signed zero", "subnormal"]))
@example(d=2, seed=0, kind="signed zero")  # [[1, 2], [3, 4]], -0.0j at (0, 1)
@example(d=2, seed=0, kind="subnormal")
def test_other_matrices_are_written_as_real_and_imaginary_blocks(d, seed, kind):
    rng = rng_for(seed, "codec", d)
    if kind == "kraus":
        A = random_unital_channel(d, 3, rng).kraus[0]
    elif kind == "real":
        A = rng.normal(size=(d, d)).astype(complex)
    elif kind == "subnormal":  # complex entries near 1e-310, below the least normal float
        A = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) * 1e-310
    else:  # real entries, one imaginary part -0.0: not a real matrix bit for bit
        A = np.arange(1.0, d * d + 1.0).reshape(d, d).astype(complex)
        A.imag[0, 1] = -0.0
    assert _has_subnormal(A) == (kind == "subnormal")
    data = matrix_to_json(A)
    _assert_base64_blocks(data, ["re"] if kind == "real" else ["im", "re"], d)
    assert json.loads(json.dumps(data)) == data
    assert _decoded(data).tobytes() == A.tobytes()
    both = {"dim": d, "re": A.real.tolist(), "im": A.imag.tolist()}
    assert _decoded(both).tobytes() == A.tobytes()


@pytest.mark.parametrize("data, error", [
    ({"dim": 2, "h": [1.0, 0.0, 1.0]}, DimensionMismatchError),
    ({"dim": 2, "h": [[1.0, 0.0], [0.0, 1.0]]}, DimensionMismatchError),
    ({"dim": 1, "h": ["a"]}, DomainError),
    ({"dim": 1, "h": [{"x": 1}]}, DomainError),
    ({"dim": 1.5, "h": [1.0]}, DomainError),
    ({"dim": "one", "h": [1.0]}, DomainError),
    ({"dim": True, "h": [1.0]}, DomainError),
    ({"dim": 0, "h": []}, DomainError),
    ({"dim": 2, "re": [[1.0, 0.0], [0.0]]}, DomainError),
    ({"dim": 1, "re": [["a"]]}, DomainError),
    ({"dim": 1.5, "re": [[1.0]]}, DomainError),
    ({"dim": 1, "h": "AAAAAAAA8D8"}, DomainError),
    ({"dim": 1, "h": "AAAAAAAA8D9="}, DomainError),
    ({"dim": 1, "h": "AAAAAAAA\n8D8="}, DomainError),
    ({"dim": 1, "h": "AAAAAAAA8D8=!"}, DomainError),
    ({"dim": 1, "h": "AAAAAAAA8D8\u00e9"}, DomainError),
    ({"dim": 1, "re": "AAAAAAAA8D8=", "im": "AAAA AAAA8D8="}, DomainError),
    ({"dim": 2, "h": "AAAAAAAA8D8="}, DimensionMismatchError),
    ({"dim": 1, "h": "AAAAAAAA8D8AAAAAAAAAAA=="}, DimensionMismatchError),
    ({"dim": 1, "re": "AAAA"}, DimensionMismatchError),
    ({"dim": 1, "re": ""}, DimensionMismatchError),
    ({"dim": 1, "h": ["2.0"]}, DomainError),
    ({"dim": 1, "h": [True]}, DomainError),
    ({"dim": 1, "re": [["1"]]}, DomainError),
], ids=["h-short", "h-nested", "h-word", "h-object", "h-dim-float", "h-dim-word",
        "h-dim-bool", "h-dim-zero", "re-ragged", "re-word", "re-dim-float",
        "b64-unpadded", "b64-trailing-bits", "b64-newline", "b64-foreign-character",
        "b64-non-ascii", "b64-im-space", "b64-h-8-bytes-at-dim-2", "b64-h-16-bytes",
        "b64-re-3-bytes", "b64-re-empty", "h-number-string", "h-bool", "re-number-string"])
def test_malformed_matrix_json_is_refused(data, error):
    with pytest.raises(error):
        matrix_from_json(data)


def test_a_base64_block_of_the_wrong_size_names_its_key_and_dim():
    with pytest.raises(DimensionMismatchError, match="dim=2 but 're' has 16 bytes"):
        matrix_from_json({"dim": 2, "re": "AAAAAAAA8D8AAAAAAAAAAA=="})
