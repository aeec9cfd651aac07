"""Kraus channels: unitality, entropy monotonicity, operator Jensen."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from phi_entropy_lab import (
    ClassGateError,
    DimensionMismatchError,
    DomainError,
    KrausChannel,
    builtin,
    check,
    matrix_phi_entropy,
    matrix_to_json,
    operator_phi_entropy,
    pushforward,
    random_unital_channel,
    replay_witness,
)
from phi_entropy_lab.channels import monotonicity_gap
from phi_entropy_lab.sampling import haar_unitary, rng_for, sample_ensemble, sample_psd

SQ = builtin("square")
XLX = builtin("xlogx")

def apply_channel(N: KrausChannel, A) -> np.ndarray:
    """Kraus action sum_i K_i A K_i*, Hermitian-scrubbed for a Hermitian A."""
    A = np.asarray(A, dtype=complex)
    out = sum(K @ A @ K.conj().T for K in N.kraus)
    return 0.5 * (out + out.conj().T) if np.allclose(A, A.conj().T) else out


DEPHASING = KrausChannel(np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex),
                         trace_preserving=True)


def test_identity_channel():
    N = KrausChannel(np.eye(2)[None, :, :])
    A = sample_psd(2, 0.1, 1)
    assert_allclose(apply_channel(N, A), A, atol=1e-14)


def test_mixed_unitary_on_identity():
    N = random_unital_channel(3, 4, seed=2)
    assert_allclose(apply_channel(N, np.eye(3)), np.eye(3), atol=1e-12)


def test_dephasing_channel_example():
    out = apply_channel(DEPHASING, np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert_allclose(out, np.diag([1.0, 1.0]), atol=1e-14)


def test_non_unital_rejected():
    K = np.stack([np.diag([1.0, 0.5])]).astype(complex)
    with pytest.raises(DomainError, match="unital"):
        KrausChannel(K)


def test_trace_preserving_flag_validated():
    # unital but not trace preserving: K1 = |0><1|, K2 = |1><1|
    K = np.stack([np.array([[0.0, 1.0], [0.0, 0.0]]),
                  np.array([[0.0, 0.0], [0.0, 1.0]])]).astype(complex)
    KrausChannel(K)  # unital: K1 K1* + K2 K2* = I
    with pytest.raises(DomainError, match="trace"):
        KrausChannel(K, trace_preserving=True)


def test_channel_json_roundtrip():
    N = random_unital_channel(2, 3, seed=7)
    back = KrausChannel.from_json_dict(N.to_json_dict())
    assert_allclose(back.kraus, N.kraus, atol=0)


def test_random_channel_single_unitary():
    N = random_unital_channel(3, 1, seed=4)
    U = N.kraus[0]
    assert_allclose(U @ U.conj().T, np.eye(3), atol=1e-12)


def test_random_channel_seeded_reproducible():
    a = random_unital_channel(3, 3, seed=11)
    b = random_unital_channel(3, 3, seed=11)
    assert np.array_equal(a.kraus, b.kraus)
    c = random_unital_channel(3, 3, seed=12)
    assert not np.array_equal(a.kraus, c.kraus)


def test_apply_channel_linear_and_positive():
    N = random_unital_channel(3, 2, seed=5)
    A = sample_psd(3, 0.0, 6)
    B = sample_psd(3, 0.0, 7)
    lhs = apply_channel(N, 2.0 * A - 0.5 * B)
    rhs = 2.0 * apply_channel(N, A) - 0.5 * apply_channel(N, B)
    assert_allclose(lhs, rhs, atol=1e-12)
    assert np.linalg.eigvalsh(apply_channel(N, A))[0] >= -1e-12


def test_unitality_spectrum_containment():
    for seed in range(10):
        N = random_unital_channel(3, 3, seed=seed)
        A = sample_psd(3, 0.0, 100 + seed)
        lam_in = np.linalg.eigvalsh(A)
        lam_out = np.linalg.eigvalsh(apply_channel(N, A))
        assert lam_out[0] >= lam_in[0] - 1e-10
        assert lam_out[-1] <= lam_in[-1] + 1e-10


def test_monotonicity_identity_channel_zero_margin():
    N = KrausChannel(np.eye(3)[None, :, :])
    E = sample_ensemble(3, 3, seed=8)
    for f, variant in ((SQ, "trace"), (SQ, "operator"), (XLX, "trace")):
        assert abs(monotonicity_gap(f, N, E, variant)) < 1e-12


def test_monotonicity_unitary_channel_trace_invariant():
    # spectral calculus commutes with conjugation, so the trace entropy is
    # invariant; the operator entropy is covariant, H(N(Z)) = U H(Z) U*.
    E = sample_ensemble(3, 3, seed=9)
    U = haar_unitary(3, 10)
    N = KrausChannel(U[None, :, :], trace_preserving=True)
    for f in (SQ, XLX):
        assert abs(monotonicity_gap(f, N, E, "trace")) < 1e-12
    cov = apply_channel(N, operator_phi_entropy(SQ, E))
    assert_allclose(operator_phi_entropy(SQ, pushforward(N, E)), cov, atol=1e-12)
    assert abs(monotonicity_gap(SQ, N, E, "operator")) < 1e-12


def test_monotonicity_trace_sweep():
    for trial in range(50):
        rng = rng_for(13, "mono", trial)
        N = random_unital_channel(3, int(rng.integers(1, 4)), rng)
        E = sample_ensemble(3, 3, rng)
        assert check("monotonicity", phi=SQ, variant="trace", channel=N, ensemble=E).holds
        assert check("monotonicity", phi=XLX, variant="trace", channel=N, ensemble=E).holds


def test_monotonicity_class_gate():
    N = random_unital_channel(2, 2, seed=14)
    E = sample_ensemble(2, 2, seed=15)
    with pytest.raises(ClassGateError):
        check("monotonicity", phi=XLX, variant="operator", channel=N, ensemble=E)
    with pytest.raises(ClassGateError):
        check("monotonicity", phi=builtin("exp"), variant="trace", channel=N, ensemble=E)


def test_monotonicity_dimension_mismatch():
    N = random_unital_channel(2, 2, seed=16)
    E = sample_ensemble(3, 2, seed=17)
    with pytest.raises(DimensionMismatchError):
        check("monotonicity", phi=SQ, variant="trace", channel=N, ensemble=E)


def test_list_forms_reject_ensembles_of_different_shapes():
    N = random_unital_channel(2, 2, seed=16)
    with pytest.raises(DimensionMismatchError, match="one shape"):
        monotonicity_gap(SQ, [N, N], [sample_ensemble(2, 3, 1), sample_ensemble(2, 2, 2)],
                         "trace")
    with pytest.raises(DimensionMismatchError, match="one shape"):
        operator_phi_entropy(SQ, [sample_ensemble(2, 3, 1), sample_ensemble(3, 3, 2)])


def test_operator_jensen_identity_channel_equality():
    N = KrausChannel(np.eye(2)[None, :, :])
    A = sample_psd(2, 0.2, 18)
    assert abs(check("operator_jensen", phi=SQ, variant="operator", channel=N, A=A).margin) < 1e-12


def test_operator_jensen_dephasing_example():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    lhs = apply_channel(DEPHASING, A) @ apply_channel(DEPHASING, A)
    assert_allclose(lhs, np.diag([1.0, 1.0]), atol=1e-14)
    rhs = apply_channel(DEPHASING, A @ A)
    assert_allclose(rhs, np.diag([2.0, 2.0]), atol=1e-14)
    report = check("operator_jensen", phi=SQ, variant="operator", channel=DEPHASING, A=A)
    assert report.holds and report.margin >= 1.0 - 1e-12


def test_operator_jensen_sweeps():
    for trial in range(30):
        rng = rng_for(19, "jensen", trial)
        N = random_unital_channel(3, int(rng.integers(1, 4)), rng)
        A = sample_psd(3, 0.1, rng)
        # PSD-order form for the operator-convex square
        assert check("operator_jensen", phi=SQ, variant="operator", channel=N, A=A).holds
        # trace form for merely convex functions
        assert check("operator_jensen", phi=XLX, variant="trace", channel=N, A=A).holds
        assert check("operator_jensen", phi=builtin("quartic"), variant="trace", channel=N,
                     A=A, override=True).holds


def test_operator_jensen_gate():
    N = random_unital_channel(2, 2, seed=20)
    A = sample_psd(2, 0.1, 21)
    # xlogx is not tagged operator-convex here; the PSD-order form is gated
    with pytest.raises(ClassGateError):
        check("operator_jensen", phi=XLX, variant="operator", channel=N, A=A)


@pytest.mark.parametrize("f, variant", [(SQ, "operator"), (SQ, "trace"), (XLX, "trace")])
def test_operator_jensen_witness_of_the_earlier_layout_replays(f, variant):
    # Operator-Jensen witnesses written before the check joined the registry
    # list the same fields in the same order, so they replay unchanged.
    N = random_unital_channel(3, 2, seed=22)
    A = sample_psd(3, 0.1, 23)
    stored = {"kind": "operator_jensen", "phi": f.spec_string(), "variant": variant,
              "channel": N.to_json_dict(), "A": matrix_to_json(A)}
    report = check("operator_jensen", phi=f, variant=variant, channel=N, A=A)
    assert report.witness == stored
    assert replay_witness(json.loads(json.dumps(stored))) == report.margin
