"""Directional derivatives, superoperators and oracles.

The last tests check the engine against identities of calculus that hold
for any differentiable map: the derivatives of matrix inversion, the chain
rule and the additivity of partial derivatives.  Their helpers return the
relative errors, and each test bounds them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from phi_entropy_lab import (
    DomainError,
    SingularOperatorError,
    builtin,
    derivative_inverse,
    finite_diff_oracle,
    frechet_d1,
    frechet_d2,
    frechet_d3,
    superop_inverse,
    superop_matrix,
)
from phi_entropy_lab.catalog import REAL_LINE, TAYLOR_BAND, ScalarFunction
from phi_entropy_lab.characterizations import inverse_derivative_quadratic_form
from phi_entropy_lab.sampling import (
    haar_unitary,
    rng_for,
    sample_hermitian,
    sample_hermitian_unit,
    sample_psd,
)
from phi_entropy_lab.spectral import (
    apply_scalar_function,
    frobenius,
    relative_error,
    spectral_decompose,
)

SQ = builtin("square")
XLX = builtin("xlogx")
P15 = builtin("power", 1.5)
# The relative error each derivative order may show against the
# finite-difference oracle, whose truncation error grows with the order.
ORACLE_TOLS = {1: 1e-6, 2: 1e-4, 3: 1e-3}
# Functions whose derivative view psi has a nonsingular map Dpsi[A] on the
# positive definite cone.
INVERTIBLE = (SQ, XLX, P15, builtin("quartic"), builtin("exp"))

CUBIC = ScalarFunction(
    "cubic",
    REAL_LINE,
    (lambda u: np.asarray(u, dtype=float) ** 3,
     lambda u: 3.0 * np.asarray(u, dtype=float) ** 2,
     lambda u: 6.0 * np.asarray(u, dtype=float),
     lambda u: np.full_like(np.asarray(u, dtype=float), 6.0),
     lambda u: np.zeros_like(np.asarray(u, dtype=float))),
)


def test_d1_square_is_anticommutator():
    A = np.diag([1.0, 2.0])
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert_allclose(frechet_d1(SQ, A, X), [[0.0, 3.0], [3.0, 0.0]], atol=1e-12)
    for seed in range(5):
        A = sample_psd(4, 0.1, seed)
        X = sample_hermitian(4, seed + 100)
        assert_allclose(frechet_d1(SQ, A, X), A @ X + X @ A, atol=1e-11)


def test_d1_affine_is_constant_slope():
    f = builtin("affine", 1.0, 4.0)
    A = sample_psd(3, 0.1, 0)
    X = sample_hermitian(3, 1)
    assert_allclose(frechet_d1(f, A, X), 4.0 * X, atol=1e-12)


def test_d1_zero_direction():
    assert_allclose(frechet_d1(XLX, np.diag([1.0, 2.0]), np.zeros((2, 2))), np.zeros((2, 2)))


def test_d1_linearity():
    A = sample_psd(3, 0.5, 7)
    X = sample_hermitian(3, 8)
    Y = sample_hermitian(3, 9)
    lhs = frechet_d1(XLX, A, 2.0 * X - 0.7 * Y)
    rhs = 2.0 * frechet_d1(XLX, A, X) - 0.7 * frechet_d1(XLX, A, Y)
    assert_allclose(lhs, rhs, atol=1e-12)


def test_d1_scalar_reduction():
    # at d = 1 the derivative is psi'(a) * h for the function psi itself
    a, h = 1.7, 0.3
    out = frechet_d1(XLX, np.array([[a]]), np.array([[h]]))
    assert out[0, 0].real == pytest.approx(XLX.deriv(a, 1) * h, rel=1e-12)


def test_d2_square_identity():
    for seed in range(5):
        A = sample_psd(3, 0.1, seed)
        X = sample_hermitian(3, seed + 50)
        assert_allclose(frechet_d2(SQ, A, X, X), 2.0 * X @ X, atol=1e-12)


def test_d2_affine_vanishes():
    f = builtin("affine", 0.5, 2.0)
    out = frechet_d2(f, sample_psd(3, 0.1, 1), sample_hermitian(3, 2), sample_hermitian(3, 3))
    assert np.abs(out).max() < 1e-12


def test_d2_commuting_case_reduces_to_second_derivative():
    out = frechet_d2(XLX, np.diag([1.0, 2.0]), np.eye(2), np.eye(2))
    assert_allclose(out, np.diag([1.0, 0.5]), atol=1e-12)


def test_d2_symmetry():
    A = sample_psd(4, 0.5, 4)
    X = sample_hermitian(4, 5)
    Y = sample_hermitian(4, 6)
    assert_allclose(frechet_d2(XLX, A, X, Y), frechet_d2(XLX, A, Y, X), atol=1e-12)


def test_d3_square_vanishes():
    out = frechet_d3(SQ, sample_psd(3, 0.1, 1), sample_hermitian(3, 2),
                     sample_hermitian(3, 3), sample_hermitian(3, 4))
    assert np.abs(out).max() < 1e-9


def test_d3_cubic_scalar_reduction():
    out = frechet_d3(CUBIC, np.eye(2), np.eye(2), np.eye(2), np.eye(2))
    assert_allclose(out, 6.0 * np.eye(2), atol=1e-8)


def test_d3_zero_direction():
    out = frechet_d3(XLX, sample_psd(2, 0.5, 1), sample_hermitian(2, 2),
                     sample_hermitian(2, 3), np.zeros((2, 2)))
    assert np.abs(out).max() == 0.0


def test_d3_permutation_symmetry():
    A = sample_psd(3, 0.5, 11)
    X, Y, W = (sample_hermitian_unit(3, s) for s in (12, 13, 14))
    base = frechet_d3(XLX, A, X, Y, W)
    for perm in [(Y, X, W), (W, Y, X), (X, W, Y)]:
        assert relative_error(base, frechet_d3(XLX, A, *perm)) < 1e-9


@pytest.mark.parametrize("d", (2, 3, 4, 8, 16))
def test_d3_matches_central_difference_of_d2(d):
    # The exact order-two derivative, differenced along W with a step
    # balancing its O(h^2) truncation against roundoff.
    A = sample_psd(d, 0.5, d, spectral_cap=4.0)
    X, Y, W = (sample_hermitian_unit(d, 20 + d * 10 + s) for s in range(3))
    h = 1e-5 * (1.0 + np.linalg.norm(A))
    central = (frechet_d2(XLX, A + h * W, X, Y) - frechet_d2(XLX, A - h * W, X, Y)) / (2.0 * h)
    assert relative_error(frechet_d3(XLX, A, X, Y, W), central) < 1e-7


@pytest.mark.parametrize("d", [1, 2, 3, 4, 16])
@pytest.mark.parametrize("f", [SQ, XLX, P15], ids=lambda f: f.spec_string())
def test_oracle_agreement(f, d):
    # Smaller version of the acceptance sweep, all three orders, at d = 1 and
    # d = 16 too: the pinned configurations' dims that it leaves out.  At
    # d = 16 the order-3 grid holds 16^4 entries per trial, so a few trials.
    trials = 3 if d == 16 else 10
    rngs = [rng_for(31, "oracle", f.spec_string(), d, trial) for trial in range(trials)]
    A = sample_psd(d, 0.5, rngs, spectral_cap=4.0)
    X = sample_hermitian_unit(d, rngs)
    exact = {1: frechet_d1(f, A, X), 2: frechet_d2(f, A, X, X), 3: frechet_d3(f, A, X, X, X)}
    for order, tol in ORACLE_TOLS.items():
        err = relative_error(exact[order], finite_diff_oracle(f, A, X, order))
        assert err.max() < tol, (order, err.max())


@pytest.mark.parametrize("phi, order", [("square", 1), ("exp", 2), ("quartic", 3)])
def test_derivatives_at_negative_eigenvalues(phi, order):
    # Functions defined on the whole line have no derivative floor.
    f = builtin(phi)
    A, X = np.array([[-1.0, 0.0], [0.0, 2.0]]), np.array([[0.3, 1.0], [1.0, -0.5]])
    out = (frechet_d1, frechet_d2, frechet_d3)[order - 1](f, A, *[X] * order)
    assert relative_error(out, finite_diff_oracle(f, A, X, order)) < ORACLE_TOLS[order]


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("base", [
    [[5e-13, 0.0], [0.0, 2.0]],           # xlogx below its derivative floor
    [[float("nan"), 0.0], [0.0, 1.0]],    # a NaN entry
], ids=("below-floor", "nan"))
def test_derivatives_refuse_bad_base_points(base, order):
    with pytest.raises(DomainError):
        (frechet_d1, frechet_d2, frechet_d3)[order - 1](XLX, np.array(base), *[np.eye(2)] * order)


def test_oracle_convergence_rate():
    # halving the step shrinks the order-1 error about fourfold
    A = sample_psd(3, 0.5, 77, spectral_cap=4.0)
    X = sample_hermitian_unit(3, 78)
    exact = frechet_d1(XLX, A, X)
    h = 1e-3
    err_h = relative_error(exact, finite_diff_oracle(XLX, A, X, 1, step=h))
    err_h2 = relative_error(exact, finite_diff_oracle(XLX, A, X, 1, step=h / 2))
    assert 2.5 < err_h / err_h2 < 6.0


def test_oracle_affine_second_order_zero():
    f = builtin("affine", 1.0, 2.0)
    out = finite_diff_oracle(f, sample_psd(3, 0.1, 5), sample_hermitian_unit(3, 6), 2)
    assert np.abs(out).max() < 1e-8


def test_oracle_domain_exit_reported():
    A = np.diag([0.05, 0.1])
    X = np.eye(2)
    with pytest.raises(DomainError, match="stencil"):
        finite_diff_oracle(XLX, A, X, 1, step=0.2)


def test_trace_duality():
    # Tr D2phi[A](X, Y) = <X, Dphi'[A](Y)> = <Y, Dphi'[A](X)>
    for f in (SQ, XLX, P15):
        psi = f.derivative()
        for trial in range(10):
            rng = rng_for(41, "duality", f.spec_string(), trial)
            A = sample_psd(3, 0.5, rng, spectral_cap=4.0)
            X = sample_hermitian(3, rng)
            Y = sample_hermitian(3, rng)
            lhs = np.trace(frechet_d2(f, A, X, Y)).real
            mid = np.vdot(X, frechet_d1(psi, A, Y)).real
            rhs = np.vdot(Y, frechet_d1(psi, A, X)).real
            scale = 1.0 + abs(lhs)
            assert abs(lhs - mid) < 1e-8 * scale
            assert abs(lhs - rhs) < 1e-8 * scale


def vec(X):
    """Column-stack a matrix: the order superop_matrix acts in."""
    return np.asarray(X, dtype=complex).reshape(-1, order="F")


def unvec(v):
    return v.reshape(math.isqrt(v.size), -1, order="F")


def test_superop_scalar_case():
    T = superop_matrix(XLX.derivative(), np.array([[2.0]]))
    assert T.shape == (1, 1)
    assert T[0, 0].real == pytest.approx(0.5)  # psi'(a) = 1/a
    Tinv = superop_inverse(T)
    assert Tinv[0, 0].real == pytest.approx(2.0)


def test_superop_square_is_twice_identity():
    T = superop_matrix(SQ.derivative(), sample_psd(3, 0.1, 9))
    assert_allclose(T, 2.0 * np.eye(9), atol=1e-10)


def test_superop_diagonal_entries_from_divided_differences():
    T = superop_matrix(XLX.derivative(), np.diag([1.0, 2.0]))
    expected = sorted([1.0, np.log(2.0), np.log(2.0), 0.5])
    assert_allclose(sorted(np.diag(T).real), expected, atol=1e-12)


def test_superop_action_matches_derivative():
    for f in (XLX, P15):
        psi = f.derivative()
        A = sample_psd(3, 0.5, 10)
        T = superop_matrix(psi, A)
        for seed in range(5):
            X = sample_hermitian(3, seed)
            direct = frechet_d1(psi, A, X)
            assert relative_error(unvec(T @ vec(X)), direct) < 1e-9


def test_superop_quadratic_form_positive_definite():
    # psi' > 0 on the spectrum makes the form positive on Hermitian inputs
    A = sample_psd(4, 0.5, 12)
    T = superop_matrix(XLX.derivative(), A)
    for seed in range(10):
        h = sample_hermitian(4, 200 + seed)
        v = vec(h)
        assert (v.conj() @ T @ v).real > 0.0


def test_superop_preserves_hermiticity():
    A = sample_psd(3, 0.5, 13)
    T = superop_matrix(XLX.derivative(), A)
    out = unvec(T @ vec(sample_hermitian(3, 14)))
    assert np.abs(out - out.conj().T).max() < 1e-10


def test_superop_inverse_roundtrip():
    A = sample_psd(3, 0.5, 15)
    T = superop_matrix(XLX.derivative(), A)
    Tinv = superop_inverse(T)
    assert_allclose(Tinv @ T, np.eye(9), atol=1e-8)
    X = sample_hermitian(3, 16)
    assert_allclose(unvec(Tinv @ (T @ vec(X))), X, atol=1e-10)


def test_superop_inverse_singular_guard():
    with pytest.raises(SingularOperatorError) as err:
        superop_inverse(np.diag([1.0, 1.0, 1.0, 0.0]).astype(complex))
    assert err.value.smallest_singular_value == pytest.approx(0.0)


def _dense_inverse(psi, A, X):
    return unvec(superop_inverse(superop_matrix(psi, A)) @ vec(X))


def _assert_inverse_matches_dense(psi, A, X):
    T_inv = derivative_inverse(psi, spectral_decompose(A))
    assert relative_error(T_inv(X), _dense_inverse(psi, A, X), floor=0.0) < 1e-12
    assert relative_error(frechet_d1(psi, A, T_inv(X)), X, floor=0.0) < 1e-12


@pytest.mark.parametrize("f", INVERTIBLE, ids=lambda f: f.spec_string())
@pytest.mark.parametrize("d", (1, 2, 3, 8))
def test_derivative_inverse_matches_dense_oracle(f, d):
    A = sample_psd(d, 0.5, 40 + d)
    for seed in range(3):
        _assert_inverse_matches_dense(f.derivative(), A, sample_hermitian(d, 400 + seed))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_derivative_inverse_at_coincident_eigenvalues(data):
    # Two eigenvalues coincide, or sit just inside or just outside the
    # order-1 Taylor band, where dd1_grid switches from quotient to series.
    f = data.draw(st.sampled_from(INVERTIBLE), label="phi")
    d = data.draw(st.integers(2, 4), label="d")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    base = data.draw(st.floats(0.5, 4.0), label="coincident eigenvalue")
    offset = data.draw(st.sampled_from((0.0, 0.9, 1.1)), label="offset / Taylor band")
    rng = rng_for(seed, "coincident")
    lam = np.concatenate([[base, base * (1.0 + offset * TAYLOR_BAND[1])],
                          rng.uniform(0.5, 4.0, d - 2)])
    U = haar_unitary(d, rng)
    A = (U * lam) @ U.conj().T
    _assert_inverse_matches_dense(f.derivative(), A, sample_hermitian(d, rng))


@pytest.mark.parametrize("f, A, smallest", [
    (builtin("affine", 1.0, 2.0), np.eye(2), 0.0),  # psi' = 0: K vanishes
    (XLX, np.diag([50.0, 2e-12]), 0.02),            # condition number 2.5e13
])
def test_derivative_inverse_guard_matches_dense_guard(f, A, smallest):
    psi = f.derivative()
    with pytest.raises(SingularOperatorError) as dense:
        superop_inverse(superop_matrix(psi, A))
    with pytest.raises(SingularOperatorError) as eigenbasis:
        derivative_inverse(psi, spectral_decompose(A))
    assert eigenbasis.value.smallest_singular_value == pytest.approx(
        dense.value.smallest_singular_value, rel=1e-12)
    assert eigenbasis.value.smallest_singular_value == pytest.approx(smallest, rel=1e-12)


def test_derivative_inverse_guard_admits_condition_just_inside_limit():
    # condition number 5e11, below SUPEROP_COND_LIMIT = 1e12
    A = np.diag([50.0, 1e-10])
    h = np.array([[0.3, 0.1], [0.1, -0.2]])
    dense = float(np.trace(h @ _dense_inverse(XLX.derivative(), A, h)).real)
    got = inverse_derivative_quadratic_form(XLX, A, h)
    assert got == pytest.approx(dense, rel=1e-12)
    assert got == pytest.approx(4.537122454522767, rel=1e-12)


def test_stack_convention_column_major():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert_allclose(vec(X).real, [1.0, 3.0, 2.0, 4.0])
    assert_allclose(unvec(vec(X)), X)
    # vec(B X C) = (C^T kron B) vec(X)
    B = sample_hermitian(2, 17)
    C = sample_hermitian(2, 18)
    assert_allclose(np.kron(C.T, B) @ vec(X), vec(B @ X @ C), atol=1e-12)


# --- derivative identities ---------------------------------------------------------

# A matrix map as (G, DG, D2G): its value at A, its derivative at A along h and
# its second derivative at A along (h, k).
IDENTITY_MAP = (lambda A: A, lambda A, h: h, lambda A, h, k: np.zeros_like(A))


def _constant_map(C):
    C = np.asarray(C, dtype=complex)
    return (lambda A: C, lambda A, h: np.zeros_like(C), lambda A, h, k: np.zeros_like(C))


def _matrix_function_map(f):
    return (lambda A: apply_scalar_function(f, A), lambda A, h: frechet_d1(f, A, h),
            lambda A, h, k: frechet_d2(f, A, h, k))


def _inversion_derivative_errors(G_map, A, h, k) -> tuple:
    """Relative errors of the two derivative identities of A -> G(A)^{-1}
    against central differences of the inverted map:

    first order   -G^{-1} DG(h) G^{-1};
    second order  G^{-1} DG(h) G^{-1} DG(k) G^{-1} + (h <-> k) - G^{-1} D2G(h,k) G^{-1}.
    """
    G, dG, d2G = G_map
    A = np.asarray(A, dtype=complex)
    h, k = np.asarray(h, dtype=complex), np.asarray(k, dtype=complex)
    inv = np.linalg.inv(G(A))
    dG_h, dG_k = dG(A, h), dG(A, k)
    rhs1 = -inv @ dG_h @ inv
    rhs2 = (inv @ dG_h @ inv @ dG_k @ inv + inv @ dG_k @ inv @ dG_h @ inv
            - inv @ d2G(A, h, k) @ inv)
    s = 1e-5 * (1.0 + frobenius(A)) / max(1.0, frobenius(h), frobenius(k))
    inv_at = lambda u, v: np.linalg.inv(G(A + u * s * h + v * s * k))  # noqa: E731
    lhs1 = (inv_at(1, 0) - inv_at(-1, 0)) / (2.0 * s)
    lhs2 = (inv_at(1, 1) - inv_at(1, -1) - inv_at(-1, 1) + inv_at(-1, -1)) / (4.0 * s**2)
    return relative_error(lhs1, rhs1), relative_error(lhs2, rhs2)


def _compose(f, g):
    """Scalar composition f(g(u)) with derivatives to order two."""
    c0 = lambda u: f.deriv(g.deriv(u, 0), 0)  # noqa: E731
    c1 = lambda u: f.deriv(g.deriv(u, 0), 1) * g.deriv(u, 1)  # noqa: E731
    c2 = lambda u: (  # noqa: E731
        f.deriv(g.deriv(u, 0), 2) * g.deriv(u, 1) ** 2
        + f.deriv(g.deriv(u, 0), 1) * g.deriv(u, 2)
    )
    return ScalarFunction(f"{f.name}({g.name})", g.domain, (c0, c1, c2),
                          deriv_floor=max(f.deriv_floor, g.deriv_floor))


def _chain_rule_error(f, g, A, h) -> float:
    """Relative error of D(f o g)[A](h) = Df[g(A)](Dg[A](h)), both sides independent."""
    lhs = frechet_d1(_compose(f, g), A, h)
    rhs = frechet_d1(f, apply_scalar_function(g, A), frechet_d1(g, A, h))
    return relative_error(lhs, rhs)


def _partial_derivative_error(F, X, Y, h, k) -> float:
    """Relative error of DF[X,Y](h,k) = D_X F(h) + D_Y F(k), by central differences."""
    X, Y, h, k = (np.asarray(M, dtype=complex) for M in (X, Y, h, k))
    s = 1e-5 * (1.0 + frobenius(X) + frobenius(Y)) / max(1.0, frobenius(h), frobenius(k))
    total = (F(X + s * h, Y + s * k) - F(X - s * h, Y - s * k)) / (2.0 * s)
    part_x = (F(X + s * h, Y) - F(X - s * h, Y)) / (2.0 * s)
    part_y = (F(X, Y + s * k) - F(X, Y - s * k)) / (2.0 * s)
    return relative_error(total, part_x + part_y)


def test_inversion_derivative_identity_map():
    A = np.diag([1.0, 2.0])
    h = np.eye(2)
    assert max(_inversion_derivative_errors(IDENTITY_MAP, A, h, h)) <= 1e-5
    # closed form: -A^{-1} h A^{-1}
    Ainv = np.linalg.inv(A)
    assert_allclose(-Ainv @ h @ Ainv, -np.diag([1.0, 0.25]), atol=1e-14)


def test_inversion_derivative_matrix_function_families():
    A = sample_psd(3, 0.8, 19)
    h = sample_hermitian_unit(3, 20)
    k = sample_hermitian_unit(3, 21)
    for f in (SQ, XLX):
        errors = _inversion_derivative_errors(_matrix_function_map(f), A, h, k)
        assert max(errors) <= 1e-5, (f.name, errors)


def test_inversion_derivative_constant_family():
    G = _constant_map(np.diag([1.0, 3.0]))
    errors = _inversion_derivative_errors(G, np.eye(2), sample_hermitian(2, 1),
                                          sample_hermitian(2, 2))
    assert max(errors) <= 1e-5


def test_inversion_derivative_zero_direction():
    errors = _inversion_derivative_errors(IDENTITY_MAP, np.diag([1.0, 2.0]), np.zeros((2, 2)),
                                          np.zeros((2, 2)))
    assert max(errors) <= 1e-5


def test_chain_rule_square_of_square():
    A = np.diag([1.0, 2.0])
    assert _chain_rule_error(SQ, SQ, A, np.eye(2)) <= 1e-6


def test_chain_rule_with_identity_inner():
    ident = builtin("affine", 0.0, 1.0)
    A = sample_psd(3, 0.5, 22)
    h = sample_hermitian(3, 23)
    assert _chain_rule_error(XLX, ident, A, h) <= 1e-6


def test_partial_derivative_linear_map():
    F = lambda X, Y: X + Y  # noqa: E731
    error = _partial_derivative_error(F, sample_hermitian(3, 1), sample_hermitian(3, 2),
                                      sample_hermitian(3, 3), sample_hermitian(3, 4))
    assert error <= 1e-6


def test_partial_derivative_bilinear_map():
    F = lambda X, Y: X @ Y + Y @ X  # noqa: E731
    error = _partial_derivative_error(F, sample_hermitian(3, 5), sample_hermitian(3, 6),
                                      sample_hermitian(3, 7), sample_hermitian(3, 8))
    assert error <= 1e-6
