"""Ensembles, entropy functionals, Efron-Stein quantities, dual representation."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import scalar_oracle as oracle
from phi_entropy_lab import (
    ClassGateError,
    DomainError,
    MatrixEnsemble,
    ProductEnsemble,
    builtin,
    check,
    conditional_entropy,
    efron_stein_quantity,
    expectation,
    interpolation_derivative_scan,
    matrix_phi_entropy,
    operator_phi_entropy,
    variance,
)
from phi_entropy_lab.entropy import dual_value, subadditivity_gap
from phi_entropy_lab.sampling import (
    rng_for,
    sample_coupled_ensembles,
    sample_ensemble,
    sample_product,
)

SQ = builtin("square")
XLX = builtin("xlogx")

E0 = MatrixEnsemble(np.array([0.5, 0.5]), np.stack([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])]))


def diag_product(factor_weights, scalar_map):
    """Product ensemble with 1x1 atoms from a scalar outcome table."""
    return ProductEnsemble(
        tuple(np.asarray(w) for w in factor_weights),
        {k: np.array([[v]]) for k, v in scalar_map.items()},
    )


def test_ensemble_invariants_enforced():
    with pytest.raises(DomainError, match="sum to 1"):
        MatrixEnsemble(np.array([0.5, 0.4]), np.stack([np.eye(2)] * 2))
    with pytest.raises(DomainError, match="positive semi-definite"):
        MatrixEnsemble(np.array([0.5, 0.5]), np.stack([np.eye(2), -np.eye(2)]))


def test_expectation_examples():
    single = MatrixEnsemble(np.array([1.0]), np.stack([np.diag([2.0, 5.0])]))
    assert_allclose(expectation(single), np.diag([2.0, 5.0]))
    assert_allclose(expectation(E0), np.diag([2.0, 3.0]))


def test_ensemble_json_roundtrip():
    E = sample_ensemble(3, 3, seed=4)
    back = MatrixEnsemble.from_json_dict(E.to_json_dict())
    assert_allclose(back.weights, E.weights, atol=0)
    assert_allclose(back.atoms, E.atoms, atol=0)


def test_product_json_roundtrip():
    P = sample_product(2, 2, (2, 3), seed=5)
    back = ProductEnsemble.from_json_dict(P.to_json_dict())
    assert back.support_sizes == P.support_sizes
    for key in P.outcomes():
        assert_allclose(back.z_map[key], P.z_map[key], atol=0)


def test_product_requires_total_map():
    with pytest.raises(DomainError, match="missing"):
        ProductEnsemble((np.array([0.5, 0.5]),), {(0,): np.eye(2)})


def test_tower_property():
    P = sample_product(3, 3, 2, seed=6)
    # iterate factor-wise in two different orders; must match the flat mean
    flat_mean = expectation(P.flatten())
    acc = np.zeros((3, 3), dtype=complex)
    for key in P.outcomes():
        acc += P.probability(key) * P.z_map[key]
    assert_allclose(flat_mean, acc, atol=1e-12)


def test_trace_entropy_deterministic_zero():
    single = MatrixEnsemble(np.array([1.0]), np.stack([np.diag([1.0, 2.0])]))
    assert matrix_phi_entropy(SQ, single) == pytest.approx(0.0, abs=1e-14)
    assert np.abs(operator_phi_entropy(SQ, single)).max() < 1e-14


def test_trace_entropy_square_example():
    # E phi(Z) - phi(EZ) = diag(5,10) - diag(4,9) -> normalized trace 1
    assert matrix_phi_entropy(SQ, E0) == pytest.approx(1.0, abs=1e-12)


def test_trace_entropy_xlogx_commuting_example():
    E = MatrixEnsemble(np.array([0.5, 0.5]), np.stack([np.diag([1.0, 1.0]), np.diag([3.0, 1.0])]))
    expected = (3.0 * math.log(3.0) / 2.0 - 2.0 * math.log(2.0)) / 2.0
    assert matrix_phi_entropy(XLX, E) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.13081, abs=5e-6)


def test_operator_entropy_square_equals_variance():
    for seed in range(5):
        E = sample_ensemble(3, 3, seed=seed)
        assert np.abs(operator_phi_entropy(SQ, E) - variance(E)).max() < 1e-12
    assert_allclose(operator_phi_entropy(SQ, E0), np.diag([1.0, 1.0]), atol=1e-12)


def test_trace_entropy_nonnegative_for_all_convex_functions():
    for spec in ("square", "xlogx", "power:1.5", "quartic", "exp"):
        f = builtin(*([spec] if ":" not in spec else ["power", 1.5]))
        for seed in range(5):
            E = sample_ensemble(3, 3, seed=seed, spectral_floor=1e-3, spectral_cap=3.0)
            assert matrix_phi_entropy(f, E) >= -1e-10


def test_scalar_ensemble_matches_classical_entropy():
    rng = rng_for(3, "scalar-entropy")
    for _ in range(10):
        w = rng.dirichlet(np.ones(4))
        z = rng.uniform(0.1, 3.0, size=4)
        E = MatrixEnsemble(w, z.reshape(-1, 1, 1).astype(complex))
        for name, f in (("square", SQ), ("xlogx", XLX)):
            assert matrix_phi_entropy(f, E) == pytest.approx(
                oracle.entropy(name, w, z), abs=1e-12)


def test_commuting_ensemble_reduces_to_entrywise_entropy():
    rng = rng_for(4, "commuting")
    w = rng.dirichlet(np.ones(3))
    diags = rng.uniform(0.2, 2.0, size=(3, 4))
    E = MatrixEnsemble(w, np.stack([np.diag(d) for d in diags]).astype(complex))
    gap = operator_phi_entropy(XLX, E)
    expected = [oracle.entropy("xlogx", w, diags[:, j]) for j in range(4)]
    assert_allclose(np.diag(gap).real, expected, atol=1e-10)
    assert matrix_phi_entropy(XLX, E) == pytest.approx(float(np.mean(expected)), abs=1e-10)


def test_conditional_entropy_deterministic_factor():
    P = diag_product(
        [(0.4, 0.6), (1.0,)],
        {(0, 0): 1.0, (1, 0): 2.0},
    )
    # factor 1 is deterministic: conditioning on factor 0 leaves no randomness
    assert conditional_entropy(SQ, P, 1, (0,), "trace") == pytest.approx(0.0, abs=1e-14)


def test_conditional_entropy_single_factor_equals_unconditional():
    P = sample_product(2, 1, 3, seed=7)
    h_cond = conditional_entropy(XLX, P, 0, (), "trace")
    assert h_cond == pytest.approx(matrix_phi_entropy(XLX, P.flatten()), abs=1e-14)


def test_conditional_entropy_diagonal_matches_scalar_conditional_variance():
    w1, w2 = (0.3, 0.7), (0.25, 0.75)
    table = {(0, 0): 0.5, (0, 1): 1.5, (1, 0): 2.0, (1, 1): 0.7}
    P = diag_product([w1, w2], table)
    # condition on factor 1 fixed at outcome 1, integrate factor 0
    got = conditional_entropy(SQ, P, 0, (1,), "trace")
    expected = oracle.variance(w1, [table[(0, 1)], table[(1, 1)]])
    assert got == pytest.approx(expected, abs=1e-12)


def test_conditional_entropy_complement_convention():
    P = sample_product(2, 2, 2, seed=8)
    # integrate over the complement of factor 0 with X_0 pinned
    got = conditional_entropy(XLX, P, 0, 1, "trace", integrate_over="complement")
    E = P.slice_over_complement(0, 1)
    assert got == pytest.approx(matrix_phi_entropy(XLX, E), abs=1e-14)


def test_subadditivity_single_factor_margin_exactly_zero():
    for seed in range(5):
        P = sample_product(3, 1, 3, seed=seed)
        for variant, f in (("trace", XLX), ("operator", SQ)):
            gap = subadditivity_gap(f, P, variant)
            assert np.abs(gap).max() <= 1e-12


def test_subadditivity_operator_square_random_sweep():
    for trial in range(50):
        P = sample_product(2, 2, 2, seed=trial)
        report = check("subadditivity", phi=SQ, variant="operator", product=P)
        assert report.holds, report


def test_subadditivity_trace_xlogx_random_sweep():
    for trial in range(50):
        P = sample_product(3, 2, 2, seed=trial)
        report = check("subadditivity", phi=XLX, variant="trace", product=P)
        assert report.holds, report


def test_subadditivity_class_gate():
    P = sample_product(2, 2, 2, seed=1)
    with pytest.raises(ClassGateError):
        check("subadditivity", phi=XLX, variant="operator", product=P)
    with pytest.raises(ClassGateError):
        check("subadditivity", phi=builtin("quartic"), variant="trace", product=P)
    # override runs the computation anyway
    report = check("subadditivity", override=True, phi=builtin("quartic"), variant="trace",
                   product=P)
    assert report.trials == 1


def test_subadditivity_quartic_scalar_counterexample_search():
    # embedded d = 1 ensembles expose violations for the quartic
    qt = builtin("quartic")
    found = False
    for trial in range(400):
        rng = rng_for(17, "quartic-subadd", trial)
        w = [rng.dirichlet(np.ones(2)) for _ in range(2)]
        table = {k: float(rng.uniform(0.05, 3.0)) for k in
                 [(0, 0), (0, 1), (1, 0), (1, 1)]}
        P = diag_product(w, table)
        margin = oracle.subadditivity_margin("quartic", w, table)
        report = check("subadditivity", override=True, phi=qt, variant="trace", product=P)
        assert report.margin == pytest.approx(margin, abs=1e-10)
        if report.margin < -1e-8:
            found = True
            break
    assert found, "no quartic subadditivity violation in 400 scalar trials"


def test_variance_properties():
    single = MatrixEnsemble(np.array([1.0]), np.stack([np.diag([1.0, 2.0])]))
    assert np.abs(variance(single)).max() < 1e-14
    assert_allclose(variance(E0), np.diag([1.0, 1.0]), atol=1e-12)
    rng = rng_for(5, "variance")
    w = rng.dirichlet(np.ones(3))
    diags = rng.uniform(0.1, 2.0, size=(3, 3))
    E = MatrixEnsemble(w, np.stack([np.diag(d) for d in diags]).astype(complex))
    expected = [oracle.variance(w, diags[:, j]) for j in range(3)]
    assert_allclose(np.diag(variance(E)).real, expected, atol=1e-12)
    # PSD
    assert np.linalg.eigvalsh(variance(sample_ensemble(4, 3, seed=3)))[0] >= -1e-12


def test_efron_stein_single_factor_equals_variance():
    for seed in range(5):
        P = sample_product(3, 1, 4, seed=seed)
        assert np.abs(efron_stein_quantity(P) - variance(P.flatten())).max() < 1e-12


def test_efron_stein_deterministic_map_is_zero():
    A = np.diag([1.0, 2.0])
    P = ProductEnsemble((np.array([0.5, 0.5]),), {(0,): A, (1,): A})
    assert np.abs(efron_stein_quantity(P)).max() < 1e-14


def test_efron_stein_diagonal_matches_scalar_brute_force():
    w = [(0.3, 0.7), (0.6, 0.4)]
    table = {(0, 0): 0.2, (0, 1): 1.4, (1, 0): 2.3, (1, 1): 0.9}
    P = diag_product(w, table)
    got = efron_stein_quantity(P)[0, 0].real
    assert got == pytest.approx(oracle.efron_stein(w, table), abs=1e-12)


def test_operator_efron_stein_sweep():
    for trial in range(50):
        P = sample_product(4, 3, 2, seed=trial)
        report = check("efron_stein", product=P)
        assert report.holds, report


def test_polynomial_efron_stein():
    P1 = diag_product([(0.4, 0.6)], {(0,): 0.5, (1,): 2.0})
    report = check("poly_efron_stein", p=1, product=P1)
    # p = 1, d = 1 reduces to the classical scalar inequality (equality at n=1)
    assert report.holds and abs(report.margin) < 1e-12
    for p in (1, 2, 3):
        for trial in range(20):
            P = sample_product(3, 2, 2, seed=trial)
            assert check("poly_efron_stein", p=p, product=P).holds
    with pytest.raises(DomainError):
        check("poly_efron_stein", p=0, product=P1)


def test_dual_gap_zero_at_coincident_ensembles():
    Z, _ = sample_coupled_ensembles(3, 3, seed=2, spectral_floor=1e-2)
    for f, variant in ((SQ, "operator"), (SQ, "trace"), (XLX, "trace")):
        report = check("dual_representation", phi=f, variant=variant, Z=Z, T=Z)
        assert abs(report.margin) <= 1e-12


def test_dual_gap_deterministic_reference_is_entropy():
    Z, _ = sample_coupled_ensembles(3, 3, seed=3, spectral_floor=1e-2)
    mean = expectation(Z)
    T = MatrixEnsemble(Z.weights, np.stack([mean] * Z.support))
    value = dual_value(SQ, Z, T)
    # the reference term vanishes, leaving the entropy itself as the margin
    assert np.abs(value).max() < 1e-10
    report = check("dual_representation", phi=SQ, variant="operator", Z=Z, T=T)
    assert report.holds and report.margin >= -1e-12


def test_dual_gap_random_sweep():
    for trial in range(50):
        Z, T = sample_coupled_ensembles(2, 3, seed=trial, spectral_floor=1e-3)
        assert check("dual_representation", phi=SQ, variant="operator", Z=Z, T=T).holds
        assert check("dual_representation", phi=SQ, variant="trace", Z=Z, T=T).holds
        assert check("dual_representation", phi=XLX, variant="trace", Z=Z, T=T).holds


def test_dual_gap_scalar_matches_classical():
    rng = rng_for(6, "dual-scalar")
    for _ in range(10):
        w = rng.dirichlet(np.ones(3))
        z = rng.uniform(0.2, 2.5, size=3)
        t = rng.uniform(0.2, 2.5, size=3)
        Z = MatrixEnsemble(w, z.reshape(-1, 1, 1).astype(complex))
        T = MatrixEnsemble(w, t.reshape(-1, 1, 1).astype(complex))
        report = check("dual_representation", phi=XLX, variant="trace", Z=Z, T=T)
        assert report.margin == pytest.approx(oracle.dual_margin("xlogx", w, z, t), abs=1e-10)


def test_dual_gap_requires_positive_definite_reference():
    Z, _ = sample_coupled_ensembles(2, 2, seed=5, spectral_floor=1e-2)
    T = MatrixEnsemble(Z.weights, np.stack([np.diag([1.0, 0.0]), np.eye(2)]))
    with pytest.raises(DomainError, match="positive definite"):
        check("dual_representation", phi=SQ, variant="trace", Z=Z, T=T)


def test_interpolation_scan_constant_when_coincident():
    Z, _ = sample_coupled_ensembles(2, 3, seed=7, spectral_floor=1e-2)
    report = interpolation_derivative_scan(SQ, Z, Z, grid=np.linspace(0, 1, 5))
    assert report.holds
    assert abs(report.margin) < 1e-12


def test_interpolation_scan_monotone_and_anchored():
    grid = np.linspace(0.0, 1.0, 11)
    for trial in range(10):
        Z, T = sample_coupled_ensembles(3, 3, seed=trial, spectral_floor=1e-2)
        report = interpolation_derivative_scan(SQ, Z, T, grid=grid, variant="operator")
        assert report.holds, report
        # F(0) equals the operator entropy of Z
        assert np.abs(dual_value(SQ, Z, Z) - operator_phi_entropy(SQ, Z)).max() < 1e-12


def test_interpolation_scan_scalar_closed_form():
    # at d = 1 with the square, F(s) = H(Z) - s^2 Var(T - Z)
    rng = rng_for(8, "scan-scalar")
    w = rng.dirichlet(np.ones(3))
    z = rng.uniform(0.3, 2.0, size=3)
    t = rng.uniform(0.3, 2.0, size=3)
    Z = MatrixEnsemble(w, z.reshape(-1, 1, 1).astype(complex))
    T = MatrixEnsemble(w, t.reshape(-1, 1, 1).astype(complex))
    h_z = oracle.entropy("square", w, z)
    var_diff = oracle.variance(w, t - z)
    for s in (0.0, 0.3, 0.8, 1.0):
        T_s = MatrixEnsemble(w, ((1 - s) * z + s * t).reshape(-1, 1, 1).astype(complex))
        f_s = dual_value(SQ, Z, T_s)[0, 0].real
        assert f_s == pytest.approx(h_z - s * s * var_diff, abs=1e-12)
