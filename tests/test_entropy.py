"""Ensembles, entropy functionals, Efron-Stein quantities, dual representation."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import scalar_oracle as oracle
from phi_entropy_lab import (
    ClassGateError,
    ConfigError,
    DimensionMismatchError,
    DomainError,
    KrausChannel,
    MatrixEnsemble,
    NonHermitianError,
    ProductEnsemble,
    builtin,
    check,
    efron_stein_quantity,
    from_spec,
    matrix_phi_entropy,
    operator_phi_entropy,
    random_unital_channel,
    spectral_decompose,
    variance,
)
from phi_entropy_lab.entropy import SPECTRAL_FLOOR, dual_value, subadditivity_gap
from phi_entropy_lab.sampling import (
    rng_for,
    sample_coupled_ensembles,
    sample_ensemble,
    sample_product,
    sample_psd,
)
from phi_entropy_lab.spectral import frobenius, matrix_to_json, variant_margin

SQ = builtin("square")
XLX = builtin("xlogx")

E0 = MatrixEnsemble(np.array([0.5, 0.5]), np.stack([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])]))


def diag_product(factor_weights, scalar_map):
    """Product ensemble with 1x1 atoms from a scalar outcome table."""
    return ProductEnsemble(tuple(np.asarray(w) for w in factor_weights),
                           np.array([[[scalar_map[k]]] for k in sorted(scalar_map)]))


def test_ensemble_invariants_enforced():
    with pytest.raises(DomainError, match="sum to 1"):
        MatrixEnsemble(np.array([0.5, 0.4]), np.stack([np.eye(2)] * 2))
    with pytest.raises(DomainError, match="positive semi-definite"):
        MatrixEnsemble(np.array([0.5, 0.5]), np.stack([np.eye(2), -np.eye(2)]))


@pytest.mark.parametrize("bad", ([np.nan, 1.0], [1.0, np.nan], [np.inf, 0.0], [-np.inf, 1.0]),
                         ids=("nan-first", "nan-last", "inf", "minus-inf"))
def test_constructors_refuse_non_finite_weights(bad):
    atoms = np.stack([np.eye(2)] * 2)
    with pytest.raises(DomainError, match=r"ensemble weights must be finite, got \[.*(nan|inf)"):
        MatrixEnsemble(np.array(bad), atoms)
    with pytest.raises(DomainError, match=r"factor 1 weights must be finite"):
        ProductEnsemble((np.array([0.5, 0.5]), np.array(bad)), np.stack([np.eye(2)] * 4))


def test_ensemble_json_roundtrip():
    E = sample_ensemble(3, 3, seed=4)
    back = MatrixEnsemble.from_json_dict(E.to_json_dict())
    assert_allclose(back.weights, E.weights, atol=0)
    assert_allclose(back.atoms, E.atoms, atol=0)


def test_product_json_roundtrip():
    for sizes, d in itertools.product(((2, 3), (3,), (2, 1, 2)), (1, 2)):
        P = sample_product(d, len(sizes), sizes, seed=5)
        data = P.to_json_dict()
        # The table is written in row-major outcome order: the last factor fastest.
        assert list(data["z"]) == [",".join(map(str, key))
                                   for key in itertools.product(*map(range, sizes))]
        # A table in another order decodes to the same bytes.
        for z in (data["z"], dict(reversed(data["z"].items()))):
            back = ProductEnsemble.from_json_dict({**data, "z": z})
            assert back.atoms.tobytes() == P.atoms.tobytes(), (sizes, d)
            assert back.joint_weights.tobytes() == P.joint_weights.tobytes(), (sizes, d)
            assert [w.tobytes() for w in back.factor_weights] == \
                [w.tobytes() for w in P.factor_weights], (sizes, d)


def test_product_requires_total_map():
    with pytest.raises(DimensionMismatchError, match="one matrix per outcome of \\(2,\\)"):
        ProductEnsemble((np.array([0.5, 0.5]),), np.eye(2)[None])
    with pytest.raises(DomainError, match="each outcome once"):
        ProductEnsemble.from_json_dict({"factors": [[0.5, 0.5]],
                                        "z": {"0": matrix_to_json(np.eye(1))}})


# One bad atom among good ones: the ensembles check their atoms as one stack,
# and the error must still be the one the bad atom raises alone, named by it.
BAD_ATOMS = {
    "non-hermitian": (np.array([[1.0, 0.5], [0.0, 1.0]]), NonHermitianError, "not Hermitian"),
    "not-psd": (np.diag([1.0, -0.5]), DomainError, "positive semi-definite"),
    "non-finite": (np.array([[np.nan, 0.0], [0.0, 1.0]]), DomainError, "non-finite"),
    "wrong-dim": (np.eye(3), DimensionMismatchError, None),
}


@pytest.mark.parametrize("bad", sorted(BAD_ATOMS))
@pytest.mark.parametrize("position", range(4))
def test_ensembles_name_the_bad_atom_at_any_position(bad, position):
    atom, error, message = BAD_ATOMS[bad]
    good = [sample_ensemble(2, 1, seed=s).atoms[0] for s in range(4)]
    mats = good[:position] + [atom] + good[position + 1:]
    keys = [(i, j) for i in range(2) for j in range(2)]
    if bad == "wrong-dim":  # the atoms of both ensembles are one array; JSON tables are not
        table = {f"{i},{j}": matrix_to_json(A) for (i, j), A in zip(keys, mats)}
        with pytest.raises(error, match="must share one dim"):
            ProductEnsemble.from_json_dict({"factors": [[0.5, 0.5]] * 2, "z": table})
    else:
        name = rf"outcome {re.escape(str(keys[position]))}"
        with pytest.raises(error, match=rf"{name}.* {message}"):
            ProductEnsemble((np.array([0.5, 0.5]),) * 2, np.stack(mats))
        with pytest.raises(error, match=rf"atom {position}.* {message}"):
            MatrixEnsemble(np.full(4, 0.25), np.stack(mats))
    # All good atoms construct, and both ensembles keep them as given.
    P = ProductEnsemble((np.array([0.5, 0.5]),) * 2, np.stack(good))
    assert np.array_equal(P.atoms, np.stack(good))
    assert np.array_equal(MatrixEnsemble(np.full(4, 0.25), np.stack(good)).atoms, np.stack(good))


@pytest.mark.parametrize("build, named", [
    (lambda mats: MatrixEnsemble(np.array([0.5, 0.5]), mats), "atom 1"),
    (lambda mats: ProductEnsemble((np.array([0.5, 0.5]),), mats), "outcome (1,)"),
    (lambda mats: KrausChannel([mats[0] / np.sqrt(2), mats[1]]), "Kraus operator 1"),
], ids=["ensemble", "product", "channel"])
def test_constructors_name_a_matrix_of_another_dim_in_a_list(build, named):
    # A list of a 2x2 and a 3x3 matrix does not stack: the constructor names
    # the matrix, where numpy alone would raise its own ValueError.
    with pytest.raises(DimensionMismatchError, match=re.escape(f"{named} has shape (3, 3)")):
        build([np.eye(2), np.eye(3)])
    # Nor does a matrix with ragged rows, after a good one.
    with pytest.raises(DimensionMismatchError, match=re.escape(f"{named} has ragged rows")):
        build([np.eye(2), [[1.0, 0.0], [0.0]]])


def test_array_holding_values_compare_by_identity():
    # Two draws from one seed hold equal arrays but are distinct values:
    # == and hash are the instance's own and never compare the arrays.
    makers = {
        "MatrixEnsemble": lambda: sample_ensemble(2, 3, seed=1),
        "ProductEnsemble": lambda: sample_product(2, 2, 2, seed=1),
        "KrausChannel": lambda: random_unital_channel(2, 2, seed=1),
        "SpectralDecomposition": lambda: spectral_decompose(np.diag([1.0, 2.0])),
    }
    for name, make in makers.items():
        a, b = make(), make()
        assert a == a and a != b and hash(a) == hash(a), name
        assert a in [b, a] and b not in [a] and len({a, b}) == 2, name


def test_tower_property():
    P = sample_product(3, 3, 2, seed=6)
    # iterate factor-wise in two different orders; must match the flat mean
    flat = P.flatten()
    flat_mean = np.einsum("m,mij->ij", flat.weights, flat.atoms)
    acc = np.zeros((3, 3), dtype=complex)
    for key, A in zip(itertools.product(*map(range, map(len, P.factor_weights))), P.atoms):
        acc += np.prod([P.factor_weights[i][s] for i, s in enumerate(key)]) * A
    assert_allclose(flat_mean, acc, atol=1e-12)


def test_trace_entropy_deterministic_zero():
    single = MatrixEnsemble(np.array([1.0]), np.stack([np.diag([1.0, 2.0])]))
    assert matrix_phi_entropy(SQ, [single])[0] == pytest.approx(0.0, abs=1e-14)
    assert np.abs(operator_phi_entropy(SQ, [single])[0]).max() < 1e-14


def test_trace_entropy_square_example():
    # E phi(Z) - phi(EZ) = diag(5,10) - diag(4,9) -> normalized trace 1
    assert matrix_phi_entropy(SQ, [E0])[0] == pytest.approx(1.0, abs=1e-12)


def test_trace_entropy_xlogx_commuting_example():
    E = MatrixEnsemble(np.array([0.5, 0.5]), np.stack([np.diag([1.0, 1.0]), np.diag([3.0, 1.0])]))
    expected = (3.0 * math.log(3.0) / 2.0 - 2.0 * math.log(2.0)) / 2.0
    assert matrix_phi_entropy(XLX, [E])[0] == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.13081, abs=5e-6)


def test_operator_entropy_square_equals_variance():
    for seed in range(5):
        E = sample_ensemble(3, 3, seed=seed)
        assert np.abs(operator_phi_entropy(SQ, [E])[0] - variance([E])[0]).max() < 1e-12
    assert_allclose(operator_phi_entropy(SQ, [E0])[0], np.diag([1.0, 1.0]), atol=1e-12)


def test_trace_entropy_nonnegative_for_all_convex_functions():
    for spec in ("square", "xlogx", "power:1.5", "quartic", "exp"):
        f = builtin(*([spec] if ":" not in spec else ["power", 1.5]))
        for seed in range(5):
            E = sample_ensemble(3, 3, seed=seed, spectral_floor=1e-3, spectral_cap=3.0)
            assert matrix_phi_entropy(f, [E])[0] >= -1e-10


def test_scalar_ensemble_matches_classical_entropy():
    rng = rng_for(3, "scalar-entropy")
    for _ in range(10):
        w = rng.dirichlet(np.ones(4))
        z = rng.uniform(0.1, 3.0, size=4)
        E = MatrixEnsemble(w, z.reshape(-1, 1, 1).astype(complex))
        for name, f in (("square", SQ), ("xlogx", XLX)):
            assert matrix_phi_entropy(f, [E])[0] == pytest.approx(
                oracle.entropy(name, w, z), abs=1e-12)


def test_commuting_ensemble_reduces_to_entrywise_entropy():
    rng = rng_for(4, "commuting")
    w = rng.dirichlet(np.ones(3))
    diags = rng.uniform(0.2, 2.0, size=(3, 4))
    E = MatrixEnsemble(w, np.stack([np.diag(d) for d in diags]).astype(complex))
    gap = operator_phi_entropy(XLX, [E])[0]
    expected = [oracle.entropy("xlogx", w, diags[:, j]) for j in range(4)]
    assert_allclose(np.diag(gap).real, expected, atol=1e-10)
    assert matrix_phi_entropy(XLX, [E])[0] == pytest.approx(float(np.mean(expected)), abs=1e-10)


# The conditional entropies below are the ones subadditivity_gap sums.


def test_conditional_entropy_deterministic_factor():
    P = diag_product(
        [(0.4, 0.6), (1.0,)],
        {(0, 0): 1.0, (1, 0): 2.0},
    )
    # factor 1 is deterministic: its conditional entropy is 0 and factor 0's
    # is the whole entropy, so the gap vanishes
    gap = subadditivity_gap(SQ, [P])[0]
    for variant in ("trace", "operator"):
        assert abs(variant_margin(gap, variant)) == pytest.approx(0.0, abs=1e-14)


def test_conditional_entropy_single_factor_equals_unconditional():
    P = sample_product(2, 1, 3, seed=7)
    # the only factor's conditional entropy is the entropy itself
    assert np.abs(subadditivity_gap(XLX, [P])[0]).max() <= 1e-14


def test_conditional_entropy_diagonal_matches_scalar_conditional_variance():
    w1, w2 = (0.3, 0.7), (0.25, 0.75)
    table = {(0, 0): 0.5, (0, 1): 1.5, (1, 0): 2.0, (1, 1): 0.7}
    P = diag_product([w1, w2], table)
    # for the square each conditional entropy is a scalar conditional variance
    got = subadditivity_gap(SQ, [P])[0][0, 0].real
    expected = oracle.subadditivity_margin("square", [w1, w2], table)
    assert got == pytest.approx(expected, abs=1e-12)


def test_subadditivity_single_factor_margin_exactly_zero():
    for seed in range(5):
        P = sample_product(3, 1, 3, seed=seed)
        for variant, f in (("trace", XLX), ("operator", SQ)):
            gap = subadditivity_gap(f, [P])[0]
            assert np.abs(gap).max() <= 1e-12
            assert abs(variant_margin(gap, variant)) <= 1e-12


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
    assert np.abs(variance([single])[0]).max() < 1e-14
    assert_allclose(variance([E0])[0], np.diag([1.0, 1.0]), atol=1e-12)
    rng = rng_for(5, "variance")
    w = rng.dirichlet(np.ones(3))
    diags = rng.uniform(0.1, 2.0, size=(3, 3))
    E = MatrixEnsemble(w, np.stack([np.diag(d) for d in diags]).astype(complex))
    expected = [oracle.variance(w, diags[:, j]) for j in range(3)]
    assert_allclose(np.diag(variance([E])[0]).real, expected, atol=1e-12)
    # PSD
    assert np.linalg.eigvalsh(variance([sample_ensemble(4, 3, seed=3)])[0])[0] >= -1e-12


def test_efron_stein_single_factor_equals_variance():
    for seed in range(5):
        P = sample_product(3, 1, 4, seed=seed)
        assert np.abs(efron_stein_quantity([P])[0] - variance([P.flatten()])[0]).max() < 1e-12


def test_efron_stein_deterministic_map_is_zero():
    A = np.diag([1.0, 2.0])
    P = ProductEnsemble((np.array([0.5, 0.5]),), np.stack([A, A]))
    assert np.abs(efron_stein_quantity([P])[0]).max() < 1e-14


def test_efron_stein_diagonal_matches_scalar_brute_force():
    w = [(0.3, 0.7), (0.6, 0.4)]
    table = {(0, 0): 0.2, (0, 1): 1.4, (1, 0): 2.3, (1, 1): 0.9}
    P = diag_product(w, table)
    got = efron_stein_quantity([P])[0][0, 0].real
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
    # p < 1 is refused as in a stored witness (schatten_norm refuses it too)
    with pytest.raises(ConfigError, match="'p'"):
        check("poly_efron_stein", p=0, product=P1)


def test_dual_gap_zero_at_coincident_ensembles():
    Z, _ = sample_coupled_ensembles(3, 3, seed=2, spectral_floor=1e-2)
    for f, variant in ((SQ, "operator"), (SQ, "trace"), (XLX, "trace")):
        report = check("dual_representation", phi=f, variant=variant, Z=Z, T=Z)
        assert abs(report.margin) <= 1e-12


def test_dual_gap_deterministic_reference_is_entropy():
    Z, _ = sample_coupled_ensembles(3, 3, seed=3, spectral_floor=1e-2)
    mean = np.einsum("m,mij->ij", Z.weights, Z.atoms)
    T = MatrixEnsemble(Z.weights, np.stack([mean] * Z.support))
    value = dual_value(SQ, [Z], [T])[0]
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


def test_dual_value_checks_the_reference_spectrum_before_reading_z():
    # dual_value alone refuses a T below SPECTRAL_FLOOR for xlogx, whose
    # derivative needs it, and that error wins over a Z list of two shapes.
    Z = [sample_ensemble(2, 2, seed=1, spectral_floor=0.1),
         sample_ensemble(3, 2, seed=2, spectral_floor=0.1)]
    T = MatrixEnsemble(Z[0].weights, np.stack([np.diag([1.0, 1e-4]), np.eye(2)]))
    with pytest.raises(DomainError, match="needs atom spectra"):
        dual_value(XLX, Z, [T])
    with pytest.raises(DimensionMismatchError):
        dual_value(XLX, Z, [MatrixEnsemble(Z[0].weights, np.stack([np.eye(2)] * 2))])


def _dual_values_along(f, Z, T, grid):
    """The dual functional F(s) = dual_value(f, Z, (1-s)Z + sT) on the grid."""
    return np.stack([dual_value(f, [Z], [MatrixEnsemble(Z.weights,
                                                        (1.0 - s) * Z.atoms + s * T.atoms)])[0]
                     for s in grid])


def test_interpolation_scan_constant_when_coincident():
    Z, _ = sample_coupled_ensembles(2, 3, seed=7, spectral_floor=1e-2)
    values = _dual_values_along(SQ, Z, Z, np.linspace(0, 1, 5))
    assert np.abs(variant_margin(values[:-1] - values[1:], "operator")).max() < 1e-12


def test_interpolation_scan_monotone_and_anchored():
    grid = np.linspace(0.0, 1.0, 11)
    for trial in range(10):
        Z, T = sample_coupled_ensembles(3, 3, seed=trial, spectral_floor=1e-2)
        values = _dual_values_along(SQ, Z, T, grid)
        # F is nonincreasing along Z -> T in the PSD order
        tol = 1e-9 * (1.0 + frobenius(values).max())
        assert variant_margin(values[:-1] - values[1:], "operator").min() >= -tol
        # F(0) equals the operator entropy of Z
        assert np.abs(values[0] - operator_phi_entropy(SQ, [Z])[0]).max() < 1e-12


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
        f_s = dual_value(SQ, [Z], [T_s])[0][0, 0].real
        assert f_s == pytest.approx(h_z - s * s * var_diff, abs=1e-12)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_zero_weight_atoms_change_nothing(data):
    # An atom of weight zero, appended to an ensemble or as an outcome of one
    # factor of a product, adds exact zeros to every sum: each quantity keeps
    # its bits.
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    d = data.draw(st.integers(1, 4), label="d")
    f = from_spec(data.draw(st.sampled_from(("square", "xlogx", "power:1.5")), label="phi"))
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3), label="sizes")
    i = data.draw(st.integers(0, len(sizes) - 1), label="factor")
    rng = rng_for(seed, "zero-weight")
    E = sample_ensemble(d, sizes[0], rng, spectral_floor=SPECTRAL_FLOOR)
    E0 = MatrixEnsemble(np.append(E.weights, 0.0),
                        np.concatenate([E.atoms, sample_psd(d, SPECTRAL_FLOOR, rng, count=1)]))
    for quantity in (lambda E: operator_phi_entropy(f, E), variance):
        assert np.array_equal(quantity([E0]), quantity([E]))

    P = sample_product(d, len(sizes), sizes, rng, spectral_floor=SPECTRAL_FLOOR)
    grown = sizes[:i] + [1] + sizes[i + 1:]
    extra = sample_psd(d, SPECTRAL_FLOOR, rng, count=math.prod(grown)).reshape(grown + [d, d])
    table = np.concatenate([P.atoms.reshape(sizes + [d, d]), extra], axis=i)
    weights = [np.append(w, 0.0) if j == i else w for j, w in enumerate(P.factor_weights)]
    P0 = ProductEnsemble(tuple(weights), table.reshape((-1, d, d)))
    for quantity in (lambda P: subadditivity_gap(f, P), efron_stein_quantity):
        assert np.array_equal(quantity([P0]), quantity([P]))
