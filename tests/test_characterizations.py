"""Convexity functionals, equivalence conditions, integral/Taylor relations."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import scalar_oracle as oracle
from phi_entropy_lab import (
    BivariateFunctional,
    DomainError,
    builtin,
    check,
    eval_functional,
    frechet_d1,
    hs_inner,
    integral_relation_check,
    taylor_relation_check,
)
from phi_entropy_lab.characterizations import (
    condition_a_slack,
    condition_e_margin,
    condition_e_scalar_oracle,
    condition_e_terms,
    conditional_jensen_gap,
    convexity_lemma_margin,
    convexity_slack_at,
)
from phi_entropy_lab.entropy import MatrixEnsemble, ProductEnsemble, SPECTRAL_FLOOR
from phi_entropy_lab.suite import RunConfig, run_suite
from phi_entropy_lab.sampling import (
    rng_for,
    sample_hermitian,
    sample_hermitian_unit,
    sample_product,
    sample_psd,
)

SQ = builtin("square")
XLX = builtin("xlogx")
P15 = builtin("power", 1.5)
QT = builtin("quartic")
EXP = builtin("exp")
AFF = builtin("affine", 1.0, 2.0)


def pd_pair_sampler(d):
    def sample(rng):
        return sample_psd(d, SPECTRAL_FLOOR, rng), sample_psd(d, SPECTRAL_FLOOR, rng)
    return sample


def cond_a_sampler(d):
    def sample(rng):
        return (sample_psd(d, SPECTRAL_FLOOR, rng), sample_psd(d, SPECTRAL_FLOOR, rng),
                sample_hermitian_unit(d, rng))
    return sample


def test_functional_validation():
    with pytest.raises(DomainError):
        BivariateFunctional("nope", SQ)
    with pytest.raises(DomainError):
        BivariateFunctional("bregman_A", SQ, t=0.5)
    with pytest.raises(DomainError):
        BivariateFunctional("gap_F_t", SQ)  # t missing


def test_affine_functionals_vanish():
    u = sample_psd(3, 0.1, 1)
    v = sample_psd(3, 0.1, 2)
    for name, t in (("bregman_A", None), ("map_B", None), ("map_C", None), ("gap_F_t", 0.3)):
        F = BivariateFunctional(name, AFF, "trace", t=t)
        assert abs(eval_functional(F, u, v)) < 1e-10


def test_square_functional_closed_forms():
    u = sample_psd(3, 0.1, 3)
    v = sample_psd(3, 0.1, 4)
    tr_v2 = float(np.trace(v @ v).real)
    assert eval_functional(BivariateFunctional("bregman_A", SQ, "trace"), u, v) == \
        pytest.approx(tr_v2, rel=1e-10)
    assert_allclose(eval_functional(BivariateFunctional("bregman_A", SQ, "operator"), u, v),
                    v @ v, atol=1e-10)
    assert eval_functional(BivariateFunctional("map_B", SQ, "trace"), u, v) == \
        pytest.approx(2 * tr_v2, rel=1e-10)
    assert eval_functional(BivariateFunctional("map_C", SQ, "trace"), u, v) == \
        pytest.approx(2 * tr_v2, rel=1e-10)


def test_gap_f_t_vanishes_at_endpoints():
    u = sample_psd(2, 0.5, 5)
    v = sample_psd(2, 0.5, 6)
    for t in (0.0, 1.0):
        F = BivariateFunctional("gap_F_t", XLX, "trace", t=t)
        assert abs(eval_functional(F, u, v)) < 1e-10


def test_gap_f_t_nonnegative_between_endpoints():
    rng = rng_for(9, "gapft")
    for _ in range(20):
        u = sample_psd(3, 1e-3, rng)
        v = sample_psd(3, 1e-3, rng)
        t = float(rng.uniform())
        F_tr = BivariateFunctional("gap_F_t", XLX, "trace", t=t)
        assert eval_functional(F_tr, u, v) >= -1e-10
        F_op = BivariateFunctional("gap_F_t", SQ, "operator", t=t)
        assert np.linalg.eigvalsh(eval_functional(F_op, u, v))[0] >= -1e-10


def test_functional_values_match_scalar_formulas():
    rng = rng_for(10, "functional-scalar")
    for _ in range(10):
        u, v = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.1, 1.5))
        U, V = np.array([[u]]), np.array([[v]])
        checks = [
            ("bregman_A", None, oracle.bregman("xlogx", u, v)),
            ("map_B", None, oracle.increment("xlogx", u, v)),
            ("map_C", None, oracle.quadratic_form("xlogx", u, v)),
            ("gap_F_t", 0.4, oracle.interpolation_gap("xlogx", 0.4, u, v)),
        ]
        for name, t, expected in checks:
            F = BivariateFunctional(name, XLX, "trace", t=t)
            assert eval_functional(F, U, V) == pytest.approx(expected, abs=1e-11)


def test_map_c_trace_duality():
    for f in (SQ, XLX, P15):
        psi = f.derivative()
        u = sample_psd(3, 0.5, 7)
        v = sample_hermitian(3, 8)
        F = BivariateFunctional("map_C", f, "trace")
        lhs = eval_functional(F, u, v)
        rhs = hs_inner(v, frechet_d1(psi, u, v)).real
        assert abs(lhs - rhs) < 1e-8 * (1.0 + abs(lhs))


def suite_reports(checks, phi, variant="trace", trials=40, seed=0, dim=2):
    """The suite's reports for one function, keyed by check name."""
    suite = run_suite(RunConfig(seed=seed, dims=(dim,), trials=trials, phi_list=(phi,),
                                variant=variant, checks=checks))
    return {report.check_name: report for report, _, _ in suite.entries}


def test_joint_convexity_square_operator_map_c():
    reports = suite_reports(("characterizations",), "square", "operator", seed=11)
    report = reports["characterizations[d,square,operator,d=2]"]
    assert report.holds, report


def test_joint_convexity_affine_margin_zero():
    spec = AFF.spec_string()
    reports = suite_reports(("characterizations",), spec, trials=10, seed=12)
    report = reports[f"characterizations[d,{spec},trace,d=2]"]
    assert report.holds and abs(report.margin) < 1e-12


def test_joint_convexity_in_class_sweeps():
    for f in (XLX, P15):
        spec = f.spec_string()
        reports = suite_reports(("characterizations",), spec, seed=13)
        for item in ("b", "c", "d"):
            report = reports[f"characterizations[{item},{spec},trace,d=2]"]
            assert report.holds, (spec, item, report.margin)


def test_joint_convexity_quartic_violation_found():
    # 12 u^2 v^2 is not jointly convex; hand-checkable at (1,0)/(0,1)
    F = BivariateFunctional("map_C", QT, "trace")
    one, zero = np.array([[1.0]]), np.array([[1e-4]])
    slack = convexity_slack_at(F, one, zero, zero, one, 0.5)
    assert slack < -0.5


def test_implication_lattice_on_shared_samples():
    # samples satisfying (d) cannot violate (b) or (c) beyond 2x tolerance
    tol = 1e-9
    for f in (XLX, SQ):
        for trial in range(60):
            rng = rng_for(15, "lattice", f.name, trial)
            sampler = pd_pair_sampler(2)
            pair1, pair2 = sampler(rng), sampler(rng)
            lam = float(rng.uniform(0.2, 0.8))
            slacks = {}
            for name in ("bregman_A", "map_B", "map_C"):
                F = BivariateFunctional(name, f, "trace")
                slacks[name] = convexity_slack_at(F, *pair1, *pair2, lam)
            if slacks["map_C"] >= -tol:
                assert slacks["bregman_A"] >= -2 * tol
                assert slacks["map_B"] >= -2 * tol


def test_condition_a_square_exact_zero():
    # constant derivative map: the quadratic form is affine in A
    rng = rng_for(16, "cond-a-sq")
    A1, A2, h = cond_a_sampler(3)(rng)
    assert abs(condition_a_slack(SQ, A1, A2, h, 0.3)) < 1e-12


def test_condition_a_xlogx_scalar_linear():
    # at d = 1 the inverted map is multiplication by a: linear, hence concave
    rng = rng_for(17, "cond-a-xlx")
    for _ in range(10):
        a1, a2 = rng.uniform(0.2, 3.0, size=2)
        h = float(rng.uniform(-1, 1))
        slack = condition_a_slack(XLX, np.array([[a1]]), np.array([[a2]]),
                                  np.array([[h]]), 0.5)
        assert abs(slack) < 1e-12


def test_condition_a_scalar_matches_oracle():
    rng = rng_for(18, "cond-a-oracle")
    for name, f in (("xlogx", XLX), ("power", P15), ("exp", EXP)):
        p = 1.5 if name == "power" else None
        a1, a2 = rng.uniform(0.5, 2.5, size=2)
        h = float(rng.uniform(-1, 1))
        lam = 0.4
        got = condition_a_slack(f, np.array([[a1]]), np.array([[a2]]), np.array([[h]]), lam)
        mix = lam * a1 + (1 - lam) * a2
        expected = (oracle.inverse_second_derivative_form(name, mix, h, p)
                    - lam * oracle.inverse_second_derivative_form(name, a1, h, p)
                    - (1 - lam) * oracle.inverse_second_derivative_form(name, a2, h, p))
        assert got == pytest.approx(expected, abs=1e-10)


def test_condition_a_in_class_sweep():
    for f in (XLX, P15):
        spec = f.spec_string()
        report = suite_reports(("condition_a",), spec, seed=19)[f"condition_a[{spec},d=2]"]
        assert report.holds, report


def test_condition_a_exp_violated_scalar():
    # 1 / psi'(a) = exp(-a) is convex, not concave: the slack is
    # exp(-mix) - (lam exp(-a1) + (1 - lam) exp(-a2)) < 0
    a1, a2, lam = 0.2, 2.5, 0.5
    slack = condition_a_slack(EXP, np.array([[a1]]), np.array([[a2]]), np.array([[1.0]]), lam)
    expected = np.exp(-(lam * a1 + (1 - lam) * a2)) - lam * np.exp(-a1) - (1 - lam) * np.exp(-a2)
    assert slack == pytest.approx(expected, abs=1e-12)
    assert slack < -0.1


def test_condition_e_square_both_sides_zero():
    A = sample_psd(2, 0.5, 21, spectral_cap=4.0)
    report = check("condition_e", phi=SQ, method="hybrid", A=A, h=sample_hermitian_unit(2, 22),
                   k=sample_hermitian_unit(2, 23))
    assert report.holds and abs(report.margin) < 1e-10


def test_condition_e_xlogx_boundary_case():
    # phi'''' phi'' - 2 phi'''^2 vanishes identically for xlogx
    A = np.array([[1.0]])
    report = check("condition_e", phi=XLX, method="hybrid", A=A, h=np.array([[0.8]]),
                   k=np.array([[1.2]]))
    assert report.holds
    assert abs(report.margin) < 1e-6
    assert condition_e_scalar_oracle(XLX, 1.0, 0.8, 1.2) == pytest.approx(0.0, abs=1e-14)


def test_condition_e_scalar_reduction_signs():
    rng = rng_for(24, "cond-e")
    for f, positive in ((P15, True), (QT, False), (EXP, False), (XLX, None), (SQ, None)):
        a = float(rng.uniform(0.6, 3.5))
        h, k = float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.2, 1.0))
        lhs, rhs = condition_e_terms(f, np.array([[a]]), np.array([[h]]), np.array([[k]]))
        expected = condition_e_scalar_oracle(f, a, h, k)
        # hybrid path at d = 1 agrees with the closed form up to its FD layer
        assert lhs - rhs == pytest.approx(expected, abs=1e-6 * (1.0 + abs(expected)))
        if positive is True:
            assert lhs - rhs > 1e-6
        elif positive is False:
            assert lhs - rhs < -1e-6
        else:
            assert abs(lhs - rhs) < 1e-6


def test_condition_e_in_class_matrix_sweep():
    for f in (SQ, XLX, P15):
        for d in (2, 3):
            for trial in range(10):
                rng = rng_for(25, "cond-e-sweep", f.spec_string(), d, trial)
                A = sample_psd(d, 0.5, rng, spectral_cap=4.0)
                h = sample_hermitian_unit(d, rng)
                k = sample_hermitian_unit(d, rng)
                assert condition_e_margin(f, A, h, k) >= -1e-4


def test_condition_e_spectrum_restriction():
    with pytest.raises(DomainError, match="restricted"):
        condition_e_margin(XLX, np.diag([0.2, 1.0]), np.eye(2), np.eye(2))


def test_integral_relations():
    # constant integrand for the square: exact reconstruction
    u = sample_psd(3, 0.2, 26)
    v = sample_psd(3, 0.2, 27)
    assert integral_relation_check(SQ, u, v).holds
    # zero direction: everything vanishes
    assert integral_relation_check(XLX, sample_psd(2, 0.5, 28), np.zeros((2, 2))).holds
    # smooth non-polynomial case against 32-point quadrature
    u = np.diag([1.0, 2.0])
    v = 0.1 * np.eye(2)
    report = integral_relation_check(XLX, u, v)
    assert report.holds, report


def test_taylor_relations():
    u = sample_psd(3, 0.3, 29)
    v = sample_psd(3, 0.0, 30)
    # polynomial identity: exact at every epsilon up to 1/eps^2 roundoff
    report = taylor_relation_check(SQ, u, v)
    assert report.holds and report.margin > -1e-7
    assert taylor_relation_check(SQ, u, np.zeros((3, 3))).holds
    report = taylor_relation_check(XLX, np.diag([1.0, 2.0]), 0.5 * np.eye(2) + 0.1 * np.ones((2, 2)))
    assert report.holds, report.witness


def test_convexity_lemma():
    # deterministic pair: equality
    A = sample_psd(3, 0.5, 31)
    X = sample_hermitian(3, 32)
    assert abs(convexity_lemma_margin(XLX, [1.0], [A], [X])) < 1e-12
    # square reduces to a scalar variance identity
    rng = rng_for(33, "lemma")
    for _ in range(10):
        w = rng.dirichlet(np.ones(3))
        As = [sample_psd(2, 0.5, rng) for _ in range(3)]
        Xs = [sample_hermitian(2, rng) for _ in range(3)]
        assert convexity_lemma_margin(SQ, w, As, Xs) >= -1e-10
        report = check("convexity_lemma", phi=XLX, weights=w, A=As, X=Xs)
        assert report.holds, report


def test_convexity_lemma_scalar_oracle():
    rng = rng_for(34, "lemma-scalar")
    w = rng.dirichlet(np.ones(4))
    a = rng.uniform(0.3, 2.0, size=4)
    x = rng.uniform(-1.0, 1.0, size=4)
    got = convexity_lemma_margin(XLX, w, [np.array([[v]]) for v in a],
                                 [np.array([[v]]) for v in x])
    assert got == pytest.approx(oracle.convexity_lemma_margin("xlogx", w, a, x), abs=1e-10)


def test_conditional_jensen_deterministic_factors():
    # X1 deterministic: equality of both sides
    w1, w2 = (1.0,), (0.3, 0.7)
    table = {(0, 0): np.diag([1.0, 2.0]), (0, 1): np.diag([2.0, 0.5])}
    P = ProductEnsemble((np.array(w1), np.array(w2)), table)
    assert np.abs(conditional_jensen_gap(XLX, P)).max() < 1e-12
    # X2 deterministic: both sides vanish
    table = {(0, 0): np.diag([1.0, 2.0]), (1, 0): np.diag([2.0, 0.5])}
    P = ProductEnsemble((np.array(w2), np.array(w1)), table)
    assert np.abs(conditional_jensen_gap(XLX, P)).max() < 1e-12


def test_conditional_jensen_sweeps():
    for trial in range(50):
        P = sample_product(2, 2, 2, seed=trial)
        assert check("conditional_jensen", phi=SQ, variant="operator", product=P).holds
        assert check("conditional_jensen", phi=XLX, variant="trace", product=P).holds


def test_conditional_jensen_scalar_oracle():
    rng = rng_for(35, "jensen-scalar")
    w1 = rng.dirichlet(np.ones(2))
    w2 = rng.dirichlet(np.ones(3))
    table = {(s1, s2): float(rng.uniform(0.2, 2.0)) for s1 in range(2) for s2 in range(3)}
    P = ProductEnsemble((w1, w2), {k: np.array([[v]]) for k, v in table.items()})
    got = conditional_jensen_gap(XLX, P)[0, 0].real
    assert got == pytest.approx(
        oracle.conditional_jensen_margin("xlogx", w1, w2, table), abs=1e-10)


def test_conditional_jensen_rejects_wrong_arity():
    P = sample_product(2, 3, 2, seed=1)
    with pytest.raises(DomainError, match="two factors"):
        conditional_jensen_gap(XLX, P)
