"""Convexity functionals, equivalence conditions, integral/Taylor relations.

The integral and Taylor relations between the functionals check the
derivative engine; their helpers return the residuals, and each test
bounds them.
"""

import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import scalar_oracle as oracle
from phi_entropy_lab import (
    BivariateFunctional,
    DomainError,
    builtin,
    check,
    derivative_inverse,
    eval_functional,
    frechet,
    frechet_d1,
    frechet_d2,
    frechet_d3,
    from_spec,
    haar_unitary,
    spectral_decompose,
)
from phi_entropy_lab.catalog import TAYLOR_BAND
from phi_entropy_lab.spectral import hermitian_part
from phi_entropy_lab.characterizations import (
    condition_a_slack,
    condition_e_margin,
    condition_e_terms,
    conditional_jensen_gap,
    convexity_slack_at,
)
from phi_entropy_lab.entropy import (
    MatrixEnsemble,
    ProductEnsemble,
    SPECTRAL_FLOOR,
    operator_phi_entropy,
)
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


def trace_value(F, u, v):
    """Tr of the functional's operator value at a pair."""
    return float(np.trace(eval_functional(F, u, v)).real)


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
        F = BivariateFunctional(name, AFF, t=t)
        assert abs(trace_value(F, u, v)) < 1e-10


def test_square_functional_closed_forms():
    u = sample_psd(3, 0.1, 3)
    v = sample_psd(3, 0.1, 4)
    tr_v2 = float(np.trace(v @ v).real)
    assert trace_value(BivariateFunctional("bregman_A", SQ), u, v) == \
        pytest.approx(tr_v2, rel=1e-10)
    assert_allclose(eval_functional(BivariateFunctional("bregman_A", SQ), u, v),
                    v @ v, atol=1e-10)
    assert trace_value(BivariateFunctional("map_B", SQ), u, v) == \
        pytest.approx(2 * tr_v2, rel=1e-10)
    assert trace_value(BivariateFunctional("map_C", SQ), u, v) == \
        pytest.approx(2 * tr_v2, rel=1e-10)


def test_gap_f_t_vanishes_at_endpoints():
    u = sample_psd(2, 0.5, 5)
    v = sample_psd(2, 0.5, 6)
    for t in (0.0, 1.0):
        F = BivariateFunctional("gap_F_t", XLX, t=t)
        assert abs(trace_value(F, u, v)) < 1e-10


def test_gap_f_t_nonnegative_between_endpoints():
    rng = rng_for(9, "gapft")
    for _ in range(20):
        u = sample_psd(3, 1e-3, rng)
        v = sample_psd(3, 1e-3, rng)
        t = float(rng.uniform())
        F_tr = BivariateFunctional("gap_F_t", XLX, t=t)
        assert trace_value(F_tr, u, v) >= -1e-10
        F_op = BivariateFunctional("gap_F_t", SQ, t=t)
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
            F = BivariateFunctional(name, XLX, t=t)
            assert trace_value(F, U, V) == pytest.approx(expected, abs=1e-11)


def test_map_c_trace_duality():
    for f in (SQ, XLX, P15):
        psi = f.derivative()
        u = sample_psd(3, 0.5, 7)
        v = sample_hermitian(3, 8)
        F = BivariateFunctional("map_C", f)
        lhs = trace_value(F, u, v)
        rhs = np.vdot(v, frechet_d1(psi, u, v)).real
        assert abs(lhs - rhs) < 1e-8 * (1.0 + abs(lhs))


def test_map_c_trace_jensen_gap_over_three_atoms():
    # The convexity lemma, E Tr map_C(A, X) >= Tr map_C(EA, EX), follows from
    # item (d) by induction.  For the square, Tr map_C(A, X) = 2 Tr X^2, so the
    # gap is 2 Tr Var X.
    rng = rng_for(33, "lemma")
    for _ in range(10):
        w = rng.dirichlet(np.ones(3))
        A = np.stack([sample_psd(2, 0.5, rng) for _ in range(3)])
        X = np.stack([sample_hermitian(2, rng) for _ in range(3)])
        u, v = (np.concatenate([M, np.einsum("m,mij->ij", w, M)[None]]) for M in (A, X))
        gaps = {}
        for f in (SQ, XLX):
            traces = np.trace(eval_functional(BivariateFunctional("map_C", f), u, v),
                              axis1=-2, axis2=-1).real
            gaps[f.name] = w @ traces[:-1] - traces[-1]
            assert gaps[f.name] >= -1e-10
        tr_squares = np.einsum("mij,mji->m", v, v).real
        assert gaps["square"] == pytest.approx(2 * (w @ tr_squares[:-1] - tr_squares[-1]),
                                               rel=1e-10)


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
    F = BivariateFunctional("map_C", QT)
    one, zero = np.array([[1.0]]), np.array([[1e-4]])
    slack = convexity_slack_at(F, one, zero, zero, one, 0.5, "trace")[0]
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
                F = BivariateFunctional(name, f)
                slacks[name] = convexity_slack_at(F, *pair1, *pair2, lam, "trace")[0]
            if slacks["map_C"] >= -tol:
                assert slacks["bregman_A"] >= -2 * tol
                assert slacks["map_B"] >= -2 * tol


def test_condition_a_square_exact_zero():
    # constant derivative map: the quadratic form is affine in A
    rng = rng_for(16, "cond-a-sq")
    A1, A2, h = cond_a_sampler(3)(rng)
    assert abs(condition_a_slack(SQ, A1, A2, h, 0.3)[0]) < 1e-12


def test_condition_a_xlogx_scalar_linear():
    # at d = 1 the inverted map is multiplication by a: linear, hence concave
    rng = rng_for(17, "cond-a-xlx")
    for _ in range(10):
        a1, a2 = rng.uniform(0.2, 3.0, size=2)
        h = float(rng.uniform(-1, 1))
        slack = condition_a_slack(XLX, np.array([[a1]]), np.array([[a2]]),
                                  np.array([[h]]), 0.5)[0]
        assert abs(slack) < 1e-12


def test_condition_a_scalar_matches_oracle():
    rng = rng_for(18, "cond-a-oracle")
    for name, f in (("xlogx", XLX), ("power", P15), ("exp", EXP)):
        p = 1.5 if name == "power" else None
        a1, a2 = rng.uniform(0.5, 2.5, size=2)
        h = float(rng.uniform(-1, 1))
        lam = 0.4
        got = condition_a_slack(f, np.array([[a1]]), np.array([[a2]]), np.array([[h]]), lam)[0]
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
    slack = condition_a_slack(EXP, np.array([[a1]]), np.array([[a2]]), np.array([[1.0]]),
                              lam)[0]
    expected = np.exp(-(lam * a1 + (1 - lam) * a2)) - lam * np.exp(-a1) - (1 - lam) * np.exp(-a2)
    assert slack == pytest.approx(expected, abs=1e-12)
    assert slack < -0.1


def test_condition_e_square_both_sides_zero():
    A = sample_psd(2, 0.5, 21, spectral_cap=4.0)
    report = check("condition_e", phi=SQ, A=A, h=sample_hermitian_unit(2, 22),
                   k=sample_hermitian_unit(2, 23))
    assert report.holds and abs(report.margin) < 1e-10


def test_condition_e_xlogx_boundary_case():
    # phi'''' phi'' - 2 phi'''^2 vanishes identically for xlogx
    A = np.array([[1.0]])
    report = check("condition_e", phi=XLX, A=A, h=np.array([[0.8]]), k=np.array([[1.2]]))
    assert report.holds
    assert abs(report.margin) < 1e-14
    assert oracle.condition_e(XLX.name, 1.0, 0.8, 1.2) == pytest.approx(0.0, abs=1e-14)


def test_condition_e_xlogx_equality_case_is_roundoff_at_d1():
    # The exact third derivative leaves only roundoff on the equality case,
    # at every drawn point, not just at A = 1.
    rng = rng_for(26, "cond-e-equality")
    for _ in range(50):
        a = float(rng.uniform(0.5, 4.0))
        h, k = (float(rng.uniform(-1.0, 1.0)) for _ in range(2))
        margin = condition_e_margin(XLX, np.array([[a]]), np.array([[h]]), np.array([[k]]))
        assert abs(margin) < 1e-14


def test_condition_e_scalar_reduction_signs():
    rng = rng_for(24, "cond-e")
    for f, positive in ((P15, True), (QT, False), (EXP, False), (XLX, None), (SQ, None)):
        a = float(rng.uniform(0.6, 3.5))
        h, k = float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.2, 1.0))
        lhs, rhs = condition_e_terms(f, np.array([[a]]), np.array([[h]]), np.array([[k]]))
        expected = oracle.condition_e(f.name, a, h, k, *f.params)
        # the exact path at d = 1 agrees with the closed form to roundoff
        assert lhs - rhs == pytest.approx(expected, abs=1e-12 * (1.0 + abs(expected)))
        if positive is True:
            assert lhs - rhs > 1e-6
        elif positive is False:
            assert lhs - rhs < -1e-6
        else:
            assert abs(lhs - rhs) < 1e-12


def test_condition_e_in_class_matrix_sweep():
    for f in (SQ, XLX, P15):
        for d in (2, 3):
            for trial in range(10):
                rng = rng_for(25, "cond-e-sweep", f.spec_string(), d, trial)
                A = sample_psd(d, 0.5, rng, spectral_cap=4.0)
                h = sample_hermitian_unit(d, rng)
                k = sample_hermitian_unit(d, rng)
                assert condition_e_margin(f, A, h, k) >= -1e-9


def _condition_e_by_composition(f, A, h, k) -> tuple:
    """condition_e_terms as the public derivative maps compose it: the
    reference its shared eigenbasis work must match bit for bit."""
    dec = spectral_decompose(A)
    psi = f.derivative()
    T_inv = derivative_inverse(psi, dec)
    u = T_inv(h)
    lhs = np.trace(h @ T_inv(frechet_d3(psi, dec, k, k, u)), axis1=-2, axis2=-1).real
    inner = T_inv(frechet_d2(psi, dec, k, u))
    rhs = 2.0 * np.trace(h @ T_inv(frechet_d2(psi, dec, k, inner)), axis1=-2, axis2=-1).real
    return lhs, rhs


def _condition_e_stack(d: int) -> np.ndarray:
    """Drawn base points, a*I, and, from d = 2, spectra with a gap of 0.99 and
    1.01 times the order-2 and order-3 Taylor bands, in a Haar basis."""
    rows = [np.full(d, 2.0)]
    if d > 1:
        rows += [np.r_[2.0, 2.0 + factor * 2.0 * TAYLOR_BAND[order], np.linspace(3.0, 3.8, d - 2)]
                 for order in (2, 3) for factor in (0.99, 1.01)]
    U = haar_unitary(d, 27, count=len(rows))
    built = hermitian_part((U * np.array(rows)[:, None, :]) @ U.conj().swapaxes(-1, -2))
    rngs = [rng_for(27, "cond-e-stack", d, trial) for trial in range(3)]
    return np.concatenate([sample_psd(d, 0.5, rngs, spectral_cap=4.0), built])


@pytest.mark.parametrize("spec", ["square", "xlogx", "exp", "power:3"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_condition_e_terms_are_the_composition_of_the_derivative_maps(spec, d):
    # condition_e_terms builds the decomposition, the dd2 grid and k in A's
    # eigenbasis once; each side is byte for byte what the composition gives.
    f = from_spec(spec, allow_outside_class=True)
    A = _condition_e_stack(d)
    rngs = [rng_for(28, "cond-e-directions", d, n) for n in range(len(A))]
    h, k = sample_hermitian_unit(d, rngs), sample_hermitian_unit(d, rngs)
    terms, reference = condition_e_terms(f, A, h, k), _condition_e_by_composition(f, A, h, k)
    assert [side.tobytes() for side in terms] == [side.tobytes() for side in reference]


def test_condition_e_spectrum_restriction():
    with pytest.raises(DomainError, match="restricted"):
        condition_e_margin(XLX, np.diag([0.2, 1.0]), np.eye(2), np.eye(2))


def test_conditions_a_and_e_bypass_the_dense_superoperator(monkeypatch):
    # The d^2 x d^2 matricisation is the test oracle; the inverse derivative
    # map of conditions (a) and (e) must not go through it.
    dense = (frechet.superop_matrix, frechet.superop_inverse)

    def refuse(*args, **kwargs):
        raise AssertionError("dense superoperator path called")

    for name, module in list(sys.modules.items()):
        if name.startswith("phi_entropy_lab"):
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in dense):
                    monkeypatch.setattr(module, attr, refuse)

    rng = rng_for(30, "dense-guard")
    A1, A2, h = cond_a_sampler(16)(rng)
    assert np.isfinite(condition_a_slack(XLX, A1, A2, h, 0.4)[0])
    A = sample_psd(4, 0.5, rng, spectral_cap=4.0)
    k = sample_hermitian_unit(4, rng)
    assert np.isfinite(condition_e_margin(XLX, A, sample_hermitian_unit(4, rng), k))
    report = run_suite(RunConfig(trials=2, checks=("condition_a", "condition_e")))
    assert report.entries and report.exit_code() == 0


def _functionals_abc(f):
    return (BivariateFunctional("bregman_A", f), BivariateFunctional("map_B", f),
            BivariateFunctional("map_C", f))


def _integral_relation_error(f, u, v, quadrature_points: int = 32) -> float:
    """Relative error of the Gauss-Legendre reconstructions
    bregman_A(u,v) = int_0^1 (1-s) map_C(u+sv, v) ds and
    map_B(u,v)     = int_0^1       map_C(u+sv, v) ds."""
    F_A, F_B, F_C = _functionals_abc(f)
    x, w = np.polynomial.legendre.leggauss(quadrature_points)
    s_nodes, s_weights = 0.5 * (x + 1.0), 0.5 * w
    c_vals = np.array([trace_value(F_C, u + s * v, v) for s in s_nodes])
    quad_A = float(np.sum(s_weights * (1.0 - s_nodes) * c_vals))
    quad_B = float(np.sum(s_weights * c_vals))
    direct_A, direct_B = trace_value(F_A, u, v), trace_value(F_B, u, v)
    scale = max(1.0, abs(direct_A), abs(direct_B))
    return max(abs(quad_A - direct_A), abs(quad_B - direct_B)) / scale


# Residuals below this are cancellation roundoff amplified by 1/eps^2
# (polynomial case); a convergence-order fit on them is meaningless.
TAYLOR_EXACT_FLOOR = 1e-7


def _taylor_relation(f, u, v, eps_sequence=(1e-1, 3e-2, 1e-2, 3e-3, 1e-3)) -> tuple:
    """Small-direction expansion bregman_A(u, eps v)/eps^2 -> map_C(u, v)/2 and
    map_B(u, eps v)/eps^2 -> map_C(u, v).

    Returns the worst relative residual at the smallest eps, and the fitted
    log-log slope of each functional's residuals (None when they all stay
    below TAYLOR_EXACT_FLOOR).
    """
    F_A, F_B, F_C = _functionals_abc(f)
    eps_sequence = sorted((float(e) for e in eps_sequence), reverse=True)
    c_full = trace_value(F_C, u, v)
    scale = max(1.0, abs(c_full))
    res = {"A": [abs(trace_value(F_A, u, eps * v) / eps**2 - 0.5 * c_full) / scale
                 for eps in eps_sequence],
           "B": [abs(trace_value(F_B, u, eps * v) / eps**2 - c_full) / scale
                 for eps in eps_sequence]}
    slopes = {name: None if max(r) <= TAYLOR_EXACT_FLOOR else float(
        np.polyfit(np.log(eps_sequence), np.log(np.maximum(r, 1e-300)), 1)[0])
        for name, r in res.items()}
    return max(res["A"][-1], res["B"][-1]), slopes


def _taylor_relation_holds(residual, slopes) -> bool:
    """Residual within 1e-2 and every fitted slope at least linear (>= 0.9)."""
    return residual <= 1e-2 and all(s is None or s >= 0.9 for s in slopes.values())


def test_integral_relations():
    # constant integrand for the square: exact reconstruction
    u = sample_psd(3, 0.2, 26)
    v = sample_psd(3, 0.2, 27)
    assert _integral_relation_error(SQ, u, v) <= 1e-6
    # zero direction: everything vanishes
    assert _integral_relation_error(XLX, sample_psd(2, 0.5, 28), np.zeros((2, 2))) <= 1e-6
    # smooth non-polynomial case against 32-point quadrature
    u = np.diag([1.0, 2.0])
    v = 0.1 * np.eye(2)
    error = _integral_relation_error(XLX, u, v)
    assert error <= 1e-6, error


def test_taylor_relations():
    u = sample_psd(3, 0.3, 29)
    v = sample_psd(3, 0.0, 30)
    # polynomial identity: exact at every epsilon up to 1/eps^2 roundoff
    residual, slopes = _taylor_relation(SQ, u, v)
    assert _taylor_relation_holds(residual, slopes) and residual < 1e-7
    assert _taylor_relation_holds(*_taylor_relation(SQ, u, np.zeros((3, 3))))
    relation = _taylor_relation(XLX, np.diag([1.0, 2.0]),
                                0.5 * np.eye(2) + 0.1 * np.ones((2, 2)))
    assert _taylor_relation_holds(*relation), relation


def test_conditional_jensen_deterministic_factors():
    # X1 deterministic: equality of both sides
    w1, w2 = (1.0,), (0.3, 0.7)
    table = np.stack([np.diag([1.0, 2.0]), np.diag([2.0, 0.5])])  # outcomes (0, 0), (0, 1)
    P = ProductEnsemble((np.array(w1), np.array(w2)), table)
    assert np.abs(conditional_jensen_gap(XLX, P.column)[0]).max() < 1e-12
    # X2 deterministic: both sides vanish
    # The same atoms as outcomes (0, 0), (1, 0).
    P = ProductEnsemble((np.array(w2), np.array(w1)), table)
    assert np.abs(conditional_jensen_gap(XLX, P.column)[0]).max() < 1e-12


def test_conditional_jensen_sweeps():
    for trial in range(50):
        P = sample_product(2, 2, 2, seed=trial)
        assert check("subadditivity", phi=SQ, variant="operator", product=P).holds
        assert check("subadditivity", phi=XLX, variant="trace", product=P).holds


def test_conditional_jensen_scalar_oracle():
    rng = rng_for(35, "jensen-scalar")
    w1 = rng.dirichlet(np.ones(2))
    w2 = rng.dirichlet(np.ones(3))
    table = {(s1, s2): float(rng.uniform(0.2, 2.0)) for s1 in range(2) for s2 in range(3)}
    P = ProductEnsemble((w1, w2), np.array([[[table[k]]] for k in sorted(table)]))
    got = conditional_jensen_gap(XLX, P.column)[0][0, 0].real
    assert got == pytest.approx(
        oracle.conditional_jensen_margin("xlogx", w1, w2, table), abs=1e-10)


@pytest.mark.parametrize("name", ["square", "xlogx", "power:1.5"])
@pytest.mark.parametrize("supports", [(2, 2), (3, 2), (2, 4)])
@pytest.mark.parametrize("d", [2, 3])
def test_conditional_jensen_gap_is_the_gap_of_per_slice_entropies(d, supports, name):
    # E_1 H(Z | X_1) - H(E_1 Z) from one entropy per outcome of X_1, against
    # the gap and against the margins of both forms of the record.
    f = from_spec(name)
    for trial in range(3):
        P = sample_product(d, 2, supports, seed=36 + trial)
        w1, w2 = P.factor_weights
        Z = P.atoms.reshape(supports + (d, d))
        conditional = sum(a * operator_phi_entropy(f, MatrixEnsemble(w2, Z[s1]).column)[0]
                          for s1, a in enumerate(w1))
        averaged = MatrixEnsemble(w2, np.einsum("s,stij->tij", w1, Z))
        want = conditional - operator_phi_entropy(f, averaged.column)[0]
        scale = max(1.0, np.abs(want).max())
        assert np.abs(conditional_jensen_gap(f, P.column)[0] - want).max() <= 1e-12 * scale
        margins = {"trace": np.trace(want).real / d, "operator": np.linalg.eigvalsh(want)[0]}
        for variant, margin in margins.items():
            got = check("subadditivity", phi=f, variant=variant, product=P,
                        override=True).margin
            assert abs(got - margin) <= 1e-12 * max(1.0, abs(margin)), (variant, trial)


def test_conditional_jensen_rejects_wrong_arity():
    P = sample_product(2, 3, 2, seed=1)
    with pytest.raises(DomainError, match="two factors"):
        conditional_jensen_gap(XLX, P.column)
