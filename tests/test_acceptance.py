"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Tolerances are pinned here, directly from the contract, and the
sweeps use the stated trial counts.
"""

import json
import math
import os
import time

import numpy as np
import pytest

import scalar_oracle as oracle
from phi_entropy_lab import (
    KrausChannel,
    MatrixEnsemble,
    ProductEnsemble,
    RunConfig,
    builtin,
    check,
    counterexample_search,
    finite_diff_oracle,
    frechet_d1,
    frechet_d2,
    frechet_d3,
    hs_inner,
    run_suite,
)
from phi_entropy_lab.channels import monotonicity_gap, random_unital_channel
from phi_entropy_lab.characterizations import (
    BivariateFunctional,
    condition_a_slack,
    condition_e_scalar_oracle,
    condition_e_terms,
    conditional_jensen_gap,
    convexity_lemma_margin,
    convexity_slack_at,
)
from phi_entropy_lab.entropy import (
    SPECTRAL_FLOOR,
    dual_value,
    efron_stein_quantity,
    matrix_phi_entropy,
    operator_phi_entropy,
    subadditivity_gap,
    variance,
)
from phi_entropy_lab.sampling import (
    haar_unitary,
    rng_for,
    sample_coupled_ensembles,
    sample_ensemble,
    sample_hermitian_unit,
    sample_product,
    sample_psd,
)
from phi_entropy_lab.spectral import frobenius, hermitian_part, normalized_trace, relative_error, schatten_norm

SEED = 20250811

SQ = builtin("square")
XLX = builtin("xlogx")
P15 = builtin("power", 1.5)
QT = builtin("quartic")
EXP = builtin("exp")

IN_CLASS_COMBOS = ((SQ, "trace"), (XLX, "trace"), (SQ, "operator"))


def _verdict(criterion, ok, detail):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def _min_eig(M):
    return float(np.linalg.eigvalsh(hermitian_part(M))[0])


def test_criterion_1_frechet_oracle_agreement():
    # 500 pairs per function, spectra in [0.5, 4], orders 1..3 at their tolerances
    tols = {1: 1e-6, 2: 1e-4, 3: 1e-3}
    dims = (2, 3, 4, 6, 8)
    start = time.perf_counter()
    worst = {order: 0.0 for order in tols}
    for f in (SQ, XLX, P15):
        for trial in range(500):
            rng = rng_for(SEED, "c1", f.spec_string(), trial)
            d = dims[trial % len(dims)]
            A = sample_psd(d, 0.5, rng, spectral_cap=4.0)
            X = sample_hermitian_unit(d, rng)
            exact = {
                1: frechet_d1(f, A, X),
                2: frechet_d2(f, A, X, X),
                3: frechet_d3(f, A, X, X, X),
            }
            for order, tol in tols.items():
                err = relative_error(exact[order], finite_diff_oracle(f, A, X, order))
                worst[order] = max(worst[order], err)
                assert err <= tol, (f.spec_string(), order, trial, err)
    elapsed = time.perf_counter() - start
    ok = all(worst[k] <= tols[k] for k in tols) and elapsed < 30.0
    _verdict(1, ok, f"worst errors {[f'{worst[k]:.2e}' for k in (1, 2, 3)]}, "
                    f"{elapsed:.1f}s (< 30s)")


def test_criterion_2_exact_identities():
    worst_sq = 0.0
    worst_dual = 0.0
    for trial in range(500):
        rng = rng_for(SEED, "c2", trial)
        d = 2 + trial % 3
        A = sample_psd(d, 0.5, rng, spectral_cap=4.0)
        X = sample_hermitian_unit(d, rng)
        Y = sample_hermitian_unit(d, rng)
        # second derivative of the square is twice the squared direction
        worst_sq = max(worst_sq, float(np.abs(frechet_d2(SQ, A, X, X) - 2.0 * X @ X).max()))
        # trace duality against the derivative view
        f = (SQ, XLX, P15)[trial % 3]
        lhs = float(np.trace(frechet_d2(f, A, X, Y)).real)
        rhs = hs_inner(X, frechet_d1(f.derivative(), A, Y)).real
        worst_dual = max(worst_dual, abs(lhs - rhs) / (1.0 + abs(lhs)))
    ok = worst_sq <= 1e-12 and worst_dual <= 1e-8
    _verdict(2, ok, f"square identity {worst_sq:.2e} (<= 1e-12), "
                    f"trace duality {worst_dual:.2e} (<= 1e-8)")


def test_criterion_3_subadditivity():
    start = time.perf_counter()
    worst_scaled = np.inf
    worst_n1 = 0.0
    for f, variant in IN_CLASS_COMBOS:
        for d in (2, 3, 4):
            for n in (1, 2, 3):
                for trial in range(1000):
                    rng = rng_for(SEED, "c3", f.spec_string(), variant, d, n, trial)
                    P = sample_product(d, n, 2, rng)
                    gap = subadditivity_gap(f, P, variant)
                    margin = normalized_trace(gap) if variant == "trace" else _min_eig(gap)
                    scale = 1.0 + frobenius(gap)
                    worst_scaled = min(worst_scaled, margin / scale)
                    if n == 1:
                        worst_n1 = max(worst_n1, abs(margin))
                    assert margin >= -1e-10 * scale, (f.spec_string(), variant, d, n, trial)
                    if n == 1:
                        assert abs(margin) <= 1e-12
    elapsed = time.perf_counter() - start
    ok = worst_scaled >= -1e-10 and worst_n1 <= 1e-12 and elapsed < 120.0
    _verdict(3, ok, f"27000 ensembles, worst scaled margin {worst_scaled:.2e}, "
                    f"worst n=1 |margin| {worst_n1:.2e}, {elapsed:.1f}s (< 2min)")


def test_criterion_4_operator_efron_stein():
    worst_scaled = np.inf
    worst_n1 = 0.0
    worst_poly = np.inf
    for trial in range(1000):
        rng = rng_for(SEED, "c4", trial)
        d = (2, 3, 4)[trial % 3]
        n = (1, 2, 3)[(trial // 3) % 3]
        P = sample_product(d, n, 2, rng)
        es = efron_stein_quantity(P)
        var = variance(P.flatten())
        margin = _min_eig(es - var)
        scale = 1.0 + frobenius(es) + frobenius(var)
        worst_scaled = min(worst_scaled, margin / scale)
        assert margin >= -1e-10 * scale, trial
        if n == 1:
            worst_n1 = max(worst_n1, float(np.abs(es - var).max()))
            assert worst_n1 <= 1e-12
        for p in (1, 2, 3):
            poly = schatten_norm(es, p) ** p - schatten_norm(var, p) ** p
            worst_poly = min(worst_poly, poly / scale)
            assert poly >= -1e-10 * scale, (trial, p)
    ok = worst_scaled >= -1e-10 and worst_n1 <= 1e-12 and worst_poly >= -1e-10
    _verdict(4, ok, f"1000 ensembles, worst scaled margin {worst_scaled:.2e}, "
                    f"n=1 equality {worst_n1:.2e} (<= 1e-12), "
                    f"polynomial margin {worst_poly:.2e}")


def test_criterion_5_dual_representation():
    worst = np.inf
    worst_coincident = 0.0
    combos = ((SQ, "operator"), (SQ, "trace"), (XLX, "trace"))
    for f, variant in combos:
        for trial in range(500):
            rng = rng_for(SEED, "c5", f.spec_string(), variant, trial)
            d = (2, 3, 4)[trial % 3]
            Z, T = sample_coupled_ensembles(d, 3, rng, spectral_floor=SPECTRAL_FLOOR)
            gap = operator_phi_entropy(f, Z) - dual_value(f, Z, T)
            margin = normalized_trace(gap) if variant == "trace" else _min_eig(gap)
            worst = min(worst, margin)
            assert margin >= -1e-9, (f.spec_string(), variant, trial)
            if trial % 10 == 0:
                gap_zz = operator_phi_entropy(f, Z) - dual_value(f, Z, Z)
                mz = normalized_trace(gap_zz) if variant == "trace" else _min_eig(gap_zz)
                worst_coincident = max(worst_coincident, abs(mz))
                assert abs(mz) <= 1e-12
    # interpolation scans: nonincreasing in the PSD order on an 11-point grid
    grid = np.linspace(0.0, 1.0, 11)
    worst_scan = np.inf
    for trial in range(50):
        rng = rng_for(SEED, "c5-scan", trial)
        Z, T = sample_coupled_ensembles(3, 3, rng, spectral_floor=SPECTRAL_FLOOR)
        values = []
        for s in grid:
            T_s = MatrixEnsemble(Z.weights, (1.0 - s) * Z.atoms + s * T.atoms)
            values.append(dual_value(SQ, Z, T_s))
        for prev, nxt in zip(values, values[1:]):
            step = _min_eig(prev - nxt)
            worst_scan = min(worst_scan, step)
            assert step >= -1e-9, trial
    ok = worst >= -1e-9 and worst_coincident <= 1e-12 and worst_scan >= -1e-9
    _verdict(5, ok, f"worst margin {worst:.2e} (>= -1e-9), coincident gap "
                    f"{worst_coincident:.2e} (<= 1e-12), scan step {worst_scan:.2e}")


def test_criterion_6_characterization_cooccurrence():
    tol = 1e-9
    items = ("b", "c", "d", "f")
    functional_of = {"b": "bregman_A", "c": "map_B", "d": "map_C", "f": "gap_F_t"}
    worst = {}
    for f, variant in IN_CLASS_COMBOS:
        for trial in range(1000):
            rng = rng_for(SEED, "c6", f.spec_string(), variant, trial)
            d = (2, 3)[trial % 2]
            u1, v1 = sample_psd(d, SPECTRAL_FLOOR, rng), sample_psd(d, SPECTRAL_FLOOR, rng)
            u2, v2 = sample_psd(d, SPECTRAL_FLOOR, rng), sample_psd(d, SPECTRAL_FLOOR, rng)
            lam = float(rng.uniform(0.1, 0.9))
            t = float(rng.uniform())
            slacks = {}
            for item in items:
                F = BivariateFunctional(functional_of[item], f, variant,
                                        t=t if item == "f" else None)
                slack = convexity_slack_at(F, u1, v1, u2, v2, lam)
                scale = 1.0 + abs(slack) if variant == "trace" else 1.0 + abs(slack)
                slacks[item] = slack
                key = (f.spec_string(), variant, item)
                worst[key] = min(worst.get(key, np.inf), slack)
                assert slack >= -tol * scale, (key, trial)
            # the quadratic form dominating implies the other two on shared samples
            if slacks["d"] >= -tol:
                assert slacks["b"] >= -2 * tol and slacks["c"] >= -2 * tol
            # item (g): conditional Jensen on a fresh two-factor product
            P = sample_product(d, 2, 2, rng)
            gap = conditional_jensen_gap(f, P)
            margin = normalized_trace(gap) if variant == "trace" else _min_eig(gap)
            key = (f.spec_string(), variant, "g")
            worst[key] = min(worst.get(key, np.inf), margin)
            assert margin >= -1e-10 * (1.0 + frobenius(gap)), (key, trial)
    fail_d = counterexample_search(QT, "map_C", 10_000, seed=SEED, dim=1)
    assert not fail_d.holds and fail_d.margin < -1e-8
    fail_a = counterexample_search(EXP, "condition_a", 10_000, seed=SEED, dim=1)
    assert not fail_a.holds and fail_a.margin < -1e-8
    # fourth-derivative condition: in-class margins at d in {1, 2, 3}
    worst_e = np.inf
    for f in (SQ, XLX, P15):
        for d in (1, 2, 3):
            for trial in range(100):
                rng = rng_for(SEED, "c6-e", f.spec_string(), d, trial)
                A = sample_psd(d, 0.5, rng, spectral_cap=4.0)
                h = sample_hermitian_unit(d, rng)
                k = sample_hermitian_unit(d, rng)
                lhs, rhs = condition_e_terms(f, A, h, k)
                margin = (lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
                worst_e = min(worst_e, margin)
                assert margin >= -1e-4, (f.spec_string(), d, trial)
    # d = 1 sign agreement with the closed-form fourth-derivative criterion
    for f in (SQ, XLX, P15, QT, EXP):
        for trial in range(50):
            rng = rng_for(SEED, "c6-sign", f.spec_string(), trial)
            a = float(rng.uniform(0.6, 3.5))
            h, k = float(rng.uniform(0.2, 1.2)), float(rng.uniform(0.2, 1.2))
            lhs, rhs = condition_e_terms(f, np.array([[a]]), np.array([[h]]), np.array([[k]]))
            expected = condition_e_scalar_oracle(f, a, h, k)
            got = lhs - rhs
            noise = 1e-6 * (1.0 + abs(expected))
            if abs(expected) <= noise:
                assert abs(got) <= noise
            else:
                assert math.copysign(1.0, got) == math.copysign(1.0, expected)
    ok = (all(v >= -2 * tol for v in worst.values()) and not fail_d.holds
          and not fail_a.holds and worst_e >= -1e-4)
    _verdict(6, ok, f"items b,c,d,f,g pass on shared samples "
                    f"(worst {min(worst.values()):.2e}); quartic item-d falsified in "
                    f"{fail_d.trials} trials; exp condition-a falsified in "
                    f"{fail_a.trials} trials; condition-e worst {worst_e:.2e} (>= -1e-4)")


def test_criterion_7a_monotonicity_trace():
    worst = np.inf
    worst_unitary = 0.0
    for f in (SQ, XLX):
        for trial in range(1000):
            rng = rng_for(SEED, "c7", f.spec_string(), trial)
            d = (2, 3, 4)[trial % 3]
            N = random_unital_channel(d, int(rng.integers(1, 5)), rng)
            E = sample_ensemble(d, 3, rng)
            margin = monotonicity_gap(f, N, E, "trace")
            worst = min(worst, margin)
            assert margin >= -1e-10, (f.spec_string(), trial)
            if trial % 10 == 0:
                U = haar_unitary(d, rng)
                NU = KrausChannel(U[None, :, :], trace_preserving=True)
                mu = monotonicity_gap(f, NU, E, "trace")
                worst_unitary = max(worst_unitary, abs(mu))
                assert abs(mu) <= 1e-10
    ok = worst >= -1e-10 and worst_unitary <= 1e-10
    _verdict("7a", ok, f"trace monotonicity over 2000 channel/ensemble draws, worst "
                       f"margin {worst:.2e}; unitary |margin| {worst_unitary:.2e}")


def test_criterion_7b_monotonicity_operator():
    # The operator-valued entropy H(Z) = E Phi(Z) - Phi(E Z) is covariant,
    # H(UZU*) = U H(Z) U*, so monotonicity in the PSD order compares both
    # sides after the channel: N(H(Z)) >= H(N(Z)).  For the square,
    # H(Z) = Var Z and Kadison-Schwarz for the unital CP map N
    # (N(X)^2 <= N(X^2) for Hermitian X) gives
    #     Var N(Z) = E[N(Z - EZ)^2] <= E N((Z - EZ)^2) = N(Var Z),
    # with equality for a unitary N.  The margin min_eig(N(H(Z)) - H(N(Z)))
    # must stay >= -1e-10 and vanish for unitary channels.  The same draws
    # must separate C3 from functions outside it: xlogx (operator convex,
    # not C3) and the quartic each fail the operator form on some draw.
    worst = np.inf
    worst_unitary = 0.0
    violations = 0
    outside = {XLX: 0, QT: 0}
    worst_outside = {XLX: np.inf, QT: np.inf}
    for trial in range(1000):
        rng = rng_for(SEED, "c7b", trial)
        d = (2, 3, 4)[trial % 3]
        N = random_unital_channel(d, int(rng.integers(1, 5)), rng)
        E = sample_ensemble(d, 3, rng)
        margin = monotonicity_gap(SQ, N, E, "operator")
        worst = min(worst, margin)
        if margin < -1e-10:
            violations += 1
        report = check("monotonicity", override=True, phi=XLX, variant="operator", channel=N,
                       ensemble=E)
        m_qt = monotonicity_gap(QT, N, E, "operator")
        outside[XLX] += not report.holds and report.margin < -1e-8
        outside[QT] += m_qt < -1e-8
        worst_outside[XLX] = min(worst_outside[XLX], report.margin)
        worst_outside[QT] = min(worst_outside[QT], m_qt)
        if trial % 10 == 0:
            U = haar_unitary(d, rng)
            NU = KrausChannel(U[None, :, :], trace_preserving=True)
            worst_unitary = max(worst_unitary, abs(monotonicity_gap(SQ, NU, E, "operator")))
    ok = (worst >= -1e-10 and worst_unitary <= 1e-10
          and outside[XLX] > 0 and outside[QT] > 0)
    _verdict("7b", ok, f"operator monotonicity N(H(Z)) >= H(N(Z)): worst margin "
                       f"{worst:.2e}, {violations}/1000 draws below -1e-10, unitary "
                       f"|margin| {worst_unitary:.2e}; outside C3 below -1e-8: xlogx "
                       f"{outside[XLX]}/1000 (worst {worst_outside[XLX]:.2e}), quartic "
                       f"{outside[QT]}/1000 (worst {worst_outside[QT]:.2e})")


def test_criterion_8_classical_reduction():
    tol = 1e-10
    worst = 0.0

    def track(got, expected):
        nonlocal worst
        worst = max(worst, abs(got - expected))
        assert abs(got - expected) <= tol

    for trial in range(100):
        rng = rng_for(SEED, "c8", trial)
        name, f = (("square", SQ), ("xlogx", XLX), ("power", P15))[trial % 3]
        p = 1.5 if name == "power" else None
        w = rng.dirichlet(np.ones(3))
        z = rng.uniform(0.2, 2.5, size=3)
        E = MatrixEnsemble(w, z.reshape(-1, 1, 1).astype(complex))
        track(matrix_phi_entropy(f, E), oracle.entropy(name, w, z, p))
        track(variance(E)[0, 0].real, oracle.variance(w, z))

        # two-factor product: subadditivity, resampling bound, conditional Jensen
        w1 = rng.dirichlet(np.ones(2))
        w2 = rng.dirichlet(np.ones(2))
        table = {(s1, s2): float(rng.uniform(0.2, 2.5)) for s1 in range(2) for s2 in range(2)}
        P = ProductEnsemble((w1, w2), {k: np.array([[v]]) for k, v in table.items()})
        track(subadditivity_gap(f, P, "trace")[0, 0].real,
              oracle.subadditivity_margin(name, [w1, w2], table, p))
        track(efron_stein_quantity(P)[0, 0].real, oracle.efron_stein([w1, w2], table))
        track(conditional_jensen_gap(f, P)[0, 0].real,
              oracle.conditional_jensen_margin(name, w1, w2, table, p))

        # bivariate functionals at scalar arguments
        u, v = float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.1, 1.2))
        U, V = np.array([[u]]), np.array([[v]])
        lam_t = float(rng.uniform(0.1, 0.9))
        track(convexity_slack_at(BivariateFunctional("bregman_A", f, "trace"), U, V,
                                 np.array([[u + 0.3]]), np.array([[v + 0.2]]), lam_t),
              lam_t * oracle.bregman(name, u, v, p)
              + (1 - lam_t) * oracle.bregman(name, u + 0.3, v + 0.2, p)
              - oracle.bregman(name, lam_t * u + (1 - lam_t) * (u + 0.3),
                               lam_t * v + (1 - lam_t) * (v + 0.2), p))
        from phi_entropy_lab import eval_functional
        track(eval_functional(BivariateFunctional("map_B", f, "trace"), U, V),
              oracle.increment(name, u, v, p))
        track(eval_functional(BivariateFunctional("map_C", f, "trace"), U, V),
              oracle.quadratic_form(name, u, v, p))
        track(eval_functional(BivariateFunctional("gap_F_t", f, "trace", t=lam_t), U, V),
              oracle.interpolation_gap(name, lam_t, u, v, p))

        # concavity slack of the inverted derivative map
        a1, a2 = rng.uniform(0.4, 2.5, size=2)
        h = float(rng.uniform(-1.0, 1.0))
        mix = lam_t * a1 + (1 - lam_t) * a2
        track(condition_a_slack(f, np.array([[a1]]), np.array([[a2]]),
                                np.array([[h]]), lam_t),
              oracle.inverse_second_derivative_form(name, mix, h, p)
              - lam_t * oracle.inverse_second_derivative_form(name, a1, h, p)
              - (1 - lam_t) * oracle.inverse_second_derivative_form(name, a2, h, p))

        # dual lower-bound margin
        t_vals = rng.uniform(0.2, 2.5, size=3)
        T = MatrixEnsemble(w, t_vals.reshape(-1, 1, 1).astype(complex))
        gap = operator_phi_entropy(f, E) - dual_value(f, E, T)
        track(gap[0, 0].real, oracle.dual_margin(name, w, z, t_vals, p))

        # derivative-map Jensen bound
        a_vals = rng.uniform(0.3, 2.0, size=3)
        x_vals = rng.uniform(-1.0, 1.0, size=3)
        track(convexity_lemma_margin(f, w, [np.array([[a]]) for a in a_vals],
                                     [np.array([[x]]) for x in x_vals]),
              oracle.convexity_lemma_margin(name, w, a_vals, x_vals, p))

        # unital channels at d = 1 collapse to the identity
        N = random_unital_channel(1, 2, rng)
        track(monotonicity_gap(f, N, E, "trace"), 0.0)
    _verdict(8, True, f"d=1 checks match the scalar oracle, worst diff {worst:.2e} "
                      f"(<= 1e-10)")


def test_criterion_9_reproducibility():
    cfg = RunConfig(seed=SEED, dims=(2, 3), trials=5, phi_list=("square", "xlogx"),
                    variant="trace")

    def run_with_threads(n):
        old = os.environ.get("PHI_LAB_THREADS")
        os.environ["PHI_LAB_THREADS"] = str(n)
        try:
            payload = run_suite(cfg).to_json_dict()
        finally:
            if old is None:
                os.environ.pop("PHI_LAB_THREADS", None)
            else:
                os.environ["PHI_LAB_THREADS"] = old
        for entry in payload["reports"]:
            entry.pop("seconds")
        return json.dumps(payload, sort_keys=True).encode()

    serial = run_with_threads(1)
    parallel = run_with_threads(4)
    serial_again = run_with_threads(1)
    ok = serial == parallel == serial_again
    _verdict(9, ok, f"suite report bytes identical across serial/parallel runs "
                    f"({len(serial)} bytes, timing fields excluded)")
