"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Tolerances are pinned here, directly from the contract, and the
sweeps use the stated trial counts.
"""

import json
import math
import time

import numpy as np

import scalar_oracle as oracle
from batching import recorded_margins
from comparison import relative_error
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
    run_suite,
)
from phi_entropy_lab.channels import monotonicity_gap, random_unital_channel
from phi_entropy_lab.characterizations import (
    BivariateFunctional,
    condition_a_slack,
    condition_e_terms,
    conditional_jensen_gap,
    convexity_slack_at,
    eval_functional,
)
from phi_entropy_lab.entropy import (
    SPECTRAL_FLOOR,
    dual_value,
    efron_stein_quantity,
    flatten,
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
from phi_entropy_lab.spectral import frobenius, hermitian_part, schatten_norm, variant_margin

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
    """Least eigenvalue of M, or of each matrix of a stack."""
    return np.linalg.eigvalsh(hermitian_part(M))[..., 0]


def _tr_bar(M):
    """Normalised trace Tr M / d, of M or of each matrix of a stack."""
    return np.trace(M, axis1=-2, axis2=-1).real / M.shape[-1]


def _margin(gap, variant):
    """The variant's margin of an operator gap, or of each gap of a stack."""
    return _tr_bar(gap) if variant == "trace" else _min_eig(gap)


def _first_failing(holds, trials):
    """The first of the trials whose assertion fails, or None; holds is
    the assertion of each trial, in order."""
    failing = np.flatnonzero(~np.asarray(holds))
    return trials[failing[0]] if failing.size else None


def test_criterion_1_frechet_oracle_agreement():
    # 500 pairs per function, spectra in [0.5, 4], orders 1..3 at their tolerances
    tols = {1: 1e-6, 2: 1e-4, 3: 1e-3}
    dims = (2, 3, 4, 6, 8)
    start = time.perf_counter()
    worst = {order: 0.0 for order in tols}
    # A cell is one function's trials of one dimension: one draw, one call per order.
    for f in (SQ, XLX, P15):
        for cell, d in enumerate(dims):
            trials = range(cell, 500, len(dims))
            rngs = [rng_for(SEED, "c1", f.spec_string(), trial) for trial in trials]
            A = sample_psd(d, 0.5, rngs, spectral_cap=4.0)
            X = sample_hermitian_unit(d, rngs)
            exact = {
                1: frechet_d1(f, A, X),
                2: frechet_d2(f, A, X, X),
                3: frechet_d3(f, A, X, X, X),
            }
            for order, tol in tols.items():
                err = relative_error(exact[order], finite_diff_oracle(f, A, X, order))
                worst[order] = max(worst[order], float(np.max(err)))
                trial = _first_failing(err <= tol, trials)
                assert trial is None, (f.spec_string(), order, trial)
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
        rhs = np.vdot(X, frechet_d1(f.derivative(), A, Y)).real
        worst_dual = max(worst_dual, abs(lhs - rhs) / (1.0 + abs(lhs)))
    ok = worst_sq <= 1e-12 and worst_dual <= 1e-8
    _verdict(2, ok, f"square identity {worst_sq:.2e} (<= 1e-12), "
                    f"trace duality {worst_dual:.2e} (<= 1e-8)")


def test_criterion_3_subadditivity():
    start = time.perf_counter()
    worst_scaled = np.inf
    worst_n1 = 0.0
    # Each cell's 1000 trials are one draw and one margin call.
    for f, variant in IN_CLASS_COMBOS:
        for d in (2, 3, 4):
            for n in (1, 2, 3):
                trials = range(1000)
                rngs = [rng_for(SEED, "c3", f.spec_string(), variant, d, n, trial)
                        for trial in trials]
                gaps = subadditivity_gap(f, sample_product(d, n, 2, rngs))
                margins = _margin(gaps, variant)
                scales = 1.0 + frobenius(gaps)
                worst_scaled = min(worst_scaled, float(np.min(margins / scales)))
                trial = _first_failing(margins >= -1e-10 * scales, trials)
                assert trial is None, (f.spec_string(), variant, d, n, trial)
                if n == 1:
                    worst_n1 = max(worst_n1, float(np.max(np.abs(margins))))
                    trial = _first_failing(np.abs(margins) <= 1e-12, trials)
                    assert trial is None, (f.spec_string(), variant, d, n, trial)
    elapsed = time.perf_counter() - start
    ok = worst_scaled >= -1e-10 and worst_n1 <= 1e-12 and elapsed < 120.0
    _verdict(3, ok, f"27000 ensembles, worst scaled margin {worst_scaled:.2e}, "
                    f"worst n=1 |margin| {worst_n1:.2e}, {elapsed:.1f}s (< 2min)")


def test_criterion_4_operator_efron_stein():
    worst_scaled = np.inf
    worst_n1 = 0.0
    worst_poly = np.inf
    # Trial t has d = (2, 3, 4)[t % 3] and n = (1, 2, 3)[t // 3 % 3]: a cell is
    # the trials of one t % 9, one draw and one call per quantity.
    for cell in range(9):
        d, n = (2, 3, 4)[cell % 3], (1, 2, 3)[cell // 3]
        trials = range(cell, 1000, 9)
        products = sample_product(d, n, 2, [rng_for(SEED, "c4", trial) for trial in trials])
        es = efron_stein_quantity(products)
        var = variance(flatten(products))
        margins = _min_eig(es - var)
        scales = 1.0 + frobenius(es) + frobenius(var)
        worst_scaled = min(worst_scaled, float(np.min(margins / scales)))
        trial = _first_failing(margins >= -1e-10 * scales, trials)
        assert trial is None, trial
        if n == 1:
            equality = np.abs(es - var).max(axis=(-2, -1))
            worst_n1 = max(worst_n1, float(np.max(equality)))
            trial = _first_failing(equality <= 1e-12, trials)
            assert trial is None, trial
        for p in (1, 2, 3):
            poly = schatten_norm(es, p) ** p - schatten_norm(var, p) ** p
            worst_poly = min(worst_poly, float(np.min(poly / scales)))
            trial = _first_failing(poly >= -1e-10 * scales, trials)
            assert trial is None, (trial, p)
    ok = worst_scaled >= -1e-10 and worst_n1 <= 1e-12 and worst_poly >= -1e-10
    _verdict(4, ok, f"1000 ensembles, worst scaled margin {worst_scaled:.2e}, "
                    f"n=1 equality {worst_n1:.2e} (<= 1e-12), "
                    f"polynomial margin {worst_poly:.2e}")


def test_criterion_5_dual_representation():
    worst = np.inf
    worst_coincident = 0.0
    combos = ((SQ, "operator"), (SQ, "trace"), (XLX, "trace"))
    # A cell is one combination's trials of one dimension: one draw, one call.
    for f, variant in combos:
        for cell, d in enumerate((2, 3, 4)):
            trials = range(cell, 500, 3)
            rngs = [rng_for(SEED, "c5", f.spec_string(), variant, trial) for trial in trials]
            Zs, Ts = sample_coupled_ensembles(d, 3, rngs, spectral_floor=SPECTRAL_FLOOR)
            margins = _margin(operator_phi_entropy(f, Zs) - dual_value(f, Zs, Ts), variant)
            worst = min(worst, float(np.min(margins)))
            trial = _first_failing(margins >= -1e-9, trials)
            assert trial is None, (f.spec_string(), variant, trial)
            # every tenth trial at T = Z
            tenth = [trial for trial in trials if trial % 10 == 0]
            Zc = tuple(a[[trials.index(trial) for trial in tenth]] for a in Zs)
            mz = np.abs(_margin(operator_phi_entropy(f, Zc) - dual_value(f, Zc, Zc), variant))
            worst_coincident = max(worst_coincident, float(np.max(mz)))
            trial = _first_failing(mz <= 1e-12, tenth)
            assert trial is None, (f.spec_string(), variant, trial)
    # interpolation scans: nonincreasing in the PSD order on an 11-point grid,
    # each grid point one call on all 50 trials
    grid = np.linspace(0.0, 1.0, 11)
    worst_scan = np.inf
    trials = range(50)
    Zs, Ts = sample_coupled_ensembles(
        3, 3, [rng_for(SEED, "c5-scan", trial) for trial in trials],
        spectral_floor=SPECTRAL_FLOOR)
    (weights, z_atoms), (_, t_atoms) = Zs, Ts
    values = [dual_value(SQ, Zs, MatrixEnsemble.stack(weights, (1.0 - s) * z_atoms + s * t_atoms))
              for s in grid]
    for prev, nxt in zip(values, values[1:]):
        steps = _min_eig(prev - nxt)
        worst_scan = min(worst_scan, float(np.min(steps)))
        trial = _first_failing(steps >= -1e-9, trials)
        assert trial is None, trial
    ok = worst >= -1e-9 and worst_coincident <= 1e-12 and worst_scan >= -1e-9
    _verdict(5, ok, f"worst margin {worst:.2e} (>= -1e-9), coincident gap "
                    f"{worst_coincident:.2e} (<= 1e-12), scan step {worst_scan:.2e}")


def test_criterion_6_characterization_cooccurrence():
    tol = 1e-9
    items = ("b", "c", "d", "f")
    functional_of = {"b": "bregman_A", "c": "map_B", "d": "map_C", "f": "gap_F_t"}
    worst = {}
    # A cell is the trials of one dimension: one draw and one call per item.
    for f, variant in IN_CLASS_COMBOS:
        for d in (2, 3):
            trials = range(d - 2, 1000, 2)
            rngs = [rng_for(SEED, "c6", f.spec_string(), variant, trial) for trial in trials]
            u1, v1, u2, v2 = np.moveaxis(sample_psd(d, SPECTRAL_FLOOR, rngs, count=4), 1, 0)
            lams = [[float(rng.uniform(0.1, 0.9))] for rng in rngs]  # one weight per pair
            ts = np.array([float(rng.uniform()) for rng in rngs])
            slacks = {}
            for item in items:
                F = BivariateFunctional(functional_of[item], f, t=ts if item == "f" else None)
                slack = np.ravel(convexity_slack_at(F, u1, v1, u2, v2, lams, variant))
                slacks[item] = slack
                key = (f.spec_string(), variant, item)
                worst[key] = min(worst.get(key, np.inf), float(np.min(slack)))
                trial = _first_failing(slack >= -tol * (1.0 + np.abs(slack)), trials)
                assert trial is None, (key, trial)
            # the quadratic form dominating implies the other two on shared samples
            trial = _first_failing(~(slacks["d"] >= -tol) | (
                (slacks["b"] >= -2 * tol) & (slacks["c"] >= -2 * tol)), trials)
            assert trial is None, (f.spec_string(), variant, trial)
            # item (g): conditional Jensen on a fresh two-factor product
            gaps = conditional_jensen_gap(f, sample_product(d, 2, 2, rngs))
            margins = _margin(gaps, variant)
            key = (f.spec_string(), variant, "g")
            worst[key] = min(worst.get(key, np.inf), float(np.min(margins)))
            trial = _first_failing(margins >= -1e-10 * (1.0 + frobenius(gaps)), trials)
            assert trial is None, (key, trial)
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
            expected = oracle.condition_e(f.name, a, h, k, *f.params)
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


def _draw_channel_ensembles(rngs, d):
    """Each trial's channel of 1-4 Kraus operators, then its ensemble of 3 atoms."""
    channels = random_unital_channel(d, [int(rng.integers(1, 5)) for rng in rngs], rngs)
    return channels, sample_ensemble(d, 3, rngs)


def _unitary_draws(trials, rngs, d, ensembles):
    """Every tenth trial, a Haar unitary channel drawn after its ensemble,
    and the ensemble: (those trials, their channels, their ensembles)."""
    tenth = [trial for trial in trials if trial % 10 == 0]
    picks = [trials.index(trial) for trial in tenth]
    U = haar_unitary(d, [rngs[i] for i in picks])
    return tenth, KrausChannel.stack(U[:, None]), tuple(a[picks] for a in ensembles)


def test_criterion_7a_monotonicity_trace():
    worst = np.inf
    worst_unitary = 0.0
    # A cell is one function's trials of one dimension: one draw, one call.
    for f in (SQ, XLX):
        for cell, d in enumerate((2, 3, 4)):
            trials = range(cell, 1000, 3)
            rngs = [rng_for(SEED, "c7", f.spec_string(), trial) for trial in trials]
            channels, ensembles = _draw_channel_ensembles(rngs, d)
            margins = _tr_bar(monotonicity_gap(f, channels, ensembles))
            worst = min(worst, float(np.min(margins)))
            trial = _first_failing(margins >= -1e-10, trials)
            assert trial is None, (f.spec_string(), trial)
            tenth, unitaries, picked = _unitary_draws(trials, rngs, d, ensembles)
            mu = np.abs(_tr_bar(monotonicity_gap(f, unitaries, picked)))
            worst_unitary = max(worst_unitary, float(np.max(mu)))
            trial = _first_failing(mu <= 1e-10, tenth)
            assert trial is None, (f.spec_string(), trial)
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
    # A cell is the trials of one dimension: one draw, one call per function.
    for cell, d in enumerate((2, 3, 4)):
        trials = range(cell, 1000, 3)
        rngs = [rng_for(SEED, "c7b", trial) for trial in trials]
        channels, ensembles = _draw_channel_ensembles(rngs, d)
        margins = _min_eig(monotonicity_gap(SQ, channels, ensembles))
        worst = min(worst, float(np.min(margins)))
        violations += int(np.sum(margins < -1e-10))
        m = {f: _min_eig(monotonicity_gap(f, channels, ensembles)) for f in (XLX, QT)}
        for f in (XLX, QT):
            outside[f] += int(np.sum(m[f] < -1e-8))
            worst_outside[f] = min(worst_outside[f], float(np.min(m[f])))
        # the report of the cell's least xlogx margin gives that margin and verdict
        i = int(np.argmin(m[XLX]))
        report = check("monotonicity", override=True, phi=XLX, variant="operator",
                       channel=KrausChannel.row(channels, i),
                       ensemble=MatrixEnsemble.row(ensembles, i))
        assert report.margin == m[XLX][i] and report.holds == (m[XLX][i] >= -1e-10)
        _, unitaries, picked = _unitary_draws(trials, rngs, d, ensembles)
        mu = np.abs(_min_eig(monotonicity_gap(SQ, unitaries, picked)))
        worst_unitary = max(worst_unitary, float(np.max(mu)))
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
        track(variant_margin(operator_phi_entropy(f, E.column), "trace")[0],
              oracle.entropy(name, w, z, p))
        track(variance(E.column)[0][0, 0].real, oracle.variance(w, z))

        # two-factor product: subadditivity, resampling bound, conditional Jensen
        w1 = rng.dirichlet(np.ones(2))
        w2 = rng.dirichlet(np.ones(2))
        table = {(s1, s2): float(rng.uniform(0.2, 2.5)) for s1 in range(2) for s2 in range(2)}
        P = ProductEnsemble((w1, w2), np.array([[[table[k]]] for k in sorted(table)]))
        track(subadditivity_gap(f, P.column)[0][0, 0].real,
              oracle.subadditivity_margin(name, [w1, w2], table, p))
        track(efron_stein_quantity(P.column)[0][0, 0].real, oracle.efron_stein([w1, w2], table))
        track(conditional_jensen_gap(f, P.column)[0][0, 0].real,
              oracle.conditional_jensen_margin(name, w1, w2, table, p))

        # bivariate functionals at scalar arguments
        u, v = float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.1, 1.2))
        U, V = np.array([[u]]), np.array([[v]])
        lam_t = float(rng.uniform(0.1, 0.9))
        track(convexity_slack_at(BivariateFunctional("bregman_A", f), U, V,
                                 np.array([[u + 0.3]]), np.array([[v + 0.2]]), lam_t, "trace")[0],
              lam_t * oracle.bregman(name, u, v, p)
              + (1 - lam_t) * oracle.bregman(name, u + 0.3, v + 0.2, p)
              - oracle.bregman(name, lam_t * u + (1 - lam_t) * (u + 0.3),
                               lam_t * v + (1 - lam_t) * (v + 0.2), p))
        track(eval_functional(BivariateFunctional("map_B", f), U, V)[0, 0].real,
              oracle.increment(name, u, v, p))
        track(eval_functional(BivariateFunctional("map_C", f), U, V)[0, 0].real,
              oracle.quadratic_form(name, u, v, p))
        track(eval_functional(BivariateFunctional("gap_F_t", f, t=lam_t), U, V)[0, 0].real,
              oracle.interpolation_gap(name, lam_t, u, v, p))

        # concavity slack of the inverted derivative map
        a1, a2 = rng.uniform(0.4, 2.5, size=2)
        h = float(rng.uniform(-1.0, 1.0))
        mix = lam_t * a1 + (1 - lam_t) * a2
        track(condition_a_slack(f, np.array([[a1]]), np.array([[a2]]),
                                np.array([[h]]), lam_t)[0],
              oracle.inverse_second_derivative_form(name, mix, h, p)
              - lam_t * oracle.inverse_second_derivative_form(name, a1, h, p)
              - (1 - lam_t) * oracle.inverse_second_derivative_form(name, a2, h, p))

        # dual lower-bound margin
        t_vals = rng.uniform(0.2, 2.5, size=3)
        T = MatrixEnsemble(w, t_vals.reshape(-1, 1, 1).astype(complex))
        gap = operator_phi_entropy(f, E.column)[0] - dual_value(f, E.column, T.column)[0]
        track(gap[0, 0].real, oracle.dual_margin(name, w, z, t_vals, p))

        # derivative-map Jensen bound: the Jensen gap of item (d)'s Tr map_C(a, x)
        # over three atoms
        a_vals = rng.uniform(0.3, 2.0, size=3)
        x_vals = rng.uniform(-1.0, 1.0, size=3)
        traces = eval_functional(BivariateFunctional("map_C", f),
                                 np.append(a_vals, w @ a_vals).reshape(-1, 1, 1),
                                 np.append(x_vals, w @ x_vals).reshape(-1, 1, 1))[:, 0, 0].real
        track(w @ traces[:-1] - traces[-1],
              oracle.convexity_lemma_margin(name, w, a_vals, x_vals, p))

        # unital channels at d = 1 collapse to the identity
        N = random_unital_channel(1, 2, rng)
        track(_tr_bar(monotonicity_gap(f, N.column, E.column)[0]), 0.0)
    _verdict(8, True, f"d=1 checks match the scalar oracle, worst diff {worst:.2e} "
                      f"(<= 1e-10)")


def test_criterion_9_reproducibility():
    # Batched sweeps against the same points evaluated one at a time.
    cfg = RunConfig(seed=SEED, dims=(2, 3), trials=5, phi_list=("square", "xlogx"),
                    variant="trace")

    def run(one_at_a_time):
        with recorded_margins(one_at_a_time) as margins:
            payload = run_suite(cfg).to_json_dict()
        for entry in payload["reports"]:
            entry.pop("seconds")
        return json.dumps(payload, sort_keys=True).encode(), np.asarray(margins).tobytes()

    batched = run(False)
    single = run(True)
    batched_again = run(False)
    ok = batched == single == batched_again
    _verdict(9, ok, f"suite report bytes and all {len(batched[1]) // 8} margins identical "
                    f"across batched and point-by-point runs ({len(batched[0])} bytes, "
                    f"timing fields excluded)")
