"""Scalar reference formulas for the d = 1 reduction tests.

Everything here is written with plain ``math`` so it shares no code with
the package's matrix machinery; it is the independent side of the
dimension-one comparisons.
"""

import itertools
import math


def phi(name, u, p=None):
    if name == "square":
        return u * u
    if name == "xlogx":
        return 0.0 if u == 0.0 else u * math.log(u)
    if name == "power":
        return u**p
    if name == "quartic":
        return u**4
    if name == "exp":
        return math.exp(u)
    raise ValueError(name)


def phi_deriv(name, u, order, p=None):
    if name == "square":
        return (u * u, 2.0 * u, 2.0, 0.0, 0.0)[order]
    if name == "xlogx":
        if order == 0:
            return phi(name, u)
        return (None, math.log(u) + 1.0, 1.0 / u, -1.0 / u**2, 2.0 / u**3)[order]
    if name == "power":
        coeff = 1.0
        for j in range(order):
            coeff *= p - j
        return coeff * u ** (p - order)
    if name == "quartic":
        return (u**4, 4.0 * u**3, 12.0 * u**2, 24.0 * u, 24.0)[order]
    if name == "exp":
        return math.exp(u)
    raise ValueError(name)


def entropy(name, weights, values, p=None):
    mean = sum(w * z for w, z in zip(weights, values))
    return sum(w * phi(name, z, p) for w, z in zip(weights, values)) - phi(name, mean, p)


def product_outcomes(factor_weights):
    supports = [range(len(w)) for w in factor_weights]
    for key in itertools.product(*supports):
        prob = 1.0
        for i, s in enumerate(key):
            prob *= factor_weights[i][s]
        yield key, prob


def subadditivity_margin(name, factor_weights, z, p=None):
    """Classical tensorization slack: sum_i E[H_i] - H."""
    keys = list(product_outcomes(factor_weights))
    total = entropy(name, [pr for _, pr in keys], [z[k] for k, _ in keys], p)
    acc = 0.0
    n = len(factor_weights)
    for i in range(n):
        others = [j for j in range(n) if j != i]
        for combo, prob in product_outcomes([factor_weights[j] for j in others]):
            w_i = factor_weights[i]
            vals = []
            for s in range(len(w_i)):
                key = list(combo)
                key.insert(i, s)
                vals.append(z[tuple(key)])
            acc += prob * entropy(name, w_i, vals, p)
    return acc - total


def variance(weights, values):
    mean = sum(w * z for w, z in zip(weights, values))
    return sum(w * z * z for w, z in zip(weights, values)) - mean * mean


def efron_stein(factor_weights, z):
    """Half the expected squared single-coordinate resampling difference."""
    acc = 0.0
    n = len(factor_weights)
    for i in range(n):
        others = [j for j in range(n) if j != i]
        for combo, prob in product_outcomes([factor_weights[j] for j in others]):
            w_i = factor_weights[i]
            for s, ws in enumerate(w_i):
                for t, wt in enumerate(w_i):
                    key_s = list(combo)
                    key_s.insert(i, s)
                    key_t = list(combo)
                    key_t.insert(i, t)
                    acc += 0.5 * prob * ws * wt * (z[tuple(key_s)] - z[tuple(key_t)]) ** 2
    return acc


def bregman(name, u, v, p=None):
    return phi(name, u + v, p) - phi(name, u, p) - phi_deriv(name, u, 1, p) * v


def increment(name, u, v, p=None):
    return (phi_deriv(name, u + v, 1, p) - phi_deriv(name, u, 1, p)) * v


def quadratic_form(name, u, v, p=None):
    return phi_deriv(name, u, 2, p) * v * v


def interpolation_gap(name, t, u, v, p=None):
    return t * phi(name, u, p) + (1.0 - t) * phi(name, v, p) - phi(name, t * u + (1.0 - t) * v, p)


def inverse_second_derivative_form(name, a, h, p=None):
    """Quadratic form of the inverted derivative map: h^2 / phi''(a)."""
    return h * h / phi_deriv(name, a, 2, p)


def condition_e(name, a, h, k, p=None):
    """Condition (e) at d = 1: (phi'''' phi'' - 2 phi'''^2) k^2 h^2 / phi''^3."""
    d2, d3, d4 = (phi_deriv(name, a, order, p) for order in (2, 3, 4))
    return (d4 * d2 - 2.0 * d3**2) * (k * k * h * h) / d2**3


def dual_margin(name, weights, z_vals, t_vals, p=None):
    """Entropy minus the classical dual lower bound."""
    mean_t = sum(w * t for w, t in zip(weights, t_vals))
    value = sum(
        w * (phi_deriv(name, t, 1, p) - phi_deriv(name, mean_t, 1, p)) * (zv - t)
        for w, zv, t in zip(weights, z_vals, t_vals)
    )
    value += entropy(name, weights, t_vals, p)
    return entropy(name, weights, z_vals, p) - value


def conditional_jensen_margin(name, w1, w2, z, p=None):
    """E_1 H(Z | X_1) - H(E_1 Z) for a two-factor scalar ensemble."""
    lhs = sum(
        w1[s1] * entropy(name, w2, [z[(s1, s2)] for s2 in range(len(w2))], p)
        for s1 in range(len(w1))
    )
    averaged = [
        sum(w1[s1] * z[(s1, s2)] for s1 in range(len(w1))) for s2 in range(len(w2))
    ]
    return lhs - entropy(name, w2, averaged, p)


def convexity_lemma_margin(name, weights, a_vals, x_vals, p=None):
    lhs = sum(
        w * x * phi_deriv(name, a, 2, p) * x
        for w, a, x in zip(weights, a_vals, x_vals)
    )
    mean_a = sum(w * a for w, a in zip(weights, a_vals))
    mean_x = sum(w * x for w, x in zip(weights, x_vals))
    return lhs - mean_x * phi_deriv(name, mean_a, 2, p) * mean_x
