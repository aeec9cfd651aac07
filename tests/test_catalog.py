"""Scalar function registry and divided-difference tables."""

from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from phi_entropy_lab import DomainError, builtin, catalog, from_spec
from phi_entropy_lab.catalog import (
    C2,
    C3,
    DERIV_FLOOR,
    OUTSIDE_CLASS,
    TAYLOR_BAND,
    coincidence_threshold,
    dd1_grid,
    dd2_grid,
    dd3_grid,
    is_affine,
    require_nodes_in_derivative_domain,
)

ALL_NAMES = ["affine:1:2", "square", "xlogx", "power:1.5", "quartic", "exp"]


def _resolve(spec):
    return from_spec(spec, allow_outside_class=True)


def test_square_second_derivative_constant():
    sq = builtin("square")
    assert sq.deriv(3.7, 2) == pytest.approx(2.0)
    assert sq.deriv(-1.2, 2) == pytest.approx(2.0)


def test_xlogx_values_and_first_derivative():
    f = builtin("xlogx")
    assert f(0.0) == 0.0  # continuous extension at zero
    assert f.deriv(1.0, 1) == pytest.approx(1.0)


def test_xlogx_derivative_floor():
    f = builtin("xlogx")
    with pytest.raises(DomainError, match="requires arguments"):
        f.deriv(0.0, 1)


def test_quartic_violates_fourth_derivative_criterion():
    f = builtin("quartic")
    value = f.deriv(1.0, 4) * f.deriv(1.0, 2) - 2.0 * f.deriv(1.0, 3) ** 2
    assert value == pytest.approx(-864.0)
    assert value < 0.0


def test_power_exponent_gate():
    builtin("power", 1.0)
    builtin("power", 2.0)
    with pytest.raises(DomainError, match="outside"):
        builtin("power", 3.0)
    f = builtin("power", 3.0, allow_outside_class=True)
    assert f.has_tag(OUTSIDE_CLASS)


@pytest.mark.parametrize("name, params", [
    ("affine", (float("nan"), 1.0)), ("affine", (1.0, float("inf"))),
    ("power", (float("nan"),)), ("power", (float("-inf"),)), ("square", (float("nan"),))])
def test_non_finite_parameters_are_rejected(name, params):
    # A NaN parameter would otherwise build an in-class function whose margins
    # are all NaN; no comparison reads those as a violation.
    with pytest.raises(DomainError, match="finite"):
        builtin(name, *params, allow_outside_class=True)
    with pytest.raises(DomainError, match="finite"):
        from_spec(":".join([name, *map(str, params)]), allow_outside_class=True)


@pytest.mark.parametrize("spec", ["square:3", "xlogx:1", "quartic:0", "exp:0", "exp:1:2"])
def test_parameters_of_a_function_that_takes_none_are_rejected(spec):
    # They would otherwise be dropped: "square:3" would run as square.
    name, *params = spec.split(":")
    with pytest.raises(DomainError, match=rf"'{name}' takes no parameters, got \("):
        from_spec(spec, allow_outside_class=True)
    with pytest.raises(DomainError, match="takes no parameters"):
        builtin(name, *map(float, params), allow_outside_class=True)


def test_class_tags():
    assert builtin("square").class_tags >= {C2, C3}
    assert builtin("xlogx").class_tags == {C2}
    assert builtin("power", 1.5).class_tags == {C2}
    assert builtin("quartic").class_tags == {OUTSIDE_CLASS}
    assert builtin("exp").class_tags == {OUTSIDE_CLASS}


@pytest.mark.parametrize("spec, affine", [
    ("affine:1:2", True), ("affine:0:0", True), ("power:1", True), ("power:0", True),
    ("square", False), ("power:2", False), ("power:1.5", False), ("xlogx", False),
    ("quartic", False), ("exp", False), ("power:3", False)])
def test_is_affine_reads_a_second_derivative_of_zero_off_the_definition(spec, affine):
    # The definition decides, and the evaluator of f'' agrees on a grid.
    f = _resolve(spec)
    assert is_affine(f) == affine
    assert (not f.deriv(np.linspace(0.1, 5.0, 50), 2).any()) == affine


def test_spec_string_roundtrip():
    for spec in ALL_NAMES:
        f = _resolve(spec)
        again = _resolve(f.spec_string())
        assert again.name == f.name and again.params == f.params
    with pytest.raises(DomainError):
        from_spec("nonsense")


@pytest.mark.parametrize("spec", ALL_NAMES)
def test_derivatives_match_finite_differences(spec):
    # eval_1..eval_6 agree with central differences of the level below
    f = _resolve(spec)
    points = [0.3, 0.8, 1.0, 1.7, 2.5]
    for order in range(1, 7):
        for u in points:
            h = 1e-4 * (1.0 + abs(u))
            fd = (f.deriv(u + h, order - 1) - f.deriv(u - h, order - 1)) / (2.0 * h)
            exact = f.deriv(u, order)
            assert abs(fd - exact) <= 1e-5 * (1.0 + abs(exact)), (spec, order, u)


def _const(c):
    return lambda u: np.full_like(np.asarray(u, dtype=float), c)


def _affine_reference(a, b):
    return (lambda u: a + b * np.asarray(u, dtype=float), _const(b), *[_const(0.0)] * 5)


# Each family's seven evaluators written out by hand, order by order.
_REFERENCE_EVALS = {
    "affine:1:2": _affine_reference(1.0, 2.0),
    "affine:0:-3": _affine_reference(0.0, -3.0),
    "affine:2.5:0": _affine_reference(2.5, 0.0),
    "square": (lambda u: np.asarray(u, dtype=float) ** 2,
               lambda u: 2.0 * np.asarray(u, dtype=float),
               _const(2.0), *[_const(0.0)] * 4),
    "quartic": (lambda u: np.asarray(u, dtype=float) ** 4,
                lambda u: 4.0 * np.asarray(u, dtype=float) ** 3,
                lambda u: 12.0 * np.asarray(u, dtype=float) ** 2,
                lambda u: 24.0 * np.asarray(u, dtype=float),
                _const(24.0), _const(0.0), _const(0.0)),
    "xlogx": (catalog._xlogx,
              lambda u: np.log(u) + 1.0,
              lambda u: 1.0 / u,
              lambda u: -1.0 / u**2,
              lambda u: 2.0 / u**3,
              lambda u: -6.0 / u**4,
              lambda u: 24.0 / u**5),
}


@pytest.mark.parametrize("spec", sorted(_REFERENCE_EVALS))
def test_derivatives_match_the_hand_written_reference(spec):
    # The evaluators built from one formula per family equal the hand-written
    # ones bit for bit; only an exact zero may differ in its sign (affine
    # with a = 0 at a zero u gives the signed zero b*u, where a + b*u gave 0.0).
    f = _resolve(spec)
    grid = np.concatenate([np.linspace(-5.0, 5.0, 1001), [-0.0, 0.0, 1e-12, 1e-6, 1e6]])
    u = grid[grid > 0.0] if spec == "xlogx" else grid
    for k, reference in enumerate(_REFERENCE_EVALS[spec]):
        got, want = f.evals[k](u), reference(u)
        assert np.array_equal(got, want), (spec, k)
        nonzero = want != 0.0
        assert got[nonzero].tobytes() == want[nonzero].tobytes(), (spec, k)


@pytest.mark.parametrize("spec", ALL_NAMES)
def test_convexity_of_catalog_functions(spec):
    # every catalog entry is convex on its domain interior
    f = _resolve(spec)
    for u in [0.1, 0.5, 1.0, 2.0, 3.5]:
        assert f.deriv(u, 2) >= 0.0


def test_derivative_view():
    psi = builtin("xlogx").derivative()
    assert psi.deriv(2.0, 0) == pytest.approx(np.log(2.0) + 1.0)
    assert psi.deriv(2.0, 1) == pytest.approx(0.5)
    # the view shifts all orders down by one
    assert psi.deriv(2.0, 3) == pytest.approx(builtin("xlogx").deriv(2.0, 4))


def test_divided_difference_square_order1():
    grid = dd1_grid(builtin("square"), [1.0, 3.0])
    assert grid[0, 1] == pytest.approx(4.0)  # (9 - 1) / (3 - 1)


def test_divided_difference_square_order2_constant():
    grid = dd2_grid(builtin("square"), [0.5, 1.2, 2.9])
    assert_allclose(grid, np.ones((3, 3, 3)), atol=1e-12)


def test_divided_difference_collapsed_node():
    grid = dd1_grid(builtin("xlogx"), [1.0, 1.0])
    assert grid[0, 1] == pytest.approx(1.0)  # phi'(1)


def test_polynomial_tables_vanish_above_degree():
    affine = builtin("affine", 2.0, 3.0)
    t2 = dd2_grid(affine, [0.4, 1.1, 2.2])
    assert np.abs(t2).max() < 1e-12
    t3 = dd3_grid(builtin("square"), [0.4, 1.1, 2.2, 3.0])
    assert np.abs(t3).max() < 1e-12


@pytest.mark.parametrize("spec", ["xlogx", "power:1.5", "exp"])
def test_table_symmetry(spec):
    f = _resolve(spec)
    nodes = [0.6, 1.3, 2.1]
    t2 = dd2_grid(f, nodes)
    assert_allclose(t2, np.transpose(t2, (2, 1, 0)), rtol=1e-9)
    assert_allclose(t2, np.transpose(t2, (1, 0, 2)), rtol=1e-9)
    t3 = dd3_grid(f, [0.6, 1.3, 2.1, 2.8])
    for perm in [(1, 0, 2, 3), (0, 2, 1, 3), (3, 1, 2, 0)]:
        assert_allclose(t3, np.transpose(t3, perm), rtol=1e-9)


def test_collapsed_entries_match_derivatives():
    f = builtin("xlogx")
    nodes = [0.7, 1.4]
    t1 = dd1_grid(f, nodes)
    for i, u in enumerate(nodes):
        assert abs(t1[i, i] - f.deriv(u, 1)) < 1e-8
    t2 = dd2_grid(f, nodes)
    for i, u in enumerate(nodes):
        assert abs(t2[i, i, i] - 0.5 * f.deriv(u, 2)) < 1e-8


def test_continuity_across_the_order_1_taylor_switch():
    # dd1 takes the Taylor form for two nodes within TAYLOR_BAND[1] x of each
    # other and the difference quotient beyond; just inside and just outside
    # the band, both agree with 50-digit divided differences.
    mpmath = pytest.importorskip("mpmath")
    for spec, g in (("xlogx", lambda x: x * mpmath.log(x)), ("power:1.5", lambda x: x ** 1.5),
                    ("exp", mpmath.exp)):
        f = _resolve(spec)
        for x in (0.5, 1.0, 2.0, 4.0):
            for factor in (0.99, 1.01):
                nodes = np.array([x, x + factor * TAYLOR_BAND[1] * x])
                inside = nodes[1] - nodes[0] <= TAYLOR_BAND[1] * nodes[1]
                assert inside == (factor < 1.0) and coincidence_threshold(nodes) < nodes[1] - x
                got = dd1_grid(f, nodes)[0, 1]
                with mpmath.workdps(50):
                    want = float(_mp_dd(mpmath, g, [mpmath.mpf(float(n)) for n in nodes]))
                assert abs(got - want) <= 1e-11 * abs(want), (spec, x, factor)


def test_nodes_outside_domain_rejected():
    with pytest.raises(DomainError, match="node"):
        require_nodes_in_derivative_domain(builtin("xlogx"), [1.0, -0.2], 1)
    with pytest.raises(DomainError, match="node"):
        require_nodes_in_derivative_domain(builtin("xlogx"), [0.0, 1.0], 1)  # not interior


def test_derivative_floor_applies_only_to_functions_with_one():
    nodes = np.array([-1.0, 2.0])
    for spec in ("square", "affine:1:2", "quartic", "exp"):
        for order in (1, 2, 3):
            require_nodes_in_derivative_domain(_resolve(spec), nodes, order)
    for spec in ("xlogx", "power:1.5"):
        with pytest.raises(DomainError, match=r"node 5e-13 .*derivative floor 1e-12"):
            require_nodes_in_derivative_domain(_resolve(spec), [1.0, 0.5 * DERIV_FLOOR, 2.0], 1)


def band_nodes(order):
    """One node repeated (m >= 1 times), or nodes with a pair coincident, or
    0.9x or 1.1x the order's Taylor band apart, in ascending or shuffled order."""
    @st.composite
    def nodes(draw):
        m = draw(st.integers(1, 6), label="m")
        base = draw(st.floats(0.5, 4.0), label="clustered node")
        if m == 1 or draw(st.booleans(), label="one repeated node"):
            return np.full(m, base)
        offset = draw(st.sampled_from((0.0, 0.9, 1.1)), label="offset / Taylor band")
        rest = draw(st.lists(st.floats(0.5, 4.0), min_size=m - 2, max_size=m - 2),
                    label="rest")
        nodes = np.array([base, base * (1.0 + offset * TAYLOR_BAND[order]), *rest])
        shuffle = draw(st.permutations(range(m)), label="order")
        return np.sort(nodes) if draw(st.booleans(), label="sorted") else nodes[list(shuffle)]
    return nodes()


GRIDS = {1: dd1_grid, 2: dd2_grid, 3: dd3_grid}


@pytest.mark.parametrize("order", (1, 2, 3))
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data(), spec=st.sampled_from(("xlogx", "power:1.5", "exp", "square")))
def test_dd_grid_is_the_sorted_tuple_value_at_every_index(order, data, spec):
    f = _resolve(spec)
    nodes = data.draw(band_nodes(order), label="nodes")
    grid, m, k = GRIDS[order](f, nodes), len(nodes), order + 1
    sorted_values = np.sort(nodes[np.array(list(product(range(m), repeat=k)))], axis=-1)
    expected = catalog._dd(f, coincidence_threshold(nodes), *sorted_values.T)
    assert np.array_equal(grid, expected.reshape((m,) * k))
    for perm in permutations(range(k)):
        assert np.array_equal(grid, grid.transpose(perm))


def _evaluations(order, monkeypatch, nodes=np.linspace(0.5, 4.0, 16), top_only=True):
    """Sizes of the node arrays of the `_dd` calls the order-th grid on nodes
    makes; `_dd` recurses through its module name, so the lower orders'
    calls are counted too unless top_only."""
    sizes = []
    evaluate = catalog._dd

    def counted(f, delta, *tuple_nodes):
        if len(tuple_nodes) == order + 1 or not top_only:
            sizes.append(np.size(tuple_nodes[0]))
        return evaluate(f, delta, *tuple_nodes)

    monkeypatch.setattr(catalog, "_dd", counted)
    out = GRIDS[order](builtin("xlogx"), nodes)
    assert out.shape == (len(nodes),) * out.ndim
    return sizes


def test_dd3_grid_evaluates_only_the_sorted_quadruples(monkeypatch):
    # C(16 + 3, 4), not 16^4 = 65,536
    assert _evaluations(3, monkeypatch) == [3876]


def test_dd2_grid_evaluates_only_the_sorted_triples(monkeypatch):
    # C(16 + 2, 3), not 16^3 = 4,096
    assert _evaluations(2, monkeypatch) == [816]


def test_dd1_grid_evaluates_only_the_sorted_pairs(monkeypatch):
    # C(16 + 1, 2), not 16^2 = 256
    assert _evaluations(1, monkeypatch) == [136]


@pytest.mark.parametrize("order", (1, 2, 3))
def test_dd_grid_inside_its_band_skips_the_quotient(order, monkeypatch):
    # On one node every tuple lies inside its Taylor band: one evaluation of
    # the Taylor form, where the quotient recursion took 3 at order 2 and 7
    # at order 3.
    assert _evaluations(order, monkeypatch, np.array([2.0]), top_only=False) == [1]


def _mp_dd(mpmath, g, nodes):
    """Divided difference in mpmath arithmetic, by derivative where all nodes coincide."""
    k = len(nodes) - 1
    if nodes[0] == nodes[-1]:
        return mpmath.diff(g, nodes[0], k) / mpmath.factorial(k)
    return (_mp_dd(mpmath, g, nodes[1:]) - _mp_dd(mpmath, g, nodes[:-1])) / (nodes[-1] - nodes[0])


@pytest.mark.parametrize("order", (1, 2, 3))
@pytest.mark.parametrize("spec", ("xlogx", "power:1.5", "exp"))
def test_taylor_branch_matches_50_digit_divided_differences(order, spec):
    mpmath = pytest.importorskip("mpmath")
    g = {"xlogx": lambda x: x * mpmath.log(x), "power:1.5": lambda x: x ** 1.5,
         "exp": mpmath.exp}[spec]
    f = _resolve(spec)
    rng = np.random.default_rng(order)
    for base in (0.5, 1.0, 2.5, 7.0):
        for frac in (0.0, 0.5, 0.9):
            spread = frac * TAYLOR_BAND[order] * base
            nodes = np.array([base, *(base + np.sort(rng.uniform(0.0, spread, order - 1))),
                              base + spread])
            # the cluster lies inside the band, so the Taylor form gives every entry
            assert nodes[-1] - nodes[0] <= TAYLOR_BAND[order] * nodes[-1]
            got = GRIDS[order](f, nodes)[tuple(range(order + 1))]
            with mpmath.workdps(50):
                want = float(_mp_dd(mpmath, g, [mpmath.mpf(float(x)) for x in nodes]))
            assert abs(got - want) <= 1e-8 * abs(want)
