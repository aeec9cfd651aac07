"""Stacked evaluation equals per-matrix evaluation, bit for bit.

The layers under the suite's batched sweeps take stacks (..., d, d).  Each
matrix of a stack must get exactly the values, the divided-difference
branch and the errors it gets on its own: its own coincidence threshold,
its own domain check and its own singularity guard.  The same holds one
level up: a record's margin on the points of several trials equals its
margins on each point alone.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phi_entropy_lab import (
    KrausChannel,
    MatrixEnsemble,
    ProductEnsemble,
    RunConfig,
    builtin,
    random_unital_channel,
)
from phi_entropy_lab.catalog import TAYLOR_BAND, dd1_grid, dd2_grid, dd3_grid
from phi_entropy_lab.characterizations import (
    BivariateFunctional,
    condition_a_slack,
    convexity_slack_at,
    eval_functional,
)
from phi_entropy_lab.errors import (
    DomainError,
    NonHermitianError,
    PhiLabError,
    SingularOperatorError,
)
from phi_entropy_lab.frechet import (
    default_fd_step,
    derivative_inverse,
    finite_diff_oracle,
    frechet_d1,
    frechet_d2,
    frechet_d3,
)
from phi_entropy_lab import entropy
from phi_entropy_lab.sampling import (
    haar_unitary,
    rng_for,
    sample_coupled_ensembles,
    sample_ensemble,
    sample_hermitian,
    sample_product,
    sample_psd,
)
from phi_entropy_lab.spectral import (
    apply_scalar_function,
    apply_scalar_function_stack,
    frobenius,
    hermitian_part,
    schatten_norm,
    spectral_decompose,
    variant_margin,
)
from phi_entropy_lab.suite import CHECKS, SWEEPS, _column, sweep

from batching import points
from comparison import relative_error

FUNCS = (builtin("square"), builtin("xlogx"), builtin("power", 1.5))
XLX = builtin("xlogx")


def _with_spectrum(lam, rng):
    U = haar_unitary(len(lam), rng)
    A = (U * lam) @ U.conj().T
    return 0.5 * (A + A.conj().T)


@st.composite
def stacks(draw):
    """A wide-spectrum matrix next to one with a pair of (near-)coincident
    eigenvalues at the edge of the order-1 or order-2 Taylor band.

    The wide matrix's coincidence threshold, 1e-7 (1 + diameter), exceeds
    the band of the other's pair, so a threshold shared across the stack
    would move that pair to the other branch.
    """
    d = draw(st.integers(2, 4), label="d")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    order = draw(st.sampled_from((1, 2)), label="band order")
    offset = draw(st.sampled_from((0.0, 0.9, 1.1)), label="offset / Taylor band")
    base = draw(st.floats(0.5, 4.0), label="coincident eigenvalue")
    cap = draw(st.sampled_from((10.0, 3e3)), label="wide spectrum cap")
    wide_first = draw(st.booleans(), label="wide matrix first")
    rng = rng_for(seed, "stacks")
    near = np.concatenate([[base, base * (1.0 + offset * TAYLOR_BAND[order])],
                           rng.uniform(0.5, 4.0, d - 2)])
    wide = np.exp(rng.uniform(np.log(0.5), np.log(cap), d))
    wide[:2] = (0.5, cap)
    mats = [_with_spectrum(wide, rng), _with_spectrum(near, rng)]
    if not wide_first:
        mats.reverse()
    return np.stack(mats), rng


def _same(stacked, singles):
    # A single call returns numpy values (an array, or the numpy scalar a
    # ufunc makes of a 0-d result), never a Python float, bit for bit its
    # entry of the stacked call.
    assert len(stacked) == len(singles)
    for got, want in zip(stacked, singles):
        assert isinstance(want, (np.ndarray, np.generic)), type(want)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(drawn=stacks(), f=st.sampled_from(FUNCS))
def test_stacked_layers_equal_per_matrix_calls(drawn, f):
    A, rng = drawn
    X = np.stack([sample_hermitian(A.shape[-1], rng) for _ in A])
    Y = np.stack([sample_hermitian(A.shape[-1], rng) for _ in A])
    nodes = spectral_decompose(A).eigenvalues

    _same(apply_scalar_function_stack(f, A), [apply_scalar_function(f, M) for M in A])
    _same(apply_scalar_function(f, A), [apply_scalar_function(f, M) for M in A])
    _same(apply_scalar_function(f, spectral_decompose(A)),
          [apply_scalar_function(f, M) for M in A])
    _same(dd1_grid(f, nodes), [dd1_grid(f, lam) for lam in nodes])
    _same(dd2_grid(f, nodes), [dd2_grid(f, lam) for lam in nodes])
    _same(dd3_grid(f, nodes), [dd3_grid(f, lam) for lam in nodes])
    _same(frechet_d1(f, A, X), [frechet_d1(f, M, Z) for M, Z in zip(A, X)])
    _same(frechet_d2(f, A, X, Y), [frechet_d2(f, M, Z, W) for M, Z, W in zip(A, X, Y)])
    _same(frechet_d3(f, A, X, X, Y), [frechet_d3(f, M, Z, Z, W) for M, Z, W in zip(A, X, Y)])
    _same(frechet_d1(f, spectral_decompose(A), X), [frechet_d1(f, M, Z) for M, Z in zip(A, X)])
    psi = f.derivative()
    _same(derivative_inverse(psi, spectral_decompose(A))(X[0]),
          [derivative_inverse(psi, spectral_decompose(M))(X[0]) for M in A])
    # Per-matrix scalars (norms, steps) must be the single call's, bit for bit.
    # The stencils run on the square: a wide spectrum leaves xlogx's domain.
    _same(frobenius(X), [frobenius(Z) for Z in X])
    _same(relative_error(X, Y), [relative_error(Z, W) for Z, W in zip(X, Y)])
    for variant in ("trace", "operator"):
        _same(variant_margin(X - Y, variant), [variant_margin(Z - W, variant)
                                               for Z, W in zip(X, Y)])
    for p in (1, 1.5, 2, 3, np.inf):
        _same(schatten_norm(X, p), [schatten_norm(Z, p) for Z in X])
    for k in range(4):  # each eigenvalue alone is a stack with no leading axes
        _same(f.deriv(nodes, k).ravel(), [f.deriv(u, k) for u in nodes.ravel()])
    for order in (1, 2, 3):
        _same(default_fd_step(order, A, X),
              [default_fd_step(order, M, Z) for M, Z in zip(A, X)])
        _same(finite_diff_oracle(FUNCS[0], A, X, order),
              [finite_diff_oracle(FUNCS[0], M, Z, order) for M, Z in zip(A, X)])


def _error_type(call):
    try:
        call()
    except PhiLabError as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("bad", [
    np.diag([-0.5, 1.0]),               # outside xlogx's domain
    np.diag([1e-13, 1.0]),              # inside the domain, below the derivative floor
    np.array([[1.0, 0.5], [0.0, 1.0]]),  # not Hermitian
    np.array([[np.nan, 0.0], [0.0, 1.0]]),  # not finite
], ids=("negative", "below-floor", "non-hermitian", "nan"))
@pytest.mark.parametrize("position", (0, 1, 2))
def test_stack_with_one_bad_matrix_raises_like_the_single_call(bad, position):
    good = [sample_psd(2, 0.5, seed) for seed in (1, 2)]
    A = np.stack(good[:position] + [bad] + good[position:])
    X = np.stack([sample_hermitian(2, seed) for seed in (3, 4, 5)])
    calls = {
        "apply": (lambda M: apply_scalar_function(XLX, M), None),
        "d1": (lambda M, Z: frechet_d1(XLX, M, Z), X),
        "d2": (lambda M, Z: frechet_d2(XLX, M, Z, Z), X),
        "inverse": (lambda M: derivative_inverse(XLX.derivative(), spectral_decompose(M)), None),
    }
    raised = set()
    for name, (call, dirs) in calls.items():
        args = (A,) if dirs is None else (A, dirs)
        one = (bad,) if dirs is None else (bad, dirs[position])
        expected = _error_type(lambda: call(*one))
        assert _error_type(lambda: call(*args)) is expected, name
        raised.add(expected)
    assert raised - {None}
    if bad[0, 1] != bad[1, 0]:
        with pytest.raises(NonHermitianError, match=rf"matrix\[{position}\]"):
            spectral_decompose(A)
    if not np.isfinite(bad).all():
        with pytest.raises(DomainError, match=rf"matrix\[{position}\] has a non-finite"):
            spectral_decompose(A)


@pytest.mark.parametrize("position", (0, 1, 2))
def test_stack_with_one_singular_derivative_map_raises(position):
    # xlogx' = log + 1 has derivative 1/u: condition number 2.5e13 at diag(50, 2e-12).
    singular = np.diag([50.0, 2e-12])
    good = [sample_psd(2, 0.5, seed) for seed in (6, 7)]
    A = np.stack(good[:position] + [singular] + good[position:])
    psi = XLX.derivative()
    with pytest.raises(SingularOperatorError) as alone:
        derivative_inverse(psi, spectral_decompose(singular))
    with pytest.raises(SingularOperatorError) as stacked:
        derivative_inverse(psi, spectral_decompose(A))
    assert stacked.value.smallest_singular_value == alone.value.smallest_singular_value
    assert str(stacked.value) == str(alone.value)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4),
       name=st.sampled_from(("bregman_A", "map_B", "map_C", "gap_F_t")),
       variant=st.sampled_from(("trace", "operator")))
def test_lambda_vector_slacks_equal_scalar_calls(seed, d, name, variant):
    rng = rng_for(seed, "lambda-vector")
    lams = [0.25, 0.5, 0.75, float(rng.uniform()), float(rng.uniform())]
    f = builtin("square") if variant == "operator" else XLX
    F = BivariateFunctional(name, f, t=0.3 if name == "gap_F_t" else None)
    pair = [sample_psd(d, 0.1, rng) for _ in range(4)]
    assert convexity_slack_at(F, *pair, lams, variant).tolist() == [
        convexity_slack_at(F, *pair, [lam], variant)[0] for lam in lams]
    A1, A2, h = sample_psd(d, 0.1, rng), sample_psd(d, 0.1, rng), sample_hermitian(d, rng)
    assert condition_a_slack(XLX, A1, A2, h, lams).tolist() == [
        condition_a_slack(XLX, A1, A2, h, [lam])[0] for lam in lams]


def test_bregman_stack_decomposes_u_once(monkeypatch):
    rng = rng_for(8, "bregman-eigh")
    u, v = (np.stack([sample_psd(3, 0.1, rng) for _ in range(7)]) for _ in range(2))
    expected = hermitian_part(apply_scalar_function(XLX, u + v) - apply_scalar_function(XLX, u)
                              - frechet_d1(XLX, u, v))
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(M.shape) or eigh(M))
    got = eval_functional(BivariateFunctional("bregman_A", XLX), u, v)
    assert calls == [(7, 3, 3)] * 2  # u + v, and u once for f(u) and Df[u](v)
    assert np.array_equal(got, expected)


def test_dual_gap_decomposes_t_once(monkeypatch):
    # A call on five coupled pairs: T's atoms go to one eigh, which serves the
    # domain check and the bound alike, and to no eigvalsh.
    Zs, Ts = sample_coupled_ensembles(3, 4, [rng_for(9, "dual", i) for i in range(5)],
                                      spectral_floor=0.05)
    expected = entropy.operator_phi_entropy(XLX, Zs) - entropy.dual_value(XLX, Zs, Ts)
    t_atoms = Ts[1]
    calls = []
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, lambda M, name=name, call=getattr(np.linalg, name):
                            calls.append((name, np.array_equal(M, t_atoms))) or call(M))
    got = entropy.dual_gap(XLX, Zs, Ts)
    assert calls.count(("eigh", True)) == 1
    assert not [name for name, _ in calls if name == "eigvalsh"]
    assert np.array_equal(got, expected)


# --- the suite's records on points of several trials -----------------------------

STACKED_SWEEPS = [s for sweeps in SWEEPS.values() for s in sweeps]
_PSD_FIELDS = ("A", "u1", "v1", "u2", "v2", "A1", "A2")


def _near_band(d, band, rng):
    """A matrix whose two lowest eigenvalues sit at a Taylor-band edge."""
    order, offset, base = band
    lam = np.concatenate([[base, base * (1.0 + offset * TAYLOR_BAND[order])],
                          rng.uniform(0.5, 4.0, max(d - 2, 0))])[:d]
    return _with_spectrum(lam, rng)


def _with_near_band_spectra(chunk, d, band, rng):
    """A chunk of one trial, its PSD matrices and ensemble atoms replaced by
    near-band ones."""
    new = {}
    for key in _PSD_FIELDS:
        if key in chunk:
            new[key] = _near_band(d, band, rng)[None]
    if "product" in chunk:
        rows, atoms = chunk["product"]
        new["product"] = ProductEnsemble.stack(
            rows, np.stack([_near_band(d, band, rng) for _ in atoms[0]])[None])
    for key in ("Z", "T", "ensemble"):  # coupled: T keeps Z's weights
        if key in chunk:
            weights, _ = chunk[key]
            new[key] = MatrixEnsemble.stack(
                weights, np.stack([_near_band(d, band, rng) for _ in weights[0]])[None])
    return {**chunk, **new}


def _concatenated(chunks: list) -> dict:
    """One chunk of the trials of several, in order, each column checked by
    its class's stack; channels zero-padded to the largest Kraus count."""
    out = dict(chunks[0])
    for key, value in chunks[0].items():
        values = [chunk[key] for chunk in chunks]
        if key == "channel":
            counts = [int(count[0]) for _, count in values]
            kraus = np.zeros((len(values), max(counts)) + value[0].shape[2:], dtype=complex)
            for K, (own, _), k in zip(kraus, values, counts):
                K[:k] = own[0]
            out[key] = KrausChannel.stack(kraus, counts)
        elif key == "product":
            out[key] = ProductEnsemble.stack(
                [np.concatenate(w) for w in zip(*(rows for rows, _ in values))],
                np.concatenate([atoms for _, atoms in values]))
        elif key in ("Z", "T", "ensemble"):
            out[key] = MatrixEnsemble.stack(*map(np.concatenate, zip(*values)))
        elif isinstance(value, np.ndarray):
            out[key] = np.concatenate(values)
    return out


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(sweep=st.sampled_from(STACKED_SWEEPS), data=st.data())
def test_stacked_record_margins_equal_point_by_point_margins(sweep, data):
    # A record's margin on a chunk of several trials, as a sweep hands it
    # over, must equal its margins on each point alone, bit for bit.
    # Trials mix the record's own draws with spectra at Taylor-band edges,
    # and their channels have at least two Kraus counts: the chunk pads them
    # with zeros, and each point alone holds its channel's own operators.
    record = CHECKS[sweep.kind]
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    d = data.draw(st.integers(1, 4), label="d")
    phi = data.draw(st.sampled_from(FUNCS), label="phi")
    variant = data.draw(st.sampled_from(("trace", "operator")), label="variant")
    bands = data.draw(st.lists(st.one_of(st.none(), st.tuples(
        st.sampled_from((1, 2, 3)), st.sampled_from((0.0, 0.9, 1.1)), st.floats(0.5, 3.9))),
        min_size=2, max_size=4), label="trial spectra")
    counts = data.draw(st.lists(st.integers(1, 4), min_size=len(bands), max_size=len(bands))
                       .filter(lambda c: len(set(c)) > 1), label="Kraus counts")
    base = {"phi": phi, "variant": variant, **sweep.fixed}
    chunks = []
    for trial, band in enumerate(bands):
        rng = rng_for(seed, "stacked-records", trial)
        chunk = {**base, **record.draw([rng], d, base)}
        if "channel" in chunk:
            chunk["channel"] = random_unital_channel(d, [counts[trial]], [rng])
        chunks.append(chunk if band is None else _with_near_band_spectra(chunk, d, band, rng))
    chunk = _concatenated(chunks)

    stacked = record.margin(chunk)
    alone = [np.ravel(record.margin(_column(sweep.kind, p)))[0]
             for p in points(sweep.kind, chunk)]
    assert np.asarray(stacked).tobytes() == np.asarray(alone).tobytes()


def _exact(value):
    """A drawn value as dtypes, shapes and bytes: equal iff the values are identical."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, MatrixEnsemble):
        return _exact(value.weights), _exact(value.atoms)
    if isinstance(value, ProductEnsemble):
        return tuple(map(_exact, value.factor_weights)), _exact(value.atoms)
    if isinstance(value, KrausChannel):
        return _exact(value.kraus)
    # lambda and t are Python floats; the values trials share are as given
    assert value is None or type(value) in (float, int, str) or value is XLX, value
    return value


@pytest.mark.parametrize("sweep", STACKED_SWEEPS, ids=lambda s: s.name)
def test_chunk_draw_equals_the_draws_of_its_trials(sweep):
    # A sweep draws a chunk of trials at once.  Its points must be, in order,
    # those of drawing each trial alone, and every trial's generator must end
    # where it ends alone.
    record = CHECKS[sweep.kind]
    base = {"phi": XLX, "variant": "trace", **sweep.fixed}
    for d in (1, 2, 3, 4, 8):
        for k in (1, 2, 5):
            chunk = [rng_for(k, "chunk-draw", sweep.kind, d, trial) for trial in range(k)]
            alone = [rng_for(k, "chunk-draw", sweep.kind, d, trial) for trial in range(k)]
            got = points(sweep.kind, {**base, **record.draw(chunk, d, base)})
            want = [p for rng in alone
                    for p in points(sweep.kind, {**base, **record.draw([rng], d, base)})]
            assert [{key: _exact(v) for key, v in p.items()} for p in got] == \
                [{key: _exact(v) for key, v in p.items()} for p in want], (d, k)
            assert [repr(rng.bit_generator.state) for rng in chunk] == \
                [repr(rng.bit_generator.state) for rng in alone], (d, k)


# --- objects checked once per chunk ------------------------------------------------


def _fields(obj) -> dict:
    """Every field of an object, arrays as dtype, shape and bytes: equal iff identical."""
    def exact(value):
        if isinstance(value, np.ndarray):
            return value.dtype.str, value.shape, value.tobytes()
        if isinstance(value, dict):
            return {key: exact(v) for key, v in value.items()}
        if isinstance(value, tuple):
            return tuple(map(exact, value))
        return value
    return {key: exact(value) for key, value in vars(obj).items()}


def _chunk(d: int, label: str) -> list:
    return [rng_for(d, "chunk-objects", label, trial) for trial in range(5)]


@pytest.mark.parametrize("d", (1, 2, 3))
def test_chunk_objects_equal_the_constructors_objects(d):
    # The samplers build a chunk's column through the classes' stack; the
    # object of each entry must be, field by field, the one its constructor
    # builds from the same draws.
    def rows(cls, column):
        return [_fields(cls.row(column, n)) for n in range(5)]

    got = sample_ensemble(d, 3, _chunk(d, "ensemble"))
    want = []
    for rng in _chunk(d, "ensemble"):
        weights = rng.dirichlet(np.ones(3))
        want.append(MatrixEnsemble(weights, sample_psd(d, 0.0, rng, count=3)))
    assert rows(MatrixEnsemble, got) == list(map(_fields, want))

    got = sample_coupled_ensembles(d, 3, _chunk(d, "coupled"), spectral_floor=0.1)
    want = []
    for rng in _chunk(d, "coupled"):
        weights = rng.dirichlet(np.ones(3))
        mats = sample_psd(d, 0.1, rng, count=6)
        want.append((MatrixEnsemble(weights, mats[:3]), MatrixEnsemble(weights, mats[3:])))
    assert list(zip(*(rows(MatrixEnsemble, column) for column in got))) == \
        [tuple(map(_fields, pair)) for pair in want]

    for sizes in ((3,), (2, 3), (2, 1, 2)):
        got = sample_product(d, len(sizes), sizes, _chunk(d, f"product{sizes}"))
        want = []
        for rng in _chunk(d, f"product{sizes}"):
            factors = tuple(rng.dirichlet(np.ones(s)) for s in sizes)
            want.append(ProductEnsemble(factors, sample_psd(d, 0.0, rng, count=math.prod(sizes))))
        assert rows(ProductEnsemble, got) == list(map(_fields, want)), sizes

    counts = [2, 1, 3, 2, 4]
    got = random_unital_channel(d, counts, _chunk(d, "channel"))
    want = []
    for rng, k in zip(_chunk(d, "channel"), counts):
        weights = rng.dirichlet(np.ones(k))
        U = haar_unitary(d, rng, count=k)
        want.append(KrausChannel(np.sqrt(weights)[:, None, None] * U))
    assert rows(KrausChannel, got) == list(map(_fields, want))
    # Each channel's operators past its own count are zeros.
    assert got[1].tolist() == counts
    assert not any(K[k:].any() for K, k in zip(got[0], counts))


_GOOD = [sample_psd(2, 0.5, seed) for seed in range(6)]
_NOT_TP = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])  # unital only
_BAD_OBJECTS = {  # an ensemble's atom 1, its weight row, or a channel's Kraus stack
    "atom-non-hermitian": np.array([[1.0, 0.5], [0.0, 1.0]]),
    "atom-not-psd": np.diag([1.0, -0.5]),
    "atom-nan": np.array([[np.nan, 0.0], [0.0, 1.0]]),
    "weights-nan": np.array([np.nan, 0.5, 0.5]),
    "weights-outside": np.array([0.7, 0.7, -0.4]),
    "weights-sum": np.array([0.5, 0.4, 0.0]),
    "kraus-not-unital": 1.1 * np.eye(2)[None],
    "kraus-not-tp": _NOT_TP,
    "kraus-inf": np.array([[[np.inf, 0.0], [0.0, 1.0]]]),
}


def _raised(call) -> tuple:
    with pytest.raises(PhiLabError) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("bad", sorted(_BAD_OBJECTS))
@pytest.mark.parametrize("position", (0, 1, 2))
def test_chunk_with_one_bad_object_raises_like_its_constructor(bad, position):
    value = _BAD_OBJECTS[bad]
    if bad.startswith("kraus"):
        k = len(value)  # the good channels: k copies of I / sqrt(k)
        kraus = np.broadcast_to(np.eye(2) / np.sqrt(k), (3, k, 2, 2)).astype(complex)
        kraus[position] = value
        alone = _raised(lambda: KrausChannel(value))
        assert _raised(lambda: KrausChannel.stack(kraus)) == alone
        return
    weights = np.full((3, 3), 1.0 / 3.0)
    atoms = np.stack([_GOOD[:3], _GOOD[1:4], _GOOD[2:5]]).astype(complex)
    if bad.startswith("weights"):
        weights[position] = value
    else:
        atoms[position, 1] = value
    alone = _raised(lambda: MatrixEnsemble(weights[position], atoms[position]))
    assert _raised(lambda: MatrixEnsemble.stack(weights, atoms)) == alone
    # As products of a 3-outcome factor and a 1-outcome one.
    rows = [weights, np.ones((3, 1))]
    alone = _raised(lambda: ProductEnsemble((weights[position], np.ones(1)), atoms[position]))
    assert _raised(lambda: ProductEnsemble.stack(rows, atoms)) == alone


@pytest.mark.parametrize("check, matrices", [
    ("subadditivity", 5 * 4), ("dual_representation", 5 * 2 * 3), ("monotonicity", 5 * 3)])
def test_a_sweep_chunk_checks_its_drawn_atoms_once(check, matrices, monkeypatch):
    # One chunk of five trials: every drawn object's atoms go through one
    # checked_atoms call, and no constructor runs.
    calls = []
    checked_atoms = entropy.checked_atoms
    monkeypatch.setattr(entropy, "checked_atoms",
                        lambda mats, name: calls.append(len(mats)) or checked_atoms(mats, name))
    for cls in (MatrixEnsemble, ProductEnsemble, KrausChannel):
        monkeypatch.setattr(cls, "__post_init__", lambda self: pytest.fail("constructor ran"))
    config = RunConfig(trials=5, dims=(2,))
    report = sweep(config, check, SWEEPS[check][0], XLX, "trace", 2)
    assert report.holds
    assert calls == [matrices]
