"""Property tests of single-point reports: witness replay and tolerance rule.

For every record of ``CHECKS``, a point drawn the way a suite trial
draws it must give a witness that replays, after a JSON round trip, to
exactly the reported margin, under exactly the record's tolerance.

Every record with a variant reads the normalised trace or the least
eigenvalue of an operator gap, so a d = 1 point with each scalar a replaced
by a I_k has the d = 1 margins in both forms.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phi_entropy_lab import (
    C2,
    C3,
    KrausChannel,
    MatrixEnsemble,
    ProductEnsemble,
    builtin,
    check,
    replay_witness,
)
from phi_entropy_lab.characterizations import FUNCTIONAL_NAMES
from phi_entropy_lab.cli import main
from phi_entropy_lab.errors import ConfigError
from phi_entropy_lab.sampling import rng_for, sample_hermitian, sample_psd
from phi_entropy_lab.spectral import matrix_to_json
from phi_entropy_lab.suite import _MATRICES, _MATRIX, CHECKS, RunConfig

KINDS = tuple(CHECKS)
CONFIG = RunConfig()


def _draw_lemma(rngs, d, base):
    """The convexity lemma is not swept by the suite, so its record has no draw."""
    (rng,) = rngs
    return [{"weights": rng.dirichlet(np.ones(3)),
             "A": [sample_psd(d, 0.5, rng) for _ in range(3)],
             "X": [sample_hermitian(d, rng) for _ in range(3)]}]


def _in_class_choices(kind):
    """(phi, variant) pairs the record's class gate admits, phi from the defaults."""
    keys = dict(CHECKS[kind].fields)
    variants = ("trace", "operator") if "variant" in keys else ("trace",)
    return [(name, variant) for name in CONFIG.phi_list for variant in variants
            if builtin(name).has_tag({"trace": C2, "operator": C3}[variant])]


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_check_witness_replays_to_its_margin(kind, data):
    record = CHECKS[kind]
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    d = data.draw(st.sampled_from((1, 2, 3)), label="d")
    name, variant = data.draw(st.sampled_from(_in_class_choices(kind)), label="phi, variant")
    p = data.draw(st.sampled_from((1, 2, 3)), label="p")
    functional = data.draw(st.sampled_from(FUNCTIONAL_NAMES), label="functional")
    base = {"phi": builtin(name), "variant": variant, "p": p, "functional": functional}
    draw = record.draw or _draw_lemma
    drawn = draw([rng_for(seed, "check-property", kind)], d, base)[0]
    point = {key: {**base, **drawn}[key] for key, _ in record.fields}

    report = check(kind, **point)

    witness = json.loads(json.dumps(report.witness))
    assert replay_witness(witness) == report.margin
    assert report.tolerance == record.tolerance([report.margin])


# Each record with a variant field, joint convexity once per functional.
VARIANT_CASES = [(kind, {}) for kind, record in CHECKS.items()
                 if "variant" in dict(record.fields) and kind != "joint_convexity"] + [
    ("joint_convexity", {"functional": name}) for name in FUNCTIONAL_NAMES]


def _times_identity(value, k):
    """A d = 1 value with every scalar a replaced by a I_k."""
    if isinstance(value, np.ndarray):
        return value[..., :1, :1] * np.eye(k)
    if isinstance(value, MatrixEnsemble):
        return MatrixEnsemble(value.weights, _times_identity(value.atoms, k))
    if isinstance(value, ProductEnsemble):
        return ProductEnsemble(value.factor_weights, _times_identity(value.atoms, k))
    if isinstance(value, KrausChannel):
        return KrausChannel(_times_identity(value.kraus, k))
    return value


@pytest.mark.parametrize("kind, fixed", VARIANT_CASES,
                         ids=[fixed.get("functional", kind) for kind, fixed in VARIANT_CASES])
def test_margins_at_scalar_multiples_of_the_identity_equal_the_d1_margins(kind, fixed):
    record = CHECKS[kind]
    for name in ("square", "xlogx", "quartic"):
        for variant in ("trace", "operator"):
            base = {"phi": builtin(name), "variant": variant, **fixed}
            rng = rng_for(3, "scalar-identity", kind, name, variant, *fixed.values())
            for drawn in record.draw([rng], 1, base):
                point = {key: {**base, **drawn}[key] for key, _ in record.fields}
                m1 = check(kind, override=True, **point).margin
                for k in (2, 3):
                    lifted = {key: _times_identity(v, k) for key, v in point.items()}
                    mk = check(kind, override=True, **lifted).margin
                    assert abs(mk - m1) <= 1e-12 * max(1.0, abs(m1)), (name, variant, k, m1, mk)


def _matrix_slots(record, point) -> list:
    """(key, None) for each matrix field of a point, (key, i) for each entry
    i of a list of matrices."""
    return [(key, i) for key, codec in record.fields if codec in (_MATRIX, _MATRICES)
            for i in ([None] if codec is _MATRIX else range(len(point[key])))]


# The records whose witnesses hold two or more matrices; a list holds two or more.
@pytest.mark.parametrize("kind", [kind for kind, record in CHECKS.items() if sum(
    1 if codec is _MATRIX else 2 if codec is _MATRICES else 0 for _, codec in record.fields) >= 2])
def test_witness_matrices_of_two_dims_are_refused(kind, tmp_path, capsys):
    # Each matrix of a d = 2 point in turn, alone replaced by I_3: check
    # refuses the point, and check --input and replay its witness.
    record = CHECKS[kind]
    base = {"phi": builtin("square"), "variant": "trace", "p": 2, "functional": "map_C"}
    drawn = (record.draw or _draw_lemma)([rng_for(4, "two-dims", kind)], 2, base)[0]
    point = {key: {**base, **drawn}[key] for key, _ in record.fields}
    witness = check(kind, override=True, **point).witness
    refused = f"the matrices of a {kind} witness must share one dim"
    for key, i in _matrix_slots(record, point):
        bad_point, bad_witness = {**point}, json.loads(json.dumps(witness))
        if i is None:
            bad_point[key], bad_witness[key] = np.eye(3), matrix_to_json(np.eye(3))
        else:
            bad_point[key] = [np.eye(3) if j == i else A for j, A in enumerate(point[key])]
            bad_witness[key][i] = matrix_to_json(np.eye(3))
        with pytest.raises(ConfigError, match=refused):
            check(kind, override=True, **bad_point)
        with pytest.raises(ConfigError, match=refused):
            replay_witness(bad_witness)
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(bad_witness))
        assert main(["check", "--input", str(path), "--override", "--quiet"]) == 2, (key, i)
        assert refused in capsys.readouterr().err
