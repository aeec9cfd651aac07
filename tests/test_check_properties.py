"""Property tests of single-point reports: witness replay and tolerance rule.

For every record of ``CHECKS``, a point drawn the way a suite trial
draws it must give a witness that replays, after a JSON round trip, to
exactly the reported margin, under exactly the record's tolerance.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phi_entropy_lab import C2, C3, builtin, check, replay_witness
from phi_entropy_lab.characterizations import FUNCTIONAL_NAMES
from phi_entropy_lab.sampling import rng_for, sample_hermitian, sample_psd
from phi_entropy_lab.suite import CHECKS, RunConfig

KINDS = tuple(CHECKS)
CONFIG = RunConfig()


def _draw_lemma(rngs, d, config, base):
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
    order = data.draw(st.sampled_from((1, 2, 3)), label="order")
    base = {"phi": builtin(name), "variant": variant, "p": p, "functional": functional,
            "order": order}
    draw = record.draw or _draw_lemma
    drawn = draw([rng_for(seed, "check-property", kind)], d, CONFIG, base)[0]
    point = {key: {**base, **drawn}[key] for key, _ in record.fields}

    report = check(kind, **point)

    witness = json.loads(json.dumps(report.witness))
    assert replay_witness(witness) == report.margin
    assert report.tolerance == record.tolerance([report.margin], point)
