"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracing.py`` names each traced function by module and attribute
and rebinds it by that name.  A rename or a move in the package makes
``Tracer`` fail on entry; this test catches that without running the
benchmark.  The file is loaded read-only from the repository.
"""

import importlib.util
from pathlib import Path

import phi_entropy_lab.cli  # noqa: F401  (the tracer patches every package module)
from phi_entropy_lab import builtin, check
from phi_entropy_lab import spectral
from phi_entropy_lab.sampling import sample_product

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_traced_name():
    tracing = _load_tracing()
    original = spectral.validate_hermitian
    tracer = tracing.Tracer()
    with tracer:
        assert spectral.validate_hermitian is not original
        check("subadditivity", phi=builtin("square"), variant="trace",
              product=sample_product(2, 2, 2, seed=1))
    assert spectral.validate_hermitian is original
    calls = tracer.summary(0, tracer.mark())
    assert set(calls) == set(tracing.span_names())
    assert calls["entropy.subadditivity_gap"][0] == 1
