"""The host's pace, read from a fixed yardstick.

A shared host runs the same code at different speeds for seconds to minutes
at a time (other tenants, a busy SMT sibling, clock changes): on a 2-core
Xeon VM, by up to 2x.  Such a change slows Python bytecode, tiny numpy calls
and dense LAPACK kernels alike, so the benchmark times a fixed piece of work
of each kind next to every span it measures and reports the span at
reference pace: ``span * REF_S / yardstick``, the time the span would take on
a host that runs the yardstick in ``REF_S`` seconds.

The yardstick never changes with the program: it uses numpy only, and binds
numpy's functions when this module is imported, so the tracer, which patches
``numpy.linalg`` later, does not see its calls.
"""

import time

import numpy as np

# Yardstick seconds at the reference pace: its usual time on a 2-core Xeon VM
# (numpy with OpenBLAS, one thread).  It only sets the unit of paced times.
REF_S = 0.025

_eigh = np.linalg.eigh
_svd = np.linalg.svd
_inv = np.linalg.inv

_rng = np.random.default_rng(1602_00233)
_SMALL = [m + m.T for m in _rng.standard_normal((8, 4, 4))]
_DENSE = _rng.standard_normal((128, 128))


def _work() -> None:
    # Interpreter work: dict and integer traffic, as in validation and bookkeeping.
    table = {}
    for i in range(60000):
        table[i & 255] = table.get((i * 7) & 255, 0) + i
    # Many tiny LAPACK calls, as in small-d sweeps.
    for _ in range(120):
        for m in _SMALL:
            _eigh(m)
    # Dense kernels, as in large-d superoperator inversion.
    for _ in range(2):
        _svd(_DENSE)
        _inv(_DENSE)


def yardstick() -> float:
    """Seconds the fixed piece of work takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
