"""Span tracer that wraps phi_entropy_lab functions from outside the package.

Each wrapped call records one span (name, start, end, parent).  Spans live in
flat arrays while tracing and are written out once, at the end of a run.  A
span's self time is its duration minus the time its direct child spans cover;
calls run on one thread, so children nest inside their parent.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Layer -> functions, as (module, attribute path).  Layers are named after the
# package modules; "linalg" is the numpy kernels every module calls, and
# "reports" is witness encode/decode wherever it is defined.
LAYERS = {
    "spectral": [
        ("spectral", "validate_hermitian"),
        ("spectral", "spectral_decompose"),
        ("spectral", "apply_scalar_function"),
        ("spectral", "apply_scalar_function_stack"),
        ("spectral", "hermitian_part"),
    ],
    "linalg": [
        ("numpy.linalg", "eigh"),
        ("numpy.linalg", "eigvalsh"),
        ("numpy.linalg", "svd"),
        ("numpy.linalg", "inv"),
    ],
    "catalog": [
        ("catalog", "dd1_grid"),
        ("catalog", "dd2_grid"),
        ("catalog", "dd3_grid"),
        ("catalog", "ScalarFunction.deriv"),
    ],
    "frechet": [
        ("frechet", "frechet_d1"),
        ("frechet", "frechet_d2"),
        ("frechet", "frechet_d3"),
        ("frechet", "finite_diff_oracle"),
        ("frechet", "superop_matrix"),
        ("frechet", "superop_inverse"),
    ],
    "characterizations": [
        ("characterizations", "eval_functional"),
        ("characterizations", "convexity_slack_at"),
        ("characterizations", "inverse_derivative_quadratic_form"),
        ("characterizations", "condition_a_slack"),
        ("characterizations", "condition_e_margin"),
        ("characterizations", "conditional_jensen_gap"),
    ],
    "entropy": [
        ("entropy", "MatrixEnsemble.__post_init__"),
        ("entropy", "ProductEnsemble.__post_init__"),
        ("entropy", "operator_phi_entropy"),
        ("entropy", "subadditivity_gap"),
        ("entropy", "efron_stein_quantity"),
        ("entropy", "dual_value"),
    ],
    "channels": [
        ("channels", "pushforward"),
        ("channels", "monotonicity_gap"),
        ("channels", "random_unital_channel"),
    ],
    "sampling": [
        ("sampling", "rng_for"),
        ("sampling", "sample_psd"),
        ("sampling", "sample_hermitian_unit"),
        ("sampling", "sample_product"),
        ("sampling", "sample_ensemble"),
        ("sampling", "sample_coupled_ensembles"),
    ],
    "reports": [
        ("spectral", "matrix_to_json"),
        ("spectral", "matrix_from_json"),
        ("entropy", "MatrixEnsemble.to_json_dict"),
        ("entropy", "MatrixEnsemble.from_json_dict"),
        ("entropy", "ProductEnsemble.to_json_dict"),
        ("entropy", "ProductEnsemble.from_json_dict"),
        ("channels", "KrausChannel.to_json_dict"),
        ("channels", "KrausChannel.from_json_dict"),
        ("reports", "VerificationReport.from_margin"),
        ("suite", "SuiteReport.to_json_dict"),
    ],
    "suite": [
        ("suite", "run_suite"),
        ("suite", "counterexample_search"),
        ("suite", "replay_witness"),
    ],
    "cli": [
        ("cli", "main"),
    ],
}

PACKAGE = "phi_entropy_lab"


def span_names() -> list:
    """Every traced name, as "<layer>.<function>"."""
    return [f"{layer}.{attr}" for layer, targets in LAYERS.items() for _, attr in targets]


class Tracer:
    """Patches the listed functions while active and records one span per call."""

    def __init__(self):
        self.names = span_names()
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = []
        self._restore = []

    def _wrap(self, name_id: int, fn):
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for name_id, (module_name, attr) in enumerate(
                target for targets in LAYERS.values() for target in targets):
            full = module_name if module_name.startswith("numpy") else f"{PACKAGE}.{module_name}"
            module = sys.modules[full]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._set(cls, meth, classmethod(self._wrap(name_id, raw.__func__)))
                else:
                    self._set(cls, meth, self._wrap(name_id, raw))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name_id, original)
            # Rebind every module-level name that from-imported the function,
            # so that calls between layers are caught too.
            for owner in [module, *(m for m in modules if m is not module)]:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._set(owner, key, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def mark(self) -> int:
        """Index of the next span; spans between two marks belong to one repetition."""
        return len(self.starts)

    def summary(self, lo: int, hi: int) -> dict:
        """Calls and self seconds per traced name for spans lo..hi.

        The range must hold whole top-level calls, so that every parent of a
        span in it lies in it too.
        """
        ids = np.array(self.name_ids[lo:hi])
        parents = np.array(self.parents[lo:hi]) - lo
        duration = np.array(self.ends[lo:hi]) - np.array(self.starts[lo:hi])
        nested = parents >= 0
        covered = np.bincount(parents[nested], weights=duration[nested], minlength=len(ids))
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        seconds = np.bincount(ids, weights=duration - covered, minlength=n)
        return {name: (int(calls[k]), float(seconds[k])) for k, name in enumerate(self.names)}

    def save(self, path) -> None:
        """Write every span as arrays: name id, parent index, start, end (seconds)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_ids),
            parent=np.array(self.parents),
            start=np.array(self.starts),
            end=np.array(self.ends),
        )
