"""How the tests compare a matrix with a reference: relative error in the
Frobenius norm, one per matrix of stacks."""

import numpy as np

from phi_entropy_lab.spectral import frobenius


def relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1.0) -> np.ndarray:
    """Frobenius distance of a and b over max(|a|, |b|, floor); one per matrix of stacks."""
    a = np.asarray(a)
    b = np.asarray(b)
    return frobenius(a - b) / np.maximum(np.maximum(frobenius(a), frobenius(b)), floor)
