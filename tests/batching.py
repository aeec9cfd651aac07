"""Run the suite's records batched or one point at a time, recording margins.

A sweep hands a record a chunk: the columns of its trials, with a leading
trial axis (every trial of a report at small d), and the record evaluates
them as one stack.  The counterexample search hands it chunks of 8, 16,
32, ... random draws; ``check`` and ``replay_witness`` hand it a chunk of
one trial.  The context manager below lets a test run the same suite or
search both ways and compare.
"""

import contextlib
import dataclasses

import numpy as np

from phi_entropy_lab import suite


def trials(kind: str, chunk: dict) -> tuple:
    """(n, L): the trials of a record's chunk, and the weights lambda each
    trial takes (1 for a record without them)."""
    fields = dict(suite.CHECKS[kind].fields)
    for key in fields:
        column = chunk[key]
        if isinstance(column, tuple):  # ensembles, products and channels
            column = column[-1]
        if isinstance(column, (np.ndarray, list)):
            return len(column), chunk["lambda"].shape[1] if "lambda" in fields else 1
    raise AssertionError(f"a {kind} chunk without columns")


def points(kind: str, chunk: dict) -> list:
    """Every point of a record's chunk, trial by trial and weight by weight."""
    n, weights = trials(kind, chunk)
    return [suite._point(kind, chunk, i, j) for i in range(n) for j in range(weights)]


@contextlib.contextmanager
def recorded_margins(one_at_a_time: bool):
    """Yield a list that collects every margin the records return in the block.

    With one_at_a_time each point is evaluated alone, as a chunk of one
    trial built from the point's values (``suite._column``).
    """
    seen = []
    originals = dict(suite.CHECKS)

    def wrap(kind, margin):
        def margins(chunk):
            if one_at_a_time:
                alone = [np.ravel(margin(suite._column(kind, p)))[0] for p in points(kind, chunk)]
                out = np.reshape(alone, (trials(kind, chunk)[0], -1))
            else:
                out = margin(chunk)
            seen.extend(np.ravel(out).tolist())
            return out
        return margins

    try:
        for kind, record in originals.items():
            suite.CHECKS[kind] = dataclasses.replace(record, margin=wrap(kind, record.margin))
        yield seen
    finally:
        suite.CHECKS.update(originals)
