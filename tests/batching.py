"""Run the suite's records batched or one point at a time, recording margins.

A sweep hands a record any list of its points, in trial order (every trial
of a report at small d), and the record evaluates them as one stack.  The
counterexample search hands it stacks of random draws that double in size,
then the moves of its descent along predicted paths; ``check`` and
``replay_witness`` hand it one point.  The context manager
below lets a test run the same suite or search both ways and compare.
"""

import contextlib
import dataclasses

from phi_entropy_lab import suite


@contextlib.contextmanager
def recorded_margins(one_at_a_time: bool):
    """Yield a list that collects every margin the records return in the block.

    With one_at_a_time each point is evaluated alone, as a list of one.
    """
    seen = []
    originals = dict(suite.CHECKS)

    def wrap(margin):
        def margins(points):
            out = ([m for p in points for m in margin([p])] if one_at_a_time
                   else margin(points))
            seen.extend(out)
            return out
        return margins

    try:
        for kind, record in originals.items():
            suite.CHECKS[kind] = dataclasses.replace(record, margin=wrap(record.margin))
        yield seen
    finally:
        suite.CHECKS.update(originals)
