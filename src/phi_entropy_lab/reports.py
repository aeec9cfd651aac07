"""Machine-readable verdicts for inequality and identity checks."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class VerificationReport:
    """Verdict of a single check: holds iff margin >= -tolerance.

    margin is the worst slack observed (a minimal eigenvalue or a scalar
    gap); witness carries JSON-serializable inputs sufficient to replay
    the worst case standalone.
    """

    check_name: str
    holds: bool
    margin: float
    tolerance: float
    trials: int = 1
    witness: dict | None = field(default=None)

    @classmethod
    def from_margin(cls, check_name: str, margin: float, tolerance: float,
                    trials: int = 1, witness: dict | None = None) -> "VerificationReport":
        margin = float(margin)
        tolerance = float(tolerance)
        return cls(check_name, bool(margin >= -tolerance), margin, tolerance,
                   int(trials), witness)

    def to_json_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "holds": self.holds,
            "margin": self.margin,
            "tolerance": self.tolerance,
            "trials": self.trials,
            "witness": self.witness,
        }
