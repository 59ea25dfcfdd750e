"""Structured pass/fail records for exact verification sweeps."""

from __future__ import annotations

from collections import namedtuple

# one failing parameter point with both sides of the broken equality
Witness = namedtuple("Witness", "parameters computed expected")


class VerificationReport:
    """A sweep's name, its box as (name, span) pairs, the points checked, and a
    witness per failing point; `failures` and `notes` start as fresh lists."""

    def __init__(self, identity_name: str, parameter_box: list[tuple[str, str]]) -> None:
        self.identity_name = identity_name
        self.parameter_box = parameter_box
        self.points_checked = 0
        self.failures: list[Witness] = []
        self.notes: list[str] = []

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, parameters: dict[str, object], computed: object, expected: object) -> None:
        """Count one checked point; file a witness if the sides disagree."""
        self.points_checked += 1
        if computed != expected:
            self.failures.append(Witness(dict(parameters), computed, expected))

    def as_dict(self) -> dict[str, object]:
        return {
            "identity": self.identity_name,
            "box": [f"{name}={span}" for name, span in self.parameter_box],
            "points_checked": self.points_checked,
            "passed": self.passed,
            "failures": [
                {
                    "parameters": {k: str(v) for k, v in w.parameters.items()},
                    "computed": str(w.computed),
                    "expected": str(w.expected),
                }
                for w in self.failures
            ],
            "notes": list(self.notes),
        }
