"""Verification reports: a small, JSON-stable result record.

Reports are deterministic for a fixed campaign and seed; elapsed_ms is
the one field that varies between runs, and the canonical serialization
can exclude it so byte-level comparisons are meaningful.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional

PASS = "PASS"
FAIL = "FAIL"
COUNTEREXAMPLE_FOUND = "COUNTEREXAMPLE_FOUND"
NO_COUNTEREXAMPLE_IN_BUDGET = "NO_COUNTEREXAMPLE_IN_BUDGET"

# process exit codes for the command line
EXIT_OK = 0
EXIT_FAIL = 2
EXIT_COUNTEREXAMPLE = 3
EXIT_USAGE = 64
EXIT_IO = 74


def detail(name: str, value) -> dict:
    return {"name": name, "value": value}


@dataclass
class Report:
    campaign: dict
    verdict: str
    trials: int
    details: List[dict] = field(default_factory=list)
    reproducer: Optional[dict] = None
    elapsed_ms: int = 0

    def exit_code(self) -> int:
        if self.verdict == FAIL:
            return EXIT_FAIL
        if self.verdict == COUNTEREXAMPLE_FOUND:
            return EXIT_COUNTEREXAMPLE
        return EXIT_OK

    def find(self, name: str):
        """Value of the first detail with the given name, else None."""
        for d in self.details:
            if d["name"] == name:
                return d["value"]
        return None

    def to_dict(self, include_elapsed: bool = True) -> dict:
        out = {
            "campaign": self.campaign,
            "verdict": self.verdict,
            "trials": self.trials,
            "details": self.details,
            "reproducer": self.reproducer,
        }
        if include_elapsed:
            out["elapsed_ms"] = self.elapsed_ms
        return out

    def to_json(self, include_elapsed: bool = True) -> str:
        return json.dumps(
            self.to_dict(include_elapsed), sort_keys=True, indent=2
        )
