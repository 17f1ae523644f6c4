"""Percentiles that count failures, and the failure tally."""

from __future__ import annotations

import math
from collections import Counter
from typing import Optional, Sequence

FAILED = None  # a sample whose op failed; it has no time


def percentile(samples: Sequence[Optional[float]], p: float) -> Optional[float]:
    """Linearly interpolated percentile, every failure ranked above every success.

    Failures sit at the top of the order with no time.  Returns ``None``
    ("unmet") when the percentile needs a failure's time, or when there are
    no samples.
    """
    if not samples:
        return None
    ok = sorted(s for s in samples if s is not FAILED)
    pos = (len(samples) - 1) * p / 100
    lo = math.floor(pos)
    frac = pos - lo
    if lo >= len(ok) or (frac and lo + 1 >= len(ok)):
        return None
    return ok[lo] + (ok[lo + 1] - ok[lo]) * frac if frac else ok[lo]


def per_input(groups: Sequence[Sequence[Optional[float]]]) -> list[Optional[float]]:
    """The median of each input's repeated samples; failed when it lands on a failure."""
    return [percentile(group, 50) for group in groups]


def fail_ratio(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no op was attempted")
    return failed / attempted


class Tally:
    """Ops attempted and failed, and failures keyed by how they failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # ops that exited 0 with output the oracle rejects
        self.reasons: Counter = Counter()

    def record(self, cmd: str, failure: Optional[str], wrong: bool = False) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            self.wrong += wrong
            self.reasons[f"{cmd}: {failure}"] += 1

    @classmethod
    def from_dict(cls, d: dict) -> "Tally":
        tally = cls()
        tally.attempted, tally.failed, tally.wrong = d["attempted"], d["failed"], d["wrong"]
        tally.reasons.update(d["by_reason"])
        return tally

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "wrong": self.wrong,
            "fail_ratio": fail_ratio(self.attempted, self.failed),
            "by_reason": dict(sorted(self.reasons.items())),
        }
