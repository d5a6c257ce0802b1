"""Timed operations, their outcomes, and the end-to-end metrics built from
them: the part the in-RAM and stream workloads share."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

from common import median


@dataclass
class Tally:
    """Outcomes and timings of the operations of one phase, by kind (one
    kind per shape and direction)."""

    times: dict = field(default_factory=dict)
    nbytes: int = 0
    attempted: int = 0
    failed: int = 0

    def record(self, kind: str, seconds: float, nbytes: int, ok: bool) -> None:
        self.attempted += 1
        samples = self.times.setdefault(kind, [])  # a kind that only fails stays listed
        if ok:
            samples.append(seconds)
            self.nbytes += nbytes
        else:
            self.failed += 1

    def add(self, other: "Tally") -> None:
        """Fold another phase's operation counts into this one; timings
        stay with the phase that measured them."""
        self.attempted += other.attempted
        self.failed += other.failed

    @property
    def ops(self) -> int:
        return sum(len(t) for t in self.times.values())

    def p50_ms(self) -> float:
        return kind_median_ms(self.times)

    def e2e(self) -> dict:
        """``throughput_gb_s`` (Eq. 37 bytes over busy time) and ``op_ms_p50``.

        Both are NaN (not measured) when some kind has no successful
        operation: timing only the kinds that worked would read a fault
        that fails the slowest kind as a speed-up."""
        measured = bool(self.times) and all(self.times.values())
        busy = sum(sum(t) for t in self.times.values())
        return {
            "throughput_gb_s": (self.nbytes / busy / 1e9 if measured else math.nan, "GB/s"),
            "op_ms_p50": (self.p50_ms(), "ms"),
        }


def kind_median_ms(times: dict) -> float:
    """Geometric mean over operation kinds of each kind's median, in ms.

    Kinds of different sizes form separate clusters of times; a median of
    the pooled samples would fall on a boundary between two clusters and
    jump with their edges.  Each kind's own median is steady, and the
    geometric mean moves by the same factor whichever kind gets faster.
    With one kind this is that kind's median.  NaN when there is no kind,
    or a kind without a sample."""
    logs = [math.log(median(t)) for _, t in sorted(times.items())]
    return math.exp(sum(logs) / len(logs)) * 1e3 if logs else math.nan


def run_rounds(seconds: float, one_round) -> Tally:
    """Repeat whole rounds until ``seconds`` have passed (at least one):
    each round attempts the same operations, so a fault that fails every
    time fails the same share of every run."""
    tally = Tally()
    t_end = perf_counter() + seconds
    while True:
        one_round(tally)
        if perf_counter() >= t_end:
            return tally


def run_interleaved(seconds: float, one_round, modes: dict) -> dict:
    """Rounds under each mode in turn, until ``seconds`` have passed, with
    one tally per mode.  ``modes`` maps a name to a context-manager factory.

    Turns of one round each put every mode through the same stretch of
    host load, so the modes' difference is the modes', not the host's."""
    tallies = {name: Tally() for name in modes}
    t_end = perf_counter() + seconds
    while True:
        for name, scope in modes.items():
            with scope():
                one_round(tallies[name])
        if perf_counter() >= t_end:
            return tallies
