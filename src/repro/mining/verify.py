"""Post-hoc verification of mining results.

A :class:`~repro.mining.result.MiningResult` makes three structural
promises: every reported pattern meets the threshold, the reported set
is downward closed (Apriori), and the border is exactly the set of
maximal reported patterns.  :func:`verify_result` checks all three —
optionally re-measuring every match against the database — and returns
a structured report.  It is used by the test-suite as an oracle and is
handy for users integrating the library into pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..core.border import Border
from ..core.compatibility import CompatibilityMatrix
from ..core.lattice import PatternConstraints
from ..core.pattern import Pattern
from ..core.sequence import AnySequenceDatabase
from ..engine import MatchEngine, VectorizedBatchEngine
from .result import MiningResult

#: Tolerance when re-measuring match values (sample-estimated values in
#: probabilistic results can differ from the exact ones).
DEFAULT_TOLERANCE = 1e-9


@dataclass
class VerificationReport:
    """Outcome of :func:`verify_result`; falsy when any check failed."""

    threshold_violations: List[Pattern] = field(default_factory=list)
    closure_violations: List[Pattern] = field(default_factory=list)
    border_mismatch: bool = False
    value_mismatches: List[Pattern] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (
            self.threshold_violations
            or self.closure_violations
            or self.border_mismatch
            or self.value_mismatches
        )

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        if self.ok:
            return "result verified: all structural checks passed"
        parts = []
        if self.threshold_violations:
            parts.append(
                f"{len(self.threshold_violations)} below threshold"
            )
        if self.closure_violations:
            parts.append(
                f"{len(self.closure_violations)} closure violations"
            )
        if self.border_mismatch:
            parts.append("border mismatch")
        if self.value_mismatches:
            parts.append(f"{len(self.value_mismatches)} value mismatches")
        return "result verification FAILED: " + ", ".join(parts)


def verify_result(
    result: MiningResult,
    min_match: float,
    constraints: Optional[PatternConstraints] = None,
    database: Optional[AnySequenceDatabase] = None,
    matrix: Optional[CompatibilityMatrix] = None,
    tolerance: float = DEFAULT_TOLERANCE,
    engine: Optional[MatchEngine] = None,
) -> VerificationReport:
    """Check a mining result's structural invariants.

    Parameters
    ----------
    result:
        The result to inspect.
    min_match:
        The threshold the run was configured with.
    constraints:
        When given, closure checking is restricted to subpatterns the
        constraints admit (as the miner's search space was).
    database, matrix:
        When both are given, every reported match value is re-measured
        exactly (costs one scan) and compared within *tolerance*.
        Use a larger tolerance for probabilistic results whose interior
        values are sample estimates.
    """
    report = VerificationReport()

    # 1. Threshold: every reported value meets the bar.
    for pattern, value in result.frequent.items():
        if value < min_match - tolerance:
            report.threshold_violations.append(pattern)

    # 2. Downward closure: subpatterns of reported patterns (inside the
    #    constrained lattice) are reported too.
    reported = set(result.frequent)
    for pattern in reported:
        for sub in pattern.immediate_subpatterns():
            if constraints is not None and not constraints.admits(sub):
                continue
            if sub not in reported:
                report.closure_violations.append(sub)

    # 3. Border: exactly the maximal antichain of the reported set.
    if Border(reported) != result.border:
        report.border_mismatch = True

    # 4. Optional exact re-measurement.
    if database is not None and matrix is not None and reported:
        engine = engine if engine is not None else VectorizedBatchEngine()
        exact = engine.database_matches(
            sorted(reported), database, matrix
        )
        for pattern, value in result.frequent.items():
            if abs(exact[pattern] - value) > tolerance:
                report.value_mismatches.append(pattern)

    return report
