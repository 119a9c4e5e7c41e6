"""Run-level observability: phase tracing, named counters, run reports.

The paper compares algorithms by *database scans per phase*; this
package makes that metric (and its neighbours: pattern counters,
probe rounds, factor-pin traffic) a native
output of every miner instead of a number inferred from one total.

* :class:`Tracer` — nested phase spans with monotonic timers and named
  counters; ``tracer=None`` everywhere resolves to the shared no-op
  :data:`NULL_TRACER` so untraced runs pay nothing.
* :class:`RunReport` / :class:`PhaseReport` — the frozen, serialisable
  form attached to every traced ``MiningResult`` and emitted by the
  CLI's ``--metrics-json``.
"""

from __future__ import annotations

from .report import (
    PhaseReport,
    REPORT_SCHEMA_VERSION,
    RunReport,
    phase_report_from_span,
)
from .tracer import (
    AMBIGUOUS_REMAINING,
    BORDER_REPROBES,
    CANDIDATE_GEN_SECONDS,
    CANDIDATES_GENERATED,
    DELTA_PATTERNS_COUNTED,
    DELTA_SCANS,
    FACTOR_CACHE_HITS,
    FACTOR_CACHE_MISSES,
    IO_BYTES_READ,
    IO_CHUNK_SECONDS,
    IO_CHUNKS,
    IO_COUNTER_ATTRS,
    NULL_TRACER,
    NullTracer,
    PATTERNS_COUNTED,
    PROBE_ROUNDS,
    PROBES,
    RESIDENT_PLANE_BYTES,
    RESIDENT_PLANE_HITS,
    RESIDENT_PLANE_MISSES,
    RESULT_MEMO_HITS,
    LATTICE_CANDIDATES,
    SAMPLE_PATTERNS_COUNTED,
    SAMPLE_SCANS,
    SCANS,
    STORE_CACHE_HITS,
    STORE_CACHE_MISSES,
    SUBSUMPTION_CHECKS,
    SUBSUMPTION_SKIPPED,
    Span,
    Tracer,
    ensure_tracer,
    io_snapshot,
    record_io,
)

__all__ = [
    "AMBIGUOUS_REMAINING",
    "BORDER_REPROBES",
    "CANDIDATE_GEN_SECONDS",
    "CANDIDATES_GENERATED",
    "DELTA_PATTERNS_COUNTED",
    "DELTA_SCANS",
    "FACTOR_CACHE_HITS",
    "FACTOR_CACHE_MISSES",
    "IO_BYTES_READ",
    "IO_CHUNKS",
    "IO_CHUNK_SECONDS",
    "IO_COUNTER_ATTRS",
    "LATTICE_CANDIDATES",
    "NULL_TRACER",
    "NullTracer",
    "PATTERNS_COUNTED",
    "PROBE_ROUNDS",
    "PROBES",
    "PhaseReport",
    "REPORT_SCHEMA_VERSION",
    "RESIDENT_PLANE_BYTES",
    "RESIDENT_PLANE_HITS",
    "RESIDENT_PLANE_MISSES",
    "RESULT_MEMO_HITS",
    "RunReport",
    "SAMPLE_PATTERNS_COUNTED",
    "SAMPLE_SCANS",
    "SCANS",
    "STORE_CACHE_HITS",
    "STORE_CACHE_MISSES",
    "SUBSUMPTION_CHECKS",
    "SUBSUMPTION_SKIPPED",
    "Span",
    "Tracer",
    "ensure_tracer",
    "io_snapshot",
    "phase_report_from_span",
    "record_io",
]
