"""Phase tracing: nested timed spans with named counters.

The paper's entire cost analysis is phrased as *database scans consumed
per phase* (Algorithms 4.1-4.4): one Phase-1 scan, zero Phase-2 scans
(the sample is memory-resident), and a handful of Phase-3 probe scans.
:class:`Tracer` makes that accounting observable at run time instead of
inferable from a single total: miners open a span per phase (and per
probe round), and every component that consumes or saves work reports
it through named counters — scans, patterns counted, candidates
generated, factor-pin hits, and so on.

Design constraints, in order:

1. **Zero cost when unused.**  Every traced function takes
   ``tracer=None`` and resolves it through :func:`ensure_tracer` to the
   shared :data:`NULL_TRACER`, whose methods are empty and whose
   ``phase`` returns one reusable no-op context manager.  The hot
   kernels never branch on tracing more than once per batch.
2. **Counters roll up.**  ``count()`` adds to every span on the current
   stack, so a span's counters always include its descendants and the
   root totals are the whole run's.  The acceptance invariant — the
   per-phase ``"scans"`` counters of the top-level spans sum exactly to
   the database's ``scan_count`` — follows directly.
3. **Monotonic timers.**  Span timing uses ``time.perf_counter`` so
   wall-clock adjustments never produce negative phase durations.
4. **Thread-safe recording.**  The mining service runs jobs on worker
   threads and reads progress from request-handler threads, so every
   mutation of shared span state (counter dicts, note dicts, child
   lists) happens under one tracer-wide lock, and the *span stack* is
   thread-local: each thread nests its own phases under the shared
   root, so concurrent ``phase()`` scopes never corrupt each other's
   nesting.  :meth:`Tracer.snapshot` freezes a consistent live view of
   the whole tree — the source of the daemon's streamed phase progress.

A tracer records one run: create a fresh one per ``mine()`` call (the
CLI and the eval harness do).  Reusing a tracer across runs simply
accumulates spans and counters, which is occasionally useful for
aggregate accounting but mixes phases in the report.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterator, List, Optional

from ..errors import MiningError

#: Canonical counter names (engines and miners agree on these; the
#: report schema test pins them).
SCANS = "scans"
SAMPLE_SCANS = "sample_scans"
PATTERNS_COUNTED = "patterns_counted"
SAMPLE_PATTERNS_COUNTED = "sample_patterns_counted"
CANDIDATES_GENERATED = "candidates_generated"
AMBIGUOUS_REMAINING = "ambiguous_remaining"
PROBE_ROUNDS = "probe_rounds"
PROBES = "probes"
#: Chunks the counting engine's factor pin served / gathered.
FACTOR_CACHE_HITS = "factor_cache_hits"
FACTOR_CACHE_MISSES = "factor_cache_misses"
#: Factor rows the counting engine's walks gathered: a test hook that
#: checks a walk gathers only its read set, not a benchmark metric.
FACTOR_ROWS_GATHERED = "factor_rows_gathered"
RESIDENT_PLANE_HITS = "resident_plane_hits"
RESIDENT_PLANE_MISSES = "resident_plane_misses"
RESIDENT_PLANE_BYTES = "resident_plane_bytes"
IO_BYTES_READ = "io_bytes_read"
IO_CHUNKS = "io_chunks"
IO_CHUNK_SECONDS = "io_chunk_seconds"
SUBSUMPTION_CHECKS = "subsumption_checks"
SUBSUMPTION_SKIPPED = "subsumption_skipped"
LATTICE_CANDIDATES = "lattice_candidates"
CANDIDATE_GEN_SECONDS = "candidate_gen_seconds"
STORE_CACHE_HITS = "store_cache_hits"
STORE_CACHE_MISSES = "store_cache_misses"
RESULT_MEMO_HITS = "result_memo_hits"
DELTA_SCANS = "delta_scans"
DELTA_PATTERNS_COUNTED = "delta_patterns_counted"
BORDER_REPROBES = "border_reprobes"

#: The disk-resident backends' lifetime I/O accumulators, in the order
#: they are snapshotted.  ``io_chunk_seconds`` is a float counter —
#: like ``candidate_gen_seconds``, an exception to the
#: counters-are-integers rule.
IO_COUNTER_ATTRS = (IO_BYTES_READ, IO_CHUNKS, IO_CHUNK_SECONDS)


def io_snapshot(database) -> tuple:
    """Snapshot the I/O accumulators of *database* (zeros when the
    backend has none, e.g. the in-memory database)."""
    return tuple(
        getattr(database, name, 0) for name in IO_COUNTER_ATTRS
    )


def record_io(tracer: "Tracer", database, before: tuple) -> None:
    """Record the I/O delta since *before* on the current span stack.

    Duck-typed over the backend: :class:`FileSequenceDatabase` and the
    packed store expose ``io_bytes_read`` / ``io_chunks`` /
    ``io_chunk_seconds``; backends without them contribute nothing.
    Call around each scan-consuming step so nested spans (phases, probe
    rounds) each carry their own I/O traffic.
    """
    if not tracer.enabled:
        return
    for name, base in zip(IO_COUNTER_ATTRS, before):
        delta = getattr(database, name, 0) - base
        if delta:
            tracer.count(name, delta)


class Span:
    """A named, timed scope of a run, with counters and notes.

    Counters are additive integers (scans, patterns, cache hits);
    notes are point-in-time values (worker counts, remaining ambiguous
    patterns after a round) that would be meaningless summed.
    """

    __slots__ = ("name", "counters", "notes", "children",
                 "elapsed_seconds", "_started")

    def __init__(self, name: str):
        self.name = name
        self.counters: Dict[str, int] = {}
        self.notes: Dict[str, object] = {}
        self.children: List["Span"] = []
        self.elapsed_seconds = 0.0
        self._started: Optional[float] = None

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    @property
    def scans(self) -> int:
        """Database passes consumed inside this span (descendants
        included)."""
        return self.counters.get(SCANS, 0)

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.elapsed_seconds:.3f}s, "
            f"counters={self.counters})"
        )


class _SpanContext:
    """Context manager returned by :meth:`Tracer.phase`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._span._started = time.perf_counter()
        self._tracer._stack.append(self._span)
        return self._span

    def __exit__(self, *_exc) -> None:
        span = self._tracer._stack.pop()
        if span is not self._span:  # pragma: no cover - misuse guard
            raise MiningError(
                f"tracer phases closed out of order: expected "
                f"{self._span.name!r}, got {span.name!r}"
            )
        elapsed = time.perf_counter() - span._started
        with self._tracer._lock:
            span.elapsed_seconds += elapsed
            span._started = None


class _NullSpanContext:
    """Reusable no-op context manager (one shared instance)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *_exc) -> None:
        return None


_NULL_SPAN_CONTEXT = _NullSpanContext()


class Tracer:
    """Collects nested phase spans and named counters for one run.

    Usage::

        tracer = Tracer()
        with tracer.phase("phase1-scan"):
            ...
            tracer.count("scans")
        report = tracer.report(algorithm="levelwise", engine="vectorized",
                               scans=..., elapsed_seconds=...)
    """

    #: False only on :class:`NullTracer`; lets hot paths skip optional
    #: bookkeeping (e.g. cache-counter snapshots) in one check.
    enabled = True

    def __init__(self):
        self._root = Span("run")
        self._root._started = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._local.stack = [self._root]

    @property
    def _stack(self) -> List[Span]:
        """This thread's span stack (rooted at the shared root span).

        Threads other than the creator start with a fresh stack, so
        their phases attach to the root as top-level spans — concurrent
        scopes never pop each other's frames.
        """
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [self._root]
        return stack

    # -- recording ------------------------------------------------------------

    def phase(self, name: str) -> _SpanContext:
        """Open a nested span; use as a context manager."""
        span = Span(name)
        with self._lock:
            self._stack[-1].children.append(span)
        return _SpanContext(self, span)

    def count(self, name: str, n: int = 1) -> None:
        """Add *n* to counter *name* on every span of the current stack.

        Rolling up at record time keeps every span's counters inclusive
        of its descendants — the property the per-phase scan invariant
        relies on.  Thread-safe: the root span is shared by every
        thread's stack, so increments serialise under the tracer lock.
        """
        with self._lock:
            for span in self._stack:
                span.count(name, n)

    def annotate(self, key: str, value: object) -> None:
        """Attach a point-in-time note to the **current** span."""
        with self._lock:
            self._stack[-1].notes[key] = value

    def note(self, key: str, value: object) -> None:
        """Attach a run-level note (lands in ``RunReport.context``)."""
        with self._lock:
            self._root.notes[key] = value

    # -- introspection --------------------------------------------------------

    @property
    def root(self) -> Span:
        return self._root

    def phases(self) -> List[Span]:
        """The top-level spans recorded so far."""
        with self._lock:
            return list(self._root.children)

    def total(self, name: str) -> int:
        """The run-wide total of one counter."""
        with self._lock:
            return self._root.counters.get(name, 0)

    def totals(self) -> Dict[str, int]:
        """All run-wide counter totals."""
        with self._lock:
            return dict(self._root.counters)

    def walk(self) -> Iterator[Span]:
        """Every span, depth first, root first."""
        stack = [self._root]
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    def snapshot(self) -> Dict[str, object]:
        """A consistent live view of the span tree, safe to read from
        another thread while the run is in flight.

        Open spans (the run root, the phase currently executing) report
        their elapsed time up to *now*; the shape of each node matches
        the :class:`~repro.obs.report.PhaseReport` wire form plus an
        ``"open"`` flag.  This is what the daemon streams as phase
        progress before a job's final :class:`RunReport` exists.
        """
        with self._lock:
            return _freeze_span(self._root, time.perf_counter())

    def report(
        self,
        algorithm: str,
        engine: str,
        scans: int,
        elapsed_seconds: float,
    ) -> "RunReport":
        """Freeze the recorded spans into a :class:`RunReport`."""
        from .report import RunReport, phase_report_from_span

        return RunReport(
            algorithm=algorithm,
            engine=engine,
            scans=scans,
            elapsed_seconds=elapsed_seconds,
            phases=[
                phase_report_from_span(span) for span in self._root.children
            ],
            counters=self.totals(),
            context=dict(self._root.notes),
        )


class NullTracer(Tracer):
    """The no-op tracer: every method does nothing, reports are ``None``.

    One shared instance (:data:`NULL_TRACER`) backs every untraced run;
    the class allocates no spans at all, so the only residual cost on
    traced code paths is an attribute lookup and an empty call.
    """

    enabled = False

    def __init__(self):  # deliberately no span allocation
        pass

    def phase(self, name: str) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    def count(self, name: str, n: int = 1) -> None:
        return None

    def annotate(self, key: str, value: object) -> None:
        return None

    def note(self, key: str, value: object) -> None:
        return None

    @property
    def root(self) -> Span:
        raise MiningError("the null tracer records nothing")

    def phases(self) -> List[Span]:
        return []

    def total(self, name: str) -> int:
        return 0

    def totals(self) -> Dict[str, int]:
        return {}

    def walk(self) -> Iterator[Span]:
        return iter(())

    def snapshot(self) -> Dict[str, object]:
        return {}

    def report(self, *args, **kwargs) -> None:  # type: ignore[override]
        return None


def _freeze_span(span: Span, now: float) -> Dict[str, object]:
    """Copy one span (and subtree) to plain dicts; caller holds the lock."""
    is_open = span._started is not None
    elapsed = span.elapsed_seconds + (now - span._started if is_open else 0.0)
    return {
        "name": span.name,
        "elapsed_seconds": elapsed,
        "open": is_open,
        "counters": dict(span.counters),
        "notes": dict(span.notes),
        "children": [_freeze_span(c, now) for c in span.children],
    }


#: The shared no-op tracer every ``tracer=None`` resolves to.
NULL_TRACER = NullTracer()


def ensure_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Resolve an optional tracer argument to a usable instance."""
    return tracer if tracer is not None else NULL_TRACER
