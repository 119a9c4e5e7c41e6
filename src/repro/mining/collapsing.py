"""Phase 3: border collapsing (Algorithms 4.3 and 4.4).

After Phase 2, the patterns between the FQT and INFQT borders are
*ambiguous*: the sample was not conclusive about them.  A level-wise
verification would march through them one lattice level per scan; the
paper instead probes the **halfway layers** between the two borders —
a binary search through the lattice.  Every probed pattern decides more
than itself: a frequent probe certifies all its subpatterns frequent,
an infrequent probe condemns all its superpatterns (the Apriori
property), so each scan collapses the remaining ambiguous region by
roughly half (and more when a layer gets mixed labels, the paper's
Figure 6(b) scenario).

The probe schedule follows Algorithm 4.3: the halfway layer first, then
the quarter-way layers, the eighth-way layers, ... until the memory
budget (number of counters per scan) is filled; one database pass counts
all scheduled probes; labels propagate; repeat until no ambiguous
pattern remains.

Each probe round's single pass is executed through
:func:`~repro.mining.counting.count_matches_batched`, whose engines
stream the database via the chunked scan API — every scheduled probe of
the round is counted against each row block as it arrives, so a
disk-resident round touches each chunk exactly once, and the round's
I/O traffic lands on its own ``probe-round-N`` span in the run report.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..core.border import Border
from ..core.compatibility import CompatibilityMatrix
from ..core.latticekernels import filter_undecided
from ..core.pattern import Pattern
from ..core.sequence import AnySequenceDatabase
from ..engine import (
    MatchEngine,
    ResidentSampleEvaluator,
    select_engine,
    sibling_order,
)
from ..obs import (
    AMBIGUOUS_REMAINING,
    PROBE_ROUNDS,
    PROBES,
    Tracer,
    ensure_tracer,
)
from .counting import count_matches_batched, validate_memory_capacity
from .result import SampleClassification


@dataclass
class CollapseOutcome:
    """What border collapsing produced.

    Attributes
    ----------
    border:
        The final border of frequent patterns.
    verified:
        Exact database matches for every pattern probed in Phase 3.
    scans:
        Database passes consumed by Phase 3 alone.
    probe_rounds:
        The probe batches, in order (diagnostic; one scan each).
    """

    border: Border
    verified: Dict[Pattern, float]
    scans: int
    probe_rounds: List[List[Pattern]] = field(default_factory=list)


def layer_schedule(low: int, high: int) -> List[int]:
    """The halfway / quarter-way / eighth-way weight order.

    Given the weight range ``(low, high]`` of the ambiguous region,
    returns the lattice levels in the order Algorithm 4.3 fills memory:
    the halfway level first, then the halfway levels of each half, and
    so on (breadth-first binary subdivision).

    >>> layer_schedule(0, 5)
    [3, 1, 4, 2, 5]
    """
    if high <= low:
        return []
    order: List[int] = []
    seen: Set[int] = set()
    # A deque: the breadth-first subdivision pops from the front, and
    # ``list.pop(0)`` would shift the whole tail each time (O(n²) over
    # wide weight ranges).
    queue: Deque[Tuple[int, int]] = deque([(low, high)])
    while queue:
        a, b = queue.popleft()
        if b <= a:
            continue
        mid = math.ceil((a + b) / 2)
        if mid not in seen and a < mid <= high:
            seen.add(mid)
            order.append(mid)
        # Subdivide strictly: (a, mid-1] below, (mid, b] above.
        if mid - 1 > a:
            queue.append((a, mid - 1))
        if b > mid:
            queue.append((mid, b))
    # Any level not produced by subdivision (degenerate ranges) appended
    # in natural order so the schedule always covers (low, high].
    for level in range(low + 1, high + 1):
        if level not in seen:
            order.append(level)
    return order


def select_probe_batch(
    undecided: Set[Pattern],
    floor_weight: int,
    memory_capacity: Optional[int],
) -> List[Pattern]:
    """Choose the probes with the highest collapsing power.

    Patterns are drawn level by level following :func:`layer_schedule`
    over the ambiguous weight range, until *memory_capacity* counters
    are scheduled (or the region is exhausted).
    """
    if not undecided:
        return []
    by_weight: Dict[int, List[Pattern]] = {}
    for pattern in undecided:
        by_weight.setdefault(pattern.weight, []).append(pattern)
    high = max(by_weight)
    low = min(floor_weight, min(by_weight) - 1)
    batch: List[Pattern] = []
    budget = memory_capacity if memory_capacity is not None else len(undecided)
    for level in layer_schedule(low, high):
        for pattern in sorted(by_weight.get(level, [])):
            batch.append(pattern)
            if len(batch) >= budget:
                return batch
    return batch


def collapse_borders(
    database: AnySequenceDatabase,
    matrix: CompatibilityMatrix,
    min_match: float,
    classification: SampleClassification,
    memory_capacity: Optional[int] = None,
    engine: Optional[MatchEngine] = None,
    tracer: Optional[Tracer] = None,
) -> CollapseOutcome:
    """Resolve every ambiguous pattern with a minimal number of scans.

    Patterns the sample classified *frequent* are trusted (they hold
    with probability ``1 - δ`` each); patterns *infrequent* on the
    sample are trusted symmetrically.  Only the ambiguous band is probed
    against the full database, through the given match engine.

    When a *tracer* is supplied, each probe round opens a child span
    (``probe-round-1``, ``probe-round-2``, ...) recording its probe
    count, scan and the number of ambiguous patterns still undecided
    after label propagation.

    Label propagation runs each round's pairwise subsumption sweep as
    one packed batch with the signature prefilter
    (:func:`~repro.core.latticekernels.filter_undecided`).
    """
    validate_memory_capacity(memory_capacity)
    tracer = ensure_tracer(tracer)
    if engine is None:
        engine = select_engine()
    # A resident engine (a caller probing a memory-resident database)
    # wants same-parent siblings adjacent: the probe *selection* is
    # unchanged, only the within-round counting order, so probe rounds,
    # scans and labels are identical.
    resident_probes = isinstance(engine, ResidentSampleEvaluator)
    decided_frequent = classification.fqt.copy(tracer=tracer)
    minimal_infrequent: Set[Pattern] = set()
    undecided: Set[Pattern] = {
        pattern
        for pattern in classification.ambiguous_patterns()
        if not decided_frequent.covers(pattern)
    }
    floor_weight = min(
        (p.weight for p in decided_frequent), default=0
    )

    verified: Dict[Pattern, float] = {}
    probe_rounds: List[List[Pattern]] = []
    scans = 0
    while undecided:
        batch = select_probe_batch(undecided, floor_weight, memory_capacity)
        probe_rounds.append(batch)
        with tracer.phase(f"probe-round-{len(probe_rounds)}"):
            probes = sibling_order(batch) if resident_probes else batch
            matches = count_matches_batched(probes, database, matrix,
                                            engine=engine, tracer=tracer)
            scans += 1
            tracer.count(PROBE_ROUNDS, 1)
            tracer.count(PROBES, len(batch))
            newly_frequent: List[Pattern] = []
            newly_infrequent: List[Pattern] = []
            for pattern, value in matches.items():
                verified[pattern] = value
                if value >= min_match:
                    decided_frequent.add(pattern)
                    newly_frequent.append(pattern)
                else:
                    minimal_infrequent.add(pattern)
                    newly_infrequent.append(pattern)
            # Probed patterns are decided outright; the rest only need
            # checking against this round's new decisions (earlier rounds
            # already filtered against the older ones).
            undecided.difference_update(batch)
            undecided = filter_undecided(
                undecided, newly_frequent, newly_infrequent, tracer=tracer,
            )
            tracer.annotate(AMBIGUOUS_REMAINING, len(undecided))
    return CollapseOutcome(
        border=decided_frequent,
        verified=verified,
        scans=scans,
        probe_rounds=probe_rounds,
    )
