"""Reference implementations the production paths are tested against.

Production runs one implementation per layer: the counting engines of
:mod:`repro.engine` and the packed lattice kernels of
:mod:`repro.core.latticekernels`.  The plain pure-Python versions of
those layers live here, as oracles:

* :class:`ReferenceEngine` scores every sequence with the sliding-window
  code of :mod:`repro.core.match`;
* :func:`reference_generate_candidates`, :func:`reference_covers`,
  :func:`reference_add`, :func:`reference_filter_undecided` and
  :func:`reference_restricted_spreads` are the pairwise lattice scans
  the kernels replace;
* :func:`reference_lattice` swaps those scans into the production
  modules for the duration of a ``with`` block, so a whole miner can
  run on the oracle lattice;
* :func:`serial_dispatch`, :func:`shuffled` and :func:`faulty` stand
  in for the worker pool's dispatch (in order, reordered, or losing,
  repeating and holding back results), and :func:`small_shards` lets
  tiny test databases cut into several shards.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Set
from unittest import mock

import numpy as np

from repro.core import latticekernels
from repro.core.border import Border
from repro.core.compatibility import CompatibilityMatrix
from repro.core.lattice import PatternConstraints, extend_right
from repro.core.match import symbol_sequence_matches
from repro.core.pattern import Pattern, WILDCARD
from repro.core.sequence import AnySequenceDatabase
from repro.engine import MatchEngine, vectorized
from repro.engine.kernels import DEFAULT_CHUNK_ROWS, extended_matrix
from repro.engine.shards import execute_shard_task
from repro.errors import MiningError
from repro.mining import ambiguous, collapsing
from repro.mining.chernoff import restricted_spread
from repro.obs import Tracer


# -- counting ----------------------------------------------------------------


class ReferenceEngine(MatchEngine):
    """Per-sequence evaluation of ``M(P, D)``, the counting oracle.

    Each sequence is scored on its own, as :mod:`repro.core.match`
    does; the per-sequence values are summed chunk by chunk with the
    same numpy reduction the production engines use, so at equal
    ``chunk_rows`` the totals are bit-identical to theirs.  Consumes
    exactly one scan per call.
    """

    name = "reference"

    def __init__(self, chunk_rows: int = DEFAULT_CHUNK_ROWS):
        self.chunk_rows = chunk_rows

    def database_matches(
        self,
        patterns: Sequence[Pattern],
        database: AnySequenceDatabase,
        matrix: CompatibilityMatrix,
        tracer: Optional[Tracer] = None,
    ) -> Dict[Pattern, float]:
        patterns = list(patterns)
        if not patterns:
            return {}
        m = matrix.size
        groups: Dict[int, List[int]] = {}
        for index, pattern in enumerate(patterns):
            groups.setdefault(pattern.span, []).append(index)
        # Wildcards gather row m of the extended matrix, all ones.
        elements = {
            span: np.array([
                [m if e == WILDCARD else e for e in patterns[i].elements]
                for i in indices
            ])
            for span, indices in groups.items()
        }
        c_ext = np.vstack([matrix.array, np.ones((1, m))])
        totals = np.zeros(len(patterns), dtype=np.float64)
        count = 0
        for chunk in database.scan_chunks(self.chunk_rows):
            rows = [np.asarray(seq) for seq in chunk.rows]
            maxima = np.zeros((len(patterns), len(rows)), dtype=np.float64)
            for column, seq in enumerate(rows):
                gathered = c_ext[:, seq]
                for span, indices in groups.items():
                    windows = len(seq) - span + 1
                    if windows <= 0:
                        continue
                    rows_of = elements[span]
                    # Position by position, left to right: the product
                    # order every engine uses, so values are bit-exact.
                    scores = gathered[rows_of[:, 0], :windows]
                    for offset in range(1, span):
                        scores *= gathered[
                            rows_of[:, offset], offset:offset + windows
                        ]
                    maxima[indices, column] = scores.max(axis=1)
            count += len(rows)
            totals += maxima.sum(axis=1)
        if count == 0:
            raise MiningError("cannot compute matches over an empty database")
        return {p: float(t / count) for p, t in zip(patterns, totals)}

    def _symbol_totals(self, rows: Iterable, matrix: CompatibilityMatrix):
        per_row = np.array([symbol_sequence_matches(r, matrix) for r in rows])
        return np.ascontiguousarray(per_row.T).sum(axis=1)

    def symbol_matches(
        self,
        database: AnySequenceDatabase,
        matrix: CompatibilityMatrix,
        tracer: Optional[Tracer] = None,
    ) -> np.ndarray:
        totals = np.zeros(matrix.size, dtype=np.float64)
        count = 0
        for chunk in database.scan_chunks(self.chunk_rows):
            count += len(chunk)
            totals += self._symbol_totals(chunk.rows, matrix)
        if count == 0:
            raise MiningError(
                "cannot compute symbol matches over an empty database"
            )
        return totals / count

    def symbol_matches_rows(
        self,
        sequences: Sequence[np.ndarray],
        matrix: CompatibilityMatrix,
    ) -> np.ndarray:
        if not len(sequences):
            raise MiningError(
                "cannot compute symbol matches over an empty database"
            )
        totals = np.zeros(matrix.size, dtype=np.float64)
        for start in range(0, len(sequences), self.chunk_rows):
            totals += self._symbol_totals(
                sequences[start:start + self.chunk_rows], matrix
            )
        return totals / len(sequences)


# -- lattice -----------------------------------------------------------------


def reference_generate_candidates(
    frequent: Set[Pattern],
    frequent_symbols: Sequence[int],
    constraints: PatternConstraints,
) -> Set[Pattern]:
    """The pure-Python Apriori join + prune."""
    if not frequent:
        return set()
    candidates: Set[Pattern] = set()
    for pattern in frequent:
        for extended in extend_right(pattern, frequent_symbols, constraints):
            if extended in candidates:
                continue
            if all(
                sub in frequent
                for sub in extended.immediate_subpatterns()
                if constraints.admits(sub)
            ):
                candidates.add(extended)
    return candidates


def reference_covers(border: Border, pattern: Pattern) -> bool:
    """:meth:`Border.covers` as a plain scan of the heavier members."""
    weight = pattern.weight
    for member_weight, bucket in border._by_weight.items():
        if member_weight < weight:
            continue
        for member in bucket:
            if pattern.is_subpattern_of(member):
                return True
    return False


def reference_add(border: Border, pattern: Pattern) -> bool:
    """:meth:`Border.add` with a plain scan for dominated members."""
    if reference_covers(border, pattern):
        return False
    dominated = [
        member
        for weight, bucket in border._by_weight.items()
        if weight <= pattern.weight
        for member in bucket
        if member.is_subpattern_of(pattern)
    ]
    for member in dominated:
        border._discard(member)
    border._elements.add(pattern)
    border._by_weight.setdefault(pattern.weight, set()).add(pattern)
    return True


def reference_filter_undecided(
    undecided: Iterable[Pattern],
    newly_frequent: Sequence[Pattern],
    newly_infrequent: Sequence[Pattern],
    tracer: Optional[Tracer] = None,
) -> Set[Pattern]:
    """Phase-3 label propagation as a pairwise sweep."""
    return {
        pattern
        for pattern in undecided
        if not any(pattern.is_subpattern_of(fresh) for fresh in newly_frequent)
        and not any(
            killer.is_subpattern_of(pattern) for killer in newly_infrequent
        )
    }


def reference_restricted_spreads(
    patterns: Sequence[Pattern], symbol_match: Sequence[float]
) -> np.ndarray:
    """Claim 4.2's restricted spread, one pattern at a time."""
    return np.array(
        [restricted_spread(p, symbol_match) for p in patterns],
        dtype=np.float64,
    )


@contextmanager
def reference_lattice():
    """Run the production modules on the oracle lattice scans."""
    patches: List = [
        mock.patch.object(
            latticekernels, "kernel_generate_candidates",
            reference_generate_candidates,
        ),
        mock.patch.object(Border, "add", reference_add),
        mock.patch.object(Border, "covers", reference_covers),
        mock.patch.object(
            collapsing, "filter_undecided", reference_filter_undecided
        ),
        mock.patch.object(
            ambiguous, "batch_restricted_spread", reference_restricted_spreads
        ),
    ]
    with ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        yield


# -- dispatch ------------------------------------------------------------------


def serial_dispatch(matrix: CompatibilityMatrix):
    """A pool-free dispatch: runs shard tasks in this process, in
    submission order, against *matrix*."""
    c_ext = extended_matrix(matrix.array)
    return lambda tasks: (execute_shard_task(task, c_ext) for task in tasks)


def shuffled(dispatch, seed: int = 0):
    """*dispatch* with its completion order deterministically scrambled:
    the merged totals must not change however the results arrive."""
    def run(tasks):
        results = list(dispatch(tasks))
        order = np.random.default_rng(seed).permutation(len(results))
        return [results[int(i)] for i in order]
    return run


def faulty(dispatch, drop=(), duplicate=(), delay=()):
    """*dispatch* with shard faults injected by shard index.

    Results of *drop* never arrive; results of *delay* arrive after
    every other result; results of *duplicate* arrive twice in a row
    (so a duplicate of a shard that is still waiting on a delayed
    lower index arrives before that shard is merged, and any other
    duplicate arrives after).
    """
    def run(tasks):
        held = []
        for result in dispatch(tasks):
            if result.index in drop:
                continue
            copies = [result] * (2 if result.index in duplicate else 1)
            if result.index in delay:
                held.extend(copies)
            else:
                yield from copies
        yield from held
    return run


@contextmanager
def small_shards():
    """Shard databases of any size: one row is enough for a shard."""
    with mock.patch.object(vectorized, "MIN_SHARD_ROWS", 1):
        yield
