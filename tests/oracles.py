"""Reference implementations the production paths are tested against.

Production runs one implementation per layer: the counting engines of
:mod:`repro.engine` and the packed lattice kernels of
:mod:`repro.core.latticekernels`.  The plain pure-Python versions of
those layers live here, as oracles:

* :func:`naive_segment_match`, :func:`naive_sequence_match`,
  :func:`naive_database_match` and :func:`naive_symbol_matches` are the
  paper's pseudocode (Definitions 3.5-3.7, Algorithms 4.1-4.2), one
  symbol at a time, with no numpy;
* :class:`ReferenceEngine` scores every sequence with the sliding-window
  code of :mod:`repro.core.match`;
* :class:`PrefixPlanEngine` is the batched prefix-plan kernel the
  counting engine ran before its prefix-trie walk, over whole gathered
  factor arrays (:func:`gather_chunk`), kept as the walk's bit-for-bit
  and timing baseline;
* :func:`gathered_symbol_matches` is the Phase-1 kernel the engine ran
  before its distinct-symbol pass: per-position maxima over the
  gathered factor array (:func:`chunk_symbol_maxima`);
* :func:`offer_row` is the sequential sampler one row at a time, the
  reference for :meth:`SequentialSampler.offer_chunk`;
* :func:`reference_generate_candidates`, :func:`reference_covers`,
  :func:`reference_add`, :func:`reference_filter_undecided` and
  :func:`reference_restricted_spreads` are the pairwise lattice scans
  the kernels replace;
* :func:`reference_lattice` swaps those scans into the production
  modules for the duration of a ``with`` block, so a whole miner can
  run on the oracle lattice.
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
from repro.core.sequence import AnySequenceDatabase, SequentialSampler
from repro.engine import MatchEngine
from repro.engine.kernels import DEFAULT_CHUNK_ROWS, extended_matrix, pad_chunk
from repro.errors import MiningError
from repro.mining import ambiguous, collapsing
from repro.mining.chernoff import restricted_spread
from repro.obs import Tracer


# -- the paper's pseudocode -------------------------------------------------


def naive_segment_match(
    pattern: Pattern,
    segment: Sequence[int],
    matrix: CompatibilityMatrix,
) -> float:
    """Definition 3.5, evaluated position by position."""
    assert len(segment) == pattern.span
    value = 1.0
    for element, observed in zip(pattern.elements, segment):
        if element == WILDCARD:
            continue  # C(*, d') = 1 by definition
        value *= matrix.prob(element, int(observed))
    return value


def naive_sequence_match(
    pattern: Pattern,
    sequence: Sequence[int],
    matrix: CompatibilityMatrix,
) -> float:
    """Definition 3.6 via an explicit sliding window (Algorithm 4.2)."""
    span = pattern.span
    best = 0.0
    for start in range(len(sequence) - span + 1):
        current = naive_segment_match(
            pattern, sequence[start : start + span], matrix
        )
        if current > best:
            best = current
    return best


def naive_database_match(
    pattern: Pattern,
    database: AnySequenceDatabase,
    matrix: CompatibilityMatrix,
) -> float:
    """Definition 3.7: plain average over the database's sequences."""
    total = 0.0
    count = 0
    for _sid, seq in database.scan():
        total += naive_sequence_match(pattern, list(int(v) for v in seq), matrix)
        count += 1
    return total / count


def naive_symbol_matches(
    database: AnySequenceDatabase, matrix: CompatibilityMatrix
) -> list:
    """Algorithm 4.1 lines 1-11, literally (no distinct-symbol shortcut)."""
    m = matrix.size
    match = [0.0] * m
    n = len(database)
    for _sid, seq in database.scan():
        max_match = [0.0] * m
        for observed in seq:
            for d in range(m):
                c = matrix.prob(d, int(observed))
                if c > max_match[d]:
                    max_match[d] = c
        for d in range(m):
            match[d] += max_match[d] / n
    return match


# -- counting ----------------------------------------------------------------


class ReferenceEngine(MatchEngine):
    """Per-sequence evaluation of ``M(P, D)``, the counting oracle.

    Each sequence is scored on its own, as :mod:`repro.core.match`
    does; the per-sequence values are summed chunk by chunk with the
    same numpy reduction the production engines use, so at equal
    ``chunk_rows`` the totals are bit-identical to theirs.  Consumes
    exactly one scan per call; :meth:`symbol_matches` offers every row
    of it to a sampler, as the production Phase-1 scan does.
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
        sampler: Optional[SequentialSampler] = None,
    ) -> np.ndarray:
        totals = np.zeros(matrix.size, dtype=np.float64)
        count = 0
        for chunk in database.scan_chunks(self.chunk_rows):
            count += len(chunk)
            totals += self._symbol_totals(chunk.rows, matrix)
            if sampler is not None:
                for sid, row in zip(chunk.ids, chunk.rows):
                    offer_row(sampler, sid, row)
        if count == 0:
            raise MiningError(
                "cannot compute symbol matches over an empty database"
            )
        return totals / count


def offer_row(sampler: SequentialSampler, sid: int, row: np.ndarray) -> None:
    """Offer *sampler* the next row in scan order, alone: while the
    sample is short, one draw, kept when under ``(n - chosen) / (total
    - seen)``; once it is full, no draw.  ``n == total`` keeps every
    row without drawing."""
    needed = sampler._n - len(sampler.rows)
    if needed and (
        sampler._n == sampler._total
        or sampler._rng.random() < needed / (sampler._total - sampler._seen)
    ):
        sampler.ids.append(sid)
        sampler.rows.append(np.array(row, copy=True))
    sampler._seen += 1


def gather_chunk(c_ext: np.ndarray, padded: np.ndarray) -> np.ndarray:
    """The whole factor array of a padded ``(N, L)`` chunk:
    ``result[d, t, i] = c_ext[d, padded[i, t]]``, ``(m + 1, L, N)``,
    position major with the sequences innermost.

    ``np.take`` writes that layout directly; fancy indexing through the
    transposed index array would yield the *index's* memory order.
    """
    return np.take(c_ext, padded.T, axis=1)


def chunk_symbol_maxima(gathered: np.ndarray) -> np.ndarray:
    """Per-symbol, per-sequence maxima over one chunk's factor array:
    ``result[d, i] = max_t C(d, padded[i, t])``, the maximum over every
    position (padding included, whose factors are ``0.0``)."""
    m = gathered.shape[0] - 1
    return gathered[:m].max(axis=1)


def gathered_symbol_matches(
    database: AnySequenceDatabase,
    matrix: CompatibilityMatrix,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    score_dtype: str = "float64",
) -> np.ndarray:
    """Phase 1 by the per-position kernel: each chunk's whole factor
    array, gathered in *score_dtype*, max-reduced over the positions
    and summed per symbol in that dtype, chunk sums added in float64.
    At equal ``chunk_rows`` and dtype the counting engine's
    distinct-symbol pass must equal it bit for bit."""
    c_ext = extended_matrix(matrix.array).astype(score_dtype)
    totals = np.zeros(matrix.size, dtype=np.float64)
    count = 0
    for chunk in database.scan_chunks(chunk_rows):
        count += len(chunk)
        gathered = gather_chunk(c_ext, pad_chunk(chunk.rows, matrix.size))
        totals += chunk_symbol_maxima(gathered).sum(axis=1)
    return totals / count


def group_patterns_by_span(patterns: Sequence[Pattern], m: int):
    """``(indices by span, (B, span) element matrix by span)``, the
    wildcard remapped to the all-ones row ``m``."""
    groups: Dict[int, List[int]] = {}
    for index, pattern in enumerate(patterns):
        groups.setdefault(pattern.span, []).append(index)
    elements = {
        span: np.array(
            [
                [e if e != WILDCARD else m for e in patterns[i].elements]
                for i in indices
            ],
            dtype=np.int64,
        )
        for span, indices in groups.items()
    }
    return groups, elements


def prefix_plan(elements: np.ndarray) -> List[tuple]:
    """The shared-prefix plan of one span group: per offset, the symbol
    column multiplied in there and the inverse map expanding the
    previous level's prefix rows (``None`` when they are distinct).
    Equal prefixes are merged only where they are adjacent rows."""
    levels: List[tuple] = []
    current = elements
    while current.shape[1] > 1:
        prefix = current[:, :-1]
        starts = np.empty(prefix.shape[0], dtype=bool)
        starts[0] = True
        np.any(prefix[1:] != prefix[:-1], axis=1, out=starts[1:])
        if int(starts.sum()) == prefix.shape[0]:
            levels.append((current[:, -1], None))
        else:
            levels.append((current[:, -1], np.cumsum(starts) - 1))
        current = prefix[starts]
    levels.append((current[:, 0], None))
    levels.reverse()
    return levels


def chunk_group_maxima(
    gathered: np.ndarray,
    elements: np.ndarray,
    plan: List[tuple],
    scratch: Dict[tuple, np.ndarray],
) -> np.ndarray:
    """``(B, N)`` per-sequence maxima of one span group over a chunk's
    ``(m + 1, L, N)`` factor array, through a ``(B, W, N)`` score
    buffer recycled in *scratch*.  Rows fanned out from a shared prefix
    are walked in descending order (run-merged prefixes have
    ``inverse[r] <= r``), so a parent row is only overwritten by its own
    first child."""
    length, n = gathered.shape[1], gathered.shape[2]
    b, span = elements.shape
    windows = length - span + 1
    if windows <= 0:
        return np.zeros((b, n), dtype=np.float64)
    symbols0, _ = plan[0]
    if span == 1:
        return gathered[symbols0, 0:windows, :].max(axis=1)
    key = (b, windows, n)
    full = scratch.get(key)
    if full is None:
        full = scratch[key] = np.empty(key, dtype=np.float64)
    symbols, inverse = plan[1]
    scores = full[: len(symbols)]
    for r in range(len(symbols) - 1, -1, -1):
        root = symbols0[inverse[r] if inverse is not None else r]
        np.multiply(
            gathered[root, 0:windows, :],
            gathered[symbols[r], 1 : 1 + windows, :],
            out=scores[r],
        )
    for offset in range(2, span):
        symbols, inverse = plan[offset]
        scores = full[: len(symbols)]
        stop = offset + windows
        if inverse is None:
            for r in range(len(symbols)):
                np.multiply(
                    scores[r], gathered[symbols[r], offset:stop, :],
                    out=scores[r],
                )
        else:
            for r in range(len(symbols) - 1, -1, -1):
                np.multiply(
                    scores[inverse[r]],
                    gathered[symbols[r], offset:stop, :],
                    out=scores[r],
                )
    return scores.max(axis=1)


class PrefixPlanEngine(MatchEngine):
    """The batched prefix-plan kernel, the walk's baseline.

    Each span group of a batch is evaluated flat: every pattern's
    window products are multiplied from its first symbol in a
    ``(B, W, N)`` score buffer, sharing only the prefixes of adjacent
    rows.  Products multiply in the reference offset order and the
    chunks add in scan order, so in float64 every value is
    bit-identical to the prefix-trie walk of
    :func:`repro.engine.kernels.walk_totals` at equal ``chunk_rows``.
    It gathers each chunk's whole factor array (:func:`gather_chunk`)
    and keeps them per chunk position while the padded chunk is
    unchanged, so timing it against a warm engine compares the
    kernels alone.
    """

    name = "prefix-plan"

    def __init__(self, chunk_rows: int = DEFAULT_CHUNK_ROWS):
        self.chunk_rows = chunk_rows
        # Per chunk position: (padded chunk, matrix, factor array).
        self._factors: List[tuple] = []

    def _gathered(self, i: int, padded: np.ndarray, c: np.ndarray):
        """Chunk *i*'s factor array, gathered again only when its padded
        rows or the matrix changed."""
        kept = self._factors[i] if i < len(self._factors) else None
        if (
            kept is not None and np.array_equal(kept[0], padded)
            and np.array_equal(kept[1], c)
        ):
            return kept[2]
        gathered = gather_chunk(extended_matrix(c), padded)
        entry = (padded, c.copy(), gathered)
        if kept is None:
            self._factors.append(entry)
        else:
            self._factors[i] = entry
        return gathered

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
        groups, elements = group_patterns_by_span(patterns, matrix.size)
        plans = {span: prefix_plan(rows) for span, rows in elements.items()}
        scratch: Dict[tuple, np.ndarray] = {}
        totals = np.zeros(len(patterns), dtype=np.float64)
        count = 0
        for i, chunk in enumerate(database.scan_chunks(self.chunk_rows)):
            count += len(chunk)
            gathered = self._gathered(
                i, pad_chunk(chunk.rows, matrix.size), matrix.array
            )
            row = np.zeros(len(patterns), dtype=np.float64)
            for span, indices in groups.items():
                maxima = chunk_group_maxima(
                    gathered, elements[span], plans[span], scratch
                )
                row[indices] += maxima.sum(axis=1)
            totals += row
        if count == 0:
            raise MiningError("cannot compute matches over an empty database")
        return {p: float(t / count) for p, t in zip(patterns, totals)}


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
