"""Resident-sample backend: incremental prefix-product counting.

Phase 2 of the paper's algorithm runs its whole breadth-first search
against one fixed in-memory sample.  The other backends treat every
batch as a fresh database: each level re-pads the sample, re-keys the
factor cache by content hash, and recomputes every candidate's window
products from its first symbol.  :class:`ResidentSampleEvaluator`
exploits the fixity instead:

* **Pin once.**  The first call pads the scanned rows into chunks and
  gathers their factor arrays a single time.  Later calls verify the
  pin with a ``blake2b`` content digest computed *during* the
  mandatory scan — the protocol's one ``database.scan()`` per call
  doubles as the staleness check, so scan accounting is untouched and
  handing the engine a different database (or matrix) transparently
  re-pins.
* **Extend, don't recompute.**  A candidate ``P·(gaps)·d`` is its
  parent ``P`` plus one fixed symbol, and window products associate
  left-to-right; the child's ``(windows, N)`` score plane is therefore
  its parent's plane times one shifted factor row — O(W·N) per
  candidate instead of the O(span·W·N) flat evaluation.
* **Walk the prefix trie.**  Each call sorts its sibling groups by
  ``(parent elements, offset)``, which is a pre-order walk of the
  parents' prefix trie, and keeps the current parent's ancestor chain
  on a stack: moving to the next group pops to the longest common
  ancestor and extends from there, so every distinct parent prefix is
  derived exactly once per call.  Entry *k* of the stack is the plane
  of the ancestor holding the first *k + 1* fixed symbols; it is
  written into one reusable ``(L, N)`` buffer per depth per pinned
  chunk, so the planes held never exceed ``(max parent weight - 1) ×
  Σ L·N`` elements, whatever the batch size.  Span-1 roots are views
  of the factor arrays and take no stack buffer.  Only the buffers
  outlive a call.
* **Stay in cache.**  Child planes are never stored: each sibling
  group is reduced to its per-sequence maxima and discarded — the hot
  loop's working set is one ``(windows, N)`` plane, not the
  ``(B, W, N)`` scratch of the batch kernels.

``score_dtype="float32"`` stores factors and planes in float32 —
halving both the pinned factor arrays and the stack buffers — while
every cross-sequence accumulation stays float64; the deviation is
error-bounded (``benchmarks/bench_phase2_sample.py`` gates it).

Products multiply in the same offset order as the flat kernels, so all
float64 match values are bit-identical to the vectorized backend (at
equal ``chunk_rows``), and independent of batch order.  Phase 2
always counts through this evaluator; it also serves any workload that
repeatedly counts against one memory-resident database.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.compatibility import CompatibilityMatrix
from ..core.pattern import Pattern, WILDCARD
from ..core.sequence import AnySequenceDatabase
from ..errors import MiningError
from ..obs import (
    RESIDENT_PLANE_BYTES,
    RESIDENT_PLANE_HITS,
    RESIDENT_PLANE_MISSES,
    Tracer,
)
from .base import MatchEngine, empty_database_guard, matrix_fingerprint
from .kernels import (
    DEFAULT_CHUNK_ROWS,
    extend_plane,
    extended_matrix,
    gather_chunk,
    pad_chunk,
    resolve_score_dtype,
    rows_symbol_totals,
)

#: A pattern's identity inside the evaluator: its raw element tuple
#: (constructing Pattern objects per lookup would dominate the hot loop).
_Key = Tuple[int, ...]

#: One link of a prefix chain: the fixed symbol and its offset.
_Link = Tuple[int, int]

#: Per-chunk score planes of one pattern.
_Planes = List[np.ndarray]


def _strip_last(elements: _Key) -> Tuple[Optional[_Key], int, int]:
    """Split off a pattern's last fixed symbol.

    Returns ``(parent elements, offset, symbol)`` where *offset* is the
    symbol's position (``span - 1``) and *parent* is the pattern with
    the last symbol and any preceding wildcard gap removed (``None``
    for single symbols).  Patterns never end in a wildcard, so the
    parent is itself a valid pattern.
    """
    i = len(elements) - 1
    symbol = elements[i]
    i -= 1
    while i >= 0 and elements[i] == WILDCARD:
        i -= 1
    parent = elements[: i + 1] if i >= 0 else None
    return parent, len(elements) - 1, symbol


def _chain_links(elements: _Key) -> List[_Link]:
    """A pattern's prefix chain as ``(symbol, offset)`` links, root
    first: link *k* extends the ancestor holding the first *k* fixed
    symbols, so two chains share exactly their common ancestors'
    leading links."""
    return [
        (symbol, offset)
        for offset, symbol in enumerate(elements)
        if symbol != WILDCARD
    ]


def _visit_order(item) -> Tuple[_Key, int]:
    (parent, offset), _group = item
    return parent or (), offset


@dataclass
class PlaneStats:
    """Lifetime counters of an evaluator's prefix stack.

    ``hits`` counts sibling groups whose (span >= 2) parent was
    already on the stack, ``misses`` the chain links derived, and
    ``nbytes`` the stack buffer bytes currently held.
    """

    hits: int = 0
    misses: int = 0
    nbytes: int = 0


class _Pin:
    """One pinned database: factor arrays plus reusable work buffers.

    The ``(m + 1, L, N)`` factor array of every chunk is gathered once,
    in the pin's dtype.  The ``(L, N)`` prefix-stack buffers are
    allocated on first use, one per chain depth per chunk.
    """

    __slots__ = ("key", "count", "dtype", "gathered", "arenas", "stack",
                 "gmax")

    def __init__(
        self,
        key: tuple,
        rows: List[np.ndarray],
        matrix: CompatibilityMatrix,
        chunk_rows: int,
        dtype: np.dtype,
    ):
        self.key = key
        self.count = len(rows)
        self.dtype = dtype
        m = matrix.size
        c_ext = extended_matrix(matrix.array).astype(dtype, copy=False)
        self.gathered: List[np.ndarray] = [
            gather_chunk(c_ext, pad_chunk(rows[start : start + chunk_rows], m))
            for start in range(0, len(rows), chunk_rows)
        ]
        # One (L, N) work plane per chunk: every child is multiplied
        # into it and reduced before the next child touches it.
        self.arenas = self._planes()
        # Prefix-stack buffers: one (L, N) plane per depth per chunk.
        self.stack: List[List[np.ndarray]] = []
        # Per-chunk sibling-maxima rows, grown on demand.
        self.gmax: List[np.ndarray] = [
            np.empty((32, g.shape[2]), dtype=dtype) for g in self.gathered
        ]

    def _planes(self) -> List[np.ndarray]:
        """One uninitialised ``(L, N)`` plane per chunk."""
        return [
            np.empty(g.shape[1:], dtype=self.dtype) for g in self.gathered
        ]

    def stack_buffers(self, depth: int) -> List[np.ndarray]:
        """The per-chunk plane buffers of stack depth *depth* (>= 1)."""
        while len(self.stack) < depth:
            self.stack.append(self._planes())
        return self.stack[depth - 1]

    @property
    def stack_nbytes(self) -> int:
        return sum(b.nbytes for level in self.stack for b in level)

    @property
    def nbytes(self) -> int:
        return sum(g.nbytes for g in self.gathered)

    def maxima_rows(self, chunk_index: int, count: int) -> np.ndarray:
        rows = self.gmax[chunk_index]
        if rows.shape[0] < count:
            rows = np.empty(
                (count, rows.shape[1]), dtype=self.dtype
            )
            self.gmax[chunk_index] = rows
        return rows


class ResidentSampleEvaluator(MatchEngine):
    """Incremental ``M(P, D)`` evaluation over a pinned database.

    Parameters
    ----------
    chunk_rows:
        Sequences per pinned chunk.  Matching the vectorized backend's
        ``chunk_rows`` makes float64 match values bit-identical to it
        (the sum over sequences accumulates per chunk, in chunk order).
    score_dtype:
        ``"float64"`` (default, bit-identical to every other backend)
        or ``"float32"`` (planes and factors stored in float32, every
        cross-sequence accumulation in float64; error-bounded, and the
        stack buffers take half the bytes).  ``None`` resolves through
        ``NOISYMINE_SCORE_DTYPE``.

    ``planes`` (:class:`PlaneStats`) counts the prefix stack's traffic.
    """

    name = "resident"

    def __init__(
        self,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        score_dtype: Optional[str] = None,
    ):
        if chunk_rows < 1:
            raise MiningError(
                f"chunk_rows must be >= 1, got {chunk_rows}"
            )
        self.chunk_rows = chunk_rows
        self.planes = PlaneStats()
        self.repins = 0
        self._pin: Optional[_Pin] = None
        self.score_dtype = resolve_score_dtype(score_dtype)

    def set_score_dtype(self, score_dtype: str) -> None:
        """Switch the scoring dtype.

        The dtype is part of the pin key, so the next counting call
        transparently re-pins (and reallocates the stack buffers) when
        the dtype actually changed.
        """
        self.score_dtype = resolve_score_dtype(score_dtype)

    # -- pinning --------------------------------------------------------------

    def _scan_and_pin(
        self,
        database: AnySequenceDatabase,
        matrix: CompatibilityMatrix,
    ) -> _Pin:
        """Consume exactly one scan; reuse or rebuild the pin.

        The digest is computed from the very rows the mandatory scan
        yields, so a database whose content changed between calls (or a
        different database object with equal content) is detected with
        no extra pass.  A ``blake2b`` digest is collision-safe in a way
        Python's salted 64-bit ``hash`` is not, and is stable across
        processes.
        """
        digest = hashlib.blake2b(digest_size=16)
        rows: List[np.ndarray] = []
        # One chunked pass: zero-copy blocks from backends that support
        # them (the packed store), buffered rows elsewhere.  The digest
        # is per row, over the same bytes in the same order as the
        # per-row scan it replaces, so pin keys are unchanged — and
        # equal content pins identically across backends.
        for chunk in database.scan_chunks(self.chunk_rows):
            for seq in chunk.rows:
                row = np.ascontiguousarray(np.asarray(seq))
                rows.append(row)
                digest.update(len(row).to_bytes(8, "little"))
                # dtype.char is a C-level attribute; str(dtype) costs
                # more than the row digest itself on short sequences.
                digest.update(row.dtype.char.encode())
                digest.update(row.data)
        empty_database_guard(len(rows))
        key = (
            matrix_fingerprint(matrix), self.chunk_rows,
            self.score_dtype, digest.digest(),
        )
        pin = self._pin
        if pin is None or pin.key != key:
            dtype = np.dtype(
                np.float32 if self.score_dtype == "float32" else np.float64
            )
            pin = _Pin(key, rows, matrix, self.chunk_rows, dtype)
            self._pin = pin
            self.repins += 1
        return pin

    # -- the prefix stack -----------------------------------------------------

    def _walk(
        self, groups, pin: _Pin
    ) -> Iterator[Tuple[int, List[int], List[int], Optional[_Planes]]]:
        """Yield ``(offset, symbols, indices, parent planes)`` per
        sibling group, in prefix-trie pre-order.

        The stack holds the current parent's ancestor chain: the
        span-1 entry is a view of the factor arrays, and entry *depth*
        is entry ``depth - 1`` extended by one ``(symbol, offset)``
        link into that depth's stack buffers.  Moving to the next group
        pops to the longest common ancestor, so each distinct parent
        prefix is derived once.  Root groups (single symbols) have no
        parent planes.
        """
        gathered_chunks = pin.gathered
        links: List[_Link] = []
        chain: List[_Planes] = []
        stats = self.planes
        for (parent, offset), (symbols, indices) in sorted(
            groups.items(), key=_visit_order
        ):
            if parent is None:
                yield offset, symbols, indices, None
                continue
            wanted = _chain_links(parent)
            depth = 0
            while (
                depth < len(links) and depth < len(wanted)
                and links[depth] == wanted[depth]
            ):
                depth += 1
            del links[depth:], chain[depth:]
            if depth == len(wanted) and depth > 1:
                stats.hits += 1
            for symbol, link_offset in wanted[depth:]:
                if chain:
                    chain.append([
                        extend_plane(pp, g, symbol, link_offset, out=buf)
                        for pp, g, buf in zip(
                            chain[-1], gathered_chunks,
                            pin.stack_buffers(len(chain)),
                        )
                    ])
                    stats.misses += 1
                else:
                    # Span-1 planes are views straight into the factor
                    # arrays.
                    chain.append([g[symbol] for g in gathered_chunks])
                links.append((symbol, link_offset))
            yield offset, symbols, indices, chain[-1]

    # -- batched --------------------------------------------------------------

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
        traced = tracer is not None and tracer.enabled
        if traced:
            hits0 = self.planes.hits
            misses0 = self.planes.misses
            bytes0 = self.planes.nbytes
        pin = self._scan_and_pin(database, matrix)

        # Group the batch into sibling sets: children sharing (parent,
        # offset) reuse one parent plane and differ only in their last
        # symbol's factor row.
        groups: "Dict[Tuple[Optional[_Key], int], Tuple[List[int], List[int]]]" = {}
        for index, pattern in enumerate(patterns):
            parent, offset, symbol = _strip_last(pattern.elements)
            group = groups.get((parent, offset))
            if group is None:
                groups[(parent, offset)] = group = ([], [])
            group[0].append(symbol)
            group[1].append(index)

        totals = np.zeros(len(patterns), dtype=np.float64)
        self._accumulate(groups, pin, totals)
        self.planes.nbytes = pin.stack_nbytes

        if traced:
            tracer.count(RESIDENT_PLANE_HITS, self.planes.hits - hits0)
            tracer.count(
                RESIDENT_PLANE_MISSES, self.planes.misses - misses0
            )
            tracer.count(
                RESIDENT_PLANE_BYTES, self.planes.nbytes - bytes0
            )
        # One C-level divide + tolist instead of a float() per pattern
        # (same IEEE division, so the values are unchanged).
        np.divide(totals, pin.count, out=totals)
        return dict(zip(patterns, totals.tolist()))

    def _accumulate(self, groups, pin: _Pin, totals: np.ndarray) -> None:
        """Add every sibling group's per-chunk sums of maxima to
        *totals*, walking the groups in prefix-trie pre-order."""
        gathered_chunks = pin.gathered
        arenas = pin.arenas
        for offset, symbols, indices, planes in self._walk(groups, pin):
            index_arr = np.asarray(indices, dtype=np.intp)
            n_sibs = len(symbols)
            for ci, gathered in enumerate(gathered_chunks):
                length = gathered.shape[1]
                windows = length - offset
                if windows <= 0:
                    continue  # this chunk's sequences are too short: 0.0
                maxima = pin.maxima_rows(ci, n_sibs)
                # The factor rows and work buffers are sliced to the
                # window span once per sibling group, not once per
                # candidate — with alphabet-sized sibling fan-out the
                # view bookkeeping otherwise rivals the arithmetic.
                base = gathered[:, offset : offset + windows, :]
                # np.maximum.reduce is np.max(..., axis=0, out=...)
                # without the fromnumeric wrapper, which costs more than
                # the reduction itself on sample-sized planes.
                if planes is None:
                    # Single symbols: the plane is the factor row itself.
                    for i, symbol in enumerate(symbols):
                        np.maximum.reduce(
                            base[symbol], axis=0, out=maxima[i]
                        )
                else:
                    # extend_plane, inlined: per-candidate the multiply
                    # is one shifted elementwise product into a reused
                    # arena — O(W·N), independent of pattern span.
                    parent_w = planes[ci][:windows]
                    arena_w = arenas[ci][:windows]
                    for i, symbol in enumerate(symbols):
                        np.multiply(base[symbol], parent_w, out=arena_w)
                        np.maximum.reduce(arena_w, axis=0, out=maxima[i])
                # Chunks accumulate in scan order — the same per-pattern
                # summation order as the vectorized backend (the float64
                # cast is a no-op there; float32 maxima promote before
                # the pairwise sum, keeping accumulation in float64).
                totals[index_arr] += np.add.reduce(
                    maxima[:n_sibs], axis=1, dtype=np.float64
                )

    def symbol_matches(
        self,
        database: AnySequenceDatabase,
        matrix: CompatibilityMatrix,
        tracer: Optional[Tracer] = None,
    ) -> np.ndarray:
        rows = [
            seq
            for chunk in database.scan_chunks(self.chunk_rows)
            for seq in chunk.rows
        ]
        return self.symbol_matches_rows(rows, matrix)

    def symbol_matches_rows(
        self,
        sequences: Sequence[np.ndarray],
        matrix: CompatibilityMatrix,
    ) -> np.ndarray:
        if not len(sequences):
            raise MiningError(
                "cannot compute symbol matches over an empty database"
            )
        return rows_symbol_totals(
            sequences, extended_matrix(matrix.array), self.chunk_rows
        ) / len(sequences)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        self._pin = None
        self.planes.nbytes = 0

    def __repr__(self) -> str:
        pinned = self._pin.nbytes if self._pin is not None else 0
        return (
            f"ResidentSampleEvaluator(chunk_rows={self.chunk_rows}, "
            f"score_dtype={self.score_dtype!r}, "
            f"pinned_bytes={pinned}, planes={self.planes!r})"
        )
