"""Resident-sample backend: incremental prefix-product counting.

Phase 2 of the paper's algorithm runs its whole breadth-first search
against one fixed in-memory sample.  The other backends treat every
batch as a fresh database: each level re-pads the sample, re-keys the
factor cache by content hash, and recomputes every candidate's window
products from its first symbol.  :class:`ResidentSampleEvaluator`
exploits the fixity instead:

* **Pin once.**  The first call pads the scanned rows into chunks a
  single time.  Later calls verify the pin with a ``blake2b`` content
  digest computed *during* the mandatory scan — the protocol's one
  ``database.scan()`` per call doubles as the staleness check, so scan
  accounting is untouched and handing the engine a different database
  (or matrix) transparently re-pins.
* **Extend, don't recompute.**  A candidate ``P·(gaps)·d`` is its
  parent ``P`` plus one fixed symbol, and window products associate
  left-to-right; the child's ``(windows, N)`` score plane is therefore
  its parent's plane times one shifted factor row — O(W·N) per
  candidate instead of the O(span·W·N) flat evaluation.  Parent planes
  live in a byte-budgeted LRU (:class:`PlaneStore`); an evicted plane
  is rebuilt by walking the prefix chain down to the span-1 planes, so
  eviction changes cost, never results.
* **Stay in cache.**  Child planes are never stored: each sibling
  group is reduced to its per-sequence maxima and discarded — the hot
  loop's working set is one ``(windows, N)`` plane, not the
  ``(B, W, N)`` scratch of the batch kernels.

Kernel dispatch
---------------
The plane arithmetic runs through the compiled
:mod:`repro.core._nativekernels` resident kernels when numba is
importable, and through the numpy plane path otherwise.  The compiled
path fuses each sibling group's multiply + max into one
  loop nest (:func:`~repro.core._nativekernels.derive_sibling_batch`,
  parent plane gathered once, children innermost), derives missing
  parent planes with
  :func:`~repro.core._nativekernels.derive_child_planes`, and replays
  eviction misses through the whole prefix chain in one call
  (:func:`~repro.core._nativekernels.replay_plane_chain`) instead of
  one Python-level extension per link.  It never materialises the
  ``(m + 1, L, N)`` factor array the numpy path gathers.  Tests pin
either path, or the interpreted twins of the compiled kernels (the
exact code numba compiles), with the ``kernels=`` constructor
argument.

``score_dtype="float32"`` stores factors and planes in float32 —
halving both the pinned bytes and the :class:`PlaneStore` pressure, so
the LRU holds twice the chain depth — while every cross-sequence
accumulation stays float64; the deviation is error-bounded like the
counting engine's float32 scoring (``benchmarks/bench_phase2_sample.py``
gates it).

Products multiply in the same offset order as the flat kernels, so all
float64 match values are bit-identical to the vectorized backend (at
equal ``chunk_rows``) whichever kernels run.

The breadth-first order of :func:`repro.mining.ambiguous
.classify_on_sample` — children are counted one level after their
surviving parent — makes parent planes naturally live, which is what
turns the plane store into an incremental evaluator rather than a
cache of lucky repeats.  Phase 2 always counts through this
evaluator; it also serves any workload that repeatedly counts against
one memory-resident database.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core import _nativekernels as nk
from ..core.compatibility import CompatibilityMatrix
from ..core.pattern import Pattern, WILDCARD
from ..core.sequence import AnySequenceDatabase, iter_chunks
from ..errors import MiningError
from ..obs import (
    RESIDENT_NATIVE_CALLS,
    RESIDENT_PLANE_BYTES,
    RESIDENT_PLANE_HITS,
    RESIDENT_PLANE_MISSES,
    Tracer,
)
from .base import MatchEngine, empty_database_guard, matrix_fingerprint
from .kernels import (
    DEFAULT_CHUNK_ROWS,
    charge_warmup,
    extend_plane,
    extended_matrix,
    gather_chunk,
    pad_chunk,
    resolve_score_dtype,
    rows_symbol_totals,
)

#: Default plane-store budget (bytes).  A float64 plane costs
#: ``8 * W * N`` bytes (float32 exactly half, charged at its actual
#: ``arr.nbytes``); 256 MiB holds ~6700 float64 planes of the paper's
#: protein sample shape (W=50, N=100), far beyond one run's surviving
#: parents.
DEFAULT_PLANE_BYTES = 256 * 1024 * 1024

#: A pattern's identity inside the evaluator: its raw element tuple
#: (constructing Pattern objects per lookup would dominate the hot loop).
_Key = Tuple[int, ...]

#: Placeholder plane for the kernels' rootless branches (``use_parent``
#: / ``use_base`` false): numba wants a concrete array either way.
_DUMMY_PLANES = {
    np.dtype(np.float64): np.zeros((1, 1), dtype=np.float64),
    np.dtype(np.float32): np.zeros((1, 1), dtype=np.float32),
}


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


def sibling_order(patterns: Iterable[Pattern]) -> List[Pattern]:
    """Order patterns so same-parent sibling groups are contiguous.

    The evaluator groups each batch by ``(parent elements, offset)``
    and evaluates every group against one shared parent plane.  The
    mining loops use this order when handing batches to a resident
    engine so that a memory budget splitting a batch into scans cuts
    through at most one sibling group per boundary — every other
    group's parent plane is derived (and its store entry touched)
    exactly once.  Per-pattern match values are independent of batch
    order, so the reordering never changes a result.
    """
    def key(pattern: Pattern):
        parent, offset, symbol = _strip_last(pattern.elements)
        return (parent or (), offset, symbol, pattern.elements)

    return sorted(patterns, key=key)


class PlaneStore:
    """Byte-budgeted LRU of per-pattern score-plane lists.

    One entry holds a pattern's ``(windows, N)`` plane per pinned
    chunk, charged at the stored arrays' actual ``nbytes`` — float32
    planes cost half their float64 shape against ``max_bytes``, which
    is how the float32 mode doubles the cached chain depth.  ``get``
    counts a hit or miss; entries whose eviction is forced by the
    budget are rebuilt transparently by the evaluator's prefix-chain
    replay, so the budget trades time for memory only.
    """

    def __init__(self, max_bytes: int = DEFAULT_PLANE_BYTES):
        if max_bytes < 0:
            raise MiningError(
                f"plane budget must be >= 0 bytes, got {max_bytes}"
            )
        self.max_bytes = max_bytes
        # key -> (planes, nbytes): the byte count is fixed at put time
        # from the stored arrays, so eviction never re-measures (or
        # mis-measures) an entry.
        self._entries: (
            "OrderedDict[_Key, Tuple[List[np.ndarray], int]]"
        ) = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: _Key) -> Optional[List[np.ndarray]]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def put(self, key: _Key, planes: List[np.ndarray]) -> None:
        if self.max_bytes == 0:
            return  # caching disabled outright
        nbytes = sum(p.nbytes for p in planes)
        if nbytes > self.max_bytes:
            return  # larger than the whole budget; not worth keeping
        if key in self._entries:
            _old, old_bytes = self._entries.pop(key)
            self._bytes -= old_bytes
        self._entries[key] = (planes, nbytes)
        self._bytes += nbytes
        while self._bytes > self.max_bytes:
            _key, (_evicted, evicted_bytes) = self._entries.popitem(
                last=False
            )
            self._bytes -= evicted_bytes
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0

    @property
    def nbytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"PlaneStore(entries={len(self)}, bytes={self._bytes}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )


class _Pin:
    """One pinned database: padded chunks plus reusable work buffers.

    The padded symbol chunks and the (dtype-cast) extended matrix are
    built eagerly — they are all the kernel dispatches need.  The
    ``(m + 1, L, N)`` factor gathers and the multiply arenas exist
    only for the numpy path and are materialised on first use, so a
    kernel-mode pin never pays their memory.
    """

    __slots__ = (
        "key", "count", "dtype", "c_ext", "padded", "gathered", "arenas",
        "gmax",
    )

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
        c_ext = extended_matrix(matrix.array)
        if dtype == np.float32:
            c_ext = c_ext.astype(np.float32)
        self.c_ext = c_ext
        self.padded: List[np.ndarray] = [
            pad_chunk(rows[start : start + chunk_rows], m)
            for start in range(0, len(rows), chunk_rows)
        ]
        self.gathered: Optional[List[np.ndarray]] = None
        self.arenas: Optional[List[np.ndarray]] = None
        # Per-chunk sibling-maxima rows, grown on demand.
        self.gmax: List[np.ndarray] = [
            np.empty((32, p.shape[0]), dtype=dtype) for p in self.padded
        ]

    def ensure_gathered(self) -> List[np.ndarray]:
        """The numpy path's factor arrays (and its multiply arenas)."""
        if self.gathered is None:
            self.gathered = [
                gather_chunk(self.c_ext, p) for p in self.padded
            ]
            # One (L, N) arena per chunk: every child plane is
            # multiplied into it and reduced before the next child
            # touches it, so the hot loop never allocates.
            self.arenas = [
                np.empty(g.shape[1:], dtype=self.dtype)
                for g in self.gathered
            ]
        return self.gathered

    @property
    def nbytes(self) -> int:
        pinned = sum(p.nbytes for p in self.padded) + self.c_ext.nbytes
        if self.gathered is not None:
            pinned += sum(g.nbytes for g in self.gathered)
        return pinned

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
    plane_bytes:
        Byte budget of the parent-plane store; ``0`` disables caching
        entirely (every parent plane is rebuilt from its prefix chain,
        results unchanged).
    kernels:
        ``"auto"`` (compiled resident kernels when numba is available,
        numpy otherwise); differential tests pin ``"numpy"`` or
        ``"pure"`` (the interpreted kernel twins).
    score_dtype:
        ``"float64"`` (default, bit-identical to every other backend)
        or ``"float32"`` (planes and factors stored in float32, every
        cross-sequence accumulation in float64; error-bounded, and the
        plane store holds twice the chain depth).  ``None`` resolves
        through ``NOISYMINE_SCORE_DTYPE``.
    """

    name = "resident"

    def __init__(
        self,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        plane_bytes: int = DEFAULT_PLANE_BYTES,
        kernels: str = "auto",
        score_dtype: Optional[str] = None,
    ):
        if chunk_rows < 1:
            raise MiningError(
                f"chunk_rows must be >= 1, got {chunk_rows}"
            )
        self.chunk_rows = chunk_rows
        self.planes = PlaneStore(plane_bytes)
        self.repins = 0
        self.native_calls = 0
        self._pin: Optional[_Pin] = None
        self.score_dtype = resolve_score_dtype(score_dtype)
        if kernels not in ("auto", "numpy", "pure"):
            raise MiningError(
                f"kernels must be 'auto', 'numpy' or 'pure', "
                f"got {kernels!r}"
            )
        self.kernel_mode = kernels
        if kernels == "pure":
            self._child_kernel = nk.py_derive_child_planes
            self._sibling_kernel = nk.py_derive_sibling_batch
            self._replay_kernel = nk.py_replay_plane_chain
            self._compiled = False
        elif kernels == "auto" and nk.native_available:
            self._child_kernel = nk.derive_child_planes
            self._sibling_kernel = nk.derive_sibling_batch
            self._replay_kernel = nk.replay_plane_chain
            self._compiled = True
        else:  # "numpy", or "auto" without numba
            self._child_kernel = None
            self._sibling_kernel = None
            self._replay_kernel = None
            self._compiled = False

    @property
    def compiled(self) -> bool:
        """Whether the evaluator is running the JIT-compiled kernels."""
        return self._compiled

    def set_score_dtype(self, score_dtype: str) -> None:
        """Switch the scoring dtype.

        The dtype is part of the pin key, so the next counting call
        transparently re-pins (and restarts the plane store) when the
        dtype actually changed.
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
        for chunk in iter_chunks(database, self.chunk_rows):
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
            self.planes.clear()
            self.repins += 1
        return pin

    # -- plane derivation -----------------------------------------------------

    def _pattern_planes(
        self, key: _Key, pin: _Pin
    ) -> List[np.ndarray]:
        """Per-chunk score planes for the pattern *key*.

        Span-1 planes are views straight into the factor arrays (no
        store traffic); longer patterns come from the store or are
        derived from their parent's planes with one
        :func:`extend_plane` per chunk — recursing down the prefix
        chain until a stored ancestor (or a span-1 base) is found, so
        an evicted plane costs extra multiplies but never changes a
        value.
        """
        if len(key) == 1:
            return [g[key[0]] for g in pin.ensure_gathered()]
        planes = self.planes.get(key)
        if planes is not None:
            return planes
        parent, offset, symbol = _strip_last(key)
        parent_planes = self._pattern_planes(parent, pin)
        planes = [
            extend_plane(pp, g, symbol, offset)
            for pp, g in zip(parent_planes, pin.ensure_gathered())
        ]
        self.planes.put(key, planes)
        return planes

    def _pattern_planes_kernel(
        self, key: _Key, pin: _Pin
    ) -> List[np.ndarray]:
        """Kernel-dispatch twin of :meth:`_pattern_planes`.

        The store is consulted up the prefix chain in Python (dict
        lookups), but the arithmetic of every miss is compiled: a
        single missing link runs the fused
        :func:`~repro.core._nativekernels.derive_child_planes`, a
        longer gap replays the whole chain in one
        :func:`~repro.core._nativekernels.replay_plane_chain` call per
        chunk — no Python bounce per link.  Unlike the numpy
        recursion, intermediate ancestors of a multi-link replay are
        not stored; only the requested plane is (the store's job is
        parents of live sibling groups, and those are requested
        directly).  Span-1 planes are derived and stored like any
        other — this dispatch never builds the factor arrays they
        would otherwise be views of.
        """
        planes = self.planes.get(key)
        if planes is not None:
            return planes
        # Walk up the chain to the deepest still-stored ancestor.
        links: List[Tuple[int, int]] = []
        node: _Key = key
        base_planes: Optional[List[np.ndarray]] = None
        while True:
            parent, offset, symbol = _strip_last(node)
            links.append((symbol, offset))
            if parent is None:
                break
            base_planes = self.planes.get(parent)
            if base_planes is not None:
                break
            node = parent
        links.reverse()
        use_base = base_planes is not None
        single_link = use_base and len(links) == 1
        symbols = np.array([s for s, _ in links], dtype=np.int64)
        offsets = np.array([o for _, o in links], dtype=np.int64)
        final_offset = links[-1][1]
        dummy = _DUMMY_PLANES[pin.dtype]
        calls = 0
        planes = []
        for ci, padded in enumerate(pin.padded):
            windows = padded.shape[1] - final_offset
            n = padded.shape[0]
            plane = np.empty((max(windows, 0), n), dtype=pin.dtype)
            if windows > 0:
                base = base_planes[ci] if use_base else dummy
                if single_link:
                    self._child_kernel(
                        padded, pin.c_ext, base, links[0][0], links[0][1],
                        plane, pin.maxima_rows(ci, 1)[0],
                    )
                else:
                    self._replay_kernel(
                        padded, pin.c_ext, base, use_base, symbols,
                        offsets, plane,
                    )
                calls += 1
            planes.append(plane)
        self.native_calls += calls
        self.planes.put(key, planes)
        return planes

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
            calls0 = self.native_calls
        if self._compiled:
            charge_warmup(tracer)
        pin = self._scan_and_pin(database, matrix)

        # Group the batch into sibling sets: children sharing (parent,
        # offset) reuse one parent plane and differ only in their last
        # symbol's factor row.  Candidate batches arrive sorted, so
        # siblings are adjacent and insertion order keeps parents that
        # were just derived hot in cache.
        groups: "Dict[Tuple[Optional[_Key], int], Tuple[List[int], List[int]]]" = {}
        for index, pattern in enumerate(patterns):
            parent, offset, symbol = _strip_last(pattern.elements)
            group = groups.get((parent, offset))
            if group is None:
                groups[(parent, offset)] = group = ([], [])
            group[0].append(symbol)
            group[1].append(index)

        totals = np.zeros(len(patterns), dtype=np.float64)
        if self._sibling_kernel is not None:
            self._matches_kernel(groups, pin, totals)
        else:
            self._matches_numpy(groups, pin, totals)

        if traced:
            tracer.count(RESIDENT_PLANE_HITS, self.planes.hits - hits0)
            tracer.count(
                RESIDENT_PLANE_MISSES, self.planes.misses - misses0
            )
            tracer.count(
                RESIDENT_PLANE_BYTES, self.planes.nbytes - bytes0
            )
            tracer.count(
                RESIDENT_NATIVE_CALLS, self.native_calls - calls0
            )
        # One C-level divide + tolist instead of a float() per pattern
        # (same IEEE division, so the values are unchanged).
        np.divide(totals, pin.count, out=totals)
        return dict(zip(patterns, totals.tolist()))

    def _matches_numpy(self, groups, pin: _Pin, totals: np.ndarray) -> None:
        """The numpy plane path (the float64 bit-identity baseline)."""
        gathered_chunks = pin.ensure_gathered()
        for (parent, offset), (symbols, indices) in groups.items():
            planes = (
                None if parent is None
                else self._pattern_planes(parent, pin)
            )
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
                    arena_w = pin.arenas[ci][:windows]
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

    def _matches_kernel(self, groups, pin: _Pin, totals: np.ndarray) -> None:
        """The compiled/interpreted-twin path: one fused sibling-batch
        kernel call per (group, chunk), no factor arrays, no arenas."""
        dummy = _DUMMY_PLANES[pin.dtype]
        for (parent, offset), (symbols, indices) in groups.items():
            planes = (
                None if parent is None
                else self._pattern_planes_kernel(parent, pin)
            )
            index_arr = np.asarray(indices, dtype=np.intp)
            n_sibs = len(symbols)
            symbols_arr = np.asarray(symbols, dtype=np.int64)
            for ci, padded in enumerate(pin.padded):
                windows = padded.shape[1] - offset
                if windows <= 0:
                    continue  # this chunk's sequences are too short: 0.0
                maxima = pin.maxima_rows(ci, n_sibs)
                if planes is None:
                    self._sibling_kernel(
                        padded, pin.c_ext, dummy, False, symbols_arr,
                        offset, maxima,
                    )
                else:
                    self._sibling_kernel(
                        padded, pin.c_ext, planes[ci], True, symbols_arr,
                        offset, maxima,
                    )
                self.native_calls += 1
                # Same per-chunk, scan-order accumulation as the numpy
                # path; maxima are bit-identical, so the totals are too.
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
            for chunk in iter_chunks(database, self.chunk_rows)
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
            sequences, extended_matrix(matrix.array), self.chunk_rows,
            "numpy",
        ) / len(sequences)

    # -- lifecycle ------------------------------------------------------------

    def reset_planes(self) -> None:
        """Drop cached planes but keep the pinned chunks.

        Benchmarks call this between rounds so each round rebuilds its
        planes the way one real Phase-2 run does.
        """
        self.planes.clear()

    def close(self) -> None:
        self._pin = None
        self.planes.clear()

    def __repr__(self) -> str:
        pinned = self._pin.nbytes if self._pin is not None else 0
        return (
            f"ResidentSampleEvaluator(chunk_rows={self.chunk_rows}, "
            f"kernels={self.kernel_mode!r}, "
            f"score_dtype={self.score_dtype!r}, "
            f"pinned_bytes={pinned}, planes={self.planes!r})"
        )
