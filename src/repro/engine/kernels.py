"""Chunk kernels of the counting engine, and its one block kernel.

The kernels operate on *chunks*: a group of sequences padded into one
``(N, L)`` symbol matrix so a whole batch of patterns can be evaluated
against every sequence of the chunk with a handful of numpy operations
per pattern, instead of one Python iteration per (pattern, sequence)
pair.  :func:`block_totals` adds one chunk's match sums; every scan of
the counting engine calls it, on the scanning thread or on a pool
thread, the Phase-2 sample evaluator's included.

The prefix-trie walk
--------------------
A batch is planned once (:class:`WalkPlan`): its patterns are grouped
into sibling groups sharing a parent (the pattern minus its last fixed
symbol) and the groups sorted into a pre-order walk of the parents'
prefix trie.  Each chunk replays the plan (:func:`walk_totals`): the
current parent's ancestor chain lives on a stack of ``(L, N)`` planes,
and each distinct parent prefix is derived once by
:func:`extend_plane`.  A sibling ``P·d`` differs from its parent only
by the factor ``C(d, s)`` of the symbol ``s`` at its last position, so
a group of *k* siblings over *W* windows is counted in *symbol space*:
one scatter-max of the parent plane into ``(m + 1, N)`` bins keyed by
that symbol (:func:`chunk_keys`), then one ``(m + 1, k, N)`` multiply
by the siblings' matrix columns and one max-reduce over the symbols —
``O(W·N + k·(m + 1)·N)`` for the group instead of a multiply and a
max-reduce over the windows per sibling, ``O(k·W·N)``.  The group takes
whichever of the two does less work (:func:`grouped_pays`).  The
buffers (:class:`WalkBuffers`) belong to the calling thread.

Memory layout
-------------
The factor array is stored *position-major*: ``(m + 1, L, N)`` with
the sequence axis innermost.  The walk then multiplies and maximises
over contiguous ``(windows, N)`` planes, which keeps the accumulator
streaming through cache and makes the ``max`` reduction an
inner-axis-contiguous operation — several times faster than reducing
over a strided last axis.  Every multiply reads two ``(windows, N)``
views (a parent plane and a factor-array plane) and writes one plane,
so no right-hand-side gather is ever materialised.  A chunk's symbol
keys (:func:`chunk_keys`) are stored ``(L, N)`` in C order, so the
window slice the scatter-max reads is contiguous and ravels without a
copy.

Padding convention
------------------
Sequences are right-padded with the virtual *pad symbol* ``m`` (one
past the alphabet).  The extended compatibility matrix built by
:func:`extended_matrix` gives every real symbol compatibility ``0``
with the pad symbol, so any window that extends past the end of a
sequence multiplies in a ``0.0`` factor at its (always fixed) last
position and drops out of the per-sequence maximum — exactly the
semantics of the unpadded reference evaluation, where such windows are
never enumerated.  The wildcard keeps its own all-ones row ``m`` on
the *true-symbol* axis, mirroring ``repro.core.match.database_matches``.

Bit-compatibility
-----------------
For every real window the factors are gathered from the same matrix
entries and multiplied in the same offset order as the per-sequence
evaluation of :mod:`repro.core.match` (a skipped wildcard multiplies
by an exact ``1.0``), so the per-window products — and therefore the
per-sequence maxima — are bit-identical to it.  The symbol-space step
keeps this: for ``c >= 0`` the rounded product ``fl(c·x)`` is monotone
in ``x``, so ``max_w fl(c·p_w) = fl(c · max_w p_w)`` over the windows
of one bin, and an empty bin adds only ``0.0`` to a maximum over
products that are all ``>= 0``.
Per-sequence maxima are summed pairwise within each chunk, which
differs from a sequential sum by at most a few ulps of ``M(P, D)``.
"""

from __future__ import annotations

import hashlib
import os
from typing import (
    Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from ..core.pattern import Pattern, WILDCARD
from ..core.sequence import SequenceChunk
from ..errors import MiningError

#: Default number of sequences evaluated per padded chunk.  The walk
#: touches only a few ``(windows, N)`` planes per operation, so cache
#: residency does not cap the chunk; larger
#: chunks amortise per-operation Python overhead until right-padding
#: waste (every sequence pads to the chunk maximum) takes over.
DEFAULT_CHUNK_ROWS = 256


def extended_matrix(c: np.ndarray) -> np.ndarray:
    """Extend an ``(m, m)`` compatibility matrix for batched kernels.

    Returns an ``(m + 1, m + 1)`` array: row ``m`` is the wildcard
    (all ones against real symbols) and column ``m`` is the pad symbol
    (compatibility zero with every real symbol, so windows overlapping
    the padding score exactly ``0.0``).
    """
    m = c.shape[0]
    ext = np.zeros((m + 1, m + 1), dtype=np.float64)
    ext[:m, :m] = c
    ext[m, :m] = 1.0
    return ext


def pad_chunk(rows: Sequence[np.ndarray], m: int) -> np.ndarray:
    """Right-pad a list of sequences into one ``(N, L)`` symbol matrix.

    The pad symbol is ``m``.  Raises :class:`MiningError` when a
    sequence contains a symbol outside the matrix alphabet (the padded
    gather would silently alias it with the pad symbol otherwise).
    """
    lengths = np.array([len(r) for r in rows])
    length = int(lengths.max(initial=0))
    padded = np.full((len(rows), length), m, dtype=np.int64)
    if length:
        # One boolean scatter instead of a per-row assignment loop.
        mask = np.arange(length) < lengths[:, None]
        padded[mask] = np.concatenate(rows)
    # Whole-chunk validation: a real symbol is invalid iff it is >= m.
    # Padding slots legitimately hold m, so a chunk is valid when the
    # overall max is below m, or equals m with exactly the padding
    # slots accounting for every occurrence.
    top = int(padded.max(initial=0))
    if top > m or (
        top == m
        and int((padded == m).sum()) != padded.size - int(lengths.sum())
    ):
        bad = max((int(r.max()) for r in rows if len(r)), default=0)
        raise MiningError(
            f"sequence contains symbol {bad} but the compatibility "
            f"matrix only covers {m} symbols"
        )
    if int(padded.min(initial=m)) < 0:
        # A negative index would silently alias another matrix column.
        raise MiningError(
            "sequences contain symbol indices, which must be >= 0"
        )
    return padded


def gather_chunk(c_ext: np.ndarray, padded: np.ndarray) -> np.ndarray:
    """Factor-row gather: ``result[d, t, i] = c_ext[d, padded[i, t]]``.

    One gather per chunk replaces the per-sequence ``c_ext[:, seq]``
    gathers of the reference path; the result is the cacheable *factor
    array* of shape ``(m + 1, L, N)`` — position major, sequences
    innermost (see the module docstring).

    ``np.take`` writes that layout directly.  Fancy indexing through
    the transposed index array would yield a buffer in the *index's*
    memory order (symbol axis innermost), making every downstream
    window slice strided, and its contiguous copy would allocate and
    free a second factor-sized array per chunk.
    """
    return np.take(c_ext, padded.T, axis=1)


def key_dtype(bins: int) -> np.dtype:
    """The narrowest index dtype of :func:`chunk_keys` for *bins*
    ``= (m + 1) · N`` symbol bins: int32 when they fit, else intp."""
    return np.dtype(np.int32 if bins <= np.iinfo(np.int32).max else np.intp)


def chunk_keys(padded: np.ndarray, symbols: int) -> np.ndarray:
    """Symbol-bin keys: ``keys[t, i] = padded[i, t] · N + i``.

    The ``(L, N)`` array, C-contiguous in :func:`key_dtype`, names the
    ``(symbol, sequence)`` bin of every position of the chunk, over
    *symbols* ``= m + 1`` symbols (the pad symbol included): the index
    array of :func:`walk_totals`' scatter-max.
    """
    n = padded.shape[0]
    dtype = key_dtype(symbols * n)
    keys = padded.T.astype(dtype, order="C")
    keys *= n
    keys += np.arange(n, dtype=dtype)
    return keys


def cell_bytes(c_ext: np.ndarray, n: int) -> int:
    """Bytes a :class:`PinSlot` holds per padded cell of an *n*-row
    chunk: its ``m + 1`` factors and its symbol key."""
    symbols = c_ext.shape[0]
    return symbols * c_ext.itemsize + key_dtype(symbols * n).itemsize


class PinSlot:
    """One chunk position of a :class:`FactorPin`: the padded chunk's
    shape and content digest, and its factor array and symbol keys,
    built on the first :meth:`factors` call.

    The scanning thread builds slots (padding, digesting and budget
    bookkeeping are serial); the gather itself can then run wherever
    the slot is counted.
    """

    __slots__ = ("shape", "digest", "nbytes", "_c_ext", "_padded",
                 "_factors", "_keys")

    def __init__(
        self,
        c_ext: np.ndarray,
        padded: np.ndarray,
        digest: Optional[bytes] = None,
    ):
        self.shape = padded.shape
        self.digest = digest
        # The gathered (m + 1, L, N) array in c_ext's dtype, plus keys.
        self.nbytes = padded.size * cell_bytes(c_ext, padded.shape[0])
        self._c_ext = c_ext
        self._padded: Optional[np.ndarray] = padded
        self._factors: Optional[np.ndarray] = None
        self._keys: Optional[np.ndarray] = None

    def factors(self) -> np.ndarray:
        """The chunk's ``(m + 1, L, N)`` factor array."""
        if self._factors is None:
            # Keys first: a slot whose factors are set has its keys.
            self._keys = chunk_keys(self._padded, self._c_ext.shape[0])
            self._factors = gather_chunk(self._c_ext, self._padded)
            self._padded = None
        return self._factors

    def keys(self) -> np.ndarray:
        """The chunk's ``(L, N)`` symbol keys (:func:`chunk_keys`)."""
        self.factors()
        return self._keys


class FactorPin:
    """One database's factor arrays, kept across scans of it.

    The factor array depends only on ``(compatibility matrix, chunk)``,
    so repeat scans of one database — Phase 3's probe rounds, the
    daemon's jobs on one store, Phase 2's levels over one sample — can
    skip the gather.  Per chunk position *i* the pin keeps a
    :class:`PinSlot`: the padded chunk's shape, a ``blake2b`` digest of
    its bytes and its gathered array and keys, all under one ``(matrix
    fingerprint, dtype)`` key; chunk *i* of a scan is served from slot
    *i* only on a key, shape and digest match.  Neither a different
    matrix nor a chunk with one symbol changed can therefore be served
    stale factors: the 128-bit digest makes a collision impossible in
    practice (Python's salted 64-bit ``hash`` does not), and real
    symbols are below the pad symbol, so equal padded bytes mean equal
    rows.  Digesting the ``(N, L)`` chunk costs ``O(N L)``, small next
    to the ``O(m N L)`` gather it saves.

    ``hits`` and ``misses`` count chunks served from the pin and chunks
    gathered, over the pin's lifetime.
    """

    def __init__(self) -> None:
        self._key: Optional[tuple] = None
        self._slots: List[PinSlot] = []
        self.hits = 0
        self.misses = 0

    @property
    def nbytes(self) -> int:
        """Bytes of factor arrays and symbol keys held."""
        return sum(slot.nbytes for slot in self._slots)

    def __len__(self) -> int:
        return len(self._slots)

    def clear(self) -> None:
        self._key = None
        self._slots.clear()

    def scan(
        self,
        database,
        chunk_rows: int,
        c_ext: np.ndarray,
        fingerprint: tuple,
        budget: Optional[int] = None,
    ) -> Iterator[Tuple[SequenceChunk, PinSlot]]:
        """Consume one ``database.scan_chunks(chunk_rows)`` pass and
        yield ``(chunk, slot)`` per chunk, in scan order; a slot's
        :meth:`~PinSlot.factors` is the chunk's factor array.

        Without a *budget* every chunk is kept.  With one, nothing is
        kept when the unpadded factor arrays and keys,
        :func:`cell_bytes` × total symbols, already exceed it, and the
        pin is dropped as soon as padding would push it past the budget
        — so it never holds more than *budget* bytes.  Once nothing is kept, chunks are
        neither digested nor held: a budget of ``0`` streams.
        """
        m = c_ext.shape[0] - 1
        key = (fingerprint, c_ext.dtype)
        if key != self._key:
            self.clear()
            self._key = key
        keep = budget is None or (
            cell_bytes(c_ext, chunk_rows) * database.total_symbols()
            <= budget
        )
        slots = self._slots
        held = self.nbytes
        count = 0
        for i, chunk in enumerate(database.scan_chunks(chunk_rows)):
            count = i + 1
            padded = pad_chunk(chunk.rows, m)
            if not keep:
                self.misses += 1
                yield chunk, PinSlot(c_ext, padded)
                continue
            digest = hashlib.blake2b(padded.data, digest_size=16).digest()
            old = slots[i] if i < len(slots) else None
            if (
                old is not None and old.shape == padded.shape
                and old.digest == digest
            ):
                self.hits += 1
                yield chunk, old
                continue
            self.misses += 1
            slot = PinSlot(c_ext, padded, digest)
            held += slot.nbytes - (0 if old is None else old.nbytes)
            if budget is not None and held > budget:
                # Padding outgrew the budget: keep nothing of this scan.
                slots.clear()
                keep = False
            elif old is None:
                slots.append(slot)
            else:
                slots[i] = slot
            yield chunk, slot
        if keep:
            del slots[count:]


# -- the prefix-trie walk ----------------------------------------------------

#: A pattern's raw element tuple (building Pattern objects per lookup
#: would dominate the planning loop).
_Key = Tuple[int, ...]

#: One link of a prefix chain: the fixed symbol and its offset.
_Link = Tuple[int, int]


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


def extend_plane(
    parent_plane: np.ndarray,
    gathered: np.ndarray,
    symbol: int,
    offset: int,
    out: np.ndarray,
) -> np.ndarray:
    """One incremental prefix-product step: parent plane × factor row.

    *parent_plane* holds the left-associated window products of a
    prefix pattern over one chunk — ``(parent windows, N)`` — and the
    child appends *symbol* at *offset* (its last fixed position, i.e.
    ``span - 1``), possibly across skipped wildcard positions.  The
    child's plane is

    ``child[w] = parent[w] * gathered[symbol, w + offset]``

    for the ``length - offset`` windows the child still fits in,
    written into the leading rows of *out*; the trimmed view is
    returned.  The multiply order is the offset order of the reference
    evaluation, and skipping the wildcard positions is exact: their
    factor is ``1.0`` for in-bounds windows (an exact identity) and the
    windows that overlap the padding are zeroed by the (always fixed)
    last position either way — so every product stays bit-identical to
    the reference evaluation.
    """
    length = gathered.shape[1]
    windows = max(length - offset, 0)
    target = out[:windows]
    np.multiply(
        parent_plane[:windows],
        gathered[symbol, offset : offset + windows, :],
        out=target,
    )
    return target


class WalkStep(NamedTuple):
    """One sibling group of a :class:`WalkPlan`, in visit order."""

    #: Prefix-stack entries kept from the previous group.
    keep: int
    #: ``(symbol, offset)`` links then derived onto the stack.
    pushes: Tuple[_Link, ...]
    #: The siblings' last fixed position; ``0`` for single symbols,
    #: which have no parent plane.
    offset: int
    #: The siblings' last symbols (``intp``).
    symbols: np.ndarray
    #: The siblings' batch indices (``intp``).
    indices: np.ndarray


class WalkPlan:
    """The prefix-trie walk of one pattern batch, built once per batch
    and replayed on every chunk by :func:`walk_totals`.

    A pattern ``P·(gaps)·d`` is its parent ``P`` plus one fixed symbol,
    and window products associate left to right, so its score plane is
    the parent's plane times one shifted factor row.  The batch is
    grouped into sibling groups keyed by ``(parent, offset)``: siblings
    share one parent plane and differ only in the last factor row.
    Sorting the groups by ``(parent elements, offset)`` is a pre-order
    walk of the parents' prefix trie, so a stack holding the current
    parent's ancestor chain suffices: moving to the next group pops to
    the longest common ancestor (:attr:`WalkStep.keep`) and extends
    from there (:attr:`WalkStep.pushes`), and every distinct parent
    prefix is derived exactly once per chunk.

    :attr:`depth` is the number of ``(L, N)`` stack planes the deepest
    parent needs (span-1 ancestors are views of the factor array),
    :attr:`siblings` the largest group.  :attr:`hits` counts groups
    whose parent of two or more fixed symbols was already on the
    stack, :attr:`misses` the links derived into stack planes: the
    per-chunk stack traffic, which depends on the batch alone.
    """

    __slots__ = ("steps", "depth", "siblings", "hits", "misses")

    def __init__(self, patterns: Sequence[Pattern]):
        groups: Dict[Tuple[Optional[_Key], int], Tuple[list, list]] = {}
        for index, pattern in enumerate(patterns):
            parent, offset, symbol = _strip_last(pattern.elements)
            group = groups.get((parent, offset))
            if group is None:
                groups[(parent, offset)] = group = ([], [])
            group[0].append(symbol)
            group[1].append(index)
        self.steps: List[WalkStep] = []
        self.depth = self.siblings = self.hits = self.misses = 0
        links: List[_Link] = []
        for (parent, offset), (symbols, indices) in sorted(
            groups.items(), key=_visit_order
        ):
            if parent is None:
                # Single symbols read the factor rows: the stack stays.
                keep, pushes = len(links), ()
            else:
                wanted = _chain_links(parent)
                keep = 0
                while (
                    keep < len(links) and keep < len(wanted)
                    and links[keep] == wanted[keep]
                ):
                    keep += 1
                if keep == len(wanted) and keep > 1:
                    self.hits += 1
                # Every link past the span-1 root fills a stack plane.
                self.misses += len(wanted) - max(keep, 1)
                self.depth = max(self.depth, len(wanted) - 1)
                pushes = tuple(wanted[keep:])
                links = wanted
            self.siblings = max(self.siblings, len(symbols))
            self.steps.append(WalkStep(
                keep, pushes, offset,
                np.asarray(symbols, dtype=np.intp),
                np.asarray(indices, dtype=np.intp),
            ))


#: Byte alignment of the walk's buffers: one cache line.  Every sibling
#: multiply streams its product into the arena, and stores that start
#: off a line boundary made the walk up to ~1.4x slower.
_ALIGN = 64


def _aligned_empty(size: int, dtype: np.dtype) -> np.ndarray:
    """An uninitialised 1-D array of *size* items that starts on a
    cache line (``np.empty`` guarantees only 16 bytes)."""
    nbytes = size * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + _ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % _ALIGN
    return raw[start : start + nbytes].view(dtype)


class WalkBuffers:
    """One thread's work buffers for :func:`walk_totals`.

    Flat, cache-line aligned arrays in the factor array's dtype,
    reshaped per chunk: an ``(L, N)`` arena every looped sibling is
    multiplied into, one ``(L, N)`` plane per prefix-stack depth, the
    ``(k, N)`` maxima rows of the largest sibling group, the
    ``(m + 1, N)`` symbol bins of the scatter-max and the
    ``(m + 1, k, N)`` products of the largest group counted in symbol
    space.  They are reused across chunks; a chunk with more cells than
    any before it, or another dtype, reallocates them.
    """

    __slots__ = ("dtype", "cells", "arena", "stack", "maxima", "bins",
                 "products")

    def __init__(self) -> None:
        self.dtype: Optional[np.dtype] = None
        self.cells = 0
        self.arena = self.maxima = self.bins = self.products = np.empty(0)
        self.stack: List[np.ndarray] = []

    @property
    def stack_nbytes(self) -> int:
        """Bytes of prefix-stack planes held."""
        return sum(plane.nbytes for plane in self.stack)

    def views(
        self, dtype: np.dtype, length: int, n: int, plan: WalkPlan,
        symbols: int,
    ) -> Tuple[np.ndarray, List[np.ndarray], np.ndarray, np.ndarray]:
        """``(arena, stack planes, maxima rows, symbol bins)`` for one
        ``(L, N)`` chunk over *symbols* ``= m + 1`` symbols walked by
        *plan*, growing the buffers as needed."""
        cells = length * n
        if dtype != self.dtype or cells > self.cells:
            self.dtype, self.cells = dtype, cells
            self.arena = _aligned_empty(cells, dtype)
            self.maxima = self.bins = self.products = _aligned_empty(
                0, dtype
            )
            self.stack = []
        while len(self.stack) < plan.depth:
            self.stack.append(_aligned_empty(self.cells, dtype))
        if self.maxima.size < plan.siblings * n:
            self.maxima = _aligned_empty(plan.siblings * n, dtype)
        if self.bins.size < symbols * n:
            self.bins = _aligned_empty(symbols * n, dtype)
        shape = (length, n)
        return (
            self.arena[:cells].reshape(shape),
            [plane[:cells].reshape(shape) for plane in self.stack],
            self.maxima[: plan.siblings * n].reshape(plan.siblings, n),
            self.bins[: symbols * n],
        )

    def product_view(self, symbols: int, siblings: int, n: int) -> np.ndarray:
        """The ``(symbols, siblings, N)`` product buffer, grown on the
        first group that needs it (a walk that loops every group never
        allocates it)."""
        size = symbols * siblings * n
        if self.products.size < size:
            self.products = _aligned_empty(size, self.dtype)
        return self.products[:size].reshape(symbols, siblings, n)


def grouped_pays(siblings: int, windows: int, symbols: int) -> bool:
    """Whether counting a sibling group in symbol space does less work
    than looping over its siblings.

    Costs per 256 columns, in quarter microseconds measured on one
    numpy chunk: the scatter-max costs ~4 per window and the
    ``(symbols, siblings)`` products with their reduce ~2 per cell;
    each looped sibling is one multiply and one reduce over the
    windows, ~1 per window plus ~12 of call overhead.  An alphabet-wide
    group of a 20-symbol alphabet over ~120 windows is ~2x cheaper
    grouped; a lone sibling is ~7x cheaper looped.
    """
    return (
        4 * windows + 2 * symbols * siblings < siblings * (windows + 12)
    )


def walk_totals(
    gathered: np.ndarray,
    keys: np.ndarray,
    c_ext: np.ndarray,
    plan: WalkPlan,
    out: np.ndarray,
    buffers: WalkBuffers,
) -> None:
    """Add every pattern's sum of per-sequence maxima over one chunk
    to *out* at its batch index, walking *plan*'s prefix trie.

    *gathered* is the chunk's ``(m + 1, L, N)`` factor array, *keys*
    its ``(L, N)`` symbol keys (:func:`chunk_keys`) and *c_ext* the
    extended matrix it was gathered from, in its dtype.  The stack's
    planes are derived with :func:`extend_plane` into *buffers*.  A
    sibling group with a parent is counted in symbol space when
    :func:`grouped_pays`: the parent plane's windows are scatter-maxed
    into bins by the symbol at the siblings' last position, each
    sibling's maxima are the bins times its column of *c_ext*,
    max-reduced over the symbols.  Otherwise, and for single symbols,
    each sibling is one multiply of its factor row by the parent plane
    into the arena and one maximum-reduce over the windows.  Each
    group's maxima rows are summed (in float64, whatever the factor
    dtype) into *out*.  Sequences shorter than a span contribute
    ``0.0``, through the pad convention or, when no sequence of the
    chunk fits, by adding nothing.
    """
    symbols, length, n = gathered.shape
    arena, stack, maxima, bins = buffers.views(
        gathered.dtype, length, n, plan, symbols
    )
    grid = bins.reshape(symbols, 1, n)
    columns = c_ext.T
    chain: List[np.ndarray] = []
    for keep, pushes, offset, siblings, indices in plan.steps:
        del chain[keep:]
        for symbol, link_offset in pushes:
            if chain:
                chain.append(extend_plane(
                    chain[-1], gathered, symbol, link_offset,
                    stack[len(chain) - 1],
                ))
            else:
                # Span-1 planes are views straight into the factors.
                chain.append(gathered[symbol])
        windows = length - offset
        if windows <= 0:
            continue
        # The factor rows and work buffers are sliced to the window
        # span once per sibling group, not once per sibling: with
        # alphabet-sized fan-out the view bookkeeping otherwise rivals
        # the arithmetic.  np.maximum.reduce is np.max(axis=0, out=)
        # without the fromnumeric wrapper, which costs more than the
        # reduction itself on sample-sized planes.
        k = len(siblings)
        rows = maxima[:k]
        if offset == 0:
            for i, symbol in enumerate(siblings):
                np.maximum.reduce(gathered[symbol], axis=0, out=rows[i])
        elif grouped_pays(k, windows, symbols):
            # Empty bins stay 0.0, which no maximum of products >= 0
            # can fall below.
            bins.fill(0)
            np.maximum.at(
                bins, keys[offset:].ravel(), chain[-1][:windows].ravel()
            )
            products = buffers.product_view(symbols, k, n)
            np.multiply(grid, columns[:, siblings, None], out=products)
            np.maximum.reduce(products, axis=0, out=rows)
        else:
            base = gathered[:, offset:, :]
            parent = chain[-1][:windows]
            work = arena[:windows]
            for i, symbol in enumerate(siblings):
                np.multiply(base[symbol], parent, out=work)
                np.maximum.reduce(work, axis=0, out=rows[i])
        out[indices] += np.add.reduce(rows, axis=1, dtype=np.float64)


def chunk_symbol_maxima(gathered: np.ndarray) -> np.ndarray:
    """Per-symbol, per-sequence maxima over one chunk (Phase-1 kernel).

    ``result[d, i] = max_t C(d, observed_t)`` for sequence ``i`` of the
    chunk — bit-identical to
    :func:`repro.core.match.symbol_sequence_matches` row by row: the
    padded gather adds only duplicate columns and zero-valued pad
    columns, neither of which changes an exact maximum over the
    non-negative matrix entries.
    """
    m = gathered.shape[0] - 1
    return gathered[:m].max(axis=1)


# -- score dtypes and the block kernel ----------------------------------------

#: Environment variable selecting the default scoring dtype.
SCORE_DTYPE_ENV_VAR = "NOISYMINE_SCORE_DTYPE"

#: Scoring dtypes of the counting engine; only the Phase-2 sample
#: evaluator is ever built in float32.
SCORE_DTYPES = ("float64", "float32")

#: The default scoring dtype.
DEFAULT_SCORE_DTYPE = "float64"

#: Block kinds understood by :func:`block_totals`.
DATABASE_TOTALS = "database-totals"
SYMBOL_TOTALS = "symbol-totals"


def resolve_score_dtype(spec: Optional[str] = None) -> str:
    """Resolve a scoring dtype with flag > env > default precedence.

    ``None`` consults ``NOISYMINE_SCORE_DTYPE`` and falls back to
    float64; a bad value from either source fails loudly.
    """
    if spec is None:
        spec = (
            os.environ.get(SCORE_DTYPE_ENV_VAR, "").strip()
            or DEFAULT_SCORE_DTYPE
        )
    if spec not in SCORE_DTYPES:
        raise MiningError(
            f"unknown score dtype {spec!r}; "
            f"available dtypes: {', '.join(SCORE_DTYPES)}"
        )
    return spec


def block_totals(
    gathered: np.ndarray,
    keys: np.ndarray,
    c_ext: np.ndarray,
    kind: str,
    plan: Optional[WalkPlan],
    out: np.ndarray,
    buffers: Optional[WalkBuffers],
) -> None:
    """Add one block's match sums to *out*; the one block kernel.

    *gathered* and *keys* are the block's factor array and symbol keys
    (a :class:`PinSlot`'s), gathered from the extended matrix *c_ext*.
    *kind* :data:`DATABASE_TOTALS` adds each pattern of *plan* its sum
    of per-sequence maxima at its batch index, by :func:`walk_totals`
    into the calling thread's *buffers*; :data:`SYMBOL_TOTALS` adds the
    Phase-1 per-symbol sums (*keys*, *c_ext*, *plan* and *buffers*
    unused).
    """
    if kind == SYMBOL_TOTALS:
        # The pad column is all zeros: padding never wins a max.
        out += chunk_symbol_maxima(gathered).sum(axis=1)
        return
    walk_totals(gathered, keys, c_ext, plan, out, buffers)
