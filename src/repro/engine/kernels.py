"""Chunk kernels of the counting engine, and its one block kernel.

The kernels operate on *chunks*: a group of sequences padded into one
``(N, L)`` symbol matrix so a whole batch of patterns can be evaluated
against every sequence of the chunk with a handful of numpy operations
per pattern, instead of one Python iteration per (pattern, sequence)
pair.  :func:`block_totals` adds one chunk's match sums; every scan of
the counting engine calls it, on the scanning thread or on a pool
thread, the Phase-2 sample evaluator's included.

A chunk is its symbols
----------------------
A chunk's state is its ``(L, N)`` symbol keys (:func:`chunk_keys`,
``8`` bytes per padded symbol).  The factor row of a symbol *d*,
``C(d, s)`` at every position, is scratch: :meth:`PinSlot.row` gathers
it from the keys (:func:`gather_row`) the first time a walk reads *d*,
into the counting thread's buffers when the chunk is streamed, into
the slot when a :class:`FactorPin` keeps it.  Phase 1 reads no row at
all (:func:`symbol_totals`): it is Algorithm 4.1's pass over each
sequence's distinct symbols, a presence plane scattered from the keys
times the matrix.

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
that symbol (:func:`chunk_keys`), then each sibling's maximum over
the bins times its matrix row (:func:`symbol_maxima`).  A row is read
above its floor only: the floor times the largest real bin, the
diagonal times its own bin, and a ``(|U|, k, N)`` product over *U*,
the columns where some sibling's row rises above its floor
(:class:`SymbolTerms`, split at most once per counting call by
:class:`WalkTerms`) — ``O(W·N + (m + (|U| + 2)·k)·N)`` for the group
instead of a multiply and a max-reduce over the windows per sibling,
``O(k·W·N)``.  Section 5.1's uniform noise has no residual, so *U* is
empty; a sparse matrix has floor ``0``, so its floor term drops out.
The group takes whichever of the two does less work
(:func:`grouped_pays`).  The buffers (:class:`WalkBuffers`) belong to
the calling thread.

Memory layout
-------------
Factor rows, keys and planes are stored *position-major*: ``(L, N)``
with the sequence axis innermost.  The walk then multiplies and
maximises over contiguous ``(windows, N)`` planes, which keeps the
accumulator streaming through cache and makes the ``max`` reduction an
inner-axis-contiguous operation — several times faster than reducing
over a strided last axis.  Every multiply reads two ``(windows, N)``
views (a parent plane and a shifted factor row) and writes one plane,
so no right-hand-side gather is ever materialised.  The keys are C
ordered, so the window slice the scatter-max reads is contiguous and
ravels without a copy.  A streamed chunk's rows land in cache-line
aligned per-thread planes reused from chunk to chunk, so gathering a
row faults in no fresh pages.

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
products that are all ``>= 0``.  Splitting a row at its floor keeps it
too: ``fl(c·x)`` is monotone in ``c`` as well, so the floor times the
largest bin, ``top``, never exceeds the true term at that bin's symbol
and equals every term at the floor, and a zero residual entry adds
only ``0.0``.  ``top`` is taken over the real bins only: the pad
column is no real column, and its bin can hold the largest window.
Per-sequence maxima are summed pairwise within each chunk, which
differs from a sequential sum by at most a few ulps of ``M(P, D)``.
"""

from __future__ import annotations

import hashlib
import os
from typing import (
    Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union,
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


def chunk_keys(padded: np.ndarray) -> np.ndarray:
    """Symbol-bin keys: ``keys[t, i] = padded[i, t] · N + i``.

    The ``(L, N)`` array, C-contiguous in ``intp``, names the ``(symbol,
    sequence)`` bin of every position of the chunk, over ``m + 1``
    symbols (the pad symbol included): the index array of
    :func:`walk_totals`' scatter-max and of :func:`gather_row`.  Keys
    are ``intp`` because that is the index type ``np.maximum.at`` and
    ``np.take`` work in; narrower keys are cast on every call.
    """
    n = padded.shape[0]
    keys = padded.T.astype(np.intp, order="C")
    keys *= n
    keys += np.arange(n)
    return keys


def cell_bytes(c_ext: np.ndarray) -> int:
    """Bytes a :class:`PinSlot` holds at most per padded cell: its
    symbol key and all ``m + 1`` of its factors."""
    return c_ext.shape[0] * c_ext.itemsize + np.dtype(np.intp).itemsize


def gather_row(
    c_ext: np.ndarray, keys: np.ndarray, symbol: int, out: np.ndarray
) -> np.ndarray:
    """One factor row: ``out[t, i] = c_ext[symbol, padded[i, t]]``.

    The ``(L, N)`` row is taken through the chunk's symbol keys
    (:func:`chunk_keys`) from *symbol*'s matrix row repeated once per
    sequence, so key ``s · N + i`` reads ``c_ext[symbol, s]``: the
    same matrix entry the per-sequence evaluation reads, written into
    *out* with no temporary the size of the row.  ``mode="clip"``
    skips the bounds check, which with ``out=`` would gather into a
    copy first; every key is in range by construction.
    """
    table = np.repeat(c_ext[symbol], keys.shape[1])
    return np.take(table, keys, out=out, mode="clip")


class PinSlot:
    """One chunk position of a :class:`FactorPin`: the padded chunk's
    shape, content digest and symbol keys, and the factor rows the
    walks over it have read.

    The keys are the chunk: :meth:`row` gathers factor row ``d`` from
    them the first time a walk reads symbol ``d``.  A slot with a
    *digest* belongs to the pin and keeps every row it gathers, in
    arrays of its own; a slot without one is streamed, counted once
    and dropped, so its rows go into the counting thread's
    :class:`WalkBuffers` and are overwritten by that thread's next
    chunk.  The scanning thread builds slots (padding, keys, digesting
    and budget bookkeeping are serial); rows are gathered wherever the
    slot is counted.

    :attr:`nbytes` is what the slot holds now, the keys and the rows
    it kept; :attr:`max_nbytes` what it would hold with every row
    gathered, the bound the pin's budget is checked against.
    """

    __slots__ = ("shape", "digest", "max_nbytes", "keys", "_c_ext",
                 "_rows")

    def __init__(
        self,
        c_ext: np.ndarray,
        padded: np.ndarray,
        digest: Optional[bytes] = None,
    ):
        self.shape = padded.shape
        self.digest = digest
        self.max_nbytes = padded.size * cell_bytes(c_ext)
        #: The ``(L, N)`` symbol keys (:func:`chunk_keys`).
        self.keys = chunk_keys(padded)
        self._c_ext = c_ext
        self._rows: List[Optional[np.ndarray]] = [None] * c_ext.shape[0]

    @property
    def nbytes(self) -> int:
        """Bytes of symbol keys and kept factor rows held."""
        if self.digest is None:
            return self.keys.nbytes
        return self.keys.nbytes + sum(
            row.nbytes for row in self._rows if row is not None
        )

    def row(self, symbol: int, buffers: "WalkBuffers") -> np.ndarray:
        """The chunk's ``(L, N)`` factor row of *symbol*, ``c_ext[symbol,
        padded.T]``, gathered on the first read — into an array the slot
        keeps when it is pinned, else into *buffers*, the counting
        thread's — and counted in ``buffers.gathered``."""
        found = self._rows[symbol]
        if found is None:
            length, n = self.keys.shape
            if self.digest is None:
                out = buffers.row_plane(symbol, length, n)
            else:
                out = _aligned_empty(length * n, self._c_ext.dtype).reshape(
                    length, n
                )
            found = self._rows[symbol] = gather_row(
                self._c_ext, self.keys, symbol, out
            )
            buffers.gathered += 1
        return found


class FactorPin:
    """One database's symbol keys and factor rows, kept across scans.

    A factor row depends only on ``(compatibility matrix, chunk,
    symbol)``, so repeat scans of one database — Phase 3's probe
    rounds, the daemon's jobs on one store, Phase 2's levels over a
    warm sample — can skip padding, keying and gathering.  Per chunk
    position *i* the pin keeps a :class:`PinSlot`: the padded chunk's
    shape, a ``blake2b`` digest of its bytes, its keys and the rows
    walks have read so far, all under one ``(matrix fingerprint,
    dtype)`` key; chunk *i* of a scan is served from slot *i* only on a
    key, shape and digest match.  Neither a different matrix nor a
    chunk with one symbol changed can therefore be served stale rows:
    the 128-bit digest makes a collision impossible in practice
    (Python's salted 64-bit ``hash`` does not), and real symbols are
    below the pad symbol, so equal padded bytes mean equal rows.
    Digesting the ``(N, L)`` chunk costs ``O(N L)``, about what keying
    it does; a hit saves the keys and every row gathered before.

    ``hits`` and ``misses`` count chunks served from the pin and chunks
    keyed afresh, over the pin's lifetime.
    """

    def __init__(self) -> None:
        self._key: Optional[tuple] = None
        self._slots: List[PinSlot] = []
        self.hits = 0
        self.misses = 0

    @property
    def nbytes(self) -> int:
        """Bytes of symbol keys and factor rows held."""
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
        :meth:`~PinSlot.row` is the chunk's factor row of a symbol.

        Without a *budget* every chunk is kept.  With one, the pin is
        checked against the worst case, every row of every slot
        gathered (:attr:`PinSlot.max_nbytes`): nothing is kept when the
        unpadded keys and rows, :func:`cell_bytes` × total symbols,
        already exceed it, and the pin is dropped as soon as padding
        would push it past the budget — so however many rows later
        walks gather, it never holds more than *budget* bytes.  Once
        nothing is kept, chunks are neither digested nor held: a
        budget of ``0`` streams.
        """
        m = c_ext.shape[0] - 1
        key = (fingerprint, c_ext.dtype)
        if key != self._key:
            self.clear()
            self._key = key
        keep = budget is None or (
            cell_bytes(c_ext) * database.total_symbols() <= budget
        )
        slots = self._slots
        held = sum(slot.max_nbytes for slot in slots)
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
            held += slot.max_nbytes - (0 if old is None else old.max_nbytes)
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
    factor_row: np.ndarray,
    offset: int,
    out: np.ndarray,
) -> np.ndarray:
    """One incremental prefix-product step: parent plane × factor row.

    *parent_plane* holds the left-associated window products of a
    prefix pattern over one chunk — ``(parent windows, N)`` — and the
    child appends a symbol at *offset* (its last fixed position, i.e.
    ``span - 1``), possibly across skipped wildcard positions;
    *factor_row* is that symbol's ``(L, N)`` factor row
    (:meth:`PinSlot.row`).  The child's plane is

    ``child[w] = parent[w] * factor_row[w + offset]``

    for the ``L - offset`` windows the child still fits in, written
    into the leading rows of *out*; the trimmed view is returned.  The
    multiply order is the offset order of the reference evaluation,
    and skipping the wildcard positions is exact: their factor is
    ``1.0`` for in-bounds windows (an exact identity) and the windows
    that overlap the padding are zeroed by the (always fixed) last
    position either way — so every product stays bit-identical to the
    reference evaluation.
    """
    windows = max(factor_row.shape[0] - offset, 0)
    target = out[:windows]
    np.multiply(
        parent_plane[:windows], factor_row[offset : offset + windows],
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
    """One thread's work buffers for :func:`walk_totals` and
    :func:`symbol_totals`.

    Flat, cache-line aligned arrays in the score dtype, reshaped per
    chunk: an ``(L, N)`` arena every looped sibling is multiplied into,
    one ``(L, N)`` plane per prefix-stack depth, one ``(L, N)`` factor
    row per symbol a streamed chunk's walk reads (:meth:`PinSlot.row`),
    the ``(k, N)`` maxima rows of the largest sibling group, the
    ``(m + 1, N)`` symbol bins of the scatter-max and the ``(|U| + 1,
    k, N)`` products of :func:`symbol_maxima` for the largest group
    counted in symbol space (or Phase 1's largest block of target
    symbols).  They are allocated on first use and reused across
    chunks; a chunk with more cells than any before it, or another
    dtype, reallocates them.
    :attr:`gathered` counts the factor rows the thread gathered.
    """

    __slots__ = ("dtype", "cells", "arena", "stack", "rows", "maxima",
                 "bins", "products", "gathered")

    def __init__(self) -> None:
        self.dtype: Optional[np.dtype] = None
        self.cells = self.gathered = 0
        self.arena = self.maxima = self.bins = self.products = np.empty(0)
        self.stack: List[np.ndarray] = []
        self.rows: Dict[int, np.ndarray] = {}

    @property
    def stack_nbytes(self) -> int:
        """Bytes of prefix-stack planes held."""
        return sum(plane.nbytes for plane in self.stack)

    def fit(self, dtype: np.dtype, cells: int) -> None:
        """Make room for an *L·N* = *cells* chunk scored in *dtype*."""
        if dtype != self.dtype or cells > self.cells:
            self.dtype, self.cells = dtype, cells
            self.arena = self.maxima = self.bins = self.products = (
                _aligned_empty(0, dtype)
            )
            self.stack = []
            self.rows = {}

    def views(
        self, dtype: np.dtype, length: int, n: int, plan: WalkPlan,
        symbols: int,
    ) -> Tuple[np.ndarray, List[np.ndarray], np.ndarray, np.ndarray]:
        """``(arena, stack planes, maxima rows, symbol bins)`` for one
        ``(L, N)`` chunk over *symbols* ``= m + 1`` symbols walked by
        *plan*, growing the buffers as needed."""
        cells = length * n
        self.fit(dtype, cells)
        if self.arena.size < cells:
            self.arena = _aligned_empty(self.cells, dtype)
        while len(self.stack) < plan.depth:
            self.stack.append(_aligned_empty(self.cells, dtype))
        shape = (length, n)
        return (
            self.arena[:cells].reshape(shape),
            [plane[:cells].reshape(shape) for plane in self.stack],
            self.maxima_view(plan.siblings, n),
            self.bins_view(symbols, n),
        )

    def row_plane(self, symbol: int, length: int, n: int) -> np.ndarray:
        """The ``(L, N)`` plane a streamed chunk's factor row of
        *symbol* is gathered into."""
        plane = self.rows.get(symbol)
        if plane is None:
            plane = self.rows[symbol] = _aligned_empty(self.cells, self.dtype)
        return plane[: length * n].reshape(length, n)

    def maxima_view(self, rows: int, n: int) -> np.ndarray:
        """``(rows, N)`` maxima rows."""
        if self.maxima.size < rows * n:
            self.maxima = _aligned_empty(rows * n, self.dtype)
        return self.maxima[: rows * n].reshape(rows, n)

    def bins_view(self, symbols: int, n: int) -> np.ndarray:
        """The flat ``(symbols · N)`` symbol bins."""
        if self.bins.size < symbols * n:
            self.bins = _aligned_empty(symbols * n, self.dtype)
        return self.bins[: symbols * n]

    def product_view(self, rows: int, siblings: int, n: int) -> np.ndarray:
        """The ``(rows, siblings, N)`` product buffer of
        :func:`symbol_maxima`, grown on the first group that needs it (a
        walk that loops every group never allocates it)."""
        size = rows * siblings * n
        if self.products.size < size:
            self.products = _aligned_empty(size, self.dtype)
        return self.products[:size].reshape(rows, siblings, n)


class SymbolTerms(NamedTuple):
    """Target symbols' rows of the extended matrix, each split at its
    floor, for :func:`symbol_maxima`.

    Over the real columns ``s < m`` (the pad column excluded), row *d*
    is its floor ``o_d = min_s C(d, s)``, its diagonal ``C(d, d)`` and
    its residual ``R(d, s)``: ``C(d, s)`` where ``s != d`` rises above
    the floor, else ``0``.  :attr:`raised` is *U*, the union of the
    targets' residual columns.  Section 5.1's uniform noise has no
    residual (``U`` is empty); a sparse matrix has floor ``0`` and a
    residual of its few compatible symbols; a dense one keeps all.
    """

    #: The target symbols *d* (``intp``, ``(k,)``).
    symbols: np.ndarray
    #: ``o_d`` as a ``(k, 1)`` column.
    floor: np.ndarray
    #: ``C(d, d)`` as a ``(k, 1)`` column.
    diagonal: np.ndarray
    #: *U* (``intp``, ``(|U|,)``).
    raised: np.ndarray
    #: ``R(d, s)`` for ``s`` in *U*, ``(|U|, k, 1)``.
    residual: np.ndarray
    #: Whether some target's floor is above ``0``.
    floored: bool

    def block(self, start: int, stop: int) -> "SymbolTerms":
        """The terms of targets ``start:stop``, over the same *U*."""
        floor = self.floor[start:stop]
        return SymbolTerms(
            self.symbols[start:stop], floor, self.diagonal[start:stop],
            self.raised, self.residual[:, start:stop], bool(floor.any()),
        )


def symbol_terms(c_ext: np.ndarray, symbols: np.ndarray) -> SymbolTerms:
    """Split the rows *symbols* (real, ``intp``) of the extended matrix
    *c_ext* at their floors (:class:`SymbolTerms`), in its dtype."""
    m = c_ext.shape[0] - 1
    real = c_ext[symbols, :m]
    floor = real.min(axis=1, keepdims=True)
    residual = np.where(real > floor, real, 0)
    residual[np.arange(len(symbols)), symbols] = 0
    raised = np.flatnonzero(residual.any(axis=0))
    return SymbolTerms(
        symbols, floor, c_ext[symbols, symbols][:, None], raised,
        residual.T[raised, :, None], bool(floor.any()),
    )


class WalkTerms:
    """The :class:`SymbolTerms` of a walk's sibling groups over one
    extended matrix *c_ext*: the table :func:`walk_totals` counts
    groups in symbol space from, one per counting call.

    Calling it with a group's siblings (``intp``) returns their terms,
    split on first use and kept for every later chunk and counting
    thread of the call (two threads racing on one group split it twice
    and keep equal terms).  Groups with the same siblings share them;
    a group the walk always loops is never split, so a small database
    (a remine's appended rows) pays for no table it does not read.
    """

    __slots__ = ("c_ext", "_split")

    def __init__(self, c_ext: np.ndarray):
        self.c_ext = c_ext
        self._split: Dict[bytes, SymbolTerms] = {}

    def __call__(self, symbols: np.ndarray) -> SymbolTerms:
        key = symbols.tobytes()
        terms = self._split.get(key)
        if terms is None:
            terms = self._split[key] = symbol_terms(self.c_ext, symbols)
        return terms


def symbol_maxima(
    bins: np.ndarray,
    terms: SymbolTerms,
    out: np.ndarray,
    buffers: WalkBuffers,
) -> np.ndarray:
    """``out[j, i] = max_{s < m} fl(C(d_j, s) · bins[s, i])`` for the
    target symbols ``d_j`` of *terms*, from ``(m + 1, N)`` bins ``>= 0``.

    The maximum of three parts: the floor ``fl(o_d · top_i)``, where
    ``top_i`` is the largest real bin; the diagonal ``fl(C(d, d) ·
    bins[d, i])``; and ``max_{s ∈ U} fl(R(d, s) · bins[s, i])``, one
    ``(|U|, k, N)`` product.  That is ``O((m + (|U| + 2)·k)·N)``
    instead of the ``O((m + 1)·k·N)`` of every entry.  It is the same
    maximum bit for bit: ``fl(c·x)`` is monotone in ``c`` as well as in
    ``x`` when both are ``>= 0``, so the floor term never exceeds the
    true term at the largest bin and equals every term at the floor;
    every other term is the diagonal or a residual one, and a zero
    residual entry adds only ``0.0``.  The pad bin is no real column
    (its entry is ``0``), so it stays out of ``top``.  Targets whose
    floors are all ``0`` (a sparse matrix) skip the floor term, which
    is then ``0.0``.
    """
    m = bins.shape[0] - 1
    raised = terms.raised
    floored = terms.floored
    k, n = out.shape
    products = buffers.product_view(len(raised) + 1, k, n)
    if floored:
        top = np.maximum.reduce(bins[:m], axis=0, out=products[0, 0])
        np.multiply(terms.floor, top, out=out)
    diagonal = np.take(
        bins, terms.symbols, axis=0, out=products[0], mode="clip"
    )
    np.multiply(diagonal, terms.diagonal, out=diagonal)
    if len(raised):
        if floored:
            np.maximum(diagonal, out, out=diagonal)
        np.multiply(
            bins[raised][:, None], terms.residual, out=products[1:]
        )
        np.maximum.reduce(products, axis=0, out=out)
    elif floored:
        np.maximum(out, diagonal, out=out)
    else:
        np.copyto(out, diagonal)
    return out


def grouped_pays(siblings: int, windows: int, rows: int) -> bool:
    """Whether counting a sibling group in symbol space does less work
    than looping over its siblings.

    *rows* is the product rows per sibling of :func:`symbol_maxima`,
    ``|U| + 2``.  Costs per 256 columns, in sixteenths of a
    microsecond measured on one numpy chunk with its rows gathered:
    the scatter-max costs ~8 per window, the products ~6 per cell and
    the group's dozen numpy calls ~360; each looped sibling is one
    multiply and one reduce over the windows, ~3 per window plus ~30
    of call overhead.  An alphabet-wide group under uniform noise is
    ~5x cheaper grouped at ~120 windows; a lone sibling is ~3x cheaper
    looped.
    """
    return (
        8 * windows + 6 * rows * siblings + 360
        < siblings * (3 * windows + 30)
    )


def walk_totals(
    slot: PinSlot,
    c_ext: np.ndarray,
    plan: WalkPlan,
    terms: WalkTerms,
    out: np.ndarray,
    buffers: WalkBuffers,
) -> None:
    """Add every pattern's sum of per-sequence maxima over one chunk
    to *out* at its batch index, walking *plan*'s prefix trie.

    *slot* is the chunk: its ``(L, N)`` symbol keys and its factor
    rows, gathered from the extended matrix *c_ext* (in the score
    dtype) on first read.  The walk reads a row for each span-1 root,
    each link pushed onto the stack (:func:`extend_plane`, into
    *buffers*), each single symbol and each looped sibling; a group
    counted in symbol space reads only the keys.  A sibling group with
    a parent is counted in symbol space when :func:`grouped_pays`: the
    parent plane's windows are scatter-maxed into bins by the symbol at
    the siblings' last position, and each sibling's maxima are the bins
    times its row of *c_ext*, maximised over the symbols
    (:func:`symbol_maxima`, from the siblings' *terms*).  The rule is
    first asked with the fewest product rows, ``2``: more rows only
    cost more, so a group it loops even then needs no terms.
    Otherwise, and for single symbols, each sibling is one multiply of
    its factor row by the parent plane into the arena and one
    maximum-reduce over the windows.  Each group's maxima rows are
    summed (in float64, whatever the score dtype) into *out*.
    Sequences shorter than a span contribute ``0.0``, through the pad
    convention or, when no sequence of the chunk fits, by adding
    nothing.
    """
    symbols = c_ext.shape[0]
    keys = slot.keys
    length, n = keys.shape
    arena, stack, maxima, bins = buffers.views(
        c_ext.dtype, length, n, plan, symbols
    )
    row = slot.row
    grid = bins.reshape(symbols, n)
    chain: List[np.ndarray] = []
    for keep, pushes, offset, siblings, indices in plan.steps:
        del chain[keep:]
        for symbol, link_offset in pushes:
            if chain:
                chain.append(extend_plane(
                    chain[-1], row(symbol, buffers), link_offset,
                    stack[len(chain) - 1],
                ))
            else:
                # Span-1 planes are the factor rows themselves.
                chain.append(row(symbol, buffers))
        windows = length - offset
        if windows <= 0:
            continue
        # The work buffers are sliced to the window span once per
        # sibling group, not once per sibling: with alphabet-sized
        # fan-out the view bookkeeping otherwise rivals the arithmetic.
        # np.maximum.reduce is np.max(axis=0, out=) without the
        # fromnumeric wrapper, which costs more than the reduction
        # itself on sample-sized planes.
        k = len(siblings)
        rows = maxima[:k]
        if offset == 0:
            for i, symbol in enumerate(siblings):
                np.maximum.reduce(row(symbol, buffers), axis=0, out=rows[i])
        elif grouped_pays(k, windows, 2) and grouped_pays(
            k, windows, len(terms(siblings).raised) + 2
        ):
            # Empty bins stay 0.0, which no maximum of products >= 0
            # can fall below.
            bins.fill(0)
            np.maximum.at(
                bins, keys[offset:].ravel(), chain[-1][:windows].ravel()
            )
            symbol_maxima(grid, terms(siblings), rows, buffers)
        else:
            parent = chain[-1][:windows]
            work = arena[:windows]
            for i, symbol in enumerate(siblings):
                np.multiply(row(symbol, buffers)[offset:], parent, out=work)
                np.maximum.reduce(work, axis=0, out=rows[i])
        out[indices] += np.add.reduce(rows, axis=1, dtype=np.float64)


def symbol_totals(
    keys: np.ndarray, terms: SymbolTerms, out: np.ndarray,
    buffers: WalkBuffers,
) -> None:
    """Add one chunk's Phase-1 sums ``Σ_i max_t C(d, s_it)`` to *out*,
    one per real symbol *d*, from the chunk's symbol keys alone.

    *terms* splits every real row of the matrix (:func:`symbol_terms`
    of all ``m`` symbols, built once per counting call).  Algorithm
    4.1's distinct-symbol pass: the keys are scattered into an ``(m +
    1, N)`` presence plane (``1`` where symbol *s* occurs in sequence
    *i*), and ``max_s C(d, s) · present[s, i]`` is the walk's symbol
    space product (:func:`symbol_maxima`) with the presence plane as
    its bins, ``O(L·N + (m + (|U| + 2)·m)·N)`` per chunk.  It equals
    the maximum over the sequence's positions bit for bit: ``C · 1``
    and ``C · 0`` are exact, every entry is ``>= 0``, and the pad
    symbol is no real column, so neither absent symbols nor padding win
    a maximum.  The target symbols *d* are taken in blocks of at most
    ``L``, so the ``(|U| + 1, block, N)`` products never outgrow the
    chunk's whole ``(m + 1, L, N)`` factor array, however wide the
    alphabet; each *d*'s maximum is its own, so the blocks change no
    bit.  The ``(m, N)`` maxima are summed per symbol in the score
    dtype, as a sum over the positions' maxima would be.
    """
    m = len(terms.symbols)
    length, n = keys.shape
    buffers.fit(terms.floor.dtype, length * n)
    present = buffers.bins_view(m + 1, n)
    present.fill(0)
    present[keys.ravel()] = 1
    grid = present.reshape(m + 1, n)
    maxima = buffers.maxima_view(m, n)
    block = min(m, length)
    for start in range(0, m, block):
        stop = min(start + block, m)
        symbol_maxima(
            grid, terms.block(start, stop), maxima[start:stop], buffers
        )
    out += maxima.sum(axis=1)


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
    slot: PinSlot,
    c_ext: np.ndarray,
    kind: str,
    plan: Optional[WalkPlan],
    terms: Union[SymbolTerms, WalkTerms],
    out: np.ndarray,
    buffers: WalkBuffers,
) -> None:
    """Add one block's match sums to *out*; the one block kernel.

    *slot* is the block (a :class:`PinSlot`: its symbol keys and the
    factor rows it gathers from the extended matrix *c_ext*), *buffers*
    the calling thread's.  *kind* :data:`DATABASE_TOTALS` adds each
    pattern of *plan* its sum of per-sequence maxima at its batch
    index, by :func:`walk_totals` with its groups' *terms* (a
    :class:`WalkTerms`); :data:`SYMBOL_TOTALS` adds the Phase-1
    per-symbol sums by :func:`symbol_totals` with *terms* of every real
    symbol, which gathers no row (*plan* unused).
    """
    if kind == SYMBOL_TOTALS:
        symbol_totals(slot.keys, terms, out, buffers)
        return
    walk_totals(slot, c_ext, plan, terms, out, buffers)
