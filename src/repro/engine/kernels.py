"""Chunk kernels of the counting engine, and its one block kernel.

The kernels operate on *chunks*: a group of sequences padded into one
``(N, L)`` symbol matrix so a whole batch of same-span patterns can be
evaluated against every sequence of the chunk with a handful of numpy
operations, instead of one Python iteration per (pattern, sequence)
pair.  :func:`block_totals` adds one chunk's match sums; every scan of the
counting engine calls it, on the scanning thread or on a pool thread.

Memory layout
-------------
The factor array is stored *position-major*: ``(m + 1, L, N)`` with
the sequence axis innermost.  The window reduction then multiplies and
maximises over contiguous ``(windows, N)`` planes, which keeps the
accumulator streaming through cache and makes the ``max`` reduction an
inner-axis-contiguous operation — several times faster than reducing
over a strided last axis.  Window products are accumulated *row-wise*:
every multiply reads two ``(windows, N)`` views (a score row and a
factor-array plane) and writes one score row, so no intermediate
right-hand-side gather or prefix fan-out copy is ever materialised —
per-window element traffic is one multiply and one store, the
streaming lower bound for this evaluation order.

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
evaluation of :mod:`repro.core.match`, so the per-window products —
and therefore the per-sequence maxima — are bit-identical to it.
Per-sequence maxima are summed pairwise within each chunk, which
differs from a sequential sum by at most a few ulps of ``M(P, D)``.
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.pattern import Pattern, WILDCARD
from ..core.sequence import SequenceChunk
from ..errors import MiningError

#: Default number of sequences evaluated per padded chunk.  The
#: row-wise kernel touches only a few ``(windows, N)`` planes per
#: operation, so cache residency no longer caps the chunk; larger
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


def group_patterns_by_span(
    patterns: Sequence[Pattern], m: int
) -> Tuple[Dict[int, List[int]], Dict[int, np.ndarray]]:
    """Group patterns by span and build their element matrices.

    Returns ``(indices_by_span, elements_by_span)`` where
    ``elements_by_span[span]`` is a ``(B, span)`` int64 matrix with the
    wildcard remapped to the virtual symbol ``m`` — the same remapping
    the reference evaluation uses.
    """
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


class PinSlot:
    """One chunk position of a :class:`FactorPin`: the padded chunk's
    shape and content digest, and its factor array, gathered on the
    first :meth:`factors` call.

    The scanning thread builds slots (padding, digesting and budget
    bookkeeping are serial); the gather itself can then run wherever
    the slot is counted.
    """

    __slots__ = ("shape", "digest", "nbytes", "_c_ext", "_padded",
                 "_factors")

    def __init__(
        self,
        c_ext: np.ndarray,
        padded: np.ndarray,
        digest: Optional[bytes] = None,
    ):
        self.shape = padded.shape
        self.digest = digest
        # The gathered array is (m + 1, L, N) in c_ext's dtype.
        self.nbytes = c_ext.shape[0] * padded.size * c_ext.itemsize
        self._c_ext = c_ext
        self._padded: Optional[np.ndarray] = padded
        self._factors: Optional[np.ndarray] = None

    def factors(self) -> np.ndarray:
        """The chunk's ``(m + 1, L, N)`` factor array."""
        if self._factors is None:
            self._factors = gather_chunk(self._c_ext, self._padded)
            self._padded = None
        return self._factors


class FactorPin:
    """One database's factor arrays, kept across scans of it.

    The factor array depends only on ``(compatibility matrix, chunk)``,
    so repeat scans of one database — Phase 3's probe rounds, the
    daemon's jobs on one store, Phase 2's levels over one sample — can
    skip the gather.  Per chunk position *i* the pin keeps a
    :class:`PinSlot`: the padded chunk's shape, a ``blake2b`` digest of
    its bytes and its gathered array, all under one ``(matrix
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
        """Bytes of factor arrays held."""
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
        kept when the unpadded factor arrays, ``(m + 1) × itemsize ×
        total symbols`` bytes, already exceed it, and the pin is dropped
        as soon as padding would push it past the budget — so it never
        holds more than *budget* bytes.
        """
        m = c_ext.shape[0] - 1
        key = (fingerprint, c_ext.dtype)
        if key != self._key:
            self.clear()
            self._key = key
        keep = budget is None or (
            (m + 1) * c_ext.itemsize * database.total_symbols() <= budget
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


#: One level of a prefix-sharing evaluation plan: the symbol column to
#: multiply in at this offset, and (for non-root levels) the optional
#: inverse map expanding deduplicated prefix rows back to this level's
#: rows (``None`` when every prefix is distinct and rows stay aligned).
PlanLevel = Tuple[np.ndarray, Optional[np.ndarray]]


def prefix_plan(elements: np.ndarray) -> List[PlanLevel]:
    """Build the shared-prefix evaluation plan for one span group.

    Candidate batches produced by rightward extension share their
    ``(k-1)``-prefixes: a level-``k`` candidate is a surviving pattern
    plus one more symbol, so a batch of ``B`` children typically
    descends from far fewer distinct parents.  Because window products
    are accumulated left-to-right, the product of a shared prefix is
    exactly the left-associated partial product of every child — it
    can be computed once per distinct prefix and fanned out, keeping
    the per-window products bit-identical to the flat evaluation.

    The plan is pattern-only (independent of any chunk), so callers
    build it once per batch and replay it on every chunk.  Level ``o``
    of the returned list holds the symbol column multiplied at offset
    ``o`` and the inverse map that expands the deduplicated prefix
    rows of level ``o - 1`` to this level (``None`` when prefixes are
    already distinct).  For batches with no shared prefixes the plan
    replays the plain offset-order product with no extra copies.

    Prefixes are deduplicated by *adjacent runs* rather than a full
    ``np.unique(axis=0)``: miners count candidates in sorted order, so
    equal prefixes are adjacent and run-merging finds all of them in
    ``O(B * span)`` cheap comparisons (a sorted ``unique`` per level is
    ~10x the cost of the multiplies it saves on these small batches).
    On unsorted input the plan stays correct — non-adjacent duplicate
    prefixes are merely evaluated per run instead of once.
    """
    levels: List[PlanLevel] = []
    current = elements
    while current.shape[1] > 1:
        prefix = current[:, :-1]
        starts = np.empty(prefix.shape[0], dtype=bool)
        starts[0] = True
        np.any(prefix[1:] != prefix[:-1], axis=1, out=starts[1:])
        runs = int(starts.sum())
        if runs == prefix.shape[0]:
            # All prefixes distinct: keep this level's row order so the
            # child multiply needs no expansion copy.
            levels.append((current[:, -1], None))
        else:
            inverse = np.cumsum(starts) - 1
            levels.append((current[:, -1], inverse))
        current = prefix[starts]
    levels.append((current[:, 0], None))
    levels.reverse()
    return levels


def chunk_group_maxima(
    gathered: np.ndarray,
    elements: np.ndarray,
    plan: Optional[List[PlanLevel]] = None,
    scratch: Optional[Dict[tuple, np.ndarray]] = None,
) -> np.ndarray:
    """Per-sequence best-window match for a batch of same-span patterns.

    Parameters
    ----------
    gathered:
        ``(m + 1, L, N)`` factor array from :func:`gather_chunk`.
    elements:
        ``(B, span)`` element matrix (wildcard already remapped).
    plan:
        Optional precomputed :func:`prefix_plan` for *elements*
        (rebuilt on the fly when omitted).
    scratch:
        Optional dict reused across calls to recycle the ``(B, W, N)``
        score buffer instead of reallocating it per chunk.

    Returns the ``(B, N)`` matrix of ``M(P, S)`` values.  Sequences
    shorter than the span contribute ``0.0`` via the pad convention.

    Products are accumulated row by row: score row ``r`` is multiplied
    in place by the ``(windows, N)`` *view* ``gathered[d, o:o+W]`` of
    its offset-``o`` symbol, so the right-hand factors are never
    copied.  Levels that fan a shared prefix out to its children fuse
    the copy into the multiply (``out=`` a fresh row) and walk rows in
    descending order — run-merged prefixes guarantee ``inv[r] <= r``,
    so a parent row is only overwritten by its own first child, where
    the in-place elementwise product is safe.  Factors multiply in the
    same offset order as the reference evaluation, so every product is
    bit-identical to it.
    """
    length, n = gathered.shape[1], gathered.shape[2]
    b, span = elements.shape
    windows = length - span + 1
    if windows <= 0:
        return np.zeros((b, n), dtype=np.float64)
    if plan is None:
        plan = prefix_plan(elements)
    symbols0, _ = plan[0]
    if span == 1:
        return gathered[symbols0, 0:windows, :].max(axis=1)
    # Level sizes are non-decreasing down the plan, so one (B, W, N)
    # buffer serves every level as a leading-rows view.
    key = (b, windows, n)
    if scratch is None:
        full = np.empty(key, dtype=np.float64)
    else:
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
                    scores[r],
                    gathered[symbols[r], offset:stop, :],
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


def extend_plane(
    parent_plane: np.ndarray,
    gathered: np.ndarray,
    symbol: int,
    offset: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One incremental prefix-product step: parent plane × factor row.

    *parent_plane* holds the left-associated window products of a
    prefix pattern over one chunk — ``(parent windows, N)`` — and the
    child appends *symbol* at *offset* (its last fixed position, i.e.
    ``span - 1``), possibly across skipped wildcard positions.  The
    child's plane is

    ``child[w] = parent[w] * gathered[symbol, w + offset]``

    for the ``length - offset`` windows the child still fits in.  The
    multiply order is the same offset order the flat kernels use, and
    skipping the wildcard positions is exact: their factor is ``1.0``
    for in-bounds windows (an exact identity) and the windows that
    overlap the padding are zeroed by the (always fixed) last position
    either way — so every product stays bit-identical to
    :func:`chunk_group_maxima` and the reference evaluation.

    With *out*, the product is written into its leading rows and the
    trimmed view is returned (the hot path reuses one arena buffer per
    chunk); otherwise a fresh array is allocated (planes that are
    cached must own their memory).
    """
    length = gathered.shape[1]
    windows = max(length - offset, 0)
    factors = gathered[symbol, offset : offset + windows, :]
    if out is None:
        return parent_plane[:windows] * factors
    target = out[:windows]
    np.multiply(parent_plane[:windows], factors, out=target)
    return target


def group_plans(
    elements_by_span: Dict[int, np.ndarray]
) -> Dict[int, List[PlanLevel]]:
    """Prefix plans for every span group of a batch (built once)."""
    return {
        span: prefix_plan(elements)
        for span, elements in elements_by_span.items()
    }


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

#: Scoring dtypes of the resident Phase-2 evaluator (the counting
#: engine always scores in float64).
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
    kind: str,
    groups: Optional[Dict[int, List[int]]],
    elements_by_span: Optional[Dict[int, np.ndarray]],
    out: np.ndarray,
    plans: Optional[Dict[int, List[PlanLevel]]] = None,
    scratch: Optional[Dict[tuple, np.ndarray]] = None,
) -> None:
    """Add one block's match sums to *out*; the one block kernel.

    *gathered* is the block's factor array (:func:`gather_chunk`, or
    served by a :class:`FactorPin`).  *kind* :data:`DATABASE_TOTALS`
    adds each pattern's sum of per-sequence maxima at its batch index;
    :data:`SYMBOL_TOTALS` adds the Phase-1 per-symbol sums.  Pattern
    groups are reduced with the prefix-sharing row-wise kernels
    (*plans* from :func:`group_plans`).  Span groups no window fits add
    exact zeros.  *scratch* recycles score buffers across blocks.
    """
    if kind == SYMBOL_TOTALS:
        # The pad column is all zeros: padding never wins a max.
        out += chunk_symbol_maxima(gathered).sum(axis=1)
        return
    for span, indices in groups.items():
        maxima = chunk_group_maxima(
            gathered,
            elements_by_span[span],
            plans[span] if plans is not None else None,
            scratch,
        )
        out[indices] += maxima.sum(axis=1)

