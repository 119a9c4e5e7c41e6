"""Packed lattice kernels: batch candidate generation and containment.

After the match engines (PR 1) and the Phase-2 evaluator (PR 3) were
vectorized, the lattice layer — Apriori join + prune, border coverage,
Phase-3 label propagation — became the wall-clock bottleneck: all of it
was pure Python over frozen :class:`~repro.core.pattern.Pattern`
objects.  This module gives that layer the same treatment.

Representation
--------------
A *block* is a position-major ``(n, span)`` int32 array holding ``n``
same-span patterns, one per row, with :data:`WILDCARD` (``-1``) in the
don't-care positions.  Same-span rows make every lattice primitive a
dense array operation:

* **membership** — a row is identified by its raw bytes
  (``block.tobytes()`` sliced per row), so "is this pattern in the
  frequent set?" is one :class:`set` lookup per row instead of a
  :class:`Pattern` construction + hash;
* **containment** — ``inner ⊑ outer`` (Definition 3.3) over all pairs
  of two blocks is, per alignment offset, one vectorized window
  comparison;
* **candidate generation** — a whole level extends rightward at once:
  the candidate block is built by `repeat`/`tile`, and the Apriori
  prune tests each class of immediate subpattern (drop-first, interior
  drops) for the entire block with a handful of byte-key lookups.

Signature index
---------------
Every pattern carries a lazily cached 64-bit symbol bitmask
(:meth:`Pattern.signature64`, bit ``symbol & 63``).  Containment is
impossible unless every symbol of the inner pattern occurs in the
outer one, hence ``sig(inner) & ~sig(outer) == 0`` is a necessary
condition — checked in a few cycles before any positional work.  The
batch kernels apply it as a matrix prefilter (together with the weight
and span compatibility conditions) and report the traffic through the
``subsumption_checks`` / ``subsumption_skipped`` tracer counters; the
incremental :class:`~repro.core.border.Border` paths apply it per
member.  The filter is *exact*: it only ever skips pairs that could
not be related, so kernel results equal the pairwise pure-Python
oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import MiningError
from ..obs import SUBSUMPTION_CHECKS, SUBSUMPTION_SKIPPED, Tracer
from .pattern import Pattern, WILDCARD

_ITEMSIZE = 4  # int32 row-key stride


# -- packing ------------------------------------------------------------------


def pack_block(patterns: Sequence[Pattern], span: Optional[int] = None) -> np.ndarray:
    """Pack same-span patterns into a position-major ``(n, span)`` block.

    Rows hold the raw elements (symbol indices, :data:`WILDCARD` for
    ``*``) in int32.  All patterns must share one span; pass *span*
    explicitly to validate against an expected width (and to allow an
    empty pattern list).
    """
    plist = list(patterns)
    if span is None:
        if not plist:
            raise MiningError("cannot infer the span of an empty block")
        span = plist[0].span
    block = np.empty((len(plist), span), dtype=np.int32)
    for i, pattern in enumerate(plist):
        if pattern.span != span:
            raise MiningError(
                f"pack_block needs same-span patterns: expected span "
                f"{span}, got {pattern.span} ({pattern})"
            )
        block[i] = pattern.elements
    return block


def pack_by_span(
    patterns: Sequence[Pattern],
) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """Group *patterns* by span into ``{span: (block, indices)}``.

    ``indices`` maps each block row back to its position in the input
    sequence, so batch results can be scattered into input order.
    """
    by_span: Dict[int, List[int]] = {}
    for i, pattern in enumerate(patterns):
        by_span.setdefault(pattern.span, []).append(i)
    groups: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    for span, indices in by_span.items():
        idx = np.asarray(indices, dtype=np.intp)
        groups[span] = (pack_block([patterns[i] for i in indices], span), idx)
    return groups


def row_keys(block: np.ndarray) -> List[bytes]:
    """The per-row byte keys of a block (hashable row identities).

    One ``tobytes`` call plus ``n`` slices — far cheaper than building
    ``n`` :class:`Pattern` objects to use as set keys.
    """
    n, span = block.shape
    raw = np.ascontiguousarray(block, dtype=np.int32).tobytes()
    stride = span * _ITEMSIZE
    return [raw[i * stride:(i + 1) * stride] for i in range(n)]


def block_signatures(block: np.ndarray) -> np.ndarray:
    """Vectorized :meth:`Pattern.signature64` over a packed block."""
    shifts = (block & 63).astype(np.uint64)
    masks = np.where(
        block != WILDCARD, np.uint64(1) << shifts, np.uint64(0)
    )
    return np.bitwise_or.reduce(masks, axis=1)


def block_weights(block: np.ndarray) -> np.ndarray:
    """Per-row weights (non-wildcard counts) of a packed block."""
    return (block != WILDCARD).sum(axis=1).astype(np.int32)


def max_gap_rows(block: np.ndarray) -> np.ndarray:
    """Per-row longest run of consecutive wildcards."""
    n, span = block.shape
    run = np.zeros(n, dtype=np.int32)
    best = np.zeros(n, dtype=np.int32)
    for j in range(span):
        is_wild = block[:, j] == WILDCARD
        run = np.where(is_wild, run + 1, 0)
        np.maximum(best, run, out=best)
    return best


# -- batch containment --------------------------------------------------------


def subsumption_hits(
    inner: Sequence[Pattern],
    outer: Sequence[Pattern],
    tracer: Optional[Tracer] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """All-pairs containment between two pattern collections.

    Returns ``(inner_any, outer_any)``: ``inner_any[i]`` is true when
    ``inner[i]`` is a subpattern of at least one member of *outer*, and
    ``outer_any[j]`` when ``outer[j]`` has at least one subpattern in
    *inner* (both sides of the same pair relation, computed in one
    pass).

    Pairs are prefiltered by span (inner must not be longer), weight
    (inner must not be heavier) and the 64-bit symbol signature; only
    surviving pairs pay for positional window comparisons, one
    vectorized sweep per alignment offset.  When *tracer* is enabled
    the surviving / skipped pair counts land on the
    ``subsumption_checks`` / ``subsumption_skipped`` counters.
    """
    inner = list(inner)
    outer = list(outer)
    inner_any = np.zeros(len(inner), dtype=bool)
    outer_any = np.zeros(len(outer), dtype=bool)
    if not inner or not outer:
        return inner_any, outer_any
    checks = 0
    skipped = 0
    in_groups = pack_by_span(inner)
    out_groups = pack_by_span(outer)
    for in_span, (in_block, in_idx) in in_groups.items():
        in_sig = block_signatures(in_block)
        in_weight = block_weights(in_block)
        for out_span, (out_block, out_idx) in out_groups.items():
            if out_span < in_span:
                skipped += in_block.shape[0] * out_block.shape[0]
                continue
            out_sig = block_signatures(out_block)
            out_weight = block_weights(out_block)
            compatible = (
                ((in_sig[:, None] & ~out_sig[None, :]) == 0)
                & (in_weight[:, None] <= out_weight[None, :])
            )
            pair_in, pair_out = np.nonzero(compatible)
            n_pairs = pair_in.size
            checks += n_pairs
            skipped += in_sig.size * out_sig.size - n_pairs
            if n_pairs == 0:
                continue
            queries = in_block[pair_in]
            windows = out_block[pair_out]
            hit = np.zeros(n_pairs, dtype=bool)
            for offset in range(out_span - in_span + 1):
                view = windows[:, offset:offset + in_span]
                hit |= ((queries == view) | (queries == WILDCARD)).all(axis=1)
            inner_any[in_idx[pair_in[hit]]] = True
            outer_any[out_idx[pair_out[hit]]] = True
    if tracer is not None and tracer.enabled:
        tracer.count(SUBSUMPTION_CHECKS, checks)
        tracer.count(SUBSUMPTION_SKIPPED, skipped)
    return inner_any, outer_any


def contains_any(
    queries: Sequence[Pattern],
    members: Sequence[Pattern],
    tracer: Optional[Tracer] = None,
) -> np.ndarray:
    """Per-query: is the query a subpattern of any member?

    The batch form of :meth:`Border.covers` — ``queries`` against the
    border elements — and of the downward half of Phase-3 label
    propagation.
    """
    return subsumption_hits(queries, members, tracer=tracer)[0]


def filter_undecided(
    undecided: Iterable[Pattern],
    newly_frequent: Sequence[Pattern],
    newly_infrequent: Sequence[Pattern],
    tracer: Optional[Tracer] = None,
) -> Set[Pattern]:
    """Phase-3 label propagation over a probe round's fresh decisions.

    Keeps the patterns that are neither a subpattern of a newly
    frequent probe (which would certify them frequent) nor a
    superpattern of a newly infrequent one (which would condemn them).
    Equivalent to the pairwise ``is_subpattern_of`` sweep, with the
    signature/weight/span prefilter applied to both directions at
    once.
    """
    ordered = list(undecided)
    if not ordered:
        return set()
    certified, _ = subsumption_hits(ordered, newly_frequent, tracer=tracer)
    _, condemned = subsumption_hits(newly_infrequent, ordered, tracer=tracer)
    keep = ~certified & ~condemned
    return {pattern for pattern, kept in zip(ordered, keep) if kept}


# -- batch candidate generation ----------------------------------------------


def _membership(
    block: np.ndarray, keysets: Dict[int, Set[bytes]]
) -> np.ndarray:
    """Row-wise membership of *block* in the span-keyed frequent sets."""
    n, span = block.shape
    keyset = keysets.get(span)
    if not keyset:
        return np.zeros(n, dtype=bool)
    raw = np.ascontiguousarray(block, dtype=np.int32).tobytes()
    stride = span * _ITEMSIZE
    return np.fromiter(
        (raw[i * stride:(i + 1) * stride] in keyset for i in range(n)),
        dtype=bool,
        count=n,
    )


def kernel_generate_candidates(
    frequent: Set[Pattern],
    frequent_symbols: Sequence[int],
    constraints,
) -> Set[Pattern]:
    """Batch Apriori join + prune over packed pattern blocks.

    Patterns are grouped by their wildcard *shape* (the tuple of fixed
    positions); within a shape group every row extends identically, so
    the candidate block for one ``(shape, gap)`` pair is built with
    ``repeat``/``tile`` and pruned as a whole:

    * the **drop-last** immediate subpattern of ``P ·*ᵍ· d`` is ``P``
      itself — in the frequent set by construction, never checked;
    * the **drop-first** subpattern is a fixed column slice of the
      candidate block (the shape fixes where the second symbol sits),
      one byte-key lookup per row after a shape-level admissibility
      check (its wildcard runs are shape constants);
    * each **interior drop** merges two wildcard runs — again a shape
      constant, so inadmissible drops (any merged run exceeding
      ``max_gap``; always, when ``max_gap == 0``) are skipped for the
      whole block, and admissible ones are one masked-column byte-key
      lookup per row.

    Candidates are unique across shape groups (a rightward extension
    determines its generator), so no cross-block deduplication is
    needed.  Results are set-identical to the pure-Python join + prune
    for any input, including non-admissible "frequent" patterns fed by the
    differential tests.
    """
    if not frequent:
        return set()
    symbols = np.asarray(list(frequent_symbols), dtype=np.int32)
    n_sym = symbols.size
    if n_sym == 0:
        return set()

    # Frequent-set membership: row-byte sets keyed by span.
    keysets: Dict[int, Set[bytes]] = {
        span: set(row_keys(block))
        for span, (block, _idx) in pack_by_span(list(frequent)).items()
    }

    # Group the extendable patterns by wildcard shape.  A pattern ends
    # with a symbol, so the shape (fixed-position tuple) determines the
    # span; all shape-level run lengths below are plain Python ints.
    shapes: Dict[Tuple[int, ...], List[Pattern]] = {}
    for pattern in frequent:
        if pattern.weight + 1 > constraints.max_weight:
            continue
        shape = tuple(
            i for i, e in enumerate(pattern.elements) if e != WILDCARD
        )
        shapes.setdefault(shape, []).append(pattern)

    candidates: Set[Pattern] = set()
    max_gap = constraints.max_gap
    for shape, patterns in shapes.items():
        span = shape[-1] + 1
        k = len(shape)
        block = pack_block(patterns, span)
        n_rows = block.shape[0]
        # Wildcard runs between consecutive fixed positions of the
        # generator; the candidate appends one more run (the new gap).
        runs = [shape[i] - shape[i - 1] - 1 for i in range(1, k)]
        for gap in range(max_gap + 1):
            new_span = span + gap + 1
            if new_span > constraints.max_span:
                break
            # Candidate block: every row × every symbol.
            n_cand = n_rows * n_sym
            cand = np.full((n_cand, new_span), WILDCARD, dtype=np.int32)
            cand[:, :span] = np.repeat(block, n_sym, axis=0)
            cand[:, -1] = np.tile(symbols, n_rows)
            alive = np.ones(n_cand, dtype=bool)
            all_runs = runs + [gap]

            # Drop-first: strip the lead symbol and its trailing run.
            # The sub starts at the candidate's second fixed position —
            # a shape constant — and keeps runs[1:] plus the new gap.
            first_cut = shape[1] if k >= 2 else new_span - 1
            if max(all_runs[1:], default=0) <= max_gap:
                sub = cand[:, first_cut:]
                alive &= _membership(sub, keysets)

            # Interior drops: blanking fixed position j merges the two
            # adjacent runs; admissibility is a shape constant (and the
            # merged run is >= 1, so max_gap == 0 skips them all).
            for j in range(1, k):
                if not alive.any():
                    break
                merged = all_runs[j - 1] + 1 + all_runs[j]
                rest = all_runs[:j - 1] + all_runs[j + 1:]
                if merged > max_gap or max(rest, default=0) > max_gap:
                    continue
                sub = cand.copy()
                sub[:, shape[j]] = WILDCARD
                alive &= _membership(sub, keysets)

            for i in np.nonzero(alive)[0]:
                candidates.add(Pattern(cand[i]))
    return candidates


# -- batch restricted spread --------------------------------------------------


def batch_restricted_spread(
    patterns: Sequence[Pattern], symbol_match: Sequence[float]
) -> np.ndarray:
    """Claim 4.2's restricted spread for a whole candidate batch.

    Returns a float64 array aligned with *patterns*: per pattern, the
    minimum Phase-1 symbol match over its fixed symbols — identical
    values to per-pattern ``restricted_spread`` calls, computed as one
    gather + row-min per span group.
    """
    plist = list(patterns)
    match = np.asarray(symbol_match, dtype=np.float64)
    out = np.empty(len(plist), dtype=np.float64)
    for _span, (block, idx) in pack_by_span(plist).items():
        values = np.where(
            block != WILDCARD,
            match[np.clip(block, 0, None)],
            np.inf,
        )
        out[idx] = values.min(axis=1)
    return out


__all__ = [
    "batch_restricted_spread",
    "block_signatures",
    "block_weights",
    "contains_any",
    "filter_undecided",
    "kernel_generate_candidates",
    "max_gap_rows",
    "pack_block",
    "pack_by_span",
    "row_keys",
    "subsumption_hits",
]
