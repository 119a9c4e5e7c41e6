"""Differential tests for the packed lattice kernels.

The packed kernels (:mod:`repro.core.latticekernels`) must be a
*bit-identical* drop-in for the pure-Python oracles of
``tests/oracles.py``: same candidate sets out of the Apriori join +
prune, same containment verdicts, same border contents, same Phase-3
label propagation, same restricted-spread values — for arbitrary
inputs, not just the well-formed ones production produces.  Hypothesis
drives the comparisons; ``tests/test_differential.py`` checks whole
miners against the oracle lattice.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Border,
    Pattern,
    PatternConstraints,
    WILDCARD,
)
from repro.core.latticekernels import (
    batch_restricted_spread,
    block_signatures,
    block_weights,
    contains_any,
    filter_undecided,
    kernel_generate_candidates,
    max_gap_rows,
    pack_block,
    pack_by_span,
    row_keys,
    subsumption_hits,
)
from repro.errors import MiningError
from repro.mining.chernoff import restricted_spread

from .oracles import (
    reference_add,
    reference_covers,
    reference_filter_undecided,
    reference_generate_candidates,
)

M = 5  # alphabet size for the random strategies

# -- strategies ----------------------------------------------------------------


def patterns(max_weight: int = 4, max_gap: int = 2) -> st.SearchStrategy:
    @st.composite
    def build(draw):
        weight = draw(st.integers(1, max_weight))
        elements = [draw(st.integers(0, M - 1))]
        for _ in range(weight - 1):
            gap = draw(st.integers(0, max_gap))
            elements.extend([WILDCARD] * gap)
            elements.append(draw(st.integers(0, M - 1)))
        return Pattern(elements)

    return build()


def pattern_sets(max_size: int = 12) -> st.SearchStrategy:
    return st.sets(patterns(), min_size=0, max_size=max_size)


def constraint_sets() -> st.SearchStrategy:
    @st.composite
    def build(draw):
        return PatternConstraints(
            max_weight=draw(st.integers(1, 6)),
            max_span=draw(st.integers(6, 10)),
            max_gap=draw(st.integers(0, 3)),
        )

    return build()


# -- packing primitives --------------------------------------------------------


class TestPacking:
    def test_pack_block_round_trips(self):
        pats = [Pattern([1, WILDCARD, 2]), Pattern([0, WILDCARD, 4])]
        block = pack_block(pats)
        assert block.dtype == np.int32
        assert [Pattern(row) for row in block] == pats

    def test_pack_block_rejects_mixed_spans(self):
        with pytest.raises(MiningError, match="same-span"):
            pack_block([Pattern([1]), Pattern([1, 2])])

    def test_pack_block_empty_needs_span(self):
        with pytest.raises(MiningError, match="empty block"):
            pack_block([])
        assert pack_block([], span=3).shape == (0, 3)

    def test_pack_by_span_scatters_back(self):
        pats = [Pattern([1]), Pattern([1, 2]), Pattern([3]), Pattern([2, 0])]
        groups = pack_by_span(pats)
        assert set(groups) == {1, 2}
        for span, (block, idx) in groups.items():
            for row, i in zip(block, idx):
                assert Pattern(row) == pats[i]

    def test_row_keys_are_distinct_identities(self):
        pats = [Pattern([1, WILDCARD, 2]), Pattern([1, 0, 2]),
                Pattern([2, WILDCARD, 1])]
        keys = row_keys(pack_block(pats))
        assert len(set(keys)) == len(pats)

    @given(pattern_sets(max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_block_signatures_match_pattern_signature64(self, pats):
        ordered = sorted(pats)
        for _span, (block, idx) in pack_by_span(ordered).items():
            sigs = block_signatures(block)
            for sig, i in zip(sigs, idx):
                assert int(sig) == ordered[i].signature64()

    @given(pattern_sets(max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_block_weights_and_gaps(self, pats):
        ordered = sorted(pats)
        for _span, (block, idx) in pack_by_span(ordered).items():
            weights = block_weights(block)
            gaps = max_gap_rows(block)
            for w, g, i in zip(weights, gaps, idx):
                assert int(w) == ordered[i].weight
                assert int(g) == ordered[i].max_gap()


# -- signature soundness -------------------------------------------------------


@given(patterns(), patterns())
@settings(max_examples=200, deadline=None)
def test_signature_is_necessary_for_containment(inner, outer):
    """sig(P) & ~sig(Q) == 0 whenever P is a subpattern of Q (the
    prefilter never discards a true containment pair)."""
    if inner.is_subpattern_of(outer):
        assert inner.signature64() & ~outer.signature64() == 0


# -- candidate generation ------------------------------------------------------


@given(pattern_sets(), constraint_sets(),
       st.sets(st.integers(0, M - 1), max_size=M))
@settings(max_examples=150, deadline=None)
def test_kernel_candidates_equal_reference(frequent, constraints, symbols):
    frequent_symbols = sorted(symbols)
    expected = reference_generate_candidates(
        frequent, frequent_symbols, constraints
    )
    got = kernel_generate_candidates(frequent, frequent_symbols, constraints)
    assert got == expected


# -- batch containment ---------------------------------------------------------


@given(pattern_sets(), pattern_sets())
@settings(max_examples=120, deadline=None)
def test_subsumption_hits_equal_pairwise_sweep(inner_set, outer_set):
    inner = sorted(inner_set)
    outer = sorted(outer_set)
    inner_any, outer_any = subsumption_hits(inner, outer)
    for i, p in enumerate(inner):
        assert inner_any[i] == any(p.is_subpattern_of(q) for q in outer)
    for j, q in enumerate(outer):
        assert outer_any[j] == any(p.is_subpattern_of(q) for p in inner)


@given(pattern_sets(), pattern_sets())
@settings(max_examples=80, deadline=None)
def test_contains_any_equals_border_covers(queries_set, members_set):
    queries = sorted(queries_set)
    members = sorted(members_set)
    border = Border()
    for member in members:
        reference_add(border, member)
    hits = contains_any(queries, members)
    for hit, query in zip(hits, queries):
        assert bool(hit) == reference_covers(border, query)


@given(pattern_sets(), pattern_sets(max_size=6), pattern_sets(max_size=6))
@settings(max_examples=100, deadline=None)
def test_filter_undecided_equals_reference_propagation(
    undecided, fresh_frequent, fresh_infrequent
):
    newly_frequent = sorted(fresh_frequent)
    newly_infrequent = sorted(fresh_infrequent)
    expected = reference_filter_undecided(
        undecided, newly_frequent, newly_infrequent
    )
    got = filter_undecided(undecided, newly_frequent, newly_infrequent)
    assert got == expected


# -- border prefilter ----------------------------------------------------------


@given(st.lists(patterns(), min_size=0, max_size=20), pattern_sets(max_size=8))
@settings(max_examples=100, deadline=None)
def test_border_kernel_mode_is_bit_identical(inserts, queries):
    """The signature-prefiltered border answers like the plain scan."""
    reference = Border()
    kernel = Border()
    for pattern in inserts:
        assert kernel.add(pattern) == reference_add(reference, pattern)
        assert kernel.elements == reference.elements
    for query in queries:
        assert kernel.covers(query) == reference_covers(reference, query)


# -- batch restricted spread ---------------------------------------------------


@given(pattern_sets(max_size=10),
       st.lists(st.floats(0.0, 1.0, allow_nan=False),
                min_size=M, max_size=M))
@settings(max_examples=100, deadline=None)
def test_batch_restricted_spread_equals_scalar(pats, symbol_match):
    ordered = sorted(pats)
    batch = batch_restricted_spread(ordered, symbol_match)
    for value, pattern in zip(batch, ordered):
        assert float(value) == restricted_spread(pattern, symbol_match)
