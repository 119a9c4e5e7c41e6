"""Property-based tests (hypothesis) for the core model invariants.

These pin down the claims the paper proves or relies on:

* the match is a probability (Claim: ``0 <= M <= 1``);
* the Apriori property holds on match (Claims 3.1/3.2);
* the vectorised match engine agrees with the literal pseudocode;
* match degenerates to support under the identity matrix;
* under pure noise, all patterns of the same shape have equal match;
* the sub-pattern relation is a partial order;
* borders remain maximal antichains under arbitrary insertions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import (
    Border,
    CompatibilityMatrix,
    Pattern,
    SequenceDatabase,
    WILDCARD,
    sequence_match,
)
from repro.core.match import database_match
from repro.core.naive import (
    naive_database_match,
    naive_segment_match,
    naive_sequence_match,
    naive_symbol_matches,
)
from repro.engine import VectorizedBatchEngine

M = 5  # alphabet size used throughout


# -- strategies ----------------------------------------------------------------

def patterns(max_weight: int = 4, max_gap: int = 2) -> st.SearchStrategy:
    """Random valid patterns: symbols with optional wildcard gaps."""

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


def sequences(min_len: int = 1, max_len: int = 12) -> st.SearchStrategy:
    return st.lists(
        st.integers(0, M - 1), min_size=min_len, max_size=max_len
    )


def matrices() -> st.SearchStrategy:
    """Random column-stochastic compatibility matrices."""

    @st.composite
    def build(draw):
        raw = draw(
            st.lists(
                st.lists(
                    st.floats(0.01, 1.0, allow_nan=False),
                    min_size=M,
                    max_size=M,
                ),
                min_size=M,
                max_size=M,
            )
        )
        array = np.asarray(raw, dtype=np.float64)
        array = array / array.sum(axis=0, keepdims=True)
        return CompatibilityMatrix(array)

    return build()


def databases() -> st.SearchStrategy:
    return st.lists(sequences(), min_size=1, max_size=6).map(
        SequenceDatabase
    )


# -- match is a probability ------------------------------------------------------

@given(patterns(), sequences(), matrices())
@settings(max_examples=150, deadline=None)
def test_match_lies_in_unit_interval(pattern, sequence, matrix):
    value = sequence_match(pattern, sequence, matrix)
    assert 0.0 <= value <= 1.0


@given(patterns(), databases(), matrices())
@settings(max_examples=60, deadline=None)
def test_database_match_lies_in_unit_interval(pattern, database, matrix):
    value = database_match(pattern, database, matrix)
    assert 0.0 <= value <= 1.0


# -- vectorised engine equals the literal pseudocode -----------------------------

@given(patterns(), sequences(), matrices())
@settings(max_examples=150, deadline=None)
def test_vectorised_sequence_match_equals_naive(pattern, sequence, matrix):
    fast = sequence_match(pattern, sequence, matrix)
    slow = naive_sequence_match(pattern, sequence, matrix)
    assert fast == pytest.approx(slow, abs=1e-12)


@given(patterns(max_weight=3, max_gap=1), databases(), matrices())
@settings(max_examples=40, deadline=None)
def test_vectorised_database_match_equals_naive(pattern, database, matrix):
    fast = database_match(pattern, database, matrix)
    database.reset_scan_count()
    slow = naive_database_match(pattern, database, matrix)
    assert fast == pytest.approx(slow, abs=1e-12)


@given(databases(), matrices())
@settings(max_examples=40, deadline=None)
def test_vectorised_symbol_matches_equal_naive(database, matrix):
    fast = VectorizedBatchEngine().symbol_matches(database, matrix)
    database.reset_scan_count()
    slow = naive_symbol_matches(database, matrix)
    assert fast == pytest.approx(slow, abs=1e-12)


# -- Apriori property (Claims 3.1 / 3.2) -----------------------------------------

@given(patterns(max_weight=4), sequences(min_len=2), matrices())
@settings(max_examples=150, deadline=None)
def test_apriori_on_sequences(pattern, sequence, matrix):
    """Every subpattern matches at least as well as the pattern."""
    value = sequence_match(pattern, sequence, matrix)
    for sub in pattern.immediate_subpatterns():
        sub_value = sequence_match(sub, sequence, matrix)
        assert sub_value >= value - 1e-12


@given(patterns(max_weight=3, max_gap=1), databases(), matrices())
@settings(max_examples=40, deadline=None)
def test_apriori_on_databases(pattern, database, matrix):
    value = database_match(pattern, database, matrix)
    for sub in pattern.immediate_subpatterns():
        database.reset_scan_count()
        sub_value = database_match(sub, database, matrix)
        assert sub_value >= value - 1e-12


@given(patterns(max_weight=4), sequences(), matrices())
@settings(max_examples=100, deadline=None)
def test_wildcard_extension_never_increases_match(pattern, sequence, matrix):
    """Padding with an extra symbol (weight+1) can only lower the match;
    replacing a symbol by a wildcard can only raise it."""
    value = sequence_match(pattern, sequence, matrix)
    for offset, _symbol in pattern.fixed_positions:
        if pattern.weight == 1:
            continue
        masked_elements = list(pattern.elements)
        masked_elements[offset] = WILDCARD
        start = 0
        while masked_elements[start] == WILDCARD:
            start += 1
        end = len(masked_elements)
        while masked_elements[end - 1] == WILDCARD:
            end -= 1
        masked = Pattern(masked_elements[start:end])
        assert sequence_match(masked, sequence, matrix) >= value - 1e-12


# -- bridge to the support model ---------------------------------------------------

@given(patterns(max_weight=3, max_gap=1), databases())
@settings(max_examples=60, deadline=None)
def test_identity_matrix_match_is_support(pattern, database):
    """Section 3 item 3: noise-free match == classical support."""
    identity = CompatibilityMatrix.identity(M)
    value = database_match(pattern, database, identity)
    # Count exact occurrences by hand.
    hits = 0
    total = 0
    for _sid, seq in database.scan():
        total += 1
        seq = list(int(v) for v in seq)
        found = any(
            all(
                e == WILDCARD or e == seq[i + j]
                for i, e in enumerate(pattern.elements)
            )
            for j in range(len(seq) - pattern.span + 1)
        )
        hits += int(found)
    assert value == pytest.approx(hits / total)


@given(sequences(min_len=3))
@settings(max_examples=60, deadline=None)
def test_pure_noise_equalises_patterns(sequence):
    """Section 3 item 3 extreme case: all-1/m matrix gives every pattern
    of the same shape the same match."""
    matrix = CompatibilityMatrix.pure_noise(M)
    shapes = [
        [0, 1], [2, 3], [4, 0],
    ]
    values = {
        sequence_match(Pattern(s), sequence, matrix) for s in shapes
    }
    assert len(values) == 1


# -- segment semantics ---------------------------------------------------------------

@given(patterns(max_weight=3, max_gap=1), matrices(),
       st.lists(st.integers(0, M - 1), min_size=12, max_size=12))
@settings(max_examples=100, deadline=None)
def test_sequence_match_is_max_over_segments(pattern, matrix, sequence):
    span = pattern.span
    assume(span <= len(sequence))
    best = max(
        naive_segment_match(pattern, sequence[j : j + span], matrix)
        for j in range(len(sequence) - span + 1)
    )
    assert sequence_match(pattern, sequence, matrix) == pytest.approx(best)


# -- partial order of patterns ---------------------------------------------------------

@given(patterns(), patterns(), patterns())
@settings(max_examples=150, deadline=None)
def test_subpattern_relation_is_transitive(a, b, c):
    if a.is_subpattern_of(b) and b.is_subpattern_of(c):
        assert a.is_subpattern_of(c)


@given(patterns(), patterns())
@settings(max_examples=150, deadline=None)
def test_subpattern_antisymmetry(a, b):
    if a.is_subpattern_of(b) and b.is_subpattern_of(a):
        assert a == b


@given(patterns())
@settings(max_examples=100, deadline=None)
def test_immediate_subpatterns_drop_one_weight(pattern):
    for sub in pattern.immediate_subpatterns():
        assert sub.weight == pattern.weight - 1
        assert sub.is_subpattern_of(pattern)


@given(patterns(max_weight=4), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_subpatterns_of_weight_are_consistent(pattern, weight):
    subs = pattern.subpatterns_of_weight(weight)
    if weight > pattern.weight:
        assert subs == set()
    for sub in subs:
        assert sub.weight == weight
        assert sub.is_subpattern_of(pattern)


# -- border invariants -----------------------------------------------------------------

@given(st.lists(patterns(max_weight=3, max_gap=1), max_size=12))
@settings(max_examples=80, deadline=None)
def test_border_is_maximal_antichain(pattern_list):
    border = Border(pattern_list)
    members = list(border.elements)
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            assert not a.is_subpattern_of(b)
            assert not b.is_subpattern_of(a)
    # Everything inserted is covered.
    for pattern in pattern_list:
        assert border.covers(pattern)


@given(st.lists(patterns(max_weight=3, max_gap=0), max_size=8))
@settings(max_examples=50, deadline=None)
def test_border_closure_round_trip(pattern_list):
    border = Border(pattern_list)
    closure = border.downward_closure()
    assert Border(closure) == border
