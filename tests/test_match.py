"""Unit tests for repro.core.match (Definitions 3.5-3.7) against the
paper's worked examples."""

import pytest

from repro import (
    CompatibilityMatrix,
    MiningError,
    Pattern,
    SequenceDatabase,
    WILDCARD,
    database_match,
    database_matches,
    segment_match,
    sequence_match,
)
from repro.core.match import (
    best_alignment,
    symbol_matches_and_sample,
    symbol_sequence_matches,
    window_matches,
)
from repro.engine import VectorizedBatchEngine

#: Phase 1 has one implementation: the counting engine's scan.
ENGINE = VectorizedBatchEngine()


class TestSegmentMatch:
    """Definition 3.5, including the paper's Section 3 examples."""

    def test_paper_example_with_wildcard(self, fig2_matrix):
        # M(d1 * d2, d1 d2 d2) = 0.9 * 1 * 0.8 = 0.72
        p = Pattern([0, WILDCARD, 1])
        assert segment_match(p, [0, 1, 1], fig2_matrix) == pytest.approx(0.72)

    def test_paper_example_zero_match(self, fig2_matrix):
        # M(d1 d2 d5, d1 d2 d2) = 0.9 * 0.8 * C(d5, d2) = 0.
        p = Pattern([0, 1, 4])
        assert segment_match(p, [0, 1, 1], fig2_matrix) == 0.0

    def test_wildcards_contribute_factor_one(self, fig2_matrix):
        narrow = segment_match(Pattern([0, 1]), [0, 1], fig2_matrix)
        wide = segment_match(
            Pattern([0, WILDCARD, 1]), [0, 4, 1], fig2_matrix
        )
        assert narrow == pytest.approx(wide)

    def test_identity_matrix_is_exact_matching(self):
        identity = CompatibilityMatrix.identity(4)
        assert segment_match(Pattern([1, 2]), [1, 2], identity) == 1.0
        assert segment_match(Pattern([1, 2]), [1, 3], identity) == 0.0

    def test_length_mismatch_rejected(self, fig2_matrix):
        with pytest.raises(MiningError):
            segment_match(Pattern([0, 1]), [0, 1, 2], fig2_matrix)


class TestSequenceMatch:
    """Definition 3.6: maximum over sliding windows."""

    def test_paper_sliding_window_example(self, fig2_matrix):
        # M(d1 d2, d1 d2 d2 d3 d4 d1) = max{0.72, 0.08, 0.005, 0, 0}.
        seq = [0, 1, 1, 2, 3, 0]
        assert sequence_match(Pattern([0, 1]), seq, fig2_matrix) == (
            pytest.approx(0.72)
        )

    def test_window_scores_match_paper(self, fig2_matrix):
        seq = [0, 1, 1, 2, 3, 0]
        scores = window_matches(Pattern([0, 1]), seq, fig2_matrix)
        assert scores == pytest.approx([0.72, 0.08, 0.005, 0.0, 0.0])

    def test_too_short_sequence_matches_zero(self, fig2_matrix):
        assert sequence_match(Pattern([0, 1, 2]), [0, 1], fig2_matrix) == 0.0

    def test_window_matches_empty_for_short_sequence(self, fig2_matrix):
        assert window_matches(Pattern([0, 1, 2]), [0], fig2_matrix).size == 0

    def test_best_alignment(self, fig2_matrix):
        seq = [4, 4, 0, 1, 4]
        start, value = best_alignment(Pattern([0, 1]), seq, fig2_matrix)
        assert start == 2
        assert value == pytest.approx(0.72)

    def test_best_alignment_too_short_raises(self, fig2_matrix):
        with pytest.raises(MiningError):
            best_alignment(Pattern([0, 1, 2]), [0], fig2_matrix)

    def test_exact_pattern_span_window(self, fig2_matrix):
        assert sequence_match(Pattern([0, 1]), [0, 1], fig2_matrix) == (
            pytest.approx(0.72)
        )


class TestDatabaseMatch:
    """Definition 3.7 against the Figure 4(c) table."""

    @pytest.mark.parametrize(
        "elements, expected",
        [
            ([2, 1], 0.070),          # d3 d2
            ([1, 0], 0.391),          # d2 d1 (paper: 0.391)
            ([0, 1], 0.203),          # d1 d2 (paper: 0.203)
            ([3, 1], 0.321),          # d4 d2 (paper: 0.321)
            ([2, 3], 0.136),          # d3 d4 (paper: 0.136)
            ([2, 4], 0.0),            # d3 d5 (paper: 0)
            ([4, 4], 0.0),            # d5 d5 (paper: 0)
            ([2, 1, 1], 0.016),       # d3 d2 d2 (Section 3 text)
        ],
    )
    def test_figure4c_values(
        self, fig2_matrix, fig4_database, elements, expected
    ):
        value = database_match(Pattern(elements), fig4_database, fig2_matrix)
        assert value == pytest.approx(expected, abs=1e-3)

    def test_counts_exactly_one_scan(self, fig2_matrix, fig4_database):
        database_match(Pattern([0, 1]), fig4_database, fig2_matrix)
        assert fig4_database.scan_count == 1

    def test_batch_equals_individual(self, fig2_matrix, fig4_database):
        patterns = [Pattern([0, 1]), Pattern([1, 0]), Pattern([2, WILDCARD, 1])]
        batch = database_matches(patterns, fig4_database, fig2_matrix)
        for pattern in patterns:
            solo = database_match(pattern, fig4_database, fig2_matrix)
            assert batch[pattern] == pytest.approx(solo)

    def test_batch_is_single_scan(self, fig2_matrix, fig4_database):
        patterns = [Pattern([i]) for i in range(5)]
        database_matches(patterns, fig4_database, fig2_matrix)
        assert fig4_database.scan_count == 1

    def test_batch_deduplicates(self, fig2_matrix, fig4_database):
        p = Pattern([0, 1])
        out = database_matches([p, p, p], fig4_database, fig2_matrix)
        assert len(out) == 1

    def test_batch_empty_input(self, fig2_matrix, fig4_database):
        assert database_matches([], fig4_database, fig2_matrix) == {}
        assert fig4_database.scan_count == 0


class TestSymbolMatches:
    """Algorithm 4.1 values, cross-checked against Figure 5."""

    def test_per_sequence_values_figure5a(self, fig2_matrix):
        # After the full first sequence d1 d2 d3 d1 (Figure 5(a) last col).
        values = symbol_sequence_matches([0, 1, 2, 0], fig2_matrix)
        assert values == pytest.approx([0.9, 0.8, 0.7, 0.1, 0.15])

    def test_database_symbol_matches(self, fig2_matrix, fig4_database):
        # Exact values by Algorithm 4.1 over Figure 4(a).  (The paper's
        # Figure 5(b) final column contains two typographic errors for
        # d1 and d3; these are the values its own algorithm produces.)
        values = ENGINE.symbol_matches(fig4_database, fig2_matrix)
        assert values == pytest.approx([0.7, 0.8, 0.3875, 0.425, 0.075])

    def test_figure5b_progression_seq2_seq3(self, fig2_matrix):
        # Partial sums after sequences 1-3 match Figure 5(b).
        db = SequenceDatabase([[0, 1, 2, 0], [3, 1, 0], [2, 3, 1, 0]])
        # Rescale: figure divides by N=4 even for partial progressions.
        values = ENGINE.symbol_matches(db, fig2_matrix) * 3 / 4
        assert values[0] == pytest.approx(0.675)   # d1 after 3 sequences
        assert values[1] == pytest.approx(0.6)     # d2
        assert values[2] == pytest.approx(0.3875, abs=5e-4)  # d3 (fig: .388)
        assert values[3] == pytest.approx(0.4)     # d4

    def test_one_scan(self, fig2_matrix, fig4_database):
        ENGINE.symbol_matches(fig4_database, fig2_matrix)
        assert fig4_database.scan_count == 1

    def test_identity_matrix_gives_presence_fraction(self):
        db = SequenceDatabase([[0, 1], [1], [2]])
        values = ENGINE.symbol_matches(db, CompatibilityMatrix.identity(3))
        assert values == pytest.approx([1 / 3, 2 / 3, 1 / 3])


class TestCombinedPhaseOne:
    def test_single_scan_for_matches_and_sample(
        self, fig2_matrix, fig4_database, rng
    ):
        values, sample = symbol_matches_and_sample(
            fig4_database, fig2_matrix, sample_size=2, rng=rng
        )
        assert fig4_database.scan_count == 1
        assert len(sample) == 2
        assert values == pytest.approx([0.7, 0.8, 0.3875, 0.425, 0.075])

    def test_sample_sequences_are_copies(self, fig2_matrix, fig4_database, rng):
        _values, sample = symbol_matches_and_sample(
            fig4_database, fig2_matrix, sample_size=4, rng=rng
        )
        sid = sample.ids[0]
        sample.sequence(sid)[0] = 99
        assert fig4_database.sequence(sid)[0] != 99

    def test_oversample_clamps_to_whole_database(
        self, fig2_matrix, fig4_database, rng
    ):
        state_before = rng.bit_generator.state
        values, sample = symbol_matches_and_sample(
            fig4_database, fig2_matrix, sample_size=10, rng=rng
        )
        assert len(sample) == len(fig4_database)
        assert sorted(sample.ids) == sorted(fig4_database.ids)
        # Selecting everything is deterministic: no random draws made.
        assert rng.bit_generator.state == state_before
        assert values == pytest.approx([0.7, 0.8, 0.3875, 0.425, 0.075])

    def test_zero_sample_rejected(self, fig2_matrix, fig4_database, rng):
        with pytest.raises(MiningError):
            symbol_matches_and_sample(
                fig4_database, fig2_matrix, sample_size=0, rng=rng
            )


class TestSymbolRangeValidation:
    def test_out_of_range_symbol_raises_cleanly(self, fig2_matrix):
        from repro.core.match import symbol_sequence_matches

        with pytest.raises(MiningError, match="only covers 5 symbols"):
            symbol_sequence_matches([0, 7], fig2_matrix)
