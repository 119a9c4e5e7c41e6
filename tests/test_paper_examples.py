"""Exact reproduction of the paper's worked examples (Figures 2, 4, 5
and the Section 3/4 inline computations).

Where the paper's printed tables are internally inconsistent with its
own definitions (documented in EXPERIMENTS.md), the values asserted here
are the ones Algorithm 4.1 / Definitions 3.5-3.7 actually produce.
"""

import numpy as np
import pytest

from repro import (
    CompatibilityMatrix,
    Pattern,
    WILDCARD,
    chernoff_epsilon,
    database_match,
    segment_match,
    sequence_match,
)
from repro.engine import VectorizedBatchEngine

#: Phase 1 has one implementation: the counting engine's scan.
ENGINE = VectorizedBatchEngine()


class TestFigure2Matrix:
    """The compatibility matrix of Figure 2 and its reading."""

    def test_asymmetry_example(self, fig2_matrix):
        # Section 3: C(d1, d2) = 0.1 but C(d2, d1) = 0.05.
        assert fig2_matrix.prob(0, 1) == 0.1
        assert fig2_matrix.prob(1, 0) == 0.05

    def test_impossible_substitution(self, fig2_matrix):
        # C(d1, d3) = 0: a d1 can never appear as a d3.
        assert fig2_matrix.prob(0, 2) == 0.0

    def test_observed_d1_interpretation(self, fig2_matrix):
        # An observed d1 is d1/d2/d3 with probability 0.9/0.05/0.05.
        assert fig2_matrix.column(0) == pytest.approx(
            [0.9, 0.05, 0.05, 0.0, 0.0]
        )


class TestSection3Matches:
    def test_match_of_d1_star_d2_in_d1d2d2(self, fig2_matrix):
        value = segment_match(Pattern([0, WILDCARD, 1]), [0, 1, 1],
                              fig2_matrix)
        assert value == pytest.approx(0.72)

    def test_d1d2d5_does_not_match(self, fig2_matrix):
        value = segment_match(Pattern([0, 1, 4]), [0, 1, 1], fig2_matrix)
        assert value == 0.0

    def test_sliding_window_maximum(self, fig2_matrix):
        # M(d1 d2, d1 d2 d2 d3 d4 d1) = max{.72, .08, .005, 0, 0} = .72.
        value = sequence_match(Pattern([0, 1]), [0, 1, 1, 2, 3, 0],
                               fig2_matrix)
        assert value == pytest.approx(0.72)


class TestFigure4Tables:
    """Support and match values of the toy database."""

    def test_support_column_of_figure4b(self, fig4_database):
        identity = CompatibilityMatrix.identity(5)
        support = ENGINE.symbol_matches(fig4_database, identity)
        assert support == pytest.approx([0.75, 1.0, 0.5, 0.5, 0.0])

    def test_match_column_of_figure4b(self, fig2_matrix, fig4_database):
        match = ENGINE.symbol_matches(fig4_database, fig2_matrix)
        # d2 = 0.800 and d5 = 0.075 as printed; d1/d3/d4 as computed by
        # Algorithm 4.1 (the printed d1 = 0.538 contradicts the paper's
        # own monotone accumulation, see EXPERIMENTS.md).
        assert match[1] == pytest.approx(0.800)
        assert match[4] == pytest.approx(0.075)
        assert match[0] == pytest.approx(0.700)
        assert match[2] == pytest.approx(0.3875)
        assert match[3] == pytest.approx(0.425)

    def test_match_never_below_support_times_certainty(
        self, fig2_matrix, fig4_database
    ):
        # Sanity relation: under this matrix a true occurrence of d
        # contributes at least C(d, d), so match >= support * C(d, d).
        identity = CompatibilityMatrix.identity(5)
        support = ENGINE.symbol_matches(fig4_database, identity)
        fig4_database.reset_scan_count()
        match = ENGINE.symbol_matches(fig4_database, fig2_matrix)
        for d in range(5):
            assert match[d] >= support[d] * fig2_matrix.prob(d, d) - 1e-12

    def test_section3_progression_d3_chain(self, fig2_matrix, fig4_database):
        """Supports 0.5, 0, 0, 0 vs matches 0.4*, 0.07, 0.016, ... for
        d3, d3d2, d3d2d2, d3d2d2d1 (Section 3)."""
        identity = CompatibilityMatrix.identity(5)
        chain = [
            Pattern([2]),
            Pattern([2, 1]),
            Pattern([2, 1, 1]),
            Pattern([2, 1, 1, 0]),
        ]
        supports = []
        matches = []
        for pattern in chain:
            fig4_database.reset_scan_count()
            supports.append(
                database_match(pattern, fig4_database, identity)
            )
            matches.append(
                database_match(pattern, fig4_database, fig2_matrix)
            )
        assert supports == pytest.approx([0.5, 0.0, 0.0, 0.0])
        assert matches[1] == pytest.approx(0.07)
        assert matches[2] == pytest.approx(0.016)
        # Matches decay but stay positive: the paper's core observation.
        assert all(m > 0 for m in matches)
        assert matches[0] > matches[1] > matches[2] > matches[3]

    def test_figure4d_contribution_of_segment_d2d2(self, fig2_matrix):
        """The 9 patterns lifted by an observation of 'd2 d2', and the
        redistribution property: contributions sum to 1."""
        expected = {
            (0, 0): 0.01, (0, 1): 0.08, (1, 0): 0.08, (1, 1): 0.64,
            (0, 3): 0.01, (3, 0): 0.01, (1, 3): 0.08, (3, 1): 0.08,
            (3, 3): 0.01,
        }
        total = 0.0
        for i in range(5):
            for j in range(5):
                value = segment_match(
                    Pattern([i, j]), [1, 1], fig2_matrix
                )
                total += value
                if (i, j) in expected:
                    assert value == pytest.approx(expected[(i, j)])
                else:
                    assert value == pytest.approx(0.0)
        assert total == pytest.approx(1.0)


class TestFigure5SymbolAlgorithm:
    def test_max_match_after_first_sequence(self, fig2_matrix):
        """Figure 5(a): the max_match column after scanning d1 d2 d3 d1."""
        from repro.core.match import symbol_sequence_matches

        values = symbol_sequence_matches([0, 1, 2, 0], fig2_matrix)
        assert values == pytest.approx([0.9, 0.8, 0.7, 0.1, 0.15])

    def test_progressive_contribution_per_sequence(self, fig2_matrix):
        """Figure 5(b): each sequence adds max_match / N."""
        from repro.core.match import symbol_sequence_matches

        sequences = [[0, 1, 2, 0], [3, 1, 0], [2, 3, 1, 0], [1, 1]]
        running = np.zeros(5)
        checkpoints = []
        for seq in sequences:
            running = running + symbol_sequence_matches(seq, fig2_matrix) / 4
            checkpoints.append(running.copy())
        # Figure 5(b) column "1": d1=.225, d2=.2, d3=.175, d4=.025, d5=.038
        assert checkpoints[0] == pytest.approx(
            [0.225, 0.2, 0.175, 0.025, 0.0375], abs=5e-4
        )
        # Column "2": d1=.45, d2=.4, d3=.213, d4=.213, d5=.038
        assert checkpoints[1] == pytest.approx(
            [0.45, 0.4, 0.2125, 0.2125, 0.0375], abs=5e-4
        )
        # Column "3": d1=.675, d2=.6, d3=.388, d4=.4, d5=.075
        assert checkpoints[2] == pytest.approx(
            [0.675, 0.6, 0.3875, 0.4, 0.075], abs=5e-4
        )


class TestSection4Chernoff:
    def test_ten_thousand_samples_example(self):
        # "with 10000 samples ... at least mu - 0.0215 with 99.99%".
        assert chernoff_epsilon(1.0, 1e-4, 10000) == pytest.approx(
            0.0215, abs=2e-4
        )

    def test_spread_restriction_example(self):
        # "matches of d1 and d2 are 0.1 and 0.05 ... R = 0.05 ...
        #  reduce the value of epsilon by 95%".
        from repro import restricted_spread

        spread = restricted_spread(
            Pattern([0, WILDCARD, 1]), [0.1, 0.05]
        )
        assert spread == 0.05
        full = chernoff_epsilon(1.0, 1e-4, 1000)
        tight = chernoff_epsilon(spread, 1e-4, 1000)
        assert tight / full == pytest.approx(0.05)


class TestFigure3Lattice:
    """The border example of Section 3 / Figure 3: if the solid-circle
    patterns are frequent, the border consists of d1d2d3, d1d2**d5 and
    d1**d4."""

    def test_border_elements(self):
        from repro import Border

        w = WILDCARD
        frequent = [
            Pattern([0]),                    # d1
            Pattern([0, 1]),                 # d1 d2
            Pattern([0, w, 2]),              # d1 * d3
            Pattern([0, w, w, 3]),           # d1 * * d4
            Pattern([0, w, w, w, 4]),        # d1 * * * d5
            Pattern([0, 1, 2]),              # d1 d2 d3
            Pattern([0, 1, w, w, 4]),        # d1 d2 * * d5
        ]
        border = Border(frequent)
        assert border.elements == {
            Pattern([0, 1, 2]),
            Pattern([0, 1, w, w, 4]),
            Pattern([0, w, w, 3]),
        }

    def test_all_frequent_patterns_covered(self):
        from repro import Border

        w = WILDCARD
        border = Border([
            Pattern([0, 1, 2]),
            Pattern([0, 1, w, w, 4]),
            Pattern([0, w, w, 3]),
        ])
        for p in [
            Pattern([0]), Pattern([0, 1]), Pattern([0, w, 2]),
            Pattern([0, w, w, w, 4]),
        ]:
            assert border.covers(p)
        # ... and the infrequent neighbours are not.
        assert not border.covers(Pattern([0, 1, 2, 3]))
        assert not border.covers(Pattern([1, 2, w, 3]))
