"""Focused tests for the sampling-based level-wise baseline."""

import warnings

import numpy as np
import pytest

from repro import (
    Border,
    CompatibilityMatrix,
    LevelwiseMiner,
    MiningError,
    Pattern,
    PatternConstraints,
    SequenceDatabase,
    ToivonenMiner,
)
from repro.datagen.motifs import Motif
from repro.datagen.synthetic import generate_database

CONSTRAINTS = PatternConstraints(max_weight=5, max_span=6, max_gap=0)


@pytest.fixture
def chain_db():
    """A deterministic database carrying the chain 1 2 3 4 in 70%."""
    carrier = [1, 2, 3, 4, 0]
    other = [0, 5, 0, 5, 0]
    return SequenceDatabase([carrier] * 7 + [other] * 3)


class TestCorrectness:
    def test_exact_on_deterministic_database(self, chain_db):
        matrix = CompatibilityMatrix.identity(6)
        exact = LevelwiseMiner(matrix, 0.5, constraints=CONSTRAINTS).mine(
            chain_db
        )
        chain_db.reset_scan_count()
        result = ToivonenMiner(
            matrix, 0.5, sample_size=10, constraints=CONSTRAINTS,
            rng=np.random.default_rng(0),
        ).mine(chain_db)
        assert result.patterns == exact.patterns
        assert result.frequent[Pattern([1, 2, 3, 4])] == pytest.approx(0.7)

    def test_extends_past_underestimated_border(self, chain_db):
        """With a tiny unlucky sample the sampled border may stop short;
        the level-wise finalisation must keep extending from verified
        frequent patterns until the true border is reached."""
        matrix = CompatibilityMatrix.identity(6)
        for seed in range(8):
            chain_db.reset_scan_count()
            result = ToivonenMiner(
                matrix, 0.5, sample_size=4, delta=0.3,
                constraints=CONSTRAINTS, rng=np.random.default_rng(seed),
            ).mine(chain_db)
            # Whatever the sample said, the full chain is truly frequent
            # and must be in the final result.
            assert Pattern([1, 2, 3, 4]) in result.frequent

    def test_all_reported_values_are_exact(self, chain_db):
        from repro.core.match import database_match

        matrix = CompatibilityMatrix.identity(6)
        result = ToivonenMiner(
            matrix, 0.5, sample_size=10, constraints=CONSTRAINTS,
            rng=np.random.default_rng(1),
        ).mine(chain_db)
        for pattern, value in result.frequent.items():
            chain_db.reset_scan_count()
            assert database_match(pattern, chain_db, matrix) == (
                pytest.approx(value)
            )


class TestDiagnostics:
    def test_border_distance_zero_when_sample_is_database(self, chain_db):
        matrix = CompatibilityMatrix.identity(6)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = ToivonenMiner(
                matrix, 0.5, sample_size=10, constraints=CONSTRAINTS,
                rng=np.random.default_rng(0),
            ).mine(chain_db)
        # The sample is the database: Phase 2 is exact, no band applies,
        # and the sampled border is the true one.
        assert result.extras["border_distance"] == 0.0
        assert result.extras["ambiguous_patterns"] == 0
        assert isinstance(result.extras["estimated_border"], Border)

    def test_level_stats_recorded(self, chain_db):
        matrix = CompatibilityMatrix.identity(6)
        result = ToivonenMiner(
            matrix, 0.5, sample_size=10, constraints=CONSTRAINTS,
            rng=np.random.default_rng(0),
        ).mine(chain_db)
        levels = [s.level for s in result.level_stats]
        assert levels == sorted(levels)
        assert levels[0] == 1

    def test_memory_capacity_multiplies_scans(self, rng):
        motif = Motif(Pattern([1, 2, 3]), frequency=0.7)
        db = generate_database(100, 15, 8, [motif], rng=rng)
        matrix = CompatibilityMatrix.identity(8)
        roomy = ToivonenMiner(
            matrix, 0.5, sample_size=50, constraints=CONSTRAINTS,
            rng=np.random.default_rng(2),
        ).mine(db)
        db.reset_scan_count()
        cramped = ToivonenMiner(
            matrix, 0.5, sample_size=50, constraints=CONSTRAINTS,
            memory_capacity=2, rng=np.random.default_rng(2),
        ).mine(db)
        assert cramped.patterns == roomy.patterns
        assert cramped.scans >= roomy.scans

    def test_invalid_threshold(self):
        with pytest.raises(MiningError):
            ToivonenMiner(
                CompatibilityMatrix.identity(3), 1.5, sample_size=5
            )
