"""Unit tests for Phase 2 (sample classification, Claims 4.1/4.2)."""

import numpy as np
import pytest

from repro import (
    CompatibilityMatrix,
    MiningError,
    Pattern,
    PatternConstraints,
    SequenceDatabase,
    classify_on_sample,
)
from repro.mining.ambiguous import ambiguous_count
from repro.mining.chernoff import FREQUENT, INFREQUENT
from repro.datagen.motifs import Motif
from repro.datagen.synthetic import generate_database
from repro.engine import VectorizedBatchEngine

CONSTRAINTS = PatternConstraints(max_weight=4, max_span=5, max_gap=0)


@pytest.fixture
def setting(rng):
    motif = Motif(Pattern([1, 2, 3]), frequency=0.6)
    db = generate_database(200, 25, 8, [motif], rng=rng)
    matrix = CompatibilityMatrix.identity(8)
    symbol_match = VectorizedBatchEngine().symbol_matches(db, matrix)
    sample = db.sample(60, rng)
    return db, matrix, symbol_match, sample


class TestClassification:
    def test_labels_cover_three_classes(self, setting):
        _db, matrix, symbol_match, sample = setting
        cls = classify_on_sample(
            sample, matrix, 0.4, 0.05, symbol_match, CONSTRAINTS
        )
        labels = set(cls.labels.values())
        assert FREQUENT in labels
        assert INFREQUENT in labels

    def test_symbols_decided_exactly(self, setting):
        _db, matrix, symbol_match, sample = setting
        cls = classify_on_sample(
            sample, matrix, 0.4, 0.05, symbol_match, CONSTRAINTS
        )
        for d in range(matrix.size):
            p = Pattern.single(d)
            expected = FREQUENT if symbol_match[d] >= 0.4 else INFREQUENT
            assert cls.labels[p] == expected
            assert cls.epsilons[p] == 0.0

    def test_frequent_labels_respect_band(self, setting):
        _db, matrix, symbol_match, sample = setting
        min_match = 0.4
        cls = classify_on_sample(
            sample, matrix, min_match, 0.05, symbol_match, CONSTRAINTS
        )
        for pattern, label in cls.labels.items():
            if pattern.weight == 1:
                continue
            value = cls.sample_matches[pattern]
            eps = cls.epsilons[pattern]
            if label == FREQUENT:
                assert value > min_match + eps
            elif label == INFREQUENT:
                assert value < min_match - eps
            else:
                assert min_match - eps <= value <= min_match + eps

    def test_fqt_elements_are_frequent_labelled(self, setting):
        _db, matrix, symbol_match, sample = setting
        cls = classify_on_sample(
            sample, matrix, 0.4, 0.05, symbol_match, CONSTRAINTS
        )
        for pattern in cls.fqt:
            assert cls.labels[pattern] == FREQUENT

    def test_infqt_covers_fqt(self, setting):
        _db, matrix, symbol_match, sample = setting
        cls = classify_on_sample(
            sample, matrix, 0.4, 0.05, symbol_match, CONSTRAINTS
        )
        for pattern in cls.fqt:
            assert cls.infqt.covers(pattern)

    def test_restricted_spread_shrinks_ambiguity(self, setting):
        """Figure 11(b): constrained R produces fewer ambiguous patterns."""
        _db, matrix, symbol_match, sample = setting
        tight = classify_on_sample(
            sample, matrix, 0.4, 0.05, symbol_match, CONSTRAINTS,
            use_restricted_spread=True,
        )
        loose = classify_on_sample(
            sample, matrix, 0.4, 0.05, symbol_match, CONSTRAINTS,
            use_restricted_spread=False,
        )
        assert ambiguous_count(tight) <= ambiguous_count(loose)

    def test_smaller_delta_means_more_ambiguity(self, setting):
        """Figure 12(a): higher confidence -> wider band -> more ambiguous."""
        _db, matrix, symbol_match, sample = setting
        strict = classify_on_sample(
            sample, matrix, 0.4, 1e-6, symbol_match, CONSTRAINTS,
            use_restricted_spread=False,
        )
        relaxed = classify_on_sample(
            sample, matrix, 0.4, 0.2, symbol_match, CONSTRAINTS,
            use_restricted_spread=False,
        )
        assert ambiguous_count(strict) >= ambiguous_count(relaxed)

    def test_wrong_symbol_match_shape_rejected(self, setting):
        _db, matrix, _symbol_match, sample = setting
        with pytest.raises(MiningError):
            classify_on_sample(
                sample, matrix, 0.4, 0.05, np.zeros(3), CONSTRAINTS
            )

    def test_invalid_min_match_rejected(self, setting):
        _db, matrix, symbol_match, sample = setting
        with pytest.raises(MiningError):
            classify_on_sample(
                sample, matrix, 0.0, 0.05, symbol_match, CONSTRAINTS
            )

    def test_degenerate_band_warns(self, setting):
        """A sample too small for the threshold triggers the explosion
        warning (nothing can be labelled infrequent)."""
        _db, matrix, symbol_match, sample = setting
        tiny = SequenceDatabase([sample.sequence(sample.ids[0])])
        with pytest.warns(RuntimeWarning, match="Chernoff band"):
            classify_on_sample(
                tiny, matrix, 0.05, 1e-6, symbol_match,
                PatternConstraints(max_weight=2, max_span=2, max_gap=0),
            )

    def test_exact_mode_has_no_ambiguity(self, setting):
        db, matrix, symbol_match, _sample = setting
        cls = classify_on_sample(
            db, matrix, 0.4, 1e-6, symbol_match, CONSTRAINTS, exact=True
        )
        assert cls.ambiguous_count() == 0
        assert all(eps == 0.0 for eps in cls.epsilons.values())

    def test_classification_result_helpers(self, setting):
        _db, matrix, symbol_match, sample = setting
        cls = classify_on_sample(
            sample, matrix, 0.4, 0.05, symbol_match, CONSTRAINTS
        )
        assert cls.ambiguous_count() == len(cls.ambiguous_patterns())
        assert cls.frequent_patterns() >= set(cls.fqt.elements)
