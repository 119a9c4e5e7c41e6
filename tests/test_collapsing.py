"""Unit tests for Phase 3 (border collapsing, Algorithms 4.3/4.4).

Two styles: deterministic tests drive :func:`collapse_borders` with a
hand-built classification (so the probe schedule and the collapse logic
are tested in isolation), and integration tests run the real Phase 1+2
pipeline on planted-motif data and check agreement with the exact
level-wise miner.
"""

import pytest

from repro import (
    Border,
    CompatibilityMatrix,
    LevelwiseMiner,
    MiningError,
    Pattern,
    PatternConstraints,
    SequenceDatabase,
    classify_on_sample,
    collapse_borders,
)
from repro.mining.collapsing import layer_schedule, select_probe_batch
from repro.mining.chernoff import AMBIGUOUS, FREQUENT
from repro.mining.result import SampleClassification
from repro.datagen.motifs import Motif
from repro.datagen.synthetic import generate_database
from repro.engine import VectorizedBatchEngine

CONSTRAINTS = PatternConstraints(max_weight=6, max_span=7, max_gap=0)


class TestLayerSchedule:
    def test_midpoint_first(self):
        order = layer_schedule(0, 8)
        assert order[0] == 4

    def test_covers_full_range(self):
        for low, high in [(0, 5), (2, 9), (0, 1), (3, 4)]:
            order = layer_schedule(low, high)
            assert sorted(order) == list(range(low + 1, high + 1))

    def test_no_duplicates(self):
        order = layer_schedule(0, 16)
        assert len(order) == len(set(order))

    def test_empty_range(self):
        assert layer_schedule(3, 3) == []
        assert layer_schedule(5, 2) == []

    def test_quarterways_follow_halfway(self):
        order = layer_schedule(0, 8)
        assert set(order[1:3]) == {2, 6}

    def test_exact_order_pinned(self):
        # Regression for the deque rewrite of the subdivision queue:
        # the breadth-first probe order is part of the algorithm's
        # observable behaviour (it decides which layers fill memory
        # first), so pin it exactly.
        assert layer_schedule(0, 5) == [3, 1, 4, 2, 5]
        assert layer_schedule(0, 8) == [4, 2, 6, 1, 3, 5, 7, 8]
        assert layer_schedule(2, 9) == [6, 4, 8, 3, 5, 7, 9]
        assert layer_schedule(0, 1) == [1]

    def test_wide_range_is_fast_and_complete(self):
        # The old list.pop(0) queue made wide ranges quadratic; the
        # deque keeps them linear.  Correctness check on a wide range.
        order = layer_schedule(0, 2000)
        assert sorted(order) == list(range(1, 2001))


class TestSelectProbeBatch:
    def test_prefers_halfway_weight(self):
        undecided = {
            Pattern([1]),
            Pattern([1, 2]),
            Pattern([1, 2, 3]),
            Pattern([1, 2, 3, 4]),
            Pattern([1, 2, 3, 4, 5]),
        }
        batch = select_probe_batch(undecided, 0, memory_capacity=1)
        # Paper's example: d1d2d3 has the most collapsing power.
        assert batch == [Pattern([1, 2, 3])]

    def test_capacity_respected(self):
        undecided = {Pattern([i, j]) for i in range(3) for j in range(3)}
        batch = select_probe_batch(undecided, 1, memory_capacity=4)
        assert len(batch) == 4

    def test_unbounded_takes_everything(self):
        undecided = {Pattern([1]), Pattern([2])}
        batch = select_probe_batch(undecided, 0, memory_capacity=None)
        assert set(batch) == undecided

    def test_empty_input(self):
        assert select_probe_batch(set(), 0, 10) == []


def _manual_classification(
    matrix_size: int,
    fqt_patterns,
    ambiguous_patterns,
    symbol_match=None,
) -> SampleClassification:
    """Build a SampleClassification by hand for deterministic tests."""
    fqt = Border(fqt_patterns)
    infqt = Border(list(fqt_patterns) + list(ambiguous_patterns))
    labels = {p: FREQUENT for p in fqt_patterns}
    labels.update({p: AMBIGUOUS for p in ambiguous_patterns})
    matches = {p: 0.5 for p in labels}
    if symbol_match is None:
        symbol_match = {d: 1.0 for d in range(matrix_size)}
    return SampleClassification(
        fqt=fqt,
        infqt=infqt,
        labels=labels,
        sample_matches=matches,
        epsilons={p: 0.1 for p in labels},
        symbol_match=symbol_match,
    )


class TestCollapseDeterministic:
    """Drive the collapse on the paper's Figure 6(a) chain."""

    @pytest.fixture
    def chain_db(self):
        # The 5-symbol chain 1 2 3 4 5 appears in 6 of 10 sequences;
        # min_match = 0.5 makes the whole chain frequent.
        carrier = [1, 2, 3, 4, 5, 0, 0]
        other = [0, 6, 0, 6, 0, 6, 0]
        return SequenceDatabase([carrier] * 6 + [other] * 4)

    def test_chain_collapse_single_scan(self, chain_db):
        matrix = CompatibilityMatrix.identity(7)
        ambiguous = [
            Pattern([1, 2]),
            Pattern([1, 2, 3]),
            Pattern([1, 2, 3, 4]),
            Pattern([1, 2, 3, 4, 5]),
        ]
        cls = _manual_classification(7, [Pattern([1])], ambiguous)
        outcome = collapse_borders(chain_db, matrix, 0.5, cls)
        assert outcome.border.covers(Pattern([1, 2, 3, 4, 5]))
        assert outcome.scans == 1  # unbounded memory: one probe round

    def test_chain_collapse_with_capacity_one_probes_halfway_first(
        self, chain_db
    ):
        matrix = CompatibilityMatrix.identity(7)
        ambiguous = [
            Pattern([1, 2]),
            Pattern([1, 2, 3]),
            Pattern([1, 2, 3, 4]),
            Pattern([1, 2, 3, 4, 5]),
        ]
        cls = _manual_classification(7, [Pattern([1])], ambiguous)
        outcome = collapse_borders(
            chain_db, matrix, 0.5, cls, memory_capacity=1
        )
        # First probe is the halfway pattern d1 d2 d3 (paper's example).
        assert outcome.probe_rounds[0] == [Pattern([1, 2, 3])]
        assert outcome.border.covers(Pattern([1, 2, 3, 4, 5]))
        # Binary collapse: 3 scans decide a 4-pattern chain with
        # capacity 1 (probe 3, then 4/5 chain above), vs 4 level-wise.
        assert outcome.scans <= 3

    def test_infrequent_probe_kills_superpatterns(self, chain_db):
        matrix = CompatibilityMatrix.identity(7)
        # Chain over symbol 6: these patterns occur only in the 4
        # "other" sequences -> match 0.4 < 0.5 -> infrequent.
        ambiguous = [Pattern([6]), Pattern([6, 0, 6]), Pattern([6, 0, 6, 0])]
        cls = _manual_classification(7, [], ambiguous)
        outcome = collapse_borders(
            chain_db, matrix, 0.5, cls, memory_capacity=1
        )
        # Probing the middle (6 0 6: match 0.4 < 0.5) kills 6 0 6 0 too;
        # only the bottom pattern 6 needs a second probe.
        assert not outcome.border.covers(Pattern([6, 0, 6, 0]))
        assert outcome.scans <= 2

    def test_mixed_labels_collapse_more(self, chain_db):
        """Figure 6(b): a mixed halfway layer decides both directions."""
        matrix = CompatibilityMatrix.identity(7)
        ambiguous = [
            Pattern([1, 2]),        # frequent in db (0.6)
            Pattern([6, 0]),        # infrequent in db (0.4)
            Pattern([1, 2, 3]),     # frequent
            Pattern([6, 0, 6]),     # infrequent
        ]
        cls = _manual_classification(7, [], ambiguous)
        outcome = collapse_borders(chain_db, matrix, 0.5, cls)
        assert outcome.border.covers(Pattern([1, 2, 3]))
        assert not outcome.border.covers(Pattern([6, 0]))

    def test_invalid_memory_capacity(self, chain_db):
        matrix = CompatibilityMatrix.identity(7)
        cls = _manual_classification(7, [], [Pattern([1])])
        with pytest.raises(MiningError):
            collapse_borders(chain_db, matrix, 0.5, cls, memory_capacity=0)

    def test_no_ambiguity_zero_scans(self, chain_db):
        matrix = CompatibilityMatrix.identity(7)
        cls = _manual_classification(7, [Pattern([1, 2])], [])
        outcome = collapse_borders(chain_db, matrix, 0.5, cls)
        assert outcome.scans == 0
        assert outcome.border == cls.fqt


WILDCARD = -1


class TestCollapseIntegration:
    """Full pipeline on planted-motif data vs the exact miner."""

    @pytest.fixture
    def setting(self, rng):
        motif = Motif(Pattern([1, 2, 3, 4, 5]), frequency=0.55)
        db = generate_database(300, 20, 12, [motif], rng=rng)
        matrix = CompatibilityMatrix.identity(12)
        symbol_match = VectorizedBatchEngine().symbol_matches(db, matrix)
        db.reset_scan_count()
        sample = db.sample(150, rng)
        db.reset_scan_count()
        cls = classify_on_sample(
            sample, matrix, 0.45, 1e-4, symbol_match, CONSTRAINTS
        )
        return db, matrix, cls

    def test_final_border_matches_exact_miner(self, setting):
        db, matrix, cls = setting
        outcome = collapse_borders(db, matrix, 0.45, cls)
        db.reset_scan_count()
        exact = LevelwiseMiner(matrix, 0.45, constraints=CONSTRAINTS).mine(db)
        assert outcome.border == exact.border

    def test_verified_values_are_exact(self, setting):
        db, matrix, cls = setting
        outcome = collapse_borders(db, matrix, 0.45, cls)
        from repro.core.match import database_match

        for pattern, value in list(outcome.verified.items())[:5]:
            db.reset_scan_count()
            assert database_match(pattern, db, matrix) == pytest.approx(value)

    def test_single_scan_with_unbounded_memory(self, setting):
        db, matrix, cls = setting
        if not cls.ambiguous_patterns():
            pytest.skip("sample decided everything")
        outcome = collapse_borders(db, matrix, 0.45, cls)
        assert outcome.scans == 1

    def test_capacity_bounds_probe_rounds(self, setting):
        db, matrix, cls = setting
        if len(cls.ambiguous_patterns()) < 4:
            pytest.skip("not enough ambiguity")
        outcome = collapse_borders(db, matrix, 0.45, cls, memory_capacity=2)
        assert all(len(batch) <= 2 for batch in outcome.probe_rounds)
        assert outcome.scans == len(outcome.probe_rounds)
