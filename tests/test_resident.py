"""The resident-sample evaluator: equivalence, pinning, plane store.

The evaluator's whole promise is "same numbers, fewer flops": every
match value must agree with the per-sequence oracle to 1e-12 on
arbitrary inputs — gapped patterns included — whether planes are
cached, evicted and rebuilt, or the database was silently swapped
between calls (bit-identity to the vectorized engine, for every kernel
dispatch, is pinned by ``tests/test_resident_native.py``).  The scan contract (exactly one ``database.scan()`` per
``database_matches``) must hold even though the engine keeps the data
pinned.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro import (
    CompatibilityMatrix,
    MiningError,
    Pattern,
    PatternConstraints,
    SequenceDatabase,
    WILDCARD,
    symbol_matches,
)
from repro.engine import PlaneStore, ResidentSampleEvaluator
from repro.engine.resident import _strip_last
from repro.mining.ambiguous import classify_on_sample
from repro.mining.chernoff import chernoff_epsilon, restricted_spread
from repro.obs import (
    RESIDENT_PLANE_BYTES,
    RESIDENT_PLANE_HITS,
    RESIDENT_PLANE_MISSES,
    Tracer,
)

from .oracles import ReferenceEngine
from .strategies import (
    M,
    databases,
    matrices,
    pattern_batches,
    patterns,
)


REF = ReferenceEngine()


# -- hypothesis equivalence ----------------------------------------------------

@given(pattern_batches(), databases(), matrices())
@settings(max_examples=60, deadline=None)
def test_database_matches_equivalence(batch, database, matrix):
    batch = list(dict.fromkeys(batch))
    baseline = REF.database_matches(batch, database, matrix)
    # A fresh evaluator per example: hypothesis shrinks across examples
    # and a stale pin must never leak between them (re-pinning handles
    # it, but the test should not depend on that here).
    engine = ResidentSampleEvaluator(chunk_rows=3)
    result = engine.database_matches(batch, database, matrix)
    assert set(result) == set(baseline)
    for pattern in batch:
        assert result[pattern] == pytest.approx(
            baseline[pattern], abs=1e-12
        )
    # Second call on the warm pin: planes now come from the store and
    # the values must not move at all.
    again = engine.database_matches(batch, database, matrix)
    assert again == result


@given(databases(), matrices())
@settings(max_examples=30, deadline=None)
def test_symbol_matches_equivalence(database, matrix):
    engine = ResidentSampleEvaluator(chunk_rows=3)
    np.testing.assert_allclose(
        engine.symbol_matches(database, matrix),
        REF.symbol_matches(database, matrix),
        atol=1e-12,
    )
    rows = [seq for _sid, seq in database.scan()]
    np.testing.assert_allclose(
        engine.symbol_matches_rows(rows, matrix),
        REF.symbol_matches_rows(rows, matrix),
        atol=1e-12,
    )


# -- eviction and recompute ----------------------------------------------------

class TestEvictionRecompute:
    def test_evicted_planes_are_rebuilt_exactly(self, fig2_matrix):
        rng = np.random.default_rng(11)
        database = SequenceDatabase(
            [list(rng.integers(0, M, size=10)) for _ in range(20)]
        )
        chain = [
            Pattern([0, 1]),
            Pattern([0, 1, WILDCARD, 2]),
            Pattern([0, 1, WILDCARD, 2, 3]),
        ]
        roomy = ResidentSampleEvaluator(chunk_rows=4)
        # A budget of one small plane list: every put evicts the
        # previous entry, so deep patterns always walk the full prefix
        # chain down to the span-1 views.
        tight = ResidentSampleEvaluator(chunk_rows=4, plane_bytes=2048)
        first = roomy.database_matches(chain, database, fig2_matrix)
        second = tight.database_matches(chain, database, fig2_matrix)
        assert tight.planes.evictions > 0
        assert first == second
        # And the rebuilt values survive a warm re-count too.
        assert tight.database_matches(chain, database, fig2_matrix) == first


# -- pinning and the scan contract ---------------------------------------------

class TestPinning:
    def _database(self, seed: int = 0, n: int = 10) -> SequenceDatabase:
        rng = np.random.default_rng(seed)
        return SequenceDatabase(
            [list(rng.integers(0, M, size=8)) for _ in range(n)]
        )

    def test_database_matches_is_exactly_one_scan(self, fig2_matrix):
        engine = ResidentSampleEvaluator(chunk_rows=4)
        database = self._database()
        batch = [Pattern([0, 1]), Pattern([1, WILDCARD, 0])]
        before = database.scan_count
        engine.database_matches(batch, database, fig2_matrix)
        assert database.scan_count == before + 1
        # The warm path still pays its scan: the pass *is* the paper's
        # cost model, the pin only removes recomputation.
        engine.database_matches(batch, database, fig2_matrix)
        assert database.scan_count == before + 2
        assert engine.repins == 1  # one pin served both calls

    def test_changed_database_repins_and_agrees(self, fig2_matrix):
        engine = ResidentSampleEvaluator(chunk_rows=4)
        batch = [Pattern([0, 1])]
        first_db = self._database(seed=1)
        second_db = self._database(seed=2)
        engine.database_matches(batch, first_db, fig2_matrix)
        got = engine.database_matches(batch, second_db, fig2_matrix)
        assert engine.repins == 2
        expected = REF.database_matches(batch, second_db, fig2_matrix)
        assert got[batch[0]] == pytest.approx(expected[batch[0]], abs=1e-12)

    def test_equal_content_different_object_reuses_pin(self, fig2_matrix):
        engine = ResidentSampleEvaluator(chunk_rows=4)
        batch = [Pattern([0, 1])]
        engine.database_matches(batch, self._database(seed=3), fig2_matrix)
        engine.database_matches(batch, self._database(seed=3), fig2_matrix)
        assert engine.repins == 1  # content digest, not object identity

    def test_changed_matrix_repins(self, fig2_matrix):
        engine = ResidentSampleEvaluator(chunk_rows=4)
        database = self._database(seed=4)
        batch = [Pattern([0, 1])]
        engine.database_matches(batch, database, fig2_matrix)
        identity = CompatibilityMatrix.identity(M)
        got = engine.database_matches(batch, database, identity)
        assert engine.repins == 2
        expected = REF.database_matches(batch, database, identity)
        assert got[batch[0]] == pytest.approx(expected[batch[0]], abs=1e-12)

    def test_empty_batch_costs_nothing(self, fig2_matrix):
        engine = ResidentSampleEvaluator()
        database = self._database()
        before = database.scan_count
        assert engine.database_matches([], database, fig2_matrix) == {}
        assert database.scan_count == before

    def test_empty_database_rejected(self, fig2_matrix):
        # SequenceDatabase refuses to be empty, so exercise the engine's
        # own guard with a bare scan that yields nothing.
        class EmptyScan:
            scan_count = 0

            def scan(self):
                return iter(())

            def scan_chunks(self, chunk_rows):
                return iter(())

        engine = ResidentSampleEvaluator()
        with pytest.raises(MiningError):
            engine.database_matches(
                [Pattern([0])], EmptyScan(), fig2_matrix
            )

    def test_close_and_reset(self, fig2_matrix):
        engine = ResidentSampleEvaluator(chunk_rows=4)
        database = self._database()
        batch = [Pattern([0, 1]), Pattern([0, 1, 2])]
        result = engine.database_matches(batch, database, fig2_matrix)
        assert len(engine.planes) > 0
        engine.reset_planes()
        assert len(engine.planes) == 0
        assert engine.database_matches(batch, database, fig2_matrix) \
            == result
        assert engine.repins == 1  # reset keeps the pin
        engine.close()
        assert engine.database_matches(batch, database, fig2_matrix) \
            == result
        assert engine.repins == 2  # close drops it


# -- observability -------------------------------------------------------------

class TestCounters:
    def test_plane_counters_reach_the_tracer(self, fig2_matrix):
        rng = np.random.default_rng(7)
        database = SequenceDatabase(
            [list(rng.integers(0, M, size=10)) for _ in range(12)]
        )
        engine = ResidentSampleEvaluator(chunk_rows=4)
        parents = [Pattern([0, 1]), Pattern([2, 3])]
        children = [Pattern([0, 1, 2]), Pattern([0, 1, 3]),
                    Pattern([2, 3, 0])]
        tracer = Tracer()
        engine.database_matches(parents, database, fig2_matrix,
                                tracer=tracer)
        # Level-2 patterns extend span-1 planes, which are views into
        # the factor arrays — no store traffic yet.
        assert tracer.total(RESIDENT_PLANE_MISSES) == 0
        engine.database_matches(children, database, fig2_matrix,
                                tracer=tracer)
        # The children's two distinct parents are derived (and stored)
        # on first demand: one miss each, one fetch per sibling group.
        assert tracer.total(RESIDENT_PLANE_MISSES) == 2
        assert tracer.total(RESIDENT_PLANE_HITS) == 0
        engine.database_matches(children, database, fig2_matrix,
                                tracer=tracer)
        # Re-counting the same level hits the stored parent planes.
        assert tracer.total(RESIDENT_PLANE_HITS) == 2
        # The bytes counter accumulates deltas, so its running total is
        # the store's current footprint.
        assert tracer.total(RESIDENT_PLANE_BYTES) == engine.planes.nbytes
        assert engine.planes.nbytes > 0

    def test_untraced_calls_are_free_of_counter_state(self, fig2_matrix):
        engine = ResidentSampleEvaluator(chunk_rows=4)
        database = SequenceDatabase([[0, 1, 2, 3]])
        engine.database_matches(
            [Pattern([0, 1])], database, fig2_matrix, tracer=None
        )  # must simply not raise


# -- phase-2 integration -------------------------------------------------------

class TestClassifyIntegration:
    def _workload(self):
        rng = np.random.default_rng(17)
        rows = [list(rng.integers(0, M, size=12)) for _ in range(40)]
        database = SequenceDatabase(rows)
        matrix = CompatibilityMatrix.uniform_noise(M, 0.15)
        sym = symbol_matches(database, matrix)
        constraints = PatternConstraints(max_weight=4, max_span=6,
                                         max_gap=1)
        return database, matrix, sym, constraints

    def test_resident_classification_identical_to_reference(self):
        database, matrix, sym, constraints = self._workload()
        base = classify_on_sample(
            database, matrix, 0.4, 1e-3, sym, constraints, engine=REF,
        )
        res = classify_on_sample(
            database, matrix, 0.4, 1e-3, sym, constraints,
        )
        assert base.labels == res.labels
        assert base.epsilons == res.epsilons
        for pattern, value in base.sample_matches.items():
            assert res.sample_matches[pattern] == pytest.approx(
                value, abs=1e-12
            )

    def test_exact_path_sample_equals_database(self):
        # exact=True is the sample == database configuration: the band
        # is zero and every label is decided by the exact match value.
        database, matrix, sym, constraints = self._workload()
        base = classify_on_sample(
            database, matrix, 0.4, 1e-3, sym, constraints,
            exact=True, engine=REF,
        )
        res = classify_on_sample(
            database, matrix, 0.4, 1e-3, sym, constraints, exact=True,
        )
        assert base.labels == res.labels
        assert base.epsilons == res.epsilons
        for pattern, value in base.sample_matches.items():
            assert res.sample_matches[pattern] == pytest.approx(
                value, abs=1e-12
            )

    def test_memoized_epsilons_match_the_formula(self):
        database, matrix, sym, constraints = self._workload()
        n = len(database)
        result = classify_on_sample(
            database, matrix, 0.4, 1e-3, sym, constraints,
        )
        checked = 0
        for pattern, epsilon in result.epsilons.items():
            if pattern.weight < 2 or epsilon == 0.0:
                continue
            spread = restricted_spread(pattern, sym)
            assert epsilon == chernoff_epsilon(spread, 1e-3, n)
            checked += 1
        assert checked > 0


# -- configuration surface -----------------------------------------------------

class TestConfiguration:
    def test_invalid_construction_rejected(self):
        with pytest.raises(MiningError):
            ResidentSampleEvaluator(chunk_rows=0)
        with pytest.raises(MiningError):
            ResidentSampleEvaluator(plane_bytes=-1)


# -- unit pieces ---------------------------------------------------------------

class TestStripLast:
    def test_single_symbol(self):
        assert _strip_last((3,)) == (None, 0, 3)

    def test_adjacent(self):
        assert _strip_last((0, 1, 2)) == ((0, 1), 2, 2)

    def test_gap_is_consumed_with_the_symbol(self):
        assert _strip_last((0, WILDCARD, WILDCARD, 2)) == ((0,), 3, 2)

    def test_round_trip_against_pattern_semantics(self):
        pattern = Pattern([1, WILDCARD, 0, WILDCARD, WILDCARD, 3])
        parent, offset, symbol = _strip_last(pattern.elements)
        assert Pattern(list(parent)) == Pattern([1, WILDCARD, 0])
        assert offset == pattern.span - 1
        assert symbol == 3


class TestPlaneStore:
    def _plane(self, nbytes: int = 1024) -> list:
        return [np.zeros(nbytes // 8, dtype=np.float64)]

    def test_get_counts_hits_and_misses(self):
        store = PlaneStore()
        assert store.get((0, 1)) is None
        store.put((0, 1), self._plane())
        assert store.get((0, 1)) is not None
        assert store.hits == 1
        assert store.misses == 1

    def test_budget_evicts_lru(self):
        store = PlaneStore(max_bytes=2048)
        store.put((1,), self._plane())
        store.put((2,), self._plane())
        store.get((1,))  # refresh (1,): now (2,) is the LRU entry
        store.put((3,), self._plane())
        assert store.get((2,)) is None
        assert store.get((1,)) is not None
        assert store.evictions == 1
        assert store.nbytes <= 2048

    def test_oversized_entry_is_not_kept(self):
        store = PlaneStore(max_bytes=100)
        store.put((1,), self._plane(1024))
        assert len(store) == 0
        assert store.nbytes == 0

    def test_replace_updates_bytes(self):
        store = PlaneStore(max_bytes=4096)
        store.put((1,), self._plane(1024))
        store.put((1,), self._plane(2048))
        assert len(store) == 1
        assert store.nbytes == 2048

    def test_negative_budget_rejected(self):
        with pytest.raises(MiningError):
            PlaneStore(max_bytes=-1)
