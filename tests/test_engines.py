"""The engine layer: engine equivalence, scan contract, cache, pool.

The per-sequence oracle of ``tests/oracles.py`` is the semantic
baseline; the counting engine — one worker or a pool — must agree
with it on
``M(P, s)``, ``M(P, S)`` and ``M(P, D)`` to within 1e-12 on arbitrary
inputs — including wildcard-heavy patterns and patterns whose span
exceeds every sequence — while consuming exactly one scan per
``database_matches`` call.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CompatibilityMatrix,
    MiningError,
    Pattern,
    SequenceDatabase,
    WILDCARD,
)
from repro.config import MiningConfig
from repro.core import match as core_match
from repro.engine import (
    FactorCache,
    MatchEngine,
    VectorizedBatchEngine,
    WORKERS_ENV_VAR,
    resolve_worker_count,
)
from repro.mining import LevelwiseMiner
from repro.obs import SHARDS_DISPATCHED, Tracer

from .oracles import ReferenceEngine, small_shards
from .strategies import (
    M,
    databases,
    matrices,
    pattern_batches,
    patterns,
    sequences,
)


@pytest.fixture(autouse=True, scope="module")
def _tiny_shards():
    """Let the handful-of-rows databases below cut into shards, so the
    pool engine really dispatches."""
    with small_shards():
        yield


#: Module-level instances so the pool and the factor cache are reused
#: across examples.  chunk_rows=3 forces multi-chunk evaluation on tiny
#: databases.
REF = ReferenceEngine()
VEC = VectorizedBatchEngine(chunk_rows=3)
PAR = VectorizedBatchEngine(chunk_rows=3, workers=2)
ENGINES = [REF, VEC, PAR]
#: Every non-reference backend must agree with REF to 1e-12.
OTHERS = [engine for engine in ENGINES if engine is not REF]


def _engine_id(engine: MatchEngine) -> str:
    if isinstance(engine, VectorizedBatchEngine) and engine.workers > 1:
        return "parallel"
    return engine.name


# -- hypothesis equivalence ----------------------------------------------------

@given(patterns(), sequences(), matrices())
@settings(max_examples=120, deadline=None)
def test_sequence_match_equivalence(pattern, sequence, matrix):
    # M(P, S) is M(P, D) over the one-sequence database {S}.
    baseline = core_match.sequence_match(pattern, sequence, matrix)
    for engine in OTHERS:
        got = engine.database_matches(
            [pattern], SequenceDatabase([sequence]), matrix
        )
        assert got[pattern] == pytest.approx(baseline, abs=1e-12)


@given(patterns(), matrices(), st.data())
@settings(max_examples=80, deadline=None)
def test_segment_match_equivalence(pattern, matrix, data):
    segment = data.draw(
        st.lists(
            st.integers(0, M - 1),
            min_size=pattern.span,
            max_size=pattern.span,
        )
    )
    # A span-length sequence has exactly one window: the segment.
    baseline = core_match.segment_match(pattern, segment, matrix)
    for engine in OTHERS:
        got = engine.database_matches(
            [pattern], SequenceDatabase([segment]), matrix
        )
        assert got[pattern] == pytest.approx(baseline, abs=1e-12)


@given(pattern_batches(), databases(), matrices())
@settings(max_examples=40, deadline=None)
def test_database_matches_equivalence(batch, database, matrix):
    batch = list(dict.fromkeys(batch))
    baseline = REF.database_matches(batch, database, matrix)
    for engine in OTHERS:
        result = engine.database_matches(batch, database, matrix)
        assert set(result) == set(baseline)
        for pattern in batch:
            assert result[pattern] == pytest.approx(
                baseline[pattern], abs=1e-12
            )


@given(pattern_batches(), databases(), matrices())
@settings(max_examples=40, deadline=None)
def test_pool_float64_is_bit_identical_to_one_worker(
    batch, database, matrix
):
    # Stronger than the 1e-12 contract: at equal chunk_rows every worker
    # count reproduces the one-worker scan bit for bit.
    batch = list(dict.fromkeys(batch))
    baseline = VEC.database_matches(batch, database, matrix)
    for engine in OTHERS:
        result = engine.database_matches(batch, database, matrix)
        for pattern in batch:
            assert result[pattern] == baseline[pattern]


@given(databases(), matrices())
@settings(max_examples=40, deadline=None)
def test_symbol_matches_equivalence(database, matrix):
    baseline = REF.symbol_matches(database, matrix)
    for engine in OTHERS:
        np.testing.assert_allclose(
            engine.symbol_matches(database, matrix), baseline, atol=1e-12
        )
    for engine in OTHERS:  # bit-identity, not closeness
        np.testing.assert_array_equal(
            engine.symbol_matches(database, matrix),
            VEC.symbol_matches(database, matrix),
        )


@given(databases(), matrices())
@settings(max_examples=40, deadline=None)
def test_symbol_matches_rows_equivalence(database, matrix):
    rows = [seq for _sid, seq in database.scan()]
    baseline = REF.symbol_matches_rows(rows, matrix)
    for engine in OTHERS:
        np.testing.assert_allclose(
            engine.symbol_matches_rows(rows, matrix), baseline, atol=1e-12
        )


# -- deterministic edge cases --------------------------------------------------

class TestEdgeCases:
    @pytest.mark.parametrize("engine", ENGINES, ids=_engine_id)
    def test_span_longer_than_every_sequence(self, engine, fig2_matrix):
        database = SequenceDatabase([[0, 1], [2]])
        long_pattern = Pattern([0] + [WILDCARD] * 10 + [1])
        result = engine.database_matches([long_pattern], database, fig2_matrix)
        assert result[long_pattern] == 0.0

    @pytest.mark.parametrize("engine", ENGINES, ids=_engine_id)
    def test_span_longer_than_some_sequences(self, engine, fig2_matrix):
        # Mixed lengths: the padded kernel must not let windows that
        # overlap the padding contribute anything.
        database = SequenceDatabase([[0, 1, 2, 0, 1, 3], [1], [2, 0]])
        pattern = Pattern([0, WILDCARD, WILDCARD, 1])
        expected = sum(
            core_match.sequence_match(pattern, seq, fig2_matrix)
            for seq in ([0, 1, 2, 0, 1, 3], [1], [2, 0])
        ) / 3
        result = engine.database_matches([pattern], database, fig2_matrix)
        assert result[pattern] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("engine", ENGINES, ids=_engine_id)
    def test_wildcard_heavy_pattern(self, engine, fig2_matrix):
        database = SequenceDatabase(
            [[0, 1, 2, 3, 4, 0, 1, 2], [4, 3, 2, 1, 0]]
        )
        pattern = Pattern([0, WILDCARD, WILDCARD, WILDCARD, WILDCARD, 2])
        baseline = core_match.database_matches(
            [pattern], database, fig2_matrix
        )
        database.reset_scan_count()
        result = engine.database_matches([pattern], database, fig2_matrix)
        assert result[pattern] == pytest.approx(
            baseline[pattern], abs=1e-12
        )

    @pytest.mark.parametrize("engine", ENGINES, ids=_engine_id)
    def test_empty_batch_costs_nothing(self, engine, fig4_database,
                                       fig2_matrix):
        before = fig4_database.scan_count
        assert engine.database_matches([], fig4_database, fig2_matrix) == {}
        assert fig4_database.scan_count == before

    def test_vectorized_rejects_out_of_range_symbol(self, fig2_matrix):
        database = SequenceDatabase([[0, 7]])  # 7 >= m = 5
        with pytest.raises(MiningError):
            VEC.database_matches([Pattern([0])], database, fig2_matrix)


class TestScanContract:
    @pytest.mark.parametrize("engine", ENGINES, ids=_engine_id)
    def test_database_matches_is_one_scan(self, engine, fig4_database,
                                          fig2_matrix):
        batch = [Pattern([0, 1]), Pattern([1, WILDCARD, 0]), Pattern([3])]
        before = fig4_database.scan_count
        engine.database_matches(batch, fig4_database, fig2_matrix)
        assert fig4_database.scan_count == before + 1

    @pytest.mark.parametrize("engine", ENGINES, ids=_engine_id)
    def test_symbol_matches_is_one_scan(self, engine, fig4_database,
                                        fig2_matrix):
        before = fig4_database.scan_count
        engine.symbol_matches(fig4_database, fig2_matrix)
        assert fig4_database.scan_count == before + 1

    def test_cache_hit_still_consumes_a_scan(self, fig4_database,
                                             fig2_matrix):
        engine = VectorizedBatchEngine(chunk_rows=2)
        batch = [Pattern([0, 1])]
        engine.database_matches(batch, fig4_database, fig2_matrix)
        before = fig4_database.scan_count
        engine.database_matches(batch, fig4_database, fig2_matrix)
        assert fig4_database.scan_count == before + 1
        assert engine.cache.hits > 0


class TestFactorCache:
    def test_repeat_scan_hits_cache_and_agrees(self, fig4_database,
                                               fig2_matrix):
        engine = VectorizedBatchEngine(chunk_rows=2)
        batch = [Pattern([0, 1]), Pattern([1, 1])]
        first = engine.database_matches(batch, fig4_database, fig2_matrix)
        misses = engine.cache.misses
        second = engine.database_matches(batch, fig4_database, fig2_matrix)
        assert engine.cache.misses == misses  # nothing re-gathered
        assert first == second

    def test_different_matrix_never_serves_stale_factors(self,
                                                         fig4_database):
        engine = VectorizedBatchEngine(chunk_rows=2)
        batch = [Pattern([0, 1])]
        noisy = CompatibilityMatrix.uniform_noise(5, alpha=0.2)
        identity = CompatibilityMatrix.identity(5)
        engine.database_matches(batch, fig4_database, noisy)
        got = engine.database_matches(batch, fig4_database, identity)
        expected = core_match.database_matches(
            batch, fig4_database, identity
        )
        assert got[batch[0]] == pytest.approx(expected[batch[0]], abs=1e-12)

    def test_distinct_same_shape_chunks_never_share_an_entry(
        self, fig2_matrix
    ):
        # Same (N, L) padded shape, one symbol different: the content
        # digest in the key must keep the two chunks apart — a collision
        # would silently serve the factor array of the *other* chunk.
        engine = VectorizedBatchEngine(chunk_rows=2)
        db_a = SequenceDatabase([[0, 1, 2], [3, 4, 0]])
        db_b = SequenceDatabase([[0, 1, 2], [3, 4, 1]])
        batch = [Pattern([0, 1])]
        engine.database_matches(batch, db_a, fig2_matrix)
        engine.database_matches(batch, db_b, fig2_matrix)
        assert len(engine.cache) == 2
        assert engine.cache.hits == 0
        got = engine.database_matches(batch, db_b, fig2_matrix)
        assert engine.cache.hits == 1  # the repeat is a genuine hit
        expected = core_match.database_matches(batch, db_b, fig2_matrix)
        assert got[batch[0]] == pytest.approx(expected[batch[0]], abs=1e-12)

    def test_byte_budget_evicts_lru(self):
        cache = FactorCache(max_bytes=2048)
        a = np.zeros(128, dtype=np.float64)  # 1024 bytes each
        cache.put(("k1",), a)
        cache.put(("k2",), a.copy())
        cache.put(("k3",), a.copy())  # evicts k1
        assert cache.get(("k1",)) is None
        assert cache.get(("k2",)) is not None
        assert cache.nbytes <= 2048

    def test_zero_budget_disables_caching(self, fig4_database, fig2_matrix):
        engine = VectorizedBatchEngine(chunk_rows=2, cache_bytes=0)
        batch = [Pattern([0, 1])]
        first = engine.database_matches(batch, fig4_database, fig2_matrix)
        second = engine.database_matches(batch, fig4_database, fig2_matrix)
        assert len(engine.cache) == 0
        assert first == second

    def test_close_clears_cache(self, fig4_database, fig2_matrix):
        engine = VectorizedBatchEngine(chunk_rows=2)
        engine.database_matches(
            [Pattern([0])], fig4_database, fig2_matrix
        )
        assert len(engine.cache) > 0
        engine.close()
        assert len(engine.cache) == 0


class TestEngineSelection:
    def test_one_worker_selects_by_platform(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        engine = VectorizedBatchEngine()
        assert engine.workers == 1
        assert engine.name == "vectorized"

    def test_more_workers_select_the_parallel_engine(self, fig2_matrix):
        database = SequenceDatabase([[0, 1, 2]] * 8)
        with VectorizedBatchEngine(chunk_rows=4, workers=2) as engine:
            assert engine.workers == 2
            assert engine.name == "vectorized"
            engine.database_matches([Pattern([0, 1])], database,
                                    fig2_matrix)
            assert engine.shards_dispatched == 2  # the pool ran it

    def test_workers_env_var_selects_the_parallel_engine(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        with VectorizedBatchEngine() as engine:
            assert engine.workers == 3

    def test_each_call_builds_a_fresh_engine(self):
        config = MiningConfig(min_match=0.5, alphabet=M,
                              algorithm="levelwise")
        assert config.build_miner(10).engine is not \
            config.build_miner(10).engine

    def test_stale_engine_env_var_changes_nothing(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        expected = repr(VectorizedBatchEngine())
        monkeypatch.setenv("NOISYMINE_ENGINE", "reference")
        assert repr(VectorizedBatchEngine()) == expected

    def test_miners_use_a_passed_instance(self):
        miner = LevelwiseMiner(CompatibilityMatrix.identity(M), 0.5,
                               engine=VEC)
        assert miner.engine is VEC

    def test_engine_is_context_manager(self):
        with VectorizedBatchEngine() as engine:
            assert isinstance(engine, MatchEngine)


class TestParallelLifecycle:
    """Pool lifecycle, asserted via the engine's lifetime counters."""

    def _database(self, n: int = 8) -> SequenceDatabase:
        return SequenceDatabase(
            [[i % M, (i + 1) % M, (i + 2) % M] for i in range(n)]
        )

    def _batch(self):
        return [Pattern.single(0), Pattern([0, 1])]

    def test_inline_fallback_below_min_shard_rows(self, fig2_matrix):
        # One block of rows cannot be cut into two shards: the serial
        # path runs it, and no pool is ever built.
        engine = VectorizedBatchEngine(workers=2)
        tracer = Tracer()
        result = engine.database_matches(
            self._batch(), self._database(8), fig2_matrix, tracer=tracer
        )
        assert engine.shards_dispatched == 0
        assert engine.pools_created == 0  # no pool was ever built
        assert tracer.total(SHARDS_DISPATCHED) == 0
        assert tracer.root.notes["workers"] == 2
        baseline = REF.database_matches(
            self._batch(), self._database(8), fig2_matrix
        )
        for pattern, value in baseline.items():
            assert result[pattern] == pytest.approx(value, abs=1e-12)

    def test_single_worker_never_shards(self, fig2_matrix):
        engine = VectorizedBatchEngine(chunk_rows=1, workers=1)
        engine.database_matches(
            self._batch(), self._database(8), fig2_matrix
        )
        assert engine.pools_created == 0
        assert engine.shards_dispatched == 0

    def test_pool_reused_then_rebuilt_on_matrix_change(self, fig2_matrix):
        # chunk_rows=4 puts 8 sequences on two grid blocks, so the
        # dispatch is exactly two tasks.
        engine = VectorizedBatchEngine(chunk_rows=4, workers=2)
        other = CompatibilityMatrix(np.eye(M))
        database = self._database(8)
        try:
            tracer = Tracer()
            engine.database_matches(
                self._batch(), database, fig2_matrix, tracer=tracer
            )
            assert engine.pools_created == 1
            assert tracer.total(SHARDS_DISPATCHED) == 2
            assert tracer.root.notes["workers"] == 2

            engine.database_matches(self._batch(), database, fig2_matrix)
            assert engine.pools_created == 1  # same matrix: pool reused

            rebuilt = engine.database_matches(
                self._batch(), database, other
            )
            assert engine.pools_created == 2  # new matrix: pool rebuilt
            baseline = REF.database_matches(self._batch(), database, other)
            for pattern, value in baseline.items():
                assert rebuilt[pattern] == pytest.approx(value, abs=1e-12)
        finally:
            engine.close()

    def test_one_pool_across_a_full_mining_run(self, fig2_matrix):
        # Every phase of a run (Phase-1 scan, each level's counting
        # pass) reuses one worker pool — the engine must not fork per
        # call.
        engine = VectorizedBatchEngine(chunk_rows=4, workers=2)
        database = self._database(12)
        try:
            miner = LevelwiseMiner(
                fig2_matrix, min_match=0.3, engine=engine
            )
            result = miner.mine(database)
            assert result.frequent  # the run did real counting work
            assert engine.pools_created == 1
            assert engine.shards_dispatched >= 4  # several passes sharded
            # A second run over the same matrix still reuses it.
            miner.mine(database)
            assert engine.pools_created == 1
        finally:
            engine.close()

    def test_warm_pool_precreates_once(self, fig2_matrix):
        engine = VectorizedBatchEngine(chunk_rows=4, workers=2)
        try:
            engine.warm_pool(fig2_matrix)
            assert engine.pools_created == 1
            engine.warm_pool(fig2_matrix)  # idempotent
            assert engine.pools_created == 1
            engine.database_matches(
                self._batch(), self._database(8), fig2_matrix
            )
            assert engine.pools_created == 1  # the warm pool served it
        finally:
            engine.close()

    def test_warm_pool_is_noop_for_single_worker(self, fig2_matrix):
        engine = VectorizedBatchEngine(workers=1)
        engine.warm_pool(fig2_matrix)
        assert engine.pools_created == 0

    def test_packed_store_scans_chunk_parallel(self, fig2_matrix, tmp_path):
        # A path-backed packed store is dispatched to the pool by
        # (path, row-range) — workers mmap the file themselves — and the
        # merged totals are bit-identical to the in-memory shard path.
        from repro import PackedSequenceStore

        database = self._database(12)
        store = PackedSequenceStore.from_database(
            database, tmp_path / "db.nmp"
        )
        engine = VectorizedBatchEngine(chunk_rows=4, workers=2)
        batch = self._batch()
        try:
            expected = engine.database_matches(batch, database, fig2_matrix)
            dispatched = engine.shards_dispatched
            result = engine.database_matches(batch, store, fig2_matrix)
            assert engine.shards_dispatched == dispatched + 3
            assert store.scan_count == 1
            assert result == expected  # bit-identical merge order
            symbols = engine.symbol_matches(store, fig2_matrix)
            np.testing.assert_array_equal(
                symbols, engine.symbol_matches(database, fig2_matrix)
            )
        finally:
            engine.close()

    def test_pathless_store_falls_back_to_row_shipping(self, fig2_matrix):
        # No file behind the store: nothing for workers to mmap, so the
        # engine ships rows like any other database (and still agrees).
        from repro import PackedSequenceStore

        database = self._database(12)
        store = PackedSequenceStore.from_database(database)
        engine = VectorizedBatchEngine(chunk_rows=4, workers=2)
        try:
            result = engine.database_matches(
                self._batch(), store, fig2_matrix
            )
            expected = REF.database_matches(
                self._batch(), database, fig2_matrix
            )
            assert store.scan_count == 1
            assert engine.shards_dispatched > 0  # rows shipped
            for pattern, value in expected.items():
                assert result[pattern] == pytest.approx(value, abs=1e-12)
        finally:
            engine.close()

    def test_close_is_idempotent_and_pool_comes_back(self, fig2_matrix):
        engine = VectorizedBatchEngine(chunk_rows=4, workers=2)
        database = self._database(8)
        try:
            engine.database_matches(self._batch(), database, fig2_matrix)
            assert engine.pools_created == 1
            engine.close()
            engine.close()  # second close is a no-op, not an error
            engine.database_matches(self._batch(), database, fig2_matrix)
            assert engine.pools_created == 2
        finally:
            engine.close()


class TestWorkerResolution:
    def test_explicit_request_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "7")
        assert resolve_worker_count(3) == 3

    def test_explicit_request_must_be_positive(self):
        with pytest.raises(MiningError):
            resolve_worker_count(0)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "5")
        assert resolve_worker_count() == 5
        assert VectorizedBatchEngine().workers == 5

    @pytest.mark.parametrize("value", ["zebra", "0", "-2"])
    def test_env_override_must_be_a_positive_integer(
        self, monkeypatch, value
    ):
        monkeypatch.setenv(WORKERS_ENV_VAR, value)
        with pytest.raises(MiningError):
            resolve_worker_count()

    def test_default_is_one_worker(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert resolve_worker_count() == 1
        assert VectorizedBatchEngine().workers == 1
