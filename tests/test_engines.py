"""The engine layer: engine equivalence, scan contract, factor pin, pool.

The per-sequence oracle of ``tests/oracles.py`` is the semantic
baseline; the counting engine — one worker or a pool — must agree
with it on
``M(P, s)``, ``M(P, S)`` and ``M(P, D)`` to within 1e-12 on arbitrary
inputs — including wildcard-heavy patterns and patterns whose span
exceeds every sequence — while consuming exactly one scan per
``database_matches`` call.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc

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
from repro.config import ALGORITHMS, MiningConfig
from repro.core import match as core_match
from repro.core.sequence import SequentialSampler
from repro.engine import (
    PIN_BYTES,
    FactorPin,
    MatchEngine,
    VectorizedBatchEngine,
    WORKERS_ENV_VAR,
    resolve_worker_count,
    vectorized,
)
from repro.engine.kernels import PinSlot, WalkBuffers, extended_matrix
from repro.io import PackedSequenceStore
from repro.mining import LevelwiseMiner
from repro.obs import FACTOR_ROWS_GATHERED, Tracer

from .oracles import ReferenceEngine
from .test_differential import make_store
from .strategies import (
    M,
    databases,
    matrices,
    pattern_batches,
    patterns,
    sequences,
)


#: Module-level instances so the pool and the factor pin are reused
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


def record_kernel_threads(monkeypatch) -> list:
    """Wrap the engine's block kernel; return the list it appends each
    call's thread id to."""
    threads = []
    kernel = vectorized.block_totals

    def recording(*args, **kwargs):
        threads.append(threading.get_ident())
        return kernel(*args, **kwargs)

    monkeypatch.setattr(vectorized, "block_totals", recording)
    return threads


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", ["memory", "text", "packed", "segmented"])
def test_symbol_matches_feeds_a_sampler(kind, workers, fig2_matrix,
                                        tmp_path, monkeypatch):
    # Algorithm 4.1's one pass: offering the Phase-1 scan's rows to a
    # sampler moves no value bit, and the sampler draws exactly what
    # database.sample draws from the same generator state.
    rng = np.random.default_rng(11)
    rows = [rng.integers(0, 5, size=rng.integers(1, 9)) for _ in range(30)]
    database = make_store(kind, rows, str(tmp_path))
    engine = VectorizedBatchEngine(chunk_rows=4, workers=workers)
    threads = record_kernel_threads(monkeypatch)
    try:
        plain = engine.symbol_matches(database, fig2_matrix)
        chunks = len(threads)
        draw = np.random.default_rng(3)
        sampler = SequentialSampler(7, len(database), draw)
        before = database.scan_count
        sampled = engine.symbol_matches(
            database, fig2_matrix, sampler=sampler
        )
        assert database.scan_count == before + 1
        np.testing.assert_array_equal(sampled, plain)
        # With a pool, even the sampled scan runs the block kernel off
        # the scanning thread.
        assert chunks >= 8 and len(threads) == 2 * chunks
        scanning = threading.get_ident()
        assert all((t != scanning) == (workers > 1) for t in threads)
        expected_rng = np.random.default_rng(3)
        expected = database.sample(7, expected_rng)
        assert sampler.ids == list(expected.ids)
        assert draw.bit_generator.state == expected_rng.bit_generator.state
    finally:
        engine.close()
        if kind != "memory":
            database.close()


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
        engine = VectorizedBatchEngine(chunk_rows=2, pin_bytes=PIN_BYTES)
        batch = [Pattern([0, 1])]
        engine.database_matches(batch, fig4_database, fig2_matrix)
        before = fig4_database.scan_count
        engine.database_matches(batch, fig4_database, fig2_matrix)
        assert fig4_database.scan_count == before + 1
        assert engine.cache.hits > 0


class TestFactorPin:
    def test_repeat_scan_hits_pin_and_agrees(self, fig4_database,
                                             fig2_matrix):
        engine = VectorizedBatchEngine(chunk_rows=2, pin_bytes=PIN_BYTES)
        batch = [Pattern([0, 1]), Pattern([1, 1])]
        first = engine.database_matches(batch, fig4_database, fig2_matrix)
        misses = engine.cache.misses
        second = engine.database_matches(batch, fig4_database, fig2_matrix)
        assert engine.cache.misses == misses  # nothing re-gathered
        assert first == second

    def test_different_matrix_never_serves_stale_factors(self,
                                                         fig4_database):
        engine = VectorizedBatchEngine(chunk_rows=2, pin_bytes=PIN_BYTES)
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
        # digest of the slot must keep the two chunks apart — a
        # collision would silently serve the factor array of the
        # *other* chunk.
        engine = VectorizedBatchEngine(chunk_rows=2, pin_bytes=PIN_BYTES)
        db_a = SequenceDatabase([[0, 1, 2], [3, 4, 0]])
        db_b = SequenceDatabase([[0, 1, 2], [3, 4, 1]])
        batch = [Pattern([0, 1])]
        engine.database_matches(batch, db_a, fig2_matrix)
        engine.database_matches(batch, db_b, fig2_matrix)
        assert engine.cache.hits == 0
        got = engine.database_matches(batch, db_b, fig2_matrix)
        assert engine.cache.hits == 1  # the repeat is a genuine hit
        expected = core_match.database_matches(batch, db_b, fig2_matrix)
        assert got[batch[0]] == pytest.approx(expected[batch[0]], abs=1e-12)
        got = engine.database_matches(batch, db_a, fig2_matrix)
        assert engine.cache.hits == 1  # db_b's slot is not db_a's
        expected = core_match.database_matches(batch, db_a, fig2_matrix)
        assert got[batch[0]] == pytest.approx(expected[batch[0]], abs=1e-12)

    def test_database_over_the_budget_is_never_kept(
        self, fig4_database, fig2_matrix
    ):
        batch = [Pattern([0, 1]), Pattern([1, 1])]
        unpadded = (
            (8 * (fig2_matrix.size + 1) + 8) * fig4_database.total_symbols()
        )
        engine = VectorizedBatchEngine(chunk_rows=2, pin_bytes=unpadded - 1)
        first = engine.database_matches(batch, fig4_database, fig2_matrix)
        second = engine.database_matches(batch, fig4_database, fig2_matrix)
        assert len(engine.cache) == 0 and engine.cache.nbytes == 0
        assert engine.cache.hits == 0  # every scan gathers afresh
        assert first == second == REF.database_matches(
            batch, fig4_database, fig2_matrix
        )

    def test_nbytes_never_exceeds_the_budget(self, fig2_matrix):
        # Unequal lengths: padding makes the held arrays larger than
        # the unpadded estimate the pin checks first.
        database = SequenceDatabase(
            [[0, 1, 2, 3, 4, 0, 1, 2], [1], [2, 3], [4, 0, 1, 2, 3]]
        )
        batch = [Pattern([0, 1]), Pattern([2, WILDCARD, 1])]
        expected = REF.database_matches(batch, database, fig2_matrix)
        # Per cell at most: m + 1 float64 factors and one intp symbol
        # key.  The pin is checked against that worst case; it holds
        # the keys and the rows the walk read, of symbols 0, 1 and 2.
        cell = 8 * (fig2_matrix.size + 1) + 8
        unpadded = cell * database.total_symbols()
        padded = cell * 2 * (8 + 5)
        held = (8 + 3 * 8) * 2 * (8 + 5)
        kept = []
        for budget in range(0, padded + 97, 48):
            engine = VectorizedBatchEngine(chunk_rows=2, pin_bytes=budget)
            for _ in range(2):
                got = engine.database_matches(batch, database, fig2_matrix)
                assert engine.cache.nbytes <= budget
                assert got == pytest.approx(expected, abs=1e-12)
            # All of the database or none of it, never a part.
            assert len(engine.cache) in (0, 2)
            assert engine.cache.nbytes == (held if len(engine.cache) else 0)
            if len(engine.cache):
                kept.append(budget)
                assert engine.cache.hits == 2
        assert unpadded < padded
        assert kept and min(kept) >= padded

    def test_budget_counts_the_symbol_keys(self, fig2_matrix):
        # A budget that holds every factor row but not the keys
        # streams: the keys are part of what the pin holds.
        database = SequenceDatabase([[0, 1, 2, 3], [4, 0, 1, 2]])
        batch = [Pattern([0, 1]), Pattern([2, WILDCARD, 1])]
        expected = REF.database_matches(batch, database, fig2_matrix)
        factors = 8 * (fig2_matrix.size + 1) * database.total_symbols()
        keys = 8 * database.total_symbols()
        for budget in (factors, factors + keys // 2, factors + keys - 1):
            engine = VectorizedBatchEngine(chunk_rows=2, pin_bytes=budget)
            for _ in range(2):
                got = engine.database_matches(batch, database, fig2_matrix)
                assert got == expected
                assert engine.cache.nbytes <= budget
            assert len(engine.cache) == 0 and engine.cache.hits == 0
        engine = VectorizedBatchEngine(
            chunk_rows=2, pin_bytes=factors + keys
        )
        for _ in range(2):
            assert engine.database_matches(
                batch, database, fig2_matrix
            ) == expected
        # It holds the keys and the rows of symbols 0, 1 and 2, the
        # half of the factors the batch reads.
        assert engine.cache.nbytes == keys + factors // 2
        assert engine.cache.hits == 1

    def test_pin_keeps_every_chunk_without_a_budget(self, fig2_matrix):
        database = SequenceDatabase([[0, 1, 2], [3, 4], [1, 0, 2, 4]])
        pin = FactorPin()
        c_ext = np.eye(6)
        buffers = WalkBuffers()
        for _ in range(2):
            blocks = list(pin.scan(database, 2, c_ext, ("eye",)))
            assert [len(chunk) for chunk, _slot in blocks] == [2, 1]
        assert (pin.hits, pin.misses, len(pin)) == (2, 2, 2)
        # Scanning keys every chunk and gathers no row.
        keys = sum(slot.keys.nbytes for _chunk, slot in blocks)
        assert pin.nbytes == keys
        rows = [slot.row(3, buffers) for _chunk, slot in blocks]
        assert pin.nbytes == keys + sum(row.nbytes for row in rows)
        # A repeat scan serves the same slots, the rows they gathered
        # included.
        again = list(pin.scan(database, 2, c_ext, ("eye",)))
        assert [slot for _chunk, slot in again] == [
            slot for _chunk, slot in blocks
        ]
        for (_chunk, slot), row in zip(again, rows):
            assert slot.row(3, buffers) is row
        assert buffers.gathered == 2

    def test_slot_gathers_once_on_first_use(self):
        database = SequenceDatabase([[0, 1, 2], [3, 4]])
        pin = FactorPin()
        c_ext = np.arange(36, dtype=np.float64).reshape(6, 6)
        buffers = WalkBuffers()
        [(_chunk, slot)] = list(pin.scan(database, 2, c_ext, ("c",)))
        assert slot.nbytes == slot.keys.nbytes
        padded = np.array([[0, 1, 2], [3, 4, 5]])
        first = slot.row(4, buffers)
        assert slot.row(4, buffers) is first and buffers.gathered == 1
        assert slot.nbytes == slot.keys.nbytes + first.nbytes
        # A pinned slot's row is its own cache-line aligned array.
        assert first.ctypes.data % 64 == 0 and not buffers.rows
        for d in range(6):
            np.testing.assert_array_equal(
                slot.row(d, buffers), c_ext[d, padded.T]
            )
        assert buffers.gathered == 6
        assert slot.nbytes == slot.max_nbytes
        # keys[t, i] = symbol * N + i, C-contiguous, intp.
        assert slot.keys.dtype == np.intp
        assert slot.keys.flags.c_contiguous
        np.testing.assert_array_equal(
            slot.keys, padded.T * 2 + np.arange(2)
        )

    def test_streamed_slot_gathers_into_the_thread_buffers(self):
        # A slot without a digest is counted once and dropped: its rows
        # are the counting thread's planes, reused by the next chunk.
        c_ext = np.arange(36, dtype=np.float64).reshape(6, 6)
        buffers = WalkBuffers()
        buffers.fit(c_ext.dtype, 6)
        padded = np.array([[0, 1, 2], [3, 4, 5]])
        slot = PinSlot(c_ext, padded)
        row = slot.row(2, buffers)
        np.testing.assert_array_equal(row, c_ext[2, padded.T])
        assert np.shares_memory(row, buffers.rows[2])
        assert slot.nbytes == slot.keys.nbytes
        other = PinSlot(c_ext, padded[::-1].copy())
        np.testing.assert_array_equal(
            other.row(2, buffers), c_ext[2, padded[::-1].T]
        )
        assert np.shares_memory(other.row(2, buffers), row)

    def test_a_batch_gathers_only_the_rows_its_walk_reads(
        self, fig2_matrix
    ):
        # [0 1] and [2 * 1] read the rows of 0, 1 and 2 on each of the
        # three chunks; Phase 1 reads none.  A pinned second scan
        # gathers nothing, a batch reading one more symbol one row per
        # chunk.
        database = SequenceDatabase(
            [[i % 5, (i + 1) % 5, (i * 3) % 5, i % 2] for i in range(9)]
        )
        batch = [Pattern([0, 1]), Pattern([2, WILDCARD, 1])]
        for pin_bytes, repeat in ((0, 3 * 3), (PIN_BYTES, 0)):
            engine = VectorizedBatchEngine(chunk_rows=3, pin_bytes=pin_bytes)
            counted = []
            for batch_ in (batch, batch, [Pattern([0, 3])]):
                tracer = Tracer()
                engine.database_matches(
                    batch_, database, fig2_matrix, tracer
                )
                counted.append(tracer.total(FACTOR_ROWS_GATHERED))
            assert counted == [3 * 3, repeat, 3 * (2 if repeat else 1)]
            tracer = Tracer()
            engine.symbol_matches(database, fig2_matrix, tracer)
            assert tracer.total(FACTOR_ROWS_GATHERED) == 0

    def test_lazy_rows_on_two_threads_stay_within_the_budget(
        self, fig2_matrix, monkeypatch
    ):
        # The pin is checked against every row gathered; two counting
        # threads then gather rows batch by batch, and the pin must
        # never hold more than the budget, during a scan or after it.
        rng = np.random.default_rng(5)
        database = SequenceDatabase([
            rng.integers(0, fig2_matrix.size, size=int(rng.integers(3, 9)))
            for _ in range(40)
        ])
        slots = [slot for _chunk, slot in FactorPin().scan(
            database, 4, extended_matrix(fig2_matrix.array), ("w",),
        )]
        worst = sum(slot.max_nbytes for slot in slots)
        # No pattern reads the wildcard's row m.
        read_all = worst - 8 * sum(slot.keys.size for slot in slots)
        kernel = vectorized.block_totals
        seen = []

        def sampling(slot, *args):
            kernel(slot, *args)
            seen.append(engine.cache.nbytes)

        monkeypatch.setattr(vectorized, "block_totals", sampling)
        batches = [[Pattern([d, e]) for e in range(d + 1)]
                   for d in range(fig2_matrix.size)]
        # One byte short of the worst case streams, though every row
        # the batches read would fit.
        with VectorizedBatchEngine(
            chunk_rows=4, workers=2, pin_bytes=worst - 1
        ) as engine:
            for batch in batches:
                engine.database_matches(batch, database, fig2_matrix)
            assert len(engine.cache) == 0 and engine.cache.hits == 0
        seen.clear()
        with VectorizedBatchEngine(
            chunk_rows=4, workers=2, pin_bytes=worst
        ) as engine:
            held = []
            for batch in batches:
                expected = REF.database_matches(batch, database, fig2_matrix)
                got = engine.database_matches(batch, database, fig2_matrix)
                assert got == pytest.approx(expected, abs=1e-12)
                held.append(engine.cache.nbytes)
            assert len(engine.cache) == 10
        assert max(seen) <= held[-1] == read_all < worst
        assert held == sorted(held) and held[0] < read_all

    def test_two_workers_serve_a_repeat_scan_from_the_pin(
        self, fig2_matrix
    ):
        # Pooled passes go through the same pin as one worker: the
        # repeat scan gathers nothing.
        database = SequenceDatabase(
            [[i % 5, (i + 1) % 5, (i * 3) % 5] for i in range(160)]
        )
        batch = [Pattern([0, 1]), Pattern([2, WILDCARD, 1])]
        with VectorizedBatchEngine(
            chunk_rows=16, workers=2, pin_bytes=PIN_BYTES
        ) as engine:
            first = engine.database_matches(batch, database, fig2_matrix)
            hits, misses = engine.cache.hits, engine.cache.misses
            second = engine.database_matches(batch, database, fig2_matrix)
            assert engine.cache.misses - misses == 0
            assert engine.cache.hits - hits == 10  # the chunk count
            assert len(engine.cache) == 10
        assert first == second == VectorizedBatchEngine(
            chunk_rows=16
        ).database_matches(batch, database, fig2_matrix)

    def test_close_clears_pin(self, fig4_database, fig2_matrix):
        engine = VectorizedBatchEngine(chunk_rows=2, pin_bytes=PIN_BYTES)
        engine.database_matches(
            [Pattern([0])], fig4_database, fig2_matrix
        )
        assert len(engine.cache) > 0
        engine.close()
        assert len(engine.cache) == 0


class TestPinBudget:
    """The caller picks the pin budget: one-shot engines stream."""

    M, ROWS, LENGTH, CHUNK = 10, 1024, 48, 256

    def _store(self, tmp_path):
        rng = np.random.default_rng(9)
        database = SequenceDatabase([
            rng.integers(0, self.M, size=self.LENGTH)
            for _ in range(self.ROWS)
        ])
        return PackedSequenceStore.from_database(
            database, tmp_path / "db.nmp"
        )

    def _passes(self, engine, store):
        matrix = CompatibilityMatrix.uniform_noise(self.M, 0.2)
        batch = [Pattern([0, 1]), Pattern([2, WILDCARD, 3, 4])]
        engine.symbol_matches(store, matrix)
        first = engine.database_matches(batch, store, matrix)
        assert engine.database_matches(batch, store, matrix) == first

    def test_default_engine_streams_a_store_that_fits(self, tmp_path):
        store = self._store(tmp_path)
        factor_bytes = (self.M + 1) * self.LENGTH * self.CHUNK * 8
        # The whole store would fit the daemon's budget ...
        assert factor_bytes * self.ROWS // self.CHUNK <= PIN_BYTES
        engine = VectorizedBatchEngine(chunk_rows=self.CHUNK)
        tracemalloc.start()
        try:
            self._passes(engine, store)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            store.close()
        # ... but a one-shot engine keeps none of it.
        assert engine.cache.nbytes == 0 and len(engine.cache) == 0
        assert engine.cache.hits == 0
        assert engine.cache.misses == 3 * self.ROWS // self.CHUNK
        assert peak < 3 * factor_bytes, (peak, factor_bytes)

    def test_pin_bytes_engine_hits_on_its_second_pass(self, tmp_path):
        store = self._store(tmp_path)
        chunks = self.ROWS // self.CHUNK
        engine = VectorizedBatchEngine(
            chunk_rows=self.CHUNK, pin_bytes=PIN_BYTES
        )
        try:
            self._passes(engine, store)
        finally:
            store.close()
        assert (engine.cache.hits, engine.cache.misses) == (
            2 * chunks, chunks
        )
        assert len(engine.cache) == chunks


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
            batch = [Pattern([0, 1])]
            assert engine.database_matches(
                batch, database, fig2_matrix
            ) == VectorizedBatchEngine(chunk_rows=4).database_matches(
                batch, database, fig2_matrix
            )

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
    """The engine's thread pool: built on first use, reused, closed."""

    def _database(self, n: int = 8) -> SequenceDatabase:
        return SequenceDatabase(
            [[i % M, (i + 1) % M, (i + 2) % M] for i in range(n)]
        )

    def _batch(self):
        return [Pattern.single(0), Pattern([0, 1])]

    def test_single_worker_never_starts_a_pool(self, fig2_matrix,
                                               monkeypatch):
        engine = VectorizedBatchEngine(chunk_rows=1, workers=1)
        threads = record_kernel_threads(monkeypatch)
        engine.database_matches(
            self._batch(), self._database(8), fig2_matrix
        )
        assert engine._executor is None
        assert set(threads) == {threading.get_ident()}

    def test_pool_reused_across_calls_and_matrices(self, fig2_matrix):
        engine = VectorizedBatchEngine(chunk_rows=4, workers=2)
        other = CompatibilityMatrix(np.eye(M))
        database = self._database(8)
        try:
            tracer = Tracer()
            engine.database_matches(
                self._batch(), database, fig2_matrix, tracer=tracer
            )
            pool = engine._executor
            assert pool is not None
            assert tracer.root.notes["workers"] == 2
            engine.database_matches(self._batch(), database, fig2_matrix)
            got = engine.database_matches(self._batch(), database, other)
            assert engine._executor is pool
            baseline = REF.database_matches(self._batch(), database, other)
            for pattern, value in baseline.items():
                assert got[pattern] == pytest.approx(value, abs=1e-12)
        finally:
            engine.close()

    def test_one_pool_across_a_full_mining_run(self, fig2_matrix):
        # Every phase of a run (Phase-1 scan, each level's counting
        # pass) reuses one thread pool — the engine must not start one
        # per call.
        engine = VectorizedBatchEngine(chunk_rows=4, workers=2)
        database = self._database(12)
        try:
            miner = LevelwiseMiner(
                fig2_matrix, min_match=0.3, engine=engine
            )
            result = miner.mine(database)
            assert result.frequent  # the run did real counting work
            pool = engine._executor
            assert pool is not None
            miner.mine(database)
            assert engine._executor is pool
        finally:
            engine.close()

    def test_packed_store_scans_chunk_parallel(self, fig2_matrix, tmp_path):
        # A packed store is read by the one counted scan, whatever the
        # worker count: its scan and I/O counters are that scan's.
        from repro import PackedSequenceStore

        database = self._database(12)
        store = PackedSequenceStore.from_database(
            database, tmp_path / "db.nmp"
        )
        engine = VectorizedBatchEngine(chunk_rows=4, workers=2)
        batch = self._batch()
        one = VectorizedBatchEngine(chunk_rows=4)
        try:
            expected = one.database_matches(batch, database, fig2_matrix)
            result = engine.database_matches(batch, store, fig2_matrix)
            assert store.scan_count == 1
            assert store.io_chunks == 3
            assert store.io_bytes_read == 4 * store.total_symbols()
            assert result == expected  # bit-identical
            symbols = engine.symbol_matches(store, fig2_matrix)
            np.testing.assert_array_equal(
                symbols, one.symbol_matches(database, fig2_matrix)
            )
        finally:
            engine.close()
            store.close()

    def test_close_is_idempotent_and_pool_comes_back(self, fig2_matrix):
        engine = VectorizedBatchEngine(chunk_rows=4, workers=2)
        database = self._database(8)
        try:
            engine.database_matches(self._batch(), database, fig2_matrix)
            first = engine._executor
            assert first is not None
            engine.close()
            engine.close()  # second close is a no-op, not an error
            assert engine._executor is None
            with pytest.raises(RuntimeError):
                first.submit(int)  # the old pool is shut down
            engine.database_matches(self._batch(), database, fig2_matrix)
            assert engine._executor not in (None, first)
        finally:
            engine.close()

    def test_many_threads_on_two_cores_stay_bit_identical(
        self, fig2_matrix
    ):
        # More workers than cores and a tiny switch interval: a lost or
        # reordered update of the totals or of the pin would show.
        database = self._database(60)
        batch = self._batch() + [Pattern([1, WILDCARD, 2])]
        expected = VectorizedBatchEngine(chunk_rows=2).database_matches(
            batch, database, fig2_matrix
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with VectorizedBatchEngine(
                chunk_rows=2, workers=8, pin_bytes=PIN_BYTES
            ) as engine:
                for _ in range(6):
                    assert engine.database_matches(
                        batch, database, fig2_matrix
                    ) == expected
                assert (engine.cache.hits, engine.cache.misses) == (150, 30)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("kind", ["memory", "packed"])
    def test_kernel_error_in_the_pool_reaches_the_caller(
        self, kind, fig2_matrix, tmp_path, monkeypatch
    ):
        # The third kernel call raises on a pool thread: the caller
        # gets that very exception, the failed call still consumed its
        # one scan, and the engine's next call is bit-identical.
        database = make_store(
            kind, [row for _sid, row in self._database(24).scan()],
            str(tmp_path),
        )
        batch = self._batch()
        expected = VEC.database_matches(batch, database, fig2_matrix)
        kernel = vectorized.block_totals
        calls = []
        boom = RuntimeError("third kernel call failed")

        def failing(*args, **kwargs):
            calls.append(threading.get_ident())
            if len(calls) == 3:
                raise boom
            return kernel(*args, **kwargs)

        engine = VectorizedBatchEngine(chunk_rows=4, workers=2)
        try:
            monkeypatch.setattr(vectorized, "block_totals", failing)
            before = database.scan_count
            with pytest.raises(RuntimeError) as raised:
                engine.database_matches(batch, database, fig2_matrix)
            assert raised.value is boom
            assert threading.get_ident() not in calls
            assert database.scan_count == before + 1
            monkeypatch.setattr(vectorized, "block_totals", kernel)
            assert engine.database_matches(
                batch, database, fig2_matrix
            ) == expected
            assert database.scan_count == before + 2
        finally:
            engine.close()
            if kind != "memory":
                database.close()


@pytest.fixture(scope="module")
def miner_stores(tmp_path_factory):
    """One symbol-skewed workload as a packed and a segmented store."""
    rng = np.random.default_rng(4)
    rows = [
        rng.integers(0, 6, size=80 if i >= 32 else int(rng.integers(2, 12)))
        for i in range(36)
    ]
    stores = {
        kind: make_store(kind, rows, str(tmp_path_factory.mktemp(kind)))
        for kind in ("packed", "segmented")
    }
    yield stores
    for store in stores.values():
        store.close()


class TestWorkerBitIdentity:
    """Every miner, both disk backends, several worker counts: the
    same bits as one worker."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("kind", ["packed", "segmented"])
    def test_six_miners_identical_across_worker_counts(
        self, miner_stores, kind, algorithm
    ):
        store = miner_stores[kind]
        config = MiningConfig.resolve(
            min_match=0.45, algorithm=algorithm, alphabet=6, noise=0.1,
            sample_size=24, max_weight=3, max_span=4, seed=5,
        )

        def mine(workers):
            with VectorizedBatchEngine(chunk_rows=3,
                                       workers=workers) as engine:
                store.reset_scan_count()
                return config.build_miner(
                    len(store), engine=engine
                ).mine(store)

        baseline = mine(1)
        assert baseline.frequent  # the workload exercises real counting
        for workers in (2, 3, 5):
            result = mine(workers)
            assert result.frequent == baseline.frequent  # bit-identical
            assert result.scans == baseline.scans
            assert result.border == baseline.border


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
