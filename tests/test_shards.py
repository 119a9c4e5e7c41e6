"""Sharded scatter-gather counting tier: manifests, scheduler, protocol.

Covers the counting-tier contract end to end:

* **manifests** — block-aligned, symbol-weighted shard specs from both
  disk backends (row-range splits of a packed store, one-or-more specs
  per immutable segment) and from in-memory rows;
* **determinism** — merged totals bit-identical to the single-process
  vectorized engine for any shard count, any completion order (the
  shuffled executor) and steal-heavy skewed workloads, pinned for all
  six miners on packed and segmented stores;
* **worker protocol** — plain-picklable tasks/results, digest
  staleness detection, steal accounting from per-task worker ids;
* **the satellite bugfixes** — a segmented store dispatches to the
  pool instead of silently pickling rows, and a failed dispatch
  charges neither the scan nor the chunk I/O accounting.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.config import MiningConfig
from repro.core.compatibility import CompatibilityMatrix
from repro.core.pattern import Pattern
from repro.core.sequence import SequenceDatabase
from repro.engine import ParallelEngine, VectorizedBatchEngine
from repro.engine.kernels import extended_matrix, group_patterns_by_span
from repro.engine.parallel import DEFAULT_OVERSPLIT
from repro.engine.shards import (
    TASK_DATABASE_TOTALS,
    TASK_SYMBOL_TOTALS,
    InlineShardExecutor,
    ShardExecutor,
    ShardSpec,
    ShardTask,
    ShuffledExecutor,
    build_tasks,
    execute_shard_task,
    manifest_from_rows,
    manifest_from_store,
    scatter_gather,
)
from repro.errors import MiningError
from repro.io import PackedSequenceStore, SegmentedSequenceStore
from repro.obs import (
    INLINE_FALLBACKS,
    SHARD_IO_BYTES,
    SHARD_SCAN_SECONDS,
    SHARDS_DISPATCHED,
    Tracer,
)

M = 6  # alphabet size used throughout

#: Shard-grid pitch used by every engine in this module: small enough
#: that the tiny workloads split into many blocks.
CHUNK = 3


def _rows(n=48, seed=9, skew=False):
    """Synthetic rows; with *skew*, a few sequences dominate the symbol
    count so equal-row splits are badly unbalanced."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        if skew and i >= n - 4:
            length = 80  # the heavy tail: ~4x the rest combined
        else:
            length = int(rng.integers(2, 12))
        rows.append(rng.integers(0, M, size=length).tolist())
    return rows


@pytest.fixture(scope="module")
def matrix():
    return CompatibilityMatrix.uniform_noise(M, 0.1)


@pytest.fixture(scope="module")
def batch():
    return [
        Pattern.single(0), Pattern([0, 1]), Pattern([2, 3, 1]),
        Pattern([5, 0]),
    ]


def _make_packed(tmp_path, rows, name="db.nmp"):
    path = tmp_path / name
    PackedSequenceStore.from_database(SequenceDatabase(rows), path)
    return PackedSequenceStore.open(path)


def _make_segmented(tmp_path, rows, name="seg"):
    n = len(rows)
    store = SegmentedSequenceStore.create(
        tmp_path / name, SequenceDatabase(rows[: n // 3])
    )
    store.append(rows[n // 3 : 2 * n // 3])
    store.append(rows[2 * n // 3 :])
    return store


# -- manifests -----------------------------------------------------------------


class TestManifest:
    def test_packed_store_specs_are_block_aligned_row_splits(
        self, tmp_path
    ):
        rows = _rows()
        store = _make_packed(tmp_path, rows)
        try:
            manifest = manifest_from_store(store, CHUNK, 4, 1)
            assert manifest.store_digest == store.digest
            assert manifest.n_rows == len(rows)
            assert manifest.total_symbols == sum(len(r) for r in rows)
            assert len(manifest) == 4
            # Contiguous cover of the store, every cut on the block grid.
            position = 0
            for spec in manifest.specs:
                assert spec.index == position if position == 0 else True
                assert spec.path == store.path
                assert spec.digest == store.digest
                assert spec.row_start % CHUNK == 0
                assert spec.row_start == (
                    manifest.specs[spec.index - 1].row_stop
                    if spec.index else 0
                )
                assert spec.symbol_count == sum(
                    len(r) for r in rows[spec.row_start : spec.row_stop]
                )
                position = spec.row_stop
            assert position == len(rows)
        finally:
            store.close()

    def test_bounds_weighted_by_symbol_count_not_row_count(self):
        # 4 light rows then 4 heavy ones: an equal-rows split would put
        # half the symbols in one shard; the weighted cut balances.
        rows = [np.array([0])] * 4 + [np.zeros(100, dtype=np.int64)] * 4
        manifest = manifest_from_rows(rows, 1, 4, 1)
        weights = [spec.symbol_count for spec in manifest.specs]
        ideal = manifest.total_symbols / len(manifest)
        assert max(weights) <= 1.5 * ideal
        # The light head collapses into one shard instead of spreading
        # one-per-shard the way an equal-rows linspace would.
        assert manifest.specs[0].row_stop >= 4

    def test_segmented_store_yields_specs_per_segment(self, tmp_path):
        rows = _rows()
        store = _make_segmented(tmp_path, rows)
        try:
            manifest = manifest_from_store(store, CHUNK, 8, 1)
            by_path = {}
            for spec in manifest.specs:
                by_path.setdefault(spec.path, []).append(spec)
            segment_paths = [s.path for s in store.segments]
            # Every segment is covered, no spec spans two files, and
            # big segments split into more than one spec.
            assert sorted(by_path) == sorted(segment_paths)
            assert len(manifest) > len(segment_paths)
            for segment in store.segments:
                specs = by_path[segment.path]
                assert specs[0].row_start == 0
                assert specs[-1].row_stop == len(segment)
                for spec in specs:
                    assert spec.digest == segment.digest
                    assert spec.row_start % CHUNK == 0
        finally:
            store.close()

    def test_pathless_store_has_no_manifest(self):
        store = PackedSequenceStore.from_database(
            SequenceDatabase(_rows(12))
        )
        assert store.shard_layout() is None
        assert manifest_from_store(store, CHUNK, 4, 1) is None

    def test_min_shard_rows_caps_task_count(self, tmp_path):
        store = _make_packed(tmp_path, _rows(8))
        try:
            manifest = manifest_from_store(store, 2, 8, min_shard_rows=64)
            assert len(manifest) == 1  # too small to cut
        finally:
            store.close()

    def test_manifest_consumes_no_scan(self, tmp_path):
        store = _make_packed(tmp_path, _rows())
        try:
            manifest_from_store(store, CHUNK, 4, 1)
            assert store.scan_count == 0
            assert store.io_bytes_read == 0
        finally:
            store.close()


# -- the worker protocol -------------------------------------------------------


class _ScriptedWorkers(ShardExecutor):
    """Inline execution that reports a scripted worker id per task."""

    def __init__(self, worker_ids):
        self._worker_ids = worker_ids

    def run(self, tasks, c_ext):
        for task, worker_id in zip(tasks, self._worker_ids):
            result = execute_shard_task(task, c_ext)
            yield dataclasses.replace(result, worker_id=worker_id)


class _DroppingExecutor(ShardExecutor):
    """Loses the last task's result — a broken transport."""

    def run(self, tasks, c_ext):
        for task in tasks[:-1]:
            yield execute_shard_task(task, c_ext)


class _ExplodingExecutor(ShardExecutor):
    """Fails before producing anything — transport down."""

    def run(self, tasks, c_ext):
        raise RuntimeError("transport down")
        yield  # pragma: no cover


class TestWorkerProtocol:
    def _tasks(self, matrix, batch, rows=None, store=None):
        groups, elements = group_patterns_by_span(batch, matrix.size)
        if store is not None:
            manifest = manifest_from_store(store, CHUNK, 4, 1)
            return build_tasks(
                manifest, TASK_DATABASE_TOTALS, groups, elements,
                len(batch),
            )
        manifest = manifest_from_rows(rows, CHUNK, 4, 1)
        return build_tasks(
            manifest, TASK_DATABASE_TOTALS, groups, elements, len(batch),
            rows=rows,
        )

    def test_tasks_and_results_are_plain_picklable(
        self, tmp_path, matrix, batch
    ):
        store = _make_packed(tmp_path, _rows())
        c_ext = extended_matrix(matrix.array)
        try:
            for task in self._tasks(matrix, batch, store=store):
                clone = pickle.loads(pickle.dumps(task))
                assert clone.spec == task.spec
                result = execute_shard_task(clone, c_ext)
                wire = pickle.loads(pickle.dumps(result))
                assert wire.index == task.spec.index
                assert wire.block_totals.shape[1] == len(batch)
                assert wire.io_bytes == 4 * task.spec.symbol_count
        finally:
            store.close()

    def test_inline_rows_report_no_io(self, matrix, batch):
        rows = [np.asarray(r) for r in _rows(12)]
        c_ext = extended_matrix(matrix.array)
        for task in self._tasks(matrix, batch, rows=rows):
            assert task.spec.path is None
            result = execute_shard_task(task, c_ext)
            assert result.io_bytes == 0

    def test_stale_digest_is_detected(self, tmp_path, matrix, batch):
        store = _make_packed(tmp_path, _rows(seed=1), name="stale.nmp")
        path = store.path
        tasks = self._tasks(matrix, batch, store=store)
        store.close()
        # Same path, different content: the digest-addressed spec must
        # refuse the swapped bytes instead of counting them.
        PackedSequenceStore.from_database(
            SequenceDatabase(_rows(seed=2)), path
        )
        with pytest.raises(MiningError, match="changed underneath"):
            execute_shard_task(tasks[0], extended_matrix(matrix.array))

    def test_unknown_task_kind_is_rejected(self, matrix):
        task = ShardTask(
            spec=ShardSpec(0, None, None, 0, 1, 1),
            kind="gibberish", chunk_rows=CHUNK,
            rows=[np.array([0, 1])],
        )
        with pytest.raises(MiningError, match="unknown shard task kind"):
            execute_shard_task(task, extended_matrix(matrix.array))

    def test_steals_counted_beyond_fair_share(self, matrix, batch):
        rows = [np.asarray(r) for r in _rows(24)]
        tasks = self._tasks(matrix, batch, rows=rows)
        assert len(tasks) == 4
        # Worker 1 executed 3 of 4 tasks; fair share at 2 workers is 2,
        # so it stole exactly one task from the shared queue.
        _totals, stats = scatter_gather(
            tasks, _ScriptedWorkers([1, 1, 1, 2]),
            extended_matrix(matrix.array), len(batch), n_workers=2,
        )
        assert stats.worker_tasks == {1: 3, 2: 1}
        assert stats.steals == 1
        assert stats.tasks == 4
        assert stats.rows == len(rows)

    def test_lost_shard_is_an_error_not_a_wrong_total(
        self, matrix, batch
    ):
        rows = [np.asarray(r) for r in _rows(24)]
        tasks = self._tasks(matrix, batch, rows=rows)
        with pytest.raises(MiningError, match="lost shards"):
            scatter_gather(
                tasks, _DroppingExecutor(),
                extended_matrix(matrix.array), len(batch),
            )


# -- scheduler determinism -----------------------------------------------------


class TestSchedulerDeterminism:
    def test_totals_identical_for_any_order_and_shard_count(
        self, matrix, batch
    ):
        rows = [np.asarray(r) for r in _rows(30, skew=True)]
        groups, elements = group_patterns_by_span(batch, matrix.size)
        c_ext = extended_matrix(matrix.array)
        reference = None
        for target in (1, 2, 7, 8):
            manifest = manifest_from_rows(rows, CHUNK, target, 1)
            tasks = build_tasks(
                manifest, TASK_DATABASE_TOTALS, groups, elements,
                len(batch), rows=rows,
            )
            for seed in range(4):
                totals, _stats = scatter_gather(
                    tasks,
                    ShuffledExecutor(InlineShardExecutor(), seed),
                    c_ext, len(batch),
                )
                if reference is None:
                    reference = totals
                np.testing.assert_array_equal(totals, reference)

    def test_symbol_totals_identical_too(self, matrix):
        rows = [np.asarray(r) for r in _rows(30)]
        c_ext = extended_matrix(matrix.array)
        reference = None
        for target in (1, 2, 7, 8):
            manifest = manifest_from_rows(rows, CHUNK, target, 1)
            tasks = build_tasks(manifest, TASK_SYMBOL_TOTALS, rows=rows)
            totals, _stats = scatter_gather(
                tasks, ShuffledExecutor(InlineShardExecutor(), target),
                c_ext, matrix.size,
            )
            if reference is None:
                reference = totals
            np.testing.assert_array_equal(totals, reference)


# -- engine integration: six miners, two stores, bit-identity ------------------


ALGORITHMS = [
    "border-collapsing", "levelwise", "maxminer", "toivonen",
    "pincer", "depthfirst",
]


@pytest.fixture(scope="module")
def miner_stores(tmp_path_factory):
    """One skewed workload as a packed store and a segmented store."""
    tmp = tmp_path_factory.mktemp("shard_miners")
    rows = _rows(36, seed=4, skew=True)
    packed = _make_packed(tmp, rows)
    segmented = _make_segmented(tmp, rows)
    yield {"packed": packed, "segmented": segmented}
    packed.close()
    segmented.close()


def _mine(store, algorithm, engine):
    config = MiningConfig.resolve(
        min_match=0.45, algorithm=algorithm, alphabet=M, noise=0.1,
        sample_size=24, max_weight=3, max_span=4, seed=5,
    )
    miner = config.build_miner(len(store), engine=engine)
    store.reset_scan_count()
    return miner.mine(store)


class TestMinerBitIdentity:
    """The acceptance gate: all six miners, both disk backends, every
    shard count and an adversarially shuffled completion order produce
    the same bits as the single-process vectorized engine."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("kind", ["packed", "segmented"])
    def test_six_miners_identical_across_shard_counts(
        self, miner_stores, kind, algorithm
    ):
        store = miner_stores[kind]
        baseline = _mine(
            store, algorithm, VectorizedBatchEngine(chunk_rows=CHUNK)
        )
        assert baseline.frequent  # the workload exercises real counting
        # Shard counts 1, 2, 7 and n_workers*4; shuffled completion.
        for index, target in enumerate((1, 2, 7, 8)):
            engine = ParallelEngine(
                n_workers=1, chunk_rows=CHUNK, min_shard_rows=1,
                oversplit=target,
                executor=ShuffledExecutor(InlineShardExecutor(), index),
            )
            result = _mine(store, algorithm, engine)
            assert result.frequent == baseline.frequent  # bit-identical
            assert result.scans == baseline.scans
            assert result.border == baseline.border

    def test_real_pool_matches_inline_bits(self, miner_stores, matrix,
                                           batch):
        # The multiprocessing transport returns the same bits as the
        # inline executor: the protocol carries everything that matters.
        store = miner_stores["packed"]
        inline = ParallelEngine(
            n_workers=2, chunk_rows=CHUNK, min_shard_rows=1,
            executor=InlineShardExecutor(),
        )
        pooled = ParallelEngine(
            n_workers=2, chunk_rows=CHUNK, min_shard_rows=1, oversplit=4
        )
        try:
            want = inline.database_matches(batch, store, matrix)
            got = pooled.database_matches(batch, store, matrix)
            assert got == want
            np.testing.assert_array_equal(
                pooled.symbol_matches(store, matrix),
                inline.symbol_matches(store, matrix),
            )
            assert pooled.shards_dispatched > 0
            assert pooled.inline_fallbacks == 0
        finally:
            pooled.close()


# -- satellite regressions -----------------------------------------------------


class TestSegmentedDispatch:
    def test_segmented_store_dispatches_instead_of_pickling_rows(
        self, tmp_path, matrix, batch
    ):
        # The PR-7 gap: no worker-mmap path for segmented stores meant
        # every pass silently fell back to shipping pickled rows.  Now
        # a large segmented store must dispatch digest-addressed shards
        # and never fall back inline.
        store = _make_segmented(tmp_path, _rows(120, seed=8))
        engine = ParallelEngine(
            n_workers=2, chunk_rows=8, min_shard_rows=1
        )
        tracer = Tracer()
        try:
            engine.database_matches(batch, store, matrix, tracer=tracer)
            engine.symbol_matches(store, matrix, tracer=tracer)
            assert engine.shards_dispatched > 0
            assert engine.inline_fallbacks == 0
            assert tracer.total(SHARDS_DISPATCHED) > 0
            assert tracer.total(INLINE_FALLBACKS) == 0
            assert tracer.total(SHARD_IO_BYTES) == 2 * 4 * (
                store.total_symbols()
            )
            assert tracer.total(SHARD_SCAN_SECONDS) > 0
            assert store.scan_count == 2  # one logical pass per call
        finally:
            engine.close()
            store.close()


class TestIOChargedOnSuccessOnly:
    def test_failed_dispatch_charges_nothing(self, tmp_path, matrix,
                                             batch):
        store = _make_packed(tmp_path, _rows())
        engine = ParallelEngine(
            n_workers=2, chunk_rows=CHUNK, min_shard_rows=1,
            executor=_ExplodingExecutor(),
        )
        try:
            with pytest.raises(RuntimeError, match="transport down"):
                engine.database_matches(batch, store, matrix)
            # The old bug: chunks were charged before dispatch, so a
            # failed pass inflated the I/O accounting.
            assert store.io_chunks == 0
            assert store.io_bytes_read == 0
            assert store.scan_count == 0
        finally:
            store.close()

    def test_successful_dispatch_charges_blocks_once(
        self, tmp_path, matrix, batch
    ):
        rows = _rows()
        store = _make_packed(tmp_path, rows)
        engine = ParallelEngine(
            n_workers=2, chunk_rows=CHUNK, min_shard_rows=1,
            executor=InlineShardExecutor(),
        )
        try:
            engine.database_matches(batch, store, matrix)
            expected_blocks = -(-len(rows) // CHUNK)
            assert store.io_chunks == expected_blocks
            assert store.io_bytes_read == 4 * store.total_symbols()
            assert store.scan_count == 1
        finally:
            store.close()


class TestOversplitResolution:
    def test_default(self):
        assert DEFAULT_OVERSPLIT == 3
        assert ParallelEngine(n_workers=2).oversplit == DEFAULT_OVERSPLIT

    def test_explicit_must_be_positive(self):
        with pytest.raises(MiningError):
            ParallelEngine(n_workers=2, oversplit=0)
