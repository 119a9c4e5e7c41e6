"""Chunk-parallel counting: the thread pool against one worker.

A multi-worker engine counts each chunk on a pool thread into its own
row and adds the rows to the totals in scan order, so:

* **determinism** — totals are bit-identical to one worker for any
  worker count and any completion order (kernel calls delayed at
  random finish out of order);
* **the real pool** — on a packed store, the pooled engine reproduces
  the inline engine's bits while its kernels run off the scanning
  thread;
* **I/O accounting** — a pooled call charges its one scan once: one
  ``scan_count``, every chunk once, every symbol's four bytes once.
"""

import random
import threading
import time

import numpy as np
import pytest

from repro.core.compatibility import CompatibilityMatrix
from repro.core.pattern import Pattern
from repro.core.sequence import SequenceDatabase
from repro.engine import VectorizedBatchEngine, vectorized
from repro.io import PackedSequenceStore

M = 6  # alphabet size used throughout

#: Rows per chunk in every engine of this module: small enough that
#: the tiny workloads split into many chunks.
CHUNK = 3


def _rows(n=48, seed=9, skew=False):
    """Synthetic rows; with *skew*, a few sequences dominate the symbol
    count so the chunks' costs are badly unbalanced."""
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


def _delay_kernel(monkeypatch, seed):
    """Wrap the block kernel so each call first sleeps 0-2 ms drawn
    from a generator seeded with *seed*: chunks finish out of order."""
    kernel = vectorized.block_totals
    rng = random.Random(seed)
    lock = threading.Lock()

    def delayed(*args, **kwargs):
        with lock:
            pause = rng.uniform(0.0, 0.002)
        time.sleep(pause)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(vectorized, "block_totals", delayed)


def _record_kernel_threads(monkeypatch):
    """Wrap the block kernel; return the list each call's thread id is
    appended to."""
    threads = []
    kernel = vectorized.block_totals

    def recording(*args, **kwargs):
        threads.append(threading.get_ident())
        return kernel(*args, **kwargs)

    monkeypatch.setattr(vectorized, "block_totals", recording)
    return threads


class TestSchedulerDeterminism:
    def test_totals_identical_for_any_order_and_shard_count(
        self, matrix, batch, monkeypatch
    ):
        database = SequenceDatabase(_rows(30, skew=True))
        reference = VectorizedBatchEngine(
            chunk_rows=CHUNK, workers=1
        ).database_matches(batch, database, matrix)
        for workers in (2, 7, 8):
            with VectorizedBatchEngine(chunk_rows=CHUNK,
                                       workers=workers) as engine:
                for seed in range(4):
                    _delay_kernel(monkeypatch, seed)
                    got = engine.database_matches(batch, database, matrix)
                    monkeypatch.undo()
                    assert got == reference  # bit-identical

    def test_symbol_totals_identical_too(self, matrix, monkeypatch):
        database = SequenceDatabase(_rows(30))
        reference = VectorizedBatchEngine(
            chunk_rows=CHUNK, workers=1
        ).symbol_matches(database, matrix)
        for workers in (2, 7, 8):
            with VectorizedBatchEngine(chunk_rows=CHUNK,
                                       workers=workers) as engine:
                _delay_kernel(monkeypatch, workers)
                got = engine.symbol_matches(database, matrix)
                monkeypatch.undo()
                np.testing.assert_array_equal(got, reference)


class TestMinerBitIdentity:
    def test_real_pool_matches_inline_bits(self, tmp_path, matrix, batch,
                                           monkeypatch):
        # The thread pool returns the same bits as the inline per-chunk
        # path, and its kernels really run on the pool's threads.
        store = _make_packed(tmp_path, _rows(36, seed=4, skew=True))
        inline = VectorizedBatchEngine(chunk_rows=CHUNK, workers=1)
        pooled = VectorizedBatchEngine(chunk_rows=CHUNK, workers=2)
        try:
            want = inline.database_matches(batch, store, matrix)
            want_symbols = inline.symbol_matches(store, matrix)
            threads = _record_kernel_threads(monkeypatch)
            assert pooled.database_matches(batch, store, matrix) == want
            np.testing.assert_array_equal(
                pooled.symbol_matches(store, matrix), want_symbols
            )
            assert threads
            assert threading.get_ident() not in threads
            assert inline._executor is None
            assert pooled._executor is not None
        finally:
            pooled.close()
            store.close()


class TestIOChargedOnSuccessOnly:
    def test_successful_dispatch_charges_blocks_once(
        self, tmp_path, matrix, batch
    ):
        rows = _rows()
        store = _make_packed(tmp_path, rows)
        engine = VectorizedBatchEngine(chunk_rows=CHUNK, workers=2)
        try:
            engine.database_matches(batch, store, matrix)
            expected_blocks = -(-len(rows) // CHUNK)
            assert engine._executor is not None
            assert store.io_chunks == expected_blocks
            assert store.io_bytes_read == 4 * store.total_symbols()
            assert store.scan_count == 1
        finally:
            engine.close()
            store.close()
