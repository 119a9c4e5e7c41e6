"""The packed binary sequence store: format, round-trips, scan contract.

The store is the out-of-core backend of the reproduction: one
contiguous int32 symbol buffer plus an offset table, memory-mapped on
open.  These tests pin the three guarantees everything else leans on:

* **round-trip fidelity** — ids, symbols, order and metadata survive
  ``SequenceDatabase`` -> packed -> text -> packed unchanged;
* **fail-loud format handling** — corrupt magic, bad version, truncated
  payloads and flipped bytes raise ``SequenceDatabaseError`` instead of
  yielding silently wrong sequences;
* **scan-contract parity** — scan accounting, chunked scans and the
  reservoir sampler behave bit-for-bit like the text-backed database,
  so the miners produce identical output on either representation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CompatibilityMatrix,
    FileSequenceDatabase,
    PackedSequenceStore,
    SequenceDatabase,
    SequenceDatabaseError,
    is_packed_store,
)
from repro.io import HEADER_BYTES, STORE_MAGIC

from .oracles import ReferenceEngine


@pytest.fixture
def small_db() -> SequenceDatabase:
    return SequenceDatabase(
        [[1, 2, 3], [4, 5], [6], [0, 0, 7, 2]], ids=[3, 9, 11, 40]
    )


@pytest.fixture
def store_path(tmp_path, small_db):
    path = tmp_path / "db.nmp"
    PackedSequenceStore.from_database(small_db, path)
    return path


class TestRoundTrip:
    def test_from_database_preserves_everything(self, small_db):
        store = PackedSequenceStore.from_database(small_db)
        assert len(store) == len(small_db)
        assert store.ids == small_db.ids
        assert store.total_symbols() == small_db.total_symbols()
        assert store.max_symbol() == small_db.max_symbol()
        assert store.average_length() == small_db.average_length()
        for sid in small_db.ids:
            assert list(store.sequence(sid)) == list(small_db.sequence(sid))

    def test_save_open_round_trip(self, small_db, store_path):
        store = PackedSequenceStore.open(store_path)
        assert store.ids == small_db.ids
        for (sid_a, row_a), (sid_b, row_b) in zip(
            store.scan(), small_db.scan()
        ):
            assert sid_a == sid_b
            assert np.array_equal(np.asarray(row_a), np.asarray(row_b))

    def test_text_round_trip(self, small_db, tmp_path):
        store = PackedSequenceStore.from_database(small_db)
        text_path = tmp_path / "back.txt"
        store.save_text(text_path)
        reloaded = FileSequenceDatabase(text_path)
        assert tuple(sid for sid, _ in reloaded.scan()) == small_db.ids
        again = PackedSequenceStore.from_database(reloaded)
        assert again.digest == store.digest  # byte-identical payload

    def test_to_database(self, store_path, small_db):
        mem = PackedSequenceStore.open(store_path).to_database()
        assert isinstance(mem, SequenceDatabase)
        assert mem.ids == small_db.ids
        assert list(mem.sequence(40)) == [0, 0, 7, 2]

    def test_from_file_database(self, small_db, tmp_path):
        text = tmp_path / "src.txt"
        small_db.save(text)
        store = PackedSequenceStore.from_database(FileSequenceDatabase(text))
        assert store.ids == small_db.ids

    def test_is_packed_store_sniffs(self, store_path, tmp_path):
        assert is_packed_store(store_path)
        text = tmp_path / "plain.txt"
        text.write_text("0\t1 2\n")
        assert not is_packed_store(text)
        assert not is_packed_store(tmp_path / "missing.bin")

    def test_verify_accepts_intact_file(self, store_path):
        PackedSequenceStore.open(store_path).verify()


class TestFormatErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SequenceDatabaseError, match="No such|missing"):
            PackedSequenceStore.open(tmp_path / "nope.nmp")

    def test_bad_magic(self, store_path):
        data = bytearray(store_path.read_bytes())
        data[:8] = b"NOTAPACK"
        store_path.write_bytes(bytes(data))
        with pytest.raises(SequenceDatabaseError, match="magic"):
            PackedSequenceStore.open(store_path)

    def test_unsupported_version(self, store_path):
        data = bytearray(store_path.read_bytes())
        data[8] = 99  # little-endian u32 version field
        store_path.write_bytes(bytes(data))
        with pytest.raises(SequenceDatabaseError, match="version"):
            PackedSequenceStore.open(store_path)

    def test_truncated_header(self, store_path):
        store_path.write_bytes(store_path.read_bytes()[: HEADER_BYTES - 8])
        with pytest.raises(SequenceDatabaseError, match="truncated|header"):
            PackedSequenceStore.open(store_path)

    def test_truncated_payload(self, store_path):
        data = store_path.read_bytes()
        store_path.write_bytes(data[:-4])
        with pytest.raises(SequenceDatabaseError,
                           match="truncated or corrupt"):
            PackedSequenceStore.open(store_path)

    def test_trailing_garbage(self, store_path):
        store_path.write_bytes(store_path.read_bytes() + b"\x00" * 16)
        with pytest.raises(SequenceDatabaseError,
                           match="truncated or corrupt"):
            PackedSequenceStore.open(store_path)

    def test_digest_detects_flipped_symbol(self, store_path):
        data = bytearray(store_path.read_bytes())
        data[-2] ^= 0xFF  # inside the symbol buffer
        store_path.write_bytes(bytes(data))
        store = PackedSequenceStore.open(store_path)  # lazy: open succeeds
        with pytest.raises(SequenceDatabaseError, match="digest"):
            store.verify()

    def test_empty_store_rejected(self, tmp_path):
        import struct

        path = tmp_path / "empty.nmp"
        header = struct.pack(
            "<8sII QQq 16s 8x", STORE_MAGIC, 1, 0, 0, 0, -1, b"\x00" * 16
        )
        path.write_bytes(header + b"\x00" * 8)  # offsets[0] only
        with pytest.raises(SequenceDatabaseError, match="no sequences"):
            PackedSequenceStore.open(path)

    def test_empty_database_rejected_at_build(self):
        with pytest.raises(SequenceDatabaseError):
            PackedSequenceStore(
                np.array([], dtype=np.int64),
                np.array([0], dtype=np.int64),
                np.array([], dtype=np.int32),
                max_symbol=-1,
            )

    def test_duplicate_ids_rejected(self):
        db = SequenceDatabase([[1], [2]])
        db._ids = [7, 7]  # bypass the in-memory check to hit the store's
        with pytest.raises(SequenceDatabaseError, match="unique"):
            PackedSequenceStore.from_database(db)


class TestScanContract:
    def test_scan_counts_passes(self, store_path):
        store = PackedSequenceStore.open(store_path)
        assert store.scan_count == 0
        list(store.scan())
        list(store.scan())
        assert store.scan_count == 2
        store.reset_scan_count()
        assert store.scan_count == 0

    def test_scan_chunks_is_one_scan(self, store_path):
        store = PackedSequenceStore.open(store_path)
        chunks = list(store.scan_chunks(chunk_rows=2))
        assert store.scan_count == 1
        assert [len(c) for c in chunks] == [2, 2]
        rows = [row for c in chunks for row in c.rows]
        flat = [list(r) for r in rows]
        assert flat == [[1, 2, 3], [4, 5], [6], [0, 0, 7, 2]]

    def test_chunk_rows_must_be_positive(self, store_path):
        store = PackedSequenceStore.open(store_path)
        with pytest.raises(SequenceDatabaseError):
            list(store.scan_chunks(chunk_rows=0))

    def test_rows_slice_is_zero_copy_and_uncounted(self, store_path):
        store = PackedSequenceStore.open(store_path)
        rows = store.rows_slice(1, 3)
        assert [list(r) for r in rows] == [[4, 5], [6]]
        assert store.scan_count == 0

    def test_io_counters_accumulate(self, store_path):
        store = PackedSequenceStore.open(store_path)
        assert store.io_bytes_read == 0
        list(store.scan())
        after_scan = store.io_bytes_read
        assert after_scan == store.total_symbols() * 4
        list(store.scan_chunks(chunk_rows=2))
        assert store.io_bytes_read == 2 * after_scan
        assert store.io_chunks == 2
        assert store.io_chunk_seconds >= 0.0

    def test_unknown_sequence_id(self, store_path):
        store = PackedSequenceStore.open(store_path)
        with pytest.raises(SequenceDatabaseError):
            store.sequence(999)


class TestSamplingParity:
    def test_seed_matches_other_backends(self, tmp_path):
        db = SequenceDatabase(
            [[i % 5] for i in range(30)], ids=range(200, 230)
        )
        text = tmp_path / "seqs.txt"
        db.save(text)
        file_db = FileSequenceDatabase(text)
        store = PackedSequenceStore.from_database(db)
        for seed in (0, 1, 99):
            assert store.sample(7, seed=seed).ids == \
                file_db.sample(7, seed=seed).ids == \
                db.sample(7, seed=seed).ids

    def test_seed_pinned_ids(self):
        # The same regression pin as the in-memory database: this draw
        # must never change, or saved experiment configs break.
        store = PackedSequenceStore.from_database(
            SequenceDatabase([[i] for i in range(20)])
        )
        assert store.sample(5, seed=2002).ids == (3, 5, 7, 11, 12)

    def test_sample_counts_one_scan_and_copies_rows(self, store_path):
        store = PackedSequenceStore.open(store_path)
        sample = store.sample(2, seed=0)
        assert store.scan_count == 1
        assert len(sample) == 2
        # Sampled rows must be copies, not memmap views.
        for sid in sample.ids:
            assert sample.sequence(sid).base is None

    def test_oversample_is_deterministic_without_rng_draws(self):
        store = PackedSequenceStore.from_database(
            SequenceDatabase([[i] for i in range(6)], ids=range(10, 16))
        )
        rng = np.random.default_rng(0)
        state_before = rng.bit_generator.state
        assert store.sample(99, rng).ids == tuple(range(10, 16))
        assert rng.bit_generator.state == state_before


class TestMinerParity:
    """Mining a packed store gives bit-identical output to the text and
    in-memory representations of the same data, for every miner and on
    every backend.  (Across *backends* the seed's contract is 1e-12
    agreement, not bit-identity — reference and vectorized sum window
    products in different orders.)"""

    M = 6

    @pytest.fixture
    def workload(self, tmp_path):
        rng = np.random.default_rng(41)
        db = SequenceDatabase(
            [rng.integers(0, self.M, size=10) for _ in range(24)]
        )
        text = tmp_path / "w.txt"
        packed = tmp_path / "w.nmp"
        db.save(text)
        PackedSequenceStore.from_database(db, packed)
        matrix = CompatibilityMatrix.uniform_noise(self.M, alpha=0.1)
        return db, text, packed, matrix

    def _mine(self, algorithm, database, matrix, engine):
        from repro import (
            BorderCollapsingMiner,
            DepthFirstMiner,
            LevelwiseMiner,
            MaxMiner,
            PincerMiner,
            ToivonenMiner,
        )
        from repro.core.lattice import PatternConstraints

        constraints = PatternConstraints(max_weight=3, max_span=4, max_gap=1)
        kwargs = dict(constraints=constraints, engine=engine)
        if algorithm in ("border-collapsing", "toivonen"):
            cls = {"border-collapsing": BorderCollapsingMiner,
                   "toivonen": ToivonenMiner}[algorithm]
            miner = cls(matrix, 0.5, sample_size=16, delta=0.2,
                        rng=np.random.default_rng(5), **kwargs)
        elif algorithm == "depthfirst":
            miner = DepthFirstMiner(matrix, 0.5, **kwargs)
        else:
            cls = {"levelwise": LevelwiseMiner, "maxminer": MaxMiner,
                   "pincer": PincerMiner}[algorithm]
            miner = cls(matrix, 0.5, **kwargs)
        return miner.mine(database)

    @pytest.mark.parametrize(
        "algorithm",
        ["border-collapsing", "levelwise", "maxminer", "toivonen",
         "pincer", "depthfirst"],
    )
    def test_all_miners_bit_identical_on_packed(self, workload, algorithm):
        db, text, packed, matrix = workload
        baseline = self._mine(algorithm, db, matrix, ReferenceEngine())
        assert baseline.frequent  # the workload must exercise something
        store = PackedSequenceStore.open(packed)
        file_db = FileSequenceDatabase(text)
        for database in (store, file_db):
            result = self._mine(algorithm, database, matrix,
                                ReferenceEngine())
            assert result.frequent == baseline.frequent  # bit-identical
            assert result.scans == baseline.scans

    @pytest.mark.parametrize("engine_name",
                             ["reference", "vectorized", "parallel"])
    def test_packed_matches_memory_on_every_backend(self, workload,
                                                    engine_name):
        from repro.engine import VectorizedBatchEngine

        db, _text, packed, matrix = workload
        if engine_name == "parallel":
            engine = VectorizedBatchEngine(chunk_rows=3, workers=2)
        elif engine_name == "vectorized":
            engine = VectorizedBatchEngine()
        else:
            engine = ReferenceEngine()
        try:
            in_memory = self._mine("border-collapsing", db, matrix, engine)
            store = PackedSequenceStore.open(packed)
            result = self._mine("border-collapsing", store, matrix, engine)
            # Same backend, different storage: bit-identical.
            assert result.frequent == in_memory.frequent
            assert result.scans == in_memory.scans
            # Across backends: identical set, 1e-12 values, same scans.
            baseline = self._mine("border-collapsing", db, matrix,
                                  ReferenceEngine())
            assert set(result.frequent) == set(baseline.frequent)
            for pattern, value in baseline.frequent.items():
                assert result.frequent[pattern] == pytest.approx(
                    value, abs=1e-12
                )
            assert result.scans == baseline.scans
        finally:
            if engine_name == "parallel":
                engine.close()


class TestLifecycle:
    """close() / context-manager semantics: the daemon's store cache
    leans on these to bound the number of live mappings."""

    def test_close_is_idempotent(self, store_path):
        store = PackedSequenceStore.open(store_path)
        assert not store.closed
        store.close()
        assert store.closed
        store.close()  # second close is a no-op

    def test_context_manager_closes(self, store_path):
        with PackedSequenceStore.open(store_path) as store:
            assert not store.closed
            assert len(store) == 4
        assert store.closed

    def test_closed_store_raises_cleanly(self, store_path):
        store = PackedSequenceStore.open(store_path)
        store.close()
        with pytest.raises(SequenceDatabaseError, match="closed"):
            list(store.scan())
        with pytest.raises(SequenceDatabaseError, match="closed"):
            list(store.scan_chunks())
        with pytest.raises(SequenceDatabaseError, match="closed"):
            store.sequence(3)
        with pytest.raises(SequenceDatabaseError, match="closed"):
            store.verify()
        with pytest.raises(SequenceDatabaseError, match="closed"):
            store.save(store_path)

    def test_closed_error_names_the_path(self, store_path):
        store = PackedSequenceStore.open(store_path)
        store.close()
        with pytest.raises(SequenceDatabaseError, match="db.nmp"):
            list(store.scan())

    def test_metadata_survives_close(self, store_path, small_db):
        store = PackedSequenceStore.open(store_path)
        digest = store.digest
        store.close()
        # Catalog facts stay readable: the cache reports on evicted
        # entries without resurrecting the mapping.
        assert store.digest == digest
        assert len(store) == len(small_db)
        assert store.total_symbols() == small_db.total_symbols()

    def test_in_memory_store_closes_too(self, small_db):
        store = PackedSequenceStore.from_database(small_db)
        store.close()
        with pytest.raises(SequenceDatabaseError, match="<memory>"):
            list(store.scan())


class TestDigestPeek:
    def test_peek_matches_open_digest(self, store_path):
        from repro.io import peek_store_digest

        with PackedSequenceStore.open(store_path) as store:
            assert peek_store_digest(store_path) == store.digest

    def test_peek_rejects_non_store(self, tmp_path):
        from repro.io import peek_store_digest

        bogus = tmp_path / "not-a-store.bin"
        bogus.write_bytes(b"x" * 100)
        with pytest.raises(SequenceDatabaseError):
            peek_store_digest(bogus)

    def test_peek_rejects_truncated_header(self, tmp_path, store_path):
        from repro.io import peek_store_digest

        stub = tmp_path / "stub.nmp"
        stub.write_bytes(store_path.read_bytes()[: HEADER_BYTES // 2])
        with pytest.raises(SequenceDatabaseError):
            peek_store_digest(stub)
