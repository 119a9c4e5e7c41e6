"""Unit tests for repro.core.sequence: databases, scans, sampling, IO."""

import numpy as np
import pytest

from repro import (
    CompatibilityMatrix,
    FileSequenceDatabase,
    PackedSequenceStore,
    SamplingError,
    SequenceDatabase,
    SequenceDatabaseError,
)
from repro.core.match import symbol_matches_and_sample
from repro.core.sequence import as_sequence_array
from repro.io import SegmentedSequenceStore
from repro.engine import VectorizedBatchEngine


class TestAsSequenceArray:
    def test_coerces_lists(self):
        arr = as_sequence_array([1, 2, 3])
        assert arr.dtype == np.int32
        assert list(arr) == [1, 2, 3]

    def test_rejects_empty(self):
        with pytest.raises(SequenceDatabaseError):
            as_sequence_array([])

    def test_rejects_negative_symbols(self):
        with pytest.raises(SequenceDatabaseError):
            as_sequence_array([1, -1, 2])

    def test_rejects_multidimensional(self):
        with pytest.raises(SequenceDatabaseError):
            as_sequence_array([[1, 2], [3, 4]])


class TestInMemoryDatabase:
    def test_len_and_ids(self):
        db = SequenceDatabase([[1, 2], [3]])
        assert len(db) == 2
        assert db.ids == (0, 1)

    def test_custom_ids(self):
        db = SequenceDatabase([[1], [2]], ids=[10, 20])
        assert db.ids == (10, 20)
        assert list(db.sequence(20)) == [2]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(SequenceDatabaseError):
            SequenceDatabase([[1], [2]], ids=[7, 7])

    def test_mismatched_ids_rejected(self):
        with pytest.raises(SequenceDatabaseError):
            SequenceDatabase([[1], [2]], ids=[1])

    def test_empty_database_rejected(self):
        with pytest.raises(SequenceDatabaseError):
            SequenceDatabase([])

    def test_unknown_sequence_id(self):
        db = SequenceDatabase([[1]])
        with pytest.raises(SequenceDatabaseError):
            db.sequence(99)

    def test_statistics(self):
        db = SequenceDatabase([[1, 2, 3], [4]])
        assert db.total_symbols() == 4
        assert db.average_length() == 2.0
        assert db.max_symbol() == 4

    def test_metadata_cached_at_construction(self):
        # Metadata is computed once in __init__; repeated queries must
        # not re-reduce the rows (regression: the benchmark layer calls
        # total_symbols() in hot loops).
        db = SequenceDatabase([[1, 2, 3], [4]])
        assert db.total_symbols() == 4
        db._sequences[0] = np.array([9], dtype=np.int32)  # sabotage
        assert db.total_symbols() == 4  # served from the cache
        assert db.max_symbol() == 4

    def test_metadata_survives_reset_scan_count(self):
        # reset_scan_count clears scan accounting only — the cached
        # metadata (and scan results) must be unaffected.
        db = SequenceDatabase([[1, 2, 3], [4, 5]])
        total = db.total_symbols()
        maximum = db.max_symbol()
        average = db.average_length()
        list(db.scan())
        db.reset_scan_count()
        assert db.scan_count == 0
        assert db.total_symbols() == total == 5
        assert db.max_symbol() == maximum == 5
        assert db.average_length() == average == 2.5
        assert len(list(db.scan())) == 2

    def test_from_strings(self, d_alphabet):
        db = SequenceDatabase.from_strings(
            [["d1", "d2"], ["d5"]], d_alphabet
        )
        assert list(db.sequence(0)) == [0, 1]
        assert list(db.sequence(1)) == [4]


class TestScanAccounting:
    def test_scan_counts_passes(self):
        db = SequenceDatabase([[1], [2]])
        assert db.scan_count == 0
        list(db.scan())
        list(db.scan())
        assert db.scan_count == 2

    def test_scan_yields_ids_and_sequences(self):
        db = SequenceDatabase([[1, 2], [3]], ids=[5, 6])
        rows = list(db.scan())
        assert rows[0][0] == 5
        assert list(rows[1][1]) == [3]

    def test_reset_scan_count(self):
        db = SequenceDatabase([[1]])
        list(db.scan())
        db.reset_scan_count()
        assert db.scan_count == 0


class TestSampling:
    def test_sample_size_exact(self, rng):
        db = SequenceDatabase([[i] for i in range(100)])
        sample = db.sample(17, rng)
        assert len(sample) == 17

    def test_sample_counts_one_scan(self, rng):
        db = SequenceDatabase([[i] for i in range(10)])
        db.sample(3, rng)
        assert db.scan_count == 1

    def test_sample_preserves_original_ids(self, rng):
        db = SequenceDatabase([[i] for i in range(50)], ids=range(100, 150))
        sample = db.sample(10, rng)
        assert all(100 <= sid < 150 for sid in sample.ids)

    def test_sample_all_is_whole_database(self, rng):
        db = SequenceDatabase([[i] for i in range(5)])
        sample = db.sample(5, rng)
        assert sorted(sample.ids) == [0, 1, 2, 3, 4]

    def test_oversample_clamps_to_whole_database(self, rng):
        db = SequenceDatabase([[1], [2]])
        sample = db.sample(3, rng)
        assert sorted(sample.ids) == [0, 1]
        with pytest.raises(SamplingError):
            db.sample(0, rng)

    def test_oversample_is_deterministic_without_rng_draws(self, tmp_path):
        # Clamped oversampling selects the whole database in scan order
        # and must not consume the random stream, on either backend.
        db = SequenceDatabase([[i] for i in range(6)], ids=range(10, 16))
        rng = np.random.default_rng(0)
        state_before = rng.bit_generator.state
        assert db.sample(99, rng).ids == tuple(range(10, 16))
        assert rng.bit_generator.state == state_before
        path = tmp_path / "seqs.txt"
        db.save(path)
        file_db = FileSequenceDatabase(path)
        state_before = rng.bit_generator.state
        assert file_db.sample(99, rng).ids == tuple(range(10, 16))
        assert rng.bit_generator.state == state_before

    def test_seed_is_deterministic(self):
        db = SequenceDatabase([[i] for i in range(40)])
        first = db.sample(11, seed=123).ids
        second = db.sample(11, seed=123).ids
        assert first == second
        assert db.sample(11, seed=124).ids != first  # seed actually matters

    def test_seed_pinned_ids(self):
        # Regression pin: this exact draw must never change, or saved
        # experiment configs stop being reproducible.
        db = SequenceDatabase([[i] for i in range(20)])
        assert db.sample(5, seed=2002).ids == (3, 5, 7, 11, 12)

    def test_rng_and_seed_are_mutually_exclusive(self, rng):
        db = SequenceDatabase([[1], [2], [3]])
        with pytest.raises(SamplingError, match="not both"):
            db.sample(2, rng=rng, seed=7)

    def test_sampling_is_uniform(self):
        # Every sequence should be selected with probability n/N;
        # chi-square style sanity check over many repetitions.
        db = SequenceDatabase([[i] for i in range(20)])
        counts = np.zeros(20)
        repetitions = 600
        rng = np.random.default_rng(7)
        for _ in range(repetitions):
            for sid in db.sample(5, rng).ids:
                counts[sid] += 1
        expected = repetitions * 5 / 20
        # Standard deviation of a binomial(600, .25) is ~10.6.
        assert np.all(np.abs(counts - expected) < 6 * np.sqrt(expected))


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        db = SequenceDatabase([[1, 2, 3], [4, 5]], ids=[3, 9])
        path = tmp_path / "db.txt"
        db.save(path)
        loaded = SequenceDatabase.load(path)
        assert loaded.ids == (3, 9)
        assert list(loaded.sequence(9)) == [4, 5]

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            SequenceDatabase.load(tmp_path / "nope.txt")

    def test_load_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\tx y z\n")
        with pytest.raises(SequenceDatabaseError, match="malformed"):
            SequenceDatabase.load(path)

    def test_load_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "db.txt"
        path.write_text("# header\n\n0\t1 2\n")
        loaded = SequenceDatabase.load(path)
        assert len(loaded) == 1

    def test_load_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(SequenceDatabaseError):
            SequenceDatabase.load(path)


class TestFileDatabase:
    @pytest.fixture
    def db_file(self, tmp_path):
        db = SequenceDatabase([[1, 2, 3], [4, 5], [6]])
        path = tmp_path / "disk.txt"
        db.save(path)
        return path

    def test_len_without_counting_scan(self, db_file):
        fdb = FileSequenceDatabase(db_file)
        assert len(fdb) == 3
        assert fdb.scan_count == 0

    def test_metadata_without_counting_scan(self, db_file):
        # The validation pass at construction also caches the metadata,
        # so the paper's cost model (counted passes) is not distorted by
        # metadata queries.
        fdb = FileSequenceDatabase(db_file)
        assert fdb.total_symbols() == 6
        assert fdb.max_symbol() == 6
        assert fdb.average_length() == 2.0
        assert fdb.scan_count == 0
        fdb.reset_scan_count()
        assert fdb.total_symbols() == 6  # survives the reset

    def test_scan_chunks_streams_blocks(self, db_file):
        fdb = FileSequenceDatabase(db_file)
        chunks = list(fdb.scan_chunks(chunk_rows=2))
        assert fdb.scan_count == 1
        assert [len(c) for c in chunks] == [2, 1]
        assert [list(c.ids) for c in chunks] == [[0, 1], [2]]
        assert fdb.io_chunks == 2
        assert fdb.io_bytes_read > 0

    def test_scan_streams_and_counts(self, db_file):
        fdb = FileSequenceDatabase(db_file)
        rows = list(fdb.scan())
        assert len(rows) == 3
        assert fdb.scan_count == 1
        assert list(rows[0][1]) == [1, 2, 3]

    def test_sample_from_disk(self, db_file, rng):
        fdb = FileSequenceDatabase(db_file)
        sample = fdb.sample(2, rng)
        assert len(sample) == 2
        assert fdb.scan_count == 1

    def test_materialize(self, db_file):
        fdb = FileSequenceDatabase(db_file)
        mem = fdb.to_database()
        assert isinstance(mem, SequenceDatabase)
        assert len(mem) == 3
        assert fdb.scan_count == 1

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SequenceDatabaseError):
            FileSequenceDatabase(tmp_path / "missing.txt")

    def test_miner_works_on_file_database(self, db_file):
        # Integration: the disk-backed database satisfies the same
        # protocol the miners consume.
        from repro import CompatibilityMatrix
        
        fdb = FileSequenceDatabase(db_file)
        matrix = CompatibilityMatrix.identity(7)
        values = VectorizedBatchEngine().symbol_matches(fdb, matrix)
        assert values[1] == pytest.approx(1 / 3)
        assert fdb.scan_count == 1


class TestScanContract:
    """One contract, four backends: rows, chunking, pass counting, I/O
    accounting, sampling and lifecycle are the same everywhere."""

    #: 23 rows of lengths 1..4; the segmented store splits them 10 + 13,
    #: and CHUNK divides neither segment.
    IDS = [200 + 3 * i for i in range(23)]
    ROWS = [[(7 * i + j) % 5 for j in range(1 + i % 4)] for i in range(23)]
    SPLIT = 10
    CHUNK = 4
    CHUNK_SIZES = {
        "segmented": [4, 4, 2, 4, 4, 4, 1],
        "default": [4, 4, 4, 4, 4, 3],
    }

    @pytest.fixture(params=["memory", "text", "packed", "segmented"])
    def backend(self, request, tmp_path):
        memory = SequenceDatabase(self.ROWS, ids=self.IDS)
        kind = request.param
        if kind == "memory":
            db = memory
        elif kind == "text":
            memory.save(tmp_path / "db.txt")
            db = FileSequenceDatabase(tmp_path / "db.txt")
        elif kind == "packed":
            db = PackedSequenceStore.from_database(memory, tmp_path / "db.nmp")
        else:
            db = SegmentedSequenceStore.create(
                tmp_path / "seg",
                SequenceDatabase(self.ROWS[:self.SPLIT],
                                 ids=self.IDS[:self.SPLIT]),
            )
            db.append(self.ROWS[self.SPLIT:], ids=self.IDS[self.SPLIT:])
            assert len(db.segments) == 2
        yield kind, db
        db.close()

    def test_rows_in_scan_order(self, backend):
        _kind, db = backend
        assert len(db) == len(self.ROWS)
        assert db.ids == tuple(self.IDS)
        assert [sid for sid, _row in db.scan()] == self.IDS
        assert [row.tolist() for _sid, row in db.scan()] == self.ROWS
        assert db.sequence(self.IDS[7]).tolist() == self.ROWS[7]
        assert db.total_symbols() == sum(map(len, self.ROWS))
        assert db.max_symbol() == 4
        assert db.to_database().ids == tuple(self.IDS)

    def test_chunk_boundaries(self, backend):
        kind, db = backend
        chunks = list(db.scan_chunks(self.CHUNK))
        expected = self.CHUNK_SIZES.get(kind, self.CHUNK_SIZES["default"])
        assert [len(chunk) for chunk in chunks] == expected
        assert [sid for c in chunks for sid in c.ids] == self.IDS
        assert [r.tolist() for c in chunks for r in c.rows] == self.ROWS
        with pytest.raises(SequenceDatabaseError, match="chunk_rows"):
            list(db.scan_chunks(0))

    def test_every_pass_counts_once(self, backend, tmp_path):
        _kind, db = backend
        assert db.scan_count == 0
        list(db.scan())
        assert db.scan_count == 1
        list(db.scan_chunks(self.CHUNK))
        assert db.scan_count == 2
        db.sample(5, seed=1)
        assert db.scan_count == 3
        db.to_database()
        db.save_text(tmp_path / "copy.txt")
        assert db.scan_count == 5
        len(db), db.ids, db.total_symbols(), db.average_length()
        db.sequence(self.IDS[0])
        assert db.scan_count == 5  # metadata is not a pass
        db.reset_scan_count()
        assert db.scan_count == 0

    def test_io_counters(self, backend):
        kind, db = backend
        payload = 4 * db.total_symbols()
        list(db.scan())
        list(db.scan_chunks(self.CHUNK))
        counters = (db.io_bytes_read, db.io_chunks)
        if kind == "memory":
            assert counters == (0, 0)  # nothing is read from storage
            assert db.io_chunk_seconds == 0.0
        else:
            chunks = len(self.CHUNK_SIZES.get(kind,
                                              self.CHUNK_SIZES["default"]))
            assert counters == (2 * payload, chunks)
            assert db.io_chunk_seconds > 0.0

    def test_seed_pins_ids_across_backends(self, backend):
        # The contract the miners' reproducibility rests on: the same
        # explicit seed selects the same sequence ids wherever the
        # database lives, and the Phase-1 pass draws the same sample.
        _kind, db = backend
        matrix = CompatibilityMatrix.identity(5)
        for seed in (0, 1, 99):
            # Algorithm 4.1 lines 12-16 as a loop: one draw per row
            # while the sample is short, none once it is full.
            reference = np.random.default_rng(seed)
            expected = []
            for seen, sid in enumerate(self.IDS):
                if len(expected) == 7:
                    break
                needed = 7 - len(expected)
                if reference.random() < needed / (len(self.IDS) - seen):
                    expected.append(sid)
            assert db.sample(7, seed=seed).ids == tuple(expected)
            rng = np.random.default_rng(seed)
            _values, sample = symbol_matches_and_sample(db, matrix, 7, rng=rng)
            assert sample.ids == tuple(expected)
            assert rng.bit_generator.state == reference.bit_generator.state

    def test_closed_store_raises(self, backend, tmp_path):
        _kind, db = backend
        with db:
            pass
        assert db.closed
        db.close()  # idempotent
        for access in (
            lambda: list(db.scan()),
            lambda: list(db.scan_chunks()),
            lambda: db.sample(3, seed=0),
            lambda: db.sequence(self.IDS[0]),
            lambda: db.to_database(),
            lambda: db.save_text(tmp_path / "closed.txt"),
        ):
            with pytest.raises(SequenceDatabaseError, match="closed"):
                access()
        assert len(db) == len(self.ROWS)  # catalog metadata survives
        assert db.total_symbols() == sum(map(len, self.ROWS))
