"""Equivalence and integrity suite for the segmented sequence store.

The segmented store is the same database behind a different layout: a
log of immutable packed segments behind a manifest.  These tests pin
the contract that lets every miner run on it unchanged:

* scan / chunk / sample / metadata parity with a flat packed store
  holding the same rows, under arbitrary segmentations (hypothesis);
* append determinism: the manifest digest is a pure function of the
  appended content, independent of when the appends happened;
* lineage: ``segments_after`` accepts exactly the prefixes of this
  store's history and nothing else;
* integrity: a corrupt, truncated or missing manifest/segment fails
  loudly on open, never scans garbage.
"""

from __future__ import annotations

import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sequence import SequenceDatabase
from repro.errors import SequenceDatabaseError
from repro.io import (
    MANIFEST_NAME,
    PackedSequenceStore,
    SegmentedSequenceStore,
    is_segmented_store,
    manifest_digest,
    peek_manifest_digest,
)

M = 6  # alphabet size used throughout


# -- strategies ----------------------------------------------------------------

def row_lists(min_rows=1, max_rows=24, max_len=10):
    return st.lists(
        st.lists(st.integers(0, M - 1), min_size=1, max_size=max_len),
        min_size=min_rows,
        max_size=max_rows,
    )


@st.composite
def segmented_rows(draw):
    """Rows plus a segmentation of them into 1..4 non-empty batches."""
    rows = draw(row_lists(min_rows=2))
    n_cuts = draw(st.integers(0, min(3, len(rows) - 1)))
    cuts = sorted(draw(
        st.lists(
            st.integers(1, len(rows) - 1),
            min_size=n_cuts, max_size=n_cuts, unique=True,
        )
    ))
    bounds = [0] + cuts + [len(rows)]
    batches = [
        rows[start:stop] for start, stop in zip(bounds, bounds[1:])
    ]
    return rows, batches


def _build_segmented(tmp_path, batches, name="seg"):
    """Create a segmented store from the first batch, append the rest."""
    store = SegmentedSequenceStore.create(
        tmp_path / name, SequenceDatabase(batches[0])
    )
    next_id = len(batches[0])
    for batch in batches[1:]:
        store.append(batch, ids=range(next_id, next_id + len(batch)))
        next_id += len(batch)
    return store


def _negative_source():
    """A scan-contract source holding a negative symbol: the packed
    constructor trusts its arrays, so only the packer can refuse it."""
    return PackedSequenceStore(
        np.array([7], dtype=np.int64),
        np.array([0, 2], dtype=np.int64),
        np.array([1, -3], dtype=np.int32),
        max_symbol=1,
    )


# -- flat-store parity ---------------------------------------------------------

class TestFlatParity:
    @given(segmented_rows())
    @settings(max_examples=40, deadline=None)
    def test_scan_parity(self, tmp_path_factory, data):
        rows, batches = data
        tmp = tmp_path_factory.mktemp("scanpar")
        flat = PackedSequenceStore.from_database(SequenceDatabase(rows))
        with _build_segmented(tmp, batches) as store:
            got = [(sid, list(row)) for sid, row in store.scan()]
            want = [(sid, list(row)) for sid, row in flat.scan()]
            assert got == want
            assert store.ids == flat.ids
            assert len(store) == len(flat)

    @given(segmented_rows())
    @settings(max_examples=40, deadline=None)
    def test_chunk_stream_equals_scan(self, tmp_path_factory, data):
        _rows, batches = data
        tmp = tmp_path_factory.mktemp("chunkpar")
        with _build_segmented(tmp, batches) as store:
            scanned = [(sid, list(row)) for sid, row in store.scan()]
            for chunk_rows in (1, 3, 1000):
                chunked = [
                    (sid, list(row))
                    for chunk in store.scan_chunks(chunk_rows)
                    for sid, row in zip(chunk.ids, chunk.rows)
                ]
                assert chunked == scanned

    @given(segmented_rows(), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_seeded_sample_parity(self, tmp_path_factory, data, seed):
        """Algorithm 4.1 draws the identical ids on both layouts: the
        sampling RNG stream follows global scan order, not segment
        boundaries."""
        rows, batches = data
        tmp = tmp_path_factory.mktemp("samplepar")
        flat = PackedSequenceStore.from_database(SequenceDatabase(rows))
        n = max(1, len(rows) // 2)
        with _build_segmented(tmp, batches) as store:
            got = store.sample(n, seed=seed)
            want = flat.sample(n, seed=seed)
            assert list(got.ids) == list(want.ids)
            assert all(
                list(got.sequence(sid)) == list(want.sequence(sid))
                for sid in got.ids
            )

    @given(segmented_rows())
    @settings(max_examples=40, deadline=None)
    def test_metadata_parity(self, tmp_path_factory, data):
        rows, batches = data
        tmp = tmp_path_factory.mktemp("metapar")
        flat = PackedSequenceStore.from_database(SequenceDatabase(rows))
        with _build_segmented(tmp, batches) as store:
            assert store.total_symbols() == flat.total_symbols()
            assert store.max_symbol() == flat.max_symbol()
            assert store.average_length() == flat.average_length()
            for sid in flat.ids:
                assert list(store.sequence(sid)) == list(
                    flat.sequence(sid)
                )

    def test_scan_accounting(self, tmp_path):
        with _build_segmented(
            tmp_path, [[[0, 1, 2]], [[1, 2, 3]]]
        ) as store:
            assert store.scan_count == 0
            list(store.scan())
            list(store.scan_chunks(2))
            store.sample(1, seed=0)
            assert store.scan_count == 3
            store.reset_scan_count()
            assert store.scan_count == 0


# -- append semantics ----------------------------------------------------------

class TestAppend:
    @given(segmented_rows())
    @settings(max_examples=30, deadline=None)
    def test_digest_is_content_addressed(self, tmp_path_factory, data):
        """Two stores grown through the same batches agree on every
        digest; the manifest digest is a pure function of the ordered
        segment digests."""
        _rows, batches = data
        tmp = tmp_path_factory.mktemp("digest")
        with _build_segmented(tmp, batches, "a") as a, \
                _build_segmented(tmp, batches, "b") as b:
            assert a.segment_digests == b.segment_digests
            assert a.digest == b.digest
            assert a.digest == manifest_digest(a.segment_digests)
            assert peek_manifest_digest(a.path) == a.digest

    def test_append_persists_across_reopen(self, tmp_path):
        store = _build_segmented(tmp_path, [[[0, 1], [2, 3]]])
        store.append([[4, 5, 1]])
        digest = store.digest
        store.close()
        with SegmentedSequenceStore.open(tmp_path / "seg") as reopened:
            assert reopened.digest == digest
            assert [list(r) for _s, r in reopened.scan()] == [
                [0, 1], [2, 3], [4, 5, 1],
            ]

    def test_append_auto_ids_continue_from_max(self, tmp_path):
        with _build_segmented(tmp_path, [[[0, 1], [2, 3]]]) as store:
            store.append([[4, 4]])
            assert store.ids == (0, 1, 2)

    def test_append_rejects_id_collisions(self, tmp_path):
        with _build_segmented(tmp_path, [[[0, 1], [2, 3]]]) as store:
            before = store.digest
            with pytest.raises(SequenceDatabaseError, match="collide"):
                store.append([[4, 4]], ids=[1])
            # A rejected append leaves the store untouched.
            assert store.digest == before
            assert len(store.segments) == 1

    @pytest.mark.parametrize(
        "rows, ids, reason",
        [
            ([[1.5, 2.7], [True, 0]], [7.9, 8], "row 0 holds 1.5 (float)"),
            ([[1, 2], [True, 0]], [7, 8], "row 1 holds True (bool)"),
            ([[1, 2], [1, 0]], [7.9, 8], "'ids' holds 7.9 (float)"),
            ([[1, 2], [1, 0]], [True, 8], "'ids' holds True (bool)"),
            ([np.array([1.5, 2.0]), [1, 0]], None, "(float64)"),
        ],
        ids=["symbol-float", "symbol-bool", "id-float", "id-bool",
             "float-array"],
    )
    def test_append_rejects_non_integers(self, tmp_path, rows, ids,
                                         reason):
        # numpy would truncate these to (7, 8) with rows [1, 2], [1, 0].
        with _build_segmented(tmp_path, [[[0, 1], [2, 3]]]) as store:
            before = store.digest
            with pytest.raises(ValueError, match=re.escape(reason)):
                store.append(rows, ids=ids)
            assert store.digest == before
            assert len(store.segments) == 1
            store.append([np.array([1, 2], dtype=np.int64), [1, 0]],
                         ids=[np.int64(7), 8])
            assert store.ids == (0, 1, 7, 8)

    def test_append_rejects_negative_symbols(self, tmp_path):
        with _build_segmented(tmp_path, [[[0, 1]]]) as store:
            before = store.digest
            with pytest.raises(
                SequenceDatabaseError, match="sequence 7 holds negative"
            ):
                store.append(_negative_source())
            assert store.digest == before
            assert len(store.segments) == 1

    def test_append_rejects_empty_batch(self, tmp_path):
        with _build_segmented(tmp_path, [[[0, 1]]]) as store:
            with pytest.raises(SequenceDatabaseError, match="empty"):
                store.append([])

    def test_old_reader_keeps_consistent_view(self, tmp_path):
        """The manifest swap is atomic: a store opened before an append
        keeps scanning its shorter, fully consistent state."""
        store = _build_segmented(tmp_path, [[[0, 1], [2, 3]]])
        old = SegmentedSequenceStore.open(tmp_path / "seg")
        store.append([[4, 5]])
        assert len(old) == 2
        assert [list(r) for _s, r in old.scan()] == [[0, 1], [2, 3]]
        old.close()
        store.close()

    def test_segments_after_prefix_rule(self, tmp_path):
        with _build_segmented(
            tmp_path, [[[0, 1]], [[2, 3]], [[4, 5]]]
        ) as store:
            digests = store.segment_digests
            assert store.segments_after(digests) == ()
            suffix = store.segments_after(digests[:1])
            assert tuple(s.digest for s in suffix) == digests[1:]
            with pytest.raises(SequenceDatabaseError, match="lineage"):
                store.segments_after(digests[1:])  # not a prefix
            with pytest.raises(SequenceDatabaseError, match="lineage"):
                store.segments_after(("deadbeef" * 4,))


# -- integrity -----------------------------------------------------------------

class TestIntegrity:
    def _grown(self, tmp_path):
        store = _build_segmented(
            tmp_path, [[[0, 1], [2, 3]], [[4, 5]]]
        )
        store.close()
        return tmp_path / "seg"

    def test_is_segmented_store(self, tmp_path):
        root = self._grown(tmp_path)
        assert is_segmented_store(root)
        assert not is_segmented_store(tmp_path / "nope")

    def test_missing_manifest_raises(self, tmp_path):
        root = self._grown(tmp_path)
        os.remove(root / MANIFEST_NAME)
        with pytest.raises(SequenceDatabaseError, match="manifest"):
            SegmentedSequenceStore.open(root)

    def test_truncated_manifest_raises(self, tmp_path):
        root = self._grown(tmp_path)
        manifest = root / MANIFEST_NAME
        manifest.write_text(manifest.read_text()[:40])
        with pytest.raises(SequenceDatabaseError, match="JSON"):
            SegmentedSequenceStore.open(root)

    def test_missing_segment_raises(self, tmp_path):
        root = self._grown(tmp_path)
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        os.remove(root / manifest["segments"][1]["file"])
        with pytest.raises(SequenceDatabaseError):
            SegmentedSequenceStore.open(root)

    def test_digest_mismatch_raises(self, tmp_path):
        """A segment swapped for different (valid) bytes is caught by
        the manifest's digest check on open."""
        root = self._grown(tmp_path)
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        other = PackedSequenceStore.from_database(
            SequenceDatabase([[5, 5, 5]], ids=[99])
        )
        other.save(root / manifest["segments"][1]["file"])
        with pytest.raises(SequenceDatabaseError, match="mismatch"):
            SegmentedSequenceStore.open(root)

    def test_tampered_manifest_digest_raises(self, tmp_path):
        root = self._grown(tmp_path)
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        manifest["segments"] = manifest["segments"][:1]
        (root / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(SequenceDatabaseError):
            SegmentedSequenceStore.open(root)

    def test_create_validates_before_touching_disk(self, tmp_path):
        root = tmp_path / "seg"
        with pytest.raises(TypeError):
            SegmentedSequenceStore.create(root)  # no initial database
        assert not root.exists()
        with pytest.raises(SequenceDatabaseError, match="negative"):
            SegmentedSequenceStore.create(root, _negative_source())
        assert not root.exists()

    def test_closed_store_refuses_scans(self, tmp_path):
        root = self._grown(tmp_path)
        store = SegmentedSequenceStore.open(root)
        store.close()
        with pytest.raises(SequenceDatabaseError, match="closed"):
            list(store.scan())
        store.close()  # idempotent
