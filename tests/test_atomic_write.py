"""Crash-safe writes: checkpoints, segments and manifests.

Every durable file goes through :func:`repro.io.atomic_write`: a
unique temp file per writer, fsynced before the rename.  Two saves
interleaving on one path must both complete (the last rename wins
whole), and a writer that fails midway must leave the previous file
intact and no temp file behind.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.compatibility import CompatibilityMatrix
from repro.core.lattice import PatternConstraints
from repro.core.sequence import SequenceDatabase
from repro.io import PackedSequenceStore, SegmentedSequenceStore, atomic_write
from repro.mining.delta import MiningCheckpoint, create_checkpoint
from repro.mining.levelwise import LevelwiseMiner

IDENTITY = CompatibilityMatrix.identity(5)


def _checkpoint(tmp_path, config_key: str) -> MiningCheckpoint:
    rows = [[0, 1, 2], [1, 2, 3], [0, 1, 4]]
    with SegmentedSequenceStore.create(
        tmp_path / f"seg-{config_key}", SequenceDatabase(rows)
    ) as store:
        result = LevelwiseMiner(
            IDENTITY, 0.5,
            constraints=PatternConstraints(max_weight=3, max_span=5,
                                           max_gap=1),
        ).mine(store)
        return create_checkpoint(
            result, store, IDENTITY, 0.5, config_key=config_key
        )


def _leftovers(directory) -> list:
    return sorted(p.name for p in directory.iterdir() if p.suffix == ".tmp")


class TestInterleavedSaves:
    def test_second_save_between_write_and_rename(
        self, tmp_path, monkeypatch
    ):
        first = _checkpoint(tmp_path, "first")
        second = _checkpoint(tmp_path, "second")
        path = tmp_path / "ckpt.json"
        real_replace = os.replace
        interleaved = []

        def replace(src, dst):
            # The first writer is about to rename: let a second writer
            # run to completion on the same path before it does.
            if not interleaved:
                interleaved.append(src)
                second.save(path)
            real_replace(src, dst)

        monkeypatch.setattr("repro.mining.delta.os.replace", replace)
        first.save(path)
        assert interleaved
        # The first save renamed last, so it wins — whole.
        assert MiningCheckpoint.load(path) == first
        assert _leftovers(tmp_path) == []


class TestFailedWriters:
    def test_raising_writer_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text('{"old": true}\n')
        with pytest.raises(RuntimeError, match="midway"):
            with atomic_write(path, encoding="utf-8") as handle:
                handle.write('{"new": ')
                raise RuntimeError("writer failed midway")
        assert json.loads(path.read_text()) == {"old": True}
        assert _leftovers(tmp_path) == []

    def test_failed_checkpoint_save_keeps_the_old_checkpoint(
        self, tmp_path, monkeypatch
    ):
        old = _checkpoint(tmp_path, "old")
        path = tmp_path / "ckpt.json"
        old.save(path)
        new = _checkpoint(tmp_path, "new")

        def broken(*_args, **_kwargs):
            raise OSError("disk full")

        monkeypatch.setattr("repro.mining.delta.json.dump", broken)
        with pytest.raises(OSError, match="disk full"):
            new.save(path)
        monkeypatch.undo()
        assert MiningCheckpoint.load(path) == old
        assert _leftovers(tmp_path) == []

    def test_failed_segment_write_keeps_the_store(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "seg"
        rows = [[0, 1, 2], [1, 2, 3]]
        with SegmentedSequenceStore.create(
            root, SequenceDatabase(rows)
        ) as store:
            digest = store.digest

        def broken(self, handle):
            handle.write(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(PackedSequenceStore, "write", broken)
        with SegmentedSequenceStore.open(root) as store:
            with pytest.raises(OSError, match="disk full"):
                store.append([[4, 4, 4]])
        monkeypatch.undo()
        assert _leftovers(root) == []
        with SegmentedSequenceStore.open(root) as store:
            assert store.digest == digest
            assert [list(seq) for _sid, seq in store.scan()] == rows


def test_writes_publish_whole_files(tmp_path):
    path = tmp_path / "blob.bin"
    with atomic_write(path, "wb") as handle:
        handle.write(b"abc")
    with atomic_write(path, "wb") as handle:
        handle.write(b"de")
    assert path.read_bytes() == b"de"
    assert _leftovers(tmp_path) == []
