"""Segmented sequence store: an append-only log of packed segments.

:class:`~repro.io.packed.PackedSequenceStore` is immutable by design —
its header digest *is* its identity, which is what the daemon's warm
caches key on.  Real traffic appends sequences, and rewriting a
multi-gigabyte store to add 1% of rows wastes both the write and every
warm cache keyed on the old digest.  :class:`SegmentedSequenceStore`
keeps the immutability and adds growth:

* the store is a **directory** holding immutable, digest-named packed
  segment files (``seg-<digest16>.nmp``) plus one JSON ``MANIFEST``
  listing the segments in append order;
* the **manifest digest** — blake2b-16 over the ordered segment
  digests — names the logical content, exactly like a packed store's
  header digest names its payload.  Any append changes it, so
  digest-keyed caches (store cache, result memo, mining checkpoints)
  are delta-aware for free;
* :meth:`append` packs the new rows into one fresh segment, writes it
  under its digest name, and swaps the manifest atomically
  (``os.replace``), so readers see either the old store or the new
  store, never a torn one.  Re-appending after a crash that wrote the
  segment but not the manifest simply overwrites the identical
  segment file — append is idempotent at the byte level;
* the store is a :class:`~repro.core.sequence.CountedScanDatabase`
  whose blocks are its segments' blocks in append order, so all six
  miners run on a segmented store unchanged, and mining output is
  bit-identical to the equivalent flat store.

The delta-remining machinery (:mod:`repro.mining.delta`) builds on the
segment boundaries: a checkpoint records the manifest prefix it has
proofs for, and :meth:`segments_after` exposes exactly the appended
suffix for O(Δ) refresh scans.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.sequence import (
    CountedScanDatabase,
    SequenceChunk,
    SequenceDatabase,
)
from ..errors import SequenceDatabaseError
from .atomic import atomic_write
from .packed import PackedSequenceStore, peek_store_digest

#: Manifest file name inside a segmented store directory.
MANIFEST_NAME = "MANIFEST.json"

#: Manifest format marker and version.
MANIFEST_FORMAT = "noisymine-segments"
MANIFEST_VERSION = 1

#: Domain separator so a manifest digest can never collide with a raw
#: packed-store payload digest over the same bytes.
_MANIFEST_DOMAIN = b"noisymine-segment-manifest-v1"


def manifest_digest(segment_digests: Sequence[str]) -> str:
    """Hex blake2b-16 over the *ordered* segment digests.

    This is the segmented store's content identity: two stores with the
    same segments in the same order share it, and any append, reorder
    or truncation changes it.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(_MANIFEST_DOMAIN)
    for hex_digest in segment_digests:
        digest.update(bytes.fromhex(hex_digest))
    return digest.hexdigest()


def is_segmented_store(path: Union[str, os.PathLike]) -> bool:
    """True if *path* is a directory holding a segment manifest."""
    return os.path.isfile(os.path.join(os.fspath(path), MANIFEST_NAME))


def segment_file_name(digest_hex: str) -> str:
    """Canonical file name of the segment with the given content digest."""
    return f"seg-{digest_hex[:16]}.nmp"


def _read_manifest(root: str) -> dict:
    manifest_path = os.path.join(root, MANIFEST_NAME)
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise SequenceDatabaseError(
            f"cannot read segment manifest {manifest_path}: {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise SequenceDatabaseError(
            f"{manifest_path}: corrupt segment manifest (bad JSON: {exc})"
        ) from exc
    if not isinstance(payload, dict) or payload.get("format") != \
            MANIFEST_FORMAT:
        raise SequenceDatabaseError(
            f"{manifest_path}: not a segmented sequence store manifest"
        )
    if payload.get("version") != MANIFEST_VERSION:
        raise SequenceDatabaseError(
            f"{manifest_path}: unsupported manifest version "
            f"{payload.get('version')!r} (this build reads version "
            f"{MANIFEST_VERSION})"
        )
    segments = payload.get("segments")
    if not isinstance(segments, list) or not segments:
        raise SequenceDatabaseError(
            f"{manifest_path}: manifest lists no segments"
        )
    recorded = payload.get("manifest_digest")
    if recorded is not None:
        try:
            computed = manifest_digest(
                [entry["digest"] for entry in segments]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SequenceDatabaseError(
                f"{manifest_path}: malformed segment entry ({exc})"
            ) from exc
        if recorded != computed:
            raise SequenceDatabaseError(
                f"{manifest_path}: manifest digest mismatch (recorded "
                f"{recorded}, segments hash to {computed}) — the "
                "manifest was tampered with or partially written"
            )
    return payload


def peek_manifest_digest(path: Union[str, os.PathLike]) -> str:
    """The manifest digest of a segmented store, from the manifest
    alone — no segment is opened.  The segmented analogue of
    :func:`repro.io.packed.peek_store_digest`."""
    root = os.fspath(path)
    payload = _read_manifest(root)
    digests = [entry["digest"] for entry in payload["segments"]]
    return manifest_digest(digests)


class SegmentedSequenceStore(CountedScanDatabase):
    """A growing sequence database over immutable packed segments.

    Construct via :meth:`create` (seed a new directory from any
    scan-contract backend) or :meth:`open` (map an existing one).  Rows
    are zero-copy views into the segments' mapped buffers.
    :meth:`append` is the only mutation, and it never touches existing
    segment bytes.
    """

    def __init__(self, root: str, segments: List[PackedSequenceStore]):
        if not segments:
            raise SequenceDatabaseError(
                "a segmented store must contain at least one segment"
            )
        super().__init__()
        self._root = root
        self._segments = segments
        self._digest = manifest_digest([s.digest for s in segments])
        self._id_to_segment = None
        self._check_unique_ids()

    def _check_unique_ids(self) -> None:
        seen = set()
        for segment in self._segments:
            for sid in segment.ids:
                if sid in seen:
                    raise SequenceDatabaseError(
                        f"{self._root}: duplicate sequence id {sid} "
                        "across segments"
                    )
                seen.add(sid)

    # -- construction ---------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: Union[str, os.PathLike],
        database: CountedScanDatabase,
    ) -> "SegmentedSequenceStore":
        """Create a new segmented store directory at *path* whose first
        segment holds the rows of *database* (any scan-contract backend).

        Fails, before touching the disk, if *path* already holds a
        manifest or *database* cannot be packed.
        """
        root = os.fspath(path)
        if is_segmented_store(root):
            raise SequenceDatabaseError(
                f"{root} already holds a segmented store"
            )
        packed = PackedSequenceStore.from_database(database)
        os.makedirs(root, exist_ok=True)
        _write_segment(root, packed)
        _swap_manifest(root, [packed])
        return cls.open(root)

    @classmethod
    def open(
        cls, path: Union[str, os.PathLike]
    ) -> "SegmentedSequenceStore":
        """Open a segmented store directory: read the manifest, map
        every segment, and validate each segment's header digest
        against its manifest entry.

        Raises :class:`SequenceDatabaseError` on a missing/corrupt
        manifest, a missing segment file, or a digest mismatch (a
        segment file whose bytes are not the ones the manifest
        promises).
        """
        root = os.fspath(path)
        payload = _read_manifest(root)
        segments: List[PackedSequenceStore] = []
        try:
            for entry in payload["segments"]:
                digest = entry["digest"]
                file_name = entry.get("file", segment_file_name(digest))
                segment_path = os.path.join(root, file_name)
                actual = peek_store_digest(segment_path)
                if actual != digest:
                    raise SequenceDatabaseError(
                        f"{segment_path}: segment digest mismatch "
                        f"(manifest {digest}, header {actual})"
                    )
                segments.append(PackedSequenceStore.open(segment_path))
        except (KeyError, TypeError) as exc:
            raise SequenceDatabaseError(
                f"{os.path.join(root, MANIFEST_NAME)}: malformed segment "
                f"entry ({exc})"
            ) from exc
        return cls(root, segments)

    # -- append ---------------------------------------------------------------

    def append(
        self,
        sequences,
        ids: Optional[Sequence[int]] = None,
    ) -> str:
        """Append rows as one new immutable segment; returns its digest.

        *sequences* is an iterable of integer rows (or any scan-contract
        database when *ids* is ``None``).  Ids must not collide with any
        existing sequence id; omitted ids continue from the current
        maximum.  The new segment file is written first, then the
        manifest is swapped atomically — a reader holding the old
        manifest keeps a consistent (shorter) store, and a crash
        between the two writes leaves the store exactly as it was.
        """
        self._require_open()
        if isinstance(sequences, CountedScanDatabase) and ids is None:
            database = sequences
        else:
            rows = [np.asarray(row, dtype=np.int32) for row in sequences]
            if not rows:
                raise SequenceDatabaseError(
                    "cannot append an empty batch of sequences"
                )
            if ids is None:
                next_id = max(
                    (max(s.ids) for s in self._segments), default=-1
                ) + 1
                ids = range(next_id, next_id + len(rows))
            database = SequenceDatabase(rows, ids=list(ids))
        packed = PackedSequenceStore.from_database(database)
        existing = {
            sid for segment in self._segments for sid in segment.ids
        }
        collisions = [sid for sid in packed.ids if sid in existing]
        if collisions:
            raise SequenceDatabaseError(
                f"appended ids collide with existing sequences: "
                f"{collisions[:5]}"
            )
        segment_path = _write_segment(self._root, packed)
        segment = PackedSequenceStore.open(segment_path)
        _swap_manifest(self._root, self._segments + [segment])
        self._segments.append(segment)
        self._digest = manifest_digest([s.digest for s in self._segments])
        self._id_to_segment = None
        return segment.digest

    # -- integrity ------------------------------------------------------------

    @property
    def digest(self) -> str:
        """Hex manifest digest: blake2b-16 over ordered segment digests."""
        return self._digest

    @property
    def segment_digests(self) -> Tuple[str, ...]:
        """Segment content digests in append order."""
        return tuple(s.digest for s in self._segments)

    @property
    def segments(self) -> Tuple[PackedSequenceStore, ...]:
        """The mapped segments, in append order (read-only view)."""
        return tuple(self._segments)

    def segments_after(
        self, known_digests: Sequence[str]
    ) -> Tuple[PackedSequenceStore, ...]:
        """The appended suffix beyond a known manifest prefix.

        *known_digests* must be an exact prefix of this store's segment
        digests (the delta-remining precondition: a checkpoint's proofs
        only transfer when its store is a prefix of the current one).
        Raises :class:`SequenceDatabaseError` otherwise.
        """
        self._require_open()
        known = tuple(known_digests)
        if self.segment_digests[: len(known)] != known:
            raise SequenceDatabaseError(
                "known segments are not a prefix of this store: the "
                "checkpoint belongs to a different lineage"
            )
        return tuple(self._segments[len(known):])

    def verify(self) -> None:
        """Recompute every segment's content digest; raise on mismatch."""
        self._require_open()
        for segment in self._segments:
            segment.verify()

    # -- lifecycle ------------------------------------------------------------

    @property
    def path(self) -> str:
        return self._root

    def _release(self) -> None:
        """Release every segment mapping."""
        self._total_symbols = sum(
            s.total_symbols() for s in self._segments
        )
        for segment in self._segments:
            segment.close()
        self._id_to_segment = None

    # -- the scan contract ----------------------------------------------------

    def _blocks(
        self, chunk_rows: int
    ) -> Iterator[Tuple[SequenceChunk, int]]:
        """The segments' zero-copy blocks in append order.

        Chunk boundaries reset at segment boundaries (a chunk never
        spans two mapped buffers); the concatenated row stream is the
        global scan order, which is all any consumer relies on.
        """
        for segment in self._segments:
            yield from segment._blocks(chunk_rows)

    def shard_layout(
        self,
    ) -> Optional[List[Tuple[str, str, int, np.ndarray]]]:
        """Shardable description of this store for a counting tier.

        One ``(path, digest, n_rows, offsets)`` part per immutable
        segment, in append order — workers memory-map each segment file
        independently, so a segmented store no longer has to ship
        pickled rows to the pool.  Pure metadata: consumes no scan (see
        :meth:`begin_external_pass`).
        """
        self._require_open()
        parts: List[Tuple[str, str, int, np.ndarray]] = []
        for segment in self._segments:
            layout = segment.shard_layout()
            if layout is None:  # pragma: no cover - segments are file-backed
                return None
            parts.extend(layout)
        return parts

    # -- metadata -------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(s) for s in self._segments)

    @property
    def ids(self) -> Tuple[int, ...]:
        return tuple(
            sid for segment in self._segments for sid in segment.ids
        )

    def sequence(self, sequence_id: int) -> np.ndarray:
        """Fetch one row view by id (not counted as a scan)."""
        self._require_open()
        if self._id_to_segment is None:
            self._id_to_segment = {
                sid: segment
                for segment in self._segments
                for sid in segment.ids
            }
        segment = self._id_to_segment.get(int(sequence_id))
        if segment is None:
            raise SequenceDatabaseError(
                f"no sequence with id {sequence_id}"
            )
        return segment.sequence(sequence_id)

    def total_symbols(self) -> int:
        if self._closed:
            return self._total_symbols
        return sum(s.total_symbols() for s in self._segments)

    def max_symbol(self) -> int:
        """Largest symbol index present (from the segment headers)."""
        return max(s.max_symbol() for s in self._segments)

    def __repr__(self) -> str:
        return (
            f"SegmentedSequenceStore({self._root!r}, "
            f"segments={len(self._segments)}, N={len(self)}, "
            f"scans={self._scan_count})"
        )


def _write_segment(root: str, packed: PackedSequenceStore) -> str:
    """Write *packed* under its digest name; returns the path.

    :func:`~repro.io.atomic.atomic_write` keeps the digest-named file
    all-or-nothing and on disk before the manifest names it; an
    identical existing file is simply overwritten with identical bytes
    (idempotent re-append after a crash between segment write and
    manifest swap).
    """
    final_path = os.path.join(root, segment_file_name(packed.digest))
    with atomic_write(final_path, "wb") as handle:
        packed.write(handle)
    return final_path


def _swap_manifest(root: str, segments: List[PackedSequenceStore]) -> None:
    """Atomically publish the manifest naming *segments* in order."""
    payload = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "manifest_digest": manifest_digest([s.digest for s in segments]),
        "segments": [
            {
                "digest": s.digest,
                "file": segment_file_name(s.digest),
                "n_sequences": len(s),
                "total_symbols": s.total_symbols(),
                "max_symbol": s.max_symbol(),
            }
            for s in segments
        ],
    }
    with atomic_write(
        os.path.join(root, MANIFEST_NAME), encoding="utf-8"
    ) as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


__all__ = [
    "MANIFEST_FORMAT",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "SegmentedSequenceStore",
    "is_segmented_store",
    "manifest_digest",
    "peek_manifest_digest",
    "segment_file_name",
]
