"""Packed binary sequence store: the out-of-core scan backend.

:class:`~repro.core.sequence.FileSequenceDatabase` is a faithful
simulation of disk residency, but it pays Python-level decode cost for
every symbol on every pass — which dwarfs the match arithmetic the
engine backends already vectorized.  :class:`PackedSequenceStore` keeps
the same logical content in one contiguous ``int32`` symbol buffer plus
an ``int64`` offsets array, memory-mapped on open, so a scan is pure
pointer arithmetic: each row is a zero-copy view into the mapped buffer.

File layout (little-endian, 64-byte header)::

    offset  size  field
    0       8     magic  b"NMPSTORE"
    8       4     format version (currently 1)
    12      4     reserved (zero)
    16      8     n_sequences        (u64)
    24      8     total_symbols      (u64)
    32      8     max_symbol         (i64)
    40      16    blake2b-16 digest of ids+offsets+symbols payload
    56      8     reserved (zero)
    64      ...   ids      int64[n]
    ...     ...   offsets  int64[n + 1]   (offsets[0] == 0, strictly increasing)
    ...     ...   symbols  int32[total_symbols]

Every section is 8-byte aligned.  :meth:`PackedSequenceStore.open`
validates the header (magic, version, section sizes, offset monotony)
in O(N) index work without touching the symbol payload;
:meth:`PackedSequenceStore.verify` recomputes the content digest.

The store is a :class:`~repro.core.sequence.CountedScanDatabase`: it
supplies the block primitive and the metadata, and shares scanning,
scan counting, I/O accounting and sampling with every other backend —
so mining output is bit-identical across backends.
"""

from __future__ import annotations

import hashlib
import os
import struct
from typing import BinaryIO, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..core.sequence import CountedScanDatabase, SequenceChunk
from ..errors import SequenceDatabaseError

STORE_MAGIC = b"NMPSTORE"
STORE_VERSION = 1
_HEADER = struct.Struct("<8sII QQq 16s 8x")
HEADER_BYTES = _HEADER.size  # 64
assert HEADER_BYTES == 64


def _payload_digest(
    ids: np.ndarray, offsets: np.ndarray, symbols: np.ndarray
) -> bytes:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.ascontiguousarray(ids).tobytes())
    digest.update(np.ascontiguousarray(offsets).tobytes())
    digest.update(np.ascontiguousarray(symbols).tobytes())
    return digest.digest()


def is_packed_store(path: Union[str, os.PathLike]) -> bool:
    """True if *path* starts with the packed-store magic bytes."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(STORE_MAGIC)) == STORE_MAGIC
    except OSError:
        return False


def peek_store_digest(path: Union[str, os.PathLike]) -> str:
    """The hex content digest from a packed store's header, by reading
    64 bytes — no mapping, no payload validation.

    This is what lets a warm store cache recognise "same content,
    already open" without re-opening anything.  Raises
    :class:`SequenceDatabaseError` on a missing file, short header,
    foreign magic or unsupported version — the same failures
    :meth:`PackedSequenceStore.open` would report.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            raw = handle.read(HEADER_BYTES)
    except OSError as exc:
        raise SequenceDatabaseError(
            f"cannot read packed store {path}: {exc}"
        ) from exc
    if len(raw) < HEADER_BYTES:
        raise SequenceDatabaseError(
            f"{path}: truncated packed store header "
            f"({len(raw)} bytes, need {HEADER_BYTES})"
        )
    magic, version, _reserved, _n, _total, _max_symbol, digest = (
        _HEADER.unpack(raw)
    )
    if magic != STORE_MAGIC:
        raise SequenceDatabaseError(
            f"{path}: not a packed sequence store (bad magic)"
        )
    if version != STORE_VERSION:
        raise SequenceDatabaseError(
            f"{path}: unsupported packed store version {version} "
            f"(this build reads version {STORE_VERSION})"
        )
    return digest.hex()


class PackedSequenceStore(CountedScanDatabase):
    """Disk-resident sequence database over one packed symbol buffer.

    Construct via :meth:`from_database` (pack an existing database) or
    :meth:`open` (memory-map a file written by :meth:`save`).  Rows
    delivered by :meth:`scan` and :meth:`scan_chunks` are read-only
    ``int32`` views into the backing buffer.
    """

    def __init__(
        self,
        ids: np.ndarray,
        offsets: np.ndarray,
        symbols: np.ndarray,
        *,
        max_symbol: int,
        path: Optional[str] = None,
        digest: Optional[bytes] = None,
    ):
        if ids.size == 0:
            raise SequenceDatabaseError(
                "a packed store must contain at least one sequence"
            )
        super().__init__()
        self._id_array = ids
        self._offsets = offsets
        self._symbols = symbols
        self._max_symbol = int(max_symbol)
        self._path = path
        self._digest = digest if digest is not None else _payload_digest(
            ids, offsets, symbols
        )
        self._ids: List[int] = ids.tolist()
        self._id_index = None

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_database(
        cls,
        database,
        path: Optional[Union[str, os.PathLike]] = None,
    ) -> "PackedSequenceStore":
        """Pack *database* (any scan-contract backend) into a store.

        Consumes exactly one ``scan()`` of the source.  With *path* the
        packed file is written and the returned store is backed by it
        (memory-mapped); without, the store lives in memory.  A row
        holding a negative symbol index is rejected: no miner could
        read the packed result.
        """
        ids: List[int] = []
        lengths: List[int] = []
        rows: List[np.ndarray] = []
        for sid, seq in database.scan():
            seq = np.asarray(seq, dtype=np.int32)
            ids.append(int(sid))
            lengths.append(seq.size)
            rows.append(seq)
        if not rows:
            raise SequenceDatabaseError(
                "cannot pack an empty database"
            )
        id_array = np.asarray(ids, dtype=np.int64)
        if len(set(ids)) != len(ids):
            raise SequenceDatabaseError("sequence ids must be unique")
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        if 0 in lengths:
            raise SequenceDatabaseError("empty sequences are not allowed")
        symbols = np.concatenate(rows).astype(np.int32, copy=False)
        negative = np.flatnonzero(symbols < 0)
        if negative.size:
            row = int(np.searchsorted(offsets, negative[0], side="right")) - 1
            raise SequenceDatabaseError(
                f"sequence {ids[row]} holds negative symbol index "
                f"{int(symbols[negative[0]])} (symbol indices must be >= 0)"
            )
        max_symbol = int(symbols.max())
        store = cls(id_array, offsets, symbols, max_symbol=max_symbol)
        if path is not None:
            store.save(path)
            return cls.open(path)
        return store

    def save(self, path: Union[str, os.PathLike]) -> None:
        """Write the store to *path* in the packed binary format."""
        self._require_open()
        path = os.fspath(path)
        with open(path, "wb") as handle:
            self.write(handle)
        self._path = path

    def write(self, handle: BinaryIO) -> None:
        """Write the packed binary format to an open binary *handle*."""
        self._require_open()
        header = _HEADER.pack(
            STORE_MAGIC,
            STORE_VERSION,
            0,
            len(self._ids),
            int(self._offsets[-1]),
            self._max_symbol,
            self._digest,
        )
        handle.write(header)
        handle.write(np.ascontiguousarray(self._id_array).tobytes())
        handle.write(np.ascontiguousarray(self._offsets).tobytes())
        handle.write(np.ascontiguousarray(self._symbols).tobytes())

    @classmethod
    def open(cls, path: Union[str, os.PathLike]) -> "PackedSequenceStore":
        """Memory-map a packed store file; O(N) header validation only.

        Raises :class:`SequenceDatabaseError` on a missing file, foreign
        or corrupt header, truncated payload, or an empty store.
        """
        path = os.fspath(path)
        if not os.path.exists(path):
            raise SequenceDatabaseError(f"no such packed store: {path}")
        size = os.path.getsize(path)
        if size < HEADER_BYTES:
            raise SequenceDatabaseError(
                f"{path}: truncated packed store header "
                f"({size} bytes, need {HEADER_BYTES})"
            )
        with open(path, "rb") as handle:
            raw = handle.read(HEADER_BYTES)
        magic, version, _reserved, n, total, max_symbol, digest = (
            _HEADER.unpack(raw)
        )
        if magic != STORE_MAGIC:
            raise SequenceDatabaseError(
                f"{path}: not a packed sequence store (bad magic)"
            )
        if version != STORE_VERSION:
            raise SequenceDatabaseError(
                f"{path}: unsupported packed store version {version} "
                f"(this build reads version {STORE_VERSION})"
            )
        if n == 0:
            raise SequenceDatabaseError(f"{path} contains no sequences")
        expected = HEADER_BYTES + 8 * n + 8 * (n + 1) + 4 * total
        if size != expected:
            raise SequenceDatabaseError(
                f"{path}: truncated or corrupt packed store "
                f"({size} bytes, header promises {expected})"
            )
        # The base-class ndarray view over the mapping matters: slicing
        # a np.memmap subclass pays ~15x the cost of a plain ndarray
        # slice (subclass __getitem__ + __array_finalize__ per row),
        # which would dominate a chunked scan of short sequences.  The
        # view keeps the mapping alive through its .base chain.
        buffer = np.asarray(np.memmap(path, dtype=np.uint8, mode="r"))
        ids_end = HEADER_BYTES + 8 * n
        offsets_end = ids_end + 8 * (n + 1)
        ids = buffer[HEADER_BYTES:ids_end].view(np.dtype("<i8"))
        offsets = buffer[ids_end:offsets_end].view(np.dtype("<i8"))
        symbols = buffer[offsets_end:].view(np.dtype("<i4"))
        if int(offsets[0]) != 0 or int(offsets[-1]) != total:
            raise SequenceDatabaseError(
                f"{path}: corrupt offsets table (bounds do not match header)"
            )
        if not np.all(np.diff(offsets) > 0):
            raise SequenceDatabaseError(
                f"{path}: corrupt offsets table (offsets must be strictly "
                "increasing; empty sequences are not allowed)"
            )
        return cls(
            ids,
            offsets,
            symbols,
            max_symbol=max_symbol,
            path=path,
            digest=digest,
        )

    # -- integrity ------------------------------------------------------------

    @property
    def digest(self) -> str:
        """Hex blake2b-16 digest of the ids+offsets+symbols payload."""
        return self._digest.hex()

    def verify(self) -> None:
        """Recompute the content digest; raise on mismatch.

        :meth:`open` only checks the header and section sizes — this is
        the full O(total_symbols) integrity pass.
        """
        self._require_open()
        actual = _payload_digest(self._id_array, self._offsets, self._symbols)
        if actual != self._digest:
            raise SequenceDatabaseError(
                f"{self._path or '<memory>'}: packed store content digest "
                f"mismatch (header {self._digest.hex()}, payload "
                f"{actual.hex()})"
            )

    # -- lifecycle ------------------------------------------------------------

    def _release(self) -> None:
        """Drop the store's buffers (and, for a file-backed store, the
        memory mapping once no row views outlive it).

        The ids/offsets/symbols arrays are views into one mapped
        buffer; dropping the store's references lets CPython unmap the
        file as soon as the last externally-held row view dies, and
        there is no window where a caller can read through a stale
        mapping.  Metadata (``len``, ``digest``, ``path``,
        ``total_symbols``) stays readable, which is what cache eviction
        logging needs.
        """
        self._total_symbols = int(self._offsets[-1])
        self._id_array = None
        self._offsets = None
        self._symbols = None
        self._id_index = None

    # -- the scan contract ----------------------------------------------------

    @property
    def path(self) -> Optional[str]:
        return self._path

    def _blocks(
        self, chunk_rows: int
    ) -> Iterator[Tuple[SequenceChunk, int]]:
        """Zero-copy blocks; payload bytes come from the offsets table."""
        offsets = self._offsets
        symbols = self._symbols
        n_rows = len(self._ids)
        for start in range(0, n_rows, chunk_rows):
            stop = min(start + chunk_rows, n_rows)
            rows = [
                symbols[int(offsets[i]):int(offsets[i + 1])]
                for i in range(start, stop)
            ]
            yield (
                SequenceChunk(self._ids[start:stop], rows),
                4 * int(offsets[stop] - offsets[start]),
            )

    def rows_slice(self, row_start: int, row_stop: int) -> List[np.ndarray]:
        """Zero-copy row views for ``[row_start, row_stop)``.

        Partial access for external executors (worker pools); like
        :meth:`sequence`, it is *not* counted as a pass — the dispatching
        side accounts for the logical full pass.
        """
        self._require_open()
        offsets = self._offsets
        symbols = self._symbols
        return [
            symbols[int(offsets[i]):int(offsets[i + 1])]
            for i in range(row_start, row_stop)
        ]

    def shard_layout(
        self,
    ) -> Optional[List[Tuple[str, str, int, np.ndarray]]]:
        """Shardable description of this store for a counting tier.

        Returns a single ``(path, digest, n_rows, offsets)`` part for a
        file-backed store — the offsets table lets the dispatcher weigh
        shard bounds by symbol count — or ``None`` when there is no
        path to ship to workers.  Pure metadata: consumes no scan and
        charges no I/O (see :meth:`begin_external_pass`).
        """
        self._require_open()
        if self._path is None:
            return None
        return [(self._path, self.digest, len(self._ids), self._offsets)]

    # -- metadata -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def ids(self) -> Tuple[int, ...]:
        return tuple(self._ids)

    def sequence(self, sequence_id: int) -> np.ndarray:
        """Fetch one row view by id (not counted as a scan)."""
        self._require_open()
        if self._id_index is None:
            self._id_index = {
                sid: index for index, sid in enumerate(self._ids)
            }
        try:
            index = self._id_index[int(sequence_id)]
        except KeyError:
            raise SequenceDatabaseError(
                f"no sequence with id {sequence_id}"
            ) from None
        return self._symbols[
            int(self._offsets[index]):int(self._offsets[index + 1])
        ]

    def total_symbols(self) -> int:
        """Total number of symbol occurrences (from the header)."""
        if self._closed:
            return self._total_symbols
        return int(self._offsets[-1])

    def max_symbol(self) -> int:
        """Largest symbol index present (from the header)."""
        return self._max_symbol

    def __repr__(self) -> str:
        backing = self._path or "<memory>"
        return (
            f"PackedSequenceStore({backing!r}, N={len(self)}, "
            f"symbols={self.total_symbols()}, scans={self._scan_count})"
        )
