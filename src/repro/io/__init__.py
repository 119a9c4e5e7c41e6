"""I/O subsystem: out-of-core packed sequence storage and chunked scans.

:class:`PackedSequenceStore` is the disk-resident scan backend — all
symbols in one memory-mapped ``int32`` buffer, rows delivered as
zero-copy views — and :class:`SegmentedSequenceStore` an append-only
log of such buffers.  Both implement the scan contract
(:class:`CountedScanDatabase`, yielding :class:`SequenceChunk` blocks),
which lives in :mod:`repro.core.sequence` so the core backends share it
without a circular import; it is re-exported here as the public face
of the streaming-scan API.
"""

from ..core.sequence import (
    DEFAULT_SCAN_CHUNK_ROWS,
    CountedScanDatabase,
    SequenceChunk,
)
from .atomic import atomic_write
from .packed import (
    HEADER_BYTES,
    STORE_MAGIC,
    STORE_VERSION,
    PackedSequenceStore,
    is_packed_store,
    peek_store_digest,
)
from .segments import (
    MANIFEST_NAME,
    SegmentedSequenceStore,
    is_segmented_store,
    manifest_digest,
    peek_manifest_digest,
)

__all__ = [
    "CountedScanDatabase",
    "DEFAULT_SCAN_CHUNK_ROWS",
    "HEADER_BYTES",
    "MANIFEST_NAME",
    "PackedSequenceStore",
    "STORE_MAGIC",
    "STORE_VERSION",
    "SegmentedSequenceStore",
    "SequenceChunk",
    "atomic_write",
    "is_packed_store",
    "is_segmented_store",
    "manifest_digest",
    "peek_manifest_digest",
    "peek_store_digest",
]
