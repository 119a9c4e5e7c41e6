"""Warm state for the mining daemon: store cache and result memo.

The whole point of running a daemon instead of a one-shot CLI is that
expensive state survives across jobs:

* :class:`StoreCache` keeps :class:`~repro.io.PackedSequenceStore` and
  :class:`~repro.io.SegmentedSequenceStore` instances memory-mapped
  between requests, keyed by **content digest** — two paths holding
  identical bytes share one mapping.  Every lookup re-peeks the
  store's digest from disk (a 64-byte header read, or the segment
  manifest): a same-size in-place rewrite is recognised immediately,
  a path is never served stale content, and the cached ``stat``
  signature is purely observability.  Each entry also owns per-store
  execution state: a private counting engine, whose factor pin keeps
  the store's factor arrays for the next job when they fit
  :data:`~repro.engine.vectorized.PIN_BYTES` (concurrent jobs on
  different stores never share a pin or worker pool), and one warm
  :class:`~repro.engine.resident.ResidentSampleEvaluator` whose pinned
  sample (and its prefix-stack buffers) carry over to the next job on
  the same store.

  Entries are **refcount-pinned** while a job runs on them
  (:meth:`StoreCache.acquire` / :meth:`StoreEntry.release`): LRU
  eviction of a pinned entry defers the actual ``close()`` until the
  last holder releases, so an mmap'd store can never be unmapped
  under an in-flight scan.

* :class:`ResultMemo` maps ``(store digest, canonical config key)`` to
  a finished job's result payload, so resubmitting an identical job is
  free.  For a segmented store the digest is the **manifest digest**,
  which changes on every append — the memo is delta-aware without any
  invalidation code.  Only deterministic jobs are memoized (the caller
  checks :attr:`repro.config.MiningConfig.memoizable`).

Both caches are LRU with small fixed capacities, thread-safe, and
evict through the owning objects' ``close()`` hooks — an evicted store
entry unmaps its file and shuts down its engine.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple, Union

from ..engine import MatchEngine, VectorizedBatchEngine
from ..engine.resident import ResidentSampleEvaluator
from ..errors import ServiceError
from ..io import (
    MANIFEST_NAME,
    PackedSequenceStore,
    SegmentedSequenceStore,
    peek_manifest_digest,
    peek_store_digest,
)

#: Default number of stores kept open at once.
DEFAULT_STORE_CAPACITY = 4

#: Default number of memoized results.
DEFAULT_MEMO_ENTRIES = 128

AnyStore = Union[PackedSequenceStore, SegmentedSequenceStore]


def peek_path_digest(path: str) -> str:
    """The content digest of a store path of either representation:
    manifest digest for a segmented directory, header digest for a
    packed file."""
    if os.path.isdir(path):
        return peek_manifest_digest(path)
    return peek_store_digest(path)


def open_store_path(path: str) -> AnyStore:
    """Open a store path of either representation."""
    if os.path.isdir(path):
        return SegmentedSequenceStore.open(path)
    return PackedSequenceStore.open(path)


class StoreEntry:
    """One warm store: the open mapping plus its per-store engine.

    ``lock`` serialises jobs on the same store — the scan-count
    bookkeeping on a store (and the engines' pins) is per-instance
    state that two concurrent miners must not interleave.  Jobs on
    *different* entries run fully in parallel.

    Lifetime: the refcount (``acquire()``/``release()``) pins the
    entry while a job uses it.  Eviction while pinned marks the entry
    close-pending instead of closing it; the final ``release()``
    performs the deferred close.  The refcount is guarded by its own
    mutex so release never has to take the job-serialising ``lock``.
    """

    def __init__(self, store: AnyStore):
        self.store = store
        self.digest = store.digest
        self.lock = threading.Lock()
        self.hits = 0
        self._engine: Optional[MatchEngine] = None
        self._resident: Optional[ResidentSampleEvaluator] = None
        self._ref_mutex = threading.Lock()
        self._refcount = 0
        self._close_pending = False
        self._closed = False

    def engine(self) -> MatchEngine:
        """This entry's private counting engine.

        Created on first use (a
        :class:`~repro.engine.VectorizedBatchEngine`) and kept so its
        factor pin and worker pool stay warm for the next job on this
        store.
        """
        if self._engine is None:
            self._engine = VectorizedBatchEngine()
        return self._engine

    def resident_evaluator(self) -> ResidentSampleEvaluator:
        """The entry's warm Phase-2 evaluator (created on first use).

        Its pin is keyed by sample content, so a second job with the
        same (seed, sample_size, matrix) skips the factor-array build
        entirely and reuses the pin's stack buffers; a different sample
        transparently re-pins.
        """
        if self._resident is None:
            self._resident = ResidentSampleEvaluator()
        return self._resident

    @property
    def resident_repins(self) -> int:
        """Times the warm evaluator had to (re)build its pin; a warm
        job on an unchanged sample does not increment this."""
        return self._resident.repins if self._resident is not None else 0

    def resident_stats(self) -> Optional[Dict[str, int]]:
        """Warm-state counters of the entry's Phase-2 evaluator, or
        ``None`` when no resident job has touched this store yet."""
        resident = self._resident
        if resident is None:
            return None
        return {
            "plane_hits": resident.planes.hits,
            "plane_misses": resident.planes.misses,
            "plane_bytes": resident.planes.nbytes,
            "repins": resident.repins,
        }

    # -- pinning --------------------------------------------------------------

    @property
    def refcount(self) -> int:
        with self._ref_mutex:
            return self._refcount

    @property
    def close_pending(self) -> bool:
        with self._ref_mutex:
            return self._close_pending

    def _acquire(self) -> None:
        """Pin the entry (called by :meth:`StoreCache.acquire` under
        the cache lock, so pin-vs-evict is ordered)."""
        with self._ref_mutex:
            if self._closed:
                raise ServiceError(
                    f"store entry {self.digest} is closed"
                )
            self._refcount += 1

    def release(self) -> None:
        """Drop one pin; performs a deferred eviction close when this
        was the last holder of a close-pending entry."""
        with self._ref_mutex:
            if self._refcount <= 0:
                raise ServiceError(
                    f"store entry {self.digest} released more times "
                    "than acquired"
                )
            self._refcount -= 1
            should_close = self._refcount == 0 and self._close_pending
        if should_close:
            with self.lock:
                self._close_now()

    def close_or_defer(self) -> bool:
        """Close now if unpinned, else mark close-pending.

        Returns ``True`` when the entry was closed immediately.  The
        caller must not hold the cache lock (close waits on the entry's
        job lock).
        """
        with self._ref_mutex:
            if self._refcount > 0:
                self._close_pending = True
                return False
        with self.lock:
            self._close_now()
        return True

    def close(self) -> None:
        """Unconditional close (tests / direct use); daemon paths go
        through :meth:`close_or_defer` + :meth:`release`."""
        self._close_now()

    def _close_now(self) -> None:
        with self._ref_mutex:
            if self._closed:
                return
            self._closed = True
        if self._engine is not None:
            self._engine.close()
            self._engine = None
        if self._resident is not None:
            self._resident.close()
            self._resident = None
        self.store.close()


class StoreCache:
    """Digest-keyed LRU of open sequence stores.

    ``get(path)`` / ``acquire(path)`` are the lookups: both peek the
    store's on-disk digest (64-byte header or segment manifest — never
    trusting a ``stat`` signature, which misses same-size rewrites
    within mtime granularity) and return the live entry for that
    content, opening the store only on a genuine miss.  ``acquire``
    additionally pins the entry; eviction defers closing pinned
    entries to the final ``release()``, so the mmap count stays
    bounded without ever unmapping a store under a running job.
    """

    def __init__(self, capacity: int = DEFAULT_STORE_CAPACITY):
        if capacity < 1:
            raise ValueError(f"store cache capacity must be >= 1, got "
                             f"{capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, StoreEntry]" = OrderedDict()
        #: abspath -> (digest, mtime_ns, size) of the last open/peek
        #: (observability only — the digest is re-peeked every lookup).
        self._paths: Dict[str, Tuple[str, int, int]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, path: str) -> Tuple[StoreEntry, bool]:
        """The warm entry for *path*: ``(entry, was_hit)``, unpinned."""
        return self._lookup(path, pin=False)

    def acquire(self, path: str) -> Tuple[StoreEntry, bool]:
        """The warm entry for *path*, pinned: ``(entry, was_hit)``.

        The caller owns one reference and must call
        :meth:`StoreEntry.release` when done (jobs do so in a
        ``finally``).  Pinning happens under the cache lock, so an
        entry can never be evicted-and-closed between lookup and pin.
        """
        return self._lookup(path, pin=True)

    def _lookup(self, path: str, pin: bool) -> Tuple[StoreEntry, bool]:
        path = os.path.abspath(os.fspath(path))
        stat_path = (
            os.path.join(path, MANIFEST_NAME)
            if os.path.isdir(path) else path
        )
        stat = os.stat(stat_path)
        signature = (stat.st_mtime_ns, stat.st_size)
        # Always re-peek the on-disk digest: a same-size in-place
        # rewrite within mtime granularity leaves (mtime_ns, size)
        # unchanged, and serving the cached digest would mine stale
        # content.  The peek is a 64-byte read (or one small manifest),
        # which is noise next to a mining job.
        digest = peek_path_digest(path)
        evicted = []
        with self._lock:
            self._paths[path] = (digest, *signature)
            entry = self._entries.get(digest)
            if entry is not None:
                self._entries.move_to_end(digest)
                entry.hits += 1
                self.hits += 1
                if pin:
                    entry._acquire()
                return entry, True
            entry = StoreEntry(open_store_path(path))
            self._entries[entry.digest] = entry
            self._paths[path] = (entry.digest, *signature)
            self.misses += 1
            if pin:
                entry._acquire()
            while len(self._entries) > self.capacity:
                _digest, old = self._entries.popitem(last=False)
                self.evictions += 1
                evicted.append(old)
        # Close outside the cache lock: an evicted entry may still be
        # mid-job; close_or_defer() leaves pinned entries open until
        # their last release() and never stalls unrelated lookups.
        for old in evicted:
            old.close_or_defer()
        return entry, False

    def entry_by_digest(self, digest: str) -> Optional[StoreEntry]:
        """The open entry with the given content digest, pinned — or
        ``None``.  The caller must ``release()`` a returned entry."""
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None:
                return None
            self._entries.move_to_end(digest)
            entry._acquire()
            return entry

    def rekey(self, entry: StoreEntry, new_digest: str) -> None:
        """Re-index *entry* after its store's content changed (append).

        The entry stays warm — engines, resident planes and the mmap'd
        segments carry over; only the cache key and any path aliases
        move to the new digest.
        """
        with self._lock:
            old_digest = entry.digest
            if self._entries.get(old_digest) is entry:
                del self._entries[old_digest]
            entry.digest = new_digest
            self._entries[new_digest] = entry
            self._entries.move_to_end(new_digest)
            for path, (digest, mtime, size) in list(self._paths.items()):
                if digest == old_digest:
                    self._paths[path] = (new_digest, mtime, size)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            pinned = sum(
                1 for e in self._entries.values() if e.refcount > 0
            )
            return {
                "open_stores": len(self._entries),
                "pinned_stores": pinned,
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def resident_stats(self) -> Dict[str, int]:
        """Aggregate resident warm-state across every open store.

        Sums the prefix-stack traffic, stack buffer bytes and re-pins
        of each entry's warm evaluator; ``evaluators`` counts the
        entries a resident job has actually touched.  The daemon's
        ``/healthz`` surfaces this as ``resident_planes``.
        """
        with self._lock:
            per_entry = [
                stats
                for e in self._entries.values()
                if (stats := e.resident_stats()) is not None
            ]
        aggregate = {
            "evaluators": len(per_entry),
            "plane_hits": 0,
            "plane_misses": 0,
            "plane_bytes": 0,
            "repins": 0,
        }
        for stats in per_entry:
            for key, value in stats.items():
                aggregate[key] += value
        return aggregate

    def close(self) -> None:
        """Close every cached store (daemon shutdown).

        Pinned entries (a job still running during shutdown) are
        deferred to their final ``release()`` like any eviction.
        """
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
            self._paths.clear()
        for entry in entries:
            entry.close_or_defer()


class ResultMemo:
    """LRU of finished job payloads keyed by
    ``(store digest, canonical config key)``.

    Segmented stores key by manifest digest, so every append starts a
    fresh memo lineage automatically.
    """

    def __init__(self, max_entries: int = DEFAULT_MEMO_ENTRIES):
        if max_entries < 0:
            raise ValueError(
                f"memo capacity must be >= 0, got {max_entries}"
            )
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[str, str], dict]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Tuple[str, str]) -> Optional[dict]:
        with self._lock:
            payload = self._entries.get(key)
            if payload is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return payload

    def put(self, key: Tuple[str, str], payload: dict) -> None:
        if self.max_entries == 0:
            return
        with self._lock:
            self._entries[key] = payload
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
            }


__all__ = [
    "DEFAULT_MEMO_ENTRIES",
    "DEFAULT_STORE_CAPACITY",
    "ResultMemo",
    "StoreCache",
    "StoreEntry",
    "open_store_path",
    "peek_path_digest",
]
