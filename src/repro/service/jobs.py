"""Job model and the warm-state mining service behind the HTTP layer.

:class:`MiningService` is the daemon's engine room, usable directly
in-process (the tests and ``scripts/smoke_service.py`` do) or behind
:mod:`repro.service.server`.  One service instance owns:

* a :class:`~repro.service.cache.StoreCache` of open stores (packed
  files and segmented directories) with per-store engines and a warm
  resident evaluator;
* a :class:`~repro.service.cache.ResultMemo` keyed by
  ``(store digest, canonical config key)`` — for segmented stores the
  digest is the manifest digest, so appends invalidate by
  construction;
* a registry of :class:`Job` objects and a pool of worker threads
  draining a FIFO queue.

Every job runs with a live, thread-safe
:class:`~repro.obs.Tracer`, so its phase progress can be snapshotted
over HTTP while it runs and its final
:class:`~repro.obs.RunReport` lands in the result payload — extended
with the daemon's own warm-state counters (``store_cache_hits`` /
``store_cache_misses`` / ``result_memo_hits``).

Concurrency contract: worker threads mutate a job's
state/error/result only through the ``mark_*`` methods, which hold
the per-job lock and maintain the invariants HTTP readers rely on —
``FAILED`` is never observable without its ``error``, ``DONE`` never
without its ``result``, and a terminal state always carries
``finished_at``.  Store entries are refcount-pinned for the duration
of ``_run`` so cache eviction can never unmap a store mid-scan.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from ..config import SAMPLING_ALGORITHMS, MiningConfig, json_payload
from ..core.sequence import SequenceDatabase, require_integers
from ..engine import VectorizedBatchEngine
from ..errors import NoisyMineError, SequenceDatabaseError, ServiceError
from ..io import SegmentedSequenceStore, is_segmented_store
from ..obs import (
    RESULT_MEMO_HITS,
    STORE_CACHE_HITS,
    STORE_CACHE_MISSES,
    Tracer,
)
from .cache import (
    DEFAULT_MEMO_ENTRIES,
    DEFAULT_STORE_CAPACITY,
    ResultMemo,
    StoreCache,
)

#: Default worker-thread count for a service instance.
DEFAULT_WORKERS = 2

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

JOB_STATES = (QUEUED, RUNNING, DONE, FAILED)

#: The error recorded on jobs still queued when the service shuts down.
SHUTDOWN_ERROR = "service shut down"


def _inline_digest(database: SequenceDatabase) -> str:
    """Content digest of an inline database, row-compatible with the
    packed store's payload digest role (memo key component only)."""
    digest = hashlib.blake2b(digest_size=16)
    for sid in database.ids:
        row = np.ascontiguousarray(
            np.asarray(database.sequence(sid), dtype=np.int64)
        )
        digest.update(int(sid).to_bytes(8, "little", signed=True))
        digest.update(len(row).to_bytes(8, "little"))
        digest.update(row.tobytes())
    return "inline-" + digest.hexdigest()


@dataclass
class Job:
    """One submitted mining job and everything observable about it.

    Worker threads write ``state``/``error``/``result``/``finished_at``
    through the ``mark_*`` methods; HTTP handler threads read through
    :meth:`status_dict` / :meth:`result_dict`.  Both sides take the
    per-job ``lock``, so a reader can never observe a torn transition
    (``FAILED`` with ``error=None``, ``DONE`` with ``result=None``).
    """

    id: str
    config: MiningConfig
    store_path: Optional[str] = None
    database: Optional[SequenceDatabase] = None
    state: str = QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    store_digest: Optional[str] = None
    memo_hit: bool = False
    error: Optional[str] = None
    tracer: Tracer = field(default_factory=Tracer)
    result: Optional[dict] = None
    lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    # -- state transitions (worker side) --------------------------------------

    def mark_running(self) -> bool:
        """QUEUED → RUNNING; ``False`` when the job already reached a
        terminal state (e.g. failed by shutdown while queued)."""
        with self.lock:
            if self.state != QUEUED:
                return False
            self.state = RUNNING
            self.started_at = time.time()
            return True

    def mark_done(self, result: dict, memo_hit: bool = False) -> None:
        with self.lock:
            self.result = result
            self.memo_hit = memo_hit
            self.state = DONE
            self.finished_at = time.time()

    def mark_failed(self, error: str) -> bool:
        """Record a failure; ``False`` if the job already ended."""
        with self.lock:
            if self.state in (DONE, FAILED):
                return False
            self.error = error
            self.state = FAILED
            self.finished_at = time.time()
            return True

    # -- wire forms (handler side) --------------------------------------------

    def status_dict(self) -> Dict[str, object]:
        """The wire form of ``GET /jobs/<id>``: state plus live phase
        progress from the job's tracer."""
        with self.lock:
            snapshot = {
                "id": self.id,
                "state": self.state,
                "submitted_at": self.submitted_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "store_digest": self.store_digest,
                "memo_hit": self.memo_hit,
                "error": self.error,
                "config": self.config.to_dict(),
            }
        # The tracer is internally thread-safe; snapshotting outside
        # the job lock keeps status reads from blocking on a worker
        # that is mid-transition.
        snapshot["progress"] = self.tracer.snapshot()
        return snapshot

    def result_dict(self) -> Dict[str, object]:
        """The wire form of ``GET /jobs/<id>/result``."""
        with self.lock:
            if self.state != DONE:
                raise ServiceError(
                    f"job {self.id} has no result (state: {self.state}"
                    + (f", error: {self.error}" if self.error else "")
                    + ")"
                )
            return {
                "id": self.id,
                "state": self.state,
                "store_digest": self.store_digest,
                "memo_hit": self.memo_hit,
                "result": self.result,
            }


class MiningService:
    """Long-lived mining executor with warm state across jobs.

    Parameters
    ----------
    workers:
        Worker threads draining the job queue; jobs on different
        stores run concurrently, jobs on the same store serialise on
        the store entry's lock.
    store_capacity / memo_entries:
        LRU capacities of the store cache and the result memo.
    """

    def __init__(
        self,
        workers: int = DEFAULT_WORKERS,
        store_capacity: int = DEFAULT_STORE_CAPACITY,
        memo_entries: int = DEFAULT_MEMO_ENTRIES,
    ):
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        self.stores = StoreCache(store_capacity)
        self.memo = ResultMemo(memo_entries)
        self.started_at = time.time()
        self._jobs: Dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue()
        self._ids = itertools.count(1)
        self._workers: List[threading.Thread] = []
        self._stopped = False
        for index in range(workers):
            thread = threading.Thread(
                target=self._worker, name=f"noisymine-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._workers.append(thread)

    # -- submission -----------------------------------------------------------

    def submit(
        self,
        config: Union[MiningConfig, Mapping[str, object]],
        store: Optional[str] = None,
        database: Optional[Sequence[Sequence[int]]] = None,
        ids: Optional[Sequence[int]] = None,
    ) -> Job:
        """Queue one mining job over a store path or an inline database.

        Exactly one of *store* / *database* must be given.  The store
        path must name a packed store file or a segmented store
        directory (the warm cache maps both; text inputs should be
        converted once with ``noisymine convert``).  Raises
        :class:`ServiceError` on a malformed request; config
        validation errors propagate as :class:`NoisyMineError`.
        """
        if self._stopped:
            raise ServiceError("service is shut down")
        if (store is None) == (database is None):
            raise ServiceError(
                "submit exactly one of 'store' (path) or 'database' "
                "(inline rows)"
            )
        if not isinstance(config, MiningConfig):
            config = MiningConfig.from_dict(config)
        if store is not None:
            if not isinstance(store, (str, os.PathLike)):
                raise ServiceError(
                    "'store' must be a path string, got "
                    f"{type(store).__name__} {store!r}"
                )
            store = os.path.abspath(os.fspath(store))
            if not (
                os.path.isfile(store)
                or (os.path.isdir(store) and is_segmented_store(store))
            ):
                raise ServiceError(f"store path does not exist: {store}")
        db = None
        if database is not None:
            try:
                for index, row in enumerate(database):
                    require_integers(row, f"row {index}")
                if ids is not None:
                    require_integers(ids, "'ids'")
                db = SequenceDatabase(database, ids=ids)
            except NoisyMineError:
                raise
            except (TypeError, ValueError, OverflowError) as exc:
                raise ServiceError(
                    f"invalid inline database: {exc}"
                ) from exc
        job = Job(
            id=f"job-{next(self._ids)}",
            config=config,
            store_path=None if store is None else str(store),
            database=db,
        )
        with self._jobs_lock:
            self._jobs[job.id] = job
        self._queue.put(job)
        return job

    def job(self, job_id: str) -> Job:
        with self._jobs_lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job id {job_id!r}")
        return job

    def jobs(self) -> List[Job]:
        with self._jobs_lock:
            return list(self._jobs.values())

    # -- append ---------------------------------------------------------------

    def append_to_store(
        self,
        digest: str,
        database: Sequence[Sequence[int]],
        ids: Optional[Sequence[int]] = None,
    ) -> Dict[str, object]:
        """Append rows to the open segmented store with *digest*.

        The entry stays warm across the append: the existing segment
        mappings, per-store engines and resident pins carry over, and
        the cache is re-keyed to the new manifest digest.  Memoized
        results for the old digest stay valid for the old content (a
        reader that pinned the old manifest still sees it); new jobs
        key on the new digest.  Raises :class:`ServiceError` for an
        unknown digest, a non-segmented store, a rejected append
        (``append rejected: ...``, e.g. an id collision) and malformed
        rows or ids (``invalid append: ...``, e.g. a float symbol).
        """
        if self._stopped:
            raise ServiceError("service is shut down")
        entry = self.stores.entry_by_digest(digest)
        if entry is None:
            raise ServiceError(
                f"no open store with digest {digest!r}; submit a job on "
                "its path first (the cache keys appends by digest)"
            )
        try:
            if not isinstance(entry.store, SegmentedSequenceStore):
                raise ServiceError(
                    f"store {digest} is not segmented: appends need a "
                    "segmented store directory (noisymine convert "
                    "--to segmented)"
                )
            with entry.lock:
                try:
                    segment_digest = entry.store.append(database, ids=ids)
                except SequenceDatabaseError as exc:
                    raise ServiceError(
                        f"append rejected: {exc}"
                    ) from exc
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ServiceError(f"invalid append: {exc}") from exc
                new_digest = entry.store.digest
                self.stores.rekey(entry, new_digest)
            return {
                "previous_digest": digest,
                "store_digest": new_digest,
                "segment_digest": segment_digest,
                "segments": len(entry.store.segments),
                "n_sequences": len(entry.store),
            }
        finally:
            entry.release()

    # -- execution ------------------------------------------------------------

    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            try:
                self._run(job)
            except BaseException as exc:  # noqa: BLE001 - job isolation
                job.mark_failed(f"{type(exc).__name__}: {exc}")
            finally:
                self._queue.task_done()

    def _run(self, job: Job) -> None:
        if not job.mark_running():
            return  # already failed (service shutdown while queued)
        config = job.config
        tracer = job.tracer

        entry = None
        try:
            if job.store_path is not None:
                # acquire() pins the entry: LRU eviction during the run
                # defers the close to our release() below.
                entry, warm = self.stores.acquire(job.store_path)
                job.store_digest = entry.digest
                tracer.count(
                    STORE_CACHE_HITS if warm else STORE_CACHE_MISSES
                )
                n_sequences = len(entry.store)
                if config.alphabet is None and config.matrix is None:
                    config = config.with_overrides(
                        alphabet=entry.store.max_symbol() + 1
                    )
            else:
                job.store_digest = _inline_digest(job.database)
                n_sequences = len(job.database)
                if config.alphabet is None and config.matrix is None:
                    config = config.with_overrides(
                        alphabet=job.database.max_symbol() + 1
                    )
            job.config = config

            memo_key = (job.store_digest, config.to_key())
            if config.memoizable:
                memoized = self.memo.get(memo_key)
                if memoized is not None:
                    tracer.count(RESULT_MEMO_HITS)
                    job.mark_done(memoized, memo_hit=True)
                    return

            if entry is not None:
                # Serialise jobs per store: scan accounting and engine
                # caches are per-entry state.  The database is the warm
                # mmap'd store itself — no re-open, no re-parse.
                with entry.lock:
                    entry.store.reset_scan_count()
                    miner = config.build_miner(
                        n_sequences,
                        engine=entry.engine(),
                        tracer=tracer,
                        sample_engine=(
                            entry.resident_evaluator()
                            if config.algorithm in SAMPLING_ALGORITHMS
                            else None
                        ),
                    )
                    result = miner.mine(entry.store)
            else:
                with VectorizedBatchEngine() as engine:
                    miner = config.build_miner(
                        n_sequences, engine=engine, tracer=tracer,
                    )
                    result = miner.mine(job.database)
        finally:
            if entry is not None:
                entry.release()

        payload = json_payload(config, result, miner.engine.name)
        job.mark_done(payload)
        if config.memoizable:
            self.memo.put(memo_key, payload)

    # -- introspection --------------------------------------------------------

    def healthz(self) -> Dict[str, object]:
        states = {state: 0 for state in JOB_STATES}
        for job in self.jobs():
            with job.lock:
                states[job.state] += 1
        return {
            "status": "ok",
            "uptime_seconds": time.time() - self.started_at,
            "workers": len(self._workers),
            "jobs": states,
            "store_cache": self.stores.stats(),
            "result_memo": self.memo.stats(),
            "resident_planes": self.stores.resident_stats(),
        }

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Shut the service down deterministically.  Idempotent.

        Queued-but-unstarted jobs are drained and marked
        ``FAILED("service shut down")`` — never silently dropped; each
        worker gets exactly one poison pill and is joined with a
        timeout; a worker surviving the join is a bug surfaced as
        :class:`ServiceError` rather than a leaked thread.  Cached
        stores close last (deferred past any still-pinned entry).
        """
        if self._stopped:
            return
        self._stopped = True
        # Drain jobs that no worker has claimed yet.  A worker may race
        # us to the queue; mark_running/mark_failed arbitrate — each
        # job either runs to completion or fails with SHUTDOWN_ERROR,
        # never both.
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                break
            if job is not None:
                job.mark_failed(SHUTDOWN_ERROR)
            self._queue.task_done()
        # One poison pill per worker: each worker consumes exactly one
        # None and exits, so no pill is ever left to starve a join.
        for _ in self._workers:
            self._queue.put(None)
        for thread in self._workers:
            thread.join(timeout=30.0)
        survivors = [t.name for t in self._workers if t.is_alive()]
        self._workers = []
        self.stores.close()
        if survivors:
            raise ServiceError(
                "worker threads survived shutdown: "
                + ", ".join(survivors)
            )

    def __enter__(self) -> "MiningService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


__all__ = [
    "DEFAULT_WORKERS",
    "DONE",
    "FAILED",
    "JOB_STATES",
    "Job",
    "MiningService",
    "QUEUED",
    "RUNNING",
    "SHUTDOWN_ERROR",
]
