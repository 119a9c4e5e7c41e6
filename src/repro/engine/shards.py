"""Sharded scatter-gather counting: manifests, tasks, worker pool.

With more than one worker,
:class:`~repro.engine.vectorized.VectorizedBatchEngine` runs a counted
scan as a scatter-gather: the store is described by a
:class:`ShardManifest` — an ordered list of digest-addressed
``(path, digest, row_range, symbol_count)`` shard specs — each spec
becomes a :class:`ShardTask` run by a fork pool, and the partial sums
are merged deterministically regardless of which shard finishes first.

Design invariants, in order of importance:

1. **Bit-identical totals for any shard count and any completion
   order.**  Shard boundaries always fall on the *block grid* — the
   ``chunk_rows``-sized chunk boundaries the serial scan uses,
   anchored at row 0 of each backing file — and workers return
   **per-block** partial sums computed by the serial scan's own block
   kernel (:func:`~repro.engine.kernels.block_totals`).  The scheduler
   adds blocks in global block order, which is exactly the
   accumulation order of the serial chunked scan.  So the merged totals
   are bit-identical to one worker at equal ``chunk_rows``, whether
   the manifest holds 2 shards or 64, and whether shard 7 finishes
   before shard 0 or after.
2. **Plain-data worker protocol.**  :class:`ShardTask` and
   :class:`ShardResult` are picklable dataclasses and
   :func:`execute_shard_task` is a pure function of ``(task, extended
   matrix)``; the dispatch is any callable from tasks to
   results in completion order (the pool's ``imap_unordered`` in
   production, reordering or failing fakes in the tests).
3. **Work-stealing dispatch.**  The manifest is oversplit into
   :data:`OVERSPLIT` tasks per worker and dispatched
   ``imap_unordered`` with a chunk size of one, so every idle worker
   pulls the next task from the shared queue — a skewed shard slows
   down one worker, not the whole pass.  Bounds are weighted by
   **symbol count** (from the stores' offsets tables), not raw row
   count, so a store whose long sequences cluster at one end still
   splits into equal-work shards.

Worker-local state
------------------
Workers memory-map each referenced store file once and cache it by
path, re-opening only when a task's content digest no longer matches
(the file was rewritten).  The extended compatibility matrix is
installed once per pool via :func:`init_worker`.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import MiningError
from .kernels import (
    DATABASE_TOTALS,
    SYMBOL_TOTALS,
    block_totals,
    group_plans,
    pad_chunk,
)

#: Environment variable setting the worker count of a run.
WORKERS_ENV_VAR = "NOISYMINE_WORKERS"

#: Below this many sequences per shard, sharding costs more than it
#: saves.
MIN_SHARD_ROWS = 64

#: Work-stealing oversplit: tasks per worker.  Around 2-4x keeps the
#: steal queue deep enough to absorb a skewed shard without drowning
#: the pass in per-task dispatch overhead; merged totals are
#: bit-identical for any value.
OVERSPLIT = 3


def resolve_worker_count(requested: Optional[int] = None) -> int:
    """Resolve the worker count of a run.

    An explicit *requested* value wins, then the ``NOISYMINE_WORKERS``
    environment variable, then ``1``: a single process unless the user
    asks for more.  Both sources must be ``>= 1``.
    """
    if requested is not None:
        if requested < 1:
            raise MiningError(f"workers must be >= 1, got {requested}")
        return requested
    env = os.environ.get(WORKERS_ENV_VAR)
    if not env:
        return 1
    try:
        value = int(env)
    except ValueError:
        raise MiningError(
            f"{WORKERS_ENV_VAR} must be a positive integer, got {env!r}"
        ) from None
    if value < 1:
        raise MiningError(f"{WORKERS_ENV_VAR} must be >= 1, got {value}")
    return value


# -- manifest ------------------------------------------------------------------


@dataclass(frozen=True)
class ShardSpec:
    """One digest-addressed slice of a store: the unit of dispatch.

    ``path``/``digest`` name the immutable packed file the rows live in
    (``None`` for inline tasks whose rows travel with the task);
    ``row_start``/``row_stop`` are row bounds *within that file*, always
    aligned to the manifest's block grid; ``symbol_count`` is the exact
    number of symbols in the range — the weight the balancer used and
    the byte accounting the worker reports.
    """

    index: int
    path: Optional[str]
    digest: Optional[str]
    row_start: int
    row_stop: int
    symbol_count: int

    @property
    def n_rows(self) -> int:
        return self.row_stop - self.row_start


@dataclass(frozen=True)
class ShardManifest:
    """An ordered, weighted split of one store into dispatchable shards.

    Both disk backends produce one: :class:`~repro.io.PackedSequenceStore`
    yields row-range splits of its single file, and
    :class:`~repro.io.SegmentedSequenceStore` yields one or more specs
    per immutable segment (a shard never spans two mapped files).
    ``store_digest`` is the content identity of the whole store, so a
    manifest can be checked against the store it was cut from.
    """

    specs: Tuple[ShardSpec, ...]
    chunk_rows: int
    n_rows: int
    n_blocks: int
    total_symbols: int
    store_digest: Optional[str] = None

    def __len__(self) -> int:
        return len(self.specs)


def _weighted_cuts(weights: Sequence[int], n_tasks: int) -> List[int]:
    """Contiguous partition of *weights* into *n_tasks* runs of
    near-equal total weight; returns ``n_tasks + 1`` boundaries.

    Greedy threshold walk: cut ``k`` lands after the first block whose
    cumulative weight reaches ``total * k / n_tasks``, with a guard
    that always leaves at least one block for every remaining task.
    """
    n = len(weights)
    if n_tasks >= n:
        return list(range(n + 1))
    total = sum(weights)
    cuts = [0]
    cum = 0
    for i, weight in enumerate(weights):
        cum += weight
        k = len(cuts)  # index of the cut we are looking for
        if k >= n_tasks:
            break
        remaining_blocks = n - (i + 1)
        remaining_cuts = n_tasks - k
        if cum * n_tasks >= total * k or remaining_blocks <= remaining_cuts:
            cuts.append(i + 1)
    while len(cuts) < n_tasks:
        cuts.append(n)  # pragma: no cover - guard above prevents this
    cuts.append(n)
    return cuts


def manifest_from_layout(
    parts: Sequence[Tuple[Optional[str], Optional[str], int, np.ndarray]],
    chunk_rows: int,
    target_tasks: int,
    min_shard_rows: int = 1,
    store_digest: Optional[str] = None,
) -> ShardManifest:
    """Cut a store layout into a weighted, block-aligned manifest.

    *parts* is what the stores' ``shard_layout()`` returns: one
    ``(path, digest, n_rows, offsets)`` tuple per backing file, in scan
    order (the packed store has one; the segmented store one per
    segment).  Blocks are ``chunk_rows`` rows anchored at row 0 of each
    part; tasks are contiguous block runs balanced by symbol count and
    split at part boundaries, so every spec addresses one file.
    """
    if chunk_rows < 1:
        raise MiningError(f"chunk_rows must be >= 1, got {chunk_rows}")
    blocks: List[Tuple[int, int, int, int]] = []  # (part, start, stop, w)
    total_rows = 0
    total_symbols = 0
    for part_index, (_path, _digest, n_rows, offsets) in enumerate(parts):
        base = int(offsets[0])
        for start in range(0, n_rows, chunk_rows):
            stop = min(start + chunk_rows, n_rows)
            weight = int(offsets[stop]) - int(offsets[start])
            blocks.append((part_index, start, stop, weight))
        total_rows += n_rows
        total_symbols += int(offsets[n_rows]) - base
    if not blocks:
        raise MiningError("cannot build a shard manifest over zero rows")
    n_tasks = min(
        len(blocks),
        max(1, target_tasks),
        max(1, total_rows // max(1, min_shard_rows)),
    )
    cuts = _weighted_cuts([b[3] for b in blocks], n_tasks)
    specs: List[ShardSpec] = []
    for run_start, run_stop in zip(cuts[:-1], cuts[1:]):
        run = blocks[run_start:run_stop]
        if not run:
            continue
        # Split the run at part boundaries: a spec never spans files.
        piece_start = 0
        for j in range(1, len(run) + 1):
            if j == len(run) or run[j][0] != run[piece_start][0]:
                part_index = run[piece_start][0]
                path, digest, _n, _offsets = parts[part_index]
                specs.append(
                    ShardSpec(
                        index=len(specs),
                        path=path,
                        digest=digest,
                        row_start=run[piece_start][1],
                        row_stop=run[j - 1][2],
                        symbol_count=sum(b[3] for b in run[piece_start:j]),
                    )
                )
                piece_start = j
    return ShardManifest(
        specs=tuple(specs),
        chunk_rows=chunk_rows,
        n_rows=total_rows,
        n_blocks=len(blocks),
        total_symbols=total_symbols,
        store_digest=store_digest,
    )


def manifest_from_store(
    store,
    chunk_rows: int,
    target_tasks: int,
    min_shard_rows: int = 1,
) -> Optional[ShardManifest]:
    """The manifest of a file-backed store, or ``None`` when the store
    cannot produce one (no ``shard_layout`` hook, or not file-backed).

    Pure metadata: reads only the offsets tables, consumes no scan —
    the dispatcher charges the one logical pass when it actually
    dispatches (``begin_external_pass``).
    """
    layout = getattr(store, "shard_layout", None)
    if layout is None:
        return None
    parts = layout()
    if parts is None:
        return None
    return manifest_from_layout(
        parts,
        chunk_rows,
        target_tasks,
        min_shard_rows,
        store_digest=getattr(store, "digest", None),
    )


def manifest_from_rows(
    rows: Sequence[np.ndarray],
    chunk_rows: int,
    target_tasks: int,
    min_shard_rows: int = 1,
) -> ShardManifest:
    """A manifest over already-materialised rows (shipped with tasks).

    Used for in-memory databases: the same block grid and weighted
    bounds as the file-backed path, but specs carry no path — the
    dispatcher slices the rows into each task instead.
    """
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    return manifest_from_layout(
        [(None, None, len(rows), offsets)],
        chunk_rows,
        target_tasks,
        min_shard_rows,
    )


# -- the worker protocol -------------------------------------------------------


@dataclass(frozen=True)
class ShardTask:
    """One unit of counted-scan work: a shard spec plus the evaluation
    payload.  Plain picklable data — no live objects.
    """

    spec: ShardSpec
    kind: str
    chunk_rows: int
    groups: Optional[Dict[int, List[int]]] = None
    elements_by_span: Optional[Dict[int, np.ndarray]] = None
    n_patterns: int = 0
    #: Inline row payload for tasks over in-memory databases; ``None``
    #: for file-backed shards, which workers memory-map themselves.
    rows: Optional[List[np.ndarray]] = None


@dataclass(frozen=True)
class ShardResult:
    """One shard's partial result plus its per-shard counters.

    ``block_totals`` has one row per block of the shard, in block
    order — the granularity the deterministic merge needs.
    """

    index: int
    n_rows: int
    block_totals: np.ndarray
    scan_seconds: float
    io_bytes: int
    worker_id: int


#: A dispatch: runs tasks and yields their results in completion order.
Dispatch = Callable[[Sequence[ShardTask]], Iterable[ShardResult]]

#: The extended matrix installed by :func:`init_worker`.
_WORKER_MATRIX: Optional[np.ndarray] = None

#: Worker-local cache of opened packed stores, keyed by path.  A store
#: is reopened when the content digest of a task no longer matches the
#: cached mapping (the file was rewritten between runs).
_WORKER_STORES: Dict[str, object] = {}


def init_worker(c_ext: np.ndarray) -> None:
    """Pool initializer: install the worker-local matrix.

    Workers also ignore SIGINT: a terminal Ctrl-C is delivered to the
    whole foreground process group, and the parent — not the signal —
    owns worker shutdown (``pool.terminate`` on close).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    global _WORKER_MATRIX
    _WORKER_MATRIX = c_ext


def open_pool(
    workers: int, c_ext: np.ndarray
) -> "multiprocessing.pool.Pool":
    """A pool of *workers* processes initialised with *c_ext*.

    fork is cheapest and inherits the imported numpy state; elsewhere
    the platform default (spawn) is used.
    """
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else None
    )
    return context.Pool(
        processes=workers, initializer=init_worker, initargs=(c_ext,),
    )


def _worker_store_rows(
    path: str, digest: str, start: int, stop: int
) -> List[np.ndarray]:
    """Row views ``[start, stop)`` of the packed store at *path*.

    Each worker memory-maps a store file once and serves every shard of
    every subsequent pass from that mapping — the dispatcher ships only
    ``(path, digest, bounds)`` per task, never the sequence data.
    """
    from ..io.packed import PackedSequenceStore

    store = _WORKER_STORES.get(path)
    if store is None or store.digest != digest:
        store = PackedSequenceStore.open(path)
        if store.digest != digest:
            raise MiningError(
                f"packed store {path} changed underneath the worker pool "
                f"(expected digest {digest}, found {store.digest})"
            )
        _WORKER_STORES[path] = store
    return store.rows_slice(start, stop)


def execute_shard_task(task: ShardTask, c_ext: np.ndarray) -> ShardResult:
    """Evaluate one shard task: the pure worker-side function.

    Every block of the shard goes through
    :func:`~repro.engine.kernels.block_totals` — the serial scan's own
    block kernel — one padded chunk at a time, so the returned
    per-block sums are bit-identical to the serial scan over the same
    grid.
    """
    started = perf_counter()
    m = c_ext.shape[0] - 1
    if task.kind == DATABASE_TOTALS:
        width = task.n_patterns
    elif task.kind == SYMBOL_TOTALS:
        width = m
    else:
        raise MiningError(f"unknown shard task kind {task.kind!r}")
    spec = task.spec
    if task.rows is not None:
        rows: List[np.ndarray] = [np.asarray(r) for r in task.rows]
        io_bytes = 0  # the parent already materialised these rows
    else:
        if spec.path is None:
            raise MiningError(
                f"shard {spec.index} has neither inline rows nor a path"
            )
        rows = _worker_store_rows(
            spec.path, spec.digest, spec.row_start, spec.row_stop
        )
        io_bytes = 4 * spec.symbol_count
    plans = (
        group_plans(task.elements_by_span)
        if task.kind == DATABASE_TOTALS else None
    )
    block_starts = range(0, len(rows), task.chunk_rows)
    out = np.zeros((len(block_starts), width), dtype=np.float64)
    scratch: Dict[tuple, np.ndarray] = {}
    for i, start in enumerate(block_starts):
        block_totals(
            pad_chunk(rows[start : start + task.chunk_rows], m), c_ext,
            task.kind, task.groups, task.elements_by_span, out[i],
            plans=plans, scratch=scratch,
        )
    return ShardResult(
        index=spec.index,
        n_rows=len(rows),
        block_totals=out,
        scan_seconds=perf_counter() - started,
        io_bytes=io_bytes,
        worker_id=os.getpid(),
    )


def pool_execute_shard_task(task: ShardTask) -> ShardResult:
    """Pool entry point: :func:`execute_shard_task` against the
    worker-local state installed by :func:`init_worker`."""
    if _WORKER_MATRIX is None:
        raise MiningError("worker initializer did not run")
    return execute_shard_task(task, _WORKER_MATRIX)


# -- the scatter-gather scheduler ----------------------------------------------


@dataclass
class ShardRunStats:
    """Per-pass counters the scheduler folds out of the shard results."""

    tasks: int = 0
    rows: int = 0
    blocks: int = 0
    steals: int = 0
    scan_seconds: float = 0.0
    io_bytes: int = 0
    worker_tasks: Dict[int, int] = field(default_factory=dict)


def build_tasks(
    manifest: ShardManifest,
    kind: str,
    groups: Optional[Dict[int, List[int]]] = None,
    elements_by_span: Optional[Dict[int, np.ndarray]] = None,
    n_patterns: int = 0,
    rows: Optional[Sequence[np.ndarray]] = None,
) -> List[ShardTask]:
    """Materialise the manifest's specs into dispatchable tasks.

    With *rows* the tasks carry their row slices inline (in-memory
    databases); without, workers resolve ``(path, digest)`` themselves.
    """
    tasks = []
    for spec in manifest.specs:
        payload = None
        if spec.path is None:
            if rows is None:
                raise MiningError(
                    "manifest has pathless shards but no rows were given"
                )
            payload = list(rows[spec.row_start : spec.row_stop])
        tasks.append(
            ShardTask(
                spec=spec,
                kind=kind,
                chunk_rows=manifest.chunk_rows,
                groups=groups,
                elements_by_span=elements_by_span,
                n_patterns=n_patterns,
                rows=payload,
            )
        )
    return tasks


def scatter_gather(
    tasks: Sequence[ShardTask],
    dispatch: Dispatch,
    width: int,
    n_workers: int = 1,
) -> Tuple[np.ndarray, ShardRunStats]:
    """Dispatch *tasks* and merge their partial sums deterministically.

    Results are consumed in completion order but **merged in shard
    order**: out-of-order arrivals are buffered until every lower-index
    shard has been folded in, and each shard's per-block rows are added
    in block order.  The resulting accumulation sequence is the global
    block order — independent of shard count, worker count and
    completion order, and identical to the serial chunked scan.

    A duplicate result (a retried task) is folded in once, whether it
    arrives before or after its shard was merged; a shard that never
    arrives raises :class:`MiningError` naming the lost indices.

    Steal accounting: each task records the worker that executed it; a
    worker's executions beyond its fair share (``ceil(tasks/workers)``)
    were pulled from the shared queue to cover for a slower peer and
    are counted as steals.
    """
    stats = ShardRunStats(tasks=len(tasks))
    totals = np.zeros(width, dtype=np.float64)
    pending: Dict[int, ShardResult] = {}
    next_index = 0
    for result in dispatch(tasks):
        if result.index < next_index or result.index in pending:
            continue  # a duplicate: this shard is already counted
        pending[result.index] = result
        while next_index in pending:
            ready = pending.pop(next_index)
            for block_row in ready.block_totals:
                totals += block_row
            stats.rows += ready.n_rows
            stats.blocks += int(ready.block_totals.shape[0])
            stats.scan_seconds += ready.scan_seconds
            stats.io_bytes += ready.io_bytes
            stats.worker_tasks[ready.worker_id] = (
                stats.worker_tasks.get(ready.worker_id, 0) + 1
            )
            next_index += 1
    if next_index != len(tasks):
        # Merged shards left pending already: only unmerged indices
        # can be lost.
        missing = sorted(set(range(next_index, len(tasks))) - set(pending))
        raise MiningError(
            f"scatter-gather lost shards: expected {len(tasks)} results, "
            f"merged {next_index} (pending: {sorted(pending)}, "
            f"missing: {missing})"
        )
    fair_share = -(-len(tasks) // max(1, n_workers))
    stats.steals = sum(
        max(0, count - fair_share) for count in stats.worker_tasks.values()
    )
    return totals, stats


__all__ = [
    "Dispatch",
    "MIN_SHARD_ROWS",
    "OVERSPLIT",
    "ShardManifest",
    "ShardResult",
    "ShardRunStats",
    "ShardSpec",
    "ShardTask",
    "WORKERS_ENV_VAR",
    "build_tasks",
    "execute_shard_task",
    "init_worker",
    "manifest_from_layout",
    "manifest_from_rows",
    "manifest_from_store",
    "open_pool",
    "pool_execute_shard_task",
    "resolve_worker_count",
    "scatter_gather",
]
