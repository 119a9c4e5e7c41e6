"""Mining service daemon with warm-state session multiplexing.

A long-lived, stdlib-only daemon around the existing miners: jobs
arrive over HTTP (or in-process through :class:`MiningService`), run
on a worker pool, and leave warm state behind — memory-mapped packed
stores, per-store match engines, a pinned Phase-2 resident evaluator,
and a ``(store digest, canonical config)`` result memo — so the next
job on the same data skips the cold-start work the one-shot CLI pays
every time.

Layers:

* :mod:`repro.service.cache` — :class:`StoreCache` / :class:`ResultMemo`
* :mod:`repro.service.jobs` — :class:`Job` / :class:`MiningService`
* :mod:`repro.service.server` — :class:`MiningServer` (HTTP front-end)
* :mod:`repro.service.client` — :class:`ServiceClient`
"""

from .cache import (
    DEFAULT_MEMO_ENTRIES,
    DEFAULT_STORE_CAPACITY,
    ResultMemo,
    StoreCache,
    StoreEntry,
)
from .client import ServiceClient
from .jobs import (
    DEFAULT_WORKERS,
    DONE,
    FAILED,
    JOB_STATES,
    Job,
    MiningService,
    QUEUED,
    RUNNING,
)
from .server import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    MiningServer,
    start_server,
)

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_MEMO_ENTRIES",
    "DEFAULT_PORT",
    "DEFAULT_STORE_CAPACITY",
    "DEFAULT_WORKERS",
    "DONE",
    "FAILED",
    "JOB_STATES",
    "Job",
    "MiningServer",
    "MiningService",
    "QUEUED",
    "RUNNING",
    "ResultMemo",
    "ServiceClient",
    "StoreCache",
    "StoreEntry",
    "start_server",
]
