"""Integration tests for the mining service daemon.

Covers the full warm-state contract: HTTP submit → poll → result
parity with a direct CLI run, result memoization on identical
resubmission, store-cache warm hits, concurrent jobs on different
stores staying isolated, LRU eviction closing evicted stores (with
refcount pinning deferring the close past in-flight jobs), segmented
store jobs and the append endpoint, job-state transition invariants
under concurrent readers, and deterministic service shutdown.
"""

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading

import pytest

import repro

from repro.cli import main
from repro.core.sequence import SequenceDatabase
from repro.datagen.synthetic import generate_database
from repro.datagen.motifs import random_motif
from repro.errors import SequenceDatabaseError, ServiceError
from repro.io import PackedSequenceStore, SegmentedSequenceStore
from repro.obs import (
    FACTOR_CACHE_HITS,
    FACTOR_CACHE_MISSES,
    RESULT_MEMO_HITS,
    STORE_CACHE_HITS,
    STORE_CACHE_MISSES,
)
from repro.service import (
    MiningService,
    ServiceClient,
    StoreCache,
    start_server,
)
from repro.service.jobs import SHUTDOWN_ERROR

import numpy as np


def _make_database(seed, sequences=40, alphabet=6):
    rng = np.random.default_rng(seed)
    motifs = [random_motif(3, alphabet, 0.5, rng)]
    return generate_database(sequences, 15, alphabet, motifs, rng=rng)


def _make_store(tmp_path, name, seed, sequences=40, alphabet=6):
    database = _make_database(seed, sequences, alphabet)
    path = tmp_path / name
    PackedSequenceStore.from_database(database, path)
    return path


def _make_segmented_store(tmp_path, name, seed, sequences=40, alphabet=6):
    database = _make_database(seed, sequences, alphabet)
    path = tmp_path / name
    SegmentedSequenceStore.create(path, database).close()
    return path


def _strip_timing(payload):
    """Everything in a result payload except wall-clock-bearing keys."""
    clean = dict(payload)
    clean.pop("elapsed_seconds", None)
    clean.pop("metrics", None)
    return clean


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    return _make_store(tmp_path_factory.mktemp("svc"), "a.nmp", seed=11)


@pytest.fixture(scope="module")
def other_store_path(tmp_path_factory):
    return _make_store(tmp_path_factory.mktemp("svc2"), "b.nmp", seed=22)


CONFIG = {
    "min_match": 0.4,
    "algorithm": "levelwise",
    "alphabet": 6,
    "noise": 0.1,
}


class TestHTTPRoundTrip:
    @pytest.fixture(scope="class")
    def server(self):
        server, _thread = start_server(port=0)
        yield server
        server.close()

    @pytest.fixture(scope="class")
    def client(self, server):
        return ServiceClient(server.url)

    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["workers"] >= 1
        assert set(health["jobs"]) == {"queued", "running", "done", "failed"}
        assert set(health) == {
            "status", "uptime_seconds", "workers", "jobs", "store_cache",
            "result_memo", "resident_planes",
        }
        planes = health["resident_planes"]
        assert set(planes) == {
            "evaluators", "plane_hits", "plane_misses", "plane_bytes",
            "repins",
        }

    def test_submit_poll_result_matches_cli(self, client, store_path,
                                            capsys):
        job = client.submit(CONFIG, store=str(store_path))
        assert job["state"] in ("queued", "running", "done")
        doc = client.wait(job["id"])
        assert doc["state"] == "done"
        assert doc["memo_hit"] is False

        code = main([
            "mine", str(store_path),
            "--alphabet", "6", "--min-match", "0.4",
            "--algorithm", "levelwise", "--noise", "0.1", "--json",
        ])
        assert code == 0
        cli_payload = json.loads(capsys.readouterr().out)
        assert _strip_timing(doc["result"]) == _strip_timing(cli_payload)

    def test_status_streams_progress(self, client, store_path):
        job = client.submit(CONFIG, store=str(store_path))
        status = client.status(job["id"])
        assert status["id"] == job["id"]
        assert "progress" in status
        client.wait(job["id"])
        final = client.status(job["id"])
        # A finished deterministic job has its phase tree in progress.
        assert final["state"] == "done"
        assert isinstance(final["progress"], dict)

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError, match="404"):
            client.status("job-does-not-exist")

    def test_result_before_done_is_409_or_result(self, client, store_path):
        job = client.submit(CONFIG, store=str(store_path))
        try:
            doc = client.result(job["id"])
            assert doc["state"] == "done"  # raced to completion: fine
        except ServiceError as exc:
            assert "409" in str(exc)
        client.wait(job["id"])

    def test_bad_config_is_400(self, client, store_path):
        with pytest.raises(ServiceError, match="400"):
            client.submit({"min_match": 2.0}, store=str(store_path))

    def test_unknown_config_key_is_400(self, client, store_path):
        with pytest.raises(ServiceError, match="min_macth"):
            client.submit(
                {"min_match": 0.4, "min_macth": 0.4},
                store=str(store_path),
            )

    @pytest.mark.parametrize(
        "key",
        ["engine", "lattice", "resident_sample", "resident_kernels", "store"],
    )
    def test_removed_execution_key_is_400(self, client, store_path, key):
        with pytest.raises(
            ServiceError, match=f"400.*unknown config keys: {key}"
        ):
            client.submit(dict(CONFIG, **{key: "vectorized"}),
                          store=str(store_path))
        assert client.healthz()["status"] == "ok"  # the daemon stays up

    @pytest.mark.parametrize(
        "content_length, payload, reason",
        [
            ("abc", {"config": CONFIG}, "Content-Length"),
            (None, {"config": CONFIG, "store": 5}, "'store' must be"),
            (None, {"config": {"min_match": 0.5, "algorithm": "maxminer"},
                    "database": [[0, 10**12]]}, "invalid inline database"),
            (None, {"config": {"min_match": 0.5, "algorithm": "maxminer"},
                    "database": [[1.5, 2.7], [True, 0]]},
             "row 0 holds 1.5 (float)"),
            (None, {"config": {"min_match": 0.5, "algorithm": "maxminer"},
                    "database": [[1, 2], [True, 0]]},
             "row 1 holds True (bool)"),
            (None, {"config": {"min_match": 0.5, "algorithm": "maxminer"},
                    "database": [[1, 2], [1, 0]], "ids": [0.5, 1]},
             "'ids' holds 0.5 (float)"),
            (None, {"config": {"min_match": 0.5, "algorithm": "maxminer"},
                    "database": [[1, 2], [1, 0]], "ids": [False, 1]},
             "'ids' holds False (bool)"),
            (None, {"config": {"min_match": "abc"}}, "'min_match'"),
            (None, {"config": {"min_match": [1]}}, "'min_match'"),
            (None, {"config": dict(CONFIG, max_weight="3")}, "'max_weight'"),
            (None, {"config": dict(CONFIG, seed=1.5)}, "'seed'"),
            (None, {"config": dict(CONFIG, memory_capacity=0)},
             "memory_capacity"),
            (None, {"config": {"min_match": 0.5, "algorithm": "pincer"}},
             "unknown algorithm 'pincer'"),
        ],
        ids=[
            "content-length", "store-type", "symbol-overflow",
            "symbol-float", "symbol-bool", "id-float", "id-bool",
            "min-match-string", "min-match-list", "max-weight-string",
            "seed-float", "memory-capacity-zero", "removed-algorithm",
        ],
    )
    def test_malformed_submit_is_4xx(self, server, client, store_path,
                                     content_length, payload, reason):
        if "store" not in payload and "database" not in payload:
            payload = dict(payload, store=str(store_path))
        before = client.healthz()["jobs"]
        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            body = json.dumps(payload).encode("utf-8")
            connection.putrequest("POST", "/jobs")
            connection.putheader("Content-Type", "application/json")
            connection.putheader(
                "Content-Length", content_length or str(len(body))
            )
            connection.endheaders(body)
            response = connection.getresponse()
            doc = json.loads(response.read().decode("utf-8"))
        finally:
            connection.close()
        assert 400 <= response.status < 500, doc
        assert reason in doc["error"]
        health = client.healthz()  # the daemon stays up
        assert health["status"] == "ok"
        assert health["jobs"] == before  # no job was queued
        assert health["jobs"]["queued"] == health["jobs"]["running"] == 0

    def test_missing_store_is_400(self, client, tmp_path):
        with pytest.raises(ServiceError, match="400"):
            client.submit(CONFIG, store=str(tmp_path / "nope.nmp"))

    def test_failed_job_surfaces_as_500(self, client, store_path):
        # alphabet=2 is smaller than the store's symbols: the job
        # starts, then fails inside the miner.
        job = client.submit(
            {"min_match": 0.4, "algorithm": "levelwise", "alphabet": 2},
            store=str(store_path),
        )
        with pytest.raises(ServiceError):
            client.wait(job["id"], timeout=30.0)

    def test_inline_database_job(self, client):
        doc_job = client.submit(
            {"min_match": 0.5, "algorithm": "maxminer"},
            database=[[0, 1, 2, 0], [1, 2, 0, 1], [0, 1, 2, 2]],
        )
        doc = client.wait(doc_job["id"])
        assert doc["state"] == "done"
        assert doc["result"]["patterns"]


class TestMemoization:
    def test_identical_resubmit_is_memo_hit(self, store_path):
        with MiningService(workers=1) as service:
            first = service.submit(CONFIG, store=str(store_path))
            service._queue.join()
            second = service.submit(CONFIG, store=str(store_path))
            service._queue.join()
            assert first.state == "done" and second.state == "done"
            assert not first.memo_hit
            assert second.memo_hit
            assert second.result == first.result
            assert second.tracer.totals().get(RESULT_MEMO_HITS) == 1
            assert service.memo.stats()["hits"] == 1

    def test_seedless_sampling_is_not_memoized(self, store_path):
        config = dict(CONFIG, algorithm="toivonen", sample_size=40,
                      delta=0.5)
        with MiningService(workers=1) as service:
            service.submit(config, store=str(store_path))
            service._queue.join()
            second = service.submit(config, store=str(store_path))
            service._queue.join()
            assert second.state == "done"
            assert not second.memo_hit

    def test_seeded_sampling_is_memoized(self, store_path):
        config = dict(CONFIG, algorithm="toivonen", sample_size=40,
                      delta=0.5, seed=5)
        with MiningService(workers=1) as service:
            service.submit(config, store=str(store_path))
            service._queue.join()
            second = service.submit(config, store=str(store_path))
            service._queue.join()
            assert second.memo_hit


class TestWarmState:
    def test_second_job_hits_store_cache(self, store_path):
        with MiningService(workers=1) as service:
            first = service.submit(CONFIG, store=str(store_path))
            service._queue.join()
            # Different min_match -> no memo hit, but same store.
            second = service.submit(
                dict(CONFIG, min_match=0.6), store=str(store_path)
            )
            service._queue.join()
            assert first.tracer.totals().get(STORE_CACHE_MISSES) == 1
            assert second.tracer.totals().get(STORE_CACHE_HITS) == 1
            assert service.stores.stats()["open_stores"] == 1

    def test_warm_resident_sample_skips_repin(self, store_path):
        """The second sampling job on the same store reuses the pinned
        sample: the warm evaluator's repin counter must not move."""
        config = dict(CONFIG, algorithm="border-collapsing",
                      sample_size=40, delta=0.5, seed=9)
        with MiningService(workers=1) as service:
            service.submit(config, store=str(store_path))
            service._queue.join()
            entry, was_hit = service.stores.get(str(store_path))
            assert was_hit
            repins_after_first = entry.resident_repins
            assert repins_after_first >= 1
            # Different min_match defeats the memo; same seed/sample.
            service.submit(dict(config, min_match=0.35),
                           store=str(store_path))
            service._queue.join()
            assert entry.resident_repins == repins_after_first
            # The warm evaluator's state surfaces through /healthz:
            # plane traffic from the two jobs and the one re-pin.
            planes = service.healthz()["resident_planes"]
            assert planes["evaluators"] == 1
            assert planes["plane_misses"] > 0
            assert planes["repins"] == repins_after_first

    def test_warm_levelwise_job_gathers_no_factor_array(self, store_path):
        """The entry engine's factor pin keeps the store: a second
        level-wise job on it serves every chunk from the pin."""
        with MiningService(workers=1) as service:
            first = service.submit(CONFIG, store=str(store_path))
            service._queue.join()
            entry, _was_hit = service.stores.get(str(store_path))
            misses = entry.engine().cache.misses
            second = service.submit(
                dict(CONFIG, min_match=0.6), store=str(store_path)
            )
            service._queue.join()
            assert second.state == "done" and not second.memo_hit
            assert first.tracer.totals().get(FACTOR_CACHE_MISSES, 0) > 0
            totals = second.tracer.totals()
            assert totals.get(FACTOR_CACHE_MISSES, 0) == 0
            assert totals.get(FACTOR_CACHE_HITS, 0) > 0
            assert entry.engine().cache.misses == misses

    def test_warm_sampling_phase1_gathers_no_factor_array(self, store_path):
        """Phase 1 of a sampling job scans on the entry engine: a second
        border-collapsing job on the store serves every chunk of its
        Phase-1 scan from the engine's factor pin."""
        config = dict(CONFIG, algorithm="border-collapsing",
                      sample_size=20, delta=0.5, seed=9)
        with MiningService(workers=1) as service:
            service.submit(config, store=str(store_path))
            service._queue.join()
            second = service.submit(dict(config, min_match=0.35),
                                    store=str(store_path))
            service._queue.join()
            assert second.state == "done" and not second.memo_hit
            phase1, = (span for span in second.tracer.phases()
                       if span.name == "phase1-scan")
            assert phase1.counters.get(FACTOR_CACHE_MISSES, 0) == 0
            assert phase1.counters.get(FACTOR_CACHE_HITS, 0) > 0

    def test_resident_planes_stay_within_the_stack_bound(self, store_path):
        """Planes no longer accumulate across jobs: after two jobs at
        different thresholds the warm evaluator holds at most one
        float64 ``(L, N)`` plane per chain depth below the weight cap."""
        config = dict(CONFIG, algorithm="border-collapsing",
                      sample_size=40, delta=0.5, seed=9, max_weight=5)
        with MiningService(workers=1) as service:
            service.submit(config, store=str(store_path))
            service._queue.join()
            service.submit(dict(config, min_match=0.3),
                           store=str(store_path))
            service._queue.join()
            planes = service.healthz()["resident_planes"]
        with PackedSequenceStore.open(store_path) as store:
            lengths = [len(seq) for _sid, seq in store.scan()]
        sample = min(config["sample_size"], len(lengths))
        bound = (config["max_weight"] - 1) * sample * max(lengths) * 8
        assert planes["plane_misses"] > 0
        assert 0 < planes["plane_bytes"] <= bound

    def test_concurrent_jobs_do_not_cross_contaminate(
        self, store_path, other_store_path
    ):
        """Two jobs on different stores running at once: each report
        carries its own store digest and its own scan counts."""
        with MiningService(workers=2) as service:
            jobs = [
                service.submit(CONFIG, store=str(store_path)),
                service.submit(CONFIG, store=str(other_store_path)),
            ]
            service._queue.join()
            assert all(job.state == "done" for job in jobs)
            assert jobs[0].store_digest != jobs[1].store_digest
            # Reports are per-job: each saw exactly one cache miss and
            # its own (complete) scan accounting.
            for job in jobs:
                totals = job.tracer.totals()
                assert totals.get(STORE_CACHE_MISSES) == 1
                assert totals.get(STORE_CACHE_HITS) is None
                assert job.result["scans"] == sum(
                    phase["counters"].get("scans", 0)
                    for phase in job.result["metrics"]["phases"]
                )
            # Different inputs genuinely mined differently.
            assert jobs[0].result["patterns"] != jobs[1].result["patterns"]

    def test_same_store_twice_maps_once(self, store_path, tmp_path):
        """A byte-identical copy under another path shares the mapping
        (digest-keyed cache), and counts as a warm hit."""
        copy = tmp_path / "copy.nmp"
        copy.write_bytes(store_path.read_bytes())
        with MiningService(workers=1) as service:
            service.submit(CONFIG, store=str(store_path))
            service._queue.join()
            job = service.submit(CONFIG, store=str(copy))
            service._queue.join()
            assert job.tracer.totals().get(STORE_CACHE_HITS) == 1
            assert service.stores.stats()["open_stores"] == 1


class TestStoreCacheEviction:
    def test_eviction_closes_stores(self, tmp_path):
        paths = [
            _make_store(tmp_path, f"s{i}.nmp", seed=100 + i,
                        sequences=10)
            for i in range(3)
        ]
        cache = StoreCache(capacity=2)
        entries = [cache.get(str(path))[0] for path in paths]
        # Capacity 2: the first entry was evicted and closed.
        assert entries[0].store.closed
        assert not entries[1].store.closed
        assert not entries[2].store.closed
        assert cache.stats() == {
            "open_stores": 2, "pinned_stores": 0, "capacity": 2,
            "hits": 0, "misses": 3, "evictions": 1,
        }
        with pytest.raises(SequenceDatabaseError, match="closed"):
            list(entries[0].store.scan())
        cache.close()
        assert all(entry.store.closed for entry in entries)

    def test_service_close_releases_stores(self, store_path):
        service = MiningService(workers=1)
        service.submit(CONFIG, store=str(store_path))
        service._queue.join()
        entry, _hit = service.stores.get(str(store_path))
        service.close()
        assert entry.store.closed


class TestServiceValidation:
    def test_requires_exactly_one_input(self, store_path):
        with MiningService(workers=1) as service:
            with pytest.raises(ServiceError, match="exactly one"):
                service.submit(CONFIG)
            with pytest.raises(ServiceError, match="exactly one"):
                service.submit(
                    CONFIG, store=str(store_path), database=[[0, 1]]
                )

    def test_unknown_job_raises(self):
        with MiningService(workers=1) as service:
            with pytest.raises(ServiceError, match="unknown job"):
                service.job("job-999")

    def test_submit_after_close_raises(self, store_path):
        service = MiningService(workers=1)
        service.close()
        with pytest.raises(ServiceError, match="shut down"):
            service.submit(CONFIG, store=str(store_path))

    def test_inline_digest_is_stable(self):
        from repro.service.jobs import _inline_digest

        a = SequenceDatabase([[0, 1, 2], [1, 2, 0]])
        b = SequenceDatabase([[0, 1, 2], [1, 2, 0]])
        c = SequenceDatabase([[0, 1, 2], [1, 2, 1]])
        assert _inline_digest(a) == _inline_digest(b)
        assert _inline_digest(a) != _inline_digest(c)


class TestTracerThreadSafety:
    def test_concurrent_status_snapshots_while_running(self, store_path):
        """Hammer tracer.snapshot() from reader threads while jobs
        record phases — the daemon's status endpoint does exactly
        this."""
        with MiningService(workers=2) as service:
            stop = threading.Event()
            errors = []

            def poll(job):
                while not stop.is_set():
                    try:
                        snapshot = job.tracer.snapshot()
                        assert isinstance(snapshot, dict)
                        job.status_dict()
                    except Exception as exc:  # noqa: BLE001
                        errors.append(exc)
                        return

            jobs = [
                service.submit(dict(CONFIG, min_match=0.3 + 0.01 * i),
                               store=str(store_path))
                for i in range(4)
            ]
            readers = [
                threading.Thread(target=poll, args=(job,))
                for job in jobs for _ in range(2)
            ]
            for reader in readers:
                reader.start()
            service._queue.join()
            stop.set()
            for reader in readers:
                reader.join(timeout=10.0)
            assert not errors
            assert all(job.state == "done" for job in jobs)


class TestEvictionPinning:
    """Regression: LRU eviction used to close an mmap'd store even
    while a job was scanning it; entries are now refcount-pinned and
    eviction defers the close to the last release."""

    def test_pinned_entry_survives_eviction(self, tmp_path):
        paths = [
            _make_store(tmp_path, f"pin{i}.nmp", seed=300 + i,
                        sequences=10)
            for i in range(2)
        ]
        cache = StoreCache(capacity=1)
        entry, _ = cache.acquire(str(paths[0]))
        try:
            cache.get(str(paths[1]))  # evicts the pinned entry
            assert entry.close_pending
            assert not entry.store.closed
            # The in-flight "job" keeps scanning the evicted store.
            assert len(list(entry.store.scan())) == 10
        finally:
            entry.release()
        # The deferred close ran at the last release.
        assert entry.store.closed
        cache.close()

    def test_release_is_guarded_against_overrelease(self, tmp_path):
        path = _make_store(tmp_path, "pin.nmp", seed=310, sequences=10)
        cache = StoreCache(capacity=1)
        entry, _ = cache.acquire(str(path))
        entry.release()
        with pytest.raises(ServiceError, match="release"):
            entry.release()
        cache.close()

    def test_slow_jobs_survive_forced_eviction(self, tmp_path):
        """Service-level: capacity-1 cache, two stores, two workers —
        every job forces an eviction of the other store while its job
        may still be running.  Every job must still complete."""
        paths = [
            _make_store(tmp_path, f"evict{i}.nmp", seed=320 + i)
            for i in range(2)
        ]
        with MiningService(workers=2, store_capacity=1) as service:
            jobs = [
                service.submit(
                    dict(CONFIG, min_match=0.3 + 0.02 * rep),
                    store=str(path),
                )
                for rep in range(3)
                for path in paths
            ]
            service._queue.join()
            assert all(job.state == "done" for job in jobs), [
                job.error for job in jobs
            ]
            assert service.stores.stats()["evictions"] >= 1


class TestSameSizeRewrite:
    """Regression: the cache keyed freshness on ``(mtime_ns, size)``,
    so rewriting a store in place with same-size content (and a
    filesystem-granularity mtime collision) served the stale mapping.
    The cache now re-peeks the header digest on every lookup."""

    @staticmethod
    def _rewrite_same_size(path, database):
        """Overwrite *path* with a same-size store and force the exact
        old ``(mtime_ns, size)`` stat signature."""
        stat = os.stat(path)
        PackedSequenceStore.from_database(database, path)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert os.path.getsize(path) == stat.st_size

    def test_cache_detects_same_size_rewrite(self, tmp_path):
        path = tmp_path / "rw.nmp"
        PackedSequenceStore.from_database(
            SequenceDatabase([[0, 1, 2], [1, 2, 0]]), path
        )
        cache = StoreCache(capacity=2)
        first, _ = cache.get(str(path))
        old_digest = first.digest
        self._rewrite_same_size(
            str(path), SequenceDatabase([[2, 1, 0], [0, 2, 1]])
        )
        second, _ = cache.get(str(path))
        assert second.digest != old_digest
        assert [list(row) for _sid, row in second.store.scan()] == [
            [2, 1, 0], [0, 2, 1],
        ]
        cache.close()

    def test_service_mines_rewritten_content(self, tmp_path):
        path = tmp_path / "rw2.nmp"
        original = _make_database(seed=42)
        PackedSequenceStore.from_database(original, path)
        # Same shape, different content: permute every symbol, so the
        # packed file is byte-for-byte the same size.
        permuted = SequenceDatabase(
            [(np.asarray(original.sequence(sid)) + 1) % 6
             for sid in original.ids],
            ids=list(original.ids),
        )
        config = dict(CONFIG, noise=0.0)
        with MiningService(workers=1) as service:
            first = service.submit(config, store=str(path))
            service._queue.join()
            self._rewrite_same_size(str(path), permuted)
            second = service.submit(config, store=str(path))
            service._queue.join()
            assert first.state == "done" and second.state == "done"
            assert second.store_digest != first.store_digest
            assert not second.memo_hit


class TestJobStateInvariants:
    """Regression: ``status_dict()`` could observe ``state=failed``
    with ``error=None`` (state was published before the error); the
    per-job lock now makes every transition atomic."""

    def test_failed_never_observed_without_error(self, store_path):
        with MiningService(workers=2) as service:
            stop = threading.Event()
            violations = []

            def poll(job):
                while not stop.is_set():
                    doc = job.status_dict()
                    if doc["state"] == "failed" and doc["error"] is None:
                        violations.append(("failed without error", doc))
                        return
                    if (doc["state"] in ("failed", "done")
                            and doc["finished_at"] is None):
                        violations.append(("terminal without time", doc))
                        return

            # alphabet=2 < the store's symbols: every job fails inside
            # the miner, exercising the failure transition.
            jobs = [
                service.submit(
                    {"min_match": 0.4, "algorithm": "levelwise",
                     "alphabet": 2},
                    store=str(store_path),
                )
                for _ in range(6)
            ]
            readers = [
                threading.Thread(target=poll, args=(job,))
                for job in jobs for _ in range(2)
            ]
            for reader in readers:
                reader.start()
            service._queue.join()
            stop.set()
            for reader in readers:
                reader.join(timeout=10.0)
            assert not violations
            for job in jobs:
                assert job.state == "failed"
                assert job.error is not None
                assert job.finished_at is not None

    def test_terminal_states_are_sticky(self):
        from repro.config import MiningConfig
        from repro.service.jobs import Job

        job = Job(id="job-x", config=MiningConfig(min_match=0.5))
        assert job.mark_running()
        job.mark_failed("boom")
        assert not job.mark_failed("later")  # first error wins
        assert job.error == "boom"
        assert not job.mark_running()


class TestServiceShutdown:
    """Regression: ``close()`` queued a single poison pill regardless
    of worker count and silently dropped queued jobs; it now drains
    the queue into FAILED jobs, poisons each worker exactly once, and
    verifies every worker thread actually exited."""

    def test_close_fails_queued_jobs(self, store_path):
        service = MiningService(workers=1)
        workers = list(service._workers)
        started = threading.Event()
        release = threading.Event()
        original_run = service._run

        def gated_run(job):
            started.set()
            release.wait(timeout=30.0)
            original_run(job)

        service._run = gated_run
        running = service.submit(CONFIG, store=str(store_path))
        assert started.wait(timeout=10.0)
        queued = [
            service.submit(CONFIG, database=[[0, 1, 2], [1, 2, 0]])
            for _ in range(3)
        ]
        closer = threading.Thread(target=service.close)
        closer.start()
        release.set()
        closer.join(timeout=30.0)
        assert not closer.is_alive()
        # The running job finished; the queued ones failed loudly.
        assert running.state == "done"
        for job in queued:
            assert job.state == "failed"
            assert job.error == SHUTDOWN_ERROR
            assert job.finished_at is not None
        # Every worker exited and the pool is gone.
        assert not any(thread.is_alive() for thread in workers)
        assert service._workers == []

    def test_close_is_idempotent(self):
        service = MiningService(workers=2)
        service.close()
        service.close()

    def test_all_workers_get_poisoned(self):
        service = MiningService(workers=4)
        workers = list(service._workers)
        service.close()
        assert not any(thread.is_alive() for thread in workers)

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_serve_stops_on_signal_when_started_with_sigint_ignored(
        self, signum
    ):
        """A background job of a non-interactive shell starts with
        SIGINT ignored; ``noisymine serve`` must still stop on it, and
        on SIGTERM, with exit status 0."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--quiet"],
            stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src),
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 60.0)
            assert ready, "daemon printed no listening line"
            line = proc.stdout.readline()
            assert "listening on http://" in line, line
            port = int(line.rsplit(":", 1)[1])
            # Once /healthz answers, the accept loop is running.
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            conn.request("GET", "/healthz")
            assert conn.getresponse().status == 200
            conn.close()
            proc.send_signal(signum)
            assert proc.wait(timeout=10) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()


class TestSegmentedStores:
    @pytest.fixture(scope="class")
    def seg_path(self, tmp_path_factory):
        return _make_segmented_store(
            tmp_path_factory.mktemp("seg"), "segstore", seed=11
        )

    def test_parity_with_packed_store(self, store_path, seg_path):
        """Same seed, same rows: a segmented-store job mines exactly
        what the packed-store job mines."""
        with MiningService(workers=1) as service:
            packed = service.submit(CONFIG, store=str(store_path))
            segmented = service.submit(CONFIG, store=str(seg_path))
            service._queue.join()
            assert packed.state == "done", packed.error
            assert segmented.state == "done", segmented.error
            assert (packed.result["patterns"]
                    == segmented.result["patterns"])
            assert packed.store_digest != segmented.store_digest

    def test_append_rekeys_and_defeats_memo(self, tmp_path):
        path = _make_segmented_store(tmp_path, "grow", seed=77)
        with MiningService(workers=1) as service:
            first = service.submit(CONFIG, store=str(path))
            service._queue.join()
            outcome = service.append_to_store(
                first.store_digest, [[0, 1, 2, 3], [1, 2, 3, 4]]
            )
            assert outcome["previous_digest"] == first.store_digest
            assert outcome["store_digest"] != first.store_digest
            assert outcome["n_sequences"] == 42
            # Old digest is no longer addressable...
            with pytest.raises(ServiceError, match="no open store"):
                service.append_to_store(first.store_digest, [[0, 1]])
            # ...and a resubmit mines the grown content, not the memo.
            second = service.submit(CONFIG, store=str(path))
            service._queue.join()
            assert second.state == "done", second.error
            assert second.store_digest == outcome["store_digest"]
            assert not second.memo_hit

    def test_append_requires_segmented_store(self, store_path):
        with MiningService(workers=1) as service:
            job = service.submit(CONFIG, store=str(store_path))
            service._queue.join()
            with pytest.raises(ServiceError, match="not segmented"):
                service.append_to_store(job.store_digest, [[0, 1]])

    def test_append_over_http(self, tmp_path):
        path = _make_segmented_store(tmp_path, "http-grow", seed=88)
        server, _thread = start_server(port=0)
        try:
            client = ServiceClient(server.url)
            job = client.submit(CONFIG, store=str(path))
            doc = client.wait(job["id"])
            digest = doc["store_digest"]
            outcome = client.append(digest, [[0, 1, 2], [2, 1, 0]])
            assert outcome["previous_digest"] == digest
            assert outcome["n_sequences"] == 42
            with pytest.raises(ServiceError, match="404"):
                client.append(digest, [[0, 1]])
            with pytest.raises(ServiceError, match="409"):
                client.append(outcome["store_digest"], [[0, 1]],
                              ids=[0])  # id collision -> rejected
        finally:
            server.close()

    def test_append_id_collision_is_rejected(self, tmp_path):
        path = _make_segmented_store(tmp_path, "collide", seed=99)
        with MiningService(workers=1) as service:
            job = service.submit(CONFIG, store=str(path))
            service._queue.join()
            with pytest.raises(ServiceError, match="append rejected"):
                service.append_to_store(
                    job.store_digest, [[0, 1]], ids=[0]
                )

    @pytest.mark.parametrize(
        "payload, reason",
        [
            ({"database": [[1.5, 2.7], [True, 0]]},
             "row 0 holds 1.5 (float)"),
            ({"database": [[1, 2], [True, 0]]}, "row 1 holds True (bool)"),
            ({"database": [[1, 2], [1, 0]], "ids": [7.9, 8]},
             "'ids' holds 7.9 (float)"),
            ({"database": [[1, 2], [1, 0]], "ids": [False, 41]},
             "'ids' holds False (bool)"),
        ],
        ids=["symbol-float", "symbol-bool", "id-float", "id-bool"],
    )
    def test_malformed_append_is_400(self, tmp_path, payload, reason):
        path = _make_segmented_store(tmp_path, "malformed", seed=66)
        server, _thread = start_server(port=0)
        try:
            client = ServiceClient(server.url)
            digest = client.wait(
                client.submit(CONFIG, store=str(path))["id"]
            )["store_digest"]
            host, port = server.address
            connection = http.client.HTTPConnection(host, port, timeout=30)
            try:
                connection.request(
                    "POST", f"/stores/{digest}/append",
                    body=json.dumps(payload).encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                doc = json.loads(response.read().decode("utf-8"))
            finally:
                connection.close()
            assert response.status == 400, doc
            assert reason in doc["error"]
            # The client sends the values as they are, not truncated.
            with pytest.raises(ServiceError, match="400"):
                client.append(digest, payload["database"],
                              ids=payload.get("ids"))
            # Nothing was written: the digest still names the store.
            outcome = client.append(digest, [[0, 1]])
            assert outcome["n_sequences"] == 41
        finally:
            server.close()


class TestParallelJobs:
    """Jobs on a multi-worker engine count through the same scan and
    factor pin as one worker."""

    def test_parallel_job_counts_through_the_pin(
        self, tmp_path, monkeypatch
    ):
        # The per-store engine is built lazily by the daemon, and reads
        # the worker count from the environment at construction.  600
        # rows span three 256-row chunks, so the pool counts them.
        path = _make_store(tmp_path, "parallel.nmp", seed=33,
                           sequences=600)
        config = dict(CONFIG, max_weight=2)
        results = {}
        for workers in ("1", "2"):
            monkeypatch.setenv("NOISYMINE_WORKERS", workers)
            with MiningService(workers=1) as service:
                job = service.submit(config, store=str(path))
                service._queue.join()
                assert job.state == "done", job.error
                results[workers] = job.result
        metrics = results["2"]["metrics"]
        assert metrics["context"]["workers"] == 2
        counters = metrics["counters"]
        assert counters[FACTOR_CACHE_HITS] + counters[
            FACTOR_CACHE_MISSES
        ] == 3 * results["2"]["scans"]
        assert _strip_timing(results["2"]) == _strip_timing(results["1"])
