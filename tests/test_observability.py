"""The observability layer: tracer semantics, RunReport schema, and the
acceptance invariant — for every miner × engine combination, the
per-phase ``"scans"`` counters of the report's top-level phases sum
exactly to the database's measured ``scan_count`` delta.

Also holds the regression tests for the correctness fixes that ride on
the same plumbing: zero-restricted-spread patterns must be classified
infrequent without burning Phase-3 probes, threshold-exact matches must
be frequent when the sample is the whole database, and oversized sample
requests must clamp (with the effective size recorded in the report).
"""

from __future__ import annotations

import functools
import json

import numpy as np
import pytest

from repro import (
    Border,
    BorderCollapsingMiner,
    CompatibilityMatrix,
    DepthFirstMiner,
    LevelwiseMiner,
    MaxMiner,
    MiningError,
    MiningResult,
    Pattern,
    PatternConstraints,
    PincerMiner,
    SequenceDatabase,
    ToivonenMiner,
)
from repro.cli import main as cli_main
from repro.engine import VectorizedBatchEngine
from repro.eval import ExperimentTable, phase_scan_series, record_run
from repro.errors import NoisyMineError
from repro.mining import ambiguous as ambiguous_mod
from repro.mining.chernoff import INFREQUENT
from repro.mining.collapsing import collapse_borders
from repro.obs import (
    IO_BYTES_READ,
    IO_CHUNK_SECONDS,
    IO_CHUNKS,
    NULL_TRACER,
    NullTracer,
    PhaseReport,
    RunReport,
    SCANS,
    Span,
    Tracer,
    ensure_tracer,
    io_snapshot,
    record_io,
)

from .oracles import ReferenceEngine

M = 5
CONSTRAINTS = PatternConstraints(max_weight=3, max_span=4)
MIN_MATCH = 0.45


@pytest.fixture
def small_db() -> SequenceDatabase:
    rng = np.random.default_rng(5)
    return SequenceDatabase(
        [list(rng.integers(0, M, size=8)) for _ in range(24)]
    )


@pytest.fixture
def noise_matrix() -> CompatibilityMatrix:
    return CompatibilityMatrix.uniform_noise(M, 0.1)


#: Engines the scan invariant is pinned on, by report name.
ENGINES = {
    "reference": ReferenceEngine,
    "vectorized": VectorizedBatchEngine,
    "parallel": functools.partial(VectorizedBatchEngine, workers=2),
}


def make_miner(algorithm, matrix, engine, tracer):
    engine = ENGINES[engine]()
    if algorithm == "border-collapsing":
        return BorderCollapsingMiner(
            matrix, MIN_MATCH, sample_size=24, constraints=CONSTRAINTS,
            rng=np.random.default_rng(1), engine=engine, tracer=tracer,
        )
    if algorithm == "levelwise":
        return LevelwiseMiner(
            matrix, MIN_MATCH, constraints=CONSTRAINTS,
            engine=engine, tracer=tracer,
        )
    if algorithm == "maxminer":
        return MaxMiner(
            matrix, MIN_MATCH, constraints=CONSTRAINTS,
            engine=engine, tracer=tracer,
        )
    if algorithm == "pincer":
        return PincerMiner(
            matrix, MIN_MATCH, constraints=CONSTRAINTS,
            engine=engine, tracer=tracer,
        )
    if algorithm == "toivonen":
        return ToivonenMiner(
            matrix, MIN_MATCH, sample_size=24, constraints=CONSTRAINTS,
            rng=np.random.default_rng(1), engine=engine, tracer=tracer,
        )
    if algorithm == "depthfirst":
        return DepthFirstMiner(
            matrix, MIN_MATCH, constraints=CONSTRAINTS,
            engine=engine, tracer=tracer,
        )
    raise AssertionError(algorithm)


ALGORITHMS = [
    "border-collapsing", "levelwise", "maxminer",
    "pincer", "toivonen", "depthfirst",
]


# -- the acceptance invariant --------------------------------------------------


class TestPhaseScanInvariant:
    @pytest.mark.parametrize(
        "engine", ["reference", "vectorized", "parallel"]
    )
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_phase_scans_sum_to_scan_count(
        self, small_db, noise_matrix, algorithm, engine
    ):
        tracer = Tracer()
        miner = make_miner(algorithm, noise_matrix, engine, tracer)
        before = small_db.scan_count
        result = miner.mine(small_db)
        consumed = small_db.scan_count - before

        report = result.report
        assert report is not None
        assert report.algorithm == algorithm == miner.algorithm
        assert report.engine == miner.engine.name
        assert report.engine == ("vectorized" if engine == "parallel"
                                 else engine)
        assert report.scans == result.scans == consumed
        assert sum(phase.scans for phase in report.phases) == consumed
        assert sum(report.scans_by_phase().values()) == consumed
        assert report.total(SCANS) == consumed
        assert report.elapsed_seconds >= 0.0
        for phase in report.phases:
            assert phase.elapsed_seconds >= 0.0

    @pytest.mark.parametrize("storage", ["text", "packed"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_phase_scans_hold_on_disk_backends(
        self, small_db, noise_matrix, tmp_path, algorithm, storage
    ):
        # The invariant must survive the move to disk residency: the
        # chunked streaming scans consume exactly the passes the
        # in-memory run consumes, phase by phase.
        from repro import FileSequenceDatabase, PackedSequenceStore

        path = tmp_path / "db.txt"
        small_db.save(path)
        if storage == "packed":
            database = PackedSequenceStore.from_database(
                small_db, tmp_path / "db.nmp"
            )
        else:
            database = FileSequenceDatabase(path)

        baseline_tracer = Tracer()
        baseline = make_miner(
            algorithm, noise_matrix, "reference", baseline_tracer
        ).mine(small_db)

        tracer = Tracer()
        miner = make_miner(algorithm, noise_matrix, "reference", tracer)
        result = miner.mine(database)
        consumed = database.scan_count

        report = result.report
        assert report.scans == result.scans == consumed
        assert sum(phase.scans for phase in report.phases) == consumed
        # Per-phase scan counts identical to the in-memory run.
        assert report.scans_by_phase() == \
            baseline.report.scans_by_phase()
        assert result.frequent == baseline.frequent  # bit-identical
        # Disk backends surface their traffic; every scanned byte is
        # attributed to some phase.
        assert report.total(IO_BYTES_READ) > 0
        assert sum(
            phase.counters.get(IO_BYTES_READ, 0)
            for phase in report.phases
        ) == report.total(IO_BYTES_READ)

    def test_untraced_run_has_no_report(self, small_db, noise_matrix):
        miner = make_miner(
            "levelwise", noise_matrix, "reference", tracer=None
        )
        result = miner.mine(small_db)
        assert result.report is None

    @pytest.mark.parametrize("algorithm", ["border-collapsing", "toivonen"])
    def test_resident_sample_keeps_scan_accounting(
        self, small_db, noise_matrix, algorithm
    ):
        # The resident Phase-2 evaluator changes wall-clock only: the
        # scan and sample-scan counters (and every result value) must
        # equal a run counting the sample with the oracle.
        results = {}
        for resident in (False, True):
            tracer = Tracer()
            miner = make_miner(algorithm, noise_matrix, "reference", tracer)
            if not resident:
                miner.sample_engine = ReferenceEngine()
            before = small_db.scan_count
            result = miner.mine(small_db)
            consumed = small_db.scan_count - before
            assert result.scans == consumed
            assert sum(p.scans for p in result.report.phases) == consumed
            results[resident] = result
        base, res = results[False], results[True]
        assert base.scans == res.scans
        assert base.report.total(SCANS) == res.report.total(SCANS)
        assert base.report.total("sample_scans") \
            == res.report.total("sample_scans")
        assert set(base.frequent) == set(res.frequent)
        for pattern, value in base.frequent.items():
            assert res.frequent[pattern] == pytest.approx(value, abs=1e-12)


# -- tracer --------------------------------------------------------------------


class TestTracer:
    def test_counts_roll_up_through_the_stack(self):
        tracer = Tracer()
        with tracer.phase("outer"):
            tracer.count(SCANS, 1)
            with tracer.phase("inner"):
                tracer.count(SCANS, 2)
        outer = tracer.phases()[0]
        inner = outer.children[0]
        assert inner.scans == 2
        assert outer.scans == 3  # includes the descendant
        assert tracer.total(SCANS) == 3
        assert tracer.totals() == {SCANS: 3}

    def test_annotate_targets_current_span_note_targets_root(self):
        tracer = Tracer()
        with tracer.phase("p"):
            tracer.annotate("remaining", 7)
            tracer.note("workers", 4)
        assert tracer.phases()[0].notes == {"remaining": 7}
        assert tracer.root.notes == {"workers": 4}

    def test_walk_is_depth_first_root_first(self):
        tracer = Tracer()
        with tracer.phase("a"):
            with tracer.phase("a1"):
                pass
        with tracer.phase("b"):
            pass
        assert [span.name for span in tracer.walk()] == [
            "run", "a", "a1", "b",
        ]

    def test_repeated_phase_accumulates_elapsed(self):
        tracer = Tracer()
        span_ctx = tracer.phase("p")
        with span_ctx:
            pass
        first = tracer.phases()[0].elapsed_seconds
        with span_ctx:
            pass
        assert tracer.phases()[0].elapsed_seconds >= first

    def test_report_freezes_phases_and_context(self):
        tracer = Tracer()
        tracer.note("effective_sample_size", 10)
        with tracer.phase("phase1-scan"):
            tracer.count(SCANS, 1)
        report = tracer.report(
            algorithm="levelwise", engine="reference",
            scans=1, elapsed_seconds=0.5,
        )
        assert isinstance(report, RunReport)
        assert [phase.name for phase in report.phases] == ["phase1-scan"]
        assert report.context == {"effective_sample_size": 10}
        assert report.counters == {SCANS: 1}

    def test_null_tracer_is_inert(self):
        assert ensure_tracer(None) is NULL_TRACER
        tracer = Tracer()
        assert ensure_tracer(tracer) is tracer
        assert isinstance(NULL_TRACER, NullTracer)
        assert not NULL_TRACER.enabled
        with NULL_TRACER.phase("anything") as span:
            assert span is None
            NULL_TRACER.count(SCANS, 3)
            NULL_TRACER.annotate("k", 1)
            NULL_TRACER.note("k", 1)
        assert NULL_TRACER.phases() == []
        assert NULL_TRACER.total(SCANS) == 0
        assert NULL_TRACER.totals() == {}
        assert list(NULL_TRACER.walk()) == []
        assert NULL_TRACER.report(
            algorithm="x", engine="y", scans=0, elapsed_seconds=0.0
        ) is None
        with pytest.raises(MiningError):
            NULL_TRACER.root

    def test_span_count_and_repr(self):
        span = Span("p")
        span.count(SCANS)
        span.count(SCANS, 2)
        assert span.scans == 3
        assert "p" in repr(span)


class TestTracerThreadSafety:
    """The daemon records from worker threads while request handlers
    snapshot — one tracer, many threads, no torn state."""

    def test_multithreaded_recording_is_consistent(self):
        import threading

        tracer = Tracer()
        n_threads, per_thread = 8, 200
        barrier = threading.Barrier(n_threads)

        def work(index):
            barrier.wait()
            for i in range(per_thread):
                with tracer.phase(f"worker-{index}"):
                    tracer.count(SCANS, 1)
                    with tracer.phase("inner"):
                        tracer.count("units", 2)

        threads = [
            threading.Thread(target=work, args=(i,))
            for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = n_threads * per_thread
        assert tracer.total(SCANS) == total
        assert tracer.total("units") == 2 * total
        # Every thread rooted its spans under the shared root (one span
        # per phase() call), and no increment was lost or misattributed.
        spans = tracer.phases()
        assert len(spans) == total
        scans_by_name: dict = {}
        for span in spans:
            scans_by_name[span.name] = scans_by_name.get(span.name, 0) \
                + span.scans
        assert len(scans_by_name) == n_threads
        for index in range(n_threads):
            assert scans_by_name[f"worker-{index}"] == per_thread

    def test_snapshot_while_recording(self):
        import threading

        tracer = Tracer()
        stop = threading.Event()
        errors = []

        def snapshotter():
            while not stop.is_set():
                try:
                    snapshot = tracer.snapshot()
                    assert snapshot["name"] == "run"
                    assert snapshot["counters"].get(SCANS, 0) >= 0
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)
                    return

        reader = threading.Thread(target=snapshotter)
        reader.start()
        for _ in range(500):
            with tracer.phase("hot"):
                tracer.count(SCANS, 1)
        stop.set()
        reader.join(timeout=10.0)
        assert not errors
        assert tracer.total(SCANS) == 500

    def test_snapshot_reports_open_spans(self):
        tracer = Tracer()
        with tracer.phase("open-phase"):
            tracer.count(SCANS, 1)
            snapshot = tracer.snapshot()
            children = {c["name"]: c for c in snapshot["children"]}
            assert children["open-phase"]["open"] is True
            assert children["open-phase"]["elapsed_seconds"] >= 0.0
        done = tracer.snapshot()
        children = {c["name"]: c for c in done["children"]}
        assert children["open-phase"]["open"] is False

    def test_null_tracer_snapshot_is_empty(self):
        assert NULL_TRACER.snapshot() == {}


class TestIoRecording:
    class FakeDisk:
        def __init__(self):
            self.io_bytes_read = 0
            self.io_chunks = 0
            self.io_chunk_seconds = 0.0

    def test_deltas_land_on_the_open_span(self):
        tracer = Tracer()
        disk = self.FakeDisk()
        with tracer.phase("phase1-scan"):
            before = io_snapshot(disk)
            disk.io_bytes_read += 4096
            disk.io_chunks += 2
            disk.io_chunk_seconds += 0.25
            record_io(tracer, disk, before)
        phase = tracer.phases()[0]
        assert phase.counters[IO_BYTES_READ] == 4096
        assert phase.counters[IO_CHUNKS] == 2
        assert phase.counters[IO_CHUNK_SECONDS] == 0.25
        assert tracer.total(IO_BYTES_READ) == 4096

    def test_memory_database_records_nothing(self, small_db):
        # In-memory databases have no io counters; the snapshot is all
        # zeros and no counter keys are created.
        tracer = Tracer()
        with tracer.phase("p"):
            before = io_snapshot(small_db)
            list(small_db.scan())
            record_io(tracer, small_db, before)
        assert IO_BYTES_READ not in tracer.phases()[0].counters
        assert tracer.total(IO_BYTES_READ) == 0

    def test_null_tracer_skips_the_work(self):
        disk = self.FakeDisk()
        before = io_snapshot(disk)
        disk.io_bytes_read += 10
        record_io(NULL_TRACER, disk, before)  # must not raise

    def test_float_seconds_survive_report_round_trip(self):
        tracer = Tracer()
        disk = self.FakeDisk()
        with tracer.phase("phase1-scan"):
            before = io_snapshot(disk)
            disk.io_bytes_read += 8
            disk.io_chunk_seconds += 0.125
            record_io(tracer, disk, before)
        report = tracer.report(
            algorithm="levelwise", engine="reference",
            scans=1, elapsed_seconds=0.0,
        )
        payload = json.loads(json.dumps(report.to_dict()))
        rebuilt = RunReport.from_dict(payload)
        assert rebuilt == report
        assert rebuilt.phases[0].counters[IO_CHUNK_SECONDS] == 0.125
        assert isinstance(
            rebuilt.phases[0].counters[IO_CHUNK_SECONDS], float
        )


# -- report schema -------------------------------------------------------------


class TestRunReport:
    def _report(self) -> RunReport:
        return RunReport(
            algorithm="border-collapsing",
            engine="vectorized",
            scans=3,
            elapsed_seconds=0.25,
            phases=[
                PhaseReport("phase1-scan", 0.1, counters={SCANS: 1}),
                PhaseReport(
                    "phase3-collapse", 0.1, counters={SCANS: 2},
                    notes={"x": 1},
                    children=[
                        PhaseReport("probe-round-1", 0.05,
                                    counters={SCANS: 2}),
                    ],
                ),
            ],
            counters={SCANS: 3},
            context={"workers": 2},
        )

    def test_round_trips_through_dict_and_json(self):
        report = self._report()
        payload = json.loads(json.dumps(report.to_dict()))
        assert RunReport.from_dict(payload) == report

    def test_scans_by_phase_merges_repeated_names(self):
        report = RunReport(
            algorithm="levelwise", engine="reference", scans=3,
            elapsed_seconds=0.0,
            phases=[
                PhaseReport("level", 0.0, counters={SCANS: 1}),
                PhaseReport("level", 0.0, counters={SCANS: 2}),
            ],
        )
        assert report.scans_by_phase() == {"level": 3}

    def test_phase_lookup_and_totals(self):
        report = self._report()
        assert report.phase("phase1-scan").scans == 1
        assert report.phase("missing") is None
        assert report.total(SCANS) == 3
        assert report.total("never-recorded") == 0

    def test_summary_is_one_line(self):
        summary = self._report().summary()
        assert "\n" not in summary
        assert "border-collapsing/vectorized" in summary
        assert "3 scans" in summary

    def test_mining_result_round_trips_report(self):
        result = MiningResult(
            frequent={Pattern.single(0): 0.5},
            border=Border([Pattern.single(0)]),
            scans=3,
            elapsed_seconds=0.1,
            report=self._report(),
        )
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["metrics"]["scans"] == 3
        rebuilt = MiningResult.from_dict(payload)
        assert rebuilt.report == result.report
        untraced = MiningResult(
            frequent={}, border=Border(), scans=0, elapsed_seconds=0.0
        )
        assert "metrics" not in untraced.to_dict()
        assert MiningResult.from_dict(untraced.to_dict()).report is None


# -- eval-harness consumption --------------------------------------------------


class TestHarnessConsumption:
    def test_phase_scan_series_from_traced_result(
        self, small_db, noise_matrix
    ):
        miner = make_miner(
            "border-collapsing", noise_matrix, "reference", Tracer()
        )
        result = miner.mine(small_db)
        series = phase_scan_series(result)
        assert series["total"] == result.scans
        assert sum(v for k, v in series.items() if k != "total") \
            == result.scans
        assert phase_scan_series(result.report) == series

    def test_record_run_fills_table(self, small_db, noise_matrix):
        miner = make_miner("levelwise", noise_matrix, "reference", Tracer())
        result = miner.mine(small_db)
        table = ExperimentTable("scans per phase", "n")
        record_run(table, 24, result)
        assert "total" in table.series_names
        assert table.cells[(24, "total")] == result.scans

    def test_untraced_result_is_rejected(self, small_db, noise_matrix):
        miner = make_miner("levelwise", noise_matrix, "reference", None)
        result = miner.mine(small_db)
        with pytest.raises(NoisyMineError):
            phase_scan_series(result)


# -- regression: zero restricted spread ----------------------------------------


def threshold_exact_db() -> SequenceDatabase:
    # With an identity (noise-free) matrix, the pattern (d0 d1) matches
    # exactly 2 of the 4 sequences: its match is precisely 0.5.
    return SequenceDatabase([[0, 1], [0, 1], [0, 2], [2, 2]])


IDENTITY3 = CompatibilityMatrix(np.eye(3))
TIGHT = PatternConstraints(max_weight=2, max_span=2)


class TestZeroSpreadShortCircuit:
    def test_zero_spread_is_infrequent_and_never_probed(self, monkeypatch):
        db = threshold_exact_db()
        target = Pattern([0, 1])
        real_spreads = ambiguous_mod.batch_restricted_spread
        monkeypatch.setattr(
            ambiguous_mod, "batch_restricted_spread",
            lambda patterns, sm: np.where(
                [p == target for p in patterns], 0.0,
                real_spreads(patterns, sm),
            ),
        )
        counted = []
        real_count = ambiguous_mod.count_matches_batched

        def spy(patterns, *args, **kwargs):
            counted.extend(patterns)
            return real_count(patterns, *args, **kwargs)

        monkeypatch.setattr(ambiguous_mod, "count_matches_batched", spy)

        symbol_match = VectorizedBatchEngine().symbol_matches(db, IDENTITY3)
        classification = ambiguous_mod.classify_on_sample(
            db, IDENTITY3, 0.5, 0.25, symbol_match, TIGHT
        )
        # The guard fires before counting: the provably-0 pattern is
        # decided without sample work...
        assert classification.labels[target] == INFREQUENT
        assert classification.sample_matches[target] == 0.0
        assert classification.epsilons[target] == 0.0
        assert target not in counted
        # ...and, the collapse-path regression: without the guard the
        # zero-width band leaves the threshold-exact sample match (0.5)
        # ambiguous and Phase 3 burns a probe scan on it.
        assert classification.ambiguous_count() == 0
        before = db.scan_count
        outcome = collapse_borders(db, IDENTITY3, 0.5, classification)
        assert outcome.scans == 0
        assert outcome.probe_rounds == []
        assert db.scan_count == before


# -- regression: threshold-exact matches under an exact sample -----------------


class TestExactThreshold:
    def test_exact_match_at_threshold_is_frequent_without_probes(self):
        db = threshold_exact_db()
        tracer = Tracer()
        miner = BorderCollapsingMiner(
            IDENTITY3, 0.5, sample_size=4, constraints=TIGHT,
            rng=np.random.default_rng(0), tracer=tracer,
        )
        result = miner.mine(db)
        assert result.frequent[Pattern([0, 1])] == pytest.approx(0.5)
        # Exact sample: nothing ambiguous, Phase 3 never scans.
        assert result.extras["ambiguous_patterns"] == 0
        assert result.scans == 1
        assert result.report.phase("phase3-collapse").scans == 0
        assert result.report.scans_by_phase() == {
            "phase1-scan": 1,
            "phase2-sample-mining": 0,
            "phase3-collapse": 0,
        }

    def test_oversized_sample_clamps_and_is_recorded(self):
        db = threshold_exact_db()
        tracer = Tracer()
        miner = BorderCollapsingMiner(
            IDENTITY3, 0.5, sample_size=99, constraints=TIGHT,
            rng=np.random.default_rng(0), tracer=tracer,
        )
        result = miner.mine(db)
        assert result.extras["sample_size"] == 4
        assert result.report.context["requested_sample_size"] == 99
        assert result.report.context["effective_sample_size"] == 4
        # Clamped to the whole database, the run is exact too.
        assert result.frequent[Pattern([0, 1])] == pytest.approx(0.5)


# -- CLI surface ---------------------------------------------------------------


@pytest.fixture
def generated(tmp_path):
    path = tmp_path / "db.txt"
    code = cli_main([
        "generate", str(path),
        "--sequences", "60",
        "--length", "12",
        "--alphabet", "6",
        "--motif-weight", "3",
        "--motifs", "1",
        "--seed", "11",
    ])
    assert code == 0
    return path


MINE_ARGS = [
    "--alphabet", "6", "--min-match", "0.6", "--noise", "0.05",
    "--sample-size", "60", "--max-weight", "4", "--max-span", "5",
    "--seed", "7",
]


class TestCliMetrics:
    def test_metrics_json_file_holds_a_valid_report(
        self, generated, tmp_path, capsys
    ):
        out = tmp_path / "metrics.json"
        code = cli_main([
            "mine", str(generated), *MINE_ARGS,
            "--metrics-json", str(out),
        ])
        assert code == 0
        assert f"metrics written to {out}" in capsys.readouterr().out
        report = RunReport.from_dict(json.loads(out.read_text()))
        assert report.algorithm == "border-collapsing"
        assert sum(report.scans_by_phase().values()) == report.scans
        assert report.total(SCANS) == report.scans

    def test_json_metrics_block_matches_the_file(
        self, generated, tmp_path, capsys
    ):
        out = tmp_path / "metrics.json"
        code = cli_main([
            "mine", str(generated), *MINE_ARGS,
            "--json", "--metrics-json", str(out),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"] == json.loads(out.read_text())

    @pytest.mark.parametrize(
        "algorithm",
        ["levelwise", "maxminer", "pincer", "toivonen", "depthfirst"],
    )
    def test_every_algorithm_emits_metrics(
        self, generated, capsys, algorithm
    ):
        code = cli_main([
            "mine", str(generated), *MINE_ARGS,
            "--algorithm", algorithm, "--json",
        ])
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)["metrics"]
        report = RunReport.from_dict(metrics)
        assert report.algorithm == algorithm
        assert sum(report.scans_by_phase().values()) == report.scans

    def test_disk_run_surfaces_io_counters(self, generated, tmp_path,
                                           capsys):
        # Mining a packed store with --metrics-json must expose the
        # chunk traffic; the in-memory-equivalent text run reports its
        # own (much larger) decode volume through the same counters.
        packed = tmp_path / "db.nmp"
        assert cli_main(["convert", str(generated), str(packed)]) == 0
        capsys.readouterr()
        out = tmp_path / "metrics.json"
        code = cli_main([
            "mine", str(packed), *MINE_ARGS, "--metrics-json", str(out),
        ])
        assert code == 0
        report = RunReport.from_dict(json.loads(out.read_text()))
        assert report.total(IO_BYTES_READ) > 0
        assert report.total(IO_CHUNKS) > 0
        assert report.total(IO_CHUNK_SECONDS) >= 0.0
        phase1 = report.phase("phase1-scan")
        assert phase1.counters[IO_BYTES_READ] > 0
