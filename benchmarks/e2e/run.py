#!/usr/bin/env python3
"""End-to-end benchmark: mine, serve and remine, timed from outside.

    python3 benchmarks/e2e/run.py [--workload NAME|all] [--seed S]
        [--seconds T] [--trace 0|1] [--out DIR] [--smoke]

Drives the four workloads the way users do -- ``noisymine`` CLI
processes and a ``noisymine serve`` daemon loaded by at most two client
threads of this process -- and checks every answer against the exact
one (``golden.py``).  For each workload it prints a summary and, as its
last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of BENCHMARK.json, or with
``--trace 1`` its per-layer metrics.  A wrong answer or failed command
counts in ``failed`` and makes the exit code 1.  Every run is also
appended to ``<out>/results.json`` with the machine fingerprint and a
calibration time; ``compare.py`` reads those files.

Inputs come from ``--seed`` and are written, with cached answers, under
``--out`` (default ``benchmarks/e2e/work``); none of that is timed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import golden
import tracing
import workloads as wl

E2E = Path(__file__).resolve().parent
BENCHMARK_JSON = wl.ROOT / "BENCHMARK.json"
DEFAULT_OUT = E2E / "work"

#: Upper bound on one child command; a hung child is killed and fails.
CHILD_TIMEOUT_S = 150.0


# -- child processes -------------------------------------------------------


@dataclass
class Child:
    """One finished child process, with its own resource usage."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    out: str
    err: str


def cli(args: List[str], spans: Optional[Path] = None) -> List[str]:
    """argv of one ``noisymine`` command; with *spans*, run through the
    tracing bootstrap, which writes the command's spans there."""
    if spans is None:
        return [sys.executable, "-m", "repro.cli", *map(str, args)]
    return [sys.executable, str(E2E / "tracing.py"), "--spans", str(spans),
            "--", *map(str, args)]


def run_child(argv: List[str], timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run *argv* in the scrubbed environment and reap it with
    ``os.wait4``, so CPU time and peak RSS are this child's alone
    (``RUSAGE_CHILDREN`` would report the maximum over all children)."""
    with tempfile.TemporaryFile() as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=err, cwd=wl.ROOT,
            env=wl.scrubbed_env(os.environ, wl.SRC),
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Child(
            code=proc.returncode, wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            out=out.decode(), err=err.read().decode(errors="replace"),
        )


def printed_patterns(stdout: str) -> List[str]:
    """Pattern strings of ``mine``/``remine`` table output."""
    return [
        line.split(" match=")[0].strip()
        for line in stdout.splitlines()
        if line.startswith("  ") and " match=" in line
    ]


class Daemon:
    """A ``noisymine serve`` child, started and stopped by SIGINT.

    Start-up ends when ``/healthz`` answers, not at the "listening"
    line: a SIGINT that lands before the accept loop runs leaves the
    daemon's shutdown waiting forever.
    """

    def __init__(self, spans: Optional[Path] = None):
        from repro.errors import ServiceError
        from repro.service.client import ServiceClient

        self._err = tempfile.TemporaryFile()
        self.proc = subprocess.Popen(
            cli(["serve", "--port", "0", "--workers", "2", "--quiet"], spans),
            stdout=subprocess.PIPE, stderr=self._err, cwd=wl.ROOT,
            env=wl.scrubbed_env(os.environ, wl.SRC), text=True,
        )
        timer = threading.Timer(60.0, self.proc.kill)
        timer.start()
        try:
            for line in self.proc.stdout:
                if "listening on http://" in line:
                    self.url = line.split()[-1]
                    break
            else:
                raise RuntimeError(f"daemon exited before listening: "
                                   f"{self._stderr()}")
            while self.proc.poll() is None:
                try:
                    ServiceClient(self.url, timeout=5.0).healthz()
                    break
                except ServiceError:
                    time.sleep(0.005)
            else:
                raise RuntimeError(f"daemon exited during start-up: "
                                   f"{self._stderr()}")
        except BaseException:
            self.stop()
            raise
        finally:
            timer.cancel()

    def _stderr(self) -> str:
        self._err.seek(0)
        return self._err.read().decode(errors="replace")[-500:]

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        """SIGINT, drain, reap; returns the exit code."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGINT)
            timer = threading.Timer(30.0, self.proc.kill)
            timer.start()
            try:
                self.proc.stdout.read()
                self.proc.wait()
            finally:
                timer.cancel()
                self.proc.stdout.close()
                self._err.close()
        return self.proc.returncode


# -- one run of one workload ------------------------------------------------


@dataclass
class Batch:
    """The operations of one measured pass."""

    walls: List[float] = field(default_factory=list)
    cpus: List[float] = field(default_factory=list)
    rss_mb: float = 0.0
    loop_s: float = 0.0
    #: Ops per client (daemon) or in total; a traced pass repeats them.
    counts: object = None
    #: Daemon CPU over the pass, when one process serves every op.
    cpu_total_s: Optional[float] = None
    #: Traced passes: span files, RunReport dicts, bench-timed layers.
    spans: List[dict] = field(default_factory=list)
    reports: List[dict] = field(default_factory=list)
    appends: List[float] = field(default_factory=list)
    service: Dict[str, float] = field(default_factory=dict)

    def add(self, wall: float, cpu: float, rss_mb: float) -> None:
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.rss_mb = max(self.rss_mb, rss_mb)

    def cpu_per_op(self) -> float:
        if self.cpu_total_s is not None:
            return self.cpu_total_s / len(self.walls)
        return statistics.median(self.cpus)


def _ops(seconds: Optional[float], count: Optional[int]):
    """Op indices until *seconds* have passed, or exactly *count*."""
    started = time.perf_counter()
    index = 0
    while (index < count if count is not None
           else time.perf_counter() - started < seconds):
        yield index
        index += 1


class Run:
    """Inputs, answers and the failure tally of one workload run."""

    def __init__(self, workload: str, scale_name: str, seed: int, out: Path):
        self.workload, self.seed = workload, seed
        self.scale = wl.SCALES[scale_name]
        self.answers = golden.load(workload, scale_name, seed, out / "goldens")
        self.parts = wl.inputs(workload, self.scale, seed)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=out))
        self.attempted = self.failed = 0
        self.failures: List[str] = []
        self.convert_walls: List[float] = []
        self.op_walls: List[float] = []
        self._lock = threading.Lock()

    def record(self, ok: bool, what: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures.append(what)
        return ok

    def check(self, child: Child, what: str,
              answer: Optional[str] = None) -> bool:
        """Count *child* as one operation: it must exit 0 and, given an
        *answer* key, print exactly that answer's pattern set."""
        if child.code != 0:
            return self.record(False, f"{what}: exit {child.code}: "
                                      f"{child.err.strip()[-300:]}")
        if answer is not None:
            got = golden.digest(printed_patterns(child.out))
            if got != self.answers[answer]:
                return self.record(False, f"{what}: {got['count']} patterns, "
                                          f"expected {answer} {self.answers[answer]}")
        return self.record(True, what)

    def convert(self, *args) -> float:
        child = run_child(cli(["convert", *args]))
        self.check(child, "convert")
        self.convert_walls.append(child.wall_s)
        return child.wall_s

    def mine_command(self, args: List[str], traced: bool, index: int,
                    batch: Batch, what: str, answer: str) -> Child:
        """One mine/remine command; traced, it also yields its spans and
        RunReport into *batch*."""
        spans = report = None
        if traced:
            spans = self.dir / f"spans-{index}.json"
            report = self.dir / f"report-{index}.json"
            args = [*args, "--metrics-json", report]
        child = run_child(cli(args, spans))
        if self.check(child, what, answer) and traced:
            batch.spans.append(json.loads(spans.read_text()))
            batch.reports.append(json.loads(report.read_text()))
        return child


class Workload:
    """One workload's set-up and operations; ``reset`` returns state the
    operations changed, ``close`` stops what set-up started."""

    #: Whether full-store scans per operation repeat exactly for a seed.
    exact_scans = True

    def reset(self) -> None:
        pass

    def close(self) -> None:
        pass


class MineWorkload(Workload):
    """``bc-*``: repeated ``mine`` commands over one packed store."""

    def __init__(self, run: Run, sample_size: int):
        self.run = run
        self.text = run.dir / "input.txt"
        self.store = run.dir / "store.nmp"
        wl.write_text(self.text, run.parts["store"])
        self.flags = wl.mine_flags(run.scale.bc_min_match, sample_size)

    def setup(self) -> float:
        self.store.unlink(missing_ok=True)
        return self.run.convert(self.text, self.store)

    def ops(self, traced: bool, seconds=None, count=None) -> Batch:
        batch = Batch()
        started = time.perf_counter()
        for index in _ops(seconds, count):
            child = self.run.mine_command(
                ["mine", self.store, *self.flags], traced, index, batch,
                "mine", "frequent",
            )
            batch.add(child.wall_s, child.cpu_s, child.rss_mb)
        batch.loop_s = time.perf_counter() - started
        batch.counts = len(batch.walls)
        return batch


class DaemonWorkload(Workload):
    """``daemon-mix``: two closed-loop clients, one store each."""

    # Which jobs a time-bounded pass completes varies from run to run.
    exact_scans = False

    CLIENTS = (1, 2)

    def __init__(self, run: Run):
        self.run = run
        self.daemon: Optional[Daemon] = None
        self.stores = {}
        for k in self.CLIENTS:
            text = run.dir / f"store{k}.txt"
            wl.write_text(text, run.parts[f"store{k}"])
            self.stores[k] = (text, run.dir / f"store{k}.nmp")

    def setup(self) -> float:
        """Both converts plus daemon start-up until ``/healthz`` answers."""
        self.close()
        wall = 0.0
        for text, store in self.stores.values():
            store.unlink(missing_ok=True)
            wall += self.run.convert(text, store)
        started = time.perf_counter()
        self.daemon = Daemon()
        return wall + time.perf_counter() - started

    def ops(self, traced: bool, seconds=None, count=None) -> Batch:
        if traced or self.daemon is None:
            self.close()
            self.daemon = Daemon(self.run.dir / "spans-daemon.json"
                                 if traced else None)
        from repro.service.client import ServiceClient

        batch = Batch()
        client = ServiceClient(self.daemon.url)
        cpu_before = self.daemon.cpu_s()
        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=len(self.CLIENTS)) as pool:
            futures = [
                pool.submit(self._client, k, traced, seconds,
                            None if count is None else count[i])
                for i, k in enumerate(self.CLIENTS)
            ]
            results = [future.result() for future in futures]
        batch.loop_s = time.perf_counter() - started
        batch.cpu_total_s = self.daemon.cpu_s() - cpu_before
        batch.rss_mb = self.daemon.peak_rss_mb()
        batch.counts = tuple(len(jobs) for jobs in results)
        jobs = [job for client_jobs in results for job in client_jobs]
        batch.walls = [job["latency"] for job in jobs]
        if traced:
            batch.service = self._service_metrics(jobs, client.healthz())
            batch.reports = [job["report"] for job in jobs if job["report"]]
        self.close()
        if traced:
            batch.spans.append(json.loads(
                (self.run.dir / "spans-daemon.json").read_text()))
        return batch

    def _client(self, k: int, traced: bool, seconds, count) -> List[dict]:
        from repro.service.client import ServiceClient

        client = ServiceClient(self.daemon.url)
        stream = wl.daemon_jobs(self.run.scale, self.run.seed, k)
        store = str(self.stores[k][1])
        jobs = []
        for _ in _ops(seconds, count):
            config, t = next(stream)
            started = time.perf_counter()
            try:
                job_id = client.submit(config, store=store)["id"]
                doc = client.wait(job_id, timeout=CHILD_TIMEOUT_S,
                                  poll_interval=0.005)
            except Exception as exc:  # noqa: BLE001 - a failed job
                self.run.record(False, f"job on store{k}: {exc}")
                continue
            latency = time.perf_counter() - started
            answer = f"store{k}@{t}"
            got = golden.digest(doc["result"]["patterns"])
            self.run.record(got == self.run.answers[answer],
                            f"job {config} on store{k}: {got['count']} "
                            f"patterns, expected {self.run.answers[answer]}")
            job = {"latency": latency, "memo_hit": doc["memo_hit"],
                   "report": None}
            if traced:
                status = client.status(job_id)
                job.update(submitted=status["submitted_at"],
                           started=status["started_at"],
                           finished=status["finished_at"])
                if not doc["memo_hit"]:
                    job["report"] = doc["result"].get("metrics")
            jobs.append(job)
        return jobs

    @staticmethod
    def _service_metrics(jobs: List[dict], health: dict) -> Dict[str, float]:
        memo = health["result_memo"]
        stores = health["store_cache"]
        return {
            "service.queue_wait_p50_s": statistics.median(
                j["started"] - j["submitted"] for j in jobs),
            "service.run_p50_s": statistics.median(
                j["finished"] - j["started"] for j in jobs),
            "service.overhead_p50_s": statistics.median(
                j["latency"] - (j["finished"] - j["submitted"])
                for j in jobs),
            "service.job_p90_s": _p90([j["latency"] for j in jobs]),
            "service.memo_hit_ratio": memo["hits"] / len(jobs),
            "service.store_hit_ratio": stores["hits"] / max(
                1, stores["hits"] + stores["misses"]),
            "service.resident_repins":
                health["resident_planes"]["repins"] / len(jobs),
        }

    def close(self) -> None:
        if self.daemon is not None:
            daemon, self.daemon = self.daemon, None
            self.run.record(daemon.stop() == 0, "daemon shutdown")


class RemineWorkload(Workload):
    """``append-remine``: rounds of append + ``remine`` over a
    checkpointed segmented store; after the last prepared batch the
    store and checkpoint return to their post-setup copies."""

    def __init__(self, run: Run):
        self.run = run
        scale = run.scale
        self.text = run.dir / "input.txt"
        wl.write_text(self.text, run.parts["store"])
        self.store = run.dir / "store"
        self.checkpoint = run.dir / "checkpoint.json"
        self.pristine = run.dir / "pristine"
        self.flags = wl.mine_flags(scale.remine_min_match,
                                   scale.remine_sample_size)
        self.rounds = scale.remine_rounds
        self.round = 0
        self.writer = None

    def setup(self) -> float:
        """``convert --to segmented`` plus ``mine --checkpoint``."""
        self.close()
        shutil.rmtree(self.store, ignore_errors=True)
        wall = self.run.convert(self.text, self.store, "--to", "segmented")
        child = run_child(cli(["mine", self.store, *self.flags,
                               "--checkpoint", self.checkpoint]))
        self.run.check(child, "mine --checkpoint", "round0")
        shutil.rmtree(self.pristine, ignore_errors=True)
        shutil.copytree(self.store, self.pristine / "store")
        shutil.copy(self.checkpoint, self.pristine / "checkpoint.json")
        self.round = 0
        return wall + child.wall_s

    def reset(self) -> None:
        self.close()
        shutil.rmtree(self.store)
        shutil.copytree(self.pristine / "store", self.store)
        shutil.copy(self.pristine / "checkpoint.json", self.checkpoint)
        self.round = 0

    def ops(self, traced: bool, seconds=None, count=None) -> Batch:
        """Rounds for *seconds* (finishing the current cycle, so every
        pass covers whole cycles) or exactly *count* rounds."""
        from repro.io import SegmentedSequenceStore

        batch = Batch()
        started = time.perf_counter()
        index = 0
        while (index < count if count is not None else
               time.perf_counter() - started < seconds
               or self.round != self.rounds):
            index += 1
            if self.round == self.rounds:
                self.reset()
            if self.writer is None:
                self.writer = SegmentedSequenceStore.open(self.store)
            self.round += 1
            rows = self.run.parts[f"delta{self.round}"]
            append_started = time.perf_counter()
            cpu_started = time.process_time()
            self.writer.append(rows)
            append_s = time.perf_counter() - append_started
            append_cpu = time.process_time() - cpu_started
            child = self.run.mine_command(
                ["remine", self.store, "--checkpoint", self.checkpoint,
                 *self.flags],
                traced, index, batch, f"remine round {self.round}",
                f"round{self.round}",
            )
            batch.add(append_s + child.wall_s, append_cpu + child.cpu_s,
                      child.rss_mb)
            batch.appends.append(append_s)
        batch.loop_s = time.perf_counter() - started
        batch.counts = len(batch.walls)
        return batch

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.writer = None


def make_workload(run: Run):
    scale = run.scale
    if run.workload == "bc-sample-5k":
        return MineWorkload(run, scale.bc_sample_size)
    if run.workload == "bc-scan-20k":
        return MineWorkload(run, scale.bc_scan_sample_size)
    if run.workload == "daemon-mix":
        return DaemonWorkload(run)
    return RemineWorkload(run)


# -- metrics ----------------------------------------------------------------


def _p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[-1]


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def timed_pass(run: Run, workload, seconds: float) -> Dict[str, float]:
    setups = [workload.setup() for _ in range(run.scale.setup_reps)]
    batch = workload.ops(traced=False, seconds=seconds)
    run.op_walls = batch.walls
    return {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(batch.walls),
        "ops_per_s": len(batch.walls) / batch.loop_s,
        "cpu_per_op_s": batch.cpu_per_op(),
        "peak_rss_mb": batch.rss_mb,
    }


def trace_pass(run: Run, workload, seconds: float, out: Path
               ) -> Dict[str, float]:
    """Untraced ops for half the time, then the same ops traced; the
    per-layer metrics come from the traced half."""
    workload.setup()
    startup = [run_child([sys.executable, "-c", "import repro.cli"]).wall_s
               for _ in range(3)]
    plain = workload.ops(traced=False, seconds=seconds / 2)
    workload.reset()
    traced = workload.ops(traced=True, count=plain.counts)
    run.op_walls = traced.walls
    n_ops = len(traced.walls)
    metrics = tracing.summarize(
        traced.spans, n_ops, sum(traced.walls),
        covered_s=sum(traced.appends),
        # The daemon starts once, before its ops; CLI ops each start one.
        count_bootstrap=not isinstance(workload, DaemonWorkload),
    )

    def report_total(key: str) -> float:
        return sum(
            r["scans"] if key == "scans" else r["counters"].get(key, 0)
            for r in traced.reports
        ) / n_ops

    metrics.update({
        "io.bytes_read": report_total("io_bytes_read"),
        "io.chunk_s": report_total("io_chunk_seconds"),
        "scans": report_total("scans"),
        "io.convert_s": _median(run.convert_walls),
        "io.append_s": _median(traced.appends),
        "cli.startup_s": statistics.median(startup),
        "trace.overhead_frac": sum(traced.walls) / sum(plain.walls) - 1.0,
    })
    for name in ("queue_wait_p50_s", "run_p50_s", "overhead_p50_s",
                 "job_p90_s", "memo_hit_ratio", "store_hit_ratio",
                 "resident_repins"):
        metrics.setdefault(f"service.{name}", 0.0)
    metrics.update(traced.service)
    doc = {"workload": run.workload, "seed": run.seed,
           "op_walls": traced.walls, "children": traced.spans}
    (out / f"trace_{run.workload}.json").write_text(json.dumps(doc))
    return metrics


# -- results ----------------------------------------------------------------


def fingerprint() -> Dict[str, object]:
    """What decides whether two results files are comparable."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
        "cpu": cpu,
    }


def calibrate() -> float:
    """Median time of a fixed numpy + interpreter probe, to tell a slow
    machine from a slow commit when reading results files."""
    walls = []
    for _ in range(3):
        started = time.perf_counter()
        np.sort(np.random.default_rng(0).random(1_000_000))
        sum(i * i for i in range(300_000))
        walls.append(time.perf_counter() - started)
    return statistics.median(walls)


def run_workload(name: str, args, out: Path, declared: dict) -> dict:
    calib = calibrate()
    run = Run(name, "smoke" if args.smoke else "full", args.seed, out)
    try:
        workload = make_workload(run)
        exact_scans = workload.exact_scans
        try:
            if args.trace:
                metrics = trace_pass(run, workload, args.seconds, out)
            else:
                metrics = timed_pass(run, workload, args.seconds)
        finally:
            workload.close()
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    return {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": int(args.trace), "scale": "smoke" if args.smoke else "full",
        "exact_scans": exact_scans,
        "fingerprint": fingerprint(), "calib_s": calib,
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed, "failures": run.failures[:20],
        "op_walls": [round(wall, 4) for wall in run.op_walls],
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in wanted
        },
    }


def append_result(path: Path, record: dict) -> None:
    records = json.loads(path.read_text()) if path.is_file() else []
    records.append(record)
    path.write_text(json.dumps(records, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of mine, serve and remine.")
    parser.add_argument("--workload", default="all",
                        choices=("all", *wl.WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        nargs="?", const=1)
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help="work dir: inputs, answer cache, results.json "
                             "and trace files")
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-sized inputs, for the self-test")
    args = parser.parse_args(argv)
    if not (wl.SRC / "repro" / "cli.py").is_file():
        print(f"error: no library sources under {wl.SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    declared = json.loads(BENCHMARK_JSON.read_text())
    if args.seconds is None:
        args.seconds = float(declared["run_seconds"])
    wl.use_execution_env()
    if args.trace:
        try:
            tracing.check_entry_points()
        except tracing.MissingEntryPoint as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    names = wl.WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        record = run_workload(name, args, out, declared)
        append_result(out / "results.json", record)
        print(f"{name} seed={args.seed} trace={record['trace']} "
              f"calib_s={record['calib_s']:.4f}")
        for metric, entry in record["metrics"].items():
            print(f"  {metric:32s} {entry['value']:14.6g} {entry['unit']}")
        for failure in record["failures"]:
            print(f"  FAILED {failure}")
        print(json.dumps({key: record[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
        sys.stdout.flush()
        if not record["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
