"""Self-test of the end-to-end benchmark, on seconds-sized inputs.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import golden
import run
import tracing
import workloads as wl

E2E = Path(__file__).resolve().parent
DECLARED = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def bench(out: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--smoke", "--seconds", "0.5",
         "--out", str(out), *args],
        capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module", params=[0, 1], ids=["timed", "traced"])
def all_workloads(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(f"trace{request.param}")
    proc = bench(out, "--trace", str(request.param))
    records = json.loads((out / "results.json").read_text())
    return request.param, out, proc, records


def test_every_declared_metric_is_emitted(all_workloads):
    trace, _out, proc, records = all_workloads
    assert proc.returncode == 0, proc.stderr
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert [r["workload"] for r in records] == list(wl.WORKLOAD_NAMES)
    for record in records:
        assert record["correct"] and record["failed"] == 0, record
        assert record["attempted"] >= 1
        assert list(record["metrics"]) == [m["name"] for m in declared]
        for metric in declared:
            assert NAME.match(metric["name"])
            entry = record["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert math.isfinite(entry["value"])
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_corrupted_golden_fails_the_run(all_workloads, tmp_path):
    trace, out, _proc, _records = all_workloads
    if trace:
        pytest.skip("one corrupted run is enough")
    shutil.copytree(out / "goldens", tmp_path / "goldens")
    [cached] = (tmp_path / "goldens").glob("bc-sample-5k_*")
    answers = json.loads(cached.read_text())
    answers["frequent"]["sha256"] = "0" * 64
    cached.write_text(json.dumps(answers))
    proc = bench(tmp_path, "--workload", "bc-sample-5k")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] > 0


def test_caller_noisymine_env_never_reaches_a_child(monkeypatch):
    monkeypatch.setenv("NOISYMINE_ENGINE", "reference")
    monkeypatch.setenv("NOISYMINE_LATTICE", "reference")
    child = run.run_child([
        sys.executable, "-c",
        "import json, os; print(json.dumps({k: v for k, v in "
        "os.environ.items() if k.startswith('NOISYMINE_')}))",
    ])
    assert child.code == 0, child.err
    assert json.loads(child.out) == wl.EXECUTION_ENV


def test_rss_is_reported_per_child():
    big = run.run_child([
        sys.executable, "-c", "b = bytearray(150 * 2**20); b[::4096] = "
        "b'x' * len(b[::4096])",
    ])
    small = run.run_child([sys.executable, "-c", "pass"])
    assert big.code == 0 and small.code == 0
    assert big.rss_mb > 140
    assert small.rss_mb < 60, "peak RSS leaked from an earlier child"


def test_missing_entry_point_fails_trace_by_name(monkeypatch, capsys,
                                                 tmp_path):
    import repro.mining.miner

    monkeypatch.delattr(repro.mining.miner, "classify_on_sample")
    with pytest.raises(tracing.MissingEntryPoint,
                       match="repro.mining.miner.classify_on_sample"):
        tracing.install(tracing.Recorder())
    monkeypatch.setattr(wl, "use_execution_env", lambda: None)
    assert run.main(["--trace", "1", "--smoke", "--out", str(tmp_path)]) == 2
    assert "repro.mining.miner.classify_on_sample" in capsys.readouterr().err


def test_summarize_self_time_and_attribution():
    doc = {
        "spans": [
            ["cli.import", 0.0, 1.0, None, 1, {}],
            ["cli.main", 1.0, 10.0, None, 1, {}],
            ["phase2", 2.0, 6.0, 1, 1, {"border.calls": 3, "border.s": 0.5}],
            ["resident", 3.0, 5.0, 2, 1, {"patterns": 7}],
        ],
        "loose": {},
    }
    metrics = tracing.summarize([doc], n_ops=1, op_wall_s=10.0)
    assert metrics["phase2.s"] == pytest.approx(4.0)
    assert metrics["phase2.self_s"] == pytest.approx(1.5)
    assert metrics["border.calls"] == 3
    assert metrics["resident.patterns"] == 7
    # Import (1 s) and the top-level phase (4 s) of a 10 s operation.
    assert metrics["trace.unattributed_frac"] == pytest.approx(0.5)


def test_remine_answers_match_levelwise_per_round():
    scale = wl.SCALES["smoke"]
    parts = wl.inputs("append-remine", scale, seed=3)
    answers = golden.compute("append-remine", scale, seed=3)
    rows = list(parts["store"])
    t = scale.remine_min_match
    found = golden.exact_frequent(rows, t)
    assert answers["round0"] == golden.digest(p.to_string() for p in found)
    for k in range(1, scale.remine_rounds + 1):
        rows += parts[f"delta{k}"]
        border = golden.maximal(list(golden.exact_frequent(rows, t)))
        assert answers[f"round{k}"] == golden.digest(
            p.to_string() for p in border)
