#!/usr/bin/env python
"""CI smoke pass for the mining service daemon.

Starts a real HTTP daemon on a free port, generates the same smoke
workload as ``smoke_metrics.py``, converts it to a packed store, and
submits one job per miner over HTTP.  For every algorithm the daemon's
result must be identical to a direct ``noisymine mine --json`` run
(timing fields excluded — everything the paper's figures consume must
match bit for bit: patterns, match values, borders, scan counts and
level stats).  The pass then checks the warm-state contract:

* resubmitting an identical job is free (``memo_hit`` true, the
  ``result_memo_hits`` counter set, payload identical);
* the second job on the same store is warm (``store_cache_hits`` in its
  report, exactly one store mapped, and the store engine, built with the
  daemon's ``PIN_BYTES`` budget, serving chunks from its pin);
* a warm sampling job reuses the resident evaluator's pinned sample
  (the pin/repins counter does not move);
* a malformed request — a non-numeric ``Content-Length``, a config
  value of the wrong JSON type, inline rows or ids of floats or bools —
  gets a 4xx with an ``error`` reason, and ``/healthz`` still answers
  200 afterwards.

Each job's status document (with the streamed RunReport-shaped phase
progress) is written to the output directory so CI uploads it as an
artifact.

Usage::

    PYTHONPATH=src python scripts/smoke_service.py [--output-dir DIR]
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
from pathlib import Path

from repro.cli import main as cli_main
from repro.config import ALGORITHMS
from repro.engine import PIN_BYTES
from repro.service import ServiceClient, start_server

MINE_FLAGS = [
    "--alphabet", "6", "--min-match", "0.6", "--noise", "0.05",
    "--sample-size", "80", "--max-weight", "4", "--max-span", "5",
    "--seed", "7",
]

CONFIG = {
    "alphabet": 6,
    "min_match": 0.6,
    "noise": 0.05,
    "sample_size": 80,
    "max_weight": 4,
    "max_span": 5,
    "seed": 7,
}


def _strip_timing(payload: dict) -> dict:
    clean = dict(payload)
    clean.pop("elapsed_seconds", None)
    clean.pop("metrics", None)
    return clean


def _cli_payload(store: Path, algorithm: str, out: Path) -> dict:
    """A direct one-shot CLI run of the same job, captured via a file."""
    json_path = out / f"cli_{algorithm}.json"
    import contextlib
    import io

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        rc = cli_main([
            "mine", str(store), *MINE_FLAGS,
            "--algorithm", algorithm, "--json",
        ])
    if rc != 0:
        raise AssertionError(f"CLI mine failed for {algorithm}")
    payload = json.loads(buffer.getvalue())
    json_path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def _raw_post(server, body: bytes, length: str) -> tuple:
    """``(status, JSON document)`` of one ``POST /jobs`` sent with the
    given ``Content-Length`` header, bypassing the client."""
    host, port = server.address
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.putrequest("POST", "/jobs")
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", length)
        connection.endheaders(body)
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


def _check_malformed_requests(server, client, store_path: Path) -> None:
    """Each malformed submit gets a 4xx with a reason; the daemon
    stays up."""
    good = {"config": CONFIG, "store": str(store_path)}
    typed = dict(good, config=dict(CONFIG, max_weight="4"))
    inline = {"config": {"min_match": 0.5, "algorithm": "maxminer"}}
    floats = dict(inline, database=[[1.5, 2.7], [1, 0]])
    bools = dict(inline, database=[[1, 2], [1, 0]], ids=[True, 0])
    for name, payload, length in (
        ("bad Content-Length", good, "abc"),
        ("wrongly typed config", typed, None),
        ("float inline symbols", floats, None),
        ("bool inline ids", bools, None),
    ):
        body = json.dumps(payload).encode("utf-8")
        status, doc = _raw_post(server, body, length or str(len(body)))
        assert 400 <= status < 500 and doc.get("error"), (name, status, doc)
        print(f"malformed request ({name}): {status} {doc['error']}")
    assert client.healthz()["status"] == "ok"  # a 200, or it raises


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output-dir", default="service-artifacts")
    args = parser.parse_args(argv)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    text_path = out / "smoke_db.txt"
    rc = cli_main([
        "generate", str(text_path), "--sequences", "80", "--length", "12",
        "--alphabet", "6", "--motif-weight", "3", "--motifs", "1",
        "--seed", "11",
    ])
    if rc != 0:
        print("database generation failed", file=sys.stderr)
        return rc
    store_path = out / "smoke_db.nmp"
    rc = cli_main(["convert", str(text_path), str(store_path)])
    if rc != 0:
        print("store conversion failed", file=sys.stderr)
        return rc

    server, _thread = start_server(port=0)
    try:
        client = ServiceClient(server.url)
        health = client.healthz()
        assert health["status"] == "ok", health

        # One job per miner, each checked bit-identical to the CLI.
        for algorithm in ALGORITHMS:
            job = client.submit(
                dict(CONFIG, algorithm=algorithm), store=str(store_path)
            )
            doc = client.wait(job["id"])
            cli = _cli_payload(store_path, algorithm, out)
            service = doc["result"]
            if _strip_timing(service) != _strip_timing(cli):
                raise AssertionError(
                    f"daemon result differs from CLI for {algorithm}"
                )
            status = client.status(job["id"])
            artifact = out / f"service_{algorithm}.json"
            artifact.write_text(json.dumps(status, indent=2) + "\n")
            print(f"{algorithm:18s} parity=ok "
                  f"scans={service['scans']} "
                  f"patterns={len(service['patterns'])}")

        # Identical resubmit: memoized, free, same payload.
        first = client.wait(
            client.submit(dict(CONFIG, algorithm="levelwise"),
                          store=str(store_path))["id"]
        )
        second = client.wait(
            client.submit(dict(CONFIG, algorithm="levelwise"),
                          store=str(store_path))["id"]
        )
        assert first["memo_hit"], "levelwise rerun should already be memoized"
        assert second["memo_hit"], "identical resubmit must be a memo hit"
        assert second["result"] == first["result"]

        # Warm-state counters: every job after the first was a store
        # cache hit, exactly one store is mapped, and the memo fired.
        health = client.healthz()
        cache = health["store_cache"]
        assert cache["open_stores"] == 1, cache
        assert cache["misses"] == 1, cache
        assert cache["hits"] >= len(ALGORITHMS) - 1, cache
        assert health["result_memo"]["hits"] >= 2, health["result_memo"]

        # Warm resident evaluator: the second sampling job on the same
        # store must reuse the pinned sample (pin count unchanged).
        # min_match differs from the parity runs above — a memo hit
        # would skip Phase 2 entirely.
        resident_config = dict(
            CONFIG, algorithm="border-collapsing", min_match=0.58,
        )
        client.wait(client.submit(resident_config,
                                  store=str(store_path))["id"])
        entry, was_hit = server.service.stores.get(str(store_path))
        assert was_hit
        pins_before = entry.resident_repins
        assert pins_before >= 1
        client.wait(client.submit(
            dict(resident_config, min_match=0.55),  # defeat the memo
            store=str(store_path),
        )["id"])
        assert entry.resident_repins == pins_before, (
            "warm sampling job re-pinned the resident sample"
        )
        # The store's own engine is the daemon's PIN_BYTES budget: the
        # jobs after the first counted the store from its pin.
        engine = entry.engine()
        assert engine.pin_bytes == PIN_BYTES, engine
        assert engine.cache.hits > 0 and len(engine.cache) > 0, (
            "the store engine kept no factor rows across jobs"
        )
        print("warm-state: store cache, result memo, store pin and "
              "resident pin ok")
        _check_malformed_requests(server, client, store_path)
        (out / "service_healthz.json").write_text(
            json.dumps(client.healthz(), indent=2) + "\n"
        )
    finally:
        server.close()

    print(f"all {len(ALGORITHMS)} miners bit-identical over HTTP; "
          f"artifacts in {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
