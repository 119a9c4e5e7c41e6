"""Command-line interface.

Seven subcommands cover the full workflow on text sequence files
(the ``<id> TAB <space-separated symbol indices>`` format of
:meth:`repro.core.sequence.SequenceDatabase.save`):

* ``noisymine generate`` — synthesise a standard database with planted
  motifs and optionally a noisy test database next to it;
* ``noisymine mine`` — run one of the miners over a sequence file
  and print the frequent patterns; ``--checkpoint`` additionally
  writes a delta-remining checkpoint for segmented stores;
* ``noisymine remine`` — refresh a checkpointed result over a grown
  segmented store in O(Δ) instead of re-running from scratch;
* ``noisymine convert`` — translate between the text format, the
  packed binary store (``.nmp``, memory-maps on open and scans an
  order of magnitude faster) and the appendable segmented store
  directory;
* ``noisymine evaluate`` — compare two mining runs (e.g. match model on
  noisy data vs support model on clean data) by accuracy/completeness;
* ``noisymine serve`` — run the long-lived mining daemon (HTTP job
  queue with warm store/engine/sample state across jobs);
* ``noisymine submit`` — submit one mining job to a running daemon and
  wait for the result.

``mine`` and ``convert`` accept any representation: the input path is
sniffed (segment manifest, then packed magic bytes, else text), so a
converted store is a drop-in replacement for the text file it came
from.

Flag/environment resolution lives in :class:`repro.config.MiningConfig`
— ``mine`` and ``submit`` share the exact same precedence (flag >
``NOISYMINE_*`` env > default) and the exact same result payload shape
(:func:`repro.config.json_payload`).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from typing import List, Optional, Sequence

import numpy as np

from .config import ALGORITHMS, MiningConfig, json_payload, open_database
from .core.pattern import Pattern
from .datagen.motifs import Motif, random_motif
from .engine import SCORE_DTYPES, VectorizedBatchEngine
from .datagen.noise import corrupt_uniform
from .datagen.synthetic import generate_database
from .errors import NoisyMineError
from .eval.metrics import quality
from .io import PackedSequenceStore, SegmentedSequenceStore, is_packed_store
from .obs import Tracer


def _add_mining_options(parser: argparse.ArgumentParser) -> None:
    """Mining-run flags shared by ``mine`` and ``submit``.

    One flag set, one resolution rule: the parsed values feed
    :meth:`repro.config.MiningConfig.resolve`, so both subcommands
    honour the same ``NOISYMINE_*`` environment fallbacks.
    """
    parser.add_argument("--alphabet", type=int, default=None,
                        help="number of distinct symbols m "
                             "(required for text format)")
    parser.add_argument("--min-match", type=float, required=True)
    parser.add_argument(
        "--algorithm", choices=list(ALGORITHMS), default="border-collapsing",
    )
    parser.add_argument(
        "--noise", type=float, default=0.0,
        help="uniform noise level used to build the compatibility matrix "
             "(0 = identity matrix = classical support)",
    )
    parser.add_argument("--sample-size", type=int, default=None)
    parser.add_argument("--delta", type=float, default=1e-4)
    parser.add_argument("--max-weight", type=int, default=8)
    parser.add_argument("--max-span", type=int, default=10)
    parser.add_argument("--max-gap", type=int, default=0)
    parser.add_argument("--memory-capacity", type=int, default=None)
    parser.add_argument(
        "--score-dtype",
        choices=list(SCORE_DTYPES),
        default=None,
        help="Phase-2 scoring precision of the sampling miners: "
             "'float64' (default, exact) or 'float32' (half the sample's "
             "factor and plane memory, match values within 1e-5; the "
             "other miners reject it) "
             "(default: $NOISYMINE_SCORE_DTYPE, else 'float64')",
    )
    parser.add_argument("--seed", type=int, default=None)


def _config_from_args(args: argparse.Namespace) -> MiningConfig:
    """Resolve the shared mining flags (flag > NOISYMINE_* env >
    default) into a canonical :class:`MiningConfig`."""
    return MiningConfig.resolve(
        min_match=args.min_match,
        algorithm=args.algorithm,
        alphabet=args.alphabet,
        noise=args.noise,
        sample_size=args.sample_size,
        delta=args.delta,
        max_weight=args.max_weight,
        max_span=args.max_span,
        max_gap=args.max_gap,
        memory_capacity=args.memory_capacity,
        seed=args.seed,
        score_dtype=args.score_dtype,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisymine",
        description=(
            "Mining long sequential patterns in a noisy environment "
            "(Yang, Wang, Yu, Han; SIGMOD 2002)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate", help="synthesise a sequence database with planted motifs"
    )
    gen.add_argument("output", help="path for the standard database")
    gen.add_argument("--sequences", type=int, default=1000)
    gen.add_argument("--length", type=int, default=50)
    gen.add_argument("--alphabet", type=int, default=20)
    gen.add_argument(
        "--motif-weight", type=int, default=6,
        help="number of symbols in each planted motif",
    )
    gen.add_argument("--motifs", type=int, default=2, dest="n_motifs")
    gen.add_argument(
        "--motif-frequency", type=float, default=0.3,
        help="fraction of sequences carrying each motif",
    )
    gen.add_argument(
        "--noise", type=float, default=0.0,
        help="also write a noisy test database (uniform alpha)",
    )
    gen.add_argument(
        "--noisy-output", default=None,
        help="path for the noisy copy (default: <output>.noisy)",
    )
    gen.add_argument("--seed", type=int, default=None)

    mine = sub.add_parser("mine", help="mine frequent patterns from a file")
    mine.add_argument(
        "input",
        help="text sequence file, packed store or segmented store "
             "directory to mine (the representation is sniffed)",
    )
    mine.add_argument(
        "--format", choices=["text", "fasta"], default="text",
        help="input format: the library's text format, or FASTA "
             "(20-letter amino-acid alphabet, implies --alphabet 20)",
    )
    _add_mining_options(mine)
    mine.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="counting threads: more than 1 counts the chunks of "
             "every full-database pass on a thread pool; results are "
             "bit-identical for any N "
             "(default: $NOISYMINE_WORKERS, else 1)",
    )
    mine.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of a table "
             "(includes a 'metrics' block with per-phase scans/timings)",
    )
    mine.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="also write the run's structured RunReport (per-phase spans, "
             "scan and factor-pin counters) to PATH as JSON",
    )
    mine.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="also write a delta-remining checkpoint (per-symbol match "
             "sums + exact border sums) to PATH; requires a segmented "
             "store input, and 'noisymine remine' refreshes it in O(Δ) "
             "after appends",
    )

    remine = sub.add_parser(
        "remine",
        help="refresh a checkpointed mining result over a grown "
             "segmented store (O(Δ) delta remining instead of a "
             "from-scratch run)",
    )
    remine.add_argument(
        "input", help="segmented store directory the checkpoint was "
                      "taken on (after zero or more appends)",
    )
    remine.add_argument(
        "--checkpoint", required=True, metavar="PATH",
        help="checkpoint written by 'noisymine mine --checkpoint'; "
             "refreshed in place after the remine (see --checkpoint-out)",
    )
    remine.add_argument(
        "--checkpoint-out", default=None, metavar="PATH",
        help="write the refreshed checkpoint here instead of "
             "overwriting --checkpoint",
    )
    _add_mining_options(remine)
    remine.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of a table",
    )
    remine.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="also write the refresh's structured RunReport to PATH "
             "as JSON",
    )

    serve = sub.add_parser(
        "serve",
        help="run the mining service daemon (HTTP job queue with warm "
             "store/engine/sample state across jobs)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port to listen on (0 picks a free port)")
    serve.add_argument(
        "--workers", type=int, default=2,
        help="worker threads draining the job queue; jobs on different "
             "stores run concurrently (default: 2)",
    )
    serve.add_argument(
        "--store-capacity", type=int, default=4,
        help="packed stores kept memory-mapped at once (LRU, default: 4)",
    )
    serve.add_argument(
        "--memo-entries", type=int, default=128,
        help="memoized job results kept (LRU, default: 128)",
    )
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-request access logging")

    submit = sub.add_parser(
        "submit",
        help="submit one mining job to a running daemon and print the "
             "result",
    )
    submit.add_argument(
        "input",
        help="packed-store path or segmented-store directory, resolved "
             "on the daemon's filesystem",
    )
    submit.add_argument(
        "--url", default="http://127.0.0.1:8765",
        help="base URL of the daemon (default: http://127.0.0.1:8765)",
    )
    _add_mining_options(submit)
    submit.add_argument(
        "--timeout", type=float, default=300.0,
        help="seconds to wait for the job to finish (default: 300)",
    )
    submit.add_argument(
        "--json", action="store_true",
        help="emit the full result document as JSON instead of a table",
    )

    conv = sub.add_parser(
        "convert",
        help="translate a sequence database between the text format and "
             "the packed binary store",
    )
    conv.add_argument("input", help="sequence database to convert "
                                    "(text, packed or segmented, sniffed)")
    conv.add_argument("output", help="path for the converted database")
    conv.add_argument(
        "--to",
        choices=["packed", "text", "segmented"],
        default="packed",
        dest="target",
        help="output representation: 'packed' single-file store, "
             "'segmented' appendable store directory, or 'text' "
             "(default: packed)",
    )

    ev = sub.add_parser(
        "evaluate",
        help="accuracy/completeness of one pattern list vs a reference",
    )
    ev.add_argument("found", help="JSON file produced by 'mine --json'")
    ev.add_argument("reference", help="JSON file produced by 'mine --json'")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "mine":
            return _cmd_mine(args)
        if args.command == "remine":
            return _cmd_remine(args)
        if args.command == "convert":
            return _cmd_convert(args)
        if args.command == "evaluate":
            return _cmd_evaluate(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "submit":
            return _cmd_submit(args)
    except (NoisyMineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON input: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable: argparse enforces the command set")


def _cmd_generate(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    motifs: List[Motif] = [
        random_motif(args.motif_weight, args.alphabet, args.motif_frequency,
                     rng)
        for _ in range(args.n_motifs)
    ]
    database = generate_database(
        args.sequences, args.length, args.alphabet, motifs, rng=rng
    )
    database.save(args.output)
    print(f"wrote {len(database)} sequences to {args.output}")
    for motif in motifs:
        print(f"  planted motif: {motif.pattern.to_string()} "
              f"(frequency {motif.frequency})")
    if args.noise > 0:
        noisy_path = args.noisy_output or f"{args.output}.noisy"
        noisy = corrupt_uniform(database, args.alphabet, args.noise, rng)
        noisy.save(noisy_path)
        print(f"wrote noisy copy (alpha={args.noise}) to {noisy_path}")
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    # All flag/env resolution happens here, in one shot: a bad
    # NOISYMINE_* value fails loudly before any file is opened.
    config = _config_from_args(args)
    if args.format == "fasta":
        if is_packed_store(args.input):
            raise NoisyMineError(
                "--format fasta cannot be combined with a packed store; "
                "convert the FASTA file to text first, then to packed"
            )
        from .datagen.fasta import read_fasta

        database, _headers = read_fasta(args.input)
        config = config.with_overrides(alphabet=20)
    else:
        if config.alphabet is None:
            raise NoisyMineError(
                "--alphabet is required for the text input format"
            )
        database = open_database(args.input)
    # A live tracer costs a few dict updates per scan; only pay for it
    # when some output will actually carry the metrics.
    tracer = Tracer() if (args.json or args.metrics_json) else None
    engine = VectorizedBatchEngine(workers=args.workers)
    with engine:
        miner = config.build_miner(len(database), engine=engine,
                                   tracer=tracer)
        result = miner.mine(database)
        if args.checkpoint:
            from .mining.delta import create_checkpoint

            if not isinstance(database, SegmentedSequenceStore):
                raise NoisyMineError(
                    "--checkpoint requires a segmented store input "
                    "(see 'noisymine convert --to segmented'): "
                    "checkpoints track segment lineage so 'remine' can "
                    "refresh them after appends"
                )
            checkpoint = create_checkpoint(
                result, database, config.build_matrix(), config.min_match,
                config_key=config.to_key(),
                memory_capacity=config.memory_capacity,
                engine=engine,
            )
            checkpoint.save(args.checkpoint)
    if args.metrics_json:
        if result.report is None:  # pragma: no cover - defensive
            raise NoisyMineError(
                "the miner produced no metrics report; cannot honour "
                "--metrics-json"
            )
        with open(args.metrics_json, "w", encoding="utf-8") as handle:
            json.dump(result.report.to_dict(), handle, indent=2)
            handle.write("\n")
    if args.json:
        print(json.dumps(json_payload(config, result, engine.name),
                         indent=2))
    else:
        print(result.summary())
        for pattern in sorted(result.frequent):
            print(f"  {pattern.to_string():30s} "
                  f"match={result.frequent[pattern]:.4f}")
        if args.checkpoint:
            print(f"checkpoint written to {args.checkpoint}")
        if args.metrics_json:
            print(f"metrics written to {args.metrics_json}")
    return 0


def _cmd_remine(args: argparse.Namespace) -> int:
    from .mining.delta import MiningCheckpoint, delta_remine

    config = _config_from_args(args)
    checkpoint = MiningCheckpoint.load(args.checkpoint)
    tracer = Tracer() if (args.json or args.metrics_json) else None
    engine = VectorizedBatchEngine()
    engine.note_settings(tracer)
    with SegmentedSequenceStore.open(args.input) as store, engine:
        outcome = delta_remine(
            store,
            config.build_matrix(),
            checkpoint,
            constraints=config.constraints(),
            memory_capacity=config.memory_capacity,
            engine=engine,
            tracer=tracer,
            config_key=config.to_key(),
        )
    out_path = args.checkpoint_out or args.checkpoint
    outcome.checkpoint.save(out_path)
    result = outcome.result
    if args.metrics_json:
        if result.report is None:  # pragma: no cover - defensive
            raise NoisyMineError(
                "the refresh produced no metrics report; cannot honour "
                "--metrics-json"
            )
        with open(args.metrics_json, "w", encoding="utf-8") as handle:
            json.dump(result.report.to_dict(), handle, indent=2)
            handle.write("\n")
    if args.json:
        payload = json_payload(config, result, engine.name)
        payload["delta"] = {
            "delta_sequences": outcome.delta_sequences,
            "full_scans": outcome.full_scans,
            "reprobed": outcome.reprobed,
            "crosser_candidates": outcome.crosser_candidates,
            "checkpoint": out_path,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(result.summary())
        print(
            f"  refreshed over {outcome.delta_sequences} appended "
            f"sequences ({outcome.full_scans} full-store scans, "
            f"{outcome.reprobed} border re-probes, "
            f"{outcome.crosser_candidates} crosser candidates)"
        )
        for element in sorted(result.border.elements):
            print(f"  {element.to_string():30s} "
                  f"match={result.frequent[element]:.4f}")
        print(f"checkpoint written to {out_path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import MiningServer, MiningService

    # Ctrl-C and SIGTERM both stop the daemon cleanly.  SIGINT's handler
    # is set, not assumed: a background job of a non-interactive shell
    # starts with SIGINT ignored and would otherwise never stop on it.
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, signal.default_int_handler)
    service = MiningService(
        workers=args.workers,
        store_capacity=args.store_capacity,
        memo_entries=args.memo_entries,
    )
    with MiningServer(
        host=args.host, port=args.port, service=service,
        verbose=not args.quiet,
    ) as server:
        host, port = server.address
        print(f"noisymine daemon listening on http://{host}:{port}",
              flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("shutting down")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service import ServiceClient

    config = _config_from_args(args)
    client = ServiceClient(args.url)
    job = client.submit(config.to_dict(), store=os.path.abspath(args.input))
    doc = client.wait(job["id"], timeout=args.timeout)
    if args.json:
        print(json.dumps(doc, indent=2))
        return 0
    payload = doc["result"]
    patterns = payload["patterns"]
    memo = " (memoized)" if doc.get("memo_hit") else ""
    print(
        f"job {doc['id']}: {len(patterns)} frequent patterns "
        f"({payload['algorithm']}, min_match={payload['min_match']}){memo}"
    )
    for text in sorted(patterns):
        print(f"  {text:30s} match={patterns[text]:.4f}")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    source = open_database(args.input)
    if args.target == "text":
        source.save_text(args.output)
        print(f"wrote {len(source)} sequences to {args.output} (text)")
        return 0
    if args.target == "segmented":
        store = SegmentedSequenceStore.create(args.output, source)
        print(
            f"wrote {len(store)} sequences ({store.total_symbols()} "
            f"symbols) to {args.output} (segmented, 1 segment, "
            f"digest {store.digest[:12]})"
        )
        store.close()
        return 0
    if isinstance(source, PackedSequenceStore):
        # packed -> packed is a verified re-save (detects bit rot).
        source.verify()
    store = PackedSequenceStore.from_database(source, args.output)
    print(
        f"wrote {len(store)} sequences ({store.total_symbols()} symbols) "
        f"to {args.output} (packed, digest {store.digest[:12]})"
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    found = _load_patterns(args.found)
    reference = _load_patterns(args.reference)
    report = quality(found, reference)
    print(report)
    return 0


def _load_patterns(path: str) -> List[Pattern]:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    patterns = []
    for text in payload["patterns"]:
        elements = [-1 if tok == "*" else int(tok) for tok in text.split()]
        patterns.append(Pattern(elements))
    return patterns


if __name__ == "__main__":
    raise SystemExit(main())
