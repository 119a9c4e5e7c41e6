#!/usr/bin/env python3
"""Layer spans for the traced pass of the end-to-end benchmark.

``python benchmarks/e2e/tracing.py --spans OUT -- <noisymine args>`` runs
one CLI command exactly as ``python -m repro.cli <args>`` does, with the
public entry point of every layer wrapped from this file.  Each wrapped
call records a span: layer, start, end, parent span and thread.  Spans
stay in memory and are written to OUT as JSON when the command returns
(for ``serve``: when the daemon shuts down on SIGINT).  The measured
process is the same cold CLI process the timed pass runs, so caches,
imports and start-up cost are the same; nothing under ``src/`` changes.

``Border.add`` and ``Border.covers`` run tens of thousands of times per
mining run, so they are not recorded one by one: their calls and time
are summed into the enclosing span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import threading
from collections import Counter, OrderedDict
from time import perf_counter
from typing import Dict, Iterable, List, Sequence, Tuple

#: (module, attribute, layer) for each layer's public entry point.
#: Methods are wrapped on their class.  Functions are wrapped at the
#: binding their caller looks up -- the importing module -- so the
#: wrapper sees every call.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.mining.miner", "symbol_matches_and_sample", "phase1"),
    ("repro.mining.miner", "classify_on_sample", "phase2"),
    ("repro.mining.miner", "collapse_borders", "phase3"),
    ("repro.mining.levelwise", "LevelwiseMiner.mine", "levelwise"),
    ("repro.mining.delta", "delta_remine", "delta"),
    ("repro.mining.ambiguous", "generate_candidates", "lattice.gen"),
    ("repro.mining.levelwise", "generate_candidates", "lattice.gen"),
    ("repro.mining.ambiguous", "batch_restricted_spread", "lattice.spread"),
    ("repro.mining.collapsing", "filter_undecided", "lattice.filter"),
    ("repro.engine.vectorized", "VectorizedBatchEngine.database_matches",
     "engine"),
    ("repro.engine.vectorized", "VectorizedBatchEngine.symbol_matches",
     "engine"),
    ("repro.engine.resident", "ResidentSampleEvaluator.database_matches",
     "resident"),
    ("repro.core.border", "Border.add", "border"),
    ("repro.core.border", "Border.covers", "border"),
)

#: Layers summed into the enclosing span instead of recorded per call.
LEAF_LAYERS = frozenset({"border"})

#: Spans the bootstrap records around the command itself.
BOOTSTRAP = ("cli.import", "trace.install", "cli.main")


class MissingEntryPoint(RuntimeError):
    """An entry point of :data:`ENTRY_POINTS` no longer exists."""


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Recorder:
    """In-memory span store shared by every thread of one process.

    A span is ``[layer, start, end, parent, thread, attrs]``; ``parent``
    indexes the enclosing span of the same thread, or is ``None``.
    """

    def __init__(self):
        self.spans: List[list] = []
        self.loose: Counter = Counter()  # leaf time outside any span
        self._lock = threading.Lock()
        self._local = threading.local()
        self._lengths: "OrderedDict[int, tuple]" = OrderedDict()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str) -> Tuple[list, List[int]]:
        stack = self._stack()
        record = [layer, 0.0, 0.0, stack[-1] if stack else None,
                  threading.get_ident(), {}]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(record)
        return record, stack

    def call(self, layer, fn, args, kwargs, observe=None):
        """Run ``fn(*args, **kwargs)`` inside a span of *layer*;
        *observe* is a ``(before, after)`` pair from :data:`OBSERVERS`."""
        before = observe[0](args) if observe is not None else None
        record, stack = self._open(layer)
        record[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            stack.pop()
        if observe is not None:
            observe[1](self, record[5], args, kwargs, result, before)
        return result

    def leaf(self, layer, fn, args, kwargs):
        """Run a high-frequency call, adding its time to the enclosing
        span; nested leaf calls count once, in the outermost."""
        local = self._local
        if getattr(local, "in_leaf", False):
            return fn(*args, **kwargs)
        local.in_leaf = True
        started = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - started
            local.in_leaf = False
            stack = self._stack()
            if stack:
                attrs = self.spans[stack[-1]][5]  # owned by this thread
                attrs[f"{layer}.calls"] = attrs.get(f"{layer}.calls", 0) + 1
                attrs[f"{layer}.s"] = attrs.get(f"{layer}.s", 0.0) + elapsed
            else:
                with self._lock:
                    self.loose[f"{layer}.calls"] += 1
                    self.loose[f"{layer}.s"] += elapsed

    @contextlib.contextmanager
    def bootstrap(self, name: str):
        """Record one of the :data:`BOOTSTRAP` spans around a block."""
        record, stack = self._open(name)
        record[1] = perf_counter()
        try:
            yield
        finally:
            record[2] = perf_counter()
            stack.pop()

    def lengths(self, database):
        """Sequence lengths of *database*, cached per object; reading
        them through the row views counts no scan."""
        import numpy as np

        key = id(database)
        with self._lock:
            hit = self._lengths.get(key)
        if hit is not None and hit[0] is database:
            return hit[1]
        parts = getattr(database, "segments", None) or [database]
        if hasattr(parts[0], "rows_slice"):
            lengths = np.concatenate([
                np.fromiter((len(r) for r in p.rows_slice(0, len(p))), int)
                for p in parts
            ])
        else:
            lengths = np.fromiter(
                (len(database.sequence(i)) for i in database.ids), int
            )
        with self._lock:
            self._lengths[key] = (database, lengths)
            while len(self._lengths) > 8:
                self._lengths.popitem(last=False)
        return lengths

    def window_cells(self, patterns: Iterable, database) -> int:
        """Window-symbol products a match pass computes: the sum over
        patterns and sequences of max(0, len - span + 1) * weight."""
        weight_by_span: Counter = Counter()
        for pattern in patterns:
            weight_by_span[pattern.span] += pattern.weight
        lengths = self.lengths(database)
        return int(sum(
            weight * (lengths - span + 1).clip(min=0).sum()
            for span, weight in weight_by_span.items()
        ))

    def dump(self, path: str) -> None:
        with self._lock:
            doc = {"spans": self.spans, "loose": dict(self.loose)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


# -- what each entry point's span records --------------------------------


def _cache_state(args):
    cache = args[0].cache
    return cache.hits, cache.misses


def _cache_traffic(attrs, args, before):
    cache = args[0].cache
    attrs["cache_hits"] = cache.hits - before[0]
    attrs["cache_misses"] = cache.misses - before[1]


def _engine_batch(rec, attrs, args, kwargs, result, before):
    database = _arg(args, kwargs, 2, "database")
    attrs["patterns"] = len(result)
    attrs["cells"] = rec.window_cells(result, database)
    _cache_traffic(attrs, args, before)


def _engine_symbols(rec, attrs, args, kwargs, result, before):
    database = _arg(args, kwargs, 1, "database")
    attrs["patterns"] = len(result)
    attrs["cells"] = len(result) * int(rec.lengths(database).sum())
    _cache_traffic(attrs, args, before)


def _plane_state(args):
    planes = args[0].planes
    return planes.hits, planes.misses


def _resident(rec, attrs, args, kwargs, result, before):
    planes = args[0].planes
    attrs["patterns"] = len(result)
    attrs["plane_hits"] = planes.hits - before[0]
    attrs["plane_misses"] = planes.misses - before[1]
    attrs["plane_bytes"] = planes.nbytes


def _phase2(rec, attrs, args, kwargs, result, before):
    attrs["ambiguous"] = result.ambiguous_count()
    attrs["labelled"] = len(result.labels)


def _phase3(rec, attrs, args, kwargs, result, before):
    classification = _arg(args, kwargs, 3, "classification")
    attrs["rounds"] = len(result.probe_rounds)
    attrs["probes"] = sum(len(batch) for batch in result.probe_rounds)
    attrs["ambiguous_in"] = classification.ambiguous_count()


def _candidates(rec, attrs, args, kwargs, result, before):
    attrs["candidates"] = len(result)


def _filter(rec, attrs, args, kwargs, result, before):
    attrs["undecided_in"] = len(_arg(args, kwargs, 0, "undecided"))
    attrs["undecided_out"] = len(result)


def _delta(rec, attrs, args, kwargs, result, before):
    attrs["full_scans"] = result.full_scans
    attrs["reprobed"] = result.reprobed
    attrs["crossers"] = result.crosser_candidates


def _nothing(args):
    return None


#: ``(before, after)`` per entry point: *before* sees the arguments
#: ahead of the call, *after* fills the span's attributes from the
#: arguments, the result and what *before* returned.
OBSERVERS = {
    "VectorizedBatchEngine.database_matches": (_cache_state, _engine_batch),
    "VectorizedBatchEngine.symbol_matches": (_cache_state, _engine_symbols),
    "ResidentSampleEvaluator.database_matches": (_plane_state, _resident),
    "classify_on_sample": (_nothing, _phase2),
    "collapse_borders": (_nothing, _phase3),
    "generate_candidates": (_nothing, _candidates),
    "filter_undecided": (_nothing, _filter),
    "delta_remine": (_nothing, _delta),
}


# -- installing the wrappers ---------------------------------------------


def _resolve(module_name: str, attribute: str):
    """``(owner, name, original)`` of one entry point, or raise
    :class:`MissingEntryPoint` naming it."""
    full = f"{module_name}.{attribute}"
    try:
        owner = importlib.import_module(module_name)
        *path, name = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = inspect.getattr_static(owner, name)
    except (ImportError, AttributeError) as exc:
        raise MissingEntryPoint(
            f"traced entry point {full} no longer exists ({exc}); "
            "update ENTRY_POINTS in benchmarks/e2e/tracing.py"
        ) from None
    if not callable(original):
        raise MissingEntryPoint(f"traced entry point {full} is not callable")
    return owner, name, original


def check_entry_points(
    entry_points: Sequence[Tuple[str, str, str]] = ENTRY_POINTS,
) -> None:
    """Raise :class:`MissingEntryPoint` unless every entry point exists."""
    for module_name, attribute, _layer in entry_points:
        _resolve(module_name, attribute)


def install(
    recorder: Recorder,
    entry_points: Sequence[Tuple[str, str, str]] = ENTRY_POINTS,
) -> None:
    """Wrap every entry point (all are resolved before any is patched)."""
    resolved = [
        (_resolve(module_name, attribute), attribute, layer)
        for module_name, attribute, layer in entry_points
    ]
    for (owner, name, original), attribute, layer in resolved:
        setattr(owner, name,
                _wrap(recorder, layer, original, OBSERVERS.get(attribute)))


def _wrap(recorder: Recorder, layer: str, fn, observe):
    if layer in LEAF_LAYERS:
        def traced(*args, **kwargs):
            return recorder.leaf(layer, fn, args, kwargs)
    else:
        def traced(*args, **kwargs):
            return recorder.call(layer, fn, args, kwargs, observe)
    return functools.update_wrapper(traced, fn)


# -- summarising spans ---------------------------------------------------

#: Layers whose busy time is reported as ``<layer>.s``.
TIMED_LAYERS = ("phase1", "phase2", "phase3", "levelwise", "delta",
                "engine", "resident")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def summarize(docs: Sequence[dict], n_ops: int, op_wall_s: float,
              covered_s: float = 0.0, count_bootstrap: bool = True
              ) -> Dict[str, float]:
    """Per-layer metrics of one traced pass, per operation.

    *docs* are the span files of the pass, *op_wall_s* the summed
    latency of its *n_ops* operations as the benchmark measured them.
    Time of top-level layer spans (children of ``cli.main``, or roots
    of worker threads) counts as attributed, as does *covered_s*
    (layer time the benchmark timed itself) and, when
    *count_bootstrap*, the import and install spans of one-shot
    commands.  ``trace.unattributed_frac`` is the rest.
    """
    busy: Counter = Counter()
    calls: Counter = Counter()
    attrs: Counter = Counter()
    plane_bytes = 0
    covered = covered_s
    for doc in docs:
        spans = doc["spans"]
        children_s = [0.0] * len(spans)
        for layer, start, end, parent, _thread, span_attrs in spans:
            if parent is not None:
                children_s[parent] += end - start
        for index, (layer, start, end, parent, _thread, span_attrs) in \
                enumerate(spans):
            elapsed = end - start
            if layer in BOOTSTRAP:
                if count_bootstrap and layer != "cli.main":
                    covered += elapsed
                continue
            if parent is None or spans[parent][0] in BOOTSTRAP:
                covered += elapsed
            busy[layer] += elapsed
            busy[layer + ".self"] += (elapsed - children_s[index]
                                      - span_attrs.get("border.s", 0.0))
            calls[layer] += 1
            for key, value in span_attrs.items():
                if key == "plane_bytes":
                    plane_bytes = max(plane_bytes, value)
                elif key.startswith("border."):
                    attrs[key] += value
                else:
                    attrs[f"{layer}.{key}"] += value
        for key, value in doc["loose"].items():
            attrs[key] += value
            if key.endswith(".s"):
                covered += value

    def per_op(value: float) -> float:
        return value / n_ops

    metrics = {f"{layer}.s": per_op(busy[layer]) for layer in TIMED_LAYERS}
    metrics.update({
        "phase2.self_s": per_op(busy["phase2.self"]),
        "phase2.ambiguous_ratio": _ratio(attrs["phase2.ambiguous"],
                                         attrs["phase2.labelled"]),
        "phase3.self_s": per_op(busy["phase3.self"]),
        "phase3.rounds": per_op(attrs["phase3.rounds"]),
        "phase3.probes": per_op(attrs["phase3.probes"]),
        "phase3.resolved_per_probe": _ratio(attrs["phase3.ambiguous_in"],
                                            attrs["phase3.probes"]),
        "lattice.candidates": per_op(attrs["lattice.gen.candidates"]),
        "lattice.gen_s": per_op(busy["lattice.gen"]),
        "lattice.spread_s": per_op(busy["lattice.spread"]),
        "lattice.filter_s": per_op(busy["lattice.filter"]),
        "lattice.survivor_ratio": _ratio(
            attrs["lattice.filter.undecided_out"],
            attrs["lattice.filter.undecided_in"]),
        "border.calls": per_op(attrs["border.calls"]),
        "border.s": per_op(attrs["border.s"]),
        "engine.calls": per_op(calls["engine"]),
        "engine.patterns": per_op(attrs["engine.patterns"]),
        "engine.window_cells": per_op(attrs["engine.cells"]),
        "engine.cells_per_s": _ratio(attrs["engine.cells"], busy["engine"]),
        "engine.factor_cache_hit_ratio": _ratio(
            attrs["engine.cache_hits"],
            attrs["engine.cache_hits"] + attrs["engine.cache_misses"]),
        "resident.patterns": per_op(attrs["resident.patterns"]),
        "resident.plane_hit_ratio": _ratio(
            attrs["resident.plane_hits"],
            attrs["resident.plane_hits"] + attrs["resident.plane_misses"]),
        "resident.plane_bytes": float(plane_bytes),
        "delta.full_scans": per_op(attrs["delta.full_scans"]),
        "delta.reprobed": per_op(attrs["delta.reprobed"]),
        "delta.crossers": per_op(attrs["delta.crossers"]),
        "trace.unattributed_frac": max(0.0, 1.0 - _ratio(covered,
                                                          op_wall_s)),
    })
    return metrics


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracing.py --spans OUT -- <noisymine arguments>",
              file=sys.stderr)
        return 2
    out, cli_args = argv[1], argv[3:]
    recorder = Recorder()
    with recorder.bootstrap("cli.import"):
        import repro.cli
    with recorder.bootstrap("trace.install"):
        try:
            install(recorder)
        except MissingEntryPoint as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    try:
        with recorder.bootstrap("cli.main"):
            return repro.cli.main(cli_args)
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main())
