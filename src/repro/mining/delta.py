"""Delta remining: refresh a mined border after an append, in O(Δ).

The paper's match metric is a mean over sequences, which makes mining
naturally incremental: after appending Δ sequences to a database of N,
every pattern's new match is

    M'(P) = (S(P) + s(P)) / (N + Δ)

where ``S(P) = M(P, D) · N`` is the pattern's *match sum* over the old
store and ``s(P)`` its match sum over the appended delta alone.  A
:class:`MiningCheckpoint` persists exactly the sums a refresh needs —
the per-symbol Phase-1 sums, the border elements with their exact
sums, and N — so an append is absorbed by scanning only the delta:

* **survivors / fallen** — one delta pass yields ``s(P)`` for every
  checkpointed border element, hence its new match *exactly*.
  Elements still at or above ``min_match`` keep their proof; fallen
  elements shrink, and only their sub-lattice cones are re-probed
  (top-down, batched against the full store) to find the new maximal
  frequent patterns beneath them.  Everything covered by a surviving
  element needs no work at all: match is anti-monotone, so a
  subpattern of a still-frequent pattern is still frequent.

* **upward crossers** — a pattern outside the old frequent set has
  old sum ``S(P) < min_match · N`` (the checkpointed run is exact at
  the border), so

      M'(P) = (S(P) + s(P)) / (N + Δ)
            < (min_match · N + s(P)) / (N + Δ)

  which reaches ``min_match`` only if ``s(P) ≥ min_match · Δ`` — the
  pattern must be frequent *on the delta alone*.  Exact level-wise
  mining of just the Δ appended sequences (in memory, no full-store
  scans) therefore enumerates every possible upward crosser; the few
  candidates it yields are verified exactly against the full store.

Both probe directions are batched through
:func:`~repro.mining.counting.count_matches_batched`, so the refresh
honours the same memory budget and scan accounting as every miner.
When the border is unchanged by the append — the common case for
small deltas — the refresh performs **zero** full-store scans.

The refreshed border is exact, and therefore identical to what a
from-scratch exact run over the grown store would report; the
``bench_delta`` gate pins this bit-identity alongside the ≥10x
refresh speedup.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.border import Border
from ..core.compatibility import CompatibilityMatrix
from ..core.lattice import PatternConstraints
from ..core.pattern import Pattern
from ..core.sequence import SequenceDatabase
from ..engine import MatchEngine, VectorizedBatchEngine
from ..errors import MiningError
from ..io.atomic import atomic_write
from ..io.segments import SegmentedSequenceStore
from ..obs import (
    BORDER_REPROBES,
    DELTA_PATTERNS_COUNTED,
    DELTA_SCANS,
    Tracer,
    ensure_tracer,
)
from .counting import count_matches_batched, validate_memory_capacity
from .levelwise import LevelwiseMiner
from .result import MiningResult, _pattern_from_string

CHECKPOINT_FORMAT = "noisymine-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class MiningCheckpoint:
    """The compact state a delta refresh resumes from.

    Sums, not means: sums add across segments, means do not.  All sums
    are exact over the ``n_sequences`` sequences of the store state
    identified by ``store_digest`` / ``segment_digests``.

    Attributes
    ----------
    store_digest:
        Manifest digest of the segmented store the checkpoint was
        taken on.
    segment_digests:
        The store's ordered segment digests at checkpoint time; a
        refresh requires them to be a prefix of the current store's
        (same lineage, append-only growth).
    n_sequences:
        N — the number of sequences the sums are taken over.
    min_match:
        The threshold the border was mined at.  A checkpoint proves
        one border at one threshold; refreshing at a different
        threshold must fall back to a full run.
    symbol_sums:
        Per-symbol Phase-1 match sums, index ``d`` →
        ``M(⟨d⟩, D) · N``.
    border_sums:
        Exact match sum for every border element.
    config_key:
        :meth:`repro.config.MiningConfig.to_key` of the producing run
        (``None`` for checkpoints built outside the config layer);
        refresh rejects a checkpoint taken under a different semantic
        config.
    sample_planes_key:
        Content key of the Phase-2 resident sample planes of the
        producing run, when it ran with the resident evaluator — lets
        a warm daemon re-pin the same planes after a refresh.  Purely
        advisory; ``None`` otherwise.
    """

    store_digest: str
    segment_digests: Tuple[str, ...]
    n_sequences: int
    min_match: float
    symbol_sums: Tuple[float, ...]
    border_sums: Dict[Pattern, float] = field(default_factory=dict)
    config_key: Optional[str] = None
    sample_planes_key: Optional[str] = None

    def border(self) -> Border:
        """The checkpointed border as an antichain."""
        return Border(self.border_sums)

    def to_dict(self) -> Dict[str, object]:
        return {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "store_digest": self.store_digest,
            "segment_digests": list(self.segment_digests),
            "n_sequences": self.n_sequences,
            "min_match": self.min_match,
            "symbol_sums": list(self.symbol_sums),
            "border_sums": {
                pattern.to_string(): value
                for pattern, value in sorted(self.border_sums.items())
            },
            "config_key": self.config_key,
            "sample_planes_key": self.sample_planes_key,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "MiningCheckpoint":
        if payload.get("format") != CHECKPOINT_FORMAT:
            raise MiningError("not a mining checkpoint payload")
        if payload.get("version") != CHECKPOINT_VERSION:
            raise MiningError(
                f"unsupported checkpoint version {payload.get('version')!r} "
                f"(this build reads version {CHECKPOINT_VERSION})"
            )
        return cls(
            store_digest=str(payload["store_digest"]),
            segment_digests=tuple(payload["segment_digests"]),
            n_sequences=int(payload["n_sequences"]),
            min_match=float(payload["min_match"]),
            symbol_sums=tuple(
                float(v) for v in payload["symbol_sums"]
            ),
            border_sums={
                _pattern_from_string(text): float(value)
                for text, value in payload["border_sums"].items()
            },
            config_key=payload.get("config_key"),
            sample_planes_key=payload.get("sample_planes_key"),
        )

    def save(self, path) -> None:
        """Write the checkpoint as JSON (atomic, durable replace)."""
        with atomic_write(path, encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path) -> "MiningCheckpoint":
        path = os.fspath(path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise MiningError(
                f"cannot read checkpoint {path}: {exc}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise MiningError(
                f"{path}: corrupt checkpoint (bad JSON: {exc})"
            ) from exc
        return cls.from_dict(payload)


def create_checkpoint(
    result: MiningResult,
    store: SegmentedSequenceStore,
    matrix: CompatibilityMatrix,
    min_match: float,
    config_key: Optional[str] = None,
    memory_capacity: Optional[int] = None,
    engine: Optional[MatchEngine] = None,
    tracer: Optional[Tracer] = None,
) -> MiningCheckpoint:
    """Distil a full run's result into a refreshable checkpoint.

    The checkpoint needs *exact* border sums.  Values already exact in
    the result are reused: everything from an exact miner (levelwise,
    maxminer, pincer, depthfirst) and the Phase-3-verified patterns of
    a sampling miner (``extras["verified"]``).  Border elements whose
    result value is only a sample estimate are re-counted against the
    full store in one batched pass — a one-time cost at checkpoint
    creation, not per refresh.
    """
    tracer = ensure_tracer(tracer)
    n = len(store)
    symbol_match = result.extras.get("symbol_match")
    if symbol_match is None:
        raise MiningError(
            "result carries no symbol_match extras; checkpoints need the "
            "Phase-1 per-symbol matches"
        )
    symbol_sums = tuple(
        float(symbol_match[d]) * n for d in range(matrix.size)
    )
    verified = result.extras.get("verified")
    exact: Dict[Pattern, float]
    if verified is not None:
        # Sampling miner: only the Phase-3-probed values are exact.
        exact = dict(verified)
    else:
        # Exact miner: every reported match is a full-database value.
        exact = dict(result.frequent)
    elements = list(result.border.elements)
    missing = [p for p in elements if p not in exact]
    if missing:
        exact.update(
            count_matches_batched(
                missing, store, matrix, memory_capacity,
                engine=engine, tracer=tracer,
            )
        )
    border_sums = {p: exact[p] * n for p in elements}
    return MiningCheckpoint(
        store_digest=store.digest,
        segment_digests=store.segment_digests,
        n_sequences=n,
        min_match=float(min_match),
        symbol_sums=symbol_sums,
        border_sums=border_sums,
        config_key=config_key,
        sample_planes_key=result.extras.get("sample_planes_key"),
    )


@dataclass
class DeltaOutcome:
    """What a refresh did, alongside its result.

    ``result.border`` is exact for the grown store; ``result.frequent``
    maps every pattern whose match the refresh established *exactly*
    (border elements, probed patterns, verified crossers, frequent
    single symbols) — by design it does not materialise the full
    downward closure the way a from-scratch run does.
    """

    result: MiningResult
    checkpoint: MiningCheckpoint
    delta_sequences: int
    full_scans: int
    reprobed: int
    crosser_candidates: int


def _delta_database(segments: Sequence) -> SequenceDatabase:
    """Materialise the appended segments as one in-memory database.

    The delta is what a refresh is allowed to hold in memory — the
    same O(Δ) budget the Phase-2 sample occupies in a full run.
    """
    ids: List[int] = []
    rows: List[np.ndarray] = []
    for segment in segments:
        row_views = segment.rows_slice(0, len(segment))
        for sid, row in zip(segment.ids, row_views):
            ids.append(sid)
            rows.append(np.array(row, copy=True))
    return SequenceDatabase(rows, ids=ids)


def delta_remine(
    store: SegmentedSequenceStore,
    matrix: CompatibilityMatrix,
    checkpoint: MiningCheckpoint,
    constraints: Optional[PatternConstraints] = None,
    memory_capacity: Optional[int] = None,
    engine: Optional[MatchEngine] = None,
    tracer: Optional[Tracer] = None,
    config_key: Optional[str] = None,
) -> DeltaOutcome:
    """Refresh *checkpoint* against the grown *store*; exact border out.

    Raises :class:`MiningError` when the checkpoint does not transfer:
    different store lineage (its segments are not a prefix of the
    store's), or a different semantic config (``config_key``
    mismatch when both sides carry one).
    """
    started = time.perf_counter()
    tracer = ensure_tracer(tracer)
    validate_memory_capacity(memory_capacity)
    if engine is None:
        engine = VectorizedBatchEngine()
    constraints = constraints or PatternConstraints()
    min_match = checkpoint.min_match
    if (
        config_key is not None
        and checkpoint.config_key is not None
        and config_key != checkpoint.config_key
    ):
        raise MiningError(
            "checkpoint was taken under a different mining config; "
            "delta refresh would not reproduce a from-scratch run "
            "(rerun a full mine to re-checkpoint)"
        )
    if len(matrix.array) != len(checkpoint.symbol_sums):
        raise MiningError(
            f"checkpoint alphabet size {len(checkpoint.symbol_sums)} does "
            f"not match the compatibility matrix ({matrix.size})"
        )
    delta_segments = store.segments_after(checkpoint.segment_digests)
    n_old = checkpoint.n_sequences
    n_new = len(store)
    n_delta = n_new - n_old
    scans_before = store.scan_count
    tracer.note("delta_sequences", n_delta)

    if not delta_segments:
        # Nothing appended: the checkpoint *is* the answer.
        frequent = {
            p: s / n_old for p, s in checkpoint.border_sums.items()
        }
        result = MiningResult(
            frequent=frequent,
            border=Border(checkpoint.border_sums, tracer=tracer),
            scans=0,
            elapsed_seconds=time.perf_counter() - started,
            extras={"delta_sequences": 0, "reprobed": 0,
                    "crosser_candidates": 0},
            report=tracer.report(
                algorithm="delta-remine", engine=engine.name, scans=0,
                elapsed_seconds=time.perf_counter() - started,
            ),
        )
        return DeltaOutcome(result, checkpoint, 0, 0, 0, 0)

    # -- O(Δ) phase: everything below touches only the appended rows. --
    with tracer.phase("delta-scan"):
        delta_db = _delta_database(delta_segments)
        delta_symbol = engine.symbol_matches(delta_db, matrix, tracer=tracer)
        tracer.count(DELTA_SCANS, 1)
        new_symbol_sums = tuple(
            old + float(delta_symbol[d]) * n_delta
            for d, old in enumerate(checkpoint.symbol_sums)
        )
        symbol_match_new = {
            d: s / n_new for d, s in enumerate(new_symbol_sums)
        }
        old_elements = list(checkpoint.border_sums)
        delta_matches = count_matches_batched(
            old_elements, delta_db, matrix, memory_capacity,
            engine=engine, tracer=tracer,
            scan_counter=DELTA_SCANS,
            patterns_counter=DELTA_PATTERNS_COUNTED,
        )

    exact_new: Dict[Pattern, float] = {}
    for pattern in old_elements:
        s_new = (
            checkpoint.border_sums[pattern]
            + delta_matches[pattern] * n_delta
        )
        exact_new[pattern] = s_new / n_new
    for d, value in symbol_match_new.items():
        exact_new[Pattern.single(d)] = value
    survivors = [p for p in old_elements if exact_new[p] >= min_match]
    fallen = [p for p in old_elements if exact_new[p] < min_match]
    tracer.note("border_survivors", len(survivors))
    tracer.note("border_fallen", len(fallen))

    old_border = Border(old_elements)
    new_border = Border(survivors, tracer=tracer)
    reprobed = 0

    # -- Downward: re-probe only the fallen elements' cones. ----------
    # Top-down BFS: the first frequent pattern on each path is maximal
    # in its chain; Border.add keeps the overall antichain invariant.
    with tracer.phase("delta-fallen-probe"):
        visited: Set[Pattern] = set()
        frontier: Set[Pattern] = set()
        for pattern in fallen:
            frontier.update(pattern.immediate_subpatterns())
        while frontier:
            frontier -= visited
            visited |= frontier
            expand: Set[Pattern] = set()
            to_count: List[Pattern] = []
            for pattern in sorted(frontier):
                if new_border.covers(pattern):
                    continue  # provably frequent under a survivor
                if not constraints.admits(pattern):
                    # Outside the mined pattern space (a gap bound can
                    # exclude a subpattern); its own subpatterns may
                    # still be border material.
                    expand.update(pattern.immediate_subpatterns())
                    continue
                if pattern.weight == 1:
                    # Known exactly from the refreshed Phase-1 sums.
                    symbol = pattern.elements[0]
                    if symbol_match_new[symbol] >= min_match:
                        new_border.add(pattern)
                    continue
                to_count.append(pattern)
            if to_count:
                reprobed += len(to_count)
                tracer.count(BORDER_REPROBES, len(to_count))
                counted = count_matches_batched(
                    to_count, store, matrix, memory_capacity,
                    engine=engine, tracer=tracer,
                )
                exact_new.update(counted)
                for pattern in sorted(to_count):
                    if counted[pattern] >= min_match:
                        new_border.add(pattern)
                    else:
                        expand.update(pattern.immediate_subpatterns())
            frontier = expand

    # Weight-1 upward crossers need no delta mining: every single's new
    # match is already exact from the refreshed Phase-1 sums.
    for d in range(matrix.size):
        single = Pattern.single(d)
        if (
            symbol_match_new[d] >= min_match
            and constraints.admits(single)
            and not new_border.covers(single)
        ):
            new_border.add(single)

    # -- Upward: only delta-frequent patterns can cross min_match. ----
    with tracer.phase("delta-crosser-mine"):
        delta_scans_before = delta_db.scan_count
        crosser_run = LevelwiseMiner(
            matrix, min_match, constraints=constraints,
            memory_capacity=memory_capacity, engine=engine,
        ).mine(delta_db)
        tracer.count(DELTA_SCANS,
                     delta_db.scan_count - delta_scans_before)
        suspects = sorted(
            (
                p for p in crosser_run.frequent
                if p.weight > 1 and not old_border.covers(p)
            ),
            key=lambda p: (-p.weight, p),
        )
    tracer.note("crosser_candidates", len(suspects))

    with tracer.phase("delta-crosser-verify"):
        to_verify = [p for p in suspects if not new_border.covers(p)]
        if to_verify:
            counted = count_matches_batched(
                to_verify, store, matrix, memory_capacity,
                engine=engine, tracer=tracer,
            )
            exact_new.update(counted)
            for pattern in sorted(to_verify, key=lambda p: (-p.weight, p)):
                if counted[pattern] >= min_match:
                    new_border.add(pattern)

    frequent = {
        p: v for p, v in exact_new.items()
        if v >= min_match and new_border.covers(p)
    }
    full_scans = store.scan_count - scans_before
    elapsed = time.perf_counter() - started
    result = MiningResult(
        frequent=frequent,
        border=new_border,
        scans=full_scans,
        elapsed_seconds=elapsed,
        extras={
            "symbol_match": np.array(
                [symbol_match_new[d] for d in range(matrix.size)]
            ),
            "delta_sequences": n_delta,
            "reprobed": reprobed,
            "crosser_candidates": len(suspects),
            "border_fallen": len(fallen),
            "border_survivors": len(survivors),
        },
        report=tracer.report(
            algorithm="delta-remine", engine=engine.name,
            scans=full_scans, elapsed_seconds=elapsed,
        ),
    )
    refreshed = MiningCheckpoint(
        store_digest=store.digest,
        segment_digests=store.segment_digests,
        n_sequences=n_new,
        min_match=min_match,
        symbol_sums=new_symbol_sums,
        border_sums={
            p: exact_new[p] * n_new for p in new_border.elements
        },
        config_key=(
            config_key if config_key is not None
            else checkpoint.config_key
        ),
        sample_planes_key=checkpoint.sample_planes_key,
    )
    return DeltaOutcome(
        result=result,
        checkpoint=refreshed,
        delta_sequences=n_delta,
        full_scans=full_scans,
        reprobed=reprobed,
        crosser_candidates=len(suspects),
    )


__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "DeltaOutcome",
    "MiningCheckpoint",
    "create_checkpoint",
    "delta_remine",
]
