"""Canonical mining-run configuration shared by CLI, daemon and harness.

A long-lived daemon needs the same flag/environment resolution as the
CLI for jobs that arrive over HTTP — and a *canonical* serialised form,
because result memoization keys on "the same configuration".
:class:`MiningConfig` is that single source of truth:

* :meth:`MiningConfig.resolve` applies the one precedence rule
  (explicit value > ``NOISYMINE_*`` environment variable > default) and
  fails loudly on a bad environment value, exactly as the CLI always
  has;
* :meth:`MiningConfig.to_key` is the canonical string the daemon's
  result memo keys on;
* :meth:`MiningConfig.build_miner` constructs the configured miner.

Execution is not configured here: the counting engine is a
:class:`repro.engine.VectorizedBatchEngine` (its worker count set by
``--workers``) and Phase 2 always runs the resident sample
evaluator.

The input is not configured either: :func:`open_database` sniffs the
path (segment manifest, then packed magic bytes, else text), and every
representation yields bit-identical results, so memo hits cross them.

Wire form: :meth:`to_dict` / :meth:`from_dict` round-trip the config as
plain JSON types; unknown keys are rejected loudly so a typo in a job
payload cannot silently fall back to a default.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .core.compatibility import CompatibilityMatrix
from .core.lattice import PatternConstraints
from .core.sequence import CountedScanDatabase, FileSequenceDatabase
from .engine import (
    MatchEngine,
    ResidentSampleEvaluator,
    SCORE_DTYPES,
    VectorizedBatchEngine,
    resolve_score_dtype,
)
from .errors import MiningError, NoisyMineError
from .io import (
    PackedSequenceStore,
    SegmentedSequenceStore,
    is_packed_store,
    is_segmented_store,
)
from .mining.counting import validate_memory_capacity
from .mining.depthfirst import DepthFirstMiner
from .mining.levelwise import LevelwiseMiner
from .mining.maxminer import MaxMiner
from .mining.miner import BorderCollapsingMiner
from .mining.pincer import PincerMiner
from .mining.toivonen import ToivonenMiner
from .obs import Tracer

#: All six miners, in the CLI's historical choice order.
ALGORITHMS = (
    "border-collapsing",
    "levelwise",
    "maxminer",
    "toivonen",
    "pincer",
    "depthfirst",
)

#: Miners whose result depends on the sampling RNG stream.  The others
#: are fully deterministic for a given database and config, seed or no
#: seed — which is what decides memoizability below.
SAMPLING_ALGORITHMS = frozenset({"border-collapsing", "toivonen"})


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: What each JSON type of a wire field accepts (an integer is not a
#: bool, a number is an int or float).
_WIRE_CHECKS = {
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a number": _is_number,
    "a string": lambda v: isinstance(v, str),
    "rows of numbers": lambda v: isinstance(v, (list, tuple)) and all(
        isinstance(row, (list, tuple)) and all(map(_is_number, row))
        for row in v
    ),
}

#: Each wire field's JSON type, and whether it may be null
#: (:meth:`MiningConfig.from_dict`; a null ``algorithm`` or
#: ``score_dtype`` resolves to its default).
_WIRE_TYPES = {
    "min_match": ("a number", False),
    "algorithm": ("a string", True),
    "alphabet": ("an integer", True),
    "noise": ("a number", False),
    "matrix": ("rows of numbers", True),
    "sample_size": ("an integer", True),
    "delta": ("a number", False),
    "max_weight": ("an integer", False),
    "max_span": ("an integer", False),
    "max_gap": ("an integer", False),
    "memory_capacity": ("an integer", True),
    "seed": ("an integer", True),
    "score_dtype": ("a string", True),
}


def open_database(path: Union[str, os.PathLike]) -> CountedScanDatabase:
    """Open *path*, sniffing its representation: a directory with a
    segment manifest opens segmented, a file with the packed magic
    bytes opens packed, and anything else reads as text.  Results are
    identical across representations, only scan throughput (and
    appendability) differs.
    """
    if is_segmented_store(path):
        return SegmentedSequenceStore.open(path)
    if is_packed_store(path):
        return PackedSequenceStore.open(path)
    return FileSequenceDatabase(path)


@dataclass(frozen=True)
class MiningConfig:
    """One mining run's full configuration, resolved and canonical.

    Semantic fields (they change the mined result): ``algorithm``,
    ``min_match``, ``alphabet``, ``noise``, ``matrix``, ``sample_size``,
    ``delta``, ``max_weight``, ``max_span``, ``max_gap``,
    ``memory_capacity``, ``seed``.  ``score_dtype`` trades exactness
    for speed:
    float32 is error-bounded and therefore keyed like a semantic field.

    Instances are immutable and hashable; construct through
    :meth:`resolve` (which applies flag > env > default precedence) or
    :meth:`from_dict` (the wire form).
    """

    min_match: float
    algorithm: str = "border-collapsing"
    alphabet: Optional[int] = None
    noise: float = 0.0
    #: Inline compatibility-matrix rows (column-stochastic, as accepted
    #: by :class:`CompatibilityMatrix`); overrides ``noise``/``alphabet``
    #: as the matrix spec when given.
    matrix: Optional[Tuple[Tuple[float, ...], ...]] = None
    sample_size: Optional[int] = None
    delta: float = 1e-4
    max_weight: int = 8
    max_span: int = 10
    max_gap: int = 0
    memory_capacity: Optional[int] = None
    seed: Optional[int] = None
    #: Scoring dtype of the resident Phase-2 evaluator.  ``"float32"``
    #: changes results within a documented error bound, so it
    #: participates in :meth:`to_key`.  Only the sampling miners have
    #: a Phase 2; full-database counting is float64-only, so every
    #: other miner rejects float32.
    score_dtype: str = "float64"

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise MiningError(
                f"unknown algorithm {self.algorithm!r}; "
                f"expected one of: {', '.join(ALGORITHMS)}"
            )
        if not 0.0 < self.min_match <= 1.0:
            raise MiningError(
                f"min_match must lie in (0, 1], got {self.min_match}"
            )
        if self.matrix is not None:
            frozen = tuple(tuple(float(v) for v in row)
                           for row in self.matrix)
            object.__setattr__(self, "matrix", frozen)
        elif self.alphabet is not None and self.alphabet < 1:
            raise MiningError(
                f"alphabet size must be >= 1, got {self.alphabet}"
            )
        validate_memory_capacity(self.memory_capacity)
        if self.score_dtype not in SCORE_DTYPES:
            raise MiningError(
                f"unknown score dtype {self.score_dtype!r}; "
                f"expected one of: {', '.join(SCORE_DTYPES)}"
            )
        if (
            self.score_dtype != "float64"
            and self.algorithm not in SAMPLING_ALGORITHMS
        ):
            raise MiningError(
                f"score_dtype {self.score_dtype!r} needs a sampling "
                f"miner: {self.algorithm!r} counts only on the full "
                "database, which scores in float64 (use "
                "border-collapsing or toivonen, or score_dtype "
                "'float64')"
            )

    # -- resolution -----------------------------------------------------------

    @classmethod
    def resolve(
        cls,
        min_match: float,
        algorithm: Optional[str] = None,
        alphabet: Optional[int] = None,
        noise: float = 0.0,
        matrix: Optional[Sequence[Sequence[float]]] = None,
        sample_size: Optional[int] = None,
        delta: float = 1e-4,
        max_weight: int = 8,
        max_span: int = 10,
        max_gap: int = 0,
        memory_capacity: Optional[int] = None,
        seed: Optional[int] = None,
        score_dtype: Optional[str] = None,
    ) -> "MiningConfig":
        """Build a config with flag > environment > default precedence.

        ``None`` for ``score_dtype`` consults ``NOISYMINE_SCORE_DTYPE``
        and falls back to the library default; a malformed environment
        value raises instead of silently running the default — the
        CLI's historical contract, shared by the daemon and the eval
        harness.
        """
        return cls(
            min_match=min_match,
            algorithm=algorithm or "border-collapsing",
            alphabet=alphabet,
            noise=noise,
            matrix=None if matrix is None else tuple(
                tuple(float(v) for v in row) for row in matrix
            ),
            sample_size=sample_size,
            delta=delta,
            max_weight=max_weight,
            max_span=max_span,
            max_gap=max_gap,
            memory_capacity=memory_capacity,
            seed=seed,
            score_dtype=resolve_score_dtype(score_dtype),
        )

    # -- derived --------------------------------------------------------------

    @property
    def alphabet_size(self) -> int:
        """Alphabet size m, from the inline matrix when one is given."""
        if self.matrix is not None:
            return len(self.matrix)
        if self.alphabet is None:
            raise MiningError(
                "no alphabet size: set alphabet= or provide an inline "
                "compatibility matrix"
            )
        return self.alphabet

    def build_matrix(self) -> CompatibilityMatrix:
        """The run's compatibility matrix: inline rows if given, else
        uniform noise at ``noise`` (identity when ``noise == 0``)."""
        if self.matrix is not None:
            return CompatibilityMatrix(self.matrix)
        m = self.alphabet_size
        if self.noise > 0:
            return CompatibilityMatrix.uniform_noise(m, self.noise)
        return CompatibilityMatrix.identity(m)

    def constraints(self) -> PatternConstraints:
        return PatternConstraints(
            max_weight=self.max_weight,
            max_span=self.max_span,
            max_gap=self.max_gap,
        )

    def effective_sample_size(self, n_sequences: int) -> int:
        """The Phase-2 sample size: explicit, else the CLI's historical
        ``max(1, N // 4)`` default."""
        return self.sample_size or max(1, n_sequences // 4)

    def build_miner(
        self,
        n_sequences: int,
        engine: Optional[MatchEngine] = None,
        tracer: Optional[Tracer] = None,
        sample_engine: Optional[ResidentSampleEvaluator] = None,
    ):
        """Construct the configured miner.

        *engine* is the counting engine (default a fresh
        :class:`~repro.engine.VectorizedBatchEngine`); the CLI passes
        one sized by ``--workers`` and the daemon passes per-store
        engines so concurrent jobs never share caches.
        *sample_engine* likewise passes a warm
        :class:`ResidentSampleEvaluator` kept pinned across jobs; the
        sampling miners otherwise build a fresh one.
        """
        matrix = self.build_matrix()
        constraints = self.constraints()
        if engine is None:
            engine = VectorizedBatchEngine()
        if isinstance(engine, VectorizedBatchEngine):
            engine.note_settings(tracer)
        common = dict(constraints=constraints, engine=engine, tracer=tracer)
        if self.algorithm in SAMPLING_ALGORITHMS:
            if sample_engine is None:
                sample_engine = ResidentSampleEvaluator(
                    score_dtype=self.score_dtype
                )
            else:
                # A warm evaluator may have been switched by a previous
                # run; a dtype change re-pins lazily on the next count.
                sample_engine.set_score_dtype(self.score_dtype)
            cls = (
                BorderCollapsingMiner
                if self.algorithm == "border-collapsing"
                else ToivonenMiner
            )
            return cls(
                matrix, self.min_match,
                sample_size=self.effective_sample_size(n_sequences),
                delta=self.delta,
                memory_capacity=self.memory_capacity,
                rng=np.random.default_rng(self.seed),
                sample_engine=sample_engine,
                **common,
            )
        if self.algorithm == "levelwise":
            return LevelwiseMiner(
                matrix, self.min_match,
                memory_capacity=self.memory_capacity, **common,
            )
        if self.algorithm == "maxminer":
            return MaxMiner(
                matrix, self.min_match,
                memory_capacity=self.memory_capacity, **common,
            )
        if self.algorithm == "pincer":
            return PincerMiner(
                matrix, self.min_match,
                memory_capacity=self.memory_capacity, **common,
            )
        return DepthFirstMiner(matrix, self.min_match, **common)

    # -- canonical forms ------------------------------------------------------

    @property
    def memoizable(self) -> bool:
        """True when an identical resubmission is guaranteed to produce
        an identical result: deterministic miners always, sampling
        miners only under a fixed seed."""
        return (
            self.algorithm not in SAMPLING_ALGORITHMS
            or self.seed is not None
        )

    def to_key(self) -> str:
        """Canonical memoization key over the **semantic** fields.

        ``score_dtype`` participates — float32 scoring changes match
        values within its error bound, so float32 runs never hit
        float64 memos.
        """
        payload = {
            "score_dtype": self.score_dtype,
            "algorithm": self.algorithm,
            "min_match": self.min_match,
            "alphabet": None if self.matrix is not None else self.alphabet,
            "noise": None if self.matrix is not None else self.noise,
            "matrix": self.matrix,
            "sample_size": self.sample_size,
            "delta": self.delta,
            "max_weight": self.max_weight,
            "max_span": self.max_span,
            "max_gap": self.max_gap,
            "memory_capacity": self.memory_capacity,
            "seed": self.seed,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable wire form (inverse of :meth:`from_dict`)."""
        return {
            "min_match": self.min_match,
            "algorithm": self.algorithm,
            "alphabet": self.alphabet,
            "noise": self.noise,
            "matrix": (
                None if self.matrix is None
                else [list(row) for row in self.matrix]
            ),
            "sample_size": self.sample_size,
            "delta": self.delta,
            "max_weight": self.max_weight,
            "max_span": self.max_span,
            "max_gap": self.max_gap,
            "memory_capacity": self.memory_capacity,
            "seed": self.seed,
            "score_dtype": self.score_dtype,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "MiningConfig":
        """Rebuild a config from its wire form.

        Omitted fields resolve through :meth:`resolve` in the *current*
        process environment (the daemon's, for jobs over HTTP); unknown
        keys and values of the wrong JSON type are rejected loudly,
        naming the field, so a payload typo can neither silently mine
        with a default nor fail only once the job runs.
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise NoisyMineError(
                f"unknown config keys: {', '.join(unknown)}; "
                f"expected a subset of: {', '.join(sorted(known))}"
            )
        if "min_match" not in payload:
            raise NoisyMineError("config requires min_match")
        for name, value in payload.items():
            kind, nullable = _WIRE_TYPES[name]
            if not (value is None and nullable or _WIRE_CHECKS[kind](value)):
                raise NoisyMineError(
                    f"config field {name!r} must be {kind}"
                    f"{' or null' if nullable else ''}, "
                    f"got {type(value).__name__} {value!r}"
                )
        return cls.resolve(**dict(payload))

    def with_overrides(self, **changes) -> "MiningConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **changes)


def json_payload(
    config: MiningConfig, result, engine_name: str
) -> Dict[str, object]:
    """The machine-readable result payload of one mining run.

    This is the exact shape ``noisymine mine --json`` has always
    printed (``frequent`` renamed to the historical ``patterns`` key);
    the daemon builds its job results through the same function, which
    is what makes "service result == CLI result" true by construction.
    *engine_name* names the counting engine that actually ran.
    """
    payload: Dict[str, object] = {
        "algorithm": config.algorithm,
        "engine": engine_name,
        "min_match": config.min_match,
        "score_dtype": config.score_dtype,
        **result.to_dict(),
    }
    payload["patterns"] = payload.pop("frequent")
    return payload


__all__ = [
    "ALGORITHMS",
    "MiningConfig",
    "SAMPLING_ALGORITHMS",
    "json_payload",
    "open_database",
]
