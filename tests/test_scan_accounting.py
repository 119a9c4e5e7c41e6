"""Scan accounting: the paper's cost model, enforced and observable.

Every full-database counting call must consume exactly
``ceil(n_unique / memory_capacity)`` scans (after deduplication),
whatever engine evaluates the batches; and a memory budget that cannot
hold a single pattern counter is rejected eagerly with a clear error by
every entry point, before any scan is spent.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from repro import (
    CompatibilityMatrix,
    MiningError,
    Pattern,
    PatternConstraints,
    SequenceDatabase,
    WILDCARD,
)
from repro.engine import VectorizedBatchEngine
from repro.mining import (
    BorderCollapsingMiner,
    LevelwiseMiner,
    MaxMiner,
    PincerMiner,
    ToivonenMiner,
    collapse_borders,
    count_matches_batched,
    validate_memory_capacity,
)
from repro.mining import (
    ambiguous as ambiguous_module,
    collapsing as collapsing_module,
    counting as counting_module,
    levelwise as levelwise_module,
    maxminer as maxminer_module,
    pincer as pincer_module,
    toivonen as toivonen_module,
)

from .oracles import ReferenceEngine

#: Engines the scan contract is pinned on, by name.
ENGINES = {
    "reference": ReferenceEngine,
    "vectorized": VectorizedBatchEngine,
    "parallel": functools.partial(VectorizedBatchEngine, workers=2),
}

PATTERNS = [
    Pattern([0, 1]),
    Pattern([1, WILDCARD, 0]),
    Pattern([2, 3]),
    Pattern([3]),
    Pattern([1, 1]),
    Pattern([0, WILDCARD, WILDCARD, 2]),
    Pattern([4, 0]),
]


class TestBatchedCounting:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("capacity", [1, 2, 3, 7, 100, None])
    def test_scans_equal_ceil_unique_over_capacity(
        self, engine, capacity, fig4_database, fig2_matrix
    ):
        before = fig4_database.scan_count
        result = count_matches_batched(
            PATTERNS, fig4_database, fig2_matrix, capacity,
            engine=ENGINES[engine](),
        )
        expected = (
            math.ceil(len(PATTERNS) / capacity) if capacity else 1
        )
        assert fig4_database.scan_count - before == expected
        assert set(result) == set(PATTERNS)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_duplicates_are_not_recounted(self, engine, fig4_database,
                                          fig2_matrix):
        # 3 unique patterns at capacity 1 is 3 scans, however many
        # duplicates the caller hands in.
        duplicated = PATTERNS[:3] * 4
        before = fig4_database.scan_count
        count_matches_batched(
            duplicated, fig4_database, fig2_matrix, 1,
            engine=ENGINES[engine](),
        )
        assert fig4_database.scan_count - before == 3

    def test_empty_pattern_set_is_free(self, fig4_database, fig2_matrix):
        before = fig4_database.scan_count
        assert count_matches_batched([], fig4_database, fig2_matrix, 2) == {}
        assert fig4_database.scan_count == before

    def test_engine_choice_never_changes_scan_count(self, fig4_database,
                                                    fig2_matrix):
        deltas = {}
        for engine in ENGINES:
            before = fig4_database.scan_count
            count_matches_batched(
                PATTERNS, fig4_database, fig2_matrix, 3,
                engine=ENGINES[engine](),
            )
            deltas[engine] = fig4_database.scan_count - before
        assert len(set(deltas.values())) == 1


class TestZeroCapacityRejected:
    """``memory_capacity=0`` (or negative) fails fast with MiningError."""

    @pytest.mark.parametrize("capacity", [0, -1, -7])
    def test_count_matches_batched(self, capacity, fig4_database,
                                   fig2_matrix):
        before = fig4_database.scan_count
        with pytest.raises(MiningError, match="memory_capacity must be >= 1"):
            count_matches_batched(
                PATTERNS, fig4_database, fig2_matrix, capacity
            )
        assert fig4_database.scan_count == before  # no scan was spent

    def test_validate_allows_none_and_positive(self):
        validate_memory_capacity(None)
        validate_memory_capacity(1)
        validate_memory_capacity(10_000)

    @pytest.mark.parametrize(
        "make_miner",
        [
            lambda m: LevelwiseMiner(m, 0.5, memory_capacity=0),
            lambda m: MaxMiner(m, 0.5, memory_capacity=0),
            lambda m: PincerMiner(m, 0.5, memory_capacity=0),
            lambda m: ToivonenMiner(
                m, 0.5, sample_size=2, memory_capacity=0
            ),
            lambda m: BorderCollapsingMiner(
                m, 0.5, sample_size=2, memory_capacity=0
            ),
        ],
        ids=["levelwise", "maxminer", "pincer", "toivonen",
             "border-collapsing"],
    )
    def test_every_miner_constructor(self, make_miner, fig2_matrix):
        with pytest.raises(MiningError, match="memory_capacity must be >= 1"):
            make_miner(fig2_matrix)

    def test_collapse_borders(self, fig4_database, fig2_matrix, rng):
        from repro.mining import classify_on_sample

        symbol_match = np.full(5, 0.6)
        classification = classify_on_sample(
            fig4_database, fig2_matrix, 0.5, 0.1, symbol_match,
            PatternConstraints(max_weight=2, max_span=2),
        )
        with pytest.raises(MiningError, match="memory_capacity must be >= 1"):
            collapse_borders(
                fig4_database, fig2_matrix, 0.5, classification,
                memory_capacity=0,
            )


class TestMinerEntryPoints:
    """Every counting call made by every miner obeys the invariant.

    The modules' ``count_matches_batched`` references are wrapped with
    an asserting proxy; mining then exercises the invariant on every
    internal call (full-database *and* sample counting alike).
    """

    @pytest.fixture
    def instrument(self, monkeypatch):
        calls = []
        real = counting_module.count_matches_batched

        def checked(patterns, database, matrix, memory_capacity=None,
                    engine=None, **kwargs):
            unique = list(dict.fromkeys(patterns))
            before = database.scan_count
            result = real(
                unique, database, matrix, memory_capacity, engine=engine,
                **kwargs,
            )
            delta = database.scan_count - before
            if not unique:
                expected = 0
            elif memory_capacity is None:
                expected = 1
            else:
                expected = math.ceil(len(unique) / memory_capacity)
            assert delta == expected, (
                f"counting {len(unique)} unique patterns at capacity "
                f"{memory_capacity} took {delta} scans, expected {expected}"
            )
            calls.append(len(unique))
            return result

        for module in (
            ambiguous_module, collapsing_module, levelwise_module,
            maxminer_module, pincer_module, toivonen_module,
        ):
            monkeypatch.setattr(module, "count_matches_batched", checked)
        return calls

    @pytest.fixture
    def workload(self, rng):
        m = 5
        matrix = CompatibilityMatrix.uniform_noise(m, alpha=0.1)
        database = SequenceDatabase(
            [rng.integers(0, m, size=10) for _ in range(24)]
        )
        constraints = PatternConstraints(max_weight=3, max_span=4, max_gap=1)
        return matrix, database, constraints

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_levelwise(self, instrument, workload, engine):
        matrix, database, constraints = workload
        LevelwiseMiner(
            matrix, 0.3, constraints=constraints, memory_capacity=3,
            engine=ENGINES[engine](),
        ).mine(database)
        assert instrument  # the invariant was actually exercised

    def test_maxminer(self, instrument, workload):
        matrix, database, constraints = workload
        MaxMiner(
            matrix, 0.3, constraints=constraints, memory_capacity=3
        ).mine(database)
        assert instrument

    def test_pincer(self, instrument, workload):
        matrix, database, constraints = workload
        PincerMiner(
            matrix, 0.3, constraints=constraints, memory_capacity=3
        ).mine(database)
        assert instrument

    def test_toivonen(self, instrument, workload, rng):
        matrix, database, constraints = workload
        ToivonenMiner(
            matrix, 0.3, sample_size=12, delta=0.2,
            constraints=constraints, memory_capacity=3, rng=rng,
        ).mine(database)
        assert instrument

    def test_border_collapsing(self, instrument, workload, rng):
        matrix, database, constraints = workload
        BorderCollapsingMiner(
            matrix, 0.3, sample_size=12, delta=0.2,
            constraints=constraints, memory_capacity=3, rng=rng,
        ).mine(database)
        assert instrument
