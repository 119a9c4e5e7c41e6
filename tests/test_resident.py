"""The resident-sample evaluator: equivalence, pinning, prefix stack.

The evaluator's whole promise is "same numbers, fewer flops": every
match value must agree with the per-sequence oracle to 1e-12 on
arbitrary inputs — gapped patterns included — in any batch order, or
when the database was silently swapped between calls, and equal the
vectorized engine's bit for bit at equal ``chunk_rows``.  The prefix
stack derives each distinct parent prefix once per chunk, counts it
once per call, and holds at most one plane buffer per chain depth,
sized for the largest chunk.  float32 scoring
stays within the documented 1e-5 bound with half-size buffers.  The
scan contract (exactly one ``database.scan()`` per
``database_matches``) must hold even though the engine keeps the data
pinned.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BorderCollapsingMiner,
    CompatibilityMatrix,
    MiningError,
    Pattern,
    PatternConstraints,
    SequenceDatabase,
    WILDCARD,
)
from repro.engine import ResidentSampleEvaluator, VectorizedBatchEngine
from repro.engine.kernels import _strip_last, _visit_order
from repro.mining.ambiguous import classify_on_sample
from repro.mining.chernoff import chernoff_epsilon, restricted_spread
from repro.obs import (
    RESIDENT_PLANE_BYTES,
    RESIDENT_PLANE_HITS,
    RESIDENT_PLANE_MISSES,
    Tracer,
)

from .oracles import ReferenceEngine
from .strategies import (
    M,
    databases,
    matrices,
    pattern_batches,
    patterns,
)


REF = ReferenceEngine()
#: The counting engine at the evaluator's test pitch: float64 resident
#: values must equal its values bit for bit.
VEC = VectorizedBatchEngine(chunk_rows=3)

#: The documented float32 bound on any match value (docs/ALGORITHMS.md).
FLOAT32_ATOL = 1e-5


# -- hypothesis equivalence ----------------------------------------------------

@given(pattern_batches(), databases(), matrices())
@settings(max_examples=60, deadline=None)
def test_database_matches_equivalence(batch, database, matrix):
    batch = list(dict.fromkeys(batch))
    baseline = REF.database_matches(batch, database, matrix)
    # A fresh evaluator per example: hypothesis shrinks across examples
    # and a stale pin must never leak between them (re-pinning handles
    # it, but the test should not depend on that here).
    engine = ResidentSampleEvaluator(chunk_rows=3)
    result = engine.database_matches(batch, database, matrix)
    assert set(result) == set(baseline)
    for pattern in batch:
        assert result[pattern] == pytest.approx(
            baseline[pattern], abs=1e-12
        )
    # Second call on the warm pin: the stack re-derives every parent
    # into reused buffers and the values must not move at all.
    again = engine.database_matches(batch, database, matrix)
    assert again == result


@given(pattern_batches(), databases(), matrices())
@settings(max_examples=40, deadline=None)
def test_float64_is_bit_identical_to_the_vectorized_engine(
    batch, database, matrix
):
    batch = list(dict.fromkeys(batch))
    expected = VEC.database_matches(batch, database, matrix)
    got = ResidentSampleEvaluator(chunk_rows=3).database_matches(
        batch, database, matrix
    )
    assert got == expected  # dict == is bit-identity


# -- the prefix stack ---------------------------------------------------------

def _distinct_parent_prefixes(batch) -> int:
    """Distinct span->=2 prefixes on the batch's parent chains: the
    links the stack must derive, once each, per call."""
    prefixes = set()
    for pattern in batch:
        parent = _strip_last(pattern.elements)[0]
        while parent is not None and len(parent) > 1:
            prefixes.add(parent)
            parent = _strip_last(parent)[0]
    return len(prefixes)


def _plane_elements(database, chunk_rows: int) -> int:
    """``max_c L_c·N_c`` over the evaluator's pinned chunks: one
    stack plane's cells."""
    lengths = [len(seq) for _sid, seq in database.scan()]
    return max(
        max(lengths[start : start + chunk_rows]) * len(
            lengths[start : start + chunk_rows]
        )
        for start in range(0, len(lengths), chunk_rows)
    )


def _mixed_batch():
    """Deep chains plus siblings: exercises single-link derivation,
    multi-link stack pushes, pops to a shared ancestor, and root
    sibling groups."""
    out = []
    for d in range(M):
        out.append(Pattern((d,)))
        out.append(Pattern((0, d)))
        out.append(Pattern((0, d, WILDCARD, (d + 1) % M)))
        out.append(Pattern((0, d, WILDCARD, (d + 1) % M, d)))
    return list(dict.fromkeys(out))


@pytest.fixture
def small_world():
    rng = np.random.default_rng(11)
    array = rng.uniform(0.05, 1.0, size=(M, M)) + np.eye(M)
    matrix = CompatibilityMatrix(array / array.sum(axis=0, keepdims=True))
    database = SequenceDatabase([
        rng.integers(0, M, size=rng.integers(2, 10)).astype(np.int64)
        for _ in range(13)
    ])
    return database, matrix


class _RecordingEvaluator(ResidentSampleEvaluator):
    """Records each call's batch, derived links and held bytes."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.calls = []

    def database_matches(self, patterns, database, matrix, tracer=None):
        patterns = list(patterns)
        misses = self.planes.misses
        result = super().database_matches(
            patterns, database, matrix, tracer=tracer
        )
        self.calls.append(
            (patterns, self.planes.misses - misses, self.planes.nbytes)
        )
        return result


class TestPrefixStack:
    def _workload(self):
        rng = np.random.default_rng(29)
        rows = [
            list(rng.integers(0, M, size=rng.integers(6, 14)))
            for _ in range(30)
        ]
        database = SequenceDatabase(rows)
        matrix = CompatibilityMatrix.uniform_noise(M, 0.15)
        constraints = PatternConstraints(max_weight=5, max_span=7,
                                         max_gap=1)
        return database, matrix, constraints

    def test_bfs_levels_stay_within_the_stack_bound(self):
        database, matrix, constraints = self._workload()
        chunk_rows = 8  # 30 rows: four pinned chunks
        engine = _RecordingEvaluator(chunk_rows=chunk_rows)
        classify_on_sample(
            database, matrix, 0.3, 1e-3,
            VectorizedBatchEngine().symbol_matches(database, matrix),
            constraints, engine=engine,
        )
        assert len(engine.calls) >= 3  # at least three BFS levels
        elements = _plane_elements(database, chunk_rows)
        max_parent_span = 1
        for batch, misses, nbytes in engine.calls:
            max_parent_span = max(
                [max_parent_span]
                + [len(_strip_last(p.elements)[0] or ()) for p in batch]
            )
            assert nbytes <= (max_parent_span - 1) * elements * 8
            assert misses == _distinct_parent_prefixes(batch)
        assert engine.planes.nbytes > 0
        # Every value equals the counting engine's, bit for bit.
        vec = VectorizedBatchEngine(chunk_rows=chunk_rows)
        for batch, _misses, _nbytes in engine.calls:
            assert ResidentSampleEvaluator(
                chunk_rows=chunk_rows
            ).database_matches(batch, database, matrix) == \
                vec.database_matches(batch, database, matrix)

    @given(pattern_batches(), databases(), matrices(), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_shuffled_batch_is_bit_identical(
        self, batch, database, matrix, random
    ):
        batch = list(dict.fromkeys(batch))
        shuffled = list(batch)
        random.shuffle(shuffled)
        first = ResidentSampleEvaluator(chunk_rows=3)
        second = ResidentSampleEvaluator(chunk_rows=3)
        expected = first.database_matches(batch, database, matrix)
        assert second.database_matches(shuffled, database, matrix) \
            == expected
        assert first.planes.misses == second.planes.misses
        assert first.planes.misses == _distinct_parent_prefixes(batch)

    def test_deep_chains_match_single_pattern_calls(self, fig2_matrix):
        rng = np.random.default_rng(11)
        database = SequenceDatabase(
            [list(rng.integers(0, M, size=10)) for _ in range(20)]
        )
        chain = [
            Pattern([0, 1]),
            Pattern([0, 1, WILDCARD, 2]),
            Pattern([0, 1, WILDCARD, 2, 3]),
            Pattern([0, 1, WILDCARD, 2, WILDCARD, 3]),
            Pattern([0, 2, 3]),
        ]
        engine = ResidentSampleEvaluator(chunk_rows=4)
        together = engine.database_matches(chain, database, fig2_matrix)
        # (0 1), (0 1 * 2) and (0 2): each derived once, the shared
        # (0 1 * 2) parent of two sibling groups found on the stack.
        assert engine.planes.misses == 3
        assert engine.planes.hits == 1
        for pattern in chain:
            alone = ResidentSampleEvaluator(chunk_rows=4).database_matches(
                [pattern], database, fig2_matrix
            )
            assert alone[pattern] == together[pattern]

    def test_mixed_batch_walks_the_stack_exactly(self, small_world):
        """Every stack move — push, pop to a shared ancestor, re-derive
        a root — against the vectorized backend."""
        database, matrix = small_world
        batch = _mixed_batch()
        expected = VEC.database_matches(batch, database, matrix)
        evaluator = ResidentSampleEvaluator(chunk_rows=3)
        assert evaluator.database_matches(batch, database, matrix) \
            == expected
        # Distinct span->=2 parent prefixes: (0 d) and (0 d * d+1) per d.
        assert evaluator.planes.misses == 2 * M

    def test_warm_pin_rederives_planes_per_call(self, small_world):
        database, matrix = small_world
        batch = _mixed_batch()
        evaluator = ResidentSampleEvaluator(chunk_rows=3)
        first = evaluator.database_matches(batch, database, matrix)
        misses_after_first = evaluator.planes.misses
        held = evaluator.planes.nbytes
        second = evaluator.database_matches(batch, database, matrix)
        assert second == first
        # Only the buffers outlive a call: the second pass derives the
        # same links again, into the same buffers.
        assert evaluator.planes.misses == 2 * misses_after_first
        assert evaluator.planes.nbytes == held
        assert evaluator.repins == 1

    @given(pattern_batches())
    @settings(max_examples=60, deadline=None)
    def test_visit_order_keeps_sibling_groups_contiguous(self, batch):
        """The evaluator's group order is a pre-order walk of the
        parents' prefix trie: groups sharing a parent are adjacent, and
        every ancestor prefix's groups come before its descendants'."""
        batch = list(dict.fromkeys(batch))
        groups = {}
        for pattern in batch:
            parent, offset, _symbol = _strip_last(pattern.elements)
            groups.setdefault((parent, offset), []).append(pattern)
        ordered = [
            key for key, _ in sorted(groups.items(), key=_visit_order)
        ]
        parents = [parent or () for parent, _offset in ordered]
        for i, parent in enumerate(parents):
            # The parents extending this one (itself included) form one
            # contiguous run right after it: once the walk leaves a
            # subtree it never comes back, so a popped plane is never
            # needed again within the call.
            inside = [
                other[: len(parent)] == parent for other in parents[i:]
            ]
            run = inside.index(False) if False in inside else len(inside)
            assert not any(inside[run:]), "prefix subtree split apart"


# -- float32 scoring -----------------------------------------------------------

class TestFloat32:
    def test_error_is_bounded(self, small_world):
        database, matrix = small_world
        batch = _mixed_batch()
        exact = VEC.database_matches(batch, database, matrix)
        evaluator = ResidentSampleEvaluator(
            chunk_rows=3, score_dtype="float32"
        )
        got = evaluator.database_matches(batch, database, matrix)
        for pattern in batch:
            assert got[pattern] == pytest.approx(
                exact[pattern], abs=FLOAT32_ATOL
            )

    def test_stack_buffers_are_half_size(self, small_world):
        """The stack buffers are held in the scoring dtype."""
        database, matrix = small_world
        batch = _mixed_batch()
        by_dtype = {}
        for dtype in ("float64", "float32"):
            evaluator = ResidentSampleEvaluator(
                chunk_rows=3, score_dtype=dtype
            )
            evaluator.database_matches(batch, database, matrix)
            by_dtype[dtype] = evaluator.planes.nbytes
        assert by_dtype["float32"] * 2 == by_dtype["float64"]

    def test_set_score_dtype_repins_lazily(self, small_world):
        database, matrix = small_world
        batch = _mixed_batch()
        evaluator = ResidentSampleEvaluator(chunk_rows=3)
        f64 = evaluator.database_matches(batch, database, matrix)
        assert evaluator.repins == 1
        evaluator.set_score_dtype("float32")
        f32 = evaluator.database_matches(batch, database, matrix)
        assert evaluator.repins == 2  # dtype is part of the pin key
        for pattern in batch:
            assert f32[pattern] == pytest.approx(
                f64[pattern], abs=FLOAT32_ATOL
            )
        # Switching back re-pins again and restores exact values.
        evaluator.set_score_dtype("float64")
        assert evaluator.database_matches(batch, database, matrix) == f64


# -- pinning and the scan contract ---------------------------------------------

class TestPinning:
    def _database(self, seed: int = 0, n: int = 10) -> SequenceDatabase:
        rng = np.random.default_rng(seed)
        return SequenceDatabase(
            [list(rng.integers(0, M, size=8)) for _ in range(n)]
        )

    def test_database_matches_is_exactly_one_scan(self, fig2_matrix):
        engine = ResidentSampleEvaluator(chunk_rows=4)
        database = self._database()
        batch = [Pattern([0, 1]), Pattern([1, WILDCARD, 0])]
        before = database.scan_count
        engine.database_matches(batch, database, fig2_matrix)
        assert database.scan_count == before + 1
        # The warm path still pays its scan: the pass *is* the paper's
        # cost model, the pin only removes recomputation.
        engine.database_matches(batch, database, fig2_matrix)
        assert database.scan_count == before + 2
        assert engine.repins == 1  # one pin served both calls

    def test_changed_database_repins_and_agrees(self, fig2_matrix):
        engine = ResidentSampleEvaluator(chunk_rows=4)
        batch = [Pattern([0, 1])]
        first_db = self._database(seed=1)
        second_db = self._database(seed=2)
        engine.database_matches(batch, first_db, fig2_matrix)
        got = engine.database_matches(batch, second_db, fig2_matrix)
        assert engine.repins == 2
        expected = REF.database_matches(batch, second_db, fig2_matrix)
        assert got[batch[0]] == pytest.approx(expected[batch[0]], abs=1e-12)

    def test_equal_content_different_object_reuses_pin(self, fig2_matrix):
        engine = ResidentSampleEvaluator(chunk_rows=4)
        batch = [Pattern([0, 1])]
        engine.database_matches(batch, self._database(seed=3), fig2_matrix)
        engine.database_matches(batch, self._database(seed=3), fig2_matrix)
        assert engine.repins == 1  # content digest, not object identity

    def test_changed_matrix_repins(self, fig2_matrix):
        engine = ResidentSampleEvaluator(chunk_rows=4)
        database = self._database(seed=4)
        batch = [Pattern([0, 1])]
        engine.database_matches(batch, database, fig2_matrix)
        identity = CompatibilityMatrix.identity(M)
        got = engine.database_matches(batch, database, identity)
        assert engine.repins == 2
        expected = REF.database_matches(batch, database, identity)
        assert got[batch[0]] == pytest.approx(expected[batch[0]], abs=1e-12)

    def test_empty_batch_costs_nothing(self, fig2_matrix):
        engine = ResidentSampleEvaluator()
        database = self._database()
        before = database.scan_count
        assert engine.database_matches([], database, fig2_matrix) == {}
        assert database.scan_count == before

    def test_empty_database_rejected(self, fig2_matrix):
        # SequenceDatabase refuses to be empty, so exercise the engine's
        # own guard with a bare scan that yields nothing.
        class EmptyScan:
            scan_count = 0

            def scan(self):
                return iter(())

            def scan_chunks(self, chunk_rows):
                return iter(())

        engine = ResidentSampleEvaluator()
        with pytest.raises(MiningError):
            engine.database_matches(
                [Pattern([0])], EmptyScan(), fig2_matrix
            )

    def test_close_and_reset(self, fig2_matrix):
        engine = ResidentSampleEvaluator(chunk_rows=4)
        database = self._database()
        batch = [Pattern([0, 1]), Pattern([0, 1, 2])]
        result = engine.database_matches(batch, database, fig2_matrix)
        held = engine.planes.nbytes
        assert held > 0
        # The warm pin keeps its stack buffers: a second call reuses
        # them rather than growing them.
        assert engine.database_matches(batch, database, fig2_matrix) \
            == result
        assert engine.planes.nbytes == held
        assert engine.repins == 1
        engine.close()
        assert engine.planes.nbytes == 0  # close drops pin and buffers
        assert engine.database_matches(batch, database, fig2_matrix) \
            == result
        assert engine.repins == 2


# -- observability -------------------------------------------------------------

class TestCounters:
    def test_plane_counters_reach_the_tracer(self, fig2_matrix):
        rng = np.random.default_rng(7)
        database = SequenceDatabase(
            [list(rng.integers(0, M, size=10)) for _ in range(12)]
        )
        engine = ResidentSampleEvaluator(chunk_rows=4)
        parents = [Pattern([0, 1]), Pattern([2, 3])]
        children = [Pattern([0, 1, 2]), Pattern([0, 1, 3]),
                    Pattern([0, 1, WILDCARD, 2]), Pattern([2, 3, 0])]
        tracer = Tracer()
        engine.database_matches(parents, database, fig2_matrix,
                                tracer=tracer)
        # Level-2 patterns extend span-1 planes, which are views into
        # the factor arrays — no stack traffic yet.
        assert tracer.total(RESIDENT_PLANE_MISSES) == 0
        engine.database_matches(children, database, fig2_matrix,
                                tracer=tracer)
        # The children's two distinct parents are derived once each;
        # the second sibling group of (0 1) finds it on the stack.
        assert tracer.total(RESIDENT_PLANE_MISSES) == 2
        assert tracer.total(RESIDENT_PLANE_HITS) == 1
        engine.database_matches(children, database, fig2_matrix,
                                tracer=tracer)
        # Only the buffers outlive a call: the next one re-derives.
        assert tracer.total(RESIDENT_PLANE_MISSES) == 4
        assert tracer.total(RESIDENT_PLANE_HITS) == 2
        # The bytes counter accumulates deltas, so its running total is
        # the stack's current footprint: one depth of buffers, sized
        # for one (10, 4) chunk, whatever the chunk count.
        assert tracer.total(RESIDENT_PLANE_BYTES) == engine.planes.nbytes
        assert engine.planes.nbytes == 8 * 10 * 4

    def test_untraced_calls_are_free_of_counter_state(self, fig2_matrix):
        engine = ResidentSampleEvaluator(chunk_rows=4)
        database = SequenceDatabase([[0, 1, 2, 3]])
        engine.database_matches(
            [Pattern([0, 1])], database, fig2_matrix, tracer=None
        )  # must simply not raise


# -- phase-2 integration -------------------------------------------------------

class TestClassifyIntegration:
    def _workload(self):
        rng = np.random.default_rng(17)
        rows = [list(rng.integers(0, M, size=12)) for _ in range(40)]
        database = SequenceDatabase(rows)
        matrix = CompatibilityMatrix.uniform_noise(M, 0.15)
        sym = VectorizedBatchEngine().symbol_matches(database, matrix)
        constraints = PatternConstraints(max_weight=4, max_span=6,
                                         max_gap=1)
        return database, matrix, sym, constraints

    def test_resident_classification_identical_to_reference(self):
        database, matrix, sym, constraints = self._workload()
        base = classify_on_sample(
            database, matrix, 0.4, 1e-3, sym, constraints, engine=REF,
        )
        res = classify_on_sample(
            database, matrix, 0.4, 1e-3, sym, constraints,
        )
        assert base.labels == res.labels
        assert base.epsilons == res.epsilons
        for pattern, value in base.sample_matches.items():
            assert res.sample_matches[pattern] == pytest.approx(
                value, abs=1e-12
            )

    def test_exact_path_sample_equals_database(self):
        # exact=True is the sample == database configuration: the band
        # is zero and every label is decided by the exact match value.
        database, matrix, sym, constraints = self._workload()
        base = classify_on_sample(
            database, matrix, 0.4, 1e-3, sym, constraints,
            exact=True, engine=REF,
        )
        res = classify_on_sample(
            database, matrix, 0.4, 1e-3, sym, constraints, exact=True,
        )
        assert base.labels == res.labels
        assert base.epsilons == res.epsilons
        for pattern, value in base.sample_matches.items():
            assert res.sample_matches[pattern] == pytest.approx(
                value, abs=1e-12
            )

    def test_memoized_epsilons_match_the_formula(self):
        database, matrix, sym, constraints = self._workload()
        n = len(database)
        result = classify_on_sample(
            database, matrix, 0.4, 1e-3, sym, constraints,
        )
        checked = 0
        for pattern, epsilon in result.epsilons.items():
            if pattern.weight < 2 or epsilon == 0.0:
                continue
            spread = restricted_spread(pattern, sym)
            assert epsilon == chernoff_epsilon(spread, 1e-3, n)
            checked += 1
        assert checked > 0

    def test_mining_end_to_end_matches_the_vectorized_sample_engine(
        self, small_world
    ):
        """Whole-miner check: counting Phase 2 on the resident evaluator
        gives the run that counting it on the vectorized engine gives."""
        database, matrix = small_world
        results = []
        for sample_engine in (
            ResidentSampleEvaluator(),
            VectorizedBatchEngine(),
        ):
            miner = BorderCollapsingMiner(
                matrix, 0.35, sample_size=7,
                constraints=PatternConstraints(max_weight=4, max_span=6,
                                               max_gap=1),
                rng=np.random.default_rng(5),
                sample_engine=sample_engine,
            )
            results.append(miner.mine(database))
        resident, vectorized = results
        assert resident.frequent == vectorized.frequent
        assert resident.border == vectorized.border
        assert resident.scans == vectorized.scans


# -- configuration surface -----------------------------------------------------

class TestConfiguration:
    def test_invalid_construction_rejected(self):
        with pytest.raises(MiningError):
            ResidentSampleEvaluator(chunk_rows=0)


# -- unit pieces ---------------------------------------------------------------

class TestStripLast:
    def test_single_symbol(self):
        assert _strip_last((3,)) == (None, 0, 3)

    def test_adjacent(self):
        assert _strip_last((0, 1, 2)) == ((0, 1), 2, 2)

    def test_gap_is_consumed_with_the_symbol(self):
        assert _strip_last((0, WILDCARD, WILDCARD, 2)) == ((0,), 3, 2)

    def test_round_trip_against_pattern_semantics(self):
        pattern = Pattern([1, WILDCARD, 0, WILDCARD, WILDCARD, 3])
        parent, offset, symbol = _strip_last(pattern.elements)
        assert Pattern(list(parent)) == Pattern([1, WILDCARD, 0])
        assert offset == pattern.span - 1
        assert symbol == 3
