"""The compiled resident Phase-2 path: kernels, dispatch, float32.

Differential surfaces:

* the three incremental-plane kernel bodies
  (``derive_child_planes`` / ``derive_sibling_batch`` /
  ``replay_plane_chain``) against the numpy plane primitives —
  bit-identical in float64;
* the evaluator's kernel dispatches (``numpy`` / ``pure`` / compiled
  ``auto``) against the vectorized backend over whole batches,
  including an eviction-starved schedule that forces every parent
  plane through the compiled recompute chain;
* the float32 plane mode: error-bounded values, halved plane-store
  byte charges;
* the ``score_dtype`` plumbing through :class:`MiningConfig`.

Everything runs on numba-free legs via the interpreted kernel twins;
the compiled specialisations join in automatically where numba
imports, and their absence is recorded (not silently passed) by
``test_unavailable_reason_is_recorded``.
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
from repro.config import MiningConfig
from repro.core import _nativekernels as nk
from repro.engine import (
    ResidentSampleEvaluator,
    VectorizedBatchEngine,
    native_available,
    native_unavailable_reason,
    sibling_order,
)
from repro.engine.kernels import extend_plane, extended_matrix, pad_chunk
from repro.engine.resident import PlaneStore, _strip_last
from repro.obs import (
    RESIDENT_NATIVE_CALLS,
    RESIDENT_PLANE_HITS,
    RESIDENT_PLANE_MISSES,
    Tracer,
)

from .strategies import (
    M,
    databases,
    kernel_variants,
    matrices,
    pattern_batches,
    patterns,
)


VEC = VectorizedBatchEngine(chunk_rows=3, cache_bytes=0)

#: The float32 bound shared with the native engine (docs/ALGORITHMS.md).
FLOAT32_ATOL = 1e-5


def _chain(pattern: Pattern):
    """The pattern's prefix chain as ``(symbol, offset)`` links, root
    first (the replay kernel's input layout)."""
    links = []
    node = pattern.elements
    while node is not None:
        parent, offset, symbol = _strip_last(node)
        links.append((symbol, offset))
        node = parent
    links.reverse()
    return links


def _numpy_plane(pattern: Pattern, padded: np.ndarray, c_ext: np.ndarray):
    """The pattern's plane built link by link with the numpy primitive
    (the float64 bit-identity baseline for all three kernels)."""
    gathered = np.ascontiguousarray(c_ext[:, padded.T])
    links = _chain(pattern)
    plane = gathered[links[0][0]]
    for symbol, offset in links[1:]:
        plane = extend_plane(plane, gathered, symbol, offset)
    return plane

# -- kernel differential tests -------------------------------------------------

@given(patterns(), databases(), matrices())
@settings(max_examples=60, deadline=None)
def test_derive_child_planes_matches_extend_plane(pattern, database, matrix):
    rows = [np.asarray(seq) for _sid, seq in database.scan()]
    padded = pad_chunk(rows, M)
    c_ext = extended_matrix(matrix.array)
    links = _chain(pattern)
    if len(links) < 2 or padded.shape[1] <= links[-1][1]:
        return  # needs a parent plane and at least one child window
    parent = Pattern(_strip_last(pattern.elements)[0])
    parent_plane = _numpy_plane(parent, padded, c_ext)
    expected = _numpy_plane(pattern, padded, c_ext)
    symbol, offset = links[-1]
    n = padded.shape[0]
    windows = padded.shape[1] - offset
    for kernel in kernel_variants(
        nk.py_derive_child_planes, nk.derive_child_planes
    ):
        plane = np.empty((windows, n), dtype=np.float64)
        maxima = np.empty(n, dtype=np.float64)
        kernel(padded, c_ext, parent_plane, symbol, offset, plane, maxima)
        np.testing.assert_array_equal(plane, expected)  # bit-identical
        np.testing.assert_array_equal(
            maxima, np.maximum.reduce(expected, axis=0)
        )


@given(pattern_batches(), databases(), matrices())
@settings(max_examples=60, deadline=None)
def test_derive_sibling_batch_matches_plane_maxima(batch, database, matrix):
    rows = [np.asarray(seq) for _sid, seq in database.scan()]
    padded = pad_chunk(rows, M)
    c_ext = extended_matrix(matrix.array)
    n = padded.shape[0]
    # Build one sibling group per drawn pattern: its parent plus every
    # alphabet symbol as the last position.
    for pattern in batch:
        parent_key, offset, _symbol = _strip_last(pattern.elements)
        windows = padded.shape[1] - offset
        if windows <= 0:
            continue
        symbols = np.arange(M, dtype=np.int64)
        if parent_key is None:
            parent_plane = np.zeros((1, 1), dtype=np.float64)
            use_parent = False
        else:
            parent_plane = _numpy_plane(Pattern(parent_key), padded, c_ext)
            use_parent = True
        expected = np.empty((M, n), dtype=np.float64)
        for s in range(M):
            elements = (
                (s,) if parent_key is None
                else parent_key
                + (WILDCARD,) * (offset - len(parent_key)) + (s,)
            )
            plane = _numpy_plane(Pattern(elements), padded, c_ext)
            np.maximum.reduce(plane, axis=0, out=expected[s])
        for kernel in kernel_variants(
            nk.py_derive_sibling_batch, nk.derive_sibling_batch
        ):
            maxima = np.empty((M, n), dtype=np.float64)
            kernel(
                padded, c_ext, parent_plane, use_parent, symbols, offset,
                maxima,
            )
            np.testing.assert_array_equal(maxima, expected)


@given(patterns(), databases(), matrices(), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_replay_plane_chain_matches_iterated_extends(
    pattern, database, matrix, base_depth
):
    rows = [np.asarray(seq) for _sid, seq in database.scan()]
    padded = pad_chunk(rows, M)
    c_ext = extended_matrix(matrix.array)
    links = _chain(pattern)
    if padded.shape[1] <= links[-1][1]:
        return
    expected = _numpy_plane(pattern, padded, c_ext)
    n = padded.shape[0]
    windows = padded.shape[1] - links[-1][1]
    # Replay from every possible stored ancestor depth: 0 = from the
    # span-1 root (use_base False), deeper = from a cached base plane.
    depth = min(base_depth, len(links) - 1)
    if depth == 0:
        base = np.zeros((1, 1), dtype=np.float64)
        use_base = False
        replayed = links
    else:
        prefix = pattern.elements
        for _ in range(len(links) - depth):
            prefix = _strip_last(prefix)[0]
        base = _numpy_plane(Pattern(prefix), padded, c_ext)
        use_base = True
        replayed = links[depth:]
    symbols = np.array([s for s, _ in replayed], dtype=np.int64)
    offsets = np.array([o for _, o in replayed], dtype=np.int64)
    for kernel in kernel_variants(
        nk.py_replay_plane_chain, nk.replay_plane_chain
    ):
        plane = np.empty((windows, n), dtype=np.float64)
        kernel(padded, c_ext, base, use_base, symbols, offsets, plane)
        np.testing.assert_array_equal(
            plane, expected[:windows]
        )  # truncated replay is exact: row w only depends on row w


# -- evaluator-level differentials ---------------------------------------------

@given(pattern_batches(), databases(), matrices())
@settings(max_examples=40, deadline=None)
def test_kernel_dispatches_are_bit_identical(batch, database, matrix):
    batch = list(dict.fromkeys(batch))
    expected = VEC.database_matches(batch, database, matrix)
    for mode in ("numpy", "pure"):
        evaluator = ResidentSampleEvaluator(chunk_rows=3, kernels=mode)
        got = evaluator.database_matches(batch, database, matrix)
        assert got == expected, mode  # dict == is bit-identity
    if native_available:
        evaluator = ResidentSampleEvaluator(chunk_rows=3, kernels="auto")
        assert evaluator.compiled
        assert evaluator.database_matches(batch, database, matrix) == expected


@given(pattern_batches(), databases(), matrices())
@settings(max_examples=25, deadline=None)
def test_eviction_starved_replay_chain_is_exact(batch, database, matrix):
    """``plane_bytes=0`` disables the store outright, so every parent
    plane is rebuilt through the full prefix-chain replay — the exact
    path an eviction miss takes — and values must not move."""
    batch = list(dict.fromkeys(batch))
    expected = VEC.database_matches(batch, database, matrix)
    for mode in ("numpy", "pure"):
        starved = ResidentSampleEvaluator(
            chunk_rows=3, plane_bytes=0, kernels=mode
        )
        assert starved.database_matches(batch, database, matrix) == expected
        assert len(starved.planes) == 0


def _mixed_batch():
    """Deep chains plus siblings: exercises derive (single missing
    link), replay (multi-link), and the rootless sibling branch."""
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


def test_tiny_budget_eviction_churn_is_exact(small_world):
    """A budget big enough for ~one plane forces constant eviction and
    recompute mid-run (not just the all-or-nothing starved case)."""
    database, matrix = small_world
    batch = _mixed_batch()
    expected = VEC.database_matches(batch, database, matrix)
    one_plane = 8 * 10 * len(database)
    for mode in ("numpy", "pure"):
        churning = ResidentSampleEvaluator(
            chunk_rows=3, plane_bytes=one_plane, kernels=mode
        )
        assert churning.database_matches(batch, database, matrix) == expected
        assert churning.planes.evictions > 0, mode


def test_pure_dispatch_counts_kernel_calls(small_world):
    database, matrix = small_world
    evaluator = ResidentSampleEvaluator(chunk_rows=3, kernels="pure")
    tracer = Tracer()
    with tracer.phase("phase2"):
        evaluator.database_matches(
            _mixed_batch(), database, matrix, tracer=tracer
        )
    counters = tracer.phases()[0].counters
    assert evaluator.native_calls > 0
    assert counters[RESIDENT_NATIVE_CALLS] == evaluator.native_calls
    assert counters[RESIDENT_PLANE_MISSES] > 0


def test_numpy_dispatch_records_zero_kernel_calls(small_world):
    """The counter is present (not missing) on the numpy path, so a
    report always answers "did the compiled path run?" explicitly."""
    database, matrix = small_world
    evaluator = ResidentSampleEvaluator(chunk_rows=3, kernels="numpy")
    tracer = Tracer()
    with tracer.phase("phase2"):
        evaluator.database_matches(
            _mixed_batch(), database, matrix, tracer=tracer
        )
    counters = tracer.phases()[0].counters
    assert evaluator.native_calls == 0
    assert counters[RESIDENT_NATIVE_CALLS] == 0
    assert counters[RESIDENT_PLANE_HITS] >= 0


def test_warm_store_reuses_planes_across_calls(small_world):
    database, matrix = small_world
    batch = _mixed_batch()
    evaluator = ResidentSampleEvaluator(chunk_rows=3, kernels="pure")
    first = evaluator.database_matches(batch, database, matrix)
    calls_after_first = evaluator.native_calls
    second = evaluator.database_matches(batch, database, matrix)
    assert second == first
    # Parent planes were already stored: the second pass derives none.
    assert evaluator.native_calls > calls_after_first  # sibling kernels ran
    assert evaluator.planes.hits > 0
    assert evaluator.repins == 1


def test_auto_without_numba_degrades_to_numpy(small_world):
    if native_available:
        pytest.skip("numba present: auto dispatch compiles")
    database, matrix = small_world
    evaluator = ResidentSampleEvaluator(chunk_rows=3, kernels="auto")
    assert not evaluator.compiled
    evaluator.database_matches(_mixed_batch(), database, matrix)
    assert evaluator.native_calls == 0  # numpy path, no kernel bounce


def test_unavailable_reason_is_recorded():
    if native_available:
        pytest.skip("numba present: nothing to record")
    reason = native_unavailable_reason()
    assert reason and "numba" in reason


@pytest.mark.skipif(
    not native_available,
    reason=f"compiled kernels unavailable: {native_unavailable_reason()}",
)
def test_compiled_dispatch_counts_and_matches(small_world):
    database, matrix = small_world
    batch = _mixed_batch()
    expected = VEC.database_matches(batch, database, matrix)
    evaluator = ResidentSampleEvaluator(chunk_rows=3, kernels="auto")
    assert evaluator.compiled
    assert evaluator.database_matches(batch, database, matrix) == expected
    assert evaluator.native_calls > 0


# -- float32 mode --------------------------------------------------------------

def test_float32_error_is_bounded(small_world):
    database, matrix = small_world
    batch = _mixed_batch()
    exact = VEC.database_matches(batch, database, matrix)
    for mode in ("numpy", "pure"):
        evaluator = ResidentSampleEvaluator(
            chunk_rows=3, kernels=mode, score_dtype="float32"
        )
        got = evaluator.database_matches(batch, database, matrix)
        for pattern in batch:
            assert got[pattern] == pytest.approx(
                exact[pattern], abs=FLOAT32_ATOL
            )


def test_float32_planes_halve_store_charges(small_world):
    database, matrix = small_world
    batch = _mixed_batch()
    by_dtype = {}
    for dtype in ("float64", "float32"):
        evaluator = ResidentSampleEvaluator(
            chunk_rows=3, kernels="pure", score_dtype=dtype
        )
        evaluator.database_matches(batch, database, matrix)
        by_dtype[dtype] = evaluator.planes.nbytes
    assert by_dtype["float32"] * 2 == by_dtype["float64"]


def test_set_score_dtype_repins_lazily(small_world):
    database, matrix = small_world
    batch = _mixed_batch()
    evaluator = ResidentSampleEvaluator(chunk_rows=3, kernels="numpy")
    f64 = evaluator.database_matches(batch, database, matrix)
    assert evaluator.repins == 1
    evaluator.set_score_dtype("float32")
    f32 = evaluator.database_matches(batch, database, matrix)
    assert evaluator.repins == 2  # dtype is part of the pin key
    for pattern in batch:
        assert f32[pattern] == pytest.approx(f64[pattern], abs=FLOAT32_ATOL)
    # Switching back re-pins again and restores exact values.
    evaluator.set_score_dtype("float64")
    assert evaluator.database_matches(batch, database, matrix) == f64


def test_plane_store_charges_actual_stored_bytes():
    store = PlaneStore(max_bytes=10_000)
    planes64 = [np.ones((4, 3), dtype=np.float64)]
    planes32 = [np.ones((4, 3), dtype=np.float32)]
    store.put((1,), planes64)
    assert store.nbytes == planes64[0].nbytes
    store.put((2,), planes32)
    assert store.nbytes == planes64[0].nbytes + planes32[0].nbytes
    # Replacement refunds the old entry's actual charge.
    store.put((1,), planes32)
    assert store.nbytes == 2 * planes32[0].nbytes


# -- sibling ordering ----------------------------------------------------------

@given(pattern_batches())
@settings(max_examples=60, deadline=None)
def test_sibling_order_is_a_permutation_with_contiguous_groups(batch):
    batch = list(dict.fromkeys(batch))
    ordered = sibling_order(batch)
    assert sorted(ordered) == sorted(batch)
    seen = []
    for pattern in ordered:
        parent, offset, _symbol = _strip_last(pattern.elements)
        group = (parent, offset)
        if group in seen:
            assert seen[-1] == group, "sibling group split apart"
        else:
            seen.append(group)


def test_kernel_mode_validation():
    with pytest.raises(MiningError, match="kernels"):
        ResidentSampleEvaluator(kernels="fortran")


# -- config / CLI / env plumbing -----------------------------------------------

class TestPlumbing:
    def test_float32_allowed_with_resident_sample(self):
        config = MiningConfig(
            min_match=0.5, alphabet=M, score_dtype="float32", seed=1,
        )
        miner = config.build_miner(n_sequences=8)
        evaluator = miner.sample_engine
        assert isinstance(evaluator, ResidentSampleEvaluator)
        assert evaluator.score_dtype == "float32"

    def test_float32_still_rejected_without_a_capable_backend(self):
        if native_available:
            pytest.skip("compiled kernels score every miner in float32")
        with pytest.raises(MiningError, match="float32"):
            MiningConfig(min_match=0.5, algorithm="levelwise",
                         score_dtype="float32")

    def test_build_miner_reconfigures_warm_evaluator(self):
        warm = ResidentSampleEvaluator(kernels="numpy")
        config = MiningConfig(
            min_match=0.5, alphabet=M, score_dtype="float32", seed=1,
        )
        miner = config.build_miner(n_sequences=8, sample_engine=warm)
        assert miner.sample_engine is warm
        assert warm.kernel_mode == "numpy"
        assert warm.score_dtype == "float32"


def test_mining_end_to_end_matches_across_dispatches(small_world):
    """Whole-miner differential: the three-phase run produces identical
    results whichever kernels the resident evaluator runs."""
    database, matrix = small_world
    results = {}
    for mode in ("numpy", "pure"):
        miner = BorderCollapsingMiner(
            matrix, 0.35, sample_size=7,
            constraints=PatternConstraints(max_weight=4, max_span=6,
                                           max_gap=1),
            rng=np.random.default_rng(5),
            sample_engine=ResidentSampleEvaluator(kernels=mode),
        )
        results[mode] = miner.mine(database)
    assert results["numpy"].frequent == results["pure"].frequent
    assert results["numpy"].border == results["pure"].border
    assert results["numpy"].scans == results["pure"].scans
