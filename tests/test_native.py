"""The native engine: kernels, no-fallback policy, warm-up, float32, config.

Four surfaces, each differential-tested against the numpy tiers:

* the kernel bodies themselves (``py_`` twins vs the vectorized
  chunk kernels — bit-identical in float64, integer-exact otherwise);
* the no-fallback policy (engine selection never picks the native
  engine without numba, and constructing it directly fails loudly);
* warm-up accounting (``warm_kernels`` idempotent, JIT seconds charged
  at most once per process — pool initializers included);
* the float32 scoring mode and its ``score_dtype`` plumbing through
  :class:`MiningConfig` and the CLI.

Everything here runs on numba-free legs via the interpreted kernel
twins; the compiled specialisations are exercised where numba imports.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    MiningError,
    Pattern,
    SequenceDatabase,
    WILDCARD,
)
from repro.config import MiningConfig
from repro.core import _nativekernels as nk
from repro.core.latticekernels import (
    block_signatures,
    block_weights,
    pack_by_span,
)
from repro.engine import (
    NativeEngine,
    VectorizedBatchEngine,
    native_available,
    select_engine,
)
from repro.engine import shards
from repro.engine.kernels import (
    chunk_group_maxima,
    chunk_symbol_maxima,
    extended_matrix,
    gather_chunk,
    group_patterns_by_span,
    pad_chunk,
)
from repro.engine.native import (
    DEFAULT_SCORE_DTYPE,
    SCORE_DTYPE_ENV_VAR,
    SCORE_DTYPES,
    resolve_score_dtype,
)
from repro.obs import NATIVE_KERNEL_CALLS, Tracer

from .strategies import (
    M,
    databases,
    kernel_variants,
    matrices,
    pattern_batches,
    patterns,
)


VEC = VectorizedBatchEngine(chunk_rows=3, cache_bytes=0)

#: The float32 scoring bound documented in docs/ALGORITHMS.md: window
#: products round once per factor, so the match-value deviation stays
#: orders of magnitude below the 1e-3..1e-1 classification tolerances.
FLOAT32_ATOL = 1e-5


# -- kernel differential tests -------------------------------------------------

@given(pattern_batches(), databases(), matrices())
@settings(max_examples=60, deadline=None)
def test_window_kernel_matches_chunk_group_maxima(batch, database, matrix):
    batch = list(dict.fromkeys(batch))
    groups, elements_by_span = group_patterns_by_span(batch, M)
    c_ext = extended_matrix(matrix.array)
    rows = [np.asarray(seq) for _sid, seq in database.scan()]
    padded = pad_chunk(rows, M)
    gathered = gather_chunk(c_ext, padded)
    for span in groups:
        if padded.shape[1] < span:
            continue
        elements = elements_by_span[span]
        expected = chunk_group_maxima(gathered, elements)
        for kernel in kernel_variants(
            nk.py_window_group_maxima, nk.window_group_maxima
        ):
            out = np.empty((elements.shape[0], padded.shape[0]),
                           dtype=np.float64)
            kernel(padded, c_ext, elements, out)
            np.testing.assert_array_equal(out, expected)  # bit-identical


@given(databases(), matrices())
@settings(max_examples=60, deadline=None)
def test_symbol_kernel_matches_chunk_symbol_maxima(database, matrix):
    c_ext = extended_matrix(matrix.array)
    rows = [np.asarray(seq) for _sid, seq in database.scan()]
    padded = pad_chunk(rows, M)
    expected = chunk_symbol_maxima(gather_chunk(c_ext, padded))
    for kernel in kernel_variants(
        nk.py_symbol_window_maxima, nk.symbol_window_maxima
    ):
        out = np.empty((M, padded.shape[0]), dtype=np.float64)
        kernel(padded, c_ext, out)
        np.testing.assert_array_equal(out, expected)


@given(st.sets(patterns(), max_size=10), st.sets(patterns(), max_size=10))
@settings(max_examples=80, deadline=None)
def test_containment_kernel_matches_pairwise_truth(inner_set, outer_set):
    inner_groups = pack_by_span(sorted(inner_set))
    outer_groups = pack_by_span(sorted(outer_set))
    for si, (in_block, in_idx) in inner_groups.items():
        in_sig = block_signatures(in_block)
        in_weight = block_weights(in_block)
        inner_pats = [sorted(inner_set)[i] for i in in_idx]
        for so, (out_block, out_idx) in outer_groups.items():
            if so < si:
                continue
            out_sig = block_signatures(out_block)
            out_weight = block_weights(out_block)
            outer_pats = [sorted(outer_set)[j] for j in out_idx]
            # Ground truth: the reference pairwise sweep, and the exact
            # number of pairs the signature/weight prefilter lets through.
            true_inner = np.array(
                [any(p.is_subpattern_of(q) for q in outer_pats)
                 for p in inner_pats], dtype=bool,
            )
            true_outer = np.array(
                [any(p.is_subpattern_of(q) for p in inner_pats)
                 for q in outer_pats], dtype=bool,
            )
            true_checks = sum(
                1
                for a in range(len(inner_pats))
                for b in range(len(outer_pats))
                if (int(in_sig[a]) & ~int(out_sig[b])
                    & 0xFFFFFFFFFFFFFFFF) == 0
                and int(in_weight[a]) <= int(out_weight[b])
            )
            for kernel in kernel_variants(
                nk.py_containment_sweep, nk.containment_sweep
            ):
                inner_any = np.zeros(len(inner_pats), dtype=np.bool_)
                outer_any = np.zeros(len(outer_pats), dtype=np.bool_)
                checks = int(kernel(
                    in_block, in_sig, in_weight,
                    out_block, out_sig, out_weight,
                    inner_any, outer_any,
                ))
                assert checks == true_checks
                np.testing.assert_array_equal(inner_any, true_inner)
                np.testing.assert_array_equal(outer_any, true_outer)


@given(
    st.integers(1, 4),
    st.lists(st.lists(st.integers(-1, 3), min_size=4, max_size=4),
             max_size=12),
    st.lists(st.lists(st.integers(-1, 3), min_size=4, max_size=4),
             min_size=1, max_size=12),
)
@settings(max_examples=100, deadline=None)
def test_membership_kernel_matches_byte_sets(span, table_rows, query_rows):
    table = np.unique(
        np.asarray(
            [row[:span] for row in table_rows], dtype=np.int32
        ).reshape(-1, span),
        axis=0,
    )
    # np.unique sorts rows lexicographically — the order the kernel's
    # binary search expects (same as np.lexsort over the columns).
    queries = np.asarray(
        [row[:span] for row in query_rows], dtype=np.int32
    ).reshape(-1, span)
    truth = {tuple(row) for row in table}
    expected = np.array(
        [tuple(row) in truth for row in queries], dtype=bool
    )
    for kernel in kernel_variants(nk.py_rows_in_sorted, nk.rows_in_sorted):
        out = np.zeros(len(queries), dtype=np.bool_)
        kernel(queries, np.ascontiguousarray(table), out)
        np.testing.assert_array_equal(out, expected)


# -- engine-level equivalence and counters ------------------------------------

def test_kernel_calls_reach_engine_and_tracer(fig2_matrix):
    engine = NativeEngine(chunk_rows=2, kernels="pure")
    database = SequenceDatabase([[0, 1, 2, 3], [1, 2], [3, 0, 1]])
    tracer = Tracer()
    engine.database_matches(
        [Pattern([0, 1]), Pattern([2])], database, fig2_matrix,
        tracer=tracer,
    )
    assert engine.kernel_calls > 0
    assert tracer.total(NATIVE_KERNEL_CALLS) == engine.kernel_calls
    engine.symbol_matches(database, fig2_matrix, tracer=tracer)
    assert tracer.total(NATIVE_KERNEL_CALLS) == engine.kernel_calls


def test_shard_native_path_is_bit_identical(fig2_matrix, monkeypatch):
    """The worker-side native branch (the one fork-started pool workers
    take) produces per-block totals bit-identical to the numpy branch.
    Forcing ``native_available`` True runs the interpreted twins on
    numba-free legs — the same code numba compiles."""
    rng = np.random.default_rng(3)
    rows = [rng.integers(0, M, size=7) for _ in range(9)]
    batch = [Pattern([0, 1]), Pattern([1, WILDCARD, 2]), Pattern([4])]
    groups, elements_by_span = group_patterns_by_span(batch, M)
    c_ext = extended_matrix(fig2_matrix.array)
    spec = shards.ShardSpec(
        index=0, path=None, digest=None, row_start=0, row_stop=len(rows),
        symbol_count=sum(len(r) for r in rows),
    )

    def run(kind):
        task = shards.ShardTask(
            spec=spec, kind=kind, chunk_rows=4,
            groups=groups, elements_by_span=elements_by_span,
            n_patterns=len(batch), rows=list(rows),
        )
        return shards.execute_shard_task(task, c_ext).block_totals

    results = {}
    for forced in (False, True):
        monkeypatch.setattr(nk, "native_available", forced)
        results[forced] = (
            run(shards.TASK_DATABASE_TOTALS),
            run(shards.TASK_SYMBOL_TOTALS),
        )
    np.testing.assert_array_equal(results[False][0], results[True][0])
    np.testing.assert_array_equal(results[False][1], results[True][1])


# -- no-fallback policy --------------------------------------------------------

class TestFallbackPolicy:
    @pytest.fixture(autouse=True)
    def _no_numba(self, monkeypatch):
        """Force the numba-absent world regardless of the CI leg."""
        monkeypatch.setattr(nk, "native_available", False)
        monkeypatch.setattr("repro.engine.native_available", False)

    def test_loud_failure_is_actionable(self):
        with pytest.raises(MiningError) as excinfo:
            NativeEngine()
        message = str(excinfo.value)
        assert "noisymine[native]" in message
        assert "vectorized engine" in message

    def test_selection_never_picks_native_without_numba(self, monkeypatch):
        monkeypatch.delenv("NOISYMINE_WORKERS", raising=False)
        assert type(select_engine()) is VectorizedBatchEngine

    def test_pure_mode_needs_no_opt_in(self, fig2_matrix):
        # kernels="pure" is a testing mode: it must construct without
        # numba.
        engine = NativeEngine(chunk_rows=3, kernels="pure")
        assert not engine.compiled


# -- warm-up accounting --------------------------------------------------------

class TestWarmup:
    @pytest.fixture(autouse=True)
    def _isolated_warm_state(self):
        saved = (nk._warmed, nk._jit_seconds)
        nk._reset_warmup_for_testing()
        yield
        nk._warmed, nk._jit_seconds = saved

    def test_warm_kernels_charges_at_most_once_per_process(self):
        assert not nk.kernels_warmed()
        first = nk.warm_kernels()
        assert nk.kernels_warmed()
        assert nk.jit_compile_seconds() == first
        # The satellite guarantee: a second warm-up — another engine,
        # another task on the same pool worker — charges nothing.
        assert nk.warm_kernels() == 0.0
        assert nk.warm_kernels() == 0.0
        assert nk.jit_compile_seconds() == first
        if native_available:
            assert first > 0.0
        else:
            assert first == 0.0

    def test_pool_initializer_warms_exactly_once(self):
        c_ext = extended_matrix(np.eye(M))
        shards.init_worker(c_ext)
        charged = nk.jit_compile_seconds()
        if native_available:
            assert nk.kernels_warmed()
        # Re-initialisation (a worker recycled into a new pool) must
        # not re-charge the counter.
        shards.init_worker(c_ext)
        assert nk.jit_compile_seconds() == charged

    def test_unavailable_reason_is_recorded(self):
        if native_available:
            assert nk.native_unavailable_reason() == ""
        else:
            assert "numba" in nk.native_unavailable_reason()


# -- float32 scoring -----------------------------------------------------------

class TestScoreDtype:
    def test_resolution_precedence(self, monkeypatch):
        monkeypatch.delenv(SCORE_DTYPE_ENV_VAR, raising=False)
        assert resolve_score_dtype(None) == DEFAULT_SCORE_DTYPE == "float64"
        monkeypatch.setenv(SCORE_DTYPE_ENV_VAR, "float32")
        assert resolve_score_dtype(None) == "float32"
        assert resolve_score_dtype("float64") == "float64"  # flag wins

    @pytest.mark.parametrize("bad", ["float16", "double", "32"])
    def test_bad_values_fail_loudly(self, monkeypatch, bad):
        with pytest.raises(MiningError, match="score dtype"):
            resolve_score_dtype(bad)
        monkeypatch.setenv(SCORE_DTYPE_ENV_VAR, bad)
        with pytest.raises(MiningError, match="score dtype"):
            resolve_score_dtype(None)

    @given(pattern_batches(), databases(), matrices())
    @settings(max_examples=40, deadline=None)
    def test_float32_error_is_bounded(self, batch, database, matrix):
        batch = list(dict.fromkeys(batch))
        f64 = NativeEngine(chunk_rows=3, kernels="pure")
        f32 = NativeEngine(
            chunk_rows=3, kernels="pure", score_dtype="float32"
        )
        exact = f64.database_matches(batch, database, matrix)
        approx = f32.database_matches(batch, database, matrix)
        for pattern in batch:
            assert approx[pattern] == pytest.approx(
                exact[pattern], abs=FLOAT32_ATOL
            )

    def test_set_score_dtype_switches_and_clears_cache(self, fig2_matrix):
        engine = NativeEngine(chunk_rows=3, kernels="pure")
        database = SequenceDatabase([[0, 1, 2, 3], [3, 2, 1]])
        batch = [Pattern([0, WILDCARD, 2])]
        exact = engine.database_matches(batch, database, fig2_matrix)
        engine.set_score_dtype("float32")
        assert engine.score_dtype == "float32"
        assert engine._matrix(fig2_matrix).dtype == np.float32
        rough = engine.database_matches(batch, database, fig2_matrix)
        assert rough[batch[0]] == pytest.approx(
            exact[batch[0]], abs=FLOAT32_ATOL
        )
        engine.set_score_dtype("float64")
        assert engine.database_matches(batch, database, fig2_matrix) \
            == exact  # back to the bit-identical path


# -- MiningConfig plumbing -----------------------------------------------------

class TestConfigPlumbing:
    def test_default_is_float64_everywhere(self):
        config = MiningConfig(min_match=0.5, alphabet=M)
        assert config.score_dtype == "float64"
        assert SCORE_DTYPES == ("float64", "float32")

    def test_float32_requires_the_native_engine(self, monkeypatch):
        # Sampling miners score Phase 2 in float32 on every platform;
        # the others need the compiled kernels.
        sampling = MiningConfig(
            min_match=0.5, alphabet=M, score_dtype="float32",
        )
        assert sampling.score_dtype == "float32"
        monkeypatch.setattr("repro.config.native_available", True)
        MiningConfig(min_match=0.5, alphabet=M, algorithm="levelwise",
                     score_dtype="float32")
        monkeypatch.setattr("repro.config.native_available", False)
        with pytest.raises(MiningError, match="float32"):
            MiningConfig(min_match=0.5, alphabet=M, algorithm="levelwise",
                         score_dtype="float32")

    def test_unknown_dtype_rejected(self):
        with pytest.raises(MiningError, match="score dtype"):
            MiningConfig(min_match=0.5, alphabet=M, score_dtype="half")

    def test_resolve_reads_the_environment(self, monkeypatch):
        monkeypatch.setenv(SCORE_DTYPE_ENV_VAR, "float32")
        config = MiningConfig.resolve(min_match=0.5, alphabet=M)
        assert config.score_dtype == "float32"
        explicit = MiningConfig.resolve(
            min_match=0.5, alphabet=M, score_dtype="float64",
        )
        assert explicit.score_dtype == "float64"

    def test_score_dtype_is_part_of_the_result_identity(self):
        base = dict(min_match=0.5, alphabet=M)
        f64 = MiningConfig(**base)
        f32 = MiningConfig(score_dtype="float32", **base)
        assert f64.to_key() != f32.to_key()  # float32 changes results
        assert f32.to_dict()["score_dtype"] == "float32"

    def test_build_miner_applies_the_dtype_to_the_engine(self, monkeypatch):
        config = MiningConfig(
            min_match=0.5, alphabet=M, score_dtype="float32",
        )
        engine = NativeEngine(chunk_rows=3, kernels="pure")
        miner = config.build_miner(n_sequences=10, engine=engine)
        assert engine.score_dtype == "float32"
        assert miner is not None

    def test_build_miner_rejects_float32_on_other_engines(
        self, monkeypatch
    ):
        monkeypatch.setattr("repro.config.native_available", True)
        config = MiningConfig(
            min_match=0.5, alphabet=M, algorithm="levelwise",
            score_dtype="float32",
        )
        with pytest.raises(MiningError, match="float32"):
            config.build_miner(n_sequences=10,
                               engine=VectorizedBatchEngine())


# -- CLI surface ---------------------------------------------------------------

class TestCliSurface:
    def test_score_dtype_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "mine", "db.txt", "--min-match", "0.5",
            "--score-dtype", "float32",
        ])
        assert args.score_dtype == "float32"

    def test_bad_score_dtype_rejected_by_argparse(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args([
                "mine", "db.txt", "--min-match", "0.5",
                "--score-dtype", "float16",
            ])
