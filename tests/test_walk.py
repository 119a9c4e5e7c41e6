"""The prefix-trie walk against the batched prefix-plan kernel.

Every batch the counting engine and the resident evaluator count goes
through :func:`repro.engine.kernels.walk_totals`.  Its baseline is the
batched kernel of :class:`tests.oracles.PrefixPlanEngine`, which
evaluates each span group flat in a ``(B, W, N)`` score buffer: both
multiply every window product in the same offset order and add the
chunks in scan order, so in float64 they must agree bit for bit, at any
worker count, batch order or chunk shape.  That holds for both ways the
walk counts a sibling group — one multiply and max-reduce per sibling,
or one scatter-max of the parent plane into symbol bins — because a
rounded product with a factor ``>= 0`` is monotone in the other.  The
walk's working set is a few ``(L, N)`` planes, so its peak memory stays
a small multiple of the chunk's factor array, whatever the batch size.
Phase 1's distinct-symbol pass is checked the same way, against the
per-position maxima of :func:`tests.oracles.gathered_symbol_matches`.
"""

from __future__ import annotations

import sys
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CompatibilityMatrix, Pattern, SequenceDatabase, WILDCARD
from repro.engine import ResidentSampleEvaluator, VectorizedBatchEngine
from repro.engine import kernels
from repro.obs import FACTOR_CACHE_MISSES, FACTOR_ROWS_GATHERED, Tracer

from .oracles import (
    PrefixPlanEngine,
    chunk_symbol_maxima,
    gather_chunk,
    gathered_symbol_matches,
)
from .strategies import matrices, patterns, sequences

#: Longer than every row ``sequences()`` draws (at most 12 symbols).
LONG = Pattern([0] + [WILDCARD] * 12 + [1])


@st.composite
def walk_inputs(draw):
    """A batch, a database and a chunk size that does not divide it.

    The batch holds gapped patterns in shuffled order, duplicates of
    some of them and one pattern longer than every row.  Sorting the
    rows by length makes every later chunk at least as long as the one
    before, so the walk's buffers must grow between chunks.
    """
    batch = draw(st.lists(patterns(), min_size=1, max_size=12))
    batch += draw(st.lists(st.sampled_from(batch), max_size=4))
    batch.append(LONG)
    batch = draw(st.permutations(batch))
    chunk_rows = draw(st.integers(2, 4))
    full = draw(st.integers(0, 3))
    rest = draw(st.integers(1, chunk_rows - 1))
    rows = draw(st.lists(
        sequences(), min_size=full * chunk_rows + rest,
        max_size=full * chunk_rows + rest,
    ))
    if draw(st.booleans()):
        rows.sort(key=len)
    return batch, SequenceDatabase(rows), chunk_rows


@given(walk_inputs(), matrices())
@settings(max_examples=60, deadline=None)
def test_walk_is_bit_identical_to_the_batched_kernel(inputs, matrix):
    batch, database, chunk_rows = inputs
    expected = PrefixPlanEngine(chunk_rows).database_matches(
        batch, database, matrix
    )
    assert expected[LONG] == 0.0
    for workers in (1, 2, 8):
        with VectorizedBatchEngine(chunk_rows, workers=workers) as engine:
            assert engine.database_matches(batch, database, matrix) \
                == expected  # dict == is bit-identity
    resident = ResidentSampleEvaluator(chunk_rows)
    assert resident.database_matches(batch, database, matrix) == expected
    # A warm pin walks again into the grown buffers, to the same bits.
    assert resident.database_matches(batch, database, matrix) == expected


#: The matrix classes of :func:`structured_matrices`.
MATRIX_KINDS = (
    "random", "uniform_noise", "identity", "pure_noise", "random_sparse",
    "floor_ties",
)


@st.composite
def structured_matrices(draw, m: int):
    """An *m*-symbol matrix of one class the symbol-space product splits
    differently into floor, diagonal and residual.

    ``random`` entries include zeros (floor mostly ``0``, a dense
    residual); ``uniform_noise`` has no residual, and with ``alpha >=
    (m - 1) / m`` its off-diagonal entry is not below the diagonal;
    ``identity`` has floor ``0`` and no residual; ``pure_noise`` has its
    diagonal at the floor; ``random_sparse`` has floor ``0`` and a few
    residual columns per row; ``floor_ties`` is dense with several
    entries of each row tied at its floor.  No normalisation: the
    kernels need only entries ``>= 0``.
    """
    kind = draw(st.sampled_from(MATRIX_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform_noise":
        alpha = draw(st.one_of(
            st.floats(0.0, 1.0, exclude_min=True),
            st.floats((m - 1) / m, 1.0),
        ))
        return CompatibilityMatrix.uniform_noise(m, alpha)
    if kind == "identity":
        return CompatibilityMatrix.identity(m)
    if kind == "pure_noise":
        return CompatibilityMatrix.pure_noise(m)
    if kind == "random_sparse":
        return CompatibilityMatrix.random_sparse(
            m, draw(st.floats(0.0, 1.0)), rng=rng
        )
    if kind == "floor_ties":
        array = 0.2 + 0.8 * rng.random((m, m))
        floor = array.min(axis=1, keepdims=True)
        array = np.where(rng.random((m, m)) < 0.5, floor, array)
        return CompatibilityMatrix(array, validate=False)
    # Entries drawn from a pool holding 0.0, so whole bins of a chunk
    # can score zero.
    entry = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    array = np.asarray(
        draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                      min_size=m, max_size=m)),
        dtype=np.float64,
    )
    return CompatibilityMatrix(array, validate=False)


@st.composite
def symbol_space_inputs(draw):
    """A batch of sibling groups over a 2-16 symbol alphabet, a matrix
    of every class of :func:`structured_matrices`, a database and a
    chunk size.

    Rows of at most 12 symbols against up to 17 bins put alphabets
    larger than the window count in reach; lone siblings (k = 1),
    wildcard gaps and a pattern longer than every row are drawn too.
    """
    m = draw(st.integers(2, 16))
    symbol = st.integers(0, m - 1)
    matrix = draw(structured_matrices(m))
    batch = []
    for _ in range(draw(st.integers(1, 5))):
        parent = [draw(symbol)]
        for _ in range(draw(st.integers(0, 2))):
            parent += [WILDCARD] * draw(st.integers(0, 2)) + [draw(symbol)]
        gap = [WILDCARD] * draw(st.integers(0, 2))
        siblings = draw(st.lists(symbol, min_size=1, max_size=m,
                                 unique=True))
        batch += [Pattern(parent + gap + [d]) for d in siblings]
    batch.append(LONG)
    batch = list(dict.fromkeys(batch))
    chunk_rows = draw(st.integers(1, 4))
    rows = draw(st.lists(
        st.lists(symbol, min_size=1, max_size=12), min_size=1, max_size=9,
    ))
    return batch, matrix, SequenceDatabase(rows), chunk_rows


def _forced(grouped: bool):
    """Patch the walk's cost rule to always (or never) count a sibling
    group in symbol space; the mock records the groups it decided."""
    return mock.patch.object(
        kernels, "grouped_pays", mock.Mock(return_value=grouped)
    )


@given(symbol_space_inputs())
@settings(max_examples=80, deadline=None)
def test_symbol_space_groups_are_bit_identical_to_the_loop(inputs):
    batch, matrix, database, chunk_rows = inputs
    expected = PrefixPlanEngine(chunk_rows).database_matches(
        batch, database, matrix
    )
    narrow = {}
    for grouped in (True, False):
        with _forced(grouped) as rule:
            for workers in (1, 2):
                with VectorizedBatchEngine(
                    chunk_rows, workers=workers
                ) as engine:
                    assert engine.database_matches(
                        batch, database, matrix
                    ) == expected  # float64 bit-identity
            # float32 planes round differently from float64, but the
            # same way in either branch.
            narrow[grouped] = ResidentSampleEvaluator(
                chunk_rows, score_dtype="float32"
            ).database_matches(batch, database, matrix)
        # Every group with a parent that fits a chunk asks the rule.
        longest = max(len(row) for _sid, row in database.scan())
        fits = any(p.weight > 1 and p.span <= longest for p in batch)
        assert rule.called == fits
    assert narrow[True] == narrow[False]


def test_symbol_space_threads_keep_their_own_bins():
    """More counting threads than cores, switching every microsecond,
    each counting 256-row chunks in symbol space: a bin or product
    buffer shared between threads would mix two chunks' maxima."""
    m = 12
    rng = np.random.default_rng(11)
    database = SequenceDatabase([
        rng.integers(0, m, size=int(rng.integers(8, 40)))
        for _ in range(256 * 6 + 17)
    ])
    matrix = CompatibilityMatrix.uniform_noise(m, 0.3)
    batch = [Pattern([a, WILDCARD, b, d]) for a, b in ((0, 1), (2, 3))
             for d in range(m)] + [Pattern([4, d]) for d in range(m)]
    with _forced(True):
        expected = VectorizedBatchEngine().database_matches(
            batch, database, matrix
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with VectorizedBatchEngine(workers=4) as engine:
                for _ in range(3):
                    assert engine.database_matches(
                        batch, database, matrix
                    ) == expected
        finally:
            sys.setswitchinterval(interval)
    assert expected == PrefixPlanEngine().database_matches(
        batch, database, matrix
    )


def test_cost_rule_groups_wide_fan_out_and_loops_lone_siblings():
    # Product rows per sibling are |U| + 2: 2 under uniform noise (no
    # residual), m + 2 for a dense matrix.
    uniform, dense20, dense60 = 2, 22, 62
    # A 20-symbol alphabet over ~100 windows: Phase 2's alphabet-wide
    # groups and Phase 3's groups of 8-12 probes count in symbol space,
    # a lone sibling is looped, whatever the matrix.
    for rows in (uniform, dense20):
        assert kernels.grouped_pays(19, 100, rows)
        assert kernels.grouped_pays(8, 110, rows)
        assert not kernels.grouped_pays(1, 100, rows)
    # Few windows: a dense group's residual product costs more than
    # the loop; without a residual the group still pays.
    assert not kernels.grouped_pays(20, 19, dense20)
    assert not kernels.grouped_pays(60, 20, dense60)
    assert kernels.grouped_pays(60, 20, uniform)


def test_walk_prices_a_group_by_its_residual_columns():
    """The walk asks the cost rule with 2 product rows, then with
    ``|U| + 2``: 2 under uniform noise, ``m + 2`` when the siblings'
    rows rise above their floors at every column.  A group the rule
    loops at 2 rows is never split."""
    m = 6
    database = SequenceDatabase([[0, 1, 2, 3, 4, 5, 0, 1]] * 3)
    batch = [Pattern([0, d]) for d in range(m)]
    # Row d rises from its floor at column d + 1 (mod m).
    dense = 1.0 + (np.arange(m) - np.arange(m)[:, None] - 1) % m
    for matrix, rows in (
        (CompatibilityMatrix.uniform_noise(m, 0.2), 2),
        (CompatibilityMatrix(dense, validate=False), m + 2),
    ):
        with _forced(True) as rule:
            VectorizedBatchEngine().database_matches(batch, database, matrix)
        assert rule.call_args_list == [
            mock.call(m, 7, 2), mock.call(m, 7, rows),
        ]
        with _forced(False) as rule, mock.patch.object(
            kernels, "symbol_terms", wraps=kernels.symbol_terms
        ) as split:
            VectorizedBatchEngine().database_matches(batch, database, matrix)
        assert rule.call_args_list == [mock.call(m, 7, 2)]
        # database_matches runs no Phase 1: a split would be the group's.
        assert not split.called


def test_peak_memory_stays_near_the_factor_array():
    """512 same-span patterns on one 256-row chunk of length-100 rows:
    a flat ``(B, W, N)`` float64 score buffer would take ~100 MB, the
    walk a few ``(L, N)`` planes next to the ~4 MB factor array."""
    m, rows, length = 20, 256, 100
    rng = np.random.default_rng(5)
    database = SequenceDatabase([
        rng.integers(0, m, size=length) for _ in range(rows)
    ])
    matrix = CompatibilityMatrix.uniform_noise(m, 0.2)
    batch = list(dict.fromkeys(
        Pattern([int(a), int(b), WILDCARD, int(c)])
        for a, b, c in rng.integers(0, m, size=(600, 3))
    ))[:512]
    assert len(batch) == 512
    factor_bytes = (m + 1) * length * rows * 8
    engine = VectorizedBatchEngine()
    tracemalloc.start()
    try:
        engine.database_matches(batch, database, matrix)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * factor_bytes, (peak, factor_bytes)


@st.composite
def phase1_inputs(draw):
    """A 2-16 symbol matrix of every class of
    :func:`structured_matrices`, rows of 1-12 symbols (most shorter
    than their chunk's longest) and a chunk size."""
    m = draw(st.integers(2, 16))
    rows = draw(st.lists(
        st.lists(st.integers(0, m - 1), min_size=1, max_size=12),
        min_size=1, max_size=9,
    ))
    return (
        draw(structured_matrices(m)), SequenceDatabase(rows),
        draw(st.integers(1, 4)),
    )


@given(phase1_inputs(), st.sampled_from(["float64", "float32"]))
@settings(max_examples=80, deadline=None)
def test_phase1_presence_equals_the_position_maxima(inputs, score_dtype):
    """Phase 1 over each sequence's distinct symbols gives the maxima
    over its positions bit for bit, and gathers no factor row."""
    matrix, database, chunk_rows = inputs
    expected = gathered_symbol_matches(
        database, matrix, chunk_rows, score_dtype
    )
    for workers in (1, 2):
        tracer = Tracer()
        with VectorizedBatchEngine(
            chunk_rows, workers=workers, score_dtype=score_dtype
        ) as engine:
            got = engine.symbol_matches(database, matrix, tracer)
        assert np.array_equal(got, expected)  # float ==, not closeness
        assert tracer.total(FACTOR_ROWS_GATHERED) == 0
        assert tracer.total(FACTOR_CACHE_MISSES) > 0


@st.composite
def wide_alphabet_inputs(draw):
    """A 20-80 symbol matrix of every class of
    :func:`structured_matrices` over chunks of rows of 1-6 symbols:
    every chunk is shorter than the alphabet is wide."""
    m = draw(st.integers(20, 80))
    rows = draw(st.lists(
        st.lists(st.integers(0, m - 1), min_size=1, max_size=6),
        min_size=1, max_size=9,
    ))
    return (
        draw(structured_matrices(m)), SequenceDatabase(rows),
        draw(st.integers(1, 4)),
    )


@given(wide_alphabet_inputs(), st.sampled_from(["float64", "float32"]))
@settings(max_examples=60, deadline=None)
def test_phase1_products_never_outgrow_the_factor_array(inputs, score_dtype):
    """An alphabet wider than the chunk is long: Phase 1's product
    buffer stays within the chunk's whole factor array, and its sums
    still equal the per-position maxima bit for bit."""
    matrix, database, chunk_rows = inputs
    m = matrix.size
    c_ext = kernels.extended_matrix(matrix.array).astype(score_dtype)
    for chunk in database.scan_chunks(chunk_rows):
        padded = kernels.pad_chunk(chunk.rows, m)
        gathered = gather_chunk(c_ext, padded)
        assert padded.shape[1] < m
        buffers = kernels.WalkBuffers()
        got = np.zeros(m, dtype=np.float64)
        kernels.symbol_totals(
            kernels.chunk_keys(padded),
            kernels.symbol_terms(c_ext, np.arange(m)), got, buffers,
        )
        assert buffers.products.nbytes <= gathered.nbytes
        want = np.zeros(m, dtype=np.float64)
        want += chunk_symbol_maxima(gathered).sum(axis=1)
        assert np.array_equal(got, want)  # float ==, not closeness
    with VectorizedBatchEngine(chunk_rows, score_dtype=score_dtype) as engine:
        got = engine.symbol_matches(database, matrix)
    assert np.array_equal(
        got, gathered_symbol_matches(database, matrix, chunk_rows, score_dtype)
    )
