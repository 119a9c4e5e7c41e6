"""The prefix-trie walk against the batched prefix-plan kernel.

Every batch the counting engine and the resident evaluator count goes
through :func:`repro.engine.kernels.walk_totals`.  Its baseline is the
batched kernel of :class:`tests.oracles.PrefixPlanEngine`, which
evaluates each span group flat in a ``(B, W, N)`` score buffer: both
multiply every window product in the same offset order and add the
chunks in scan order, so in float64 they must agree bit for bit, at any
worker count, batch order or chunk shape.  The walk's working set is a
few ``(L, N)`` planes, so its peak memory stays a small multiple of the
chunk's factor array, whatever the batch size.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CompatibilityMatrix, Pattern, SequenceDatabase, WILDCARD
from repro.engine import ResidentSampleEvaluator, VectorizedBatchEngine

from .oracles import PrefixPlanEngine
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
