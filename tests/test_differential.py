"""The production execution path against the oracles, end to end.

Every miner runs one path per layer: the counting engine
(:class:`~repro.engine.VectorizedBatchEngine`, serial or over its
worker pool), the resident Phase-2 evaluator, and the packed lattice
kernels.  This module runs whole miners on that path and again on the
oracles of ``tests/oracles.py`` — per-sequence counting and the
pairwise lattice scans — and requires the same frequent patterns with
bit-identical match values and Phase-1 symbol matches, the same
border, the same scan count and the same Phase-3 probe rounds.

Hypothesis draws miner x store kind x worker count.  Sample sizes and
the confidence ``delta`` are drawn so the Chernoff band stays below
the threshold; one fixed case keeps the degenerate-band regime, where
the warning fires and nothing can be ruled out on the sample.  A float32 leg checks the two sampling miners
against the float64 oracle within the documented bound.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BorderCollapsingMiner,
    CompatibilityMatrix,
    DepthFirstMiner,
    FileSequenceDatabase,
    LevelwiseMiner,
    MaxMiner,
    PackedSequenceStore,
    PatternConstraints,
    PincerMiner,
    SequenceDatabase,
    ToivonenMiner,
)
from repro.config import ALGORITHMS, SAMPLING_ALGORITHMS
from repro.engine import ResidentSampleEvaluator, VectorizedBatchEngine
from repro.io import SegmentedSequenceStore

from .oracles import ReferenceEngine, reference_lattice

M = 5
MATRIX = CompatibilityMatrix.uniform_noise(M, 0.15)
CONSTRAINTS = PatternConstraints(max_weight=4, max_span=6, max_gap=1)

#: Rows per chunk on both sides: small, so every store spans several
#: chunks and two workers count several chunks at once.
CHUNK = 16

#: Rows of each float32 draw.
FLOAT32_ROWS = 32

#: The documented float32 bound on any match value (docs/ALGORITHMS.md).
FLOAT32_BOUND = 1e-5

STORE_KINDS = ("memory", "text", "packed", "segmented")

MINERS = {
    "border-collapsing": BorderCollapsingMiner,
    "levelwise": LevelwiseMiner,
    "maxminer": MaxMiner,
    "toivonen": ToivonenMiner,
    "pincer": PincerMiner,
    "depthfirst": DepthFirstMiner,
}


#: Planted in ~60% of the rows so the lattice has frequent patterns up
#: to weight 4 and a real ambiguous band for Phase 3 to probe.
MOTIF = [0, 1, 4, 3]


def random_rows(seed, n_rows):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_rows):
        row = rng.integers(0, M, size=rng.integers(6, 14))
        if rng.random() < 0.6:
            at = rng.integers(0, len(row) - len(MOTIF))
            row[at:at + len(MOTIF)] = MOTIF
        rows.append(row.tolist())
    return rows


def make_store(kind, rows, directory):
    database = SequenceDatabase(rows)
    if kind == "memory":
        return database
    if kind == "text":
        path = os.path.join(directory, "db.txt")
        database.save(path)
        return FileSequenceDatabase(path)
    if kind == "packed":
        return PackedSequenceStore.from_database(
            database, os.path.join(directory, "db.nmp")
        )
    # Two segments, the first not a multiple of CHUNK rows, so chunk
    # boundaries follow the segment layout.
    store = SegmentedSequenceStore.create(
        os.path.join(directory, "seg"), SequenceDatabase(rows[:13])
    )
    store.append(rows[13:])
    return store


def run_both(algorithm, kind, workers, rows, params,
             score_dtype="float64"):
    """Mine *rows* on the production path and on the oracles."""
    with tempfile.TemporaryDirectory() as directory:
        os.mkdir(os.path.join(directory, "prod"))
        os.mkdir(os.path.join(directory, "oracle"))
        store = make_store(kind, rows, os.path.join(directory, "prod"))
        engine = VectorizedBatchEngine(chunk_rows=CHUNK, workers=workers)
        with engine:
            got = mine(algorithm, store, engine,
                       ResidentSampleEvaluator(chunk_rows=CHUNK,
                                               score_dtype=score_dtype),
                       params)
        oracle_store = make_store(kind, rows,
                                  os.path.join(directory, "oracle"))
        with reference_lattice():
            want = mine(algorithm, oracle_store, ReferenceEngine(CHUNK),
                        ReferenceEngine(CHUNK), params)
        for database in (store, oracle_store):
            if hasattr(database, "close"):
                database.close()
    assert want.frequent  # the workload exercises real counting
    return got, want


def mine(algorithm, database, engine, sample_engine, params):
    kwargs = dict(constraints=params.get("constraints", CONSTRAINTS),
                  engine=engine)
    if algorithm in SAMPLING_ALGORITHMS:
        kwargs.update(
            sample_size=params["sample_size"], delta=params["delta"],
            rng=np.random.default_rng(params["seed"]),
            sample_engine=sample_engine,
        )
    if algorithm != "depthfirst":
        kwargs["memory_capacity"] = params["memory_capacity"]
    return MINERS[algorithm](MATRIX, params["min_match"], **kwargs).mine(
        database
    )


def assert_matches_oracle(algorithm, kind, workers, rows, params):
    got, want = run_both(algorithm, kind, workers, rows, params)
    assert got.frequent == want.frequent  # dict ==: bit-identical values
    # Every miner's Phase 1 (the sampling miners' sample scan included)
    # is the engine's scan, bit for bit the oracle's.
    np.testing.assert_array_equal(
        got.extras["symbol_match"], want.extras["symbol_match"]
    )
    assert got.border == want.border
    assert got.scans == want.scans
    assert got.extras.get("probe_rounds") == want.extras.get("probe_rounds")


@given(
    algorithm=st.sampled_from(ALGORITHMS),
    kind=st.sampled_from(STORE_KINDS),
    workers=st.sampled_from((1, 2)),
    data_seed=st.integers(0, 2**16),
    n_rows=st.integers(32, 48),
    min_match=st.sampled_from((0.3, 0.4)),
    sample_fraction=st.sampled_from((0.5, 1.0)),
    memory_capacity=st.sampled_from((None, 16)),
)
@settings(max_examples=60, deadline=None)
def test_production_path_matches_the_oracles(
    algorithm, kind, workers, data_seed, n_rows, min_match,
    sample_fraction, memory_capacity,
):
    rows = random_rows(data_seed, n_rows)
    # delta = 0.1 keeps the band half-width (at most ~0.25 for a 16-row
    # sample) below both thresholds.
    params = dict(min_match=min_match, delta=0.1, seed=data_seed,
                  sample_size=max(1, int(n_rows * sample_fraction)),
                  memory_capacity=memory_capacity)
    assert_matches_oracle(algorithm, kind, workers, rows, params)


@given(
    algorithm=st.sampled_from(sorted(SAMPLING_ALGORITHMS)),
    kind=st.sampled_from(STORE_KINDS),
    workers=st.sampled_from((1, 2)),
    data_seed=st.integers(0, 2**16),
    min_match=st.sampled_from((0.3, 0.4)),
)
@settings(max_examples=12, deadline=None)
def test_float32_stays_within_the_documented_bound(
    algorithm, kind, workers, data_seed, min_match,
):
    rows = random_rows(data_seed, FLOAT32_ROWS)
    params = dict(min_match=min_match, delta=0.1, seed=data_seed,
                  sample_size=FLOAT32_ROWS // 2, memory_capacity=16)
    got, want = run_both(algorithm, kind, workers, rows, params,
                         score_dtype="float32")
    for pattern in set(got.frequent) & set(want.frequent):
        assert abs(got.frequent[pattern] - want.frequent[pattern]) \
            <= FLOAT32_BOUND
    flipped = set(got.frequent) ^ set(want.frequent)
    if flipped:
        # Only a pattern within the bound of the threshold may land on
        # the other side of it; the border then moves with it.
        exact = ReferenceEngine(CHUNK).database_matches(
            sorted(flipped), SequenceDatabase(rows), MATRIX
        )
        for pattern, value in exact.items():
            assert abs(value - min_match) <= FLOAT32_BOUND
    else:
        assert got.border == want.border


def test_degenerate_band_matches_the_oracles():
    """A 4-row sample at min_match 0.3 cannot rule anything out: the
    band warning fires and Phase 3 resolves the whole lattice — still
    identically on both paths."""
    rows = random_rows(2, 16)
    params = dict(min_match=0.3, delta=1e-4, seed=3, sample_size=4,
                  memory_capacity=None,
                  constraints=PatternConstraints(max_weight=3, max_span=4,
                                                 max_gap=1))
    with pytest.warns(RuntimeWarning, match="Chernoff band"):
        assert_matches_oracle("border-collapsing", "packed", 2, rows,
                              params)


def test_every_miner_reports_the_levelwise_phase1():
    """One Phase-1 implementation: every miner's symbol matches —
    the sampling miners' sample scan and depth-first's materialising
    scan included — are level-wise's, bit for bit."""
    rows = random_rows(7, 600)  # three default-size chunks
    params = dict(min_match=0.4, delta=0.1, seed=7, sample_size=100,
                  memory_capacity=None)
    levelwise = mine("levelwise", SequenceDatabase(rows),
                     VectorizedBatchEngine(), None, params)
    for algorithm in ALGORITHMS:
        got = mine(algorithm, SequenceDatabase(rows),
                   VectorizedBatchEngine(), None, params)
        np.testing.assert_array_equal(
            got.extras["symbol_match"], levelwise.extras["symbol_match"],
            err_msg=algorithm,
        )
