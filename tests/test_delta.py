"""Delta-remining equivalence suite.

The load-bearing property: for any base database, any appended delta
and any threshold, refreshing a checkpoint with
:func:`repro.mining.delta.delta_remine` produces the *identical*
border (elements and exact match values) as re-running the exact
miner from scratch over the grown store — while touching the full
store only for the straddling patterns.  These tests pin that
property under hypothesis-generated data, the two directed scenarios
(border elements falling, new patterns crossing upward), checkpoint
chaining across several appends, checkpoints distilled from the
sampling miner, and the validation that refuses non-transferable
checkpoints.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.border import Border
from repro.core.compatibility import CompatibilityMatrix
from repro.core.lattice import PatternConstraints
from repro.core.pattern import Pattern
from repro.core.sequence import SequenceDatabase
from repro.errors import MiningError, SequenceDatabaseError
from repro.io import SegmentedSequenceStore
from repro.mining.delta import (
    MiningCheckpoint,
    create_checkpoint,
    delta_remine,
)
from repro.mining.levelwise import LevelwiseMiner
from repro.obs import DELTA_SCANS, SCANS, Tracer

M = 5
CONSTRAINTS = PatternConstraints(max_weight=3, max_span=5, max_gap=1)
IDENTITY = CompatibilityMatrix.identity(M)


def _store(tmp_path, base_rows, name="seg"):
    return SegmentedSequenceStore.create(
        tmp_path / name, SequenceDatabase(base_rows)
    )


def _mine(store, matrix, min_match):
    return LevelwiseMiner(
        matrix, min_match, constraints=CONSTRAINTS
    ).mine(store)


def _assert_equivalent(outcome, scratch):
    """Border identity + exact value agreement with a from-scratch run."""
    got = set(outcome.result.border.elements)
    want = set(scratch.border.elements)
    assert got == want
    for pattern in want:
        assert outcome.result.frequent[pattern] == pytest.approx(
            scratch.frequent[pattern], abs=1e-9
        )
    # The refreshed checkpoint carries the same exact border sums.
    n = outcome.checkpoint.n_sequences
    for pattern, total in outcome.checkpoint.border_sums.items():
        assert total / n == pytest.approx(
            scratch.frequent[pattern], abs=1e-9
        )


def _refresh(tmp_path, base_rows, delta_rows, min_match,
             matrix=IDENTITY, name="seg", tracer=None):
    """Full pipeline: mine base → checkpoint → append → delta remine."""
    with _store(tmp_path, base_rows, name) as store:
        base_result = _mine(store, matrix, min_match)
        checkpoint = create_checkpoint(
            base_result, store, matrix, min_match
        )
        if delta_rows:
            store.append(delta_rows)
        outcome = delta_remine(
            store, matrix, checkpoint, constraints=CONSTRAINTS,
            tracer=tracer,
        )
        scratch = _mine(store, matrix, min_match)
    return outcome, scratch


# -- hypothesis equivalence ----------------------------------------------------

def rows(min_rows, max_rows, max_len=8):
    return st.lists(
        st.lists(st.integers(0, M - 1), min_size=1, max_size=max_len),
        min_size=min_rows,
        max_size=max_rows,
    )


class TestEquivalence:
    @given(
        rows(4, 14), rows(1, 6),
        st.sampled_from([0.2, 0.35, 0.5, 0.75]),
    )
    @settings(max_examples=25, deadline=None)
    def test_refresh_equals_from_scratch(
        self, tmp_path_factory, base_rows, delta_rows, min_match
    ):
        tmp = tmp_path_factory.mktemp("hypdelta")
        outcome, scratch = _refresh(
            tmp, base_rows, delta_rows, min_match
        )
        _assert_equivalent(outcome, scratch)

    @given(rows(4, 10), rows(1, 5))
    @settings(max_examples=10, deadline=None)
    def test_refresh_equals_from_scratch_noisy(
        self, tmp_path_factory, base_rows, delta_rows
    ):
        """Same property under a non-trivial compatibility matrix: the
        match model, not just classical support."""
        tmp = tmp_path_factory.mktemp("hypnoise")
        matrix = CompatibilityMatrix.uniform_noise(M, 0.15)
        outcome, scratch = _refresh(
            tmp, base_rows, delta_rows, 0.3, matrix=matrix
        )
        _assert_equivalent(outcome, scratch)


# -- directed scenarios --------------------------------------------------------

class TestDirectedScenarios:
    MOTIF = [0, 1, 2]

    def _motif_rows(self, rng, count, with_motif):
        out = []
        for _ in range(count):
            row = list(rng.integers(3, M, size=6))
            if with_motif:
                pos = rng.integers(0, 4)
                row[pos:pos + 3] = self.MOTIF
            out.append(row)
        return out

    def test_fallen_border_elements(self, tmp_path):
        """Appending motif-free rows dilutes the motif below the
        threshold: the old border element falls and its re-probed
        subpatterns take its place — exactly as from scratch."""
        rng = np.random.default_rng(0)
        base = self._motif_rows(rng, 20, with_motif=True)
        dilute = self._motif_rows(rng, 30, with_motif=False)
        outcome, scratch = _refresh(tmp_path, base, dilute, 0.5)
        motif = Pattern(self.MOTIF)
        assert motif not in set(outcome.result.border.elements)
        _assert_equivalent(outcome, scratch)

    def test_upward_crossers(self, tmp_path):
        """Appending motif-rich rows pushes a pattern the old border
        never covered above the threshold; the delta-only levelwise
        pass finds it and the full store verifies it."""
        rng = np.random.default_rng(1)
        base = self._motif_rows(rng, 20, with_motif=False)
        enrich = self._motif_rows(rng, 30, with_motif=True)
        outcome, scratch = _refresh(tmp_path, base, enrich, 0.5)
        motif = Pattern(self.MOTIF)
        assert motif in set(outcome.result.border.elements)
        assert outcome.crosser_candidates >= 1
        _assert_equivalent(outcome, scratch)

    def test_checkpoint_chains_across_appends(self, tmp_path):
        """refresh(refresh(ckpt)) stays exact: the refreshed checkpoint
        is as good as one written by a full run."""
        rng = np.random.default_rng(2)
        with _store(
            tmp_path, self._motif_rows(rng, 15, with_motif=True)
        ) as store:
            result = _mine(store, IDENTITY, 0.4)
            checkpoint = create_checkpoint(result, store, IDENTITY, 0.4)
            for round_index in range(3):
                store.append(self._motif_rows(
                    rng, 5, with_motif=bool(round_index % 2)
                ))
                outcome = delta_remine(
                    store, IDENTITY, checkpoint,
                    constraints=CONSTRAINTS,
                )
                checkpoint = outcome.checkpoint
                scratch = _mine(store, IDENTITY, 0.4)
                _assert_equivalent(outcome, scratch)
            assert checkpoint.n_sequences == 30
            assert len(checkpoint.segment_digests) == 4

    def test_refresh_does_fewer_full_scans(self, tmp_path):
        """The point of the exercise: a small append re-reads the full
        store fewer times than mining from scratch does."""
        rng = np.random.default_rng(3)
        base = self._motif_rows(rng, 40, with_motif=True)
        delta = self._motif_rows(rng, 2, with_motif=True)
        tracer = Tracer()
        outcome, _scratch = _refresh(
            tmp_path, base, delta, 0.5, tracer=tracer
        )
        with _store(tmp_path, base, "scratchref") as ref:
            ref.append(delta)
            scratch_scans = _mine(ref, IDENTITY, 0.5).scans
        assert outcome.full_scans < scratch_scans
        totals = tracer.totals()
        assert totals.get(DELTA_SCANS, 0) >= 1
        # Full-store passes recorded by the refresh equal its report.
        assert totals.get(SCANS, 0) == outcome.full_scans

    def test_no_delta_costs_nothing(self, tmp_path):
        rng = np.random.default_rng(4)
        base = self._motif_rows(rng, 12, with_motif=True)
        outcome, scratch = _refresh(tmp_path, base, [], 0.5)
        assert outcome.full_scans == 0
        assert outcome.delta_sequences == 0
        _assert_equivalent(outcome, scratch)


# -- checkpoints from the sampling miner --------------------------------------

class TestSamplingCheckpoint:
    def test_border_collapsing_checkpoint_refreshes_exactly(
        self, tmp_path
    ):
        """A checkpoint distilled from the sampling miner (Phase-3
        verified values + topped-up border sums) refreshes to the same
        border as one from the exact miner."""
        from repro.mining.miner import BorderCollapsingMiner

        rng = np.random.default_rng(5)
        base = [list(rng.integers(0, M, size=8)) for _ in range(40)]
        for row in base[:24]:
            row[2:4] = [0, 1]
        delta = [list(rng.integers(0, M, size=8)) for _ in range(4)]
        with _store(tmp_path, base) as store:
            result = BorderCollapsingMiner(
                IDENTITY, 0.5, sample_size=30, delta=0.5,
                constraints=CONSTRAINTS,
                rng=np.random.default_rng(7),
            ).mine(store)
            checkpoint = create_checkpoint(
                result, store, IDENTITY, 0.5
            )
            # Distilled sums are exact, whatever phase produced them.
            for pattern, total in checkpoint.border_sums.items():
                assert total / len(store) == pytest.approx(
                    _count_one(store, pattern), abs=1e-9
                )
            store.append(delta)
            outcome = delta_remine(
                store, IDENTITY, checkpoint, constraints=CONSTRAINTS
            )
            scratch = _mine(store, IDENTITY, 0.5)
        _assert_equivalent(outcome, scratch)

    def test_checkpoint_requires_symbol_match(self, tmp_path):
        from repro.mining.result import MiningResult

        with _store(tmp_path, [[0, 1], [1, 2]]) as store:
            hollow = MiningResult(
                frequent={}, border=Border([]), scans=0,
                elapsed_seconds=0.0,
            )
            with pytest.raises(MiningError, match="symbol_match"):
                create_checkpoint(hollow, store, IDENTITY, 0.5)


def _count_one(store, pattern):
    from repro.mining.counting import count_matches_batched

    return count_matches_batched([pattern], store, IDENTITY, None)[pattern]


# -- persistence and validation ------------------------------------------------

class TestCheckpointPersistence:
    def _checkpoint(self, tmp_path):
        with _store(tmp_path, [[0, 1, 2], [1, 2, 3], [0, 1, 4]]) as store:
            result = _mine(store, IDENTITY, 0.5)
            return create_checkpoint(
                result, store, IDENTITY, 0.5, config_key="key-a"
            )

    def test_roundtrip(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path)
        path = tmp_path / "ckpt.json"
        checkpoint.save(path)
        loaded = MiningCheckpoint.load(path)
        assert loaded == checkpoint

    def test_loads_payload_with_retired_sample_planes_key(self, tmp_path):
        """Checkpoints written before ``sample_planes_key`` was dropped
        carry it (always ``null``); they still load, to the same
        checkpoint, and a re-save no longer writes it."""
        checkpoint = self._checkpoint(tmp_path)
        payload = dict(checkpoint.to_dict(), sample_planes_key=None)
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload))
        assert MiningCheckpoint.load(path) == checkpoint
        assert "sample_planes_key" not in checkpoint.to_dict()

    def test_corrupt_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(MiningError, match="JSON"):
            MiningCheckpoint.load(path)

    def test_wrong_format_raises(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(MiningError, match="checkpoint"):
            MiningCheckpoint.load(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(MiningError, match="cannot read"):
            MiningCheckpoint.load(tmp_path / "absent.json")

    def test_config_key_mismatch_raises(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path)
        with SegmentedSequenceStore.open(tmp_path / "seg") as store:
            with pytest.raises(MiningError, match="different mining"):
                delta_remine(
                    store, IDENTITY, checkpoint,
                    constraints=CONSTRAINTS, config_key="key-b",
                )

    def test_alphabet_mismatch_raises(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path)
        with SegmentedSequenceStore.open(tmp_path / "seg") as store:
            with pytest.raises(MiningError, match="alphabet"):
                delta_remine(
                    store, CompatibilityMatrix.identity(M + 2),
                    checkpoint, constraints=CONSTRAINTS,
                )

    def test_foreign_lineage_raises(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path)
        with _store(
            tmp_path, [[4, 4, 4], [3, 3, 3]], "other"
        ) as other:
            with pytest.raises(SequenceDatabaseError, match="lineage"):
                delta_remine(
                    other, IDENTITY, checkpoint,
                    constraints=CONSTRAINTS,
                )

    def test_threshold_travels_with_checkpoint(self, tmp_path):
        """min_match is the checkpoint's, not a call-site knob: the
        refresh proves the border only at the threshold the sums were
        classified under."""
        checkpoint = self._checkpoint(tmp_path)
        assert checkpoint.min_match == 0.5
        with SegmentedSequenceStore.open(tmp_path / "seg") as store:
            outcome = delta_remine(
                store, IDENTITY, checkpoint, constraints=CONSTRAINTS
            )
        assert outcome.checkpoint.min_match == 0.5
