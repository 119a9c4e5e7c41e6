"""Tests for the canonical mining-run configuration layer.

:class:`repro.config.MiningConfig` is the single flag/env resolution
point shared by the CLI, the service daemon and the eval harness.
These tests pin the precedence contract (explicit value > ``NOISYMINE_*``
environment variable > default), the loud failure on malformed
environment values, and the canonical forms the daemon's result memo
keys on.
"""

import json

import pytest

from repro.config import (
    ALGORITHMS,
    MiningConfig,
    SAMPLING_ALGORITHMS,
    json_payload,
    open_database,
)
from repro.core.compatibility import CompatibilityMatrix
from repro.core.sequence import FileSequenceDatabase, SequenceDatabase
from repro.errors import MiningError, NoisyMineError
from repro.io import PackedSequenceStore
from repro.mining.depthfirst import DepthFirstMiner
from repro.mining.levelwise import LevelwiseMiner
from repro.mining.maxminer import MaxMiner
from repro.mining.miner import BorderCollapsingMiner
from repro.mining.pincer import PincerMiner
from repro.mining.toivonen import ToivonenMiner


ENV_VARS = (
    "NOISYMINE_ENGINE",
    "NOISYMINE_LATTICE",
    "NOISYMINE_RESIDENT",
    "NOISYMINE_STORE",
)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    """Resolution tests must not inherit ambient NOISYMINE_* state."""
    for var in ENV_VARS:
        monkeypatch.delenv(var, raising=False)


class TestResolveDefaults:
    def test_library_defaults(self):
        config = MiningConfig.resolve(min_match=0.5, alphabet=4)
        assert config.algorithm == "border-collapsing"
        assert config.score_dtype == "float64"

    def test_all_algorithms_accepted(self):
        for algorithm in ALGORITHMS:
            config = MiningConfig.resolve(
                min_match=0.5, alphabet=4, algorithm=algorithm
            )
            assert config.algorithm == algorithm

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(MiningError, match="unknown algorithm"):
            MiningConfig(min_match=0.5, algorithm="apriori")

    def test_min_match_range_enforced(self):
        with pytest.raises(MiningError, match="min_match"):
            MiningConfig(min_match=0.0)
        with pytest.raises(MiningError, match="min_match"):
            MiningConfig(min_match=1.5)


class TestEnvPrecedence:
    """Every NOISYMINE_* variable the config reads: env honoured, flag
    beats env, bad env fails loudly.  Removed execution variables are
    not read at all."""

    def test_removed_execution_env_vars_are_not_read(self, monkeypatch):
        base = MiningConfig.resolve(min_match=0.5, alphabet=4)
        for var in ENV_VARS[:3]:
            monkeypatch.setenv(var, "bogus")
        assert MiningConfig.resolve(min_match=0.5, alphabet=4) == base

    def test_stale_store_env_changes_nothing(self, monkeypatch):
        base = MiningConfig.resolve(min_match=0.5, alphabet=4)
        monkeypatch.setenv("NOISYMINE_STORE", "bogus")
        config = MiningConfig.resolve(min_match=0.5, alphabet=4)
        assert config == base
        assert config.to_dict() == base.to_dict()
        assert "store" not in config.to_dict()


class TestMatrix:
    def test_noise_builds_uniform_matrix(self):
        config = MiningConfig.resolve(min_match=0.5, alphabet=3, noise=0.2)
        expected = CompatibilityMatrix.uniform_noise(3, 0.2)
        assert config.build_matrix().array.tolist() == \
            expected.array.tolist()

    def test_zero_noise_builds_identity(self):
        config = MiningConfig.resolve(min_match=0.5, alphabet=3)
        assert config.build_matrix().array.tolist() == \
            CompatibilityMatrix.identity(3).array.tolist()

    def test_inline_matrix_wins_and_sets_alphabet(self):
        rows = CompatibilityMatrix.uniform_noise(3, 0.1).array.tolist()
        config = MiningConfig.resolve(min_match=0.5, matrix=rows)
        assert config.alphabet_size == 3
        assert config.build_matrix().array.tolist() == rows

    def test_missing_alphabet_fails(self):
        config = MiningConfig.resolve(min_match=0.5)
        with pytest.raises(MiningError, match="no alphabet size"):
            config.build_matrix()


class TestBuildMiner:
    MINER_TYPES = {
        "border-collapsing": BorderCollapsingMiner,
        "levelwise": LevelwiseMiner,
        "maxminer": MaxMiner,
        "toivonen": ToivonenMiner,
        "pincer": PincerMiner,
        "depthfirst": DepthFirstMiner,
    }

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_builds_the_right_miner(self, algorithm):
        config = MiningConfig.resolve(
            min_match=0.5, alphabet=4, algorithm=algorithm, seed=1
        )
        miner = config.build_miner(20)
        assert isinstance(miner, self.MINER_TYPES[algorithm])

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_built_miner_mines(self, algorithm):
        # A sample as large as the database keeps the Chernoff band
        # tight; a 1-row sample would make the sampling miners
        # enumerate the whole lattice.
        database = SequenceDatabase(
            [[0, 1, 2, 0], [1, 2, 0, 1], [0, 1, 2, 2], [2, 0, 1, 0]] * 8
        )
        config = MiningConfig.resolve(
            min_match=0.5, alphabet=3, algorithm=algorithm, seed=3,
            sample_size=len(database), delta=0.5, max_weight=4,
        )
        result = config.build_miner(len(database)).mine(database)
        assert result.frequent is not None

    def test_default_sample_size_is_quarter(self):
        config = MiningConfig.resolve(min_match=0.5, alphabet=4)
        assert config.effective_sample_size(100) == 25
        assert config.effective_sample_size(2) == 1
        explicit = config.with_overrides(sample_size=7)
        assert explicit.effective_sample_size(100) == 7


class TestCanonicalForms:
    def test_to_key_distinguishes_semantic_fields(self):
        base = MiningConfig.resolve(min_match=0.5, alphabet=4)
        assert base.to_key() != base.with_overrides(min_match=0.6).to_key()
        assert base.to_key() != base.with_overrides(noise=0.1).to_key()
        assert base.to_key() != \
            base.with_overrides(algorithm="levelwise").to_key()

    def test_to_key_ignores_execution_knobs(self, monkeypatch):
        # The worker count (and a stale store variable) are execution
        # settings: a memo entry must be shared across them.
        base = MiningConfig.resolve(min_match=0.5, alphabet=4, seed=1)
        monkeypatch.setenv("NOISYMINE_WORKERS", "2")
        monkeypatch.setenv("NOISYMINE_STORE", "packed")
        variant = MiningConfig.resolve(min_match=0.5, alphabet=4, seed=1)
        assert base.to_key() == variant.to_key()

    def test_to_key_is_json(self):
        key = MiningConfig.resolve(min_match=0.5, alphabet=4).to_key()
        assert json.loads(key)["min_match"] == 0.5

    def test_memoizable(self):
        for algorithm in ALGORITHMS:
            seeded = MiningConfig.resolve(
                min_match=0.5, alphabet=4, algorithm=algorithm, seed=1
            )
            unseeded = MiningConfig.resolve(
                min_match=0.5, alphabet=4, algorithm=algorithm
            )
            assert seeded.memoizable
            assert unseeded.memoizable == \
                (algorithm not in SAMPLING_ALGORITHMS)

    def test_round_trip_through_dict(self):
        config = MiningConfig.resolve(
            min_match=0.4, alphabet=5, algorithm="toivonen", noise=0.1,
            sample_size=9, seed=11,
        )
        assert MiningConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(NoisyMineError, match="unknown config keys"):
            MiningConfig.from_dict({"min_match": 0.5, "min_macth": 0.5})

    @pytest.mark.parametrize(
        "key",
        ["engine", "lattice", "resident_sample", "resident_kernels", "store"],
    )
    def test_from_dict_rejects_removed_execution_keys(self, key):
        with pytest.raises(NoisyMineError, match=f"unknown config keys: {key}"):
            MiningConfig.from_dict({"min_match": 0.5, key: "x"})

    def test_from_dict_requires_min_match(self):
        with pytest.raises(NoisyMineError, match="min_match"):
            MiningConfig.from_dict({"algorithm": "levelwise"})

    def test_from_dict_resolves_env(self, monkeypatch):
        monkeypatch.setenv("NOISYMINE_SCORE_DTYPE", "float32")
        config = MiningConfig.from_dict({"min_match": 0.5, "alphabet": 4})
        assert config.score_dtype == "float32"

    def test_with_overrides_revalidates(self):
        config = MiningConfig.resolve(min_match=0.5, alphabet=4)
        with pytest.raises(MiningError):
            config.with_overrides(min_match=2.0)


class TestJsonPayload:
    def test_matches_cli_shape(self):
        database = SequenceDatabase([[0, 1, 2], [1, 2, 0], [0, 1, 1]])
        config = MiningConfig.resolve(
            min_match=0.5, alphabet=3, algorithm="levelwise"
        )
        result = config.build_miner(len(database)).mine(database)
        payload = json_payload(config, result, "vectorized")
        assert payload["algorithm"] == "levelwise"
        assert payload["engine"] == "vectorized"
        assert "lattice" not in payload
        assert payload["min_match"] == 0.5
        assert "patterns" in payload and "frequent" not in payload
        json.dumps(payload)  # must be JSON-serialisable as-is


class TestOpenDatabase:
    def test_auto_sniffs_packed(self, tmp_path):
        database = SequenceDatabase([[0, 1, 2], [1, 2, 0]])
        text = tmp_path / "db.txt"
        database.save(text)
        packed = tmp_path / "db.nmp"
        PackedSequenceStore.from_database(database, packed)
        assert isinstance(open_database(text), FileSequenceDatabase)
        opened = open_database(packed)
        assert isinstance(opened, PackedSequenceStore)
        opened.close()
