"""noisymine — mining long sequential patterns in a noisy environment.

A faithful, from-scratch reproduction of Yang, Wang, Yu & Han (SIGMOD
2002): the compatibility-matrix *match* model for noisy sequences, and
the three-phase probabilistic miner (Chernoff-bound sampling + border
collapsing) that finds long frequent patterns in a handful of database
scans.

Quickstart
----------
>>> import numpy as np
>>> from repro import (CompatibilityMatrix, Pattern, SequenceDatabase,
...                    mine_noisy_patterns)
>>> db = SequenceDatabase([[0, 1, 2, 0], [3, 1, 0], [2, 3, 1, 0], [1, 1]])
>>> C = CompatibilityMatrix.uniform_noise(5, alpha=0.1)
>>> result = mine_noisy_patterns(db, C, min_match=0.3, sample_size=4)
>>> sorted(p.to_string() for p in result.frequent)  # doctest: +ELLIPSIS
[...]

See ``examples/`` for end-to-end scenarios and ``benchmarks/`` for the
reproduction of every figure of the paper's evaluation.
"""

from .core import (
    AMINO_ACIDS,
    DEFAULT_SCAN_CHUNK_ROWS,
    calibrated_min_match,
    clean_occurrence_match,
    Alphabet,
    Border,
    CompatibilityMatrix,
    CountedScanDatabase,
    FileSequenceDatabase,
    Pattern,
    PatternConstraints,
    SequenceChunk,
    SequenceDatabase,
    SparseMatchEngine,
    WILDCARD,
    compatibility_from_channel,
    database_match,
    database_matches,
    segment_match,
    sequence_match,
)
from .datagen import (
    Motif,
    read_fasta,
    write_fasta,
    expected_occurrence_retention,
    blosum50_channel,
    blosum50_compatibility,
    corrupt_database,
    corrupt_uniform,
    generate_database,
    protein_like_database,
    random_motif,
    uniform_channel,
    uniform_noise_setup,
)
from .engine import (
    MatchEngine,
    ResidentSampleEvaluator,
    VectorizedBatchEngine,
)
from .errors import (
    AlphabetError,
    CompatibilityMatrixError,
    MiningError,
    NoisyMineError,
    PatternError,
    SamplingError,
    SequenceDatabaseError,
)
from .io import (
    PackedSequenceStore,
    is_packed_store,
)
from .eval import (
    ExperimentTable,
    accuracy,
    completeness,
    error_rate,
    missed_match_distribution,
    phase_scan_series,
    quality,
)
from .obs import (
    NullTracer,
    PhaseReport,
    RunReport,
    Tracer,
)
from .mining import (
    BorderCollapsingMiner,
    DepthFirstMiner,
    PincerMiner,
    LevelwiseMiner,
    MaxMiner,
    MiningResult,
    ToivonenMiner,
    chernoff_epsilon,
    classify_on_sample,
    collapse_borders,
    mine_noisy_patterns,
    mine_support,
    verify_result,
    restricted_spread,
)

__version__ = "1.0.0"

__all__ = [
    "AMINO_ACIDS",
    "Alphabet",
    "Border",
    "CompatibilityMatrix",
    "DEFAULT_SCAN_CHUNK_ROWS",
    "CountedScanDatabase",
    "FileSequenceDatabase",
    "PackedSequenceStore",
    "Pattern",
    "PatternConstraints",
    "SequenceChunk",
    "SequenceDatabase",
    "SparseMatchEngine",
    "WILDCARD",
    "compatibility_from_channel",
    "calibrated_min_match",
    "clean_occurrence_match",
    "database_match",
    "database_matches",
    "is_packed_store",
    "segment_match",
    "sequence_match",
    "Motif",
    "expected_occurrence_retention",
    "blosum50_channel",
    "blosum50_compatibility",
    "corrupt_database",
    "corrupt_uniform",
    "generate_database",
    "protein_like_database",
    "random_motif",
    "read_fasta",
    "write_fasta",
    "uniform_channel",
    "uniform_noise_setup",
    "MatchEngine",
    "ResidentSampleEvaluator",
    "VectorizedBatchEngine",
    "AlphabetError",
    "CompatibilityMatrixError",
    "MiningError",
    "NoisyMineError",
    "PatternError",
    "SamplingError",
    "SequenceDatabaseError",
    "ExperimentTable",
    "accuracy",
    "completeness",
    "error_rate",
    "missed_match_distribution",
    "phase_scan_series",
    "quality",
    "NullTracer",
    "PhaseReport",
    "RunReport",
    "Tracer",
    "BorderCollapsingMiner",
    "DepthFirstMiner",
    "PincerMiner",
    "LevelwiseMiner",
    "MaxMiner",
    "MiningResult",
    "ToivonenMiner",
    "chernoff_epsilon",
    "classify_on_sample",
    "collapse_borders",
    "mine_noisy_patterns",
    "mine_support",
    "verify_result",
    "restricted_spread",
    "__version__",
]
