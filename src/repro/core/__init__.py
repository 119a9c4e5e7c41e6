"""Core model: alphabets, patterns, compatibility matrices, the match
metric, sequence databases and pattern-lattice machinery."""

from .alphabet import AMINO_ACIDS, Alphabet
from .border import Border, border_from_frequent
from .compatibility import CompatibilityMatrix, compatibility_from_channel
from .lattice import (
    PatternConstraints,
    embeddings,
    extend_right,
    generate_candidates,
    halfway_patterns,
    halfway_weight,
    immediate_superpatterns,
    iter_patterns_between,
    level_one_patterns,
    patterns_at_weight,
)
from .latticekernels import (
    batch_restricted_spread,
    contains_any,
    filter_undecided,
    kernel_generate_candidates,
    pack_block,
    pack_by_span,
    subsumption_hits,
)
from .match import (
    best_alignment,
    calibrated_min_match,
    clean_occurrence_match,
    database_match,
    database_matches,
    segment_match,
    sequence_match,
    symbol_matches_and_sample,
    symbol_sequence_matches,
    window_matches,
)
from .pattern import Pattern, WILDCARD
from .sparse import SparseMatchEngine
from .sequence import (
    DEFAULT_SCAN_CHUNK_ROWS,
    AnySequenceDatabase,
    CountedScanDatabase,
    FileSequenceDatabase,
    SequenceChunk,
    SequenceDatabase,
    SequentialSampler,
    as_sequence_array,
)

__all__ = [
    "AMINO_ACIDS",
    "Alphabet",
    "Border",
    "border_from_frequent",
    "CompatibilityMatrix",
    "compatibility_from_channel",
    "PatternConstraints",
    "embeddings",
    "extend_right",
    "generate_candidates",
    "halfway_patterns",
    "halfway_weight",
    "immediate_superpatterns",
    "iter_patterns_between",
    "level_one_patterns",
    "patterns_at_weight",
    "batch_restricted_spread",
    "contains_any",
    "filter_undecided",
    "kernel_generate_candidates",
    "pack_block",
    "pack_by_span",
    "subsumption_hits",
    "best_alignment",
    "calibrated_min_match",
    "clean_occurrence_match",
    "database_match",
    "database_matches",
    "segment_match",
    "sequence_match",
    "symbol_matches_and_sample",
    "symbol_sequence_matches",
    "window_matches",
    "Pattern",
    "WILDCARD",
    "SparseMatchEngine",
    "DEFAULT_SCAN_CHUNK_ROWS",
    "AnySequenceDatabase",
    "CountedScanDatabase",
    "FileSequenceDatabase",
    "SequenceChunk",
    "SequenceDatabase",
    "SequentialSampler",
    "as_sequence_array",
]
