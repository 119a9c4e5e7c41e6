"""Compiled ``"native"`` backend: JIT hot loops, optional float32 scoring.

:class:`NativeEngine` evaluates ``M(P, D)`` with the fused kernels of
:mod:`repro.core._nativekernels`: one compiled pass per (chunk, span
group) that slides every pattern over every sequence without ever
materialising the ``(m + 1, L, N)`` factor array or a ``(B, W, N)``
score plane the vectorized backend streams through.  Per-sequence
maxima come back as a ``(B, N)`` block and are summed with the same
``np.sum`` reduction the vectorized engine uses, so float64 results
are **bit-identical** to the vectorized engine.

numba is optional.  :func:`repro.engine.select_engine` picks this
engine only when numba imports; constructing it directly without
numba fails loudly with an actionable :class:`MiningError` naming the
``noisymine[native]`` extra.

``kernels="pure"`` forces the interpreted twins of the compiled
kernels regardless of numba availability — slow, but it exercises the
exact code numba compiles, which is how the equivalence suites
differential-test the kernel logic on numba-free CI legs.

float32 scoring
---------------
``score_dtype="float32"`` gathers factors from a float32 copy of the
extended matrix, halving the scoring pass's memory traffic.  Window
products are then float32, but the cross-sequence accumulation stays
float64, so the deviation from the float64 backends is bounded by
per-window rounding (~``span`` ulps of float32) — far below the
classification tolerances the miners use.  ``benchmarks/bench_native.py``
gates that bound on the paper's fig9/fig14 workloads.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..core import _nativekernels as nk
from ..core._nativekernels import native_available, native_unavailable_reason
from ..core.compatibility import CompatibilityMatrix
from ..core.pattern import Pattern
from ..core.sequence import AnySequenceDatabase, iter_chunks
from ..errors import MiningError
from ..obs import JIT_COMPILE_SECONDS, NATIVE_KERNEL_CALLS, Tracer
from .base import MatchEngine, empty_database_guard, matrix_fingerprint
from .kernels import (
    DEFAULT_CHUNK_ROWS,
    extended_matrix,
    group_patterns_by_span,
    pad_chunk,
)

#: Environment variable selecting the default scoring dtype.
SCORE_DTYPE_ENV_VAR = "NOISYMINE_SCORE_DTYPE"

#: Scoring dtypes the native backend accepts.
SCORE_DTYPES = ("float64", "float32")

#: The default scoring dtype (every backend's historical behaviour).
DEFAULT_SCORE_DTYPE = "float64"

def resolve_score_dtype(spec: Optional[str] = None) -> str:
    """Resolve a scoring dtype with flag > env > default precedence.

    ``None`` consults ``NOISYMINE_SCORE_DTYPE`` and falls back to
    float64; a bad value from either source fails loudly.
    """
    if spec is None:
        spec = (
            os.environ.get(SCORE_DTYPE_ENV_VAR, "").strip()
            or DEFAULT_SCORE_DTYPE
        )
    if spec not in SCORE_DTYPES:
        raise MiningError(
            f"unknown score dtype {spec!r}; "
            f"available dtypes: {', '.join(SCORE_DTYPES)}"
        )
    return spec


def charge_warmup(tracer: Optional[Tracer]) -> float:
    """Warm the compiled kernels once, charging the JIT seconds.

    Shared by every compiled dispatch path (this engine, the resident
    evaluator): :func:`repro.core._nativekernels.warm_kernels` is
    idempotent, so whichever path touches the kernels first pays — and
    records — the compile, and everyone after gets ``0.0``.
    """
    seconds = nk.warm_kernels()
    if seconds and tracer is not None and tracer.enabled:
        tracer.count(JIT_COMPILE_SECONDS, seconds)
    return seconds


class NativeEngine(MatchEngine):
    """Compiled-kernel evaluation of ``M(P, D)``.

    Parameters
    ----------
    chunk_rows:
        Sequences per padded chunk (same meaning as the vectorized
        backend; the kernels stream one chunk at a time).
    score_dtype:
        ``"float64"`` (default, bit-identical to every other backend)
        or ``"float32"`` (error-bounded, see the module docstring);
        ``None`` resolves through ``NOISYMINE_SCORE_DTYPE``.
    kernels:
        ``"auto"`` (compiled when available) or ``"pure"`` (force the
        interpreted kernel twins; for differential tests).
    """

    name = "native"

    def __init__(
        self,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        score_dtype: Optional[str] = None,
        kernels: str = "auto",
    ):
        if chunk_rows < 1:
            raise MiningError(f"chunk_rows must be >= 1, got {chunk_rows}")
        if kernels not in ("auto", "pure"):
            raise MiningError(
                f"kernels must be 'auto' or 'pure', got {kernels!r}"
            )
        self.chunk_rows = chunk_rows
        self.score_dtype = resolve_score_dtype(score_dtype)
        self.kernel_mode = kernels
        self.kernel_calls = 0
        self._matrix_cache: Dict[Tuple[tuple, str], np.ndarray] = {}
        if kernels == "pure":
            self._window_kernel = nk.py_window_group_maxima
            self._symbol_kernel = nk.py_symbol_window_maxima
            self._compiled = False
        elif nk.native_available:
            self._window_kernel = nk.window_group_maxima
            self._symbol_kernel = nk.symbol_window_maxima
            self._compiled = True
        else:
            raise MiningError(
                "the native engine needs numba, which is not "
                f"importable ({native_unavailable_reason()}). "
                "Install it with `pip install noisymine[native]`; runs "
                "without numba use the vectorized engine automatically"
            )

    # -- configuration --------------------------------------------------------

    @property
    def compiled(self) -> bool:
        """Whether the engine is running the JIT-compiled kernels."""
        return self._compiled

    def set_score_dtype(self, score_dtype: str) -> None:
        """Switch the scoring dtype (clears the matrix-cast cache)."""
        resolved = resolve_score_dtype(score_dtype)
        if resolved != self.score_dtype:
            self.score_dtype = resolved
            self._matrix_cache.clear()

    # -- internals ------------------------------------------------------------

    def _ensure_warm(self, tracer: Optional[Tracer]) -> None:
        if self._compiled:
            charge_warmup(tracer)

    def _record_calls(self, calls: int, tracer: Optional[Tracer]) -> None:
        self.kernel_calls += calls
        if calls and tracer is not None and tracer.enabled:
            tracer.count(NATIVE_KERNEL_CALLS, calls)

    def _matrix(self, matrix: CompatibilityMatrix) -> np.ndarray:
        key = (matrix_fingerprint(matrix), self.score_dtype)
        c_ext = self._matrix_cache.get(key)
        if c_ext is None:
            c_ext = extended_matrix(matrix.array)
            if self.score_dtype == "float32":
                c_ext = c_ext.astype(np.float32)
            self._matrix_cache[key] = c_ext
        return c_ext

    # -- batched --------------------------------------------------------------

    def database_matches(
        self,
        patterns: Sequence[Pattern],
        database: AnySequenceDatabase,
        matrix: CompatibilityMatrix,
        tracer: Optional[Tracer] = None,
    ) -> Dict[Pattern, float]:
        patterns = list(patterns)
        if not patterns:
            return {}
        self._ensure_warm(tracer)
        m = matrix.size
        groups, elements_by_span = group_patterns_by_span(patterns, m)
        c_ext = self._matrix(matrix)
        totals = np.zeros(len(patterns), dtype=np.float64)
        buffers: Dict[Tuple[int, int], np.ndarray] = {}
        count = 0
        calls = 0
        for chunk in iter_chunks(database, self.chunk_rows):
            count += len(chunk)
            padded = pad_chunk(list(chunk.rows), m)
            length = padded.shape[1]
            n = padded.shape[0]
            for span, indices in groups.items():
                if length < span:
                    # Every window overlaps the padding: the vectorized
                    # kernel returns exact zeros here, so skipping the
                    # all-zero contribution is bit-preserving.
                    continue
                elements = elements_by_span[span]
                key = (elements.shape[0], n)
                out = buffers.get(key)
                if out is None:
                    out = buffers[key] = np.empty(key, dtype=c_ext.dtype)
                self._window_kernel(padded, c_ext, elements, out)
                calls += 1
                totals[indices] += out.sum(axis=1, dtype=np.float64)
        empty_database_guard(count)
        self._record_calls(calls, tracer)
        return {p: float(t / count) for p, t in zip(patterns, totals)}

    def symbol_matches(
        self,
        database: AnySequenceDatabase,
        matrix: CompatibilityMatrix,
        tracer: Optional[Tracer] = None,
    ) -> np.ndarray:
        self._ensure_warm(tracer)
        m = matrix.size
        c_ext = self._matrix(matrix)
        totals = np.zeros(m, dtype=np.float64)
        count = 0
        calls = 0
        out: Optional[np.ndarray] = None
        for chunk in iter_chunks(database, self.chunk_rows):
            count += len(chunk)
            padded = pad_chunk(list(chunk.rows), m)
            n = padded.shape[0]
            if out is None or out.shape[1] != n:
                out = np.empty((m, n), dtype=c_ext.dtype)
            self._symbol_kernel(padded, c_ext, out)
            calls += 1
            totals += out.sum(axis=1, dtype=np.float64)
        if count == 0:
            raise MiningError(
                "cannot compute symbol matches over an empty database"
            )
        self._record_calls(calls, tracer)
        return totals / count

    def symbol_matches_rows(
        self,
        sequences: Sequence[np.ndarray],
        matrix: CompatibilityMatrix,
    ) -> np.ndarray:
        if not len(sequences):
            raise MiningError(
                "cannot compute symbol matches over an empty database"
            )
        self._ensure_warm(None)
        m = matrix.size
        c_ext = self._matrix(matrix)
        totals = np.zeros(m, dtype=np.float64)
        calls = 0
        for start in range(0, len(sequences), self.chunk_rows):
            chunk = [
                np.asarray(s)
                for s in sequences[start : start + self.chunk_rows]
            ]
            padded = pad_chunk(chunk, m)
            out = np.empty((m, padded.shape[0]), dtype=c_ext.dtype)
            self._symbol_kernel(padded, c_ext, out)
            calls += 1
            totals += out.sum(axis=1, dtype=np.float64)
        self._record_calls(calls, None)
        return totals / len(sequences)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        self._matrix_cache.clear()

    def __repr__(self) -> str:
        mode = "compiled" if self._compiled else "pure"
        return (
            f"NativeEngine(chunk_rows={self.chunk_rows}, "
            f"score_dtype={self.score_dtype!r}, mode={mode!r})"
        )


__all__ = [
    "DEFAULT_SCORE_DTYPE",
    "NativeEngine",
    "SCORE_DTYPES",
    "SCORE_DTYPE_ENV_VAR",
    "charge_warmup",
    "native_available",
    "native_unavailable_reason",
    "resolve_score_dtype",
]
