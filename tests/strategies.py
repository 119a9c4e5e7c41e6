"""Hypothesis strategies shared by the engine and kernel suites.

Arbitrary inputs over a ``M``-symbol alphabet: gapped patterns,
sequences (including ones shorter than a pattern's span), column-
stochastic compatibility matrices and small databases.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro import CompatibilityMatrix, Pattern, SequenceDatabase, WILDCARD
from repro.core._nativekernels import native_available

M = 5


def patterns(max_weight: int = 4, max_gap: int = 3) -> st.SearchStrategy:
    @st.composite
    def build(draw):
        weight = draw(st.integers(1, max_weight))
        elements = [draw(st.integers(0, M - 1))]
        for _ in range(weight - 1):
            gap = draw(st.integers(0, max_gap))
            elements.extend([WILDCARD] * gap)
            elements.append(draw(st.integers(0, M - 1)))
        return Pattern(elements)

    return build()


def sequences(min_len: int = 1, max_len: int = 12) -> st.SearchStrategy:
    return st.lists(st.integers(0, M - 1), min_size=min_len, max_size=max_len)


def matrices() -> st.SearchStrategy:
    @st.composite
    def build(draw):
        raw = draw(
            st.lists(
                st.lists(
                    st.floats(0.01, 1.0, allow_nan=False),
                    min_size=M, max_size=M,
                ),
                min_size=M, max_size=M,
            )
        )
        array = np.asarray(raw, dtype=np.float64)
        array = array / array.sum(axis=0, keepdims=True)
        return CompatibilityMatrix(array)

    return build()


def databases() -> st.SearchStrategy:
    return st.lists(sequences(), min_size=1, max_size=8).map(SequenceDatabase)


def pattern_batches() -> st.SearchStrategy:
    return st.lists(patterns(), min_size=1, max_size=6)


def kernel_variants(py_kernel, active_kernel):
    """The kernel implementations to differential-test: always the
    interpreted twin, plus the compiled function where numba imports."""
    variants = [py_kernel]
    if native_available:
        variants.append(active_kernel)
    return variants
