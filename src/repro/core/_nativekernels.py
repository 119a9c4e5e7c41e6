"""Compiled (numba) hot-loop kernels with transparent numpy fallback.

The vectorized numpy tiers (PRs 1-8) already removed per-pattern
Python dispatch, but they still materialise full intermediate planes:
the ``(m + 1, L, N)`` factor array for window scoring, ``(B, W, N)``
score buffers, ``(pairs, span)`` gathers for containment.  This module
holds the three loops profiling shows dominant — sliding-window match
scoring, lattice join + prune membership, and signature containment —
written as *fused* single-pass loops in the numba ``nopython`` subset.

Availability model
------------------
numba is an **optional** dependency (``pip install noisymine[native]``).
At import time each kernel is compiled with ``@njit(cache=True)`` when
numba is importable and left as its pure-Python twin otherwise; the
outcome is surfaced through :data:`native_available` so callers (the
counting engine and its pool workers, the resident evaluator, the
lattice layer) can select a numpy path instead of paying interpreted
loop costs.  The pure-Python
functions are always exported under their ``py_`` names, so the kernel
*logic* is differential-tested on every CI leg, numba or not.

Bit-compatibility
-----------------
All float64 kernels are bit-identical to the numpy tiers they replace:

* window products multiply factors in the same offset order as
  :func:`repro.engine.kernels.chunk_group_maxima` (wildcard factors
  are exactly ``1.0``, pad factors exactly ``0.0``), and the
  early-exit on a zero partial product is exact because matrix entries
  are validated non-negative (``0.0 * x == 0.0`` for every remaining
  factor);
* per-sequence maxima are returned to the caller, who sums them with
  the *same* ``np.sum`` reduction the vectorized engine uses — so the
  totals, not just the products, match bit for bit;
* the containment sweep and sorted-row membership kernels are integer
  comparisons with no floating point at all.

The ``float32`` variants of the scoring kernels trade bit-identity for
memory bandwidth; the counting engine keeps their accumulation in
float64 and the benchmark gates bound the deviation instead.

Warm-up accounting
------------------
JIT compilation is paid once per process, not per task: call
:func:`warm_kernels` (idempotent, thread-safe) from pool initializers
and daemon startup.  The seconds spent compiling accumulate in
:func:`jit_compile_seconds` and surface as the ``jit_compile_seconds``
run counter.  ``@njit(cache=True)`` additionally persists the machine
code on disk, so even freshly spawned processes mostly *load* instead
of compile.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

import numpy as np

try:  # pragma: no cover - exercised only on the numba CI leg
    from numba import njit as _njit

    native_available = True
    _unavailable_reason: Optional[str] = None
except ImportError as exc:  # numba absent: keep the pure-Python twins
    _njit = None
    native_available = False
    _unavailable_reason = str(exc) or repr(exc)


def native_unavailable_reason() -> str:
    """Why compiled kernels are unavailable (empty string when they are)."""
    return "" if native_available else (
        _unavailable_reason or "numba is not importable"
    )


# -- pure-Python kernel bodies (numba nopython subset) ------------------------
#
# Every function below is written in the restricted subset numba
# compiles in nopython mode: scalar loops, ``np.zeros``/``np.ones``
# with dtype arguments, no Python objects.  The same source therefore
# serves as the interpreted twin (differential testing, ``kernels=
# "pure"`` engine mode) and as the compilation target.


def py_window_group_maxima(padded, c_ext, elements, out):
    """Fused sliding-window best-match for one same-span pattern group.

    ``out[r, i] = max over windows w of prod_o
    c_ext[elements[r, o], padded[i, w + o]]`` — the compiled twin of
    :func:`repro.engine.kernels.chunk_group_maxima`, computed in one
    pass with no factor array or score plane ever materialised.

    *padded* is the ``(N, L)`` right-padded symbol chunk, *c_ext* the
    ``(m + 1, m + 1)`` extended matrix (float64 or float32),
    *elements* the ``(B, span)`` group with wildcards remapped to
    ``m``, and *out* a preallocated ``(B, N)`` array in the matrix
    dtype.  The caller guarantees ``L >= span``.
    """
    one = np.ones(1, c_ext.dtype)[0]
    zero = np.zeros(1, c_ext.dtype)[0]
    n, length = padded.shape
    b, span = elements.shape
    windows = length - span + 1
    for r in range(b):
        for i in range(n):
            best = zero
            for w in range(windows):
                prod = one
                for o in range(span):
                    prod = prod * c_ext[elements[r, o], padded[i, w + o]]
                    if prod == zero:
                        break
                if prod > best:
                    best = prod
            out[r, i] = best


def py_symbol_window_maxima(padded, c_ext, out):
    """Phase-1 per-symbol best factor per sequence, in one fused pass.

    ``out[d, i] = max_t c_ext[d, padded[i, t]]`` for every real symbol
    ``d < m`` — the compiled twin of
    :func:`repro.engine.kernels.chunk_symbol_maxima`.  The maximum
    over positions equals the maximum over the *distinct* symbols
    present in the row (matrix entries are non-negative and the pad
    column is all zeros), so each sequence is scanned once to build a
    presence mask and the reduction runs over symbols instead of
    positions.
    """
    zero = np.zeros(1, c_ext.dtype)[0]
    mm = c_ext.shape[0]
    m = mm - 1
    n, length = padded.shape
    present = np.zeros(mm, np.bool_)
    for i in range(n):
        for s in range(mm):
            present[s] = False
        for t in range(length):
            present[padded[i, t]] = True
        for d in range(m):
            best = zero
            for s in range(m):
                if present[s]:
                    value = c_ext[d, s]
                    if value > best:
                        best = value
            out[d, i] = best


def py_containment_sweep(
    in_block, in_sig, in_weight, out_block, out_sig, out_weight,
    inner_any, outer_any,
):
    """All-pairs ``inner ⊑ outer`` between two same-span blocks.

    The compiled twin of the pair sweep inside
    :func:`repro.core.latticekernels.subsumption_hits`: for every
    (inner row, outer row) pair that survives the signature and weight
    prefilter, test positional containment at every alignment offset,
    marking ``inner_any`` / ``outer_any`` exactly as the numpy path
    does.  Returns the number of pairs that survived the prefilter
    (the ``subsumption_checks`` traffic); the caller derives the
    skipped count.  Blocks are ``(n, span)`` int32 with ``-1``
    wildcards; the caller guarantees ``out span >= in span``.
    """
    ni, si = in_block.shape
    no, so = out_block.shape
    zero64 = np.zeros(1, np.uint64)[0]
    checks = 0
    for a in range(ni):
        sig = in_sig[a]
        weight = in_weight[a]
        for b in range(no):
            if (sig & ~out_sig[b]) != zero64:
                continue
            if weight > out_weight[b]:
                continue
            checks += 1
            for offset in range(so - si + 1):
                hit = True
                for j in range(si):
                    element = in_block[a, j]
                    if element != -1 and element != out_block[b, offset + j]:
                        hit = False
                        break
                if hit:
                    inner_any[a] = True
                    outer_any[b] = True
                    break
    return checks


def py_rows_in_sorted(queries, table, out):
    """Row-wise membership of *queries* in a lexicographically sorted block.

    The compiled twin of the byte-key set lookups in
    :func:`repro.core.latticekernels.kernel_generate_candidates`:
    binary-search each ``(span,)`` query row in the row-sorted
    ``(f, span)`` *table* and write the hit flags into *out*.  Both
    blocks are int32 with identical spans; *table* rows are sorted by
    ``np.lexsort`` over the columns (any consistent total order
    works).
    """
    q, span = queries.shape
    f = table.shape[0]
    for i in range(q):
        lo = 0
        hi = f
        while lo < hi:
            mid = (lo + hi) // 2
            less = False
            greater = False
            for j in range(span):
                a = table[mid, j]
                b = queries[i, j]
                if a < b:
                    less = True
                    break
                if a > b:
                    greater = True
                    break
            if less:
                lo = mid + 1
            elif greater:
                hi = mid
            else:
                lo = mid
                hi = mid
        hit = False
        if lo < f:
            hit = True
            for j in range(span):
                if table[lo, j] != queries[i, j]:
                    hit = False
                    break
        out[i] = hit


def py_derive_child_planes(padded, c_ext, parent, symbol, offset, plane_out,
                           maxima_out):
    """Fused child-plane derivation for the resident evaluator.

    A child pattern is its parent plus one fixed *symbol* at position
    *offset*; its score plane is the parent's plane times one shifted
    factor row.  This kernel fuses the derivation with the per-sequence
    reduction: ``plane_out[w, i] = parent[w, i] * c_ext[symbol,
    padded[i, offset + w]]`` and ``maxima_out[i] = max_w plane_out[w,
    i]`` in one loop nest, never materialising the ``(m + 1, L, N)``
    factor array :func:`repro.engine.kernels.extend_plane` gathers
    from.  *parent* may have more than ``L - offset`` rows (a
    shallower ancestor's plane); only the first ``L - offset`` are
    read.  Multiplies run in the numpy path's offset order and the max
    is exact, so float64 planes are bit-identical to ``extend_plane``.
    """
    zero = np.zeros(1, c_ext.dtype)[0]
    n, length = padded.shape
    windows = length - offset
    for i in range(n):
        maxima_out[i] = zero
    for w in range(windows):
        t = w + offset
        for i in range(n):
            value = parent[w, i] * c_ext[symbol, padded[i, t]]
            plane_out[w, i] = value
            if value > maxima_out[i]:
                maxima_out[i] = value


def py_derive_sibling_batch(padded, c_ext, parent, use_parent, symbols,
                            offset, maxima_out):
    """One BFS sibling group — same parent, same offset — in one call.

    ``maxima_out[s, i] = max_w parent[w, i] * c_ext[symbols[s],
    padded[i, offset + w]]`` for every sibling ``s``.  The shared
    parent-plane element and the observed symbol are loaded once per
    ``(w, i)`` and the sibling loop runs innermost, so the dominant
    memory traffic (the parent plane) is paid once per group instead of
    once per candidate.  ``use_parent=False`` evaluates a root group
    (span-1 patterns, ``offset == 0``): the plane is the factor row
    itself and *parent* is ignored.  Matrix entries are non-negative,
    so initialising the running maxima to zero matches
    ``np.maximum.reduce`` bit for bit.
    """
    zero = np.zeros(1, c_ext.dtype)[0]
    n, length = padded.shape
    windows = length - offset
    s_count = symbols.shape[0]
    for s in range(s_count):
        for i in range(n):
            maxima_out[s, i] = zero
    if use_parent:
        for w in range(windows):
            t = w + offset
            for i in range(n):
                shared = parent[w, i]
                obs = padded[i, t]
                for s in range(s_count):
                    value = shared * c_ext[symbols[s], obs]
                    if value > maxima_out[s, i]:
                        maxima_out[s, i] = value
    else:
        for w in range(windows):
            t = w + offset
            for i in range(n):
                obs = padded[i, t]
                for s in range(s_count):
                    value = c_ext[symbols[s], obs]
                    if value > maxima_out[s, i]:
                        maxima_out[s, i] = value


# -- compiled selection -------------------------------------------------------

def _compile(function: Callable) -> Callable:
    """``@njit(cache=True)`` when numba is present, identity otherwise."""
    if not native_available:
        return function
    return _njit(cache=True)(function)  # pragma: no cover - numba leg


#: The active kernels: compiled when numba imported, pure Python
#: otherwise.  Callers that need a numpy path instead of interpreted
#: loops must branch on :data:`native_available` rather than calling
#: these unconditionally.
window_group_maxima = _compile(py_window_group_maxima)
symbol_window_maxima = _compile(py_symbol_window_maxima)
containment_sweep = _compile(py_containment_sweep)
rows_in_sorted = _compile(py_rows_in_sorted)
derive_child_planes = _compile(py_derive_child_planes)
derive_sibling_batch = _compile(py_derive_sibling_batch)


# -- warm-up accounting -------------------------------------------------------

_warm_lock = threading.Lock()
_warmed = False
_jit_seconds = 0.0


def warm_kernels() -> float:
    """Trigger JIT compilation of every kernel, once per process.

    Returns the seconds spent compiling *by this call* — ``0.0`` when
    the process is already warm or numba is unavailable.  Thread-safe
    and idempotent, so pool initializers, daemon startup and lazy
    engine paths can all call it without double-charging
    :func:`jit_compile_seconds`.  With ``cache=True`` on the kernels,
    most of the work is an on-disk cache load rather than a compile.
    """
    global _warmed, _jit_seconds
    with _warm_lock:
        if _warmed:
            return 0.0
        _warmed = True
        if not native_available:
            return 0.0
        started = time.perf_counter()
        for dtype in (np.float64, np.float32):
            c_ext = np.zeros((3, 3), dtype=dtype)
            c_ext[:2, :2] = 0.5
            c_ext[2, :2] = 1.0
            padded = np.array([[0, 1, 2]], dtype=np.int64)
            elements = np.array([[0, 2]], dtype=np.int64)
            window_group_maxima(
                padded, c_ext, elements, np.zeros((1, 1), dtype=dtype)
            )
            symbol_window_maxima(
                padded, c_ext, np.zeros((2, 1), dtype=dtype)
            )
            # The resident-evaluator kernels: a (windows, N) = (3, 1)
            # plane and one sibling pair warm every signature the hot
            # loop dispatches, including the rootless
            # (use_parent = False) branch.
            plane = np.ones((3, 1), dtype=dtype)
            maxima = np.zeros(1, dtype=dtype)
            derive_child_planes(
                padded, c_ext, plane, 0, 1,
                np.zeros((2, 1), dtype=dtype), maxima,
            )
            siblings = np.array([0, 1], dtype=np.int64)
            derive_sibling_batch(
                padded, c_ext, plane, True, siblings, 1,
                np.zeros((2, 1), dtype=dtype),
            )
            derive_sibling_batch(
                padded, c_ext, plane, False, siblings, 0,
                np.zeros((2, 1), dtype=dtype),
            )
        block = np.array([[0, -1, 1]], dtype=np.int32)
        flags = np.zeros(1, dtype=np.bool_)
        containment_sweep(
            block,
            np.array([3], dtype=np.uint64),
            np.array([2], dtype=np.int32),
            block,
            np.array([3], dtype=np.uint64),
            np.array([2], dtype=np.int32),
            flags.copy(),
            flags.copy(),
        )
        rows_in_sorted(block, block, flags.copy())
        elapsed = time.perf_counter() - started
        _jit_seconds += elapsed
        return elapsed


def jit_compile_seconds() -> float:
    """Total seconds this process has spent in kernel JIT warm-up."""
    return _jit_seconds


def kernels_warmed() -> bool:
    """Whether :func:`warm_kernels` has completed in this process."""
    return _warmed


def _reset_warmup_for_testing() -> None:
    """Forget warm-up state (tests only; not part of the public API)."""
    global _warmed, _jit_seconds
    with _warm_lock:
        _warmed = False
        _jit_seconds = 0.0


__all__ = [
    "containment_sweep",
    "derive_child_planes",
    "derive_sibling_batch",
    "jit_compile_seconds",
    "kernels_warmed",
    "native_available",
    "native_unavailable_reason",
    "py_containment_sweep",
    "py_derive_child_planes",
    "py_derive_sibling_batch",
    "py_rows_in_sorted",
    "py_symbol_window_maxima",
    "py_window_group_maxima",
    "rows_in_sorted",
    "symbol_window_maxima",
    "warm_kernels",
    "window_group_maxima",
]
