"""Navigation of the sub-/super-pattern lattice.

This module contains the combinatorial machinery shared by the miners:

* Apriori candidate generation by rightward extension (complete, since
  every ``(k+1)``-pattern extends its unique prefix ``k``-subpattern);
* immediate super-pattern enumeration (left/right extension and
  wildcard filling), used by look-ahead mining and border validation;
* halfway-pattern generation between two comparable patterns
  (Algorithm 4.4), the primitive of border collapsing.

Enumeration is bounded by a :class:`PatternConstraints` value object:
``max_weight`` (non-``*`` symbols), ``max_span`` (total length) and
``max_gap`` (longest run of consecutive wildcards).  The paper bounds
pattern length implicitly ("mining the obscure patterns of length l");
making the bounds explicit keeps the search space finite and lets the
benchmarks dial difficulty.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, List, Optional, Sequence, Set

from ..errors import MiningError
from ..obs import CANDIDATE_GEN_SECONDS, LATTICE_CANDIDATES, Tracer
from .pattern import Pattern, WILDCARD


@dataclass(frozen=True)
class PatternConstraints:
    """Structural bounds for candidate enumeration.

    Attributes
    ----------
    max_weight:
        Maximum number of non-eternal symbols in a pattern.
    max_span:
        Maximum total pattern length including wildcards.  Must be at
        least ``max_weight``.
    max_gap:
        Maximum run of consecutive wildcards allowed between two
        symbols.  ``0`` restricts mining to contiguous patterns.
    """

    max_weight: int = 10
    max_span: int = 12
    max_gap: int = 1

    def __post_init__(self) -> None:
        if self.max_weight < 1:
            raise MiningError(f"max_weight must be >= 1, got {self.max_weight}")
        if self.max_span < self.max_weight:
            raise MiningError(
                f"max_span ({self.max_span}) must be >= max_weight "
                f"({self.max_weight})"
            )
        if self.max_gap < 0:
            raise MiningError(f"max_gap must be >= 0, got {self.max_gap}")

    def admits(self, pattern: Pattern) -> bool:
        """True when *pattern* satisfies every bound."""
        return (
            pattern.weight <= self.max_weight
            and pattern.span <= self.max_span
            and pattern.max_gap() <= self.max_gap
        )


def extend_right(
    pattern: Pattern,
    symbols: Iterable[int],
    constraints: PatternConstraints,
) -> Iterator[Pattern]:
    """All one-symbol rightward extensions of *pattern* within bounds.

    For every allowed gap length ``g`` (``0 .. max_gap``) and every
    symbol ``d``, yields ``pattern · *^g · d``.
    """
    if pattern.weight + 1 > constraints.max_weight:
        return
    symbols = list(symbols)
    base = list(pattern.elements)
    for gap in range(constraints.max_gap + 1):
        span = pattern.span + gap + 1
        if span > constraints.max_span:
            break
        tail = [WILDCARD] * gap
        for symbol in symbols:
            yield Pattern(base + tail + [symbol])


def generate_candidates(
    frequent: Set[Pattern],
    frequent_symbols: Sequence[int],
    constraints: PatternConstraints,
    tracer: Optional[Tracer] = None,
) -> Set[Pattern]:
    """Apriori join + prune for the next lattice level.

    Given the frequent ``k``-patterns, produce the candidate
    ``(k+1)``-patterns: rightward extensions whose **every** immediate
    ``k``-subpattern *inside the constrained lattice* is frequent.
    Subpatterns that violate the constraints (e.g. a gapped subpattern
    of a contiguous candidate when ``max_gap = 0``) are outside the
    search space and impose no requirement.  For ``k = 1`` the frequent
    set is the 1-patterns over *frequent_symbols*.

    The join + prune runs as the packed batch kernel
    :func:`~repro.core.latticekernels.kernel_generate_candidates`.
    When *tracer* is enabled, the candidate
    count and generation time land on the ``lattice_candidates`` /
    ``candidate_gen_seconds`` counters and the per-level counts on the
    run-level ``lattice_candidates_per_level`` note.
    """
    from .latticekernels import kernel_generate_candidates

    timed = tracer is not None and tracer.enabled
    started = time.perf_counter() if timed else 0.0
    candidates = kernel_generate_candidates(
        frequent, frequent_symbols, constraints
    )
    if timed:
        tracer.count(LATTICE_CANDIDATES, len(candidates))
        tracer.count(CANDIDATE_GEN_SECONDS,
                     time.perf_counter() - started)
        per_level = tracer.root.notes.setdefault(
            "lattice_candidates_per_level", []
        )
        per_level.append(len(candidates))
    return candidates


def level_one_patterns(frequent_symbols: Iterable[int]) -> Set[Pattern]:
    """The 1-patterns for a set of frequent symbol indices."""
    return {Pattern.single(symbol) for symbol in frequent_symbols}


def immediate_superpatterns(
    pattern: Pattern,
    symbols: Sequence[int],
    constraints: PatternConstraints,
) -> Set[Pattern]:
    """All ``(k+1)``-weight super-patterns of *pattern* within bounds.

    Three moves add one symbol: append on the right (with a gap),
    prepend on the left (with a gap), or fill one existing wildcard.
    """
    result: Set[Pattern] = set()
    if pattern.weight + 1 > constraints.max_weight:
        return result
    elements = list(pattern.elements)
    # Fill an interior wildcard.
    for position, element in enumerate(elements):
        if element != WILDCARD:
            continue
        for symbol in symbols:
            filled = list(elements)
            filled[position] = symbol
            candidate = Pattern(filled)
            if constraints.admits(candidate):
                result.add(candidate)
    # Extend on the right / left.
    for gap in range(constraints.max_gap + 1):
        if pattern.span + gap + 1 > constraints.max_span:
            break
        pad = [WILDCARD] * gap
        for symbol in symbols:
            right = Pattern(elements + pad + [symbol])
            if constraints.admits(right):
                result.add(right)
            left = Pattern([symbol] + pad + elements)
            if constraints.admits(left):
                result.add(left)
    return result


def embeddings(inner: Pattern, outer: Pattern) -> List[int]:
    """All alignment offsets at which *inner* embeds into *outer*.

    An offset ``j`` is valid when every element of *inner* is ``*`` or
    equals the element of *outer* at the shifted position
    (Definition 3.3).
    """
    offsets: List[int] = []
    mine, theirs = inner.elements, outer.elements
    if len(mine) > len(theirs):
        return offsets
    for j in range(len(theirs) - len(mine) + 1):
        if all(
            e == WILDCARD or e == theirs[i + j] for i, e in enumerate(mine)
        ):
            offsets.append(j)
    return offsets


def iter_patterns_between(
    lower: Pattern, upper: Pattern, weight: int
) -> Iterator[Pattern]:
    """Yield the distinct *weight*-patterns ``P`` with
    ``lower ⊑ P ⊑ upper``.

    Every subpattern of *upper* is a projection onto a subset of its
    fixed positions; this iterates the subsets of the requested size and
    keeps those whose projection still contains *lower*.
    """
    if weight < lower.weight or weight > upper.weight:
        return
    if not lower.is_subpattern_of(upper):
        return
    fixed = [position for position, _symbol in upper.fixed_positions]
    seen: Set[Pattern] = set()
    for chosen in combinations(fixed, weight):
        candidate = upper.project(chosen)
        if candidate in seen:
            continue
        seen.add(candidate)
        if lower.is_subpattern_of(candidate):
            yield candidate


def halfway_weight(lower: Pattern, upper: Pattern) -> int:
    """The halfway level ``ceil((k1 + k2) / 2)`` of Algorithm 4.4."""
    return -(-(lower.weight + upper.weight) // 2)


def halfway_patterns(
    lower_layer: Iterable[Pattern],
    upper_layer: Iterable[Pattern],
    limit: Optional[int] = None,
) -> Set[Pattern]:
    """Algorithm 4.4: halfway patterns between two layers.

    For every comparable pair ``(P1, P2)`` with ``P1 ⊑ P2``, generates
    the patterns of weight ``ceil((w1 + w2) / 2)`` lying between them.
    When *limit* is given, stops after collecting that many patterns
    (the memory-capacity cut-off of Algorithm 4.3).
    """
    result: Set[Pattern] = set()
    uppers = list(upper_layer)
    for lower in lower_layer:
        for upper in uppers:
            if not lower.is_subpattern_of(upper):
                continue
            target = halfway_weight(lower, upper)
            for pattern in iter_patterns_between(lower, upper, target):
                result.add(pattern)
                if limit is not None and len(result) >= limit:
                    return result
    return result


def patterns_at_weight(
    border_elements: Iterable[Pattern], weight: int
) -> Set[Pattern]:
    """All *weight*-subpatterns of any of the given patterns.

    Used to slice the downward closure of a border at one lattice level.
    """
    result: Set[Pattern] = set()
    for element in border_elements:
        result |= element.subpatterns_of_weight(weight)
    return result
