"""Borders of pattern collections (Mannila & Toivonen's notion).

The Apriori property makes the set of frequent patterns *downward
closed* in the sub-pattern lattice, so it is fully described by its
**border**: the antichain of maximal elements.  The paper uses two such
borders, FQT (frequent / ambiguous boundary) and INFQT (ambiguous /
infrequent boundary), and Phase 3 collapses the gap between them.

:class:`Border` maintains a maximal antichain: adding a pattern that is
already covered is a no-op, and adding a new maximal pattern evicts any
member it dominates.  ``covers(p)`` answers "is ``p`` in the downward
closure?" — i.e. "is ``p`` frequent according to this border?".

Both the coverage query and the dominated sweep prefilter each member
with its cached 64-bit symbol signature and span (see
:mod:`repro.core.latticekernels`) before paying for a positional
``is_subpattern_of`` — an exact filter (a necessary condition for
containment), so results equal the plain pairwise scan.  A tracer,
when attached, receives the ``subsumption_checks`` /
``subsumption_skipped`` traffic.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Set

from ..obs import SUBSUMPTION_CHECKS, SUBSUMPTION_SKIPPED, Tracer
from .pattern import Pattern


class Border:
    """A maximal antichain describing a downward-closed pattern family.

    Elements are bucketed by weight so coverage queries only test
    border elements at least as heavy as the query pattern (a pattern
    can only be a subpattern of an equal-or-heavier one).

    Parameters
    ----------
    patterns:
        Initial members, added one by one (so the invariant holds from
        the start).
    tracer:
        Optional :class:`repro.obs.Tracer` receiving the subsumption
        counter traffic.
    """

    __slots__ = ("_elements", "_by_weight", "_tracer")

    def __init__(
        self,
        patterns: Iterable[Pattern] = (),
        tracer: Optional[Tracer] = None,
    ):
        self._elements: Set[Pattern] = set()
        self._by_weight: dict = {}
        self._tracer = tracer if tracer is not None and tracer.enabled else None
        for pattern in patterns:
            self.add(pattern)

    def add(self, pattern: Pattern) -> bool:
        """Insert *pattern*, keeping the antichain maximal.

        Returns ``True`` when the border changed (the pattern was not
        already covered by an existing element).
        """
        if self.covers(pattern):
            return False
        for member in self._dominated(pattern):
            self._discard(member)
        self._elements.add(pattern)
        self._by_weight.setdefault(pattern.weight, set()).add(pattern)
        return True

    def _dominated(self, pattern: Pattern) -> list:
        """The members *pattern* dominates, found with the
        signature/span prefilter.

        A member can only be a subpattern of *pattern* if it is no
        longer, no heavier (the bucket test) and uses no symbol absent
        from *pattern* — all checked before the positional scan.
        """
        sig = pattern.signature64()
        span = pattern.span
        checks = skipped = 0
        dominated = []
        for weight, bucket in self._by_weight.items():
            if weight > pattern.weight:
                continue
            for member in bucket:
                if member.span > span or member.signature64() & ~sig:
                    skipped += 1
                    continue
                checks += 1
                if member.is_subpattern_of(pattern):
                    dominated.append(member)
        tracer = self._tracer
        if tracer is not None:
            tracer.count(SUBSUMPTION_CHECKS, checks)
            tracer.count(SUBSUMPTION_SKIPPED, skipped)
        return dominated

    def _discard(self, pattern: Pattern) -> None:
        self._elements.discard(pattern)
        bucket = self._by_weight.get(pattern.weight)
        if bucket is not None:
            bucket.discard(pattern)
            if not bucket:
                del self._by_weight[pattern.weight]

    def covers(self, pattern: Pattern) -> bool:
        """True iff *pattern* lies in the downward closure of the border.

        Each member is prefiltered by signature and span before the
        positional check.
        """
        sig = pattern.signature64()
        span = pattern.span
        weight = pattern.weight
        checks = skipped = 0
        found = False
        for member_weight, bucket in self._by_weight.items():
            if member_weight < weight:
                continue
            for member in bucket:
                if span > member.span or sig & ~member.signature64():
                    skipped += 1
                    continue
                checks += 1
                if pattern.is_subpattern_of(member):
                    found = True
                    break
            if found:
                break
        tracer = self._tracer
        if tracer is not None:
            tracer.count(SUBSUMPTION_CHECKS, checks)
            tracer.count(SUBSUMPTION_SKIPPED, skipped)
        return found

    def update(self, patterns: Iterable[Pattern]) -> None:
        """Add every pattern in *patterns*."""
        for pattern in patterns:
            self.add(pattern)

    def copy(self, tracer: Optional[Tracer] = None) -> "Border":
        """A deep-enough copy (shared immutable members, fresh buckets).

        *tracer* rebinds the observability sink (e.g. Phase 3 copying
        the Phase-2 FQT border wants the counters on its own spans),
        ``None`` keeps the current one.
        """
        clone = Border()
        clone._elements = set(self._elements)
        clone._by_weight = {
            weight: set(bucket)
            for weight, bucket in self._by_weight.items()
        }
        if tracer is not None:
            clone._tracer = tracer if tracer.enabled else None
        else:
            clone._tracer = self._tracer
        return clone

    # -- queries -------------------------------------------------------------

    @property
    def elements(self) -> Set[Pattern]:
        """The border elements (maximal patterns)."""
        return set(self._elements)

    def max_weight(self) -> int:
        """Weight of the heaviest border element (0 for an empty border)."""
        if not self._elements:
            return 0
        return max(p.weight for p in self._elements)

    def downward_closure(self) -> Set[Pattern]:
        """Materialise every pattern covered by the border.

        Exponential in border-element weight; intended for tests and
        small exact computations, not for production mining.
        """
        closure: Set[Pattern] = set()
        frontier = list(self._elements)
        while frontier:
            pattern = frontier.pop()
            if pattern in closure:
                continue
            closure.add(pattern)
            frontier.extend(pattern.immediate_subpatterns())
        return closure

    def level_distance(self, other: "Border") -> float:
        """Average lattice-level gap from this border to *other*.

        For each element of ``self``, the distance to the closest
        (by weight difference) comparable element of *other*; elements
        with no comparable counterpart contribute their own weight.
        Used to reproduce Figure 14(c): how far the final border lies
        from the border estimated on the sample.
        """
        if not self._elements:
            return 0.0
        total = 0.0
        for mine in self._elements:
            gaps = [
                abs(mine.weight - theirs.weight)
                for theirs in other._elements
                if mine.is_subpattern_of(theirs)
                or theirs.is_subpattern_of(mine)
            ]
            total += min(gaps) if gaps else mine.weight
        return total / len(self._elements)

    # -- container protocol ----------------------------------------------------

    def __iter__(self) -> Iterator[Pattern]:
        return iter(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, pattern: object) -> bool:
        return pattern in self._elements

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Border):
            return NotImplemented
        return self._elements == other._elements

    def __repr__(self) -> str:
        sample = ", ".join(str(p) for p in sorted(self._elements)[:4])
        suffix = ", ..." if len(self._elements) > 4 else ""
        return f"Border([{sample}{suffix}], size={len(self._elements)})"


def border_from_frequent(frequent: Iterable[Pattern]) -> Border:
    """Build the border of an explicitly enumerated frequent-pattern set."""
    return Border(frequent)
