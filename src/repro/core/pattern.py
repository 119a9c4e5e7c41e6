"""Sequential patterns with don't-care positions.

A pattern (Definition 3.2 of the paper) is an ordered list of elements,
each of which is either a symbol of the alphabet or the *eternal symbol*
``*`` which matches any single observed symbol.  Internally symbols are
integer indices and the eternal symbol is the sentinel :data:`WILDCARD`.

Two structural rules from the paper are enforced:

* neither the first nor the last element of a pattern may be ``*``
  (patterns with dangling wildcards are trivial duplicates);
* a pattern contains at least one non-eternal symbol.

The *weight* of a pattern is its number of non-eternal symbols (the
paper's "k" in "k-pattern"); the *span* is its total length including
wildcards (the paper's "l").
"""

from __future__ import annotations

import re
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence, Set, Tuple

from ..errors import PatternError
from .alphabet import Alphabet

#: Sentinel used for the eternal (don't care) symbol ``*``.
WILDCARD: int = -1


class Pattern:
    """An immutable sequential pattern over integer symbol indices.

    Parameters
    ----------
    elements:
        Iterable of integers; each element is a symbol index (``>= 0``)
        or :data:`WILDCARD`.

    Examples
    --------
    >>> p = Pattern([0, WILDCARD, 2])
    >>> p.span, p.weight
    (3, 2)
    >>> str(p)
    '<0 * 2>'
    """

    __slots__ = ("_elements", "_hash", "_weight", "_sig")

    def __init__(self, elements: Iterable[int]):
        elems = tuple(int(e) for e in elements)
        if not elems:
            raise PatternError("a pattern must contain at least one symbol")
        if elems[0] == WILDCARD or elems[-1] == WILDCARD:
            raise PatternError(
                "neither the first nor the last element of a pattern may be "
                f"the eternal symbol '*': {elems}"
            )
        for e in elems:
            if e < WILDCARD:
                raise PatternError(
                    "pattern elements must be symbol indices >= 0 or "
                    f"WILDCARD (-1), got {e}"
                )
        self._elements = elems
        self._hash = hash(elems)
        self._weight = len(elems) - elems.count(WILDCARD)
        self._sig: Optional[int] = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def single(cls, symbol: int) -> "Pattern":
        """The 1-pattern consisting of a single symbol index."""
        return cls((symbol,))

    @classmethod
    def from_symbols(cls, symbols: Iterable[str], alphabet: Alphabet) -> "Pattern":
        """Build a pattern from symbol names, with ``"*"`` as wildcard.

        >>> ab = Alphabet.numbered(5)
        >>> Pattern.from_symbols(["d1", "*", "d3"], ab).span
        3
        """
        elems = [
            WILDCARD if s == "*" else alphabet.index(s) for s in symbols
        ]
        return cls(elems)

    @classmethod
    def parse(cls, text: str, alphabet: Alphabet) -> "Pattern":
        """Parse a whitespace-separated pattern string, e.g. ``"d1 * d3"``."""
        tokens = text.split()
        if not tokens:
            raise PatternError("cannot parse an empty pattern string")
        return cls.from_symbols(tokens, alphabet)

    # -- basic properties --------------------------------------------------

    @property
    def elements(self) -> Tuple[int, ...]:
        """The raw element tuple (symbol indices and :data:`WILDCARD`)."""
        return self._elements

    @property
    def span(self) -> int:
        """Total pattern length *l*, wildcards included."""
        return len(self._elements)

    @property
    def weight(self) -> int:
        """Number of non-eternal symbols *k* (the paper's "k-pattern")."""
        return self._weight

    def signature64(self) -> int:
        """A 64-bit symbol-presence bitmask (bit ``symbol & 63``).

        The signature is a necessary-condition filter for subsumption:
        ``P.is_subpattern_of(Q)`` requires every symbol of ``P`` to occur
        in ``Q``, hence ``P.signature64() & ~Q.signature64() == 0`` (the
        converse does not hold — the mask folds the alphabet mod 64 and
        ignores positions).  Computed lazily and cached; the mask itself
        is a plain Python int so callers can combine it bit-wise without
        numpy round trips.
        """
        sig = self._sig
        if sig is None:
            sig = 0
            for e in self._elements:
                if e != WILDCARD:
                    sig |= 1 << (e & 63)
            self._sig = sig
        return sig

    @property
    def symbol_set(self) -> Set[int]:
        """The set of distinct non-eternal symbol indices in the pattern."""
        return {e for e in self._elements if e != WILDCARD}

    @property
    def fixed_positions(self) -> Tuple[Tuple[int, int], ...]:
        """``(offset, symbol)`` pairs for every non-eternal position."""
        return tuple(
            (i, e) for i, e in enumerate(self._elements) if e != WILDCARD
        )

    def max_gap(self) -> int:
        """Length of the longest run of consecutive wildcards."""
        longest = run = 0
        for e in self._elements:
            if e == WILDCARD:
                run += 1
                longest = max(longest, run)
            else:
                run = 0
        return longest

    # -- lattice relations --------------------------------------------------

    def is_subpattern_of(self, other: "Pattern") -> bool:
        """Definition 3.3: ``self`` is a subpattern of ``other``.

        True iff there is an alignment offset ``j`` such that every
        element of ``self`` is either ``*`` or equal to the element of
        ``other`` at the shifted position.
        """
        mine, theirs = self._elements, other._elements
        if len(mine) > len(theirs):
            return False
        for j in range(len(theirs) - len(mine) + 1):
            if all(
                e == WILDCARD or e == theirs[i + j]
                for i, e in enumerate(mine)
            ):
                return True
        return False

    def is_superpattern_of(self, other: "Pattern") -> bool:
        """Definition 3.3, reversed: ``other`` is a subpattern of ``self``."""
        return other.is_subpattern_of(self)

    def immediate_subpatterns(self) -> Set["Pattern"]:
        """All patterns obtained by dropping exactly one non-``*`` symbol.

        Dropping an interior symbol replaces it with ``*``; dropping the
        first or last symbol also strips the adjacent wildcard run so the
        result again starts and ends with a symbol.  A 1-pattern has no
        subpatterns (the empty pattern is not part of the model).
        """
        result: Set[Pattern] = set()
        if self.weight <= 1:
            return result
        elems = self._elements
        for pos, _symbol in self.fixed_positions:
            remaining = list(elems)
            remaining[pos] = WILDCARD
            # Trim any wildcard prefix/suffix created by the removal.
            start = 0
            while remaining[start] == WILDCARD:
                start += 1
            end = len(remaining)
            while remaining[end - 1] == WILDCARD:
                end -= 1
            result.add(Pattern(remaining[start:end]))
        return result

    def subpatterns_of_weight(self, weight: int) -> Set["Pattern"]:
        """All subpatterns of ``self`` with exactly *weight* symbols.

        Every subpattern of a pattern corresponds to a choice of a subset
        of its fixed positions (keeping their symbols and relative
        spacing); this enumerates the :math:`\\binom{k}{weight}` choices.
        """
        if weight < 1 or weight > self.weight:
            return set()
        fixed = self.fixed_positions
        result: Set[Pattern] = set()
        for chosen in combinations(fixed, weight):
            result.add(_pattern_from_fixed(chosen))
        return result

    def project(self, positions: Sequence[int]) -> "Pattern":
        """The subpattern keeping only the given absolute *positions*.

        Positions must refer to non-wildcard elements of ``self``.
        """
        chosen = sorted(set(int(p) for p in positions))
        if not chosen:
            raise PatternError("projection needs at least one position")
        fixed = []
        for p in chosen:
            if not 0 <= p < self.span:
                raise PatternError(f"position {p} out of range for {self}")
            if self._elements[p] == WILDCARD:
                raise PatternError(
                    f"cannot project onto wildcard position {p} of {self}"
                )
            fixed.append((p, self._elements[p]))
        return _pattern_from_fixed(tuple(fixed))

    # -- dunder -------------------------------------------------------------

    def to_string(self, alphabet: Optional[Alphabet] = None) -> str:
        """Human-readable rendering, with symbol names when given."""
        if alphabet is None:
            parts = ["*" if e == WILDCARD else str(e) for e in self._elements]
        else:
            parts = [
                "*" if e == WILDCARD else alphabet.symbol(e)
                for e in self._elements
            ]
        return " ".join(parts)

    def to_regex(self, alphabet: Alphabet) -> str:
        """Regular-expression rendering of the pattern.

        The paper notes the eternal symbol "is equivalent to the symbol
        '.' used in regular expression"; this emits exactly that, so a
        pattern can be grepped against raw symbol text.  Consecutive
        wildcards compress to ``.{n}`` and symbol names longer than one
        character are wrapped in a non-capturing group.

        >>> from repro.core.alphabet import Alphabet
        >>> ab = Alphabet.amino_acids()
        >>> Pattern.parse("C * * C H", ab).to_regex(ab)
        'C.{2}CH'
        """
        parts: List[str] = []
        run = 0
        for element in self._elements:
            if element == WILDCARD:
                run += 1
                continue
            if run:
                parts.append("." if run == 1 else f".{{{run}}}")
                run = 0
            name = alphabet.symbol(element)
            if len(name) == 1 and name.isalnum():
                parts.append(name)
            else:
                parts.append(f"(?:{re.escape(name)})")
        return "".join(parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def __getitem__(self, index: int) -> int:
        return self._elements[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return self._elements == other._elements

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self) -> Tuple[int, int, Tuple[int, ...]]:
        """``(weight, span, elements)``: the key of the patterns' total
        order.  ``sorted(patterns, key=Pattern.sort_key)`` gives the
        order ``sorted(patterns)`` gives, with one key per pattern
        instead of a ``__lt__`` call per comparison."""
        return (self._weight, len(self._elements), self._elements)

    def __lt__(self, other: "Pattern") -> bool:
        # A stable total order (weight, then span, then elements) so that
        # pattern collections sort deterministically in reports and tests.
        if not isinstance(other, Pattern):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return f"Pattern({self.to_string()!r})"

    def __str__(self) -> str:
        inner = " ".join(
            "*" if e == WILDCARD else str(e) for e in self._elements
        )
        return f"<{inner}>"


def _pattern_from_fixed(fixed: Tuple[Tuple[int, int], ...]) -> Pattern:
    """Build a pattern from ``(absolute position, symbol)`` pairs.

    The result spans from the first to the last chosen position, with
    wildcards in between, preserving the relative spacing.
    """
    first = fixed[0][0]
    last = fixed[-1][0]
    elems = [WILDCARD] * (last - first + 1)
    for pos, symbol in fixed:
        elems[pos - first] = symbol
    return Pattern(elems)
