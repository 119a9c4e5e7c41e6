"""Unit tests for repro.core.pattern (Definitions 3.2 and 3.3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Alphabet, Pattern, PatternError, WILDCARD

from .strategies import patterns


class TestConstruction:
    def test_simple_pattern(self):
        p = Pattern([0, 1, 2])
        assert p.span == 3
        assert p.weight == 3

    def test_wildcard_interior(self):
        p = Pattern([0, WILDCARD, 2])
        assert p.span == 3
        assert p.weight == 2

    def test_empty_pattern_rejected(self):
        with pytest.raises(PatternError):
            Pattern([])

    def test_leading_wildcard_rejected(self):
        with pytest.raises(PatternError):
            Pattern([WILDCARD, 0])

    def test_trailing_wildcard_rejected(self):
        with pytest.raises(PatternError):
            Pattern([0, WILDCARD])

    def test_all_wildcard_rejected(self):
        with pytest.raises(PatternError):
            Pattern([WILDCARD])

    def test_invalid_element_rejected(self):
        with pytest.raises(PatternError):
            Pattern([0, -2, 1])

    def test_single(self):
        assert Pattern.single(4).elements == (4,)

    def test_from_symbols_and_parse(self):
        ab = Alphabet.numbered(5)
        assert Pattern.from_symbols(["d1", "*", "d3"], ab) == Pattern(
            [0, WILDCARD, 2]
        )
        assert Pattern.parse("d1 * d3", ab) == Pattern([0, WILDCARD, 2])

    def test_parse_empty_rejected(self):
        ab = Alphabet.numbered(5)
        with pytest.raises(PatternError):
            Pattern.parse("   ", ab)

    def test_zinc_finger_signature(self):
        # The paper's C **C ************ H **H example (Section 3).
        ab = Alphabet.amino_acids()
        text = "C * * C " + "* " * 12 + "H * * H"
        p = Pattern.parse(text, ab)
        assert p.weight == 4
        assert p.span == 20
        assert p.max_gap() == 12


class TestProperties:
    def test_fixed_positions(self):
        p = Pattern([5, WILDCARD, WILDCARD, 7])
        assert p.fixed_positions == ((0, 5), (3, 7))

    def test_symbol_set(self):
        assert Pattern([1, WILDCARD, 2, 1]).symbol_set == {1, 2}

    def test_max_gap(self):
        assert Pattern([0, 1]).max_gap() == 0
        assert Pattern([0, WILDCARD, 1]).max_gap() == 1
        assert Pattern([0, WILDCARD, WILDCARD, 1, WILDCARD, 1]).max_gap() == 2

    def test_string_rendering(self):
        ab = Alphabet.numbered(5)
        p = Pattern([0, WILDCARD, 2])
        assert p.to_string() == "0 * 2"
        assert p.to_string(ab) == "d1 * d3"
        assert str(p) == "<0 * 2>"

    def test_sequence_protocol(self):
        p = Pattern([3, WILDCARD, 4])
        assert len(p) == 3
        assert list(p) == [3, WILDCARD, 4]
        assert p[0] == 3
        assert p[1] == WILDCARD


class TestSubpatternRelation:
    """Definition 3.3 and the paper's own examples."""

    def test_paper_example_positive(self):
        # d1 * d3 and d1 * * d4 d5 are subpatterns of d1 * d3 d4 d5.
        big = Pattern([0, WILDCARD, 2, 3, 4])
        assert Pattern([0, WILDCARD, 2]).is_subpattern_of(big)
        assert Pattern([0, WILDCARD, WILDCARD, 3, 4]).is_subpattern_of(big)

    def test_paper_example_negative(self):
        # ... but d1 d2 is not.
        big = Pattern([0, WILDCARD, 2, 3, 4])
        assert not Pattern([0, 1]).is_subpattern_of(big)

    def test_prefix_and_suffix_drop(self):
        big = Pattern([1, 2, 3])
        assert Pattern([1, 2]).is_subpattern_of(big)
        assert Pattern([2, 3]).is_subpattern_of(big)
        assert Pattern([2]).is_subpattern_of(big)

    def test_alignment_with_offset(self):
        big = Pattern([9, 1, WILDCARD, 3, 9])
        assert Pattern([1, WILDCARD, 3]).is_subpattern_of(big)

    def test_wildcard_in_sub_matches_symbol_in_super(self):
        assert Pattern([1, WILDCARD, 3]).is_subpattern_of(Pattern([1, 2, 3]))

    def test_symbol_in_sub_does_not_match_wildcard_in_super(self):
        assert not Pattern([1, 2, 3]).is_subpattern_of(
            Pattern([1, WILDCARD, 3])
        )

    def test_reflexive(self):
        p = Pattern([1, WILDCARD, 2])
        assert p.is_subpattern_of(p)

    def test_longer_never_subpattern_of_shorter(self):
        assert not Pattern([1, 2, 3]).is_subpattern_of(Pattern([1, 2]))

    def test_superpattern_is_inverse(self):
        small, big = Pattern([1, 2]), Pattern([0, 1, 2])
        assert big.is_superpattern_of(small)
        assert not small.is_superpattern_of(big)


class TestImmediateSubpatterns:
    def test_weight_one_has_none(self):
        assert Pattern([3]).immediate_subpatterns() == set()

    def test_contiguous_pattern(self):
        subs = Pattern([1, 2, 3]).immediate_subpatterns()
        assert subs == {
            Pattern([2, 3]),          # drop first
            Pattern([1, WILDCARD, 3]),  # mask middle
            Pattern([1, 2]),          # drop last
        }

    def test_dropping_edge_strips_wildcard_run(self):
        subs = Pattern([1, WILDCARD, 2, 3]).immediate_subpatterns()
        assert Pattern([2, 3]) in subs  # dropping 1 strips the gap too
        assert Pattern([1, WILDCARD, 2]) in subs

    def test_every_immediate_subpattern_is_subpattern(self):
        p = Pattern([4, WILDCARD, 5, 6, WILDCARD, 7])
        for sub in p.immediate_subpatterns():
            assert sub.is_subpattern_of(p)
            assert sub.weight == p.weight - 1

    def test_duplicate_symbols_deduplicate(self):
        subs = Pattern([1, 1]).immediate_subpatterns()
        assert subs == {Pattern([1])}


class TestSubpatternsOfWeight:
    def test_full_weight_is_self(self):
        p = Pattern([1, 2, 3])
        assert p.subpatterns_of_weight(3) == {p}

    def test_weight_out_of_range_is_empty(self):
        p = Pattern([1, 2])
        assert p.subpatterns_of_weight(0) == set()
        assert p.subpatterns_of_weight(3) == set()

    def test_counts_match_combinations(self):
        p = Pattern([1, 2, 3, 4])  # distinct symbols -> no dedup
        assert len(p.subpatterns_of_weight(2)) == 6
        assert len(p.subpatterns_of_weight(1)) == 4

    def test_all_are_subpatterns(self):
        p = Pattern([1, WILDCARD, 2, 3])
        for k in (1, 2, 3):
            for sub in p.subpatterns_of_weight(k):
                assert sub.weight == k
                assert sub.is_subpattern_of(p)


class TestProjection:
    def test_project_keeps_spacing(self):
        p = Pattern([1, 2, 3, 4])
        assert p.project([0, 2]) == Pattern([1, WILDCARD, 3])

    def test_project_onto_wildcard_rejected(self):
        p = Pattern([1, WILDCARD, 2])
        with pytest.raises(PatternError):
            p.project([1])

    def test_project_out_of_range_rejected(self):
        with pytest.raises(PatternError):
            Pattern([1, 2]).project([5])

    def test_project_empty_rejected(self):
        with pytest.raises(PatternError):
            Pattern([1, 2]).project([])


class TestValueSemantics:
    def test_hash_and_equality(self):
        assert Pattern([1, WILDCARD, 2]) == Pattern([1, WILDCARD, 2])
        assert hash(Pattern([1, 2])) == hash(Pattern([1, 2]))
        assert Pattern([1, 2]) != Pattern([2, 1])

    def test_ordering_is_total_and_stable(self):
        patterns = [Pattern([2]), Pattern([1, 2]), Pattern([1]),
                    Pattern([1, WILDCARD, 2])]
        ordered = sorted(patterns)
        weights = [p.weight for p in ordered]
        assert weights == sorted(weights)

    @given(st.lists(patterns(), max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_sort_key_orders_as_lt_does(self, batch):
        assert sorted(batch, key=Pattern.sort_key) == sorted(batch)
        for a, b in zip(batch, batch[1:]):
            assert (a < b) == (a.sort_key() < b.sort_key())

    def test_repr_round_trip_info(self):
        assert "1 * 2" in repr(Pattern([1, WILDCARD, 2]))


class TestToRegex:
    def test_zinc_finger_signature(self):
        ab = Alphabet.amino_acids()
        assert Pattern.parse("C * * C H", ab).to_regex(ab) == "C.{2}CH"

    def test_single_wildcard_is_dot(self):
        ab = Alphabet.amino_acids()
        assert Pattern.parse("A * M", ab).to_regex(ab) == "A.M"

    def test_multichar_symbols_are_escaped_groups(self):
        ab = Alphabet(["oat-milk", "jam"])
        regex = Pattern.parse("oat-milk * jam", ab).to_regex(ab)
        assert regex == r"(?:oat\-milk).(?:jam)"

    def test_regex_actually_matches_occurrences(self):
        import re

        ab = Alphabet.amino_acids()
        pattern = Pattern.parse("C * * C H", ab)
        regex = re.compile(pattern.to_regex(ab))
        assert regex.search("AAACXYCHAAA")
        assert not regex.search("AAACXYCAAAA")
