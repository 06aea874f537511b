"""Tests for the frozen multiset."""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.multiset import FrozenMultiset


class TestConstruction:
    def test_from_iterable(self):
        ms = FrozenMultiset("abca")
        assert ms["a"] == 2
        assert ms["b"] == 1
        assert ms["z"] == 0

    def test_from_mapping_drops_zeros(self):
        ms = FrozenMultiset({"a": 2, "b": 0})
        assert "b" not in ms
        assert ms == FrozenMultiset("aa")

    def test_negative_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            FrozenMultiset({"a": -1})

    def test_total(self):
        assert FrozenMultiset("aabbb").total == 5
        assert FrozenMultiset().total == 0


class TestEqualityHashing:
    def test_order_irrelevant(self):
        assert FrozenMultiset("abc") == FrozenMultiset("cba")
        assert hash(FrozenMultiset("abc")) == hash(FrozenMultiset("cba"))

    def test_multiplicity_matters(self):
        assert FrozenMultiset("ab") != FrozenMultiset("abb")

    def test_usable_as_dict_key(self):
        d = {FrozenMultiset("ab"): 1}
        assert d[FrozenMultiset("ba")] == 1

    @given(st.lists(st.integers(0, 5)))
    def test_equal_iff_same_counts(self, items):
        a = FrozenMultiset(items)
        b = FrozenMultiset(reversed(items))
        assert a == b
        assert hash(a) == hash(b)

    @given(st.lists(st.sampled_from("abcdef"), max_size=300))
    def test_every_input_kind_counts_alike(self, items):
        expected = dict(Counter(items))
        built = [FrozenMultiset(items), FrozenMultiset(tuple(items)),
                 FrozenMultiset(iter(items)), FrozenMultiset(Counter(items))]
        for ms in built:
            assert ms.counts() == expected
            assert ms.total == len(items)
            assert ms == built[0]
            assert hash(ms) == hash(frozenset(expected.items()))


class TestOperations:
    def test_add_remove_roundtrip(self):
        ms = FrozenMultiset("ab")
        assert ms.add("c").remove("c") == ms

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            FrozenMultiset("ab").remove("z")

    def test_remove_too_many_raises(self):
        with pytest.raises(KeyError):
            FrozenMultiset("ab").remove("a", 2)

    def test_replace_pair(self):
        ms = FrozenMultiset("aab")
        after = ms.replace_pair(("a", "a"), ("b", "c"))
        assert after == FrozenMultiset("bbc")

    def test_replace_pair_needs_both(self):
        ms = FrozenMultiset("ab")
        with pytest.raises(KeyError):
            ms.replace_pair(("a", "a"), ("b", "b"))

    def test_replace_pair_same_element_needs_two(self):
        ms = FrozenMultiset("a")
        with pytest.raises(KeyError):
            ms.replace_pair(("a", "a"), ("b", "b"))

    def test_replace_pair_preserves_total(self):
        ms = FrozenMultiset("aabbc")
        after = ms.replace_pair(("a", "b"), ("c", "c"))
        assert after.total == ms.total

    def test_elements(self):
        assert sorted(FrozenMultiset("aba").elements()) == ["a", "a", "b"]

    def test_union_add(self):
        assert FrozenMultiset("ab").union_add(FrozenMultiset("bc")) == \
            FrozenMultiset("abbc")

    @given(st.lists(st.integers(0, 3), min_size=2),
           st.integers(0, 3), st.integers(0, 3))
    def test_replace_pair_total_invariant(self, items, x, y):
        ms = FrozenMultiset(items)
        old = (items[0], items[1])
        if old[0] == old[1] and ms[old[0]] < 2:
            return
        after = ms.replace_pair(old, (x, y))
        assert after.total == ms.total

    def test_counts_is_fresh_copy(self):
        ms = FrozenMultiset("ab")
        counts = ms.counts()
        counts["a"] = 99
        assert ms["a"] == 1
