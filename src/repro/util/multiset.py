"""Hashable frozen multisets.

Population configurations over the complete interaction graph are naturally
multisets of states (Sect. 4.4 of the paper represents a configuration by
``|Q|`` counters).  :class:`FrozenMultiset` is the canonical, hashable
representation used by the exact-analysis machinery and the multiset
simulation engine.
"""

from __future__ import annotations

from collections import _count_elements
from collections.abc import Hashable, Iterable, Iterator, Mapping
from typing import TypeVar

T = TypeVar("T", bound=Hashable)


class FrozenMultiset(Mapping):
    """An immutable multiset with value-based equality and hashing.

    Elements map to positive integer multiplicities.  Zero-count entries are
    dropped on construction, so two multisets are equal iff they contain the
    same elements with the same multiplicities.
    """

    __slots__ = ("_counts", "_hash", "_total")

    def __init__(self, items: Iterable[T] | Mapping[T, int] = ()):
        kind = type(items)
        if kind is list or kind is tuple or not isinstance(items, Mapping):
            # ``_count_elements`` is the C counting loop behind ``Counter``
            # (stdlib since 3.2); called directly it skips Counter's set-up
            # and, for the engines' list snapshots, the Mapping ABC check.
            counts: dict = {}
            _count_elements(counts, items)
        else:
            counts = {k: int(v) for k, v in items.items() if v != 0}
            for value, count in counts.items():
                if count < 0:
                    raise ValueError(
                        f"negative multiplicity {count} for {value!r}")
        self._counts = counts
        self._total = sum(counts.values())
        #: Computed on first use: most snapshots are never hashed.
        self._hash = None

    # -- Mapping interface -------------------------------------------------

    def __getitem__(self, item: T) -> int:
        return self._counts.get(item, 0)

    def __iter__(self) -> Iterator[T]:
        return iter(self._counts)

    def __len__(self) -> int:
        """Number of *distinct* elements."""
        return len(self._counts)

    def __contains__(self, item: object) -> bool:
        return item in self._counts

    # -- Multiset semantics -------------------------------------------------

    @property
    def total(self) -> int:
        """Total multiplicity (the population size for a configuration)."""
        return self._total

    def elements(self) -> Iterator[T]:
        """Iterate over elements with multiplicity (like Counter.elements)."""
        for value, count in self._counts.items():
            for _ in range(count):
                yield value

    def counts(self) -> dict[T, int]:
        """A fresh mutable dict of element -> multiplicity."""
        return dict(self._counts)

    def add(self, item: T, count: int = 1) -> "FrozenMultiset":
        """Return a new multiset with ``count`` more copies of ``item``."""
        counts = dict(self._counts)
        counts[item] = counts.get(item, 0) + count
        return FrozenMultiset(counts)

    def remove(self, item: T, count: int = 1) -> "FrozenMultiset":
        """Return a new multiset with ``count`` fewer copies of ``item``.

        Raises :class:`KeyError` if the multiset does not contain enough
        copies.
        """
        have = self._counts.get(item, 0)
        if have < count:
            raise KeyError(f"cannot remove {count} x {item!r}; only {have} present")
        counts = dict(self._counts)
        counts[item] = have - count
        return FrozenMultiset(counts)

    def replace_pair(self, old: tuple[T, T], new: tuple[T, T]) -> "FrozenMultiset":
        """Return the multiset after one interaction ``old -> new``.

        This is the configuration-level effect of one encounter: two agents
        in states ``old`` move to states ``new``.
        """
        counts = dict(self._counts)
        for item in old:
            have = counts.get(item, 0)
            if have <= 0:
                raise KeyError(f"state {item!r} not present for interaction")
            counts[item] = have - 1
        for item in new:
            counts[item] = counts.get(item, 0) + 1
        return FrozenMultiset(counts)

    def union_add(self, other: "FrozenMultiset") -> "FrozenMultiset":
        """Multiset sum (multiplicities add)."""
        counts = dict(self._counts)
        for value, count in other.items():
            counts[value] = counts.get(value, 0) + count
        return FrozenMultiset(counts)

    # -- Dunder plumbing ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FrozenMultiset):
            return self._counts == other._counts
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._counts.items()))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{v!r}: {c}" for v, c in sorted(
            self._counts.items(), key=lambda kv: repr(kv[0])))
        return f"FrozenMultiset({{{inner}}})"


def multiset_from_counts(counts: Mapping[T, int]) -> FrozenMultiset:
    """Build a :class:`FrozenMultiset` from an element -> multiplicity map."""
    return FrozenMultiset(counts)
