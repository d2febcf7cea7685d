"""Connected-components clustering of match edges into entity ids.

The matcher emits pairwise decisions; deduplication needs a partition.
The bridge is transitive closure: records joined by any chain of match
edges share one entity.  :class:`UnionFind` maintains that closure
incrementally (so the dedupe pipeline can fold in edges batch by batch
without holding the full edge list), and :func:`connected_components`
is the one-shot form.  Entity ids are *stable*: each cluster is labeled
by its minimum record index, so the same edge set always yields the
same ids regardless of edge arrival order.

:func:`adjusted_rand_index` scores a recovered clustering against gold
(Hubert & Arabie 1985) — 1.0 is exact recovery, ~0.0 is chance level.
:func:`pairwise_scores` gives the pairwise precision, recall and F1 of
the record pairs a clustering places together.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

__all__ = ["UnionFind", "connected_components", "adjusted_rand_index",
           "pairwise_scores"]


class UnionFind:
    """Disjoint sets over ``0 .. size-1`` with path compression.

    Union by size keeps find amortized near-constant; labeling is
    deferred to :meth:`labels`, which canonicalizes every cluster to
    its minimum member so output is independent of union order.
    """

    def __init__(self, size: int):
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        self._parent = list(range(size))
        self._size = [1] * size

    def __len__(self) -> int:
        return len(self._parent)

    def find(self, index: int) -> int:
        root = index
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[index] != root:
            self._parent[index], index = root, self._parent[index]
        return root

    def union(self, a: int, b: int) -> bool:
        """Join the sets of ``a`` and ``b``; True if they were separate."""
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return False
        if self._size[root_a] < self._size[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._size[root_a] += self._size[root_b]
        return True

    def connected(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def labels(self) -> list[int]:
        """Entity id per record: the minimum index in its cluster."""
        minimum: dict[int, int] = {}
        for index in range(len(self._parent)):
            root = self.find(index)
            if root not in minimum or index < minimum[root]:
                minimum[root] = index
        return [minimum[self.find(index)]
                for index in range(len(self._parent))]


def connected_components(size: int,
                         edges: Iterable[tuple[int, int]]) -> list[int]:
    """Stable entity ids from an edge set (transitive closure)."""
    forest = UnionFind(size)
    for a, b in edges:
        forest.union(a, b)
    return forest.labels()


def _together(labels: Iterable) -> int:
    """Item pairs that share a label."""
    return sum(count * (count - 1) // 2
               for count in Counter(labels).values())


def pairwise_scores(predicted: list[int],
                    gold: list[int]) -> tuple[float, float, float]:
    """Pairwise ``(precision, recall, f1)`` of a clustering against gold.

    A record pair counts as predicted when ``predicted`` puts both in one
    cluster, and as true when ``gold`` does; a side with no pairs scores
    1.0 (nothing claimed, or nothing to find).
    """
    if len(predicted) != len(gold):
        raise ValueError(
            f"clusterings disagree on size: {len(predicted)} vs "
            f"{len(gold)}")
    both = _together(zip(predicted, gold))
    claimed, true = _together(predicted), _together(gold)
    precision = both / claimed if claimed else 1.0
    recall = both / true if true else 1.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return precision, recall, f1


def adjusted_rand_index(labels_a: list[int], labels_b: list[int]) -> float:
    """Chance-corrected agreement of two clusterings of the same items."""
    if len(labels_a) != len(labels_b):
        raise ValueError(
            f"clusterings disagree on size: {len(labels_a)} vs "
            f"{len(labels_b)}")
    n = len(labels_a)
    if n < 2:
        return 1.0
    index = _together(zip(labels_a, labels_b))
    sum_a = _together(labels_a)
    sum_b = _together(labels_b)
    total = n * (n - 1) // 2
    expected = sum_a * sum_b / total if total else 0.0
    maximum = (sum_a + sum_b) / 2.0
    if maximum == expected:
        return 1.0
    return (index - expected) / (maximum - expected)
