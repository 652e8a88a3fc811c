"""Skew constraint specifications and group association bookkeeping.

The problem formulation (Chapter II) attaches a skew constraint only to pairs
of sinks in the same group.  :class:`SkewConstraints` stores the per-group
bound (the paper uses a single 10 ps bound for every group, mirroring its
EXT-BST configuration); :class:`GroupAssociation` is a small union-find that
records which groups have become *associated* -- their relative skews fixed --
as cross-group merges happen, which the experiments report as a by-product
(the "offsets" of the original associative-skew paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.delay.technology import Technology

__all__ = ["SkewConstraints", "GroupAssociation"]


@dataclass(frozen=True)
class SkewConstraints:
    """Intra-group skew bounds, in internal time units (femtoseconds).

    ``default_bound`` applies to every group that has no entry in
    ``per_group``.  Inter-group skew is always unconstrained -- that is the
    definition of the associative skew problem.
    """

    default_bound: float = 0.0
    per_group: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.default_bound < 0.0:
            raise ValueError("skew bounds must be non-negative")
        for group, bound in self.per_group.items():
            if bound < 0.0:
                raise ValueError("skew bound for group %r is negative" % (group,))

    def bound_for(self, group: int) -> float:
        """The intra-group skew bound applying to ``group``."""
        return self.per_group.get(group, self.default_bound)

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero_skew(cls) -> "SkewConstraints":
        """Exact zero skew within every group (greedy-DME's constraint)."""
        return cls(default_bound=0.0)

    @classmethod
    def bounded_ps(cls, picoseconds: float) -> "SkewConstraints":
        """A uniform bound given in picoseconds (the paper uses 10 ps)."""
        return cls(default_bound=Technology.ps_to_internal(picoseconds))

    @classmethod
    def per_group_ps(cls, bounds_ps: Dict[int, float], default_ps: float = 0.0) -> "SkewConstraints":
        """Different bounds per group, given in picoseconds."""
        return cls(
            default_bound=Technology.ps_to_internal(default_ps),
            per_group={g: Technology.ps_to_internal(b) for g, b in bounds_ps.items()},
        )


class GroupAssociation:
    """Union-find over sink groups recording which inter-group skews are fixed.

    Merging two subtrees that both contain sinks (directly or transitively)
    determines the skew between every pair of groups spanning the merge; the
    algorithm itself does not need this information (the per-subtree delay
    intervals already carry it), but the experiments report the association
    order and the final offsets, so the router maintains this structure.
    """

    def __init__(self, groups: Optional[Iterable[int]] = None) -> None:
        self._parent: Dict[int, int] = {}
        self._rank: Dict[int, int] = {}
        #: Number of association classes (registered groups minus joins).
        self.num_classes = 0
        self.association_events: List[tuple] = []
        for group in groups or []:
            self.add(group)

    def add(self, group: int) -> None:
        """Register a group (idempotent)."""
        if group not in self._parent:
            self._parent[group] = group
            self._rank[group] = 0
            self.num_classes += 1

    def find(self, group: int) -> int:
        """Representative of the association class containing ``group``."""
        self.add(group)
        root = group
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[group] != root:
            self._parent[group], group = root, self._parent[group]
        return root

    def associate(self, group_a: int, group_b: int) -> bool:
        """Record that the skew between two groups is now determined.

        Returns True when the call actually joined two previously independent
        classes (and logs the event), False when they were already associated.
        """
        root_a = self.find(group_a)
        root_b = self.find(group_b)
        if root_a == root_b:
            return False
        if self._rank[root_a] < self._rank[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self.num_classes -= 1
        if self._rank[root_a] == self._rank[root_b]:
            self._rank[root_a] += 1
        self.association_events.append((group_a, group_b))
        return True

    def associated(self, group_a: int, group_b: int) -> bool:
        """Whether the skew between the two groups has been determined."""
        return self.find(group_a) == self.find(group_b)

    def classes(self) -> List[List[int]]:
        """The current association classes, each sorted, in sorted order."""
        buckets: Dict[int, List[int]] = {}
        for group in self._parent:
            buckets.setdefault(self.find(group), []).append(group)
        return sorted(sorted(members) for members in buckets.values())

    def __len__(self) -> int:
        return len(self._parent)
