"""Lazy split resolution: a one-step-lookahead model of SDR merging regions.

When AST-DME merges two subtrees from *different* groups (Chapter V.D), the
paper keeps the whole shortest-distance region (SDR) between the two child
loci as the merging region: any point of the SDR costs the same wire for this
merge, and the freedom is spent later, when the next merge (or the source
connection) determines which part of the corridor is actually convenient.

A faithful polygon-and-delay-function implementation of BST regions is heavy;
this module implements the dominant first-order effect instead.  The split of
an unconstrained merge -- how much of the corridor lies on each side -- is
recorded as *pending* instead of being committed.  The pending split is
resolved lazily, at the moment the merged subtree is about to participate in
its next merge, by choosing the split whose placement locus is closest to the
new partner (ties broken towards the delay-balanced split; the corridor scan
is :func:`repro.core.merge_batch.resolve_splits`, which resolves a whole
pass's pendings per call).  Because the two sides of an unconstrained merge
share no sink group, re-choosing the split shifts every group on one side
rigidly and can never violate an intra-group constraint; the total wire of
the pending merge is the corridor length for every split, so wirelength
bookkeeping is unaffected as well.

DESIGN.md documents this as the substitution for full BST merging regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.merge_batch import resolve_splits
from repro.core.subtree import Subtree
from repro.delay.technology import Technology
from repro.delay.wire import wire_delay
from repro.geometry.sdr import merge_locus
from repro.geometry.trr import Trr

__all__ = [
    "PendingSplit",
    "make_pending",
    "resolve_pending",
    "resolve_pendings",
    "resolution_for_target",
]


@dataclass
class PendingSplit:
    """A cross-group merge whose split along the corridor is still free."""

    child_a_id: int
    child_b_id: int
    locus_a: Trr
    locus_b: Trr
    distance: float
    cap_a: float
    cap_b: float
    delays_a: Dict[int, Tuple[float, float]]
    delays_b: Dict[int, Tuple[float, float]]
    #: The delay-balanced split (wire towards child a), used as the tie-breaker.
    balance_split: float

    def locus_at(self, split: float) -> Trr:
        """Placement locus of the merge node for a given split."""
        split = min(max(split, 0.0), self.distance)
        locus = merge_locus(self.locus_a, self.locus_b, split, self.distance - split)
        if locus is None:  # pragma: no cover - defensive, cannot happen for valid splits
            raise RuntimeError("pending split produced an empty locus")
        return locus

    def delays_at(self, split: float, tech: Technology) -> Dict[int, Tuple[float, float]]:
        """Merged per-group delay intervals for a given split.

        The two sides share no group (that is what made the merge
        unconstrained), so the dictionaries are disjoint and intra-group
        spreads are independent of the split.
        """
        split = min(max(split, 0.0), self.distance)
        delay_a = wire_delay(split, self.cap_a, tech)
        delay_b = wire_delay(self.distance - split, self.cap_b, tech)
        merged: Dict[int, Tuple[float, float]] = {}
        for group, (lo, hi) in self.delays_a.items():
            merged[group] = (lo + delay_a, hi + delay_a)
        for group, (lo, hi) in self.delays_b.items():
            merged[group] = (lo + delay_b, hi + delay_b)
        return merged


def make_pending(sub_a: Subtree, sub_b: Subtree, distance: float, balance_split: float) -> PendingSplit:
    """Record the free split of an unconstrained merge of ``sub_a`` and ``sub_b``."""
    return PendingSplit(
        child_a_id=sub_a.node_id,
        child_b_id=sub_b.node_id,
        locus_a=sub_a.locus,
        locus_b=sub_b.locus,
        distance=distance,
        cap_a=sub_a.cap,
        cap_b=sub_b.cap,
        delays_a=dict(sub_a.delays),
        delays_b=dict(sub_b.delays),
        balance_split=balance_split,
    )


def _delay_deviation(pending: PendingSplit, split: float, tech: Technology) -> float:
    """Largest delay shift (either side) of ``split`` relative to the balanced split."""
    balance = pending.balance_split
    shift_a = abs(
        wire_delay(split, pending.cap_a, tech)
        - wire_delay(balance, pending.cap_a, tech)
    )
    shift_b = abs(
        wire_delay(pending.distance - split, pending.cap_b, tech)
        - wire_delay(pending.distance - balance, pending.cap_b, tech)
    )
    return max(shift_a, shift_b)


def resolution_for_target(
    pending: PendingSplit,
    target: Trr,
    tech: Technology,
    max_deviation: float = float("inf"),
    samples: int = 129,
) -> float:
    """The split bringing the pending merge's locus closest to ``target``.

    The scalar reference of :func:`repro.core.merge_batch.resolve_splits`,
    which every router path uses; this loop is kept as its test oracle.
    Only splits whose delay shift relative to the balanced split stays within
    ``max_deviation`` (the useful-skew budget) are considered; the balanced
    split itself always qualifies, so the search never comes back empty.  The
    distance from the split-``x`` locus to the target is piecewise linear in
    ``x``; a dense sampling of the corridor followed by a tie-break towards
    the balanced split is accurate to a tiny fraction of the corridor length
    and keeps the code free of case analysis.
    """
    if pending.distance <= 0.0:
        return 0.0
    best_split = pending.balance_split
    best_key = (
        round(pending.locus_at(best_split).distance_to(target), 6),
        0.0,
    )
    for index in range(samples):
        split = pending.distance * index / (samples - 1)
        if _delay_deviation(pending, split, tech) > max_deviation:
            continue
        distance = pending.locus_at(split).distance_to(target)
        key = (round(distance, 6), abs(split - pending.balance_split))
        if key < best_key:
            best_key = key
            best_split = split
    return best_split


def resolve_pendings(
    subtrees: Sequence[Subtree],
    targets: Sequence[Trr],
    tech: Technology,
    tree,
    loci: Dict[int, Trr],
    max_deviations: Sequence[float],
) -> None:
    """Resolve each subtree's pending split towards its target, in one batch.

    ``subtrees[k]`` must carry a pending split; it is resolved towards
    ``targets[k]`` within the useful-skew budget ``max_deviations[k]`` (the
    largest delay shift, relative to the balanced split, the resolution may
    spend on chasing the target, which is what keeps later shared-group
    merges feasible).  All splits are chosen by one
    :func:`repro.core.merge_batch.resolve_splits` call; each subtree's locus
    and delay intervals, the booked edge lengths of its two children in
    ``tree`` and the recorded placement locus of its merge node are then
    updated, and its pending split is cleared.
    """
    if not subtrees:
        return
    pendings = [subtree.pending for subtree in subtrees]
    splits = resolve_splits(
        np.array([_row(p.locus_a) for p in pendings]),
        np.array([_row(p.locus_b) for p in pendings]),
        np.array([p.distance for p in pendings]),
        np.array([p.cap_a for p in pendings]),
        np.array([p.cap_b for p in pendings]),
        np.array([p.balance_split for p in pendings]),
        np.array([_row(target) for target in targets]),
        tech.unit_resistance,
        tech.unit_capacitance,
        np.array(max_deviations, dtype=np.float64),
    )
    for subtree, split in zip(subtrees, splits.tolist()):
        _commit(subtree, split, tech, tree, loci)


def resolve_pending(
    subtree: Subtree,
    target: Optional[Trr],
    tech: Technology,
    tree,
    loci: Dict[int, Trr],
    max_deviation: float = float("inf"),
) -> None:
    """Resolve ``subtree``'s pending split (if any) towards ``target``.

    The one-subtree form of :func:`resolve_pendings`; a ``None`` target keeps
    the delay-balanced split.
    """
    pending = getattr(subtree, "pending", None)
    if pending is None:
        return
    if target is None:
        _commit(subtree, pending.balance_split, tech, tree, loci)
    else:
        resolve_pendings([subtree], [target], tech, tree, loci, [max_deviation])


def _commit(subtree: Subtree, split: float, tech: Technology, tree, loci: Dict[int, Trr]) -> None:
    """Fix ``subtree``'s pending split at ``split`` and clear it."""
    pending = subtree.pending
    subtree.locus = pending.locus_at(split)
    subtree.delays = pending.delays_at(split, tech)
    tree.set_edge_length(pending.child_a_id, split)
    tree.set_edge_length(pending.child_b_id, pending.distance - split)
    loci[subtree.node_id] = subtree.locus
    subtree.pending = None


def _row(trr: Trr) -> Tuple[float, float, float, float]:
    return (trr.ulo, trr.uhi, trr.vlo, trr.vhi)
