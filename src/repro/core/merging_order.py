"""Merging-order policies for the bottom-up phase.

The baseline order is "minimum merging cost": the pair of subtrees with the
smallest distance between their placement loci is merged first.  The paper
adopts two enhancements from earlier work (Chapter V.F), both exposed here:

* *multi-merge* (Edahiro): merge many disjoint nearest pairs per pass instead
  of a single pair, which mainly reduces runtime;
* *delay-target ordering* (Chaturvedi & Hu): prefer merging subtrees that are
  already slow, which evens out delay targets and reduces later wire snaking.

A policy turns the list of active subtrees into the list of index pairs to
merge in the current pass; the router is agnostic to how they were chosen.

Two interchangeable *neighbour strategies* implement the candidate search
(both selecting identical pairs; see ``docs/performance.md``):

``incremental`` (default)
    A stateful :class:`~repro.cts.neighbor_index.NeighborIndex` maintained
    across passes: only candidate lists invalidated by the previous pass are
    recomputed, with a staleness threshold that falls back to a full rebuild.

``scalar``
    The seed per-pair reference implementation (KD-tree rebuilt every pass,
    scalar ``Trr.distance_to`` calls); kept as the equivalence oracle and the
    performance baseline of the bench harness.

Routers hold per-run selection state in a :class:`MergePairSelector` obtained
from :meth:`MergeOrderPolicy.make_selector`; the stateless
:meth:`MergeOrderPolicy.pairs_for_pass` remains for one-shot callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.subtree import Subtree
from repro.cts.neighbor_index import NeighborIndex
from repro.cts.nearest_neighbor import select_merge_pairs

__all__ = [
    "MergeOrderPolicy",
    "MergePairSelector",
    "NEIGHBOR_STRATEGIES",
    "check_neighbor_strategy",
]

#: Supported neighbour-candidate strategies.
NEIGHBOR_STRATEGIES = ("incremental", "scalar")


def check_neighbor_strategy(name: str) -> None:
    """Raise ``ValueError`` unless ``name`` is a supported neighbour strategy."""
    if name == "rebuild":
        raise ValueError(
            "neighbor_strategy 'rebuild' has been removed; use 'incremental', "
            "which selects identical merge pairs and routes identical trees"
        )
    if name not in NEIGHBOR_STRATEGIES:
        raise ValueError(
            "unknown neighbor_strategy %r; expected one of %s"
            % (name, NEIGHBOR_STRATEGIES)
        )


@dataclass(frozen=True)
class MergeOrderPolicy:
    """Configuration of the merging order.

    Attributes:
        multi_merge: merge several disjoint nearest pairs per pass when True,
            exactly one pair per pass when False.
        merge_fraction: fraction of the maximum possible number of pairs
            (``n // 2``) merged per pass in multi-merge mode.
        delay_target_weight: weight of the delay-target bias.  0 disables the
            enhancement; positive values subtract
            ``weight * (subtree max delay) / (largest max delay)`` scaled by
            the current median pair distance from the cost of pairs involving
            slow subtrees, so they are merged earlier.
        neighbor_candidates: KD-tree candidate count per subtree.
        neighbor_strategy: candidate-search engine (see module docstring);
            every strategy selects identical pairs.
        staleness_threshold: fraction of candidate lists a pass may
            invalidate before the ``incremental`` strategy rebuilds from
            scratch instead of repairing.
    """

    multi_merge: bool = True
    merge_fraction: float = 0.5
    delay_target_weight: float = 0.0
    neighbor_candidates: int = 8
    neighbor_strategy: str = "incremental"
    staleness_threshold: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 < self.merge_fraction <= 1.0:
            raise ValueError("merge_fraction must lie in (0, 1]")
        if self.delay_target_weight < 0.0:
            raise ValueError("delay_target_weight must be non-negative")
        if self.neighbor_candidates < 1:
            raise ValueError("neighbor_candidates must be at least 1")
        check_neighbor_strategy(self.neighbor_strategy)
        if not 0.0 <= self.staleness_threshold <= 1.0:
            raise ValueError("staleness_threshold must lie in [0, 1]")

    # ------------------------------------------------------------------
    def make_selector(self) -> "MergePairSelector":
        """A fresh per-run selector carrying this policy's search state."""
        return MergePairSelector(self)

    def pairs_for_pass(self, subtrees: Sequence[Subtree]) -> List[Tuple[int, int]]:
        """Indices of the subtree pairs to merge in the current pass.

        Stateless convenience: equivalent to one pass of a fresh selector
        (identical pairs for every strategy).
        """
        return self.make_selector().pairs_for_pass(subtrees)

    # ------------------------------------------------------------------
    def _delay_bias(self, subtrees: Sequence[Subtree]) -> List[float]:
        """Per-subtree additive cost bias implementing delay-target ordering.

        Subtrees whose delay is already large receive a negative bias
        proportional to the spread of locus sizes, so that (all else equal)
        slow subtrees are merged before fast ones.
        """
        max_delays = [s.max_delay for s in subtrees]
        largest = max(max_delays)
        if largest <= 0.0:
            return [0.0] * len(subtrees)
        # Scale the bias by a representative geometric distance so that the
        # two cost components are commensurable.
        spans = [max(s.locus.width_u, s.locus.width_v) for s in subtrees]
        xs = [s.locus.center().x for s in subtrees]
        ys = [s.locus.center().y for s in subtrees]
        extent = max(max(xs) - min(xs), max(ys) - min(ys), max(spans), 1.0)
        scale = self.delay_target_weight * extent / max(len(subtrees), 1)
        return [-scale * (d / largest) for d in max_delays]

    def _delay_bias_arrays(self, loci_arr, max_delays) -> "object":
        """:meth:`_delay_bias` over the arena backend's native arrays.

        Same expressions elementwise (and therefore the same float values and
        the same selected pairs) with the subtree attributes read from the
        ``(n, 4)`` locus array and the dense max-delay vector.
        """
        import numpy as np

        n = len(loci_arr)
        largest = float(max_delays.max())
        if largest <= 0.0:
            return np.zeros(n)
        spans = np.maximum(
            loci_arr[:, 1] - loci_arr[:, 0], loci_arr[:, 3] - loci_arr[:, 2]
        )
        cu = (loci_arr[:, 0] + loci_arr[:, 1]) / 2.0
        cv = (loci_arr[:, 2] + loci_arr[:, 3]) / 2.0
        xs = (cu + cv) / 2.0
        ys = (cu - cv) / 2.0
        extent = max(
            float(xs.max()) - float(xs.min()),
            float(ys.max()) - float(ys.min()),
            float(spans.max()),
            1.0,
        )
        scale = self.delay_target_weight * extent / max(n, 1)
        return -(scale * (max_delays / largest))


class MergePairSelector:
    """Per-run pair selection: a policy plus its candidate-search state.

    The routers create one selector per routing run and call
    :meth:`pairs_for_pass` once per merging pass; the ``incremental``
    strategy's neighbour index lives here, keyed by subtree node ids, so
    successive passes reuse every candidate list the previous pass did not
    invalidate.
    """

    def __init__(self, policy: MergeOrderPolicy) -> None:
        self.policy = policy
        self._index: Optional[NeighborIndex] = None
        if policy.neighbor_strategy == "incremental":
            self._index = NeighborIndex(
                k_candidates=policy.neighbor_candidates,
                staleness_threshold=policy.staleness_threshold,
            )

    # ------------------------------------------------------------------
    @property
    def full_rebuilds(self) -> int:
        """Full index rebuilds performed so far (0 for the scalar strategy)."""
        return self._index.full_rebuilds if self._index is not None else 0

    @property
    def incremental_passes(self) -> int:
        """Passes answered by incremental repair instead of a rebuild."""
        return self._index.incremental_passes if self._index is not None else 0

    # ------------------------------------------------------------------
    def pairs_for_pass(self, subtrees: Sequence[Subtree]) -> List[Tuple[int, int]]:
        """Indices of the subtree pairs to merge in the current pass."""
        policy = self.policy
        n = len(subtrees)
        if n < 2:
            return []
        if policy.multi_merge:
            max_pairs = max(1, int(round(policy.merge_fraction * (n // 2))))
        else:
            max_pairs = 1

        bias = (
            policy._delay_bias(subtrees)
            if policy.delay_target_weight > 0.0
            else None
        )
        loci = [s.locus for s in subtrees]
        if self._index is not None:
            pairing = self._index.select_pairs(
                loci, [s.node_id for s in subtrees], max_pairs, bias
            )
        else:
            pairing = select_merge_pairs(
                loci,
                max_pairs=max_pairs,
                cost_bias=bias,
                k_candidates=policy.neighbor_candidates,
                engine="scalar",
            )
        return list(pairing.pairs)

    def pairs_for_pass_arrays(self, loci_arr, node_ids, max_delays=None) -> List[Tuple[int, int]]:
        """:meth:`pairs_for_pass` for the arena backend's native arrays.

        ``loci_arr`` is the ``(n, 4)`` locus-interval array, ``node_ids`` the
        parallel stable keys and ``max_delays`` the dense per-subtree max
        delay (only read when delay-target ordering is enabled).  Every
        strategy selects exactly the pairs it would select from the
        equivalent ``Subtree`` list; the scalar oracle strategy materialises
        ``Trr`` objects because its per-pair reference arithmetic is defined
        on them.
        """
        policy = self.policy
        n = len(loci_arr)
        if n < 2:
            return []
        if policy.multi_merge:
            max_pairs = max(1, int(round(policy.merge_fraction * (n // 2))))
        else:
            max_pairs = 1

        bias = (
            policy._delay_bias_arrays(loci_arr, max_delays)
            if policy.delay_target_weight > 0.0
            else None
        )
        if self._index is not None:
            pairing = self._index.select_pairs(loci_arr, node_ids, max_pairs, bias)
        else:
            from repro.geometry.trr import Trr

            loci = [Trr(row[0], row[1], row[2], row[3]) for row in loci_arr.tolist()]
            pairing = select_merge_pairs(
                loci,
                max_pairs=max_pairs,
                cost_bias=None if bias is None else bias.tolist(),
                k_candidates=policy.neighbor_candidates,
                engine="scalar",
            )
        return list(pairing.pairs)
