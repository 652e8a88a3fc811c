"""Nearest-neighbour pair selection for greedy bottom-up merging.

Greedy-DME (Edahiro 1993) repeatedly merges the pair of subtrees whose roots
are closest; its multi-merge variant merges many mutually disjoint nearest
pairs per pass, which cuts the number of neighbour-graph rebuilds and is one
of the two merging-order enhancements the paper adopts (Chapter V.F).

This module is purely geometric: callers pass the placement loci of the active
subtrees (plus an optional additive cost bias per subtree, used by the
delay-target enhancement) and get back a set of disjoint pairs ordered by
cost.  Candidate generation uses a KD-tree on locus centres in rotated
coordinates with the Chebyshev metric, followed by exact locus-to-locus
distances on the candidates.

Two engines implement the same contract:

``vectorized`` (default)
    Candidate pairs and their exact TRR distances are produced with the batch
    kernels of :mod:`repro.geometry.trr` (array-of-intervals representation,
    numpy broadcasting); the enumeration order of candidates reproduces the
    scalar reference exactly, so the selected pairs are identical.

``scalar``
    The original per-pair implementation, kept as the executable reference:
    the property tests assert the vectorized engine against it and the bench
    harness uses it as the performance baseline of the seed implementation.

For repeated selection over an evolving population (one selection per merging
pass) see :class:`repro.cts.neighbor_index.NeighborIndex`, which maintains
candidate lists incrementally instead of recomputing them from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

from repro.geometry.trr import Trr, loci_to_array, pair_distances

__all__ = [
    "NeighborPairing",
    "CandidateArrays",
    "locus_centres",
    "candidate_pairs",
    "candidate_pairs_from_array",
    "select_from_candidates",
    "select_merge_pairs",
]

#: Supported pair-selection engines.
ENGINES = ("vectorized", "scalar")


@dataclass
class NeighborPairing:
    """The pairs selected for one merging pass."""

    pairs: List[Tuple[int, int]] = field(default_factory=list)
    costs: List[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


@dataclass(frozen=True)
class CandidateArrays:
    """Candidate merge pairs in array form.

    ``i < j`` index into the caller's locus sequence; ``dist`` holds the exact
    region distance of each pair.  Rows are in canonical enumeration order
    (first occurrence while scanning locus ``i`` ascending, then that locus's
    neighbours in query-rank order), which is what makes selection results
    independent of the engine that generated the candidates.
    """

    dist: np.ndarray
    i: np.ndarray
    j: np.ndarray

    def __len__(self) -> int:
        return len(self.dist)


# ----------------------------------------------------------------------
# Candidate generation (vectorized engine)
# ----------------------------------------------------------------------
def locus_centres(arr: np.ndarray) -> np.ndarray:
    """The ``(n, 2)`` array of region centres in rotated coordinates."""
    centres = np.empty((len(arr), 2), dtype=float)
    centres[:, 0] = (arr[:, 0] + arr[:, 1]) / 2.0
    centres[:, 1] = (arr[:, 2] + arr[:, 3]) / 2.0
    return centres


def query_neighbors(
    centres: np.ndarray, k_candidates: int
) -> Tuple[np.ndarray, np.ndarray]:
    """KD-tree ``k``-nearest neighbours per centre (Chebyshev metric).

    Returns ``(distances, indices)``, both ``(n, k)`` with ``k =
    min(k_candidates + 1, n)``; the shape is uniform for every ``n`` and ``k``
    (scipy squeezes the ``k == 1`` case to a 1-D array, which the old code
    only special-cased for ``k == 1`` -- ``reshape(n, -1)`` handles every
    degenerate shape the same way).  ``workers=-1`` parallelises the query
    over all cores; the result is exact either way.
    """
    n = len(centres)
    tree = cKDTree(centres)
    k = min(k_candidates + 1, n)
    dist, neighbors = tree.query(centres, k=k, p=np.inf, workers=-1)
    return (
        np.asarray(dist).reshape(n, -1),
        np.asarray(neighbors).reshape(n, -1),
    )


def candidates_from_neighbors(arr: np.ndarray, neighbors: np.ndarray) -> CandidateArrays:
    """Candidate pairs from per-locus neighbour index lists.

    ``neighbors[r]`` lists candidate partners of locus ``r`` (self-references
    are ignored); rows are scanned in order.  A pair listed by both of its
    endpoints appears twice: greedy selection is invariant to duplicates --
    the stable cost sort keeps first occurrences ahead of their copies and a
    copy of a selected pair is skipped by the disjointness check -- so the
    hot per-pass paths skip the sort that deduplication would cost.
    """
    n = len(arr)
    k = neighbors.shape[1] if neighbors.ndim > 1 else 1
    flat_i = np.repeat(np.arange(n, dtype=np.int64), k)
    flat_j = neighbors.astype(np.int64, copy=False).ravel()
    keep = flat_i != flat_j
    flat_i = flat_i[keep]
    flat_j = flat_j[keep]
    lo = np.minimum(flat_i, flat_j)
    hi = np.maximum(flat_i, flat_j)
    return CandidateArrays(dist=pair_distances(arr, lo, hi), i=lo, j=hi)


def all_pairs_candidates(arr: np.ndarray) -> CandidateArrays:
    """Every pair ``i < j`` with its exact distance (small populations)."""
    n = len(arr)
    i, j = np.triu_indices(n, k=1)
    i = i.astype(np.int64, copy=False)
    j = j.astype(np.int64, copy=False)
    return CandidateArrays(dist=pair_distances(arr, i, j), i=i, j=j)


def candidate_pairs_from_array(
    arr: np.ndarray,
    k_candidates: int = 8,
    exhaustive_threshold: int = 48,
) -> CandidateArrays:
    """:func:`candidate_pairs` on an already-stacked ``(n, 4)`` interval array."""
    if len(arr) <= exhaustive_threshold:
        return all_pairs_candidates(arr)
    _, neighbors = query_neighbors(locus_centres(arr), k_candidates)
    return candidates_from_neighbors(arr, neighbors)


def candidate_pairs(
    loci: Sequence[Trr],
    k_candidates: int = 8,
    exhaustive_threshold: int = 48,
) -> CandidateArrays:
    """Candidate merge pairs for the given loci (vectorized engine).

    Below ``exhaustive_threshold`` every pair is a candidate; above it, each
    locus contributes its ``k_candidates`` nearest centres (KD-tree, Chebyshev
    metric in rotated coordinates), exactly like the scalar reference.
    """
    return candidate_pairs_from_array(loci_to_array(loci), k_candidates, exhaustive_threshold)


# ----------------------------------------------------------------------
# Selection (shared by every engine and by the incremental index)
# ----------------------------------------------------------------------
def select_from_candidates(
    candidates: CandidateArrays,
    num_loci: int,
    max_pairs: Optional[int] = None,
    cost_bias: Optional[Sequence[float]] = None,
) -> NeighborPairing:
    """Greedy disjoint selection over candidate pairs in ascending cost order.

    The cost of a pair is ``distance + bias[i] + bias[j]`` (bias omitted when
    ``cost_bias`` is ``None``); ties keep candidate enumeration order (stable
    sort), matching the scalar reference.
    """
    if cost_bias is None:
        costs = candidates.dist
    else:
        bias = np.asarray(cost_bias, dtype=float)
        costs = candidates.dist + bias[candidates.i] + bias[candidates.j]
    order = np.argsort(costs, kind="stable")

    limit = max_pairs if max_pairs is not None else num_loci // 2
    limit = max(1, min(limit, num_loci // 2))

    used = bytearray(num_loci)
    pairing = NeighborPairing()
    for i, j, cost in zip(
        candidates.i[order].tolist(),
        candidates.j[order].tolist(),
        costs[order].tolist(),
    ):
        if used[i] or used[j]:
            continue
        used[i] = 1
        used[j] = 1
        pairing.pairs.append((i, j))
        pairing.costs.append(cost)
        if len(pairing) >= limit:
            break
    return pairing


# ----------------------------------------------------------------------
# Scalar reference engine (the seed implementation, kept as the oracle)
# ----------------------------------------------------------------------
def _candidate_pairs(
    loci: Sequence[Trr], k_candidates: int
) -> List[Tuple[float, int, int]]:
    """Candidate (distance, i, j) triples from a KD-tree over locus centres."""
    n = len(loci)
    centres = np.empty((n, 2), dtype=float)
    for index, locus in enumerate(loci):
        centres[index, 0] = (locus.ulo + locus.uhi) / 2.0
        centres[index, 1] = (locus.vlo + locus.vhi) / 2.0
    tree = cKDTree(centres)
    k = min(k_candidates + 1, n)
    _, neighbors = tree.query(centres, k=k, p=np.inf)
    # scipy squeezes k == 1 queries to shape (n,); reshape uniformly so every
    # degenerate population (n == 1, n == 2, k_candidates >= n) takes the same
    # path instead of special-casing k == 1 only.
    neighbors = np.asarray(neighbors).reshape(n, -1)
    seen = set()
    candidates: List[Tuple[float, int, int]] = []
    for i in range(n):
        for j in neighbors[i]:
            j = int(j)
            if j == i:
                continue
            key = (min(i, j), max(i, j))
            if key in seen:
                continue
            seen.add(key)
            candidates.append((loci[i].distance_to(loci[j]), key[0], key[1]))
    return candidates


def _all_pairs(loci: Sequence[Trr]) -> List[Tuple[float, int, int]]:
    """Every pair with its exact distance; used for small instance counts."""
    n = len(loci)
    return [
        (loci[i].distance_to(loci[j]), i, j) for i in range(n) for j in range(i + 1, n)
    ]


def _select_merge_pairs_scalar(
    loci: Sequence[Trr],
    max_pairs: Optional[int],
    cost_bias: Optional[Sequence[float]],
    k_candidates: int,
    exhaustive_threshold: int,
) -> NeighborPairing:
    """The seed implementation of :func:`select_merge_pairs`, per-pair scalar."""
    n = len(loci)
    if n <= exhaustive_threshold:
        candidates = _all_pairs(loci)
    else:
        candidates = _candidate_pairs(loci, k_candidates)

    def pair_cost(item: Tuple[float, int, int]) -> float:
        distance, i, j = item
        if cost_bias is None:
            return distance
        return distance + cost_bias[i] + cost_bias[j]

    candidates.sort(key=pair_cost)

    limit = max_pairs if max_pairs is not None else n // 2
    limit = max(1, min(limit, n // 2))

    used = set()
    pairing = NeighborPairing()
    for item in candidates:
        if len(pairing) >= limit:
            break
        _, i, j = item
        if i in used or j in used:
            continue
        used.add(i)
        used.add(j)
        pairing.pairs.append((i, j))
        pairing.costs.append(pair_cost(item))
    return pairing


# ----------------------------------------------------------------------
# Public entry point
# ----------------------------------------------------------------------
def select_merge_pairs(
    loci: Sequence[Trr],
    max_pairs: Optional[int] = None,
    cost_bias: Optional[Sequence[float]] = None,
    k_candidates: int = 8,
    exhaustive_threshold: int = 48,
    engine: str = "vectorized",
) -> NeighborPairing:
    """Select disjoint nearest pairs among the given loci.

    Args:
        loci: placement loci of the active subtrees.
        max_pairs: maximum number of disjoint pairs to return (``None`` means
            as many as fit; ``1`` gives the strict single-merge order).
        cost_bias: optional per-subtree additive bias; the cost of a pair is
            ``distance + bias[i] + bias[j]``.  Negative biases give priority.
        k_candidates: neighbours considered per subtree when the KD-tree path
            is used.
        exhaustive_threshold: below this many subtrees every pair is examined
            exactly instead of going through the KD-tree.
        engine: ``"vectorized"`` (batch kernels, default) or ``"scalar"`` (the
            seed per-pair reference implementation).

    Returns:
        A :class:`NeighborPairing` with the selected index pairs in increasing
        cost order.  At least one pair is returned whenever two or more loci
        are supplied.
    """
    if engine not in ENGINES:
        raise ValueError("unknown engine %r; expected one of %s" % (engine, ENGINES))
    n = len(loci)
    if n < 2:
        return NeighborPairing()
    if cost_bias is not None and len(cost_bias) != n:
        raise ValueError("cost_bias must have one entry per locus")
    if engine == "scalar":
        return _select_merge_pairs_scalar(
            loci, max_pairs, cost_bias, k_candidates, exhaustive_threshold
        )
    candidates = candidate_pairs(loci, k_candidates, exhaustive_threshold)
    return select_from_candidates(candidates, n, max_pairs, cost_bias)
