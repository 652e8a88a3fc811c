"""Structural and electrical validation of routing results.

``validate_tree`` checks the things every downstream consumer relies on:

* the tree is a single connected, acyclic structure rooted at the source;
* every instance sink appears exactly once, at the right location, with the
  right load and group;
* every embedded edge books at least as much wire as the Manhattan distance
  between its endpoints (booked length may exceed it -- that is snaking);
* when the instance carries routing blockages, no node is embedded inside a
  blockage and every edge books enough wire for a blockage-avoiding path
  (the *detour distance*);
* the Elmore delays computed by the fast evaluator agree with the independent
  RC oracle (:func:`repro.delay.rc_tree.segment_network_delays`).

``validate_result`` additionally checks the routing result's bookkeeping
(loci containing the embedded locations, intra-group skew within the
configured bound).  ``validate_routes`` checks realised rectilinear paths
(:func:`repro.cts.routing.route_edges` output) segment by segment against an
obstacle set.

Every check reads one flat snapshot of the tree (:class:`_Snapshot`), taken
by a single walk over ``tree.nodes()``.  The snapshot deliberately does not
reuse ``tree.as_arena()``: the arena feeds the fast Elmore engine, and the
validator must not share a conversion it is meant to catch bugs in.  When the
structure check finds the tree is not a single rooted tree, only the
structure issues are returned -- every later check needs one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.analysis.skew import skew_report
from repro.cts.tree import SINK, SOURCE
from repro.delay.elmore import elmore_delays
from repro.delay.rc_tree import segment_network_delays
from repro.delay.technology import Technology
from repro.geometry.obstacles import ObstacleSet

__all__ = [
    "DEFAULT_LOCUS_TOLERANCE",
    "ValidationIssue",
    "validate_tree",
    "validate_result",
    "validate_routes",
]

_GEOM_TOL = 1e-6
_DELAY_REL_TOL = 1e-9


@dataclass(frozen=True)
class ValidationIssue:
    """A single validation finding."""

    code: str
    message: str

    def __str__(self) -> str:
        return "[%s] %s" % (self.code, self.message)


class _Snapshot:
    """The tree's node fields as flat columns, in insertion order.

    Positions index the columns; ``ids[i]`` is the node id at position ``i``.
    ``parent`` holds the parent's position (-1 for none, -2 for an id not in
    the tree); ``child`` holds every node's ``children`` list back to back
    (-1 for an id not in the tree), ``offsets`` where each list starts.
    """

    def __init__(self, tree) -> None:
        ids: List[int] = []
        parent_ids: List[Optional[int]] = []
        children: List[int] = []
        counts: List[int] = []
        lengths: List[float] = []
        caps: List[float] = []
        locs = []
        xs: List[float] = []
        ys: List[float] = []
        groups: List[Optional[int]] = []
        sinks: List[int] = []
        buffers: Dict[int, object] = {}
        nan = float("nan")
        for position, node in enumerate(tree.nodes()):
            ids.append(node.node_id)
            parent_ids.append(node.parent)
            children.extend(node.children)
            counts.append(len(node.children))
            lengths.append(node.edge_length)
            caps.append(node.sink_cap)
            loc = node.location
            locs.append(loc)
            if loc is None:
                xs.append(nan)
                ys.append(nan)
            else:
                xs.append(loc.x)
                ys.append(loc.y)
            groups.append(node.group)
            if node.kind == SINK:
                sinks.append(position)
            if node.buffer is not None:
                buffers[position] = node.buffer
        n = len(ids)
        self.index = index = dict(zip(ids, range(n)))
        self.ids = ids
        self.parent_ids = parent_ids
        self.parent = np.fromiter(
            (-1 if p is None else index.get(p, -2) for p in parent_ids), np.int64, n
        )
        self.child = np.fromiter(
            (index.get(c, -1) for c in children), np.int64, len(children)
        )
        self.counts = np.array(counts, dtype=np.int64)
        self.offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.counts, out=self.offsets[1:])
        self.lengths = np.array(lengths, dtype=np.float64)
        self.caps = caps
        self.locs = locs
        self.located = np.fromiter((loc is not None for loc in locs), bool, n)
        self.xs = np.array(xs, dtype=np.float64)
        self.ys = np.array(ys, dtype=np.float64)
        self.groups = groups
        self.sinks = sinks
        self.buffers = buffers
        root = index.get(tree.root_id, -1) if tree.root_id is not None else -1
        self.root = root
        self.root_is_source = root >= 0 and tree.node(tree.root_id).kind == SOURCE

    def __len__(self) -> int:
        return len(self.ids)

    def link_mismatches(self) -> np.ndarray:
        """Positions whose parent pointer and ``children`` entries disagree.

        A node must appear exactly once, in its parent's list, and a
        parentless node in none.
        """
        n = len(self)
        owner = np.repeat(np.arange(n, dtype=np.int64), self.counts)
        known = self.child >= 0
        appearances = np.bincount(self.child[known], minlength=n)
        bad = (self.parent == -2) | (appearances != (self.parent >= 0))
        bad[owner[~known]] = True
        misfiled = known.copy()
        misfiled[known] = self.parent[self.child[known]] != owner[known]
        bad[self.child[misfiled]] = True
        return np.flatnonzero(bad)

    def breadth_first_order(self) -> Optional[np.ndarray]:
        """Positions level by level from the root, or None unless the links
        describe one rooted tree (consistent, and every node reached)."""
        root = self.root
        if self.parent[root] != -1 or self.link_mismatches().size:
            return None
        # Consistent links put every node in exactly one children list, so
        # the walk visits no node twice and always ends.
        levels = [np.array([root], dtype=np.int64)]
        level = levels[0]
        while True:
            counts = self.counts[level]
            total = int(counts.sum())
            if not total:
                break
            ends = np.cumsum(counts)
            slots = np.repeat(self.offsets[level] - (ends - counts), counts)
            level = self.child[slots + np.arange(total)]
            levels.append(level)
        order = np.concatenate(levels)
        return order if order.size == len(self) else None


def validate_tree(
    tree, instance=None, obstacles: Optional[ObstacleSet] = None
) -> List[ValidationIssue]:
    """Validate an embedded clock tree, optionally against its instance.

    ``obstacles`` defaults to the instance's blockages (when an instance is
    given); pass an :class:`ObstacleSet` explicitly to check a bare tree.
    Returns a list of issues; an empty list means the tree passed every check.
    """
    if obstacles is None and instance is not None and instance.has_obstacles:
        obstacles = instance.obstacle_set()
    issues, _ = _validate_snapshot(tree, _Snapshot(tree), instance, obstacles)
    return issues


def _validate_snapshot(
    tree, snap: _Snapshot, instance, obstacles: Optional[ObstacleSet]
) -> Tuple[List[ValidationIssue], Optional[Dict[int, float]]]:
    """``validate_tree`` over a snapshot; also returns the fast Elmore
    delays, or None when the structure is broken."""
    issues, order = _check_structure(snap)
    if order is None:
        return issues, None
    issues.extend(_check_geometry(snap))
    if obstacles:
        issues.extend(_check_blockages(snap, obstacles))
    fast = elmore_delays(tree)
    issues.extend(_check_delays(snap, order, fast, tree.technology))
    if instance is not None:
        issues.extend(_check_instance_coverage(snap, instance))
    return issues, fast


def validate_routes(
    routes: Mapping[int, "object"], obstacles: ObstacleSet
) -> List[ValidationIssue]:
    """Check realised rectilinear routes segment by segment against blockages.

    ``routes`` is the output of :func:`repro.cts.routing.route_edges`; every
    segment that crosses a blockage interior yields one ``blockage`` issue.
    """
    issues: List[ValidationIssue] = []
    for child_id in sorted(routes):
        route = routes[child_id]
        for start, end in route.segments():
            if obstacles.blocks_segment(start, end):
                issues.append(
                    ValidationIssue(
                        "blockage",
                        "route %d -> %d segment %r -> %r crosses a blockage"
                        % (route.parent_id, child_id, start, end),
                    )
                )
    return issues


#: Default geometric tolerance (micrometres) for the off-locus check of
#: ``validate_result``; override per call (``locus_tolerance=``), per run spec
#: (``RunSpec.locus_tolerance``) or on the CLI (``repro route --tolerance``).
DEFAULT_LOCUS_TOLERANCE = 1e-3


def validate_result(
    result,
    intra_bound_ps: Optional[float] = None,
    locus_tolerance: float = DEFAULT_LOCUS_TOLERANCE,
) -> List[ValidationIssue]:
    """Validate a :class:`~repro.core.ast_dme.RoutingResult`.

    Args:
        result: the routing result to check.
        intra_bound_ps: when given, the intra-group skew of every group must
            not exceed this bound (in picoseconds, as in the paper).
        locus_tolerance: geometric tolerance (micrometres) applied to the
            off-locus placement checks.
    """
    instance = result.instance
    obstacles = instance.obstacle_set() if instance.has_obstacles else None
    snap = _Snapshot(result.tree)
    issues, delays = _validate_snapshot(result.tree, snap, instance, obstacles)
    issues.extend(_check_loci(snap, result.loci, obstacles, locus_tolerance))
    if intra_bound_ps is not None and delays is not None and snap.sinks:
        report = skew_report(result.tree, delays)
        bound = Technology.ps_to_internal(intra_bound_ps)
        slack = max(result.stats.max_violation, 0.0)
        for group, skew in report.per_group_skew.items():
            if skew > bound + 2.0 * slack + 1e-3:
                issues.append(
                    ValidationIssue(
                        "skew",
                        "group %r intra-group skew %.3f ps exceeds the %.3f ps bound"
                        % (group, Technology.internal_to_ps(skew), intra_bound_ps),
                    )
                )
    return issues


# ----------------------------------------------------------------------
# Individual checks
# ----------------------------------------------------------------------
def _check_structure(snap: _Snapshot) -> Tuple[List[ValidationIssue], Optional[np.ndarray]]:
    """Structure issues, plus the breadth-first order (None unless the tree
    is a single rooted tree)."""
    if snap.root < 0:
        return [ValidationIssue("structure", "the tree has no root")], None
    issues: List[ValidationIssue] = []
    if not snap.root_is_source:
        issues.append(ValidationIssue("structure", "the tree root is not a source node"))
    order = snap.breadth_first_order()
    if order is None:
        issues.extend(_diagnose_structure(snap))
    for i in snap.sinks:
        if snap.counts[i]:
            issues.append(
                ValidationIssue("structure", "sink node %d has children" % snap.ids[i])
            )
    return issues, order


def _diagnose_structure(snap: _Snapshot) -> List[ValidationIssue]:
    """Why the parent pointers do not form one rooted tree.

    The parent pointers form a graph with in-degree <= 1 (a parent id not in
    the tree counts as a node of its own), so every connected component has
    either exactly one parentless top or exactly one cycle; colouring each
    parent chain once finds the cycles.
    """
    parent = snap.parent.tolist()
    n = len(parent)
    unknown = {p for p in snap.parent_ids if p is not None and p not in snap.index}
    nodes = n + len(unknown)
    edges = sum(1 for p in snap.parent_ids if p is not None)
    state = [0] * n  # 0 unseen, 1 on the chain being walked, 2 finished
    cycles = 0
    for start in range(n):
        chain = []
        node = start
        while node >= 0 and not state[node]:
            state[node] = 1
            chain.append(node)
            node = parent[node]
        if node >= 0 and state[node] == 1:
            cycles += 1
        for node in chain:
            state[node] = 2
    tops = parent.count(-1) + len(unknown)
    issues: List[ValidationIssue] = []
    if tops + cycles != 1:
        issues.append(ValidationIssue("structure", "the tree is not connected"))
    if cycles:
        issues.append(ValidationIssue("structure", "the tree contains a cycle"))
    if edges != nodes - 1:
        issues.append(
            ValidationIssue(
                "structure",
                "edge count %d does not match node count %d minus one" % (edges, nodes),
            )
        )
    for i in snap.link_mismatches().tolist():
        issues.append(
            ValidationIssue(
                "structure", "node %d: parent and child links disagree" % snap.ids[i]
            )
        )
    return issues


def _check_geometry(snap: _Snapshot) -> List[ValidationIssue]:
    child = np.flatnonzero(snap.parent >= 0)
    parent = snap.parent[child]
    unembedded = ~(snap.located[child] & snap.located[parent])
    distance = np.abs(snap.xs[child] - snap.xs[parent]) + np.abs(
        snap.ys[child] - snap.ys[parent]
    )
    underbooked = snap.lengths[child] < distance - _GEOM_TOL
    issues: List[ValidationIssue] = []
    for k in np.flatnonzero(unembedded | underbooked).tolist():
        parent_id = snap.ids[parent[k]]
        node_id = snap.ids[child[k]]
        if unembedded[k]:
            message = "edge %d -> %d is not embedded" % (parent_id, node_id)
        else:
            message = "edge %d -> %d books %.6g wire for a %.6g distance" % (
                parent_id, node_id, snap.lengths[child[k]], distance[k],
            )
        issues.append(ValidationIssue("geometry", message))
    return issues


def _check_blockages(snap: _Snapshot, obstacles: ObstacleSet) -> List[ValidationIssue]:
    """No node inside a blockage; every edge books its detour distance."""
    issues: List[ValidationIssue] = []
    locs = snap.locs
    inside = [loc is not None and obstacles.blocks_point(loc) for loc in locs]
    for i, blocked in enumerate(inside):
        if blocked:
            issues.append(
                ValidationIssue(
                    "blockage",
                    "node %d is embedded at %r inside a blockage" % (snap.ids[i], locs[i]),
                )
            )
    lengths = snap.lengths.tolist()
    for i, p in enumerate(snap.parent.tolist()):
        if p < 0 or locs[i] is None or locs[p] is None:
            continue
        if inside[i] or inside[p]:
            continue  # already reported above; detours are undefined from inside
        try:
            needed = obstacles.detour_distance(locs[p], locs[i])
        except ValueError:
            # Overlapping blockages can enclose an endpoint without any single
            # rectangle containing it; that is an issue, not a crash.
            issues.append(
                ValidationIssue(
                    "blockage",
                    "edge %d -> %d has no blockage-avoiding path at all"
                    % (snap.ids[p], snap.ids[i]),
                )
            )
            continue
        if lengths[i] < needed - _GEOM_TOL:
            issues.append(
                ValidationIssue(
                    "blockage",
                    "edge %d -> %d books %.6g wire but avoiding blockages needs %.6g"
                    % (snap.ids[p], snap.ids[i], lengths[i], needed),
                )
            )
    return issues


def _check_delays(
    snap: _Snapshot, order: np.ndarray, delays: Mapping[int, float], technology: Technology
) -> List[ValidationIssue]:
    """Fast Elmore sink delays against the segment-network RC oracle."""
    fast = np.array([delays[snap.ids[i]] for i in snap.sinks], dtype=np.float64)
    position = np.empty(len(snap), dtype=np.int64)
    position[order] = np.arange(len(snap))
    oracle = np.empty(len(snap))
    oracle[order] = segment_network_delays(
        snap.counts[order],
        snap.lengths[order],
        np.asarray(snap.caps, dtype=np.float64)[order],
        {int(position[i]): cell for i, cell in snap.buffers.items()},
        technology,
    )
    oracle = oracle[snap.sinks]
    scale = np.maximum(np.maximum(np.abs(fast), np.abs(oracle)), 1.0)
    differs = np.abs(fast - oracle) > _DELAY_REL_TOL * scale + 1e-6
    return [
        ValidationIssue(
            "delay",
            "sink %d: fast Elmore %.6g differs from RC oracle %.6g"
            % (snap.ids[snap.sinks[k]], fast[k], oracle[k]),
        )
        for k in np.flatnonzero(differs).tolist()
    ]


def _check_instance_coverage(snap: _Snapshot, instance) -> List[ValidationIssue]:
    issues: List[ValidationIssue] = []
    locs, caps, groups = snap.locs, snap.caps, snap.groups
    placed = []
    for i in snap.sinks:
        if locs[i] is None:
            issues.append(
                ValidationIssue("coverage", "tree sink %d is not embedded" % snap.ids[i])
            )
        else:
            placed.append(i)
    if len(snap.sinks) != instance.num_sinks:
        issues.append(
            ValidationIssue(
                "coverage",
                "tree has %d sinks but the instance has %d"
                % (len(snap.sinks), instance.num_sinks),
            )
        )
    # A tree sink matches an instance sink at the same location (rounded to
    # 1e-6) with the same load and group.
    by_location: Dict[Tuple[float, float], List[int]] = {}
    for i in placed:
        key = (round(locs[i].x, 6), round(locs[i].y, 6))
        by_location.setdefault(key, []).append(i)
    for sink in instance.sinks:
        key = (round(sink.location.x, 6), round(sink.location.y, 6))
        if any(
            abs(caps[i] - sink.cap) <= 1e-9 and groups[i] == sink.group
            for i in by_location.get(key, ())
        ):
            continue
        issues.append(
            ValidationIssue(
                "coverage",
                "instance sink %d (group %d) has no matching tree sink"
                % (sink.sink_id, sink.group),
            )
        )
    source = locs[snap.root]
    if source is not None and source.distance_to(instance.source) > _GEOM_TOL:
        issues.append(
            ValidationIssue(
                "coverage",
                "tree source at %r does not match the instance source %r"
                % (source, instance.source),
            )
        )
    return issues


def _check_loci(
    snap: _Snapshot, loci, obstacles: Optional[ObstacleSet], tolerance: float
) -> List[ValidationIssue]:
    """Every embedded node lies in its placement locus (or escaped a blockage)."""
    if not loci:
        return []
    node_ids = list(loci)
    at = np.fromiter((snap.index[i] for i in node_ids), np.int64, len(node_ids))
    bounds = np.array(
        [(t.ulo, t.uhi, t.vlo, t.vhi) for t in loci.values()], dtype=np.float64
    )
    u = snap.xs[at] + snap.ys[at]
    v = snap.xs[at] - snap.ys[at]
    inside = (
        (bounds[:, 0] - tolerance <= u)
        & (u <= bounds[:, 1] + tolerance)
        & (bounds[:, 2] - tolerance <= v)
        & (v <= bounds[:, 3] + tolerance)
    )
    # A locus escape may displace a node by at most roughly one blockage
    # diameter (nearest_free_point walks to a blocking rectangle's boundary);
    # anything further off-locus is a bug, blockages or not.
    max_escape = (
        max(rect.width + rect.height for rect in obstacles) if obstacles else 0.0
    )
    issues: List[ValidationIssue] = []
    for k in np.flatnonzero(~inside).tolist():
        node_id = node_ids[k]
        location = snap.locs[at[k]]
        if location is None:
            continue
        locus = loci[node_id]
        if (
            obstacles is not None
            and not obstacles.blocks_point(location)
            and obstacles.blocks_point(locus.nearest_point_to(location))
            and locus.distance_to_point(location) <= max_escape + tolerance
        ):
            # The locus is blockage-blind and locally unusable here: the
            # embedding legitimately escaped to the blockage boundary.
            continue
        issues.append(
            ValidationIssue(
                "locus",
                "node %d embedded at %r outside its placement locus" % (node_id, location),
            )
        )
    return issues
