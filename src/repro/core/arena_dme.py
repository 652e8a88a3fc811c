"""The arena (struct-of-arrays) construction loop of the AST-DME router.

:func:`route_arena` is the batched counterpart of
:meth:`repro.core.ast_dme.AstDme.route`: the same two-phase algorithm with the
active-subtree state held in contiguous numpy arrays instead of ``Subtree``
objects, merge planning evaluated array-at-a-time
(:mod:`repro.core.merge_batch`) and the top-down embedding vectorised over
depth levels.  The produced :class:`~repro.core.ast_dme.RoutingResult` is
bit-identical to the object backend's -- same node ids, same edge lengths,
same locations, same statistics counters -- which the bench identity gates
assert on every scenario.

State layout (``m`` active subtrees, ``G`` dense routing groups):

``loci``
    ``(m, 4)`` TRR interval rows ``(ulo, uhi, vlo, vhi)`` in rotated
    coordinates.
``cap`` / ``node_id``
    ``(m,)`` downstream capacitance and clock-tree node id.
``delays`` / ``present``
    ``(m, G, 2)`` per-group delay intervals with a ``(m, G)`` presence mask
    (rows are zero and never read where the mask is False).
``pend_slot`` / ``pend_geo`` / ``pend_side_a`` / ``pend_base``
    The lazily-resolved splits of unconstrained merges, exactly mirroring
    :class:`repro.core.lazy_sdr.PendingSplit`.  ``pend_slot`` is ``(m,)``:
    each active subtree's entry in the pending table, or -1.  The table
    holds one entry per pending subtree: a ``(k, 12)`` row ``locus_a,
    locus_b, distance, cap_a, cap_b, balance_split`` (columns ``_LA`` ...
    ``_BAL``), and the children's unshifted delay intervals folded into one
    ``(k, G, 2)`` array with a ``(k, G)`` mask of the groups that came from
    child a (the two sides share no group).  Each pass resolves the pending
    subtrees it merges in two :func:`~repro.core.merge_batch.resolve_splits`
    calls: every pending a-side towards its partner, then every pending
    b-side towards the updated a-side.

The finished tree accumulates in flat arrays (``child_a``/``child_b``/
``parent``/``edge``/``loci``) indexed by node id -- sinks ``0..n-1``,
internal merge nodes ``n..2n-3`` in creation order, source ``2n-2`` --
and is materialised into a :class:`~repro.cts.tree.ClockTree` only once, at
the end.  Instances with routing blockages keep the scalar obstacle-aware
embedding (:func:`repro.cts.embedding.embed_tree`) on the materialised tree,
so detour behaviour is shared, not duplicated.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List

import numpy as np

from repro.circuits.instance import ClockInstance
from repro.core.group_constraints import GroupAssociation
from repro.core.merge_batch import (
    CASE_LABELS,
    DISJOINT_CODE,
    merge_loci,
    plan_merges,
    resolve_splits,
)
from repro.cts.embedding import embed_tree
from repro.obs.trace import get_tracer
from repro.cts.tree import ClockTree
from repro.geometry.point import Point
from repro.geometry.trr import Trr

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.ast_dme import AstDme, RoutingResult

__all__ = ["route_arena"]

# Columns of the pending-split rows (``pend_geo``).
_LA = slice(0, 4)
_LB = slice(4, 8)
_DIST = 8
_CAP_A = 9
_CAP_B = 10
_BAL = 11
_PEND_COLUMNS = 12

_TOL = 1e-6  # embedding edge-length tolerance (repro.cts.embedding._TOL)


def route_arena(
    router: "AstDme",
    instance: ClockInstance,
    single_group: bool = False,
) -> "RoutingResult":
    """Route ``instance`` through the arena backend (see module docstring)."""
    from repro.core.ast_dme import MergeStats, RoutingResult, register_routing_groups

    config = router.config
    start = time.perf_counter()
    tech = instance.technology
    constraints = router._constraints or config.constraints()
    policy = config.order_policy()
    r = tech.unit_resistance
    c = tech.unit_capacitance

    sinks = instance.sinks
    n = len(sinks)

    # Dense routing-group mapping: ascending dense index == ascending group id.
    group_ids: List[int] = [0] if single_group else instance.groups()
    gindex = {g: k for k, g in enumerate(group_ids)}
    num_groups = len(group_ids)
    bounds = np.array([constraints.bound_for(g) for g in group_ids], dtype=np.float64)

    # Active-subtree state (one row per sink initially).
    xs0 = np.fromiter((s.location.x for s in sinks), dtype=np.float64, count=n)
    ys0 = np.fromiter((s.location.y for s in sinks), dtype=np.float64, count=n)
    u0 = xs0 + ys0
    v0 = xs0 - ys0
    loci = np.empty((n, 4), dtype=np.float64)
    loci[:, 0] = u0
    loci[:, 1] = u0
    loci[:, 2] = v0
    loci[:, 3] = v0
    cap = np.fromiter((s.cap for s in sinks), dtype=np.float64, count=n)
    node_id = np.arange(n, dtype=np.int64)
    delays = np.zeros((n, num_groups, 2), dtype=np.float64)
    present = np.zeros((n, num_groups), dtype=bool)
    sink_gidx = np.fromiter(
        (gindex[0 if single_group else s.group] for s in sinks),
        dtype=np.int64,
        count=n,
    )
    present[np.arange(n), sink_gidx] = True
    pend_slot = np.full(n, -1, dtype=np.int64)
    pend_geo = np.empty((0, _PEND_COLUMNS), dtype=np.float64)
    pend_side_a = np.empty((0, num_groups), dtype=bool)
    pend_base = np.empty((0, num_groups, 2), dtype=np.float64)

    # The finished tree, as flat arrays indexed by node id.
    total_nodes = 2 * n  # n sinks + (n - 1) internal nodes + 1 source
    t_child_a = np.full(total_nodes, -1, dtype=np.int64)
    t_child_b = np.full(total_nodes, -1, dtype=np.int64)
    t_parent = np.full(total_nodes, -1, dtype=np.int64)
    t_edge = np.zeros(total_nodes, dtype=np.float64)
    t_loci = np.zeros((total_nodes, 4), dtype=np.float64)
    next_id = n

    stats = MergeStats()
    association = GroupAssociation(instance.groups())
    spare_classes = register_routing_groups(association, set(group_ids), n > 1)
    selector = policy.make_selector()
    want_bias = policy.delay_target_weight > 0.0

    def _resolve(rows: np.ndarray, targets: np.ndarray) -> None:
        """Batched mirror of :func:`repro.core.lazy_sdr.resolve_pendings`:
        resolve the pending splits of ``rows`` towards the ``targets`` rows.
        The rows are merged right after, so their table entries are left to
        the next compaction."""
        slots = pend_slot[rows]
        geo = pend_geo[slots]
        la = geo[:, _LA]
        lb = geo[:, _LB]
        d = geo[:, _DIST]
        cap_a = geo[:, _CAP_A]
        cap_b = geo[:, _CAP_B]
        row_present = present[rows]
        tightest = np.where(row_present, bounds, np.inf).min(axis=1)
        budget = config.sdr_skew_budget * tightest
        split = resolve_splits(
            la, lb, d, cap_a, cap_b, geo[:, _BAL], targets, r, c, budget
        )
        split_c = np.minimum(np.maximum(split, 0.0), d)
        loci[rows] = merge_loci(la, lb, split_c, d - split_c)
        delay_a = r * split_c * (c * split_c / 2.0 + cap_a)
        delay_b = r * (d - split_c) * (c * (d - split_c) / 2.0 + cap_b)
        base = pend_base[slots]
        delays[rows] = np.where(
            pend_side_a[slots][:, :, None],
            base + delay_a[:, None, None],
            np.where(row_present[:, :, None], base + delay_b[:, None, None], 0.0),
        )
        ids = node_id[rows]
        t_edge[t_child_a[ids]] = split
        t_edge[t_child_b[ids]] = d - split
        t_loci[ids] = loci[rows]

    # ------------------------------------------------------------------
    # Bottom-up merging.
    # ------------------------------------------------------------------
    m = n
    tracer = get_tracer()
    while m > 1:
        with tracer.span("dme.pass", index=stats.passes, subtrees=m) as pass_span:
            select_start = time.perf_counter()
            max_delays = (
                np.where(present, delays[:, :, 1], -np.inf).max(axis=1)
                if want_bias
                else None
            )
            with tracer.span("dme.select"):
                pairs = selector.pairs_for_pass_arrays(
                    loci, node_id.tolist(), max_delays
                )
            stats.select_seconds += time.perf_counter() - select_start
            if not pairs:
                raise RuntimeError("merging-order policy returned no pairs")
            stats.passes += 1
            pass_span.set(pairs=len(pairs))

            merge_start = time.perf_counter()
            with tracer.span("dme.merge") as merge_span:
                num_pairs = len(pairs)
                a_idx = np.fromiter((p[0] for p in pairs), dtype=np.int64, count=num_pairs)
                b_idx = np.fromiter((p[1] for p in pairs), dtype=np.int64, count=num_pairs)
                # Spend deferred cross-group freedom now that the partners are
                # known.  The pairs are disjoint rows, so the only order that
                # matters is a-side before b-side within a pair: every a-side
                # resolves towards its partner's locus, then every b-side
                # towards its (possibly just updated) partner.
                for side, other in ((a_idx, b_idx), (b_idx, a_idx)):
                    waiting = np.flatnonzero(pend_slot[side] >= 0)
                    if waiting.size:
                        _resolve(side[waiting], loci[other[waiting]])

                plan = plan_merges(
                    loci[a_idx],
                    loci[b_idx],
                    cap[a_idx],
                    cap[b_idx],
                    delays[a_idx],
                    delays[b_idx],
                    present[a_idx],
                    present[b_idx],
                    bounds,
                    r,
                    c,
                    config.allow_snaking,
                )

                # Materialise the new merge nodes: ids continue in pair order, so
                # they match the object backend's add_internal ids exactly.
                new_ids = np.arange(next_id, next_id + num_pairs, dtype=np.int64)
                ca_ids = node_id[a_idx]
                cb_ids = node_id[b_idx]
                t_child_a[new_ids] = ca_ids
                t_child_b[new_ids] = cb_ids
                t_parent[ca_ids] = new_ids
                t_parent[cb_ids] = new_ids
                t_edge[ca_ids] = plan.ea
                t_edge[cb_ids] = plan.eb
                t_loci[new_ids] = plan.locus
                next_id += num_pairs

                # Statistics and group association, in pair order.
                case_list = plan.case_codes.tolist()
                snaked_list = plan.snaked.tolist()
                detour_list = plan.detour.tolist()
                viol_list = plan.violation.tolist()
                by_case = stats.merges_by_case
                for t in range(num_pairs):
                    label = CASE_LABELS[case_list[t]]
                    by_case[label] = by_case.get(label, 0) + 1
                    if snaked_list[t]:
                        stats.snaked_merges += 1
                        stats.total_detour += detour_list[t]
                    stats.max_violation = max(stats.max_violation, viol_list[t])
                    if association.num_classes - spare_classes <= 1:
                        continue  # every routing group is already associated
                    ga = [group_ids[k] for k in np.flatnonzero(present[a_idx[t]]).tolist()]
                    gb = [group_ids[k] for k in np.flatnonzero(present[b_idx[t]]).tolist()]
                    anchor = ga[0]
                    for g in ga[1:]:
                        association.associate(anchor, g)
                    for g in gb:
                        association.associate(anchor, g)

                # The new rows' pending splits: every unsnaked disjoint merge.
                fresh = np.flatnonzero((plan.case_codes == DISJOINT_CODE) & ~plan.snaked)
                fa = a_idx[fresh]
                fb = b_idx[fresh]
                new_geo = np.empty((fresh.size, _PEND_COLUMNS), dtype=np.float64)
                new_geo[:, _LA] = loci[fa]
                new_geo[:, _LB] = loci[fb]
                new_geo[:, _DIST] = plan.distance[fresh]
                new_geo[:, _CAP_A] = cap[fa]
                new_geo[:, _CAP_B] = cap[fb]
                new_geo[:, _BAL] = plan.ea[fresh]
                new_side_a = present[fa]
                new_base = np.where(new_side_a[:, :, None], delays[fa], delays[fb])

                # Compact: survivors keep their order, merged rows append in pair
                # order (the object backend's survivor-list + new-subtree layout).
                keep_mask = np.ones(m, dtype=bool)
                keep_mask[a_idx] = False
                keep_mask[b_idx] = False
                keep = np.flatnonzero(keep_mask)
                loci = np.concatenate((loci[keep], plan.locus))
                cap = np.concatenate((cap[keep], plan.cap))
                delays = np.concatenate((delays[keep], plan.delays))
                present = np.concatenate((present[keep], plan.present))
                node_id = np.concatenate((node_id[keep], new_ids))
                # The pending table keeps the survivors' entries, then the
                # new rows'; slots are renumbered to match.
                kept_slots = pend_slot[keep]
                held = kept_slots >= 0
                survivors = kept_slots[held]
                pend_geo = np.concatenate((pend_geo[survivors], new_geo))
                pend_side_a = np.concatenate((pend_side_a[survivors], new_side_a))
                pend_base = np.concatenate((pend_base[survivors], new_base))
                kept_slots[held] = np.arange(survivors.size)
                new_slots = np.full(num_pairs, -1, dtype=np.int64)
                new_slots[fresh] = survivors.size + np.arange(fresh.size)
                pend_slot = np.concatenate((kept_slots, new_slots))
                m = int(node_id.shape[0])
                merge_span.add("nodes_merged", 2 * num_pairs)
            stats.merge_seconds += time.perf_counter() - merge_start

    # ------------------------------------------------------------------
    # Source connection.
    # ------------------------------------------------------------------
    src = instance.source
    if pend_slot[0] >= 0:
        su = src.x + src.y
        sv = src.x - src.y
        _resolve(np.zeros(1, dtype=np.int64), np.array([[su, su, sv, sv]], dtype=np.float64))
    root_locus = loci[0]
    root_trr = Trr(
        float(root_locus[0]),
        float(root_locus[1]),
        float(root_locus[2]),
        float(root_locus[3]),
    )
    source_edge = root_trr.distance_to_point(src)
    source_id = next_id
    root_id = int(node_id[0])
    t_child_a[source_id] = root_id
    t_parent[root_id] = source_id
    t_edge[root_id] = source_edge
    next_id += 1

    # ------------------------------------------------------------------
    # Top-down embedding and tree materialisation.
    # ------------------------------------------------------------------
    embed_start = time.perf_counter()
    with tracer.span("dme.embed") as embed_span:
        obstacles = instance.obstacle_set() if instance.has_obstacles else None

        xs_list = ys_list = None
        if obstacles is None:
            xs, ys = _embed_levels(
                t_child_a, t_child_b, t_parent, t_edge, t_loci, xs0, ys0, src, n, source_id
            )
            xs_list = xs.tolist()
            ys_list = ys.tolist()

        tree = ClockTree(technology=tech)
        for sink in sinks:
            tree.add_sink(
                location=sink.location,
                sink_cap=sink.cap,
                group=sink.group,
                name="sink-%d" % sink.sink_id,
            )
        edge_list = t_edge[:next_id].tolist()
        ca_list = t_child_a[:next_id].tolist()
        cb_list = t_child_b[:next_id].tolist()
        locus_list = t_loci[:next_id].tolist()
        loci_out: Dict[int, Trr] = {}
        for nid in range(n, source_id):
            ca = ca_list[nid]
            cb = cb_list[nid]
            location = None if xs_list is None else Point(xs_list[nid], ys_list[nid])
            tree.add_internal(
                children=[ca, cb],
                edge_lengths=[edge_list[ca], edge_list[cb]],
                location=location,
            )
            row = locus_list[nid]
            loci_out[nid] = Trr(row[0], row[1], row[2], row[3])
        tree.add_source(src, ca_list[source_id], edge_list[ca_list[source_id]])

        if obstacles is None:
            stats.obstacle_detour = 0.0
        else:
            stats.obstacle_detour = embed_tree(tree, loci_out, obstacles=obstacles)
        embed_span.add("obstacle_detour", stats.obstacle_detour)
    stats.embed_seconds += time.perf_counter() - embed_start

    stats.neighbor_full_rebuilds = selector.full_rebuilds
    stats.neighbor_incremental_passes = selector.incremental_passes

    opt_report = router._run_opt(tree, constraints, obstacles, loci_out, single_group)

    elapsed = time.perf_counter() - start
    return RoutingResult(
        tree=tree,
        instance=instance,
        stats=stats,
        association=association,
        loci=loci_out,
        elapsed_seconds=elapsed,
        opt=opt_report,
        single_group=single_group,
    )


def _embed_levels(
    t_child_a: np.ndarray,
    t_child_b: np.ndarray,
    t_parent: np.ndarray,
    t_edge: np.ndarray,
    t_loci: np.ndarray,
    xs0: np.ndarray,
    ys0: np.ndarray,
    src: Point,
    n: int,
    source_id: int,
) -> tuple:
    """Vectorised obstacle-free top-down embedding.

    Mirrors :func:`repro.cts.embedding.embed_tree`: every internal node is
    placed at the point of its locus nearest (in Manhattan distance) to its
    parent's already-chosen location, one depth level at a time.  The booked
    edge lengths are then verified against the realised geometry exactly like
    the scalar ``_check_edge``.
    """
    count = source_id + 1
    xs = np.empty(count, dtype=np.float64)
    ys = np.empty(count, dtype=np.float64)
    xs[:n] = xs0
    ys[:n] = ys0
    xs[source_id] = src.x
    ys[source_id] = src.y

    frontier = np.array([source_id], dtype=np.int64)
    while frontier.size:
        children = np.concatenate((t_child_a[frontier], t_child_b[frontier]))
        children = children[children >= 0]
        internal = children[children >= n]
        if internal.size:
            parents = t_parent[internal]
            # Trr.nearest_point_to(parent): rotate, clamp per axis, rotate back.
            pu = xs[parents] + ys[parents]
            pv = xs[parents] - ys[parents]
            rows = t_loci[internal]
            cu = np.minimum(np.maximum(pu, rows[:, 0]), rows[:, 1])
            cv = np.minimum(np.maximum(pv, rows[:, 2]), rows[:, 3])
            xs[internal] = (cu + cv) / 2.0
            ys[internal] = (cu - cv) / 2.0
        frontier = children

    # _check_edge over every parented node at once.
    nodes = np.flatnonzero(t_parent[:count] >= 0)
    parents = t_parent[nodes]
    distance = np.abs(xs[parents] - xs[nodes]) + np.abs(ys[parents] - ys[nodes])
    bad = distance > t_edge[nodes] + _TOL
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        raise ValueError(
            "edge to node %d needs %.6g wire but only %.6g was booked"
            % (int(nodes[k]), float(distance[k]), float(t_edge[nodes[k]]))
        )
    return xs, ys
