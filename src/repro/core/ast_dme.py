"""The AST-DME router (Fig. 6 of the paper) and its configuration.

``AstDme.route`` runs the full two-phase construction:

1. *Bottom-up merging.*  Every sink starts as a one-node subtree.  In each
   pass a merging-order policy proposes disjoint nearest pairs; each pair is
   merged by :func:`repro.core.merge_cases.plan_merge`, which dispatches on
   whether the subtrees share sink groups and produces the new root's
   placement locus, the two wire lengths (possibly snaked) and the merged
   per-group delay intervals.  Merging continues until one subtree remains,
   which is then connected to the clock source.  The object form of this
   loop is :func:`merge_subtrees`, which the ECO engine
   (:mod:`repro.eco.engine`) runs over its dirty cone as well.
2. *Top-down embedding.*  Concrete locations are chosen for every internal
   node (:func:`repro.cts.embedding.embed_tree`); booked wire lengths are
   never changed, so all delays and skews decided bottom-up are preserved.
   When the instance carries routing blockages the embedding is obstacle
   aware: locations are chosen by blockage-avoiding detour distance and edges
   whose booked wire cannot cover the detour are extended (the total
   extension is reported as ``MergeStats.obstacle_detour``).

Running the router with ``single_group=True`` ignores the instance's grouping
and yields the conventional bounded-skew (EXT-BST) or zero-skew (greedy-DME)
trees used as baselines in the paper's tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.opt.config import OptConfig
    from repro.opt.report import OptReport

from repro.circuits.instance import ClockInstance, Sink
from repro.core.group_constraints import GroupAssociation, SkewConstraints
from repro.core.lazy_sdr import make_pending, resolve_pending, resolve_pendings
from repro.core.merge_cases import DISJOINT, MergeDecision, plan_merge
from repro.core.merging_order import MergeOrderPolicy, check_neighbor_strategy
from repro.core.subtree import Subtree
from repro.cts.embedding import embed_tree
from repro.cts.tree import ClockTree
from repro.delay.technology import Technology
from repro.geometry.point import Point
from repro.geometry.trr import Trr
from repro.obs.trace import get_tracer

__all__ = [
    "AstDmeConfig",
    "MergeStats",
    "RoutingResult",
    "AstDme",
    "TREE_BACKENDS",
    "ARENA_MAX_GROUPS",
    "add_sink_stub",
    "merge_subtrees",
    "register_routing_groups",
]

#: Supported tree-core backends.
TREE_BACKENDS = ("arena", "object")

#: The arena backend stores per-group delay intervals densely as an
#: ``(m, G, 2)`` array; beyond this many distinct routing groups the dense
#: layout stops paying for itself and the router silently falls back to the
#: object backend (which is bit-identical anyway).
ARENA_MAX_GROUPS = 64


@dataclass(frozen=True)
class AstDmeConfig:
    """Tunable parameters of the AST-DME router."""

    #: Intra-group skew bound in picoseconds (the paper uses 10 ps).
    skew_bound_ps: float = 10.0
    #: Merge several disjoint nearest pairs per pass (Edahiro multi-merge).
    multi_merge: bool = True
    #: Fraction of possible pairs merged per pass in multi-merge mode.
    merge_fraction: float = 0.5
    #: Weight of the delay-target merging-order enhancement (0 disables it).
    delay_target_weight: float = 0.0
    #: KD-tree candidates examined per subtree during pair selection.
    neighbor_candidates: int = 8
    #: Neighbour-candidate engine: "incremental" (maintained index, default)
    #: or "scalar" (the seed per-pair reference).  Both select identical merge
    #: pairs; see docs/performance.md.
    neighbor_strategy: str = "incremental"
    #: Fraction of candidate lists a pass may invalidate before the
    #: incremental strategy falls back to a full rebuild.
    staleness_threshold: float = 0.25
    #: Allow wire snaking in constrained merges (required for exactness).
    allow_snaking: bool = True
    #: Fraction of the intra-group skew bound each cross-group merge may spend
    #: as positional freedom when its split is resolved lazily (see
    #: repro.core.lazy_sdr).  Small values guarantee later shared-group merges
    #: stay feasible; large values chase wirelength more aggressively.
    sdr_skew_budget: float = 0.45
    #: Post-construction optimization (repro.opt): when set and enabled, the
    #: router runs the configured pass pipeline -- detour-aware re-embedding,
    #: skew repair via wire snaking, wirelength recovery -- on the finished
    #: tree and attaches the OptReport to the RoutingResult.  ``None`` (the
    #: default) keeps routing bit-identical to previous releases.
    opt: Optional["OptConfig"] = None
    #: Tree-core backend: "arena" (struct-of-arrays state, batched merge
    #: planning and vectorised embedding; the default) or "object" (the
    #: per-``Subtree`` reference implementation, kept as the bit-identity
    #: oracle).  Both backends produce float-for-float identical trees and
    #: statistics; see docs/architecture.md.
    tree_backend: str = "arena"

    def __post_init__(self) -> None:
        check_neighbor_strategy(self.neighbor_strategy)
        if self.tree_backend not in TREE_BACKENDS:
            raise ValueError(
                "unknown tree_backend %r; expected one of %s"
                % (self.tree_backend, TREE_BACKENDS)
            )

    def order_policy(self) -> MergeOrderPolicy:
        """The merging-order policy implied by this configuration."""
        return MergeOrderPolicy(
            multi_merge=self.multi_merge,
            merge_fraction=self.merge_fraction,
            delay_target_weight=self.delay_target_weight,
            neighbor_candidates=self.neighbor_candidates,
            neighbor_strategy=self.neighbor_strategy,
            staleness_threshold=self.staleness_threshold,
        )

    def constraints(self) -> SkewConstraints:
        """The intra-group skew constraints implied by this configuration."""
        return SkewConstraints.bounded_ps(self.skew_bound_ps)


@dataclass
class MergeStats:
    """Counters collected during the bottom-up phase."""

    passes: int = 0
    merges_by_case: Dict[str, int] = field(default_factory=dict)
    snaked_merges: int = 0
    total_detour: float = 0.0
    max_violation: float = 0.0
    #: Wall time spent selecting merge pairs (the neighbour engine).
    select_seconds: float = 0.0
    #: Wall time spent resolving pendings, planning merges and materialising
    #: the new nodes (everything in a merging pass after pair selection).
    merge_seconds: float = 0.0
    #: Wall time spent embedding locations (plus, for the arena backend,
    #: materialising the ClockTree).
    embed_seconds: float = 0.0
    #: Full neighbour-index rebuilds / incremental repairs (incremental
    #: strategy only; both stay 0 for the scalar strategy).
    neighbor_full_rebuilds: int = 0
    neighbor_incremental_passes: int = 0
    #: Extra wire added at embedding time to route around blockages (0 for
    #: obstacle-free instances).
    obstacle_detour: float = 0.0

    def record(self, decision: MergeDecision) -> None:
        self.merges_by_case[decision.case] = self.merges_by_case.get(decision.case, 0) + 1
        if decision.snaked:
            self.snaked_merges += 1
            self.total_detour += decision.edges.detour
        self.max_violation = max(self.max_violation, decision.violation)

    @property
    def total_merges(self) -> int:
        return sum(self.merges_by_case.values())


@dataclass
class RoutingResult:
    """Output of one routing run."""

    tree: ClockTree
    instance: ClockInstance
    stats: MergeStats
    association: GroupAssociation
    loci: Dict[int, Trr]
    elapsed_seconds: float
    #: Report of the post-construction optimizer (repro.opt), when it ran.
    opt: Optional["OptReport"] = None
    #: Whether the run ignored the instance's grouping (the EXT-BST /
    #: greedy-DME baselines); consumers like the optimizer must then treat
    #: all sinks as one group.
    single_group: bool = False

    @property
    def wirelength(self) -> float:
        """Total wirelength of the routed tree (snaking included)."""
        return self.tree.total_wirelength()


class AstDme:
    """Associative skew clock router (the paper's contribution)."""

    def __init__(
        self,
        config: AstDmeConfig = AstDmeConfig(),
        constraints: Optional[SkewConstraints] = None,
    ) -> None:
        self.config = config
        self._constraints = constraints

    # ------------------------------------------------------------------
    def route(
        self,
        instance: ClockInstance,
        single_group: bool = False,
    ) -> RoutingResult:
        """Route ``instance`` and return the embedded tree plus statistics.

        Args:
            instance: the problem to solve.
            single_group: when True the instance's grouping is ignored for
                routing purposes (every sink constrained against every other),
                which reproduces the conventional EXT-BST / greedy-DME
                baselines.  Sink nodes of the resulting tree still carry the
                original group ids so that skew reports stay comparable.
        """
        if self._arena_eligible(instance, single_group):
            from repro.core.arena_dme import route_arena

            return route_arena(self, instance, single_group)
        start = time.perf_counter()
        constraints = self._constraints or self.config.constraints()
        tree = ClockTree(technology=instance.technology)
        loci: Dict[int, Trr] = {}
        subtrees = [add_sink_stub(tree, sink, single_group) for sink in instance.sinks]
        stats, association = merge_subtrees(
            subtrees,
            tree,
            loci,
            instance.source,
            instance.groups(),
            self.config,
            constraints,
        )

        obstacles = instance.obstacle_set() if instance.has_obstacles else None
        embed_start = time.perf_counter()
        with get_tracer().span("dme.embed") as embed_span:
            stats.obstacle_detour = embed_tree(tree, loci, obstacles=obstacles)
            embed_span.add("obstacle_detour", stats.obstacle_detour)
        stats.embed_seconds += time.perf_counter() - embed_start

        opt_report = self._run_opt(tree, constraints, obstacles, loci, single_group)

        elapsed = time.perf_counter() - start
        return RoutingResult(
            tree=tree,
            instance=instance,
            stats=stats,
            association=association,
            loci=loci,
            elapsed_seconds=elapsed,
            opt=opt_report,
            single_group=single_group,
        )

    # ------------------------------------------------------------------
    def _arena_eligible(self, instance: ClockInstance, single_group: bool) -> bool:
        """Whether this run goes through the arena construction loop."""
        if self.config.tree_backend != "arena":
            return False
        num_groups = 1 if single_group else instance.num_groups
        return num_groups <= ARENA_MAX_GROUPS

    def _run_opt(
        self,
        tree: ClockTree,
        constraints: SkewConstraints,
        obstacles,
        loci: Dict[int, Trr],
        single_group: bool,
    ) -> Optional["OptReport"]:
        """Run the configured post-construction optimizer, if any."""
        if self.config.opt is None or not self.config.opt.enabled:
            return None
        from repro.opt.optimizer import Optimizer

        bound_fn = constraints.bound_for
        if self.config.opt.skew_bound_ps is not None:
            override = Technology.ps_to_internal(self.config.opt.skew_bound_ps)
            bound_fn = lambda group: override  # noqa: E731 - trivial closure
        return Optimizer(self.config.opt).optimize(
            tree,
            bound_for=bound_fn,
            obstacles=obstacles,
            loci=loci,
            single_group=single_group,
        )


# ----------------------------------------------------------------------
def add_sink_stub(tree: ClockTree, sink: Sink, single_group: bool) -> Subtree:
    """Add ``sink`` to ``tree`` as ``sink-<id>`` and return its one-node subtree.

    With ``single_group`` the subtree routes in group 0 while the tree node
    keeps the sink's own group, so skew reports stay comparable.
    """
    node_id = tree.add_sink(
        location=sink.location,
        sink_cap=sink.cap,
        group=sink.group,
        name="sink-%d" % sink.sink_id,
    )
    return Subtree.for_sink(
        node_id=node_id,
        locus=Trr.from_point(sink.location),
        cap=sink.cap,
        group=0 if single_group else sink.group,
    )


def merge_subtrees(
    subtrees: List[Subtree],
    tree: ClockTree,
    loci: Dict[int, Trr],
    source: Point,
    groups: List[int],
    config: AstDmeConfig,
    constraints: SkewConstraints,
) -> Tuple[MergeStats, GroupAssociation]:
    """The object bottom-up loop: merge ``subtrees`` into one, then add the source.

    Shared by :meth:`AstDme.route` (one sink stub per sink) and
    :func:`repro.eco.engine.eco_reroute` (frontier stubs plus fresh sinks).
    Every pass selects disjoint pairs with ``config``'s merging-order policy,
    resolves their pending splits towards each other, plans each merge and
    adds its node to ``tree`` (recording the placement locus in ``loci``).
    The last subtree's pending split is resolved towards ``source`` before
    the source is connected.  Returns the merge statistics (embedding fields
    still zero) and the group association over ``groups``.
    """
    tech = tree.technology
    stats = MergeStats()
    association = GroupAssociation(groups)
    routing_groups: Set[int] = set()
    for sub in subtrees:
        present = sorted(sub.delays)
        routing_groups.update(present)
        # A stub may already span several groups (an ECO frontier subtree).
        for group in present[1:]:
            association.associate(present[0], group)
    spare_classes = register_routing_groups(association, routing_groups, len(subtrees) > 1)
    selector = config.order_policy().make_selector()

    def budget(sub: Subtree) -> float:
        return _skew_budget(sub, constraints, config.sdr_skew_budget)

    tracer = get_tracer()
    while len(subtrees) > 1:
        with tracer.span(
            "dme.pass", index=stats.passes, subtrees=len(subtrees)
        ) as pass_span:
            select_start = time.perf_counter()
            with tracer.span("dme.select"):
                pairs = selector.pairs_for_pass(subtrees)
            stats.select_seconds += time.perf_counter() - select_start
            if not pairs:
                raise RuntimeError("merging-order policy returned no pairs")
            stats.passes += 1
            pass_span.set(pairs=len(pairs))
            merge_start = time.perf_counter()
            with tracer.span("dme.merge") as merge_span:
                # Spend any deferred cross-group freedom now that the next
                # merge partners are known (see repro.core.lazy_sdr): every
                # pending a-side towards its partner, then every pending
                # b-side towards its (possibly just updated) partner.  The
                # pairs are disjoint, so no other order matters.
                for side, other in ((0, 1), (1, 0)):
                    waiting = [
                        (subtrees[pair[side]], subtrees[pair[other]])
                        for pair in pairs
                        if subtrees[pair[side]].pending is not None
                    ]
                    resolve_pendings(
                        [sub for sub, _ in waiting],
                        [partner.locus for _, partner in waiting],
                        tech,
                        tree,
                        loci,
                        [budget(sub) for sub, _ in waiting],
                    )
                merged_indices = set()
                new_subtrees: List[Subtree] = []
                for index_a, index_b in pairs:
                    sub_a = subtrees[index_a]
                    sub_b = subtrees[index_b]
                    decision = plan_merge(
                        sub_a,
                        sub_b,
                        constraints,
                        tech,
                        allow_snaking=config.allow_snaking,
                    )
                    node_id = tree.add_internal(
                        children=[sub_a.node_id, sub_b.node_id],
                        edge_lengths=[decision.edges.ea, decision.edges.eb],
                    )
                    loci[node_id] = decision.locus
                    merged_subtree = Subtree(
                        node_id=node_id,
                        locus=decision.locus,
                        cap=decision.cap,
                        delays=decision.delays,
                        num_sinks=sub_a.num_sinks + sub_b.num_sinks,
                    )
                    if decision.case == DISJOINT and not decision.edges.snaked:
                        merged_subtree.pending = make_pending(
                            sub_a, sub_b, decision.edges.distance, decision.edges.ea
                        )
                    new_subtrees.append(merged_subtree)
                    stats.record(decision)
                    if association.num_classes - spare_classes > 1:
                        _record_association(association, sub_a, sub_b)
                    merged_indices.add(index_a)
                    merged_indices.add(index_b)
                subtrees = [
                    s for i, s in enumerate(subtrees) if i not in merged_indices
                ] + new_subtrees
                merge_span.add("nodes_merged", len(merged_indices))
            stats.merge_seconds += time.perf_counter() - merge_start

    root_subtree = subtrees[0]
    resolve_pending(
        root_subtree,
        Trr.from_point(source),
        tech,
        tree,
        loci,
        max_deviation=budget(root_subtree),
    )
    source_edge = root_subtree.locus.distance_to_point(source)
    tree.add_source(source, root_subtree.node_id, source_edge)
    stats.neighbor_full_rebuilds = selector.full_rebuilds
    stats.neighbor_incremental_passes = selector.incremental_passes
    return stats, association


def register_routing_groups(
    association: GroupAssociation, routing_groups: Set[int], merging: bool
) -> int:
    """Register the groups a merge loop will associate; return the spare classes.

    When the loop merges at all, its first merges would register every
    routing group (group 0 alone under ``single_group``) anyway; registering
    them up front lets the loop skip the per-pair association once
    ``association.num_classes - spare <= 1``, i.e. once every routing group
    shares one class and each further call would be a silent no-op.  The
    spare classes are the registered groups no merge touches (the instance's
    own groups under ``single_group``), each a class of its own.
    """
    if merging:
        for group in routing_groups:
            association.add(group)
    return len(association) - len(routing_groups)


def _skew_budget(subtree: Subtree, constraints: SkewConstraints, fraction: float) -> float:
    """Delay deviation a lazy resolution of ``subtree`` may spend.

    The budget is a fraction of the tightest intra-group bound among the
    groups present in the subtree, so that two independently-resolved
    commitments of the same group pair can still be reconciled within the
    bound when their subtrees later merge.
    """
    # Iterate the delays dict directly: same group set as subtree.groups
    # without materialising a frozenset on this hot path.
    tightest = min(constraints.bound_for(group) for group in subtree.delays)
    return fraction * tightest


def _record_association(
    association: GroupAssociation, sub_a: Subtree, sub_b: Subtree
) -> None:
    """Record that every group of ``sub_a`` is now associated with those of ``sub_b``."""
    groups_a = sorted(sub_a.groups)
    groups_b = sorted(sub_b.groups)
    if not groups_a or not groups_b:
        return
    anchor = groups_a[0]
    for group in groups_a[1:]:
        association.associate(anchor, group)
    for group in groups_b:
        association.associate(anchor, group)
