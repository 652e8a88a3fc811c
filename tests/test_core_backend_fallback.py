"""The arena backend's group-count cap and the object fallback above it.

``AstDme.route`` sends a run through the arena loop only while the routing
group count stays within ``ARENA_MAX_GROUPS``; above it the default backend
silently runs the object loop instead.  These tests pin both sides of that
boundary: which loop ran (a spy on ``route_arena``), that each side is
bit-identical to an explicit ``tree_backend="object"`` run, and that an ECO
re-route of a fallback-sized base still stitches its clean subtrees back
unchanged.
"""

from __future__ import annotations

import pytest

import repro.core.arena_dme as arena_dme
from repro.analysis.validate import validate_result
from repro.circuits.generator import random_instance
from repro.core.ast_dme import ARENA_MAX_GROUPS, AstDme, AstDmeConfig
from repro.eco import (
    EcoConfig,
    EcoDelta,
    SinkAdd,
    SinkMove,
    eco_reroute,
    preserved_subtrees_identical,
)
from repro.geometry.point import Point


def tree_rows(result):
    """Every node and placement locus of a routed result, as plain data."""
    nodes = [
        (
            node.node_id,
            node.kind,
            node.name,
            node.parent,
            tuple(node.children),
            node.edge_length,
            node.sink_cap,
            node.group,
            None if node.location is None else (node.location.x, node.location.y),
        )
        for node in result.tree.nodes()
    ]
    loci = sorted(
        (nid, (t.ulo, t.uhi, t.vlo, t.vhi)) for nid, t in result.loci.items()
    )
    stats = result.stats
    counters = (
        stats.passes,
        sorted(stats.merges_by_case.items()),
        stats.snaked_merges,
        stats.total_detour,
        stats.max_violation,
        stats.neighbor_full_rebuilds,
        stats.neighbor_incremental_passes,
    )
    return nodes, loci, counters, result.association.classes()


def boundary_instance(num_groups):
    return random_instance(
        "fallback-%d" % num_groups, 3 * num_groups, seed=7, num_groups=num_groups
    )


@pytest.fixture
def arena_calls(monkeypatch):
    """Group counts of the runs that went through ``route_arena``."""
    calls = []
    real = arena_dme.route_arena

    def spy(router, instance, single_group=False):
        calls.append(instance.num_groups)
        return real(router, instance, single_group)

    monkeypatch.setattr(arena_dme, "route_arena", spy)
    return calls


class TestArenaGroupCap:
    def test_cap_is_64_groups(self):
        assert ARENA_MAX_GROUPS == 64

    @pytest.mark.parametrize("num_groups", [ARENA_MAX_GROUPS, ARENA_MAX_GROUPS + 1])
    def test_only_runs_within_the_cap_take_the_arena_loop(self, arena_calls, num_groups):
        instance = boundary_instance(num_groups)
        assert instance.num_groups == num_groups
        default = AstDme(AstDmeConfig()).route(instance)
        took_arena = arena_calls == [num_groups]
        assert took_arena == (num_groups <= ARENA_MAX_GROUPS)

        del arena_calls[:]
        reference = AstDme(AstDmeConfig(tree_backend="object")).route(instance)
        assert arena_calls == []
        assert tree_rows(default) == tree_rows(reference)

    def test_eco_on_a_fallback_sized_base(self):
        config = AstDmeConfig()
        base = AstDme(config).route(boundary_instance(ARENA_MAX_GROUPS + 1))
        delta = EcoDelta(
            move=(SinkMove(4, Point(51_000.0, 47_000.0)),),
            remove=(9,),
            add=(SinkAdd(location=Point(20_000.0, 80_000.0), cap=40.0, group=64),),
        )
        outcome = eco_reroute(base, delta, EcoConfig(router=config))
        assert outcome.eco.frontier_subtrees > 0
        assert preserved_subtrees_identical(
            base.tree, outcome.routing.tree, outcome.eco.preserved_roots
        )
        assert validate_result(outcome.routing, intra_bound_ps=10.0) == []
