"""Tests for the struct-of-arrays tree core (repro.cts.arena) and the arena
routing backend's bit-identity with the object walk.

Three layers:

* ``TreeArena`` unit tests: CSR children gathers, depth/height levels,
  reachability, cycle / non-contiguous-id rejection, snapshot caching;
* lossless round-trip: ``from_clock_tree`` -> ``to_clock_tree`` reproduces
  routed trees node for node, including obstacle-detoured trees whose edge
  lengths exceed the Manhattan distance (hypothesis-driven);
* backend equivalence: ``tree_backend="arena"`` and ``"object"`` route
  bit-identical results across routers, group counts, obstacle scenarios and
  neighbour strategies.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import RouterSpec
from repro.api.runner import run
from repro.api.spec import InstanceSpec, RunSpec
from repro.cts.arena import INTERNAL_KIND, SINK_KIND, SOURCE_KIND, TreeArena
from repro.cts.tree import ClockTree
from repro.geometry.point import Point


def small_tree() -> ClockTree:
    """Two sinks -> one internal -> source, fully embedded."""
    tree = ClockTree()
    a = tree.add_sink(Point(0.0, 0.0), sink_cap=1.0, group=0)
    b = tree.add_sink(Point(10.0, 0.0), sink_cap=2.0, group=1)
    m = tree.add_internal([a, b], [5.0, 5.0], location=Point(5.0, 0.0))
    tree.add_source(Point(5.0, 8.0), child=m, edge_length=8.0)
    return tree


def routed_tree(num_sinks: int, seed: int, groups: int = 1, family: str = "random"):
    if family == "blocked":
        spec = InstanceSpec.from_family(
            "blocked", num_sinks=num_sinks, seed=seed, num_blockages=5, groups=groups
        )
    else:
        spec = InstanceSpec.from_random(num_sinks, seed=seed, groups=groups)
    result = run(RunSpec(instance=spec), keep_tree=True)
    assert result.error is None
    return result.routing.tree


def assert_trees_identical(got: ClockTree, expected: ClockTree) -> None:
    assert len(got) == len(expected)
    assert got.root_id == expected.root_id
    for node in expected.nodes():
        other = got.node(node.node_id)
        assert other.kind == node.kind
        assert other.parent == node.parent
        assert other.children == node.children
        assert other.edge_length == node.edge_length
        assert other.sink_cap == node.sink_cap
        assert other.group == node.group
        assert other.name == node.name
        if node.location is None:
            assert other.location is None
        else:
            assert other.location.x == node.location.x
            assert other.location.y == node.location.y


# ----------------------------------------------------------------------
# TreeArena unit behaviour
# ----------------------------------------------------------------------
class TestTreeArena:
    def test_layout_of_a_small_tree(self):
        arena = TreeArena.from_clock_tree(small_tree())
        assert arena.num_nodes == 4
        assert list(arena.kinds) == [SINK_KIND, SINK_KIND, INTERNAL_KIND, SOURCE_KIND]
        assert arena.root == 3
        assert list(arena.parents) == [2, 2, 3, -1]
        assert list(arena.child_counts()) == [0, 0, 2, 1]
        assert arena.sink_caps[0] == 1.0 and arena.sink_caps[1] == 2.0
        assert list(arena.groups[:2]) == [0, 1]

    def test_children_of_preserves_attach_order(self):
        arena = TreeArena.from_clock_tree(small_tree())
        children, parent_index = arena.children_of(np.array([3, 2]))
        assert children.tolist() == [2, 0, 1]
        assert parent_index.tolist() == [0, 1, 1]

    def test_children_of_empty_frontier(self):
        arena = TreeArena.from_clock_tree(small_tree())
        children, parent_index = arena.children_of(np.array([0, 1]))
        assert children.size == 0 and parent_index.size == 0

    def test_depth_levels_root_first(self):
        arena = TreeArena.from_clock_tree(small_tree())
        levels = [level.tolist() for level in arena.depth_levels()]
        assert levels == [[3], [2], [0, 1]]

    def test_height_levels_leaves_first(self):
        arena = TreeArena.from_clock_tree(small_tree())
        levels = [sorted(level.tolist()) for level in arena.height_levels()]
        assert levels == [[0, 1], [2], [3]]

    def test_reachable_mask_excludes_detached_subtrees(self):
        tree = small_tree()
        tree.add_sink(Point(99.0, 99.0), sink_cap=1.0)  # never attached
        arena = tree.as_arena()
        assert arena.reachable_mask().tolist() == [True, True, True, True, False]

    def test_cycle_detection(self):
        arena = TreeArena.from_clock_tree(small_tree())
        arena.parents[3] = 0  # root now claims a parent: 3 -> 2 -> {0 -> 3}
        arena.child_offsets = np.array([0, 1, 1, 3, 4])
        arena.child_ids = np.array([3, 0, 1, 2])
        with pytest.raises(ValueError, match="cycle"):
            arena.depth_levels()

    def test_rejects_non_contiguous_ids(self):
        tree = small_tree()
        tree._nodes.pop(0)  # leave a hole: ids 1..3 at positions 0..2
        with pytest.raises(ValueError, match="contiguous node ids"):
            TreeArena.from_clock_tree(tree)

    def test_as_arena_snapshot_is_cached_until_mutation(self):
        tree = small_tree()
        first = tree.as_arena()
        assert tree.as_arena() is first
        tree.add_sink(Point(1.0, 1.0), sink_cap=1.0)
        second = tree.as_arena()
        assert second is not first
        assert second.num_nodes == first.num_nodes + 1

    def test_every_mutator_invalidates_an_interleaved_snapshot(self):
        """Regression for stale-snapshot hazards: each public mutator must
        bump the mutation counter so an ``as_arena()`` call interleaved with
        edits never serves yesterday's tree."""
        tree = small_tree()
        donor = small_tree()

        stale = tree.as_arena()
        tree.set_location(2, Point(6.0, 1.0))
        fresh = tree.as_arena()
        assert fresh is not stale
        assert fresh.xs[2] == 6.0 and fresh.ys[2] == 1.0

        stale = fresh
        tree.set_edge_length(0, 7.5)
        fresh = tree.as_arena()
        assert fresh is not stale
        assert fresh.edge_lengths[0] == 7.5

        stale = fresh
        orphan = tree.add_sink(Point(2.0, 2.0), sink_cap=0.5)
        assert tree.as_arena() is not stale

        stale = tree.as_arena()
        tree.attach(tree.root_id, orphan, edge_length=3.0)
        fresh = tree.as_arena()
        assert fresh is not stale
        assert fresh.parents[orphan] == tree.root_id

        stale = fresh
        mapping = tree.copy_subtree_from(donor, donor.root_id)
        fresh = tree.as_arena()
        assert fresh is not stale
        assert fresh.num_nodes == stale.num_nodes + len(mapping)

    def test_mark_mutated_invalidates_after_in_place_edits(self):
        """Bulk editors that write node attributes directly (the opt passes'
        snapshot/restore loops) must be able to invalidate the cache."""
        tree = small_tree()
        stale = tree.as_arena()
        tree.node(0).edge_length = 42.0  # bypasses set_edge_length
        assert tree.as_arena() is stale  # direct writes are invisible...
        tree.mark_mutated()
        fresh = tree.as_arena()
        assert fresh is not stale
        assert fresh.edge_lengths[0] == 42.0


# ----------------------------------------------------------------------
# Lossless round-trip
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_small_tree_round_trips(self):
        tree = small_tree()
        assert_trees_identical(tree.as_arena().to_clock_tree(), tree)

    def test_rootless_tree_round_trips(self):
        tree = ClockTree()
        tree.add_sink(Point(0.0, 0.0), sink_cap=1.0)
        rebuilt = TreeArena.from_clock_tree(tree).to_clock_tree()
        assert rebuilt.root_id is None
        assert_trees_identical(rebuilt, tree)

    @settings(max_examples=20, deadline=None)
    @given(
        num_sinks=st.integers(min_value=2, max_value=60),
        seed=st.integers(min_value=0, max_value=10_000),
        groups=st.sampled_from([1, 2, 4]),
    )
    def test_routed_trees_round_trip(self, num_sinks, seed, groups):
        tree = routed_tree(num_sinks, seed, groups=min(groups, num_sinks))
        assert_trees_identical(tree.as_arena().to_clock_tree(), tree)

    @settings(max_examples=10, deadline=None)
    @given(
        num_sinks=st.integers(min_value=8, max_value=80),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_obstacle_detoured_trees_round_trip(self, num_sinks, seed):
        """Detoured trees book wire beyond the Manhattan distance; the arena
        must reproduce those lengths exactly, not re-derive them."""
        tree = routed_tree(num_sinks, seed, groups=2, family="blocked")
        assert_trees_identical(tree.as_arena().to_clock_tree(), tree)


# ----------------------------------------------------------------------
# Backend equivalence (arena vs object construction path)
# ----------------------------------------------------------------------
BACKEND_SCENARIOS = [
    ("ast-dme", 8, "random", {}),
    ("ast-dme", 1, "random", {}),
    ("ast-dme", 4, "blocked", {}),
    ("greedy-dme", 1, "random", {}),
    ("greedy-dme", 1, "blocked", {}),
    ("ext-bst", 1, "random", {}),
    ("greedy-dme", 1, "random", {"multi_merge": False, "neighbor_strategy": "scalar"}),
    ("ast-dme", 8, "random", {"delay_target_weight": 0.3}),
    ("ast-dme", 8, "random", {"allow_snaking": False}),
]


class TestBackendIdentity:
    @pytest.mark.parametrize("router,groups,family,options", BACKEND_SCENARIOS)
    def test_arena_routes_bit_identical_trees(self, router, groups, family, options):
        n = 90
        if family == "blocked":
            instance = InstanceSpec.from_family(
                "blocked", num_sinks=n, seed=3, num_blockages=5, groups=groups
            )
        else:
            instance = InstanceSpec.from_random(n, seed=3, groups=groups)
        results = {}
        for backend in ("arena", "object"):
            spec = RunSpec(
                instance=instance,
                router=RouterSpec(router, dict(options, tree_backend=backend)),
            )
            results[backend] = run(spec, keep_tree=True)
            assert results[backend].error is None
        arena, obj = results["arena"], results["object"]
        assert arena.wirelength == obj.wirelength
        assert arena.global_skew_ps == obj.global_skew_ps
        assert arena.max_intra_group_skew_ps == obj.max_intra_group_skew_ps
        assert arena.num_nodes == obj.num_nodes
        assert arena.routing.stats.passes == obj.routing.stats.passes
        assert arena.routing.stats.obstacle_detour == obj.routing.stats.obstacle_detour
        assert_trees_identical(arena.routing.tree, obj.routing.tree)
        assert set(arena.routing.loci) == set(obj.routing.loci)
        for node_id, locus in obj.routing.loci.items():
            got = arena.routing.loci[node_id]
            assert (got.ulo, got.uhi, got.vlo, got.vhi) == (
                locus.ulo,
                locus.uhi,
                locus.vlo,
                locus.vhi,
            )
