"""Tests for the independent RC-tree oracle (repro.delay.rc_tree)."""

import pytest

from repro.cts.tree import ClockTree
from repro.delay.elmore import sink_delays
from repro.delay.rc_tree import RcTree
from repro.delay.technology import Technology
from repro.geometry.point import Point


@pytest.fixture
def tech():
    return Technology.r_benchmark()


class TestRcTreeConstruction:
    def test_duplicate_node_raises(self, tech):
        rc = RcTree("root", tech)
        rc.add_node("a", "root", 1.0, cap=2.0)
        with pytest.raises(ValueError):
            rc.add_node("a", "root", 1.0)

    def test_missing_parent_raises(self, tech):
        rc = RcTree("root", tech)
        with pytest.raises(ValueError):
            rc.add_node("a", "ghost", 1.0)

    def test_negative_values_raise(self, tech):
        rc = RcTree("root", tech)
        with pytest.raises(ValueError):
            rc.add_node("a", "root", -1.0)
        with pytest.raises(ValueError):
            rc.add_cap("root", -2.0)

    def test_total_capacitance(self, tech):
        rc = RcTree("root", tech)
        rc.add_cap("root", 5.0)
        rc.add_node("a", "root", 1.0, cap=3.0)
        assert rc.total_capacitance() == pytest.approx(8.0)


class TestRcTreeDelays:
    def test_single_resistor_delay(self, tech):
        rc = RcTree("root", tech)
        rc.add_node("load", "root", resistance=10.0, cap=7.0)
        assert rc.delay_to("load") == pytest.approx(70.0)

    def test_wire_matches_analytic_formula_for_any_segmentation(self, tech):
        # Elmore delay of a distributed line is r*L*(c*L/2 + C) regardless of
        # how many lumped sections approximate it.
        length, load = 2000.0, 65.0
        expected = tech.unit_resistance * length * (tech.unit_capacitance * length / 2.0 + load)
        for segments in (1, 2, 5, 16):
            rc = RcTree("drv", tech)
            rc.add_wire("pin", "drv", length, segments=segments)
            rc.add_cap("pin", load)
            assert rc.delay_to("pin") == pytest.approx(expected, rel=1e-12)

    def test_invalid_wire_arguments(self, tech):
        rc = RcTree("drv", tech)
        with pytest.raises(ValueError):
            rc.add_wire("pin", "drv", 100.0, segments=0)
        with pytest.raises(ValueError):
            rc.add_wire("pin2", "drv", -1.0)


class TestOracleAgainstFastEvaluator:
    def test_from_clock_tree_matches_fast_elmore(self, tech):
        tree = ClockTree(technology=tech)
        s0 = tree.add_sink(Point(0.0, 0.0), 33.0, group=0)
        s1 = tree.add_sink(Point(3000.0, 0.0), 71.0, group=1)
        s2 = tree.add_sink(Point(1500.0, 2500.0), 12.0, group=0)
        m0 = tree.add_internal([s0, s1], [1600.0, 1400.0], location=Point(1600.0, 0.0))
        m1 = tree.add_internal([m0, s2], [900.0, 1700.0], location=Point(1600.0, 900.0))
        tree.add_source(Point(1600.0, 1300.0), m1, 400.0)

        fast = sink_delays(tree)
        oracle = RcTree.from_clock_tree(tree, segments_per_edge=3).elmore_delays()
        for sink_id, fast_value in fast.items():
            assert oracle[sink_id] == pytest.approx(fast_value, rel=1e-12)

    def test_graph_is_a_tree(self, tech):
        rc = RcTree("root", tech)
        rc.add_wire("a", "root", 500.0)
        rc.add_wire("b", "root", 700.0)
        graph = rc.graph()
        assert graph.number_of_edges() == graph.number_of_nodes() - 1

    def test_from_clock_tree_on_obstacle_detoured_route(self, tech):
        """The oracle must track booked lengths, not geometry, when the
        obstacle-aware embedding extends edges beyond the Manhattan distance
        for blockage detours."""
        from repro.api.registry import RouterSpec
        from repro.api.runner import run
        from repro.api.spec import InstanceSpec, RunSpec

        spec = RunSpec(
            instance=InstanceSpec.from_family("blocked", 40, seed=3),
            router=RouterSpec("greedy-dme"),
        )
        result = run(spec, keep_tree=True)
        tree = result.routing.tree
        # The embedding really did extend at least one edge for a detour.
        extended = [
            node
            for node in tree.nodes()
            if node.parent is not None
            and node.edge_length
            > node.location.distance_to(tree.node(node.parent).location) + 1e-6
        ]
        assert result.routing.stats.obstacle_detour > 0.0
        assert extended, "expected at least one detour-extended edge"

        fast = sink_delays(tree)
        oracle = RcTree.from_clock_tree(tree).elmore_delays()
        for sink_id, fast_value in fast.items():
            assert oracle[sink_id] == pytest.approx(fast_value, rel=1e-9)

    def test_from_clock_tree_matches_fast_elmore_after_repair(self, tech):
        """The oracle agreement must survive the post-construction optimizer
        (snaking extensions and trims change lengths, never the contract)."""
        from repro.api.registry import RouterSpec
        from repro.api.runner import run
        from repro.api.spec import InstanceSpec, RunSpec
        from repro.opt import OptConfig

        spec = RunSpec(
            instance=InstanceSpec.from_family("blocked", 40, seed=3),
            router=RouterSpec("greedy-dme", {"skew_bound_ps": 10.0}),
            opt=OptConfig(enabled=True, verify_oracle=False),
        )
        result = run(spec, keep_tree=True)
        tree = result.routing.tree
        fast = sink_delays(tree)
        oracle = RcTree.from_clock_tree(tree).elmore_delays()
        for sink_id, fast_value in fast.items():
            assert oracle[sink_id] == pytest.approx(fast_value, rel=1e-9)


class TestGraphView:
    """The lazily built, cached networkx view (analysis-only; never used by
    construction or delay evaluation)."""

    def build(self, tech):
        rc = RcTree("root", tech)
        rc.add_node("a", "root", 2.0, cap=1.0)
        rc.add_node("b", "a", 3.0, cap=4.0)
        return rc

    def test_graph_matches_network(self, tech):
        rc = self.build(tech)
        graph = rc.graph()
        assert set(graph.nodes) == {"root", "a", "b"}
        assert graph.edges["root", "a"]["resistance"] == 2.0
        assert graph.edges["a", "b"]["resistance"] == 3.0
        assert graph.nodes["b"]["cap"] == 4.0

    def test_graph_is_cached_until_mutation(self, tech):
        rc = self.build(tech)
        first = rc.graph()
        assert rc.graph() is first
        rc.add_cap("b", 1.0)
        second = rc.graph()
        assert second is not first
        assert second.nodes["b"]["cap"] == 5.0

    def test_add_node_invalidates_cache(self, tech):
        rc = self.build(tech)
        first = rc.graph()
        rc.add_node("c", "b", 1.0)
        assert rc.graph() is not first
        assert "c" in rc.graph().nodes

    def test_delays_never_touch_the_graph(self, tech, monkeypatch):
        rc = self.build(tech)
        monkeypatch.setattr(
            RcTree, "graph", lambda self: pytest.fail("graph() called")
        )
        rc.elmore_delays()
        rc.downstream_capacitances()
        rc.total_capacitance()


class TestArrayOracle:
    """``oracle_delays`` (array passes) against the node-by-node ``RcTree``."""

    @pytest.mark.parametrize("segments", [1, 3, 4, 6])
    @pytest.mark.parametrize(
        "family,groups", [("random", 4), ("clustered", 8), ("blocked", 96)]
    )
    def test_equals_rc_tree_on_buffer_free_trees(self, family, groups, segments):
        from repro.api import InstanceSpec, RouterSpec, RunSpec, run
        from repro.delay.rc_tree import oracle_delays

        if family == "random":
            instance = InstanceSpec.from_random(150, seed=5, groups=groups)
        else:
            instance = InstanceSpec.from_family(family, 150, seed=5, groups=groups)
        spec = RunSpec(instance=instance, router=RouterSpec("ast-dme", {"skew_bound_ps": 10.0}))
        tree = run(spec, keep_tree=True).routing.tree
        expected = RcTree.from_clock_tree(tree, segments).elmore_delays()
        delays = oracle_delays(tree, segments)
        assert set(delays) == {node.node_id for node in tree.nodes()}
        for node_id, value in delays.items():
            assert value == expected[node_id], node_id  # bit-identical

    def test_hand_built_tree_with_a_sink_parent(self, tech):
        """Any node may carry load and children; unequal fan-out per level."""
        from repro.delay.rc_tree import oracle_delays

        tree = ClockTree(technology=tech)
        s0 = tree.add_sink(Point(0.0, 0.0), 33.0)
        s1 = tree.add_sink(Point(100.0, 0.0), 12.0)
        s2 = tree.add_sink(Point(300.0, 0.0), 7.0)
        s3 = tree.add_sink(Point(300.0, 50.0), 5.0)
        tree.attach(s2, s3, 50.0)  # a sink driving another sink
        m0 = tree.add_internal([s0, s1, s2], [200.0, 100.0, 100.0], location=Point(200.0, 0.0))
        tree.add_source(Point(200.0, 80.0), m0, 80.0)
        for segments in (1, 2, 5):
            expected = RcTree.from_clock_tree(tree, segments).elmore_delays()
            delays = oracle_delays(tree, segments)
            assert delays == {nid: expected[nid] for nid in delays}

    def test_rejects_a_node_reached_twice(self, tech):
        from repro.delay.rc_tree import oracle_delays

        tree = ClockTree(technology=tech)
        s0 = tree.add_sink(Point(0.0, 0.0), 1.0)
        m0 = tree.add_internal([s0], [10.0], location=Point(10.0, 0.0))
        tree.add_source(Point(10.0, 0.0), m0, 0.0)
        tree.node(m0).children.append(s0)
        with pytest.raises(ValueError, match="reached twice"):
            oracle_delays(tree)

    def test_rejects_bad_segment_counts(self, tech):
        from repro.delay.rc_tree import segment_network_delays

        with pytest.raises(ValueError):
            segment_network_delays([0], [0.0], [1.0], {}, tech, segments_per_edge=0)
        with pytest.raises(ValueError, match="breadth-first"):
            segment_network_delays([0, 0], [0.0, 1.0], [1.0, 1.0], {}, tech)
