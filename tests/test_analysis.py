"""Tests for the analysis subsystem (skew, wirelength, validation, reporting)."""

import threading

import pytest

from repro.analysis.report import TableRow, format_table, rows_to_csv
from repro.analysis.skew import skew_report
from repro.analysis.validate import ValidationIssue, validate_result, validate_tree
from repro.analysis.wirelength import reduction_percent, wirelength_report
from repro.core.ast_dme import AstDme, AstDmeConfig
from repro.cts.tree import ClockTree
from repro.delay.technology import Technology
from repro.geometry.obstacles import ObstacleSet, Rect
from repro.geometry.point import Point


def build_skewed_tree():
    """A small tree with a known skew between its two groups."""
    tree = ClockTree()
    s0 = tree.add_sink(Point(0.0, 0.0), 50.0, group=0)
    s1 = tree.add_sink(Point(2000.0, 0.0), 50.0, group=1)
    m0 = tree.add_internal([s0, s1], [500.0, 1500.0], location=Point(500.0, 0.0))
    tree.add_source(Point(500.0, 100.0), m0, 100.0)
    return tree, s0, s1


class TestSkewReport:
    def test_global_skew_matches_delay_difference(self):
        tree, s0, s1 = build_skewed_tree()
        from repro.delay.elmore import sink_delays

        delays = sink_delays(tree)
        report = skew_report(tree)
        assert report.global_skew == pytest.approx(abs(delays[s0] - delays[s1]))
        assert report.max_delay == pytest.approx(max(delays.values()))
        assert report.min_delay == pytest.approx(min(delays.values()))

    def test_per_group_skew_zero_for_singleton_groups(self):
        tree, _, _ = build_skewed_tree()
        report = skew_report(tree)
        assert report.per_group_skew == {0: 0.0, 1: 0.0}
        assert report.max_intra_group_skew == 0.0

    def test_inter_group_offset_sign(self):
        tree, _, _ = build_skewed_tree()
        report = skew_report(tree)
        # Group 1 hangs on the longer wire, so it is slower than group 0.
        assert report.inter_group_offset(1, 0) > 0.0
        assert report.inter_group_offset(0, 1) == pytest.approx(-report.inter_group_offset(1, 0))

    def test_satisfies_intra_bound(self):
        tree, _, _ = build_skewed_tree()
        report = skew_report(tree)
        assert report.satisfies_intra_bound(0.0)

    def test_ps_conversions(self):
        tree, _, _ = build_skewed_tree()
        report = skew_report(tree)
        assert report.global_skew_ps == pytest.approx(Technology.internal_to_ps(report.global_skew))
        assert report.group_skew_ps(0) == 0.0


class TestWirelengthReport:
    def test_totals(self):
        tree, _, _ = build_skewed_tree()
        report = wirelength_report(tree)
        assert report.total == pytest.approx(2100.0)
        assert report.num_edges == 3
        assert report.source_connection == pytest.approx(100.0)
        assert report.straight + report.snaking == pytest.approx(report.total)

    def test_reduction_percent(self):
        assert reduction_percent(100.0, 90.0) == pytest.approx(10.0)
        assert reduction_percent(100.0, 110.0) == pytest.approx(-10.0)
        with pytest.raises(ValueError):
            reduction_percent(0.0, 1.0)


class TestValidation:
    def test_clean_tree_passes(self, small_instance):
        result = AstDme(AstDmeConfig(skew_bound_ps=10.0)).route(small_instance)
        assert validate_tree(result.tree, small_instance) == []

    def test_detects_missing_sink(self, small_instance):
        result = AstDme(AstDmeConfig(skew_bound_ps=10.0)).route(small_instance)
        bigger = small_instance.with_groups(
            {s.sink_id: s.group for s in small_instance.sinks}
        )
        from dataclasses import replace

        from repro.circuits.instance import Sink

        extra = replace(
            bigger,
            sinks=bigger.sinks + (Sink(999, Point(1.0, 1.0), 10.0, 0),),
        )
        issues = validate_tree(result.tree, extra)
        assert any(issue.code == "coverage" for issue in issues)

    def test_detects_underbooked_edge(self):
        tree, s0, _ = build_skewed_tree()
        tree.set_edge_length(s0, 10.0)  # geometric distance is 500
        issues = validate_tree(tree)
        assert any(issue.code == "geometry" for issue in issues)

    def test_detects_unembedded_edge(self):
        tree, s0, _ = build_skewed_tree()
        tree.node(s0).location = None
        issues = validate_tree(tree)
        assert any(issue.code == "geometry" for issue in issues)

    def test_detects_missing_root(self):
        tree = ClockTree()
        tree.add_sink(Point(0, 0), 1.0)
        issues = validate_tree(tree)
        assert any(issue.code == "structure" for issue in issues)


def _call_with_timeout(fn, seconds=20.0):
    """Run ``fn`` in a daemon thread; fail (instead of hanging) on timeout."""
    outcome = {}

    def target():
        try:
            outcome["value"] = fn()
        except Exception as exc:  # noqa: BLE001 - re-raised below
            outcome["error"] = exc

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), "validation did not return"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


class TestMalformedTrees:
    """Regressions: broken trees yield issues, never a crash or a hang."""

    @pytest.fixture
    def routed(self, small_instance):
        return AstDme(AstDmeConfig(skew_bound_ps=10.0)).route(small_instance)

    def test_detached_sink_is_a_structure_issue(self, routed, small_instance):
        tree = routed.tree
        sink = tree.sinks()[0]
        tree.node(sink.parent).children.remove(sink.node_id)
        sink.parent = None
        tree.mark_mutated()
        for issues in (
            validate_tree(tree),
            validate_tree(tree, small_instance),
            validate_result(routed, intra_bound_ps=10.0),
        ):
            messages = [i.message for i in issues if i.code == "structure"]
            assert "the tree is not connected" in messages
            assert {i.code for i in issues} <= {"structure", "locus"}

    def test_unembedded_sink_is_a_coverage_issue(self, routed, small_instance):
        tree = routed.tree
        sink = tree.sinks()[3]
        tree.node(sink.node_id).location = None
        tree.mark_mutated()
        issues = validate_tree(tree, small_instance)
        assert ValidationIssue(
            "coverage", "tree sink %d is not embedded" % sink.node_id
        ) in issues
        assert any(
            i.code == "coverage" and "instance sink %d " % sink.node_id in i.message
            for i in issues
        )
        assert any(i.code == "geometry" and "not embedded" in i.message for i in issues)

    def test_root_below_a_sink_returns_instead_of_hanging(self, routed, small_instance):
        tree = routed.tree
        root = tree.root()
        sink = tree.sinks()[0]
        root.parent = sink.node_id
        sink.children.append(root.node_id)
        tree.mark_mutated()
        issues = _call_with_timeout(
            lambda: validate_result(routed, intra_bound_ps=10.0)
        )
        messages = [i.message for i in issues if i.code == "structure"]
        assert "the tree contains a cycle" in messages
        assert "sink node %d has children" % sink.node_id in messages
        assert _call_with_timeout(lambda: validate_tree(tree, small_instance)) == [
            i for i in issues if i.code == "structure"
        ]

    def test_disagreeing_links_are_a_structure_issue(self, routed):
        tree = routed.tree
        sink = tree.sinks()[0]
        tree.node(sink.parent).children.remove(sink.node_id)  # parent kept
        tree.mark_mutated()
        issues = validate_tree(tree)
        assert ValidationIssue(
            "structure", "node %d: parent and child links disagree" % sink.node_id
        ) in issues

    def test_unknown_parent_id_is_a_structure_issue(self, routed, small_instance):
        tree = routed.tree
        sink = tree.sinks()[0]
        tree.node(sink.parent).children.remove(sink.node_id)
        sink.parent = 10**6  # not a node of the tree
        tree.mark_mutated()
        issues = validate_result(routed, intra_bound_ps=10.0)
        assert {i.code for i in issues} <= {"structure", "locus"}
        messages = [i.message for i in issues]
        assert "the tree is not connected" in messages
        assert "node %d: parent and child links disagree" % sink.node_id in messages


class TestIssueFormatting:
    def test_str_is_code_then_message(self):
        issue = ValidationIssue("blockage", "edge 3 -> 4 crosses a blockage")
        assert str(issue) == "[blockage] edge 3 -> 4 crosses a blockage"

    def test_str_of_real_issue_round_trips_through_percent_formatting(self):
        tree, s0, _ = build_skewed_tree()
        tree.set_edge_length(s0, 10.0)
        issue = next(i for i in validate_tree(tree) if i.code == "geometry")
        assert str(issue).startswith("[geometry] ")
        assert issue.message in str(issue)


class TestBlockageValidation:
    def build_crossing_tree(self):
        """A hand-built tree whose one edge runs straight through a blockage."""
        tree = ClockTree()
        s0 = tree.add_sink(Point(0.0, 50.0), 50.0, group=0)
        m0 = tree.add_internal([s0], [300.0], location=Point(300.0, 50.0))
        tree.add_source(Point(300.0, 50.0), m0, 0.0)
        # Booked wire (300) covers the Manhattan distance but not the 400 um
        # blockage-avoiding detour around the 100x100 macro in the middle.
        obstacles = ObstacleSet((Rect(100.0, 0.0, 200.0, 100.0),))
        return tree, obstacles

    def test_flags_underbooked_detour(self):
        tree, obstacles = self.build_crossing_tree()
        issues = validate_tree(tree, obstacles=obstacles)
        blockage = [i for i in issues if i.code == "blockage"]
        assert len(blockage) == 1
        assert "avoiding blockages needs" in blockage[0].message

    def test_flags_node_embedded_inside_blockage(self):
        tree = ClockTree()
        s0 = tree.add_sink(Point(50.0, 50.0), 50.0)
        m0 = tree.add_internal([s0], [100.0], location=Point(150.0, 50.0))
        tree.add_source(Point(150.0, 50.0), m0, 0.0)
        obstacles = ObstacleSet((Rect(0.0, 0.0, 100.0, 100.0),))
        issues = validate_tree(tree, obstacles=obstacles)
        assert any(
            i.code == "blockage" and "inside a blockage" in i.message for i in issues
        )

    def test_clean_when_detour_is_booked(self):
        tree, obstacles = self.build_crossing_tree()
        for node in tree.nodes():
            if node.parent is not None and node.is_sink:
                tree.set_edge_length(node.node_id, 400.0)
        issues = validate_tree(tree, obstacles=obstacles)
        assert [i for i in issues if i.code == "blockage"] == []

    def test_validate_result_flags_blockage_crossing_tree(self, small_instance):
        """Regression: a routed result re-validated against added blockages."""
        result = AstDme(AstDmeConfig(skew_bound_ps=10.0)).route(small_instance)
        xmin, ymin, xmax, ymax = small_instance.bounding_box()
        # A blockage across the middle of the layout that the (blockage-blind)
        # routed tree must cross somewhere.  Forge the instance after routing
        # so instance validation itself cannot reject sinks inside it.
        mid_y = (ymin + ymax) / 2.0
        blockage = Rect(xmin - 1.0, mid_y - 500.0, xmax + 1.0, mid_y + 500.0)
        object.__setattr__(result.instance, "obstacles", (blockage,))
        issues = validate_result(result, intra_bound_ps=10.0)
        assert any(issue.code == "blockage" for issue in issues)

    def test_obstacle_aware_routing_passes_the_same_check(self, small_instance):
        blocked = small_instance.with_obstacles(
            (Rect(12_000.0, 12_000.0, 16_000.0, 16_000.0),)
        )
        result = AstDme(AstDmeConfig(skew_bound_ps=10.0)).route(blocked)
        issues = validate_tree(result.tree, blocked)
        assert [i for i in issues if i.code == "blockage"] == []

    def test_locus_escape_hatch_still_flags_wild_placements(self, small_instance):
        """Regression: blockages must not suppress genuine locus violations."""
        blocked = small_instance.with_obstacles(
            (Rect(12_000.0, 12_000.0, 16_000.0, 16_000.0),)
        )
        result = AstDme(AstDmeConfig(skew_bound_ps=10.0)).route(blocked)
        # Pick a node whose locus point nearest the wild location is inside
        # the blockage -- exactly the shape the escape hatch used to accept.
        wild = Point(-9e6, -9e6)
        obstacles = blocked.obstacle_set()
        victim = next(
            node_id
            for node_id, locus in result.loci.items()
            if obstacles.blocks_point(locus.nearest_point_to(wild))
        )
        result.tree.set_location(victim, wild)
        # Give the booked lengths room so only the locus check can fire.
        for node in result.tree.nodes():
            if node.parent is not None:
                result.tree.set_edge_length(node.node_id, 1e9)
        issues = validate_result(result)
        assert any(
            i.code == "locus" and "node %d " % victim in i.message for i in issues
        )

    def test_enclosed_node_yields_issue_not_crash(self):
        """Regression: overlapping blockages enclosing a node must produce a
        blockage issue, not a ValueError from the detour search."""
        tree = ClockTree()
        s0 = tree.add_sink(Point(50.0, 50.0), 10.0)
        m0 = tree.add_internal([s0], [1000.0], location=Point(500.0, 500.0))
        tree.add_source(Point(500.0, 500.0), m0, 0.0)
        donut = ObstacleSet(
            (
                Rect(0.0, 0.0, 100.0, 20.0),
                Rect(0.0, 80.0, 100.0, 100.0),
                Rect(0.0, 0.0, 20.0, 100.0),
                Rect(80.0, 0.0, 100.0, 100.0),
            )
        )
        issues = validate_tree(tree, obstacles=donut)
        assert any(
            i.code == "blockage" and "no blockage-avoiding path" in i.message
            for i in issues
        )


class TestReportFormatting:
    def make_rows(self):
        return [
            TableRow("r1", 267, 1, "EXT-BST", 1_000_000.0, None, 10.0, 10.0, 1.0),
            TableRow("r1", 267, 4, "AST-DME", 900_000.0, 10.0, 55.0, 9.5, 1.5),
        ]

    def test_format_table_contains_all_rows(self):
        text = format_table(self.make_rows(), title="Table X")
        assert "Table X" in text
        assert "EXT-BST" in text and "AST-DME" in text
        assert "10.00%" in text
        assert len(text.splitlines()) == 5  # title + header + rule + 2 rows

    def test_reduction_placeholder_for_baseline(self):
        text = format_table(self.make_rows())
        baseline_line = [line for line in text.splitlines() if "EXT-BST" in line][0]
        assert " - " in baseline_line or baseline_line.rstrip().endswith("-") or "-" in baseline_line

    def test_csv_output(self):
        csv = rows_to_csv(self.make_rows())
        lines = csv.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("circuit,")
        assert lines[1].split(",")[3] == "EXT-BST"
        assert lines[2].split(",")[5] == "10.0000"

    def test_as_tuple_roundtrip(self):
        row = self.make_rows()[1]
        assert row.as_tuple()[0] == "r1"
        assert row.as_tuple()[5] == 10.0
