"""End-to-end tests of the AST-DME router on small instances."""

import pytest

from repro.analysis.skew import skew_report
from repro.analysis.validate import validate_result
from repro.circuits.generator import random_instance
from repro.core.ast_dme import AstDme, AstDmeConfig
from repro.delay.technology import Technology


def route(instance, **config_kwargs):
    config = AstDmeConfig(**config_kwargs)
    return AstDme(config).route(instance)


class TestRoutingBasics:
    def test_tree_contains_all_sinks(self, small_instance):
        result = route(small_instance, skew_bound_ps=10.0)
        assert len(result.tree.sinks()) == small_instance.num_sinks

    def test_tree_is_valid(self, small_instance):
        result = route(small_instance, skew_bound_ps=10.0)
        assert validate_result(result, intra_bound_ps=10.0) == []

    def test_every_node_is_embedded(self, small_instance):
        result = route(small_instance, skew_bound_ps=10.0)
        assert all(node.location is not None for node in result.tree.nodes())

    def test_root_is_at_the_source(self, small_instance):
        result = route(small_instance, skew_bound_ps=10.0)
        assert result.tree.root().location.distance_to(small_instance.source) < 1e-6

    def test_wirelength_positive_and_counts_all_edges(self, small_instance):
        result = route(small_instance, skew_bound_ps=10.0)
        assert result.wirelength > 0.0
        assert result.wirelength == pytest.approx(result.tree.total_wirelength())

    def test_stats_count_every_merge(self, small_instance):
        result = route(small_instance, skew_bound_ps=10.0)
        assert result.stats.total_merges == small_instance.num_sinks - 1
        assert result.stats.passes >= 1

    def test_elapsed_time_recorded(self, small_instance):
        result = route(small_instance)
        assert result.elapsed_seconds > 0.0


class TestSkewConstraints:
    def test_zero_bound_single_group_gives_zero_skew(self, medium_instance):
        result = route(medium_instance, skew_bound_ps=0.0)
        report = skew_report(result.tree)
        assert report.global_skew == pytest.approx(0.0, abs=1e-3)

    def test_intra_group_skew_within_bound(self, small_instance):
        result = route(small_instance, skew_bound_ps=10.0)
        report = skew_report(result.tree)
        assert report.max_intra_group_skew_ps <= 10.0 + 1e-6

    def test_single_group_flag_ignores_grouping(self, small_instance):
        result = route(small_instance, skew_bound_ps=10.0)
        forced = AstDme(AstDmeConfig(skew_bound_ps=10.0)).route(small_instance, single_group=True)
        report = skew_report(forced.tree)
        # With a single routing group the *global* skew obeys the bound.
        assert report.global_skew_ps <= 10.0 + 1e-6
        # Sink nodes still carry the original group labels for reporting.
        assert sorted({s.group for s in forced.tree.sinks()}) == small_instance.groups()
        # The grouped run generally exploits inter-group freedom; allow a
        # small heuristic-noise margin.
        assert result.wirelength <= forced.wirelength * 1.05

    def test_group_association_is_complete_at_the_end(self, small_instance):
        result = route(small_instance, skew_bound_ps=10.0)
        groups = small_instance.groups()
        for g in groups[1:]:
            assert result.association.associated(groups[0], g)


class TestConfigurationVariants:
    @pytest.fixture
    def instance(self):
        return random_instance("cfg", num_sinks=30, seed=3, layout_size=10_000.0, num_groups=3)

    def test_single_merge_mode(self, instance):
        result = route(instance, skew_bound_ps=10.0, multi_merge=False)
        assert validate_result(result, intra_bound_ps=10.0) == []

    def test_delay_target_ordering(self, instance):
        result = route(instance, skew_bound_ps=10.0, delay_target_weight=1.0)
        assert validate_result(result, intra_bound_ps=10.0) == []

    def test_zero_sdr_budget_still_valid(self, instance):
        result = route(instance, skew_bound_ps=10.0, sdr_skew_budget=0.0)
        assert validate_result(result, intra_bound_ps=10.0) == []

    def test_different_bounds_change_nothing_structural(self, instance):
        for bound in (0.0, 5.0, 50.0):
            result = route(instance, skew_bound_ps=bound)
            report = skew_report(result.tree)
            assert len(result.tree.sinks()) == instance.num_sinks
            assert report.max_intra_group_skew_ps <= bound + 1e-6

    def test_single_sink_instance(self):
        instance = random_instance("one", num_sinks=1, seed=1)
        result = route(instance, skew_bound_ps=10.0)
        assert len(result.tree.sinks()) == 1
        assert result.wirelength == pytest.approx(
            instance.sinks[0].location.distance_to(instance.source)
        )

    def test_two_sink_instance(self):
        instance = random_instance("two", num_sinks=2, seed=2, num_groups=2)
        result = route(instance, skew_bound_ps=10.0)
        assert validate_result(result, intra_bound_ps=10.0) == []

    def test_technology_override(self):
        slow_tech = Technology.scaled(3.0, 1.0)
        instance = random_instance("tech", num_sinks=20, seed=5).with_technology(slow_tech)
        result = route(instance, skew_bound_ps=10.0)
        assert result.tree.technology == slow_tech
        assert validate_result(result, intra_bound_ps=10.0) == []


class TestDeterminism:
    def test_same_instance_same_result(self, small_instance):
        first = route(small_instance, skew_bound_ps=10.0)
        second = route(small_instance, skew_bound_ps=10.0)
        assert first.wirelength == pytest.approx(second.wirelength)
        report_a = skew_report(first.tree)
        report_b = skew_report(second.tree)
        assert report_a.global_skew == pytest.approx(report_b.global_skew)


class TestGroupAssociation:
    """The router's association record, including its one-class early-out."""

    @staticmethod
    def one_group_instance(num_sinks, group):
        from repro.circuits.instance import ClockInstance, Sink
        from repro.geometry.point import Point

        sinks = tuple(
            Sink(k, Point(float(37 * k % 101), float(53 * k % 97)), 0.05, group=group)
            for k in range(num_sinks)
        )
        return ClockInstance("one-group", sinks, Point(50.0, 50.0))

    @pytest.mark.parametrize("backend", ["arena", "object"])
    def test_single_group_run_registers_the_routing_group(self, backend):
        # single_group routes every sink in group 0; the instance's own group
        # 3 stays a separate, never associated class.
        instance = self.one_group_instance(40, group=3)
        config = AstDmeConfig(skew_bound_ps=10.0, tree_backend=backend)
        result = AstDme(config).route(instance, single_group=True)
        assert result.association.classes() == [[0], [3]]
        assert result.association.association_events == []

    @pytest.mark.parametrize("backend", ["arena", "object"])
    def test_single_sink_single_group_run_registers_nothing(self, backend):
        instance = self.one_group_instance(1, group=3)
        config = AstDmeConfig(skew_bound_ps=10.0, tree_backend=backend)
        result = AstDme(config).route(instance, single_group=True)
        assert result.association.classes() == [[3]]

    def test_backends_log_the_same_events_until_one_class_remains(self):
        instance = random_instance("assoc", 300, seed=4, num_groups=6)
        arena = route(instance, skew_bound_ps=10.0)
        obj = route(instance, skew_bound_ps=10.0, tree_backend="object")
        events = arena.association.association_events
        assert events == obj.association.association_events
        assert len(events) == 5  # six groups joined by five events
        assert arena.association.classes() == [list(range(6))]

    def test_class_count_tracks_registrations_and_joins(self):
        from repro.core.group_constraints import GroupAssociation

        association = GroupAssociation([1, 2, 3])
        assert association.num_classes == 3
        association.add(2)
        association.find(7)
        assert association.num_classes == 4
        assert association.associate(1, 2) and association.associate(3, 7)
        assert not association.associate(2, 1)
        assert association.num_classes == 2
        association.associate(7, 1)
        assert association.num_classes == 1 == len(association.classes())
