"""Differential tests: the snapshot validator against the reference validator.

The reference below is the validator as it was before the flat-snapshot
rewrite: a networkx structure check, an RC oracle built node by node as an
:class:`~repro.delay.rc_tree.RcTree` per buffer stage, and per-node scalar
geometry / coverage / locus checks.  It lives here only as a test oracle.

Routed trees are generated (random, clustered and blocked families, 2-96
groups -- above ``ARENA_MAX_GROUPS`` the router takes the object core --
and buffered trees from ``buffer-insert``), then optionally broken by one
seeded mutation.  Wherever the reference returns, both validators must
report the same ``(code, message)`` list; where the reference crashes or
would hang, the new validator must report structure issues instead.
"""

import random
from dataclasses import replace as _replace

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.skew import skew_report
from repro.analysis.validate import (
    DEFAULT_LOCUS_TOLERANCE,
    ValidationIssue,
    validate_result,
    validate_tree,
)
from repro.api import InstanceSpec, RouterSpec, RunSpec, run
from repro.core.ast_dme import ARENA_MAX_GROUPS
from repro.delay.elmore import sink_delays
from repro.delay.rc_tree import RcTree
from repro.delay.technology import Technology
from repro.geometry.point import Point
from repro.opt.config import OptConfig

_GEOM_TOL = 1e-6
_DELAY_REL_TOL = 1e-9


# ----------------------------------------------------------------------
# Reference validator (test oracle only)
# ----------------------------------------------------------------------
def ref_validate_tree(tree, instance=None, obstacles=None):
    if obstacles is None and instance is not None and instance.has_obstacles:
        obstacles = instance.obstacle_set()
    issues = ref_check_structure(tree)
    if any(issue.message == "the tree has no root" for issue in issues):
        return issues
    issues.extend(ref_check_geometry(tree))
    if obstacles:
        issues.extend(ref_check_blockages(tree, obstacles))
    issues.extend(ref_check_delays(tree))
    if instance is not None:
        issues.extend(ref_check_instance_coverage(tree, instance))
    return issues


def ref_validate_result(result, intra_bound_ps=None, locus_tolerance=DEFAULT_LOCUS_TOLERANCE):
    issues = ref_validate_tree(result.tree, result.instance)
    obstacles = result.instance.obstacle_set() if result.instance.has_obstacles else None
    max_escape = max(rect.width + rect.height for rect in obstacles) if obstacles else 0.0
    for node_id, locus in result.loci.items():
        node = result.tree.node(node_id)
        if node.location is None or locus.contains_point(node.location, tol=locus_tolerance):
            continue
        if (
            obstacles is not None
            and not obstacles.blocks_point(node.location)
            and obstacles.blocks_point(locus.nearest_point_to(node.location))
            and locus.distance_to_point(node.location) <= max_escape + locus_tolerance
        ):
            continue
        issues.append(
            ValidationIssue(
                "locus",
                "node %d embedded at %r outside its placement locus" % (node_id, node.location),
            )
        )
    if intra_bound_ps is not None:
        report = skew_report(result.tree)
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


def ref_check_structure(tree):
    issues = []
    try:
        root = tree.root()
    except ValueError:
        return [ValidationIssue("structure", "the tree has no root")]
    if not root.is_source:
        issues.append(ValidationIssue("structure", "the tree root is not a source node"))
    graph = tree.to_networkx()
    if graph.number_of_nodes() and not nx.is_connected(graph.to_undirected()):
        issues.append(ValidationIssue("structure", "the tree is not connected"))
    if not nx.is_directed_acyclic_graph(graph):
        issues.append(ValidationIssue("structure", "the tree contains a cycle"))
    if graph.number_of_edges() != graph.number_of_nodes() - 1:
        issues.append(
            ValidationIssue(
                "structure",
                "edge count %d does not match node count %d minus one"
                % (graph.number_of_edges(), graph.number_of_nodes()),
            )
        )
    for node in tree.nodes():
        if node.is_sink and node.children:
            issues.append(ValidationIssue("structure", "sink node %d has children" % node.node_id))
    return issues


def ref_check_geometry(tree):
    issues = []
    for node in tree.nodes():
        if node.parent is None:
            continue
        parent = tree.node(node.parent)
        if node.location is None or parent.location is None:
            issues.append(
                ValidationIssue(
                    "geometry", "edge %d -> %d is not embedded" % (parent.node_id, node.node_id)
                )
            )
            continue
        distance = node.location.distance_to(parent.location)
        if node.edge_length < distance - _GEOM_TOL:
            issues.append(
                ValidationIssue(
                    "geometry",
                    "edge %d -> %d books %.6g wire for a %.6g distance"
                    % (parent.node_id, node.node_id, node.edge_length, distance),
                )
            )
    return issues


def ref_check_blockages(tree, obstacles):
    issues = []
    for node in tree.nodes():
        if node.location is not None and obstacles.blocks_point(node.location):
            issues.append(
                ValidationIssue(
                    "blockage",
                    "node %d is embedded at %r inside a blockage" % (node.node_id, node.location),
                )
            )
    for node in tree.nodes():
        if node.parent is None or node.location is None:
            continue
        parent = tree.node(node.parent)
        if parent.location is None:
            continue
        if obstacles.blocks_point(node.location) or obstacles.blocks_point(parent.location):
            continue
        try:
            needed = obstacles.detour_distance(parent.location, node.location)
        except ValueError:
            issues.append(
                ValidationIssue(
                    "blockage",
                    "edge %d -> %d has no blockage-avoiding path at all"
                    % (parent.node_id, node.node_id),
                )
            )
            continue
        if node.edge_length < needed - _GEOM_TOL:
            issues.append(
                ValidationIssue(
                    "blockage",
                    "edge %d -> %d books %.6g wire but avoiding blockages needs %.6g"
                    % (parent.node_id, node.node_id, node.edge_length, needed),
                )
            )
    return issues


def ref_oracle_delays(tree, segments_per_edge=4):
    """Per-stage RC networks built node by node (the historical oracle)."""
    tech = tree.technology
    root = tree.root()
    result = {}
    stages = []
    if root.buffer is not None:
        result[root.node_id] = tech.source_resistance * root.buffer.input_cap
        stages.append(
            (root.node_id, result[root.node_id] + root.buffer.intrinsic_delay,
             root.buffer.drive_resistance)
        )
    else:
        stages.append((root.node_id, 0.0, tech.source_resistance))
    while stages:
        stage_root, base, drive = stages.pop()
        rc = RcTree(stage_root, technology=_replace(tech, source_resistance=drive))
        rc.add_cap(stage_root, tree.node(stage_root).sink_cap)
        members = []
        boundaries = []
        queue = [stage_root]
        while queue:
            nid = queue.pop()
            for child in tree.children_of(nid):
                rc.add_wire(child.node_id, nid, child.edge_length, segments_per_edge)
                members.append(child.node_id)
                if child.buffer is not None:
                    rc.add_cap(child.node_id, child.buffer.input_cap)
                    boundaries.append(child)
                else:
                    rc.add_cap(child.node_id, child.sink_cap)
                    queue.append(child.node_id)
        delays = rc.elmore_delays()
        if stage_root not in result:
            result[stage_root] = base + delays[stage_root]
        for nid in members:
            result[nid] = base + delays[nid]
        for child in boundaries:
            if child.children:
                stages.append(
                    (child.node_id, result[child.node_id] + child.buffer.intrinsic_delay,
                     child.buffer.drive_resistance)
                )
    return result


def ref_check_delays(tree):
    issues = []
    fast = sink_delays(tree)
    oracle = ref_oracle_delays(tree)
    for sink_id, fast_delay in fast.items():
        oracle_delay = oracle[sink_id]
        scale = max(abs(fast_delay), abs(oracle_delay), 1.0)
        if abs(fast_delay - oracle_delay) > _DELAY_REL_TOL * scale + 1e-6:
            issues.append(
                ValidationIssue(
                    "delay",
                    "sink %d: fast Elmore %.6g differs from RC oracle %.6g"
                    % (sink_id, fast_delay, oracle_delay),
                )
            )
    return issues


def ref_check_instance_coverage(tree, instance):
    issues = []
    sinks_by_location = {}
    for node in tree.sinks():
        key = (round(node.location.x, 6), round(node.location.y, 6))
        sinks_by_location.setdefault(key, []).append(node)
    if len(tree.sinks()) != instance.num_sinks:
        issues.append(
            ValidationIssue(
                "coverage",
                "tree has %d sinks but the instance has %d" % (len(tree.sinks()), instance.num_sinks),
            )
        )
    for sink in instance.sinks:
        key = (round(sink.location.x, 6), round(sink.location.y, 6))
        match = next(
            (
                node
                for node in sinks_by_location.get(key, [])
                if abs(node.sink_cap - sink.cap) <= 1e-9 and node.group == sink.group
            ),
            None,
        )
        if match is None:
            issues.append(
                ValidationIssue(
                    "coverage",
                    "instance sink %d (group %d) has no matching tree sink"
                    % (sink.sink_id, sink.group),
                )
            )
    root = tree.root()
    if root.location is not None and root.location.distance_to(instance.source) > _GEOM_TOL:
        issues.append(
            ValidationIssue(
                "coverage",
                "tree source at %r does not match the instance source %r"
                % (root.location, instance.source),
            )
        )
    return issues


def reference_would_hang(tree):
    """Whether a walk down the children lists from the root meets a node
    twice -- the reference's ``topological_order`` then never ends."""
    seen = set()
    stack = [tree.root_id]
    while stack:
        nid = stack.pop()
        if nid in seen:
            return True
        seen.add(nid)
        stack.extend(tree.node(nid).children)
    return False


# ----------------------------------------------------------------------
# Tree generation and mutations
# ----------------------------------------------------------------------
BOUND_PS = 10.0


def routed(family, sinks, groups, seed, buffered):
    if family == "random":
        instance = InstanceSpec.from_random(sinks, seed=seed, groups=groups, layout_size=20_000.0)
    else:
        instance = InstanceSpec.from_family(
            family, sinks, seed=seed, groups=groups, layout_size=20_000.0
        )
    opt = None
    if buffered:
        opt = OptConfig(enabled=True, passes=("buffer-insert",), max_cap=100.0)
    spec = RunSpec(
        instance=instance,
        router=RouterSpec("ast-dme", {"skew_bound_ps": BOUND_PS}),
        opt=opt,
        validate=False,
    )
    return run(spec, keep_tree=True).routing


def _unlink(tree, node):
    if node.parent is not None and node.parent in tree:
        tree.node(node.parent).children.remove(node.node_id)
    node.parent = None


def _relink(tree, node, new_parent):
    _unlink(tree, node)
    node.parent = new_parent
    tree.node(new_parent).children.append(node.node_id)


def _subtree(tree, node_id):
    out = []
    stack = [node_id]
    while stack:
        nid = stack.pop()
        out.append(nid)
        stack.extend(tree.node(nid).children)
    return out


def mutate(routing, kind, rng):
    """Apply one seeded mutation in place (links stay mutually consistent)."""
    tree = routing.tree
    nodes = list(tree.nodes())
    non_root = [n for n in nodes if n.node_id != tree.root_id]
    sinks = tree.sinks()
    root = tree.root()
    if kind == "detach":
        _unlink(tree, rng.choice(non_root))
    elif kind == "reparent":
        node = rng.choice(non_root)
        below = set(_subtree(tree, node.node_id))
        target = rng.choice([n for n in nodes if n.node_id not in below])
        _relink(tree, node, target.node_id)
    elif kind == "cycle":
        if rng.random() < 0.3:
            # The root becomes the child of a sink: the reference hangs.
            _relink(tree, root, rng.choice(sinks).node_id)
        else:
            node = rng.choice(non_root)
            _relink(tree, node, rng.choice(_subtree(tree, node.node_id)))
    elif kind == "underbook":
        node = rng.choice(non_root)
        node.edge_length *= rng.choice([0.0, 0.25, 0.9])
    elif kind == "move-sink":
        node = rng.choice(sinks)
        node.location = Point(node.location.x + rng.uniform(-3000.0, 3000.0), node.location.y)
    elif kind == "regroup":
        node = rng.choice(sinks)
        node.group = (node.group or 0) + rng.randint(1, 3)
    elif kind == "cap":
        node = rng.choice(sinks)
        node.sink_cap *= rng.choice([0.5, 2.0, 10.0])
    elif kind == "move-source":
        root.location = Point(root.location.x + rng.uniform(1.0, 500.0), root.location.y)
    tree.mark_mutated()


MUTATIONS = (
    None, "detach", "reparent", "cycle", "underbook",
    "move-sink", "regroup", "cap", "move-source",
)


def assert_agrees(routing):
    tree = routing.tree
    new = [(i.code, i.message) for i in validate_result(routing, intra_bound_ps=BOUND_PS)]
    if reference_would_hang(tree):
        reference = None
    else:
        try:
            reference = ref_validate_result(routing, intra_bound_ps=BOUND_PS)
        except Exception:  # noqa: BLE001 - a crash is the reference's answer
            reference = None
    if reference is None:
        assert any(code == "structure" for code, _ in new), new
    else:
        assert new == [(i.code, i.message) for i in reference]
    return new, reference


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
class TestDifferential:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        family=st.sampled_from(["random", "clustered", "blocked"]),
        sinks=st.integers(min_value=12, max_value=120),
        groups=st.integers(min_value=2, max_value=ARENA_MAX_GROUPS + 32),
        seed=st.integers(min_value=0, max_value=1000),
        buffered=st.booleans(),
        mutation=st.sampled_from(MUTATIONS),
        mutation_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_matches_reference(
        self, family, sinks, groups, seed, buffered, mutation, mutation_seed
    ):
        routing = routed(family, sinks, min(groups, sinks), seed, buffered)
        if mutation is not None:
            mutate(routing, mutation, random.Random(mutation_seed))
        assert_agrees(routing)

    @pytest.mark.parametrize("mutation", MUTATIONS)
    @pytest.mark.parametrize("family", ["random", "blocked"])
    def test_each_mutation(self, family, mutation):
        routing = routed(family, 60, 4, 5, buffered=False)
        if mutation is not None:
            mutate(routing, mutation, random.Random(17))
        new, reference = assert_agrees(routing)
        if mutation is None:
            assert reference is not None
        if mutation == "cycle":
            assert reference is None  # the reference crashes or hangs here

    def test_above_arena_group_limit_and_buffered(self):
        routing = routed("clustered", 150, ARENA_MAX_GROUPS + 8, 3, buffered=True)
        assert routing.tree.num_buffers() > 1
        new, reference = assert_agrees(routing)
        assert reference is not None

    def test_bare_tree_checks_agree(self):
        routing = routed("blocked", 80, 3, 9, buffered=False)
        mutate(routing, "underbook", random.Random(3))
        obstacles = routing.instance.obstacle_set()
        new = validate_tree(routing.tree, obstacles=obstacles)
        assert new == ref_validate_tree(routing.tree, obstacles=obstacles)


class TestBufferedOracle:
    """The array ``oracle_delays`` equals the per-stage ``RcTree`` oracle."""

    def nested_tree(self):
        from repro.cts.tree import ClockTree
        from repro.delay.buffer import default_library

        lib = default_library()
        tree = ClockTree()
        s = [tree.add_sink(Point(100.0 * i, 0.0), 10.0 + i, group=i % 2) for i in range(6)]
        a = tree.add_internal([s[0], s[1]], [60.0, 50.0], location=Point(50.0, 0.0))
        b = tree.add_internal([a, s[2]], [150.0, 100.0], location=Point(200.0, 0.0))
        c = tree.add_internal([s[3], s[4], s[5]], [20.0, 80.0, 200.0], location=Point(320.0, 0.0))
        m = tree.add_internal([b, c], [120.0, 130.0], location=Point(250.0, 0.0))
        root = tree.add_source(Point(250.0, 40.0), m, 40.0)
        tree.set_buffer(root, lib.cell("buf-x4"))  # buffered source
        tree.set_buffer(b, lib.cell("buf-x2"))  # a stage inside a stage
        tree.set_buffer(a, lib.cell("buf-x1"))
        tree.set_buffer(s[5], lib.cell("buf-x1"))  # buffered leaf: no stage
        return tree

    @pytest.mark.parametrize("segments", [1, 3, 4, 6])
    def test_nested_stages(self, segments):
        from repro.delay.rc_tree import oracle_delays

        tree = self.nested_tree()
        assert oracle_delays(tree, segments) == ref_oracle_delays(tree, segments)

    def test_routed_buffered_tree(self):
        from repro.delay.rc_tree import oracle_delays

        routing = routed("clustered", 150, ARENA_MAX_GROUPS + 8, 3, buffered=True)
        assert routing.tree.num_buffers() > 1
        assert oracle_delays(routing.tree) == ref_oracle_delays(routing.tree)

    def test_optimizer_oracle_check_on_a_blocked_buffered_op(self):
        from repro.bench import BENCH_MAX_CAP
        from repro.opt.config import BUFFERED_PASSES

        spec = RunSpec(
            instance=InstanceSpec.from_family("blocked", 200, seed=1, groups=8),
            router=RouterSpec("ast-dme", {"skew_bound_ps": BOUND_PS}),
            opt=OptConfig(enabled=True, passes=BUFFERED_PASSES, max_cap=BENCH_MAX_CAP),
            validate=True,
        )
        result = run(spec, keep_tree=True)
        tree = result.routing.tree
        assert tree.num_buffers() >= 1
        fast = sink_delays(tree)
        reference = ref_oracle_delays(tree)
        assert result.opt.oracle_checked
        assert result.opt.oracle_max_diff == max(abs(fast[n] - reference[n]) for n in fast)
        assert [(i.code, i.message) for i in result.issues] == [
            (i.code, i.message) for i in ref_validate_result(result.routing, BOUND_PS)
        ]
