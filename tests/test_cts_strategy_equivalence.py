"""Equivalence regression: every neighbour strategy routes the same trees.

The ``incremental`` neighbour index is a pure acceleration of the ``scalar``
seed reference -- routed trees must stay *identical* (topology exactly,
delays / skews / wirelength to 1e-9).  These tests route the same seeded
instances through both strategies and compare the full embedded trees, the
skew reports and the wirelength totals, so any future drift in the fast
paths fails loudly.  The retired ``rebuild`` strategy must fail loudly too.
"""

from __future__ import annotations

import pytest

from repro.analysis.skew import skew_report
from repro.api import RunSpec, get_router, run_safe
from repro.circuits.generator import random_instance
from repro.circuits.grouping import intermingled_groups
from repro.core.ast_dme import AstDme, AstDmeConfig
from repro.cts.bst import ExtBst
from repro.cts.dme import GreedyDme

TOL = 1e-9


def tree_signature(result):
    """Topology + embedding of a routed tree, as comparable plain data."""
    signature = []
    for node in sorted(result.tree.nodes(), key=lambda n: n.node_id):
        signature.append(
            (
                node.node_id,
                node.kind,
                node.parent,
                tuple(node.children),
                node.edge_length,
                None if node.location is None else (node.location.x, node.location.y),
            )
        )
    return signature


def assert_equivalent(result_a, result_b):
    sig_a, sig_b = tree_signature(result_a), tree_signature(result_b)
    assert sig_a == sig_b, "routed trees must be identical node for node"
    assert result_a.wirelength == pytest.approx(result_b.wirelength, abs=TOL)
    skew_a, skew_b = skew_report(result_a.tree), skew_report(result_b.tree)
    assert skew_a.global_skew == pytest.approx(skew_b.global_skew, abs=TOL)
    assert skew_a.max_delay == pytest.approx(skew_b.max_delay, abs=TOL)
    assert skew_a.per_group_skew.keys() == skew_b.per_group_skew.keys()
    for group, value in skew_a.per_group_skew.items():
        assert value == pytest.approx(skew_b.per_group_skew[group], abs=TOL)


def configs_for(strategy: str, multi_merge: bool = True) -> AstDmeConfig:
    return AstDmeConfig(neighbor_strategy=strategy, multi_merge=multi_merge)


@pytest.mark.parametrize("seed", [3, 17])
def test_greedy_dme_strategies_identical(seed):
    instance = random_instance("equiv-%d" % seed, num_sinks=220, seed=seed)
    reference = GreedyDme(configs_for("scalar")).route(instance)
    for strategy in ("incremental",):
        assert_equivalent(GreedyDme(configs_for(strategy)).route(instance), reference)


def test_greedy_dme_single_merge_strategies_identical():
    instance = random_instance("equiv-single", num_sinks=160, seed=5)
    reference = GreedyDme(configs_for("scalar", multi_merge=False)).route(instance)
    for strategy in ("incremental",):
        assert_equivalent(
            GreedyDme(configs_for(strategy, multi_merge=False)).route(instance),
            reference,
        )


@pytest.mark.parametrize("strategy", ["incremental"])
def test_ast_dme_strategies_identical(strategy):
    instance = intermingled_groups(
        random_instance("equiv-ast", num_sinks=200, seed=9), 6, seed=1
    )
    reference = AstDme(configs_for("scalar")).route(instance)
    assert_equivalent(AstDme(configs_for(strategy)).route(instance), reference)


@pytest.mark.parametrize("strategy", ["incremental"])
def test_ast_dme_delay_target_strategies_identical(strategy):
    """The cost-bias path (delay-target merging order) stays equivalent too."""
    instance = intermingled_groups(
        random_instance("equiv-bias", num_sinks=150, seed=21), 4, seed=2
    )
    config = AstDmeConfig(neighbor_strategy="scalar", delay_target_weight=0.4)
    reference = AstDme(config).route(instance)
    fast = AstDme(
        AstDmeConfig(neighbor_strategy=strategy, delay_target_weight=0.4)
    ).route(instance)
    assert_equivalent(fast, reference)


@pytest.mark.parametrize("strategy", ["incremental"])
def test_ext_bst_strategies_identical(strategy):
    instance = random_instance("equiv-bst", num_sinks=180, seed=27)
    reference = ExtBst(skew_bound_ps=10.0, config=configs_for("scalar")).route(instance)
    assert_equivalent(
        ExtBst(skew_bound_ps=10.0, config=configs_for(strategy)).route(instance),
        reference,
    )


class TestRetiredRebuildStrategy:
    """``neighbor_strategy="rebuild"`` fails loudly and names its replacement."""

    def test_get_router_rejects_rebuild(self):
        with pytest.raises(ValueError, match="'rebuild' has been removed.*'incremental'"):
            get_router("ast-dme", {"neighbor_strategy": "rebuild"})

    def test_json_run_spec_reports_the_replacement(self):
        spec = RunSpec.from_dict(
            {
                "instance": {"kind": "random", "num_sinks": 20, "seed": 1},
                "router": {
                    "name": "greedy-dme",
                    "options": {"neighbor_strategy": "rebuild"},
                },
            }
        )
        result = run_safe(spec)
        assert result.error is not None
        assert result.error.startswith("ValueError")
        assert "'incremental'" in result.error.splitlines()[0]
