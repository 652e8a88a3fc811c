"""Tests for the EcoSpec/EcoResult facade (repro.api.eco)."""

from __future__ import annotations

import json

import pytest

from repro.api import InstanceSpec, RouterSpec, RunSpec, run
from repro.api.eco import EcoResult, EcoSpec, run_eco, run_eco_safe
from repro.eco import EcoDelta, SinkMove
from repro.geometry.point import Point
from repro.opt.config import OptConfig


def _base_spec(n=60, seed=4, router="ast-dme", groups=3):
    return RunSpec(
        instance=InstanceSpec.from_random(n, seed=seed, groups=groups),
        router=RouterSpec(router, {"skew_bound_ps": 10.0}),
        validate=True,
    )


def _eco_spec(**kwargs):
    defaults = dict(
        base=_base_spec(),
        delta=EcoDelta(move=(SinkMove(5, Point(1500.0, 2500.0)),)),
        validate=True,
    )
    defaults.update(kwargs)
    return EcoSpec(**defaults)


class TestSpec:
    def test_round_trip_is_lossless(self):
        spec = _eco_spec(repair=OptConfig(enabled=True), label="eco-1")
        data = spec.to_dict()
        json.dumps(data)  # JSON-serialisable end to end
        assert EcoSpec.from_dict(data) == spec

    def test_optional_fields_omitted_from_dict(self):
        data = _eco_spec().to_dict()
        assert "repair" not in data and "label" not in data

    def test_from_dict_rejects_unknown_keys(self):
        data = _eco_spec().to_dict()
        data["surprise"] = 1
        with pytest.raises(ValueError, match="unknown eco spec keys"):
            EcoSpec.from_dict(data)

    def test_cache_key_is_stable_and_sensitive(self):
        spec = _eco_spec()
        assert spec.cache_key() == _eco_spec().cache_key()
        assert len(spec.cache_key()) == 64
        moved = _eco_spec(delta=EcoDelta(move=(SinkMove(6, Point(1500.0, 2500.0)),)))
        assert moved.cache_key() != spec.cache_key()
        repaired = _eco_spec(repair=OptConfig(enabled=True))
        assert repaired.cache_key() != spec.cache_key()
        other_base = _eco_spec(base=_base_spec(seed=5))
        assert other_base.cache_key() != spec.cache_key()


class TestRunEco:
    def test_runs_base_when_not_supplied(self):
        result = run_eco(_eco_spec())
        assert result.ok, result.issues or result.error
        assert result.base_seconds > 0.0
        assert result.eco_seconds > 0.0
        assert result.eco is not None and result.eco.sinks_moved == 1
        assert result.num_sinks == 60
        assert result.routing is None  # keep_tree defaults off

    def test_reuses_supplied_base_routing(self):
        spec = _eco_spec()
        base = run(spec.base, keep_tree=True)
        result = run_eco(spec, keep_tree=True, base_routing=base.routing)
        assert result.ok
        assert result.base_seconds == 0.0  # nothing re-routed
        assert result.routing is not None
        assert len(result.routing.tree) == result.num_nodes

    @pytest.mark.parametrize("router", ["ast-dme", "greedy-dme", "ext-bst"])
    def test_every_builtin_router_supported(self, router):
        spec = _eco_spec(base=_base_spec(router=router, groups=1))
        result = run_eco(spec)
        assert result.ok, (router, result.issues or result.error)

    def test_result_round_trips_to_dict(self):
        result = run_eco(_eco_spec())
        data = result.to_dict()
        json.dumps(data)
        back = EcoResult.from_dict(data)
        assert back.to_dict() == data
        assert back.wirelength == result.wirelength
        assert back.eco.preserved_roots == result.eco.preserved_roots

    def test_trace_attributes_delay_and_validation(self):
        spec = _eco_spec()
        base = run(spec.base, keep_tree=True).routing
        traced = run_eco(spec, base_routing=base, trace=True)
        untraced = run_eco(spec, base_routing=base)
        (eco,) = [e for e in traced.trace if e["name"] == "eco"]
        children = {e["name"]: e for e in traced.trace if e["parent_id"] == eco["span_id"]}
        assert {"eco.delay", "eco.validate"} <= set(children)
        assert children["eco.validate"]["attrs"]["issues"] == len(traced.issues)
        a, b = traced.to_dict(), untraced.to_dict()
        for key in ("eco_seconds", "total_seconds", "stats", "trace"):
            a.pop(key, None)
            b.pop(key, None)
        assert a == b

    def test_remerge_span_wraps_the_routers_dme_spans(self):
        spec = _eco_spec()
        base = run(spec.base, keep_tree=True).routing
        traced = run_eco(spec, base_routing=base, trace=True)
        by_id = {e["span_id"]: e for e in traced.trace}
        (remerge,) = [e for e in traced.trace if e["name"] == "eco.remerge"]
        passes = [e for e in traced.trace if e["name"] == "dme.pass"]
        assert len(passes) == remerge["attrs"]["passes"] > 0
        assert all(e["parent_id"] == remerge["span_id"] for e in passes)
        for event in traced.trace:
            if event["name"] in ("dme.select", "dme.merge"):
                assert by_id[event["parent_id"]]["name"] == "dme.pass"

    def test_validation_issues_populate_issues(self):
        # An absurdly tight bound the stitched tree cannot meet globally is
        # not available per-spec, so instead check the plumbing: validate off
        # yields no issues even for the same delta.
        result = run_eco(_eco_spec(validate=False))
        assert result.issues == []


class TestRunEcoSafe:
    def test_captures_errors_instead_of_raising(self):
        bad = _eco_spec(delta=EcoDelta(move=(SinkMove(99_999, Point(0.0, 0.0)),)))
        result = run_eco_safe(bad)
        assert result.error is not None
        assert "unknown sink ids" in result.error
        assert not result.ok

    def test_success_matches_run_eco(self):
        result = run_eco_safe(_eco_spec())
        assert result.error is None and result.ok
