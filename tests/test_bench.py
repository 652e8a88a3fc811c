"""Tests for the ``repro bench`` perf-gate harness (repro.bench)."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    GATE_SPEEDUP,
    SCHEMA,
    format_rows,
    run_suite,
    scaling_configs,
    validate_bench_payload,
)
from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def smoke_payload():
    """One tiny suite run shared by the schema / gate / CLI-free tests."""
    return run_suite(sizes=(60,), smoke=True)


class TestSuiteDefinition:
    def test_configs_cover_routers_strategies_and_scenarios(self):
        configs = scaling_configs(sizes=(500, 2000), seed=1)
        labels = {config["label"] for config in configs}
        # 3 headline routers + 1 object-backend identity row + 2 single-merge
        # strategies + 3 blocked-scenario rows + 3 buffered/h-tree rows (v7),
        # per size.
        assert len(configs) == 24
        assert "ast-dme-n500" in labels
        assert "ast-dme-object-n2000" in labels
        assert "greedy-dme-single-scalar-n2000" in labels
        assert "greedy-dme-single-incremental-n2000" in labels
        assert "ast-dme-blocked-n500" in labels
        assert "ext-bst-blocked-n2000" in labels
        assert "ast-dme-buffered-blocked-n500" in labels
        assert "ast-dme-bufferfree-n2000" in labels
        assert "h-tree-blocked-n500" in labels
        # Specs are declarative and JSON-serialisable end to end.
        json.dumps(configs)

    def test_blocked_configs_use_the_blocked_family(self):
        configs = scaling_configs(sizes=(500,), seed=1)
        blocked = [c for c in configs if c["family"] == "blocked"]
        assert len(blocked) == 5  # 3 routers + buffered ast-dme + h-tree
        assert all(c["tree_backend"] == "arena" for c in blocked)
        for config in blocked:
            assert config["spec"]["instance"]["kind"] == "family"
            assert config["spec"]["instance"]["family"] == "blocked"
        assert all(c["family"] == "uniform" for c in configs if c not in blocked)

    def test_gate_threshold_is_the_issue_target(self):
        assert GATE_SPEEDUP == 5.0


class TestRunSuite:
    def test_payload_schema(self, smoke_payload):
        validate_bench_payload(smoke_payload)
        assert smoke_payload["schema"] == SCHEMA
        assert smoke_payload["suite"] == "scaling"
        assert smoke_payload["smoke"] is True
        assert smoke_payload["sizes"] == [60]
        assert smoke_payload["large_sizes"] == []
        assert smoke_payload["service_sizes"] == []
        assert len(smoke_payload["rows"]) == 12
        assert all(row["kind"] == "routing" for row in smoke_payload["rows"])
        json.dumps(smoke_payload)  # JSON-serialisable end to end

    def test_obstacle_scenario_rows_present_and_ok(self, smoke_payload):
        blocked = [row for row in smoke_payload["rows"] if row["family"] == "blocked"]
        assert {row["router"] for row in blocked} == {
            "ast-dme", "greedy-dme", "ext-bst", "h-tree",
        }
        for row in blocked:
            assert row["ok"], row["error"]
            assert row["wirelength"] > 0.0
            assert row["obstacle_detour"] >= 0.0

    def test_all_rows_ok(self, smoke_payload):
        for row in smoke_payload["rows"]:
            assert row["ok"], row["error"]
            assert row["wall_seconds"] > 0.0
            assert row["peak_rss_mb"] > 0.0
            assert row["wirelength"] > 0.0
            assert row["num_nodes"] > 0

    def test_gates_identical_results(self, smoke_payload):
        speedup_gates = [g for g in smoke_payload["gates"] if g["kind"] == "speedup"]
        assert speedup_gates, "suite must derive at least one speedup gate"
        for gate in speedup_gates:
            assert gate["identical_results"], (
                "strategies must route identical trees: %s" % gate
            )
            assert gate["passed"]

    def test_repair_gates_pass(self, smoke_payload):
        repair_gates = [g for g in smoke_payload["gates"] if g["kind"] == "repair"]
        assert repair_gates, "suite must derive one repair gate per size"
        for gate in repair_gates:
            assert gate["passed"], gate
            assert gate["violations_post"] <= 0.1 * gate["violations_pre"] or (
                gate["violations_pre"] == 0
            )

    def test_blocked_rows_carry_repair_columns(self, smoke_payload):
        for row in smoke_payload["rows"]:
            if row["family"] == "blocked":
                assert row["repaired"] is True
                assert row["repaired_wirelength"] > 0.0
                assert row["skew_violations_post"] <= row["skew_violations_pre"]
            elif row["repaired"]:
                # The v7 buffer-free identity row runs the pipeline on the
                # uniform instance but must leave the tree untouched.
                assert "bufferfree" in row["label"]
                assert row["repaired_wirelength"] == row["wirelength"]
            else:
                assert row["repaired_wirelength"] == row["wirelength"]

    def test_single_merge_strategies_agree_exactly(self, smoke_payload):
        rows = {
            row["neighbor_strategy"]: row
            for row in smoke_payload["rows"]
            if row["order"] == "single"
        }
        assert set(rows) == {"scalar", "incremental"}
        reference = rows["scalar"]
        for strategy in ("incremental",):
            assert rows[strategy]["wirelength"] == reference["wirelength"]
            assert rows[strategy]["global_skew_ps"] == reference["global_skew_ps"]
            assert rows[strategy]["num_nodes"] == reference["num_nodes"]

    def test_format_rows_mentions_every_label(self, smoke_payload):
        text = format_rows(smoke_payload)
        for row in smoke_payload["rows"]:
            assert row["label"] in text
        assert "PASS" in text


class TestValidate:
    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_bench_payload([])

    def test_rejects_wrong_schema(self, smoke_payload):
        bad = dict(smoke_payload, schema="something-else/v9")
        with pytest.raises(ValueError, match="unknown bench schema"):
            validate_bench_payload(bad)

    def test_rejects_missing_row_keys(self, smoke_payload):
        bad = dict(smoke_payload, rows=[{"kind": "routing", "label": "x"}])
        with pytest.raises(ValueError, match="misses keys"):
            validate_bench_payload(bad)

    def test_rejects_unknown_row_kind(self, smoke_payload):
        bad = dict(smoke_payload, rows=[dict(smoke_payload["rows"][0], kind="weird")])
        with pytest.raises(ValueError, match="unknown kind"):
            validate_bench_payload(bad)

    def test_rejects_unknown_suite(self, smoke_payload):
        bad = dict(smoke_payload, suite="sprint")
        with pytest.raises(ValueError, match="unknown bench suite"):
            validate_bench_payload(bad)

    def test_rejects_empty_rows(self, smoke_payload):
        bad = dict(smoke_payload, rows=[])
        with pytest.raises(ValueError, match="non-empty"):
            validate_bench_payload(bad)

    def test_rejects_service_gate_missing_keys(self, smoke_payload):
        bad = dict(smoke_payload, gates=[{"kind": "service", "name": "service-n1"}])
        with pytest.raises(ValueError, match="misses keys"):
            validate_bench_payload(bad)


class TestServiceSuite:
    """The serving-side suite (``repro bench --suite service``)."""

    @pytest.fixture(scope="class")
    def service_payload(self):
        return run_suite(suite="service", sizes=(40,), smoke=True)

    def test_payload_schema(self, service_payload):
        validate_bench_payload(service_payload)
        assert service_payload["suite"] == "service"
        assert service_payload["sizes"] == []
        # --suite service --sizes applies the explicit sizes to the load test.
        assert service_payload["service_sizes"] == [40]
        json.dumps(service_payload)

    def test_row_measures_hot_path(self, service_payload):
        (row,) = service_payload["rows"]
        assert row["kind"] == "service"
        assert row["ok"], row["error"]
        assert row["hits"] == row["requests"] - 1  # everything after the cold miss
        assert row["hit_rate"] >= 0.9
        assert row["identical_results"] is True
        assert row["requests_per_sec"] > 0.0
        assert 0.0 < row["p50_ms"] <= row["p99_ms"]

    def test_gates_pass(self, service_payload):
        gates = [g for g in service_payload["gates"] if g["kind"] == "service"]
        assert len(gates) == 1
        assert gates[0]["passed"], gates[0]
        # Smoke mode waives the latency threshold, never the hit-rate bar.
        assert gates[0]["speedup_threshold"] == 0.0
        assert gates[0]["min_hit_rate"] == 0.9

    def test_format_rows_has_service_table(self, service_payload):
        text = format_rows(service_payload)
        assert "service-n40" in text
        assert "hit rate" in text
        assert "PASS" in text

    def test_run_suite_rejects_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown bench suite"):
            run_suite(suite="sprint")


class TestCli:
    def test_bench_arguments(self):
        args = build_parser().parse_args(
            ["bench", "--smoke", "--sizes", "60", "120", "--out", "B.json"]
        )
        assert args.command == "bench"
        assert args.smoke is True
        assert args.sizes == [60, 120]
        assert args.out == "B.json"
        assert args.suite == "scaling"
        assert args.service_sizes is None

    def test_bench_suite_arguments(self):
        args = build_parser().parse_args(
            ["bench", "--suite", "all", "--service-sizes", "120", "240"]
        )
        assert args.suite == "all"
        assert args.service_sizes == [120, 240]

    def test_bench_smoke_writes_valid_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_smoke.json"
        assert main(["bench", "--smoke", "--sizes", "60", "--out", str(out)]) == 0
        with open(out, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        validate_bench_payload(payload)
        assert payload["suite"] == "scaling"
        assert payload["smoke"] is True
        captured = capsys.readouterr()
        # The row table is the report (stdout); "wrote FILE" is a progress
        # note and lives on stderr since the OutputWriter split.
        assert "label" in captured.out
        assert "wrote %s" % out in captured.err

    def test_bench_service_smoke_cli(self, tmp_path, capsys):
        out = tmp_path / "BENCH_service.json"
        assert main(
            ["bench", "--smoke", "--suite", "service", "--service-sizes", "40",
             "--out", str(out)]
        ) == 0
        with open(out, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        validate_bench_payload(payload)
        assert payload["suite"] == "service"
        assert payload["service_sizes"] == [40]
        assert all(row["kind"] == "service" for row in payload["rows"])
        assert all(gate["passed"] for gate in payload["gates"])


class TestV5Schema:
    """The v5 additions: backend columns/gates and the large suite."""

    def test_row_columns_carry_stage_breakdown(self, smoke_payload):
        for row in smoke_payload["rows"]:
            assert row["tree_backend"] in ("arena", "object")
            for key in ("merge_seconds", "embed_seconds", "delay_seconds"):
                assert row[key] >= 0.0, key

    def test_backend_rows_pin_the_expected_backend(self, smoke_payload):
        by_label = {row["label"]: row for row in smoke_payload["rows"]}
        assert by_label["ast-dme-n60"]["tree_backend"] == "arena"
        assert by_label["ast-dme-object-n60"]["tree_backend"] == "object"
        # Strategy rows keep measuring the v1-v4 object merge loop.
        assert by_label["greedy-dme-single-scalar-n60"]["tree_backend"] == "object"

    def test_backend_gates_assert_identity(self, smoke_payload):
        gates = [g for g in smoke_payload["gates"] if g["kind"] == "backend"]
        assert len(gates) == len(smoke_payload["sizes"])
        for gate in gates:
            assert gate["identical_results"], gate
            assert gate["passed"], gate

    def test_validate_accepts_backend_and_resource_gates(self, smoke_payload):
        payload = dict(
            smoke_payload,
            gates=smoke_payload["gates"]
            + [
                {
                    "kind": "resource",
                    "name": "resource-x",
                    "row_label": "x",
                    "wall_seconds": 1.0,
                    "max_wall_seconds": 2.0,
                    "merge_seconds": 0.5,
                    "max_merge_seconds": 1.0,
                    "peak_rss_mb": 10.0,
                    "max_peak_rss_mb": 20.0,
                    "passed": True,
                }
            ],
        )
        validate_bench_payload(payload)

    def test_validate_rejects_resource_gate_missing_keys(self, smoke_payload):
        bad = dict(smoke_payload, gates=[{"kind": "resource", "name": "r"}])
        with pytest.raises(ValueError, match="misses keys"):
            validate_bench_payload(bad)

    def test_validate_rejects_missing_large_sizes(self, smoke_payload):
        bad = {k: v for k, v in smoke_payload.items() if k != "large_sizes"}
        with pytest.raises(ValueError, match="large_sizes"):
            validate_bench_payload(bad)

    def test_format_rows_profile_mode(self, smoke_payload):
        text = format_rows(smoke_payload, profile=True)
        assert "merge s" in text and "embed s" in text and "delay s" in text
        for row in smoke_payload["rows"]:
            assert row["label"] in text


class TestLargeSuite:
    """``repro bench --suite large`` on tiny sizes (the shape, not the perf)."""

    @pytest.fixture(scope="class")
    def large_payload(self):
        return run_suite(suite="large", sizes=(80,), smoke=True)

    def test_configs_cover_backends(self):
        from repro.bench import large_configs

        configs = large_configs(sizes=(50000, 200000), seed=1)
        labels = {c["label"] for c in configs}
        assert labels == {
            "ast-dme-large-n50000",
            "greedy-dme-large-n50000",
            "ast-dme-large-n200000",
            "greedy-dme-large-n200000",
            "ast-dme-large-object-n50000",
        }
        json.dumps(configs)

    def test_payload_schema(self, large_payload):
        validate_bench_payload(large_payload)
        assert large_payload["suite"] == "large"
        assert large_payload["sizes"] == []
        # --suite large --sizes applies the explicit sizes to the large sweep.
        assert large_payload["large_sizes"] == [80]
        assert len(large_payload["rows"]) == 3

    def test_rows_ok_and_identity_gate_passes(self, large_payload):
        for row in large_payload["rows"]:
            assert row["ok"], row["error"]
        backend = [g for g in large_payload["gates"] if g["kind"] == "backend"]
        assert len(backend) == 1
        assert backend[0]["identical_results"]
        assert backend[0]["passed"]

    def test_resource_gates_waived_in_smoke(self, large_payload):
        resource = [g for g in large_payload["gates"] if g["kind"] == "resource"]
        assert len(resource) == 2  # one per arena row
        for gate in resource:
            assert gate["max_wall_seconds"] == 0.0
            assert gate["max_merge_seconds"] == 0.0
            assert gate["max_peak_rss_mb"] == 0.0
            assert gate["passed"]

    def test_resource_limits_cover_default_sizes(self):
        from repro.bench import (
            LARGE_MERGE_LIMITS,
            LARGE_RSS_LIMITS,
            LARGE_SIZES,
            LARGE_WALL_LIMITS,
        )

        for n in LARGE_SIZES:
            assert LARGE_WALL_LIMITS[n] > 0.0
            assert 0.0 < LARGE_MERGE_LIMITS[n] < LARGE_WALL_LIMITS[n]
            assert LARGE_RSS_LIMITS[n] > 0.0

    def test_merge_ceiling_binds_below_the_wall_ceiling(self):
        from repro.bench import LARGE_MERGE_LIMITS, _large_gates

        n = 50000
        row = {
            "label": "ast-dme-large-n%d" % n,
            "tree_backend": "arena",
            "num_sinks": n,
            "ok": True,
            "wall_seconds": 1.0,
            "peak_rss_mb": 1.0,
        }
        for merge, passed in ((0.99, True), (1.01, False)):
            row["merge_seconds"] = merge * LARGE_MERGE_LIMITS[n]
            (gate,) = _large_gates([row], [n], smoke=False)
            assert gate["passed"] is passed
            assert gate["max_merge_seconds"] == LARGE_MERGE_LIMITS[n]

    def test_cli_accepts_large_suite_and_profile(self):
        args = build_parser().parse_args(["bench", "--suite", "large", "--profile"])
        assert args.suite == "large"


class TestV7BufferedSchema:
    """The v7 additions: buffered rows, h-tree rows, buffered/htree gates."""

    def test_buffered_gate_asserts_identity_and_insertion(self, smoke_payload):
        gates = [g for g in smoke_payload["gates"] if g["kind"] == "buffered"]
        assert len(gates) == len(smoke_payload["sizes"])
        for gate in gates:
            assert gate["identical_results"] is True
            assert gate["buffers_inserted"] >= gate["min_buffers"] >= 1
            assert gate["validation_issues"] == 0
            assert gate["passed"], gate

    def test_htree_gate_prices_wirelength(self, smoke_payload):
        gates = [g for g in smoke_payload["gates"] if g["kind"] == "htree"]
        assert len(gates) == len(smoke_payload["sizes"])
        for gate in gates:
            assert 0.0 < gate["wirelength_ratio"] <= gate["max_ratio"]
            assert gate["validation_issues"] == 0
            assert gate["passed"], gate

    def test_bufferfree_row_is_bit_identical(self, smoke_payload):
        by_label = {row["label"]: row for row in smoke_payload["rows"]}
        plain = by_label["ast-dme-n60"]
        free = by_label["ast-dme-bufferfree-n60"]
        for key in (
            "wirelength", "global_skew_ps", "max_intra_group_skew_ps", "num_nodes",
        ):
            assert free[key] == plain[key], key
        assert free["buffers_inserted"] == 0
        # Rows without ``validate`` carry None, not a count.
        assert free["validation_issues"] is None

    def test_buffered_row_inserts_and_validates(self, smoke_payload):
        by_label = {row["label"]: row for row in smoke_payload["rows"]}
        row = by_label["ast-dme-buffered-blocked-n60"]
        assert row["ok"], row["error"]
        assert row["buffers_inserted"] >= 1
        assert row["validation_issues"] == 0

    def test_validate_rejects_buffered_gate_missing_keys(self, smoke_payload):
        bad = dict(smoke_payload, gates=[{"kind": "buffered", "name": "b"}])
        with pytest.raises(ValueError, match="misses keys"):
            validate_bench_payload(bad)

    def test_validate_rejects_htree_gate_missing_keys(self, smoke_payload):
        bad = dict(smoke_payload, gates=[{"kind": "htree", "name": "h"}])
        with pytest.raises(ValueError, match="misses keys"):
            validate_bench_payload(bad)

    def test_format_rows_prints_buffered_and_htree_gates(self, smoke_payload):
        text = format_rows(smoke_payload)
        assert "buffered-n60" in text
        assert "htree-blocked-n60" in text
        assert "wirelength x" in text


class TestV6EcoSuite:
    """The v6 additions: ``--suite eco`` rows and gates."""

    @pytest.fixture(scope="class")
    def eco_payload(self):
        return run_suite(suite="eco", sizes=(80,), smoke=True)

    def test_payload_schema(self, eco_payload):
        validate_bench_payload(eco_payload)
        assert eco_payload["suite"] == "eco"
        assert eco_payload["sizes"] == []
        # --suite eco --sizes applies the explicit sizes to the ECO sweep.
        assert eco_payload["eco_sizes"] == [80]
        assert len(eco_payload["rows"]) == 1
        json.dumps(eco_payload)

    def test_row_measures_the_incremental_path(self, eco_payload):
        (row,) = eco_payload["rows"]
        assert row["kind"] == "eco"
        assert row["ok"], row["error"]
        assert row["moved_sinks"] > 0
        assert 0.0 < row["eco_seconds"]
        assert 0.0 < row["full_seconds"]
        assert row["speedup"] == pytest.approx(
            row["full_seconds"] / row["eco_seconds"]
        )
        assert row["reused_nodes"] + row["rebuilt_nodes"] == row["num_nodes"]
        assert row["preserved_identical"] is True
        assert row["validation_ok"] is True

    def test_gate_waives_speedup_in_smoke_but_not_identity(self, eco_payload):
        gates = [g for g in eco_payload["gates"] if g["kind"] == "eco"]
        assert len(gates) == 1
        gate = gates[0]
        assert gate["threshold"] == 0.0  # smoke: speed-up waived...
        assert gate["preserved_identical"] is True  # ...identity never
        assert gate["validation_ok"] is True
        assert gate["passed"], gate

    def test_gate_threshold_is_the_issue_target(self):
        from repro.bench import ECO_SIZES, GATE_ECO_SPEEDUP, SMOKE_ECO_SIZES

        assert GATE_ECO_SPEEDUP == 10.0
        assert max(ECO_SIZES) == 8000
        assert SMOKE_ECO_SIZES == (120,)

    def test_validate_rejects_missing_eco_sizes(self, smoke_payload):
        bad = {k: v for k, v in smoke_payload.items() if k != "eco_sizes"}
        with pytest.raises(ValueError, match="eco_sizes"):
            validate_bench_payload(bad)

    def test_validate_rejects_eco_gate_missing_keys(self, smoke_payload):
        bad = dict(smoke_payload, gates=[{"kind": "eco", "name": "eco-n1"}])
        with pytest.raises(ValueError, match="misses keys"):
            validate_bench_payload(bad)

    def test_format_rows_has_eco_table(self, eco_payload):
        text = format_rows(eco_payload)
        assert "ast-dme-eco-n80" in text
        assert "speedup" in text and "identical" in text
        assert "PASS" in text

    def test_cli_accepts_eco_suite(self):
        args = build_parser().parse_args(
            ["bench", "--suite", "eco", "--eco-sizes", "120"]
        )
        assert args.suite == "eco"
        assert args.eco_sizes == [120]
        assert args.profile is False  # profiling stays opt-in
