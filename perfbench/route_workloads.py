"""The two in-process route workloads: ``route-open`` and ``route-blocked-repair``.

One op is one ``repro.api.run(spec)`` call on an instance file -- the path
``repro route FILE --validate`` (and ``--repair``) takes.  A run routes the
base ops in whole passes for about ``--seconds``; pass ``p`` routes the
seed's variant ``p % VARIANTS`` of every base op, so every pass has the same
composition and, with at least ``VARIANTS`` passes, pool-level quality sums
are exact.

The traced run routes each op twice: once through ``run()`` untraced (the
reference result and the wall time the residual is taken from) and once by
calling the layers' public functions in the runner's order, each call wrapped
in a span of a private :class:`repro.obs.trace.Tracer`.  The library's own
spans stay off, so no span inside ``src/`` is recorded.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Tuple

from repro.analysis.skew import skew_report
from repro.analysis.validate import validate_result
from repro.analysis.wirelength import wirelength_report
from repro.api import InstanceSpec, RouterSpec, RunResult, RunSpec, get_router, run
from repro.bench import BENCH_MAX_CAP
from repro.core.ast_dme import ARENA_MAX_GROUPS
from repro.delay.technology import Technology
from repro.obs.trace import Tracer
from repro.opt.config import BUFFERED_PASSES, OptConfig
from repro.opt.optimizer import _ORACLE_TOL, optimize_routing

from common import (
    MachineSpeed, check_fingerprints, fingerprint, median, seeded_instance,
    self_peak_rss_mb, write_layer_artefacts,
)

BOUND = {"skew_bound_ps": 10.0}
#: Group count of the fallback op: above ARENA_MAX_GROUPS, so ast-dme takes
#: the object-walk core instead of the arena.
FALLBACK_GROUPS = ARENA_MAX_GROUPS + 32
#: Span of each layer call in the traced run -> its per-layer metric.
LAYER_SPANS = {
    "circuits.build": "circuits.build_s",
    "core.route": "core.route_s",
    "opt.optimize": "opt.busy_s",
    "analysis.skew": "analysis.skew_s",
    "analysis.wirelength": "analysis.wirelength_s",
    "analysis.validate": "analysis.validate_s",
}
OPT_PASS_METRICS = {
    "reembed": "opt.reembed_s",
    "skew-repair": "opt.skew_repair_s",
    "wirelength-recovery": "opt.wirelength_recovery_s",
    "buffer-insert": "opt.buffer_insert_s",
}


def _ast_dme() -> RouterSpec:
    return RouterSpec("ast-dme", dict(BOUND))


def open_bases() -> List[RunSpec]:
    """Five obstacle-free ops.  The fallback op goes first, so every pass
    that starts also reaches it."""
    shapes = (
        ("random", 2000, FALLBACK_GROUPS),
        ("random", 5000, 8),
        ("clustered", 5000, 8),
        ("clustered", 6000, 32),
        ("random", 6000, 32),
    )
    specs = []
    for index, (family, sinks, groups) in enumerate(shapes, 1):
        if family == "random":
            instance = InstanceSpec.from_random(sinks, seed=index, groups=groups)
        else:
            instance = InstanceSpec.from_family(family, sinks, seed=index, groups=groups)
        specs.append(
            RunSpec(instance=instance, router=_ast_dme(), validate=True, label="open-%d" % index)
        )
    return specs


def blocked_bases() -> List[RunSpec]:
    """Three blocked-family ops (1k, 1k and 1.5k sinks), one per repair
    configuration.  Repair effort, not the sink count, sets their cost:
    each takes seconds, about as long as a 3k-5k sink op does."""

    def blocked(index: int, sinks: int) -> InstanceSpec:
        return InstanceSpec.from_family("blocked", sinks, seed=index, groups=8)

    return [
        RunSpec(
            instance=blocked(1, 1000),
            router=_ast_dme(),
            validate=True,
            opt=OptConfig(enabled=True, passes=BUFFERED_PASSES, max_cap=BENCH_MAX_CAP),
            label="blocked-buffered",
        ),
        RunSpec(
            instance=blocked(2, 1000),
            router=_ast_dme(),
            validate=True,
            opt=OptConfig(enabled=True),
            label="blocked-repair",
        ),
        RunSpec(
            instance=blocked(3, 1500),
            router=RouterSpec("h-tree", dict(BOUND, trunk_levels=2)),
            validate=True,
            opt=OptConfig(enabled=True),
            label="blocked-htree",
        ),
    ]


BASES = {"route-open": open_bases, "route-blocked-repair": blocked_bases}


#: Seed-moved variants of every base op.  The cost of a repaired blocked op
#: still depends on the variant (the h-tree op by up to 2x), so a run
#: averages over this many; a run of more passes repeats each variant, which
#: the in-run determinism check needs.
VARIANTS = 2


def op_pool(workload: str, seed: int) -> List[RunSpec]:
    """The workload's ops on the seed's instances (see ``seeded_instance``):
    ``VARIANTS`` blocks of the base ops, block ``v`` on variant ``v``."""
    return [
        dataclasses.replace(
            spec,
            instance=seeded_instance(spec.instance, seed, variant)[0],
            label="%s-v%d" % (spec.label, variant),
        )
        for variant in range(VARIANTS)
        for spec in BASES[workload]()
    ]


def pass_ops(pool: List[RunSpec], passes: int) -> range:
    """Pool indices of pass number ``passes`` (from 1): one variant block."""
    size = len(pool) // VARIANTS
    start = (passes - 1) % VARIANTS * size
    return range(start, start + size)


def warmup_spec(workload: str) -> RunSpec:
    """A small op of the workload's kind: loads every module and lazy table
    the timed ops use, without paying for a full-size route."""
    spec = BASES[workload]()[-1 if workload == "route-open" else 0]
    small = InstanceSpec.from_dict(dict(spec.instance.to_dict(), num_sinks=600, seed=0))
    return dataclasses.replace(spec, instance=small, label="warm-up")


def op_failures(result: RunResult, spec: RunSpec) -> List[str]:
    """Why an op's output is wrong (empty when it is right)."""
    if result.error is not None:
        return ["error: " + result.error.splitlines()[0]]
    problems = ["%s: %s" % (i.code, i.message) for i in result.issues]
    if spec.opt is not None:
        report = result.opt
        if report is None or not report.oracle_checked:
            problems.append("repair ran without the RC oracle check")
        elif report.oracle_max_diff > _ORACLE_TOL:
            problems.append("oracle disagreement %g" % report.oracle_max_diff)
        if report is not None and report.skew_violations_after:
            problems.append("%d skew violations after repair" % report.skew_violations_after)
    return problems


def _timed_run(spec: RunSpec) -> Tuple[RunResult, float]:
    started = time.perf_counter()
    try:
        result = run(spec)
    except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
        result = RunResult(spec=spec, error="%s: %s" % (type(exc).__name__, exc))
    return result, time.perf_counter() - started


def setup(workload: str, seed: int) -> List[RunSpec]:
    """Generate the op pool and route one untimed warm-up op."""
    pool = op_pool(workload, seed)
    result, _ = _timed_run(warmup_spec(workload))
    if op_failures(result, result.spec):
        raise RuntimeError("warm-up op failed: %s" % op_failures(result, result.spec))
    return pool


class _Tally:
    """Attempted / failed ops and the reasons, shared by both run modes."""

    def __init__(self, pool: List[RunSpec]) -> None:
        self.pool = pool
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        self.first: Dict[int, RunResult] = {}

    def check(self, index: int, result: RunResult) -> None:
        self.attempted += 1
        problems = op_failures(result, self.pool[index])
        first = self.first.setdefault(index, result)
        if first is not result and fingerprint(first) != fingerprint(result):
            problems.append("repeat of op %d differs from its first run" % index)
        if problems:
            self.failed += 1
            self.reasons.append("%s: %s" % (self.pool[index].label, "; ".join(problems)))

    def cross_run_check(self) -> None:
        changed = check_fingerprints(
            {self.pool[i].cache_key(): fingerprint(r) for i, r in self.first.items()}
        )
        self.attempted += len(changed)
        self.failed += len(changed)
        self.reasons.extend("op %s differs from an earlier run" % key[:12] for key in changed)


def _another_pass(started: float, passes: int, seconds: float) -> bool:
    """Whether one more whole pass ends nearer to ``seconds`` than stopping
    now does: a run measures for ``seconds`` rounded to whole passes, and
    for at least one pass per variant."""
    elapsed = time.perf_counter() - started
    return passes < VARIANTS or elapsed + 0.5 * elapsed / passes < seconds


def measure(workload: str, seed: int, seconds: float, pool: List[RunSpec]) -> dict:
    """The untraced run: end-to-end metrics (all but ``setup_s``).

    The reference work of :class:`MachineSpeed` runs once before the first
    op and once after each op; an op's wall time is scaled by the median of
    the samples taken just before and after it and of their neighbours."""
    tally = _Tally(pool)
    speed = MachineSpeed()
    walls: List[float] = []
    op_sinks: List[int] = []
    op_labels: List[str] = []
    passes = 0
    speed.sample()
    started = time.perf_counter()
    while True:
        passes += 1
        for index in pass_ops(pool, passes):
            result, wall = _timed_run(pool[index])
            speed.sample()
            tally.check(index, result)
            walls.append(wall)
            op_sinks.append(result.num_sinks)
            op_labels.append(pool[index].label)
        if not _another_pass(started, passes, seconds):
            break
    tally.cross_run_check()
    firsts = [tally.first[i] for i in range(len(pool))]
    # Op k ran between samples k and k + 1.
    last = len(speed.samples) - 1
    scaled = [wall * speed.scale(max(0, k - 1), min(last, k + 2)) for k, wall in enumerate(walls)]
    per_sink_us = [1e6 * wall / max(1, sinks) for wall, sinks in zip(scaled, op_sinks)]
    latency_ms = [1000.0 * wall for wall in scaled]
    metrics = {
        "ok_frac": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": self_peak_rss_mb(),
        "sinks_per_s": sum(op_sinks) / sum(scaled),
        "us_per_sink_p50": median(per_sink_us),
        "wirelength_um": sum(r.wirelength for r in firsts),
        "max_skew_ps": max(r.max_intra_group_skew_ps for r in firsts),
        # Closed loop, one client: ops per second of (scaled) op time.
        "requests_per_s": len(scaled) / sum(scaled),
        # One request class: every op is a first-time route (the library
        # keeps no result cache), so each class latency reads the op latency.
        "route_hit_ms_p50": median(latency_ms),
        "route_miss_ms_p50": median(latency_ms),
        "eco_ms_p50": median(latency_ms),
    }
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reasons": tally.reasons,
        "metrics": metrics,
        "unscaled": {
            "sinks_per_s": sum(op_sinks) / sum(walls),
            "reference_ms_p50": 1000.0 * median(speed.samples),
            "reference_samples": len(speed.samples),
            "op_us_per_sink": [
                [label, round(us, 1)] for label, us in zip(op_labels, per_sink_us)
            ],
        },
    }


def _traced_op(tracer: Tracer, spec: RunSpec):
    """The runner's layer calls, in its order, one span each."""
    span = tracer.span
    with span("circuits.build"):
        instance = spec.instance.build()
    with span("core.route", router=spec.router.name):
        routing = get_router(spec.router).route(instance)
    opt_report = getattr(routing, "opt", None)
    if spec.opt is not None and spec.opt.enabled and opt_report is None:
        with span("opt.optimize"):
            opt_report = optimize_routing(
                routing, spec.opt, intra_bound_ps=spec.effective_bound_ps()
            )
        routing.opt = opt_report
    with span("analysis.skew"):
        skew = skew_report(routing.tree)
    with span("analysis.wirelength"):
        wirelength_report(routing.tree)
    issues = []
    if spec.validate:
        kwargs = {"intra_bound_ps": spec.effective_bound_ps()}
        if spec.locus_tolerance is not None:
            kwargs["locus_tolerance"] = spec.locus_tolerance
        with span("analysis.validate"):
            issues = validate_result(routing, **kwargs)
    return instance, routing, skew, issues


def measure_traced(workload: str, seed: int, seconds: float, pool: List[RunSpec]) -> dict:
    """The traced run: per-layer metrics, per pass (one variant of each base op)."""
    tracer = Tracer()
    tracer.enable()
    tally = _Tally(pool)
    totals = dict.fromkeys(
        list(LAYER_SPANS.values()) + list(OPT_PASS_METRICS.values()) + [
            "api.residual_s", "core.fallback_ops", "core.fallback_route_s",
            "opt.pass_runs", "opt.accepted_runs", "opt.buffers_inserted",
            "opt.violations_before", "opt.violations_after",
        ],
        0.0,
    )
    oracle_ps = 0.0
    untraced_s = traced_s = 0.0
    passes = 0

    def add(name: str, value: float) -> None:
        totals[name] = totals.get(name, 0.0) + value

    started = time.perf_counter()
    while True:
        passes += 1
        for position, index in enumerate(pass_ops(pool, passes)):
            spec = pool[index]
            # Alternate which of the pair runs first, so warm-cache effects
            # do not bias the overhead.
            if (position + passes) % 2:
                reference, wall = _timed_run(spec)
            mark = len(tracer.events())
            op_started = time.perf_counter()
            with tracer.span("op", label=spec.label):
                instance, routing, skew, issues = _traced_op(tracer, spec)
            traced_wall = time.perf_counter() - op_started
            if not (position + passes) % 2:
                reference, wall = _timed_run(spec)
            tally.check(index, reference)
            untraced_s += wall
            traced_s += traced_wall
            if [routing.wirelength, skew.max_intra_group_skew_ps, len(issues)] != [
                reference.wirelength, reference.max_intra_group_skew_ps, len(reference.issues)
            ]:
                tally.failed += 1
                tally.reasons.append("%s: traced result differs from run()" % spec.label)
            spans: Dict[str, float] = {}
            for event in tracer.events()[mark:]:
                spans[event["name"]] = spans.get(event["name"], 0.0) + event["seconds"]
            for name, metric in LAYER_SPANS.items():
                add(metric, spans.get(name, 0.0))
            # run() clocks route, opt, delay and validate itself; build and
            # the wirelength report come from the traced calls.  Taking the
            # stage times from the same execution keeps run-to-run noise out.
            stages = reference.stats
            add("api.residual_s", wall - spans["circuits.build"] - spans["analysis.wirelength"] - sum(
                stages.get(key, 0.0)
                for key in ("route_seconds", "opt_seconds", "delay_seconds", "validate_seconds")
            ))
            stats = routing.stats
            if instance.num_groups > ARENA_MAX_GROUPS:
                add("core.fallback_ops", 1)
                add("core.fallback_route_s", spans["core.route"])
            add("core.select_s", stats.select_seconds)
            add("core.merge_s", stats.merge_seconds)
            add("core.embed_s", stats.embed_seconds)
            add("core.passes", stats.passes)
            add("core.merges", stats.total_merges)
            add("cts.neighbor_rebuilds", stats.neighbor_full_rebuilds)
            add("cts.neighbor_incremental_passes", stats.neighbor_incremental_passes)
            add("geometry.detour_um", stats.obstacle_detour)
            add("analysis.issues", len(issues))
            report = routing.opt
            if report is not None:
                for outcome in report.passes:
                    add(OPT_PASS_METRICS[outcome.name], outcome.seconds)
                    add("opt.pass_runs", 1)
                    add("opt.accepted_runs", 0 if outcome.reverted else 1)
                    add("opt.buffers_inserted", outcome.buffers_inserted)
                add("opt.violations_before", report.skew_violations_before)
                add("opt.violations_after", report.skew_violations_after)
                oracle_ps = max(oracle_ps, Technology.internal_to_ps(report.oracle_max_diff))
        if not _another_pass(started, passes, seconds):
            break
    tally.cross_run_check()

    layers = {name: value / passes for name, value in totals.items()}
    accepted = layers.pop("opt.accepted_runs")
    layers["opt.accept_ratio"] = accepted / layers["opt.pass_runs"] if layers["opt.pass_runs"] else 0.0
    layers["opt.oracle_max_diff_ps"] = oracle_ps
    layers["obs.overhead_s"] = (traced_s - untraced_s) / passes
    layers["obs.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    paths = write_layer_artefacts(
        "%s-seed%d" % (workload, seed),
        tracer.events(),
        layers,
        {"workload": workload, "seed": seed, "passes": passes, "per": "pass (one variant of each base op)",
         "untraced_s": untraced_s, "traced_s": traced_s},
    )
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reasons": tally.reasons,
        "layers": layers,
        "artefacts": {k: str(v) for k, v in paths.items()},
    }
