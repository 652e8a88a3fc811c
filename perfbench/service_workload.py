"""The ``service-mixed`` workload: one ``repro serve`` subprocess, one
closed-loop client.

The client sends its next request only after the previous reply arrived.
Traffic follows a fixed 20-slot pattern -- 12 repeat ``/route`` (cache
reads), 3 first-time ``/route`` (route, then cache write) and 5 ``/eco`` --
so every seed sees the same class mix.  Repeat reads go round robin over
the specs routed so far; the seed moves the instances (see
``common.seeded_instance``) and picks which sinks an ECO moves and where.
``/eco`` slots cycle through a fresh base (the server re-routes it: its
``/route`` cache keeps no tree), three deltas against held bases and one
repeat of the latest delta (an ECO cache hit).  The server's memory tier
holds fewer entries than the run routes, so some repeat reads come from the
disk tier.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.api import EcoSpec, InstanceSpec, RouterSpec, RunSpec, run
from repro.eco.delta import EcoDelta, SinkMove
from repro.geometry.point import Point
from repro.obs.trace import Tracer
from repro.service.client import ServiceClient, ServiceError

from common import (
    ROOT, SRC, WORK_DIR, MachineSpeed, check_fingerprints, fingerprint, median,
    same_result, seeded_instance, write_layer_artefacts,
)

#: One block of traffic: M = first-time /route, H = repeat /route, E = /eco.
PATTERN = "MHEHHHEHMHHEHHEMHHEH"
#: What successive E slots do (see the module docstring).
ECO_KINDS = ("fresh", "held", "held", "repeat", "held")
#: Bases the "held" deltas rotate over; below the server's base-routing LRU.
HELD_BASES = 4
#: Server memory-tier entries: below the specs one run routes.
MEMORY_CAPACITY = 4
#: Spec sizes (sinks), in the order misses request them; the pattern has one
#: miss of each per block.
SIZES = (4000, 1000, 2500)
#: Specs the set-up makes; a run that routes more makes the rest on use.
PREPARED = 24
ROUTER = RouterSpec("ast-dme", {"skew_bound_ps": 10.0})
#: First-time specs whose wirelength and skew the quality metrics sum.
QUALITY_SPECS = 3
#: Misses re-routed locally after the timed phase and compared with ``==``.
LOCAL_CHECKS = 3
#: Specs routed twice (traced and untraced) to measure tracing overhead.
OVERHEAD_PROBES = 2
LAYOUT = 100_000.0
#: Wall seconds between two samples of the machine's speed in a timed run.
SPEED_WINDOW_S = 0.5
#: Server-side spans (``X-Repro-Trace`` on computed replies) -> the layer
#: metric they sum into, over one run's requests.
SERVER_SPANS = {
    "run.route": "core.route_s",
    "dme.select": "core.select_s",
    "dme.merge": "core.merge_s",
    "dme.embed": "core.embed_s",
    "run.delay": "analysis.skew_s",
    "run.validate": "analysis.validate_s",
}


class SpecPool:
    """Distinct specs with 8 groups, each a fixed base instance moved by the
    seed (see ``common.seeded_instance``).  Sizes cycle through ``SIZES``,
    one of each per traffic block, so the median miss is always a mid-size
    one and every fresh ECO base (the block's first miss) is a large one:
    held-base ECOs then cost mostly their full-tree validation, which keeps
    their latency from splitting into modes around the median.
    Specs are made on first use; the set-up makes the first ``PREPARED``."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._entries: List[tuple] = []

    def __getitem__(self, index: int) -> RunSpec:
        return self._entry(index)[0]

    def sinks(self, index: int) -> int:
        return self._entry(index)[1]

    def bbox(self, index: int) -> tuple:
        return self._entry(index)[2]

    def _entry(self, index: int) -> tuple:
        while len(self._entries) <= index:
            i = len(self._entries)
            sinks = SIZES[i % len(SIZES)]
            if i % 2:
                base = InstanceSpec.from_family("clustered", sinks, seed=i + 1, groups=8)
            else:
                base = InstanceSpec.from_random(sinks, seed=i + 1, groups=8)
            instance, bbox = seeded_instance(base, self.seed)
            spec = RunSpec(instance=instance, router=ROUTER, validate=True, label="svc-%d" % i)
            self._entries.append((spec, sinks, bbox))
        return self._entries[index]


def warmup_spec() -> RunSpec:
    return RunSpec(
        instance=InstanceSpec.from_random(500, seed=0, groups=8),
        router=ROUTER,
        validate=True,
        label="warm-up",
    )


class _SizedClient(ServiceClient):
    """A ServiceClient that remembers the size of the last response body."""

    last_bytes = 0

    def _parse_body(self, status: int, data: bytes):
        self.last_bytes = len(data)
        return ServiceClient._parse_body(status, data)


class Server:
    """One ``repro serve`` subprocess with a disk cache in a temporary dir."""

    def __init__(self) -> None:
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="service-", dir=str(WORK_DIR))
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        self._stderr = open(os.path.join(self.dir, "server.err"), "w")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                "--workers", "1", "--cache-dir", os.path.join(self.dir, "cache"),
                "--memory-capacity", str(MEMORY_CAPACITY),
            ],
            cwd=str(ROOT), env=env, stdout=subprocess.PIPE, stderr=self._stderr, text=True,
        )
        try:
            line = self.proc.stdout.readline()
            if "listening on http://" not in line:
                raise RuntimeError("server did not start: %r" % line)
            self.port = int(line.rsplit(":", 1)[1])
            self.client = _SizedClient(port=self.port, timeout=120.0)
            self.client.healthz()
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()
        shutil.rmtree(self.dir, ignore_errors=True)


def setup(seed: int) -> tuple:
    """Generate the spec pool, start the server, send one warm-up route and
    one warm-up ECO (both untimed)."""
    pool = SpecPool(seed)
    pool[PREPARED - 1]
    server = Server()
    try:
        warm = warmup_spec()
        server.client.route(warm)
        delta = _delta(random.Random(0), 1, 500, (0.0, 0.0, LAYOUT, LAYOUT))
        server.client.eco(EcoSpec(base=warm, delta=delta, validate=True))
    except BaseException:
        server.stop()
        raise
    return pool, server


def _delta(rng: random.Random, moves: int, num_sinks: int, bbox: tuple) -> EcoDelta:
    """Move ``moves`` random sinks to random points of the instance's sink
    bounding box."""
    xmin, ymin, xmax, ymax = bbox
    moved = rng.sample(range(num_sinks), moves)
    return EcoDelta(
        move=tuple(
            SinkMove(i, Point(rng.uniform(xmin, xmax), rng.uniform(ymin, ymax))) for i in moved
        )
    )


@dataclass
class _Request:
    kind: str  # "hit", "miss", "eco", "eco_hit"
    seconds: float
    sinks: int
    bytes: int
    result: object = None
    #: Index of the last MachineSpeed sample taken before the request.
    window: int = 0


@dataclass
class _Traffic:
    """The closed-loop client's state and its per-request log."""

    pool: SpecPool
    rng: random.Random
    tracer: Optional[Tracer] = None
    requests: List[_Request] = field(default_factory=list)
    server_events: List[dict] = field(default_factory=list)
    routed: Dict[int, object] = field(default_factory=dict)
    bases: List[int] = field(default_factory=list)
    ecos: List[tuple] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)
    slot: int = 0
    window: int = 0
    eco_slot: int = 0
    hit_slot: int = 0
    adopted: int = 0

    def fail(self, why: str) -> None:
        self.failed += 1
        self.reasons.append(why)

    def step(self, client: _SizedClient) -> None:
        kind = PATTERN[self.slot % len(PATTERN)] if self.routed else "M"
        self.slot += 1
        self.attempted += 1
        if kind == "M":
            index = len(self.routed)
            self._route(client, index, "miss")
        elif kind == "H":
            # Sizes in rotation, round robin over the routed specs of each:
            # the same size mix and the same memory/disk tier mix on every
            # seed.
            size = SIZES[self.hit_slot % len(SIZES)]
            routed = [i for i in sorted(self.routed) if self.pool.sinks(i) == size]
            routed = routed or sorted(self.routed)
            self._route(client, routed[self.hit_slot // len(SIZES) % len(routed)], "hit")
            self.hit_slot += 1
        else:
            eco_kind = ECO_KINDS[self.eco_slot % len(ECO_KINDS)]
            self.eco_slot += 1
            self._eco(client, eco_kind)

    def _send(self, kind: str, call, traced_call):
        """Time one request; in the traced run wrap it in a client span and
        attach the server's spans of a computed reply as its children."""
        started = time.perf_counter()
        if self.tracer is None:
            response = call()
            return response, time.perf_counter() - started
        with self.tracer.span("service." + kind) as span:
            response = traced_call() if kind in ("miss", "eco") else call()
        seconds = time.perf_counter() - started
        self.adopt(response.result.trace, span.span_id)
        return response, seconds

    def adopt(self, events: List[dict], parent: int) -> None:
        """Re-number one reply's server spans into a block of ids no other
        reply or client span uses, rooted at the client span ``parent``."""
        self.adopted += 1
        offset = 1_000_000 * self.adopted
        for event in events:
            event = dict(event, span_id=event["span_id"] + offset)
            event["parent_id"] = parent if event["parent_id"] is None else event["parent_id"] + offset
            self.server_events.append(event)

    def _route(self, client: _SizedClient, index: int, kind: str) -> None:
        spec = self.pool[index]
        try:
            response, seconds = self._send(
                kind, lambda: client.route(spec), lambda: client.route(spec, trace=True)
            )
        except (ServiceError, OSError) as exc:
            self.fail("%s %s: %s" % (kind, spec.label, exc))
            return
        result = response.result
        result.trace = []
        self.requests.append(_Request(
            kind, seconds, self.pool.sinks(index), client.last_bytes, result, self.window
        ))
        if response.cached != (kind == "hit"):
            self.fail("%s %s came back cached=%s" % (kind, spec.label, response.cached))
        elif not result.ok:
            self.fail("%s %s is not a clean result" % (kind, spec.label))
        elif kind == "miss":
            self.routed[index] = result
        elif result != self.routed[index]:
            self.fail("hit %s differs from its miss" % spec.label)

    def _eco(self, client: _SizedClient, eco_kind: str) -> None:
        if eco_kind == "repeat" and self.ecos:
            spec, first, base = self.ecos[-1]
            kind = "eco_hit"
        else:
            kind, first = "eco", None
            fresh = [i for i in sorted(self.routed, reverse=True) if i not in self.bases]
            if eco_kind == "fresh" and fresh or not self.bases:
                base = fresh[0]
                self.bases.append(base)
            else:
                held = self.bases[-HELD_BASES:]
                base = held[self.eco_slot % len(held)]
            spec = EcoSpec(
                base=self.pool[base],
                # 1-4 moves in rotation: the dirty cone, and so the ECO's
                # cost, grows with the move count.
                delta=_delta(
                    self.rng, 1 + len(self.ecos) % 4, self.pool.sinks(base), self.pool.bbox(base)
                ),
                validate=True,
                label="eco-%d" % len(self.ecos),
            )
        try:
            response, seconds = self._send(
                kind, lambda: client.eco(spec), lambda: client.eco(spec, trace=True)
            )
        except (ServiceError, OSError) as exc:
            self.fail("%s %s: %s" % (kind, spec.label, exc))
            return
        result = response.result
        result.trace = []
        self.requests.append(_Request(
            kind, seconds, self.pool.sinks(base), client.last_bytes, result, self.window
        ))
        if response.cached != (kind == "eco_hit"):
            self.fail("%s %s came back cached=%s" % (kind, spec.label, response.cached))
        elif not result.ok:
            self.fail("%s %s is not a clean result: %s"
                      % (kind, spec.label, result.error or result.issues[:3]))
        elif first is None:
            self.ecos.append((spec, result, base))
        elif result != first:
            self.fail("eco hit %s differs from its miss" % spec.label)


def _play(server: Server, pool: SpecPool, seed: int, seconds: float, tracer=None, speed=None):
    """Send traffic for ``seconds``.  With a ``speed``, time its reference
    work between requests, about every ``SPEED_WINDOW_S``, and once more at
    the end."""
    traffic = _Traffic(pool=pool, rng=random.Random(seed), tracer=tracer)
    before = server.client.stats()
    started = time.perf_counter()
    next_sample = started
    while time.perf_counter() - started < seconds:
        if speed is not None and time.perf_counter() >= next_sample:
            speed.sample()
            traffic.window = len(speed.samples) - 1
            next_sample = time.perf_counter() + SPEED_WINDOW_S
        traffic.step(server.client)
    timed = time.perf_counter() - started
    if speed is not None:
        speed.sample()
    after = server.client.stats()
    return traffic, timed, before, after


def _checks(traffic: _Traffic, seed: int) -> None:
    """Re-route a seeded sample of misses locally (the served result must be
    equal to the local one) and compare every result's fingerprint with an
    earlier run's."""
    misses = sorted(traffic.routed)
    for index in random.Random(seed + 1).sample(misses, min(LOCAL_CHECKS, len(misses))):
        traffic.attempted += 1
        if not same_result(run(traffic.pool[index]), traffic.routed[index]):
            traffic.fail("miss %s differs from a local run" % traffic.pool[index].label)
    prints = {traffic.pool[i].cache_key(): fingerprint(r) for i, r in traffic.routed.items()}
    prints.update({spec.cache_key(): fingerprint(r) for spec, r, _ in traffic.ecos})
    for key in check_fingerprints(prints):
        traffic.attempted += 1
        traffic.fail("result %s differs from an earlier run" % key[:12])


def _of(traffic: _Traffic, kind: str) -> List[_Request]:
    return [r for r in traffic.requests if r.kind == kind]


def measure(seed: int, seconds: float, pool, server: Server) -> dict:
    """The untraced run: end-to-end metrics (all but ``setup_s``).  Request
    latencies are scaled to reference seconds (see ``MachineSpeed``) by the
    median of the samples around the request's window."""
    speed = MachineSpeed()
    traffic, timed, _, after = _play(server, pool, seed, seconds, speed=speed)
    _checks(traffic, seed)
    requests, misses = traffic.requests, _of(traffic, "miss")
    quality = [traffic.routed[i] for i in range(QUALITY_SPECS) if i in traffic.routed]
    if len(quality) < QUALITY_SPECS:
        traffic.fail("the run routed fewer than %d specs" % QUALITY_SPECS)
    last = len(speed.samples) - 1
    # A request in window w ran between samples w and w + 1.
    scaled = {
        id(r): r.seconds * speed.scale(max(0, r.window - 1), min(last, r.window + 2))
        for r in requests
    }
    ms = lambda kind: [1000.0 * scaled[id(r)] for r in _of(traffic, kind)]  # noqa: E731
    per_sink_us = [1e6 * scaled[id(r)] / r.sinks for r in misses]
    metrics = {
        "ok_frac": 1.0 - traffic.failed / traffic.attempted,
        "peak_rss_mb": after["resources"]["peak_rss_mb"],
        # Per-sink figures are those of the route ops, as on the route
        # workloads: first-time /route requests, end to end.
        "sinks_per_s": sum(r.sinks for r in misses) / sum(scaled[id(r)] for r in misses),
        "us_per_sink_p50": median(per_sink_us),
        "wirelength_um": sum(r.wirelength for r in quality),
        "max_skew_ps": max(r.max_intra_group_skew_ps for r in quality),
        # Closed loop, one client: requests per second of (scaled) latency.
        "requests_per_s": len(requests) / sum(scaled.values()),
        "route_hit_ms_p50": median(ms("hit")),
        "route_miss_ms_p50": median(ms("miss")),
        "eco_ms_p50": median(ms("eco")),
    }
    return {"attempted": traffic.attempted, "failed": traffic.failed,
            "reasons": traffic.reasons, "metrics": metrics,
            "unscaled": {
                "requests_per_s": len(requests) / timed,
                "route_hit_ms_p50": median([1000.0 * r.seconds for r in _of(traffic, "hit")]),
                "reference_ms_p50": 1000.0 * median(speed.samples),
                "reference_samples": len(speed.samples),
                "miss_ms": [[r.sinks, round(1000.0 * scaled[id(r)], 1)] for r in misses],
                "eco_ms": [round(1000.0 * scaled[id(r)], 1) for r in _of(traffic, "eco")],
            }}


def _overhead_probe(server: Server, traffic: _Traffic, tracer: Tracer) -> tuple:
    """Route fresh specs twice under distinct labels (distinct cache keys,
    identical compute): once untraced, once traced.  Returns the summed
    (untraced, traced) seconds."""
    untraced = traced = 0.0
    for probe in range(OVERHEAD_PROBES):
        spec = traffic.pool[len(traffic.routed) + probe]
        plain = RunSpec.from_dict(dict(spec.to_dict(), label="probe-plain-%d" % probe))
        spanned = RunSpec.from_dict(dict(spec.to_dict(), label="probe-traced-%d" % probe))
        order = [(False, plain), (True, spanned)]
        for traced_request, probe_spec in order if probe % 2 == 0 else order[::-1]:
            traffic.attempted += 1
            started = time.perf_counter()
            if traced_request:
                with tracer.span("service.probe") as span:
                    response = server.client.route(probe_spec, trace=True)
                traffic.adopt(response.result.trace, span.span_id)
                traced += time.perf_counter() - started
            else:
                response = server.client.route(probe_spec)
                untraced += time.perf_counter() - started
            if response.cached or not response.result.ok:
                traffic.fail("overhead probe %s: cached=%s ok=%s"
                             % (probe_spec.label, response.cached, response.result.ok))
    return untraced, traced


def measure_traced(seed: int, seconds: float, pool, server: Server) -> dict:
    """The traced run: per-layer metrics of the service and ECO layers."""
    tracer = Tracer()
    tracer.enable()
    traffic, timed, before, after = _play(server, pool, seed, seconds, tracer=tracer)
    server_layers = dict.fromkeys(SERVER_SPANS.values(), 0.0)
    for event in traffic.server_events:
        if event["name"] in SERVER_SPANS:
            server_layers[SERVER_SPANS[event["name"]]] += event["seconds"]
    untraced, traced = _overhead_probe(server, traffic, tracer)
    _checks(traffic, seed)

    def delta(block: str, key: str) -> float:
        return float(after[block][key] - before[block][key])

    misses, ecos = _of(traffic, "miss"), _of(traffic, "eco")
    reused = sum(r.result.eco.reused_nodes for r in ecos)
    rebuilt = sum(r.result.eco.rebuilt_nodes for r in ecos)

    def mean_kb(kind: str) -> float:
        sizes = [r.bytes for r in _of(traffic, kind)]
        return sum(sizes) / len(sizes) / 1024.0 if sizes else 0.0

    layers = dict(server_layers)
    layers.update({
        "service.hit_ratio": delta("server", "route_hits") / delta("server", "route_requests"),
        "service.disk_hit_ratio": delta("cache", "disk_hits") / max(1.0, delta("cache", "hits")),
        "service.stores": delta("cache", "stores"),
        "service.evictions": delta("cache", "evictions"),
        "service.server_route_ms_p50": after["server"]["endpoints"]["route"]["p50_ms"],
        "service.miss_overhead_ms": median(
            [1000.0 * (r.seconds - r.result.stats["wall_seconds"]) for r in misses]
        ),
        "service.response_kb_route_hit": mean_kb("hit"),
        "service.response_kb_route_miss": mean_kb("miss"),
        "service.response_kb_eco": mean_kb("eco"),
        "eco.compute_ms": median([1000.0 * r.result.eco_seconds for r in ecos]),
        "eco.base_reroutes": len(ecos) - delta("server", "eco_base_reuses"),
        "eco.cone_nodes": sum(r.result.eco.cone_nodes for r in ecos) / len(ecos),
        "eco.reuse_ratio": reused / (reused + rebuilt),
        "obs.overhead_s": (traced - untraced) / OVERHEAD_PROBES,
        "obs.overhead_frac": (traced - untraced) / untraced,
    })
    paths = write_layer_artefacts(
        "service-mixed-seed%d" % seed,
        tracer.events() + traffic.server_events,
        layers,
        {"workload": "service-mixed", "seed": seed, "requests": len(traffic.requests),
         "timed_s": timed, "per": "run (ratios, medians and means over its requests)",
         "overhead_probe": {"untraced_s": untraced, "traced_s": traced}},
    )
    return {"attempted": traffic.attempted, "failed": traffic.failed, "reasons": traffic.reasons,
            "layers": layers, "artefacts": {k: str(v) for k, v in paths.items()}}
