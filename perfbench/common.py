"""Helpers shared by the workloads: statistics, fingerprints, artefacts.

Nothing here imports ``repro`` at module level, so ``run.py`` can fail
cleanly (non-zero exit, no result line) when the library is not present.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import resource
import statistics
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Traced-run artefacts (span NDJSON, per-layer tables).
OUT_DIR = BENCH_DIR / "out"
#: Fingerprints of earlier runs, for the cross-run determinism check.
STATE_DIR = BENCH_DIR / ".state"
#: Scratch space of one run (the service's disk cache).
WORK_DIR = BENCH_DIR / ".work"


#: Seconds the reference work of :class:`MachineSpeed` takes at nominal speed.
REF_NOMINAL_S = 0.04


class MachineSpeed:
    """Times a fixed piece of pure-Python work that does not touch the
    library (random reads from a list of 512k floats, object churn, a dict
    and a sort), so that wall times can be scaled to a nominal machine speed.

    On a virtual machine that shares its host with other tenants, speed
    drifts by up to 2x over minutes, and the reference work follows much of
    that drift.  A wall time ``t`` measured while the reference work took
    ``r`` seconds is reported as ``t * REF_NOMINAL_S / r``, in "reference"
    units (``ref_s``, ``ref_ms``, ...): the time the program would take on a
    machine that does the reference work in ``REF_NOMINAL_S``.  The
    reference code never changes, so at equal machine speed a change to the
    library moves the scaled figures exactly as it moves wall time.
    """

    TABLE = 1 << 19
    READS = 60_000
    NODES = 12_000

    def __init__(self) -> None:
        import random

        rng = random.Random(20240601)
        self._table = [float(i) for i in range(self.TABLE)]
        self._reads = [rng.randrange(self.TABLE) for _ in range(self.READS)]
        self.samples: List[float] = []

    def _work(self) -> float:
        import random

        table, total = self._table, 0.0
        for i in self._reads:
            total += table[i]
        rng = random.Random(7)
        nodes = [[rng.random(), rng.random(), []] for _ in range(self.NODES)]
        index = {(int(n[0] * 1000.0), i): n for i, n in enumerate(nodes)}
        nodes.sort(key=lambda n: n[0] + n[1])
        for a, b in zip(nodes, nodes[1:]):
            a[2].append(b)
            total += abs(a[0] - b[0]) + abs(a[1] - b[1])
        return total + len(index)

    def sample(self) -> float:
        """Time the reference work once; record and return its seconds.
        Garbage the program left is collected first, untimed, so that its
        collection is not charged to the reference work."""
        gc.collect()
        started = time.perf_counter()
        self._work()
        seconds = time.perf_counter() - started
        self.samples.append(seconds)
        return seconds

    def scale(self, first: int, last: int) -> float:
        """Factor from wall to reference seconds for work done between
        samples ``first`` and ``last`` (inclusive): nominal over the median
        of those samples."""
        return REF_NOMINAL_S / statistics.median(self.samples[first:last + 1])


def seeded_instance(base, seed: int, variant: int = 0):
    """The instance ``base`` describes, mirrored and translated as ``seed``
    (and ``variant``, for more than one input per seed) draws, written to an
    instance file.

    Returns ``(InstanceSpec.from_file(...), sink bounding box)``.  Every seed
    is a different input of the same difficulty: the routers are invariant
    under these moves (mirrored and shifted instances route to congruent
    trees), whereas fresh random placements change the cost of one op by up
    to 2x on the blocked family -- repair effort is chaotic in the
    placement -- which no affordable number of ops per run averages out.
    The file path is relative to the repository root, so the spec's cache
    key does not depend on where the checkout lives.
    """
    import random
    from repro.api import InstanceSpec
    from repro.circuits.io import save_instance
    from repro.geometry.obstacles import Rect
    from repro.geometry.point import Point

    rng = random.Random(seed if variant == 0 else "%d/%d" % (seed, variant))
    # Mirrors only: the h-tree router splits x first, so a transposed
    # instance would be a different problem for it.
    symmetry = rng.randrange(4)
    dx, dy = (rng.uniform(0.0, 0.5 * base.layout_size) for _ in range(2))
    size = base.layout_size

    def move(p):
        x = size - p.x if symmetry & 1 else p.x
        y = size - p.y if symmetry & 2 else p.y
        return Point(x + dx, y + dy)

    def move_rect(r):
        a, b = move(Point(r.xmin, r.ymin)), move(Point(r.xmax, r.ymax))
        return Rect(min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y))

    instance = base.build()
    key = hashlib.sha256(json.dumps(base.to_dict(), sort_keys=True).encode("utf-8"))
    name = "%s-%s-s%d" % (instance.name, key.hexdigest()[:8], seed)
    if variant:
        name += "v%d" % variant
    moved = dataclasses.replace(
        instance,
        name=name,
        sinks=tuple(dataclasses.replace(s, location=move(s.location)) for s in instance.sinks),
        source=move(instance.source),
        obstacles=tuple(move_rect(r) for r in instance.obstacles),
    )
    (WORK_DIR / "instances").mkdir(parents=True, exist_ok=True)
    path = WORK_DIR / "instances" / (name + ".inst")
    save_instance(moved, path)
    return InstanceSpec.from_file(path.relative_to(ROOT)), moved.bounding_box()


def same_result(a, b) -> bool:
    """``a == b`` for two RunResults, ignoring their wall-clock fields (the
    only compared fields that differ between two computes of one spec)."""
    untimed = dict(route_seconds=0.0, total_seconds=0.0)
    return dataclasses.replace(a, **untimed) == dataclasses.replace(b, **untimed)


def fingerprint(result) -> list:
    """What must repeat exactly when a Run/EcoResult is computed again."""
    return [result.wirelength, result.max_intra_group_skew_ps, result.num_nodes]


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def self_peak_rss_mb() -> float:
    """Peak RSS of this process (Linux ``ru_maxrss`` is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def source_digest() -> str:
    """sha256 over the library sources, so stored fingerprints of another
    program version are never compared with this one."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_fingerprints(prints: Dict[str, list]) -> List[str]:
    """Compare this run's fingerprints, keyed by spec cache key, with those
    an earlier run of the same program version recorded; record new ones.

    Returns the keys whose fingerprint changed (each counts as a failed op).
    """
    STATE_DIR.mkdir(parents=True, exist_ok=True)
    path = STATE_DIR / ("fingerprints-%s.json" % source_digest())
    known = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    changed = [key for key, value in prints.items() if known.get(key, value) != value]
    known.update({key: value for key, value in prints.items() if key not in known})
    path.write_text(json.dumps(known, sort_keys=True), encoding="utf-8")
    return changed


def write_layer_artefacts(
    stem: str, events: Iterable[dict], layers: Dict[str, float], notes: Dict[str, object]
) -> Dict[str, Path]:
    """Write the span NDJSON (``repro trace summarize`` reads it), the
    per-span self-time summary and the per-layer metric table."""
    from repro.obs.summarize import format_summary, summarize_events
    from repro.obs.trace import write_ndjson

    events = list(events)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    paths = {
        "trace": OUT_DIR / (stem + ".trace.ndjson"),
        "layers": OUT_DIR / (stem + ".layers.json"),
        "summary": OUT_DIR / (stem + ".summary.txt"),
    }
    write_ndjson(events, str(paths["trace"]))
    rows = summarize_events(events)
    paths["summary"].write_text(format_summary(rows) + "\n", encoding="utf-8")
    paths["layers"].write_text(
        json.dumps(
            {
                "layers": layers,
                "self_seconds": {row["name"]: row["self_seconds"] for row in rows},
                "counts": {row["name"]: row["count"] for row in rows},
                **notes,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    return paths
