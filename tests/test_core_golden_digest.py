"""Golden identity digest of three route-open-shaped AST-DME routes.

``tests/golden/route_open_digest.json`` holds one sha256 per instance over
everything a route decides: every node's parent, edge length and location,
the placement loci, the ``MergeStats`` counters and the group association
events.  The digests were computed before the lazy-split resolution was
batched per pass, and both tree backends must still reproduce them, so any
change to the order or arithmetic of a resolution shows up here.

Regenerate (only for a deliberate algorithm change) with::

    PYTHONPATH=src python tests/test_core_golden_digest.py > tests/golden/route_open_digest.json
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
from pathlib import Path

import pytest

from repro.api.spec import InstanceSpec
from repro.core.ast_dme import AstDme, AstDmeConfig

GOLDEN = Path(__file__).parent / "golden" / "route_open_digest.json"

#: label -> (family, sinks, seed, groups): the shapes of the route-open
#: benchmark ops (the 96-group one routes through the object loop).
SHAPES = {
    "random-6000-g32": ("random", 6000, 5, 32),
    "clustered-5000-g8": ("clustered", 5000, 3, 8),
    "random-2000-g96": ("random", 2000, 1, 96),
}


def build_instance(label):
    family, sinks, seed, groups = SHAPES[label]
    if family == "random":
        return InstanceSpec.from_random(sinks, seed=seed, groups=groups).build()
    return InstanceSpec.from_family(family, sinks, seed=seed, groups=groups).build()


def _floats(*values) -> bytes:
    return struct.pack("<%dd" % len(values), *values)


def route_digest(result) -> str:
    """sha256 over the routed tree, loci, counters and association events."""
    digest = hashlib.sha256()
    for node in result.tree.nodes():
        parent = -1 if node.parent is None else node.parent
        location = node.location
        digest.update(struct.pack("<qq", node.node_id, parent))
        digest.update(_floats(node.edge_length, location.x, location.y))
    for node_id in sorted(result.loci):
        locus = result.loci[node_id]
        digest.update(struct.pack("<q", node_id))
        digest.update(_floats(locus.ulo, locus.uhi, locus.vlo, locus.vhi))
    stats = result.stats
    counters = {
        "passes": stats.passes,
        "merges_by_case": sorted(stats.merges_by_case.items()),
        "snaked_merges": stats.snaked_merges,
        "total_detour": stats.total_detour.hex(),
        "max_violation": stats.max_violation.hex(),
        "obstacle_detour": stats.obstacle_detour.hex(),
        "neighbor_full_rebuilds": stats.neighbor_full_rebuilds,
        "neighbor_incremental_passes": stats.neighbor_incremental_passes,
        "association_events": [list(e) for e in result.association.association_events],
        "association_classes": result.association.classes(),
    }
    digest.update(json.dumps(counters, sort_keys=True).encode())
    return digest.hexdigest()


def route(label, backend):
    config = AstDmeConfig(skew_bound_ps=10.0, tree_backend=backend)
    return AstDme(config).route(build_instance(label))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("backend", ["arena", "object"])
@pytest.mark.parametrize("label", sorted(SHAPES))
def test_route_reproduces_the_golden_digest(golden, label, backend):
    assert route_digest(route(label, backend)) == golden[label]


def test_a_pass_resolves_more_rows_than_one_block(monkeypatch, golden):
    """The 6k-sink route's passes really exercise the blocked scan."""
    import repro.core.arena_dme as arena_dme
    from repro.core.merge_batch import BLOCK

    rows = []
    real = arena_dme.resolve_splits

    def spy(locus_a, *args):
        rows.append(len(locus_a))
        return real(locus_a, *args)

    monkeypatch.setattr(arena_dme, "resolve_splits", spy)
    label = "random-6000-g32"
    assert route_digest(route(label, "arena")) == golden[label]
    assert max(rows) > BLOCK


if __name__ == "__main__":
    json.dump(
        {label: route_digest(route(label, "arena")) for label in sorted(SHAPES)},
        sys.stdout,
        indent=2,
        sort_keys=True,
    )
    sys.stdout.write("\n")
