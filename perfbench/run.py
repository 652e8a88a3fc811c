"""The repository benchmark: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload route-open --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` makes
the separate traced run that gives the per-layer metrics and writes its
artefacts under ``perfbench/out/``.  Metric names and units come from
``BENCHMARK.json``.  The last stdout line is the result object; failure
reasons go to stderr.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from common import ROOT, SRC, median  # noqa: E402

WORKLOADS = ("route-open", "route-blocked-repair", "service-mixed")
#: Set-ups per run; ``setup_s`` reports the import time plus their median.
SETUPS = 3
#: Layer prefixes each workload must measure; per-layer metrics of the
#: other layers read 0 on it unless the workload measures them anyway.
ROUTE_LAYERS = ("circuits", "core", "cts", "geometry", "opt", "analysis", "api", "obs")
MEASURED_LAYERS = {
    "route-open": ROUTE_LAYERS,
    "route-blocked-repair": ROUTE_LAYERS,
    "service-mixed": ("service", "eco", "obs"),
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=30.0, help="timed phase length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _route(args):
    import route_workloads as workload

    import_s = time.perf_counter() - STARTED
    times = []
    for _ in range(SETUPS):
        started = time.perf_counter()
        pool = workload.setup(args.workload, args.seed)
        times.append(time.perf_counter() - started)
    measure = workload.measure_traced if args.trace else workload.measure
    return import_s + median(times), measure(args.workload, args.seed, args.seconds, pool)


def _service(args):
    import service_workload as workload

    import_s = time.perf_counter() - STARTED
    times = []
    server = None
    try:
        for _ in range(SETUPS):
            if server is not None:
                server.stop()
                server = None
            started = time.perf_counter()
            pool, server = workload.setup(args.seed)
            times.append(time.perf_counter() - started)
        measure = workload.measure_traced if args.trace else workload.measure
        return import_s + median(times), measure(args.seed, args.seconds, pool, server)
    finally:
        if server is not None:
            server.stop()


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro").is_dir():
        print("perfbench: no library sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Instance files are named relative to the root (see seeded_instance).
    os.chdir(ROOT)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    setup_s, outcome = (_service if args.workload == "service-mixed" else _route)(args)
    if args.trace:
        values = dict(outcome["layers"])
        specs = declared["per_layer"]
        measured = MEASURED_LAYERS[args.workload]
        missing = [m["name"] for m in specs
                   if m["name"] not in values and m["name"].split(".")[0] in measured]
        if missing:
            raise RuntimeError("layer metrics not measured: %s" % missing)
        for metric in specs:
            values.setdefault(metric["name"], 0.0)
        print("artefacts: %s" % json.dumps(outcome["artefacts"]), file=sys.stderr)
    else:
        values = dict(outcome["metrics"], setup_s=setup_s)
        specs = declared["end_to_end"]
    unknown = sorted(set(values) - {m["name"] for m in specs})
    if unknown:
        raise RuntimeError("metrics missing from BENCHMARK.json: %s" % unknown)
    if "unscaled" in outcome:
        print("unscaled: %s" % json.dumps(outcome["unscaled"]), file=sys.stderr)
    for reason in outcome["reasons"]:
        print("FAILED %s" % reason, file=sys.stderr)
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
