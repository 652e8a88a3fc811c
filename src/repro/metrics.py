"""Process resource measurement shared by the runner, bench and service.

Every consumer that reports "how expensive was this?" -- ``RunResult.stats``,
``benchmarks/bench.py`` rows, the service's ``GET /stats`` -- goes through this
module so the numbers mean the same thing everywhere: peak RSS is
``ru_maxrss`` of the *current process* (kilobytes on Linux, bytes on macOS,
normalised here to megabytes).  Stage wall times come from
:class:`repro.obs.trace.StageSpans`.

``ru_maxrss`` is a high-water mark: it only ever grows over the life of the
process, so a measurement taken after a run is an upper bound that includes
everything the process did before.  For per-run attribution the bench harness
runs each row in a fresh worker process; in-process callers (the service, the
batch runner) get the honest process-wide peak, which is what an operator
sizing a deployment actually wants.
"""

from __future__ import annotations

import sys

__all__ = ["peak_rss_mb"]


def peak_rss_mb() -> float:
    """Peak resident set size of the current process, in megabytes.

    Returns 0.0 on platforms without ``resource`` (Windows) rather than
    raising, so callers can record the value unconditionally.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - Windows
        return 0.0
    rss = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss is bytes on macOS
        return rss / (1024.0 * 1024.0)
    return rss / 1024.0  # kilobytes on Linux/BSD
