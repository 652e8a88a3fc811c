"""Array-at-a-time merge planning and lazy-split resolution.

This module is the batched counterpart of :mod:`repro.core.merge_cases`,
:mod:`repro.core.balancing` and :mod:`repro.core.lazy_sdr`: the same
arithmetic, evaluated over whole arrays of candidate pairs at once.  It backs
the ``tree_backend="arena"`` construction loop (:mod:`repro.core.arena_dme`);
its corridor scan ``resolve_splits`` is also the split search of the object
loop (:func:`repro.core.lazy_sdr.resolve_pendings`).  Both loops call it
twice per pass -- once for every pending a-side, once for every pending
b-side -- with one row per pending merge, and it scans the rows in blocks of
``BLOCK``.

Bit identity is a hard requirement, not an aspiration: the arena backend must
produce float-for-float the same trees as the object backend, which the bench
identity gates assert.  Every expression here therefore mirrors its scalar
original term by term -- same association, same operand order, same clamps --
because IEEE-754 addition and multiplication are not associative and numpy
evaluates ``a + b + c`` exactly like Python does only when written
identically.  Three scalar subtleties deserve calling out:

* ``solve_merge`` with snaking disallowed always lands in the detour-free
  split branch: the clamp pulls the target into ``[g_lo, g_hi]`` and
  ``g_lo <= 0 <= g_hi`` always holds, so the batched disjoint case needs no
  snaking arithmetic at all.
* Python's banker's ``round(x, 6)`` (used by the lazy-split tie-break) does
  not match ``np.round`` bit for bit.  ``resolve_splits`` exploits that
  ``round`` is monotone: the minimal rounded distance equals the rounding of
  the minimal distance, so Python's ``round`` runs once on each row's
  minimum, and only rows with several near-minimal samples re-round that
  tiny superset to find the scalar-identical winner.
* Masked branches are evaluated on gathered index subsets
  (``np.flatnonzero``), never via ``np.where`` over full arrays, so sqrt /
  division never see operands the scalar code would not have produced.

Delay intervals are carried densely: ``delays`` is ``(n, G, 2)`` (lo, hi per
group) with a boolean ``present`` mask of shape ``(n, G)``, where ``G`` is
the number of distinct routing groups.  Entries where ``present`` is False
are zero and never read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.merge_cases import DISJOINT, SAME_GROUP, SHARED
from repro.geometry.trr import region_distances

__all__ = [
    "CASE_LABELS",
    "DISJOINT_CODE",
    "SAME_GROUP_CODE",
    "SHARED_CODE",
    "SAMPLES",
    "BLOCK",
    "BatchMergePlan",
    "plan_merges",
    "merge_loci",
    "resolve_splits",
]

_EPS = 1e-9  # keep in sync with repro.core.balancing._EPS

#: Merge-case codes (array-friendly stand-ins for the string labels).
DISJOINT_CODE = 0
SAME_GROUP_CODE = 1
SHARED_CODE = 2
CASE_LABELS = (DISJOINT, SAME_GROUP, SHARED)

#: Corridor samples of the lazy-split scan; keep in sync with the default of
#: :func:`repro.core.lazy_sdr.resolution_for_target`.
SAMPLES = 129
_SAMPLE_INDEX = np.arange(SAMPLES, dtype=np.float64)

#: Rows per corridor-scan block of :func:`resolve_splits`: bounds its
#: ``(rows, SAMPLES + 1)`` temporaries to ~65 kB each whatever the pass size.
#: Larger blocks were no faster, and each doubling from 64 to 256 rows added
#: ~2 MB to the peak RSS of a 6k-sink route.
BLOCK = 64


@dataclass
class BatchMergePlan:
    """The decisions of one pass's merges, one array entry per pair.

    Field-for-field the arrays hold what the scalar
    :class:`~repro.core.merge_cases.MergeDecision` objects would: wire
    lengths, snaking, violation, merged capacitance / delay intervals and the
    merge locus rows.
    """

    case_codes: np.ndarray  # (P,) int8
    distance: np.ndarray  # (P,)
    ea: np.ndarray  # (P,)
    eb: np.ndarray  # (P,)
    detour: np.ndarray  # (P,)
    snaked: np.ndarray  # (P,) bool
    violation: np.ndarray  # (P,)
    delay_a: np.ndarray  # (P,)
    delay_b: np.ndarray  # (P,)
    cap: np.ndarray  # (P,)
    delays: np.ndarray  # (P, G, 2)
    present: np.ndarray  # (P, G) bool
    locus: np.ndarray  # (P, 4)


def _wire_delay(length, cap, r: float, c: float):
    """Vector form of :func:`repro.delay.wire.wire_delay` (same expression)."""
    return r * length * (c * length / 2.0 + cap)


def merge_loci(rows_a: np.ndarray, rows_b: np.ndarray, ea: np.ndarray, eb: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.geometry.sdr.balance_locus` over TRR rows.

    Expansion by ``max(e, 0)``, interval intersection, and the same clamping
    of empty-but-within-tolerance axes as ``Trr.intersection``; raises the
    scalar ``balance_locus`` error when any pair's edges cannot bridge it.
    """
    ea_c = np.maximum(ea, 0.0)
    eb_c = np.maximum(eb, 0.0)
    ulo = np.maximum(rows_a[:, 0] - ea_c, rows_b[:, 0] - eb_c)
    uhi = np.minimum(rows_a[:, 1] + ea_c, rows_b[:, 1] + eb_c)
    vlo = np.maximum(rows_a[:, 2] - ea_c, rows_b[:, 2] - eb_c)
    vhi = np.minimum(rows_a[:, 3] + ea_c, rows_b[:, 3] + eb_c)
    empty = (uhi < ulo - _EPS) | (vhi < vlo - _EPS)
    if np.any(empty):
        k = int(np.flatnonzero(empty)[0])
        raise ValueError(
            "edge lengths (%.6g, %.6g) cannot bridge regions at distance %.6g"
            % (
                float(ea[k]),
                float(eb[k]),
                float(region_distances(rows_a[k : k + 1], rows_b[k : k + 1])[0]),
            )
        )
    return np.stack(
        (ulo, np.maximum(uhi, ulo), vlo, np.maximum(vhi, vlo)), axis=1
    )


def plan_merges(
    loci_a: np.ndarray,
    loci_b: np.ndarray,
    cap_a: np.ndarray,
    cap_b: np.ndarray,
    delays_a: np.ndarray,
    delays_b: np.ndarray,
    present_a: np.ndarray,
    present_b: np.ndarray,
    bounds: np.ndarray,
    r: float,
    c: float,
    allow_snaking: bool,
) -> BatchMergePlan:
    """Batched :func:`repro.core.merge_cases.plan_merge` over ``P`` pairs.

    ``bounds`` maps dense group index to the group's skew bound.  All arrays
    are per-pair gathers of the active-subtree state.
    """
    dist = region_distances(loci_a, loci_b)

    shared = present_a & present_b
    has_shared = shared.any(axis=1)
    num_a = present_a.sum(axis=1)
    num_b = present_b.sum(axis=1)
    num_shared = shared.sum(axis=1)
    same_group = has_shared & (num_a == 1) & (num_b == 1) & (num_shared == 1)
    case_codes = np.where(
        has_shared,
        np.where(same_group, SAME_GROUP_CODE, SHARED_CODE),
        DISJOINT_CODE,
    ).astype(np.int8)

    # max_delay per side: max over present groups' hi (delays are shifts of
    # sink zeros, so the -inf fill never survives a max over >= 1 group).
    neg_inf = -np.inf
    max_a = np.where(present_a, delays_a[:, :, 1], neg_inf).max(axis=1)
    max_b = np.where(present_b, delays_b[:, :, 1], neg_inf).max(axis=1)
    balance_target = max_b - max_a

    # Detour-free offset range [g(0), g(d)] = [-D(d, Cb), D(d, Ca)].
    g_lo = -(r * dist * (c * dist / 2.0 + cap_b))
    g_hi = r * dist * (c * dist / 2.0 + cap_a)

    # Shared-group feasible offset interval (max/min over shared groups).
    violation = np.zeros(len(dist))
    target = balance_target.copy()
    shared_rows = np.flatnonzero(has_shared)
    if shared_rows.size:
        sa = delays_a[shared_rows]
        sb = delays_b[shared_rows]
        mask = shared[shared_rows]
        lo_vals = np.where(mask, sb[:, :, 1] - sa[:, :, 0] - bounds[None, :], neg_inf)
        hi_vals = np.where(mask, bounds[None, :] - sa[:, :, 1] + sb[:, :, 0], np.inf)
        offset_lo = lo_vals.max(axis=1)
        offset_hi = hi_vals.min(axis=1)
        feasible = offset_lo <= offset_hi
        target[shared_rows] = np.where(
            feasible,
            np.minimum(np.maximum(balance_target[shared_rows], offset_lo), offset_hi),
            (offset_lo + offset_hi) / 2.0,
        )
        violation[shared_rows] = np.where(feasible, 0.0, (offset_lo - offset_hi) / 2.0)

    # solve_merge: rows without snaking permission (all disjoint rows, and
    # every row when the config disables snaking) clamp the target into the
    # detour-free range and therefore always take the split branch.
    may_snake = has_shared if allow_snaking else np.zeros(len(dist), dtype=bool)
    clamped = np.minimum(np.maximum(target, g_lo), g_hi)
    target = np.where(may_snake, target, clamped)

    snake_a = may_snake & (target > g_hi + _EPS)
    snake_b = may_snake & (target < g_lo - _EPS)
    split_rows = np.flatnonzero(~(snake_a | snake_b))

    ea = np.empty(len(dist))
    eb = np.empty(len(dist))
    if split_rows.size:
        d_s = dist[split_rows]
        slope = r * (c * d_s + cap_a[split_rows] + cap_b[split_rows])
        intercept = r * (c * d_s * d_s / 2.0 + cap_b[split_rows] * d_s)
        positive = slope > 0.0
        ea_s = np.where(
            positive,
            (target[split_rows] + intercept) / np.where(positive, slope, 1.0),
            0.0,
        )
        ea_s = np.minimum(np.maximum(ea_s, 0.0), d_s)
        ea[split_rows] = ea_s
        eb[split_rows] = d_s - ea_s
    for rows, snake_cap, towards_a in (
        (np.flatnonzero(snake_a), cap_a, True),
        (np.flatnonzero(snake_b), cap_b, False),
    ):
        if not rows.size:
            continue
        # wire_length_for_delay: positive root of the wire-delay quadratic.
        # The target is strictly positive here (beyond g_hi + eps / below
        # g_lo - eps and g_lo <= 0 <= g_hi), so the scalar zero-target
        # shortcut cannot trigger.
        t = target[rows] if towards_a else -target[rows]
        a_coef = r * c / 2.0
        b_coef = r * snake_cap[rows]
        # Citardauq root, float-op-identical to the scalar wire_length_for_delay
        # (the backend identity gates compare the two paths bit for bit).
        length = (2.0 * t) / (b_coef + np.sqrt(b_coef * b_coef + 4.0 * a_coef * t))
        if towards_a:
            ea[rows] = np.maximum(length, dist[rows])
            eb[rows] = 0.0
        else:
            ea[rows] = 0.0
            eb[rows] = np.maximum(length, dist[rows])

    total = ea + eb
    detour = np.maximum(0.0, total - dist)
    snaked = detour > 1e-6

    delay_a = _wire_delay(ea, cap_a, r, c)
    delay_b = _wire_delay(eb, cap_b, r, c)

    shifted_a = delays_a + delay_a[:, None, None]
    shifted_b = delays_b + delay_b[:, None, None]
    both = shared
    only_a = present_a & ~present_b
    merged_lo = np.where(
        both,
        np.minimum(shifted_a[:, :, 0], shifted_b[:, :, 0]),
        np.where(only_a, shifted_a[:, :, 0], shifted_b[:, :, 0]),
    )
    merged_hi = np.where(
        both,
        np.maximum(shifted_a[:, :, 1], shifted_b[:, :, 1]),
        np.where(only_a, shifted_a[:, :, 1], shifted_b[:, :, 1]),
    )
    present = present_a | present_b
    merged = np.stack((merged_lo, merged_hi), axis=2)
    merged[~present] = 0.0

    cap = cap_a + cap_b + c * total  # wire_capacitance(total) = c * total
    locus = merge_loci(loci_a, loci_b, ea, eb)

    return BatchMergePlan(
        case_codes=case_codes,
        distance=dist,
        ea=ea,
        eb=eb,
        detour=detour,
        snaked=snaked,
        violation=violation,
        delay_a=delay_a,
        delay_b=delay_b,
        cap=cap,
        delays=merged,
        present=present,
        locus=locus,
    )


def resolve_splits(
    locus_a: np.ndarray,
    locus_b: np.ndarray,
    distance: np.ndarray,
    cap_a: np.ndarray,
    cap_b: np.ndarray,
    balance: np.ndarray,
    target: np.ndarray,
    r: float,
    c: float,
    max_deviation: np.ndarray,
) -> np.ndarray:
    """The lazy splits of ``P`` pending merges, each chosen towards its target.

    The one split search of both tree backends.  ``locus_a`` / ``locus_b`` /
    ``target`` are ``(P, 4)`` rows ``(ulo, uhi, vlo, vhi)``; ``distance``,
    ``cap_a`` / ``cap_b``, ``balance`` (the delay-balanced split) and
    ``max_deviation`` (the useful-skew budget) are ``(P,)``.  Rows are
    independent: row ``k`` of the result is what
    :func:`repro.core.lazy_sdr.resolution_for_target` (the scalar test oracle)
    returns for row ``k`` alone, and ``0.0`` where ``distance <= 0``.

    Every row scans the same ``SAMPLES`` corridor splits the oracle does, as
    one row of a ``(rows, SAMPLES + 1)`` matrix evaluated ``BLOCK`` rows at a
    time, and picks the identical winner under the key
    ``(round(distance_to_target, 6), abs(split - balance))`` with
    first-sample-wins ties.  Python's ``round`` is monotone, so the minimal
    rounded distance is the rounding of the minimal distance; only samples
    within a whisker of a row's minimum can share that rounded value, and only
    rows with more than one such sample re-round them with Python's ``round``
    to reproduce the scalar comparison exactly.
    """
    out = np.zeros(len(distance))
    live = np.flatnonzero(distance > 0.0)
    for start in range(0, live.size, BLOCK):
        rows = live[start : start + BLOCK]
        out[rows] = _scan_block(
            locus_a[rows],
            locus_b[rows],
            distance[rows],
            cap_a[rows],
            cap_b[rows],
            balance[rows],
            target[rows],
            r,
            c,
            max_deviation[rows],
        )
    return out


def _scan_block(la, lb, distance, cap_a, cap_b, balance, target, r, c, max_deviation):
    """:func:`resolve_splits` over one block of rows with positive distance."""
    d = distance[:, None]
    bal = balance[:, None]
    # Column 0 is the balanced split itself so its target distance comes from
    # the same elementwise expressions as the candidates'.
    splits = np.empty((len(distance), SAMPLES + 1))
    splits[:, 0] = balance
    splits[:, 1:] = d * _SAMPLE_INDEX / float(SAMPLES - 1)

    clamped = np.minimum(np.maximum(splits, 0.0), d)
    ea = np.maximum(clamped, 0.0)
    eb = np.maximum(d - clamped, 0.0)
    ulo = np.maximum(la[:, 0:1] - ea, lb[:, 0:1] - eb)
    uhi = np.minimum(la[:, 1:2] + ea, lb[:, 1:2] + eb)
    vlo = np.maximum(la[:, 2:3] - ea, lb[:, 2:3] - eb)
    vhi = np.minimum(la[:, 3:4] + ea, lb[:, 3:4] + eb)
    if np.any((uhi < ulo - _EPS) | (vhi < vlo - _EPS)):  # pragma: no cover - defensive
        raise RuntimeError("pending split produced an empty locus")
    uhi = np.maximum(uhi, ulo)
    vhi = np.maximum(vhi, vlo)
    gap_u = np.maximum(target[:, 0:1] - uhi, ulo - target[:, 1:2])
    gap_v = np.maximum(target[:, 2:3] - vhi, vlo - target[:, 3:4])
    dists = np.maximum(np.maximum(gap_u, gap_v), 0.0)

    # Deviation filter (the balanced sample always qualifies by construction).
    raw = splits[:, 1:]
    ca = cap_a[:, None]
    cb = cap_b[:, None]
    shift_a = np.abs(_wire_delay(raw, ca, r, c) - _wire_delay(bal, ca, r, c))
    shift_b = np.abs(_wire_delay(d - raw, cb, r, c) - _wire_delay(d - bal, cb, r, c))
    valid = np.maximum(shift_a, shift_b) <= max_deviation[:, None]

    sample_d = dists[:, 1:]
    masked = np.where(valid, sample_d, np.inf)
    best = masked.argmin(axis=1)
    dmin = masked[np.arange(len(best)), best]
    # A sample wins only if its rounded distance beats the balanced split's,
    # which needs a strictly smaller raw distance (round is monotone).
    out = balance.copy()
    rows = np.flatnonzero(valid.any(axis=1) & (dmin < dists[:, 0]))
    if not rows.size:
        return out
    # Superset of every sample that can round to round(dmin, 6):
    # round(x, 6) == b implies x <= b + 5e-7 + ulp and b <= dmin + 5e-7 + ulp.
    near = valid[rows] & (sample_d[rows] <= (dmin[rows] + 2e-6)[:, None])
    crowded = (near.sum(axis=1) > 1).tolist()
    for k, row in enumerate(rows.tolist()):
        b = round(float(dmin[row]), 6)
        if not b < round(float(dists[row, 0]), 6):
            continue
        if not crowded[k]:
            out[row] = raw[row, best[row]]
            continue
        tie_best = None
        for j in np.flatnonzero(near[k]).tolist():
            if round(float(sample_d[row, j]), 6) != b:
                continue
            tie = abs(float(raw[row, j]) - float(balance[row]))
            if tie_best is None or tie < tie_best:
                tie_best = tie
                out[row] = raw[row, j]
    return out
