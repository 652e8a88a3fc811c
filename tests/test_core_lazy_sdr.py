"""Tests for lazy split resolution (repro.core.lazy_sdr)."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.lazy_sdr import (
    PendingSplit,
    make_pending,
    resolution_for_target,
    resolve_pending,
)
from repro.core.merge_batch import BLOCK, resolve_splits
from repro.core.subtree import Subtree
from repro.cts.tree import ClockTree
from repro.delay.technology import Technology
from repro.delay.wire import wire_delay
from repro.geometry.point import Point
from repro.geometry.trr import Trr

TECH = Technology.r_benchmark()


def build_pending_pair(distance=2000.0):
    """Two single-sink subtrees from different groups plus their clock tree."""
    tree = ClockTree(technology=TECH)
    sink_a = tree.add_sink(Point(0.0, 0.0), 40.0, group=0)
    sink_b = tree.add_sink(Point(distance, 0.0), 40.0, group=1)
    sub_a = Subtree.for_sink(sink_a, Trr.from_point(Point(0.0, 0.0)), 40.0, group=0)
    sub_b = Subtree.for_sink(sink_b, Trr.from_point(Point(distance, 0.0)), 40.0, group=1)
    merge = tree.add_internal([sink_a, sink_b], [distance / 2.0, distance / 2.0])
    merged = Subtree(
        node_id=merge,
        locus=Trr.from_point(Point(distance / 2.0, 0.0)),
        cap=80.0 + 0.02 * distance,
        delays={
            0: (wire_delay(distance / 2.0, 40.0, TECH),) * 2,
            1: (wire_delay(distance / 2.0, 40.0, TECH),) * 2,
        },
        num_sinks=2,
    )
    merged.pending = make_pending(sub_a, sub_b, distance, balance_split=distance / 2.0)
    return tree, merged, sink_a, sink_b


class TestPendingSplit:
    def test_locus_at_split_touches_both_sides(self):
        _, merged, _, _ = build_pending_pair()
        pending = merged.pending
        near_a = pending.locus_at(0.0)
        near_b = pending.locus_at(pending.distance)
        assert pending.locus_a.distance_to(near_a) == pytest.approx(0.0, abs=1e-6)
        assert pending.locus_b.distance_to(near_b) == pytest.approx(0.0, abs=1e-6)

    def test_delays_at_split_shift_sides_oppositely(self):
        _, merged, _, _ = build_pending_pair()
        pending = merged.pending
        near_a = pending.delays_at(0.0, TECH)
        near_b = pending.delays_at(pending.distance, TECH)
        # With the merge point on top of side a, side a sees no wire delay.
        assert near_a[0][0] == pytest.approx(0.0)
        assert near_a[1][0] > 0.0
        assert near_b[1][0] == pytest.approx(0.0)
        assert near_b[0][0] > 0.0

    def test_intra_group_spread_is_split_independent(self):
        _, merged, _, _ = build_pending_pair()
        pending = merged.pending
        for split in (0.0, 500.0, 1333.0, 2000.0):
            for lo, hi in pending.delays_at(split, TECH).values():
                assert hi - lo == pytest.approx(0.0, abs=1e-9)


class TestResolutionForTarget:
    def test_moves_towards_target_with_large_budget(self):
        _, merged, _, _ = build_pending_pair()
        pending = merged.pending
        target = Trr.from_point(Point(0.0, 5000.0))  # above side a
        split = resolution_for_target(pending, target, TECH, max_deviation=float("inf"))
        assert split < pending.balance_split

    def test_zero_budget_keeps_balance(self):
        _, merged, _, _ = build_pending_pair()
        pending = merged.pending
        target = Trr.from_point(Point(0.0, 5000.0))
        split = resolution_for_target(pending, target, TECH, max_deviation=0.0)
        assert split == pytest.approx(pending.balance_split)

    def test_budget_limits_delay_shift(self):
        _, merged, _, _ = build_pending_pair()
        pending = merged.pending
        target = Trr.from_point(Point(0.0, 5000.0))
        budget = 50.0
        split = resolution_for_target(pending, target, TECH, max_deviation=budget)
        shift = abs(
            wire_delay(split, pending.cap_a, TECH)
            - wire_delay(pending.balance_split, pending.cap_a, TECH)
        )
        assert shift <= budget + 1e-6

    def test_zero_distance_pending(self):
        _, merged, _, _ = build_pending_pair(distance=0.0)
        assert resolution_for_target(merged.pending, Trr.from_point(Point(9, 9)), TECH) == 0.0


class TestResolvePending:
    def test_resolution_updates_tree_and_subtree(self):
        tree, merged, sink_a, sink_b = build_pending_pair()
        loci = {merged.node_id: merged.locus}
        target = Trr.from_point(Point(0.0, 3000.0))
        resolve_pending(merged, target, TECH, tree, loci, max_deviation=float("inf"))
        assert merged.pending is None
        # Edge lengths still sum to the corridor length.
        total = tree.node(sink_a).edge_length + tree.node(sink_b).edge_length
        assert total == pytest.approx(2000.0)
        # The recorded locus moved towards the target side.
        assert loci[merged.node_id].distance_to(target) < Trr.from_point(Point(1000.0, 0.0)).distance_to(target)

    def test_resolving_without_pending_is_a_noop(self):
        tree, merged, sink_a, _ = build_pending_pair()
        merged.pending = None
        before = tree.node(sink_a).edge_length
        resolve_pending(merged, Trr.from_point(Point(0, 0)), TECH, tree, {})
        assert tree.node(sink_a).edge_length == before

    def test_none_target_uses_balance_split(self):
        tree, merged, sink_a, sink_b = build_pending_pair()
        loci = {}
        resolve_pending(merged, None, TECH, tree, loci)
        assert tree.node(sink_a).edge_length == pytest.approx(1000.0)
        assert tree.node(sink_b).edge_length == pytest.approx(1000.0)


# ----------------------------------------------------------------------
# resolve_splits (the routers' corridor scan) against its scalar oracle.
# ----------------------------------------------------------------------
_COORD = st.integers(-3000, 3000).map(float) | st.floats(-3000.0, 3000.0)
_WIDTH = st.sampled_from([1.0, 64.0]) | st.floats(0.0, 500.0)


@st.composite
def _region(draw, u, v):
    """A point, an arc (one zero width) or a rectangle anchored at ``(u, v)``."""
    shape = draw(st.sampled_from(["point", "arc_u", "arc_v", "rect"]))
    width_u = draw(_WIDTH) if shape in ("arc_u", "rect") else 0.0
    width_v = draw(_WIDTH) if shape in ("arc_v", "rect") else 0.0
    return Trr(u, u + width_u, v, v + width_v)


@st.composite
def _loci(draw):
    """Two child loci: points, arcs or rectangles; sometimes overlapping."""
    locus_a = draw(_region(draw(_COORD), draw(_COORD)))
    kind = draw(st.sampled_from(["apart", "overlap", "tiny"]))
    if kind == "apart":
        ub, vb = draw(_COORD), draw(_COORD)
    elif kind == "overlap":  # anchored inside locus_a: a zero-length corridor
        ub = draw(st.floats(locus_a.ulo, locus_a.uhi))
        vb = draw(st.floats(locus_a.vlo, locus_a.vhi))
    else:  # corridor samples closer together than the 1e-6 rounding step
        gap = draw(st.sampled_from([1e-5, 1e-4, 3e-4]) | st.floats(0.0, 1e-3))
        ub = locus_a.uhi + gap
        vb = draw(st.floats(locus_a.vlo, locus_a.vhi))
    return locus_a, draw(_region(ub, vb))


@st.composite
def _pending_and_target(draw):
    locus_a, locus_b = draw(_loci())
    distance = locus_a.distance_to(locus_b)
    where = draw(st.sampled_from(["zero", "interior", "end"]))
    if where == "zero":
        balance = 0.0
    elif where == "end":
        balance = distance
    else:
        balance = distance * draw(st.floats(0.0, 1.0))
    cap = st.sampled_from([0.0, 40.0]) | st.floats(0.0, 200.0)
    pending = PendingSplit(
        child_a_id=0,
        child_b_id=1,
        locus_a=locus_a,
        locus_b=locus_b,
        distance=distance,
        cap_a=draw(cap),
        cap_b=draw(cap),
        delays_a={0: (0.0, 0.0)},
        delays_b={1: (0.0, 0.0)},
        balance_split=balance,
    )
    if draw(st.booleans()):
        # On (or a rounding whisker off) the corridor: many samples tie.
        at = balance if draw(st.booleans()) else distance * draw(st.floats(0.0, 1.0))
        on = pending.locus_at(at)
        nudge = draw(st.sampled_from([0.0, 2.5e-7, 5e-7, 1e-6, 1.5e-6]))
        target = Trr(on.ulo + nudge, on.uhi + nudge, on.vlo - nudge, on.vhi - nudge)
    else:
        target = draw(_region(draw(_COORD), draw(_COORD)))
    budget = draw(st.sampled_from(["zero", "finite", "inf"]))
    if budget == "zero":
        max_deviation = 0.0
    elif budget == "inf":
        max_deviation = float("inf")
    else:  # a fraction of the largest shift any split could cause
        widest = wire_delay(distance, max(pending.cap_a, pending.cap_b), TECH)
        max_deviation = draw(st.floats(0.0, 1.0)) * widest
    return pending, target, max_deviation


def _row(trr):
    return (trr.ulo, trr.uhi, trr.vlo, trr.vhi)


def _resolve_rows(cases):
    """``resolve_splits`` over ``(pending, target, max_deviation)`` rows."""
    pendings = [pending for pending, _, _ in cases]
    return resolve_splits(
        np.array([_row(p.locus_a) for p in pendings]),
        np.array([_row(p.locus_b) for p in pendings]),
        np.array([p.distance for p in pendings]),
        np.array([p.cap_a for p in pendings]),
        np.array([p.cap_b for p in pendings]),
        np.array([p.balance_split for p in pendings]),
        np.array([_row(target) for _, target, _ in cases]),
        TECH.unit_resistance,
        TECH.unit_capacitance,
        np.array([budget for _, _, budget in cases]),
    ).tolist()


def _pending(locus_a, locus_b, balance, cap_a=40.0, cap_b=40.0):
    return PendingSplit(
        child_a_id=0,
        child_b_id=1,
        locus_a=locus_a,
        locus_b=locus_b,
        distance=locus_a.distance_to(locus_b),
        cap_a=cap_a,
        cap_b=cap_b,
        delays_a={0: (0.0, 0.0)},
        delays_b={1: (0.0, 0.0)},
        balance_split=balance,
    )


def _batch_case(rng, kind):
    """One row of the many-row batch: ``kind`` picks its shape."""
    u, v = rng.uniform(-3000.0, 3000.0), rng.uniform(-3000.0, 3000.0)
    if kind == "zero":  # locus_b inside locus_a: d == 0, split 0.0
        pending = _pending(Trr(u, u + 200.0, v, v + 100.0), Trr(u + 50.0, u + 50.0, v, v), 0.0)
        return pending, Trr(u - 900.0, u - 900.0, v, v), float("inf")
    if kind == "tie":  # the target covers many samples, the balance none
        length = rng.choice([1.0, 128.0, 256.0])
        balance = length * rng.choice([0.05, 0.95]) + rng.choice([-1e-7, 0.0, 1e-7])
        pending = _pending(Trr(u, u, v + length, v + length), Trr(u, u, v, v), balance)
        middle = Trr(u - 1.0, u + 1.0, v + 0.4 * length, v + 0.6 * length)
        return pending, middle, float("inf")
    if kind == "covered":  # every sample at distance 0
        pending = _pending(Trr.from_point(Point(u, v)), Trr.from_point(Point(u + 700.0, v)), 350.0)
        return pending, Trr(-1e5, 1e5, -1e5, 1e5), float("inf")
    width = rng.choice([0.0, 0.0, 64.0, rng.uniform(0.0, 500.0)])
    locus_a = Trr(u, u + width, v, v + rng.choice([0.0, width]))
    ub, vb = rng.uniform(-3000.0, 3000.0), rng.uniform(-3000.0, 3000.0)
    locus_b = Trr(ub, ub + rng.choice([0.0, 1.0]), vb, vb)
    distance = locus_a.distance_to(locus_b)
    pending = _pending(
        locus_a,
        locus_b,
        distance * rng.choice([0.0, 1.0, rng.random()]),
        cap_a=rng.uniform(0.0, 200.0),
        cap_b=rng.uniform(0.0, 200.0),
    )
    if rng.random() < 0.5:  # a rounding whisker off the corridor
        on = pending.locus_at(distance * rng.random())
        nudge = rng.choice([0.0, 5e-7, 1e-6])
        target = Trr(on.ulo + nudge, on.uhi + nudge, on.vlo - nudge, on.vhi - nudge)
    else:
        tu, tv = rng.uniform(-3000.0, 3000.0), rng.uniform(-3000.0, 3000.0)
        target = Trr(tu, tu + rng.choice([0.0, 300.0]), tv, tv)
    widest = wire_delay(distance, max(pending.cap_a, pending.cap_b), TECH)
    budget = rng.choice([0.0, float("inf"), rng.random() * widest])
    return pending, target, budget


class TestResolveSplitOracle:
    """``merge_batch.resolve_splits`` picks the scalar oracle's split exactly."""

    @settings(max_examples=500, deadline=None)
    @given(_pending_and_target())
    @example(  # balance 1e-7 off the sample nearest the target: a rounded tie
        (
            PendingSplit(
                child_a_id=0,
                child_b_id=1,
                locus_a=Trr(0.0, 0.0, 1.0, 1.0),
                locus_b=Trr(0.0, 0.0, 0.0, 0.0),
                distance=1.0,
                cap_a=40.0,
                cap_b=40.0,
                delays_a={0: (0.0, 0.0)},
                delays_b={1: (0.0, 0.0)},
                balance_split=0.5 + 1e-7,
            ),
            Trr(0.0, 0.0, 0.5, 0.5),
            float("inf"),
        )
    )
    def test_matches_resolution_for_target(self, case):
        pending, target, max_deviation = case
        expected = resolution_for_target(pending, target, TECH, max_deviation)
        assert _resolve_rows([case]) == [expected]

    def test_covered_corridor_ties_break_towards_balance(self):
        _, merged, _, _ = build_pending_pair()
        pending = merged.pending
        # The target covers the whole corridor: every sample is at distance 0.
        target = Trr(-5000.0, 5000.0, -5000.0, 5000.0)
        (got,) = _resolve_rows([(pending, target, float("inf"))])
        assert got == pending.balance_split == resolution_for_target(pending, target, TECH)

    def test_many_row_batch_matches_the_oracle_row_by_row(self):
        rng = random.Random(7)
        kinds = ["zero", "tie", "covered", "free", "free", "free"]
        cases = [_batch_case(rng, kinds[k % len(kinds)]) for k in range(600)]
        assert len(cases) > 2 * BLOCK  # the rows span several scan blocks
        assert sum(1 for pending, _, _ in cases if pending.distance <= 0.0) >= 50
        got = _resolve_rows(cases)
        expected = [
            resolution_for_target(pending, target, TECH, budget)
            for pending, target, budget in cases
        ]
        assert got == expected
        # The tie rows pick a sample on the target, not the balanced split.
        tie_rows = [k for k in range(len(cases)) if kinds[k % len(kinds)] == "tie"]
        assert all(got[k] != cases[k][0].balance_split for k in tie_rows)
