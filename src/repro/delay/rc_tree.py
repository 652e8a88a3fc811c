"""An explicit RC-tree evaluator used as an independent verification oracle.

The paper cross-checks its Elmore-based skews against SPICE (Chapter III); we
do not have SPICE, so the closest faithful substitute is an independent
re-derivation of the delays from first principles: each clock-tree edge is
expanded into a chain of lumped RC segments (a discretised distributed line)
and the Elmore delay of every node is computed as the classic sum
``sum_k R_k * C_downstream(k)`` over the resistors on the source-to-node path.

For the Elmore metric the discretisation is exact for any segment count, so
the oracle must agree with :mod:`repro.delay.elmore` to numerical precision --
which is exactly what the test-suite asserts.

:class:`RcTree` stores the network in plain dictionaries (parent/children/
cap/resistance) and evaluates it node by node; :meth:`RcTree.graph` exposes it
as a ``networkx.DiGraph`` for analysis and reporting code, built lazily and
cached until the next mutation.  :func:`oracle_delays` -- what validation and
the optimizer call -- evaluates the same segment network (one per buffer
stage) as array passes (:func:`segment_network_delays`), replaying
:class:`RcTree`'s float operations in order, so on buffer-free trees both
return equal delays.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.delay.technology import DEFAULT_TECHNOLOGY, Technology

__all__ = ["RcTree", "oracle_delays", "segment_network_delays"]


class RcTree:
    """A lumped RC tree built node by node.

    Nodes are identified by arbitrary hashable keys.  Each node carries a
    grounded capacitance; each edge carries a resistance.  The tree is rooted
    at the driver node, which may also have a source resistance in front of it.
    """

    def __init__(self, root, technology: Technology = DEFAULT_TECHNOLOGY) -> None:
        self._root = root
        self._technology = technology
        self._caps: Dict[object, float] = {root: 0.0}
        self._parent: Dict[object, object] = {}
        self._children: Dict[object, List[object]] = {root: []}
        self._resistance: Dict[object, float] = {}
        self._graph_cache = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node, parent, resistance: float, cap: float = 0.0) -> None:
        """Attach ``node`` below ``parent`` through ``resistance`` ohms."""
        if node in self._caps:
            raise ValueError("node %r already exists" % (node,))
        if parent not in self._caps:
            raise ValueError("parent %r does not exist" % (parent,))
        if resistance < 0.0 or cap < 0.0:
            raise ValueError("resistance and capacitance must be non-negative")
        self._caps[node] = cap
        self._children[node] = []
        self._children[parent].append(node)
        self._parent[node] = parent
        self._resistance[node] = resistance
        self._graph_cache = None

    def add_cap(self, node, cap: float) -> None:
        """Add grounded capacitance to an existing node."""
        if cap < 0.0:
            raise ValueError("capacitance must be non-negative")
        self._caps[node] += cap
        self._graph_cache = None

    def add_wire(self, node, parent, length: float, segments: int = 4) -> None:
        """Attach ``node`` below ``parent`` through a wire of ``length`` micrometres.

        The wire is discretised into ``segments`` lumped RC sections; the final
        section lands on ``node`` itself so that the caller can then add the
        node's own load capacitance with :meth:`add_cap`.
        """
        if segments < 1:
            raise ValueError("a wire needs at least one segment")
        if length < 0.0:
            raise ValueError("wire length must be non-negative")
        tech = self._technology
        seg_len = length / segments
        seg_res = tech.unit_resistance * seg_len
        seg_cap = tech.unit_capacitance * seg_len
        previous = parent
        for index in range(segments):
            current = node if index == segments - 1 else ("__wire__", node, index)
            self.add_node(current, previous, seg_res, cap=0.0)
            # Pi model: half of the segment capacitance at each end.
            self.add_cap(previous, seg_cap / 2.0)
            self.add_cap(current, seg_cap / 2.0)
            previous = current

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def _topological_order(self) -> List[object]:
        """Every node with parents before children (root first)."""
        order: List[object] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(reversed(self._children[node]))
        return order

    def total_capacitance(self) -> float:
        """Sum of every grounded capacitance in the network."""
        return sum(self._caps.values())

    def downstream_capacitances(self) -> Dict[object, float]:
        """Capacitance of the subtree rooted at every node (node cap included)."""
        caps: Dict[object, float] = {}
        for node in reversed(self._topological_order()):
            total = self._caps[node]
            for child in self._children[node]:
                total += caps[child]
            caps[node] = total
        return caps

    def elmore_delays(self) -> Dict[object, float]:
        """Elmore delay from the driver to every node of the network."""
        caps = self.downstream_capacitances()
        delays: Dict[object, float] = {}
        source_term = self._technology.source_resistance * caps[self._root]
        delays[self._root] = source_term
        resistance = self._resistance
        parent = self._parent
        for node in self._topological_order():
            if node == self._root:
                continue
            delays[node] = delays[parent[node]] + resistance[node] * caps[node]
        return delays

    def delay_to(self, node) -> float:
        """Elmore delay from the driver to a single node."""
        return self.elmore_delays()[node]

    # ------------------------------------------------------------------
    # Conversion from an embedded clock tree
    # ------------------------------------------------------------------
    @classmethod
    def from_clock_tree(cls, tree, segments_per_edge: int = 4) -> "RcTree":
        """Expand an embedded :class:`~repro.cts.tree.ClockTree` into an RC network.

        Sink capacitances become grounded caps on the corresponding leaf nodes;
        each edge becomes a discretised distributed line.  Node keys reuse the
        clock-tree node ids so that delays can be compared directly.

        A single RC network cannot model buffer isolation, so buffered trees
        are rejected; use :func:`oracle_delays`, which composes one network
        per buffer stage.
        """
        for node in tree.nodes():
            if node.buffer is not None:
                raise ValueError(
                    "tree contains buffers; a single RC network cannot model "
                    "buffer isolation -- use repro.delay.rc_tree.oracle_delays"
                )
        root = tree.root()
        rc = cls(root.node_id, technology=tree.technology)
        rc.add_cap(root.node_id, root.sink_cap)
        for node_id in tree.topological_order():
            for child in tree.children_of(node_id):
                rc.add_wire(child.node_id, node_id, child.edge_length, segments_per_edge)
                rc.add_cap(child.node_id, child.sink_cap)
        return rc

    def graph(self):
        """The network as a ``networkx.DiGraph`` (parents point to children).

        Built on demand for analysis/report consumers and cached until the
        next mutation; construction and delay evaluation never touch it.
        """
        if self._graph_cache is None:
            import networkx as nx

            graph = nx.DiGraph()
            for node, cap in self._caps.items():
                graph.add_node(node, cap=cap)
            for node, parent in self._parent.items():
                graph.add_edge(parent, node, resistance=self._resistance[node])
            self._graph_cache = graph
        return self._graph_cache

    @property
    def root(self):
        return self._root


def oracle_delays(tree, segments_per_edge: int = 4) -> Dict[int, float]:
    """Independent per-stage RC re-derivation of a clock tree's Elmore delays.

    The buffer-aware replacement for ``RcTree.from_clock_tree(t)
    .elmore_delays()``: a buffer decouples its subtree, so the tree is split
    into stages at buffered nodes.  Each stage is its own discretised RC
    network whose driver resistance is the source resistance (top stage) or
    the stage buffer's drive resistance; a buffered node appears in its parent
    stage as a leaf carrying only the buffer input cap, and its recorded delay
    is the arrival at the buffer *input* -- exactly the convention of
    :mod:`repro.delay.elmore`.  Stage delays compose as ``arrival + intrinsic
    + network delay``.  On buffer-free trees this is precisely the single
    network of :meth:`RcTree.from_clock_tree`, evaluated by
    :func:`segment_network_delays` as array passes instead of node by node.

    Returns the delay of every node reachable from the root.  Raises
    ``ValueError`` when the tree has no root or a node is reached twice (a
    cycle or a node listed under two parents).
    """
    root = tree.root()
    order = [root]
    seen = {root.node_id}
    for node in order:  # breadth-first: the list grows while it is walked
        for child_id in node.children:
            if child_id in seen:
                raise ValueError("node %d is reached twice from the root" % child_id)
            seen.add(child_id)
            order.append(tree.node(child_id))
    delays = segment_network_delays(
        [len(node.children) for node in order],
        [node.edge_length for node in order],
        [node.sink_cap for node in order],
        {i: node.buffer for i, node in enumerate(order) if node.buffer is not None},
        tree.technology,
        segments_per_edge,
    )
    return dict(zip([node.node_id for node in order], delays.tolist()))


def segment_network_delays(
    child_counts: Sequence[int],
    edge_lengths: Sequence[float],
    sink_caps: Sequence[float],
    buffers: Mapping[int, "object"],
    technology: Technology,
    segments_per_edge: int = 4,
) -> np.ndarray:
    """Elmore delays of a tree's per-stage segment networks, as array passes.

    The tree arrives as breadth-first columns: node 0 is the root and every
    node's children are contiguous, in attach order, in the next level (the
    order a level-by-level walk produces).  ``buffers`` maps a position to
    its :class:`~repro.delay.buffer.BufferCell`.

    Each edge is the ``segments_per_edge``-section pi-model chain that
    :meth:`RcTree.add_wire` builds, and every float operation happens in the
    order the node-by-node :class:`RcTree` performs it: a node's grounded cap
    is its own wire's far half-cap plus its load, then its child wires' near
    half-caps in attach order; its downstream cap adds the children's
    downstream caps in attach order; delays accumulate ``R_k * C_down(k)``
    segment by segment from the stage driver.  So on buffer-free trees the
    result equals ``RcTree.from_clock_tree(...).elmore_delays()`` exactly.
    """
    if segments_per_edge < 1:
        raise ValueError("a wire needs at least one segment")
    counts = np.asarray(child_counts, dtype=np.int64)
    lengths = np.asarray(edge_lengths, dtype=np.float64)
    caps = np.asarray(sink_caps, dtype=np.float64)
    n = counts.size
    if not n:
        raise ValueError("a network needs a root")
    # The root's own edge length is never part of a network.
    if lengths[1:].min(initial=0.0) < 0.0 or caps.min(initial=0.0) < 0.0:
        raise ValueError("resistance and capacitance must be non-negative")
    first_child = np.ones(n, dtype=np.int64)
    np.cumsum(counts[:-1], out=first_child[1:])
    first_child[1:] += 1
    bounds = [0, 1]
    while bounds[-1] < n:
        end = int(first_child[bounds[-1] - 1] + counts[bounds[-1] - 1])
        if end <= bounds[-1]:
            raise ValueError("child counts do not describe a breadth-first tree")
        bounds.append(end)
    parent = np.repeat(np.arange(n, dtype=np.int64), counts)

    buffered = np.zeros(n, dtype=bool)
    input_cap = np.zeros(n)
    intrinsic = np.zeros(n)
    drive = np.zeros(n)
    for position, cell in buffers.items():
        buffered[position] = True
        input_cap[position] = cell.input_cap
        intrinsic[position] = cell.intrinsic_delay
        drive[position] = cell.drive_resistance

    k = segments_per_edge
    seg_len = lengths / k
    seg_res = technology.unit_resistance * seg_len
    half = technology.unit_capacitance * seg_len / 2.0
    # A node's cap as a member of its parent's stage: far half-cap + load
    # (a buffered node is a leaf there, loading it with its input pin).
    member_cap = half + np.where(buffered, input_cap, caps)
    # Stage roots (the root, buffered nodes) start their own network from
    # their sink cap alone.
    stage_root = buffered.copy()
    stage_root[0] = True
    # down_top: downstream cap at the node in the network holding its
    # children; chain[:, j]: downstream cap at the j-th segment node of the
    # wire into the node (column k-1 is the node itself).
    down_top = np.where(stage_root, caps, member_cap)
    chain = np.empty((n, k))
    wire_node_cap = half + half
    for lo, hi in reversed(list(zip(bounds[:-1], bounds[1:]))):
        level_counts = counts[lo:hi]
        widest = int(level_counts.max())
        if widest:
            starts = first_child[lo:hi]
            total = down_top[lo:hi]  # a view: the sums land in down_top
            for source in (half, chain[:, 0]):
                for slot in range(widest):
                    sel = level_counts > slot
                    total[sel] = total[sel] + source[starts[sel] + slot]
        chain[lo:hi, k - 1] = np.where(buffered[lo:hi], member_cap[lo:hi], down_top[lo:hi])
        for j in range(k - 2, -1, -1):
            chain[lo:hi, j] = wire_node_cap[lo:hi] + chain[lo:hi, j + 1]

    delays = np.empty(n)
    # inner: the stage-relative delay the node's children build on; base:
    # the absolute time their stage starts at.
    inner = np.empty(n)
    base = np.empty(n)
    if buffered[0]:
        delays[0] = technology.source_resistance * input_cap[0]
        inner[0] = drive[0] * down_top[0]
        base[0] = delays[0] + intrinsic[0]
    else:
        inner[0] = technology.source_resistance * down_top[0]
        delays[0] = 0.0 + inner[0]
        base[0] = 0.0
    for lo, hi in zip(bounds[1:-1], bounds[2:]):
        up = parent[lo - 1:hi - 1]
        arrival = inner[up]
        for j in range(k):
            arrival = arrival + seg_res[lo:hi] * chain[lo:hi, j]
        delays[lo:hi] = base[up] + arrival
        level_buffered = buffered[lo:hi]
        inner[lo:hi] = np.where(
            level_buffered, drive[lo:hi] * down_top[lo:hi], arrival
        )
        base[lo:hi] = np.where(
            level_buffered, delays[lo:hi] + intrinsic[lo:hi], base[up]
        )
    return delays
