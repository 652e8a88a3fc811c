"""Elmore delay substrate for clock routing.

The paper (Chapter III) uses the Elmore delay model for all balancing and skew
decisions; this package provides:

* :class:`Technology` -- unit wire resistance / capacitance and time-unit
  conversions (the internal time unit is the femtosecond when lengths are in
  micrometres, resistances in ohms and capacitances in femtofarads).
* wire-level helpers (:func:`wire_delay`, :func:`wire_capacitance`,
  :func:`wire_length_for_delay`) used by the merge balancing equations.
* :func:`elmore_delays` -- Elmore source-to-node delays of an embedded clock
  tree.
* :func:`oracle_delays` -- the verification oracle: it re-derives the same
  delays from a discretised per-buffer-stage RC network through a different
  code path, standing in for the paper's SPICE cross-check.
  :class:`RcTree` builds that network node by node (plain dictionaries) and
  is the test oracle for the array passes :func:`oracle_delays` runs.
"""

from repro.delay.technology import Technology, DEFAULT_TECHNOLOGY
from repro.delay.buffer import (
    BufferCell,
    BufferLibrary,
    DEFAULT_BUFFER_LIBRARY,
    default_library,
)
from repro.delay.wire import (
    wire_capacitance,
    wire_delay,
    wire_delay_derivative,
    wire_length_for_delay,
)
from repro.delay.elmore import elmore_delays, sink_delays, subtree_capacitances
from repro.delay.rc_tree import RcTree, oracle_delays

__all__ = [
    "BufferCell",
    "BufferLibrary",
    "DEFAULT_BUFFER_LIBRARY",
    "DEFAULT_TECHNOLOGY",
    "RcTree",
    "Technology",
    "default_library",
    "elmore_delays",
    "oracle_delays",
    "sink_delays",
    "subtree_capacitances",
    "wire_capacitance",
    "wire_delay",
    "wire_delay_derivative",
    "wire_length_for_delay",
]
