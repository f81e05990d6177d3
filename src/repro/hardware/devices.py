"""Device library: the coupling graphs (and calibration) the paper evaluates on.

The paper targets three architectures (Section V-B):

* ``ibmq_20_tokyo`` — IBM's 20-qubit device (Figure 3(a)); QAIM/IP/IC
  comparisons (Figures 7, 8, 9, 11(a)) run here.
* ``ibmq_16_melbourne`` — IBM's 15-qubit device; VIC and the hardware ARG
  validation (Figures 10, 11(b)) run here.  :func:`melbourne_calibration`
  carries the per-edge CNOT error rates printed in Figure 10(a)
  (calibration of 4/8/2020); the edge-to-value assignment follows the figure
  layout and is documented inline.
* a hypothetical 6x6 ``grid`` — the 36-qubit packing-density study (Fig 12).

Additional synthetic topologies used by examples/tests: linear chains, rings
(the 8-qubit cyclic device of the Section VI planner comparison), fully
connected graphs, and the hypothetical 6-qubit device of Figure 6.

:func:`get_device` is the one name resolver: every entry point that takes a
device name (``repro.compile``, compile/eval jobs, the CLI, fleet slots)
goes through it.
"""

from __future__ import annotations

import re
from typing import Dict, List

from .calibration import Calibration
from .coupling import CouplingGraph, Edge

__all__ = [
    "ibmq_20_tokyo",
    "ibmq_16_melbourne",
    "ibmq_poughkeepsie",
    "melbourne_calibration",
    "grid_device",
    "linear_device",
    "ring_device",
    "fully_connected_device",
    "figure6_device",
    "figure6_calibration",
    "get_device",
    "DEVICE_BUILDERS",
]


def ibmq_20_tokyo() -> CouplingGraph:
    """The 20-qubit IBM Q20 Tokyo coupling graph (Figure 3(a)).

    Qubits form a 4x5 grid (rows 0-4, 5-9, 10-14, 15-19) with horizontal,
    vertical, and the device's characteristic diagonal couplings.  The
    resulting connectivity-strength profile matches Figure 3(b) — e.g.
    qubit 0 has first neighbours {1, 5} and second neighbours
    {2, 6, 7, 10, 11}, strength 7.
    """
    horizontal = [
        (r * 5 + c, r * 5 + c + 1) for r in range(4) for c in range(4)
    ]
    vertical = [(r * 5 + c, (r + 1) * 5 + c) for r in range(3) for c in range(5)]
    diagonal = [
        (1, 7), (2, 6), (3, 9), (4, 8),
        (5, 11), (6, 10), (7, 13), (8, 12),
        (11, 17), (12, 16), (13, 19), (14, 18),
    ]
    return CouplingGraph(20, horizontal + vertical + diagonal, name="ibmq_20_tokyo")


def _melbourne_edges() -> List[Edge]:
    # Ladder: top row 0..6, bottom row 14..7 (left to right), with rungs.
    top = [(i, i + 1) for i in range(6)]  # 0-1 .. 5-6
    bottom = [(i, i - 1) for i in range(14, 7, -1)]  # 14-13 .. 8-7
    rungs = [(0, 14), (1, 13), (2, 12), (3, 11), (4, 10), (5, 9), (6, 8)]
    return top + [(min(a, b), max(a, b)) for a, b in bottom] + rungs


def ibmq_16_melbourne() -> CouplingGraph:
    """The 15-qubit IBM Q16 Melbourne coupling graph (Figure 10(a)).

    Despite the name, the device has 15 usable qubits arranged as a 2x7
    ladder with a trailing qubit: top row 0-6, bottom row 14-7, and seven
    vertical rungs.  20 couplings in total.
    """
    return CouplingGraph(15, _melbourne_edges(), name="ibmq_16_melbourne")


#: Per-edge CNOT error rates read from Figure 10(a) (4/8/2020 calibration).
#: The figure prints 20 values; assignment follows the figure layout
#: (top-row horizontals, rungs, bottom-row horizontals, left to right).
MELBOURNE_CNOT_ERRORS: Dict[Edge, float] = {
    (0, 1): 1.87e-2,
    (1, 2): 1.77e-2,
    (2, 3): 1.54e-2,
    (3, 4): 8.60e-2,
    (4, 5): 5.80e-2,
    (5, 6): 2.96e-2,
    (0, 14): 2.85e-2,
    (1, 13): 8.29e-2,
    (2, 12): 5.03e-2,
    (3, 11): 7.63e-2,
    (4, 10): 4.16e-2,
    (5, 9): 3.68e-2,
    (6, 8): 3.46e-2,
    (13, 14): 7.63e-2,
    (12, 13): 2.26e-2,
    (11, 12): 7.78e-2,
    (10, 11): 4.70e-2,
    (9, 10): 4.11e-2,
    (8, 9): 3.89e-2,
    (7, 8): 2.87e-2,
}


def melbourne_calibration(
    single_qubit_error: float = 1.0e-3, readout_error: float = 3.0e-2
) -> Calibration:
    """The 4/8/2020 melbourne calibration used for Figures 10 and 11(b)."""
    coupling = ibmq_16_melbourne()
    return Calibration(
        coupling=coupling,
        cnot_error=dict(MELBOURNE_CNOT_ERRORS),
        single_qubit_error={
            q: single_qubit_error for q in range(coupling.num_qubits)
        },
        readout_error={q: readout_error for q in range(coupling.num_qubits)},
        timestamp="4/8/2020",
    )


def ibmq_poughkeepsie() -> CouplingGraph:
    """The 20-qubit IBM Poughkeepsie coupling graph.

    Referenced in Section VI's crosstalk discussion: Murali et al. found
    only 5 of its 221 coupling *pairs* to be highly crosstalk-prone.  The
    topology is a 4x5 grid with rungs only at the row ends and centre —
    sparser than tokyo (23 couplings vs 43).
    """
    edges = [
        (0, 1), (1, 2), (2, 3), (3, 4),
        (5, 6), (6, 7), (7, 8), (8, 9),
        (10, 11), (11, 12), (12, 13), (13, 14),
        (15, 16), (16, 17), (17, 18), (18, 19),
        (0, 5), (4, 9), (5, 10), (7, 12), (9, 14), (10, 15), (14, 19),
    ]
    return CouplingGraph(20, edges, name="ibmq_poughkeepsie")


def grid_device(rows: int, cols: int) -> CouplingGraph:
    """A ``rows x cols`` nearest-neighbour grid.

    ``grid_device(6, 6)`` is the hypothetical 36-qubit architecture of the
    packing-density study (Figure 12).
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    edges = []
    for r in range(rows):
        for c in range(cols):
            q = r * cols + c
            if c + 1 < cols:
                edges.append((q, q + 1))
            if r + 1 < rows:
                edges.append((q, q + cols))
    return CouplingGraph(rows * cols, edges, name=f"grid_{rows}x{cols}")


def linear_device(num_qubits: int) -> CouplingGraph:
    """A linear chain (Figure 1(d)'s 4-qubit hardware is ``linear_device(4)``)."""
    if num_qubits < 2:
        raise ValueError("linear device needs at least 2 qubits")
    edges = [(i, i + 1) for i in range(num_qubits - 1)]
    return CouplingGraph(num_qubits, edges, name=f"linear_{num_qubits}")


def ring_device(num_qubits: int) -> CouplingGraph:
    """A cycle; ``ring_device(8)`` is the Section VI planner-comparison device."""
    if num_qubits < 3:
        raise ValueError("ring device needs at least 3 qubits")
    edges = [(i, (i + 1) % num_qubits) for i in range(num_qubits)]
    return CouplingGraph(num_qubits, edges, name=f"ring_{num_qubits}")


def fully_connected_device(num_qubits: int) -> CouplingGraph:
    """All-to-all coupling (the idealised hardware of Figure 1(b)/(c))."""
    edges = [
        (a, b) for a in range(num_qubits) for b in range(a + 1, num_qubits)
    ]
    return CouplingGraph(num_qubits, edges, name=f"full_{num_qubits}")


def figure6_device() -> CouplingGraph:
    """The hypothetical 6-qubit device of Figure 6(a).

    A 6-qubit ring ``0-1-2-3-4-5-0`` with a chord ``1-4`` — this reproduces
    the figure's distance tables: hop distance (0,3) = 3, (0,4) = 2, etc.
    """
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)]
    return CouplingGraph(6, edges, name="figure6_6q")


#: CPHASE success rates of Figure 6(b); stored as CNOT error rates such
#: that ``cphase_success`` reproduces the printed values exactly.
FIGURE6_CPHASE_SUCCESS: Dict[Edge, float] = {
    (0, 1): 0.90,
    (0, 5): 0.82,
    (1, 2): 0.85,
    (1, 4): 0.81,
    (2, 3): 0.89,
    (3, 4): 0.88,
    (4, 5): 0.84,
}


def figure6_calibration() -> Calibration:
    """Calibration matching Figure 6(b)'s hypothetical success rates."""
    coupling = figure6_device()
    cnot_error = {
        e: 1.0 - s ** 0.5 for e, s in FIGURE6_CPHASE_SUCCESS.items()
    }
    return Calibration(
        coupling=coupling, cnot_error=cnot_error, timestamp="figure6"
    )


DEVICE_BUILDERS = {
    "ibmq_20_tokyo": ibmq_20_tokyo,
    "ibmq_16_melbourne": ibmq_16_melbourne,
    "ibmq_poughkeepsie": ibmq_poughkeepsie,
    "grid_6x6": lambda: grid_device(6, 6),
    "ring_8": lambda: ring_device(8),
    "linear_4": lambda: linear_device(4),
    "figure6_6q": figure6_device,
}


_PARAMETRIC = (
    (re.compile(r"^ring_(\d+)$"), ring_device),
    (re.compile(r"^linear_(\d+)$"), linear_device),
    (re.compile(r"^grid_(\d+)x(\d+)$"), grid_device),
)


def get_device(name: str) -> CouplingGraph:
    """Build a device by name.

    Library names are the keys of :data:`DEVICE_BUILDERS`
    (``"ibmq_20_tokyo"``, ``"ibmq_16_melbourne"``, ...).  The parametric
    families ``ring_N``, ``linear_N`` and ``grid_RxC`` build synthetic
    topologies of any size.  Any other name raises :class:`KeyError`.
    """
    builder = DEVICE_BUILDERS.get(name)
    if builder is not None:
        return builder()
    for pattern, build in _PARAMETRIC:
        match = pattern.match(name)
        if match:
            return build(*(int(g) for g in match.groups()))
    known = ", ".join(sorted(DEVICE_BUILDERS))
    raise KeyError(
        f"unknown device {name!r}; known: {known}, or a parametric "
        "ring_N/linear_N/grid_RxC"
    )
