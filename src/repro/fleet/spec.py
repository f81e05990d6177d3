"""Fleet description: named device slots, fault-injected variants, targets.

A :class:`FleetSpec` is the static half of the fleet scheduler — *what
devices exist*.  Each :class:`DeviceSlot` names one schedulable device:
a library topology (or a parametric ``ring_N``/``linear_N``/``grid_RxC``
name), a calibration spec, and optionally a seeded fault-injection recipe.
Faulted slots model the degraded hardware of a real fleet: the recipe is
fed through :class:`~repro.hardware.faults.FaultInjector`, repaired by
:func:`~repro.hardware.faults.repair_calibration` (pruning dead couplers,
imputing poisoned entries), and the repaired device is interned as a
:class:`~repro.hardware.target.Target` carrying its repair warnings — so a
degraded slot never aliases its clean twin and every job placed on it
shares one memoized device analysis.

Slots are built lazily and memoized per spec: constructing a
:class:`FleetSpec` is free; the first scheduler that runs against it pays
one target build per slot.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..hardware.calibration import Calibration, random_calibration
from ..hardware.coupling import CouplingGraph
from ..hardware.devices import get_device
from ..hardware.faults import FaultInjector, RawCalibration, repair_calibration
from ..hardware.target import Target, intern_target

__all__ = [
    "DeviceSlot",
    "FleetSpec",
    "default_fleet",
    "fleet_from_dict",
    "load_fleet_json",
]

#: FaultInjector.degrade keyword arguments a slot recipe may use.
FAULT_KNOBS = (
    "dead_qubits",
    "dead_edges",
    "drift_sigma",
    "dropout",
    "nan_entries",
    "out_of_range_entries",
    "inflate",
)

@dataclasses.dataclass
class DeviceSlot:
    """One schedulable device in the fleet.

    Attributes:
        label: Unique fleet-local name (what placements record).
        device: Device name (library or parametric) or an inline
            :class:`CouplingGraph`.
        calibration: ``None`` (uncalibrated), ``"auto"`` (the paper's
            melbourne feed for melbourne, else a seeded random one),
            ``{"seed": n}`` for an explicit random calibration, or a
            concrete :class:`Calibration`.
        faults: Optional :meth:`FaultInjector.degrade` keyword recipe;
            a non-empty recipe makes this a degraded variant slot.
        fault_seed: Seed for the slot's private fault injector.
        hardware: Whether this slot models real IBM hardware (the
            HW-preferred policy's tie-break).  Defaults to ``True`` for
            ``ibmq_*`` device names.
        calibration_seed: Seed used when ``calibration`` asks for a
            random feed via ``"auto"``.
    """

    label: str
    device: Union[str, CouplingGraph]
    calibration: Union[None, str, dict, Calibration] = "auto"
    faults: Optional[dict] = None
    fault_seed: int = 0
    hardware: Optional[bool] = None
    calibration_seed: int = 0

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("slot label must be non-empty")
        if self.faults:
            unknown = set(self.faults) - set(FAULT_KNOBS)
            if unknown:
                raise ValueError(
                    f"slot {self.label!r}: unknown fault knob(s) "
                    f"{sorted(unknown)}; known: {list(FAULT_KNOBS)}"
                )
        if self.hardware is None:
            name = (
                self.device.name
                if isinstance(self.device, CouplingGraph)
                else str(self.device)
            )
            self.hardware = name.startswith("ibmq_")

    # ------------------------------------------------------------------
    def resolve_coupling(self) -> CouplingGraph:
        if isinstance(self.device, CouplingGraph):
            return self.device
        return get_device(self.device)

    def resolve_calibration(
        self, coupling: CouplingGraph
    ) -> Optional[Calibration]:
        spec = self.calibration
        if spec is None or isinstance(spec, Calibration):
            return spec
        if spec == "auto":
            if coupling.name == "ibmq_16_melbourne":
                from ..hardware.devices import melbourne_calibration

                return melbourne_calibration()
            return random_calibration(
                coupling, rng=np.random.default_rng(self.calibration_seed)
            )
        if isinstance(spec, dict) and "seed" in spec:
            return random_calibration(
                coupling, rng=np.random.default_rng(int(spec["seed"]))
            )
        raise ValueError(
            f"slot {self.label!r}: unsupported calibration spec {spec!r}"
        )

    def build_target(self) -> Target:
        """The interned :class:`Target` this slot schedules onto.

        Faulted slots run injection + repair first, so the target is the
        *repaired* device (possibly pruned coupling) with the repair
        provenance in its warnings — exactly what the compiler would see
        if that feed arrived over the wire.
        """
        coupling = self.resolve_coupling()
        calibration = self.resolve_calibration(coupling)
        if not self.faults:
            return intern_target(coupling, calibration)
        if calibration is None:
            raise ValueError(
                f"slot {self.label!r}: fault injection needs a calibration"
            )
        injector = FaultInjector(seed=self.fault_seed)
        raw = injector.degrade(
            RawCalibration.from_calibration(calibration), **self.faults
        )
        repair = repair_calibration(raw)
        return intern_target(
            repair.coupling,
            repair.calibration,
            warnings=tuple(repair.warnings),
        )

    def to_dict(self) -> dict:
        if isinstance(self.device, CouplingGraph):
            device = {
                "name": self.device.name,
                "num_qubits": self.device.num_qubits,
                "edges": sorted(list(e) for e in self.device.edges),
            }
        else:
            device = str(self.device)
        spec: dict = {"label": self.label, "device": device}
        if isinstance(self.calibration, Calibration):
            spec["calibration"] = {"seed": None}  # concrete feeds don't round-trip
        elif self.calibration != "auto":
            spec["calibration"] = self.calibration
        if self.faults:
            spec["faults"] = dict(self.faults)
            spec["fault_seed"] = self.fault_seed
        spec["hardware"] = self.hardware
        spec["calibration_seed"] = self.calibration_seed
        return spec


class FleetSpec:
    """An ordered set of uniquely labelled device slots.

    Slot order matters: it is the greedy policy's preference order and
    every policy's deterministic tie-break.
    """

    def __init__(self, slots: Sequence[DeviceSlot]) -> None:
        labels = [s.label for s in slots]
        dupes = {x for x in labels if labels.count(x) > 1}
        if dupes:
            raise ValueError(f"duplicate slot label(s): {sorted(dupes)}")
        self.slots: List[DeviceSlot] = list(slots)
        self._targets: Dict[str, Target] = {}

    def __len__(self) -> int:
        return len(self.slots)

    def __iter__(self):
        return iter(self.slots)

    def labels(self) -> List[str]:
        return [s.label for s in self.slots]

    def slot(self, label: str) -> DeviceSlot:
        for s in self.slots:
            if s.label == label:
                return s
        raise KeyError(f"no slot labelled {label!r}")

    def target(self, label: str) -> Target:
        """The slot's (memoized) interned target."""
        cached = self._targets.get(label)
        if cached is None:
            cached = self.slot(label).build_target()
            self._targets[label] = cached
        return cached

    def to_dict(self) -> dict:
        return {"slots": [s.to_dict() for s in self.slots]}


# ----------------------------------------------------------------------
# construction helpers
# ----------------------------------------------------------------------
def default_fleet(seed: int = 0) -> FleetSpec:
    """The built-in 7-slot paper fleet.

    The paper's three architectures (tokyo, melbourne, the 6x6 grid) plus
    two synthetic chains, and a seeded fault-injected variant of each IBM
    device (calibration drift + dead couplers, repaired before interning)
    — a heterogeneous fleet where fidelity, latency, and degradation all
    vary by slot.
    """
    return FleetSpec(
        [
            DeviceSlot(
                "tokyo",
                "ibmq_20_tokyo",
                calibration={"seed": seed + 11},
            ),
            DeviceSlot("melbourne", "ibmq_16_melbourne", calibration="auto"),
            DeviceSlot(
                "grid-36",
                "grid_6x6",
                calibration={"seed": seed + 13},
            ),
            DeviceSlot(
                "ring-12", "ring_12", calibration={"seed": seed + 17}
            ),
            DeviceSlot(
                "linear-16", "linear_16", calibration={"seed": seed + 19}
            ),
            DeviceSlot(
                "tokyo-degraded",
                "ibmq_20_tokyo",
                calibration={"seed": seed + 11},
                faults={"drift_sigma": 0.6, "dead_edges": 3, "inflate": 2.5},
                fault_seed=seed + 23,
            ),
            DeviceSlot(
                "melbourne-degraded",
                "ibmq_16_melbourne",
                calibration="auto",
                faults={"drift_sigma": 0.4, "dead_edges": 2, "inflate": 2.0},
                fault_seed=seed + 29,
            ),
        ]
    )


def fleet_from_dict(spec: dict) -> FleetSpec:
    """Build a fleet from a JSON spec (``{"slots": [...]}``)."""
    entries = spec.get("slots")
    if not isinstance(entries, list):
        raise ValueError("fleet spec needs a 'slots' list")
    slots = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"slot {i} must be an object")
        device = entry.get("device")
        if isinstance(device, dict):
            from ..hardware.target import intern_coupling

            device = intern_coupling(
                int(device["num_qubits"]),
                [tuple(e) for e in device["edges"]],
                name=device.get("name", "inline"),
            )
        elif not isinstance(device, str):
            raise ValueError(f"slot {i} needs a 'device' name or object")
        try:
            slots.append(
                DeviceSlot(
                    label=str(entry.get("label") or device),
                    device=device,
                    calibration=entry.get("calibration", "auto"),
                    faults=entry.get("faults"),
                    fault_seed=int(entry.get("fault_seed", 0)),
                    hardware=entry.get("hardware"),
                    calibration_seed=int(entry.get("calibration_seed", 0)),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad slot {i}: {exc}") from exc
    return FleetSpec(slots)


def load_fleet_json(path: str) -> FleetSpec:
    """Load a fleet spec from a JSON file."""
    with open(path) as fh:
        return fleet_from_dict(json.load(fh))
