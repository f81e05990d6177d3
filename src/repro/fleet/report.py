"""Fleet telemetry: placements, rejections, attainment, utilization.

A :class:`FleetReport` is everything one scheduler run produced — one
:class:`PlacementRecord` per placed job, one :class:`Rejection` per job
admission refused (always with a structured reason), and a
:class:`DeviceSnapshot` per slot.  The headline numbers the ROADMAP asks
operators to watch all derive from these records:

* **SLO attainment rate** — attained / SLO-constrained placements;
* **per-device utilization** — busy time over the fleet makespan;
* **p95 observed vs promised latency** — did the admission-time promise
  hold at the tail?;
* **rejection counts by kind** — where admission control pushed back.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from ..service.telemetry import percentile

__all__ = [
    "REJECTION_KINDS",
    "Rejection",
    "PlacementRecord",
    "DeviceSnapshot",
    "FleetReport",
]

#: Every structured reason admission control can refuse a job with.
REJECTION_KINDS = (
    "empty_fleet",
    "unknown_method",
    "no_eligible_device",
    "queue_full",
    "saturated",
    "slo_unsatisfiable",
)


@dataclasses.dataclass(frozen=True)
class Rejection:
    """One refused admission.

    Attributes:
        job_id: The refused job's correlation id.
        kind: One of :data:`REJECTION_KINDS`.
        detail: Human-readable account of *why* — for
            ``slo_unsatisfiable`` it names each device's shortfall.
        arrival_ms: Virtual arrival time of the refused job.
    """

    job_id: Optional[str]
    kind: str
    detail: str
    arrival_ms: float = 0.0

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "detail": self.detail,
            "arrival_ms": round(self.arrival_ms, 3),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Rejection":
        """Rebuild from :meth:`to_dict` output (journal replay)."""
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})


@dataclasses.dataclass
class PlacementRecord:
    """One placed job's full audit trail.

    Resilience fields (all defaulted, so pre-resilience constructors
    keep working):

    * ``method`` — the compile method that actually ran (differs from
      the submitted one after a degraded recompile).
    * ``migrations`` / ``original_device`` / ``attempts`` — how many
      times the job was re-placed after a terminal device failure, where
      it started, and one entry per attempt (device, virtual exec time,
      outcome) — enough to replay the run's accounting from a journal.
    * ``downgrades`` — structured degraded-recompile warnings (empty
      when the job ran as submitted).
    * ``probe`` — the final placement was a half-open circuit-breaker
      recovery probe.
    """

    job_id: Optional[str]
    kind: str
    device_label: str
    arrival_ms: float
    wait_ms: float
    exec_ms: float
    observed_ms: float
    promised_ms: float
    ok: bool
    cached: bool
    constrained: bool
    attained: bool
    slo: dict
    misses: List[str]
    success_probability: Optional[float] = None
    arg: Optional[float] = None
    error: Optional[str] = None
    error_kind: Optional[str] = None
    method: Optional[str] = None
    migrations: int = 0
    original_device: Optional[str] = None
    attempts: List[dict] = dataclasses.field(default_factory=list)
    downgrades: List[str] = dataclasses.field(default_factory=list)
    probe: bool = False

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        for key in ("arrival_ms", "wait_ms", "exec_ms", "observed_ms",
                    "promised_ms"):
            out[key] = round(out[key], 3)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "PlacementRecord":
        """Rebuild from :meth:`to_dict` output (journal replay).

        Unknown keys are dropped so a journal written by a slightly
        newer minor version still replays.
        """
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})


@dataclasses.dataclass
class DeviceSnapshot:
    """End-of-run state of one fleet slot."""

    label: str
    device: str
    num_qubits: int
    hardware: bool
    degraded: bool
    placed: int
    ok: int
    failed: int
    cached: int
    busy_ms: float
    utilization: float
    eligible: bool
    ineligible_reason: Optional[str]
    latency_model: dict
    quality_model: dict
    breaker: dict = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["busy_ms"] = round(out["busy_ms"], 3)
        out["utilization"] = round(out["utilization"], 4)
        return out


@dataclasses.dataclass
class FleetReport:
    """Everything one fleet run produced."""

    policy: str
    records: List[PlacementRecord]
    rejections: List[Rejection]
    devices: List[DeviceSnapshot]
    elapsed_s: float
    makespan_ms: float
    #: Jobs whose outcome was replayed from a scheduler journal rather
    #: than served in this process (``Scheduler.run(..., resume=True)``).
    resumed: int = 0
    #: Corrupt cache entries quarantined by the per-device engines.
    cache_quarantined: int = 0
    #: Artifact-store activity for the run: ``"process"`` — the
    #: :func:`repro.store.diff_store_stats` delta of this process's
    #: registries; ``"jobs"`` — summed per-job ``store.*`` counters from
    #: every device engine's telemetry.
    store: dict = dataclasses.field(default_factory=dict)

    # ------------------------------------------------------------------
    # headline metrics
    # ------------------------------------------------------------------
    @property
    def placed(self) -> int:
        return len(self.records)

    @property
    def constrained(self) -> List[PlacementRecord]:
        """Placements that carried at least one SLO bound."""
        return [r for r in self.records if r.constrained]

    @property
    def attained(self) -> List[PlacementRecord]:
        return [r for r in self.records if r.constrained and r.attained]

    def attainment_rate(self) -> float:
        """Attained / SLO-constrained placements (1.0 when none were
        constrained — nothing was promised, nothing was broken)."""
        constrained = self.constrained
        if not constrained:
            return 1.0
        return len(self.attained) / len(constrained)

    def rejection_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for rejection in self.rejections:
            counts[rejection.kind] = counts.get(rejection.kind, 0) + 1
        return counts

    def miss_counts(self) -> Dict[str, int]:
        """SLO misses bucketed by dimension (latency/success/ARG/failed)."""
        counts: Dict[str, int] = {}
        for record in self.records:
            for miss in record.misses:
                bucket = miss.split(" ", 1)[0].rstrip(":").lower()
                counts[bucket] = counts.get(bucket, 0) + 1
        return counts

    def p95_observed_ms(self) -> float:
        if not self.records:
            return 0.0
        return percentile([r.observed_ms for r in self.records], 95.0)

    def p95_promised_ms(self) -> float:
        if not self.records:
            return 0.0
        return percentile([r.promised_ms for r in self.records], 95.0)

    def utilization(self) -> Dict[str, float]:
        return {d.label: d.utilization for d in self.devices}

    def migrations(self) -> int:
        """Total failure-triggered re-placements across the run."""
        return sum(r.migrations for r in self.records)

    def downgrades(self) -> int:
        """Jobs served via an SLO-aware degraded recompile."""
        return sum(1 for r in self.records if r.downgrades)

    def breaker_counts(self) -> Dict[str, int]:
        """Fleet-wide circuit-breaker trips/recoveries/probes."""
        totals = {"trips": 0, "recoveries": 0, "probes": 0}
        for device in self.devices:
            for key in totals:
                totals[key] += int((device.breaker or {}).get(key, 0))
        return totals

    def summary(self) -> dict:
        return {
            "policy": self.policy,
            "jobs": self.placed + len(self.rejections),
            "placed": self.placed,
            "ok": sum(1 for r in self.records if r.ok),
            "failed": sum(1 for r in self.records if not r.ok),
            "cached": sum(1 for r in self.records if r.cached),
            "constrained": len(self.constrained),
            "attained": len(self.attained),
            "attainment_rate": self.attainment_rate(),
            "rejected": len(self.rejections),
            "rejections": self.rejection_counts(),
            "misses": self.miss_counts(),
            "migrations": self.migrations(),
            "downgrades": self.downgrades(),
            "breaker": self.breaker_counts(),
            "resumed": self.resumed,
            "cache_quarantined": self.cache_quarantined,
            "store": self.store.get("jobs", {}),
            "p95_observed_ms": self.p95_observed_ms(),
            "p95_promised_ms": self.p95_promised_ms(),
            "makespan_ms": self.makespan_ms,
            "elapsed_s": self.elapsed_s,
            "utilization": self.utilization(),
        }

    def to_dict(self) -> dict:
        return {
            "summary": self.summary(),
            "devices": [d.to_dict() for d in self.devices],
            "placements": [r.to_dict() for r in self.records],
            "rejections": [r.to_dict() for r in self.rejections],
        }

    def render(self) -> str:
        """Terminal tables: headline, per-device, rejections."""
        from ..experiments.reporting import format_table

        s = self.summary()
        breaker = s["breaker"]
        headline = [
            ["policy", s["policy"]],
            ["jobs", s["jobs"]],
            ["placed", f"{s['placed']} ({s['cached']} cached)"],
            ["failed", s["failed"]],
            ["rejected", s["rejected"]],
            [
                "SLO attainment",
                f"{s['attained']}/{s['constrained']} "
                f"({100 * s['attainment_rate']:.1f}%)",
            ],
            ["migrations", s["migrations"]],
            ["degraded recompiles", s["downgrades"]],
            [
                "breaker",
                f"{breaker['trips']} trips, "
                f"{breaker['recoveries']} recoveries",
            ],
            ["p95 observed", f"{s['p95_observed_ms']:.1f} ms"],
            ["p95 promised", f"{s['p95_promised_ms']:.1f} ms"],
            ["makespan", f"{s['makespan_ms']:.1f} ms"],
            ["wall elapsed", f"{s['elapsed_s']:.3f} s"],
        ]
        if s["resumed"]:
            headline.insert(2, ["resumed from journal", s["resumed"]])
        if s["cache_quarantined"]:
            headline.append(["cache quarantined", s["cache_quarantined"]])
        blocks = [format_table(["fleet", "value"], headline)]

        rows = [
            [
                d.label,
                d.device,
                "hw" if d.hardware else "sim",
                "degraded" if d.degraded else "clean",
                d.placed,
                d.failed,
                f"{100 * d.utilization:.1f}%",
                "yes" if d.eligible else f"no ({d.ineligible_reason})",
            ]
            for d in self.devices
        ]
        blocks.append(
            format_table(
                [
                    "device", "topology", "kind", "state", "placed",
                    "failed", "util", "eligible",
                ],
                rows,
            )
        )

        if self.rejections:
            rows = [
                [kind, count]
                for kind, count in sorted(self.rejection_counts().items())
            ]
            blocks.append(format_table(["rejection", "count"], rows))
        if s["misses"]:
            rows = [
                [bucket, count]
                for bucket, count in sorted(s["misses"].items())
            ]
            blocks.append(format_table(["slo miss", "count"], rows))
        return "\n\n".join(blocks)
