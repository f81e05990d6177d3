"""SLO-aware multi-device fleet scheduling.

The service layer (:mod:`repro.service`) executes jobs against *one*
device per job, chosen by the caller.  This package adds the missing
production layer above it: a *fleet* of heterogeneous, possibly
fault-injected devices (:mod:`~repro.fleet.spec`), per-job service-level
objectives over latency, predicted success probability, and ARG
(:mod:`~repro.fleet.slo`), admission control with structured rejections,
pluggable placement policies scored against each other
(:mod:`~repro.fleet.policy`), and a scheduler that binds each job to the
slot its SLO can live on — using the Target layer's memoized oracles and
calibration-derived fidelity estimates (:mod:`~repro.fleet.estimate`)
for the quality side and per-device EWMA models
(:mod:`~repro.fleet.latency`) for the time side.  Execution flows
through one :class:`~repro.service.engine.BatchEngine` per device, so
caching, retries, and telemetry apply unchanged; fleet-level outcomes —
SLO attainment, per-device utilization, p95 observed-vs-promised
latency, rejection counts — land in a :class:`~repro.fleet.report.
FleetReport` (also behind ``repro fleet`` on the CLI).

The resilience layer (:mod:`~repro.fleet.resilience`) closes the
recovery loop: per-device circuit breakers (closed → open → half-open
with a virtual-clock cooldown and a recovery probe), failure-triggered
job migration with the attempt trail stamped into placements, an
SLO-aware degraded-recompile ladder, and a crash-safe append-only
scheduler journal behind ``repro fleet --journal`` / ``--resume``.
"""

from .estimate import estimate_native_cnots, estimate_success_probability
from .jobs import (
    FleetJob,
    bind_job,
    fleet_jobs_from_jsonl,
    synthetic_stream,
)
from .latency import METHOD_COST_FACTORS, EwmaLatencyModel, EwmaQualityModel
from .policy import (
    POLICIES,
    BestFidelity,
    Candidate,
    GreedyFirstFit,
    LeastLoaded,
    Policy,
    get_policy,
)
from .report import (
    REJECTION_KINDS,
    DeviceSnapshot,
    FleetReport,
    PlacementRecord,
    Rejection,
)
from .resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    DEFAULT_DEGRADE_LADDER,
    BreakerTransition,
    CircuitBreaker,
    SchedulerJournal,
    downgrade_job,
    stream_fingerprint,
)
from .scheduler import Scheduler, run_fleet
from .slo import SLO, SLO_TIERS, slo_from_dict
from .spec import (
    DeviceSlot,
    FleetSpec,
    default_fleet,
    fleet_from_dict,
    load_fleet_json,
)

__all__ = [
    "SLO",
    "SLO_TIERS",
    "slo_from_dict",
    "DeviceSlot",
    "FleetSpec",
    "default_fleet",
    "fleet_from_dict",
    "load_fleet_json",
    "FleetJob",
    "bind_job",
    "fleet_jobs_from_jsonl",
    "synthetic_stream",
    "EwmaLatencyModel",
    "EwmaQualityModel",
    "METHOD_COST_FACTORS",
    "estimate_native_cnots",
    "estimate_success_probability",
    "Candidate",
    "Policy",
    "GreedyFirstFit",
    "BestFidelity",
    "LeastLoaded",
    "POLICIES",
    "get_policy",
    "REJECTION_KINDS",
    "Rejection",
    "PlacementRecord",
    "DeviceSnapshot",
    "FleetReport",
    "Scheduler",
    "run_fleet",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "BreakerTransition",
    "CircuitBreaker",
    "DEFAULT_DEGRADE_LADDER",
    "SchedulerJournal",
    "downgrade_job",
    "stream_fingerprint",
]
