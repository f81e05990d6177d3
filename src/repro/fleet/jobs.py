"""Fleet jobs: device-free work units the scheduler binds at placement.

A :class:`FleetJob` wraps one service-layer job — a
:class:`~repro.service.job.CompileJob` or
:class:`~repro.service.evaluate.EvalJob` — plus the :class:`SLO` the
requester bought.  The wrapped job's ``device``/``calibration`` fields
are placeholders: placement *binds* the job to the chosen slot's target
(coupling + calibration) via :func:`bind_job`, producing a normal
service job that flows through the per-device
:class:`~repro.service.engine.BatchEngine` unchanged, content hash and
cache included.

JSONL lines reuse the ``repro batch`` job grammar
(:func:`repro.service.job.job_from_dict`) with three fleet extensions::

    {"problem": {...}, "slo": "gold"}
    {"program": {...}, "slo": {"max_latency_ms": 500},
     "eval": {"shots": 1024, "trajectories": 8}}
    {"qubo": {"matrix": [[1, -1], [-1, 1]]}, "slo": "silver",
     "optimize": {"p": 1, "optimizer": "cobyla", "maxiter": 150}}

``"slo"`` is a tier name or bound dict; a present ``"eval"`` object
turns the line into an evaluation job, a present ``"optimize"`` object
into a variational :class:`~repro.service.optimize.OptimizeJob` over any
unified-frontend problem form.  ``"device"`` entries are ignored — the
scheduler owns placement (optimize jobs run device-free on the exact
fast path, but stay memory-constrained like evaluations).
"""

from __future__ import annotations

import dataclasses
import json
from typing import List, Optional, Sequence, Union

import numpy as np

from ..hardware.target import Target
from ..service.evaluate import EvalJob
from ..service.job import CompileJob, _require_lines, job_from_dict
from ..service.optimize import OptimizeJob, optimize_job_from_dict
from .slo import SLO, SLO_TIERS, slo_from_dict

__all__ = [
    "FleetJob",
    "bind_job",
    "fleet_jobs_from_jsonl",
    "synthetic_stream",
]


@dataclasses.dataclass(frozen=True)
class FleetJob:
    """One unit of fleet work: a service job plus its SLO."""

    job: Union[CompileJob, EvalJob, OptimizeJob]
    slo: SLO = SLO()

    @property
    def kind(self) -> str:
        """``"compile"``, ``"eval"`` or ``"optimize"`` (what the latency
        model keys on)."""
        if isinstance(self.job, OptimizeJob):
            return "optimize"
        return "eval" if isinstance(self.job, EvalJob) else "compile"

    @property
    def job_id(self) -> Optional[str]:
        return self.job.job_id

    @property
    def method(self) -> Optional[str]:
        """Compile method label (EvalJob proxies its compile job's;
        OptimizeJob reports its classical optimizer; inline
        PipelineSpec methods read as their flow label)."""
        method = getattr(self.job, "method", None)
        if method is None or isinstance(method, str):
            return method
        from ..service.job import method_label

        return method_label(method)

    @property
    def program(self):
        """The wrapped program (``None`` for optimize jobs — the
        variational loop picks its own angles)."""
        if isinstance(self.job, OptimizeJob):
            return None
        return self.job.program

    @property
    def levels(self) -> int:
        if isinstance(self.job, OptimizeJob):
            return int(self.job.p)
        return len(self.job.program.levels)

    @property
    def num_edges(self) -> int:
        if isinstance(self.job, OptimizeJob):
            return len(self.job.problem.edges)
        return len(self.job.program.edges)


def bind_job(
    fleet_job: FleetJob, target: Target
) -> Union[CompileJob, EvalJob, OptimizeJob]:
    """The concrete service job for one placement decision.

    Rebinds the wrapped job's device and calibration to the slot's
    target content; everything else (program, method, seeds, eval knobs)
    is preserved, so the content hash — and therefore the cache key —
    depends on *where* the job landed, never on scheduler state.
    Optimize jobs are device-free (exact fast path) and pass through
    unchanged — their hash never depends on placement.
    """
    if isinstance(fleet_job.job, OptimizeJob):
        return fleet_job.job
    if isinstance(fleet_job.job, EvalJob):
        compile_job = dataclasses.replace(
            fleet_job.job.compile_job,
            device=target.coupling,
            calibration=target.calibration,
        )
        return dataclasses.replace(fleet_job.job, compile_job=compile_job)
    return dataclasses.replace(
        fleet_job.job,
        device=target.coupling,
        calibration=target.calibration,
    )


def fleet_jobs_from_jsonl(lines: Sequence[str]) -> List[FleetJob]:
    """Parse a fleet JSONL job stream (blank lines / ``#`` comments
    skipped); raises ``ValueError`` naming the offending line, and
    ``TypeError`` on a bare ``str``/``bytes``."""
    _require_lines(lines)
    out: List[FleetJob] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            spec = json.loads(line)
            slo = slo_from_dict(spec.pop("slo", None))
            if "optimize" in spec:
                out.append(
                    FleetJob(job=optimize_job_from_dict(spec), slo=slo)
                )
                continue
            eval_spec = spec.pop("eval", None)
            compile_job = job_from_dict(spec)
            if eval_spec is None:
                out.append(FleetJob(job=compile_job, slo=slo))
                continue
            if not isinstance(eval_spec, dict):
                raise ValueError("'eval' must be an object")
            out.append(
                FleetJob(
                    job=EvalJob(
                        compile_job=compile_job,
                        shots=int(eval_spec.get("shots", 4096)),
                        trajectories=int(eval_spec.get("trajectories", 32)),
                        noise_scale=float(eval_spec.get("noise_scale", 1.0)),
                        t2_ns=(
                            None
                            if eval_spec.get("t2_ns") is None
                            else float(eval_spec["t2_ns"])
                        ),
                        mode=str(eval_spec.get("mode", "sampled")),
                        eval_seed=int(eval_spec.get("eval_seed", 0)),
                        job_id=compile_job.job_id,
                    ),
                    slo=slo,
                )
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"bad fleet job on line {lineno}: {exc}") from exc
    return out


#: Tier mix of the synthetic stream: mostly bronze/best-effort traffic
#: with a paying minority, like any real service.
_TIER_WEIGHTS = (
    ("gold", 0.2),
    ("silver", 0.3),
    ("bronze", 0.3),
    ("best-effort", 0.2),
)


def synthetic_stream(
    count: int,
    seed: int = 0,
    nodes: int = 8,
    eval_fraction: float = 0.3,
    shots: int = 512,
    trajectories: int = 8,
    methods: Sequence[str] = ("ic", "qaim", "ip"),
    tier_weights: Optional[Sequence] = None,
) -> List[FleetJob]:
    """A seeded mixed compile/eval job stream with tiered SLOs.

    Problems are Erdős–Rényi instances of ``nodes-1 .. nodes+1`` vertices
    at p=0.5, methods cycle through ``methods``, roughly
    ``eval_fraction`` of the jobs are evaluations (the expensive kind),
    and tiers are drawn from ``tier_weights`` (``(name, weight)`` pairs;
    defaults to the service-like mix above).  Fully deterministic under
    ``seed`` — benchmarks compare policies on byte-identical streams.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    from ..experiments.harness import make_problem

    weights = _TIER_WEIGHTS if tier_weights is None else list(tier_weights)
    rng = np.random.default_rng(seed)
    tier_names = [name for name, _ in weights]
    for name in tier_names:
        if name not in SLO_TIERS:
            raise ValueError(f"unknown SLO tier {name!r} in tier_weights")
    tier_probs = np.array([w for _, w in weights])
    tier_probs = tier_probs / tier_probs.sum()
    jobs: List[FleetJob] = []
    for i in range(count):
        n = int(nodes + rng.integers(-1, 2))
        problem = make_problem("er", max(4, n), 0.5, rng)
        program = problem.to_program([0.7], [0.35])
        is_eval = bool(rng.random() < eval_fraction)
        tier = tier_names[int(rng.choice(len(tier_names), p=tier_probs))]
        if tier == "gold" and not is_eval:
            # Gold's ARG bound needs an evaluation to be measurable; a
            # compile-only job can never demonstrably attain it.
            tier = "silver"
        method = methods[i % len(methods)]
        compile_job = CompileJob(
            program=program,
            device="ibmq_20_tokyo",  # placeholder; the scheduler binds
            method=method,
            seed=int(rng.integers(0, 2**31)),
            job_id=f"job-{i:04d}-{tier}",
        )
        if is_eval:
            job: Union[CompileJob, EvalJob] = EvalJob(
                compile_job=compile_job,
                shots=shots,
                trajectories=trajectories,
                eval_seed=int(rng.integers(0, 2**31)),
                job_id=compile_job.job_id,
            )
        else:
            job = compile_job
        jobs.append(FleetJob(job=job, slo=SLO_TIERS[tier]))
    return jobs
