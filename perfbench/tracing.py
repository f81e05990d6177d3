"""Spans around calls into the program's layers, recorded from outside.

The traced executors below call the same public functions, in the same
order, as ``execute_job``, ``execute_eval_job``, ``execute_optimize_job``
and the ``BatchEngine`` cache path, and wrap each call in a span.  The
program under ``src/`` is not modified: its own per-stage timings
(``pass_trace``, ``EvalOutcome.timings``, the optimizer's ``timings``) are
attached as derived child spans of the call that produced them.

Spans are held in memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.compiler.flow import compile_with_method
from repro.compiler.metrics import measure_compiled, success_probability
from repro.compiler.serialize import from_json, to_json
from repro.hardware.target import intern_target
from repro.qaoa.optimizer import optimize_problem
from repro.service.job import decode_envelope, encode_envelope, resolve_job_environment
from repro.sim.fastpath import cost_diagonal, evaluate_fast
from repro.sim.noise import NoiseModel


class Tracer:
    """In-memory span recorder: one root span per job, children below it.

    A span is ``(span_id, parent_id, job_id, name, start_s, end_s, derived)``;
    ``derived`` marks spans rebuilt from the program's own stage timings,
    which carry a duration but no measured start.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[int, Optional[int], str, str, float, float, bool]] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._job = ""
        self._job_start = 0

    def start_job(self, job_id: str) -> None:
        self._job = job_id
        self._job_start = len(self.spans)

    def job_coverage(self) -> float:
        """Share of the last job's root span covered by its direct children."""
        root, *rest = self.spans[self._job_start:]
        wall = root[5] - root[4]
        covered = sum(s[5] - s[4] for s in rest if s[1] == root[0])
        return covered / wall if wall > 0 else 1.0

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def count(self, name: str, value: float) -> None:
        """Add to a counter kept next to the spans."""
        self.counts[name] = self.counts.get(name, 0.0) + value

    def derived(self, parent: int, name: str, start: float, seconds: float) -> None:
        """Record a child span from a stage timing the program reported."""
        self.spans.append(
            (len(self.spans), parent, self._job, name, start, start + seconds, True)
        )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, job, name, start, end, derived in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "span": sid,
                            "parent": parent,
                            "job": job,
                            "name": name,
                            "start_s": start,
                            "dur_ms": (end - start) * 1e3,
                            "derived": derived,
                        }
                    )
                    + "\n"
                )


class _Span:
    __slots__ = ("tracer", "name", "index", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    # The span's own bookkeeping falls inside it, so the gap between two
    # sibling spans is only the ``with`` dispatch.
    def __enter__(self) -> "_Span":
        self.start = time.perf_counter()
        tracer = self.tracer
        self.index = len(tracer.spans)
        tracer.spans.append(None)  # placeholder keeps ids in start order
        tracer._stack.append(self.index)
        return self

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        tracer._stack.pop()
        parent = tracer._stack[-1] if tracer._stack else None
        tracer.spans[self.index] = (
            self.index, parent, tracer._job, self.name, self.start, time.perf_counter(), False
        )


def _stage_children(tracer: Tracer, span: _Span, records, prefix: str) -> None:
    """Lay the program's sequential stage timings out under ``span``.

    Called while ``span`` is still open, so the bookkeeping is charged to
    that span rather than left uncovered in its parent.
    """
    cursor = span.start
    for name, seconds in records:
        tracer.derived(span.index, f"{prefix}{name}", cursor, seconds)
        cursor += seconds


def _compile(job, target, tracer: Tracer):
    with tracer.span("compiler.flow.compile") as span:
        compiled = compile_with_method(
            job.program,
            target,
            job.method,
            packing_limit=job.packing_limit,
            rng=np.random.default_rng(job.seed),
            router=job.router,
        )
        records = compiled.pass_trace
        _stage_children(tracer, span, [(r.name, r.seconds) for r in records], "pass:")
        tracer.count("compiler.pipeline.swaps", sum(r.swaps for r in records))
    return compiled


def _environment(job, tracer: Tracer):
    with tracer.span("service.job.resolve_env"):
        device, calibration, warnings = resolve_job_environment(job)
    with tracer.span("hardware.target.intern"):
        target = intern_target(device, calibration, warnings=tuple(warnings))
    return calibration, warnings, target


# ----------------------------------------------------------------------
# traced executors (same calls, same order as the untraced service path)
# ----------------------------------------------------------------------
def traced_compile(job, tracer: Tracer, cache=None):
    """``BatchEngine`` miss path + ``execute_job``.

    Returns ``(metrics, payload, compiled)``.  The serial engine looks a key
    up twice on a miss (batch pre-scan, then the serial loop), so this does
    too.
    """
    with tracer.span("service.job.hash"):
        key = job.content_hash()
    if cache is not None:
        for _ in range(2):
            with tracer.span("service.cache.get"):
                cache.get(key)
    calibration, warnings, target = _environment(job, tracer)
    compiled = _compile(job, target, tracer)
    with tracer.span("compiler.metrics.measure"):
        compiled.warnings = warnings + compiled.warnings
        measured = measure_compiled(compiled, calibration=calibration)
    with tracer.span("service.job.metrics"):
        metrics = {
            "depth": measured.depth,
            "gate_count": measured.gate_count,
            "cnot_count": measured.cnot_count,
            "swap_count": measured.swap_count,
            "compile_time": measured.compile_time,
            "success_probability": measured.success_probability,
            "warnings": list(compiled.warnings),
            "pass_trace": [r.to_dict() for r in compiled.pass_trace],
            "target_fingerprint": compiled.target_fingerprint,
        }
    with tracer.span("compiler.serialize.to_json"):
        document = to_json(compiled)
        tracer.count("compiler.serialize.bytes", len(document))
    with tracer.span("service.job.envelope_encode"):
        payload = encode_envelope(document, metrics)
    if cache is not None:
        with tracer.span("service.cache.put"):
            cache.put(key, payload)
    return metrics, payload, compiled


def traced_eval(job, tracer: Tracer) -> dict:
    """``execute_eval_job``; returns the job's metrics."""
    with tracer.span("service.job.hash"):
        job.content_hash()
    cjob = job.compile_job
    calibration, warnings, target = _environment(cjob, tracer)
    compiled = _compile(cjob, target, tracer)
    with tracer.span("sim.noise.model"):
        compiled.warnings = warnings + compiled.warnings
        noise = NoiseModel.from_calibration(calibration, t2_ns=job.t2_ns)
        if job.noise_scale != 1.0:
            noise = noise.scaled(job.noise_scale)
    with tracer.span("sim.fastpath.evaluate") as span:
        outcome = evaluate_fast(
            compiled,
            noise=noise,
            shots=job.shots,
            trajectories=job.trajectories,
            rng=np.random.default_rng(job.eval_seed),
            mode=job.mode,
        )
        _stage_children(tracer, span, outcome.timings.items(), "fastpath:")
        tracer.count("sim.fastpath.evaluations", 1)
        tracer.count("sim.fastpath.fast", int(outcome.fastpath))
    with tracer.span("compiler.metrics.success"):
        success = success_probability(compiled.circuit, calibration)
    with tracer.span("sim.fastpath.cost_diagonal"):
        diagonal_fp = cost_diagonal(cjob.program).fingerprint
    with tracer.span("service.job.metrics"):
        metrics = {
            "r0": outcome.r0,
            "rh": outcome.rh,
            "arg": outcome.arg,
            "fastpath": outcome.fastpath,
            "swap_count": compiled.swap_count,
            "success_probability": success,
            "eval_trace": [
                {"name": name, "seconds": seconds}
                for name, seconds in outcome.timings.items()
            ],
            "pass_trace": [r.to_dict() for r in compiled.pass_trace],
            "warnings": list(compiled.warnings),
            "diagonal_fingerprint": diagonal_fp,
        }
    with tracer.span("service.job.envelope_encode"):
        encode_envelope("null", metrics)
    with tracer.span("service.job.release"):
        del compiled  # as execute_eval_job drops it on return
    return metrics


def traced_optimize(job, tracer: Tracer) -> dict:
    """``execute_optimize_job``; returns the job's metrics."""
    with tracer.span("service.job.hash"):
        job.content_hash()
    with tracer.span("sim.fastpath.cost_diagonal"):
        diagonal = cost_diagonal(job.problem)
    with tracer.span("qaoa.optimizer.optimize") as span:
        result = optimize_problem(
            job.problem,
            p=job.p,
            optimizer=job.optimizer,
            maxiter=job.maxiter,
            restarts=job.restarts,
            seed=job.opt_seed,
            diagonal=diagonal,
        )
        _stage_children(tracer, span, result.timings.items(), "optimizer:")
        tracer.count("qaoa.optimizer.evaluations", result.evaluations)
    with tracer.span("qaoa.frontend.fingerprint"):
        fingerprint = job.problem.content_fingerprint()
    with tracer.span("service.job.metrics"):
        metrics = {
            "gammas": result.gammas,
            "betas": result.betas,
            "expectation": result.expectation,
            "optimum": result.optimum,
            "approximation_ratio": result.approximation_ratio,
            "evaluations": result.evaluations,
            "optimize_trace": [
                {"name": name, "seconds": seconds}
                for name, seconds in result.timings.items()
            ],
            "problem_fingerprint": fingerprint,
            "diagonal_fingerprint": diagonal.fingerprint,
        }
    with tracer.span("service.job.envelope_encode"):
        encode_envelope("null", metrics)
    return metrics


def traced_replay(job, tracer: Tracer, cache):
    """``BatchEngine`` hit path + ``JobResult.compiled()``.

    Returns ``(key, metrics, payload, compiled)``.  The engine decodes the
    envelope for its metrics and ``compiled()`` decodes it again before
    ``from_json``, so the envelope is decoded twice here as well.
    """
    with tracer.span("service.job.hash"):
        key = job.content_hash()
    with tracer.span("service.cache.get"):
        payload = cache.get(key)
        if payload is None:
            raise LookupError(f"replayed key {key[:12]} missing from the cache")
    with tracer.span("service.job.envelope_decode"):
        metrics, _ = decode_envelope(payload)
    with tracer.span("service.job.envelope_decode"):
        _, document = decode_envelope(payload)
    with tracer.span("compiler.serialize.from_json"):
        compiled = from_json(document)
    return key, metrics, payload, compiled


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def span_totals(tracer: Tracer) -> Dict[str, float]:
    """Total seconds per span name, with pass/stage names folded into the
    reported layer names (``pass:route/ic`` -> ``compiler.pipeline.route``)."""
    totals: Dict[str, float] = {}
    for span in tracer.spans:
        name = span[3]
        if name.startswith("pass:"):
            stage = name[len("pass:"):].split("/", 1)[0]
            name = f"compiler.pipeline.{stage}"
        elif name.startswith("fastpath:"):
            name = f"sim.fastpath.{name[len('fastpath:'):]}"
        elif name.startswith("optimizer:"):
            name = f"qaoa.optimizer.{name[len('optimizer:'):]}"
        totals[name] = totals.get(name, 0.0) + (span[5] - span[4])
    return totals
