"""The repository benchmark: one workload per run, closed loop, one client.

Usage (from the repository root)::

    python3 perfbench/run.py --workload compile-grid --seed 1 --seconds 15 --trace 0

``--trace 0`` runs the workload untraced and prints the end-to-end
metrics, every time at reference speed (see :mod:`perfbench.hostref`);
``--trace 1`` re-runs its first jobs untraced, then runs the
workload through the traced executors of :mod:`perfbench.tracing` and
prints the per-layer metrics.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; a fuller
record (host, seed, input shares, every check failure) is written under
``perfbench/results/`` and, for traced runs, the spans next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = ROOT / "perfbench"

#: Set-up is timed this many times before the timed phase and this many
#: after its checks, and the median reported: repeats spread over the run
#: ride out the host's bursts of contention as the timed phase does.
SETUP_REPEATS_BEFORE, SETUP_REPEATS_AFTER = 3, 2
#: Share of each traced job's wall time its direct child spans must cover.
#: A job below it is traced once more and judged on the better of the two:
#: a one-off host stall in the microseconds between two spans does not
#: repeat, work done outside every span does.
COVERAGE_FLOOR = 0.95
#: Value reported for a quality metric the workload does not produce (the
#: metric list is shared by every workload and no metric may read 0).
NOT_APPLICABLE = 1.0

#: Metric names, units and directions, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
QUALITY = ("depth_mean", "cnot_mean", "swap_mean", "success_prob_mean",
           "arg_mean", "ratio_mean")
#: Per-layer times: mean span milliseconds per traced job.
LAYER_TIMES = [m["name"][:-3] for m in SPEC["per_layer"] if m["name"].endswith("_ms")]


def _prepare_imports() -> None:
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"perfbench: no program source at {SRC / 'repro'}")
    # One client on one core: keep numpy's BLAS single-threaded.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    # The shared-memory artifact tier serves other processes.  With one
    # process it would only leave segments in /dev/shm, outside the
    # checkout, for a later run to attach to, and start multiprocessing's
    # resource tracker, a process that outlives the run.
    os.environ["REPRO_SHM_DISABLE"] = "1"
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------
def _counters(workload) -> dict:
    from repro.hardware.target import target_registry_stats
    from repro.sim.fastpath import diagonal_registry_stats

    counters = {f"target.{k}": v for k, v in target_registry_stats().items()}
    counters.update({f"diagonal.{k}": v for k, v in diagonal_registry_stats().items()})
    cache = getattr(workload, "cache", None)
    if cache is not None:
        counters.update({f"cache.{k}": v for k, v in cache.stats.snapshot().items()})
    return counters


def _delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _execute(workload, item, tracer=None):
    from repro.service import JobResult

    try:
        if tracer is None:
            return workload.execute(item)
        with tracer.span("job"):
            key, metrics, payload = workload.traced(item, tracer)
    except Exception as exc:  # noqa: BLE001 — a failed job is data, the run goes on
        return JobResult(job=item.job, key="", ok=False, error=repr(exc),
                         error_kind="exception")
    return JobResult(job=item.job, key=key, ok=True, attempts=1, metrics=metrics,
                     payload=payload)


def _timed_phase(workload, seconds, start, min_jobs, tracer=None, speed=None):
    """Submit jobs in a closed loop until ``seconds`` have passed since
    ``start`` and at least ``min_jobs`` have run.  With ``speed``, reference
    units run after each job, outside its latency."""
    workload.begin_phase()
    before = _counters(workload)
    latencies, intervals, items, results = [], [], [], []
    coverage, retraced = {}, 0
    failed = 0
    for index, item in enumerate(workload.stream()):
        if index >= min_jobs and time.perf_counter() - start >= seconds:
            break
        if tracer is not None:
            tracer.start_job(f"{item.job_id}#{index}")
        tick = time.perf_counter()
        result = _execute(workload, item, tracer)
        tock = time.perf_counter()
        latencies.append(tock - tick)
        intervals.append((tick, tock))
        if speed is not None:
            speed.pace(tock - tick)
        if tracer is not None:
            share = tracer.job_coverage()
            if share < COVERAGE_FLOOR:
                retraced += 1
                share = max(share, _retrace(workload, item, tracer))
            coverage[f"{item.job_id}#{index}"] = share
        workload.observe(index, item, result)
        failed += not result.ok
        if index < min_jobs:
            items.append(item)
            results.append(result)
    return {
        "latencies": latencies,
        "intervals": intervals,
        "failed": failed,
        "items": items,
        "results": results,
        "counters": _delta(before, _counters(workload)),
        "coverage": coverage,
        "retraced": retraced,
    }


def _retrace(workload, item, tracer) -> float:
    """Coverage of one more traced run of ``item``, kept out of the spans."""
    scratch = type(tracer)()
    scratch.start_job(item.job_id)
    _execute(workload, item, scratch)
    return scratch.job_coverage()


def _shares(workload, counters: dict) -> dict:
    groups: dict = {}
    for label, count in workload.shares.items():
        group, value = label.split(":", 1)
        groups.setdefault(group, {})[value] = count
    lookups = counters.get("cache.hits", 0) + counters.get("cache.misses", 0)
    if lookups:
        groups["cache"] = {
            "memory_hit": counters["cache.memory_hits"],
            "disk_hit": counters["cache.disk_hits"],
            "miss": counters["cache.misses"],
        }
    return {
        group: {k: v / sum(counts.values()) for k, v in sorted(counts.items())}
        for group, counts in groups.items()
    }


def _checks(workload, phase) -> list:
    failed = [i.job_id for i, r in zip(phase["items"], phase["results"]) if not r.ok]
    if failed:
        return [f"{workload.name}: prefix job(s) failed, outputs unchecked: {failed[:5]}"]
    return workload.check(phase["items"], phase["results"])


def run_untraced(workload, seconds: float, speed) -> dict:
    phase = _timed_phase(workload, seconds, time.perf_counter(), workload.prefix,
                         speed=speed)
    peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024.0
                   - speed.resident_bytes) / 2**20
    errors = _checks(workload, phase)
    quality = workload.quality(phase["results"]) if not errors else {}
    # Each job's latency at reference speed, scaled by the units run near it.
    latencies_ms = sorted(1e3 * speed.normalize(*span) for span in phase["intervals"])
    raw_ms = sorted(1e3 * s for s in phase["latencies"])
    attempted = len(latencies_ms)
    metrics = {
        "jobs_per_s": 1e3 * attempted / sum(latencies_ms),
        "job_ms_p50": _percentile(latencies_ms, 50),
        "job_ms_p90": _percentile(latencies_ms, 90),
        "ok_frac": (attempted - phase["failed"]) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    for name in QUALITY:
        metrics[name] = quality.get(name, NOT_APPLICABLE)
    return {
        "attempted": attempted,
        "failed": phase["failed"],
        "errors": errors,
        "metrics": metrics,
        "not_applicable": [q for q in QUALITY if q not in quality],
        "shares": _shares(workload, phase["counters"]),
        "raw": {
            "jobs_per_s": 1e3 * attempted / sum(raw_ms),
            "job_ms_p50": _percentile(raw_ms, 50),
            "job_ms_p90": _percentile(raw_ms, 90),
        },
    }


def run_traced(workload, seconds: float) -> dict:
    from . import checks, tracing

    start = time.perf_counter()
    # Untraced reference: the first jobs, in a phase of their own.
    reference = _timed_phase(workload, 0.0, start, workload.trace_pairs)
    tracer = tracing.Tracer()
    traced = _timed_phase(workload, seconds, start, workload.prefix, tracer)
    pairs = workload.trace_pairs
    errors = []
    for index in range(pairs):
        ref, got = reference["results"][index], traced["results"][index]
        if ref.ok and got.ok:
            errors += checks.check_equal(
                f"{workload.name} traced {reference['items'][index].job_id}",
                workload.outputs(got),
                workload.outputs(ref),
            )
    coverage = traced["coverage"]
    errors += checks.check_coverage(workload.name, coverage, COVERAGE_FLOOR)
    errors += _checks(workload, traced)
    overhead = statistics.median(
        t / r for t, r in zip(traced["latencies"][:pairs], reference["latencies"])
    )

    jobs = len(traced["latencies"])
    totals = tracing.span_totals(tracer)
    counts = tracer.counts
    c = traced["counters"]
    metrics = {f"{name}_ms": 1e3 * totals.get(name, 0.0) / jobs for name in LAYER_TIMES}
    evaluations = counts.get("qaoa.optimizer.evaluations", 0)
    optimizer_s = totals.get("qaoa.optimizer.population", 0.0) + totals.get(
        "qaoa.optimizer.search", 0.0
    )
    cache_lookups = c.get("cache.hits", 0) + c.get("cache.misses", 0)
    metrics.update(
        {
            "hardware.target.hit_ratio": _ratio(
                c["target.target_hits"], c["target.target_hits"] + c["target.target_misses"]
            ),
            "compiler.pipeline.swaps": counts.get("compiler.pipeline.swaps", 0) / jobs,
            "compiler.serialize.bytes": counts.get("compiler.serialize.bytes", 0) / jobs,
            "service.cache.hit_ratio": _ratio(c.get("cache.hits", 0), cache_lookups),
            "service.cache.disk_hit_ratio": _ratio(c.get("cache.disk_hits", 0), cache_lookups),
            "sim.fastpath.fast_ratio": _ratio(
                counts.get("sim.fastpath.fast", 0), counts.get("sim.fastpath.evaluations", 0)
            ),
            "qaoa.optimizer.evaluations": evaluations / jobs,
            "qaoa.optimizer.us_per_eval": _ratio(1e6 * optimizer_s, evaluations),
            "store.registry.diagonal_hit_ratio": _ratio(
                c["diagonal.hits"], c["diagonal.hits"] + c["diagonal.misses"]
            ),
            "trace.overhead_pct": 100.0 * (overhead - 1.0),
            "trace.span_coverage_min": min(coverage.values()),
        }
    )
    return {
        "attempted": jobs,
        "failed": traced["failed"],
        "errors": errors,
        "metrics": metrics,
        "shares": _shares(workload, c),
        "coverage_retraced_jobs": traced["retraced"],
        "coverage_lowest": sorted(coverage.items(), key=lambda kv: kv[1])[:5],
        "tracer": tracer,
    }


def _percentile(sorted_values, q: float) -> float:
    """Linear-interpolated percentile of an already sorted list."""
    position = (len(sorted_values) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (position - low)


# ----------------------------------------------------------------------
# host record
# ----------------------------------------------------------------------
def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record() -> dict:
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up (timed, repeated), run the workload and return the full record."""
    from .hostref import MIN_SAMPLES, HostSpeed
    from .workloads import WORKLOADS

    workdir = HERE / ".work"
    workdir.mkdir(exist_ok=True)
    workload = WORKLOADS[workload_name](seed, str(workdir))
    speed = HostSpeed(workload.reference)
    setup_spans = []

    def set_up(repeats: int) -> None:
        for _ in range(repeats):
            speed.sample(MIN_SAMPLES)
            tick = time.perf_counter()
            workload.setup()
            tock = time.perf_counter()
            setup_spans.append((tick, tock))
            speed.pace(tock - tick)

    try:
        set_up(SETUP_REPEATS_BEFORE)
        body = run_traced(workload, seconds) if trace else run_untraced(workload, seconds, speed)
        set_up(SETUP_REPEATS_AFTER)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    setup_times = [tock - tick for tick, tock in setup_spans]
    if not trace:
        setup_s = statistics.median(speed.normalize(*span) for span in setup_spans)
        body["metrics"] = {"setup_s": setup_s, **body["metrics"]}
        body["raw"]["setup_s"] = statistics.median(setup_times)
    body.update(
        workload=workload_name,
        seed=seed,
        seconds=seconds,
        trace=trace,
        setup_times_s=setup_times,
        host_speed=speed.summary(),
    )
    return body


def _units(trace: bool) -> dict:
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    _prepare_imports()
    from perfbench.run import run as run_workload  # the package form, for relative imports

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    units = _units(bool(args.trace))
    metrics = {
        name: {"value": float(record["metrics"][name]), "unit": unit}
        for name, unit in units.items()
    }
    record["host"] = host_record()

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = record.pop("tracer", None)
    if tracer is not None:
        tracer.write(results / f"{stem}-spans.jsonl")
        record["spans"] = f"perfbench/results/{stem}-spans.jsonl"
    record["metrics"] = metrics
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    for name, entry in metrics.items():
        print(f"{args.workload:>13} {name:<36} {entry['value']:>14.6g} {entry['unit']}")
    for error in record["errors"]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not record["errors"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
