"""The four workloads: seeded job streams, their executors and checks.

Every workload is a closed loop with one client in one process: a job is
submitted only after the previous one has finished.  Each workload makes
its inputs from the seed alone.  The first ``prefix`` jobs of its stream
are the same on every run with that seed whatever the host's speed; the
quality metrics and the correctness checks are taken over them, so they
are exact for a given seed.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
from collections import Counter
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.experiments.harness import make_problem
from repro.hardware.devices import get_device
from repro.hardware.target import clear_target_registry
from repro.qaoa.ising import IsingProblem
from repro.service import BatchEngine, CompileJob, JobResult, ResultCache, execute_job
from repro.service.evaluate import EvalJob, execute_eval_job
from repro.service.job import resolve_job_environment
from repro.service.optimize import OptimizeJob, execute_optimize_job
from repro.sim.fastpath import clear_diagonal_registry
from repro.sim.noise import NoiseModel

from . import checks, tracing

MELBOURNE, TOKYO = "ibmq_16_melbourne", "ibmq_20_tokyo"
DEVICES = (MELBOURNE, TOKYO)
#: Compile seed of every job.  It also seeds tokyo's random calibration,
#: so the devices (and their success rates) are the same for every
#: workload seed and only the problem instances vary with it.
COMPILE_SEED = 0


@dataclasses.dataclass
class Item:
    """One submission: the job plus what its references need."""

    job: object
    job_id: str
    problem: object = None
    angles: tuple = ()
    qubo: Optional[np.ndarray] = None
    group: int = 0


def _engine(execute_fn=execute_job, cache=None) -> BatchEngine:
    return BatchEngine(workers=0, retries=0, cache=cache, execute_fn=execute_fn)


def _submit(engine: BatchEngine, job) -> JobResult:
    return engine.run([job]).results[0]


class Workload:
    """Interface the runner drives.

    ``reference`` names the :mod:`perfbench.hostref` units whose work
    resembles the workload's.  ``setup`` builds a fresh state (timed,
    repeated); ``begin_phase``
    resets what one timed phase must not inherit from another;
    ``execute`` is one untraced submission and ``traced`` the same
    submission through :mod:`perfbench.tracing`; ``observe`` sees every
    result outside the latency window.
    """

    name = ""
    prefix = 0
    trace_pairs = 0
    reference: tuple = ()

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.shares: Counter = Counter()
        self._dir: Optional[str] = None

    def _new_dir(self, prefix: str) -> str:
        """A fresh cache directory in the work area, replacing the last."""
        self.close()
        self._dir = tempfile.mkdtemp(prefix=prefix, dir=self.workdir)
        return self._dir

    def setup(self) -> None:
        clear_target_registry()
        clear_diagonal_registry()

    def begin_phase(self) -> None:
        clear_diagonal_registry()

    def stream(self) -> Iterator[Item]:
        raise NotImplementedError

    def execute(self, item: Item) -> JobResult:
        raise NotImplementedError

    def traced(self, item: Item, tracer: tracing.Tracer) -> tuple:
        """``(key, metrics, payload)`` of one traced submission."""
        raise NotImplementedError

    def observe(self, index: int, item: Item, result: JobResult) -> None:
        pass

    def outputs(self, result: JobResult) -> tuple:
        """What a traced run must reproduce exactly."""
        raise NotImplementedError

    def quality(self, results: List[JobResult]) -> Dict[str, float]:
        return {}

    def check(self, items: List[Item], results: List[JobResult]) -> List[str]:
        raise NotImplementedError

    def close(self) -> None:
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None


def _mean(values) -> float:
    values = [float(v) for v in values]
    return sum(values) / len(values)


def _compile_quality(results: List[JobResult]) -> Dict[str, float]:
    metrics = [r.metrics for r in results]
    return {
        "depth_mean": _mean(m["depth"] for m in metrics),
        "cnot_mean": _mean(m["cnot_count"] for m in metrics),
        "swap_mean": _mean(m["swap_count"] for m in metrics),
        "success_prob_mean": _mean(m["success_probability"] for m in metrics),
    }


# ----------------------------------------------------------------------
# compile-grid
# ----------------------------------------------------------------------
GRID_SHAPES = (("er", 10, 0.3), ("regular", 10, 3), ("er", 13, 0.3), ("regular", 16, 3))
GRID_METHODS = ("ip", "ic", "vic", "swap_network", "qaim")
GRID_PACKING = (None, 4)
WARM_BLOCK = len(GRID_METHODS) * len(GRID_PACKING)


def compile_stream(seed: int, salt: int) -> Iterator[Item]:
    """Cold compile jobs, one instance block at a time.

    Blocks alternate between the two devices and cycle through the
    instance shapes (10-16 nodes, capped below the device size); each block is one fresh MaxCut instance crossed with
    every method and packing limit, plus ``parity`` when the instance has
    no more edges than the device has qubits (one physical qubit per edge).
    Every job carries the same compile seed, so ``calibration="auto"``
    gives one calibration, hence one Target, per device, on every run.
    """
    rng = np.random.default_rng([seed, salt])
    capacity = {name: get_device(name).num_qubits for name in DEVICES}
    block = 0
    while True:
        device = DEVICES[block % 2]
        family, n, param = GRID_SHAPES[(block // 2) % len(GRID_SHAPES)]
        n = min(n, capacity[device] - 1)  # 16 nodes on tokyo, 14 on melbourne
        problem = make_problem(family, n, param, rng)
        gamma, beta = float(rng.uniform(0.2, 1.2)), float(rng.uniform(0.1, 0.6))
        program = problem.to_program([gamma], [beta])
        cells = [(m, pl) for m in GRID_METHODS for pl in GRID_PACKING]
        if len(problem.edges) <= capacity[device]:
            cells.append(("parity", None))
        for method, packing in cells:
            job_id = f"b{block}-{device[-5:]}-{method}-{packing}"
            job = CompileJob(
                program=program,
                device=device,
                method=method,
                packing_limit=packing,
                seed=COMPILE_SEED,
                calibration="auto",
                job_id=job_id,
            )
            yield Item(job=job, job_id=job_id, problem=problem, angles=(gamma, beta),
                       group=block)
        block += 1


class CompileGrid(Workload):
    """Cold ``CompileJob``s through a serial ``BatchEngine`` over a fresh
    on-disk ``ResultCache``: every job misses and writes the cache."""

    name = "compile-grid"
    prefix = 480
    trace_pairs = 200
    reference = ("interp", "gather")

    def setup(self) -> None:
        super().setup()
        # Warm-up before timing: three instance blocks per device analyse
        # both Targets and fill their memoized path oracles.
        for item in _take(compile_stream(self.seed, salt=99), 3 * WARM_BLOCK, per_device=True):
            execute_job(item.job)

    def begin_phase(self) -> None:
        super().begin_phase()
        self.cache = ResultCache(directory=self._new_dir("compile-"))
        self.engine = _engine(cache=self.cache)

    def stream(self) -> Iterator[Item]:
        return compile_stream(self.seed, salt=1)

    def execute(self, item: Item) -> JobResult:
        return _submit(self.engine, item.job)

    def traced(self, item: Item, tracer: tracing.Tracer) -> tuple:
        metrics, payload, compiled = tracing.traced_compile(item.job, tracer, self.cache)
        with tracer.span("service.job.release"):
            del compiled  # as execute_job drops it on return
        return "", metrics, payload

    def observe(self, index: int, item: Item, result: JobResult) -> None:
        job = item.job
        self.shares[f"device:{job.device}"] += 1
        self.shares[f"method:{job.method}"] += 1
        self.shares[f"packing:{job.packing_limit}"] += 1

    def outputs(self, result: JobResult) -> tuple:
        m = result.metrics
        return (m["depth"], m["gate_count"], m["cnot_count"], m["swap_count"],
                m["success_probability"])

    def quality(self, results):
        return _compile_quality(results)

    def check(self, items, results) -> List[str]:
        """Direct-encoding jobs: gate-by-gate ``r0`` equals the closed-form
        p=1 expectation over the brute-force optimum.  Parity jobs prepare
        a different state, so their fast path is checked against their own
        gate-by-gate evaluation instead."""
        from repro.sim.fastpath import evaluate_fast

        errors: List[str] = []
        for item, result in _check_subset(self.seed, items, results):
            compiled = result.compiled()
            label = f"{self.name} {item.job_id}"
            gate_r0 = checks.reference_gate_r0(compiled)
            if item.job.method == "parity":
                fast = evaluate_fast(compiled, mode="exact")
                errors += checks.check_equal(f"{label} fast path taken", fast.fastpath, True)
                errors += checks.check_close(f"{label} parity r0", fast.r0, gate_r0)
            else:
                want = checks.reference_analytic_r0(item.problem, *item.angles)
                errors += checks.check_close(f"{label} r0", gate_r0, want)
        return errors


def _take(stream: Iterator[Item], count: int, per_device: bool = False) -> List[Item]:
    """The first ``count`` items (per device when ``per_device``)."""
    taken: List[Item] = []
    seen: Counter = Counter()
    for item in stream:
        key = item.job.device if per_device else None
        if seen[key] < count:
            taken.append(item)
            seen[key] += 1
        if len(taken) == (count * len(DEVICES) if per_device else count):
            return taken
    return taken


def _check_subset(seed: int, items: List[Item], results: List[JobResult]):
    """A seeded subset of the prefix: two direct-encoding jobs and the
    first parity job on each device."""
    rng = np.random.default_rng([seed, 7])
    chosen = []
    for device in DEVICES:
        pool = [i for i, it in enumerate(items)
                if it.job.device == device and it.job.method != "parity"]
        chosen += [int(i) for i in rng.choice(pool, size=min(2, len(pool)), replace=False)]
        parity = [i for i, it in enumerate(items)
                  if it.job.device == device and it.job.method == "parity"]
        chosen += parity[:1]
    return [(items[i], results[i]) for i in sorted(chosen)]


# ----------------------------------------------------------------------
# eval-noisy
# ----------------------------------------------------------------------
EVAL_SIZES = (6, 8, 10, 12)
EVAL_METHODS = ("ic", "vic", "swap_network")
EVAL_DEVICES = (TOKYO, TOKYO, MELBOURNE)
#: One angle pair for every evaluation: ARG moves with the angles, and
#: the run's mean ARG should move with the program, not with the draw.
EVAL_ANGLES = (0.7, 0.35)


def eval_stream(seed: int) -> Iterator[Item]:
    """Sampled noisy evaluations at the default 4096 shots x 32
    trajectories.  Two of every three jobs target tokyo (2^20 register),
    one melbourne (2^15); the cycle of 36 jobs covers every size x method
    x device cell, sizes varying fastest, with a fresh 3-regular instance
    each at fixed angles.  Regular graphs fix the edge count per size, so
    circuit sizes, ARG and cost vary little from seed to seed."""
    rng = np.random.default_rng([seed, 2])
    index = 0
    while True:
        device = EVAL_DEVICES[index % 3]
        n = EVAL_SIZES[index % 4]
        method = EVAL_METHODS[(index // 12) % 3]
        problem = make_problem("regular", n, 3, rng)
        gamma, beta = EVAL_ANGLES
        job_id = f"e{index}-{device[-5:]}-{method}-n{n}"
        cjob = CompileJob(
            program=problem.to_program([gamma], [beta]),
            device=device,
            method=method,
            seed=COMPILE_SEED,
            calibration="auto",
        )
        job = EvalJob(cjob, eval_seed=int(rng.integers(2**31)), job_id=job_id)
        yield Item(job=job, job_id=job_id, problem=problem, angles=(gamma, beta))
        index += 1


class EvalNoisy(Workload):
    """``execute_eval_job`` in sampled mode with calibrated noise."""

    name = "eval-noisy"
    prefix = 36
    trace_pairs = 6
    reference = ("array",)

    def setup(self) -> None:
        super().setup()
        # Warm-up: one small evaluation per device.
        for item in _take(eval_stream(self.seed + 1), 1, per_device=True):
            execute_eval_job(item.job)
        self.engine = _engine(execute_fn=execute_eval_job)

    def stream(self) -> Iterator[Item]:
        return eval_stream(self.seed)

    def execute(self, item: Item) -> JobResult:
        return _submit(self.engine, item.job)

    def traced(self, item: Item, tracer: tracing.Tracer) -> tuple:
        return "", tracing.traced_eval(item.job, tracer), None

    def observe(self, index: int, item: Item, result: JobResult) -> None:
        self.shares[f"device:{item.job.device}"] += 1
        self.shares[f"method:{item.job.method}"] += 1
        if result.ok:
            self.shares[f"fastpath:{result.metrics['fastpath']}"] += 1

    def outputs(self, result: JobResult) -> tuple:
        m = result.metrics
        return (m["r0"], m["rh"], m["arg"], m["fastpath"], m["swap_count"],
                m["success_probability"])

    def quality(self, results):
        metrics = [r.metrics for r in results]
        # Depth and CNOTs of the circuits these jobs evaluated: the same
        # compile jobs through the compile service (outside the timed phase).
        compiled = [execute_job(r.job.compile_job).metrics for r in results]
        return {
            "depth_mean": _mean(m["depth"] for m in compiled),
            "cnot_mean": _mean(m["cnot_count"] for m in compiled),
            "swap_mean": _mean(m["swap_count"] for m in metrics),
            "success_prob_mean": _mean(m["success_probability"] for m in metrics),
            "arg_mean": _mean(m["arg"] for m in metrics),
            "ratio_mean": _mean(m["r0"] for m in metrics),
        }

    def check(self, items, results) -> List[str]:
        """Sampled ``r0``/``rh`` bit-identical to the gate-by-gate
        simulators under the same seed, on one seeded job per device among
        its smallest non-swap-network ones (the gate-level tokyo path
        simulates 32 full 2^20 trajectories, several seconds each job)."""
        rng = np.random.default_rng([self.seed, 8])
        errors: List[str] = []
        for device in DEVICES:
            pool = [i for i, it in enumerate(items)
                    if it.job.device == device and it.job.method != "swap_network"]
            smallest = min(items[i].problem.num_nodes for i in pool)
            index = int(rng.choice([i for i in pool if items[i].problem.num_nodes == smallest]))
            item, result = items[index], results[index]
            cjob = item.job.compile_job
            compiled = execute_job(cjob).compiled()
            _, calibration, _ = resolve_job_environment(cjob)
            want = checks.reference_sampled(
                compiled,
                NoiseModel.from_calibration(calibration, t2_ns=item.job.t2_ns),
                shots=item.job.shots,
                trajectories=item.job.trajectories,
                eval_seed=item.job.eval_seed,
            )
            got = (result.metrics["r0"], result.metrics["rh"])
            errors += checks.check_identical(f"{self.name} {item.job_id} (r0, rh)", got, want)
        return errors


# ----------------------------------------------------------------------
# optimize-var
# ----------------------------------------------------------------------
# Sizes interleave so that a run ending mid-cycle has the usual mix.
OPT_SHAPES = (("maxcut", 8), ("qubo", 14), ("maxcut", 12), ("qubo", 10),
              ("maxcut", 14), ("qubo", 8), ("maxcut", 10), ("qubo", 12))
OPT_CONFIGS = ((1, "cobyla"), (1, "nelder-mead"), (2, "cobyla"), (2, "nelder-mead"))
OPT_MAXITER = 60


def mis_qubo(problem) -> np.ndarray:
    """Maximum-independent-set QUBO of a graph: ``x^T Q x`` counts chosen
    nodes and subtracts 2 per chosen edge, so its maximum is the MIS size."""
    q = np.eye(problem.num_nodes)
    for a, b, _ in problem.edges:
        q[a, b] = q[b, a] = -1.0
    return q


def optimize_stream(seed: int) -> Iterator[Item]:
    """Each problem instance (MaxCut or maximum-independent-set QUBO on a
    3-regular graph, n=8-14) is optimised under four settings, p in {1, 2}
    x {COBYLA, Nelder-Mead}, as a caller sweeping optimizer knobs on one
    problem would.  The iteration bound is low enough that p=2 searches
    stop at it, so a job's cost is set by its cell, not by how its
    instance happens to converge."""
    rng = np.random.default_rng([seed, 3])
    block = 0
    while True:
        kind, n = OPT_SHAPES[block % len(OPT_SHAPES)]
        problem = make_problem("regular", n, 3, rng)
        qubo = None
        if kind == "qubo":
            qubo = mis_qubo(problem)
            problem = IsingProblem.from_qubo(qubo)
        for p, optimizer in OPT_CONFIGS:
            job_id = f"o{block}-{kind}{n}-p{p}-{optimizer}"
            job = OptimizeJob(
                problem=problem,
                p=p,
                optimizer=optimizer,
                maxiter=OPT_MAXITER,
                opt_seed=int(rng.integers(2**31)),
                job_id=job_id,
            )
            yield Item(job=job, job_id=job_id, problem=problem, qubo=qubo)
        block += 1


class OptimizeVar(Workload):
    """``execute_optimize_job``: batched restart population plus a bounded
    local search, with no compiler, device or noise."""

    name = "optimize-var"
    prefix = 64
    trace_pairs = 8
    reference = ("interp", "npcall", "array")

    def setup(self) -> None:
        super().setup()
        # Warm-up: the two 8-node instances of a cycle, all four settings.
        for item in _take(optimize_stream(self.seed + 1), 6 * len(OPT_CONFIGS)):
            if item.problem.num_qubits == 8:
                execute_optimize_job(item.job)
        self.engine = _engine(execute_fn=execute_optimize_job)

    def stream(self) -> Iterator[Item]:
        return optimize_stream(self.seed)

    def execute(self, item: Item) -> JobResult:
        return _submit(self.engine, item.job)

    def traced(self, item: Item, tracer: tracing.Tracer) -> tuple:
        return "", tracing.traced_optimize(item.job, tracer), None

    def observe(self, index: int, item: Item, result: JobResult) -> None:
        self.shares["kind:qubo" if item.qubo is not None else "kind:maxcut"] += 1
        self.shares[f"p:{item.job.p}"] += 1
        self.shares[f"optimizer:{item.job.optimizer}"] += 1

    def outputs(self, result: JobResult) -> tuple:
        m = result.metrics
        return (tuple(m["gammas"]), tuple(m["betas"]), m["expectation"],
                m["optimum"], m["evaluations"])

    def quality(self, results):
        return {"ratio_mean": _mean(r.metrics["approximation_ratio"] for r in results)}

    def check(self, items, results) -> List[str]:
        """Optimum equals the brute-force maximum; the expectation at the
        returned angles matches the closed form or a gate-by-gate
        statevector run of the logical circuit."""
        errors: List[str] = []
        values_by_problem: Dict[int, np.ndarray] = {}
        for item, result in zip(items, results):
            key = id(item.problem)
            if key not in values_by_problem:
                if item.qubo is not None:
                    values_by_problem[key] = checks.brute_force_qubo(item.qubo)
                else:
                    values_by_problem[key] = checks.brute_force_cut(
                        item.problem.num_nodes, item.problem.edges
                    )
            values = values_by_problem[key]
            m = result.metrics
            want = checks.reference_expectation(item.problem, values, m["gammas"], m["betas"])
            errors += checks.check_optimize(
                f"{self.name} {item.job_id}", m, float(values.max()), want
            )
        return errors


# ----------------------------------------------------------------------
# cache-replay
# ----------------------------------------------------------------------
#: Working set: this many instance blocks of the compile stream (six full
#: device x shape cycles), a few jobs from each.
REPLAY_BLOCKS = 48
REPLAY_PER_BLOCK = 2


def replay_working_set(seed: int) -> List[Item]:
    offset = int(np.random.default_rng([seed, 6]).integers(len(GRID_METHODS)))
    chosen: List[Item] = []
    block: List[Item] = []
    for item in compile_stream(seed, salt=4):
        if block and item.group != block[0].group:
            # Rotate through the block's method x packing cells so every
            # cell is equally represented; the seed picks the offset.
            start = len(chosen) + offset
            chosen += [block[(start + k) % len(block)] for k in range(REPLAY_PER_BLOCK)]
            block = []
            if len(chosen) == REPLAY_BLOCKS * REPLAY_PER_BLOCK:
                return chosen
        block.append(item)
    return chosen


class CacheReplay(Workload):
    """Replays a seeded stream of already-compiled jobs through
    ``BatchEngine.run([job])`` + ``JobResult.compiled()`` over an on-disk
    cache whose memory tier holds a quarter of the working set, so about
    a quarter of the lookups hit memory and the rest disk."""

    name = "cache-replay"
    prefix = 1000
    trace_pairs = 300
    reference = ("interp", "gather")

    def setup(self) -> None:
        super().setup()
        items = replay_working_set(self.seed)
        report = _engine(cache=ResultCache(directory=self._new_dir("replay-"))).run(
            [it.job for it in items]
        )
        self.keys = [(it, r.key) for it, r in zip(items, report.results)]
        self.payloads = {r.key: r.payload for r in report.results}
        self.first_compiled: Dict[str, object] = {}
        self.mismatches: List[str] = []

    def begin_phase(self) -> None:
        super().begin_phase()
        self.cache = ResultCache(max_entries=len(self.keys) // 4, directory=self._dir)
        self.engine = _engine(cache=self.cache)

    def stream(self) -> Iterator[Item]:
        """Keys drawn uniformly.  A skewed popularity would make the run's
        cost follow whichever few circuits the seed makes hot."""
        rng = np.random.default_rng([self.seed, 5])
        while True:
            for k in rng.integers(len(self.keys), size=256):
                yield self.keys[int(k)][0]

    def execute(self, item: Item) -> JobResult:
        result = _submit(self.engine, item.job)
        self.last_compiled = result.compiled() if result.ok else None
        return result

    def traced(self, item: Item, tracer: tracing.Tracer) -> tuple:
        key, metrics, payload, self.last_compiled = tracing.traced_replay(
            item.job, tracer, self.cache
        )
        return key, metrics, payload

    def observe(self, index: int, item: Item, result: JobResult) -> None:
        """Every replayed payload must be the bytes the cold compile wrote;
        the first circuit rebuilt per key is kept for the gate-list check."""
        if result.payload != self.payloads.get(result.key):
            self.mismatches.append(f"{self.name} replay {index} ({item.job_id}): payload differs")
        self.first_compiled.setdefault(result.key, self.last_compiled)
        self.last_compiled = None  # the caller is done with the circuit
        self.shares[f"device:{item.job.device}"] += 1
        self.shares[f"method:{item.job.method}"] += 1

    def outputs(self, result: JobResult) -> tuple:
        return (result.key, result.payload)

    def quality(self, results):
        """Output size of the circuits served, each distinct key once (a
        popularity-weighted mean would follow a few hot keys)."""
        return _compile_quality(list({r.key: r for r in results}.values()))

    def check(self, items, results) -> List[str]:
        """Payload bytes (checked on every replay) and, for every key
        replayed, the rebuilt gate list against a fresh compile."""
        errors = list(self.mismatches)
        tracer = tracing.Tracer()
        for item, key in self.keys:
            rebuilt = self.first_compiled.get(key)
            if rebuilt is None:
                continue
            _, _, original = tracing.traced_compile(item.job, tracer)
            errors += checks.check_equal(
                f"{self.name} {item.job_id} gate list",
                checks.gate_list(rebuilt),
                checks.gate_list(original),
            )
        return errors


WORKLOADS = {w.name: w for w in (CompileGrid, EvalNoisy, OptimizeVar, CacheReplay)}
