"""Unit tests for the fleet layer: SLOs, specs, policies, admission.

Admission-control and policy edge cases use an injected fake executor
(``execute_fn``) so scheduler behaviour — rejections, eligibility loss,
virtual-clock accounting — is tested without paying for real compiles.
End-to-end placement against real devices is covered separately in
:mod:`tests.integration.test_fleet_flow`.
"""

import json

import pytest

from repro.fleet import (
    SLO,
    SLO_TIERS,
    BestFidelity,
    EwmaLatencyModel,
    Candidate,
    DeviceSlot,
    FleetJob,
    FleetSpec,
    GreedyFirstFit,
    LeastLoaded,
    Rejection,
    Scheduler,
    bind_job,
    default_fleet,
    fleet_from_dict,
    fleet_jobs_from_jsonl,
    get_policy,
    load_fleet_json,
    run_fleet,
    slo_from_dict,
    synthetic_stream,
)
import repro
from repro.hardware import get_device
from repro.service import CompileJob, OptimizeJob
from repro.service.job import JobResult, encode_envelope
from repro.qaoa import MaxCutProblem


def _program(n=5):
    edges = [(i, (i + 1) % n) for i in range(n)]
    return MaxCutProblem(n, edges).to_program([0.7], [0.35])


def _fleet_job(i=0, slo=SLO()):
    job = CompileJob(
        program=_program(),
        device="ibmq_20_tokyo",
        method="ic",
        seed=i,
        job_id=f"t-{i:03d}",
    )
    return FleetJob(job=job, slo=slo)


class _FakeExecute:
    """Scripted executor; the engine measures wall latency itself, so
    exec times in these tests are real-but-tiny and always positive."""

    def __init__(self, fail_ids=(), metrics=None):
        self.fail_ids = set(fail_ids)
        self.metrics = metrics or {}
        self.calls = []

    def __call__(self, job):
        self.calls.append(job.job_id)
        key = job.content_hash()
        if job.job_id in self.fail_ids:
            return JobResult(
                job=job, key=key, ok=False, attempts=1,
                error="scripted failure", error_kind="exception",
            )
        metrics = dict(self.metrics)
        return JobResult(
            job=job, key=key, ok=True, attempts=1, metrics=metrics,
            payload=encode_envelope("null", dict(metrics)),
        )


# ----------------------------------------------------------------------
# SLO
# ----------------------------------------------------------------------
class TestSLO:
    def test_trivial_and_tiers(self):
        assert SLO().is_trivial
        assert not SLO(max_latency_ms=10.0).is_trivial
        for name in ("gold", "silver", "bronze", "best-effort"):
            assert name in SLO_TIERS
        assert SLO_TIERS["best-effort"].is_trivial
        assert SLO_TIERS["gold"].max_arg is not None

    def test_validation(self):
        with pytest.raises(ValueError, match="max_latency_ms"):
            SLO(max_latency_ms=0.0)
        with pytest.raises(ValueError, match="min_success_prob"):
            SLO(min_success_prob=1.5)
        with pytest.raises(ValueError, match="max_arg"):
            SLO(max_arg=-1.0)

    def test_misses_each_dimension(self):
        slo = SLO(max_latency_ms=100.0, min_success_prob=0.5, max_arg=5.0)
        assert slo.misses(50.0, 0.9, 2.0) == []
        misses = slo.misses(150.0, 0.1, 9.0)
        assert len(misses) == 3
        assert any("latency" in m for m in misses)
        assert any("success" in m for m in misses)
        assert any("ARG" in m for m in misses)

    def test_unmeasured_constrained_dimension_is_a_miss(self):
        slo = SLO(min_success_prob=0.5, max_arg=5.0)
        misses = slo.misses(1.0, None, None)
        assert "success probability unmeasured" in misses
        assert "ARG unmeasured" in misses
        # Unconstrained dimensions never miss, measured or not.
        assert SLO(max_latency_ms=10.0).misses(5.0, None, None) == []

    def test_from_dict(self):
        assert slo_from_dict(None).is_trivial
        assert slo_from_dict("gold") == SLO_TIERS["gold"]
        slo = slo_from_dict({"max_latency_ms": 100, "max_arg": 4})
        assert slo.max_latency_ms == 100.0
        assert slo.max_arg == 4.0
        assert slo.min_success_prob is None
        with pytest.raises(ValueError, match="unknown SLO tier"):
            slo_from_dict("platinum")
        with pytest.raises(ValueError, match="unknown SLO field"):
            slo_from_dict({"max_latency": 1})
        with pytest.raises(ValueError, match="unsupported"):
            slo_from_dict(42)


# ----------------------------------------------------------------------
# FleetSpec / DeviceSlot
# ----------------------------------------------------------------------
class TestSpec:
    def test_resolve_parametric_names(self):
        assert get_device("ring_12").num_qubits == 12
        assert get_device("linear_7").num_qubits == 7
        assert get_device("grid_3x4").num_qubits == 12
        assert get_device("ibmq_20_tokyo").num_qubits == 20
        with pytest.raises(KeyError):
            get_device("hexagon_9")

    @pytest.mark.parametrize(
        "name, qubits",
        [("ring_12", 12), ("linear_7", 7), ("grid_3x4", 12), ("ibmq_20_tokyo", 20)],
    )
    def test_compile_accepts_fleet_device_names(self, name, qubits):
        """repro.compile resolves the same names as fleet slots."""
        result = repro.compile(MaxCutProblem(5, [(0, 1), (1, 2), (2, 3)]), target=name)
        assert result.target.num_qubits == qubits
        assert DeviceSlot("s", name).build_target().num_qubits == qubits

    def test_compile_rejects_unknown_device_name(self):
        with pytest.raises(KeyError, match="hexagon_9"):
            repro.compile(MaxCutProblem(5, [(0, 1)]), target="hexagon_9")

    def test_slot_builds_degraded_target(self):
        clean = DeviceSlot("a", "ibmq_20_tokyo").build_target()
        faulty = DeviceSlot(
            "b", "ibmq_20_tokyo",
            faults={"dead_edges": 2, "drift_sigma": 0.5},
            fault_seed=7,
        ).build_target()
        assert clean.num_qubits == 20
        assert faulty.num_qubits <= clean.num_qubits
        assert len(faulty.coupling.edges) < len(clean.coupling.edges)
        assert faulty.warnings  # repair provenance survives

    def test_unique_labels_enforced(self):
        with pytest.raises(ValueError, match="duplicate"):
            FleetSpec([
                DeviceSlot("x", "ring_8"),
                DeviceSlot("x", "linear_4"),
            ])

    def test_targets_memoized(self):
        fleet = FleetSpec([DeviceSlot("a", "ring_8")])
        assert fleet.target("a") is fleet.target("a")

    def test_default_fleet_shape(self):
        fleet = default_fleet(seed=5)
        assert len(fleet) >= 5
        labels = [slot.label for slot in fleet]
        assert len(set(labels)) == len(labels)
        assert any(slot.faults for slot in fleet)
        assert any(slot.hardware for slot in fleet)
        for slot in fleet:
            assert fleet.target(slot.label).num_qubits >= 4

    def test_round_trip_json(self, tmp_path):
        fleet = FleetSpec([
            DeviceSlot("clean", "ring_8"),
            DeviceSlot(
                "hurt", "ring_8",
                faults={"drift_sigma": 0.3}, fault_seed=3,
            ),
        ])
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(fleet.to_dict()))
        loaded = load_fleet_json(path)
        assert [s.label for s in loaded] == ["clean", "hurt"]
        assert loaded.target("hurt").fingerprint == \
            fleet.target("hurt").fingerprint

    def test_from_dict_rejects_bad_knob(self):
        with pytest.raises(ValueError, match="fault knob"):
            fleet_from_dict({
                "slots": [
                    {"label": "a", "device": "ring_8",
                     "faults": {"explode": 1}},
                ]
            })


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
def _candidate(label, order, **kw):
    defaults = dict(
        hardware=False, backlog=0, wait_ms=0.0, exec_ms=10.0,
        predicted_latency_ms=10.0, predicted_success=None,
        predicted_arg=None,
    )
    defaults.update(kw)
    return Candidate(label=label, order=order, **defaults)


class TestPolicies:
    def test_greedy_picks_first_fit_order(self):
        got = GreedyFirstFit().place([
            _candidate("b", 3), _candidate("a", 1), _candidate("c", 2),
        ])
        assert got.label == "a"

    def test_best_fidelity_prefers_success_then_hardware(self):
        got = BestFidelity().place([
            _candidate("low", 0, predicted_success=0.1),
            _candidate("high", 1, predicted_success=0.9),
            _candidate("unknown", 2),
        ])
        assert got.label == "high"
        # Tied success: hardware beats simulator.
        got = BestFidelity().place([
            _candidate("sim", 0, predicted_success=0.5),
            _candidate("hw", 1, predicted_success=0.5, hardware=True),
        ])
        assert got.label == "hw"

    def test_least_loaded_minimizes_predicted_latency(self):
        got = LeastLoaded().place([
            _candidate("busy", 0, predicted_latency_ms=500.0),
            _candidate("idle", 1, predicted_latency_ms=20.0),
        ])
        assert got.label == "idle"

    def test_get_policy(self):
        assert get_policy("greedy").name == "greedy"
        with pytest.raises(ValueError, match="unknown policy"):
            get_policy("coin-flip")


# ----------------------------------------------------------------------
# Admission control edge cases
# ----------------------------------------------------------------------
class TestAdmission:
    def test_empty_fleet_rejects_everything(self):
        report = run_fleet([_fleet_job(0)], FleetSpec([]))
        assert report.placed == 0
        [rejection] = report.rejections
        assert rejection.kind == "empty_fleet"
        assert report.attainment_rate() == 1.0  # nothing promised

    def test_all_devices_saturated(self):
        fleet = FleetSpec([DeviceSlot("only", "ring_8")])
        scheduler = Scheduler(
            fleet, "greedy",
            device_backlog_limit=2, queue_depth=100,
            execute_fn=_FakeExecute(),
        )
        # interarrival 0: all jobs arrive at t=0, backlog never drains.
        report = scheduler.run([_fleet_job(i) for i in range(5)])
        assert report.placed == 2
        kinds = [r.kind for r in report.rejections]
        assert kinds == ["saturated"] * 3
        assert "backlog limit" in report.rejections[0].detail

    def test_queue_full_bounds_the_fleet(self):
        fleet = FleetSpec([
            DeviceSlot("a", "ring_8"), DeviceSlot("b", "ring_8"),
        ])
        scheduler = Scheduler(
            fleet, "least-loaded",
            queue_depth=3, device_backlog_limit=100,
            execute_fn=_FakeExecute(),
        )
        report = scheduler.run([_fleet_job(i) for i in range(6)])
        assert report.placed == 3
        assert {r.kind for r in report.rejections} == {"queue_full"}

    def test_slo_unsatisfiable_names_every_shortfall(self):
        fleet = FleetSpec([
            DeviceSlot("slow-a", "ring_8"), DeviceSlot("slow-b", "ring_8"),
        ])
        scheduler = Scheduler(
            fleet, "greedy", execute_fn=_FakeExecute(),
        )
        # EWMA cold prior for compile is 50ms >> 1ms bound.
        job = _fleet_job(0, slo=SLO(max_latency_ms=1.0))
        candidate, rejection = scheduler.admit(job)
        assert candidate is None
        assert rejection.kind == "slo_unsatisfiable"
        assert "slow-a" in rejection.detail
        assert "slow-b" in rejection.detail
        assert "predicted latency" in rejection.detail

    def test_no_calibration_cannot_promise_fidelity(self):
        fleet = FleetSpec([
            DeviceSlot("bare", "ring_8", calibration=None),
        ])
        scheduler = Scheduler(fleet, "greedy", execute_fn=_FakeExecute())
        job = _fleet_job(0, slo=SLO(min_success_prob=0.5))
        candidate, rejection = scheduler.admit(job)
        assert rejection is not None
        assert rejection.kind == "slo_unsatisfiable"
        assert "no calibration" in rejection.detail

    def test_eval_infeasible_on_oversized_devices(self):
        fleet = FleetSpec([DeviceSlot("big", "grid_6x6")])
        scheduler = Scheduler(fleet, "greedy", execute_fn=_FakeExecute())
        stream = [j for j in synthetic_stream(12, seed=0)
                  if j.kind == "eval"][:1]
        candidate, rejection = scheduler.admit(stream[0])
        assert rejection is not None
        assert rejection.kind == "no_eligible_device"
        assert "statevector-simulable" in rejection.detail
        # Compile jobs still place on the same slot.
        candidate, rejection = scheduler.admit(_fleet_job(0))
        assert rejection is None
        assert candidate.label == "big"

    def test_failing_device_loses_eligibility_mid_stream(self):
        fleet = FleetSpec([DeviceSlot("flaky", "ring_8")])
        fail_ids = {f"t-{i:03d}" for i in range(3)}
        scheduler = Scheduler(
            fleet, "greedy",
            max_consecutive_failures=3,
            execute_fn=_FakeExecute(fail_ids=fail_ids),
        )
        report = scheduler.run([_fleet_job(i) for i in range(5)])
        # Three failures consume eligibility; the last two jobs bounce.
        assert report.placed == 3
        assert all(not r.ok for r in report.records)
        assert {r.kind for r in report.rejections} == {"no_eligible_device"}
        assert "consecutive failures" in report.rejections[0].detail
        [snapshot] = report.devices
        assert not snapshot.eligible
        assert "exception" in snapshot.ineligible_reason

    def test_recovery_resets_the_failure_counter(self):
        fleet = FleetSpec([DeviceSlot("flaky", "ring_8")])
        scheduler = Scheduler(
            fleet, "greedy",
            max_consecutive_failures=3,
            execute_fn=_FakeExecute(fail_ids={"t-000", "t-002"}),
        )
        report = scheduler.run([_fleet_job(i) for i in range(4)])
        assert report.placed == 4
        assert not report.rejections
        assert report.devices[0].eligible

    def test_mark_ineligible_manually(self):
        fleet = FleetSpec([
            DeviceSlot("a", "ring_8"), DeviceSlot("b", "linear_4"),
        ])
        scheduler = Scheduler(fleet, "greedy", execute_fn=_FakeExecute())
        scheduler.mark_ineligible("a", "maintenance window")
        candidate, rejection = scheduler.admit(_fleet_job(0))
        assert candidate.label == "b"
        scheduler.mark_ineligible("b", "also down")
        candidate, rejection = scheduler.admit(_fleet_job(1))
        assert rejection.kind == "no_eligible_device"
        assert "maintenance window" in rejection.detail

    def test_every_rejection_kind_is_structured(self):
        assert Rejection("j", "queue_full", "why").to_dict()["kind"] == \
            "queue_full"
        with pytest.raises(ValueError):
            Scheduler(FleetSpec([]), "greedy", queue_depth=0)
        with pytest.raises(ValueError, match="unknown policy"):
            Scheduler(FleetSpec([]), "random")


# ----------------------------------------------------------------------
# Virtual-clock accounting and report math
# ----------------------------------------------------------------------
class TestAccounting:
    def test_waits_build_on_a_serial_device(self):
        fleet = FleetSpec([DeviceSlot("one", "ring_8")])
        scheduler = Scheduler(
            fleet, "greedy", execute_fn=_FakeExecute(),
        )
        report = scheduler.run([_fleet_job(i) for i in range(3)])
        waits = [r.wait_ms for r in report.records]
        assert waits[0] == 0.0
        assert waits[1] > 0.0 and waits[2] > waits[1]
        assert report.makespan_ms == pytest.approx(
            sum(r.exec_ms for r in report.records)
        )
        [snapshot] = report.devices
        assert snapshot.utilization == pytest.approx(1.0)

    def test_attainment_counts_only_constrained_jobs(self):
        fleet = FleetSpec([DeviceSlot("one", "ring_8")])
        scheduler = Scheduler(
            fleet, "greedy", execute_fn=_FakeExecute(),
        )
        jobs = [
            _fleet_job(0),  # best-effort: never constrained
            _fleet_job(1, slo=SLO(max_latency_ms=10_000.0)),  # attained
            # ARG-constrained compile job: the quality EWMA is optimistic
            # while unobserved so admission lets it through, but a
            # compile-only result can never measure ARG — a miss.
            _fleet_job(2, slo=SLO(max_arg=1.0)),
        ]
        report = scheduler.run(jobs)
        assert len(report.constrained) == 2
        assert len(report.attained) == 1
        assert report.attainment_rate() == 0.5
        summary = report.summary()
        assert summary["misses"] == {"arg": 1}
        assert report.render()  # smoke: tables format

    def test_placement_stamped_through_result_and_envelope(self):
        from repro.service import ResultCache
        from repro.service.job import decode_envelope

        fleet = FleetSpec([DeviceSlot("home", "ring_8")])
        cache = ResultCache()
        scheduler = Scheduler(
            fleet, "greedy", cache=cache, execute_fn=_FakeExecute(),
        )
        job = _fleet_job(0)
        scheduler.run([job])
        engine = scheduler._states["home"].engine
        bound = bind_job(job, fleet.target("home"))
        result = engine.run([bound]).results[0]
        assert result.cached
        metrics, _ = decode_envelope(result.payload)
        assert metrics["placement"]["device_label"] == "home"
        assert metrics["placement"]["policy"] == "greedy"
        assert result.to_record()["placement"]["device_label"] == "home"
        assert result.device_label == "home"


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------
class TestStreams:
    def test_synthetic_stream_deterministic_and_mixed(self):
        a = synthetic_stream(30, seed=9)
        b = synthetic_stream(30, seed=9)
        assert [j.job_id for j in a] == [j.job_id for j in b]
        kinds = {j.kind for j in a}
        assert kinds == {"compile", "eval"}
        # Gold demotion: the ARG bar requires an eval to be measurable.
        for job in a:
            if job.slo.max_arg is not None:
                assert job.kind == "eval"

    def test_synthetic_stream_custom_tier_weights(self):
        stream = synthetic_stream(
            10, seed=1, tier_weights=[("bronze", 1.0)],
        )
        assert all(j.slo == SLO_TIERS["bronze"] for j in stream)
        with pytest.raises(ValueError, match="unknown SLO tier"):
            synthetic_stream(3, tier_weights=[("iron", 1.0)])

    def test_fleet_jobs_from_jsonl(self):
        lines = [
            "# comment",
            "",
            json.dumps({
                "problem": {"family": "er", "nodes": 6, "param": 0.5,
                            "seed": 1},
                "method": "ic",
                "slo": "bronze",
                "id": "one",
            }),
            json.dumps({
                "problem": {"family": "er", "nodes": 6, "param": 0.5,
                            "seed": 2},
                "method": "ip",
                "slo": {"max_latency_ms": 123.0},
                "eval": {"shots": 64, "trajectories": 2},
                "id": "two",
            }),
        ]
        jobs = fleet_jobs_from_jsonl(lines)
        assert [j.job_id for j in jobs] == ["one", "two"]
        assert jobs[0].kind == "compile"
        assert jobs[0].slo == SLO_TIERS["bronze"]
        assert jobs[1].kind == "eval"
        assert jobs[1].job.shots == 64
        assert jobs[1].slo.max_latency_ms == 123.0

    def test_fleet_jobs_from_jsonl_bad_line(self):
        with pytest.raises(ValueError, match="line 1"):
            fleet_jobs_from_jsonl([json.dumps({"slo": "no-such-tier"})])

    def test_fleet_jobs_from_jsonl_rejects_a_bare_string(self):
        with pytest.raises(TypeError, match="sequence of lines"):
            fleet_jobs_from_jsonl(json.dumps({"method": "ic"}))


# ----------------------------------------------------------------------
# optimize jobs through the fleet (the variational service workload)
# ----------------------------------------------------------------------
class TestOptimizeFleet:
    MIS_RING5 = [
        [1, -1, 0, 0, -1],
        [-1, 1, -1, 0, 0],
        [0, -1, 1, -1, 0],
        [0, 0, -1, 1, -1],
        [-1, 0, 0, -1, 1],
    ]

    def _optimize_line(self, **knobs):
        return json.dumps({
            "id": "mis",
            "qubo": {"matrix": self.MIS_RING5},
            "slo": "bronze",
            "optimize": {"maxiter": 40, "restarts": 2, "seed": 3, **knobs},
        })

    def test_jsonl_optimize_line_builds_optimize_kind(self):
        [job] = fleet_jobs_from_jsonl([self._optimize_line()])
        assert job.kind == "optimize"
        assert isinstance(job.job, OptimizeJob)
        assert job.slo == SLO_TIERS["bronze"]
        assert job.method == "cobyla"  # latency model keys on optimizer
        assert job.program is None
        assert job.levels == 1
        assert job.num_edges == len(job.job.problem.edges)

    def test_bind_is_identity_for_device_free_jobs(self):
        [fleet_job] = fleet_jobs_from_jsonl([self._optimize_line()])
        target = FleetSpec([DeviceSlot("d", "ring_8")]).target("d")
        bound = bind_job(fleet_job, target)
        assert bound is fleet_job.job
        assert bound.content_hash() == fleet_job.job.content_hash()

    def test_admission_applies_memory_filter(self):
        fleet = FleetSpec([DeviceSlot("big", "grid_6x6")])
        scheduler = Scheduler(fleet, "greedy", execute_fn=_FakeExecute())
        [job] = fleet_jobs_from_jsonl([self._optimize_line()])
        candidate, rejection = scheduler.admit(job)
        assert rejection is not None
        assert rejection.kind == "no_eligible_device"
        assert "statevector-simulable" in rejection.detail
        assert "optimize" in rejection.detail

    def test_scheduler_runs_optimize_job_end_to_end(self):
        fleet = FleetSpec([DeviceSlot("sim", "ring_8")])
        scheduler = Scheduler(fleet, "least-loaded")
        [job] = fleet_jobs_from_jsonl([self._optimize_line()])
        report = scheduler.run([job])
        assert report.placed == 1 and not report.rejections
        [record] = report.records
        assert record.ok
        assert record.kind == "optimize"
        assert record.device_label == "sim"
        assert record.exec_ms > 0.0

    def test_latency_model_has_optimize_prior(self):
        model = EwmaLatencyModel()
        assert model.predict_ms("optimize") == 400.0
        assert model.predict_ms("optimize") > model.predict_ms("eval")


# ----------------------------------------------------------------------
# fidelity estimates on repaired (fault-injected) targets
# ----------------------------------------------------------------------
class TestEstimateOnRepairedTargets:
    """`estimate_success_probability` must keep working on targets whose
    calibration went through fault injection and `repair_calibration` —
    dead couplers pruned out of the coupling, inflated error rates."""

    def _targets(self):
        clean = FleetSpec(
            [DeviceSlot("clean", "ibmq_16_melbourne")]
        ).target("clean")
        hurt = FleetSpec(
            [
                DeviceSlot(
                    "hurt", "ibmq_16_melbourne",
                    faults={"dead_edges": 2, "inflate": 3.0},
                    fault_seed=11,
                ),
            ]
        ).target("hurt")
        return clean, hurt

    def test_pruned_couplers_leave_the_graph(self):
        clean, hurt = self._targets()
        assert hurt.warnings  # repair provenance attached
        assert len(hurt.coupling.edges) == len(clean.coupling.edges) - 2

    def test_estimate_survives_pruning_and_ranks_damage_lower(self):
        from repro.fleet import estimate_success_probability

        clean, hurt = self._targets()
        est_clean = estimate_success_probability(10, 1, clean)
        est_hurt = estimate_success_probability(10, 1, hurt)
        assert est_clean is not None and 0.0 < est_clean < 1.0
        assert est_hurt is not None and 0.0 <= est_hurt < 1.0
        # inflated error rates must push the promise down
        assert est_hurt < est_clean

    def test_estimate_monotone_in_workload(self):
        from repro.fleet import estimate_success_probability

        _, hurt = self._targets()
        small = estimate_success_probability(5, 1, hurt)
        large = estimate_success_probability(20, 2, hurt)
        assert large <= small

    def test_uncalibrated_target_gives_no_promise(self):
        from repro.fleet import estimate_success_probability

        bare = FleetSpec(
            [DeviceSlot("bare", "ring_8", calibration=None)]
        ).target("bare")
        assert estimate_success_probability(5, 1, bare) is None
