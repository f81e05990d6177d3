"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

A quick run of every workload at tiny size must print every metric that
``BENCHMARK.json`` names, with its unit, and report correct outputs; each
correctness check must fail when one output is tampered with.
"""

from __future__ import annotations

import json
import pathlib
import re
import struct
import sys
import time

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
for path in (str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import checks, run, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "compile-grid": {"prefix": 24, "trace_pairs": 4},
    "eval-noisy": {"prefix": 6, "trace_pairs": 1},
    "optimize-var": {"prefix": 4, "trace_pairs": 2},
    "cache-replay": {"prefix": 8, "trace_pairs": 4},
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload and keep run records out of the tree."""
    for name, sizes in TINY.items():
        for attr, value in sizes.items():
            monkeypatch.setattr(workloads.WORKLOADS[name], attr, value)
    monkeypatch.setattr(workloads, "REPLAY_BLOCKS", 3)
    monkeypatch.setattr(run, "HERE", tmp_path)
    return tmp_path


def _workload(name: str, tmp_path, seed: int = 3):
    workload = workloads.WORKLOADS[name](seed, str(tmp_path))
    workload.setup()
    return workload


def _prefix(workload):
    return run._timed_phase(workload, 0.0, time.perf_counter(), workload.prefix)


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_prints_every_metric(tiny, capsys, name, trace):
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
        if not trace:
            assert printed["value"] > 0
        assert any(metric["name"] in line and metric["unit"] in line for line in lines[:-1])
    record = json.loads((tiny / "results" / f"{name}-seed3-trace{trace}.json").read_text())
    assert record["seed"] == 3 and record["host"]["cores"] >= 1
    assert {"numpy", "python", "git_sha"} <= set(record["host"])


# ----------------------------------------------------------------------
# tamper tests: one changed output must fail its check
# ----------------------------------------------------------------------
def _flip_last_bit(value: float) -> float:
    (bits,) = struct.unpack("<q", struct.pack("<d", value))
    return struct.unpack("<d", struct.pack("<q", bits ^ 1))[0]


def test_eval_check_catches_one_flipped_rh_bit(tiny):
    workload = _workload("eval-noisy", tiny)
    phase = _prefix(workload)
    assert workload.check(phase["items"], phase["results"]) == []
    for result in phase["results"]:
        result.metrics["rh"] = _flip_last_bit(result.metrics["rh"])
    errors = workload.check(phase["items"], phase["results"])
    assert len(errors) == 2 and all("(r0, rh)" in e for e in errors)


def test_replay_check_catches_one_changed_payload_byte(tiny):
    workload = _workload("cache-replay", tiny)
    workload.begin_phase()
    items = list(workloads._take(workload.stream(), 6))
    results = []
    for index, item in enumerate(items):
        result = workload.execute(item)
        if index == 3:
            payload, middle = result.payload, len(result.payload) // 2
            result.payload = payload[:middle] + chr(ord(payload[middle]) ^ 1) + payload[middle + 1:]
        workload.observe(index, item, result)
        results.append(result)
    errors = workload.check(items, results)
    assert errors == [f"cache-replay replay 3 ({items[3].job_id}): payload differs"]
    workload.close()


def test_replay_check_catches_a_dropped_gate(tiny):
    from repro.circuits.circuit import QuantumCircuit

    workload = _workload("cache-replay", tiny)
    workload.begin_phase()
    item = next(workload.stream())
    result = workload.execute(item)
    rebuilt = workload.last_compiled
    rebuilt.circuit = QuantumCircuit(
        rebuilt.circuit.num_qubits, rebuilt.circuit.instructions[:-1]
    )
    workload.observe(0, item, result)
    errors = workload.check([item], [result])
    assert len(errors) == 1 and f"{item.job_id} gate list" in errors[0]
    workload.close()


def test_compile_check_catches_one_changed_gate_angle(tiny):
    workload = _workload("compile-grid", tiny)
    phase = _prefix(workload)
    assert workload.check(phase["items"], phase["results"]) == []

    def bump(match):
        return f"rzz({float(match.group(1)) + 0.01!r})"

    for result in phase["results"]:
        result.payload = re.sub(r"rzz\(([-+0-9.e]+)\)", bump, result.payload, count=1)
    errors = workload.check(phase["items"], phase["results"])
    assert any(" r0:" in e for e in errors), errors
    workload.close()


def test_optimize_check_catches_a_changed_expectation(tiny):
    workload = _workload("optimize-var", tiny)
    phase = _prefix(workload)
    assert workload.check(phase["items"], phase["results"]) == []
    phase["results"][1].metrics["expectation"] += 1e-6
    phase["results"][2].metrics["optimum"] -= 1e-6
    errors = workload.check(phase["items"], phase["results"])
    assert len(errors) == 2
    assert "expectation" in errors[0] and "optimum" in errors[1]


def test_traced_checks_catch_divergence_and_low_coverage():
    assert checks.check_equal("t", (1, 2.0), (1, 2.0)) == []
    assert checks.check_equal("t", (1, 2.0), (1, _flip_last_bit(2.0)))
    assert checks.check_coverage("t", {"a": 0.99, "b": 0.96}, 0.95) == []
    assert checks.check_coverage("t", {"a": 0.99, "b": 0.94}, 0.95)


def test_brute_force_references_match_definitions():
    # Path graph 0-1-2: the best cut separates the middle node.
    cut = checks.brute_force_cut(3, [(0, 1, 1.0), (1, 2, 1.0)])
    assert cut.max() == 2.0 and cut[0b010] == 2.0 and cut[0] == 0.0
    # x^T Q x on x = (1, 1) is 1 + 2 * (-2) + 3; on x = (0, 1) it is 3.
    values = checks.brute_force_qubo(np.array([[1.0, -2.0], [-2.0, 3.0]]))
    assert values[0b11] == 0.0 and values[0b10] == 3.0 and values.max() == 3.0


def test_host_speed_scales_by_the_units_near_each_interval():
    from perfbench.hostref import HostSpeed

    speed = HostSpeed(["interp"])
    # Units at t = 0..39 s: the host runs at half speed (factor 2) from 20 s.
    speed.times = [float(t) for t in range(40)]
    speed.factors = [1.0] * 20 + [2.0] * 20
    assert speed.normalize(5.0, 5.5) == 0.5
    assert speed.normalize(30.0, 30.5) == 0.25
    # Far from every unit, the nearest MIN_SAMPLES set the factor.
    assert speed.factor(100.0, 100.0) == 2.0
    speed.sample(3)
    assert len(speed.factors) == 43 and all(f > 0 for f in speed.factors[-3:])
