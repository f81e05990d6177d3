"""Property tests for the vectorized fast-path evaluation engine.

The engine's whole claim is *exactness*: the diagonal-multiply QAOA
simulation (:func:`repro.sim.fastpath.qaoa_statevector`) and the verified
compiled-circuit path must agree with the gate-by-gate
:class:`~repro.sim.statevector.StatevectorSimulator` to machine precision
— global phase included — across random graphs, levels, and angles, and
the sampled evaluation must be *bit-identical* to the legacy
``evaluate_arg`` procedure (same RNG stream, same draws).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_with_method
from repro.hardware.calibration import random_calibration
from repro.hardware.devices import (
    get_device,
    ibmq_20_tokyo,
    melbourne_calibration,
)
from repro.qaoa import build_qaoa_circuit, evaluate_arg
from repro.qaoa.problems import Level, MaxCutProblem, QAOAProgram
from repro.sim import NoiseModel, NoisySimulator, StatevectorSimulator
from repro.sim.fastpath import (
    cost_diagonal,
    evaluate_fast,
    fastpath_plan,
    qaoa_statevector,
)

ATOL = 1e-9


@st.composite
def programs(draw):
    n = draw(st.integers(2, 7))
    edge_pool = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(
        st.lists(
            st.sampled_from(edge_pool), min_size=1, max_size=10, unique=True
        )
    )
    weights = [draw(st.floats(0.1, 4.0, allow_nan=False)) for _ in chosen]
    p = draw(st.integers(1, 3))
    levels = [
        Level(
            draw(st.floats(-3.0, 3.0, allow_nan=False)),
            draw(st.floats(-1.5, 1.5, allow_nan=False)),
        )
        for _ in range(p)
    ]
    edges = [(a, b, w) for (a, b), w in zip(chosen, weights)]
    return QAOAProgram(num_qubits=n, edges=edges, levels=levels)


class TestStatevectorParity:
    @given(programs())
    @settings(max_examples=50, deadline=None)
    def test_logical_statevector_matches_gate_by_gate(self, program):
        fast = qaoa_statevector(program)
        circuit = build_qaoa_circuit(program, measure=False)
        slow = StatevectorSimulator().run(circuit)
        assert np.max(np.abs(fast - slow)) < ATOL

    @given(programs())
    @settings(max_examples=30, deadline=None)
    def test_expectation_matches_gate_by_gate(self, program):
        diag = cost_diagonal(program)
        fast = float(np.dot(np.abs(qaoa_statevector(program)) ** 2, diag.cut))
        circuit = build_qaoa_circuit(program, measure=False)
        probs = StatevectorSimulator().probabilities(circuit)
        slow = float(np.dot(probs, diag.cut))
        assert abs(fast - slow) < ATOL


def _compiled_cases():
    """Deterministic compiled cases over all methods/devices that force
    nontrivial SWAP routing (permuted final mappings)."""
    cases = []
    for seed, (device, method) in enumerate(
        [
            ("ibmq_16_melbourne", "qaim"),
            ("ibmq_16_melbourne", "ip"),
            ("ibmq_16_melbourne", "ic"),
            ("ibmq_16_melbourne", "vic"),
            ("ibmq_20_tokyo", "ic"),
            ("linear_4", "qaim"),
        ]
    ):
        rng = np.random.default_rng(seed)
        n = 4 if device == "linear_4" else 8
        edges = []
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.6:
                    edges.append((a, b, float(rng.uniform(0.2, 2.0))))
        if not edges:
            edges = [(0, 1, 1.0)]
        problem = MaxCutProblem(n, edges)
        program = QAOAProgram(
            num_qubits=n,
            edges=edges,
            levels=[Level(0.9, 0.4), Level(-0.5, 0.7)],
        )
        calibration = (
            melbourne_calibration() if device == "ibmq_16_melbourne" else None
        )
        compiled = compile_with_method(
            program,
            get_device(device),
            method,
            calibration=calibration,
            rng=rng,
        )
        cases.append((problem, program, compiled))
    return cases


class TestCompiledPath:
    def test_all_compiled_cases_verify(self):
        for _, _, compiled in _compiled_cases():
            plan = fastpath_plan(compiled)
            assert plan.ok, plan.reason

    def test_compiled_exact_matches_fallback(self):
        for problem, _, compiled in _compiled_cases():
            if compiled.circuit.num_qubits > 16:
                continue
            noise = NoiseModel.from_calibration(melbourne_calibration())
            if compiled.circuit.num_qubits != 15:
                noise = NoiseModel.ideal(compiled.circuit.num_qubits)
            fast = evaluate_fast(
                compiled,
                noise=noise,
                trajectories=4,
                rng=np.random.default_rng(5),
                mode="exact",
            )
            slow = evaluate_fast(
                compiled,
                noise=noise,
                trajectories=4,
                rng=np.random.default_rng(5),
                mode="exact",
                use_fastpath=False,
            )
            assert fast.fastpath and not slow.fastpath
            assert abs(fast.r0 - slow.r0) < ATOL
            assert abs(fast.rh - slow.rh) < ATOL

    def test_compiled_sampled_bit_identical_to_legacy(self):
        calibration = melbourne_calibration()
        noisy = NoisySimulator(
            NoiseModel.from_calibration(calibration), trajectories=6
        )
        ideal = StatevectorSimulator()
        for problem, _, compiled in _compiled_cases():
            if compiled.circuit.num_qubits != 15:
                continue
            fast = evaluate_arg(
                compiled,
                problem,
                ideal,
                noisy,
                shots=512,
                rng=np.random.default_rng(17),
                fast=True,
            )
            slow = evaluate_arg(
                compiled,
                problem,
                ideal,
                noisy,
                shots=512,
                rng=np.random.default_rng(17),
                fast=False,
            )
            # Same RNG stream, same draws: agreement is limited only by
            # floating-point summation order in the means, not sampling.
            assert abs(fast.r0 - slow.r0) < 1e-12
            assert abs(fast.rh - slow.rh) < 1e-12
            assert abs(fast.arg - slow.arg) < ATOL


def _held_arrays(obj):
    """Every ndarray an object's attributes hold, one container deep."""
    out = []
    for value in vars(obj).values():
        items = value.values() if isinstance(value, dict) else (
            value if isinstance(value, (tuple, list)) else (value,)
        )
        out.extend(v for v in items if isinstance(v, np.ndarray))
    return out


class TestTokyoStreamParity:
    """The fast path samples over the logical support, never over the
    2^20 tokyo register, yet must draw exactly what the gate-by-gate
    path draws from that register."""

    def _case(self):
        rng = np.random.default_rng(3)
        n = 6
        edges = [
            (a, b, 1.0)
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < 0.6
        ]
        program = QAOAProgram(
            num_qubits=n, edges=edges, levels=[Level(0.9, 0.4)]
        )
        device = ibmq_20_tokyo()
        calibration = random_calibration(
            device, np.random.default_rng(1), mean=0.05
        )
        compiled = compile_with_method(
            program,
            device,
            "ic",
            calibration=calibration,
            rng=np.random.default_rng(2),
        )
        return compiled, NoiseModel.from_calibration(calibration)

    def test_sampled_tokyo_bit_identical_with_equal_generator_state(self):
        compiled, noise = self._case()
        assert compiled.circuit.num_qubits == 20
        outcomes, states = [], []
        for use_fastpath in (True, False):
            rng = np.random.default_rng(9)
            outcomes.append(
                evaluate_fast(
                    compiled,
                    noise=noise,
                    shots=256,
                    trajectories=2,
                    rng=rng,
                    use_fastpath=use_fastpath,
                )
            )
            states.append(rng.bit_generator.state)
        fast, slow = outcomes
        assert fast.fastpath and not slow.fastpath
        assert (fast.r0, fast.rh) == (slow.r0, slow.rh)
        assert states[0] == states[1]

    def test_interned_diagonal_keeps_no_sign_vectors(self):
        compiled, noise = self._case()
        diag = cost_diagonal(compiled.program)
        for mode in ("sampled", "exact"):
            evaluate_fast(
                compiled,
                noise=noise,
                shots=64,
                trajectories=2,
                rng=np.random.default_rng(0),
                mode=mode,
            )
        assert cost_diagonal(compiled.program) is diag
        allowed = {id(diag.cut), id(diag.phase)}
        if diag._phase_groups is not None:
            allowed.update(id(a) for a in diag._phase_groups)
        extra = [a.shape for a in _held_arrays(diag) if id(a) not in allowed]
        assert not extra, f"diagonal holds per-qubit/pair vectors {extra}"
