"""Correctness references that do not come from the code under test.

Each ``check_*`` function compares one program output with its reference
and returns a list of failure messages (empty when the output is correct),
so a run can report every mismatch and a test can tamper with one output
and see the check fail.  The ``reference_*`` helpers compute the
references: brute-force enumeration written here, the closed-form p=1
expectation, or the gate-by-gate simulators the fast path replaces.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

#: Agreement required between floating-point results computed along
#: different summation orders.
TOLERANCE = 1e-9


# ----------------------------------------------------------------------
# brute-force objective values (written here, not taken from the program)
# ----------------------------------------------------------------------
def _bits(n: int) -> np.ndarray:
    """``(2^n, n)`` 0/1 matrix; row ``k`` is the little-endian index ``k``."""
    index = np.arange(1 << n, dtype=np.int64)[:, None]
    return ((index >> np.arange(n)) & 1).astype(float)


def brute_force_cut(num_nodes: int, edges) -> np.ndarray:
    """Cut value of every bitstring: the sum of weights of cut edges."""
    x = _bits(num_nodes)
    values = np.zeros(1 << num_nodes)
    for a, b, w in edges:
        values += w * (x[:, a] != x[:, b])
    return values


def brute_force_qubo(matrix: np.ndarray) -> np.ndarray:
    """``x^T Q x`` for every bitstring ``x`` (maximisation sense)."""
    x = _bits(matrix.shape[0])
    return np.einsum("ki,ij,kj->k", x, matrix, x)


def _close(a: float, b: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= TOLERANCE * max(1.0, abs(scale))


# ----------------------------------------------------------------------
# reference computations
# ----------------------------------------------------------------------
def reference_gate_r0(compiled) -> float:
    """Noiseless ratio from gate-by-gate statevector simulation."""
    from repro.sim.fastpath import evaluate_fast

    return evaluate_fast(compiled, mode="exact", use_fastpath=False).r0


def reference_analytic_r0(problem, gamma: float, beta: float) -> float:
    """Closed-form p=1 expectation over the brute-force optimum."""
    from repro.qaoa.analytic import analytic_expectation

    optimum = brute_force_cut(problem.num_nodes, problem.edges).max()
    return analytic_expectation(problem, gamma, beta) / optimum


def reference_sampled(compiled, noise, *, shots, trajectories, eval_seed):
    """``(r0, rh)`` from the gate-by-gate simulators, same seed."""
    from repro.sim.fastpath import evaluate_fast

    outcome = evaluate_fast(
        compiled,
        noise=noise,
        shots=shots,
        trajectories=trajectories,
        rng=np.random.default_rng(eval_seed),
        mode="sampled",
        use_fastpath=False,
    )
    return outcome.r0, outcome.rh


def reference_expectation(problem, values, gammas, betas) -> float:
    """QAOA expectation at the given angles.

    Unweighted MaxCut at p=1 uses the closed form; anything else runs the
    logical circuit through the gate-by-gate statevector simulator and
    scores it with the brute-force ``values``.
    """
    from repro.qaoa.analytic import analytic_expectation
    from repro.qaoa.circuit_builder import build_qaoa_circuit
    from repro.sim.statevector import StatevectorSimulator

    unweighted = all(w == 1.0 for _, _, w in getattr(problem, "edges", []))
    if len(gammas) == 1 and hasattr(problem, "num_nodes") and unweighted:
        return analytic_expectation(problem, gammas[0], betas[0])
    circuit = build_qaoa_circuit(problem.to_program(gammas, betas), measure=False)
    probs = StatevectorSimulator().probabilities(circuit)
    return float(probs @ values)


def gate_list(compiled) -> List[tuple]:
    return [(g.name, tuple(g.qubits), tuple(g.params)) for g in compiled.circuit]


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def check_close(label: str, got: float, want: float, scale: float = 1.0) -> List[str]:
    if got is None or not _close(float(got), float(want), scale):
        return [f"{label}: got {got!r}, reference {want!r}"]
    return []


def check_identical(label: str, got: Sequence[float], want: Sequence[float]) -> List[str]:
    """Bit-for-bit equality of floats (compared as their IEEE-754 bytes)."""
    got_bytes = np.asarray(got, dtype=np.float64).tobytes()
    want_bytes = np.asarray(want, dtype=np.float64).tobytes()
    if got_bytes != want_bytes:
        return [f"{label}: got {list(got)!r}, reference {list(want)!r}"]
    return []


def check_equal(label: str, got, want) -> List[str]:
    if got != want:
        return [f"{label}: outputs differ ({_describe(got)} vs {_describe(want)})"]
    return []


def check_optimize(
    label: str,
    metrics: dict,
    brute_optimum: float,
    reference_value: float,
) -> List[str]:
    """Reported optimum and expectation against their references."""
    errors = check_close(f"{label} optimum", metrics["optimum"], brute_optimum, brute_optimum)
    errors += check_close(
        f"{label} expectation", metrics["expectation"], reference_value, brute_optimum
    )
    return errors


def check_coverage(label: str, coverage: dict, floor: float) -> List[str]:
    low = {job: share for job, share in coverage.items() if share < floor}
    if low:
        worst = min(low, key=low.get)
        return [
            f"{label}: {len(low)} traced job(s) below {floor:.0%} span coverage "
            f"(worst {worst}: {low[worst]:.1%})"
        ]
    return []


def _describe(value: Optional[object]) -> str:
    text = repr(value)
    return text if len(text) <= 60 else f"{text[:57]}..."
