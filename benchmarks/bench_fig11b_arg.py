"""Figure 11(b) bench: ARG validation on (noisy-simulated) hardware.

Regenerates the mean-ARG bars of Figure 11(b): p=1 QAOA-MaxCut instances
optimised with L-BFGS-B, compiled with QAIM / IP / IC / VIC for
ibmq_16_melbourne, sampled noiselessly and through the Monte-Carlo noise
model built from the Figure 10(a) calibration.

Paper targets (ordering, lower ARG = better): QAIM worst, then IP, then IC,
then VIC best — IC ~8.5% below IP, VIC ~7.4% below IC.
"""

from repro.experiments.figures import fig11b
from repro.experiments.harness import scaled_instances


def quick_speedup_smoke(nodes=10, shots=4096, trajectories=16, seed=11):
    """Quick mode: one instance, fast path vs gate-by-gate fallback.

    Returns ``(speedup, arg_fast, arg_slow)``; the two ARGs are computed
    from identical RNG streams so they must agree to machine precision.
    Used by CI to hold the fast-path engine to its >=5x contract.
    """
    import time

    import numpy as np

    from repro.compiler import compile_with_method
    from repro.experiments.harness import make_problem
    from repro.hardware import ibmq_16_melbourne, melbourne_calibration
    from repro.qaoa import optimize_qaoa
    from repro.sim import NoiseModel
    from repro.sim.fastpath import evaluate_fast

    rng = np.random.default_rng(seed)
    problem = make_problem("er", nodes, 0.5, rng)
    opt = optimize_qaoa(problem, p=1)
    program = problem.to_program(opt.gammas, opt.betas)
    calibration = melbourne_calibration()
    compiled = compile_with_method(
        program, ibmq_16_melbourne(), "ic", calibration=calibration, rng=rng
    )
    noise = NoiseModel.from_calibration(calibration)

    def once(use_fastpath):
        start = time.perf_counter()
        outcome = evaluate_fast(
            compiled,
            noise=noise,
            shots=shots,
            trajectories=trajectories,
            rng=np.random.default_rng(seed),
            use_fastpath=use_fastpath,
        )
        return time.perf_counter() - start, outcome

    # Warm both paths once (imports, registry) before timing.
    once(True), once(False)
    fast_s, fast = once(True)
    slow_s, slow = once(False)
    assert fast.fastpath and not slow.fastpath
    return slow_s / fast_s, fast.arg, slow.arg


def device_size_sweep(
    nodes=8, sizes=(10, 16, 22), shots=4096, trajectories=16, seed=11, repeats=3
):
    """Quick mode: fast-path cost of one instance as the device grows.

    Compiles the same ``nodes``-node instance for ``linear_device(N)``
    per ``N`` in ``sizes`` and times a sampled noisy evaluation, median
    of ``repeats``.  Sampling runs over the ``2^nodes`` logical support,
    not the ``2^N`` register, so the times should stay flat.  Returns
    ``{N: (seconds, swap_count)}``.
    """
    import statistics
    import time

    import numpy as np

    from repro.compiler import compile_with_method
    from repro.experiments.harness import make_problem
    from repro.hardware import linear_device, random_calibration
    from repro.qaoa import optimize_qaoa
    from repro.sim import NoiseModel
    from repro.sim.fastpath import evaluate_fast

    problem = make_problem("er", nodes, 0.5, np.random.default_rng(seed))
    opt = optimize_qaoa(problem, p=1)
    program = problem.to_program(opt.gammas, opt.betas)
    out = {}
    for size in sizes:
        device = linear_device(size)
        calibration = random_calibration(device, np.random.default_rng(seed))
        compiled = compile_with_method(
            program,
            device,
            "ic",
            calibration=calibration,
            rng=np.random.default_rng(seed),
        )
        noise = NoiseModel.from_calibration(calibration)
        times = []
        for _ in range(repeats + 1):  # the first run warms up
            start = time.perf_counter()
            outcome = evaluate_fast(
                compiled,
                noise=noise,
                shots=shots,
                trajectories=trajectories,
                rng=np.random.default_rng(seed),
            )
            times.append(time.perf_counter() - start)
        assert outcome.fastpath, outcome.reason
        out[size] = (statistics.median(times[1:]), compiled.swap_count)
    return out


def _device_size_ratio(sweep):
    times = [t for t, _ in sweep.values()]
    return max(times) / min(times)


def test_fastpath_speedup_quick():
    speedup, arg_fast, arg_slow = quick_speedup_smoke()
    assert abs(arg_fast - arg_slow) < 1e-9, (arg_fast, arg_slow)
    assert speedup >= 5.0, f"fast path only {speedup:.1f}x faster"


def test_fastpath_cost_flat_in_device_size_quick():
    sweep = device_size_sweep()
    ratio = _device_size_ratio(sweep)
    assert ratio <= 2.0, f"largest/smallest device time {ratio:.2f}: {sweep}"


def test_fig11b_arg_hardware_validation(benchmark, record_figure):
    instances = scaled_instances(reduced=4, paper=20)
    num_nodes = scaled_instances(reduced=10, paper=12)
    shots = scaled_instances(reduced=4096, paper=40960)
    result = benchmark.pedantic(
        fig11b.run,
        kwargs={
            "instances": instances,
            "num_nodes": num_nodes,
            "shots": shots,
        },
        rounds=1,
        iterations=1,
    )
    record_figure(result)
    h = result.headline
    # Noise must open a gap for every method.
    for method in ("qaim", "ip", "ic", "vic"):
        assert h[f"arg_mean_{method}"] > 0.0
    # The paper's ordering: the optimised flows beat QAIM-only.
    assert h["arg_mean_ic"] < h["arg_mean_qaim"]
    assert h["arg_mean_vic"] < h["arg_mean_qaim"]


if __name__ == "__main__":
    speedup, arg_fast, arg_slow = quick_speedup_smoke()
    delta = abs(arg_fast - arg_slow)
    print(
        f"fast path {speedup:.1f}x faster; "
        f"ARG fast={arg_fast:.6f} slow={arg_slow:.6f} (|delta|={delta:.2e})"
    )
    assert delta < 1e-9, "fast/slow ARG mismatch"
    assert speedup >= 5.0, f"fast path only {speedup:.1f}x faster"
    print("quick speedup smoke OK")
    sweep = device_size_sweep()
    for size, (seconds, swaps) in sweep.items():
        print(f"linear_{size}: {1e3 * seconds:.1f} ms ({swaps} swaps)")
    ratio = _device_size_ratio(sweep)
    print(f"largest/smallest device time {ratio:.2f} (gate <= 2)")
    assert ratio <= 2.0, "fast-path cost grows with device size"
    print("device-size sweep OK")
