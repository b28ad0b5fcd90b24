"""kpzlab benchmark: one workload per run, closed loop, one JSON result line.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run, whose spans
are also written to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

import time

START = time.perf_counter()  # set-up is timed from here to the first round

import argparse
import importlib
import json
import resource
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify", "constants", "ensemble", "clt")

#: Set-ups cheaper than this are repeated in fresh interpreters and the
#: median is reported; a dearer one (the kernel build) is measured once.
SETUP_REPEAT_LIMIT_S = 1.0
SETUP_REPEATS = 3


class SpeedProbe:
    """Samples the CPU speed this process gets while it runs.

    Every ``INTERVAL_S`` of wall time a signal handler times a fixed Python
    loop.  ``speed(a, b)`` is the mean of ``REFERENCE_S / loop time`` over
    the samples taken between ``a`` and ``b``: 1 at the reference speed,
    0.7 on a machine that runs 30 % slower.  On a shared host that speed
    swings by up to 2x within seconds and drifts over minutes, so every
    reported time is scaled by it to the reference speed.
    """

    INTERVAL_S = 0.05
    REFERENCE_S = 1e-3

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end, ratio)
        signal.signal(signal.SIGALRM, self._tick)
        self.start()

    def start(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        total = 0
        for i in range(10_000):
            total += i * i
        t1 = time.perf_counter()
        self.samples.append((t1, self.REFERENCE_S / (t1 - t0)))

    def speed(self, a: float, b: float) -> float:
        inside = [r for t, r in self.samples if a <= t <= b]
        if not inside:  # an interval shorter than one tick
            self._tick(None, None)
            inside = [self.samples[-1][1]]
        return sum(inside) / len(inside)

    def stop(self) -> None:
        """Stop the timer, which a child process would otherwise inherit."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def run_rounds(wl, state, seconds, before_round=None):
    """Whole rounds until the next one would end past ``seconds`` (at least one).

    Returns each round's result, its time scaled to the reference speed,
    and the speed it ran at.
    """
    results, times, speeds, walls = [], [], [], []
    start = time.perf_counter()
    while True:
        if before_round:
            before_round(len(results))
        t0 = time.perf_counter()
        results.append(wl.run_round(state))
        t1 = time.perf_counter()
        walls.append(t1 - t0)
        speeds.append(PROBE.speed(t0, t1))
        times.append(walls[-1] * speeds[-1])
        print(f"round {len(results)}: {walls[-1]:.3f} s wall at speed {speeds[-1]:.3f}")
        if t1 - start + statistics.median(walls) > seconds:
            return results, times, speeds


def child_setup_s(workload: str, seed: int) -> float:
    PROBE.stop()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
        )
    finally:
        PROBE.start()
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def layer_metrics(rec, round_index, extras, speed, setup_speed) -> dict:
    """Per-layer metrics of one traced round (see the README for each).

    Span times are scaled to the reference speed like ``wall_s``: by the
    round's speed, or by the set-up's for the kernel build.
    """
    def scaled(times, factor):
        return defaultdict(float, {k: v * factor for k, v in times.items()})

    spans = rec.totals(round_index)
    total, own = scaled(spans["total"], speed), scaled(spans["self"], speed)
    setup = scaled(rec.totals(-1)["total"], setup_speed)
    count = rec.counts[round_index]

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    m = {
        "symbols.build_symbol_set_s": total["symbols.build_symbol_set"],
        "symbols.homogeneity_calls": count["symbols.homogeneity_calls"],
        "symbols.certify_symbol_s": total["symbols.certify_symbol"],
        "cumulants.wick_partitions": count["cumulants.wick_partitions"],
        "cumulants.iter_wick_partitions_s": total["cumulants.iter_wick_partitions"],
        "graphs.iter_contractions_s": own["graphs.iter_contractions"],
        "graphs.contractions": count["graphs.contractions"],
        "power_counting.check_contracted_s": total["power_counting.check_contracted"],
        "power_counting.checks_per_s": rate(count["power_counting.scans"],
                                            total["power_counting.check_contracted"]),
        "power_counting.subset_masks": count["power_counting.subset_masks"],
        "power_counting.check_admissible_s": total["power_counting.check_admissible"],
        "power_counting.max_vertices": count["power_counting.max_vertices"],
        "kernels.build_truncated_kernel_s": setup["kernels.build_truncated_kernel"],
        "kernels.leg_table_s": total["kernels.leg_table"],
        "kernels.leg_table_kernel_evals": count["kernels.leg_table_kernel_evals"],
        "noise.pairing_windows_s": total["noise.pairing_windows"],
        "noise.window_eta_evals": count["noise.window_eta_evals"],
        "noise.sample_pairings_s": total["noise.sample_pairings"],
        "noise.cloud_points": count["noise.cloud_points"],
        "noise.cloud_points_per_s": rate(count["noise.cloud_points"],
                                         total["noise.sample_pairings"]),
        "noise.phi_s": total["noise.phi"],
        "sim.field_from_cloud_s": total["sim.field_from_cloud"],
        "sim.solve_renormalised_s": total["sim.solve_renormalised"],
        "sim.renormalised_member_steps_per_s": rate(
            extras.get("sim.renormalised_member_steps", 0),
            total["sim.solve_renormalised"]),
        "sim.solve_hopf_cole_s": total["sim.solve_hopf_cole"],
        "sim.hopf_cole_member_steps_per_s": rate(
            extras.get("sim.hopf_cole_member_steps", 0), total["sim.solve_hopf_cole"]),
        "sim.steps_per_member": extras.get("sim.steps_per_member", 0),
        "sim.compare_statistics_s": total["sim.compare_statistics"],
        "graphs.distinct_ratio": extras.get("graphs.distinct_ratio", 0.0),
    }
    from kpzlab.kernels import CONSTANT_NAMES

    for name in CONSTANT_NAMES:
        seconds = total["kernels.evaluate_diagram." + name]
        m["kernels.evaluate_diagram_s." + name] = seconds
        m["kernels.mc_samples_per_s." + name] = rate(
            count["kernels.mc_samples." + name], seconds)
        m["kernels.stderr." + name] = extras.get("kernels.stderr." + name, 0.0)
    for name in ("C0", "C1"):
        m["mc_s_to_tol." + name] = extras.get("mc_s_to_tol." + name, 0.0) * speed
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import kpzlab
    except ImportError as exc:
        print(f"cannot import kpzlab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if (ROOT / "src" / "kpzlab").resolve() not in [Path(p).resolve()
                                                   for p in kpzlab.__path__]:
        print(f"kpzlab imported from {list(kpzlab.__path__)}, not from this checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    rec = None
    if args.trace:
        import tracer

        rec = tracer.Recorder()
        tracer.install(rec)
    wl = importlib.import_module(args.workload)
    state = wl.setup(args.seed)
    setup_end = time.perf_counter()
    setup_speed = PROBE.speed(START, setup_end)
    setups = [(setup_end - START) * setup_speed]
    if args.setup_only:
        print(json.dumps({"setup_s": setups[0]}))
        return 0

    if rec is None:
        if setups[0] < SETUP_REPEAT_LIMIT_S:
            setups += [child_setup_s(args.workload, args.seed)
                       for _ in range(SETUP_REPEATS - 1)]
        results, times, _ = run_rounds(wl, state, args.seconds)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
    else:
        # one untraced round in the same process is the overhead reference
        rec.unpatch()
        results, ref_times, _ = run_rounds(wl, state, 0.0)
        tracer.install(rec)

        def before_round(i):
            rec.round = i

        traced, times, speeds = run_rounds(wl, state, args.seconds, before_round)
        rec.round = -2  # checks below are not part of any round
        per_round = [layer_metrics(rec, i, wl.extras(state, res), speed, setup_speed)
                     for i, (res, speed) in enumerate(zip(traced, speeds))]
        values = {key: statistics.median(m[key] for m in per_round)
                  for key in per_round[0]}
        values["trace.overhead_s"] = statistics.median(times) - ref_times[0]
        results += traced
        wanted = spec["per_layer"]

    problems = wl.check(state, results)
    for line in problems:
        print("CHECK FAILED:", line)
    if rec is not None:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        rec.dump(out / f"trace-{args.workload}-{args.seed}.json")
        rec.unpatch()

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["ops"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    PROBE = SpeedProbe()
    try:
        code = main()
    finally:
        PROBE.stop()  # a tick during interpreter shutdown would kill the process
    sys.exit(code)
