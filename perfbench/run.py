"""Benchmark demoplan on one seeded workload; run from the repository root.

    python3 perfbench/run.py --workload fixture_trials --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Workloads, each a closed loop with one client in one thread:
  fixture_trials  one trial as ``demoplan bench`` runs it (10% noise, tasks in rotation)
  demo_files      ``demoplan plan`` then ``demoplan run`` on files, masks upscaled 3x
  long_horizon    filter a 20k-frame stream, then run a 600-step plan over 24 objects
``all`` runs each workload in its own process, one after another.

With ``--trace 0`` the run measures for ``--seconds`` and the last line of
output holds the end-to-end metrics. With ``--trace 1`` it measures half the
time untraced and half traced, writes the spans and per-layer metrics to
``.perfbench_out/`` and the last line holds the per-layer metrics. Lines
before it report every metric by name and unit, the input sizes, the error
rate and a sha256 over all checked outputs. Exit code 2 means the package
could not be imported from ``src/``.

Each input runs many times and its latency is its fastest run; p50 and p90
are over inputs, and ops_per_s is one rotation through the inputs at those
times. A fixed reference task runs between ops, and every timing is scaled
by REFERENCE_NS over the reference's fastest time in the run, so that the
slow spells of a shared host cancel out. Unscaled values are printed too.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
if not __package__:  # run as a script
    sys.path.insert(0, str(ROOT))

from perfbench import checks, inputs, program, spans, workloads  # noqa: E402

SETUP_REPEATS = 9
OUT_DIR = ROOT / ".perfbench_out"
# The fastest time of the reference task on the host that recorded perfbench/baseline.json.
REFERENCE_NS = 7.5e6
REFERENCE_EVERY_S = 0.25
END_TO_END = ("setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb", "task_success_rate")


class Reference:
    """A fixed task of the benchmark's own code, run between ops to gauge the host's speed.

    A shared host runs all code up to twice as slow for minutes at a time. The
    fastest reference time in a run, like each input's fastest op time, comes
    from the fastest spell of the run, so their ratio repeats across runs.
    """

    def __init__(self):
        rng = random.Random(0)
        self.frames = inputs.noisy_frames(inputs.random_keys(60, rng), 30, 0.1, rng)
        self.doc = {f"o{i}": [f"c{i}", rng.random(), rng.random(), 0.0, 0.03, "item", 0.0, False] for i in range(24)}
        self.best_ns = 0
        self.due = 0.0

    def run_if_due(self) -> None:
        if perf_counter() < self.due:
            return
        t0 = perf_counter_ns()
        checks.mode_filter(self.frames, 15)
        for _ in range(30):
            hashlib.sha256(json.dumps(self.doc, sort_keys=True).encode()).hexdigest()
        took = perf_counter_ns() - t0
        self.best_ns = min(self.best_ns, took) if self.best_ns else took
        self.due = perf_counter() + REFERENCE_EVERY_S

    @property
    def scale(self) -> float:
        """Factor that takes a time measured in this run to the reference host's speed."""
        return REFERENCE_NS / self.best_ns


@dataclass
class Loop:
    """Timed ops of one loop; ``best_ns[k]`` is input k's fastest time, 0 if it never ran."""

    best_ns: list[int]
    timed: int = 0
    attempted: int = 0
    failed: int = 0

    @property
    def ran(self) -> list[int]:
        return [b for b in self.best_ns if b]

    @property
    def ops_per_s(self) -> float:
        """Ops per second over one rotation through the inputs, each at its fastest time."""
        return len(self.ran) / (sum(self.ran) / 1e9) if self.ran else 0.0

    def latency_ms(self) -> tuple[float, float]:
        """Median and 90th percentile over inputs of each input's fastest time, in ms."""
        times = self.ran
        if len(times) < 2:
            value = times[0] / 1e6 if times else 0.0
            return value, value
        return statistics.median(times) / 1e6, statistics.quantiles(times, n=10, method="inclusive")[8] / 1e6


def timed_loop(
    loop: Loop, workload, prog, state, seconds: float, checked: workloads.Checked, tracer=None, reference=None
) -> None:
    """Ops in input order until ``seconds`` pass; each output is compared with the check pass.

    Every input runs many times, and its latency is its fastest run: a shared
    host can run code up to twice as slow for seconds at a time, and the
    fastest of many runs spread over the whole loop is what repeats.
    """
    n = len(workload.inputs)
    gc.collect()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        if reference is not None:
            reference.run_if_due()
        k = loop.attempted % n
        span = tracer.root(spans.OP, loop.attempted) if tracer else nullcontext()
        loop.attempted += 1
        try:
            t0 = perf_counter_ns()
            with span:
                result = workload.op(prog, state, workload.inputs[k])
            t1 = perf_counter_ns()
        except Exception:  # counted as a failed op; the loop keeps measuring
            loop.failed += 1
            continue
        loop.timed += 1
        loop.best_ns[k] = min(loop.best_ns[k], t1 - t0) if loop.best_ns[k] else t1 - t0
        loop.failed += checked.bad[k] or workload.fingerprint(result) != checked.expected[k]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    prog = program.load(ROOT)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work:
        workload = workloads.WORKLOADS[name](prog, seed, Path(work))
        # Set-up runs SETUP_REPEATS times, spread over the untraced loop, each time
        # on a fresh import; the loop goes on with the program of the last set-up.
        plain_s = seconds / 2 if trace else seconds
        plain = Loop([0] * len(workload.inputs))
        loops, setup_s, reference = [plain], [], Reference()
        for rep in range(SETUP_REPEATS):
            reference.run_if_due()
            t0 = perf_counter()
            prog = program.load(ROOT)
            state = workload.setup(prog)
            setup_s.append(perf_counter() - t0)
            if rep == 0:
                checked = workloads.check(workload, prog, state)
            timed_loop(plain, workload, prog, state, plain_s / SETUP_REPEATS, checked, reference=reference)
        if trace:
            tracer = spans.Tracer(workload.mask_files)
            tracer.install(prog)
            try:
                with tracer.root(spans.SETUP, -1):
                    traced_state = workload.setup(prog)
                loops.append(Loop([0] * len(workload.inputs)))
                timed_loop(loops[1], workload, prog, traced_state, seconds / 2, checked, tracer)
            finally:
                tracer.uninstall()
    problems = list(checked.problems)
    n_inputs = len(workload.inputs)
    p50, p90 = plain.latency_ms()
    attempted = n_inputs + sum(loop.attempted for loop in loops)
    failed = sum(checked.bad) + sum(loop.failed for loop in loops)
    scale = reference.scale
    report = {
        "setup_s": (statistics.median(setup_s) * scale, "s"),
        "ops_per_s": (plain.ops_per_s / scale, "1/s"),
        "op_ms_p50": (p50 * scale, "ms"),
        "op_ms_p90": (p90 * scale, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "task_success_rate": (checked.successes / n_inputs, "ratio"),
        "error_rate": (failed / attempted, "ratio"),
    }
    if checked.recovered is not None:
        report["key_recovery_rate"] = (checked.recovered / n_inputs, "ratio")
    print(f"workload {name} seed {seed}: {n_inputs} inputs in rotation; " + ", ".join(f"{k} {v}" for k, v in workload.sizes.items()))
    print(
        f"  timed ops {plain.timed} in {seconds / 2 if trace else seconds:g} s over {len(plain.ran)} inputs;"
        " latency of an input is its fastest run, p50 and p90 are over inputs"
    )
    print(
        f"  reference task {reference.best_ns / 1e6:.3f} ms at best (nominal {REFERENCE_NS / 1e6:g} ms):"
        f" timings below are scaled by {scale:.4f}; unscaled setup_s {statistics.median(setup_s):.6g} s,"
        f" ops_per_s {plain.ops_per_s:.6g} 1/s, op_ms_p50 {p50:.6g} ms, op_ms_p90 {p90:.6g} ms"
    )
    for key, (value, unit) in report.items():
        print(f"  {key} = {value:.6g} {unit}")
    print(f"  output sha256 {checked.sha256}")
    metrics = {k: report[k] for k in END_TO_END}
    if trace:
        metrics = spans.layer_metrics(tracer)
        metrics["trace.overhead_ratio"] = loops[1].ops_per_s / plain.ops_per_s if plain.ops_per_s else 0.0
        units = spans.metric_units()
        metrics = {k: (metrics[k], units[k]) for k in units}
        problems += spans.span_violations(tracer.spans)[:10]
        stem = f"{name}-seed{seed}"
        tracer.write(OUT_DIR / f"{stem}-spans.tsv")
        layers = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        (OUT_DIR / f"{stem}-layers.json").write_text(json.dumps(layers, indent=1) + "\n")
        print(f"  traced ops {loops[1].timed}, {len(tracer.spans)} spans written to {OUT_DIR / stem}-spans.tsv")
        for key, (value, unit) in metrics.items():
            print(f"  {key} = {value:.6g} {unit}")
    for problem in problems[:20]:
        print(f"  problem: {problem}")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process, so each reports its own peak memory."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable, __file__, *argv], stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except program.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
