#!/usr/bin/env python3
"""Record the benchmark and three scale points in BENCH_<tag>.json at the repository root.

For each workload, runs ``perfbench/run.py --workload W --seed 0 --seconds S``
once with ``--trace 0`` (end-to-end metrics) and once with ``--trace 1``
(per-layer metrics), and keeps the last JSON line of each run together with
the output sha256 and the reference task's fastest time (``reference_ms``)
that it printed. perfbench scales its untraced timings by that time but not
its traced per-layer figures, which follow the host's speed; multiply a
traced time by ``7.5 / reference_ms`` (7.5 ms is perfbench's REFERENCE_NS)
to compare it with one from another run. Then times three scale points
through the package's public functions, each as the fastest of REPEATS runs
and reported as a unit cost:

  labels  a seeded 30k-frame label stream, loaded and filtered (ns/frame)
  masks   the fixture masks upscaled 4x to 2400x2400 by perfbench's generator,
          split by encoding into point and RLE objects, loaded and sensed (ns/px)
  plan    a seeded 10k-step plan over 24 objects, run, written as a JSONL
          trace and written as a plan file by dump_plan (us/step)

The inputs come from the generators in ``perfbench/inputs.py``. A scale point
is one reading, not a distribution: two files recorded at different times
differ by host drift as much as by code, so compare commits with alternating
perfbench runs, not with these points. ``environment.bytecode_cached`` records
whether every package module had its bytecode cache before the first perfbench
run, which decides most of ``setup_s``: compare two checkouts only in the same
cache state. ``environment.commit`` is the checkout's HEAD, which for an
uncommitted change is its parent and without git is null; so
``environment.source_sha256`` names the code measured, a sha256 over the
package's ``.py`` files (see source_sha256). Example:

    python scripts/bench_record.py --tag pr12 --seconds 10
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from demoplan import fixtures  # noqa: E402
from demoplan.actions import load_label_stream, window_filter  # noqa: E402
from demoplan.planner import dump_plan, load_plan  # noqa: E402
from demoplan.pose import load_calibration, load_mask_file, sense_scene  # noqa: E402
from demoplan.sim import load_scenario, run_plan, trace_to_jsonl  # noqa: E402
from perfbench import inputs  # noqa: E402

WORKLOADS = ("fixture_trials", "demo_files", "long_horizon")
SEED = 0
WINDOW = 15
FRAMES_PER_KEY = 30
NOISE = 0.1
OBJECTS = 24
FRAMES = 30_000
MASK_SCALE = 4
STEPS = 10_000
REPEATS = 5  # runs per scale point; the fastest counts
SHA_LINE = re.compile(r"^\s*output sha256 ([0-9a-f]{64})$", re.M)
REFERENCE_LINE = re.compile(r"^\s*reference task ([0-9.]+) ms at best", re.M)


def run_workload(name: str, seconds: float, trace: int) -> dict:
    """One perfbench run: its last JSON line plus the output sha256 and reference time printed above it."""
    argv = ["--workload", name, "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *argv], cwd=ROOT, capture_output=True, text=True
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_record: perfbench {' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
    sha, ref = SHA_LINE.search(proc.stdout), REFERENCE_LINE.search(proc.stdout)
    return {**json.loads(lines[-1]), "output_sha256": sha and sha.group(1), "reference_ms": ref and float(ref.group(1))}


def fastest_ns(fn, repeats: int) -> int:
    """Fastest of `repeats` calls, with the garbage collector on as in real use (timeit turns it off)."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter_ns()
        fn()
        times.append(perf_counter_ns() - t0)
    return min(times)


def label_point(work: Path, frames: int, repeats: int) -> dict:
    rng = random.Random(f"{SEED}/labels")
    path = work / "labels.jsonl"
    keys = inputs.random_keys(frames // FRAMES_PER_KEY, rng)
    inputs.write_labels(path, inputs.noisy_frames(keys, FRAMES_PER_KEY, NOISE, rng))
    stream = load_label_stream(path)
    return {
        "frames": len(stream),
        "load_ns_per_frame": fastest_ns(lambda: load_label_stream(path), repeats) / len(stream),
        "filter_ns_per_frame": fastest_ns(lambda: window_filter(stream, WINDOW), repeats) / len(stream),
    }


def mask_point(work: Path, scale: int, repeats: int) -> dict:
    cal = load_calibration(fixtures.calibration_path())
    docs = [inputs.upscale_masks(json.loads(fixtures.masks_path(t).read_text()), scale) for t in fixtures.TASKS]
    result = {"scale": scale, "image_size": docs[0]["image_size"]}
    for encoding in ("points", "rle_rows"):
        paths, px = [], 0
        for task, doc in zip(fixtures.TASKS, docs):
            objects = [obj for obj in doc["objects"] if encoding in obj]
            if objects:
                part = {**doc, "objects": objects}
                paths.append(work / f"masks_{task}_{encoding}.json")
                inputs.write_json(paths[-1], part)
                px += inputs.mask_pixels(part)
        scenes = [load_mask_file(p) for p in paths]
        result[encoding] = {
            "px": px,
            "load_ns_per_px": fastest_ns(lambda: [load_mask_file(p) for p in paths], repeats) / px,
            "sense_ns_per_px": fastest_ns(lambda: [sense_scene(s, cal) for s in scenes], repeats) / px,
        }
    return result


def plan_point(work: Path, steps: int, repeats: int) -> dict:
    scenario, plan_steps = inputs.long_plan(OBJECTS, steps, random.Random(f"{SEED}/plan"))
    inputs.write_json(work / "scenario.json", scenario)
    inputs.write_json(work / "plan.json", plan_steps)
    world, _, cfg = load_scenario(work / "scenario.json")
    plan = load_plan(work / "plan.json")
    trace, _ = run_plan(world, plan, cfg)
    return {
        "steps": len(plan.steps),
        "objects": OBJECTS,
        "all_ok": trace.all_ok,
        "run_us_per_step": fastest_ns(lambda: run_plan(world, plan, cfg), repeats) / 1e3 / len(plan.steps),
        "trace_us_per_step": fastest_ns(lambda: trace_to_jsonl(trace), repeats) / 1e3 / len(plan.steps),
        "write_us_per_step": fastest_ns(lambda: dump_plan(plan, work / "plan_out.json"), repeats) / 1e3 / len(plan.steps),
    }


def bytecode_cached() -> bool:
    """Every package module has its compiled file, so perfbench's fresh imports do not compile the source."""
    package = ROOT / "src" / "demoplan"
    return all(Path(importlib.util.cache_from_source(p)).exists() for p in package.glob("*.py"))


def source_sha256(root: Path = ROOT) -> str:
    """sha256 over every src/demoplan/**/*.py under root, sorted by relative path.

    Each file adds its relative path, its byte count and its bytes, so a moved
    file changes the hash as an edited one does.
    """
    files = {p.relative_to(root).as_posix(): p for p in (root / "src" / "demoplan").rglob("*.py")}
    h = hashlib.sha256()
    for rel in sorted(files):
        data = files[rel].read_bytes()
        h.update(f"{rel}\0{len(data)}\0".encode("utf-8") + data)
    return h.hexdigest()


def git_commit() -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv: list[str] | None = None) -> Path:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tag", required=True, help="the file written is BENCH_<tag>.json")
    parser.add_argument("--seconds", type=float, default=10.0, help="perfbench --seconds for each run")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[\w.-]+", args.tag):
        parser.error("--tag may hold only letters, digits, '_', '.' and '-'")

    record = {
        "tag": args.tag,
        "environment": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "commit": git_commit(),
            "source_sha256": source_sha256(),
            "bytecode_cached": bytecode_cached(),  # read before the first perfbench run
        },
        "settings": {"seed": SEED, "seconds": args.seconds, "repeats": REPEATS},
        "workloads": {
            name: {"untraced": run_workload(name, args.seconds, 0), "traced": run_workload(name, args.seconds, 1)}
            for name in WORKLOADS
        },
    }
    with tempfile.TemporaryDirectory() as work:
        record["scale_points"] = {
            "labels": label_point(Path(work), FRAMES, REPEATS),
            "masks": mask_point(Path(work), MASK_SCALE, REPEATS),
            "plan": plan_point(Path(work), STEPS, REPEATS),
        }
    out = OUT_DIR / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(out)
    return out


if __name__ == "__main__":
    main()
