#!/usr/bin/env python3
"""Sweep frame-noise levels and report exact key-sequence recovery per task.

Prints a TSV: one row per noise level, one column per task, enabling a quick
look at how fast the window filter degrades. Recovery is exact-match of the
filtered keys against the task's golden sequence.

Example:
    python scripts/noise_sweep.py --seeds 200 --window-width 15
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from demoplan import fixtures
from demoplan.actions import keys_from_names, synthesize_stream, window_filter

DEFAULT_LEVELS = (0.0, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=100, help="trials per (task, noise) cell")
    parser.add_argument("--window-width", type=int, default=15)
    parser.add_argument("--frames-per-key", type=int, default=30)
    parser.add_argument(
        "--levels", type=float, nargs="*", default=list(DEFAULT_LEVELS), help="noise rates to sweep"
    )
    args = parser.parse_args()
    counts = {"--seeds": args.seeds, "--window-width": args.window_width, "--frames-per-key": args.frames_per_key}
    for option, value in counts.items():
        if value < 1:
            parser.error(f"{option} must be at least 1, not {value}")
    for level in args.levels:
        if not 0.0 <= level <= 1.0:
            parser.error(f"--levels {level} does not lie in [0, 1]")

    goldens = {
        task: keys_from_names(json.loads(fixtures.keys_path(task).read_text()))
        for task in fixtures.TASKS
    }
    print("noise\t" + "\t".join(fixtures.TASKS))
    for noise in args.levels:
        row = [f"{noise:.2f}"]
        for task in fixtures.TASKS:
            golden = goldens[task]
            hits = 0
            for seed in range(args.seeds):
                stream = synthesize_stream(golden, args.frames_per_key, noise, seed)
                if window_filter(stream, args.window_width).keys == golden.keys:
                    hits += 1
            row.append(f"{hits / args.seeds:.3f}")
        print("\t".join(row))


if __name__ == "__main__":
    main()
