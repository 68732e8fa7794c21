"""Command-line pipeline driver.

Subcommands mirror the pipeline stages: ``filter`` extracts key actions from
a label stream, ``plan`` grounds them against masks and the knowledge
corpus, ``run`` executes a plan in a scenario world, ``bench`` sweeps the
seven fixture tasks under synthetic noise, and ``corpus stats`` prints the
co-occurrence table.

Exit codes: 0 success, 1 task failure, 2 input parse error or unwritable
output, 3 binding or validation error, 4 plan/scenario mismatch. main maps
the OSError and ValueError of every loader and writer to 2 and BindingError
to 3, so each prints one line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bench as bench_mod
from . import fixtures
from .actions import load_label_stream, window_filter
from .knowledge import build_model, load_corpus, load_lexicon, stats_tsv
from .planner import BindingError, bind_plan, dump_plan, load_plan, plan_to_json, validate_plan
from .pose import load_calibration, load_mask_file, sense_scene
from .sim import check_success, load_scenario, run_plan, trace_to_jsonl

EXIT_OK = 0
EXIT_TASK_FAILURE = 1
EXIT_PARSE = 2
EXIT_BINDING = 3
EXIT_MISMATCH = 4


def _err(message: str) -> None:
    print(f"demoplan: error: {message}", file=sys.stderr)


def _write(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")


def cmd_filter(args: argparse.Namespace) -> int:
    keys = window_filter(load_label_stream(args.labels), args.window_width)
    text = json.dumps([k.value for k in keys]) + "\n"
    sys.stdout.write(text)
    _write(args.out, text)
    return EXIT_OK


def cmd_plan(args: argparse.Namespace) -> int:
    stream = load_label_stream(args.labels)
    scene = load_mask_file(args.masks)
    cal = load_calibration(args.calibration)
    model = build_model(load_corpus(args.corpus), load_lexicon(args.lexicon))
    keys = window_filter(stream, args.window_width)
    plan = bind_plan(keys, sense_scene(scene, cal), model)
    violations = validate_plan(plan)
    if violations:
        for v in violations:
            _err(f"validation: {v}")
        return EXIT_BINDING
    text = json.dumps(plan_to_json(plan), indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if args.out:
        dump_plan(plan, args.out)
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    plan = load_plan(args.plan)
    world, task_spec, sim_cfg = load_scenario(args.scenario)
    scenario_classes = {o.class_name for o in world.objects.values()}
    for idx, step in enumerate(plan.steps):
        for pose in (step.primary, step.target):
            if pose is not None and pose.class_name not in scenario_classes:
                _err(f"step {idx}: plan references class '{pose.class_name}' absent from scenario")
                return EXIT_MISMATCH
    trace, final = run_plan(world, plan, sim_cfg)
    _write(args.out, trace_to_jsonl(trace))
    if not trace.all_ok:
        failure = trace.failure
        print(f"FAILURE step {failure.index} ({failure.action.primitive.value}): {failure.reason}")
        return EXIT_TASK_FAILURE
    if not check_success(trace, final, task_spec, sim_cfg):
        print("FAILURE: task goal not reached")
        return EXIT_TASK_FAILURE
    print(f"SUCCESS: {len(trace.steps)} steps")
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = bench_mod.BenchConfig(
        trials=args.trials,
        noise_rate=args.noise,
        window_width=args.window_width,
        seed=args.seed,
        corpus=Path(args.corpus),
        lexicon=Path(args.lexicon),
        calibration=Path(args.calibration),
    )
    if cfg.trials < 1:
        raise ValueError("trials must be >= 1")
    results = bench_mod.run_benchmark(cfg)
    sys.stdout.write(bench_mod.results_tsv(results))
    if args.out:
        bench_mod.write_outputs(cfg, results, args.out)
    return EXIT_OK


def cmd_corpus(args: argparse.Namespace) -> int:
    model = build_model(load_corpus(args.corpus), load_lexicon(args.lexicon))
    sys.stdout.write(stats_tsv(model))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="demoplan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_filter = sub.add_parser("filter", help="extract key actions from a JSONL label stream")
    p_filter.add_argument("--labels", required=True, help="JSONL label stream")
    p_filter.add_argument("--window-width", type=int, default=15)
    p_filter.add_argument("--out", help="write the key sequence JSON here")
    p_filter.set_defaults(func=cmd_filter)

    p_plan = sub.add_parser("plan", help="bind a label stream to scene objects")
    p_plan.add_argument("--labels", required=True)
    p_plan.add_argument("--masks", required=True)
    p_plan.add_argument("--corpus", default=str(fixtures.corpus_path()))
    p_plan.add_argument("--lexicon", default=str(fixtures.lexicon_path()))
    p_plan.add_argument("--calibration", default=str(fixtures.calibration_path()))
    p_plan.add_argument("--window-width", type=int, default=15)
    p_plan.add_argument("--out", help="write the bound plan JSON here")
    p_plan.set_defaults(func=cmd_plan)

    p_run = sub.add_parser("run", help="execute a bound plan in a scenario world")
    p_run.add_argument("--plan", required=True)
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--out", help="write the execution trace JSONL here")
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="noisy-stream benchmark over the fixture tasks")
    p_bench.add_argument("--trials", type=int, default=10)
    p_bench.add_argument("--noise", type=float, default=0.0)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--window-width", type=int, default=15)
    p_bench.add_argument("--corpus", default=str(fixtures.corpus_path()))
    p_bench.add_argument("--lexicon", default=str(fixtures.lexicon_path()))
    p_bench.add_argument("--calibration", default=str(fixtures.calibration_path()))
    p_bench.add_argument("--out", help="directory for bench.tsv and summary.json")
    p_bench.set_defaults(func=cmd_bench)

    p_corpus = sub.add_parser("corpus", help="corpus utilities")
    p_corpus.add_argument("action", choices=["stats"])
    p_corpus.add_argument("--corpus", default=str(fixtures.corpus_path()))
    p_corpus.add_argument("--lexicon", default=str(fixtures.lexicon_path()))
    p_corpus.set_defaults(func=cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        _err(str(exc))
        return EXIT_PARSE
    except BindingError as exc:
        _err(str(exc))
        return EXIT_BINDING


if __name__ == "__main__":
    sys.exit(main())
