"""Deterministic benchmark harness over the seven fixture tasks.

Each trial synthesizes a noisy label stream from the task's golden key
sequence, then runs the full pipeline: window filter, mask sensing, object
binding, plan validation, simulated execution, success predicate. Per-trial
seeds are derived from the master seed by a fixed counter, so a given
configuration always reproduces the same table byte for byte.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from . import fixtures
from .actions import keys_from_names, synthesize_stream, window_filter
from .knowledge import CooccurrenceModel, build_model, load_corpus, load_lexicon
from .planner import BindingError, bind_plan, validate_plan
from .pose import load_calibration, load_mask_file, sense_scene
from .sim import check_success, load_scenario, run_plan


@dataclass(frozen=True)
class BenchConfig:
    trials: int = 10
    noise_rate: float = 0.0
    window_width: int = 15
    seed: int = 0
    frames_per_key: int = 30
    corpus: Path = field(default_factory=fixtures.corpus_path)
    lexicon: Path = field(default_factory=fixtures.lexicon_path)
    calibration: Path = field(default_factory=fixtures.calibration_path)


@dataclass
class TaskResult:
    task: str
    trials: int = 0
    successes: int = 0
    executed_steps: int = 0
    failures: Counter = field(default_factory=Counter)

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0

    @property
    def mean_steps(self) -> float:
        return self.executed_steps / self.trials if self.trials else 0.0


def run_trial(inputs: tuple, model: CooccurrenceModel, seed: int, cfg: BenchConfig) -> tuple[bool, str | None, int]:
    """One pipeline pass; returns (success, failure reason, executed steps)."""
    golden, poses, (world, task_spec, sim_cfg) = inputs
    stream = synthesize_stream(golden, cfg.frames_per_key, cfg.noise_rate, seed)
    keys = window_filter(stream, cfg.window_width)
    try:
        plan = bind_plan(keys, poses, model)
    except BindingError as exc:
        return False, f"binding: {exc}", 0
    violations = validate_plan(plan)
    if violations:
        return False, f"validation: {violations[0]}", 0
    trace, final = run_plan(world, plan, sim_cfg)
    if not trace.all_ok:
        failure = trace.failure
        return False, f"execution: {failure.reason}", len(trace.steps)
    if not check_success(trace, final, task_spec, sim_cfg):
        return False, "predicate: task goal not reached", len(trace.steps)
    return True, None, len(trace.steps)


def _load_inputs(cfg: BenchConfig) -> tuple[CooccurrenceModel, dict[str, tuple]]:
    """The model and, per fixture task, its (golden keys, poses, scenario)."""
    cal = load_calibration(cfg.calibration)
    model = build_model(load_corpus(cfg.corpus), load_lexicon(cfg.lexicon))
    tasks = {}
    for task in fixtures.TASKS:
        golden = keys_from_names(json.loads(fixtures.keys_path(task).read_text()))
        poses = sense_scene(load_mask_file(fixtures.masks_path(task)), cal)
        tasks[task] = (golden, poses, load_scenario(fixtures.scenario_path(task)))
    return model, tasks


def run_benchmark(cfg: BenchConfig) -> dict[str, TaskResult]:
    """All fixture tasks, cfg.trials trials each, seeds derived by a fixed counter."""
    model, tasks = _load_inputs(cfg)
    results: dict[str, TaskResult] = {}
    for task_index, (task, inputs) in enumerate(tasks.items()):
        result = TaskResult(task=task)
        for trial in range(cfg.trials):
            seed = cfg.seed + task_index * cfg.trials + trial
            ok, reason, steps = run_trial(inputs, model, seed, cfg)
            result.trials += 1
            result.executed_steps += steps
            if ok:
                result.successes += 1
            else:
                result.failures[reason] += 1
        results[task] = result
    return results


def results_tsv(results: dict[str, TaskResult]) -> str:
    lines = ["task\ttrials\tsuccesses\tsuccess_rate\tmean_steps\tfailures"]
    for task, r in results.items():
        failures = ";".join(f"{reason} x{count}" for reason, count in sorted(r.failures.items()))
        lines.append(
            f"{task}\t{r.trials}\t{r.successes}\t{r.success_rate:.4f}\t{r.mean_steps:.2f}\t{failures}"
        )
    return "\n".join(lines) + "\n"


def summary_doc(cfg: BenchConfig, results: dict[str, TaskResult]) -> dict:
    return {
        "config": {
            "trials": cfg.trials,
            "noise_rate": cfg.noise_rate,
            "window_width": cfg.window_width,
            "seed": cfg.seed,
            "frames_per_key": cfg.frames_per_key,
        },
        "tasks": {
            task: {
                "trials": r.trials,
                "successes": r.successes,
                "success_rate": r.success_rate,
                "mean_steps": r.mean_steps,
                "failures": dict(sorted(r.failures.items())),
            }
            for task, r in results.items()
        },
    }


def write_outputs(cfg: BenchConfig, results: dict[str, TaskResult], out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "bench.tsv").write_text(results_tsv(results), encoding="utf-8")
    (out / "summary.json").write_text(
        json.dumps(summary_doc(cfg, results), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
