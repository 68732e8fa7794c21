"""The three workloads: inputs, the program's set-up, one op, and the output checks.

All are closed loops with one client: the next op starts when the last one
returns. Inputs are made from the seed before timing starts; ops cycle
through them in a fixed order. ``check`` runs every input once, outside the
timed region, verifies the outputs and records a fingerprint per input that
each timed op must reproduce.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import statistics
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from . import checks, inputs

WINDOW = 15
FRAMES_PER_KEY = 30
NOISE = 0.10


@dataclass
class Checked:
    """Outcome of the check pass: one entry per input, in input order."""

    expected: list[str] = field(default_factory=list)
    bad: list[bool] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    successes: int = 0
    recovered: int | None = None

    def add(self, fingerprint: str, problems: list[str]) -> None:
        self.expected.append(fingerprint)
        self.bad.append(bool(problems))
        self.problems.extend(problems)

    @property
    def sha256(self) -> str:
        return hashlib.sha256("\n".join(self.expected).encode()).hexdigest()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check(workload, prog, state) -> Checked:
    """Run every input once, verify its outputs and record its fingerprint."""
    out = Checked(recovered=0 if hasattr(workload, "recovered") else None)
    for item in workload.inputs:
        try:
            result = workload.op(prog, state, item)
            problems = workload.verify(prog, state, item, result)
            fingerprint = workload.fingerprint(result)
        except Exception as exc:  # an unexpected exception is an error of this input
            out.add("", [f"{item}: {exc!r}"])
            continue
        out.add(fingerprint, problems)
        out.successes += workload.succeeded(result)
        if out.recovered is not None:
            out.recovered += workload.recovered(state, item, result)
    if hasattr(workload, "cross_check"):
        workload.cross_check(prog, state, out)
    return out


class FixtureTrials:
    """One op is one trial as ``demoplan bench`` runs it, tasks in rotation."""

    name = "fixture_trials"
    TRIALS = 100  # per task, as in the paper's evaluation

    def __init__(self, prog, seed: int, workdir: Path):
        fx = prog.fixtures
        self.seed = seed
        self.tasks = tuple(fx.TASKS)
        # Per-trial seeds are derived exactly as bench.run_benchmark derives them.
        self.inputs = [
            (task, seed + ti * self.TRIALS + trial) for trial in range(self.TRIALS) for ti, task in enumerate(self.tasks)
        ]
        self.mask_files = [fx.masks_path(t) for t in self.tasks]
        keys = [len(json.loads(fx.keys_path(t).read_text())) for t in self.tasks]
        objects = [len(json.loads(fx.scenario_path(t).read_text())["objects"]) for t in self.tasks]
        px = sum(inputs.mask_pixels(json.loads(p.read_text())) for p in self.mask_files)
        self.sizes = {
            "frames/op": statistics.mean(keys) * FRAMES_PER_KEY,
            "keys/op": statistics.mean(keys),
            "px/op": 0,
            "px in set-up": px,
            "objects": f"{min(objects)}-{max(objects)}",
        }

    def setup(self, prog):
        fx, pose, knowledge = prog.fixtures, prog.pose, prog.knowledge
        cal = pose.load_calibration(fx.calibration_path())
        model = knowledge.build_model(knowledge.load_corpus(fx.corpus_path()), knowledge.load_lexicon(fx.lexicon_path()))
        tasks = {}
        for task in self.tasks:
            golden = prog.actions.keys_from_names(json.loads(fx.keys_path(task).read_text()))
            poses = pose.sense_scene(pose.load_mask_file(fx.masks_path(task)), cal)
            tasks[task] = (golden, poses, prog.sim.load_scenario(fx.scenario_path(task)))
        return SimpleNamespace(model=model, tasks=tasks)

    def op(self, prog, state, item):
        task, seed = item
        golden, poses, (world, spec, cfg) = state.tasks[task]
        stream = prog.actions.synthesize_stream(golden, FRAMES_PER_KEY, NOISE, seed)
        keys = prog.actions.window_filter(stream, WINDOW)
        try:
            plan = prog.planner.bind_plan(keys, poses, state.model)
        except prog.planner.BindingError:
            return keys, "binding", 0, ""
        if prog.planner.validate_plan(plan):
            return keys, "validation", 0, ""
        trace, final = prog.sim.run_plan(world, plan, cfg)
        last = trace.steps[-1].post_digest if trace.steps else ""
        if not trace.all_ok:
            return keys, "execution", len(trace.steps), last
        ok = prog.sim.check_success(trace, final, spec, cfg)
        return keys, "success" if ok else "predicate", len(trace.steps), last

    def fingerprint(self, result) -> str:
        keys, status, steps, last = result
        return f"{' '.join(k.value for k in keys)}|{status}|{steps}|{last}"

    def verify(self, prog, state, item, result) -> list[str]:
        """The filtered keys must equal the mode filter's on the same stream."""
        task, seed = item
        stream = prog.actions.synthesize_stream(state.tasks[task][0], FRAMES_PER_KEY, NOISE, seed)
        expected = checks.mode_filter([f.value for f in stream.frames], WINDOW)
        if [k.value for k in result[0]] != expected:
            return [f"{task} seed {seed}: filtered keys differ from the mode filter"]
        return []

    def succeeded(self, result) -> bool:
        return result[1] == "success"

    def recovered(self, state, item, result) -> bool:
        return [k.value for k in result[0]] == [k.value for k in state.tasks[item[0]][0]]

    def cross_check(self, prog, state, out: Checked) -> None:
        """The per-task tally must equal bench.run_benchmark's for the same seed and trials."""
        tally = {task: [0, 0, 0] for task in self.tasks}
        for (task, _), fingerprint in zip(self.inputs, out.expected):
            if not fingerprint:  # the input raised; it is already counted as an error
                continue
            _, status, steps, _ = fingerprint.split("|")
            tally[task] = [tally[task][0] + 1, tally[task][1] + (status == "success"), tally[task][2] + int(steps or 0)]
        cfg = prog.bench.BenchConfig(
            trials=self.TRIALS, noise_rate=NOISE, window_width=WINDOW, seed=self.seed, frames_per_key=FRAMES_PER_KEY
        )
        for task, r in prog.bench.run_benchmark(cfg).items():
            if tally[task] != [r.trials, r.successes, r.executed_steps]:
                out.problems.append(f"{task}: tally {tally[task]} differs from bench.run_benchmark")
                out.bad = [bad or t == task for bad, (t, _) in zip(out.bad, self.inputs)]


@dataclass(frozen=True)
class Demo:
    task: str
    labels: str
    masks: str
    fixture_masks: str
    scenario: str


class DemoFiles:
    """One op is ``demoplan plan`` then ``demoplan run`` on files, through ``cli.main``."""

    name = "demo_files"
    SCALE = 3
    DEMOS = 2  # noisy label streams per task; few inputs, so each runs often enough for its fastest time

    def __init__(self, prog, seed: int, workdir: Path):
        fx = prog.fixtures
        self.dir = workdir
        self.calibration = workdir / f"calibration_x{self.SCALE}.json"
        inputs.write_json(self.calibration, inputs.upscale_calibration(json.loads(fx.calibration_path().read_text()), self.SCALE))
        self.shared = ["--corpus", str(fx.corpus_path()), "--lexicon", str(fx.lexicon_path())]
        self.fixture_calibration = str(fx.calibration_path())
        self.mask_files, px, objects, demos = [], {}, {}, {}
        for task in fx.TASKS:
            doc = inputs.upscale_masks(json.loads(fx.masks_path(task).read_text()), self.SCALE)
            masks = workdir / f"masks_{task}_x{self.SCALE}.json"
            inputs.write_json(masks, doc)
            self.mask_files.append(masks)
            px[task], objects[task] = inputs.mask_pixels(doc), len(doc["objects"])
            golden = json.loads(fx.keys_path(task).read_text())
            for r in range(self.DEMOS):
                labels = workdir / f"labels_{task}_{r}.jsonl"
                inputs.write_labels(labels, inputs.noisy_frames(golden, FRAMES_PER_KEY, NOISE, random.Random(f"{seed}/{task}/{r}")))
                demos[task, r] = Demo(task, str(labels), str(masks), str(fx.masks_path(task)), str(fx.scenario_path(task)))
        self.inputs = [demos[task, r] for r in range(self.DEMOS) for task in fx.TASKS]
        keys = [len(json.loads(fx.keys_path(d.task).read_text())) for d in self.inputs]
        self.sizes = {
            "frames/op": statistics.mean(keys) * FRAMES_PER_KEY,
            "keys/op": statistics.mean(keys),
            "px/op": statistics.mean(px[d.task] for d in self.inputs),
            "objects": f"{min(objects.values())}-{max(objects.values())}",
        }

    def setup(self, prog):
        return None  # the CLI loads everything inside each op

    def _cli(self, prog, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = prog.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def op(self, prog, state, demo: Demo, fixture: bool = False):
        tag = "fixture" if fixture else "op"
        plan_file, trace_file = self.dir / f"{tag}_plan.json", self.dir / f"{tag}_trace.jsonl"
        masks, cal = (demo.fixture_masks, self.fixture_calibration) if fixture else (demo.masks, str(self.calibration))
        plan = self._cli(
            prog,
            ["plan", "--labels", demo.labels, "--masks", masks, *self.shared, "--calibration", cal, "--out", str(plan_file)],
        )
        if plan[0] != 0:
            return plan, None, None
        run = self._cli(prog, ["run", "--plan", str(plan_file), "--scenario", demo.scenario, "--out", str(trace_file)])
        return plan, run, trace_file

    def fingerprint(self, result) -> str:
        plan, run, trace_file = result
        trace = trace_file.read_text() if trace_file is not None else ""
        return _sha(json.dumps([plan, run, trace]))

    def verify(self, prog, state, demo: Demo, result) -> list[str]:
        """Exit codes and plan classes equal the unscaled fixture's; poses within 1e-9."""
        plan, run, _ = result
        ref_plan, ref_run, _ = self.op(prog, state, demo, fixture=True)
        where = f"{demo.task} {Path(demo.labels).name}"
        codes = (plan[0], run and run[0]), (ref_plan[0], ref_run and ref_run[0])
        if codes[0] != codes[1]:
            return [f"{where}: exit codes {codes[0]} differ from the unscaled masks' {codes[1]}"]
        if plan[0] != 0:
            return []
        steps, ref_steps = json.loads(plan[1]), json.loads(ref_plan[1])
        if len(steps) != len(ref_steps):
            return [f"{where}: plan has {len(steps)} steps, unscaled {len(ref_steps)}"]
        for i, (a, b) in enumerate(zip(steps, ref_steps)):
            for slot in ("primary", "target"):
                pa, pb = a[slot], b[slot]
                if (pa is None) != (pb is None) or a["primitive"] != b["primitive"]:
                    return [f"{where}: step {i} {slot} differs from the unscaled plan"]
                if pa is None:
                    continue
                close = all(abs(pa[k] - pb[k]) <= 1e-9 for k in ("x", "y", "theta"))
                if pa["class"] != pb["class"] or pa["degenerate"] != pb["degenerate"] or not close:
                    return [f"{where}: step {i} {slot} pose {pa} differs from the unscaled {pb}"]
        return []

    def succeeded(self, result) -> bool:
        return result[1] is not None and result[1][0] == 0


class LongHorizon:
    """One op filters a long noisy stream and executes a long plan in a crowded world."""

    name = "long_horizon"
    DEMOS = 4
    FRAMES = 20_000
    STEPS = 600
    OBJECTS = 24

    def __init__(self, prog, seed: int, workdir: Path):
        self.frames: list[list[str]] = []
        self.files: list[tuple[str, str, str]] = []
        for d in range(self.DEMOS):
            rng = random.Random(f"{seed}/long/{d}")
            frames = inputs.noisy_frames(inputs.random_keys(self.FRAMES // FRAMES_PER_KEY, rng), FRAMES_PER_KEY, NOISE, rng)
            scenario, steps = inputs.long_plan(self.OBJECTS, self.STEPS, rng)
            paths = [workdir / f"long_{d}_labels.jsonl", workdir / f"long_{d}_scenario.json", workdir / f"long_{d}_plan.json"]
            inputs.write_labels(paths[0], frames)
            inputs.write_json(paths[1], scenario)
            inputs.write_json(paths[2], steps)
            self.frames.append(frames)
            self.files.append(tuple(str(p) for p in paths))
        self.inputs = list(range(self.DEMOS))
        self.mask_files = []
        self.sizes = {"frames/op": self.FRAMES, "steps/op": self.STEPS, "px/op": 0, "objects": self.OBJECTS}

    def setup(self, prog):
        return [
            (prog.actions.load_label_stream(labels), prog.sim.load_scenario(scenario), prog.planner.load_plan(plan))
            for labels, scenario, plan in self.files
        ]

    def op(self, prog, state, d: int):
        stream, (world, spec, cfg), plan = state[d]
        keys = prog.actions.window_filter(stream, WINDOW)
        trace, final = prog.sim.run_plan(world, plan, cfg)
        ok = prog.sim.check_success(trace, final, spec, cfg)
        return keys, trace, final, ok, prog.sim.trace_to_jsonl(trace)

    def fingerprint(self, result) -> str:
        keys, _, _, ok, text = result
        return _sha(f"{' '.join(k.value for k in keys)}|{ok}|{text}")

    def verify(self, prog, state, d: int, result) -> list[str]:
        """Mode-filter keys, every step ok, digests chain, simulator invariants hold."""
        keys, trace, final, _, _ = result
        problems = []
        if [k.value for k in keys] != checks.mode_filter(self.frames[d], WINDOW):
            problems.append("filtered keys differ from the mode filter")
        if len(trace.steps) != self.STEPS:
            problems.append(f"{len(trace.steps)} of {self.STEPS} steps executed")
        problems += checks.chain_violations(trace.steps)
        problems += checks.world_violations(state[d][1][0], final)
        return [f"long input {d}: {p}" for p in problems]

    def succeeded(self, result) -> bool:
        return bool(result[3])


WORKLOADS = {w.name: w for w in (FixtureTrials, DemoFiles, LongHorizon)}
