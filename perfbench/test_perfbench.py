"""Smoke tests of the benchmark at tiny sizes."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

from perfbench import checks, inputs, program, run, spans, workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    """Tiny workloads; the package modules the rest of the suite imported are put back afterwards."""
    saved = {name: sys.modules[name] for name in program.package_modules()}
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    monkeypatch.setattr(workloads.FixtureTrials, "TRIALS", 2)
    monkeypatch.setattr(workloads.DemoFiles, "DEMOS", 1)
    monkeypatch.setattr(workloads.DemoFiles, "SCALE", 2)
    monkeypatch.setattr(workloads.LongHorizon, "DEMOS", 1)
    monkeypatch.setattr(workloads.LongHorizon, "FRAMES", 900)
    monkeypatch.setattr(workloads.LongHorizon, "STEPS", 80)
    yield
    for name in program.package_modules():
        del sys.modules[name]
    sys.modules.update(saved)


def run_bench(capsys, workload: str, trace: int) -> tuple[dict, str]:
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    return json.loads(out.splitlines()[-1]), out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    result, out = run_bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert f"  {name} = " in out and out.split(f"  {name} = ")[1].split("\n")[0].endswith(f" {unit}")
    assert "error_rate = 0 ratio" in out and "output sha256 " in out


def test_outputs_repeat_for_a_seed(capsys):
    sha = [run_bench(capsys, "long_horizon", 0)[1].split("output sha256 ")[1][:64] for _ in range(2)]
    assert sha[0] == sha[1]


def test_wrong_key_sequence_counts_as_error(capsys, monkeypatch):
    original = workloads.FixtureTrials.op

    def wrong_first_input(self, prog, state, item):
        keys, *rest = original(self, prog, state, item)
        return (keys.keys[:-1] if item == self.inputs[0] else keys, *rest)

    monkeypatch.setattr(workloads.FixtureTrials, "op", wrong_first_input)
    result, out = run_bench(capsys, "fixture_trials", 0)
    assert not result["correct"] and result["failed"] >= 1
    assert "error_rate = 0 ratio" not in out
    assert "filtered keys differ from the mode filter" in out


def traced_ops(n_ops: int) -> spans.Tracer:
    prog = program.load(run.ROOT)
    workload = workloads.FixtureTrials(prog, 0, None)
    tracer = spans.Tracer(workload.mask_files)
    tracer.install(prog)
    try:
        with tracer.root(spans.SETUP, -1):
            state = workload.setup(prog)
        for i in range(n_ops):
            with tracer.root(spans.OP, i):
                workload.op(prog, state, workload.inputs[i])
    finally:
        tracer.uninstall()
    assert prog.sim.digest.__module__ == "demoplan.sim" and not hasattr(prog.sim.digest, "__wrapped__")
    return tracer


def test_spans_nest_and_self_times_add_up():
    tracer = traced_ops(14)
    assert spans.span_violations(tracer.spans) == []
    selfs = spans.self_times(tracer.spans)
    assert min(selfs) >= 0
    children = [0] * len(tracer.spans)
    for _, t0, t1, parent, _ in tracer.spans:
        if parent >= 0:
            children[parent] += t1 - t0
    for i, (fid, t0, t1, parent, op) in enumerate(tracer.spans):
        if fid == spans.OP:
            assert children[i] <= t1 - t0
    names = {spans.NAMES[fid] for fid, *_ in tracer.spans}
    assert {"sim.digest", "sim.apply_primitive", "knowledge.build_model", "pose.sense_scene"} <= names
    digest_parents = {spans.NAMES[tracer.spans[s[3]][0]] for s in tracer.spans if spans.NAMES[s[0]] == "sim.digest"}
    assert digest_parents == {"sim.run_plan"}
    metrics = spans.layer_metrics(tracer)
    assert metrics["sim.digest.calls_per_step"] == 2
    assert metrics["knowledge.build_model.setup_ms"] > 0 and metrics["knowledge.build_model.calls"] == 0


def test_span_checker_rejects_a_child_outside_its_parent():
    bad = [(spans.OP, 0, 10, -1, 0), (2, 5, 12, 0, 0)]
    assert spans.span_violations(bad)


def test_mode_filter_follows_the_docstring():
    assert checks.mode_filter(["pick", "move", "move"], 15) == ["move"]
    # Tied window: the label whose first occurrence is latest wins.
    assert checks.mode_filter(["idle", "idle", "pick", "pick"], 3) == ["pick"]
    frames = inputs.noisy_frames(["idle", "move", "pick", "place"], 30, 0.0, random.Random(0))
    assert checks.mode_filter(frames, 15) == ["idle", "move", "pick", "place"]


def test_world_checker_finds_a_containment_cycle():
    obj = SimpleNamespace(x=0.5, y=0.5)
    world = SimpleNamespace(
        objects={"a": obj, "b": obj},
        inside={"a": "b", "b": "a"},
        gripper=SimpleNamespace(holding=None, x=0.0, y=0.0),
        width=1.0,
        height=1.0,
    )
    assert any("cycle" in v for v in checks.world_violations(world, world))


def test_upscaled_masks_keep_pixel_count_and_encoding():
    doc = {"image_size": [10, 10], "objects": [{"class": "a", "points": [[1, 2]]}, {"class": "b", "rle_rows": [[3, 4, 2]]}]}
    big = inputs.upscale_masks(doc, 3)
    assert inputs.mask_pixels(big) == 9 * inputs.mask_pixels(doc)
    assert "points" in big["objects"][0] and "rle_rows" in big["objects"][1]


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "fixture_trials", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
